"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything here is pinned: counts come from independent counting routes,
random draws are seeded, and sweeps are exhaustive at the stated scales.
"""

import random
import time
from itertools import combinations, product
from math import comb

import pytest

from qgrass.forms import (
    BilinearForm,
    annihilator,
    dot_form,
    form_map,
    is_reflexive,
    orth_complement,
    standard_symplectic,
    symplectic_basis,
)
from qgrass.gf import field
from qgrass.grassmann import (
    GrassmannMap,
    PlaneSet,
    Space,
    distance,
    gaussian_binomial,
    geodesic,
    join,
    meet,
)
from qgrass.harness import random_irregular, random_semilinear, run_check
from qgrass.irregularity import (
    STATUS_IRREGULAR,
    STATUS_MAXIMAL_IRREGULAR,
    STATUS_REGULAR,
    STATUS_CONTAINS_MAXIMAL_REGULAR,
    are_similar,
    characteristics,
    complete_to_maximal_irregular,
    deficient_irregular,
    deficient_irregular_dual,
    is_maximal_irregular,
    planes_meeting,
    restricted_status,
)
from qgrass.linalg import Mat
from qgrass.maps import SemilinearMap, induced_map
from qgrass.reconstruction import (
    chow_classify,
    is_distance_preserving,
    regular_classify,
)
from qgrass.regularity import degree, is_regular


def report(num, passed, note):
    print(f"criterion {num}: {'PASS' if passed else 'FAIL'} - {note}")
    assert passed, f"criterion {num}: {note}"


def test_criterion_01_enumeration_counts():
    t0 = time.time()

    def pivot_pattern_oracle(n, k, q):
        total = 0
        for pivots in combinations(range(n), k):
            free = sum(
                1 for i in range(k) for c in range(pivots[i] + 1, n) if c not in pivots
            )
            total += q ** free
        return total

    frozen = {(2, 4, 2): 35, (3, 4, 2): 130, (2, 4, 1): 15, (3, 3, 1): 13}
    for q in (2, 3, 4):
        for n in range(2, 6):
            for k in range(1, n):
                got = len(Space.get(q, n).grassmannian(k))
                assert got == pivot_pattern_oracle(n, k, q)
                assert got == gaussian_binomial(n, k, q)
                if (q, n, k) in frozen:
                    assert got == frozen[(q, n, k)]
    report(1, True, f"counts match both oracles for q in 2,3,4 and n <= 5 ({time.time()-t0:.1f}s)")


def test_criterion_02_metric_suite():
    t0 = time.time()
    space = Space.get(2, 4)
    g = space.grassmannian(2)
    d = space.distance_matrix(2)
    m = len(g)
    ok = True
    for i in range(m):
        ok &= d[i][i] == 0
        for j in range(m):
            ok &= d[i][j] == d[j][i]
            ok &= (d[i][j] == 0) == (i == j)
            ok &= join(g[i], g[j]).k == 2 + d[i][j]
            for l in range(m):
                ok &= d[i][j] <= d[i][l] + d[l][j]
    for i in range(m):
        for j in range(m):
            path = geodesic(g[i], g[j])
            ok &= len(path) == d[i][j] + 1
            ok &= path[0] == g[i] and path[-1] == g[j]
            ok &= all(distance(u, v) == 1 for u, v in zip(path, path[1:]))
    report(2, ok, f"metric axioms, join identity, geodesics over all 35x35 pairs ({time.time()-t0:.1f}s)")


def test_criterion_03_maximal_adjacent_families():
    t0 = time.time()
    r = run_check("prop-1.4.2", 2, 4, 2)
    report(
        3,
        r.passed and r.details["stars"] == 15 and r.details["tops"] == 15,
        f"30 families: 15 stars + 15 tops, none unclassified ({time.time()-t0:.1f}s)",
    )


def test_criterion_04_degree_theorem_large_sets():
    t0 = time.time()
    r = run_check("thm-2.2.1", 2, 4, 2)
    # scope and certificates as first recorded, so the sweep is pinned as
    # closely as a golden `verify` case without a second 19 s run
    assert r.scope == (
        "all 13440 regular subsets of G_2^4(GF(2)) with >= 4 members, every coordinate system swept"
    )
    assert r.details == {"checked": 13440, "degree_1_sets": 5040, "threshold": 4}
    report(
        4,
        r.passed,
        f"{r.details.get('checked')} regular sets of size >= 4 swept; "
        f"deg <= 1 with {r.details.get('degree_1_sets')} extremal degree-1 sets "
        f"({time.time()-t0:.1f}s)",
    )


def test_criterion_05_degree_theorem_middle_and_lines():
    t0 = time.time()
    r = run_check("thm-2.2.2", 2, 4, 2)
    r1 = run_check("thm-2.2.2", 2, 4, 1)
    # scope and certificates as first recorded (see criterion 4)
    assert r.scope == "all regular subsets of G_2^4(GF(2)) with >= 3 members, every coordinate system swept"
    assert r.details == {"checked": 16800, "degree_2_sets": 840, "threshold": 3}
    assert r1.scope == "all 1381 regular line sets of G_1^4(GF(2)): degree = n - |R|"
    assert r1.details == {"checked": 1381}
    report(
        5,
        r.passed and r1.passed,
        f"{r.details.get('checked')} sets of size >= 3 swept (deg <= 2, equality on traces) "
        f"and {r1.details.get('checked')} line sets (deg = n - |R|) ({time.time()-t0:.1f}s)",
    )


def test_criterion_06_hyperbolic_bases():
    t0 = time.time()
    rng = random.Random(106)
    trials = 0
    for q in (2, 3):
        for n in (4, 6):
            f = field(q)
            expected = standard_symplectic(f, n).gram
            for _ in range(50):
                from qgrass.harness import random_alternating_gram

                gram = random_alternating_gram(f, n, rng)
                form = BilinearForm(f, gram)
                basis = symplectic_basis(form)
                vs = basis.vectors()
                got = Mat(f, [tuple(form.evaluate(a, b) for b in vs) for a in vs])
                assert got == expected, (q, n, gram.rows)
                trials += 1
    # odd dimensions: exhaustive at q=2 for n=3 and n=5
    f = field(2)
    singular = 0
    for n in (3, 5):
        entries = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for fill in product(range(2), repeat=len(entries)):
            rows = [[0] * n for _ in range(n)]
            for (i, j), a in zip(entries, fill):
                rows[i][j] = a
                rows[j][i] = a
            assert Mat(f, rows).rank() < n
            singular += 1
    report(
        6,
        True,
        f"{trials} random hyperbolic bases re-express to the exact standard Gram; "
        f"{singular} odd-dimension alternating Grams all singular ({time.time()-t0:.1f}s)",
    )


def test_criterion_07_meeting_set_statuses():
    t0 = time.time()
    r = run_check("prop-3.1.3", 2, 4, 2)
    space = Space.get(2, 4)
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    x = planes_meeting(space, s, 2)
    report(
        7,
        r.passed and len(x) == 19,
        f"all 65 subspaces checked against the five statements; |X| = 19 at dim 2 "
        f"({time.time()-t0:.1f}s)",
    )


def test_criterion_08_characteristics_suite():
    t0 = time.time()
    results = {
        cid: run_check(cid, 2, 4, 2, seed=108)
        for cid in ("prop-3.2.1", "thm-3.2.1", "lemma-3.2.1", "cor-3.2.2")
    }
    passed = all(r.passed for r in results.values())
    counts = {cid: r.details for cid, r in results.items()}
    report(
        8,
        passed,
        f"bounds, inclusions, duality, nesting: {counts} ({time.time()-t0:.1f}s)",
    )


def test_criterion_09_deficient_constructions():
    t0 = time.time()
    space = Space.get(2, 4)
    n, k = 4, 2
    s = space.grassmannian(n - k - 1)[0]
    t = next(tt for tt in space.grassmannian(k + 1) if meet(s, tt).k == 0)
    built = deficient_irregular(space, s, t)
    ch = characteristics(built.result)
    status = restricted_status(built.result, t)
    assert is_maximal_irregular(built.result)
    assert planes_meeting(space, s, k).issubset(built.result)
    assert ch.line_span_dim == 1
    assert status != STATUS_MAXIMAL_IRREGULAR

    s2 = space.grassmannian(n - k + 1)[0]
    t2 = next(tt for tt in space.grassmannian(k - 1) if meet(s2, tt).k == 0)
    dual = deficient_irregular_dual(space, s2, t2)
    ch2 = characteristics(dual.result)
    status2 = restricted_status(dual.result, t2)
    assert is_maximal_irregular(dual.result)
    from qgrass.irregularity import planes_cohyperplanar

    assert planes_cohyperplanar(space, s2, k).issubset(dual.result)
    assert ch2.hyperplane_core_dim == 3
    assert status2 != STATUS_MAXIMAL_IRREGULAR

    # stated trace status: irregular-in-sub.  restricted_status re-coordinatizes
    # every trace into a smaller Grassmannian: the primal's trace on its
    # (k+1)-dimensional carrier lands in G_k(F^(k+1)), and the dual's trace on
    # its (k-1)-dimensional carrier goes through a form-defined bijection into
    # G_(n-k)(F^(n-k+1)).  Over GF(2) that is G_2(F_2^3) for the primal at
    # k = 2 and for the dual at n - k = 2, and every irregular subset of
    # G_2(F_2^3) is maximal there (checked below over all 128 subsets).  So at
    # (2, 4, 2) a non-maximal trace is forced to be regular-in-sub, and inside
    # the envelope irregular-in-sub can only occur for the primal at (2, 5, 3)
    # and the dual at (2, 5, 2), whose traces land in G_3(F_2^4).  Assert the
    # forced status here and the stated status there.
    from qgrass.irregularity import is_irregular

    sub3 = Space.get(2, 3)
    g23 = sub3.grassmannian(2)
    for mask in range(1 << len(g23)):
        subset = PlaneSet(g23, [i for i in range(len(g23)) if mask >> i & 1])
        if is_irregular(subset):
            assert is_maximal_irregular(subset)

    space5 = Space.get(2, 5)
    n, k = 5, 3
    s3 = space5.grassmannian(n - k - 1)[0]
    t3 = next(tt for tt in space5.grassmannian(k + 1) if meet(s3, tt).k == 0)
    status3 = restricted_status(deficient_irregular(space5, s3, t3).result, t3)
    n, k = 5, 2
    s4 = space5.grassmannian(n - k + 1)[0]
    t4 = next(tt for tt in space5.grassmannian(k - 1) if meet(s4, tt).k == 0)
    status4 = restricted_status(deficient_irregular_dual(space5, s4, t4).result, t4)

    statuses = (status, status2, status3, status4)
    report(
        9,
        statuses == (STATUS_REGULAR, STATUS_REGULAR, STATUS_IRREGULAR, STATUS_IRREGULAR),
        f"construction and dual verified (maximal irregular, inclusions, "
        f"characteristics 1 and 3); trace statuses are {status!r} / {status2!r} at "
        f"(2, 4, 2), forced there, and {status3!r} (primal, (2, 5, 3)) / "
        f"{status4!r} (dual, (2, 5, 2)) ({time.time()-t0:.1f}s)",
    )


def test_criterion_10_ftpg():
    t0 = time.time()
    r = run_check("thm-1.3.1", 2, 3, 1)
    assert r.passed and r.details["independence_preserving"] == 168
    from qgrass.reconstruction import ftpg_reconstruct

    space = Space.get(4, 3)
    rng = random.Random(110)
    for _ in range(100):
        h = random_semilinear(space, rng)
        f = induced_map(space, h, 1)
        rec = ftpg_reconstruct(space, f)
        assert rec.sigma == h.sigma
        assert induced_map(space, rec, 1) == f
    report(
        10,
        True,
        f"168 of 5040 line permutations pass and reconstruct exactly; 100 GF(4) "
        f"roundtrips recover the automorphism and table ({time.time()-t0:.1f}s)",
    )


def _generator_tables(space):
    f = space.field
    n = space.n
    swap = Mat(f, [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    cycle = Mat(f, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)])
    transvection = Mat(f, [(1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    gens = [induced_map(space, SemilinearMap(f, m), 2).table for m in (swap, cycle, transvection)]
    gens.append(form_map(space, standard_symplectic(f, n), 2).table)
    return [tuple(t) for t in gens]


def _generated_subgroup(space):
    """Closure of the tables induced by coordinate permutations, one
    transvection, and the standard symplectic complement map."""
    gens = _generator_tables(space)
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for t in frontier:
            for g in gens:
                prod = tuple(g[i] for i in t)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def test_criterion_11_classification_suite():
    t0 = time.time()
    space = Space.get(2, 4)
    f2 = space.field
    rng = random.Random(111)
    fm = form_map(space, standard_symplectic(f2, 4), 2)
    for _ in range(100):
        h = random_semilinear(space, rng)
        f = induced_map(space, h, 2)
        res = chow_classify(space, f)
        assert res.kind == "linear" and res.verified and res.map.same_projective(h)
        res2 = chow_classify(space, fm.compose(f))
        assert res2.kind == "form_composed" and res2.verified
    # corrupted table is rejected with a witness
    d = space.distance_matrix(2)
    bad_i, bad_j = next((i, j) for i in range(35) for j in range(35) if d[i][j] == 2)
    table = list(range(35))
    table[bad_i], table[bad_j] = table[bad_j], table[bad_i]
    g2 = space.grassmannian(2)
    from qgrass.reconstruction import NotDistancePreservingError, regular_violation

    corrupted = GrassmannMap(g2, g2, table)
    try:
        chow_classify(space, corrupted)
        rejected = False
    except NotDistancePreservingError as exc:
        rejected = exc.witness is not None
    assert rejected

    # the subgroup generated by coordinate permutations, one transvection and
    # the standard complement map
    subgroup = _generated_subgroup(space)
    assert len(subgroup) == 2 * 20160

    # classified class: every induced table and its form composition
    from qgrass.irregularity import _invertible_matrices

    lin_tables = set()
    for m in _invertible_matrices(f2, 4):
        lin_tables.add(induced_map(space, SemilinearMap(f2, m), 2).table)
    assert len(lin_tables) == 20160
    classified = lin_tables | {tuple(fm.table[i] for i in t) for t in lin_tables}
    assert subgroup == classified

    # distance preservation for every element of the subgroup
    pairs = [(i, j) for i in range(35) for j in range(i + 1, 35)]
    for t in subgroup:
        assert all(d[t[i]][t[j]] == d[i][j] for i, j in pairs)

    # regularity: the family of maximal regular sets is invariant under each
    # generator, hence under every composition; spot-verify 300 elements
    # directly and the corrupted table negatively
    from qgrass.regularity import maximal_regular_family

    fam = [tuple(sorted(mr)) for mr in maximal_regular_family(space, 2)]
    fam_set = set(fam)
    gens = _generator_tables(space)
    for t in gens:
        for mr in fam:
            assert tuple(sorted(t[i] for i in mr)) in fam_set
    sample = rng.sample(sorted(subgroup), 300)
    for t in sample:
        for mr in fam:
            assert tuple(sorted(t[i] for i in mr)) in fam_set
    assert regular_violation(space, corrupted) is not None
    assert not is_distance_preserving(space, corrupted)
    assert tuple(corrupted.table) not in classified
    report(
        11,
        True,
        f"100 linear and 100 form-composed roundtrips verified; corrupted table "
        f"rejected with witness; on the generated subgroup (order {len(subgroup)}) the "
        f"distance-preserving, regular and classified classes coincide ({time.time()-t0:.1f}s)",
    )


def test_criterion_12_form_algebra():
    t0 = time.time()
    space = Space.get(2, 4)
    f = space.field
    subspaces = [s for k in range(5) for s in space.grassmannian(k)]
    reflexive_count = 0
    for fill in product(range(2), repeat=10):
        rows = [[0] * 4 for _ in range(4)]
        idx = 0
        for i in range(4):
            for j in range(i, 4):
                rows[i][j] = fill[idx]
                rows[j][i] = fill[idx]
                idx += 1
        m = Mat(f, rows)
        if m.rank() < 4:
            continue
        om = BilinearForm(f, m)
        assert is_reflexive(om)
        reflexive_count += 1
        for s in subspaces:
            assert orth_complement(om, orth_complement(om, s)) == s
        # factorization through the annihilator
        g2 = space.grassmannian(2)
        fmap = form_map(space, om, 2)
        for i, s in enumerate(g2):
            pushed = Mat(f, s.rows).mul(om.gram)
            assert fmap.codomain[fmap.table[i]] == annihilator(space.subspace(pushed.rows))
    # scaling invariance needs a field with a nontrivial scalar
    space3 = Space.get(3, 4)
    om3 = standard_symplectic(space3.field, 4)
    assert form_map(space3, om3, 1) == form_map(space3, om3.scaled(2), 1)
    # non-reflexive witness: the complement round trip moves some line
    f3 = field(3)
    space33 = Space.get(3, 3)
    bad = BilinearForm(f3, Mat(f3, [(1, 1, 0), (0, 1, 1), (0, 0, 1)]))
    assert bad.is_nonsingular() and not is_reflexive(bad)
    fwd = form_map(space33, bad, 1)
    back = form_map(space33, bad, 2)
    trip = back.compose(fwd)
    witness = next((i for i in range(len(trip.table)) if trip.table[i] != i), None)
    assert witness is not None
    report(
        12,
        True,
        f"double complement and annihilator factorization exhaustive over "
        f"{reflexive_count} nonsingular symmetric Grams at (2, 4); scaling invariance; "
        f"non-reflexive round-trip witness line index {witness} ({time.time()-t0:.1f}s)",
    )


def test_criterion_13_degree_invariance():
    t0 = time.time()
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    rng = random.Random(113)
    fm = form_map(space, standard_symplectic(space.field, 4), 2)
    done = 0
    while done < 100:
        cand = PlaneSet(g2, rng.sample(range(len(g2)), rng.randrange(1, 7)))
        if is_regular(cand) is None:
            continue
        d0 = degree(cand)[0]
        h = random_semilinear(space, rng)
        f = induced_map(space, h, 2)
        if rng.random() < 0.5:
            f = fm.compose(f)
        assert degree(f.apply_set(cand))[0] == d0
        done += 1
    report(13, True, f"degree preserved for 100 random regular sets under random "
                     f"regular transformations ({time.time()-t0:.1f}s)")


def test_criterion_14_three_constructions_nonsimilar():
    t0 = time.time()
    space = Space.get(2, 5)
    n, k = 5, 2
    s1 = space.grassmannian(n - k)[0]
    i1 = planes_meeting(space, s1, k)
    s2 = space.grassmannian(n - k - 1)[0]
    t2 = next(tt for tt in space.grassmannian(k + 1) if meet(s2, tt).k == 0)
    i2 = deficient_irregular(space, s2, t2).result
    s3 = space.grassmannian(n - k + 1)[0]
    t3 = next(tt for tt in space.grassmannian(k - 1) if meet(s3, tt).k == 0)
    i3 = deficient_irregular_dual(space, s3, t3).result

    c1, c2, c3 = characteristics(i1), characteristics(i2), characteristics(i3)
    assert (c1.line_span_dim, c1.hyperplane_core_dim) == (3, 3)
    assert c2.line_span_dim == 2
    assert c3.hyperplane_core_dim == 4

    pairs = [("i1-i2", i1, i2), ("i1-i3", i1, i3), ("i2-i3", i2, i3)]
    verdicts = {}
    for name, a, b in pairs:
        sim = are_similar(a, b)
        verdicts[name] = (sim.kind, sim.reason)
        if sim.kind == "yes":
            assert sim.witness.apply_set(a) == b  # the witness is real
    chars = {
        "i1": (c1.line_span_dim, c1.hyperplane_core_dim),
        "i2": (c2.line_span_dim, c2.hyperplane_core_dim),
        "i3": (c3.line_span_dim, c3.hyperplane_core_dim),
    }
    # the stated expectation is pairwise non-similarity certified by the
    # filters.  The two pairs against the meeting set are certified (sizes
    # 91 vs 78); for the remaining pair every stated invariant coincides and
    # the span-constrained exhaustive search finds an explicit linear witness
    # mapping one construction onto the other, so non-similarity cannot hold.
    # See the decisions ledger.
    all_non_similar = all(kind == "no" for kind, _ in verdicts.values())
    report(
        14,
        all_non_similar,
        f"characteristics {chars}; verdicts {verdicts} ({time.time()-t0:.1f}s)",
    )
