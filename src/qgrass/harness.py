"""Verification harness: named desk-scale checks, each running one verified
statement over an exhaustive or seeded-random envelope and returning a
machine-readable result with certificates or a concrete counterexample.

Check identifiers are stable tokens used by the command line; the statement
strings below describe what each check establishes, self-contained.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from math import comb

from .forms import (
    BilinearForm,
    dot_form,
    form_map,
    standard_symplectic,
    symplectic_basis,
)
from .gf import field as get_field
from .grassmann import (
    GrassmannMap,
    PlaneSet,
    Space,
    Subspace,
    _subspace_cert,
    gaussian_binomial,
    maximal_adjacent_families,
    meet,
)
from .irregularity import (
    STATUS_CONTAINS_MAXIMAL_REGULAR,
    STATUS_MAXIMAL_IRREGULAR,
    characteristics,
    complete_to_maximal_irregular,
    deficient_irregular,
    deficient_irregular_dual,
    is_irregular,
    is_maximal_irregular,
    planes_cohyperplanar,
    planes_meeting,
    restricted_status,
)
from .linalg import Mat
from .maps import SemilinearMap, induced_map
from .regularity import (
    CoordinateSystem,
    _degree,
    _systems_within,
    all_coordinate_systems,
    associated_systems,
    exactness_threshold,
    hypergraph_view,
    is_regular,
    restrict,
)


class InfeasibleScopeError(ValueError):
    """Requested parameters are outside the check's documented envelope."""


def worker_count():
    """QGRASS_WORKERS controls the pool size for independent per-instance
    scans; anything unparseable falls back to 1."""
    try:
        return max(1, int(os.environ.get("QGRASS_WORKERS", "1")))
    except ValueError:
        return 1


def _pmap(fn, items):
    """Order-preserving map, parallel when QGRASS_WORKERS > 1, so results
    are identical regardless of schedule."""
    workers = worker_count()
    if workers <= 1 or len(items) < 4:
        return [fn(it) for it in items]
    import multiprocessing

    with multiprocessing.Pool(workers) as pool:
        return pool.map(fn, items)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    scope: str
    details: dict = dc_field(default_factory=dict)
    counterexample: dict | None = None


def _space(q, n):
    return Space.get(q, n)


def _require(cond, envelope):
    if not cond:
        raise InfeasibleScopeError(envelope)


# ---------------------------------------------------------------------------
# randomized generators (seeded)


def random_invertible(field, n, rng):
    while True:
        rows = tuple(tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(n))
        m = Mat(field, rows)
        if m.rank() == n:
            return m


def random_semilinear(space, rng):
    sigma = space.field.frobenius(rng.randrange(space.field.m))
    return SemilinearMap(space.field, random_invertible(space.field, space.n, rng), sigma)


def random_alternating_gram(field, n, rng, nonsingular=True):
    """Random Gram with zero diagonal and entry (j,i) = -entry (i,j)."""
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a = rng.randrange(field.q)
                rows[i][j] = a
                rows[j][i] = field.neg(a)
        m = Mat(field, rows)
        if not nonsingular or m.rank() == n:
            return m


def random_nonsingular_form(space, rng):
    return BilinearForm(space.field, random_invertible(space.field, space.n, rng))


def random_irregular(space, k, rng, tries=200):
    """A random irregular subset of G_k, mixing punctured meeting sets and
    filtered raw subsets."""
    gk = space.grassmannian(k)
    for _ in range(tries):
        if rng.random() < 0.5:
            dim = rng.randrange(1, space.n - k + 1)
            s = Subspace.span(
                space.field,
                space.n,
                [tuple(rng.randrange(space.field.q) for _ in range(space.n)) for _ in range(dim)],
            )
            if s.k == 0:
                continue
            base = planes_meeting(space, s, k)
            size = rng.randrange(2, len(base) + 1)
            cand = PlaneSet(gk, rng.sample(base.indices, size))
            if is_regular(cand) is None:
                return cand
        else:
            size = rng.randrange(3, max(4, len(gk) // 2))
            cand = PlaneSet(gk, rng.sample(range(len(gk)), size))
            if is_irregular(cand):
                return cand
    raise RuntimeError("failed to sample an irregular set")


# ---------------------------------------------------------------------------
# hypergraph shape tests used by the degree theorems


def _hypergraphs(plane_set, systems):
    """Axis-set views of a regular set, one per associated system."""
    return [frozenset(frozenset(a) for a in hypergraph_view(plane_set, s)) for s in systems]


def _is_deg1_extremal_shape(plane_set, systems, n, k):
    """Union of a coordinate-hyperplane trace and the pencil through one
    coordinate 2-plane not inside it; the only shape of degree exactly 1
    among large regular sets."""
    for hg in _hypergraphs(plane_set, systems):
        for i, j in combinations(range(n), 2):
            for h in (i, j):
                target = frozenset(
                    frozenset(a)
                    for a in combinations(range(n), k)
                    if h not in a or {i, j} <= set(a)
                )
                if hg == target:
                    return True
    return False


def _is_axis_pencil_shape(plane_set, systems, n, k):
    """All coordinate k-planes through one axis."""
    for hg in _hypergraphs(plane_set, systems):
        for i in range(n):
            if hg == frozenset(frozenset(a) for a in combinations(range(n), k) if i in a):
                return True
    return False


def _is_hyperplane_trace_shape(plane_set, systems, n, k):
    """All coordinate k-planes avoiding one axis."""
    for hg in _hypergraphs(plane_set, systems):
        for h in range(n):
            if hg == frozenset(frozenset(a) for a in combinations(range(n), k) if h not in a):
                return True
    return False


def _regular_subset_sweep(space, k, min_size):
    """Every regular subset of G_k of at least the given size, each exactly
    once, obtained by sweeping all coordinate systems."""
    seen = set()
    nk = comb(space.n, k)
    for system in all_coordinate_systems(space):
        planes = system.coordinate_planes(k)
        for size in range(min_size, nk + 1):
            for subset in combinations(planes.indices, size):
                if subset not in seen:
                    seen.add(subset)
                    yield PlaneSet(space.grassmannian(k), subset)


# ---------------------------------------------------------------------------
# checks


def check_remark_2_2_1(q, n, k, rng):
    """Threshold identity: c(n-1,k) + c(n-2,k-2) = c(n,k) - c(n-2,k-1)."""
    bad = []
    for nn in range(3, 9):
        for kk in range(2, nn - 1):
            lhs = exactness_threshold(nn, kk)
            rhs = comb(nn, kk) - comb(nn - 2, kk - 1)
            if lhs != rhs:
                bad.append((nn, kk, lhs, rhs))
    return CheckResult(
        "remark-2.2.1",
        not bad,
        "all (n, k) with 3 <= n <= 8 and 1 < k < n-1",
        {"instances": sum(max(0, nn - 3) for nn in range(3, 9))},
        {"violations": bad} if bad else None,
    )


def check_prop_1_1_2(q, n, k, rng):
    """Hyperbolic bases exist and re-express every nonsingular alternating
    Gram as the standard block pattern; odd-dimensional alternating Grams
    are all singular."""
    _require(q in (2, 3) and n in (4, 6), "q in {2, 3}, n in {4, 6}")
    f = get_field(q)
    trials = 200
    expected = standard_symplectic(f, n).gram
    for _ in range(trials):
        gram = random_alternating_gram(f, n, rng)
        form = BilinearForm(f, gram)
        basis = symplectic_basis(form)
        vs = basis.vectors()
        re_expressed = Mat(f, [tuple(form.evaluate(a, b) for b in vs) for a in vs])
        if re_expressed != expected:
            return CheckResult(
                "prop-1.1.2",
                False,
                f"{trials} random nonsingular alternating Grams over GF({q}), dim {n}",
                {},
                {"gram": [list(r) for r in gram.rows]},
            )
    odd_counts = {}
    for nn in (3, 5):
        entries = [(i, j) for i in range(nn) for j in range(i + 1, nn)]
        total = 0
        if q ** len(entries) <= 2048:
            fills = product(range(q), repeat=len(entries))
        else:
            fills = (tuple(rng.randrange(q) for _ in entries) for _ in range(500))
        for fill in fills:
            rows = [[0] * nn for _ in range(nn)]
            for (i, j), a in zip(entries, fill):
                rows[i][j] = a
                rows[j][i] = f.neg(a)
            total += 1
            if Mat(f, rows).rank() == nn:
                return CheckResult(
                    "prop-1.1.2",
                    False,
                    "odd-dimensional alternating Grams",
                    {},
                    {"dim": nn, "gram": rows},
                )
        odd_counts[nn] = total
    return CheckResult(
        "prop-1.1.2",
        True,
        f"{trials} random nonsingular alternating Grams over GF({q}) in dim {n}; "
        f"odd dims 3, 5 scanned ({odd_counts[3]} and {odd_counts[5]} Grams)",
        {"trials": trials, "odd_grams_scanned": odd_counts},
    )


def check_prop_1_4_2(q, n, k, rng):
    """Maximal pairwise-adjacent families are exactly the stars and tops."""
    _require(1 < k < n - 1, "1 < k < n-1")
    space = _space(q, n)
    _require(gaussian_binomial(n, k, q) <= 200, "|G_k| <= 200")
    fams = maximal_adjacent_families(space, k)
    stars = sum(1 for _, kind, _ in fams if kind == "star")
    tops = sum(1 for _, kind, _ in fams if kind == "top")
    want_stars = len(space.grassmannian(k - 1))
    want_tops = len(space.grassmannian(k + 1))
    d = space.distance_matrix(k)
    for fam, kind, center in fams:
        inside = set(fam.indices)
        for outside in range(len(space.grassmannian(k))):
            if outside in inside:
                continue
            if all(d[outside][i] == 1 for i in fam.indices):
                return CheckResult(
                    "prop-1.4.2",
                    False,
                    f"all maximal adjacent families of G_{k}^{n}(GF({q}))",
                    {},
                    {"family": list(fam.indices), "extendable_by": outside},
                )
    ok = stars == want_stars and tops == want_tops
    return CheckResult(
        "prop-1.4.2",
        ok,
        f"all {len(fams)} maximal adjacent families of G_{k}^{n}(GF({q})), "
        "maximality re-verified plane by plane",
        {"stars": stars, "tops": tops, "expected": [want_stars, want_tops]},
        None if ok else {"stars": stars, "tops": tops},
    )


def check_thm_1_3_1(q, n, k, rng):
    """Exhaustive fundamental-theorem run: the independence-preserving line
    transformations are exactly the semilinearly induced ones."""
    from itertools import permutations

    from .reconstruction import ftpg_reconstruct, is_independence_preserving

    _require((q, n) == (2, 3), "(q, n) = (2, 3)")
    space = _space(q, n)
    g1 = space.grassmannian(1)
    passed = 0
    for perm in permutations(range(len(g1))):
        f = GrassmannMap(g1, g1, perm)
        if is_independence_preserving(space, f):
            passed += 1
            h = ftpg_reconstruct(space, f)
            if induced_map(space, h, 1) != f:
                return CheckResult(
                    "thm-1.3.1", False, "all 5040 line permutations", {}, {"perm": list(perm)}
                )
    expected = 168  # order of the projective linear group on the 7 lines
    return CheckResult(
        "thm-1.3.1",
        passed == expected,
        "all 5040 permutations of the 7 lines of GF(2)^3, both directions",
        {"independence_preserving": passed, "expected": expected},
        None if passed == expected else {"count": passed},
    )


def check_thm_2_2_1(q, n, k, rng):
    """Regular sets with at least c(n-1,k)+c(n-2,k-2) members have degree of
    inexactness at most 1, with equality exactly for the extremal shape."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = _space(q, n)
    threshold = exactness_threshold(n, k)
    checked = 0
    deg1 = 0
    for rp in _regular_subset_sweep(space, k, threshold):
        checked += 1
        systems = associated_systems(rp)
        d, _ = _degree(rp, systems)
        shape = _is_deg1_extremal_shape(rp, systems, n, k)
        if d > 1 or (d == 1) != shape or (len(rp) > threshold and d != 0):
            return CheckResult(
                "thm-2.2.1",
                False,
                f"all regular subsets of G_{k}^{n}(GF({q})) with >= {threshold} members",
                {"checked": checked},
                {"planes": [_subspace_cert(s) for s in rp.members()], "degree": d, "shape": shape},
            )
        if d == 1:
            deg1 += 1
    return CheckResult(
        "thm-2.2.1",
        True,
        f"all {checked} regular subsets of G_{k}^{n}(GF({q})) with >= {threshold} members, "
        "every coordinate system swept",
        {"checked": checked, "degree_1_sets": deg1, "threshold": threshold},
    )


def check_thm_2_2_2(q, n, k, rng):
    """Degree-2 classification for large regular sets; for line sets the
    degree is n - |R| exactly."""
    space = _space(q, n)
    if k == 1:
        _require(q == 2 and n <= 4, "k = 1 with q = 2, n <= 4")
        g1 = space.grassmannian(1)
        checked = 0
        for size in range(0, n + 1):
            for subset in combinations(range(len(g1)), size):
                rp = PlaneSet(g1, subset)
                systems = associated_systems(rp)
                if not systems:
                    continue
                checked += 1
                d, _ = _degree(rp, systems)
                if d != n - size:
                    return CheckResult(
                        "thm-2.2.2",
                        False,
                        "all independent line sets",
                        {"checked": checked},
                        {"lines": [_subspace_cert(s) for s in rp.members()], "degree": d},
                    )
        return CheckResult(
            "thm-2.2.2",
            True,
            f"all {checked} regular line sets of G_1^{n}(GF({q})): degree = n - |R|",
            {"checked": checked},
        )

    _require(1 < k < n - 1, "1 < k < n-1")
    if n == 2 * k:
        _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2) for the middle case")
        threshold = comb(n - 1, k)
        sweep = _regular_subset_sweep(space, k, threshold)
        scope = (
            f"all regular subsets of G_{k}^{n}(GF({q})) with >= {threshold} members, "
            "every coordinate system swept"
        )

        def is_extremal(rp, systems):
            return (_is_axis_pencil_shape(rp, systems, n, k)
                    or _is_hyperplane_trace_shape(rp, systems, n, k))

    else:
        _require(q == 2 and n == 5 and k in (2, 3), "(q, n) = (2, 5), k in {2, 3}")
        threshold = comb(n - 1, k - 1) if n - k < k else comb(n - 1, k)
        base = CoordinateSystem.from_line_indices(space, next(_systems_within(space, 1, [-1])))
        planes = base.coordinate_planes(k)
        extra_systems = []
        for _ in range(10):
            h = SemilinearMap(space.field, random_invertible(space.field, n, rng))
            lines = [h.apply_subspace(l) for l in base.lines]
            extra_systems.append(CoordinateSystem(space, lines))
        pools = [planes] + [s.coordinate_planes(k) for s in extra_systems]

        def sweep_gen():
            seen = set()
            for pool in pools:
                for size in range(threshold, comb(n, k) + 1):
                    for subset in combinations(pool.indices, size):
                        if subset not in seen:
                            seen.add(subset)
                            yield PlaneSet(space.grassmannian(k), subset)

        sweep = sweep_gen()
        scope = (
            f"all size >= {threshold} subsets of the coordinate k-planes of the first "
            f"canonical system of G_{k}^{n}(GF({q})) plus 10 random transported systems"
        )
        if n - k < k:
            def is_extremal(rp, systems):
                return _is_axis_pencil_shape(rp, systems, n, k)
        else:
            def is_extremal(rp, systems):
                return _is_hyperplane_trace_shape(rp, systems, n, k)

    checked = 0
    deg2 = 0
    for rp in sweep:
        checked += 1
        systems = associated_systems(rp)
        d, _ = _degree(rp, systems)
        shape = is_extremal(rp, systems)
        if d > 2 or (d == 2) != shape:
            return CheckResult(
                "thm-2.2.2",
                False,
                scope,
                {"checked": checked},
                {"planes": [_subspace_cert(s) for s in rp.members()], "degree": d, "shape": shape},
            )
        if d == 2:
            deg2 += 1
    return CheckResult(
        "thm-2.2.2", True, scope, {"checked": checked, "degree_2_sets": deg2, "threshold": threshold}
    )


def _meeting_status_item(args):
    q, n, k, m, idx = args
    space = _space(q, n)
    s = space.grassmannian(m)[idx]
    full = len(space.grassmannian(k))
    x = planes_meeting(space, s, k)
    y = planes_cohyperplanar(space, s, k)
    fails = []
    if m > n - k and len(x) != full:
        fails.append("meeting set must cover everything")
    if m < n - k and len(y) != full:
        fails.append("cohyperplanar set must cover everything")
    if m <= n - k and not is_irregular(x):
        fails.append("meeting set must be irregular")
    if m >= n - k and not is_irregular(y):
        fails.append("cohyperplanar set must be irregular")
    if m == n - k and x != y:
        fails.append("sets must coincide at complementary dimension")
    if m <= n - k and is_maximal_irregular(x) != (m == n - k):
        fails.append("meeting set maximal exactly at complementary dimension")
    return (m, idx, fails)


def check_prop_3_1_3(q, n, k, rng):
    """Meeting and cohyperplanar sets: coverage, irregularity, and maximality
    exactly at complementary dimension, where the two sets coincide."""
    _require(1 < k < n - 1, "1 < k < n-1")
    space = _space(q, n)
    _require(gaussian_binomial(n, k, q) <= 200, "|G_k| <= 200")
    items = [
        (q, n, k, m, i)
        for m in range(1, n)
        for i in range(len(space.grassmannian(m)))
    ]
    for m, idx, fails in _pmap(_meeting_status_item, items):
        if fails:
            return CheckResult(
                "prop-3.1.3",
                False,
                f"all subspaces of GF({q})^{n}",
                {"checked": len(items)},
                {"s": _subspace_cert(space.grassmannian(m)[idx]), "failures": fails},
            )
    return CheckResult(
        "prop-3.1.3",
        True,
        f"all {len(items)} nonzero proper subspaces of GF({q})^{n}, k = {k}",
        {"checked": len(items)},
    )


def _sample_irregular_family(space, k, rng, count):
    """Irregular sets from constructors plus seeded random ones."""
    out = []
    n = space.n
    for m in range(1, n - k + 1):
        for s in space.grassmannian(m):
            out.append(planes_meeting(space, s, k))
    for m in range(n - k, n):
        for s in space.grassmannian(m):
            out.append(planes_cohyperplanar(space, s, k))
    if n % 2 == 0:
        out.append(
            PlaneSet(
                space.grassmannian(k),
                [
                    i
                    for i, s in enumerate(space.grassmannian(k))
                    if _restricted_rank(standard_symplectic(space.field, n), s) < k
                ],
            )
        )
    for _ in range(count):
        out.append(random_irregular(space, k, rng))
    return out


def _restricted_rank(form, s):
    return Mat(form.field, [tuple(form.evaluate(a, b) for b in s.rows) for a in s.rows]).rank()


def check_prop_3_2_1(q, n, k, rng):
    """Characteristic bounds for irregular sets: the saturated-line span has
    dimension at most n-k and the saturated-hyperplane core at least n-k."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = _space(q, n)
    sets = _sample_irregular_family(space, k, rng, 500)
    for ps in sets:
        ch = characteristics(ps)
        if ch.line_span_dim > n - k or ch.hyperplane_core_dim < n - k:
            return CheckResult(
                "prop-3.2.1",
                False,
                f"{len(sets)} irregular sets",
                {},
                {
                    "planes": [_subspace_cert(s) for s in ps.members()],
                    "line_span_dim": ch.line_span_dim,
                    "hyperplane_core_dim": ch.hyperplane_core_dim,
                },
            )
    return CheckResult(
        "prop-3.2.1",
        True,
        f"{len(sets)} irregular sets (every meeting/cohyperplanar set, the symplectic "
        "singular-restriction set, and 500 seeded random irregular sets)",
        {"sets": len(sets)},
    )


def check_thm_3_2_1(q, n, k, rng):
    """Maximal irregular sets contain the meeting set of their line span and
    the cohyperplanar set of their hyperplane core; dropping maximality
    breaks the first inclusion."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = _space(q, n)
    sets = []
    for s in space.grassmannian(n - k):
        sets.append(planes_meeting(space, s, k))
    for _ in range(40):
        sets.append(complete_to_maximal_irregular(random_irregular(space, k, rng)))
    s0 = space.grassmannian(n - k - 1)[0]
    t0 = next(
        t for t in space.grassmannian(k + 1) if meet(s0, t).k == 0
    )
    sets.append(deficient_irregular(space, s0, t0).result)
    for ps in sets:
        ch = characteristics(ps)
        if ch.line_span is not None and ch.line_span.k >= 1:
            if not planes_meeting(space, ch.line_span, k).issubset(ps):
                return CheckResult(
                    "thm-3.2.1", False, "maximal irregular sets", {},
                    {"planes": [_subspace_cert(s) for s in ps.members()], "side": "line span"},
                )
        if ch.hyperplane_core is not None and 1 <= ch.hyperplane_core.k:
            if not planes_cohyperplanar(space, ch.hyperplane_core, k).issubset(ps):
                return CheckResult(
                    "thm-3.2.1", False, "maximal irregular sets", {},
                    {"planes": [_subspace_cert(s) for s in ps.members()], "side": "hyperplane core"},
                )
    # counterexample without maximality: a punctured meeting set keeps the
    # line span but loses the inclusion
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    l = space.subspace([(1, 0, 0, 0), (0, 0, 1, 0)])
    x = planes_meeting(space, s, k)
    punctured = x.without_index(space.grassmannian(k).index(l))
    ch = characteristics(punctured)
    reproduced = (
        0 < meet(l, s).k < n - k
        and ch.line_span == s
        and not planes_meeting(space, ch.line_span, k).issubset(punctured)
        and is_irregular(punctured)
        and not is_maximal_irregular(punctured)
    )
    return CheckResult(
        "thm-3.2.1",
        reproduced,
        f"{len(sets)} maximal irregular sets (all complementary-dimension meeting sets, "
        "40 seeded completions, one deficient construction); non-maximal counterexample reproduced",
        {"sets": len(sets), "counterexample_reproduced": reproduced},
    )


def check_thm_3_2_2(q, n, k, rng):
    """Traces of irregular sets on complements never contain a maximal
    regular subset of the sub-Grassmannian."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = _space(q, n)
    sets = [planes_meeting(space, s, k) for s in space.grassmannian(n - k)]
    for _ in range(30):
        sets.append(random_irregular(space, k, rng))
    checked = 0
    for ps in sets:
        ch = characteristics(ps)
        if ch.line_span is not None:
            for line in ch.saturated_lines.members():
                for t in space.grassmannian(n - 1):
                    if meet(line, t).k != 0:
                        continue
                    checked += 1
                    if restricted_status(ps, t) == STATUS_CONTAINS_MAXIMAL_REGULAR:
                        return CheckResult(
                            "thm-3.2.2", False, "irregular traces", {"checked": checked},
                            {"planes": [_subspace_cert(s) for s in ps.members()],
                             "t": _subspace_cert(t)},
                        )
        if ch.hyperplane_core is not None:
            for hyp in ch.saturated_hyperplanes.members():
                for t in space.grassmannian(1):
                    if meet(t, hyp).k != 0:
                        continue
                    checked += 1
                    if restricted_status(ps, t) == STATUS_CONTAINS_MAXIMAL_REGULAR:
                        return CheckResult(
                            "thm-3.2.2", False, "irregular traces", {"checked": checked},
                            {"planes": [_subspace_cert(s) for s in ps.members()],
                             "t": _subspace_cert(t)},
                        )
    return CheckResult(
        "thm-3.2.2",
        True,
        f"{len(sets)} irregular sets, {checked} (saturated subspace, transverse complement) pairs",
        {"sets": len(sets), "checked": checked},
    )


def check_thm_3_2_3(q, n, k, rng):
    """The deficient construction yields a maximal irregular set containing
    the meeting set, with line-span dimension n-k-1 and a trace on the
    carrier that is not maximal irregular there."""
    _require(q == 2 and (n, k) in ((4, 2), (5, 2), (5, 3)), "(q, n, k) in {(2,4,2), (2,5,2), (2,5,3)}")
    space = _space(q, n)
    s = space.grassmannian(n - k - 1)[0]
    t = next(tt for tt in space.grassmannian(k + 1) if meet(s, tt).k == 0)
    built = deficient_irregular(space, s, t)
    ch = characteristics(built.result)
    status = restricted_status(built.result, t)
    ok = (
        is_maximal_irregular(built.result)
        and planes_meeting(space, s, k).issubset(built.result)
        and ch.line_span_dim == n - k - 1
        and status not in (STATUS_MAXIMAL_IRREGULAR, STATUS_CONTAINS_MAXIMAL_REGULAR)
    )
    return CheckResult(
        "thm-3.2.3",
        ok,
        f"first canonical construction instance at (q, n, k) = ({q}, {n}, {k})",
        {"size": len(built.result), "line_span_dim": ch.line_span_dim, "trace_status": status},
        None
        if ok
        else {"planes": [_subspace_cert(x) for x in built.result.members()], "status": status},
    )


def check_thm_3_2_4(q, n, k, rng):
    """Dual deficient construction: hyperplane-core dimension n-k+1 and a
    non-maximal trace on the low-dimensional carrier."""
    _require(q == 2 and (n, k) in ((4, 2), (5, 2), (5, 3)), "(q, n, k) in {(2,4,2), (2,5,2), (2,5,3)}")
    space = _space(q, n)
    s = space.grassmannian(n - k + 1)[0]
    t = next(tt for tt in space.grassmannian(k - 1) if meet(s, tt).k == 0)
    built = deficient_irregular_dual(space, s, t)
    ch = characteristics(built.result)
    status = restricted_status(built.result, t)
    ok = (
        is_maximal_irregular(built.result)
        and planes_cohyperplanar(space, s, k).issubset(built.result)
        and ch.hyperplane_core_dim == n - k + 1
        and status not in (STATUS_MAXIMAL_IRREGULAR, STATUS_CONTAINS_MAXIMAL_REGULAR)
    )
    return CheckResult(
        "thm-3.2.4",
        ok,
        f"first canonical dual construction instance at (q, n, k) = ({q}, {n}, {k})",
        {"size": len(built.result), "hyperplane_core_dim": ch.hyperplane_core_dim, "trace_status": status},
        None
        if ok
        else {"planes": [_subspace_cert(x) for x in built.result.members()], "status": status},
    )


def check_lemma_3_2_1(q, n, k, rng):
    """Form-defined bijections swap and complement the two characteristics."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = _space(q, n)
    gk = space.grassmannian(k)
    forms = [
        dot_form(space.field, n),
        standard_symplectic(space.field, n),
        random_nonsingular_form(space, rng),
    ]
    sets = [planes_meeting(space, s, k) for s in space.grassmannian(2)][:10]
    for _ in range(100):
        size = rng.randrange(1, len(gk))
        sets.append(PlaneSet(gk, rng.sample(range(len(gk)), size)))
    checked = 0
    for form in forms:
        fmap = form_map(space, form, k)
        for ps in sets:
            checked += 1
            image = fmap.apply_set(ps)
            ci, cf = characteristics(ps), characteristics(image)
            if cf.line_span_dim != n - ci.hyperplane_core_dim or cf.hyperplane_core_dim != n - ci.line_span_dim:
                return CheckResult(
                    "lemma-3.2.1", False, "form-map duality", {"checked": checked},
                    {"planes": [_subspace_cert(s) for s in ps.members()],
                     "gram": [list(r) for r in form.gram.rows]},
                )
    return CheckResult(
        "lemma-3.2.1",
        True,
        f"{len(sets)} plane sets (meeting sets and seeded random sets) under 3 forms",
        {"checked": checked},
    )


def check_cor_3_2_2(q, n, k, rng):
    """Whenever a meeting set and a cohyperplanar set both sit inside one
    irregular set at admissible dimensions, their bases are nested."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = _space(q, n)
    xs = []
    for m in range(1, n - k + 1):
        for s in space.grassmannian(m):
            xs.append((s, planes_meeting(space, s, k)))
    ys = []
    for m in range(n - k, n):
        for s in space.grassmannian(m):
            ys.append((s, planes_cohyperplanar(space, s, k)))
    sets = [planes_meeting(space, s, k) for s in space.grassmannian(n - k)]
    for _ in range(60):
        sets.append(complete_to_maximal_irregular(random_irregular(space, k, rng)))
    checked = 0
    for ps in sets:
        for s1, x in xs:
            if not x.issubset(ps):
                continue
            for s2, y in ys:
                if not y.issubset(ps):
                    continue
                checked += 1
                if not s2.contains(s1):
                    return CheckResult(
                        "cor-3.2.2", False, "nesting of included meeting/cohyperplanar bases",
                        {"checked": checked},
                        {"planes": [_subspace_cert(s) for s in ps.members()],
                         "s1": _subspace_cert(s1), "s2": _subspace_cert(s2)},
                    )
    return CheckResult(
        "cor-3.2.2",
        True,
        f"{len(sets)} irregular sets, {checked} nested inclusion pairs",
        {"sets": len(sets), "pairs": checked},
    )


CHECKS = {
    "remark-2.2.1": (
        check_remark_2_2_1,
        "binomial identity relating the exactness threshold to the full count",
        "any parameters; the identity is scanned over a fixed (n, k) grid",
    ),
    "prop-1.1.2": (
        check_prop_1_1_2,
        "hyperbolic bases for nonsingular alternating forms; none exist in odd dimension",
        "q in {2, 3}, n in {4, 6}",
    ),
    "prop-1.4.2": (
        check_prop_1_4_2,
        "maximal pairwise-adjacent families are exactly the stars and the tops",
        "1 < k < n-1 with |G_k| <= 200",
    ),
    "thm-1.3.1": (
        check_thm_1_3_1,
        "independence-preserving line transformations are exactly the induced ones",
        "(q, n) = (2, 3), exhaustive over all 5040 line permutations",
    ),
    "thm-2.2.1": (
        check_thm_2_2_1,
        "large regular sets have degree of inexactness at most 1, extremal shape classified",
        "(q, n, k) = (2, 4, 2), exhaustive over all coordinate systems",
    ),
    "thm-2.2.2": (
        check_thm_2_2_2,
        "degree at most 2 above the stated size threshold, equality cases classified; "
        "for line sets the degree is n - |R|",
        "(2, 4, 2) and k = 1 exhaustive; (2, 5, 2) and (2, 5, 3) over the canonical system "
        "plus random transported systems",
    ),
    "prop-3.1.3": (
        check_prop_3_1_3,
        "meeting/cohyperplanar sets: coverage, irregularity, maximality at complementary dimension",
        "1 < k < n-1 with |G_k| <= 200",
    ),
    "prop-3.2.1": (
        check_prop_3_2_1,
        "characteristic bounds for irregular sets",
        "(q, n, k) = (2, 4, 2)",
    ),
    "thm-3.2.1": (
        check_thm_3_2_1,
        "maximal irregular sets contain the meeting/cohyperplanar sets of their characteristics",
        "(q, n, k) = (2, 4, 2)",
    ),
    "thm-3.2.2": (
        check_thm_3_2_2,
        "traces on transverse complements contain no maximal regular subset of the trace Grassmannian",
        "(q, n, k) = (2, 4, 2)",
    ),
    "thm-3.2.3": (
        check_thm_3_2_3,
        "deficient construction: maximal irregular, line span one short of maximal, non-maximal trace",
        "(q, n, k) in {(2, 4, 2), (2, 5, 2), (2, 5, 3)}",
    ),
    "thm-3.2.4": (
        check_thm_3_2_4,
        "dual deficient construction with hyperplane core one beyond complementary dimension",
        "(q, n, k) in {(2, 4, 2), (2, 5, 2), (2, 5, 3)}",
    ),
    "lemma-3.2.1": (
        check_lemma_3_2_1,
        "form-defined bijections complement-swap the two characteristics",
        "(q, n, k) = (2, 4, 2)",
    ),
    "cor-3.2.2": (
        check_cor_3_2_2,
        "nested bases when both a meeting and a cohyperplanar set embed in one irregular set",
        "(q, n, k) = (2, 4, 2)",
    ),
}


def run_check(check_id, q, n, k, seed=0):
    entry = CHECKS.get(check_id)
    if entry is None:
        raise KeyError(f"unknown check id {check_id!r}; known: {', '.join(sorted(CHECKS))}")
    fn = entry[0]
    return fn(q, n, k, random.Random(seed))
