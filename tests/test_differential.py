"""Differential tests of the fast paths.

The certify-first classifiers, the row-by-row distance scan, the lazy walk
over line coordinate systems and the row-reduction-free similarity search are
compared with the scan-first, pair-by-pair and per-matrix implementations
they replaced; the coordinate-system searches that
carry spans as point bitmasks and test candidates by join masks are compared
with the echelon-basis, join-per-candidate searches they replaced, and the
characteristics read off masks with the join/meet version; induced tables
lifted from the line table through the reverse-incidence lookup are compared
with one row reduction per plane and with the join/meet `induces`; the incidence and distance tables, line joins
and meeting/cohyperplanar sets read off point masks are compared with echelon
reductions, per-pair `distance` and spans; and the one-way `induces` is
compared with the version that also checked preimages and bijectivity; the
degree of inexactness decided from one covering search is compared with one
`is_exact` search per candidate superset; and the point rows of
`incidence(1, k)` built by spans are compared with vector enumeration; the
`PlaneSet` operations on bitmasks are compared with the same operations on
frozensets, and the covering search behind its C(n, k) size guard with the
unguarded search.  The replaced implementations are kept here as reference
oracles.
"""

import functools
import importlib.util
import random
from bisect import bisect_left
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from pathlib import Path

import pytest

from qgrass.forms import BilinearForm, dot_form, form_map, standard_symplectic
from qgrass.grassmann import (
    GrassmannMap,
    PlaneSet,
    Space,
    Subspace,
    distance,
    gaussian_binomial,
    join,
    meet,
)
from qgrass.harness import _regular_subset_sweep, random_invertible, random_semilinear
from qgrass.irregularity import (
    Characteristics,
    Similarity,
    _fingerprint,
    _invertible_matrices,
    _matrices_mapping,
    are_similar,
    characteristics,
    complete_to_maximal_irregular,
    completion_witness,
    contains_maximal_regular,
    deficient_irregular,
    deficient_irregular_dual,
    is_irregular,
    is_maximal_irregular,
    planes_cohyperplanar,
    planes_meeting,
)
from qgrass.linalg import EchelonBasis, Mat
from qgrass.maps import SemilinearMap, induced_map, induces
from qgrass.reconstruction import (
    ClassificationResult,
    NotDistancePreservingError,
    NotRegularTransformationError,
    _chow_reconstruct,
    chow_classify,
    distance_violation,
    ftpg_reconstruct,
    is_distance_preserving,
    is_regular_transformation,
    regular_classify,
    regular_violation,
)
from qgrass import irregularity, regularity
from qgrass.regularity import (
    CoordinateSystem,
    NotRegularError,
    _covering_system_indices,
    _systems_within,
    associated_systems,
    degree,
    is_exact,
    maximal_regular_family,
)

# ---------------------------------------------------------------------------
# reference oracles


def family_violation(space, f):
    """Scan of the whole maximal regular family, in canonical order."""
    family = maximal_regular_family(space, f.domain.k)
    fam_set = set(family)
    inv = f.inverse().table
    for mr in family:
        if frozenset(f.table[i] for i in mr) not in fam_set:
            return mr
        if frozenset(inv[i] for i in mr) not in fam_set:
            return mr
    return None


def scan_first_classify(space, f):
    """The classifier that scans the family before it reconstructs."""
    k = f.domain.k
    n = space.n
    witness = family_violation(space, f)
    if witness is not None:
        raise NotRegularTransformationError(witness)
    if 1 < k < n - 1:
        if not is_distance_preserving(space, f):
            raise RuntimeError("regular transformation fails distance preservation")
        return chow_classify(space, f)
    if k == 1:
        return ClassificationResult("linear", map=ftpg_reconstruct(space, f), verified=True)
    if k == n - 1:
        g = form_map(space, dot_form(space.field, n), n - 1)
        h1 = ftpg_reconstruct(space, g.compose(f).compose(g.inverse()))
        h = SemilinearMap(space.field, h1.matrix.transpose().inv(), h1.sigma)
        if induced_map(space, h, n - 1) != f:
            return ClassificationResult("not_classifiable", witness=("conjugation mismatch",))
        return ClassificationResult("linear", map=h, verified=True)
    raise ValueError("classification needs 1 <= k <= n-1")


def pair_distance_violation(space, f):
    """The loop over every pair of planes, with the two-way adjacency guard
    run on every call."""
    k = f.domain.k
    d = space.distance_matrix(k)
    t = f.table
    full = None
    for i in range(len(t)):
        di, dfi = d[i], d[t[i]]
        for j in range(i + 1, len(t)):
            if di[j] != dfi[t[j]]:
                full = (i, j)
                break
        if full:
            break
    inv = [0] * len(t)
    for i, j in enumerate(t):
        inv[j] = i
    adj = True
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if (d[i][j] == 1) != (d[t[i]][t[j]] == 1) or (d[i][j] == 1) != (
                d[inv[i]][inv[j]] == 1
            ):
                adj = False
                break
        if not adj:
            break
    if adj != (full is None):
        raise RuntimeError("adjacency and distance preservation disagree")
    return full


def distance_first_classify(space, f):
    """The middle-dimension classifier that scanned every pair of planes
    before it reconstructed."""
    witness = pair_distance_violation(space, f)
    if witness is not None:
        raise NotDistancePreservingError(witness)
    return _chow_reconstruct(space, f)


def echelon_systems_within(space, k, allowed, forced=None):
    """Systems with every coordinate k-plane in `allowed`, each candidate line
    tested against a copied echelon basis of the chosen ones."""
    g1 = space.grassmannian(1)
    nlines = len(g1)
    n = space.n
    join_idx = space.line_join_index

    def extend(chosen, basis, candidates, start):
        if len(chosen) == n:
            yield tuple(sorted(chosen))
            return
        slots = n - len(chosen)
        for ci in range(start, len(candidates) - slots + 1):
            t = candidates[ci]
            nb = basis.copy()
            if not nb.add(g1[t].rows[0]):
                continue
            ok = True
            for sub in combinations(chosen, k - 1):
                ji = join_idx(sub + (t,), k)
                if ji is None or ji not in allowed:
                    ok = False
                    break
            if ok:
                yield from extend(chosen + (t,), nb, candidates, ci + 1)

    if forced is None:
        yield from extend((), EchelonBasis(space.field), tuple(range(nlines)), 0)
        return
    lines_in = (forced,) if k == 1 else space.incidence(1, k)[forced]
    inside = set(lines_in)
    others = tuple(t for t in range(nlines) if t not in inside)
    for base in combinations(lines_in, k):
        eb = EchelonBasis(space.field)
        if not all(eb.add(g1[t].rows[0]) for t in base):
            continue
        yield from extend(tuple(base), eb, others, 0)


def echelon_system_indices(space):
    """Every coordinate system, each candidate line tested against a copied
    echelon basis of the chosen ones."""
    g1 = space.grassmannian(1)
    nlines = len(g1)
    n = space.n

    def rec(start, chosen, basis):
        if len(chosen) == n:
            yield chosen
            return
        slots = n - len(chosen)
        for t in range(start, nlines - slots + 1):
            nb = basis.copy()
            if nb.add(g1[t].rows[0]):
                yield from rec(t + 1, chosen + (t,), nb)

    return rec(0, (), EchelonBasis(space.field))


def every_system(space):
    """The engine's unconstrained walk: k = 1 with every line allowed."""
    return _systems_within(space, 1, [-1])


def echelon_complete(plane_set):
    """Greedy completion to a maximal irregular set on the echelon search."""
    gr = plane_set.gr
    current = set(plane_set.iset)
    for l in range(len(gr)):
        if l not in current and next(
            echelon_systems_within(gr.space, gr.k, frozenset(current), forced=l), None
        ) is None:
            current.add(l)
    return PlaneSet(gr, current)


def line_indices(system):
    return None if system is None else system.line_indices


def echelon_rows(field, n, pools):
    """Independent row tuples, each candidate tested by an echelon basis."""

    def rec(rows, basis):
        if len(rows) == n:
            yield rows
            return
        for v in pools[len(rows)]:
            nb = basis.copy()
            if nb.add(v):
                yield from rec(rows + (v,), nb)

    yield from rec((), EchelonBasis(field))


@functools.lru_cache(maxsize=None)
def group_maps(q, n):
    """SemilinearMap of every invertible matrix, in ascending row-code order."""
    field = Space.get(q, n).field
    vectors = list(product(field.elements, repeat=n))
    return [SemilinearMap(field, Mat(field, rows)) for rows in echelon_rows(field, n, [vectors] * n)]


def span_maps(field, n, src, dst):
    """SemilinearMap of every invertible matrix carrying src onto dst."""
    ext = []
    eb = EchelonBasis(field, src.rows)
    for v in Mat.identity(field, n).rows:
        if eb.add(v):
            ext.append(v)
    dom_inv_t = Mat(field, tuple(src.rows) + tuple(ext)).inv().transpose()
    dst_vecs = [v for v in dst.vectors() if any(v)]
    all_vecs = list(product(field.elements, repeat=n))
    pools = [dst_vecs] * src.k + [all_vecs] * (n - src.k)
    for rows in echelon_rows(field, n, pools):
        yield SemilinearMap(field, Mat(field, rows).transpose().mul(dom_inv_t))


def matrix_loop_similar(left, right):
    """Similarity with a SemilinearMap and one apply_subspace per member for
    every candidate matrix; the invariant filters are the library's own."""
    space = left.gr.space
    n, k = left.gr.n, left.gr.k
    if len(left) != len(right):
        return Similarity("no", None, "sizes differ")
    if 1 < k < n - 1:
        cl, cr = characteristics(left), characteristics(right)
        pl = (cl.line_span_dim, cl.hyperplane_core_dim)
        pr = (cr.line_span_dim, cr.hyperplane_core_dim)
        if n != 2 * k:
            if pl != pr:
                return Similarity("no", None, f"characteristics differ: {pl} vs {pr}")
        elif pl != pr and pl != (n - pr[1], n - pr[0]):
            return Similarity(
                "no", None, f"characteristics differ even up to duality: {pl} vs {pr}"
            )
    if _fingerprint(left) != _fingerprint(right):
        return Similarity("no", None, "pairwise distance multisets differ")
    gk = left.gr
    left_members = left.members()
    right_set = right.iset
    if n == 5:
        src, dst = cl.line_span, cr.line_span   # set at the constructions compared here
        for h in span_maps(space.field, n, src, dst):
            if all(gk.index(h.apply_subspace(sub)) in right_set for sub in left_members):
                return Similarity("yes", induced_map(space, h, k), "linear witness")
        return Similarity("no", None, "span-constrained linear search exhausted")
    form_post = form_pre = None
    if n == 2 * k:
        form_post = form_map(space, standard_symplectic(space.field, n), k)
        form_pre = frozenset(form_post.inverse().table[j] for j in right_set)
    for h in group_maps(space.field.q, n):
        lin_ok = True
        frm_ok = form_pre is not None
        complete = True
        for sub in left_members:
            i = gk.index(h.apply_subspace(sub))
            if lin_ok and i not in right_set:
                lin_ok = False
            if frm_ok and i not in form_pre:
                frm_ok = False
            if not lin_ok and not frm_ok:
                complete = False
                break
        if not complete:
            continue
        if lin_ok:
            return Similarity("yes", induced_map(space, h, k), "linear witness")
        return Similarity(
            "yes", form_post.compose(induced_map(space, h, k)), "form-composed witness"
        )
    return Similarity("no", None, "regular transformation group exhausted")


def rref_induced_map(space, f, k):
    """Induced table with one row reduction per plane: the image rows
    sigma(r) M^T of each plane, spanned and indexed."""
    gk = space.grassmannian(k)
    mt = f.matrix.transpose()

    def image(s):
        rows = [tuple(f.sigma(x) for x in r) for r in s.rows]
        if rows:
            rows = Mat(f.field, rows).mul(mt).rows
        return gk.index(Subspace.span(f.field, space.n, rows))

    return GrassmannMap(gk, gk, (image(s) for s in gk))


def join_meet_plane(space, image_indices, k, m):
    """The plane s with G_k(s) equal to the given set, found as the join
    (m > k) or meet (m < k) of the set and checked against its incidence."""
    gk = space.grassmannian(k)
    members = [gk[i] for i in image_indices]
    acc = members[0]
    for s in members[1:]:
        acc = join(acc, s) if m > k else meet(acc, s)
    if acc.k != m:
        return None
    if space.incidence(k, m)[space.grassmannian(m).index(acc)] != tuple(sorted(image_indices)):
        return None
    return acc


def join_meet_induces(space, f, m):
    """`induces` with the image and preimage planes found by join/meet."""
    k = f.domain.k
    gm = space.grassmannian(m)
    inv = f.inverse().table
    forward = []
    for row in space.incidence(k, m):
        img = join_meet_plane(space, [f.table[i] for i in row], k, m)
        if img is None or join_meet_plane(space, [inv[i] for i in row], k, m) is None:
            return None
        forward.append(gm.index(img))
    if len(set(forward)) != len(gm):
        return None
    return GrassmannMap(gm, gm, forward)


def two_way_induces(space, f, m):
    """`induces` that also checks every preimage set and that the table built
    is a bijection."""
    k = f.domain.k
    gm = space.grassmannian(m)
    if k in (0, space.n):
        return None
    plane_of = space.plane_of_incidence(k, m)
    inv = f.inverse().table
    forward = []
    for row in space.incidence(k, m):
        s = plane_of.get(frozenset(f.table[i] for i in row))
        if s is None or frozenset(inv[i] for i in row) not in plane_of:
            return None
        forward.append(s)
    if len(set(forward)) != len(gm):
        return None
    return GrassmannMap(gm, gm, forward)


def echelon_incidences(space, small, big):
    """`incidence(small, big)` and `incidence(big, small)` with one echelon
    reduction per (small, big) pair."""
    gs, gb = space.grassmannian(small), space.grassmannian(big)
    down = [[] for _ in gb]
    up = [[] for _ in gs]
    for bi, b in enumerate(gb):
        eb = EchelonBasis(space.field, b.rows)
        for si, s in enumerate(gs):
            if all(not any(eb.reduce(r)) for r in s.rows):
                down[bi].append(si)
                up[si].append(bi)
    return [tuple(r) for r in down], [tuple(r) for r in up]


def pairwise_distance_matrix(space, k):
    """`distance_matrix(k)` with one `distance` row reduction per pair."""
    g = space.grassmannian(k)
    d = [[0] * len(g) for _ in g]
    for i, j in combinations(range(len(g)), 2):
        d[i][j] = d[j][i] = distance(g[i], g[j])
    return d


def span_join_index(space, line_indices, k):
    """`line_join_index` by spanning the lines' rows and indexing the span."""
    g1 = space.grassmannian(1)
    s = Subspace.span(space.field, space.n, tuple(g1[i].rows[0] for i in line_indices))
    return space.grassmannian(k).index(s) if s.k == k else None


def span_planes_meeting(space, s, k):
    """`planes_meeting` with one span per plane."""
    gk = space.grassmannian(k)
    return PlaneSet(
        gk, (i for i, l in enumerate(gk) if Subspace.span(space.field, space.n, l.rows + s.rows).k < k + s.k)
    )


def span_planes_cohyperplanar(space, s, k):
    """`planes_cohyperplanar` with one span per plane."""
    gk = space.grassmannian(k)
    return PlaneSet(
        gk, (i for i, l in enumerate(gk) if Subspace.span(space.field, space.n, l.rows + s.rows).k < space.n)
    )


def per_candidate_degree(plane_set):
    """`degree` with one `is_exact` covering search per candidate superset."""
    systems = associated_systems(plane_set)
    if not systems:
        raise NotRegularError("degree is defined for regular sets")
    k = plane_set.gr.k
    extras = []
    for sys_ in systems:
        planes = sys_.coordinate_planes(k)
        extras.append(tuple(i for i in planes.indices if i not in plane_set.iset))
    d = 0
    while True:
        for extra in extras:
            for add in combinations(extra, d):
                cand = PlaneSet(plane_set.gr, plane_set.iset | set(add))
                if is_exact(cand):
                    return d, cand
        d += 1
        if d > max(len(e) for e in extras):
            raise RuntimeError("no exact superset found; maximal sets should be exact")


def join_meet_characteristics(plane_set):
    """`characteristics` with one `join` per saturated line and one `meet`
    per saturated hyperplane."""
    space = plane_set.gr.space
    k, n = plane_set.gr.k, space.n
    g1, gh = space.grassmannian(1), space.grassmannian(n - 1)
    through, inside = space.incidence(k, 1), space.incidence(k, n - 1)
    nlines = [t for t in range(len(g1)) if set(through[t]) <= plane_set.iset]
    nhyps = [t for t in range(len(gh)) if set(inside[t]) <= plane_set.iset]
    span = core = None
    for t in nlines:
        span = g1[t] if span is None else join(span, g1[t])
    for t in nhyps:
        core = gh[t] if core is None else meet(core, gh[t])
    return Characteristics(
        PlaneSet(g1, nlines),
        span,
        0 if span is None else span.k,
        PlaneSet(gh, nhyps),
        core,
        n if core is None else core.k,
    )


def vector_line_incidence(space, k):
    """`incidence(1, k)`: the lines of each plane, one per nonzero vector."""
    line_of = space.vector_lines()
    return [
        tuple(sorted({line_of[v] for v in s.vectors() if any(v)})) for s in space.grassmannian(k)
    ]


# ---------------------------------------------------------------------------
# comparisons


def unguarded_covering_system_indices(space, plane_set):
    """The covering search on echelon bases without the C(n, k) size guard:
    one basis copy and reduction per candidate line."""
    n = space.n
    g1 = space.grassmannian(1)
    nlines = len(g1)
    k = plane_set.gr.k
    lines_in = [(i,) for i in range(nlines)] if k == 1 else space.incidence(1, k)
    targets = [lines_in[p] for p in plane_set.indices]
    line_planes = [[] for _ in range(nlines)]
    for pi, lines in enumerate(targets):
        for t in lines:
            line_planes[t].append(pi)
    counts = [0] * len(targets)

    def feasible(next_start, slots):
        for pi, lines in enumerate(targets):
            need = k - counts[pi]
            if need > 0 and (need > slots or need > len(lines) - bisect_left(lines, next_start)):
                return False
        return True

    def rec(start, chosen, basis):
        if len(chosen) == n:
            if all(c == k for c in counts):
                yield chosen
            return
        slots = n - len(chosen)
        for t in range(start, nlines - slots + 1):
            nb = basis.copy()
            if not nb.add(g1[t].rows[0]):
                continue
            for pi in line_planes[t]:
                counts[pi] += 1
            if feasible(t + 1, slots - 1):
                yield from rec(t + 1, chosen + (t,), nb)
            for pi in line_planes[t]:
                counts[pi] -= 1

    return rec(0, (), EchelonBasis(space.field))


def assert_plane_set_is(ps, members):
    """A PlaneSet agrees with the frozenset of its members in every view."""
    assert ps.indices == tuple(sorted(members))
    assert list(ps) == sorted(members) and len(ps) == len(members)
    assert ps.iset == members
    assert ps.mask == sum(1 << i for i in members)
    rebuilt = PlaneSet(ps.gr, members)
    assert ps == rebuilt and hash(ps) == hash(rebuilt)


def outcome(classify, space, f):
    """Kind, map, form, verification and witness of a classification, or the
    type, message and witness of the error it raised."""
    try:
        r = classify(space, f)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    return r.kind, r.map, None if r.form is None else r.form.gram, r.verified, r.witness


def similarity(sim):
    return sim.kind, sim.reason, None if sim.witness is None else sim.witness.table


def linear_tables(space, k):
    """Every transformation table of G_k induced by an invertible matrix."""
    g1 = space.grassmannian(1)
    line_of = {v: i for i, line in enumerate(g1) for v in line.vectors() if any(v)}
    planes = space.grassmannian(k)
    return sorted(
        {
            tuple(space.line_join_index([line_of[m.apply(r)] for r in s.rows], k) for s in planes)
            for m in _invertible_matrices(space.field, space.n)
        }
    )


def transposed(table, rng, length=2):
    """The table with the images of `length` seeded planes cycled: one
    transposition by default."""
    places = rng.sample(range(len(table)), length)
    out = list(table)
    for a, b in zip(places, places[1:] + places[:1]):
        out[a] = table[b]
    return out


def sampled_tables(space, k, count, rng):
    """Tables of seeded semilinear maps, each composed with the form map of a
    random nonsingular Gram matrix on every second draw when n = 2k."""
    out = []
    for i in range(count):
        f = induced_map(space, random_semilinear(space, rng), k)
        if space.n == 2 * k and i % 2:
            gram = random_invertible(space.field, space.n, rng)
            f = form_map(space, BilinearForm(space.field, gram), k).compose(f)
        out.append(f.table)
    return out


# exhaustive where the group is small, seeded semilinear samples otherwise;
# the (3,4,1) and (4,3,1) line spaces are those of `transform-classify`
@pytest.mark.parametrize(
    "q,n,k,sample",
    [
        (2, 3, 1, None), (2, 3, 2, None), (3, 3, 1, None), (2, 4, 1, 300), (2, 4, 2, 300), (2, 4, 3, 300),
        (3, 4, 1, 30), (4, 3, 1, 300),
    ],
)
def test_certify_first_classifier_matches_scan_first(q, n, k, sample):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"classify:{q}:{n}:{k}")
    if sample is None:
        tables = linear_tables(space, k)
    else:
        tables = sampled_tables(space, k, sample, rng)
    kinds = {}
    for table in tables:
        for t in (table, transposed(table, rng)):
            f = GrassmannMap(gk, gk, t)
            got = outcome(regular_classify, space, f)
            assert got == outcome(scan_first_classify, space, f)
            assert is_regular_transformation(space, f) == (got[0] is not NotRegularTransformationError)
            kinds[got[0]] = kinds.get(got[0], 0) + 1
    # every induced table is classified, every corruption rejected with a witness
    assert kinds.get("linear", 0) + kinds.get("form_composed", 0) == len(tables)
    assert kinds[NotRegularTransformationError] == len(tables)


def compare_chow_classifiers(space, f):
    """The certify-first and distance-first outcomes, which must agree, and
    the row and pair scans, which must name the same witness."""
    got = outcome(chow_classify, space, f)
    assert got == outcome(distance_first_classify, space, f)
    assert got[:2] != (RuntimeError, "adjacency and distance preservation disagree")
    assert distance_violation(space, f) == pair_distance_violation(space, f)
    return got


def test_certify_first_chow_matches_distance_first_on_every_transposition():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    # three induced tables and three composed with a form map
    tables = sampled_tables(space, 2, 6, random.Random("chow:2:4:2"))
    for table in tables:
        assert compare_chow_classifiers(space, GrassmannMap(g2, g2, table))[3] is True
        for a, b in combinations(range(len(table)), 2):
            t = list(table)
            t[a], t[b] = t[b], t[a]
            got = compare_chow_classifiers(space, GrassmannMap(g2, g2, t))
            assert got[0] is NotDistancePreservingError


# two base tables per space (the second composed with a form map at n = 2k),
# each with seeded transpositions and 3-cycles
@pytest.mark.parametrize("q,n,k,corruptions", [(2, 5, 2, 40), (3, 4, 2, 40), (2, 5, 3, 40), (2, 6, 3, 8)])
def test_certify_first_chow_matches_distance_first_on_seeded_corruptions(q, n, k, corruptions):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"chow:{q}:{n}:{k}")
    for table in sampled_tables(space, k, 2, rng):
        assert compare_chow_classifiers(space, GrassmannMap(gk, gk, table))[3] is True
        for length in (2, 3):
            for _ in range(corruptions):
                got = compare_chow_classifiers(space, GrassmannMap(gk, gk, transposed(table, rng, length)))
                assert got[0] is NotDistancePreservingError


def walk_regular_count(k):
    """Compare the lazy walk with the family scan on every permutation of
    G_k(F_2^3); the number of regular ones."""
    space = Space.get(2, 3)
    gk = space.grassmannian(k)
    regular = 0
    for perm in permutations(range(len(gk))):
        f = GrassmannMap(gk, gk, perm)
        witness = regular_violation(space, f)
        assert witness == family_violation(space, f)
        regular += witness is None
    return regular


def test_line_walk_matches_family_scan():
    assert walk_regular_count(1) == 168  # |GL(3, 2)|


def test_hyperplane_walk_matches_family_scan():
    assert walk_regular_count(2) == 168


def test_enumerators_match_echelon_reference():
    for q, n in ((2, 2), (2, 3), (3, 3), (4, 2), (2, 4)):
        field = Space.get(q, n).field
        got = [m.rows for m in _invertible_matrices(field, n)]
        assert got == [h.matrix.rows for h in group_maps(q, n)]
    space = Space.get(2, 4)
    for ks, kd, i, j in ((1, 1, 0, 9), (2, 2, 3, 20), (3, 3, 1, 7)):
        src, dst = space.grassmannian(ks)[i], space.grassmannian(kd)[j]
        got = [m.rows for m in _matrices_mapping(space.field, 4, src, dst)]
        assert got == [h.matrix.rows for h in span_maps(space.field, 4, src, dst)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_similarity_search_matches_matrix_loop(k):
    space = Space.get(2, 4)
    gk = space.grassmannian(k)
    fm = form_map(space, standard_symplectic(space.field, 4), k) if k == 2 else None
    rng = random.Random(f"similar:{k}")
    reasons = set()
    for i in range(50):
        size = rng.randint(2, 3)
        left = PlaneSet(gk, rng.sample(range(len(gk)), size))
        right = PlaneSet(gk, rng.sample(range(len(gk)), size))
        g = induced_map(space, random_semilinear(space, rng), k)
        if fm is not None and i % 2:
            g = fm.compose(g)
        for a, b in ((left, right), (left, g.apply_set(left))):
            got = similarity(are_similar(a, b))
            assert got == similarity(matrix_loop_similar(a, b))
            reasons.add(got[1])
    # every verdict the search can reach at this k occurs
    assert "linear witness" in reasons
    if k == 2:
        assert {"form-composed witness", "pairwise distance multisets differ"} <= reasons
    else:
        assert "regular transformation group exhausted" in reasons


def test_similarity_search_matches_matrix_loop_on_constructions_at_n5():
    space = Space.get(2, 5)
    s1 = space.grassmannian(3)[0]
    i1 = planes_meeting(space, s1, 2)
    s2 = space.grassmannian(2)[0]
    t2 = next(t for t in space.grassmannian(3) if meet(s2, t).k == 0)
    i2 = deficient_irregular(space, s2, t2).result
    s3 = space.grassmannian(4)[0]
    t3 = next(t for t in space.grassmannian(1) if meet(s3, t).k == 0)
    i3 = deficient_irregular_dual(space, s3, t3).result
    for a, b in ((i1, i2), (i1, i3), (i2, i3)):
        assert similarity(are_similar(a, b)) == similarity(matrix_loop_similar(a, b))
    assert are_similar(i2, i3).reason == "linear witness"


def test_maximal_regular_witness_matches_echelon_search_on_every_line_set():
    space = Space.get(2, 4)
    g1 = space.grassmannian(1)
    found = 0
    for bits in range(1 << len(g1)):
        ps = PlaneSet(g1, [t for t in range(len(g1)) if bits >> t & 1])
        want = next(echelon_systems_within(space, 1, ps.iset), None)
        assert line_indices(contains_maximal_regular(ps)) == want
        found += want is not None
    # the line sets that span F_2^4, by Moebius inversion over the subspaces
    # W of codimension j, each holding 2^(4-j) - 1 lines
    assert found == sum(
        (-1) ** j * 2 ** (j * (j - 1) // 2) * gaussian_binomial(4, j, 2) * 2 ** (2 ** (4 - j) - 1)
        for j in range(5)
    )


def irregular_sets(space, k, rng):
    """Seeded irregular k-plane sets: small random sets, meeting and
    cohyperplanar sets of each dimension, and at 1 < k < n-1 one deficient
    construction of each kind."""
    n = space.n
    gk = space.grassmannian(k)
    sets = []
    while len(sets) < 3:
        ps = PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(n + 1, 3 * n)))
        if is_irregular(ps):
            sets.append(ps)
    for m in range(1, n - k + 1):
        s = space.grassmannian(m)[rng.randrange(len(space.grassmannian(m)))]
        sets.append(planes_meeting(space, s, k))
    # at k = n-1 the set cohyperplanar with a hyperplane is that hyperplane
    for m in range(n - k, n - 1 if k == n - 1 else n):
        s = space.grassmannian(m)[rng.randrange(len(space.grassmannian(m)))]
        sets.append(planes_cohyperplanar(space, s, k))
    if 1 < k < n - 1:
        for build, ds in ((deficient_irregular, n - k - 1), (deficient_irregular_dual, n - k + 1)):
            s = space.grassmannian(ds)[rng.randrange(len(space.grassmannian(ds)))]
            t = next(t for t in space.grassmannian(n - ds) if meet(s, t).k == 0)
            sets.append(build(space, s, t).result)
    return sets


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 5, 3), (2, 4, 3)])
def test_completion_matches_echelon_search(q, n, k):
    space = Space.get(q, n)
    rng = random.Random(f"completion:{q}:{n}:{k}")
    outside = witnesses = 0
    for ps in irregular_sets(space, k, rng):
        assert is_irregular(ps)
        for l in range(len(ps.gr)):
            if l not in ps.iset:
                want = next(echelon_systems_within(space, k, ps.iset, forced=l), None)
                assert line_indices(completion_witness(ps, l)) == want
                outside += 1
                witnesses += want is not None
        completed = complete_to_maximal_irregular(ps)
        assert completed == echelon_complete(ps)
        # a maximal set is its own completion, returned as it is
        assert (completed is ps) == (completed == ps)
        assert is_maximal_irregular(completed) and complete_to_maximal_irregular(completed) is completed
    assert 0 < witnesses < outside


@pytest.mark.parametrize(
    "q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 5, 3), (2, 4, 3), (2, 5, 1), (2, 5, 4), (3, 3, 1)]
)
def test_maximal_regular_witness_matches_echelon_search_on_seeded_sets(q, n, k):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"maximal-regular:{q}:{n}:{k}")
    found = 0
    for _ in range(40):
        ps = PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(1, len(gk) - 1)))
        want = next(echelon_systems_within(space, k, ps.iset), None)
        assert line_indices(contains_maximal_regular(ps)) == want
        found += want is not None
    assert 0 < found < 40


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2), (2, 5, 3)])
def test_mask_characteristics_match_join_meet(q, n, k):
    space = Space.get(q, n)
    sets = irregular_sets(space, k, random.Random(f"characteristics:{q}:{n}:{k}"))
    sets += [complete_to_maximal_irregular(ps) for ps in sets]
    seen = set()
    for ps in sets:
        got = characteristics(ps)
        assert got == join_meet_characteristics(ps)
        seen.add((got.line_span_dim, got.hyperplane_core_dim))
    # spans and cores of several dimensions, and sets without either
    assert (0, n) in seen and len(seen) >= 5


def test_maximality_and_completion_build_join_masks_once(monkeypatch):
    builds = []
    build = irregularity._join_masks

    def counted(plane_set):
        builds.append(plane_set)
        return build(plane_set)

    monkeypatch.setattr(irregularity, "_join_masks", counted)
    space = Space.get(2, 4)
    for ps in irregular_sets(space, 2, random.Random("join-masks")):
        for decide in (is_maximal_irregular, complete_to_maximal_irregular):
            builds.clear()
            decide(ps)
            assert len(builds) == 1


@pytest.mark.parametrize(
    "q,n,count",
    [(2, 3, 28), (3, 3, 234), (2, 4, 840), (4, 3, 1120), (3, 4, 63180), (2, 5, 83328)],
)
def test_system_walk_matches_echelon_walk(q, n, count):
    space = Space.get(q, n)
    got = list(every_system(space))
    assert len(got) == count
    assert got == list(echelon_system_indices(space))


INDUCED_SPACES = [(2, 3, 20), (2, 4, 20), (2, 5, 10), (3, 4, 10), (4, 3, 20)]


@pytest.mark.parametrize("q,n,count", INDUCED_SPACES)
def test_lifted_induced_map_matches_rref_per_plane(q, n, count):
    space = Space.get(q, n)
    rng = random.Random(f"induced:{q}:{n}")
    maps = [random_semilinear(space, rng) for _ in range(count)]
    if q == 4:
        # Frobenius twists occur, and plain linear maps too
        assert {h.sigma.exp for h in maps} == {0, 1}
    for h in maps:
        for k in range(n + 1):
            assert induced_map(space, h, k) == rref_induced_map(space, h, k)


@pytest.mark.parametrize("q,n,count", INDUCED_SPACES)
def test_lookup_induces_matches_join_meet(q, n, count):
    space = Space.get(q, n)
    rng = random.Random(f"induces:{q}:{n}")
    found = rejected = 0
    for _ in range(min(count, 3)):
        h = random_semilinear(space, rng)
        for k in range(n + 1):
            f = induced_map(space, h, k)
            tables = [f]
            if len(f.table) > 1:
                tables.append(GrassmannMap(f.domain, f.codomain, transposed(f.table, rng)))
            for g in tables:
                for m in range(n + 1):
                    if m != k:
                        got = induces(space, g, m)
                        assert got == join_meet_induces(space, g, m)
                        if g is f and 0 < k < n:
                            assert got == induced_map(space, h, m)
                        found += got is not None
                        rejected += got is None
    # both outcomes occur: induced tables lift, transpositions and G_0, G_n do not
    assert found and rejected


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_system_from_search_matches_validating_constructor(q, n):
    space = Space.get(q, n)
    g1 = space.grassmannian(1)
    for idxs in every_system(space):
        fast = CoordinateSystem.from_line_indices(space, idxs)
        checked = CoordinateSystem(space, [g1[i] for i in reversed(idxs)])
        assert fast == checked
        assert fast.line_indices == checked.line_indices
        assert fast.lines == checked.lines


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (2, 5)])
def test_one_way_induces_matches_two_way_check(q, n):
    space = Space.get(q, n)
    rng = random.Random(f"one-way:{q}:{n}")
    found = rejected = 0
    for _ in range(3):
        h = random_semilinear(space, rng)
        for k in range(n + 1):
            f = induced_map(space, h, k)
            tables = [f]
            if len(f.table) > 1:
                tables += [GrassmannMap(f.domain, f.codomain, transposed(f.table, rng)) for _ in range(3)]
            for g in tables:
                for m in range(n + 1):
                    if m != k:
                        got = induces(space, g, m)
                        assert got == two_way_induces(space, g, m)
                        found += got is not None
                        rejected += got is None
    assert found and rejected


# every ambient space whose incidence or distance tables the test suite builds
TABLE_SPACES = [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 3)]


@pytest.mark.parametrize("q,n", TABLE_SPACES)
def test_mask_tables_match_row_reduction(q, n):
    space = Space.get(q, n)
    for small, big in combinations(range(n + 1), 2):
        down, up = echelon_incidences(space, small, big)
        assert space.incidence(small, big) == down
        assert space.incidence(big, small) == up
    for k in range(1, n):
        assert space.distance_matrix(k) == pairwise_distance_matrix(space, k)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (2, 5)])
def test_mask_join_index_matches_span(q, n):
    space = Space.get(q, n)
    rng = random.Random(f"join:{q}:{n}")
    nlines = len(space.grassmannian(1))
    for size in range(1, n + 2):
        for _ in range(100):
            # repeated and dependent lines included
            lines = tuple(rng.randrange(nlines) for _ in range(size))
            for k in range(n + 1):
                assert space.line_join_index(lines, k) == span_join_index(space, lines, k)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (2, 5)])
def test_mask_meeting_and_cohyperplanar_match_spans(q, n):
    space = Space.get(q, n)
    for d in range(1, n + 1):
        for s in space.grassmannian(d):
            for k in range(n + 1):
                assert planes_meeting(space, s, k) == span_planes_meeting(space, s, k)
                assert planes_cohyperplanar(space, s, k) == span_planes_cohyperplanar(space, s, k)
    for build in (planes_meeting, planes_cohyperplanar):
        with pytest.raises(ValueError):
            build(space, space.zero_subspace, 2)


def assert_same_degree(plane_sets):
    for ps in plane_sets:
        d, witness = degree(ps)
        want_d, want = per_candidate_degree(ps)
        assert (d, witness.indices) == (want_d, want.indices), ps.indices


def test_mask_degree_matches_per_candidate_search_on_every_line_set():
    g1 = Space.get(2, 4).grassmannian(1)
    regular = [
        ps
        for size in range(5)
        for ps in (PlaneSet(g1, c) for c in combinations(range(15), size))
        if regularity.is_regular(ps) is not None
    ]
    # the independent m-sets of F_2^4: ordered bases of m-spaces over m!
    assert len(regular) == sum(
        prod(16 - 2 ** i for i in range(m)) // factorial(m) for m in range(5)
    )
    assert_same_degree(regular)


def test_mask_degree_matches_per_candidate_search_at_2_4_2():
    space = Space.get(2, 4)
    rng = random.Random("degree:2:4:2")
    by_size = {}
    for ps in _regular_subset_sweep(space, 2, 1):
        by_size.setdefault(len(ps), []).append(ps)
    # sampled: the oracle takes about a second per single plane, and two
    # minutes for all 17,430 sets
    for size, count in zip(range(1, 7), (2, 20, 200, 400, 400, 200)):
        assert_same_degree(rng.sample(by_size[size], count))


@pytest.mark.parametrize("q,n", [(2, 5), (3, 4)])
def test_mask_degree_matches_per_candidate_search_on_seeded_sets(q, n):
    space = Space.get(q, n)
    rng = random.Random(f"degree:{q}:{n}")
    sets = []
    for _ in range(12):
        lines = [Subspace.span(space.field, n, [r]) for r in random_invertible(space.field, n, rng).rows]
        planes = CoordinateSystem(space, lines).coordinate_planes(2).indices
        sets.append(PlaneSet(space.grassmannian(2), rng.sample(planes, rng.randint(4, len(planes)))))
    assert_same_degree(sets)


def test_mask_degree_matches_per_candidate_search_on_benchmark_sets():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    w = workloads.RegularDegree()
    specs = w.generate(random.Random(f"{w.name}:0"), None)[:240]
    assert_same_degree(w.materialize(s) for s in specs)


def test_degree_runs_one_covering_search(monkeypatch):
    searches = []
    search = regularity._covering_system_indices

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(regularity, "_covering_system_indices", counted)
    space = Space.get(2, 4)
    planes = regularity.all_coordinate_systems(space)[0].coordinate_planes(2).indices
    degrees = []
    for size in range(1, 7):
        searches.clear()
        degrees.append(degree(PlaneSet(space.grassmannian(2), planes[:size]))[0])
        assert len(searches) == 1
    assert degrees == [3, 2, 2, 1, 0, 0]


@pytest.mark.parametrize("q,n", TABLE_SPACES)
def test_span_line_incidence_matches_vector_enumeration(q, n):
    space = Space.get(q, n)
    for k in range(2, n + 1):
        assert space.incidence(1, k) == vector_line_incidence(space, k)


def assert_plane_set_ops_match_frozensets(gr, sets):
    """Every PlaneSet operation against the same operation on frozensets,
    over all pairs of the given member sets."""
    n = len(gr)
    built = [(PlaneSet(gr, a), a) for a in sets]
    for pa, a in built:
        assert_plane_set_is(pa, a)
        assert_plane_set_is(pa.complement(), frozenset(range(n)) - a)
        for i in range(n):
            assert_plane_set_is(pa.with_index(i), a | {i})
        for i in range(-1, n + 1):
            assert_plane_set_is(pa.without_index(i), a - {i})
        for i in (-1, n, n + 64, "x", None, 1.5):
            assert i not in pa
        assert [i for i in range(n) if i in pa] == sorted(a)
        for pb, b in built:
            assert_plane_set_is(pa.union(pb), a | b)
            assert_plane_set_is(pa.intersection(pb), a & b)
            assert_plane_set_is(pa.difference(pb), a - b)
            assert pa.issubset(pb) == (a <= b)
            assert (pa == pb) == (a == b)


def test_plane_set_ops_match_frozensets_on_every_pair_at_2_3_1():
    gr = Space.get(2, 3).grassmannian(1)
    sets = [frozenset(i for i in range(7) if code >> i & 1) for code in range(128)]
    assert_plane_set_ops_match_frozensets(gr, sets)      # 16,384 pairs


def test_plane_set_ops_match_frozensets_on_seeded_sets_at_2_5_2():
    gr = Space.get(2, 5).grassmannian(2)
    rng = random.Random("planeset:2:5:2")
    sizes = [0, 1, 2, 154, 155] + [rng.randint(3, 153) for _ in range(35)]
    sets = [frozenset(rng.sample(range(len(gr)), size)) for size in sizes]
    assert_plane_set_ops_match_frozensets(gr, sets)


def test_equal_plane_sets_built_differently_hash_alike():
    gr = Space.get(2, 5).grassmannian(2)
    rng = random.Random("planeset-hash")
    for _ in range(50):
        members = rng.sample(range(len(gr)), rng.randint(0, 40))
        ps = PlaneSet(gr, members)
        others = [
            PlaneSet(gr, reversed(members)),
            PlaneSet(gr, members + members[: len(members) // 2]),
            PlaneSet(gr, iter(set(members))),
            ps.complement().complement(),
            PlaneSet(gr, ()).union(ps),
            PlaneSet(gr, range(len(gr))).intersection(ps),
            PlaneSet(gr, range(len(gr))).difference(ps.complement()),
            PlaneSet(gr, ps.indices + (0,)).without_index(0).union(ps),
            PlaneSet(Space.get(2, 5).grassmannian(2), members),
        ]
        for other in others:
            assert other == ps and hash(other) == hash(ps)


def test_plane_set_index_errors_unchanged():
    gr = Space.get(2, 4).grassmannian(2)
    n = len(gr)
    for bad in ([-1], [n], [0, n], [-5, 3], [3, n + 100], [-(1 << 70)], [1 << 70]):
        with pytest.raises(ValueError, match="plane index out of range"):
            PlaneSet(gr, bad)
    ps = PlaneSet(gr, [1, 2])
    for bad in (-1, n):
        with pytest.raises(ValueError, match="plane index out of range"):
            ps.with_index(bad)
    other = PlaneSet(Space.get(2, 4).grassmannian(1), [1])
    with pytest.raises(ValueError, match="different Grassmannians"):
        ps.union(other)


def guard_sets(q, n, k, rng):
    """A coordinate-plane set of size C(n, k), supersets of it one to three
    planes larger, and random sets above C(n, k)."""
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    nk = comb(n, k)
    sets = []
    for _ in range(4):
        lines = [Subspace.span(space.field, n, [r]) for r in random_invertible(space.field, n, rng).rows]
        planes = CoordinateSystem(space, lines).coordinate_planes(k)
        sets.append(planes)
        outside = planes.complement().indices
        for extra in (1, 2, 3):
            sets.append(planes.union(PlaneSet(gk, rng.sample(outside, extra))))
    for _ in range(8):
        sets.append(PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(nk + 1, min(len(gk), 3 * nk)))))
    return space, sets


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 4, 1)])
def test_size_guard_matches_unguarded_covering_search(q, n, k):
    space, sets = guard_sets(q, n, k, random.Random(f"guard:{q}:{n}:{k}"))
    for ps in sets:
        got = list(_covering_system_indices(space, ps))
        assert got == list(unguarded_covering_system_indices(space, ps))
        assert bool(got) == (len(ps) <= comb(n, k))     # the coordinate-plane sets are regular


def test_size_guard_runs_no_echelon_work(monkeypatch):
    calls = []
    add = EchelonBasis.add

    def counted(self, v):
        calls.append(v)
        return add(self, v)

    monkeypatch.setattr(EchelonBasis, "add", counted)
    for q, n, k in [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 4, 1)]:
        space, sets = guard_sets(q, n, k, random.Random(f"guard-work:{q}:{n}:{k}"))
        for ps in sets:
            calls.clear()
            found = associated_systems(ps)
            if len(ps) > comb(n, k):
                assert found == [] and calls == []
            else:
                assert found and calls      # the counter sees a search that runs
