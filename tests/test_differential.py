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
unguarded search; the one descent of a table to the line Grassmannian is
compared with the star-by-star walk and, at k = n-1, with the conjugation
through a dot-form map that it replaced; and the axis views of
`hypergraph_view` read off point masks with one `Subspace.contains` per
member and line; and the k = 2 search on the viable lines with the same
search over every line; and the result records, built on one slotted base,
with frozen dataclasses of the same fields; and the descent, which checks
only the line table, with the descent that also mapped the plane table
again by `induced_map` and compared it with the input, and wherever it
classifies, the plane table lifted from its line table with the input; and
the similarity search's matrix enumerators, which carry
spans as point masks, with echelon-basis enumerators; and `profile`, which
reads point masks after one covering search, with the version that searched
twice and met the members; and rank-based containment and basis extension
with echelon bases; and `induces`, the independence scan and the star test,
which find image sets by their point masks, with frozenset lookups; and
`ftpg_reconstruct`, which scans independence only after a failed rebuild,
with the scan-first order; and the viable lines, pooled from the set's
points and tested against the hyperplanes through each line, with the pool
of every line tested against every hyperplane; and the line table built by
one vector addition per line along `Space._line_recurrence` with one vector
mapped per line, and the rebuild that reads its scales and automorphism by
line lookups with the 2-column matrix solves it replaced; and the maximal
adjacent families, found by Bron-Kerbosch on adjacency masks and told apart
by mask lookups, with set-based Bron-Kerbosch over the rows of
`distance_matrix` and the meet/join classification; and the hyperbolic basis
split off inside rref rows with the recursion through `Subspace.vectors`,
`orth_complement` and `meet`; and the untwisted `is_symplectic`, read off the
Gram, and `evaluate` with the line scan and the per-entry automorphism
calls; and the independence scan by mask sums over a plain inverse list
with the two `_row_planes` scans through `GrassmannMap.inverse`; and the
greedy completion, maximality and restricted status, which set the search
up once per set, with the search set up anew for every outside plane; and
`_rref_rows`, which eliminates by field tables, with one `field.sub` call
per entry.  The replaced implementations are kept here as reference
oracles.
"""

import copy
import dataclasses
import functools
import importlib.util
import pickle
import random
import sys
from bisect import bisect_left
from types import SimpleNamespace
from itertools import combinations, islice, permutations, product, zip_longest
from math import comb, factorial, prod
from pathlib import Path

import pytest

from qgrass.forms import (
    BilinearForm,
    FormPredicates,
    ReflexiveClass,
    SymplecticBasis,
    _line_reps,
    _symplectic_map,
    dot_form,
    form_map,
    is_symplectic,
    orth_complement,
    standard_symplectic,
    symplectic_basis,
)
from qgrass.gf import SUPPORTED_ORDERS, field as gf_field
from qgrass.grassmann import (
    GrassmannMap,
    PlaneSet,
    Space,
    Subspace,
    _Record,
    _extension_rows,
    distance,
    gaussian_binomial,
    incidence_set,
    join,
    maximal_adjacent_families,
    meet,
)
from qgrass.harness import (
    CheckResult,
    _regular_subset_sweep,
    random_alternating_gram,
    random_invertible,
    random_semilinear,
)
from qgrass.irregularity import (
    Characteristics,
    DeficientConstruction,
    DeficientDualConstruction,
    Similarity,
    _fingerprint,
    _invertible_matrices,
    _join_masks,
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
    restricted_status,
)
from qgrass.linalg import EchelonBasis, Mat, _rref_rows
from qgrass.maps import SemilinearMap, _row_planes, induced_map, induces
from qgrass.reconstruction import (
    AutomorphismMismatchError,
    ClassificationResult,
    NotDistancePreservingError,
    NotIndependencePreservingError,
    NotRegularTransformationError,
    _line_descent,
    chow_classify,
    distance_violation,
    ftpg_reconstruct,
    independence_violation,
    is_distance_preserving,
    is_regular_transformation,
    regular_classify,
    regular_violation,
)
from qgrass import harness, irregularity, reconstruction, regularity
from qgrass.regularity import (
    AxisProfile,
    AxisRecord,
    CoordinateSystem,
    NotRegularError,
    _systems_within,
    all_coordinate_systems,
    associated_systems,
    degree,
    exactness_threshold,
    hypergraph_view,
    is_exact,
    is_maximal_regular,
    maximal_regular_family,
    profile,
)

# ---------------------------------------------------------------------------
# reference oracles


@functools.lru_cache(maxsize=None)
def plane_of_incidence(space, k, m):
    """Reverse of `incidence(k, m)`: each row's frozenset to its G_m index,
    the lookup that `induces`, the independence scan and the star test made
    before they read point masks."""
    return {frozenset(r): i for i, r in enumerate(space.incidence(k, m))}


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


def star_image_map(space, f, j):
    """Classify the images of the stars of G_j and build the induced map.

    Returns ("star", map on G_{j-1}) when every star maps to a star, or
    ("top", None) when every star maps to a top; a mixture violates the
    star-image dichotomy and raises.
    """
    gj1 = space.grassmannian(j - 1)
    star_of = plane_of_incidence(space, j, j - 1)
    top_of = plane_of_incidence(space, j, j + 1)
    kind = None
    table = []
    for row in space.incidence(j, j - 1):
        img = frozenset(f.table[i] for i in row)
        if img in star_of:
            this = "star"
            table.append(star_of[img])
        elif img in top_of:
            this = "top"
        else:
            raise RuntimeError("star image is neither a star nor a top")
        if kind not in (None, this):
            raise RuntimeError("star images are of mixed kinds")
        kind = this
    return ("top", None) if kind == "top" else ("star", GrassmannMap(gj1, gj1, table))


def star_walk_reconstruct(space, f):
    """The middle-dimension reconstruction that walked the table down one
    dimension at a time through its star images, composing with the standard
    symplectic form map first when the stars of G_k map to tops."""
    k = f.domain.k
    n = space.n
    work = f
    form = None
    post = None
    kind, down = star_image_map(space, work, k)
    if kind == "top":
        if n != 2 * k:
            raise RuntimeError("top-valued star images can only occur when n = 2k")
        form = standard_symplectic(space.field, n)
        post = form_map(space, form, k)
        work = post.compose(f)
        kind, down = star_image_map(space, work, k)
        if kind != "star":
            raise RuntimeError("form composition did not straighten the star images")
    level = k - 1
    cur = down
    while level > 1:
        kind, cur = star_image_map(space, cur, level)
        if kind != "star":
            raise RuntimeError("descent left the star-to-star regime")
        level -= 1
    h = ftpg_reconstruct(space, cur)
    candidate = induced_map(space, h, k)
    if post is not None:
        candidate = post.inverse().compose(candidate)
    if candidate != f:
        bad = next(i for i in range(len(f.table)) if f.table[i] != candidate.table[i])
        return ClassificationResult("not_classifiable", witness=(f.domain[bad],))
    kind_out = "linear" if form is None else "form_composed"
    return ClassificationResult(kind_out, map=h, form=form, verified=True)


def distance_first_classify(space, f):
    """The middle-dimension classifier that scanned every pair of planes
    before it reconstructed star by star."""
    witness = pair_distance_violation(space, f)
    if witness is not None:
        raise NotDistancePreservingError(witness)
    return star_walk_reconstruct(space, f)


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
    return _systems_within(space, 1)


def unpruned_systems_within(space, k, ok):
    """`_systems_within` with every line a candidate: the unforced search as
    it ran before `_viable_lines` pruned its lines at k = 2."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularity, "_viable_lines", lambda space, ok: -1)
        return _systems_within(space, k, ok)


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


def per_plane_search(space, k, ok):
    """The inside-set search set up anew for every plane: one
    `_systems_within(space, k, ok, l)` per outside plane, as the greedy
    completion ran before it set the search up once per set."""
    return lambda forced=None, members=(): _systems_within(space, k, ok, forced, members)


def field_sub_rref_rows(field, rows, ncols):
    """`_rref_rows` with one `field.sub` call per eliminated entry."""
    R = [list(r) for r in rows]
    m = len(R)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if R[i][c]), -1)
        if pr < 0:
            continue
        R[r], R[pr] = R[pr], R[r]
        if R[r][c] != 1:
            mul = field._mul[field.inv(R[r][c])]
            R[r] = [mul[x] for x in R[r]]
        row = R[r]
        for i in range(m):
            if i != r and R[i][c]:
                mulf = field._mul[R[i][c]]
                for j in range(c, ncols):
                    if row[j]:
                        R[i][j] = field.sub(R[i][j], mulf[row[j]])
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, r, tuple(pivots)


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


def echelon_extension_rows(base, target):
    """The rows of target that an echelon basis seeded with base's rows
    accepts, in order."""
    eb = EchelonBasis(target.field, base.rows)
    return [r for r in target.rows if eb.add(r)]


def echelon_contains(s, other):
    if other.k > s.k:
        return False
    eb = EchelonBasis(s.field, s.rows)
    return all(not any(eb.reduce(r)) for r in other.rows)


def echelon_contains_vector(s, v):
    return not any(EchelonBasis(s.field, s.rows).reduce(v))


def span_maps(field, n, src, dst):
    """SemilinearMap of every invertible matrix carrying src onto dst."""
    ext = echelon_extension_rows(src, Subspace(field, n, Mat.identity(field, n).rows))
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
    plane_of = plane_of_incidence(space, k, m)
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


def frozenset_induces(space, f, m):
    """`induces` looking each image set up as a frozenset of G_k indices."""
    k = f.domain.k
    gm = space.grassmannian(m)
    if k in (0, space.n):
        return None
    plane_of = plane_of_incidence(space, k, m)
    forward = []
    for row in space.incidence(k, m):
        s = plane_of.get(frozenset(f.table[i] for i in row))
        if s is None:
            return None
        forward.append(s)
    return GrassmannMap(gm, gm, forward)


def frozenset_independence_violation(space, f):
    """`independence_violation` looking each image line set up as a
    frozenset."""
    n = space.n
    if n < 3:
        raise ValueError("independence preservation needs dimension >= 3")
    if f.domain.k != 1 or f.codomain.k != 1:
        raise ValueError("expected a transformation of the line Grassmannian")
    hyperplane_of = plane_of_incidence(space, 1, n - 1)
    inv = f.inverse().table
    for hi, row in enumerate(space.incidence(1, n - 1)):
        for t in (f.table, inv):
            if frozenset(t[i] for i in row) not in hyperplane_of:
                return space.grassmannian(n - 1)[hi]
    return None


def scan_first_reconstruct(space, f):
    """`ftpg_reconstruct` in its earlier order: the frozenset independence
    scan first, then the rebuild."""
    witness = frozenset_independence_violation(space, f)
    if witness is not None:
        raise NotIndependencePreservingError(witness)
    return reconstruction._rebuild(space, f)


def vector_line_table(space, f):
    """The line table of a semilinear map with one vector mapped per line:
    the image of each line's rref row, looked up in `vector_lines`."""
    g1 = space.grassmannian(1)
    line_of = space.vector_lines()
    return GrassmannMap(g1, g1, (line_of[f.apply_vector(line.rows[0])] for line in g1))


def solve_rebuild(space, f):
    """`reconstruction._rebuild` reading each scale and automorphism value
    off a 2-column matrix solve, and checked against `vector_line_table`."""

    def line_rep(v):
        return space.grassmannian(1)[f.table[space.vector_lines()[v]]].rows[0]

    n = space.n
    field = space.field
    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    y_prime = [line_rep(e) for e in unit]
    ys = [y_prime[0]]
    for i in range(1, n):
        mixed = line_rep(tuple(field.add(a, b) for a, b in zip(unit[0], unit[i])))
        coords = Mat(field, (y_prime[0], y_prime[i])).transpose().solve(mixed)
        if coords is None or coords[0] == 0 or coords[1] == 0:
            raise AutomorphismMismatchError("image line escapes its coordinate plane")
        scale = field.div(coords[1], coords[0])
        ys.append(tuple(field.mul(scale, x) for x in y_prime[i]))

    sigma_table = [0] * field.q
    base = Mat(field, (ys[0], ys[1])).transpose()
    for a in range(1, field.q):
        v = tuple(field.add(x, field.mul(a, y)) for x, y in zip(unit[0], unit[1]))
        coords = base.solve(line_rep(v))
        if coords is None or coords[0] == 0:
            raise AutomorphismMismatchError("image line escapes its coordinate plane")
        sigma_table[a] = field.div(coords[1], coords[0])
    sigma = None
    for candidate in field.automorphisms():
        if all(candidate(a) == sigma_table[a] for a in range(field.q)):
            sigma = candidate
            break
    if sigma is None:
        raise AutomorphismMismatchError("recovered action is not a field automorphism")

    result = SemilinearMap(field, Mat(field, tuple(zip(*ys))), sigma)
    if vector_line_table(space, result) != f:
        raise AutomorphismMismatchError("reconstructed map does not reproduce the table")
    return result


def full_pool_viable_lines(space, ok):
    """`_viable_lines` starting from every line and testing each line's joins
    against every hyperplane."""
    n = space.n
    hyperplanes = space.point_masks(n - 1)
    pool = (1 << len(ok)) - 1
    changed = True
    while changed:
        changed = False
        rest = pool
        while rest:
            low = rest & -rest
            rest ^= low
            joins = ok[low.bit_length() - 1] & pool
            if joins.bit_count() < n or any(joins & ~h == 0 for h in hyperplanes):
                pool ^= low
                changed = True
    return pool


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
    """A PlaneSet agrees with the frozenset of its members in every view, as
    does the set `_from_mask` builds from the members' mask."""
    mask = sum(1 << i for i in members)
    for view in (ps, PlaneSet._from_mask(ps.gr, mask)):
        assert view.indices == tuple(sorted(members))
        assert list(view) == sorted(members) and len(view) == len(members)
        assert view.iset == members
        assert view.mask == mask
        assert repr(view) == f"PlaneSet({ps.gr!r}, {len(members)} members)"
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


def linear_tables(space, k, count=None, rng=None):
    """Every transformation table of G_k induced by an invertible matrix, or
    the tables of `count` matrices drawn by `rng`."""
    g1 = space.grassmannian(1)
    line_of = {v: i for i, line in enumerate(g1) for v in line.vectors() if any(v)}
    planes = space.grassmannian(k)
    matrices = _invertible_matrices(space.field, space.n)
    if count is not None:
        matrices = rng.sample(list(matrices), count)
    return sorted(
        {
            tuple(space.line_join_index([line_of[m.apply(r)] for r in s.rows], k) for s in planes)
            for m in matrices
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
# the (3,4,1) and (4,3,1) line spaces are those of `transform-classify`, and
# the hyperplane tables at q > 2 pin the scalar of the reconstructed matrix
@pytest.mark.parametrize(
    "q,n,k,sample",
    [
        (2, 3, 1, None), (2, 3, 2, None), (3, 3, 1, None), (2, 4, 1, 300), (2, 4, 2, 300), (2, 4, 3, 300),
        (3, 4, 1, 30), (4, 3, 1, 300), (3, 3, 2, 60), (4, 3, 2, 60), (3, 4, 3, 20),
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


# per space a few sampled tables (every second one composed with a form map
# at n = 2k), each with seeded transpositions and 3-cycles
@pytest.mark.parametrize(
    "q,n,k,count,corruptions",
    [(2, 4, 2, 6, 40), (2, 5, 2, 2, 40), (3, 4, 2, 2, 40), (2, 5, 3, 2, 40), (2, 6, 3, 2, 8)],
)
def test_line_descent_matches_star_walk(q, n, k, count, corruptions):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"descent:{q}:{n}:{k}")
    kinds = set()
    for table in sampled_tables(space, k, count, rng):
        f = GrassmannMap(gk, gk, table)
        got = outcome(_line_descent, space, f)
        assert got == outcome(star_walk_reconstruct, space, f)
        assert got[3] is True
        kinds.add(got[0])
        for length in (2, 3):
            for _ in range(corruptions):
                bad = GrassmannMap(gk, gk, transposed(table, rng, length))
                for reconstruct in (_line_descent, star_walk_reconstruct):
                    assert outcome(reconstruct, space, bad)[3:4] != (True,)
    assert kinds == ({"linear", "form_composed"} if n == 2 * k else {"linear"})


def induced_lift_descent(space, f):
    """The descent at 1 < k as it was before it checked only the line table:
    the symplectic form map is built again for each form-composed table and
    inverted, and the candidate is mapped again from the reconstructed
    matrix by `induced_map` and compared with the input."""
    k, n = f.domain.k, space.n
    form = post = None
    work = f
    if n == 2 * k:
        star = frozenset(f.table[i] for i in space.incidence(k, 1)[0])
        if star in plane_of_incidence(space, k, n - 1):
            form = standard_symplectic(space.field, n)
            post = form_map(space, form, k)
            work = post.compose(f)
    lines = induces(space, work, 1)
    if lines is None:
        raise RuntimeError("the table induces no transformation of the lines")
    h = ftpg_reconstruct(space, lines)
    if k == n - 1:
        h = h.scaled(next(x for x in h.matrix.inv().rows[0] if x))
    candidate = induced_map(space, h, k)
    if post is not None:
        candidate = post.inverse().compose(candidate)
    if candidate != f:
        bad = next(i for i in range(len(f.table)) if f.table[i] != candidate.table[i])
        return ClassificationResult("not_classifiable", witness=(f.domain[bad],))
    kind = "linear" if form is None else "form_composed"
    return ClassificationResult(kind, map=h, form=form, verified=True)


def result_or_error(classify, space, f):
    """The whole result of a classification, or the type, message and
    witness of the error it raised."""
    try:
        return classify(space, f)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def line_table_lift(space, f, kind):
    """The table of G_k lifted from the line table of f, read as the
    descent reads it: through the symplectic form map for a form-composed
    result."""
    post = _symplectic_map(space) if kind == "form_composed" else None
    work = f if post is None else post.compose(f)
    lift = induces(space, induces(space, work, 1), f.domain.k)
    return lift if post is None else post.compose(lift)


def lift_tables(space, k, count, corruptions, rng):
    """`count` sampled tables, each followed by `corruptions` seeded
    transpositions of it; on G_2(F_2^4) and G_3(F_2^4) also seeded linear
    tables (on G_2 also each composed with the symplectic form map), and on
    G_2(F_2^4) every single transposition of the first table."""
    tables = []
    for table in sampled_tables(space, k, count, rng):
        tables += [table] + [transposed(table, rng) for _ in range(corruptions)]
    if (space.field.q, space.n) == (2, 4):
        post = _symplectic_map(space).table
        for table in linear_tables(space, k, 200, rng):
            tables += [table, [post[i] for i in table]] if k == 2 else [table]
    if (space.field.q, space.n, k) == (2, 4, 2):
        first = tables[0]
        for a, b in combinations(range(len(first)), 2):
            t = list(first)
            t[a], t[b] = t[b], t[a]
            tables.append(t)
    return tables


# per space a few sampled tables (every second one composed with a form map
# at n = 2k), each with seeded transpositions, and at n = 4 the tables of
# `lift_tables`; wherever the descent returns, the plane table lifted from
# the line table equals the input, so the descent needs no lift of its own
@pytest.mark.parametrize(
    "q,n,k,count,corruptions",
    [
        (2, 4, 2, 6, 20), (3, 4, 2, 4, 10), (2, 5, 2, 4, 10), (2, 5, 3, 4, 10),
        (2, 4, 3, 6, 20), (3, 4, 3, 4, 10), (2, 6, 3, 2, 4), (4, 3, 2, 6, 20),
    ],
)
def test_line_table_lift_matches_induced_map_lift(q, n, k, count, corruptions):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"lift:{q}:{n}:{k}")
    kinds = set()
    for t in lift_tables(space, k, count, corruptions, rng):
        f = GrassmannMap(gk, gk, t)
        got = result_or_error(_line_descent, space, f)
        assert got == result_or_error(induced_lift_descent, space, f)
        if isinstance(got, ClassificationResult):
            assert line_table_lift(space, f, got.kind) == f
        kinds.add(got.kind if isinstance(got, ClassificationResult) else got[0])
    assert {"linear", "form_composed"} & kinds == ({"linear", "form_composed"} if n == 2 * k else {"linear"})
    # every transposed table is refused one way or another
    assert len(kinds) > (2 if n == 2 * k else 1)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 4), (4, 4), (2, 6)])
def test_cached_symplectic_map_is_the_form_map_and_an_involution(q, n):
    space = Space.get(q, n)
    fm = _symplectic_map(space)
    assert fm == form_map(space, standard_symplectic(space.field, n), n // 2)
    assert fm.compose(fm).is_identity()
    assert fm.inverse() == fm
    assert _symplectic_map(space) is fm


def test_space_keeps_one_symplectic_map_across_classifications_and_similarity():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    fm = _symplectic_map(space)
    builds = _symplectic_map.cache_info().misses
    rng = random.Random("one-form-map")
    kinds = set()
    for table in sampled_tables(space, 2, 20, rng):
        f = GrassmannMap(g2, g2, table)
        kinds.add(chow_classify(space, f).kind)
        kinds.add(regular_classify(space, f).kind)
        left = PlaneSet(g2, rng.sample(range(len(g2)), 3))
        assert are_similar(left, f.apply_set(left)).kind == "yes"
    assert kinds == {"linear", "form_composed"}
    assert _symplectic_map(space) is fm
    assert _symplectic_map.cache_info().misses == builds


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


# per space 5 sampled tables (every second one composed with a form map at
# n = 2k), each with 8 seeded transpositions and one shuffle of its entries;
# the tables themselves are left out, since on a regular table the walk
# visits every system (83,328 at (2,5,2)), where the classifiers never call it
@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 5, 3)])
def test_middle_walk_matches_family_scan(q, n, k):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"middle-walk:{q}:{n}:{k}")
    for table in sampled_tables(space, k, 5, rng):
        for t in [transposed(table, rng) for _ in range(8)] + [rng.sample(table, len(table))]:
            f = GrassmannMap(gk, gk, t)
            witness = regular_violation(space, f)
            assert witness is not None and witness == family_violation(space, f)


def distance_fingerprint(plane_set):
    """The sorted pairwise distances of the members, read off the whole
    `distance_matrix`."""
    d = plane_set.gr.space.distance_matrix(plane_set.gr.k)
    return sorted(d[a][b] for a, b in combinations(plane_set.indices, 2))


# seeded pairs of 2-6 planes: random ones, and a set against its image under
# a seeded semilinear map with, every second time, one member replaced
@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2)])
def test_mask_fingerprint_matches_distance_fingerprint(q, n, k):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"fingerprint:{q}:{n}:{k}")
    same = 0
    for i in range(300):
        left = PlaneSet(gk, rng.sample(range(len(gk)), rng.randrange(2, 7)))
        if i % 3 == 0:
            right = PlaneSet(gk, rng.sample(range(len(gk)), len(left)))
        else:
            image = induced_map(space, random_semilinear(space, rng), k).apply_set(left).indices
            if i % 2:
                image = image[1:] + (rng.choice([j for j in range(len(gk)) if j not in image]),)
            right = PlaneSet(gk, image)
        agree = _fingerprint(left) == _fingerprint(right)
        assert agree == (distance_fingerprint(left) == distance_fingerprint(right))
        same += agree
    assert 0 < same < 300


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
    space = Space.get(3, 3)
    for ks, i, j in ((1, 0, 11), (2, 4, 9)):
        src, dst = space.grassmannian(ks)[i], space.grassmannian(ks)[j]
        got = [m.rows for m in _matrices_mapping(space.field, 3, src, dst)]
        assert got == [h.matrix.rows for h in span_maps(space.field, 3, src, dst)]
    # a prefix of the 64,512 matrices carrying one 3-space of F_2^5 onto another
    space = Space.get(2, 5)
    src, dst = space.grassmannian(3)[5], space.grassmannian(3)[100]
    got = [m.rows for m in islice(_matrices_mapping(space.field, 5, src, dst), 5000)]
    assert len(got) == 5000
    assert got == [h.matrix.rows for h in islice(span_maps(space.field, 5, src, dst), 5000)]


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


def test_similarity_answers_linear_when_the_first_fit_fits_both_targets():
    # every plane of (2,4,2) is in the right set and in its form pre-image
    everything = PlaneSet(Space.get(2, 4).grassmannian(2), range(35))
    sim = are_similar(everything, everything)
    assert (sim.kind, sim.reason) == ("yes", "linear witness")
    first = next(_invertible_matrices(everything.gr.field, 4))
    assert sim.witness == induced_map(everything.gr.space, SemilinearMap(everything.gr.field, first), 2)
    assert similarity(sim) == similarity(matrix_loop_similar(everything, everything))


def test_similarity_answers_form_composed_when_only_the_form_target_fits():
    # no matrix maps the planes through a line onto the planes in a
    # hyperplane; the symplectic form map does
    space = Space.get(2, 4)
    star = incidence_set(space, space.grassmannian(1)[0], 2)
    top = incidence_set(space, space.grassmannian(3)[0], 2)
    sim = are_similar(star, top)
    assert (sim.kind, sim.reason) == ("yes", "form-composed witness")
    assert sim.witness.apply_set(star) == top
    assert similarity(sim) == similarity(matrix_loop_similar(star, top))


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


def restriction_carriers(space, k, rng):
    """Two seeded subspaces of each dimension from 1 to n-1 but k."""
    return [
        space.grassmannian(m)[rng.randrange(len(space.grassmannian(m)))]
        for m in range(1, space.n) if m != k for _ in range(2)
    ]


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 5, 3), (2, 4, 3)])
def test_search_set_up_once_per_set_matches_per_plane_search(monkeypatch, q, n, k):
    # the sets of test_completion_matches_echelon_search; the completed sets
    # make is_maximal_irregular answer both ways
    space = Space.get(q, n)
    rng = random.Random(f"completion:{q}:{n}:{k}")
    sets = irregular_sets(space, k, rng)
    carriers = restriction_carriers(space, k, rng)
    sets += [complete_to_maximal_irregular(ps) for ps in sets]

    def decide(ps):
        return (
            complete_to_maximal_irregular(ps),
            is_maximal_irregular(ps),
            [restricted_status(ps, t) for t in carriers],
        )

    got = [decide(ps) for ps in sets]
    monkeypatch.setattr(irregularity, "_system_search", per_plane_search)
    assert got == [decide(ps) for ps in sets]
    half = len(sets) // 2
    for ps, (completed, maximal, _) in zip(sets[:half], got):
        assert completed == echelon_complete(ps)
        assert maximal == (completed == ps)
    assert {maximal for _, maximal, _ in got} == {False, True}
    assert len({status for *_, statuses in got for status in statuses}) >= 2


def test_maximality_completion_and_status_set_up_one_inside_search(monkeypatch):
    # the search on the set's join masks is set up once per call, however many
    # outside planes it is run for; covering searches (no join masks) aside
    setups = []
    set_up = regularity._system_search

    def counted(space, k, ok=None):
        if ok is not None:
            setups.append(k)
        return set_up(space, k, ok)

    monkeypatch.setattr(regularity, "_system_search", counted)
    monkeypatch.setattr(irregularity, "_system_search", counted)
    space = Space.get(2, 5)
    rng = random.Random("one-set-up")
    carriers = restriction_carriers(space, 2, rng)
    for ps in irregular_sets(space, 2, rng):
        for decide in (is_maximal_irregular, complete_to_maximal_irregular):
            setups.clear()
            decide(ps)
            assert len(setups) == 1
        for t in carriers:
            setups.clear()
            restricted_status(ps, t)
            assert len(setups) == 1


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_rref_rows_match_field_sub_elimination(q):
    f = gf_field(q)
    rng = random.Random(f"rref-rows:{q}")
    ranks = set()
    for _ in range(80):
        m, ncols = rng.randint(0, 6), rng.randint(1, 7)
        density = rng.choice((0.3, 0.7, 1.0))
        rows = [[rng.randrange(q) if rng.random() < density else 0 for _ in range(ncols)] for _ in range(m)]
        if m >= 2 and rng.random() < 0.5:
            # a dependent row: a combination of two others
            a, b, c = rng.randrange(q), rng.randrange(q), rng.sample(range(m), 2)
            rows.append([f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(rows[c[0]], rows[c[1]])])
        before = [list(r) for r in rows]
        got = _rref_rows(f, rows, ncols)
        assert got == field_sub_rref_rows(f, rows, ncols)
        assert rows == before
        ranks.add((got[1], len(rows)))
    assert any(rank < m for rank, m in ranks) and any(0 < rank == m for rank, m in ranks)


@pytest.mark.parametrize("q,n,k", [(2, 5, 1), (2, 5, 4), (3, 3, 1), (2, 5, 3)])
def test_completion_witness_matches_echelon_search_at_every_dimension(q, n, k):
    # the forced search's k = 1 branch and, from k = 3 on, its independent bases
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"forced:{q}:{n}:{k}")
    outside = witnesses = 0
    for size in (n - 1, n, 2 * n, len(gk) // 2, len(gk) - n):
        ps = PlaneSet(gk, rng.sample(range(len(gk)), size))
        for l in ps.complement().indices:
            want = next(echelon_systems_within(space, k, ps.iset, forced=l), None)
            assert line_indices(completion_witness(ps, l)) == want
            outside += 1
            witnesses += want is not None
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


def reconstruction_outcome(reconstruct, space, f):
    """The rebuilt map, or the type, message and witness of the error."""
    try:
        return reconstruct(space, f)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)


def line_tables(space, count, rng):
    """Seeded induced line tables, each followed by eight transposed copies
    and one shuffled copy."""
    g1 = space.grassmannian(1)
    for table in sampled_tables(space, 1, count, rng):
        yield GrassmannMap(g1, g1, table)
        for _ in range(8):
            yield GrassmannMap(g1, g1, transposed(table, rng))
        shuffled = list(table)
        rng.shuffle(shuffled)
        yield GrassmannMap(g1, g1, shuffled)


def every_line_permutation_at_2_3():
    g1 = Space.get(2, 3).grassmannian(1)
    return [GrassmannMap(g1, g1, p) for p in permutations(range(len(g1)))]


def test_mask_independence_scan_matches_frozenset_scan_on_every_permutation_at_2_3():
    space = Space.get(2, 3)
    witnesses = [independence_violation(space, f) for f in every_line_permutation_at_2_3()]
    assert witnesses == [frozenset_independence_violation(space, f) for f in every_line_permutation_at_2_3()]
    # the 168 collineations of the Fano plane preserve independence
    assert witnesses.count(None) == 168


@pytest.mark.parametrize("q,n", TABLE_SPACES)
def test_mask_independence_scan_matches_frozenset_scan_on_seeded_tables(q, n):
    space = Space.get(q, n)
    found = 0
    for f in line_tables(space, 3, random.Random(f"independence:{q}:{n}")):
        witness = independence_violation(space, f)
        assert witness == frozenset_independence_violation(space, f)
        found += witness is not None
    assert found


def test_rebuild_first_reconstruction_matches_scan_first_on_every_permutation_at_2_3():
    space = Space.get(2, 3)
    kinds = set()
    for f in every_line_permutation_at_2_3():
        got = reconstruction_outcome(ftpg_reconstruct, space, f)
        assert got == reconstruction_outcome(scan_first_reconstruct, space, f)
        kinds.add(got[0] if isinstance(got, tuple) else SemilinearMap)
    assert kinds == {SemilinearMap, NotIndependencePreservingError}


@pytest.mark.parametrize("q,n", TABLE_SPACES)
def test_rebuild_first_reconstruction_matches_scan_first_on_seeded_tables(q, n):
    space = Space.get(q, n)
    kinds = set()
    for f in line_tables(space, 3, random.Random(f"rebuild-first:{q}:{n}")):
        got = reconstruction_outcome(ftpg_reconstruct, space, f)
        assert got == reconstruction_outcome(scan_first_reconstruct, space, f)
        kinds.add(got[0] if isinstance(got, tuple) else SemilinearMap)
    assert kinds == {SemilinearMap, NotIndependencePreservingError}


def test_rebuild_error_stands_when_the_scan_names_no_hyperplane(monkeypatch):
    # by the fundamental theorem no table reaches this branch; a scan that
    # finds nothing lets the rebuild's own error through
    space = Space.get(2, 4)
    g1 = space.grassmannian(1)
    bad = GrassmannMap(g1, g1, transposed(range(len(g1)), random.Random("rebuild-error")))
    monkeypatch.setattr(reconstruction, "independence_violation", lambda space, f: None)
    got = reconstruction_outcome(ftpg_reconstruct, space, bad)
    assert got == reconstruction_outcome(reconstruction._rebuild, space, bad)
    assert got[0] is AutomorphismMismatchError


def test_ftpg_reconstruct_checks_arguments_before_any_rebuild(monkeypatch):
    def no_rebuild(space, f):
        raise AssertionError("rebuild reached")

    monkeypatch.setattr(reconstruction, "_rebuild", no_rebuild)
    plane = Space.get(2, 2)
    space = Space.get(2, 4)
    cases = [
        (plane, GrassmannMap.identity(plane.grassmannian(1)), "dimension >= 3"),
        (space, GrassmannMap.identity(space.grassmannian(2)), "line Grassmannian"),
    ]
    for sp, f, message in cases:
        got = reconstruction_outcome(ftpg_reconstruct, sp, f)
        assert got == reconstruction_outcome(scan_first_reconstruct, sp, f)
        assert got[0] is ValueError and message in got[1]


@pytest.mark.parametrize("q,n", TABLE_SPACES + [(8, 3), (9, 3), (16, 3)])
def test_line_recurrence_table_matches_one_vector_per_line(q, n):
    space = Space.get(q, n)
    rng = random.Random(f"line-recurrence:{q}:{n}")
    for j in range(space.field.m):
        for _ in range(3):
            f = SemilinearMap(space.field, random_invertible(space.field, n, rng), space.field.frobenius(j))
            assert induced_map(space, f, 1) == vector_line_table(space, f)


@pytest.mark.parametrize(
    "q,n", [(q, 3) for q in SUPPORTED_ORDERS] + [(q, n) for q in (2, 3, 4) for n in (1, 2, 4, 5)]
)
def test_line_recurrence_steps_from_an_earlier_line(q, n):
    space = Space.get(q, n)
    g1 = space.grassmannian(1)
    steps = space._line_recurrence()
    assert len(steps) == len(g1)
    for i, (parent, j, a) in enumerate(steps):
        row = g1[i].rows[0]
        base = g1[parent].rows[0] if parent >= 0 else (0,) * n
        assert parent < i and a and not any(row[j + 1:]) and not base[j]
        assert tuple(space.field.add(x, a if c == j else 0) for c, x in enumerate(base)) == row
    assert sum(parent < 0 for parent, _, _ in steps) == n


def rebuild_kinds(space, tables):
    """Assert that the lookup rebuild and the solve rebuild agree on every
    table; the set of result kinds and error messages met."""
    kinds = set()
    for f in tables:
        got = reconstruction_outcome(reconstruction._rebuild, space, f)
        assert got == reconstruction_outcome(solve_rebuild, space, f)
        kinds.add(got[1] if isinstance(got, tuple) else "map")
    return kinds


REBUILD_ERRORS = {
    "image line escapes its coordinate plane",
    "recovered action is not a field automorphism",
    "reconstructed map does not reproduce the table",
}


def test_lookup_rebuild_matches_solve_rebuild_on_every_permutation_at_2_3():
    space = Space.get(2, 3)
    kinds = rebuild_kinds(space, every_line_permutation_at_2_3())
    # GF(2) has only the identity automorphism, so no table reaches that error
    assert kinds == {"map"} | REBUILD_ERRORS - {"recovered action is not a field automorphism"}


@pytest.mark.parametrize("q,n", TABLE_SPACES + [(8, 3), (9, 3)])
def test_lookup_rebuild_matches_solve_rebuild_on_seeded_tables(q, n):
    space = Space.get(q, n)
    kinds = rebuild_kinds(space, line_tables(space, 3, random.Random(f"lookup-rebuild:{q}:{n}")))
    assert "map" in kinds and kinds - {"map"} <= REBUILD_ERRORS


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3), (4, 3), (8, 3)])
def test_lookup_rebuild_matches_solve_rebuild_on_merged_lines(q, n):
    # every line the rebuild reads after e_1's, sent to e_1's image line:
    # not bijections, so passed as bare tables; the scales read the lines of
    # e_1 + e_i (c = 0 must not count), the automorphism those of e_1 + a e_2
    # (c = 0 must count)
    space = Space.get(q, n)
    field = space.field
    line_of = space.vector_lines()
    e = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    read = [line_of[tuple(map(field.add, e[0], e[i]))] for i in range(1, n)]
    read += [line_of[tuple(map(field.add, e[0], (0, a) + (0,) * (n - 2)))] for a in range(2, q)]
    rng = random.Random(f"merged-lines:{q}:{n}")
    tables = []
    for table in sampled_tables(space, 1, 2, rng):
        for line in read:
            merged = list(table)
            merged[line] = table[line_of[e[0]]]
            tables.append(SimpleNamespace(table=tuple(merged)))
    kinds = rebuild_kinds(space, tables)
    assert "image line escapes its coordinate plane" in kinds and "map" not in kinds


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (2, 5), (3, 4), (4, 3)])
def test_mask_induces_matches_frozenset_lookup(q, n):
    space = Space.get(q, n)
    rng = random.Random(f"mask-induces:{q}:{n}")
    found = rejected = 0
    for _ in range(2):
        h = random_semilinear(space, rng)
        for k in range(1, n):
            f = induced_map(space, h, k)
            for g in (f, GrassmannMap(f.domain, f.codomain, transposed(f.table, rng))):
                for m in range(n + 1):
                    if m != k:
                        got = induces(space, g, m)
                        assert got == frozenset_induces(space, g, m)
                        found += got is not None
                        rejected += got is None
    assert found and rejected


@pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (3, 4), (3, 5)])
def test_viable_lines_match_full_pool(q, n):
    space = Space.get(q, n)
    gk = space.grassmannian(2)
    rng = random.Random(f"viable-pool:{q}:{n}")
    pools = []
    for band in range(10):
        low, high = band * len(gk) // 10, (band + 1) * len(gk) // 10
        for _ in range(4):
            ok = _join_masks(PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(low, high))))
            pool = regularity._viable_lines(space, ok)
            assert pool == full_pool_viable_lines(space, ok)
            pools.append(pool)
    # sparse sets keep no line and dense ones many
    assert 0 in pools and any(pools)


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


def benchmark_sets(workload, count):
    """The plane sets of the first `count` seed-0 specs of a perfbench
    workload class, by class name."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    w = getattr(workloads, workload)()
    return [w.materialize(s) for s in w.generate(random.Random(f"{w.name}:0"), None)[:count]]


def test_mask_degree_matches_per_candidate_search_on_benchmark_sets():
    assert_same_degree(benchmark_sets("RegularDegree", 240))


def test_maximality_and_completion_match_echelon_search_on_benchmark_sets():
    irregular = 0
    for ps in benchmark_sets("IrregularDecide", 60):
        if is_irregular(ps):
            irregular += 1
            want = echelon_complete(ps)
            assert complete_to_maximal_irregular(ps) == want
            assert is_maximal_irregular(ps) == (want == ps)
    assert irregular == 46


def test_degree_runs_one_covering_search(monkeypatch):
    searches = []
    search = regularity._systems_within

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(regularity, "_systems_within", counted)
    space = Space.get(2, 4)
    planes = regularity.all_coordinate_systems(space)[0].coordinate_planes(2).indices
    degrees = []
    for size in range(1, 7):
        searches.clear()
        degrees.append(degree(PlaneSet(space.grassmannian(2), planes[:size]))[0])
        assert len(searches) == 1
    assert degrees == [3, 2, 2, 1, 0, 0]


def meet_profile(subset, maximal_superset):
    """`profile` with a maximality test and a second search for the system,
    one `Subspace.contains` per member and axis, and the core as the meet of
    the members through the axis."""
    if not subset.issubset(maximal_superset):
        raise ValueError("profile needs subset <= maximal superset")
    if not is_maximal_regular(maximal_superset):
        raise NotRegularError("profile needs a maximal regular superset")
    system = associated_systems(maximal_superset, limit=1)[0]
    gr = subset.gr
    records = []
    n_exact = 0
    for axis in system.lines:
        through = [i for i in subset.indices if gr[i].contains(axis)]
        if through:
            core = functools.reduce(meet, (gr[i] for i in through))
            dim = core.k
        else:
            core, dim = None, 0
        n_exact += dim == 1
        records.append(AxisRecord(axis, PlaneSet(gr, through), core, dim))
    return AxisProfile(system, tuple(records), n_exact)


def profile_outcome(prof, subset, superset):
    try:
        return prof(subset, superset)
    except ValueError as exc:
        return type(exc), str(exc)


def assert_same_profile(subset, superset):
    got = profile_outcome(profile, subset, superset)
    assert got == profile_outcome(meet_profile, subset, superset)
    return got


def test_mask_profile_matches_meet_profile_on_every_subset_at_2_4_2():
    space = Space.get(2, 4)
    planes = regularity.all_coordinate_systems(space)[0].coordinate_planes(2)
    exact = 0
    for size in range(len(planes) + 1):
        for sub in combinations(planes.indices, size):
            exact += assert_same_profile(PlaneSet(planes.gr, sub), planes).exact_axis_count == 4
    assert exact > 0
    # the errors: a subset outside the superset, a superset one plane short,
    # and a set of C(4, 2) planes that is not regular
    assert assert_same_profile(planes.complement(), planes)[0] is ValueError
    short = PlaneSet(planes.gr, planes.indices[:5])
    assert assert_same_profile(short, short)[0] is NotRegularError
    assert assert_same_profile(short, short.with_index(planes.complement().indices[0]))[0] is NotRegularError


@pytest.mark.parametrize("q,n,k", [(3, 4, 2), (2, 5, 2), (2, 5, 3)])
def test_mask_profile_matches_meet_profile_on_seeded_sets(q, n, k):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"profile:{q}:{n}:{k}")
    for _ in range(30):
        lines = [Subspace.span(space.field, n, [r]) for r in random_invertible(space.field, n, rng).rows]
        planes = CoordinateSystem(space, lines).coordinate_planes(k)
        sub = PlaneSet(gk, rng.sample(planes.indices, rng.randint(0, len(planes))))
        assert isinstance(assert_same_profile(sub, planes), AxisProfile)
        # the subset against C(n, k) planes that hold it, regular or not
        other = PlaneSet(gk, rng.sample(planes.complement().indices, len(planes) - len(sub)))
        assert_same_profile(sub, sub.union(other))


def test_profile_runs_one_covering_search(monkeypatch):
    searches = []
    search = regularity._systems_within

    def counted(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(regularity, "_systems_within", counted)
    space = Space.get(2, 4)
    planes = regularity.all_coordinate_systems(space)[0].coordinate_planes(2)
    for size in range(len(planes) + 1):
        searches.clear()
        profile(PlaneSet(planes.gr, planes.indices[:size]), planes)
        assert len(searches) == 1


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3)])
def test_rank_containment_and_extension_match_echelon_basis(q, n):
    space = Space.get(q, n)
    subspaces = [s for k in range(n + 1) for s in space.grassmannian(k)]
    vectors = list(product(space.field.elements, repeat=n))
    contained = 0
    for a in subspaces:
        for v in vectors:
            assert a.contains_vector(v) == echelon_contains_vector(a, v)
        for b in subspaces:
            assert a.contains(b) == echelon_contains(a, b)
            assert _extension_rows(a, b) == echelon_extension_rows(a, b)
            contained += a.contains(b)
    # the pairs b <= a: flags of two subspaces
    assert contained == sum(
        gaussian_binomial(n, ka, q) * gaussian_binomial(ka, kb, q) for ka in range(n + 1) for kb in range(ka + 1)
    )


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
        got = [s.line_indices for s in associated_systems(ps)]
        assert got == list(unguarded_covering_system_indices(space, ps))
        assert bool(got) == (len(ps) <= comb(n, k))     # the coordinate-plane sets are regular


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (2, 4)])
def test_covering_search_matches_unguarded_at_every_dimension(q, n):
    # k = 0 (the zero plane) and k = n (the whole space) are refused, as is
    # every k at n = 1; elsewhere every subset where G_k has at most 7 planes,
    # and every subset of up to 2 planes
    space = Space.get(q, n)
    for k in range(n + 1):
        gk = space.grassmannian(k)
        for size in range((len(gk) if len(gk) <= 7 else 2) + 1):
            for sub in combinations(range(len(gk)), size):
                ps = PlaneSet(gk, sub)
                if k in (0, n):
                    with pytest.raises(ValueError, match=rf"regularity needs 1 <= k <= {n - 1} at n={n}; the set has k={k}"):
                        associated_systems(ps)
                    continue
                got = [s.line_indices for s in associated_systems(ps)]
                assert got == list(unguarded_covering_system_indices(space, ps)), (k, sub)


def counted_span_with(monkeypatch):
    """Patch `Space.span_with` to record the line of each call; the record."""
    calls = []
    span_with = Space.span_with

    def counted(self, mask, points, t):
        calls.append(t)
        return span_with(self, mask, points, t)

    monkeypatch.setattr(Space, "span_with", counted)
    return calls


def test_size_guard_runs_no_span_work(monkeypatch):
    cases = []
    for q, n, k in [(2, 4, 2), (2, 5, 2), (3, 4, 2), (2, 4, 1)]:
        space, sets = guard_sets(q, n, k, random.Random(f"guard-work:{q}:{n}:{k}"))
        space.point_masks(k)     # built before counting: a table build spans lines too
        cases.append((comb(n, k), sets))
    calls = counted_span_with(monkeypatch)
    for top, sets in cases:
        for ps in sets:
            calls.clear()
            found = associated_systems(ps)
            if len(ps) > top:
                assert found == [] and calls == []
            else:
                assert found and calls      # the counter sees a search that runs


@pytest.mark.parametrize(
    "q,n,k,members,systems,spans",
    [
        (2, 4, 2, (0, 1, 2), 8, 9),
        (2, 4, 1, (0, 1), 48, 13),
        (2, 5, 2, (0, 1, 2, 7), 32, 11),     # four coordinate planes of the first system
        (3, 4, 2, (0, 1, 2, 13), 3, 24),
    ],
)
def test_covering_search_span_work(monkeypatch, q, n, k, members, systems, spans):
    # deterministic work counts: a lost pruning rule, a member tested only
    # after its line is spanned, or a last line spanned rather than read off
    # the candidates, changes them
    space = Space.get(q, n)
    ps = PlaneSet(space.grassmannian(k), members)
    space.point_masks(k)
    calls = counted_span_with(monkeypatch)
    assert (len(list(_systems_within(space, k, members=ps.indices))), len(calls)) == (systems, spans)


@pytest.mark.parametrize(
    "q,n,k,step,counts",
    [
        (2, 4, 2, 2, [(6, 6), (2, 2), (3, 3), (7, 6)]),
        (2, 4, 2, 3, [(0, 1), (1, 1), (0, 1), (1, 5)]),
        (2, 5, 2, 2, [(30, 41), (6, 10), (8, 13), (20, 34)]),
        (2, 5, 2, 3, [(0, 1), (1, 5), (0, 2), (0, 25)]),
        (3, 4, 2, 2, [(85, 41), (38, 25), (169, 57), (118, 55)]),
        (3, 4, 2, 3, [(12, 12), (9, 4), (9, 4), (9, 4)]),
    ],
)
def test_forced_search_span_work(monkeypatch, q, n, k, step, counts):
    # (systems, spans) of the searches forced through the first four planes
    # outside every step-th plane: a base line spanned, or a child spanned
    # before its candidates are checked, changes them
    space = Space.get(q, n)
    ps = PlaneSet(space.grassmannian(k), range(0, len(space.grassmannian(k)), step))
    ok, forced = _join_masks(ps), ps.complement().indices[:4]
    for l in forced:
        list(_systems_within(space, k, ok, l))      # tables and per-plane set-up built before counting
    calls = counted_span_with(monkeypatch)
    work = []
    for l in forced:
        calls.clear()
        work.append((len(list(_systems_within(space, k, ok, l))), len(calls)))
    assert work == counts


def test_all_systems_walk_span_work(monkeypatch):
    # a line whose child keeps no candidate outside the span so far is not
    # spanned: 6 of the walk's 426 chosen lines
    space = Space.get(2, 4)
    space.point_masks(1)
    calls = counted_span_with(monkeypatch)
    assert (len(list(every_system(space))), len(calls)) == (840, 420)


def covering_sets(space, k, rng):
    """Seeded sets for the covering search: subsets of a random system's
    coordinate planes, the same with stray planes added, and the seeded
    irregular sets."""
    gk = space.grassmannian(k)
    sets = []
    for _ in range(6):
        lines = [Subspace.span(space.field, space.n, [r]) for r in random_invertible(space.field, space.n, rng).rows]
        planes = CoordinateSystem(space, lines).coordinate_planes(k).indices
        regular = PlaneSet(gk, rng.sample(planes, rng.randint(1, len(planes))))
        sets.append(regular)
        sets.append(regular.union(PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(1, 2)))))
    return sets + irregular_sets(space, k, rng)


def assert_covering_search_matches_echelon_oracle(space, plane_sets):
    for ps in plane_sets:
        got = list(_systems_within(space, ps.gr.k, members=ps.indices))
        assert got == list(unguarded_covering_system_indices(space, ps)), ps.indices
        systems = associated_systems(ps)
        assert [s.line_indices for s in systems] == got
        for m in range(4):
            assert associated_systems(ps, limit=m) == systems[:m]


def test_covering_search_matches_echelon_oracle_on_small_sets():
    g1 = Space.get(2, 4).grassmannian(1)
    assert_covering_search_matches_echelon_oracle(
        g1.space, (PlaneSet(g1, c) for size in range(5) for c in combinations(range(len(g1)), size))
    )
    for k, top in ((2, 2), (3, 3)):
        gk = Space.get(2, 4).grassmannian(k)
        assert_covering_search_matches_echelon_oracle(
            gk.space, (PlaneSet(gk, c) for size in range(top + 1) for c in combinations(range(len(gk)), size))
        )
    g0 = Space.get(2, 4).grassmannian(0)
    for c in ((), (0,)):
        with pytest.raises(ValueError, match=r"regularity needs 1 <= k <= 3 at n=4; the set has k=0"):
            associated_systems(PlaneSet(g0, c))


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (3, 4, 2), (2, 5, 3), (2, 5, 1), (3, 3, 1)])
def test_covering_search_matches_echelon_oracle_on_seeded_sets(q, n, k):
    space = Space.get(q, n)
    sets = covering_sets(space, k, random.Random(f"covering:{q}:{n}:{k}"))
    regular = sum(regularity.is_regular(ps) is not None for ps in sets)
    assert 0 < regular < len(sets)
    assert_covering_search_matches_echelon_oracle(space, sets)


def assert_plane_index_matches_covering_search(plane_sets):
    for ps in plane_sets:
        want = [s.line_indices for s in associated_systems(ps)]
        assert [s.line_indices for s in harness._swept_systems(ps)] == want, ps.indices


def test_plane_index_matches_covering_search_on_the_thm_2_2_1_sweep():
    space = Space.get(2, 4)
    assert_plane_index_matches_covering_search(_regular_subset_sweep(space, 2, exactness_threshold(4, 2)))


@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (2, 5, 3), (3, 4, 2), (2, 4, 1)])
def test_plane_index_matches_covering_search_on_seeded_sets(q, n, k):
    # the covering sets, the empty set (every system) and the sweep's sets
    # over two random systems, whose associated systems the index reads
    space = Space.get(q, n)
    rng = random.Random(f"plane-index:{q}:{n}:{k}")
    swept = list(_regular_subset_sweep(space, k, 1, rng.sample(all_coordinate_systems(space), 2)))
    sets = covering_sets(space, k, rng) + [PlaneSet(space.grassmannian(k), [])]
    assert_plane_index_matches_covering_search(sets + rng.sample(swept, min(len(swept), 40)))


def contains_hypergraph_view(plane_set, system):
    """Each member's axis positions, one `Subspace.contains` per member and
    system line."""
    k = plane_set.gr.k
    out = []
    for s in plane_set.members():
        axes = tuple(i for i, l in enumerate(system.lines) if s.contains(l))
        if len(axes) != k:
            raise ValueError("plane set is not associated with the system")
        out.append(axes)
    return out


def hypergraph_outcome(view, plane_set, system):
    try:
        return view(plane_set, system)
    except ValueError as exc:
        return ValueError, str(exc)


def assert_same_hypergraph_views(plane_set, systems):
    for system in systems:
        got = hypergraph_outcome(hypergraph_view, plane_set, system)
        assert got == hypergraph_outcome(contains_hypergraph_view, plane_set, system)


def test_mask_hypergraph_view_matches_contains_on_subset_sweeps():
    # the regular sets of the thm-2.2.x sweep, drawn per system so each set
    # is viewed through its own system and through a seeded other one
    space = Space.get(2, 4)
    systems = regularity.all_coordinate_systems(space)
    rng = random.Random("hypergraph:2:4:2")
    associated = 0
    for system in rng.sample(systems, 30):
        for ps in _regular_subset_sweep(space, 2, 1, systems=[system]):
            assert_same_hypergraph_views(ps, (system, rng.choice(systems)))
            associated += 1
    assert associated == 30 * 63
    # the empty set is associated with every system; the complement of one
    # system's planes with none
    planes = systems[0].coordinate_planes(2)
    assert_same_hypergraph_views(PlaneSet(planes.gr, []), systems[:3])
    assert hypergraph_outcome(hypergraph_view, planes.complement(), systems[0])[0] is ValueError
    assert_same_hypergraph_views(planes.complement(), systems[:3])


def test_mask_hypergraph_view_matches_contains_on_seeded_sets_at_2_5_2():
    space = Space.get(2, 5)
    rng = random.Random("hypergraph:2:5:2")
    for _ in range(40):
        lines = [Subspace.span(space.field, 5, [r]) for r in random_invertible(space.field, 5, rng).rows]
        system = CoordinateSystem(space, lines)
        planes = system.coordinate_planes(2).indices
        ps = PlaneSet(space.grassmannian(2), rng.sample(planes, rng.randint(1, len(planes))))
        other = [Subspace.span(space.field, 5, [r]) for r in random_invertible(space.field, 5, rng).rows]
        assert_same_hypergraph_views(ps, (system, CoordinateSystem(space, other)))


def assert_same_systems_within(plane_set):
    """The pruned and the unpruned search yield the same systems in the same
    order; returns how many."""
    space, k, ok = plane_set.gr.space, plane_set.gr.k, _join_masks(plane_set)
    count = 0
    # streamed: a dense (2,5,2) set holds tens of thousands of systems
    for got, want in zip_longest(_systems_within(space, k, ok), unpruned_systems_within(space, k, ok)):
        assert got == want
        count += 1
    return count


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (2, 5), (3, 4)])
def test_viable_line_search_matches_unpruned_on_size_bands(q, n):
    space = Space.get(q, n)
    gk = space.grassmannian(2)
    rng = random.Random(f"viable-lines:{q}:{n}")
    counts = []
    for band in range(10):
        low, high = band * len(gk) // 10, (band + 1) * len(gk) // 10
        for _ in range(12):
            ps = PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(low, high)))
            counts.append(assert_same_systems_within(ps))
    # sparse bands contain no system and dense ones many
    assert 0 in counts and any(counts)


@pytest.mark.parametrize("q,n", [(2, 4), (2, 5)])
def test_viable_line_search_matches_unpruned_on_constructions(q, n):
    # the irregular-decide kinds: meeting, cohyperplanar and deficient sets,
    # their linear images and completions, and their complements
    space = Space.get(q, n)
    rng = random.Random(f"viable-constructions:{q}:{n}")
    sets = irregular_sets(space, 2, rng)
    for ps in list(sets):
        image = induced_map(space, random_semilinear(space, rng), 2).apply_set(ps)
        sets += [image, complete_to_maximal_irregular(ps), ps.complement()]
    counts = [assert_same_systems_within(ps) for ps in sets]
    assert 0 in counts and any(counts)


# ---------------------------------------------------------------------------
# result records against frozen dataclasses built from the same fields

RECORD_FIELDS = {
    FormPredicates: "nonsingular reflexive symmetric skew_symmetric symplectic hermitian skew_hermitian",
    ReflexiveClass: "kind scalar",
    SymplecticBasis: "x y",
    AxisRecord: "axis planes core core_dim",
    AxisProfile: "system records exact_axis_count",
    Characteristics: "saturated_lines line_span line_span_dim saturated_hyperplanes hyperplane_core "
                     "hyperplane_core_dim",
    DeficientConstruction: "result stage base carrier carrier_companion hinge pencil_line companion_line",
    DeficientDualConstruction: "result base carrier inner",
    Similarity: "kind witness reason",
    ClassificationResult: "kind map form verified witness",
    CheckResult: "check_id passed scope details counterexample",
}


def dataclass_oracle(name, cls, slots=False):
    """A frozen dataclass with the record's field names and defaults; a
    callable default becomes a default factory."""
    specs = []
    for f in cls.__slots__:
        if f not in cls._defaults:
            specs.append(f)
            continue
        default = cls._defaults[f]
        spec = dataclasses.field(default_factory=default) if callable(default) else dataclasses.field(default=default)
        specs.append((f, object, spec))
    return dataclasses.make_dataclass(name, specs, frozen=True, slots=slots)


def assert_same_outcome(make, make_oracle):
    """Both raise the same exception type, or both build records with the same repr."""
    outcomes = []
    for build in (make, make_oracle):
        try:
            outcomes.append(repr(build()))
        except (TypeError, AttributeError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("cls", list(RECORD_FIELDS), ids=lambda cls: cls.__name__)
def test_records_keep_the_frozen_dataclass_contract(cls):
    fields = cls.__slots__
    assert fields == tuple(RECORD_FIELDS[cls].split())
    oracle = dataclass_oracle(cls.__name__, cls)
    twin = type(cls.__name__, (_Record,), {"__annotations__": dict.fromkeys(fields, "object"),
                                           **cls._defaults})
    twin_oracle = dataclass_oracle(cls.__name__, cls)
    values = [("v", i) for i in range(len(fields))]
    other = [("w", i) for i in range(len(fields))]
    rec, orec = cls(*values), oracle(*values)
    assert repr(rec) == repr(orec)
    # equality only within one class, hashes over the fields
    for a, b, oa, ob in [
        (rec, cls(*values), orec, oracle(*values)),
        (rec, cls(*other), orec, oracle(*other)),
        (rec, twin(*values), orec, twin_oracle(*values)),
        (rec, tuple(values), orec, tuple(values)),
    ]:
        assert (a == b, a != b, b == a) == (oa == ob, oa != ob, ob == oa)
    assert hash(rec) == hash(cls(*values)) == hash(tuple(values))
    assert hash(orec) == hash(tuple(values))
    # construction by position, keyword and default, and the refusals
    required = [f for f in fields if f not in cls._defaults]
    kw = dict(zip(fields, values))
    cases = [
        ((), kw),
        (values[:1], {f: kw[f] for f in fields[1:]}),
        ((), {f: kw[f] for f in required}),
        (values[:len(required)], {}),
        ((), {f: kw[f] for f in fields[1:]}),            # first field missing
        (values, {"unknown": 0}),
        (values[:1], {fields[0]: values[0]}),          # repeated
        (values + [0], {}),                            # one too many
    ]
    for args, kwargs in cases:
        assert_same_outcome(lambda: cls(*args, **kwargs), lambda: oracle(*args, **kwargs))
    # frozen and slotted
    for record in (rec, orec):
        with pytest.raises(AttributeError):
            setattr(record, fields[0], 1)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
    assert not hasattr(rec, "__dict__")
    assert sys.getsizeof(rec) == sys.getsizeof(dataclass_oracle(cls.__name__, cls, slots=True)(*values))
    # pickling and copies rebuild an equal record of the same class
    for copied in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(copied) is cls and copied == rec and repr(copied) == repr(rec)


def test_check_results_hold_distinct_default_details():
    a, b = CheckResult("id", True, "scope"), CheckResult("id", True, "scope")
    assert a.details == b.details == {} and a.details is not b.details
    assert copy.deepcopy(CheckResult("id", True, "scope", {"n": [1]})).details == {"n": [1]}


def distance_matrix_adjacent_families(space, k):
    """`maximal_adjacent_families` as it was: set-based Bron-Kerbosch, pivoting
    on the vertex with the most candidate neighbours, over the adjacency rows
    of `distance_matrix`, and each clique classified by the meet and the join
    of its first two members and their incidence sets."""
    gk = space.grassmannian(k)
    adj = [frozenset(j for j, dj in enumerate(row) if dj == 1) for row in space.distance_matrix(k)]
    cliques = []

    def bron_kerbosch(clique, cand, excl):
        if not cand and not excl:
            cliques.append(tuple(sorted(clique)))
            return
        pivot = max(cand | excl, key=lambda v: len(adj[v] & cand))
        for v in sorted(cand - adj[pivot]):
            bron_kerbosch(clique + [v], cand & adj[v], excl & adj[v])
            cand = cand - {v}
            excl = excl | {v}

    bron_kerbosch([], set(range(len(gk))), set())
    out = []
    for cl in sorted(cliques):
        fam = PlaneSet(gk, cl)
        a, b = gk[cl[0]], gk[cl[1]]
        center = meet(a, b)
        if center.k == k - 1 and incidence_set(space, center, k) == fam:
            out.append((fam, "star", center))
            continue
        carrier = join(a, b)
        assert carrier.k == k + 1 and incidence_set(space, carrier, k) == fam
        out.append((fam, "top", carrier))
    return out


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 5, 2), (2, 5, 3), (3, 4, 2)])
def test_mask_adjacent_families_match_distance_matrix_cliques(q, n, k):
    space = Space.get(q, n)
    d = space.distance_matrix(k)
    adj = space.adjacency_masks(k)
    assert adj == [sum(1 << j for j, dj in enumerate(row) if dj == 1) for row in d]
    fams = maximal_adjacent_families(space, k)
    assert fams == distance_matrix_adjacent_families(space, k)
    assert [kind for _, kind, _ in fams].count("star") == len(space.grassmannian(k - 1))
    # the maximality re-check of `verify prop-1.4.2`: the AND of the members'
    # masks names the first plane adjacent to all of them, as the scan of the
    # distance rows did; none for a family, its dropped member for the rest
    for fam, _, _ in fams:
        for members in (fam.indices, fam.indices[:-1]):
            common = functools.reduce(lambda a, b: a & b, (adj[i] for i in members))
            outside = next((j for j in range(len(d)) if j not in members and all(d[j][i] == 1 for i in members)), None)
            assert ((common & -common).bit_length() - 1 if common else None) == outside
            assert (outside is None) == (members == fam.indices)


def meet_symplectic_basis(form):
    """`symplectic_basis` as it was: x the first nonzero vector and y the
    first vector pairing with it in a `Subspace.vectors` scan of the current
    span, and the rest the meet of the span with the orthogonal complement
    of <x, y>."""
    f = form.field

    def rec(frame):
        if not frame:
            return [], []
        sub = Subspace.span(f, form.n, frame)
        x = next(v for v in sub.vectors() if any(v))
        v = next(v for v in sub.vectors() if form.evaluate(x, v))
        c = form.evaluate(x, v)
        y = v if c == 1 else tuple(f._mul[f.inv(c)][t] for t in v)
        pair = Subspace.span(f, form.n, (x, y))
        comp = meet(sub, orth_complement(form, pair))
        assert pair.k == 2 and comp.k == sub.k - 2 and meet(pair, comp).k == 0
        xs, ys = rec(comp.rows)
        return [x] + xs, [y] + ys

    xs, ys = rec(Mat.identity(f, form.n).rows)
    return SymplecticBasis(tuple(xs), tuple(ys))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_symplectic_basis_matches_meet_recursion(q, n):
    f = gf_field(q)
    rng = random.Random(f"symplectic:{q}:{n}")
    expected = standard_symplectic(f, n).gram
    for _ in range(45):
        form = BilinearForm(f, random_alternating_gram(f, n, rng))
        basis = symplectic_basis(form)
        assert basis == meet_symplectic_basis(form)
        vs = basis.vectors()
        assert Mat(f, [[form.evaluate(a, b) for b in vs] for a in vs]) == expected


def per_entry_evaluate(form, x, y):
    """`BilinearForm.evaluate` as it was: both slot automorphisms called on
    every entry pair, untwisted or not."""
    f = form.field
    acc = 0
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj and form.gram.rows[i][j]:
                acc = f.add(acc, f.mul(f.mul(form.sigma1(xi), form.gram.rows[i][j]), form.sigma2(yj)))
    return acc


def line_scan_is_symplectic(form):
    """`is_symplectic` as it was for every form: Om(v, v) = 0 on one vector
    per line."""
    return all(per_entry_evaluate(form, v, v) == 0 for v in _line_reps(form))


def assert_same_symplectic(form, rng):
    assert is_symplectic(form) == line_scan_is_symplectic(form)
    vs = [tuple(rng.randrange(form.field.q) for _ in range(form.n)) for _ in range(6)]
    assert [form.evaluate(x, y) for x in vs for y in vs] == [per_entry_evaluate(form, x, y) for x in vs for y in vs]


def test_gram_symplectic_test_matches_line_scan():
    rng = random.Random("is-symplectic")
    symplectic = 0
    # every 2x2 and 3x3 Gram over GF(2) and GF(3)
    for q in (2, 3):
        f = gf_field(q)
        for n in (2, 3):
            for fill in product(range(q), repeat=n * n):
                form = BilinearForm(f, Mat(f, [fill[i * n:(i + 1) * n] for i in range(n)]))
                assert is_symplectic(form) == line_scan_is_symplectic(form)
                symplectic += is_symplectic(form)
    # GF(4): seeded Grams of sizes 2 to 4, half of them alternating
    f = gf_field(4)
    for n in (2, 3, 4):
        for _ in range(100):
            fill = [rng.randrange(4) for _ in range(n * n)]
            rows = [fill[i * n:(i + 1) * n] for i in range(n)]
            if rng.random() < 0.5:
                rows = [[rows[i][j] if i < j else f.neg(rows[j][i]) if i > j else 0 for j in range(n)] for i in range(n)]
            form = BilinearForm(f, Mat(f, rows))
            assert_same_symplectic(form, rng)
            symplectic += is_symplectic(form)
    # twisted forms keep the line scan: every Frobenius pair but (Id, Id)
    for q in (4, 8, 9):
        f = gf_field(q)
        pairs = [(a, b) for a in f.automorphisms() for b in f.automorphisms() if not (a.is_identity and b.is_identity)]
        for _ in range(60):
            n = rng.choice((2, 3))
            fill = [rng.randrange(q) for _ in range(n * n)]
            rows = [fill[i * n:(i + 1) * n] for i in range(n)]
            if rng.random() < 0.5:
                rows = [[rows[i][j] if i < j else f.neg(rows[j][i]) if i > j else 0 for j in range(n)] for i in range(n)]
            form = BilinearForm(f, Mat(f, rows), *rng.choice(pairs))
            assert not form.untwisted
            assert_same_symplectic(form, rng)
            symplectic += is_symplectic(form)
    assert symplectic


def row_planes_independence_violation(space, f):
    """`independence_violation` as it was: two `_row_planes` scans of the
    hyperplanes' line rows, one through the table and one through
    `GrassmannMap.inverse`, zipped."""
    n, rows = space.n, space.incidence(1, space.n - 1)
    images = zip(_row_planes(space, f.table, 1, n - 1, rows), _row_planes(space, f.inverse().table, 1, n - 1, rows))
    for hi, pair in enumerate(images):
        if None in pair:
            return space.grassmannian(n - 1)[hi]
    return None


def assert_same_independence_scans(space, maps):
    found = 0
    for f in maps:
        witness = independence_violation(space, f)
        assert witness == row_planes_independence_violation(space, f)
        found += witness is None
        inverse = [0] * len(f.table)
        for i, j in enumerate(f.table):
            inverse[j] = i
        assert f.inverse() == GrassmannMap(f.codomain, f.domain, inverse)
        assert type(f.inverse().table) is tuple and f.compose(f.inverse()).is_identity()
    return found


def test_mask_sum_independence_scan_matches_row_planes_scan_on_every_permutation_at_2_3():
    space = Space.get(2, 3)
    assert assert_same_independence_scans(space, every_line_permutation_at_2_3()) == 168


@pytest.mark.parametrize("q,n", [(3, 3), (2, 4)])
def test_mask_sum_independence_scan_matches_row_planes_scan_on_seeded_permutations(q, n):
    space = Space.get(q, n)
    g1 = space.grassmannian(1)
    rng = random.Random(f"independence-sum:{q}:{n}")
    shuffled = []
    for _ in range(300):
        perm = list(range(len(g1)))
        rng.shuffle(perm)
        shuffled.append(GrassmannMap(g1, g1, perm))
    preserving = assert_same_independence_scans(space, list(line_tables(space, 5, rng)) + shuffled)
    assert 0 < preserving < 345
