"""Irregular and maximal irregular plane sets: decision procedures with
certificates, greedy completion, the meeting/cohyperplanar set constructions,
number characteristics, constructions with deficient characteristics, status
inside a sub-Grassmannian, and similarity testing.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from operator import and_

from .forms import _symplectic_map, dot_form, form_map, orth_complement
from .grassmann import (
    GrassmannMap,
    PlaneSet,
    Space,
    Subspace,
    _Record,
    _extension_rows,
    _subspace_of_mask,
    gaussian_binomial,
    incidence_set,
    meet,
)
from .linalg import Mat
from .maps import SemilinearMap, induced_map
from .regularity import _require_middle_dimension, _shared_system, _system_search, _systems_within, is_regular

STATUS_REGULAR = "regular-in-sub"
STATUS_IRREGULAR = "irregular-in-sub"
STATUS_MAXIMAL_IRREGULAR = "maximal-irregular-in-sub"
STATUS_CONTAINS_MAXIMAL_REGULAR = "contains-maximal-regular-in-sub"


class NotIrregularError(ValueError):
    """Operation needs an irregular plane set."""


def _join_masks(plane_set):
    """For each (k-1)-plane W, the OR of the point masks of the set's planes
    through W (W is the zero space at k = 1).  A line t outside W joins W to
    a plane of the set exactly when t's bit is set in W's entry."""
    _require_middle_dimension(plane_set.gr)
    space, k = plane_set.gr.space, plane_set.gr.k
    masks = space.point_masks(k)
    faces = space.incidence(k - 1, k)
    ok = [0] * len(space.grassmannian(k - 1))
    for p in plane_set.indices:
        for w in faces[p]:
            ok[w] |= masks[p]
    return ok


def _inside_search(plane_set):
    """The set's join masks and the coordinate-system search set up once on
    them, for the unforced search and every forced one."""
    ok = _join_masks(plane_set)
    return ok, _system_search(plane_set.gr.space, plane_set.gr.k, ok)


def _shared_first_system(plane_set, forced=None):
    """The first system inside the set, through the plane `forced` when
    given, as the shared object; or None."""
    space, k = plane_set.gr.space, plane_set.gr.k
    idxs = next(_systems_within(space, k, _join_masks(plane_set), forced), None)
    return None if idxs is None else _shared_system(space, idxs)


def _completing_planes(plane_set, ok, search):
    """The planes the greedy completion adds, in canonical order: each outside
    plane that no coordinate system realizes together with the planes present,
    ORed into the join masks `ok` as it is yielded, so that `search`, set up on
    `ok`, counts it for every later plane.  None is yielded exactly when every
    outside plane completes some inside subset."""
    space, k = plane_set.gr.space, plane_set.gr.k
    masks = space.point_masks(k)
    faces = space.incidence(k - 1, k)
    for l in plane_set.complement():
        if next(search(l), None) is None:
            for w in faces[l]:
                ok[w] |= masks[l]
            yield l


def contains_maximal_regular(plane_set):
    """A coordinate system with all coordinate k-planes inside the set, or None."""
    return _shared_first_system(plane_set)


def completion_witness(plane_set, plane_index):
    """A system realizing the outside plane as a coordinate plane with every
    other coordinate plane inside the set; None when no such system exists."""
    return _shared_first_system(plane_set, plane_index)


def is_irregular(plane_set):
    """Not regular and containing no maximal regular subset."""
    return is_regular(plane_set) is None and contains_maximal_regular(plane_set) is None


def is_maximal_irregular(plane_set):
    """Irregular, and every outside plane completes some inside subset to a
    maximal regular set."""
    if is_regular(plane_set) is not None:
        return False
    ok, search = _inside_search(plane_set)
    return next(search(), None) is None and next(_completing_planes(plane_set, ok, search), None) is None


def complete_to_maximal_irregular(plane_set):
    """Greedy completion in canonical plane order.

    A plane may be added exactly when no coordinate system realizes it
    together with planes already present, and one pass yields a maximal
    irregular superset; the input itself when it is already maximal."""
    ok, search = _inside_search(plane_set)
    if is_regular(plane_set) is not None or next(search(), None) is not None:
        raise NotIrregularError("completion starts from an irregular set")
    added = list(_completing_planes(plane_set, ok, search))
    return plane_set.union(PlaneSet(plane_set.gr, added)) if added else plane_set


def _point_mask(space, s):
    return space.point_masks(s.k)[space.grassmannian(s.k).index(s)]


def planes_meeting(space, s, k):
    """All k-planes meeting s in at least a line: sharing a point with s."""
    if s.k == 0:
        raise ValueError("meeting set needs dim s >= 1")
    ms = _point_mask(space, s)
    return PlaneSet(space.grassmannian(k), (i for i, a in enumerate(space.point_masks(k)) if a & ms))


def planes_cohyperplanar(space, s, k):
    """All k-planes lying in a common hyperplane with s: those meeting s in
    dimension at least e = k + dim s - n + 1, that is in at least
    (q^e - 1)/(q - 1) points."""
    if s.k == 0:
        raise ValueError("cohyperplanar set needs dim s >= 1")
    need = gaussian_binomial(k + s.k - space.n + 1, 1, space.field.q)
    ms = _point_mask(space, s)
    return PlaneSet(
        space.grassmannian(k),
        (i for i, a in enumerate(space.point_masks(k)) if (a & ms).bit_count() >= need),
    )


class Characteristics(_Record):
    """Saturated lines and hyperplanes of a plane set with their span/core."""

    saturated_lines: PlaneSet        # lines t with G_k(t) inside the set
    line_span: Subspace | None       # join of the saturated lines
    line_span_dim: int               # 0 when no line is saturated
    saturated_hyperplanes: PlaneSet  # hyperplanes t with G_k(t) inside the set
    hyperplane_core: Subspace | None # meet of the saturated hyperplanes
    hyperplane_core_dim: int         # n when no hyperplane is saturated


def characteristics(plane_set):
    space = plane_set.gr.space
    k = plane_set.gr.k
    n = space.n
    if k <= 1 or k >= n - 1:
        raise ValueError("characteristics need 1 < k < n-1")
    iset = plane_set.iset
    through = space.incidence(k, 1)
    inside = space.incidence(k, n - 1)
    nlines = [t for t in range(len(through)) if iset.issuperset(through[t])]
    nhyps = [t for t in range(len(inside)) if iset.issuperset(inside[t])]
    span = core = None
    if nlines:
        mask, points = 0, ()
        for t in nlines:
            if not mask >> t & 1:
                mask, points = space.span_with(mask, points, t)
        span = _subspace_of_mask(space, mask)
    if nhyps:
        hyp_masks = space.point_masks(n - 1)
        core = _subspace_of_mask(space, reduce(and_, (hyp_masks[t] for t in nhyps)))
    return Characteristics(
        PlaneSet(space.grassmannian(1), nlines),
        span,
        span.k if span is not None else 0,
        PlaneSet(space.grassmannian(n - 1), nhyps),
        core,
        core.k if core is not None else n,
    )


class DeficientConstruction(_Record):
    """A maximal irregular set whose line-span characteristic falls one short
    of the possible maximum, together with the pieces it was built from."""

    result: PlaneSet          # the maximal irregular set
    stage: PlaneSet           # the set before greedy completion
    base: Subspace            # s: every plane meeting it is included
    carrier: Subspace         # t: the restriction to G_k(t) stays non-maximal
    carrier_companion: Subspace   # t', the adjacent companion of t
    hinge: Subspace           # l = t meet t', removed from the trace
    pencil_line: Subspace     # p inside l
    companion_line: Subspace  # p' inside t' but outside l


def deficient_irregular(space, s, t):
    """Grow a maximal irregular set containing every plane that meets s, with
    line-span dimension dim s = n - k - 1 and a non-maximal trace on t.

    Free choices fall to the first candidate in canonical order, so the
    output is reproducible.
    """
    n = space.n
    k = t.k - 1
    if not 1 < k < n - 1:
        raise ValueError("construction needs 1 < k < n-1")
    if s.k != n - k - 1 or t.k != k + 1:
        raise ValueError("construction needs dim s = n-k-1 and dim t = k+1")
    if meet(s, t).k != 0:
        raise ValueError("construction needs s and t transverse")
    gk = space.grassmannian(k)
    gk1 = space.grassmannian(k + 1)
    gk2 = space.grassmannian(k + 2)
    t_idx = gk1.index(t)

    s2_idx = space.incidence(k + 2, k + 1)[t_idx][0]
    s2 = gk2[s2_idx]
    hinge_line = meet(s2, s)
    if hinge_line.k != 1:
        raise RuntimeError("carrier extension does not meet the base in a line")
    t2 = None
    for cand_idx in space.incidence(k + 1, k + 2)[s2_idx]:
        cand = gk1[cand_idx]
        if cand_idx != t_idx and not cand.contains(hinge_line):
            t2 = cand
            break
    l = meet(t, t2)
    p = space.grassmannian(1)[space.incidence(1, k)[gk.index(l)][0]]
    p2 = None
    for li in space.incidence(1, k + 1)[gk1.index(t2)]:
        cand = space.grassmannian(1)[li]
        if not l.contains(cand):
            p2 = cand
            break

    meeting = planes_meeting(space, s, k)
    in_t2_through_p2 = incidence_set(space, t2, k).intersection(incidence_set(space, p2, k))
    in_t_through_p = incidence_set(space, t, k).intersection(incidence_set(space, p, k))
    punctured = in_t_through_p.without_index(gk.index(l))
    stage = meeting.union(in_t2_through_p2).union(punctured)
    result = complete_to_maximal_irregular(stage)

    if not meeting.issubset(result):
        raise RuntimeError("completion lost the meeting set")
    if characteristics(result).line_span_dim != n - k - 1:
        raise RuntimeError("line-span characteristic is not n-k-1")
    # the trace on the carrier is pinned to the punctured pencil, which is
    # never maximal irregular inside G_k(t) and never contains a maximal
    # regular subset of it
    if result.intersection(incidence_set(space, t, k)) != punctured:
        raise RuntimeError("trace on the carrier is not the punctured pencil")
    if restricted_status(result, t) in (STATUS_MAXIMAL_IRREGULAR, STATUS_CONTAINS_MAXIMAL_REGULAR):
        raise RuntimeError("trace on the carrier is maximal or regular-completable")
    return DeficientConstruction(result, stage, s, t, t2, l, p, p2)


class DeficientDualConstruction(_Record):
    """Dual construction: hyperplane-core characteristic n - k + 1."""

    result: PlaneSet
    base: Subspace            # s with every plane cohyperplanar to it included
    carrier: Subspace         # t of dimension k - 1
    inner: DeficientConstruction


def deficient_irregular_dual(space, s, t):
    """Grow a maximal irregular set containing every plane cohyperplanar with
    s, with hyperplane-core dimension n - k + 1, by transporting the primal
    construction through a form-defined bijection."""
    n = space.n
    k = t.k + 1
    if not 1 < k < n - 1:
        raise ValueError("construction needs 1 < k < n-1")
    if s.k != n - k + 1 or t.k != k - 1:
        raise ValueError("dual construction needs dim s = n-k+1 and dim t = k-1")
    if meet(s, t).k != 0:
        raise ValueError("construction needs s and t transverse")
    omega = dot_form(space.field, n)
    s_star = orth_complement(omega, s)
    t_star = orth_complement(omega, t)
    inner = deficient_irregular(space, s_star, t_star)
    gk = space.grassmannian(k)
    back = form_map(space, omega, n - k)
    result = PlaneSet(gk, (back.table[i] for i in inner.result.indices))

    if not planes_cohyperplanar(space, s, k).issubset(result):
        raise RuntimeError("transport lost the cohyperplanar set")
    if characteristics(result).hyperplane_core_dim != n - k + 1:
        raise RuntimeError("hyperplane-core characteristic is not n-k+1")
    if restricted_status(result, t) in (STATUS_MAXIMAL_IRREGULAR, STATUS_CONTAINS_MAXIMAL_REGULAR):
        raise RuntimeError("trace on the carrier is maximal or regular-completable")
    return DeficientDualConstruction(result, s, t, inner)


def _embed_top(space, members, t):
    """Planes inside t re-coordinatized as subspaces of F^(dim t)."""
    sub_space = Space.get(space.field.q, t.k)
    basis_t = Mat(space.field, t.rows).transpose()
    out = []
    for l in members:
        rows = [basis_t.solve(x) for x in l.rows]
        out.append(Subspace.span(sub_space.field, t.k, rows))
    return sub_space, out


def restricted_status(plane_set, t):
    """Status of the trace on G_k(t), evaluated in the smaller Grassmannian
    that G_k(t) is isomorphic to.

    Planes inside t (dim t > k) are re-coordinatized along t's basis; planes
    through t (dim t < k) go through a form-defined bijection first, which
    preserves the regular and irregular classes.
    """
    k = plane_set.gr.k
    space = plane_set.gr.space
    if t.k == k:
        raise ValueError("restriction status needs dim t != k")
    trace = plane_set.intersection(incidence_set(space, t, k))
    if t.k > k:
        sub_space, members = _embed_top(space, trace.members(), t)
        sub = PlaneSet.from_subspaces(sub_space.grassmannian(k), members)
    else:
        omega = dot_form(space.field, space.n)
        t_star = orth_complement(omega, t)
        images = [orth_complement(omega, l) for l in trace.members()]
        sub_space, members = _embed_top(space, images, t_star)
        sub = PlaneSet.from_subspaces(sub_space.grassmannian(space.n - k), members)
    ok, search = _inside_search(sub)
    if next(search(), None) is not None:
        return STATUS_CONTAINS_MAXIMAL_REGULAR
    if is_regular(sub) is not None:
        return STATUS_REGULAR
    if next(_completing_planes(sub, ok, search), None) is None:
        return STATUS_MAXIMAL_IRREGULAR
    return STATUS_IRREGULAR


class Similarity(_Record):
    kind: str                       # yes | no | inconclusive
    witness: GrassmannMap | None
    reason: str


def _independent_rows(field, n, pools):
    """Yield every n-tuple of independent vectors of F^n whose i-th vector is
    drawn from pools[i], depth-first in pool order.

    The span of the rows chosen so far is a point mask (`Space.span_with`),
    so each candidate costs one bit test of its line instead of a row
    reduction; the zero vector has no line and is skipped."""
    space = Space.get(field.q, n)
    line_of = space.vector_lines()
    span_with = space.span_with

    def rec(rows, mask, points):
        last = len(rows) == n - 1
        for v in pools[len(rows)]:
            t = line_of.get(v)
            if t is None or mask >> t & 1:
                continue
            if last:
                yield rows + (v,)
            else:
                yield from rec(rows + (v,), *span_with(mask, points, t))

    return rec((), 0, ())


def _invertible_matrices(field, n):
    """All invertible n x n matrices in ascending row-code order."""
    vectors = list(product(field.elements, repeat=n))
    return (Mat(field, rows) for rows in _independent_rows(field, n, [vectors] * n))


def _matrices_mapping(field, n, src, dst):
    """All invertible matrices carrying the subspace src onto dst, under the
    row-vector action v -> v M^t; ascending in the image rows."""
    ext = _extension_rows(src, Subspace(field, n, Mat.identity(field, n).rows))
    dom = Mat(field, tuple(src.rows) + tuple(ext))
    dom_inv_t = dom.inv().transpose()
    dst_vecs = [v for v in dst.vectors() if any(v)]
    all_vecs = list(product(field.elements, repeat=n))
    pools = [dst_vecs] * src.k + [all_vecs] * (n - src.k)
    return (
        Mat(field, rows).transpose().mul(dom_inv_t)
        for rows in _independent_rows(field, n, pools)
    )


def _image_indexer(space, k):
    """A function taking the rows of an invertible matrix M and the rref rows
    of a k-plane to the G_k index of the plane's image under v -> M v.

    Coordinate i of the image of r is row_i . r, read from a table of v . r
    over all v built once per r; the image vector's line comes from a
    vector -> line table and the plane from the memoised line joins, so a
    candidate matrix costs no row reduction."""
    field = space.field
    add, mul = field.add, field._mul
    vectors = list(product(field.elements, repeat=space.n))
    line_of = space.vector_lines()
    join_index = space.line_join_index
    dots = {}

    def dot(v, r):
        acc = 0
        for x, y in zip(v, r):
            if x and y:
                acc = add(acc, mul[x][y])
        return acc

    def image_index(mrows, rows):
        lines = []
        for r in rows:
            if r not in dots:
                dots[r] = {v: dot(v, r) for v in vectors}
            d = dots[r]
            lines.append(line_of[tuple(d[row] for row in mrows)])
        return join_index(lines, k)

    return image_index


def _fingerprint(plane_set):
    """The sorted point counts of the members' pairwise meets; in one
    Grassmannian a meet's point count fixes the pair's distance."""
    masks = plane_set.gr.space.point_masks(plane_set.gr.k)
    return sorted((masks[a] & masks[b]).bit_count() for a, b in combinations(plane_set.indices, 2))


def are_similar(left, right):
    """Similarity under regular transformations, three-valued.

    Invariant filters (size, characteristics, pairwise-distance multiset)
    make every "no" sound; on a filter pass one matrix loop searches the
    regular transformations when that is feasible (q = 2, n <= 5).  At
    n <= 4 it runs over the whole linear group, each matrix read both as an
    induced map and, on middle dimension, composed with the standard
    symplectic form map, which the space builds once and which, being an
    involution, also pulls the right set back.  At n = 5 every regular
    transformation is induced by a matrix, and such a matrix must carry the
    line span (or the hyperplane core) of one set onto that of the other, so
    exhausting those matrices decides similarity."""
    if left.gr.n != right.gr.n or left.gr.k != right.gr.k or left.gr.field.q != right.gr.field.q:
        raise ValueError("similarity needs plane sets on one Grassmannian")
    space = left.gr.space
    n, k, q = left.gr.n, left.gr.k, left.gr.field.q
    if len(left) != len(right):
        return Similarity("no", None, "sizes differ")
    if 1 < k < n - 1:
        cl, cr = characteristics(left), characteristics(right)
        pl = (cl.line_span_dim, cl.hyperplane_core_dim)
        pr = (cr.line_span_dim, cr.hyperplane_core_dim)
        if n != 2 * k:
            if pl != pr:
                return Similarity("no", None, f"characteristics differ: {pl} vs {pr}")
        else:
            swapped = (n - pr[1], n - pr[0])
            if pl != pr and pl != swapped:
                return Similarity(
                    "no", None, f"characteristics differ even up to duality: {pl} vs {pr}"
                )
    if _fingerprint(left) != _fingerprint(right):
        return Similarity("no", None, "pairwise distance multisets differ")
    if q != 2 or n > 5:
        return Similarity("inconclusive", None, "regular group too large to enumerate")
    targets = [("linear witness", right.indices, None)]
    if n < 5:
        matrices = _invertible_matrices(space.field, n)
        exhausted = "regular transformation group exhausted"
        if n == 2 * k:
            form_post = _symplectic_map(space)
            targets.append(("form-composed witness", [form_post.table[j] for j in right.indices], form_post))
    else:
        if not 1 < k < n - 1:
            return Similarity("inconclusive", None, "no characteristic constraint available")
        if cl.line_span is not None and cr.line_span is not None:
            src, dst = cl.line_span, cr.line_span
        elif cl.hyperplane_core is not None and cr.hyperplane_core is not None and cl.hyperplane_core.k >= 1:
            src, dst = cl.hyperplane_core, cr.hyperplane_core
        else:
            return Similarity("inconclusive", None, "no characteristic constraint available")
        matrices = _matrices_mapping(space.field, n, src, dst)
        exhausted = "span-constrained linear search exhausted"
    # each plane holds one bit per target containing it; a matrix fits the
    # targets whose bits survive every left plane's image, and images of
    # distinct planes are distinct, so at equal sizes it maps onto them
    held_by = {}
    for bit, (_, planes, _) in enumerate(targets):
        for j in planes:
            held_by[j] = held_by.get(j, 0) | 1 << bit
    everyone = (1 << len(targets)) - 1
    image_index = _image_indexer(space, k)
    left_rows = [s.rows for s in left.members()]
    for m in matrices:
        fits = everyone
        for rows in left_rows:
            fits &= held_by.get(image_index(m.rows, rows), 0)
            if not fits:
                break
        else:
            reason, _, post = targets[(fits & -fits).bit_length() - 1]
            witness = induced_map(space, SemilinearMap(space.field, m), k)
            return Similarity("yes", witness if post is None else post.compose(witness), reason)
    return Similarity("no", None, exhausted)
