"""Classification of Grassmannian transformations: semilinear reconstruction
from a line transformation (the fundamental theorem of projective geometry,
run as an algorithm), distance-preservation testing, the adjacency-based
classifier, and the regular-transformation classifier.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import combinations
from operator import and_, itemgetter

from .forms import _symplectic_map, standard_symplectic
from .grassmann import PlaneSet, _Record
from .irregularity import contains_maximal_regular
from .linalg import Mat
from .maps import SemilinearMap, _row_planes, induced_map, induces
from .regularity import _independent, _systems_within


class NotIndependencePreservingError(ValueError):
    def __init__(self, witness):
        super().__init__("transformation does not preserve line independence")
        self.witness = witness


class AutomorphismMismatchError(ValueError):
    """The recovered coordinate action is not a field automorphism; the input
    table is corrupted."""


class NotDistancePreservingError(ValueError):
    def __init__(self, witness):
        super().__init__("transformation does not preserve the plane distance")
        self.witness = witness


class NotRegularTransformationError(ValueError):
    def __init__(self, witness):
        super().__init__("transformation does not preserve maximal regular sets")
        self.witness = witness


class ClassificationResult(_Record):
    """Outcome of a classifier.

    kind "linear" means the table is induced by `map`; "form_composed" means
    the table sends s to the `form`-orthogonal complement of map(s).
    `verified` is True on every returned result: the line table is compared
    in full, and the plane table follows by the star argument of
    `_line_descent`.
    """

    kind: str                      # linear | form_composed
    map: SemilinearMap | None = None
    form: object | None = None
    verified: bool = False
    witness: object | None = None


def independence_violation(space, f):
    """A hyperplane whose line set maps to no hyperplane's line set, or None.

    Checking every hyperplane both ways is equivalent to preservation of all
    independent line collections; the first in index order is named.  Lines
    are distinct bits, so the point mask of a hyperplane's image under f or
    its inverse is the sum of its lines' image bits.
    """
    _check_line_table(space, f)
    n, forward, backward = space.n, [1 << j for j in f.table], [0] * len(f.table)
    for i, j in enumerate(f.table):
        backward[j] = 1 << i
    hyperplanes = space.mask_index(n - 1)
    for hi, row in enumerate(space.incidence(1, n - 1)):
        for image in (forward, backward):
            if sum(map(image.__getitem__, row)) not in hyperplanes:
                return space.grassmannian(n - 1)[hi]
    return None


def _check_line_table(space, f):
    if space.n < 3:
        raise ValueError("independence preservation needs dimension >= 3")
    if f.domain.k != 1 or f.codomain.k != 1:
        raise ValueError("expected a transformation of the line Grassmannian")


def is_independence_preserving(space, f):
    return independence_violation(space, f) is None


def ftpg_reconstruct(space, f):
    """Reconstruct the semilinear map inducing a line transformation.

    Runs the classical argument constructively over the standard basis:
    rescale image representatives through the images of the lines of
    e_1 + e_i, read the coordinate automorphism off the images of the lines
    of e_1 + a e_2 (each scale or value is the c with u + c v on the image
    line, u and v independent, found by one line lookup per candidate c),
    match it against the Frobenius powers, assemble the matrix, and verify
    the induced table equals the input everywhere.  Only when that fails is
    independence scanned (induced tables preserve it); a hyperplane the scan
    names is raised in place of the rebuild's error.
    """
    _check_line_table(space, f)
    try:
        return _rebuild(space, f)
    except ValueError:
        witness = independence_violation(space, f)
        if witness is not None:
            raise NotIndependencePreservingError(witness) from None
        raise


def _rebuild(space, f):
    """The verified map of `ftpg_reconstruct`; a ValueError if none exists."""
    n = space.n
    field = space.field
    add, mul = field._add, field._mul
    line_of = space.vector_lines()

    def coordinates(u, v, cs):  # the line of u + c v -> c, for c in cs
        return {line_of[tuple([add[x][mul[c][y]] for x, y in zip(u, v)])]: c for c in cs}

    def coordinate(found, v):  # the c whose line is the image of v's
        c = found.get(f.table[line_of[v]])
        if c is None:
            raise AutomorphismMismatchError("image line escapes its coordinate plane")
        return c

    unit = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    y_prime = [space.grassmannian(1)[f.table[line_of[e]]].rows[0] for e in unit]
    ys = [y_prime[0]]
    for i in range(1, n):
        mixed = tuple(field.add(a, b) for a, b in zip(unit[0], unit[i]))
        scale = coordinate(coordinates(y_prime[0], y_prime[i], range(1, field.q)), mixed)
        ys.append(tuple(field.mul(scale, x) for x in y_prime[i]))

    sigma_of = coordinates(ys[0], ys[1], field.elements)
    sigma_table = [
        coordinate(sigma_of, tuple(field.add(x, field.mul(a, y)) for x, y in zip(unit[0], unit[1])))
        for a in field.elements
    ]
    sigma = None
    for candidate in field.automorphisms():
        if all(candidate(a) == sigma_table[a] for a in range(field.q)):
            sigma = candidate
            break
    if sigma is None:
        raise AutomorphismMismatchError("recovered action is not a field automorphism")

    matrix = Mat(field, tuple(zip(*ys)))
    result = SemilinearMap(field, matrix, sigma)
    if induced_map(space, result, 1) != f:
        raise AutomorphismMismatchError("reconstructed map does not reproduce the table")
    return result


def distance_violation(space, f):
    """A pair (i, j), i < j, of plane indices whose distance changes under f,
    or None.

    Image distances are read on the codomain, so a form map G_k -> G_{n-k}
    is tested too.  Each plane's row of distances is compared in one step
    with the image row read in the order of f; both matrices are symmetric,
    so in the first row i that differs every change lies at some j > i.
    """
    d = space.distance_matrix(f.domain.k)
    d_image = space.distance_matrix(f.codomain.k)
    t = f.table
    if len(t) < 2:
        return None
    image_order = itemgetter(*t)
    for i, row in enumerate(d):
        image_row = image_order(d_image[t[i]])
        if image_row != tuple(row):
            break
    else:
        return None
    # Lemma: two-way adjacency preservation is equivalent to full distance
    # preservation, so some adjacency changes too; checked as an internal
    # consistency guard (a table that keeps every distance keeps every
    # adjacency, and f is a bijection, so one direction suffices).
    adjacent = (1).__eq__
    if all(
        list(map(adjacent, image_order(d_image[t[r]]))) == list(map(adjacent, d[r]))
        for r in range(len(t))
    ):
        raise RuntimeError("adjacency and distance preservation disagree")
    return i, next(j for j in range(i + 1, len(t)) if row[j] != image_row[j])


def is_distance_preserving(space, f):
    return distance_violation(space, f) is None


def _line_descent(space, f):
    """Classify a transformation of G_k, 1 <= k <= n-1, on the line
    Grassmannian.

    When n = 2k and the planes through line 0 map onto the planes inside a
    hyperplane, the table is composed with the standard symplectic form map
    first; one such row tells the form-composed class apart, since a
    semilinear map sends the planes through a line to the planes through a
    line.  That form map is built once per space and is its own inverse.
    The (composed) table's action on lines is then read off in one step
    with `induces` and reconstructed there, where `ftpg_reconstruct` checks
    the line table in full.  The k-plane table follows without a check:
    `induces` found that the table maps the star of each line l onto the
    star of h(l), and a plane P lies in the star of each of its lines, so
    its image contains every h(l), hence h(P), and equals it, both being
    k-planes.  The form map is an involution, so a form-composed f is the
    form map after h.  At k = n-1 the matrix is scaled by the first nonzero
    entry of the first row of its inverse, the scalar under which the
    hyperplane table was conjugated to a line table through the dot form;
    scaling leaves the line table as it is.
    """
    k, n = f.domain.k, space.n
    if not 1 <= k <= n - 1:
        raise ValueError("classification needs 1 <= k <= n-1")
    form = None
    work = f
    if k > 1 and n == 2 * k:
        # the star of line 0 has the size of G_k(H), since [2k-1, k-1]_q = [2k-1, k]_q
        if next(_row_planes(space, f.table, k, n - 1, space.incidence(k, 1)[:1])) is not None:
            form = standard_symplectic(space.field, n)
            work = _symplectic_map(space).compose(f)
    lines = work if k == 1 else induces(space, work, 1)
    if lines is None:
        raise RuntimeError("the table induces no transformation of the lines")
    h = ftpg_reconstruct(space, lines)
    if k == n - 1:
        h = h.scaled(next(x for x in h.matrix.inv().rows[0] if x))
    kind = "linear" if form is None else "form_composed"
    return ClassificationResult(kind, map=h, form=form, verified=True)


def chow_classify(space, f):
    """Classify a distance-preserving transformation of G_k, 1 < k < n-1.

    The table is reconstructed first (`_line_descent`: descent to the line
    Grassmannian and reconstruction there).  A reconstruction needs no
    distance scan: the table is induced by a semilinear map, alone or
    followed by a form map, and both preserve distance.  Only when the
    reconstruction fails are the distances compared, to name a pair whose
    distance changes; without one the reconstruction's error stands.
    """
    k = f.domain.k
    if not 1 < k < space.n - 1:
        raise ValueError("adjacency-based classification needs 1 < k < n-1")
    return _certify_first(space, f, _line_descent, distance_violation, NotDistancePreservingError)


def regular_violation(space, f):
    """A maximal regular set whose image or preimage is not one, or None.

    Maximal regular sets are the coordinate-plane sets of the coordinate
    systems, walked lazily in canonical order, and each image and preimage
    is tested directly.  On the line Grassmannian they are the n-sets of
    independent lines, and on the hyperplane Grassmannian the n-sets of
    hyperplanes with no common point (their point masks AND to 0).  In
    between, a set of C(n, k) planes is maximal regular exactly when it
    contains the coordinate planes of some system.
    """
    k, n = f.domain.k, space.n
    t, inv = f.table, f.inverse().table
    if k == 1:
        regular = partial(_independent, space)
    elif k == n - 1:
        masks = space.point_masks(k)

        def regular(hyperplanes):
            return reduce(and_, (masks[i] for i in hyperplanes)) == 0

    else:
        gk = space.grassmannian(k)

        def regular(planes):
            return contains_maximal_regular(PlaneSet(gk, planes)) is not None

    for system in _systems_within(space, 1):
        # a system's lines are its maximal regular set of G_1
        mr = system if k == 1 else [space.line_join_index(c, k) for c in combinations(system, k)]
        if not (regular(t[i] for i in mr) and regular(inv[i] for i in mr)):
            return frozenset(mr)
    return None


def _reconstruct(space, f):
    """Classify f by reconstruction alone: the adjacency-based classifier at
    middle dimensions, the descent to the line Grassmannian at k = 1 and
    k = n-1."""
    if 1 < f.domain.k < space.n - 1:
        return chow_classify(space, f)
    return _line_descent(space, f)


def _certify_first(space, f, reconstruct, violation, error):
    """The result of `reconstruct`, or else `error` raised on the witness of
    the `violation` scan, or else the error the reconstruction raised."""
    try:
        return reconstruct(space, f)
    except (ValueError, RuntimeError):
        witness = violation(space, f)
        if witness is None:
            raise
    raise error(witness)


def is_regular_transformation(space, f):
    try:
        _reconstruct(space, f)
    except (ValueError, RuntimeError):
        return regular_violation(space, f) is None
    return True


def regular_classify(space, f):
    """Classify a regular transformation of G_k.

    The table is reconstructed first.  A reconstruction certifies
    regularity: a semilinear map, alone or followed by a form map, carries
    maximal regular sets to maximal regular sets both ways.  Only when the
    reconstruction fails are the maximal regular sets walked, to name a
    witness; without one the reconstruction's error stands.
    """
    try:
        return _certify_first(space, f, _reconstruct, regular_violation, NotRegularTransformationError)
    except NotDistancePreservingError:
        # a regular table that moves distances contradicts the theory
        raise RuntimeError("regular transformation fails distance preservation") from None
