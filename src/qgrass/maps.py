"""Semilinear maps and the Grassmannian transformations they induce, map
algebra, form pullback, and detection of transformations induced between
Grassmannians of different dimensions.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import and_, or_

from .forms import BilinearForm
from .grassmann import GrassmannMap, Subspace
from .linalg import Mat, SingularMatrixError


class SemilinearMap:
    """v -> matrix . sigma(v): the automorphism acts on coordinates first.

    Satisfies f(a x) = sigma(a) f(x); the matrix must be invertible.
    """

    __slots__ = ("field", "n", "sigma", "matrix")

    def __init__(self, field, matrix, sigma=None):
        if matrix.nrows != matrix.ncols:
            raise ValueError("semilinear map needs a square matrix")
        if matrix.rank() != matrix.nrows:
            raise SingularMatrixError("semilinear map needs an invertible matrix")
        self.field = field
        self.n = matrix.nrows
        self.matrix = matrix
        self.sigma = sigma if sigma is not None else field.identity_automorphism

    @classmethod
    def identity(cls, field, n):
        return cls(field, Mat.identity(field, n))

    def apply_vector(self, v):
        return self.matrix.apply(tuple(self.sigma(x) for x in v))

    def apply_subspace(self, s):
        return Subspace.span(self.field, s.n, [self.apply_vector(r) for r in s.rows])

    def compose(self, other):
        """self after other; automorphism exponents add."""
        if other.field.q != self.field.q or other.n != self.n:
            raise ValueError("maps on different spaces")
        m = self.matrix.mul(other.matrix.map_entries(self.sigma))
        return SemilinearMap(self.field, m, self.sigma.compose(other.sigma))

    def inverse(self):
        inv_sigma = self.sigma.inverse()
        m = self.matrix.inv().map_entries(inv_sigma)
        return SemilinearMap(self.field, m, inv_sigma)

    def scaled(self, a):
        if a == 0:
            raise ValueError("zero scaling")
        return SemilinearMap(self.field, self.matrix.scale(a), self.sigma)

    def normal_form(self):
        """Rescale so the first nonzero matrix entry is 1; induced maps see
        semilinear maps only up to scalars."""
        for r in self.matrix.rows:
            for x in r:
                if x:
                    return self.scaled(self.field.inv(x))
        raise SingularMatrixError("zero matrix")

    def same_projective(self, other):
        return (
            self.field.q == other.field.q
            and self.sigma == other.sigma
            and self.normal_form().matrix == other.normal_form().matrix
        )

    def __eq__(self, other):
        return (
            isinstance(other, SemilinearMap)
            and self.field.q == other.field.q
            and self.sigma == other.sigma
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.field.q, self.sigma.exp, self.matrix))

    def __repr__(self):
        return f"SemilinearMap(GF({self.field.q})^{self.n}, sigma=p^{self.sigma.exp})"


def induced_map(space, f, k):
    """The bijection of G_k defined by a semilinear map of the ambient space:
    its line table, lifted to G_k by `induces`.  The line table walks
    `Space._line_recurrence`: a line's row is its parent's plus a e_j, so
    its image is the parent's image plus sigma(a) M e_j, one vector addition
    per line, with the scaled columns built once per map."""
    if f.n != space.n or f.field.q != space.field.q:
        raise ValueError("map and space do not match")
    gk = space.grassmannian(k)
    if len(gk) == 1:
        return GrassmannMap.identity(gk)
    g1 = space.grassmannian(1)
    field, sigma = space.field, f.sigma
    add, mul = field._add, field._mul
    columns = [[tuple([mul[sigma(a)][x] for x in col]) for a in field.elements] for col in zip(*f.matrix.rows)]
    images = []
    for parent, j, a in space._line_recurrence():
        v = columns[j][a]
        images.append(v if parent < 0 else tuple([add[x][y] for x, y in zip(images[parent], v)]))
    lines = GrassmannMap(g1, g1, map(space.vector_lines().__getitem__, images))
    return lines if k == 1 else induces(space, lines, k)


def pullback_form(f, form):
    """f*(Om)(x, y) = Om(f(x), f(y)) for a linear (sigma = Id) map f."""
    if not f.sigma.is_identity:
        raise ValueError("pullback is implemented for linear maps only")
    if f.n != form.n or f.field.q != form.field.q:
        raise ValueError("map and form do not match")
    m = f.matrix
    g = m.transpose().map_entries(form.sigma1).mul(form.gram).mul(m.map_entries(form.sigma2))
    return BilinearForm(form.field, g, form.sigma1, form.sigma2)


def _row_planes(space, t, k, m, rows):
    """Iterator: for each row of G_k indices, the G_m plane whose row in
    `Space.incidence(k, m)` is its image under the bijection t, or None, by
    `mask_index(m)` of the image masks ORed when k < m (the planes inside s
    cover s; a sum at k = 1, lines being distinct bits) or ANDed when k > m
    (the planes through s meet in s); exact for rows of that table's size."""
    masks = space.point_masks(k)
    image = [masks[i] for i in t].__getitem__
    index = space.mask_index(m).get
    fold = sum if k == 1 < m else partial(reduce, or_ if k < m else and_)
    return (index(fold(map(image, row))) for row in rows)


def induces(space, f, m):
    """The transformation of G_m induced by a transformation f of G_k, if any.

    Every incidence set G_k(s) must map under f onto an incidence set;
    otherwise None.  For 0 < k < n that suffices: distinct planes have
    distinct incidence sets and f is a bijection, so the table built is
    injective, hence a bijection, and the inverse of f carries incidence sets
    to incidence sets as well.  A transformation of G_0 or G_n induces none,
    since all G_m planes share the one incidence set there.
    """
    k = f.domain.k
    if m == k:
        raise ValueError("induced transformations need m != k")
    if f.codomain.k != k:
        raise ValueError("induces applies to transformations of one Grassmannian")
    gm = space.grassmannian(m)
    if k in (0, space.n):
        return None
    forward = []
    for s in _row_planes(space, f.table, k, m, space.incidence(k, m)):
        if s is None:
            return None
        forward.append(s)
    return GrassmannMap(gm, gm, forward)
