"""Bilinear forms twisted by a pair of field automorphisms: evaluation,
nonsingularity, reflexivity and its classification, orthogonal complements,
annihilators, form-induced Grassmannian bijections, and the constructive
hyperbolic basis for symplectic forms.
"""

from __future__ import annotations

from functools import cache

from .linalg import Mat, SingularMatrixError, _rref_rows
from .grassmann import GrassmannMap, PlaneSet, Space, Subspace, _Record

# Above this many vectors the definitional pairwise reflexivity scan is
# replaced by the double-complement criterion on lines.
_REFLEXIVE_SCAN_LIMIT = 4096


class BilinearForm:
    """A form given by its Gram matrix and the slot automorphisms (sigma1, sigma2).

    Evaluation: Om(x, y) = sum_ij gram[i][j] * sigma1(x_i) * sigma2(y_j).
    """

    __slots__ = ("field", "n", "gram", "sigma1", "sigma2", "untwisted")

    def __init__(self, field, gram, sigma1=None, sigma2=None):
        if gram.nrows != gram.ncols:
            raise ValueError("Gram matrix must be square")
        self.field = field
        self.n = gram.nrows
        self.gram = gram
        self.sigma1 = sigma1 if sigma1 is not None else field.identity_automorphism
        self.sigma2 = sigma2 if sigma2 is not None else field.identity_automorphism
        # both slot automorphisms the identity: the form is bilinear
        self.untwisted = self.sigma1.is_identity and self.sigma2.is_identity

    def evaluate(self, x, y):
        if len(x) != self.n or len(y) != self.n:
            raise ValueError("vector length differs from the form's dimension")
        f = self.field
        if not self.untwisted:
            x, y = map(self.sigma1, x), list(map(self.sigma2, y))
        add, mul = f._add, f._mul
        acc = 0
        for xi, row in zip(x, self.gram.rows):
            if xi:
                mx = mul[xi]
                for g, yj in zip(row, y):
                    if g and yj:
                        acc = add[acc][mul[mx[g]][yj]]
        return acc

    def scaled(self, a):
        return BilinearForm(self.field, self.gram.scale(a), self.sigma1, self.sigma2)

    def conjugate(self):
        """The inverse form Om'(x, y) = Om(y, x); slot automorphisms swap."""
        return BilinearForm(self.field, self.gram.transpose(), self.sigma2, self.sigma1)

    def is_nonsingular(self):
        return self.gram.rank() == self.n

    def __eq__(self, other):
        return (
            isinstance(other, BilinearForm)
            and self.field.q == other.field.q
            and self.gram == other.gram
            and self.sigma1 == other.sigma1
            and self.sigma2 == other.sigma2
        )

    def __hash__(self):
        return hash((self.field.q, self.gram, self.sigma1.exp, self.sigma2.exp))

    def __repr__(self):
        return (
            f"BilinearForm(GF({self.field.q}), n={self.n}, "
            f"sigmas=(p^{self.sigma1.exp}, p^{self.sigma2.exp}))"
        )


def dot_form(field, n, sigma1=None, sigma2=None):
    """Om(x, y) = sum sigma1(x_i) sigma2(y_i), the identity Gram matrix."""
    return BilinearForm(field, Mat.identity(field, n), sigma1, sigma2)


def standard_symplectic(field, n):
    """The hyperbolic Gram [[0, I], [-I, 0]] on even dimension n = 2k."""
    if n % 2:
        raise ValueError("symplectic forms need even dimension")
    k = n // 2
    neg1 = field.neg(1)
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        rows[i][k + i] = 1
        rows[k + i][i] = neg1
    return BilinearForm(field, Mat(field, rows))


def _line_reps(form):
    """One nonzero vector per line; scaling never changes vanishing of the form."""
    sp = Space.get(form.field.q, form.n)
    return [s.rows[0] for s in sp.grassmannian(1)]


def is_symplectic(form):
    """Om(x, x) = 0 for every x.  Untwisted, that is a zero diagonal and
    gram[i][j] = -gram[j][i] (the coefficients of the quadratic form, whose
    exponents stay below q); twisted forms are scanned over line representatives."""
    if form.untwisted:
        g, neg = form.gram.rows, form.field._neg
        return all(g[i][j] == neg[g[j][i]] and g[i][i] == 0 for i in range(form.n) for j in range(i + 1))
    ev = form.evaluate
    return all(ev(v, v) == 0 for v in _line_reps(form))


def is_reflexive(form):
    """Om(x, y) = 0 iff Om(y, x) = 0 for all pairs.

    Scanned over projective representatives when feasible, otherwise via
    the double-complement criterion on lines: for a nonsingular form,
    (<x>^perp)^perp is a line, and it contains x exactly when Om(x, y) = 0
    implies Om(y, x) = 0 for every y.
    """
    f = form.field
    if f.q ** form.n <= _REFLEXIVE_SCAN_LIMIT:
        reps = _line_reps(form)
        ev = form.evaluate
        for x in reps:
            for y in reps:
                if (ev(x, y) == 0) != (ev(y, x) == 0):
                    return False
        return True
    if not form.is_nonsingular():
        raise ValueError("double-complement reflexivity scan needs a nonsingular form")
    lines = Space.get(f.q, form.n).grassmannian(1)
    return all(orth_complement(form, orth_complement(form, s)) == s for s in lines)


class FormPredicates(_Record):
    nonsingular: bool
    reflexive: bool
    symmetric: bool
    skew_symmetric: bool
    symplectic: bool
    hermitian: bool
    skew_hermitian: bool


def _is_hermitian(form, skew=False):
    if not form.sigma1.is_identity:
        return False
    s2 = form.sigma2
    if s2.is_identity or not s2.is_involution:
        return False
    g = form.gram
    target = g.transpose().map_entries(s2)
    if skew:
        target = target.scale(form.field.neg(1))
    return g == target


def form_predicates(form):
    """All structural predicates of the form at once."""
    g = form.gram
    f = form.field
    return FormPredicates(
        nonsingular=form.is_nonsingular(),
        reflexive=is_reflexive(form),
        symmetric=g == g.transpose(),
        skew_symmetric=g == g.transpose().scale(f.neg(1)),
        symplectic=is_symplectic(form),
        hermitian=_is_hermitian(form),
        skew_hermitian=_is_hermitian(form, skew=True),
    )


class ReflexiveClass(_Record):
    kind: str  # symmetric | skew_symmetric | scaled_hermitian | not_reflexive
    scalar: int | None = None


def classify_reflexive(form):
    """Which branch of the reflexive-form trichotomy holds (sigma1 = Id only).

    Alternating forms (zero diagonal, Gram = -Gram^t) are reported as
    skew_symmetric even in characteristic 2, where symmetric and
    skew-symmetric coincide as conditions.
    """
    if not form.sigma1.is_identity:
        raise ValueError(
            "classification needs sigma1 = Id; premultiply by sigma1^-1 first"
        )
    if not is_reflexive(form):
        return ReflexiveClass("not_reflexive")
    g = form.gram
    f = form.field
    if form.sigma2.is_identity:
        skew = g == g.transpose().scale(f.neg(1))
        zero_diag = all(g.rows[i][i] == 0 for i in range(form.n))
        if skew and zero_diag:
            return ReflexiveClass("skew_symmetric")
        if g == g.transpose():
            return ReflexiveClass("symmetric")
        if skew:
            return ReflexiveClass("skew_symmetric")
        raise RuntimeError("reflexive (Id, Id)-form is neither symmetric nor skew")
    for a in range(1, f.q):
        if _is_hermitian(form.scaled(a)):
            return ReflexiveClass("scaled_hermitian", a)
    raise RuntimeError("reflexive form with sigma2 != Id admits no hermitian scaling")


def orth_complement(form, u):
    """{ y : Om(x, y) = 0 for all x in u }; dimension n - dim u.

    Each basis row x of u gives the linear constraint
    sum_j (sum_i sigma1(x_i) gram[i][j]) sigma2(y_j) = 0; solve for
    z = sigma2(y) componentwise and pull back through sigma2^-1.
    """
    if not form.is_nonsingular():
        raise SingularMatrixError("orthogonal complement needs a nonsingular form")
    if u.n != form.n:
        raise ValueError("subspace and form dimensions differ")
    if u.k == 0:
        return Subspace.span(u.field, u.n, Mat.identity(u.field, u.n).rows)
    s1 = form.sigma1
    constraints = Mat(form.field, [tuple(s1(x) for x in r) for r in u.rows]).mul(form.gram)
    z_basis = constraints.kernel()
    inv2 = form.sigma2.inverse()
    rows = [tuple(inv2(x) for x in r) for r in z_basis.rows]
    return Subspace.span(form.field, form.n, rows)


def annihilator(u):
    """{ f in V* : f(x) = 0 on u }, in coordinates of the dual basis."""
    if u.k == 0:
        return Subspace.span(u.field, u.n, Mat.identity(u.field, u.n).rows)
    return Subspace.span(u.field, u.n, Mat(u.field, u.rows).kernel().rows)


def form_map(space, form, k):
    """The bijection G_k -> G_{n-k} sending each plane to its complement."""
    if form.n != space.n or form.field.q != space.field.q:
        raise ValueError("form and space do not match")
    if not form.is_nonsingular():
        raise SingularMatrixError("form map needs a nonsingular form")
    gk = space.grassmannian(k)
    gnk = space.grassmannian(space.n - k)
    return GrassmannMap(gk, gnk, (gnk.index(orth_complement(form, s)) for s in gk))


@cache
def _symplectic_map(space):
    """The standard symplectic form map of G_k at n = 2k, built once per space.

    The form is alternating, so the map is an involution: it is its own
    inverse.  `form_map` itself keeps no cache, since its callers pass
    arbitrary forms."""
    return form_map(space, standard_symplectic(space.field, space.n), space.n // 2)


class SymplecticBasis(_Record):
    """A hyperbolic basis x_1..x_k, y_1..y_k with Om(x_i, y_i) = 1 and all
    other basis pairings zero."""

    x: tuple
    y: tuple

    def vectors(self):
        return self.x + self.y


def restricted_gram(form, u):
    """Gram of the form restricted to the rows of u's basis."""
    rows = [tuple(form.evaluate(a, b) for b in u.rows) for a in u.rows]
    return Mat(form.field, rows)


def symplectic_basis(form):
    """A hyperbolic basis for a nonsingular symplectic form, split off pair
    by pair inside the rref rows r_1..r_m of the current span: x = r_m, y the
    last r_j with Om(x, r_j) != 0 rescaled so that Om(x, y) = 1 (the first
    vectors of a coefficient-code scan), and then the rref rows of the
    r_i + Om(y, r_i) x - Om(x, r_i) y, i != j, m: the rest of the span
    orthogonal to x and y."""
    if form.n % 2:
        raise ValueError("odd dimension admits no nonsingular symplectic form")
    if not form.untwisted:
        raise ValueError("hyperbolic bases are built for untwisted forms only")
    if not form.is_nonsingular():
        raise SingularMatrixError("symplectic basis needs a nonsingular form")
    if not is_symplectic(form):
        raise ValueError("form is not symplectic")
    f, n, ev = form.field, form.n, form.evaluate
    add, mul, neg = f._add, f._mul, f._neg
    rows, xs, ys = Mat.identity(f, n).rows, [], []
    while rows:
        x = rows[-1]
        j = max(j for j, r in enumerate(rows) if ev(x, r))   # some r pairs with x: the form is nonsingular
        scale = mul[f.inv(ev(x, rows[j]))]
        y = tuple(scale[t] for t in rows[j])
        rest = []
        for r in rows[:j] + rows[j + 1:-1]:
            a, b = mul[ev(y, r)], mul[neg[ev(x, r)]]
            rest.append([add[add[ri][a[xi]]][b[yi]] for ri, xi, yi in zip(r, x, y)])
        xs.append(x)
        ys.append(y)
        rows = tuple(map(tuple, _rref_rows(f, rest, n)[0]))
    return SymplecticBasis(tuple(xs), tuple(ys))


def singular_restriction_planes(space, form, k):
    """Planes on which the form restricts singularly.

    For a nonsingular symplectic form this is all of G_k when k is odd and a
    proper irregular subset when k is even.
    """
    if not form.is_nonsingular() or not is_symplectic(form):
        raise ValueError("singular restriction set is defined for nonsingular symplectic forms")
    if form.n % 2:
        raise ValueError("odd dimension admits no nonsingular symplectic form")
    gk = space.grassmannian(k)
    hits = [i for i, s in enumerate(gk) if restricted_gram(form, s).rank() < k]
    return PlaneSet(gk, hits)
