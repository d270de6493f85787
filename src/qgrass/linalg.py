"""Exact dense matrix algebra over a small finite field.

Matrices are immutable tuples of row tuples of element codes.  Everything
is canonical: rref is the unique reduced row echelon form, kernel bases
come out in rref, and solve zeroes the free variables, so downstream
certificates are reproducible.
"""

from __future__ import annotations


class ShapeError(ValueError):
    """Non-conformant matrix shapes."""


class SingularMatrixError(ValueError):
    """Inversion of a singular matrix."""


def _rref_rows(field, rows, ncols):
    """In-place style rref on a list of row lists; returns (rows, rank, pivots)."""
    R = [list(r) for r in rows]
    m = len(R)
    add, mul, neg = field._add, field._mul, field._neg
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, m):
            if R[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        R[r], R[pr] = R[pr], R[r]
        if R[r][c] != 1:
            scale = mul[field.inv(R[r][c])]
            R[r] = [scale[x] for x in R[r]]
        row = R[r]
        for i in range(m):
            if i != r and R[i][c]:
                Ri = R[i]
                minus_f = mul[neg[Ri[c]]]     # Ri - f row = Ri + (-f) row, by table
                for j in range(c, ncols):
                    if row[j]:
                        Ri[j] = add[Ri[j]][minus_f[row[j]]]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return R, r, tuple(pivots)


class Mat:
    """An immutable matrix over a Field; rows is a tuple of row tuples."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ShapeError("ragged rows")
        self.field = field
        self.rows = rows

    @classmethod
    def identity(cls, field, n):
        return cls(field, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, field, r, c):
        return cls(field, tuple((0,) * c for _ in range(r)))

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def rref(self):
        """Unique reduced row echelon form: (R, rank, pivot columns)."""
        R, rank, pivots = _rref_rows(self.field, self.rows, self.ncols)
        return Mat(self.field, R), rank, pivots

    def rank(self):
        return _rref_rows(self.field, self.rows, self.ncols)[1]

    def kernel(self):
        """Canonical (rref) basis of {x : A x^t = 0}, one row per free column."""
        n = self.ncols
        R, rank, pivots = _rref_rows(self.field, self.rows, n)
        pivset = set(pivots)
        neg = self.field.neg
        basis = []
        for f in range(n):
            if f in pivset:
                continue
            v = [0] * n
            v[f] = 1
            for i, p in enumerate(pivots):
                if R[i][f]:
                    v[p] = neg(R[i][f])
            basis.append(v)
        B, _, _ = _rref_rows(self.field, basis, n)
        return Mat(self.field, B[: n - rank])

    def mul(self, other):
        if self.field is not other.field and self.field != other.field:
            raise ShapeError("fields differ")
        if self.ncols != other.nrows:
            raise ShapeError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        f = self.field
        add, mul = f.add, f._mul
        bt = tuple(zip(*other.rows)) if other.rows else ()
        out = []
        for ar in self.rows:
            row = []
            for bc in bt:
                acc = 0
                for x, y in zip(ar, bc):
                    if x and y:
                        acc = add(acc, mul[x][y])
                row.append(acc)
            out.append(tuple(row))
        return Mat(f, out)

    __matmul__ = mul

    def inv(self):
        n = self.nrows
        if n != self.ncols:
            raise ShapeError("inverse of a non-square matrix")
        aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        R, rank, pivots = _rref_rows(self.field, aug, 2 * n)
        if rank < n or any(p >= n for p in pivots):
            raise SingularMatrixError("matrix is singular")
        return Mat(self.field, [tuple(r[n:]) for r in R[:n]])

    def transpose(self):
        return Mat(self.field, tuple(zip(*self.rows)) if self.rows else ())

    def solve(self, b):
        """Some x with A x^t = b^t, free variables zeroed; None if inconsistent."""
        if len(b) != self.nrows:
            raise ShapeError("rhs length mismatch")
        n = self.ncols
        aug = [list(r) + [v] for r, v in zip(self.rows, b)]
        R, _, pivots = _rref_rows(self.field, aug, n + 1)
        if n in pivots:
            return None
        x = [0] * n
        for i, p in enumerate(pivots):
            x[p] = R[i][n]
        return tuple(x)

    def map_entries(self, fn):
        return Mat(self.field, tuple(tuple(fn(x) for x in r) for r in self.rows))

    def scale(self, a):
        mul = self.field._mul[a]
        return Mat(self.field, tuple(tuple(mul[x] for x in r) for r in self.rows))

    def stack(self, other):
        if self.rows and other.rows and self.ncols != other.ncols:
            raise ShapeError("column counts differ")
        return Mat(self.field, self.rows + other.rows)

    def apply(self, v):
        """Matrix times column vector, returned as a tuple."""
        if len(v) != self.ncols:
            raise ShapeError("vector length mismatch")
        f = self.field
        add, mul = f.add, f._mul
        out = []
        for r in self.rows:
            acc = 0
            for x, y in zip(r, v):
                if x and y:
                    acc = add(acc, mul[x][y])
            out.append(acc)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.field.q == other.field.q and self.rows == other.rows

    def __hash__(self):
        return hash((self.field.q, self.rows))

    def __repr__(self):
        return f"Mat(GF({self.field.q}), {list(map(list, self.rows))})"


class EchelonBasis:
    """Incremental independence tracker: rows kept forward-eliminated."""

    __slots__ = ("field", "pivots", "rows")

    def __init__(self, field, rows=()):
        self.field = field
        self.pivots = []
        self.rows = []
        for r in rows:
            self.add(r)

    def copy(self):
        c = EchelonBasis(self.field)
        c.pivots = list(self.pivots)
        c.rows = list(self.rows)
        return c

    def reduce(self, v):
        f = self.field
        v = list(v)
        for p, row in zip(self.pivots, self.rows):
            if v[p]:
                c = v[p]
                mulc = f._mul[c]
                sub = f.sub
                for j in range(p, len(v)):
                    if row[j]:
                        v[j] = sub(v[j], mulc[row[j]])
        return v

    def add(self, v):
        """Add v if independent of current rows; returns True when added."""
        f = self.field
        v = self.reduce(v)
        for p, x in enumerate(v):
            if x:
                if x != 1:
                    mul = f._mul[f.inv(x)]
                    v = [mul[y] for y in v]
                self.pivots.append(p)
                self.rows.append(tuple(v))
                return True
        return False

    @property
    def rank(self):
        return len(self.rows)
