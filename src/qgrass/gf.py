"""Exact arithmetic in small finite fields GF(p^m) and their automorphism groups.

Field elements are integer codes in [0, q).  The base-p digits of a code
are the coefficients of the residue polynomial, least significant digit
first; for prime fields the code is simply the residue mod p.  Arithmetic
goes through q x q lookup tables built once at construction, so inner
loops never reduce polynomials.
"""

from __future__ import annotations

from itertools import product

SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

# Fixed monic irreducible moduli, coefficients low degree first, so element
# codes are reproducible bit for bit across runs.
_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1
    8: (1, 1, 0, 1),      # x^3 + x + 1
    9: (1, 0, 1),         # x^2 + 1
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
}


class UnsupportedOrderError(ValueError):
    """Field order outside the supported set."""


def _factor_prime_power(q):
    for p in (2, 3, 5, 7, 11, 13):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 else None
    return None


def _poly_rem(a, b, p):
    """Remainder of a mod b over GF(p); b monic, coefficients low first."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    while da >= db and any(a):
        if a[da]:
            c = a[da]
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * b[i]) % p
        da -= 1
    return tuple(a[:db])


def _is_irreducible(mod, p):
    m = len(mod) - 1
    if mod[m] != 1:
        return False
    for d in range(1, m // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = tuple(tail) + (1,)
            if not any(_poly_rem(mod, g, p)):
                return False
    return True


class Automorphism:
    """A Frobenius power x -> x^(p^j); j = 0 is the identity."""

    __slots__ = ("field", "exp", "_table")

    def __init__(self, field, exp, table):
        self.field = field
        self.exp = exp
        self._table = table

    def __call__(self, a):
        return self._table[a]

    def compose(self, other):
        """self after other."""
        if other.field is not self.field:
            raise ValueError("automorphisms over different fields")
        return self.field.frobenius((self.exp + other.exp) % self.field.m)

    def inverse(self):
        return self.field.frobenius((-self.exp) % self.field.m)

    @property
    def is_identity(self):
        return self.exp == 0

    @property
    def is_involution(self):
        return (2 * self.exp) % self.field.m == 0

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.field.q == other.field.q
            and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.field.q, self.exp))

    def __repr__(self):
        return f"Frob({self.field.q}, p^{self.exp})"


class Field:
    """GF(p^m) for p^m <= 16, with precomputed operation tables."""

    __slots__ = ("q", "p", "m", "modulus", "_add", "_mul", "_neg", "_inv", "_frobs")

    def __init__(self, q):
        # the order is checked before factoring, which never ends on 0
        pm = _factor_prime_power(q) if q in SUPPORTED_ORDERS else None
        if pm is None:
            raise UnsupportedOrderError(f"unsupported field order {q}")
        self.q = q
        self.p, self.m = pm
        self.modulus = _MODULI.get(q, (0, 1)) if self.m > 1 else None
        if self.m > 1 and not _is_irreducible(self.modulus, self.p):
            raise UnsupportedOrderError(f"modulus for GF({q}) is reducible")

        p, m = self.p, self.m
        polys = [self._decode(c) for c in range(q)]
        self._add = [
            [self._encode(tuple((x + y) % p for x, y in zip(polys[a], polys[b])))
             for b in range(q)]
            for a in range(q)
        ]
        self._neg = [self._encode(tuple((-x) % p for x in polys[a])) for a in range(q)]
        mul = []
        for a in range(q):
            row = []
            for b in range(q):
                conv = [0] * (2 * m - 1)
                for i, x in enumerate(polys[a]):
                    if x:
                        for j, y in enumerate(polys[b]):
                            conv[i + j] = (conv[i + j] + x * y) % p
                if m > 1:
                    row.append(self._encode(_poly_rem(conv, self.modulus, p)))
                else:
                    row.append(conv[0])
            mul.append(row)
        self._mul = mul

        self._inv = [None] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    self._inv[a] = b
                    break
            if self._inv[a] is None:
                raise UnsupportedOrderError(f"GF({q}) table is not a field")

        self._frobs = tuple(
            Automorphism(self, j, tuple(self._pow(a, p**j) for a in range(q))) for j in range(m)
        )

    def _decode(self, code):
        p = self.p
        return tuple((code // p ** i) % p for i in range(self.m))

    def _encode(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def _pow(self, a, e):
        r = 1
        for _ in range(e):
            r = self._mul[r][a]
        return r

    # element operations -------------------------------------------------

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def div(self, a, b):
        return self._mul[a][self.inv(b)]

    @property
    def elements(self):
        return range(self.q)

    @property
    def one(self):
        return 1

    @property
    def zero(self):
        return 0

    # automorphisms -------------------------------------------------------

    def frobenius(self, j):
        return self._frobs[j % self.m]

    def automorphisms(self):
        """All field automorphisms, identity first; cyclic of order m."""
        return self._frobs

    @property
    def identity_automorphism(self):
        return self.frobenius(0)

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))

    def __repr__(self):
        return f"GF({self.q})"


_FIELDS: dict[int, Field] = {}


def field(q) -> Field:
    """Shared Field instance for the given order."""
    f = _FIELDS.get(q)
    if f is None:
        f = _FIELDS[q] = Field(q)
    return f
