"""The Grassmannian core: canonical subspaces, enumeration, lattice operations,
the distance metric, incidence sets (stars and tops), geodesics, and maximal
families of pairwise adjacent planes.

A subspace is identified with the unique reduced-row-echelon basis of its
row space, so equality, hashing and ordering are structural.  Spaces and
their Grassmannians are cached so incidence tables are shared.
"""

from __future__ import annotations

from itertools import combinations, compress, product

from .gf import field as get_field
from .linalg import EchelonBasis, Mat, _rref_rows

MAX_AMBIENT_DIM = 6
MAX_GRASSMANNIAN = 100_000   # planes; G_2(F_4^6), 93,093 planes, is the largest below it

_BITS = bytes.maketrans(b"01", b"\x00\x01")   # binary digits to selector bytes


class TooLargeError(ValueError):
    """Enumeration request beyond the supported desk scale."""


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class Subspace:
    """A k-dimensional subspace of F^n held as its rref basis (k rows)."""

    __slots__ = ("field", "n", "rows", "_hash")

    def __init__(self, field, n, rows):
        # rows must already be a canonical rref basis; use span() otherwise
        self.field = field
        self.n = n
        self.rows = rows
        self._hash = hash((field.q, n, rows))

    @classmethod
    def span(cls, field, n, rows):
        """Canonicalize the span of arbitrary row vectors (may drop rank)."""
        for r in rows:
            if len(r) != n:
                raise ValueError("vector length differs from ambient dimension")
        R, rank, _ = _rref_rows(field, rows, n)
        return cls(field, n, tuple(tuple(r) for r in R[:rank]))

    @property
    def k(self):
        return len(self.rows)

    def key(self):
        return tuple(x for r in self.rows for x in r)

    def basis(self):
        return Mat(self.field, self.rows)

    def contains_vector(self, v):
        eb = EchelonBasis(self.field, self.rows)
        return not any(eb.reduce(v))

    def contains(self, other):
        """Set containment: other is a subspace of self."""
        if other.n != self.n:
            raise ValueError("ambient dimensions differ")
        if other.k > self.k:
            return False
        eb = EchelonBasis(self.field, self.rows)
        return all(not any(eb.reduce(r)) for r in other.rows)

    def vectors(self):
        """All q^k vectors of the subspace, in coefficient-code order."""
        f, n = self.field, self.n
        for coeffs in product(f.elements, repeat=self.k):
            v = [0] * n
            for c, row in zip(coeffs, self.rows):
                if c:
                    mul = f._mul[c]
                    for j, x in enumerate(row):
                        if x:
                            v[j] = f.add(v[j], mul[x])
            yield tuple(v)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field.q == other.field.q
            and self.n == other.n
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subspace(GF({self.field.q})^{self.n}, {list(map(list, self.rows))})"


def _subspace_cert(s):
    """A subspace as its rref rows in lists, as reports and certificates
    print it."""
    return [list(r) for r in s.rows]


def join(a, b):
    _check_pair(a, b)
    return Subspace.span(a.field, a.n, a.rows + b.rows)


def meet(a, b):
    """Intersection, via the kernel of the stacked dual constraints."""
    _check_pair(a, b)
    if a.k == 0 or b.k == 0:
        return Subspace(a.field, a.n, ())
    if a.k == a.n:
        return b
    if b.k == b.n:
        return a
    ka = Mat(a.field, a.rows).kernel()
    kb = Mat(b.field, b.rows).kernel()
    return Subspace.span(a.field, a.n, ka.stack(kb).kernel().rows)


def distance(a, b):
    """k - dim(a intersect b); equals dim(join) - k."""
    _check_pair(a, b)
    if a.k != b.k:
        raise ValueError("distance needs equal dimensions")
    rank = _rref_rows(a.field, a.rows + b.rows, a.n)[1]
    return rank - a.k


def geodesic(a, b):
    """A shortest chain a = l_0, ..., l_d = b of consecutively adjacent planes.

    Built from a vector window: pick rows spanning a beyond the meet, the
    meet itself, then rows spanning b beyond the meet, and slide a width-k
    window along the concatenation.
    """
    _check_pair(a, b)
    if a.k != b.k:
        raise ValueError("geodesic needs equal dimensions")
    m = meet(a, b)
    d = a.k - m.k
    if d == 0:
        return [a]
    ext_a = _extension_rows(m, a)
    ext_b = _extension_rows(m, b)
    xs = ext_a + list(m.rows) + ext_b
    k = a.k
    return [Subspace.span(a.field, a.n, tuple(xs[j : j + k])) for j in range(d + 1)]


def _extension_rows(base, target):
    eb = EchelonBasis(target.field, base.rows)
    out = []
    for r in target.rows:
        if eb.add(r):
            out.append(r)
    return out


def _check_pair(a, b):
    if a.field.q != b.field.q or a.n != b.n:
        raise ValueError("subspaces live in different ambient spaces")


class Grassmannian:
    """All k-dimensional subspaces of F^n in lexicographic basis-code order."""

    __slots__ = ("space", "field", "n", "k", "members", "_index")

    def __init__(self, space, k):
        self.space = space
        self.field = space.field
        self.n = space.n
        self.k = k
        size = gaussian_binomial(self.n, k, self.field.q)
        if size > MAX_GRASSMANNIAN:
            raise TooLargeError(
                f"G_{k}(F_{self.field.q}^{self.n}) has {size} planes, above {MAX_GRASSMANNIAN}"
            )
        self.members = sorted(_generate_rref(space.field, space.n, k), key=Subspace.key)
        self._index = {s: i for i, s in enumerate(self.members)}

    def index(self, s):
        i = self._index.get(s)
        if i is None:
            raise ValueError(f"subspace not in G_{self.k}^{self.n}")
        return i

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i):
        return self.members[i]

    def __repr__(self):
        return f"G_{self.k}^{self.n}(GF({self.field.q})) [{len(self.members)} planes]"


def _generate_rref(field, n, k):
    """Direct generation of all rank-k rref patterns."""
    if k == 0:
        yield Subspace(field, n, ())
        return
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivset
        ]
        base = [[0] * n for _ in range(k)]
        for i, p in enumerate(pivots):
            base[i][p] = 1
        for fill in product(field.elements, repeat=len(free)):
            rows = [list(r) for r in base]
            for (i, c), v in zip(free, fill):
                rows[i][c] = v
            yield Subspace(field, n, tuple(tuple(r) for r in rows))


class Space:
    """An ambient space F_q^n with cached Grassmannians and incidence tables."""

    _cache: dict[tuple[int, int], "Space"] = {}

    def __init__(self, field, n):
        if n < 0 or n > MAX_AMBIENT_DIM:
            raise TooLargeError(f"ambient dimension {n} outside 0..{MAX_AMBIENT_DIM}")
        self.field = field
        self.n = n
        self._grassmannians = {}
        self._incidence = {}
        self._plane_of = {}
        self._join_memo = {}
        self._thirds = {}
        self._vector_lines = None
        self._dist = {}
        self._masks = {}
        self._mask_index = {}
        self._systems = None

    @classmethod
    def get(cls, q, n):
        key = (q, n)
        sp = cls._cache.get(key)
        if sp is None:
            sp = cls._cache[key] = cls(get_field(q), n)
        return sp

    def grassmannian(self, k):
        if k < 0 or k > self.n:
            raise ValueError(f"k={k} outside 0..{self.n}")
        g = self._grassmannians.get(k)
        if g is None:
            g = self._grassmannians[k] = Grassmannian(self, k)
        return g

    def subspace(self, rows):
        return Subspace.span(self.field, self.n, rows)

    @property
    def zero_subspace(self):
        return Subspace(self.field, self.n, ())

    @property
    def full_subspace(self):
        return self.grassmannian(self.n)[0]

    def incidence(self, k, m):
        """For each s in G_m, the sorted tuple of G_k indices incident to s
        (contained in s when k < m, containing s when k > m)."""
        if k == m:
            raise ValueError("incidence needs distinct dimensions")
        key = (k, m)
        table = self._incidence.get(key)
        if table is not None:
            return table
        if k == 1 and m >= 1:
            # the points of each plane: the span of the lines of its rref rows
            line_of = self.vector_lines()
            table = []
            for s in self.grassmannian(m):
                mask, points = 0, ()
                for row in s.rows:
                    mask, points = self.span_with(mask, points, line_of[row])
                table.append(tuple(sorted(points)))
        else:
            small, big = self.point_masks(min(k, m)), self.point_masks(max(k, m))
            if k < m:
                table = [tuple(i for i, a in enumerate(small) if a & b == a) for b in big]
            else:
                table = [tuple(i for i, b in enumerate(big) if a & b == a) for a in small]
        self._incidence[key] = table
        return table

    def plane_of_incidence(self, k, m):
        """Reverse of `incidence(k, m)`: each row's frozenset to its G_m index
        (cached).  Rows tell planes apart unless k is 0 or n."""
        rev = self._plane_of.get((k, m))
        if rev is None:
            rev = self._plane_of[(k, m)] = {frozenset(r): i for i, r in enumerate(self.incidence(k, m))}
        return rev

    def line_join_index(self, line_indices, k):
        """G_k index of the join of the given lines, or None if dim < k."""
        key = (k, tuple(sorted(line_indices)))
        memo = self._join_memo
        if key in memo:
            return memo[key]
        mask, points = 0, ()
        for t in key[1]:
            if not mask >> t & 1:
                mask, points = self.span_with(mask, points, t)
        idx = memo[key] = self.mask_index(k).get(mask)
        return idx

    def point_masks(self, k):
        """For each plane of G_k, the bitmask over G_1 indices of its points
        (cached).  Set operations on masks are lattice operations on planes:
        a lies in b when a & b == a, and the meet of a and b has dimension e
        when a & b has (q^e - 1)/(q - 1) points."""
        masks = self._masks.get(k)
        if masks is None:
            g = self.grassmannian(k)
            if k == 0:
                masks = [0]
            elif k == 1:
                masks = [1 << i for i in range(len(g))]
            else:
                masks = [sum(1 << p for p in row) for row in self.incidence(1, k)]
            self._masks[k] = masks
        return masks

    def mask_index(self, k):
        """Dict from each G_k point mask to its G_k index (cached)."""
        rev = self._mask_index.get(k)
        if rev is None:
            rev = self._mask_index[k] = {a: i for i, a in enumerate(self.point_masks(k))}
        return rev

    def span_with(self, mask, points, t):
        """Extend the span of some lines by the line t outside it.

        A span is held as a bitmask over G_1 indices plus the tuple of those
        indices.  The new points are t and, for each point u already in the
        span, the q - 1 other points of the projective line tu; these sets
        are disjoint, so no dedupe is needed.  The third points of each
        (u, t) are computed once per space, when first asked for, and kept in
        one list per t indexed by u.
        """
        row = self._thirds.get(t)
        if row is None:
            row = self._thirds[t] = [None] * len(self.grassmannian(1))
        bits = 1 << t
        new = [t]
        for u in points:
            hit = row[u]
            if hit is None:
                hit = row[u] = self._third_points(u, t)
            bits |= hit[0]
            new += hit[1]
        return mask | bits, points + tuple(new)

    def _third_points(self, u, t):
        """(bitmask, indices) of the points t + c u, c != 0, of the line tu."""
        g1 = self.grassmannian(1)
        line_of = self.vector_lines()
        add, mul = self.field._add, self.field._mul
        a, b = g1[u].rows[0], g1[t].rows[0]
        pts = tuple(
            line_of[tuple(add[y][mul[c][x]] for x, y in zip(a, b))] for c in range(1, self.field.q)
        )
        return sum(1 << p for p in pts), pts

    def vector_lines(self):
        """Dict from each nonzero vector of F^n to the G_1 index of its line
        (cached)."""
        if self._vector_lines is None:
            self._vector_lines = {
                v: i for i, line in enumerate(self.grassmannian(1)) for v in line.vectors() if any(v)
            }
        return self._vector_lines

    def distance_matrix(self, k):
        """k - dim(a meet b) for every pair of G_k planes, read off the
        popcount of their point masks (cached)."""
        d = self._dist.get(k)
        if d is None:
            dist_of = {gaussian_binomial(e, 1, self.field.q): k - e for e in range(k + 1)}
            masks = self.point_masks(k)
            d = self._dist[k] = [[dist_of[(a & b).bit_count()] for b in masks] for a in masks]
        return d

    def __repr__(self):
        return f"Space(GF({self.field.q})^{self.n})"


class PlaneSet:
    """A sorted, duplicate-free set of members of one Grassmannian, held both
    as the ascending tuple of their indices and as a bitmask with bit i set
    for each member i; set operations are integer operations on the masks."""

    __slots__ = ("gr", "indices", "mask")

    def __init__(self, gr, indices):
        indices = tuple(sorted(set(indices)))
        # checked before any shift: a negative count raises, a large one widens the mask
        if indices and not (0 <= indices[0] and indices[-1] < len(gr)):
            raise ValueError("plane index out of range")
        mask = 0
        for i in indices:
            mask |= 1 << i
        self.gr, self.indices, self.mask = gr, indices, mask

    @classmethod
    def _from_mask(cls, gr, mask):
        """The set whose members are the set bits of a mask below 1 << len(gr)."""
        ps = cls.__new__(cls)
        bits = bin(mask)[:1:-1].encode().translate(_BITS)
        ps.gr, ps.indices, ps.mask = gr, tuple(compress(range(len(bits)), bits)), mask
        return ps

    @classmethod
    def from_subspaces(cls, gr, subspaces):
        return cls(gr, (gr.index(s) for s in subspaces))

    @property
    def iset(self):
        """The members as a frozenset, built on each call."""
        return frozenset(self.indices)

    def members(self):
        g = self.gr
        return [g[i] for i in self.indices]

    def union(self, other):
        self._check(other)
        return self._from_mask(self.gr, self.mask | other.mask)

    def intersection(self, other):
        self._check(other)
        return self._from_mask(self.gr, self.mask & other.mask)

    def difference(self, other):
        self._check(other)
        return self._from_mask(self.gr, self.mask & ~other.mask)

    def issubset(self, other):
        self._check(other)
        return self.mask & ~other.mask == 0

    def with_index(self, i):
        return self.union(PlaneSet(self.gr, (i,)))

    def without_index(self, i):
        return self._from_mask(self.gr, self.mask & ~(1 << i)) if i in self else self

    def complement(self):
        return self._from_mask(self.gr, ((1 << len(self.gr)) - 1) & ~self.mask)

    def _check(self, other):
        if other.gr is not self.gr and (
            other.gr.field.q != self.gr.field.q
            or other.gr.n != self.gr.n
            or other.gr.k != self.gr.k
        ):
            raise ValueError("plane sets on different Grassmannians")

    def __contains__(self, i):
        # mask >> i raises for i < 0; anything but an int is no member
        return isinstance(i, int) and i >= 0 and self.mask >> i & 1 == 1

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __eq__(self, other):
        return (
            isinstance(other, PlaneSet)
            and self.gr.field.q == other.gr.field.q
            and self.gr.n == other.gr.n
            and self.gr.k == other.gr.k
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.gr.field.q, self.gr.n, self.gr.k, self.mask))

    def __repr__(self):
        return f"PlaneSet({self.gr!r}, {len(self.indices)} members)"


class GrassmannMap:
    """A bijection between Grassmannians given extensionally by a table."""

    __slots__ = ("domain", "codomain", "table")

    def __init__(self, domain, codomain, table):
        table = tuple(table)
        if len(table) != len(domain):
            raise ValueError("table length differs from domain size")
        if len(set(table)) != len(codomain) or len(domain) != len(codomain):
            raise ValueError("table is not a bijection")
        self.domain = domain
        self.codomain = codomain
        self.table = table

    @classmethod
    def identity(cls, gr):
        return cls(gr, gr, range(len(gr)))

    def apply(self, s):
        return self.codomain[self.table[self.domain.index(s)]]

    def apply_set(self, ps):
        if ps.gr is not self.domain and ps.gr._index != self.domain._index:
            raise ValueError("plane set not on the domain Grassmannian")
        return PlaneSet(self.codomain, (self.table[i] for i in ps.indices))

    def compose(self, other):
        """self after other."""
        if other.codomain is not self.domain and len(other.codomain) != len(self.domain):
            raise ValueError("maps are not composable")
        if (
            other.codomain.k != self.domain.k
            or other.codomain.n != self.domain.n
            or other.codomain.field.q != self.domain.field.q
        ):
            raise ValueError("maps are not composable")
        return GrassmannMap(other.domain, self.codomain, (self.table[i] for i in other.table))

    def inverse(self):
        inv = [0] * len(self.table)
        for i, j in enumerate(self.table):
            inv[j] = i
        return GrassmannMap(self.codomain, self.domain, inv)

    def is_identity(self):
        return self.domain is self.codomain and all(i == j for i, j in enumerate(self.table))

    def __eq__(self, other):
        return (
            isinstance(other, GrassmannMap)
            and self.domain.field.q == other.domain.field.q
            and self.domain.n == other.domain.n
            and self.domain.k == other.domain.k
            and self.codomain.k == other.codomain.k
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.domain.field.q, self.domain.n, self.domain.k, self.codomain.k, self.table))

    def __repr__(self):
        return f"GrassmannMap(G_{self.domain.k} -> G_{self.codomain.k}, n={self.domain.n}, q={self.domain.field.q})"


def incidence_set(space, s, k):
    """G_k(s): planes contained in s (dim s > k) or containing s (dim s < k)."""
    if s.k == k:
        raise ValueError("incidence set needs dim s != k")
    gk = space.grassmannian(k)
    table = space.incidence(k, s.k)
    return PlaneSet(gk, table[space.grassmannian(s.k).index(s)])


def adjacency_lists(space, k):
    d = space.distance_matrix(k)
    return [frozenset(j for j, dj in enumerate(row) if dj == 1) for row in d]


def _bron_kerbosch(adj, clique, cand, excl, out):
    if not cand and not excl:
        out.append(tuple(sorted(clique)))
        return
    pivot = max(cand | excl, key=lambda v: len(adj[v] & cand))
    for v in sorted(cand - adj[pivot]):
        _bron_kerbosch(adj, clique + [v], cand & adj[v], excl & adj[v], out)
        cand = cand - {v}
        excl = excl | {v}


def maximal_adjacent_families(space, k):
    """All maximal sets of pairwise adjacent planes of G_k, classified.

    Returns a list of (PlaneSet, kind, center) sorted canonically, where
    kind is "star" (center of dimension k-1) or "top" (carrier of dimension
    k+1) and the family equals the incidence set of its center.
    """
    n = space.n
    if not 1 < k < n - 1:
        raise ValueError("maximal adjacent families need 1 < k < n-1")
    gk = space.grassmannian(k)
    adj = adjacency_lists(space, k)
    cliques = []
    _bron_kerbosch(adj, [], set(range(len(gk))), set(), cliques)
    cliques.sort()
    out = []
    for cl in cliques:
        fam = PlaneSet(gk, cl)
        a, b = gk[cl[0]], gk[cl[1]]
        center = meet(a, b)
        if center.k == k - 1 and incidence_set(space, center, k) == fam:
            out.append((fam, "star", center))
            continue
        carrier = join(a, b)
        if carrier.k == k + 1 and incidence_set(space, carrier, k) == fam:
            out.append((fam, "top", carrier))
            continue
        raise RuntimeError("maximal adjacent family is neither a star nor a top")
    return out
