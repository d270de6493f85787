"""Regular subsets of a Grassmannian: certificate-producing regularity
decisions, associated coordinate systems, maximality, exactness, the degree
of inexactness, coordinate-plane sets, and per-axis profiles.

A coordinate system is an unordered set of n independent lines; bases that
differ by scaling or ordering are the same system.  A plane set is regular
when some system has every member among its coordinate k-planes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .grassmann import PlaneSet, Subspace, incidence_set, join, meet
from .linalg import EchelonBasis


class NotRegularError(ValueError):
    """Operation needs a regular plane set."""


def exactness_threshold(n, k):
    """Size above which a regular set's degree of inexactness is at most 1."""
    return comb(n - 1, k) + comb(n - 2, k - 2)


def _independent(space, lines):
    """Whether the lines, given by G_1 index, are independent: each lies
    outside the span of those before it (`Space.span_with`)."""
    mask, points = 0, ()
    for t in lines:
        if mask >> t & 1:
            return False
        mask, points = space.span_with(mask, points, t)
    return True


class CoordinateSystem:
    """An unordered set of n independent lines of F^n, held as the ascending
    tuple of their G_1 indices (G_1 is in `Subspace.key` order)."""

    __slots__ = ("space", "line_indices")

    def __init__(self, space, lines):
        lines = tuple(sorted(lines, key=Subspace.key))
        if len(lines) != space.n or any(l.k != 1 for l in lines):
            raise ValueError(f"a coordinate system needs {space.n} lines")
        self.line_indices = tuple(space.grassmannian(1).index(l) for l in lines)
        if not _independent(space, self.line_indices):
            raise ValueError("coordinate lines must be independent")
        self.space = space

    @classmethod
    def from_line_indices(cls, space, indices):
        """The system of an ascending tuple of independent line indices, as
        the searches yield them; not re-checked."""
        system = cls.__new__(cls)
        system.space, system.line_indices = space, indices
        return system

    @property
    def lines(self):
        g1 = self.space.grassmannian(1)
        return tuple(g1[i] for i in self.line_indices)

    def coordinate_planes(self, m):
        """All C(n, m) joins of m-subsets of the lines, as a PlaneSet."""
        n = self.space.n
        if not 1 <= m <= n - 1:
            raise ValueError(f"coordinate planes need 1 <= m <= {n - 1}")
        idxs = []
        for chosen in combinations(self.line_indices, m):
            i = self.space.line_join_index(chosen, m)
            if i is None:
                raise RuntimeError("independent lines produced a degenerate join")
            idxs.append(i)
        return PlaneSet(self.space.grassmannian(m), idxs)

    def __eq__(self, other):
        return (
            isinstance(other, CoordinateSystem)
            and self.space.field.q == other.space.field.q
            and self.space.n == other.space.n
            and self.line_indices == other.line_indices
        )

    def __hash__(self):
        return hash((self.space.field.q, self.space.n, self.line_indices))

    def __repr__(self):
        return f"CoordinateSystem(n={self.space.n}, lines={self.line_indices})"


def _covering_system_indices(space, plane_set, limit=None):
    """Yield line-index tuples of systems whose coordinate k-planes cover the
    given planes, in ascending (canonical) order.

    A selection is pruned as soon as some plane cannot reach k chosen lines
    inside it with the candidates that remain.  A set of more than C(n, k)
    planes, the number of coordinate k-planes of one system, is covered by
    none, and no search is run.
    """
    n = space.n
    k = plane_set.gr.k
    if len(plane_set) > comb(n, k):
        return
    g1 = space.grassmannian(1)
    nlines = len(g1)
    if k == 1:
        lines_in = [(i,) for i in range(nlines)]
    else:
        lines_in = space.incidence(1, k)
    targets = [lines_in[p] for p in plane_set.indices]
    line_planes = [[] for _ in range(nlines)]
    for pi, lines in enumerate(targets):
        for t in lines:
            line_planes[t].append(pi)
    counts = [0] * len(targets)
    yielded = 0

    def feasible(next_start, slots):
        for pi, lines in enumerate(targets):
            need = k - counts[pi]
            if need <= 0:
                continue
            if need > slots:
                return False
            if need > len(lines) - bisect_left(lines, next_start):
                return False
        return True

    def rec(start, chosen, basis):
        nonlocal yielded
        if limit is not None and yielded >= limit:
            return
        depth = len(chosen)
        if depth == n:
            if all(c == k for c in counts):
                yielded += 1
                yield tuple(chosen)
            return
        slots = n - depth
        for t in range(start, nlines - slots + 1):
            nb = basis.copy()
            if not nb.add(g1[t].rows[0]):
                continue
            hit = line_planes[t]
            for pi in hit:
                counts[pi] += 1
            if feasible(t + 1, slots - 1):
                yield from rec(t + 1, chosen + (t,), nb)
            for pi in hit:
                counts[pi] -= 1
            if limit is not None and yielded >= limit:
                return

    yield from rec(0, (), EchelonBasis(space.field))


def associated_systems(plane_set, limit=None):
    """All coordinate systems whose coordinate k-planes contain every member,
    in canonical order; empty exactly when the set is not regular."""
    space = plane_set.gr.space
    return [
        CoordinateSystem.from_line_indices(space, idxs)
        for idxs in _covering_system_indices(space, plane_set, limit)
    ]


def is_regular(plane_set):
    """The first associated coordinate system, or None."""
    found = associated_systems(plane_set, limit=1)
    return found[0] if found else None


def is_maximal_regular(plane_set):
    n, k = plane_set.gr.n, plane_set.gr.k
    return len(plane_set) == comb(n, k) and is_regular(plane_set) is not None


def is_exact(plane_set):
    """True when exactly one coordinate system is associated."""
    found = associated_systems(plane_set, limit=2)
    if not found:
        raise NotRegularError("exactness is defined for regular sets")
    return len(found) == 1


def degree(plane_set):
    """Degree of inexactness: (d, witness exact superset of size |R| + d).

    Iterative deepening over d; for each associated system in canonical
    order, each d-subset of its unused coordinate planes is tried, and the
    first exact union wins.  A maximal superset is always exact, so the
    search terminates.  An exact set is its own witness (d = 0).
    """
    return _degree(plane_set, associated_systems(plane_set))


def _degree(plane_set, systems):
    """`degree` given the set's associated systems, from one covering search.

    A system covering R | X also covers R, so it is one of `systems`.  Each
    coordinate plane gets a bitmask over the positions of the systems that
    have it; R | X, with X among the unused planes of system s, is exact
    exactly when the AND of the masks over X is s's bit alone.
    """
    if not systems:
        raise NotRegularError("degree is defined for regular sets")
    if len(systems) == 1:
        return 0, plane_set
    k, members = plane_set.gr.k, plane_set.mask
    held_by = {}
    extras = []
    for pos, sys_ in enumerate(systems):
        planes = sys_.coordinate_planes(k).indices
        for i in planes:
            held_by[i] = held_by.get(i, 0) | 1 << pos
        extras.append(tuple(i for i in planes if not members >> i & 1))
    everyone = (1 << len(systems)) - 1
    for d in range(1, max(len(e) for e in extras) + 1):
        for pos, extra in enumerate(extras):
            for add in combinations(extra, d):
                common = everyone
                for i in add:
                    common &= held_by[i]
                if common == 1 << pos:
                    return d, PlaneSet(plane_set.gr, plane_set.indices + add)
    raise RuntimeError("no exact superset found; maximal sets should be exact")


def restrict(plane_set, s):
    """Members incident to s: the intersection with G_k(s)."""
    if s.k == plane_set.gr.k:
        raise ValueError("restriction needs dim s != k")
    space = plane_set.gr.space
    return plane_set.intersection(incidence_set(space, s, plane_set.gr.k))


@dataclass(frozen=True)
class AxisRecord:
    axis: Subspace           # the coordinate line l_i
    planes: PlaneSet         # members of the subset through l_i
    core: Subspace | None    # intersection of those members
    core_dim: int            # dim core, or 0 when no member passes through l_i


@dataclass(frozen=True)
class AxisProfile:
    system: CoordinateSystem
    records: tuple
    exact_axis_count: int    # number of axes whose core is the axis itself


def profile(subset, maximal_superset):
    """Per-axis diagnostics of a regular subset against a maximal superset.

    The subset is exact exactly when every axis of the superset's system is
    recovered as the intersection of the members through it."""
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
        planes = PlaneSet(gr, through)
        if through:
            core = gr[through[0]]
            for i in through[1:]:
                core = meet(core, gr[i])
            dim = core.k
        else:
            core, dim = None, 0
        if dim == 1:
            n_exact += 1
        records.append(AxisRecord(axis, planes, core, dim))
    return AxisProfile(system, tuple(records), n_exact)


def hypergraph_view(plane_set, system):
    """Each member as the set of axis positions whose join it is."""
    k = plane_set.gr.k
    out = []
    for s in plane_set.members():
        axes = tuple(i for i, l in enumerate(system.lines) if s.contains(l))
        if len(axes) != k:
            raise ValueError("plane set is not associated with the system")
        out.append(axes)
    return out


def _systems_within(space, k, ok, forced=None):
    """Line-index tuples of the coordinate systems all of whose coordinate
    k-planes lie in the set with join masks `ok` (`irregularity._join_masks`),
    with `forced` additionally required to be a coordinate plane, its own
    join exempt from the membership test; an iterator, in canonical order.
    At k = 1 with `ok = [-1]` every line is allowed: the walk over all systems.

    The span of the chosen lines is a point bitmask (`Space.span_with`);
    beside it, `compat` masks the lines that join every (k-1)-subset of the
    chosen lines to a plane of the set, and accepting t ANDs in the entry of
    each (k-1)-plane that t spans with k-2 chosen lines.  The candidates at a
    node are the bits of `compat & ~span` above the last chosen line, leaving
    out those with fewer candidates after them than free slots.  The node
    that picks the last but one line yields the systems itself: each
    candidate for the last slot completes one, with no span or narrowing.
    """
    nlines = len(space.grassmannian(1))
    n = space.n
    join_idx = space.line_join_index
    span_with = space.span_with

    def narrow(compat, chosen, t):
        # t spans no (k-1)-plane with chosen lines at k = 1, and t itself at k = 2
        if k <= 2:
            return compat & ok[t] if k == 2 else compat
        for sub in combinations(chosen, k - 2):
            compat &= ok[join_idx(sub + (t,), k - 1)]
        return compat

    def extend(chosen, mask, points, compat, above):
        slots = n - len(chosen)
        cand = compat & ~mask & above & tails[slots]
        while cand:
            low = cand & -cand
            cand ^= low
            t = low.bit_length() - 1
            if slots > 2:
                yield from extend(
                    chosen + (t,), *span_with(mask, points, t), narrow(compat, chosen, t), -(low << 1)
                )
                continue
            # the systems are yielded here: each bit of `last` completes one
            if slots == 2:
                last = narrow(compat, chosen, t) & ~span_with(mask, points, t)[0] & -(low << 1) & tails[1]
                head = chosen + (t,)
            else:
                last, head = low, chosen
            while last:
                bit = last & -last
                last ^= bit
                yield head + (bit.bit_length() - 1,)

    def tail_masks(cands):
        # by free slots: the lines up to the last candidate that leaves enough candidates after it
        return [0] + [(2 << cands[-slots]) - 1 if slots <= len(cands) else 0 for slots in range(1, n + 1)]

    def through_forced():
        for base in combinations(lines_in, k):
            mask, points, compat = 0, (), start
            for i, t in enumerate(base):
                if mask >> t & 1:
                    break
                mask, points = span_with(mask, points, t)
                compat = narrow(compat, base[:i], t)
            else:
                if k == n:      # the forced plane is the whole space: the base is a system
                    yield base
                for system in extend(base, mask, points, compat, -1):
                    yield tuple(sorted(system))

    start = ok[0] if k == 1 else -1     # -1: every line
    if forced is None:
        tails = tail_masks(range(nlines))
        # returned, not delegated to: one generator level less on every yield
        return extend((), 0, (), start, -1)
    lines_in = (forced,) if k == 1 else space.incidence(1, k)[forced]
    inside = set(lines_in)
    tails = tail_masks([t for t in range(nlines) if t not in inside])
    return through_forced()


def all_coordinate_systems(space):
    """Every coordinate system of the space, canonically ordered (cached)."""
    if space._systems is None:
        space._systems = [
            CoordinateSystem.from_line_indices(space, idxs)
            for idxs in _systems_within(space, 1, [-1])
        ]
    return space._systems


def maximal_regular_family(space, k):
    """All maximal regular subsets of G_k as frozensets of indices (cached)."""
    cache = getattr(space, "_mr_family", None)
    if cache is None:
        cache = space._mr_family = {}
    fam = cache.get(k)
    if fam is None:
        fam = tuple(
            frozenset(sys_.coordinate_planes(k).indices)
            for sys_ in all_coordinate_systems(space)
        )
        cache[k] = fam
    return fam
