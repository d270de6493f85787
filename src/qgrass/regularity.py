"""Regular subsets of a Grassmannian: certificate-producing regularity
decisions, associated coordinate systems, maximality, exactness, the degree
of inexactness, coordinate-plane sets, and per-axis profiles.

A coordinate system is an unordered set of n independent lines; bases that
differ by scaling or ordering are the same system.  A plane set is regular
when some system has every member among its coordinate k-planes.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, islice
from math import comb, factorial, prod
from operator import and_, or_
from weakref import WeakValueDictionary

from .grassmann import PlaneSet, Subspace, TooLargeError, _Record, _subspace_of_mask, incidence_set


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
    tuple of their G_1 indices (G_1 is in `Subspace.key` order).  Read-only,
    as `associated_systems` hands the same object to every caller."""

    __slots__ = ("space", "line_indices", "__weakref__")

    def __init__(self, space, lines):
        lines = tuple(sorted(lines, key=Subspace.key))
        if len(lines) != space.n or any(l.k != 1 for l in lines):
            raise ValueError(f"a coordinate system needs {space.n} lines")
        indices = tuple(space.grassmannian(1).index(l) for l in lines)
        if not _independent(space, indices):
            raise ValueError("coordinate lines must be independent")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "line_indices", indices)

    @classmethod
    def from_line_indices(cls, space, indices):
        """The system of an ascending tuple of independent line indices, as
        the searches yield them; not re-checked."""
        system = cls.__new__(cls)
        object.__setattr__(system, "space", space)
        object.__setattr__(system, "line_indices", indices)
        return system

    def __reduce__(self):
        return type(self).from_line_indices, (self.space, self.line_indices)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

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


@cache
def _shared_systems(space):
    """The live systems of the space that searches returned, by line indices
    (cached)."""
    return WeakValueDictionary()


def _shared_system(space, indices):
    """The system of the line indices, the one already held if there is one."""
    shared = _shared_systems(space)
    return shared.get(indices) or shared.setdefault(indices, CoordinateSystem.from_line_indices(space, indices))


def _require_middle_dimension(gr):
    """Refuse k outside 1..n-1, where regularity and irregularity are not defined."""
    if not 1 <= gr.k <= gr.n - 1:
        raise ValueError(f"regularity needs 1 <= k <= {gr.n - 1} at n={gr.n}; the set has k={gr.k}")


def associated_systems(plane_set, limit=None):
    """All coordinate systems whose coordinate k-planes contain every member,
    in canonical order; empty exactly when the set is not regular.  With a
    limit, the first `limit` of them (none when it is negative): the search
    stops at the last one taken.  Systems are shared and read-only: while
    one is held, every result naming it holds it."""
    _require_middle_dimension(plane_set.gr)
    space, n, k = plane_set.gr.space, plane_set.gr.n, plane_set.gr.k
    # a regular set lies among one system's C(n, k) coordinate k-planes
    if len(plane_set) > comb(n, k):
        return []
    found = _systems_within(space, k, members=plane_set.indices)
    return [_shared_system(space, i) for i in islice(found, None if limit is None else max(limit, 0))]


def is_regular(plane_set):
    """The first associated coordinate system, or None."""
    found = associated_systems(plane_set, limit=1)
    return found[0] if found else None


def is_maximal_regular(plane_set):
    _require_middle_dimension(plane_set.gr)
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


class AxisRecord(_Record):
    axis: Subspace           # the coordinate line l_i
    planes: PlaneSet         # members of the subset through l_i
    core: Subspace | None    # intersection of those members
    core_dim: int            # dim core, or 0 when no member passes through l_i


class AxisProfile(_Record):
    system: CoordinateSystem
    records: tuple
    exact_axis_count: int    # number of axes whose core is the axis itself


def profile(subset, maximal_superset):
    """Per-axis diagnostics of a regular subset against a maximal superset.

    The subset is exact exactly when every axis of the superset's system is
    recovered as the intersection of the members through it."""
    if not subset.issubset(maximal_superset):
        raise ValueError("profile needs subset <= maximal superset")
    gr = subset.gr
    _require_middle_dimension(gr)
    system = is_regular(maximal_superset) if len(maximal_superset) == comb(gr.n, gr.k) else None
    if system is None:
        raise NotRegularError("profile needs a maximal regular superset")
    masks = gr.space.point_masks(gr.k)
    members = subset.indices
    records = []
    n_exact = 0
    for line, axis in zip(system.line_indices, system.lines):
        through = [i for i in members if masks[i] >> line & 1]
        planes = PlaneSet(gr, through)
        if through:
            core = _subspace_of_mask(gr.space, reduce(and_, (masks[i] for i in through)))
            dim = core.k
        else:
            core, dim = None, 0
        if dim == 1:
            n_exact += 1
        records.append(AxisRecord(axis, planes, core, dim))
    return AxisProfile(system, tuple(records), n_exact)


def hypergraph_view(plane_set, system):
    """Each member as the set of axis positions whose join it is: the
    positions of the system lines among the member's points."""
    _require_middle_dimension(plane_set.gr)
    k = plane_set.gr.k
    masks = plane_set.gr.space.point_masks(k)
    out = []
    for member in plane_set.indices:
        axes = tuple(i for i, line in enumerate(system.line_indices) if masks[member] >> line & 1)
        if len(axes) != k:
            raise ValueError("plane set is not associated with the system")
        out.append(axes)
    return out


def _systems_within(space, k, ok=None, forced=None, members=()):
    """Line-index tuples of coordinate systems, in canonical order; an
    iterator.  With join masks `ok` (`irregularity._join_masks`), every
    coordinate k-plane lies in that set, `forced` being one more, exempt from
    the membership test; in an unforced search, every plane of G_k in
    `members` is a coordinate plane.  `ok=None` tests no membership: at
    k = 1 with no members the search walks all systems.

    The span of the chosen lines is a point bitmask (`Space.span_with`);
    beside it, `compat` masks the lines that join every (k-1)-subset of the
    chosen lines to a plane of the set, and accepting t ANDs in the entry of
    each (k-1)-plane that t spans with k-2 chosen lines.  A member still
    short of k chosen lines is held as its point mask and the lines it needs.
    The candidates at a node are the bits of `compat & ~span` above the last
    chosen line, leaving out those with fewer candidates after them than
    free slots.  A chosen line t is narrowed before it is spanned, and with
    no member left spanned only when the child keeps a candidate outside the
    parent's span (bit-parallel filtering, Knuth, TAOCP 4A, 7.1.3); t is
    dropped when a member needs more lines than the free slots, or than its
    mask holds among the child's candidates.  The node that picks the last
    but one line yields the systems itself: each candidate for the last slot
    that lies in every member still short completes one.  An unforced search
    at k = 2 inside a set starts from `_viable_lines` instead of every line;
    a forced one starts from each independent k-subset of the forced plane's
    points, whose span is the plane itself, with set-up kept per plane
    (`_forced_start`).
    """
    n = space.n
    join_idx = space.line_join_index
    span_with = space.span_with

    def narrow(compat, chosen, t):
        # t itself is the (k-1)-plane at k = 2
        if k == 2:
            return compat & ok[t]
        for sub in combinations(chosen, k - 2):
            compat &= ok[join_idx(sub + (t,), k - 1)]
        return compat

    def extend(chosen, mask, points, compat, above, members):
        slots = n - len(chosen)
        cand = compat & ~mask & above & tails[slots]
        while cand:
            low = cand & -cand
            cand ^= low
            t = low.bit_length() - 1
            free = 0    # with no slot left, each member still short must hold t
            if slots > 1:
                above_t = -(low << 1)
                # narrowed inline at k = 2: a call per node would cost more than the AND
                narrowed = compat if narrow is None else compat & ok[t] if k == 2 else narrow(compat, chosen, t)
                # with no member to prune by, a child with no candidate is neither spanned nor run
                if not members and not narrowed & ~mask & above_t & tails[slots - 1]:
                    continue
                span, span_points = span_with(mask, points, t)
                free = narrowed & above_t & ~span
            left = []
            for plane, need in members:
                if plane & low:
                    if need == 1:
                        continue
                    need -= 1
                if need >= slots or (plane & free).bit_count() < need:
                    break
                left.append((plane, need))
            else:
                if slots > 2:
                    yield from extend(chosen + (t,), span, span_points, narrowed, above_t, left)
                    continue
                # each bit of `last` completes a system (t itself when one slot was free)
                last, head = (free & tails[1], chosen + (t,)) if slots == 2 else (low, chosen)
                for plane, _ in left:
                    last &= plane
                while last:
                    bit = last & -last
                    last ^= bit
                    yield head + (bit.bit_length() - 1,)

    def through_forced(mask, points, bases):
        for base in bases:
            compat = start
            if narrow is not None:
                for i, t in enumerate(base):
                    compat = narrow(compat, base[:i], t)
            for system in extend(base, mask, points, compat, -1, ()):
                yield tuple(sorted(system))

    # set once per search, not tested per node: no narrowing without a set, or at k = 1
    if ok is None:
        narrow, start = None, -1        # -1: every line
    elif k == 1:
        narrow, start = None, ok[0]
    else:
        start = _viable_lines(space, ok) if k == 2 and forced is None else -1
    if forced is None:
        # fewer than n candidates leave every tail empty: no search is run
        lines = range(len(space.grassmannian(1)))
        tails = _tail_masks(n, lines if start == -1 else [t for t in lines if start >> t & 1])
        masks = space.point_masks(k)
        # returned, not delegated to: one generator level less on every yield
        return extend((), 0, (), start, -1, [(masks[p], k) for p in members])
    tails, mask, points, bases = _forced_start(space, k, forced)
    return through_forced(mask, points, bases)


def _tail_masks(n, cands):
    """By free slots, up to n: the lines up to the last candidate that leaves
    enough candidates after it (none when there are too few)."""
    return [0] + [(2 << cands[-slots]) - 1 if slots <= len(cands) else 0 for slots in range(1, n + 1)]


@cache
def _forced_start(space, k, forced):
    """Where a search forced through the plane `forced` of G_k starts: the
    tail masks over the lines outside it, its span (point mask and points),
    and the independent k-subsets of its points, each of which spans it
    (cached)."""
    mask = space.point_masks(k)[forced]
    points = (forced,) if k == 1 else space.incidence(1, k)[forced]
    outside = [t for t in range(len(space.grassmannian(1))) if not mask >> t & 1]
    # two distinct points are independent lines; three may be collinear
    bases = [base for base in combinations(points, k) if k < 3 or _independent(space, base)]
    return _tail_masks(space.n, outside), mask, points, bases


def _viable_lines(space, ok):
    """The lines that can lie on a system inside the set with join masks `ok`
    at k = 2, as a bitmask: the points of the set's planes (the OR of `ok`)
    shrunk to a fixpoint, where a line t stays only while its pooled joins
    `ok[t] & pool` span F^n, that is lie in no hyperplane through t, t being
    one of them (arc consistency, Mackworth 1977).

    Sound: every other line of a system inside the set joins t to a plane of
    the set, so it lies in `ok[t]` and, by induction, in the pool, and with t
    those lines span F^n.  A system's lines are never dropped, so the search
    on the pool yields the same systems in the same order.
    """
    n = space.n
    hyperplanes, through = space.point_masks(n - 1), space.incidence(n - 1, 1)
    pool = reduce(or_, ok)
    changed = True
    while changed:
        changed = False
        rest = pool
        while rest:
            low = rest & -rest
            rest ^= low
            t = low.bit_length() - 1
            joins = ok[t] & pool
            if joins.bit_count() < n or any(joins & ~hyperplanes[h] == 0 for h in through[t]):
                pool ^= low
                changed = True
    return pool


_MAX_SYSTEMS = 100_000     # keeps F_2^5 (83,328 systems) and F_3^4 (63,180)


@cache
def all_coordinate_systems(space):
    """Every coordinate system of the space, canonically ordered (cached).
    Above `_MAX_SYSTEMS` of them, |GL(n, q)| / ((q - 1)^n n!) (ordered bases
    up to scaling and order), `TooLargeError` is raised before any search."""
    q, n = space.field.q, space.n
    if (count := prod(q**n - q**i for i in range(n)) // ((q - 1) ** n * factorial(n))) > _MAX_SYSTEMS:
        raise TooLargeError(f"F_{q}^{n} has {count} coordinate systems, above {_MAX_SYSTEMS}")
    return [CoordinateSystem.from_line_indices(space, idxs) for idxs in _systems_within(space, 1)]


@cache
def maximal_regular_family(space, k):
    """All maximal regular subsets of G_k as frozensets of indices (cached)."""
    return tuple(frozenset(sys_.coordinate_planes(k).indices) for sys_ in all_coordinate_systems(space))
