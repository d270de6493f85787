"""Verification harness: named desk-scale checks, each running one verified
statement over an exhaustive or seeded-random envelope and returning a
machine-readable result with certificates or a concrete counterexample.

Check identifiers are stable tokens used by the command line; the statement
strings below describe what each check establishes, self-contained.
"""

from __future__ import annotations

import random
from functools import partial, reduce
from itertools import combinations, permutations, product
from math import comb
from operator import and_

from .forms import (
    BilinearForm,
    dot_form,
    form_map,
    singular_restriction_planes,
    standard_symplectic,
    symplectic_basis,
)
from .gf import field as get_field
from .grassmann import (
    GrassmannMap,
    PlaneSet,
    Space,
    Subspace,
    _Record,
    _subspace_cert,
    gaussian_binomial,
    maximal_adjacent_families,
    meet,
)
from .irregularity import (
    STATUS_CONTAINS_MAXIMAL_REGULAR,
    STATUS_MAXIMAL_IRREGULAR,
    characteristics,
    complete_to_maximal_irregular,
    deficient_irregular,
    deficient_irregular_dual,
    is_irregular,
    is_maximal_irregular,
    planes_cohyperplanar,
    planes_meeting,
    restricted_status,
)
from .linalg import Mat, _rref_rows
from .maps import SemilinearMap, induced_map
from .reconstruction import ftpg_reconstruct, is_independence_preserving
from .regularity import (
    CoordinateSystem,
    _degree,
    _systems_within,
    all_coordinate_systems,
    associated_systems,
    exactness_threshold,
    hypergraph_view,
    is_regular,
)


class InfeasibleScopeError(ValueError):
    """Requested parameters are outside the check's documented envelope."""


class CheckResult(_Record):
    check_id: str
    passed: bool
    scope: str
    details: dict = dict            # called: a new dict per record
    counterexample: dict | None = None


def _require(cond, envelope):
    if not cond:
        raise InfeasibleScopeError(envelope)


def _planes(plane_set, key="planes", **extra):
    """Counterexample payload naming a plane set by its members' certificates."""
    return {key: [_subspace_cert(s) for s in plane_set.members()], **extra}


# ---------------------------------------------------------------------------
# randomized generators (seeded)


def random_invertible(field, n, rng):
    while True:
        rows = tuple(tuple(rng.randrange(field.q) for _ in range(n)) for _ in range(n))
        m = Mat(field, rows)
        if m.rank() == n:
            return m


def random_semilinear(space, rng):
    sigma = space.field.frobenius(rng.randrange(space.field.m))
    return SemilinearMap(space.field, random_invertible(space.field, space.n, rng), sigma)


def _alternating_rows(field, n, fill):
    """Gram rows with zero diagonal, entries (i, j), i < j, taken from `fill`
    row by row, and entry (j, i) = -entry (i, j)."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), a in zip(combinations(range(n), 2), fill):
        rows[i][j] = a
        rows[j][i] = field.neg(a)
    return rows


def random_alternating_gram(field, n, rng):
    """Random nonsingular Gram with zero diagonal and entry (j,i) = -entry (i,j)."""
    while True:
        fill = [rng.randrange(field.q) for _ in range(comb(n, 2))]
        m = Mat(field, _alternating_rows(field, n, fill))
        if m.rank() == n:
            return m


def random_nonsingular_form(space, rng):
    return BilinearForm(space.field, random_invertible(space.field, space.n, rng))


def random_irregular(space, k, rng):
    """A random irregular subset of G_k, mixing punctured meeting sets and
    filtered raw subsets, in at most 200 draws."""
    gk = space.grassmannian(k)
    for _ in range(200):
        if rng.random() < 0.5:
            dim = rng.randrange(1, space.n - k + 1)
            s = Subspace.span(
                space.field,
                space.n,
                [tuple(rng.randrange(space.field.q) for _ in range(space.n)) for _ in range(dim)],
            )
            if s.k == 0:
                continue
            base = planes_meeting(space, s, k)
            size = rng.randrange(2, len(base) + 1)
            cand = PlaneSet(gk, rng.sample(base.indices, size))
            if is_regular(cand) is None:
                return cand
        else:
            size = rng.randrange(3, max(4, len(gk) // 2))
            cand = PlaneSet(gk, rng.sample(range(len(gk)), size))
            if is_irregular(cand):
                return cand
    raise RuntimeError("failed to sample an irregular set")


# ---------------------------------------------------------------------------
# sweeps and extremal shapes of the degree theorems


# The extremal shapes, each as a test of whether the coordinate k-plane
# with axis set a belongs to the shape for the ordered pair of axes (h, j).
_SHAPES = {
    # all coordinate k-planes through axis h
    "pencil": lambda a, h, j: h in a,
    # all coordinate k-planes avoiding axis h
    "trace": lambda a, h, j: h not in a,
    # that trace plus the pencil through the coordinate 2-plane {h, j}: the
    # only shape of degree exactly 1 among large regular sets
    "trace+pencil": lambda a, h, j: h not in a or {h, j} <= a,
}


def _shapes(n, k, *names):
    """Axis-set hypergraphs of the named shapes over every ordered pair of
    axes, as one set to look views up in."""
    axes = [frozenset(a) for a in combinations(range(n), k)]
    return {
        frozenset(a for a in axes if _SHAPES[name](a, h, j))
        for name in names
        for h, j in permutations(range(n), 2)
    }


def _regular_subset_sweep(space, k, min_size, systems=None):
    """Every subset of at least the given size of the coordinate k-planes of
    the given systems, each exactly once, in system order; by default the
    systems are all of them, so these are the regular subsets of G_k."""
    seen = set()
    for system in all_coordinate_systems(space) if systems is None else systems:
        planes = system.coordinate_planes(k)
        members = planes.indices
        for size in range(min_size, len(members) + 1):
            for subset in combinations(members, size):
                if subset not in seen:
                    seen.add(subset)
                    yield PlaneSet(planes.gr, subset)


def _degree_sweep(sweep, top, shapes, zero_above=None):
    """The degree theorems' loop: every swept set has degree at most `top`,
    equal to it exactly when one of its axis-set views (one per associated
    system) is in `shapes`, and degree 0 above `zero_above` members.
    Returns the sets checked, those of degree `top`, and the first
    counterexample or None."""
    checked = extremal = 0
    for rp in sweep:
        checked += 1
        systems = associated_systems(rp)
        d, _ = _degree(rp, systems)
        shape = any(
            frozenset(frozenset(a) for a in hypergraph_view(rp, s)) in shapes for s in systems
        )
        if d > top or (d == top) != shape or (zero_above is not None and len(rp) > zero_above and d):
            return checked, extremal, _planes(rp, degree=d, shape=shape)
        extremal += d == top
    return checked, extremal, None


# ---------------------------------------------------------------------------
# checks


def check_remark_2_2_1(q, n, k, rng):
    """Threshold identity: c(n-1,k) + c(n-2,k-2) = c(n,k) - c(n-2,k-1)."""
    bad = []
    for nn in range(3, 9):
        for kk in range(2, nn - 1):
            lhs = exactness_threshold(nn, kk)
            rhs = comb(nn, kk) - comb(nn - 2, kk - 1)
            if lhs != rhs:
                bad.append((nn, kk, lhs, rhs))
    return CheckResult(
        "remark-2.2.1",
        not bad,
        "all (n, k) with 3 <= n <= 8 and 1 < k < n-1",
        {"instances": sum(max(0, nn - 3) for nn in range(3, 9))},
        {"violations": bad} if bad else None,
    )


def check_prop_1_1_2(q, n, k, rng):
    """Hyperbolic bases exist and re-express every nonsingular alternating
    Gram as the standard block pattern; odd-dimensional alternating Grams
    are all singular."""
    _require(q in (2, 3) and n in (4, 6), "q in {2, 3}, n in {4, 6}")
    f = get_field(q)
    trials = 200
    expected = standard_symplectic(f, n).gram
    for _ in range(trials):
        gram = random_alternating_gram(f, n, rng)
        form = BilinearForm(f, gram)
        basis = symplectic_basis(form)
        vs = basis.vectors()
        re_expressed = Mat(f, [tuple(form.evaluate(a, b) for b in vs) for a in vs])
        if re_expressed != expected:
            return CheckResult(
                "prop-1.1.2",
                False,
                f"{trials} random nonsingular alternating Grams over GF({q}), dim {n}",
                {},
                {"gram": [list(r) for r in gram.rows]},
            )
    odd_counts = {}
    for nn in (3, 5):
        entries = comb(nn, 2)
        total = 0
        if q ** entries <= 2048:
            fills = product(range(q), repeat=entries)
        else:
            fills = (tuple(rng.randrange(q) for _ in range(entries)) for _ in range(500))
        for fill in fills:
            rows = _alternating_rows(f, nn, fill)
            total += 1
            if _rref_rows(f, rows, nn)[1] == nn:
                return CheckResult(
                    "prop-1.1.2",
                    False,
                    "odd-dimensional alternating Grams",
                    {},
                    {"dim": nn, "gram": rows},
                )
        odd_counts[nn] = total
    return CheckResult(
        "prop-1.1.2",
        True,
        f"{trials} random nonsingular alternating Grams over GF({q}) in dim {n}; "
        f"odd dims 3, 5 scanned ({odd_counts[3]} and {odd_counts[5]} Grams)",
        {"trials": trials, "odd_grams_scanned": odd_counts},
    )


def check_prop_1_4_2(q, n, k, rng):
    """Maximal pairwise-adjacent families are exactly the stars and tops."""
    _require(1 < k < n - 1, "1 < k < n-1")
    space = Space.get(q, n)
    _require(gaussian_binomial(n, k, q) <= 200, "|G_k| <= 200")
    fams = maximal_adjacent_families(space, k)
    stars = sum(1 for _, kind, _ in fams if kind == "star")
    tops = sum(1 for _, kind, _ in fams if kind == "top")
    want_stars = len(space.grassmannian(k - 1))
    want_tops = len(space.grassmannian(k + 1))
    adj = space.adjacency_masks(k)
    for fam, kind, center in fams:
        members = fam.indices
        common = reduce(and_, (adj[i] for i in members))   # no plane is adjacent to itself
        if common:
            return CheckResult(
                "prop-1.4.2",
                False,
                f"all maximal adjacent families of G_{k}^{n}(GF({q}))",
                {},
                {"family": list(members), "extendable_by": (common & -common).bit_length() - 1},
            )
    ok = stars == want_stars and tops == want_tops
    return CheckResult(
        "prop-1.4.2",
        ok,
        f"all {len(fams)} maximal adjacent families of G_{k}^{n}(GF({q})), "
        "maximality re-verified plane by plane",
        {"stars": stars, "tops": tops, "expected": [want_stars, want_tops]},
        None if ok else {"stars": stars, "tops": tops},
    )


def check_thm_1_3_1(q, n, k, rng):
    """Exhaustive fundamental-theorem run: the independence-preserving line
    transformations are exactly the semilinearly induced ones."""
    _require((q, n) == (2, 3), "(q, n) = (2, 3)")
    space = Space.get(q, n)
    g1 = space.grassmannian(1)
    passed = 0
    for perm in permutations(range(len(g1))):
        f = GrassmannMap._unchecked(g1, g1, perm)
        if is_independence_preserving(space, f):
            passed += 1
            h = ftpg_reconstruct(space, f)
            if induced_map(space, h, 1) != f:
                return CheckResult(
                    "thm-1.3.1", False, "all 5040 line permutations", {}, {"perm": list(perm)}
                )
    expected = 168  # order of the projective linear group on the 7 lines
    return CheckResult(
        "thm-1.3.1",
        passed == expected,
        "all 5040 permutations of the 7 lines of GF(2)^3, both directions",
        {"independence_preserving": passed, "expected": expected},
        None if passed == expected else {"count": passed},
    )


def check_thm_2_2_1(q, n, k, rng):
    """Regular sets with at least c(n-1,k)+c(n-2,k-2) members have degree of
    inexactness at most 1, with equality exactly for the extremal shape."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = Space.get(q, n)
    threshold = exactness_threshold(n, k)
    checked, deg1, bad = _degree_sweep(
        _regular_subset_sweep(space, k, threshold), 1, _shapes(n, k, "trace+pencil"), threshold
    )
    where = f"regular subsets of G_{k}^{n}(GF({q})) with >= {threshold} members"
    if bad:
        return CheckResult("thm-2.2.1", False, f"all {where}", {"checked": checked}, bad)
    return CheckResult(
        "thm-2.2.1",
        True,
        f"all {checked} {where}, every coordinate system swept",
        {"checked": checked, "degree_1_sets": deg1, "threshold": threshold},
    )


def check_thm_2_2_2(q, n, k, rng):
    """Degree-2 classification for large regular sets; for line sets the
    degree is n - |R| exactly."""
    space = Space.get(q, n)
    if k == 1:
        # G_1 of F^1 has a single system, so the statement needs n >= 2
        _require(q == 2 and 2 <= n <= 4, "k = 1 with q = 2, 2 <= n <= 4")
        checked = 0
        for rp in _regular_subset_sweep(space, 1, 0):
            checked += 1
            d, _ = _degree(rp, associated_systems(rp))
            if d != n - len(rp):
                return CheckResult(
                    "thm-2.2.2",
                    False,
                    "all independent line sets",
                    {"checked": checked},
                    _planes(rp, "lines", degree=d),
                )
        return CheckResult(
            "thm-2.2.2",
            True,
            f"all {checked} regular line sets of G_1^{n}(GF({q})): degree = n - |R|",
            {"checked": checked},
        )

    _require(1 < k < n - 1, "1 < k < n-1")
    if n == 2 * k:
        _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2) for the middle case")
        threshold = comb(n - 1, k)
        sweep = _regular_subset_sweep(space, k, threshold)
        shapes = _shapes(n, k, "pencil", "trace")
        scope = (
            f"all regular subsets of G_{k}^{n}(GF({q})) with >= {threshold} members, "
            "every coordinate system swept"
        )
    else:
        _require(q == 2 and n == 5 and k in (2, 3), "(q, n) = (2, 5), k in {2, 3}")
        threshold = comb(n - 1, k - 1) if n - k < k else comb(n - 1, k)
        base = CoordinateSystem.from_line_indices(space, next(_systems_within(space, 1)))
        systems = [base]
        for _ in range(10):
            h = SemilinearMap(space.field, random_invertible(space.field, n, rng))
            systems.append(CoordinateSystem(space, [h.apply_subspace(l) for l in base.lines]))
        sweep = _regular_subset_sweep(space, k, threshold, systems)
        shapes = _shapes(n, k, "pencil" if n - k < k else "trace")
        scope = (
            f"all size >= {threshold} subsets of the coordinate k-planes of the first "
            f"canonical system of G_{k}^{n}(GF({q})) plus 10 random transported systems"
        )
    checked, deg2, bad = _degree_sweep(sweep, 2, shapes)
    if bad:
        return CheckResult("thm-2.2.2", False, scope, {"checked": checked}, bad)
    return CheckResult(
        "thm-2.2.2", True, scope, {"checked": checked, "degree_2_sets": deg2, "threshold": threshold}
    )


def _meeting_status_failures(space, k, s):
    n, m = space.n, s.k
    full = len(space.grassmannian(k))
    x = planes_meeting(space, s, k)
    y = planes_cohyperplanar(space, s, k)
    fails = []
    if m > n - k and len(x) != full:
        fails.append("meeting set must cover everything")
    if m < n - k and len(y) != full:
        fails.append("cohyperplanar set must cover everything")
    if m <= n - k and not is_irregular(x):
        fails.append("meeting set must be irregular")
    if m >= n - k and not is_irregular(y):
        fails.append("cohyperplanar set must be irregular")
    if m == n - k and x != y:
        fails.append("sets must coincide at complementary dimension")
    if m <= n - k and is_maximal_irregular(x) != (m == n - k):
        fails.append("meeting set maximal exactly at complementary dimension")
    return fails


def check_prop_3_1_3(q, n, k, rng):
    """Meeting and cohyperplanar sets: coverage, irregularity, and maximality
    exactly at complementary dimension, where the two sets coincide."""
    _require(1 < k < n - 1, "1 < k < n-1")
    space = Space.get(q, n)
    _require(gaussian_binomial(n, k, q) <= 200, "|G_k| <= 200")
    subspaces = [s for m in range(1, n) for s in space.grassmannian(m)]
    for s in subspaces:
        fails = _meeting_status_failures(space, k, s)
        if fails:
            return CheckResult(
                "prop-3.1.3",
                False,
                f"all subspaces of GF({q})^{n}",
                {"checked": len(subspaces)},
                {"s": _subspace_cert(s), "failures": fails},
            )
    return CheckResult(
        "prop-3.1.3",
        True,
        f"all {len(subspaces)} nonzero proper subspaces of GF({q})^{n}, k = {k}",
        {"checked": len(subspaces)},
    )


def _meeting_families(space, k):
    """(s, meeting set of s) for every s with 1 <= dim s <= n-k, and (s,
    cohyperplanar set of s) for every s with n-k <= dim s < n."""
    n = space.n
    meeting = [(s, planes_meeting(space, s, k)) for m in range(1, n - k + 1) for s in space.grassmannian(m)]
    cohyperplanar = [
        (s, planes_cohyperplanar(space, s, k)) for m in range(n - k, n) for s in space.grassmannian(m)
    ]
    return meeting, cohyperplanar


def _sample_irregular_family(space, k, rng, count):
    """Irregular sets from constructors plus seeded random ones."""
    meeting, cohyperplanar = _meeting_families(space, k)
    out = [x for _, x in meeting + cohyperplanar]
    if space.n % 2 == 0:
        out.append(singular_restriction_planes(space, standard_symplectic(space.field, space.n), k))
    out.extend(random_irregular(space, k, rng) for _ in range(count))
    return out


def check_prop_3_2_1(q, n, k, rng):
    """Characteristic bounds for irregular sets: the saturated-line span has
    dimension at most n-k and the saturated-hyperplane core at least n-k."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = Space.get(q, n)
    sets = _sample_irregular_family(space, k, rng, 500)
    for ps in sets:
        ch = characteristics(ps)
        if ch.line_span_dim > n - k or ch.hyperplane_core_dim < n - k:
            return CheckResult(
                "prop-3.2.1",
                False,
                f"{len(sets)} irregular sets",
                {},
                _planes(ps, line_span_dim=ch.line_span_dim, hyperplane_core_dim=ch.hyperplane_core_dim),
            )
    return CheckResult(
        "prop-3.2.1",
        True,
        f"{len(sets)} irregular sets (every meeting/cohyperplanar set, the symplectic "
        "singular-restriction set, and 500 seeded random irregular sets)",
        {"sets": len(sets)},
    )


def check_thm_3_2_1(q, n, k, rng):
    """Maximal irregular sets contain the meeting set of their line span and
    the cohyperplanar set of their hyperplane core; dropping maximality
    breaks the first inclusion."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = Space.get(q, n)
    sets = []
    for s in space.grassmannian(n - k):
        sets.append(planes_meeting(space, s, k))
    for _ in range(40):
        sets.append(complete_to_maximal_irregular(random_irregular(space, k, rng)))
    sets.append(_first_construction(space, k)[2])
    for ps in sets:
        ch = characteristics(ps)
        for base, family, side in (
            (ch.line_span, planes_meeting, "line span"),
            (ch.hyperplane_core, planes_cohyperplanar, "hyperplane core"),
        ):
            if base is not None and base.k >= 1 and not family(space, base, k).issubset(ps):
                return CheckResult("thm-3.2.1", False, "maximal irregular sets", {}, _planes(ps, side=side))
    # counterexample without maximality: a punctured meeting set keeps the
    # line span but loses the inclusion
    s = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    l = space.subspace([(1, 0, 0, 0), (0, 0, 1, 0)])
    x = planes_meeting(space, s, k)
    punctured = x.without_index(space.grassmannian(k).index(l))
    ch = characteristics(punctured)
    reproduced = (
        0 < meet(l, s).k < n - k
        and ch.line_span == s
        and not planes_meeting(space, ch.line_span, k).issubset(punctured)
        and is_irregular(punctured)
        and not is_maximal_irregular(punctured)
    )
    return CheckResult(
        "thm-3.2.1",
        reproduced,
        f"{len(sets)} maximal irregular sets (all complementary-dimension meeting sets, "
        "40 seeded completions, one deficient construction); non-maximal counterexample reproduced",
        {"sets": len(sets), "counterexample_reproduced": reproduced},
    )


def check_thm_3_2_2(q, n, k, rng):
    """Traces of irregular sets on complements never contain a maximal
    regular subset of the sub-Grassmannian."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = Space.get(q, n)
    sets = [planes_meeting(space, s, k) for s in space.grassmannian(n - k)]
    for _ in range(30):
        sets.append(random_irregular(space, k, rng))
    checked = 0
    for ps in sets:
        ch = characteristics(ps)
        # saturated lines against transverse hyperplanes, then saturated
        # hyperplanes against transverse lines
        for saturated, complements in (
            (ch.saturated_lines, space.grassmannian(n - 1)),
            (ch.saturated_hyperplanes, space.grassmannian(1)),
        ):
            for u in saturated.members():
                for t in complements:
                    if meet(u, t).k != 0:
                        continue
                    checked += 1
                    if restricted_status(ps, t) == STATUS_CONTAINS_MAXIMAL_REGULAR:
                        return CheckResult(
                            "thm-3.2.2", False, "irregular traces", {"checked": checked},
                            _planes(ps, t=_subspace_cert(t)),
                        )
    return CheckResult(
        "thm-3.2.2",
        True,
        f"{len(sets)} irregular sets, {checked} (saturated subspace, transverse complement) pairs",
        {"sets": len(sets), "checked": checked},
    )


def _first_construction(space, k, dual=False):
    """Base s, carrier t and result of the first canonical instance of the
    deficient construction: s is the first subspace of dimension n-k-1 and t
    the first (k+1)-space meeting it trivially; n-k+1 and k-1 for the dual."""
    step = 1 if dual else -1
    s = space.grassmannian(space.n - k + step)[0]
    t = next(tt for tt in space.grassmannian(k - step) if meet(s, tt).k == 0)
    return s, t, (deficient_irregular_dual if dual else deficient_irregular)(space, s, t).result


def check_deficient_construction(q, n, k, rng, dual):
    """thm-3.2.3: the deficient construction yields a maximal irregular set
    containing the meeting set of its base s, with line-span dimension
    dim s = n-k-1 and a trace on the carrier that is not maximal irregular
    there.  thm-3.2.4 (dual): containing the cohyperplanar set of s, with
    hyperplane-core dimension dim s = n-k+1, and the same kind of trace."""
    _require(q == 2 and (n, k) in ((4, 2), (5, 2), (5, 3)), "(q, n, k) in {(2,4,2), (2,5,2), (2,5,3)}")
    space = Space.get(q, n)
    s, t, built = _first_construction(space, k, dual)
    family, dim = (planes_cohyperplanar, "hyperplane_core_dim") if dual else (planes_meeting, "line_span_dim")
    got = getattr(characteristics(built), dim)
    status = restricted_status(built, t)
    ok = (
        is_maximal_irregular(built)
        and family(space, s, k).issubset(built)
        and got == s.k
        and status not in (STATUS_MAXIMAL_IRREGULAR, STATUS_CONTAINS_MAXIMAL_REGULAR)
    )
    return CheckResult(
        "thm-3.2.4" if dual else "thm-3.2.3",
        ok,
        f"first canonical {'dual ' if dual else ''}construction instance at (q, n, k) = ({q}, {n}, {k})",
        {"size": len(built), dim: got, "trace_status": status},
        None if ok else _planes(built, status=status),
    )


def check_lemma_3_2_1(q, n, k, rng):
    """Form-defined bijections swap and complement the two characteristics."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    forms = [
        dot_form(space.field, n),
        standard_symplectic(space.field, n),
        random_nonsingular_form(space, rng),
    ]
    sets = [planes_meeting(space, s, k) for s in space.grassmannian(2)][:10]
    for _ in range(100):
        size = rng.randrange(1, len(gk))
        sets.append(PlaneSet(gk, rng.sample(range(len(gk)), size)))
    checked = 0
    for form in forms:
        fmap = form_map(space, form, k)
        for ps in sets:
            checked += 1
            image = fmap.apply_set(ps)
            ci, cf = characteristics(ps), characteristics(image)
            if cf.line_span_dim != n - ci.hyperplane_core_dim or cf.hyperplane_core_dim != n - ci.line_span_dim:
                return CheckResult(
                    "lemma-3.2.1", False, "form-map duality", {"checked": checked},
                    _planes(ps, gram=[list(r) for r in form.gram.rows]),
                )
    return CheckResult(
        "lemma-3.2.1",
        True,
        f"{len(sets)} plane sets (meeting sets and seeded random sets) under 3 forms",
        {"checked": checked},
    )


def check_cor_3_2_2(q, n, k, rng):
    """Whenever a meeting set and a cohyperplanar set both sit inside one
    irregular set at admissible dimensions, their bases are nested."""
    _require((q, n, k) == (2, 4, 2), "(q, n, k) = (2, 4, 2)")
    space = Space.get(q, n)
    xs, ys = _meeting_families(space, k)
    sets = [x for s, x in xs if s.k == n - k]
    for _ in range(60):
        sets.append(complete_to_maximal_irregular(random_irregular(space, k, rng)))
    checked = 0
    for ps in sets:
        for s1, x in xs:
            if not x.issubset(ps):
                continue
            for s2, y in ys:
                if not y.issubset(ps):
                    continue
                checked += 1
                if not s2.contains(s1):
                    return CheckResult(
                        "cor-3.2.2", False, "nesting of included meeting/cohyperplanar bases",
                        {"checked": checked},
                        _planes(ps, s1=_subspace_cert(s1), s2=_subspace_cert(s2)),
                    )
    return CheckResult(
        "cor-3.2.2",
        True,
        f"{len(sets)} irregular sets, {checked} nested inclusion pairs",
        {"sets": len(sets), "pairs": checked},
    )


CHECKS = {
    "remark-2.2.1": (
        check_remark_2_2_1,
        "binomial identity relating the exactness threshold to the full count",
        "any parameters; the identity is scanned over a fixed (n, k) grid",
    ),
    "prop-1.1.2": (
        check_prop_1_1_2,
        "hyperbolic bases for nonsingular alternating forms; none exist in odd dimension",
        "q in {2, 3}, n in {4, 6}",
    ),
    "prop-1.4.2": (
        check_prop_1_4_2,
        "maximal pairwise-adjacent families are exactly the stars and the tops",
        "1 < k < n-1 with |G_k| <= 200",
    ),
    "thm-1.3.1": (
        check_thm_1_3_1,
        "independence-preserving line transformations are exactly the induced ones",
        "(q, n) = (2, 3), exhaustive over all 5040 line permutations",
    ),
    "thm-2.2.1": (
        check_thm_2_2_1,
        "large regular sets have degree of inexactness at most 1, extremal shape classified",
        "(q, n, k) = (2, 4, 2), exhaustive over all coordinate systems",
    ),
    "thm-2.2.2": (
        check_thm_2_2_2,
        "degree at most 2 above the stated size threshold, equality cases classified; "
        "for line sets the degree is n - |R|",
        "(2, 4, 2), and k = 1 with q = 2, 2 <= n <= 4, exhaustive; (2, 5, 2) and (2, 5, 3) "
        "over the canonical system plus random transported systems",
    ),
    "prop-3.1.3": (
        check_prop_3_1_3,
        "meeting/cohyperplanar sets: coverage, irregularity, maximality at complementary dimension",
        "1 < k < n-1 with |G_k| <= 200",
    ),
    "prop-3.2.1": (
        check_prop_3_2_1,
        "characteristic bounds for irregular sets",
        "(q, n, k) = (2, 4, 2)",
    ),
    "thm-3.2.1": (
        check_thm_3_2_1,
        "maximal irregular sets contain the meeting/cohyperplanar sets of their characteristics",
        "(q, n, k) = (2, 4, 2)",
    ),
    "thm-3.2.2": (
        check_thm_3_2_2,
        "traces on transverse complements contain no maximal regular subset of the trace Grassmannian",
        "(q, n, k) = (2, 4, 2)",
    ),
    "thm-3.2.3": (
        partial(check_deficient_construction, dual=False),
        "deficient construction: maximal irregular, line span one short of maximal, non-maximal trace",
        "(q, n, k) in {(2, 4, 2), (2, 5, 2), (2, 5, 3)}",
    ),
    "thm-3.2.4": (
        partial(check_deficient_construction, dual=True),
        "dual deficient construction with hyperplane core one beyond complementary dimension",
        "(q, n, k) in {(2, 4, 2), (2, 5, 2), (2, 5, 3)}",
    ),
    "lemma-3.2.1": (
        check_lemma_3_2_1,
        "form-defined bijections complement-swap the two characteristics",
        "(q, n, k) = (2, 4, 2)",
    ),
    "cor-3.2.2": (
        check_cor_3_2_2,
        "nested bases when both a meeting and a cohyperplanar set embed in one irregular set",
        "(q, n, k) = (2, 4, 2)",
    ),
}


def run_check(check_id, q, n, k, seed=0):
    entry = CHECKS.get(check_id)
    if entry is None:
        raise KeyError(f"unknown check id {check_id!r}; known: {', '.join(sorted(CHECKS))}")
    fn = entry[0]
    return fn(q, n, k, random.Random(seed))
