import copy
import gc
import pickle
import random
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from qgrass.gf import field
from qgrass.grassmann import PlaneSet, Space, TooLargeError, join
from qgrass.harness import random_semilinear
from qgrass.irregularity import completion_witness, contains_maximal_regular
from qgrass import regularity
from qgrass.regularity import (
    CoordinateSystem,
    NotRegularError,
    all_coordinate_systems,
    associated_systems,
    degree,
    exactness_threshold,
    hypergraph_view,
    is_exact,
    is_maximal_regular,
    is_regular,
    profile,
    restrict,
)


def standard_system(space):
    return all_coordinate_systems(space)[0]


def test_coordinate_planes_counts():
    space = Space.get(2, 4)
    system = standard_system(space)
    for m in range(1, 4):
        assert len(system.coordinate_planes(m)) == comb(4, m)
    assert len(system.coordinate_planes(2)) == 6
    lines = system.coordinate_planes(1)
    assert lines.members() == sorted(system.lines, key=lambda s: s.key())
    with pytest.raises(ValueError):
        system.coordinate_planes(4)


def test_coordinate_system_needs_independent_lines():
    space = Space.get(2, 3)
    l1 = space.subspace([(1, 0, 0)])
    l2 = space.subspace([(0, 1, 0)])
    l3 = space.subspace([(1, 1, 0)])
    with pytest.raises(ValueError):
        CoordinateSystem(space, [l1, l2, l3])


def test_system_count_2_4():
    # number of unordered independent line quadruples of GF(2)^4:
    # |GL(4,2)| / 4! = 20160 / 24
    assert len(all_coordinate_systems(Space.get(2, 4))) == 840


def test_system_count_closed_form(monkeypatch):
    # |GL(n, q)| / ((q - 1)^n n!), read off the refusal under a zero cap; the
    # spaces are made outside Space.get, so no cached list answers first
    monkeypatch.setattr(regularity, "_MAX_SYSTEMS", 0)
    counts = {(2, 2): 3, (2, 3): 28, (3, 3): 234, (4, 3): 1_120, (2, 4): 840, (2, 5): 83_328,
              (3, 4): 63_180, (2, 6): 27_998_208, (3, 5): 123_845_436}
    for (q, n), count in counts.items():
        with pytest.raises(TooLargeError, match=f"^F_{q}\\^{n} has {count} coordinate systems, above 0$"):
            all_coordinate_systems(Space(field(q), n))
        if count < 2_000:
            assert sum(1 for _ in regularity._systems_within(Space.get(q, n), 1)) == count


def test_oversized_system_lists_are_refused_before_any_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(regularity, "_systems_within", no_search)
    for q, n in [(2, 6), (3, 5), (4, 4)]:
        space = Space.get(q, n)
        with pytest.raises(TooLargeError, match="coordinate systems"):
            all_coordinate_systems(space)
        with pytest.raises(TooLargeError):
            regularity.maximal_regular_family(space, 2)


def test_empty_set_is_regular():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    assert is_regular(PlaneSet(g2, [])) is not None


def test_complementary_planes_regular():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    a = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    b = space.subspace([(0, 0, 1, 0), (0, 0, 0, 1)])
    ps = PlaneSet.from_subspaces(g2, [a, b])
    assert is_regular(ps) is not None


def test_is_regular_against_system_sweep_oracle():
    # oracle: scan every coordinate system for one covering the set
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    systems = [(frozenset(s.coordinate_planes(2).indices)) for s in all_coordinate_systems(space)]
    rng = random.Random(17)
    for _ in range(60):
        size = rng.randrange(1, 6)
        ps = PlaneSet(g2, rng.sample(range(len(g2)), size))
        oracle = any(ps.iset <= cover for cover in systems)
        assert (is_regular(ps) is not None) == oracle


def test_associated_systems_certificates_cover():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    rng = random.Random(23)
    for _ in range(30):
        ps = PlaneSet(g2, rng.sample(range(len(g2)), rng.randrange(1, 5)))
        for system in associated_systems(ps):
            assert ps.issubset(system.coordinate_planes(2))


def test_maximal_regular_iff_full_count():
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    assert is_maximal_regular(planes)
    assert associated_systems(planes) == [system]
    smaller = PlaneSet(planes.gr, planes.indices[:5])
    assert not is_maximal_regular(smaller)
    g2 = space.grassmannian(2)
    rng = random.Random(5)
    for _ in range(20):
        ps = PlaneSet(g2, rng.sample(range(len(g2)), 7))
        assert not is_maximal_regular(ps)  # regular sets hold at most 6 planes


def test_exactness_basics():
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    assert is_exact(planes)
    single = PlaneSet(planes.gr, planes.indices[:1])
    assert not is_exact(single)
    removed_one = PlaneSet(planes.gr, planes.indices[:5])
    assert is_exact(removed_one)  # dropping c(k-1, n-2) - 1 = 1 plane keeps exactness
    with pytest.raises(NotRegularError):
        is_exact(PlaneSet(planes.gr, range(8)))


def test_degree_of_line_sets_is_deficiency():
    space = Space.get(2, 4)
    g1 = space.grassmannian(1)
    system = standard_system(space)
    for size in range(0, 5):
        ps = PlaneSet(g1, system.line_indices[:size])
        d, witness = degree(ps)
        assert d == 4 - size
        assert is_exact(witness) and ps.issubset(witness) and len(witness) == len(ps) + d


def test_degree_extremal_configuration():
    # hyperplane trace plus one biaxial plane: degree exactly 1, and the
    # prescribed extra plane makes it exact
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    g1 = space.grassmannian(1)
    axes = [g1[i] for i in system.line_indices]
    hyp = join(join(axes[0], axes[1]), axes[2])
    biax = join(axes[2], axes[3])
    rp = restrict(planes, hyp).with_index(planes.gr.space.grassmannian(2).index(biax))
    assert len(rp) == exactness_threshold(4, 2) == 4
    assert not is_exact(rp)
    d, witness = degree(rp)
    assert d == 1
    assert is_exact(witness)
    extra = witness.difference(rp)
    assert len(extra) == 1
    added = witness.gr[extra.indices[0]]
    assert added.contains(axes[3]) and not added.contains(biax)


def test_degree_axis_pencil_is_two():
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    g1 = space.grassmannian(1)
    pencil = restrict(planes, g1[system.line_indices[0]])
    assert len(pencil) == 3
    assert degree(pencil)[0] == 2
    hyp = join(join(g1[system.line_indices[0]], g1[system.line_indices[1]]), g1[system.line_indices[2]])
    trace = restrict(planes, hyp)
    assert degree(trace)[0] == 2


def test_restrict_counts():
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    g1 = space.grassmannian(1)
    axes = [g1[i] for i in system.line_indices]
    hyp = join(join(axes[0], axes[1]), axes[2])
    assert len(restrict(planes, hyp)) == comb(3, 2)
    assert len(restrict(planes, axes[0])) == comb(3, 1)
    with pytest.raises(ValueError):
        restrict(planes, join(axes[0], axes[1]))


def test_nested_restriction_count():
    # planes inside a coordinate hyperplane and through one of its axes
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    g1 = space.grassmannian(1)
    axes = [g1[i] for i in system.line_indices]
    hyp = join(join(axes[0], axes[1]), axes[2])
    both = restrict(restrict(planes, hyp), axes[0])
    assert len(both) == comb(4 - 1 - 1, 2 - 1)


def test_profile_full_and_pencil():
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    prof = profile(planes, planes)
    assert prof.exact_axis_count == 4
    assert all(r.core_dim == 1 for r in prof.records)
    g1 = space.grassmannian(1)
    pencil = restrict(planes, g1[system.line_indices[0]])
    prof = profile(pencil, planes)
    assert prof.exact_axis_count == 1
    assert sorted(r.core_dim for r in prof.records) == [1, 2, 2, 2]


def test_profile_exactness_criterion_and_superset_independence():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    rng = random.Random(31)
    tested_multi = 0
    for _ in range(60):
        ps = PlaneSet(g2, rng.sample(range(len(g2)), rng.randrange(2, 6)))
        systems = associated_systems(ps)
        if not systems:
            continue
        counts = set()
        for system in systems:
            prof = profile(ps, system.coordinate_planes(2))
            counts.add(prof.exact_axis_count)
            assert (prof.exact_axis_count == 4) == is_exact(ps)
        if len(systems) > 1:
            tested_multi += 1
            assert len(counts) == 1  # count independent of the chosen superset
    assert tested_multi > 3


def test_profile_validates_inputs():
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    outside = planes.complement()
    with pytest.raises(ValueError):
        profile(outside, planes)
    with pytest.raises(NotRegularError):
        profile(PlaneSet(planes.gr, planes.indices[:2]), PlaneSet(planes.gr, planes.indices[:3]))


def test_hypergraph_view():
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    hg = hypergraph_view(planes, system)
    assert sorted(hg) == sorted(combinations(range(4), 2))
    assert hypergraph_view(PlaneSet(planes.gr, []), system) == []
    g1 = space.grassmannian(1)
    axes = [g1[i] for i in system.line_indices]
    hyp = join(join(axes[0], axes[1]), axes[2])
    trace = hypergraph_view(restrict(planes, hyp), system)
    assert sorted(trace) == [(0, 1), (0, 2), (1, 2)]
    with pytest.raises(ValueError):
        hypergraph_view(planes.complement(), system)


def test_degree_invariant_under_regular_maps():
    from qgrass.maps import induced_map

    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    rng = random.Random(41)
    for _ in range(10):
        ps = None
        while ps is None:
            cand = PlaneSet(g2, rng.sample(range(len(g2)), rng.randrange(2, 6)))
            if is_regular(cand) is not None:
                ps = cand
        h = random_semilinear(space, rng)
        image = induced_map(space, h, 2).apply_set(ps)
        assert degree(image)[0] == degree(ps)[0]


def test_restriction_count_monotonicity():
    # c(n-k1, k-k1) >= c(n-k2, k-k2) for 0 < k1 <= k2 < k over the desk range
    for n in range(3, 9):
        for k in range(2, n):
            for k1 in range(1, k):
                for k2 in range(k1, k):
                    assert comb(n - k1, k - k1) >= comb(n - k2, k - k2)


def test_exact_nonmaximal_sets_exist():
    # search among subsets of one system's planes; records the shapes found
    space = Space.get(2, 4)
    system = standard_system(space)
    planes = system.coordinate_planes(2)
    shapes = set()
    for size in range(1, 6):
        for subset in combinations(planes.indices, size):
            ps = PlaneSet(planes.gr, subset)
            if is_exact(ps):
                shapes.add(frozenset(hypergraph_view(ps, system)))
    assert shapes  # exact non-maximal regular sets exist at n = 4, k = 2
    # the large-set degree theorems force at least threshold size
    assert {len(s) for s in shapes} == {4, 5}


@pytest.mark.parametrize("q,n,k", [(2, 4, 1), (2, 4, 2), (2, 4, 3), (3, 3, 1)])
def test_limit_takes_a_prefix_of_the_associated_systems(q, n, k):
    space = Space.get(q, n)
    gk = space.grassmannian(k)
    rng = random.Random(f"limit-{q}-{n}-{k}")
    for _ in range(8):
        planes = rng.choice(all_coordinate_systems(space)).coordinate_planes(k).indices
        ps = PlaneSet(gk, rng.sample(planes, rng.randint(0, len(planes))))
        stray = PlaneSet(gk, rng.sample(range(len(gk)), rng.randint(1, n)))
        for sample in (ps, stray, ps.union(stray)):
            systems = associated_systems(sample)
            for m in range(4):
                assert associated_systems(sample, limit=m) == systems[:m]
            assert associated_systems(sample, limit=-1) == []


def test_associated_systems_are_shared_while_held():
    space = Space.get(2, 4)
    ps = PlaneSet(space.grassmannian(2), (0, 1, 2))
    systems = associated_systems(ps)
    again = associated_systems(ps)
    assert len(systems) == 8 and all(a is b for a, b in zip(systems, again))
    assert is_regular(ps) is systems[0] and associated_systems(ps, limit=2)[1] is systems[1]
    for system in systems:
        built = CoordinateSystem(space, system.lines)
        assert built is not system and built == system and hash(built) == hash(system)


def test_search_results_share_systems():
    space = Space.get(2, 4)
    planes = all_coordinate_systems(space)[5].coordinate_planes(2)
    (system,) = associated_systems(planes)
    assert contains_maximal_regular(planes) is system
    rest = PlaneSet(space.grassmannian(2), planes.indices[1:])
    assert completion_witness(rest, planes.indices[0]) is system


def test_coordinate_systems_are_read_only():
    space = Space.get(2, 4)
    ps = PlaneSet(space.grassmannian(2), (0, 1, 2))
    systems = associated_systems(ps)
    held = [s.line_indices for s in systems]
    for system in (systems[0], CoordinateSystem(space, systems[0].lines)):
        for name in ("line_indices", "space", "other"):
            with pytest.raises(AttributeError):
                setattr(system, name, (1, 2, 3, 4))
            with pytest.raises(AttributeError):
                delattr(system, name)
    # the shared table still maps each system's lines to that system
    table = regularity._shared_systems(space)
    again = associated_systems(ps)
    assert [s.line_indices for s in again] == held
    assert all(a is b and table[s] is a for a, b, s in zip(systems, again, held))
    # copies rebuild an equal, equally read-only system
    for copied in (pickle.loads(pickle.dumps(systems[0])), copy.copy(systems[0]), copy.deepcopy(systems[0])):
        assert type(copied) is CoordinateSystem and copied == systems[0] and repr(copied) == repr(systems[0])
        assert hash(copied) == hash(systems[0]) and copied.lines == systems[0].lines
        with pytest.raises(AttributeError):
            copied.line_indices = ()


def test_shared_systems_leave_the_table_when_dropped():
    # a space made outside Space.get, so no other test holds its systems
    space = Space(field(2), 4)
    table = regularity._shared_systems(space)
    assert len(all_coordinate_systems(space)) == 840 and len(table) == 0
    systems = associated_systems(PlaneSet(space.grassmannian(2), (0, 1, 2)))
    assert sorted(table.keys()) == [s.line_indices for s in systems]
    kept = systems[3]
    del systems
    gc.collect()
    assert list(table.keys()) == [kept.line_indices] and table[kept.line_indices] is kept
    del kept
    gc.collect()
    assert len(table) == 0


def test_held_associated_systems_retain_less_memory():
    # 2,000 held results of an 8-system set: 2,176,184 bytes at a fresh
    # CoordinateSystem per result and system, 258,200 with shared systems
    # (tracemalloc, CPython 3.11, x86-64); the bound is half the first
    ps = PlaneSet(Space.get(2, 4).grassmannian(2), (0, 1, 2))
    associated_systems(ps)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = [associated_systems(ps) for _ in range(2000)]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(held) == 2000 and kept < 2_176_184 // 2


def test_edge_dimensions_are_refused_at_every_entry_point():
    # k = 0 and k = n: regularity is defined for 1 <= k <= n-1 only.  Before
    # the refusal a G_0 set had no system while `is_irregular` on it raised
    # from the join masks, and a G_3 set of F_2^3 had all 28 systems
    from qgrass import irregularity

    space = Space.get(2, 3)
    system = standard_system(space)
    calls = [
        associated_systems, is_regular, is_maximal_regular, is_exact, degree,
        lambda ps: profile(ps, ps), lambda ps: hypergraph_view(ps, system),
        irregularity.is_irregular, irregularity.is_maximal_irregular,
        irregularity.complete_to_maximal_irregular, contains_maximal_regular,
        lambda ps: completion_witness(ps, 0),
    ]
    for k in (0, 3):
        gk = space.grassmannian(k)
        for ps in (PlaneSet(gk, ()), PlaneSet(gk, (0,))):
            for call in calls:
                with pytest.raises(ValueError, match=rf"^regularity needs 1 <= k <= 2 at n=3; the set has k={k}$"):
                    call(ps)
