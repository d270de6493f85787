import random
from itertools import combinations, product

import pytest

from qgrass.forms import _symplectic_map
from qgrass.gf import field
from qgrass.grassmann import (
    GrassmannMap,
    PlaneSet,
    Space,
    Subspace,
    TooLargeError,
    distance,
    gaussian_binomial,
    geodesic,
    incidence_set,
    join,
    maximal_adjacent_families,
    meet,
)
from qgrass.regularity import all_coordinate_systems, maximal_regular_family


def sp(q, n):
    return Space.get(q, n)


def test_span_canonicalizes():
    s = sp(2, 3)
    a = s.subspace([(1, 1, 0), (1, 0, 0)])
    assert a.rows == ((1, 0, 0), (0, 1, 0))
    assert a.k == 2


def test_span_empty_and_duplicates():
    s = sp(2, 3)
    assert s.subspace([]).k == 0
    assert s.subspace([(1, 1, 0), (1, 1, 0)]).k == 1


def test_pivot_pattern_count_oracle():
    # independent counting route: sum over pivot sets of q^(free cells)
    def oracle(n, k, q):
        total = 0
        for pivots in combinations(range(n), k):
            free = sum(
                1
                for i in range(k)
                for c in range(pivots[i] + 1, n)
                if c not in pivots
            )
            total += q ** free
        return total

    for q in (2, 3, 4):
        for n in range(1, 6):
            for k in range(0, n + 1):
                assert oracle(n, k, q) == gaussian_binomial(n, k, q)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_enumeration_matches_counts(q):
    for n in range(1, 5):
        space = sp(q, n)
        for k in range(0, n + 1):
            g = space.grassmannian(k)
            assert len(g) == gaussian_binomial(n, k, q)
            assert len({s.rows for s in g}) == len(g)
            for i, s in enumerate(g):
                assert g.index(s) == i


def test_enumeration_is_sorted():
    g = sp(2, 4).grassmannian(2)
    keys = [s.key() for s in g]
    assert keys == sorted(keys)


def test_ambient_cap():
    with pytest.raises(TooLargeError):
        Space(field(2), 7)


def test_grassmannian_cap_refuses_before_enumerating():
    space = sp(16, 6)
    for k in (1, 3, 5):
        with pytest.raises(TooLargeError):
            space.grassmannian(k)
    assert len(space.grassmannian(0)) == len(space.grassmannian(6)) == 1


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (2, 5)])
def test_span_masks_match_spans(q, n):
    space = sp(q, n)
    g1 = space.grassmannian(1)
    rng = random.Random(f"span:{q}:{n}")
    for _ in range(20):
        mask, points, rows = 0, (), []
        for t in rng.sample(range(len(g1)), len(g1)):
            if mask >> t & 1:
                continue
            mask, points = space.span_with(mask, points, t)
            rows.append(g1[t].rows[0])
            span = space.subspace(rows)
            want = {u for u, line in enumerate(g1) if span.contains(line)}
            assert set(points) == want and len(points) == len(want)
            assert mask == sum(1 << u for u in want)
        assert len(rows) == n


def test_meet_join_idempotent():
    s = sp(2, 4)
    a = s.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    assert meet(a, a) == a
    assert join(a, a) == a


def test_two_lines_meet_join():
    s = sp(3, 3)
    a = s.subspace([(1, 0, 0)])
    b = s.subspace([(0, 1, 0)])
    assert meet(a, b).k == 0
    assert join(a, b).k == 2


def test_dimension_formula_exhaustive_small():
    s = sp(2, 3)
    all_subs = [x for k in range(4) for x in s.grassmannian(k)]
    for a in all_subs:
        for b in all_subs:
            assert join(a, b).k == a.k + b.k - meet(a, b).k


def test_distance_examples():
    s = sp(2, 4)
    a = s.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    b = s.subspace([(0, 0, 1, 0), (0, 0, 0, 1)])
    c = s.subspace([(1, 0, 0, 0), (0, 0, 1, 0)])
    assert distance(a, a) == 0
    assert distance(a, b) == 2
    assert distance(a, c) == 1


def test_distance_requires_equal_dims():
    s = sp(2, 4)
    with pytest.raises(ValueError):
        distance(s.subspace([(1, 0, 0, 0)]), s.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]))


def test_lattice_ops_reject_mixed_ambient_spaces():
    a = sp(2, 4).subspace([(1, 0, 0, 0)])
    b = sp(2, 3).subspace([(1, 0, 0)])
    c = sp(3, 4).subspace([(1, 0, 0, 0)])
    with pytest.raises(ValueError):
        meet(a, b)
    with pytest.raises(ValueError):
        join(a, c)


def test_metric_axioms_exhaustive_2_4_2():
    space = sp(2, 4)
    g = space.grassmannian(2)
    d = space.distance_matrix(2)
    nmax = min(2, 4 - 2)
    for i in range(len(g)):
        assert d[i][i] == 0
        for j in range(len(g)):
            assert d[i][j] == d[j][i]
            assert d[i][j] <= nmax
            if i != j:
                assert d[i][j] > 0
            # join-dimension identity
            assert join(g[i], g[j]).k == 2 + d[i][j]


def test_triangle_inequality_2_4_2():
    space = sp(2, 4)
    d = space.distance_matrix(2)
    m = len(d)
    for i in range(m):
        for j in range(m):
            dij = d[i][j]
            for l in range(m):
                assert dij <= d[i][l] + d[l][j]


def test_geodesic_trivial_and_adjacent():
    s = sp(2, 4)
    a = s.subspace([(1, 0, 0, 0), (0, 1, 0, 0)])
    c = s.subspace([(1, 0, 0, 0), (0, 0, 1, 0)])
    assert geodesic(a, a) == [a]
    assert geodesic(a, c) == [a, c]


def test_geodesic_all_pairs_2_4_2():
    space = sp(2, 4)
    g = space.grassmannian(2)
    for a in g:
        for b in g:
            path = geodesic(a, b)
            assert path[0] == a and path[-1] == b
            assert len(path) == distance(a, b) + 1
            for u, v in zip(path, path[1:]):
                assert distance(u, v) == 1


def test_incidence_set_counts():
    space = sp(2, 4)
    hyp = space.subspace([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert len(incidence_set(space, hyp, 2)) == 7
    line = space.subspace([(1, 0, 0, 0)])
    assert len(incidence_set(space, line, 2)) == 7
    full = space.full_subspace
    assert len(incidence_set(space, full, 2)) == 35


def test_line_join_index_memo_is_keyed_on_k():
    # fresh spaces, so each query order starts from an empty memo
    for n in (3, 4):
        for order in ((1, 2, 3), (3, 2, 1)):
            space = Space(field(2), n)
            lines = space.incidence(1, 2)[0]
            for k in order:
                assert space.line_join_index(lines, k) == (0 if k == 2 else None)
                assert space.line_join_index(lines[:1], k) == (lines[0] if k == 1 else None)


def test_incidence_set_equal_dim_rejected():
    space = sp(2, 4)
    with pytest.raises(ValueError):
        incidence_set(space, space.subspace([(1, 0, 0, 0), (0, 1, 0, 0)]), 2)


def test_lemma_1_4_1_unique_cover_iff_adjacent():
    space = sp(2, 4)
    g = space.grassmannian(2)
    up = space.incidence(3, 2)  # for each plane, the 3-spaces over it
    down = space.incidence(1, 2)
    for i, a in enumerate(g):
        for j in range(i + 1, len(g)):
            b = g[j]
            common_tops = set(up[i]) & set(up[j])
            common_lines = set(down[i]) & set(down[j])
            adjacent = distance(a, b) == 1
            assert (len(common_tops) == 1) == adjacent
            assert (len(common_lines) == 1) == adjacent
            if adjacent:
                g3 = space.grassmannian(3)
                assert g3[common_tops.pop()] == join(a, b)
                g1 = space.grassmannian(1)
                assert g1[common_lines.pop()] == meet(a, b)


def test_maximal_adjacent_families_2_4_2():
    space = sp(2, 4)
    fams = maximal_adjacent_families(space, 2)
    assert len(fams) == 30
    kinds = [kind for _, kind, _ in fams]
    assert kinds.count("star") == 15 and kinds.count("top") == 15
    for fam, kind, center in fams:
        assert fam == incidence_set(space, center, 2)
        assert center.k == (1 if kind == "star" else 3)


def test_maximal_adjacent_families_requires_middle_k():
    with pytest.raises(ValueError):
        maximal_adjacent_families(sp(2, 4), 1)


def test_plane_set_operations():
    space = sp(2, 4)
    g = space.grassmannian(2)
    a = PlaneSet(g, [0, 1, 2])
    b = PlaneSet(g, [2, 3])
    assert a.union(b).indices == (0, 1, 2, 3)
    assert a.intersection(b).indices == (2,)
    assert a.difference(b).indices == (0, 1)
    assert b.issubset(a.union(b))
    assert len(a.complement()) == 32


@pytest.mark.parametrize("q,n,k", [(2, 4, 1), (2, 4, 2), (2, 5, 2)])
def test_grassmann_map_refuses_entries_outside_the_codomain(q, n, k):
    g = sp(q, n).grassmannian(k)
    size = len(g)
    # the out-of-range entry replaces the last one, so the entries stay distinct
    for bad in (-1, size):
        with pytest.raises(ValueError, match="table entry out of codomain range"):
            GrassmannMap(g, g, [*range(size - 1), bad])
    with pytest.raises(ValueError, match="table is not a bijection"):
        GrassmannMap(g, g, [0, *range(size - 1)])
    for table in ([float(i) for i in range(size)], [*range(size - 1), size - 1.0]):
        with pytest.raises(TypeError):
            GrassmannMap(g, g, table)
    # entries of another integer type are stored as ints
    assert GrassmannMap(g, g, [True, False, *range(2, size)]).table == (1, 0, *range(2, size))
    ident = GrassmannMap.identity(g)
    shift = GrassmannMap(g, g, [*range(1, size), 0])
    assert shift.compose(shift.inverse()) == ident
    assert shift.inverse().table == (size - 1, *range(size - 1))


def test_per_space_tables_are_built_once_per_space_and_arguments():
    # spaces made outside Space.get, so no other test has built their tables
    space, other = Space(field(2), 4), Space(field(2), 4)
    builds = [
        lambda sp: sp.incidence(1, 2),
        lambda sp: sp.incidence(2, 1),
        lambda sp: sp.incidence(3, 2),
        lambda sp: sp.point_masks(2),
        lambda sp: sp.point_masks(3),
        lambda sp: sp.mask_index(2),
        lambda sp: sp.vector_lines(),
        lambda sp: sp._line_recurrence(),
        lambda sp: sp.distance_matrix(2),
        all_coordinate_systems,
        lambda sp: maximal_regular_family(sp, 2),
        lambda sp: maximal_regular_family(sp, 3),
        _symplectic_map,
    ]
    tables = [build(space) for build in builds]
    for build, table in zip(builds, tables):
        assert build(space) is table
        own = build(other)
        assert own is not table and own == table
    # each argument tuple has its own table
    assert len({id(t) for t in tables}) == len(tables)
    assert space.incidence(k=1, m=2) == tables[0]


def test_subspace_vectors_and_contains():
    space = sp(3, 3)
    a = space.subspace([(1, 0, 2), (0, 1, 1)])
    vecs = list(a.vectors())
    assert len(vecs) == 9
    assert all(a.contains_vector(v) for v in vecs)
    line = space.subspace([(1, 0, 2)])
    assert a.contains(line)
    assert not line.contains(a)
