import random
from itertools import permutations

import pytest

from qgrass.forms import dot_form, form_map, standard_symplectic
from qgrass.grassmann import GrassmannMap, Space
from qgrass.harness import random_semilinear
from qgrass.maps import SemilinearMap, induced_map, induces
from qgrass import forms, reconstruction
from qgrass.reconstruction import (
    AutomorphismMismatchError,
    NotDistancePreservingError,
    NotIndependencePreservingError,
    NotRegularTransformationError,
    chow_classify,
    distance_violation,
    ftpg_reconstruct,
    is_distance_preserving,
    is_independence_preserving,
    is_regular_transformation,
    regular_classify,
)


def test_identity_is_independence_preserving():
    space = Space.get(2, 3)
    ident = GrassmannMap.identity(space.grassmannian(1))
    assert is_independence_preserving(space, ident)
    h = ftpg_reconstruct(space, ident)
    assert h.sigma.is_identity
    assert induced_map(space, h, 1) == ident


def test_induced_maps_preserve_independence():
    rng = random.Random(2)
    space = Space.get(3, 3)
    for _ in range(10):
        h = random_semilinear(space, rng)
        assert is_independence_preserving(space, induced_map(space, h, 1))


def test_coplanar_transposition_violates_independence():
    space = Space.get(2, 3)
    g1 = space.grassmannian(1)
    a = g1.index(space.subspace([(1, 0, 0)]))
    b = g1.index(space.subspace([(0, 1, 0)]))
    table = list(range(len(g1)))
    table[a], table[b] = table[b], table[a]
    f = GrassmannMap(g1, g1, table)
    # swapping two lines of a common plane while fixing the third breaks
    # some hyperplane image
    assert not is_independence_preserving(space, f)
    with pytest.raises(NotIndependencePreservingError):
        ftpg_reconstruct(space, f)


def test_ftpg_roundtrip_gf4_recovers_automorphism():
    rng = random.Random(12)
    space = Space.get(4, 3)
    for _ in range(100):
        h = random_semilinear(space, rng)
        f = induced_map(space, h, 1)
        rec = ftpg_reconstruct(space, f)
        assert rec.sigma == h.sigma
        assert induced_map(space, rec, 1) == f
        assert rec.same_projective(h)


def test_ftpg_gf2_forces_identity_automorphism():
    rng = random.Random(4)
    space = Space.get(2, 4)
    for _ in range(20):
        h = random_semilinear(space, rng)
        rec = ftpg_reconstruct(space, induced_map(space, h, 1))
        assert rec.sigma.is_identity


def test_independence_preserving_iff_induces_hyperplane_map():
    # exhaustive equivalence on the 7-line configuration
    space = Space.get(2, 3)
    g1 = space.grassmannian(1)
    for perm in permutations(range(7)):
        f = GrassmannMap(g1, g1, perm)
        assert is_independence_preserving(space, f) == (induces(space, f, 2) is not None)


def test_distance_preserving_examples():
    rng = random.Random(21)
    space = Space.get(2, 4)
    h = random_semilinear(space, rng)
    f = induced_map(space, h, 2)
    assert is_distance_preserving(space, f)
    fm = form_map(space, standard_symplectic(space.field, 4), 2)
    assert is_distance_preserving(space, fm.compose(f))
    # swap two planes at distance 2
    d = space.distance_matrix(2)
    i, j = next((i, j) for i in range(35) for j in range(35) if d[i][j] == 2)
    table = list(range(35))
    table[i], table[j] = table[j], table[i]
    g2 = space.grassmannian(2)
    assert not is_distance_preserving(space, GrassmannMap(g2, g2, table))
    # a one-plane Grassmannian has no pair to change
    for k in (0, 4):
        assert is_distance_preserving(space, GrassmannMap.identity(space.grassmannian(k)))


@pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (3, 4)])
def test_form_maps_preserve_distance(q, n):
    # a correlation G_k -> G_{n-k} keeps distances; the image distances are
    # those of G_{n-k}
    space = Space.get(q, n)
    forms = [dot_form(space.field, n)]
    if n % 2 == 0:
        forms.append(standard_symplectic(space.field, n))
    for form in forms:
        for k in range(1, n):
            f = form_map(space, form, k)
            assert distance_violation(space, f) is None
            assert distance_violation(space, f.inverse()) is None
            if not 1 < k < n - 1:
                continue  # every two points (hyperplanes) are adjacent
            # one transposition breaks it, with a pair whose distance changes
            table = list(f.table)
            last = len(table) - 1
            table[0], table[last] = table[last], table[0]
            swapped = GrassmannMap(f.domain, f.codomain, table)
            i, j = distance_violation(space, swapped)
            assert i < j
            assert space.distance_matrix(k)[i][j] != space.distance_matrix(n - k)[table[i]][table[j]]


def test_chow_classify_linear():
    rng = random.Random(33)
    space = Space.get(2, 4)
    for _ in range(10):
        h = random_semilinear(space, rng)
        res = chow_classify(space, induced_map(space, h, 2))
        assert res.kind == "linear" and res.verified
        assert res.map.same_projective(h)


def test_chow_classify_form_composed():
    space = Space.get(2, 4)
    fm = form_map(space, standard_symplectic(space.field, 4), 2)
    res = chow_classify(space, fm)
    assert res.kind == "form_composed" and res.verified
    # convention: the table sends s to the form-complement of map(s)
    om = res.form
    from qgrass.forms import orth_complement

    g2 = space.grassmannian(2)
    for i, s in enumerate(g2):
        assert g2[fm.table[i]] == orth_complement(om, res.map.apply_subspace(s))


def test_chow_rejects_edge_dimensions():
    space = Space.get(2, 4)
    ident = GrassmannMap.identity(space.grassmannian(1))
    with pytest.raises(ValueError):
        chow_classify(space, ident)


def test_chow_rejects_non_distance_preserving():
    space = Space.get(2, 4)
    d = space.distance_matrix(2)
    i, j = next((i, j) for i in range(35) for j in range(35) if d[i][j] == 2)
    table = list(range(35))
    table[i], table[j] = table[j], table[i]
    g2 = space.grassmannian(2)
    with pytest.raises(NotDistancePreservingError):
        chow_classify(space, GrassmannMap(g2, g2, table))


def test_verified_classification_skips_the_distance_scan(monkeypatch):
    # certify-first: a verified reconstruction is not followed by a scan
    calls = []
    scan = reconstruction.distance_violation

    def counted(space, f):
        calls.append(f)
        return scan(space, f)

    monkeypatch.setattr(reconstruction, "distance_violation", counted)
    rng = random.Random(99)
    for q, n in ((2, 4), (2, 5)):
        space = Space.get(q, n)
        tables = [induced_map(space, random_semilinear(space, rng), 2) for _ in range(3)]
        if n == 4:
            fm = form_map(space, standard_symplectic(space.field, n), 2)
            tables += [fm.compose(f) for f in tables]
        for f in tables:
            res = chow_classify(space, f)
            assert res.verified and res.kind == ("linear" if f in tables[:3] else "form_composed")
            assert regular_classify(space, f).verified
        assert calls == []
        # a corrupted table is scanned exactly once, to name its witness
        table = list(tables[0].table)
        table[0], table[-1] = table[-1], table[0]
        corrupted = GrassmannMap(tables[0].domain, tables[0].codomain, table)
        with pytest.raises(NotDistancePreservingError):
            chow_classify(space, corrupted)
        assert calls == [corrupted]
        calls.clear()


def test_form_map_built_only_for_form_composed_tables(monkeypatch):
    # the descent builds the symplectic form map only when the planes through
    # line 0 map onto the planes inside a hyperplane, and then once per space:
    # a second form-composed table reads the map the first one built
    calls = []
    build = forms.form_map

    def counted(space, form, k):
        calls.append(k)
        return build(space, form, k)

    rng = random.Random(123)
    cases = []
    for q, n, k in ((2, 4, 1), (2, 4, 3), (3, 4, 3), (2, 4, 2), (2, 5, 2), (2, 5, 3)):
        space = Space.get(q, n)
        cases.append((space, induced_map(space, random_semilinear(space, rng), k), 0))
    space = Space.get(2, 4)
    linear = cases[3][1]
    table = list(linear.table)
    table[0], table[1] = table[1], table[0]
    corrupted = GrassmannMap(linear.domain, linear.codomain, table)
    cases.append((space, corrupted, 0))
    fm = form_map(space, standard_symplectic(space.field, 4), 2)
    cases.append((space, fm.compose(linear), 1))
    cases.append((space, fm.compose(induced_map(space, random_semilinear(space, rng), 2)), 0))
    # spaces are shared across tests, so start this one with no symplectic map built
    forms._symplectic_map.cache_clear()
    monkeypatch.setattr(forms, "form_map", counted)
    for space, f, builds in cases:
        k = f.domain.k
        classify = chow_classify if 1 < k < space.n - 1 else regular_classify
        try:
            verified = classify(space, f).verified
        except NotDistancePreservingError:
            verified = False
        assert verified == (f is not corrupted)
        assert calls == [k] * builds, (space.field.q, space.n, k)
        calls.clear()
    assert forms._symplectic_map(space) == fm
    assert calls == []


def test_regular_transformation_examples():
    rng = random.Random(44)
    space = Space.get(2, 4)
    h = random_semilinear(space, rng)
    f = induced_map(space, h, 2)
    assert is_regular_transformation(space, f)
    fm = form_map(space, standard_symplectic(space.field, 4), 2)
    assert is_regular_transformation(space, fm.compose(f))
    table = list(range(35))
    table[0], table[1] = table[1], table[0]
    g2 = space.grassmannian(2)
    assert not is_regular_transformation(space, GrassmannMap(g2, g2, table))


def test_every_transformation_of_the_projective_line_is_regular():
    import itertools

    space = Space.get(2, 2)
    g1 = space.grassmannian(1)
    for perm in itertools.permutations(range(len(g1))):
        assert is_regular_transformation(space, GrassmannMap(g1, g1, perm))


def test_regular_classify_all_routes():
    rng = random.Random(55)
    space = Space.get(2, 4)
    h = random_semilinear(space, rng)
    for k in (1, 2, 3):
        f = induced_map(space, h, k)
        res = regular_classify(space, f)
        assert res.kind == "linear" and res.verified
        assert res.map.same_projective(h)
    fm = form_map(space, standard_symplectic(space.field, 4), 2)
    res = regular_classify(space, fm.compose(induced_map(space, h, 2)))
    assert res.kind == "form_composed" and res.verified


def test_regular_classify_rejects_non_regular():
    space = Space.get(2, 4)
    table = list(range(35))
    table[0], table[1] = table[1], table[0]
    g2 = space.grassmannian(2)
    with pytest.raises(NotRegularTransformationError):
        regular_classify(space, GrassmannMap(g2, g2, table))


def test_no_form_branch_off_middle_dimension():
    rng = random.Random(66)
    space = Space.get(2, 3)
    h = random_semilinear(space, rng)
    res = regular_classify(space, induced_map(space, h, 2))
    assert res.kind == "linear"


def test_coset_structure():
    rng = random.Random(77)
    space = Space.get(2, 4)
    om1 = standard_symplectic(space.field, 4)
    om2 = dot_form(space.field, 4)
    f1 = form_map(space, om1, 2)
    f2 = form_map(space, om2, 2)
    # form after form is linear
    assert chow_classify(space, f2.compose(f1)).kind == "linear"
    # linear after form stays in the form coset
    h = random_semilinear(space, rng)
    res = chow_classify(space, induced_map(space, h, 2).compose(f1))
    assert res.kind == "form_composed" and res.verified


def test_corrupted_table_reported():
    rng = random.Random(88)
    space = Space.get(4, 3)
    h = random_semilinear(space, rng)
    f = induced_map(space, h, 1)
    g1 = space.grassmannian(1)
    table = list(f.table)
    # swap two entries: almost surely breaks the precondition
    table[0], table[1] = table[1], table[0]
    bad = GrassmannMap(g1, g1, table)
    with pytest.raises((NotIndependencePreservingError, AutomorphismMismatchError)):
        ftpg_reconstruct(space, bad)
