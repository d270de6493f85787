import random

import pytest

from qgrass.forms import dot_form, standard_symplectic, form_map
from qgrass.gf import field
from qgrass.grassmann import GrassmannMap, Space
from qgrass.harness import random_invertible, random_semilinear
from qgrass.linalg import Mat, SingularMatrixError
from qgrass.maps import SemilinearMap, induced_map, induces, pullback_form


def test_semilinear_action():
    f = field(4)
    frob = f.automorphisms()[1]
    h = SemilinearMap(f, Mat.identity(f, 2), frob)
    assert h.apply_vector((2, 1)) == (3, 1)
    # f(a x) = sigma(a) f(x)
    rng = random.Random(0)
    for _ in range(20):
        m = random_invertible(f, 2, rng)
        h = SemilinearMap(f, m, frob)
        v = (rng.randrange(4), rng.randrange(4))
        a = rng.randrange(1, 4)
        av = tuple(f.mul(a, x) for x in v)
        assert h.apply_vector(av) == tuple(f.mul(frob(a), x) for x in h.apply_vector(v))


def test_semilinear_needs_invertible_matrix():
    f = field(2)
    with pytest.raises(SingularMatrixError):
        SemilinearMap(f, Mat(f, [(1, 1), (1, 1)]))


def test_composition_automorphism_exponents_add():
    f = field(16)
    rng = random.Random(1)
    a = SemilinearMap(f, random_invertible(f, 2, rng), f.frobenius(1))
    b = SemilinearMap(f, random_invertible(f, 2, rng), f.frobenius(3))
    c = a.compose(b)
    assert c.sigma.exp == (1 + 3) % 4
    v = (5, 11)
    assert c.apply_vector(v) == a.apply_vector(b.apply_vector(v))
    inv = a.inverse()
    assert inv.sigma.exp == (-1) % 4
    assert inv.apply_vector(a.apply_vector(v)) == v


def test_induced_identity_and_scalars():
    space = Space.get(3, 3)
    f = space.field
    ident = SemilinearMap.identity(f, 3)
    assert induced_map(space, ident, 1).is_identity()
    scalar = ident.scaled(2)
    assert induced_map(space, scalar, 1).is_identity()
    assert induced_map(space, scalar, 2).is_identity()


def test_induced_coordinate_permutation():
    space = Space.get(2, 3)
    f = space.field
    perm = SemilinearMap(f, Mat(f, [(0, 1, 0), (1, 0, 0), (0, 0, 1)]))
    fk = induced_map(space, perm, 1)
    g1 = space.grassmannian(1)
    e1 = space.subspace([(1, 0, 0)])
    e2 = space.subspace([(0, 1, 0)])
    assert fk.apply(e1) == e2 and fk.apply(e2) == e1


def test_induced_same_table_iff_projectively_equal():
    space = Space.get(3, 3)
    rng = random.Random(4)
    for _ in range(15):
        h = random_semilinear(space, rng)
        h2 = h.scaled(rng.randrange(1, 3))
        assert induced_map(space, h, 2) == induced_map(space, h2, 2)
        g = random_semilinear(space, rng)
        same_table = induced_map(space, h, 2) == induced_map(space, g, 2)
        assert same_table == h.same_projective(g)


def test_functoriality_of_induction():
    space = Space.get(2, 4)
    rng = random.Random(7)
    for _ in range(10):
        h1 = random_semilinear(space, rng)
        h2 = random_semilinear(space, rng)
        lhs = induced_map(space, h2, 2).compose(induced_map(space, h1, 2))
        rhs = induced_map(space, h2.compose(h1), 2)
        assert lhs == rhs
        f = induced_map(space, h1, 2)
        assert f.compose(f.inverse()).is_identity()
        assert f.inverse() == induced_map(space, h1.inverse(), 2)


def test_prop_1_2_1_tables_determine_each_other():
    space = Space.get(2, 4)
    rng = random.Random(8)
    for _ in range(15):
        h1 = random_semilinear(space, rng)
        h2 = random_semilinear(space, rng)
        same_k = induced_map(space, h1, 2) == induced_map(space, h2, 2)
        same_m = induced_map(space, h1, 3) == induced_map(space, h2, 3)
        assert same_k == same_m


def test_pullback_identity_and_roundtrip():
    f = field(3)
    om = standard_symplectic(f, 4)
    ident = SemilinearMap.identity(f, 4)
    assert pullback_form(ident, om) == om
    rng = random.Random(3)
    h = SemilinearMap(f, random_invertible(f, 4, rng))
    assert pullback_form(h.inverse(), pullback_form(h, om)) == om


def test_pullback_matches_definition():
    f = field(3)
    rng = random.Random(6)
    om = dot_form(f, 3)
    h = SemilinearMap(f, random_invertible(f, 3, rng))
    pulled = pullback_form(h, om)
    for _ in range(30):
        x = tuple(rng.randrange(3) for _ in range(3))
        y = tuple(rng.randrange(3) for _ in range(3))
        assert pulled.evaluate(x, y) == om.evaluate(h.apply_vector(x), h.apply_vector(y))


def test_pullback_rejects_twisted_maps():
    f = field(4)
    h = SemilinearMap(f, Mat.identity(f, 2), f.automorphisms()[1])
    with pytest.raises(ValueError):
        pullback_form(h, dot_form(f, 2))


def test_induces_semilinear_all_dimensions():
    space = Space.get(2, 4)
    rng = random.Random(11)
    h = random_semilinear(space, rng)
    f2 = induced_map(space, h, 2)
    for m in (1, 3):
        g = induces(space, f2, m)
        assert g == induced_map(space, h, m)


def test_induces_rejects_non_geometric():
    space = Space.get(2, 4)
    g2 = space.grassmannian(2)
    table = list(range(len(g2)))
    table[0], table[1] = table[1], table[0]
    bad = GrassmannMap(g2, g2, table)
    assert induces(space, bad, 1) is None
    assert induces(space, bad, 3) is None


def test_induces_symmetry_and_transitivity():
    space = Space.get(2, 4)
    rng = random.Random(13)
    h = random_semilinear(space, rng)
    f = induced_map(space, h, 2)
    g = induces(space, f, 1)
    # symmetry: the induced map induces the original back
    assert induces(space, g, 2) == f
    # transitivity through the middle dimension
    hh = induces(space, g, 3)
    assert hh == induces(space, f, 3)


def test_incidence_equivariance():
    # induced maps carry incidence sets to incidence sets of the image;
    # complement maps carry them to incidence sets of the complement image
    from qgrass.grassmann import incidence_set

    space = Space.get(2, 4)
    rng = random.Random(15)
    h = random_semilinear(space, rng)
    f2 = induced_map(space, h, 2)
    f1 = induced_map(space, h, 1)
    for s in space.grassmannian(1):
        img = frozenset(f2.table[i] for i in incidence_set(space, s, 2).indices)
        assert img == incidence_set(space, f1.apply(s), 2).iset
    om = standard_symplectic(space.field, 4)
    fm2 = form_map(space, om, 2)
    fm1 = form_map(space, om, 1)
    for s in space.grassmannian(1):
        img = frozenset(fm2.table[i] for i in incidence_set(space, s, 2).indices)
        assert img == incidence_set(space, fm1.apply(s), 2).iset


def test_form_map_composition_lands_in_linear_class():
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    om2 = dot_form(space.field, 4)
    f1 = form_map(space, om, 2)
    f2 = form_map(space, om2, 2)
    composed = f2.compose(f1)
    # composing two form-defined transformations is induced by a matrix
    from qgrass.reconstruction import chow_classify

    res = chow_classify(space, composed)
    assert res.kind == "linear" and res.verified


def test_inducing_transformations_are_semilinear():
    # a transformation built without any matrix (two complement maps) still
    # induces across dimensions, and the classifier recovers a matrix for it
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    om2 = dot_form(space.field, 4)
    composed = form_map(space, om2, 2).compose(form_map(space, om, 2))
    g = induces(space, composed, 1)
    assert g is not None
    from qgrass.reconstruction import regular_classify

    res = regular_classify(space, composed)
    assert res.kind == "linear" and res.verified
    assert induced_map(space, res.map, 1) == g


def test_zero_subspace_and_one_plane_grassmannians():
    space = Space.get(2, 4)
    ident = SemilinearMap.identity(space.field, 4)
    assert ident.apply_subspace(space.zero_subspace) == space.zero_subspace
    for k in (0, 4):
        f = induced_map(space, ident, k)
        assert f.table == (0,) and f.is_identity()
