import random

import pytest

from qgrass.forms import (
    _REFLEXIVE_SCAN_LIMIT,
    BilinearForm,
    annihilator,
    classify_reflexive,
    dot_form,
    form_map,
    form_predicates,
    is_reflexive,
    orth_complement,
    restricted_gram,
    singular_restriction_planes,
    standard_symplectic,
    symplectic_basis,
)
from qgrass.gf import field
from qgrass.grassmann import Space, meet
from qgrass.linalg import Mat, SingularMatrixError
from qgrass.maps import SemilinearMap, pullback_form


def test_dot_form_eval():
    f = field(3)
    om = dot_form(f, 3)
    e1 = (1, 0, 0)
    assert om.evaluate(e1, e1) == 1
    assert om.evaluate((0, 0, 0), (1, 2, 1)) == 0
    assert om.evaluate((1, 2, 0), (2, 2, 1)) == f.add(f.mul(1, 2), f.mul(2, 2))


def test_twisted_dot_form_eval():
    f = field(4)
    frob = f.automorphisms()[1]
    om = dot_form(f, 2, sigma1=frob)
    # sigma1 applies to the left slot
    assert om.evaluate((2, 0), (1, 0)) == frob(2)


def test_standard_symplectic_pairings():
    f = field(3)
    om = standard_symplectic(f, 4)
    x1 = (1, 0, 0, 0)
    y1 = (0, 0, 1, 0)
    assert om.evaluate(x1, y1) == 1
    assert om.evaluate(y1, x1) == f.neg(1)
    assert om.evaluate(x1, x1) == 0


def test_standard_symplectic_predicates():
    preds = form_predicates(standard_symplectic(field(2), 4))
    assert preds.nonsingular and preds.reflexive
    assert preds.skew_symmetric and preds.symplectic


def test_skew_but_not_symplectic_in_char_2():
    # dimension 3, zero pairings against e1 except (e1, e1) = 1
    f = field(2)
    sympl2 = standard_symplectic(f, 2).gram
    rows = [
        (1, 0, 0),
        (0,) + sympl2.rows[0],
        (0,) + sympl2.rows[1],
    ]
    om = BilinearForm(f, Mat(f, rows))
    preds = form_predicates(om)
    assert preds.skew_symmetric
    assert not preds.symplectic
    assert om.evaluate((1, 0, 0), (1, 0, 0)) == 1


def test_hermitian_dot_form():
    f = field(4)
    frob = f.automorphisms()[1]
    om = dot_form(f, 2, sigma2=frob)
    preds = form_predicates(om)
    assert preds.hermitian and preds.reflexive


def test_classify_symmetric():
    assert classify_reflexive(dot_form(field(3), 3)).kind == "symmetric"


def test_classify_skew_symmetric():
    assert classify_reflexive(standard_symplectic(field(3), 4)).kind == "skew_symmetric"
    # char 2: the alternating Gram is reported as skew even though it is
    # also symmetric as a matrix condition
    assert classify_reflexive(standard_symplectic(field(2), 4)).kind == "skew_symmetric"


def test_classify_scaled_hermitian():
    f = field(4)
    frob = f.automorphisms()[1]
    herm = dot_form(f, 2, sigma2=frob)
    scaled = herm.scaled(2)  # w times a hermitian form
    res = classify_reflexive(scaled)
    assert res.kind == "scaled_hermitian"
    assert res.scalar == 3  # w^-1 = w + 1 restores the hermitian identity
    assert form_predicates(scaled.scaled(res.scalar)).hermitian


def test_classify_requires_untwisted_left_slot():
    f = field(4)
    frob = f.automorphisms()[1]
    with pytest.raises(ValueError):
        classify_reflexive(dot_form(f, 2, sigma1=frob))


def test_classify_not_reflexive():
    f = field(3)
    om = BilinearForm(f, Mat(f, [(1, 1, 0), (0, 1, 1), (0, 0, 1)]))
    assert not is_reflexive(om)
    assert classify_reflexive(om).kind == "not_reflexive"


def seeded_gram(f, n, kind, frob, rng):
    """A random n x n Gram matrix that is symmetric, alternating, hermitian
    under frob, or unconstrained."""
    fixed = [x for x in f.elements if frob(x) == x]
    rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            a = rows[i][j]
            rows[j][i] = {"symmetric": a, "alternating": f.neg(a), "hermitian": frob(a)}.get(kind, rows[j][i])
        if kind == "alternating":
            rows[i][i] = 0
        elif kind == "hermitian":
            rows[i][i] = rng.choice(fixed)
    return Mat(f, rows)


def all_subspace_double_complement(form):
    """(S^perp)^perp = S for every proper nonzero subspace S."""
    sp = Space.get(form.field.q, form.n)
    return all(
        orth_complement(form, orth_complement(form, s)) == s for k in range(1, form.n) for s in sp.grassmannian(k)
    )


def test_line_double_complement_matches_all_subspaces():
    # (9, 4) is the one space above the scan limit whose every G_k can be enumerated
    f = field(9)
    assert f.q ** 4 > _REFLEXIVE_SCAN_LIMIT
    frob = f.automorphisms()[1]
    rng = random.Random("reflexive-lines")
    forms = []
    for kind in ("symmetric", "alternating", "hermitian", "generic"):
        gram = seeded_gram(f, 4, kind, frob, rng)
        while gram.rank() < 4:
            gram = seeded_gram(f, 4, kind, frob, rng)
        if kind == "hermitian":
            sigmas = (None, frob)
        else:
            sigmas = (rng.choice(f.automorphisms()), rng.choice(f.automorphisms()))
        forms.append(BilinearForm(f, gram, *sigmas).scaled(rng.randrange(1, f.q)))
    verdicts = [is_reflexive(om) for om in forms]
    assert verdicts == [all_subspace_double_complement(om) for om in forms]
    assert True in verdicts and False in verdicts


def test_reflexivity_above_the_scan_limit_needs_only_lines():
    # G_2 of F_7^5 has 140,050 planes, more than can be enumerated
    assert is_reflexive(dot_form(field(7), 5))


def test_orth_complement_extremes():
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    assert orth_complement(om, space.full_subspace).k == 0
    assert orth_complement(om, space.zero_subspace).k == 4


def test_orth_complement_of_first_basis_line():
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    u = space.subspace([(1, 0, 0, 0)])
    c = orth_complement(om, u)
    assert c.rows == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))


def test_orth_complement_dimension_and_twisted():
    f = field(4)
    frob = f.automorphisms()[1]
    space = Space.get(4, 3)
    om = dot_form(f, 3, sigma2=frob)
    for k in range(4):
        for s in space.grassmannian(k):
            c = orth_complement(om, s)
            assert c.k == 3 - k
            for x in s.rows:
                for y in c.rows:
                    assert om.evaluate(x, y) == 0


def test_annihilator():
    space = Space.get(2, 3)
    u = space.subspace([(1, 0, 0)])
    a = annihilator(u)
    assert a == space.subspace([(0, 1, 0), (0, 0, 1)])
    assert annihilator(space.zero_subspace).k == 3
    for k in range(4):
        for s in space.grassmannian(k):
            assert annihilator(annihilator(s)) == s


def test_double_complement_for_reflexive():
    space = Space.get(3, 3)
    om = dot_form(space.field, 3)
    for k in range(4):
        for s in space.grassmannian(k):
            assert orth_complement(om, orth_complement(om, s)) == s


def test_form_map_scaling_invariance():
    space = Space.get(3, 4)
    om = standard_symplectic(space.field, 4)
    assert form_map(space, om, 1) == form_map(space, om.scaled(2), 1)


def test_form_map_reflexive_roundtrip_and_conjugate():
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    f1 = form_map(space, om, 1)
    f3 = form_map(space, om, 3)
    assert f3.compose(f1).is_identity()
    # inverse route through the conjugate form
    conj = form_map(space, om.conjugate(), 3)
    assert f1.inverse() == conj


def test_nonreflexive_roundtrip_fails_somewhere():
    f = field(3)
    space = Space.get(3, 3)
    om = BilinearForm(f, Mat(f, [(1, 1, 0), (0, 1, 1), (0, 0, 1)]))
    assert om.is_nonsingular() and not is_reflexive(om)
    fm = form_map(space, om, 1)
    back = form_map(space, om, 2)
    assert not back.compose(fm).is_identity()
    # the true inverse goes through the conjugate form, reflexive or not
    assert fm.inverse() == form_map(space, om.conjugate(), 2)


def test_form_map_factors_through_annihilator():
    # the complement map equals: push the plane through the Gram matrix (with
    # the left twist applied), then take the annihilator
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    g2 = space.grassmannian(2)
    fm = form_map(space, om, 2)
    for i, s in enumerate(g2):
        pushed = Mat(space.field, s.rows).mul(om.gram)
        expected = annihilator(space.subspace(pushed.rows))
        assert fm.codomain[fm.table[i]] == expected


def test_symplectic_basis_standard():
    f = field(2)
    om = standard_symplectic(f, 4)
    basis = symplectic_basis(om)
    vs = basis.vectors()
    re_expressed = Mat(f, [tuple(om.evaluate(a, b) for b in vs) for a in vs])
    assert re_expressed == om.gram


def test_symplectic_basis_random_grams():
    rng = random.Random(5)
    f = field(3)
    expected = standard_symplectic(f, 4).gram
    done = 0
    while done < 25:
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                a = rng.randrange(3)
                rows[i][j] = a
                rows[j][i] = f.neg(a)
        m = Mat(f, rows)
        if m.rank() < 4:
            continue
        om = BilinearForm(f, m)
        basis = symplectic_basis(om)
        vs = basis.vectors()
        assert Mat(f, [tuple(om.evaluate(a, b) for b in vs) for a in vs]) == expected
        done += 1


def test_symplectic_basis_rejects_odd_dim():
    f = field(2)
    sympl2 = standard_symplectic(f, 2).gram
    rows = [(1, 0, 0), (0,) + sympl2.rows[0], (0,) + sympl2.rows[1]]
    with pytest.raises(ValueError):
        symplectic_basis(BilinearForm(f, Mat(f, rows)))


def test_symplectic_basis_rejects_non_symplectic():
    with pytest.raises(ValueError):
        symplectic_basis(dot_form(field(3), 4))


def test_symplectic_forms_all_similar():
    # build the linear map sending one hyperbolic basis to another and pull
    # the form back through it
    rng = random.Random(9)
    f = field(3)
    om1 = standard_symplectic(f, 4)
    while True:
        rows = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                a = rng.randrange(3)
                rows[i][j] = a
                rows[j][i] = f.neg(a)
        m = Mat(f, rows)
        if m.rank() == 4:
            break
    om2 = BilinearForm(f, m)
    b2 = symplectic_basis(om2)
    # columns of the matrix are the images of the standard basis
    h = SemilinearMap(f, Mat(f, b2.vectors()).transpose())
    assert pullback_form(h, om2) == om1


def test_restricted_gram_and_singular_planes():
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    s = singular_restriction_planes(space, om, 2)
    assert len(s) == 15
    g2 = space.grassmannian(2)
    for i, sub in enumerate(g2):
        assert (restricted_gram(om, sub).rank() < 2) == (i in s.iset)
    # odd k: every restriction is singular
    assert len(singular_restriction_planes(space, om, 1)) == len(space.grassmannian(1))
    assert len(singular_restriction_planes(space, om, 3)) == len(space.grassmannian(3))


def test_pullback_contravariance_of_complements():
    rng = random.Random(2)
    space = Space.get(2, 4)
    om = standard_symplectic(space.field, 4)
    from qgrass.harness import random_invertible

    for _ in range(10):
        h = SemilinearMap(space.field, random_invertible(space.field, 4, rng))
        pulled = pullback_form(h, om)
        for s in space.grassmannian(2):
            lhs = orth_complement(om, h.apply_subspace(s))
            rhs = h.apply_subspace(orth_complement(pulled, s))
            assert lhs == rhs
