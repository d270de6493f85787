import pytest

from qgrass.gf import SUPPORTED_ORDERS, UnsupportedOrderError, field


def test_supported_orders_construct():
    for q in SUPPORTED_ORDERS:
        f = field(q)
        assert f.q == q
        assert f.p ** f.m == q


@pytest.mark.parametrize("q", [1, 6, 10, 12, 32, 49])
def test_unsupported_orders_rejected(q):
    with pytest.raises(UnsupportedOrderError):
        field(q)


def test_field_instances_shared():
    assert field(9) is field(9)


def test_gf2_addition():
    f = field(2)
    assert f.add(1, 1) == 0


def test_gf4_multiplication_forced_by_modulus():
    # w = x has w*w = w + 1 under x^2 + x + 1
    f = field(4)
    assert f.mul(2, 2) == 3
    assert f.mul(2, 3) == 1  # w * w^2 = w^3 = 1


def test_gf3_inverse():
    f = field(3)
    assert f.inv(2) == 2


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        field(5).inv(0)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field(q)
    els = range(q)
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_automorphism_counts_and_identity_first():
    assert len(field(2).automorphisms()) == 1
    assert len(field(4).automorphisms()) == 2
    assert len(field(16).automorphisms()) == 4
    for q in SUPPORTED_ORDERS:
        auts = field(q).automorphisms()
        assert auts[0].is_identity
        assert all(auts[0](a) == a for a in range(q))


def test_gf4_frobenius_squares():
    f = field(4)
    frob = f.automorphisms()[1]
    assert frob(2) == 3           # w -> w^2 = w + 1
    assert frob(frob(2)) == 2     # order 2


def test_gf9_frobenius_is_involution():
    f = field(9)
    frob = f.automorphisms()[1]
    assert frob.is_involution and not frob.is_identity
    assert all(frob(frob(a)) == a for a in range(9))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_automorphisms_are_field_maps(q):
    f = field(q)
    for sigma in f.automorphisms():
        for a in range(q):
            for b in range(q):
                assert sigma(f.add(a, b)) == f.add(sigma(a), sigma(b))
                assert sigma(f.mul(a, b)) == f.mul(sigma(a), sigma(b))


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_automorphism_group_cyclic(q):
    f = field(q)
    auts = f.automorphisms()
    for s in auts:
        for t in auts:
            comp = s.compose(t)
            assert comp.exp == (s.exp + t.exp) % f.m
        assert s.compose(s.inverse()).is_identity


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_automorphisms_fix_prime_field(q):
    f = field(q)
    # GF(p) inside GF(p^m) is the span of 1 under addition
    prime_elems = set()
    x = 0
    for _ in range(f.p):
        prime_elems.add(x)
        x = f.add(x, 1)
    for sigma in f.automorphisms():
        for a in prime_elems:
            assert sigma(a) == a


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_automorphisms_built_once_per_field(q):
    f = field(q)
    assert f.automorphisms() is f.automorphisms()
    for j in range(-f.m, 2 * f.m):
        assert f.frobenius(j) is f.frobenius(j + f.m)
        assert f.frobenius(j) is f.automorphisms()[j % f.m]
    assert f.identity_automorphism is f.frobenius(0)
