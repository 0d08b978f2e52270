import random
from fractions import Fraction

import pytest

from padiclift import polys
from padiclift.bigmath import vp_rat
from padiclift.padic import (AtLeast, NotAUnit, NotPadicInteger, PadicInt,
                             PrimeMismatch)


def test_from_int():
    assert PadicInt.from_int(-6, 7, 2).residue == 43
    assert PadicInt.from_int(0, 5, 3).residue == 0
    assert PadicInt.from_int(239, 7, 3).residue == 239
    with pytest.raises(ValueError, match="precision must be >= 1"):
        PadicInt(7, 0, 1)


def test_from_rat_printed_expansion():
    # 1/29 = 1 + 3*7 + 7^2 + 7^3 + 2*7^4 + 5*7^5 + O(7^6)
    x = PadicInt.from_rat(Fraction(1, 29), 7, 6)
    assert x.digits() == (1, 3, 1, 1, 2, 5)
    assert (x * 29).residue == 1


def test_from_rat_rejects_negative_valuation():
    with pytest.raises(NotPadicInteger):
        PadicInt.from_rat(Fraction(1, 2), 2, 4)


def test_from_rat_inverse_of_denominator():
    x = PadicInt.from_rat(Fraction(5, 18), 5, 3)
    assert x.residue == 5 * pow(18, -1, 125) % 125


def test_valuation():
    assert PadicInt.from_int(49, 7, 5).valuation() == 2
    assert PadicInt.from_int(0, 7, 5).valuation() == AtLeast(5)
    assert PadicInt.from_int(14, 7, 5).valuation() == 1


def test_unit_inverse():
    x = PadicInt.from_int(29, 7, 6).unit_inverse()
    assert x.digits() == (1, 3, 1, 1, 2, 5)
    assert PadicInt.from_int(1, 5, 4).unit_inverse().residue == 1
    with pytest.raises(NotAUnit):
        PadicInt.from_int(7, 7, 3).unit_inverse()


def test_digits_reconstruction():
    rng = random.Random(5)
    for _ in range(50):
        p = rng.choice([2, 3, 7, 11])
        N = rng.randint(1, 8)
        x = PadicInt.from_int(rng.randint(0, p ** N - 1), p, N)
        dv = x.digits()
        assert polys.evaluate(dv, p) == x.residue
        assert all(0 <= d < p for d in dv)
        assert len(dv) == N
    assert PadicInt.from_int(0, 3, 4).digits() == (0, 0, 0, 0)
    assert PadicInt.from_int(12, 13, 1).digits() == (12,)


def test_arithmetic():
    a = PadicInt.from_int(7, 7, 3)
    assert (a * a).residue == 49
    x = PadicInt.from_int(23, 7, 3)
    assert (x + PadicInt.from_int(0, 7, 3)) == x
    assert (PadicInt.from_int(2, 5, 2) ** 5).residue == 7
    with pytest.raises(PrimeMismatch):
        a + PadicInt.from_int(1, 5, 3)


def test_min_precision_propagation():
    a = PadicInt.from_int(10, 7, 5)
    b = PadicInt.from_int(3, 7, 2)
    assert (a + b).precision == 2
    assert (a * b).precision == 2
    assert (a - b).precision == 2


def test_ring_laws():
    rng = random.Random(9)
    for _ in range(100):
        p, N = rng.choice([(3, 4), (7, 3), (5, 5)])
        x, y, z = (PadicInt.from_int(rng.randint(-500, 500), p, N) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        u = x
        if u.residue % p:
            assert (u * u.unit_inverse()).residue == 1


def test_from_rat_valuation_consistency():
    rng = random.Random(13)
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        num = rng.randint(-200, 200)
        den = rng.randint(1, 200)
        x = Fraction(num, den)
        v = vp_rat(x, p)
        if not (0 <= v < 6):
            continue
        assert PadicInt.from_rat(x, p, 6).valuation() == v


def test_rendering_and_json():
    x = PadicInt.from_int(239, 7, 3)
    assert str(x) == "1 + 6*7 + 4*7^2 + O(7^3)"
    j = x.to_json()
    assert j == {"p": 7, "precision": 3, "digits": [1, 6, 4]}
    assert PadicInt.from_json(j) == x
