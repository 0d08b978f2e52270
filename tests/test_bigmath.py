import math
import random
import signal
from fractions import Fraction

import pytest

from padiclift.bigmath import (INFINITY, binom, digit_sum, falling, iroot,
                               is_prime, vp, vp_factorial, vp_rat)
from padiclift.errors import DomainError
from padiclift.factorize import classify
from padiclift.hensel import residual_valuation
from padiclift.padic import PadicInt


def test_vp_basics():
    assert vp(49, 7) == 2
    assert vp(0, 5) is INFINITY
    assert vp(-12, 3) == 1
    assert vp(1, 11) == 0


def test_vp_rat():
    assert vp_rat(Fraction(7, 2), 7) == 1
    assert vp_rat(Fraction(5, 125), 5) == -2  # reduces to 1/25
    assert vp_rat(Fraction(0), 3) is INFINITY
    # representation independence comes free from Fraction reduction
    assert vp_rat(Fraction(14, 4), 7) == vp_rat(Fraction(7, 2), 7)


def test_vp_multiplicative():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-10**6, 10**6) or 1
        b = rng.randint(-10**6, 10**6) or 1
        p = rng.choice([2, 3, 5, 7, 13])
        assert vp(a * b, p) == vp(a, p) + vp(b, p)


def test_vp_ultrametric():
    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        y = Fraction(rng.randint(-99, 99), rng.randint(1, 99))
        p = rng.choice([2, 3, 5])
        assert vp_rat(x + y, p) >= min(vp_rat(x, p), vp_rat(y, p))


def test_vp_factorial_against_direct():
    # oracle: vp of n! computed by literal factorization
    def direct(n, p):
        v, m = 0, math.factorial(n)
        while m % p == 0:
            m //= p
            v += 1
        return v

    for p in (2, 3, 5, 7):
        for n in range(13):
            assert vp_factorial(n, p) == direct(n, p)
    assert vp_factorial(9, 3) == 4
    assert vp_factorial(0, 7) == 0
    assert vp_factorial(6, 7) == 0


def test_vp_factorial_legendre_sum():
    # independent form: sum of floor(n/p^i)
    for p in (2, 3, 5, 7):
        for n in range(10001):
            s, pk = 0, p
            while pk <= n:
                s += n // pk
                pk *= p
            assert vp_factorial(n, p) == s


def test_falling():
    assert falling(5, 3) == 60
    assert falling(Fraction(5), 0) == 1
    assert falling(3, 5) == 0
    assert falling(-2, 3) == (-2) * (-3) * (-4)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        falling(3, -1)


def test_binom():
    assert binom(5, 1) == 5
    assert binom(4, 0) == 1
    assert binom(10, 2) == 45
    assert binom(3, 5) == 0
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    with pytest.raises(ValueError):
        binom(4, -1)


def test_infinity_ordering():
    assert INFINITY > 10**100
    assert not INFINITY < 0
    assert INFINITY >= INFINITY
    assert INFINITY + 5 is INFINITY
    assert min(INFINITY, 3) == 3


def test_infinity_contract():
    # what src/ relies on: the printed name, order and min against ints past
    # the float range, absorbing addition, and a product that stays infinite
    assert str(INFINITY) == repr(INFINITY) == f"{INFINITY}" == "INFINITY"
    assert INFINITY > 10**400 and min(INFINITY, 10**400) == 10**400
    assert 7 + INFINITY is INFINITY
    assert 2 * INFINITY > 10**400
    assert vp(0, 7) is INFINITY
    assert residual_valuation([-6, 1, 1], 2, 5) is INFINITY  # (x - 2)(x + 3)
    assert str(classify(27, 0)).endswith("m=INFINITY")


@pytest.mark.parametrize("p", [1, 0, -1])
@pytest.mark.parametrize("call", [
    lambda p: vp(5, p),
    lambda p: vp(0, p),
    lambda p: vp_rat(Fraction(1, 2), p),
    lambda p: vp_rat(0, p),
    lambda p: digit_sum(5, p),
    lambda p: vp_factorial(5, p),
    lambda p: PadicInt.from_rat(Fraction(1, 2), p, 4),
    lambda p: PadicInt(p, 3, 5),
    lambda p: PadicInt.from_int(5, p, 3),
], ids=["vp", "vp_zero", "vp_rat", "vp_rat_zero", "digit_sum", "vp_factorial",
        "from_rat", "padic_int", "from_int"])
def test_valuation_helpers_refuse_p_below_2(call, p):
    # an alarm turns the old endless loop at p = 1 or -1 into a failure
    def hang(signum, frame):
        raise AssertionError(f"no answer within 3 s at p={p}")
    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(3)
    try:
        with pytest.raises(DomainError, match="not prime"):
            call(p)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(2147483647)
    assert not is_prime(1) and not is_prime(561) and not is_prime(1105)
    assert not is_prime(7 * 10**6 + 1) or (7 * 10**6 + 1) % 101  # sanity


def test_digit_sum_and_iroot():
    assert digit_sum(239, 7) == 1 + 6 + 4
    assert digit_sum(0, 5) == 0
    assert iroot(10**12, 3) == 10**4
    assert iroot(26, 3) == 2
    assert iroot(27, 3) == 3
    for n, k in ((-1, 2), (4, 0)):
        with pytest.raises(ValueError, match="need n >= 0 and k >= 1"):
            iroot(n, k)


@pytest.mark.parametrize("call", [lambda: digit_sum(-1, 3), lambda: digit_sum(-10 ** 30, 2),
                                  lambda: vp_factorial(-1, 3)],
                         ids=["digit_sum", "digit_sum_large", "vp_factorial"])
def test_negative_n_is_refused(call):
    # divmod(-1, 3) = (-1, 2): the digit loop never reached 0 before the check
    def hang(signum, frame):
        raise AssertionError("no answer within 3 s")
    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(3)
    try:
        with pytest.raises(ValueError, match="nonnegative"):
            call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
