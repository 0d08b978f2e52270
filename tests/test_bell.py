import math
import random
from fractions import Fraction

import pytest
from conftest import bell_table

from padiclift.bell import OracleTooLarge, bell, bell_falling, bell_oracle
from padiclift.bigmath import binom, falling


def rand_seq(rng, n=10):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]


def test_single_block():
    rng = random.Random(3)
    xs = rand_seq(rng)
    for n in range(1, 9):
        assert bell(n, 1, xs) == xs[n - 1]


def test_conventions():
    xs = (1, 2, 3)
    assert bell(0, 0, xs) == 1
    assert bell(5, 0, xs) == 0
    assert bell(3, 4, xs) == 0
    assert bell(3, 5, [1]) == 0
    assert bell_oracle(3, 5, [1]) == 0


def test_spec_values():
    # Stirling-type count: partitions of a 4-set into 2 blocks
    assert bell(4, 2, (1, 1, 1)) == 7
    assert bell_oracle(4, 2, (1, 1, 1)) == 7
    # single-slot value (jk)!/(k!(j!)^k) at j=2, k=3
    assert bell(6, 3, (0, 1)) == Fraction(math.factorial(6), math.factorial(3) * 2 ** 3)
    assert bell_oracle(3, 3, (2,)) == 8  # B(n,n) = x1^n
    assert bell_oracle(5, 4, (1, 1)) == binom(5, 2)


def test_oracle_guard():
    with pytest.raises(OracleTooLarge):
        bell_oracle(15, 3, (1, 1, 1))


def test_recurrence_matches_oracle():
    rng = random.Random(20)
    for _ in range(20):
        xs = rand_seq(rng)
        table = bell_table(xs, 10)
        for n in range(11):
            for k in range(n + 1):
                assert table.value(n, k) == bell_oracle(n, k, xs), (n, k, xs)


def test_homogeneity():
    rng = random.Random(21)
    for _ in range(10):
        xs = rand_seq(rng, 8)
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        scaled = [a * b ** j * x for j, x in enumerate(xs, start=1)]
        for n in range(9):
            for k in range(n + 1):
                assert bell(n, k, scaled) == Fraction(a) ** k * b ** n * bell(n, k, xs)


def test_shift_identity():
    # B(n,k)(x2/2, x3/3, ...) = n!/(n+k)! * B(n+k,k)(0, x2, x3, ...)
    rng = random.Random(22)
    for _ in range(10):
        xs = rand_seq(rng, 10)
        padded = [0] + xs[1:]
        for n in range(9):
            for k in range(n + 1):
                lhs = bell(n, k, [xs[j + 1] / (j + 2) for j in range(len(xs) - 1)])
                rhs = Fraction(math.factorial(n), math.factorial(n + k)) * bell(n + k, k, padded)
                assert lhs == rhs, (n, k)


def test_convolution_identity():
    rng = random.Random(23)
    for _ in range(6):
        xs = rand_seq(rng, 8)
        ys = rand_seq(rng, 8)
        both = [x + y for x, y in zip(xs, ys)]
        for n in range(9):
            for k in range(n + 1):
                rhs = Fraction(0)
                for kk in range(k + 1):
                    for nn in range(n + 1):
                        rhs += binom(n, nn) * bell(nn, kk, xs) * bell(n - nn, k - kk, ys)
                assert bell(n, k, both) == rhs, (n, k)


def test_single_slot_identity():
    rng = random.Random(24)
    for j in range(1, 5):
        xj = Fraction(rng.randint(1, 5))
        seq = [0] * (j - 1) + [xj]
        for n in range(9):
            for k in range(n + 1):
                val = bell(n, k, seq)
                if n == j * k:
                    expect = Fraction(math.factorial(j * k),
                                      math.factorial(k) * math.factorial(j) ** k) * xj ** k
                    assert val == expect
                else:
                    assert val == 0


def test_falling_factorial_identity():
    # closed form against the recurrence on the explicit falling sequence
    for a in (-3, -1, 2, 3, 5):
        seq = [falling(a, j) for j in range(1, 10)]
        for n in range(9):
            for k in range(n + 1):
                assert bell_falling(n, k, a) == bell(n, k, seq), (a, n, k)
    assert bell_falling(3, 1, 3) == falling(3, 3) == 6
    assert bell_falling(2, 2, 2) == 4
    assert bell_falling(4, 2, 2) == bell(4, 2, (2, 2, 0, 0))
