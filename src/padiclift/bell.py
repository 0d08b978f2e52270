"""Partial Bell polynomials evaluated exactly on numeric sequences.

``B(n, k)`` of a sequence x_1, x_2, ... is computed with the standard
binomial recurrence (Comtet, *Advanced Combinatorics*, 1974, 3.3)

    B(n, k) = sum_{j>=1} C(n-1, j-1) * x_j * B(n-j, k-1),

which is polynomial-time.  The recurrence runs on plain ``int``: rational
inputs are first cleared to y = D*x with D the lcm of their denominators,
and since B(n, k) is homogeneous of degree k, B(n, k)(x) = B(n, k)(y) / D^k.
The defining sum over the partition index set pi(n, k) is kept as
:func:`bell_oracle`, an independent reference used by the test-suite only
(it is exponential and refuses n > 14).

Inputs beyond the end of the given sequence count as zero, which is the
right convention for the coefficient sequences of polynomials.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bigmath import binom, falling
from .errors import DomainError

ORACLE_LIMIT = 14


class OracleTooLarge(DomainError):
    """The enumeration oracle was asked for an n beyond its guard."""


class BellTable:
    """Memo of B(n, k) for all 0 <= k <= n <= n_max on a fixed sequence.

    Built once, then read-only, at a cost of O(n_max^2 * len(xs)) integer
    multiply-adds.  :meth:`int_value` reads the stored integer D^k B(n, k)
    = B(n, k)(D x_1, D x_2, ...), where D = :attr:`denominator` is the lcm
    of the denominators of xs; :meth:`value` divides it by D^k."""

    def __init__(self, xs, n_max: int):
        xs = [Fraction(x) for x in xs]
        D = math.lcm(*(x.denominator for x in xs))
        ys = [x.numerator * (D // x.denominator) for x in xs]
        self.n_max = n_max
        self.denominator = D
        rows = [[1]]
        for n in range(1, n_max + 1):
            row = [0] * (n + 1)
            # y_j = 0 past the end of the sequence
            for j, y in enumerate(ys[:n], start=1):
                if y:
                    c = math.comb(n - 1, j - 1) * y
                    prev = rows[n - j]
                    for k in range(1, n - j + 2):
                        b = prev[k - 1]
                        if b:
                            row[k] += c * b
            rows.append(row)
        self._rows = rows

    def int_value(self, n: int, k: int) -> int:
        """D^k B(n, k); zero outside 0 <= k <= n by convention."""
        if k < 0 or n < 0 or k > n:
            return 0
        if n > self.n_max:
            raise IndexError(f"table built to n_max={self.n_max}, asked for n={n}")
        return self._rows[n][k]

    def value(self, n: int, k: int) -> Fraction:
        """B(n, k); zero outside 0 <= k <= n by convention."""
        return Fraction(self.int_value(n, k), self.denominator ** max(k, 0))


def bell(n: int, k: int, xs) -> Fraction:
    """Exact B(n, k) on the sequence xs (zero-padded past its end)."""
    if k < 0 or n < 0 or k > n:
        return Fraction(0)
    return BellTable(xs, n).value(n, k)


def _partitions(n, k, jmax):
    """Yield multiplicity vectors (i_1, ..., i_jmax) with sum(i)=k, sum(j*i_j)=n."""
    if n < 0 or k < 0 or n < k or n > k * jmax:
        return
    if jmax == 0:
        yield ()  # n == k == 0 here
        return
    # choose the multiplicity of the largest part jmax, then recurse
    for m in range(min(k, n // jmax), -1, -1):
        for rest in _partitions(n - m * jmax, k - m, jmax - 1):
            yield rest + (m,)


def bell_oracle(n: int, k: int, xs) -> Fraction:
    """B(n, k) by direct summation over the partition index set.

    Reference implementation: enumerates every sequence (i_1, i_2, ...)
    with i_1 + i_2 + ... = k and i_1 + 2 i_2 + 3 i_3 + ... = n.  Guarded
    at n <= 14 because the enumeration is exponential.
    """
    if n > ORACLE_LIMIT:
        raise OracleTooLarge(f"oracle limited to n <= {ORACLE_LIMIT}, got {n}")
    if k < 0 or n < 0 or k > n:
        return Fraction(0)
    xs = tuple(Fraction(x) for x in xs)
    total = Fraction(0)
    nfact = math.factorial(n)
    for i in _partitions(n, k, n):
        term = Fraction(nfact)
        ok = True
        for j, mult in enumerate(i, start=1):
            if mult == 0:
                continue
            x = xs[j - 1] if j <= len(xs) else Fraction(0)
            if x == 0:
                ok = False
                break
            term *= (x / math.factorial(j)) ** mult
            term /= math.factorial(mult)
        if ok:
            total += term
    return total


def bell_falling(n: int, k: int, a) -> Fraction:
    """B(n, k) on the falling-factorial sequence (a)_1, (a)_2, ...

    Uses the closed form (1/k!) * sum_j (-1)^(k-j) C(k, j) (j*a)_n, which
    the test-suite checks against the recurrence on the explicit sequence.
    """
    if k < 0 or n < 0 or k > n:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(k + 1):
        acc += (-1) ** (k - j) * binom(k, j) * Fraction(falling(Fraction(j) * a, n))
    return acc / math.factorial(k)
