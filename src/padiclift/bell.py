"""Partial Bell polynomials evaluated exactly on numeric sequences.

For a sequence x_1, x_2, ... put a_j = x_j / j! and A(x) = sum_j a_j x^j.
Then (Comtet, *Advanced Combinatorics*, 1974, 3.3)

    B(n, k) = n!/k! [x^n] A(x)^k,

so a table of B(n, k) is a table of the ordinary power coefficients
[x^n] A(x)^k, which :class:`BellTable` builds by the convolution

    [x^n] A^k = sum_{j>=1} a_j [x^(n-j)] A^(k-1).

That recurrence has no binomial, and its cells grow like powers of the
a_j, not like n!.  The table is given the a_j, the coefficients of the
series it powers, and runs on plain ``int``: since [x^n] A^k is homogeneous
of degree k in the a_j, it stores E^k [x^n] A^k, E the lcm of their
denominators, on the band k >= n/L of row n, L the last j with a_j != 0.
Every engine reads a row by :meth:`BellTable.band`, B(n, k) is rebuilt from
it on read, and :func:`bell` is the one place that turns the x_j into the a_j.
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
    """[x^n] A(x)^k for 0 <= k <= n <= n_max, A = sum_j a_j x^j on the given
    a_1, a_2, ... (``int`` or ``Fraction``), and B(n, k) on x_j = j! a_j.

    Built once, then read-only.  With L the index of the last nonzero a_j
    (1 if none), [x^n] A^k = 0 for k < n/L, so only the band of row n is
    stored, read by :meth:`band`: E^k [x^n] A^k = E^k k!/n! B(n, k) for k >= n/L,
    E = :attr:`ordinary_denominator` the lcm of the denominators of the a_j (1 on
    the digits' table and on integer lift data), and :meth:`value` rebuilds B(n, k)."""

    def __init__(self, a, n_max: int):
        ratios = [c.as_integer_ratio() for c in a]
        E = math.lcm(*(d for _, d in ratios))
        ys = [u * (E // d) for u, d in ratios]
        L = max((j for j, y in enumerate(ys, start=1) if y), default=1)
        taps = [(j, y) for j, y in enumerate(ys[:L], start=1) if y]
        self.n_max, self.ordinary_denominator = n_max, E
        starts, bands = self._starts, self._bands = [0], [(1,)]
        for n in range(1, n_max + 1):
            lo = -(-n // L)
            band = [0] * (n + 1 - lo)
            # entry k of row n gets y_j times entry k - 1 of row n - j, for every j
            for j, y in taps:
                if j > n:
                    break
                for i, b in enumerate(bands[n - j], starts[n - j] + 1 - lo):
                    if b:
                        band[i] += y * b
            starts.append(lo)
            bands.append(tuple(band))

    def band(self, n: int) -> tuple[int, tuple]:
        """(s, E^k [x^n] A(x)^k for k = s..n), 0 <= n <= n_max; below s = ceil(n/L) all are 0."""
        if not 0 <= n <= self.n_max:
            raise IndexError(f"table built to n_max={self.n_max}, asked for n={n}")
        return self._starts[n], self._bands[n]

    def value(self, n: int, k: int) -> Fraction:
        """B(n, k); zero outside 0 <= k <= n by convention, IndexError past n_max."""
        if k < 0 or n < 0 or k > n:
            return Fraction(0)
        start, entries = self.band(n)
        b = entries[k - start] if k >= start else 0
        return Fraction(math.factorial(n) * b, math.factorial(k) * self.ordinary_denominator ** k)


def bell(n: int, k: int, xs) -> Fraction:
    """Exact B(n, k) on the sequence xs (zero-padded past its end), read from
    the table on a_j = x_j / j!."""
    if k < 0 or n < 0 or k > n:
        return Fraction(0)
    a = [Fraction(x) / math.factorial(j) for j, x in zip(range(1, n + 1), xs)]
    return BellTable(a, n).value(n, k)


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
