"""Exact integer/rational arithmetic helpers and p-adic valuations.

Integers are plain ``int``, rationals ``fractions.Fraction`` (reduced, with
positive denominator), so canonical form comes for free.  This module adds
the valuation layer: ``vp`` and friends, with ``INFINITY`` for the valuation
of zero (a float infinity that prints as ``INFINITY`` and absorbs addition),
and :func:`check_prime_base`, the one ``p < 2`` check (a ``DomainError``,
"not prime"), which the valuations, ``PadicInt`` and every lift call.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError


class _Infinity(float):
    """The valuation of 0: float infinity, printed as INFINITY, and absorbing
    under addition so that INFINITY + n is INFINITY itself."""

    def __repr__(self):
        return "INFINITY"

    __str__ = __repr__

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITY = _Infinity("inf")


def check_prime_base(p: int) -> None:
    """DomainError for p < 2, raised before any arithmetic mod p."""
    if p < 2:
        raise DomainError(f"p={p} is not prime")


def vp(a: int, p: int) -> int | _Infinity:
    """p-adic valuation of an integer: the largest e with p**e | a.

    ``vp(0, p)`` is ``INFINITY``.  The sign of ``a`` is ignored.
    """
    check_prime_base(p)
    if a == 0:
        return INFINITY
    a = abs(a)
    v = 0
    # strip large blocks first to keep the loop short on huge inputs
    pk = p * p * p * p
    while a % pk == 0:
        a //= pk
        v += 4
    while a % p == 0:
        a //= p
        v += 1
    return v


def vp_rat(x: Fraction | int, p: int) -> int | _Infinity:
    """p-adic valuation of a rational, vp(num) - vp(den).

    Computed on the reduced form, so the result does not depend on how the
    fraction was written.  May be negative; ``vp_rat(0, p)`` is INFINITY.
    """
    x = Fraction(x)
    if x == 0:
        return vp(0, p)
    return vp(x.numerator, p) - vp(x.denominator, p)


def digit_sum(n: int, p: int) -> int:
    """Sum of the base-p digits of n >= 0 (the digits of n < 0 never end)."""
    check_prime_base(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def vp_factorial(n: int, p: int) -> int:
    """vp(n!) via the digit-sum form of Legendre's formula.

    Equals (n - digit_sum_base_p(n)) / (p - 1), which is always an exact
    integer; :func:`digit_sum` refuses n < 0.
    """
    return (n - digit_sum(n, p)) // (p - 1)


def falling(a, n: int):
    """Falling factorial (a)_n = a(a-1)...(a-n+1), with (a)_0 = 1.

    Works for integer or Fraction ``a``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = a ** 0  # 1 in the right type
    for i in range(n):
        out *= a - i
    return out


def binom(n: int, k: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper index.

    falling(n, k) / k!, always an exact integer; 0 when 0 <= n < k.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if 0 <= n:
        if k > n:
            return 0
        return math.comb(n, k)
    num = falling(n, k)
    return num // math.factorial(k)


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every witness above
MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the witnesses 2..41: exact for n < 3317044064679887385961981.

    From that bound on, a strong Lucas test completes the Baillie-Wagstaff
    (BPSW) test, which has no known counterexample but is not proven exact.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < MR_EXACT_BELOW or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge parameters, odd n > 5."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4  # P = 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    U, V, Qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = (U + V) % n, (D * U + V) % n
            U, V = (U + n * (U & 1)) // 2, (V + n * (V & 1)) // 2
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n < 2 or k == 1:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y
