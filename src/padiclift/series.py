"""Truncated formal power series over Q, and series solutions of f(x) = 0.

The :class:`Series` type is dense and exact, with an explicit truncation
order: a series of order M is known modulo x**(M+1).  Binary operations
truncate to the smaller order.  A series keeps its coefficients as given,
``int`` or ``Fraction``, so an integer series (every series the
factorization builds) stays on plain ``int`` through sums, products
(:func:`polys.mul`), reciprocals with a unit constant term and evaluation
(:func:`polys.evaluate`); the Fraction coefficients are built only when read.

On top of the ring operations sit the three series engines used by the
lifting and factorization code:

* :func:`lagrange_invert` - coefficients of the compositional inverse of
  phi(t) = t*(1 + sum alpha_r t^r / r!), as Bell-polynomial sums; the
  sum itself is :func:`lagrange_sum`, which the factorization's a_n and
  its closed-form T_n share;
* :func:`formal_root_brackets` / :func:`formal_root_brackets_alt` (and
  :func:`formal_root_terms` on the first) - the term stream of the formal
  root of a_0 + a_1 x + a_2 x^2 + ... when a_1 is invertible, in two
  algebraically-equal forms.  The engine is the intermediate form, which
  reads the ordinary entries [x^n] S^j of one n_max-row table on
  (a_2, a_3, ...), through the integer kernel :func:`formal_root_numerators`;
  the regrouped form on B(n+k, k)(1! a_1, 2! a_2, ...), over 2 n_max rows,
  is kept as the cross-check of the regrouping identity;
* :func:`trinomial_root_terms` - the sparse specialization for
  x^m + p*x = q, whose m = 5 case is Eisenstein's classical series.

"Formal root" is made literally testable by :func:`formal_root_series`,
which treats the constant term as an indeterminate t and returns the root
as a Series in t; plugging it back into f must give 0 mod t**(M+1).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, mul, neg

from . import polys
from .bell import BellTable
from .bigmath import binom
from .errors import DomainError


class CompositionNeedsZeroConstant(DomainError):
    """compose(f, g) requires g(0) = 0."""


class NotInvertible(DomainError):
    """reciprocal(f) requires f(0) != 0."""


class LinearCoefficientZero(DomainError):
    """The formal-root construction needs an invertible linear coefficient."""


class DegenerateExponent(DomainError):
    """Trinomial root series needs exponent m > 1."""


class Series:
    """Power series known modulo x**(order+1), dense and exact.

    Stored as one tuple of the coefficients as given, ``int`` or ``Fraction``
    (other numbers become Fractions); equality and hashing agree between the
    two, as ``2 == Fraction(2)`` and their hashes do.  Products
    (:func:`polys.mul`) and evaluation (:func:`polys.evaluate`) run on that
    tuple; :attr:`coeffs` reads it as Fractions."""

    __slots__ = ("_cs",)

    def __init__(self, coeffs, order: int | None = None):
        cs = [c if type(c) is int or type(c) is Fraction else Fraction(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[: order + 1] + [0] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("empty coefficient list and no order")
        self._cs = tuple(cs)

    @classmethod
    def _of(cls, cs) -> "Series":
        """The series on cs, whose entries are already ``int`` or ``Fraction``:
        results of the ring operations skip the type scan of ``__init__``."""
        s = object.__new__(cls)
        s._cs = tuple(cs)
        return s

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Fractions."""
        return tuple(map(Fraction, self._cs))

    @property
    def int_coeffs(self) -> tuple:
        """The coefficients as ``int``; ValueError unless all are integers."""
        cs = self._cs
        if all(type(c) is int for c in cs):
            return cs
        if any(c.denominator != 1 for c in cs):
            raise ValueError("the series has a non-integer coefficient")
        return tuple(map(int, cs))

    @property
    def order(self) -> int:
        return len(self._cs) - 1

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([1], order)

    @classmethod
    def x(cls, order: int) -> "Series":
        return cls([0, 1], order)

    def __getitem__(self, n: int) -> Fraction:
        return Fraction(self._cs[n])

    def __eq__(self, other):
        return isinstance(other, Series) and self._cs == other._cs

    def __hash__(self):
        return hash(self._cs)

    def __repr__(self):
        return f"Series({list(self.coeffs)!r})"

    def truncate(self, order: int) -> "Series":
        return Series(self._cs, order)

    def is_zero(self) -> bool:
        return not any(self._cs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series._of((self._cs[0] + other, *self._cs[1:]))
        return Series._of(map(add, self._cs, other._cs))

    __radd__ = __add__

    def __neg__(self):
        return Series._of(map(neg, self._cs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series._of(c * other for c in self._cs)
        return Series._of(polys.mul(self._cs, other._cs, min(len(self._cs), len(other._cs))))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            return self.reciprocal() ** (-e)
        if e == 0:
            return Series.one(self.order)
        out = self  # left to right over the bits of e below the leading one
        for bit in bin(e)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def compose(self, g: "Series") -> "Series":
        """self(g(x)) truncated at min(orders); needs g(0) = 0."""
        if g._cs[0] != 0:
            raise CompositionNeedsZeroConstant("inner series must have zero constant term")
        M = min(self.order, g.order)
        out = Series.zero(M)
        gk = Series.one(M)
        g = g.truncate(M)
        for k, a in enumerate(self._cs[: M + 1]):
            if a:
                out = out + gk * a
            if k < M:
                gk = gk * g
        return out

    def reciprocal(self) -> "Series":
        """Series g with self * g = 1 + O(x**(order+1)); needs f(0) != 0.

        g_0 = 1/f_0 and g_n = -g_0 sum_{i=1..n} f_i g_(n-i).  1/f_0 = f_0 when
        f_0 = +-1, so an integer series with a unit constant term stays on
        ``int``."""
        f = self._cs
        if f[0] == 0:
            raise NotInvertible("constant term is zero")
        g0 = f[0] if f[0] in (1, -1) else 1 / Fraction(f[0])
        g = [g0]
        for n in range(1, len(f)):
            g.append(-g0 * sum(map(mul, f[1: n + 1], reversed(g))))
        return Series._of(g)

    def derivative(self) -> "Series":
        return Series._of(polys.derivative(self._cs))

    def evaluate(self, x) -> Fraction:
        """Partial-sum value at a concrete rational point (no convergence claims)."""
        return polys.evaluate(self._cs, Fraction(x))


# ---------------------------------------------------------------------------
# Lagrange inversion
# ---------------------------------------------------------------------------


def lagrange_sum(table: BellTable, n: int, k: int) -> int:
    """E^k sum_{j=1..k} (-1)^j (n+j)!/(n+1)! B(k, j) as an ``int``, B read
    from ``table`` and E its ordinary denominator (1 on every digits table):
    the Lagrange-inversion sum behind :func:`lagrange_invert` (k = n) and
    the factorization streams a_n and T_n.

    B(k, j) = k!/j! [x^k] A^j, and the table stores E^j [x^k] A^j, so the
    sum times E^k is summed in ``int`` with the weight
    c_j = (n+j)!/(n+1)! k!/j! kept as a running product,
    c_(j+1) = c_j (n+j+1)/(j+1), an exact division.  (n+j)!/(n+1)! is the
    product (n+2)...(n+j), so negative n works too."""
    row = table.ordinary_row(k)
    E = table.ordinary_denominator
    if E != 1:
        row = [b * E ** (k - j) for j, b in enumerate(row)]
    acc = 0
    c = math.factorial(k)  # c_1 = k!/1!
    for j in range(1, k + 1):
        b = row[j]
        if b:
            acc += -c * b if j & 1 else c * b
        c = c * (n + j + 1) // (j + 1)
    return acc


def lagrange_invert(alphas) -> list[Fraction]:
    """Inverse-series coefficients beta_n for phi(t) = t(1 + sum alpha_r t^r/r!).

    beta_n = sum_{j=1..n} (-1)^j (n+j)!/(n+1)! B(n, j)(alpha_1, alpha_2, ...),
    returned for n = 1..len(alphas); then
    phi^{-1}(u) = u(1 + sum beta_n u^n / n!).
    """
    alphas = [Fraction(a) for a in alphas]
    table = BellTable(alphas, len(alphas))
    E = table.ordinary_denominator
    return [Fraction(lagrange_sum(table, n, n), E ** n) for n in range(1, len(alphas) + 1)]


def series_from_alphas(alphas, order: int | None = None) -> Series:
    """Rebuild phi(t) = t(1 + sum alpha_r t^r / r!) as a Series."""
    alphas = list(alphas)
    if order is None:
        order = len(alphas) + 1
    cs = [Fraction(0), Fraction(1)]
    for r, a in enumerate(alphas, start=1):
        cs.append(Fraction(a) / math.factorial(r))
    return Series(cs, order)


class InversionProblem:
    """An alpha-sequence together with its computed inverse betas.

    Bundles the two coefficient streams of a compositional-inverse pair
    and can rebuild either side as a truncated Series for the round-trip
    check phi_inverse(phi(t)) = t + O(t^(M+2)).
    """

    def __init__(self, alphas):
        self.alphas = tuple(Fraction(a) for a in alphas)
        self.betas = tuple(lagrange_invert(self.alphas))

    def phi(self, order: int | None = None) -> Series:
        return series_from_alphas(self.alphas, order)

    def phi_inverse(self, order: int | None = None) -> Series:
        return series_from_alphas(self.betas, order)

    def roundtrip_is_identity(self) -> bool:
        M = len(self.alphas) + 1
        ident = Series.x(M)
        return (self.phi_inverse(M).compose(self.phi(M)) == ident
                and self.phi(M).compose(self.phi_inverse(M)) == ident)


# ---------------------------------------------------------------------------
# Formal roots of f(x) = a0 + a1 x + ... (a1 invertible)
# ---------------------------------------------------------------------------


def bell_args(cs):
    """x_j = j! cs[j-1] for j = 1, 2, ...: the Bell arguments whose ordinary
    generating function is sum_j cs[j-1] x^j."""
    return [math.factorial(j) * c for j, c in enumerate(cs, start=1)]


def _checked(a) -> list:
    a = [c if type(c) is int else Fraction(c) for c in a]
    if len(a) < 2 or a[1] == 0:
        raise LinearCoefficientZero("need a nonzero linear coefficient a1")
    return a


def formal_root_numerators(a, n_max: int) -> tuple[int, list[int]]:
    """The integer kernel of the brackets: (u, [X_0, ..., X_n_max]) with

    bracket_n = (-1)^(n+1) X_n / ((n+1) u^n),
    X_n = sum_j (-1)^j C(n+j, j) E^j [x^n] S(x)^j v^j u^(n-j),

    where E a1 = u/v in lowest terms; E^j [x^n] S^j is read over the band of
    one n_max-row Bell table and C(n+j, j) is stepped along j exactly.
    """
    a = _checked(a)
    table = BellTable(bell_args(a[2:]), n_max)
    u, v = (table.ordinary_denominator * a[1]).as_integer_ratio()
    u_pows = [u ** i for i in range(n_max + 1)]
    v_pows = [v ** i for i in range(n_max + 1)]
    X = []
    for n in range(n_max + 1):
        row = table.ordinary_row(n)
        lo = table.band_start(n)
        c = math.comb(n + lo, lo)
        acc = 0
        for j in range(lo, n + 1):
            b = row[j]
            if b:
                t = c * b * v_pows[j] * u_pows[n - j]
                acc += -t if j & 1 else t
            c = c * (n + j + 1) // (j + 1)
        X.append(acc)
    return u, X


def formal_root_brackets(a, n_max: int) -> list[Fraction]:
    """Bracket_n of the formal root, for n = 0..n_max.

    The root is sum_n bracket_n * (a0/a1)^(n+1), with

    bracket_n = (-1)^(n+1)/(n+1) * sum_{j=0..n} (-1)^j C(n+j, j)
                [x^n] S(x)^j / a1^j,   S(x) = a2 x + a3 x^2 + ...,

    the intermediate (pre-regrouping) form; [x^n] S^j = j!/n! B(n, j)(1! a2,
    2! a3, ...).  Only a[1:] enters the brackets; a[0] only scales the
    terms.  Each bracket is one Fraction over the integer X_n of
    :func:`formal_root_numerators`, so a rational a1 stays exact.
    """
    u, X = formal_root_numerators(a, n_max)
    return [Fraction(x if n & 1 else -x, (n + 1) * u ** n) for n, x in enumerate(X)]


def formal_root_brackets_alt(a, n_max: int) -> list[Fraction]:
    """Same brackets via the regrouped form: the cross-check.

    bracket_n = sum_{k=0..n} (-1)^(n-k+1) / (a1^k (n+1)!) * C(2n+1, n-k)
                * B(n+k, k)(1! a1, 2! a2, ...).

    Algebraically equal to :func:`formal_root_brackets`, but it reads a
    table of 2 n_max rows on the other argument sequence, so it checks the
    regrouping identity; summed entry by entry in Fraction.
    """
    a = _checked(a)
    table = BellTable(bell_args(a[1:]), 2 * n_max)
    out = []
    for n in range(n_max + 1):
        acc = Fraction(0)
        for k in range(n + 1):
            acc += ((-1) ** (n - k + 1) * binom(2 * n + 1, n - k)
                    * table.value(n + k, k) / a[1] ** k)
        out.append(acc / math.factorial(n + 1))
    return out


def formal_root_terms(a, n_max: int) -> list[tuple[Fraction, Fraction]]:
    """Per-n (bracket, term) pairs of the formal root of f(x) = 0.

    term_n = bracket_n * (a0/a1)^(n+1); the partial sums converge to the
    root whenever the ambient topology makes the terms small (e.g. p-adic
    with vp(a0) >= 1).
    """
    a = [Fraction(c) for c in a]
    brackets = formal_root_brackets(a, n_max)
    ratio = a[0] / a[1]
    return [(br, br * ratio ** (n + 1)) for n, br in enumerate(brackets)]


def formal_root_series(a, n_terms: int) -> Series:
    """The formal root as a Series in an indeterminate t standing for a0.

    Coefficient of t^(n+1) is bracket_n / a1^(n+1), for n < n_terms.  The
    defining property -- substitute into t + a1 x + a2 x^2 + ... and get
    0 mod t^(n_terms+1) -- is what the tests assert.
    """
    brackets = formal_root_brackets(a, n_terms - 1)
    a1 = Fraction(a[1])
    cs = [Fraction(0)] * (n_terms + 1)
    for n, br in enumerate(brackets):
        cs[n + 1] = br / a1 ** (n + 1)
    return Series(cs)


def apply_poly_with_indeterminate_constant(a, root: Series) -> Series:
    """Evaluate t + a1*x + a2*x^2 + ... at x = root(t), as a Series in t."""
    M = root.order
    out = Series.x(M)  # the constant term a0 = t
    xk = Series.one(M)
    for j in range(1, len(a)):
        xk = xk * root
        if a[j]:
            out = out + xk * Fraction(a[j])
    return out


def trinomial_root_terms(m: int, pcoef, k_max: int, q=None):
    """Terms of the series root of x^m + p*x = q.

    With q=None the k-th entry is (exponent, coefficient) with the term
    understood as coefficient * q**exponent, where

        exponent = (m-1)k + 1,
        coefficient = (-1)^k C(mk, k) / (((m-1)k + 1) * p^(mk+1)).

    With a concrete rational q the evaluated term values are returned.
    The m = 5, p = 1 case is Eisenstein's series for x^5 + x = q.
    """
    if m <= 1:
        raise DegenerateExponent(f"need m > 1, got {m}")
    pcoef = Fraction(pcoef)
    if pcoef == 0:
        raise LinearCoefficientZero("trinomial needs p != 0")
    out = []
    for k in range(k_max + 1):
        e = (m - 1) * k + 1
        coeff = Fraction((-1) ** k * binom(m * k, k), e) / pcoef ** (m * k + 1)
        if q is None:
            out.append((e, coeff))
        else:
            out.append(coeff * Fraction(q) ** e)
    return out
