"""Reducibility classification and explicit factorization over Z[[x]].

Targets f(x) = sigma p^w + p^m g1 x + g2 x^2 + ... (sigma = +-1, w >= 2,
m >= 1 and gcd(p, g1) = 1, or f_1 = 0 and m = INFINITY), the one shape
whose reducibility is not settled by the constant term alone.  Given a root
r in p*Z_p with vp(r) = ell <= m and unit part e0 = r / p^ell, let
c = e0^(-1) mod p^ell; then c r = p^ell (1 + sum e_j p^(ell j)) has unit
part 1 mod p^ell, and the factorization is

    f = (p^ell - c x - x sum a_n c^(n+1) x^n)
        (sigma p^(w-ell) + (sigma c p^(w-2 ell) + p^(m-ell) g1) x + x sum b_n x^n)

where the a_n come from inverting x*E(x) (E the digit series of c r), so
the first factor is A(x) = A'(c x) for the paper's A', which vanishes at
c r; the second is B = f / A = P (C s)(x / P), P = p^ell, one convolution
of f's own coefficients C(x) = f(P x) / P^2 (:func:`bhat_coeffs`), whose
b_n = bhat_n / p^(ell n) rest on the divisibility p^(ell n) | bhat_n, a
theorem that the code asserts on every coefficient it produces.  c = 1 and
sigma = 1 are the paper's case; nothing here needs p odd, and the sign sigma
rides into B alone.

Inputs may be polynomials or power series with an eventually-geometric
tail, whose roots on p*Z_p are those of an integer numerator.  The streams
and the lemma checks run on int lists: t is 1/Ahat by the integer recurrence,
the a_n and the sampled closed forms T_n read one Bell table on the digits,
built once per :func:`factor` call and read one band per row.  The T_n weight
each band by factorial ratios stepped from row to row (:func:`_tn_rows`, kept
for small orders, as it reads no digits); the reciprocal identity is one
:func:`polys.is_product` and the eight recurrence identities one
:func:`polys.is_product_chain`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from . import polys
from .bell import BellTable
from .bigmath import iroot, is_prime, vp
from .errors import DomainError
from .hensel import LiftReport, _newton_balls, lift_general
from .padic import PadicInt
from .series import Series, root_numerators


class WrongShape(DomainError):
    """Input is not of the +-p^w + p^m*g1*x + ... factorization shape (f_1 = 0 allowed)."""


class WrongValuation(DomainError):
    """Root valuation does not match the requested ell."""


class UnitPartNotOne(DomainError):
    """Root unit part != 1 mod p^ell, so the paper's digits do not exist."""


class InsufficientPrecision(DomainError):
    """Root known to too few digits for the requested order."""


class IntegralityViolation(DomainError):
    """A provably-integer coefficient came out non-integral."""


class DivisibilityViolation(DomainError):
    """p^(ell n) failed to divide bhat_n."""


class PrecisionExhausted(DomainError):
    """An internal congruence check failed at the working precision."""


class NoMultipleRoot(DomainError):
    """gcd(f, f') is constant: no multiple root to split off."""


class NoSuitableRoot(DomainError):
    """No root with vp(r) = ell <= min(m, w // 2) was found (m = INFINITY when f_1 = 0)."""


# ---------------------------------------------------------------------------
# inputs: polynomials and geometric-tail series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesInput:
    """f_0, f_1, ... with either a zero tail (polynomial) or the last head
    coefficient extended geometrically: f_j = head[-1] * ratio^(j-H+1) for
    j >= H = len(head)."""

    head: tuple
    tail_ratio: int | None = None

    def __post_init__(self):
        if not self.head and self.tail_ratio is not None:
            raise ValueError("a geometric tail extends head[-1], and the head is empty")

    @classmethod
    def polynomial(cls, coeffs) -> "SeriesInput":
        return cls(tuple(int(c) for c in coeffs), None)

    @classmethod
    def geometric(cls, coeffs, ratio: int) -> "SeriesInput":
        return cls(tuple(int(c) for c in coeffs), int(ratio))

    def coeff(self, j: int) -> int:
        if j < len(self.head):
            return self.head[j]
        if self.tail_ratio is None:
            return 0
        return self.head[-1] * self.tail_ratio ** (j - len(self.head) + 1)

    def eval_exact(self, c) -> Fraction:
        """f(c) = F(c) / (1 - r c) as an exact rational, F the :meth:`numerator`
        and r = 0 for a polynomial: the p-adic sum whenever vp(r c) >= 1."""
        c, r = Fraction(c), self.tail_ratio or 0
        return polys.evaluate(self.numerator(), c) / (1 - r * c)

    def eval_derivative_exact(self, c) -> Fraction:
        """f'(c) = (F'(c) (1 - r c) + r F(c)) / (1 - r c)^2, by the quotient rule."""
        c, r, F = Fraction(c), self.tail_ratio or 0, self.numerator()
        dF = polys.evaluate(polys.derivative(F), c)
        return (dF * (1 - r * c) + r * polys.evaluate(F, c)) / (1 - r * c) ** 2

    def numerator(self) -> list:
        """The integer F with f = F / (1 - r x), whose roots on p Z_p are those of f:
        the head, or (1 - r x) head(x) + h r x^H for a tail of ratio r."""
        F, r = list(self.head), self.tail_ratio
        return F if r is None else polys.add(polys.mul([1, -r], F), [0] * len(F) + [F[-1] * r])


def _as_input(f) -> SeriesInput:
    return f if isinstance(f, SeriesInput) else SeriesInput.polynomial(f)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

UNIT = "Unit"
IRREDUCIBLE_PRIME = "IrreduciblePrime"
IRREDUCIBLE_PRIME_POWER_UNIT_LINEAR = "IrreduciblePrimePowerUnitLinear"
REDUCIBLE_COMPOSITE = "ReducibleComposite"
NEEDS_ROOT_ANALYSIS = "NeedsRootAnalysis"
IRREDUCIBLE_X_TIMES_UNIT = "IrreducibleXTimesUnit"


@dataclass(frozen=True)
class Classification:
    kind: str
    p: int | None = None
    w: int | None = None
    m: int | float | None = None  # int or INFINITY (f1 = 0)

    def __str__(self):
        if self.kind == NEEDS_ROOT_ANALYSIS:
            return f"{self.kind} p={self.p} w={self.w} m={self.m}"
        return self.kind


def _prime_power(n: int):
    """(p, w) with n = p**w, or None."""
    if n < 2:
        return None
    # the least divisor d < 42 of n is prime, so only d ** vp(n, d) can equal n
    if d := next((d for d in range(2, 42) if n % d == 0), None):
        w = vp(n, d)
        return (d, w) if d ** w == n else None
    # else every prime factor is > 2**5, so n = r**q needs q <= bits / 5: peel each
    # prime q while n = iroot(n, q)**q (a composite q's prime factors peel first)
    w, q = 1, 2
    while q <= n.bit_length() // 5:
        if all(q % d for d in range(2, math.isqrt(q) + 1)):
            while (r := iroot(n, q)) ** q == n:
                n, w = r, w * q
        q += 1
    return (n, w) if is_prime(n) else None


def classify(f0: int, f1: int) -> Classification:
    """Reducibility case analysis on the two lowest coefficients.

    Units and series with prime |f0| are irreducible; prime-power |f0|
    with gcd(p, f1) = 1 likewise; f0 = 0 with f1 = +-1 is x times a unit,
    and x is prime in Z[[x]]; any other f0 that is not a prime power
    means reducible.  The remaining case carries its (p, w, m) on to the
    root analysis.
    """
    a = abs(f0)
    if a == 1:
        return Classification(UNIT)
    if a == 0 and abs(f1) == 1:
        return Classification(IRREDUCIBLE_X_TIMES_UNIT)
    pw = _prime_power(a)
    if pw is None:
        return Classification(REDUCIBLE_COMPOSITE)
    p, w = pw
    if w == 1:
        return Classification(IRREDUCIBLE_PRIME, p=p, w=1)
    if f1 % p != 0:
        return Classification(IRREDUCIBLE_PRIME_POWER_UNIT_LINEAR, p=p, w=w)
    return Classification(NEEDS_ROOT_ANALYSIS, p=p, w=w, m=vp(f1, p))


# ---------------------------------------------------------------------------
# digits, coefficient streams, T-series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootDigits:
    """Root written as p^ell (1 + sum_j e_j p^(ell j)), 0 <= e_j < p^ell; the streams
    read the Bell table on its digits, which :func:`factor` builds once per call."""

    p: int
    ell: int
    digits: tuple

    def reconstruct(self, precision: int) -> int:
        return polys.evaluate((0, 1, *self.digits), self.p ** self.ell) % self.p ** precision


def root_to_digits(r: PadicInt, ell: int, M: int) -> RootDigits:
    """Base-p^ell digits e_1..e_M of the unit part of r, which must be
    1 mod p^ell (:func:`factor` passes c r, c the inverse of r's unit part)."""
    if r.precision < ell * (M + 3):
        raise InsufficientPrecision(
            f"root precision {r.precision} < ell*(M+3) = {ell * (M + 3)}"
        )
    if r.valuation() != ell:
        raise WrongValuation(f"vp(root) = {r.valuation()}, expected {ell}")
    p = r.p
    u = r.residue // p ** ell
    blk = p ** ell
    if u % blk != 1:
        raise UnitPartNotOne(f"unit part = {u % blk} mod p^ell, expected 1")
    w = (u - 1) // blk
    es = []
    for _ in range(M):
        w, e = divmod(w, blk)
        es.append(e)
    return RootDigits(p, ell, tuple(es))


def _exact(num: int, den: int, what: str, *args) -> int:
    """num / den, an integer by a lemma; a remainder raises IntegralityViolation."""
    q, r = divmod(num, den)
    if r:
        raise IntegralityViolation(f"{what.format(*args)} = {Fraction(num, den)} is not an integer")
    return q


def a_coeffs(table: BellTable, M: int) -> list[int]:
    """a_n = (1/n!) sum_k (-1)^k (n+k)!/(n+1)! B(n,k)(1! e_1, 2! e_2, ...),
    n = 1..M, the coefficients of the compositional inverse of x*E(x), read as
    the provable integers X_n / (n+1), X_n of
    :func:`~padiclift.series.root_numerators` with c = 1 on ``table``, the digits' table."""
    X = root_numerators(table, 1, 1, M)
    return [_exact(X[n], n + 1, "a_{}", n) for n in range(1, M + 1)]


def _ahat(a: list[int], P: int) -> list[int]:
    """Ahat(x) = A(P x)/P = 1 - x - x sum P^n a_n x^n, P = p^ell, as a list."""
    return [1, -1] + [-an * P ** n for n, an in enumerate(a, start=1)]


def t_coeffs(a: list[int], P: int) -> list[int]:
    """t_n, n = 1..len(a): 1/Ahat = 1 + x + sum t_n x^(n+1) for :func:`_ahat`,
    by g_0 = 1, g_n = -sum_(i=1..n) Ahat_i g_(n-i).  Ahat(0) = 1, so the t_n
    are integers; by the paper they are also T_n(P), T_n the closed form of
    :func:`tn_coeffs` truncated at x^n."""
    ahat, g = _ahat(a, P), [1]
    for n in range(1, len(ahat)):
        g.append(-sum(map(mul, ahat[1: n + 1], reversed(g))))
    return g[2:]


def tn_coeffs(table: BellTable, ns, order: int) -> dict[int, list[int]]:
    """{n: [x^0..x^order] T_n} for n in ns, T_n(x) = 1 + sum_k (n+1-k)/k! sum_j
    (-1)^j (n+2)...(n+j) B(k, j) x^k: integer coefficients, T_(n-1) = E * T_n.
    Row k weights the band j = s..k of row k of ``table``, the digits' table, in one
    map by the W_k of :func:`_tn_rows` into V_k = ((-1)^j k!/j! [x^k] D^j)_j =
    ((-1)^j B(k, j))_j; each [x^k] T_n is one dot product of V_k with the rising
    products (n+2)...(n+j) from j = s, divided by k! on the spot.

    One formula for every integer n.  For each k, the x^k coefficients of this
    closed form and of E^(-n-2) (E + x E') are polynomials in n of degree <= k
    (the rising products are); they agree for every n >= 1, so they agree for
    all n, negative n included.
    """
    T = {n: [1] for n in ns}
    bands = [table.band(k) for k in range(1, order + 1)]
    starts = tuple(s for s, _ in bands)
    small = order <= 32 and len(T) <= 16
    rows = (_tn_rows_cached if small else _tn_rows)(tuple(T), starts)
    for k, ((_, band), (fact, W, Rs)) in enumerate(zip(bands, rows), start=1):
        V = list(map(mul, W, band))
        for (n, cs), R in zip(T.items(), Rs):
            num = (n + 1 - k) * sum(map(mul, R, V))
            q, r = divmod(num, fact)
            if r:
                raise IntegralityViolation(
                    f"[x^{k}] T_{n} = {Fraction(num, fact)} is not an integer")
            cs.append(q)
    return T


def _tn_rows(ns: tuple, starts: tuple) -> list:
    """(k!, W_k, [R_n from j = s for n in ns]) for the rows k = 1..len(starts) of
    :func:`tn_coeffs`, s = starts[k - 1] the band start of row k; nothing here reads
    the digits.  R_n = ((n+2)...(n+j))_(j>=1) is built once per index and cut once per
    band start.  The weights W_k = ((-1)^j k!/j!)_(j=s..k) are stepped from row to row:
    k W_(k-1) cut to s, then (-1)^k (band starts never fall, so the cut drops the
    front only)."""
    order = len(starts)
    R = [list(accumulate(range(n + 2, n + order + 1), mul, initial=1)) for n in ns]
    rows, fact, W, s, Rs = [], 1, [], 1, R
    for k, start in enumerate(starts, start=1):
        fact *= k
        if start != s:
            Rs = [r[start - 1:] for r in R]
        W, s = [k * c for c in W[start - s:]] + [(-1) ** k], start
        rows.append((fact, W, Rs))
    return rows


# tn_coeffs keeps the rows of the last 32 (ns, starts) keys of order <= 32 and at most
# 16 indices (factor's checks read 9 to order M + 1); one entry holds at most 110 KiB
_tn_rows_cached = lru_cache(maxsize=32)(_tn_rows)


def tn_series(e: RootDigits, n: int, order: int) -> Series:
    """T_n of :func:`tn_coeffs` on the table of e's digits, as a truncated series."""
    return Series(tn_coeffs(BellTable(e.digits, order), [n], order)[n], order)


def bhat_coeffs(f: list[int], P: int, t: list[int], M: int, c: int
                ) -> tuple[list[int], list[int]]:
    """(bhat, B) from f's coefficients f_0..f_(M+1), P = p^ell and the t_n of A'
    (:func:`t_coeffs`): B_0..B_(M+1) of B = f / A = P (C s)(x / P), for C = f(P x) / P^2
    = [f_0 / P^2, f_1 / P, f_2, P f_3, ...] and s = P / A(P x) = 1 + c x + sum c^(n+1)
    t_n x^(n+1), A(x) = A'(c x), and bhat_n = [x^(n+1)] C s = p^(ell n) B_(n+1), n = 1..M,
    the divisibility asserted.  For f = p^w + p^m g1 x + g2 x^2 + ... and c = 1 this is
    the paper's bhat_n = p^(w-2l) t_n + p^(m-l) g1 t_(n-1) + sum_(j=2..n+1) p^(l(j-2)) g_j
    t_(n-j), t_0 = t_(-1) = 1.  f_0 / P^2 and f_1 / P are integers when 2 ell <= w and
    ell <= m; a remainder raises IntegralityViolation."""
    C = [_exact(f[0], P * P, "f_0 / P^2"), _exact(f[1], P, "f_1 / P")]
    C += [fj * P ** j for j, fj in enumerate(f[2:])]
    s = [1, c] + [tn * c ** n for n, tn in enumerate(t, start=2)]
    cs = polys.mul(C, s, M + 2)
    B, d = [P * cs[0], cs[1]], 1
    for n, acc in enumerate(cs[2:], start=1):
        d *= P
        if acc % d != 0:
            raise DivisibilityViolation(f"p^(ell*{n}) = {d} does not divide bhat_{n} = {acc}")
        B.append(acc // d)
    return cs[2:], B


# ---------------------------------------------------------------------------
# root acquisition
# ---------------------------------------------------------------------------


def _find_valuation_root(g, p: int, ell: int, N: int) -> LiftReport | None:
    """The root of g with vp(r) = ell first in p-adic digit order, lifted to p^N,
    or None; unlike the least residue mod p^N, that order is the same at every N.

    g is the squarefree part of the input's integer numerator.  Of its balls (x, kappa),
    x = r mod p^(kappa+1), from hensel._newton_balls only the first in that order is
    lifted: for roots r != r' of g, g'(r)(r' - r) = -sum_(j>=2) c_j (r' - r)^j gives
    vp(r - r') <= min(kappa, kappa'), so x and x' hold the first digit where r, r' differ.
    """
    first = min(_newton_balls(g, p, 0, ell, {0}), default=None,
                key=lambda ball: PadicInt(p, ball[1] + 1, ball[0]).digits())
    return None if first is None else lift_general(g, first[0], p, N)


# ---------------------------------------------------------------------------
# the factorization pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorChecks:
    product: bool
    constant_term: bool
    divisibility: bool
    reciprocal: bool
    tn_congruences: bool
    tn_recurrence: bool
    root_annihilation: bool
    valuation_bound: bool

    def all_passed(self) -> bool:
        return all(vars(self).values())


@dataclass(frozen=True)
class FactorPair:
    """A * B = f mod x^len(A), integer coefficients, A(0)B(0) = f_0 = +-p^w.

    ``series`` is the input f and ``root`` its root r, at which A vanishes;
    ``digits`` are those of c r, c the inverse of r's unit part mod p^ell.
    ``scale`` is always 1: the pair factors f itself, whatever the unit part
    of r, and the field stays for readers of it (the bench's factor check).
    """

    A: tuple
    B: tuple
    p: int
    w: int
    m: int | float  # int or INFINITY (f1 = 0)
    ell: int
    root: PadicInt
    digits: RootDigits
    series: SeriesInput
    checks: FactorChecks = None
    scale = 1


def factor(f, M: int) -> FactorPair:
    """Factor f = +-p^w + p^m g1 x + ... over Z[[x]], to order M.

    ``f`` may be a coefficient list (polynomial) or a :class:`SeriesInput`;
    p is the prime of its constant term (:func:`classify`), of either sign,
    and f_1 may be 0 (m = INFINITY); the sign of f_0 goes into B.  Takes the
    smallest ell <= min(m, w // 2) with a root of vp(r) = ell, and of those
    roots the first in p-adic digit order, read from the lowest
    (:func:`_find_valuation_root`); extracts the digits of c r, c the inverse
    of r's unit part mod p^ell, and assembles the two factors.  Every lemma
    along the way is re-checked at full precision and a failure raises
    rather than returning a bad pair.
    """
    if M < 0:
        raise ValueError(f"order M must be >= 0, got {M}")
    si = _as_input(f)
    cls = classify(si.coeff(0), si.coeff(1))
    if cls.kind != NEEDS_ROOT_ANALYSIS:
        raise WrongShape(f"classification is {cls}, not {NEEDS_ROOT_ANALYSIS}")
    p, w, m = cls.p, cls.w, cls.m

    g = polys.squarefree(si.numerator())[1]
    for ell in range(1, min(m, w // 2) + 1):
        report = _find_valuation_root(g, p, ell, ell * (M + 4))
        if report is not None:
            break
    else:
        raise NoSuitableRoot(f"no root with vp(r) = ell <= min(m={m}, w//2={w // 2}) found")

    root, P = report.root, p ** ell
    c = pow(root.residue // P, -1, P)  # c r has unit part 1 mod p^ell
    digits = root_to_digits(root * c, ell, M + 1)
    dM = RootDigits(p, ell, digits.digits[:M])
    table = BellTable(digits.digits, M + 1)  # read by a, the T_n and the checks
    a = a_coeffs(table, M)
    t = t_coeffs(a, P)
    fs = [si.coeff(j) for j in range(M + 2)]  # read by B and the product check
    bhat, B_ext = bhat_coeffs(fs, P, t, M, c)

    A_ext = [P, -c] + [-an * c ** n for n, an in enumerate(a, start=2)]  # A'(c x)
    A = tuple(A_ext[: M + 1])
    B = tuple(B_ext[: M + 1])

    checks = _run_checks(fs, p, w, ell, M, A_ext, B_ext, a, t, bhat, digits, table, root)
    if not checks.all_passed():
        raise PrecisionExhausted(f"internal lemma checks failed: {checks}")
    return FactorPair(A, B, p, w, m, ell, root, dM, si, checks)


def _run_checks(fs, p, w, ell, M, A_ext, B_ext, a, t, bhat, digits, table, root) -> FactorChecks:
    """The paper's lemmas: a, t and digits belong to A' and c r, the product
    and the annihilation to f (``fs``, its coefficients f_0..f_(M+1)),
    A(x) = A'(c x) and the root r of f; the T_n read ``table``, the digits' table."""
    product = check_product(A_ext, B_ext, fs, M, fs[0])

    # divisibility: integer coefficients, and b_n = bhat_n / p^(ell n) exactly
    pl = p ** ell
    div_ok = product.integral_ok and all(
        bn == b * d for bn, b, d in zip(bhat, B_ext[2:], accumulate(repeat(pl, M), mul)))

    # reciprocal: Ahat * (1 + x + x sum t_n x^n) = 1 mod x^(M+2)
    recip_ok = polys.is_product(_ahat(a, pl), [1, 1, *t], [1] + [0] * (M + 1))

    # recurrence T_(n-1) = E * T_n on a sample of indices, negative ones
    # included: each side is the closed form at its own index; on the same
    # sample the closed form and the reciprocal of Ahat agree, t_n = T_n(p^ell)
    E = [1, *digits.digits]
    T = tn_coeffs(table, range(-3, min(5, M) + 1), len(digits.digits))
    rec_ok = (polys.is_product_chain(E, [T[n] for n in range(-3, min(5, M) + 1)])
              and all(polys.evaluate(T[n][: n + 1], pl) == t[n - 1]
                      for n in range(1, min(5, M) + 1)))

    # A annihilates the root r mod p^(ell(M+2)): A(r) = A'(c r)
    mod_ann = p ** (ell * (M + 2))
    ann_ok = polys.evaluate(A_ext, root.residue) % mod_ann == 0

    return FactorChecks(product.product_ok, product.constant_ok, div_ok, recip_ok,
                        _tn_congruences(E, pl, t), rec_ok, ann_ok, 2 * ell <= w)


def _tn_congruences(E: list, pl: int, t: list) -> bool:
    """T_nu(pl) = t_nu mod pl^(nu+2) for nu in [-1, len(t)] (t_0 = t_(-1) = 1),
    T_nu = E^(-nu-2) (E + x E'), independent of the Bell closed form behind t;
    E lists the coefficients of an integer series, E(0) = 1, more than
    len(t) + 1 of them.  T_nu has integer coefficients, so at x = pl its terms
    past x^(nu+1) vanish mod pl^(nu+2): T_nu(pl) = e^(-nu-2) (e + d) with
    e = E(pl), a unit, and d = pl E'(pl)."""
    mod = pl ** (len(t) + 2)
    e = d = 0
    for k in range(len(E) - 1, -1, -1):  # Horner's rule
        e, d = e * pl + E[k], d * pl + k * E[k]
    inv, T = pow(e, -1, mod), e + d  # T = T_(-2)(pl)
    for nu, t_nu in enumerate([1, 1, *t], start=-1):
        T = T * inv % mod
        if (T - t_nu) % pl ** (nu + 2):
            return False
    return True


@dataclass(frozen=True)
class FactorReport:
    product_ok: bool
    constant_ok: bool
    integral_ok: bool
    mismatches: tuple

    def passed(self) -> bool:
        return self.product_ok and self.constant_ok and self.integral_ok


def check_product(A, B, f, M: int, constant: int) -> FactorReport:
    """A*B against f mod x^(M+1) and A(0)*B(0) against ``constant``; report,
    never raise.  Behind factor's checks, verify_factorization and ``verify``."""
    si = _as_input(f)
    prod, fs = polys.mul(A, B, M + 1), [si.coeff(j) for j in range(M + 1)]
    mismatches = () if prod == fs else tuple(
        (j, c, fj) for j, (c, fj) in enumerate(zip(prod, fs)) if c != fj)
    integral = all(isinstance(c, int) for c in (*A, *B))
    return FactorReport(not mismatches, A[0] * B[0] == constant, integral, mismatches)


def verify_factorization(f, pair: FactorPair, M: int) -> FactorReport:
    """Recompute A*B mod x^(M+1) against f, the input of :func:`factor`
    (``pair.series``); report, never raise."""
    return check_product(pair.A, pair.B, f, M, _as_input(f).coeff(0))


def factor_multiple_root(f) -> tuple[list[int], list[int]]:
    """Split off G = gcd(f, f') when f has a multiple root.

    Returns (G, f_red) with G primitive in Z[x], f = G * f_red exactly.
    Raises NoMultipleRoot for squarefree f.
    """
    f = [int(c) for c in f]
    G, f_red = polys.squarefree(f)
    if polys.degree(G) < 1:
        raise NoMultipleRoot("gcd(f, f') is constant")
    if polys.mul(G, f_red) != polys.trim(f):
        raise DomainError("G * f_red != f after normalization")
    return G, f_red
