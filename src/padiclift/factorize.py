"""Reducibility classification and explicit factorization over Z[[x]].

Targets f(x) = p^w + p^m g1 x + g2 x^2 + ... (w >= 2, m >= 1, gcd(p, g1)
= 1), the one shape whose reducibility is not settled by the constant
term alone.  Given a root r in p*Z_p with vp(r) = ell <= m, written as
r = p^ell (1 + sum e_j p^(ell j)), the factorization is

    f = (p^ell - x - x sum a_n x^n)
        (p^(w-ell) + (p^(w-2 ell) + p^(m-ell) g1) x + x sum b_n x^n)

where the a_n come from inverting x*E(x) (E the digit series), the b_n
are quotients b_n = bhat_n / p^(ell n) of an explicit t-convolution, and
the divisibility p^(ell n) | bhat_n is a theorem that the code asserts
on every coefficient it produces.

Inputs may be polynomials or power series with an eventually-geometric
tail, whose roots on p*Z_p are those of an integer numerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .bell import BellTable
from .bigmath import INFINITY, iroot, is_prime, vp
from .errors import DomainError
from .hensel import EvenPrime, LiftReport, _ilog, _newton_balls, lift_general
from .padic import PadicInt
from .series import Series, bell_args, lagrange_sum


class WrongShape(DomainError):
    """Input is not of the p^w + p^m*g1*x + ... factorization shape."""


class WrongValuation(DomainError):
    """Root valuation does not match the requested ell."""


class UnitPartNotOne(DomainError):
    """Root unit part != 1 mod p^ell: rescale per the e0 remark first."""


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
    """No root with vp(r) = ell <= m was found.

    ``fallback_out_of_scope`` is True when w > 2m, i.e. the case where a
    factorization may still exist via the (cited, unimplemented)
    fallback algorithm.
    """

    def __init__(self, message, fallback_out_of_scope=False):
        super().__init__(message)
        self.fallback_out_of_scope = fallback_out_of_scope


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
        """f(c) as an exact rational: the head by Horner's rule plus the closed
        tail h r c^H / (1 - r c), the p-adic sum whenever vp(r c) >= 1."""
        H, c = len(self.head), Fraction(c)
        if H == 0:
            return Fraction(0)
        value = polys.evaluate(self.head, c)
        if self.tail_ratio is not None:
            h, r = self.head[-1], self.tail_ratio
            value += h * r * c ** H / (1 - r * c)
        return value

    def eval_derivative_exact(self, c) -> Fraction:
        """f'(c) as an exact rational; the tail adds
        h r c^(H-1) (H - (H-1) r c) / (1 - r c)^2."""
        H, c = len(self.head), Fraction(c)
        value = polys.evaluate(polys.derivative(self.head), c)
        if self.tail_ratio is not None:
            h, r = self.head[-1], self.tail_ratio
            value += h * r * c ** (H - 1) * (H - (H - 1) * r * c) / (1 - r * c) ** 2
        return value

    def numerator(self) -> list:
        """The integer F whose roots on p Z_p are those of f: the head, or
        (1 - r x) head(x) + h r x^H for a tail of ratio r (1 - r x is a unit)."""
        F, r = list(self.head), self.tail_ratio
        return F if r is None else polys.add(polys.mul([1, -r], F), [0] * len(F) + [F[-1] * r])

    def rescaled(self, scale: int) -> "SeriesInput":
        """The input for g(x) = f(scale * x)."""
        head = tuple(a * scale ** j for j, a in enumerate(self.head))
        ratio = None if self.tail_ratio is None else self.tail_ratio * scale
        return SeriesInput(head, ratio)


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


@dataclass(frozen=True)
class Classification:
    kind: str
    p: int | None = None
    w: int | None = None
    m: object = None  # int or INFINITY (f1 = 0)

    def __str__(self):
        if self.kind == NEEDS_ROOT_ANALYSIS:
            return f"{self.kind} p={self.p} w={self.w} m={self.m}"
        return self.kind


def _prime_power(n: int):
    """(p, w) with n = p**w, or None."""
    if n < 2:
        return None
    for w in range(n.bit_length(), 0, -1):
        p = iroot(n, w)
        for cand in (p, p + 1):
            if cand ** w == n and is_prime(cand):
                return cand, w
    return None


def classify(f0: int, f1: int) -> Classification:
    """Reducibility case analysis on the two lowest coefficients.

    Units and series with prime |f0| are irreducible; prime-power |f0|
    with gcd(p, f1) = 1 likewise; composite (non-prime-power) f0 means
    reducible.  The remaining case carries its (p, w, m) on to the root
    analysis.
    """
    a = abs(f0)
    if a == 1:
        return Classification(UNIT)
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
    """Root written as p^ell (1 + sum_j e_j p^(ell j)), 0 <= e_j < p^ell."""

    p: int
    ell: int
    digits: tuple

    def bell_table(self, n_max: int) -> BellTable:
        """B(n, k) on (1! e_1, 2! e_2, ...) for n <= max(n_max, digit count),
        built once per instance and shared by the a and T streams."""
        table = vars(self).get("_bell")
        if table is None or table.n_max < n_max:
            table = BellTable(bell_args(self.digits), max(n_max, len(self.digits)))
            object.__setattr__(self, "_bell", table)
        return table

    def reconstruct(self, precision: int) -> int:
        return polys.evaluate((0, 1, *self.digits), self.p ** self.ell) % self.p ** precision


def root_to_digits(r: PadicInt, ell: int, M: int) -> RootDigits:
    """Base-p^ell digits e_1..e_M of the unit part of r (which must be
    1 mod p^ell; otherwise the caller has to rescale first)."""
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


def _exact(num: int, den: int, what: str) -> int:
    """num / den, an integer by a lemma; a remainder raises IntegralityViolation."""
    q, r = divmod(num, den)
    if r:
        raise IntegralityViolation(f"{what} = {Fraction(num, den)} is not an integer")
    return q


def a_coeffs(e: RootDigits, M: int) -> list[int]:
    """a_n = (1/n!) sum_k (-1)^k (n+k)!/(n+1)! B(n,k)(1! e_1, 2! e_2, ...),
    n = 1..M; these are the coefficients of the compositional inverse of
    x*E(x) and are provably integers."""
    table = e.bell_table(M)
    return [_exact(lagrange_sum(table, n, n), math.factorial(n), f"a_{n}")
            for n in range(1, M + 1)]


def t_coeffs(a: list[int], P: int) -> list[int]:
    """t_n, n = 1..len(a): 1/Ahat = 1 + x + sum t_n x^(n+1) for
    Ahat(x) = A(P x)/P = 1 - x - x sum P^n a_n x^n, P = p^ell.  Ahat(0) = 1,
    so the t_n are integers; by the paper they are also T_n(P), T_n the
    closed form of :func:`tn_series` truncated at x^n."""
    ahat = Series([1, -1] + [-an * P ** n for n, an in enumerate(a, start=1)])
    return list(ahat.reciprocal().int_coeffs[2:])


def e_series(e: RootDigits, order: int) -> Series:
    """E(x) = 1 + sum e_j x^j as a truncated series."""
    return Series([1] + list(e.digits), order)


def tn_series(e: RootDigits, n: int, order: int) -> Series:
    """T_n(x) = 1 + sum_k (n+1-k)/k! lagrange_sum(B, n, k) x^k, B(k, j) the
    Bell table on (1! e_1, 2! e_2, ...): integer coefficients, T_(n-1) = E * T_n.

    One formula for every integer n.  For each k, the x^k coefficients of this
    closed form and of E^(-n-2) (E + x E') are polynomials in n of degree <= k
    (the rising product (n+2)...(n+j) inside lagrange_sum is one); they agree
    for every n >= 1, so they agree for all n, negative n included.
    """
    table = e.bell_table(order)
    cs, fact = [1], 1
    for k in range(1, order + 1):
        fact *= k
        cs.append(_exact((n + 1 - k) * lagrange_sum(table, n, k), fact, f"[x^{k}] T_{n}"))
    return Series(cs, order)


@dataclass(frozen=True)
class FactorizationProblem:
    """The (p, w, m, gammas) data of f = p^w + p^m g1 x + g2 x^2 + ...;
    gammas[j-1] = g_j, with enough entries for the requested order."""

    p: int
    w: int
    m: int
    gammas: tuple


def bhat_coeffs(prob: FactorizationProblem, ell: int, t: list[int], M: int
                ) -> tuple[list[int], list[int]]:
    """bhat_n = p^(w-2l) t_n + p^(m-l) g1 t_(n-1) + sum_j p^(l(j-2)) g_j t_(n-j),
    t_0 = t_(-1) = 1 and t_(-n) = 0 for n > 1: the x^(n+1) coefficient of C(x) times
    1 + x + sum t_n x^(n+1), C = [p^(w-2l), p^(m-l) g1, g2, P g3, ...], P = p^ell.
    Returns (bhat, b), b_n = bhat_n / p^(ell n) after asserting the divisibility."""
    p, P = prob.p, prob.p ** ell
    C, Pj = [p ** (prob.w - 2 * ell), p ** (prob.m - ell) * prob.gammas[0]], 1
    for g in prob.gammas[1:]:
        C.append(Pj * g)
        Pj *= P
    bhat = polys.mul(C, [1, 1, *t], M + 2)[2:]
    b, d = [], 1
    for n, acc in enumerate(bhat, start=1):
        d *= P
        if acc % d != 0:
            raise DivisibilityViolation(f"p^(ell*{n}) = {d} does not divide bhat_{n} = {acc}")
        b.append(acc // d)
    return bhat, b


# ---------------------------------------------------------------------------
# root acquisition
# ---------------------------------------------------------------------------


def _find_valuation_root(F, dF, g, p: int, ell: int, N: int) -> LiftReport | None:
    """The root r with vp(r) = ell that a digit scan meets first, or None.

    F is the integer numerator of the input (:meth:`SeriesInput.numerator`),
    dF its derivative and g its squarefree part.  Each root with vp(r) = ell
    is found and lifted to p^N on the tree of hensel._newton_balls over g.
    The scan visits the classes c mod p^D, vp(c) = ell, D = 2 ell + 1 .. N,
    in increasing order, and stops at an exact root or in a root's Newton
    ball with D > 2 kappa, kappa = vp(F'(r)).  So it meets r at
    (max(2 ell + 1, 2 kappa + 1), r mod p^(kappa+1)); if kappa < ell, that
    is (2 ell + 1, 0): every class lies in r's ball, and the first, p^ell,
    meets r before any other root.  An integer root r >= 0 is also met at
    (the first D >= 2 ell + 1 with r < p^D, r); a repeated root has kappa =
    INFINITY.  The smallest key of depth <= N wins.
    """
    met = []
    for x, _ in _newton_balls(g, p, 0, ell, {0}):
        rep = lift_general(g, x, p, N)
        r = rep.root.residue
        kappa = vp(polys.evaluate(dF, r), p)  # exact below N, as r = root mod p^N
        keys = [(max(2 * ell, _ilog(r, p)) + 1, r)] if polys.evaluate(F, r) == 0 else []
        if kappa < N:
            keys.append((max(2 * ell, 2 * kappa) + 1, r % p ** (kappa + 1)))
        met += [(key, rep) for key in keys if key[0] <= N]
    return min(met, key=lambda m: m[0])[1] if met else None


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
    """A * B = f mod x^(order+1), integer coefficients, A(0)B(0) = p^w.

    When ``scale`` != 1 the input had a root with unit part e0 != 1 and
    the pair factors the rescaled series g(x) = f(scale * x) instead
    (``series`` is that g).
    """

    A: tuple
    B: tuple
    order: int
    p: int
    w: int
    m: int
    ell: int
    root: PadicInt
    digits: RootDigits
    series: SeriesInput
    scale: int = 1
    checks: FactorChecks = None


def factor(f, M: int, p: int | None = None) -> FactorPair:
    """Factor f = p^w + p^m g1 x + ... over Z[[x]], to order M.

    ``f`` may be a coefficient list (polynomial) or a :class:`SeriesInput`.
    Takes the smallest ell <= min(m, w // 2) with a root of vp(r) = ell, and
    of those roots the one a digit-by-digit scan meets first
    (:func:`_find_valuation_root`); extracts its digits and assembles the two
    factors.  Every lemma along the way is re-checked at full precision and
    a failure raises rather than returning a bad pair.
    """
    if M < 0:
        raise ValueError(f"order M must be >= 0, got {M}")
    si = _as_input(f)
    f0, f1 = si.coeff(0), si.coeff(1)
    cls = classify(f0, f1)
    if cls.kind != NEEDS_ROOT_ANALYSIS:
        raise WrongShape(f"classification is {cls}, not {NEEDS_ROOT_ANALYSIS}")
    if f0 < 0:
        raise WrongShape("constant term must be +p^w (negate f first)")
    if p is not None and p != cls.p:
        raise WrongShape(f"constant term is a power of {cls.p}, not {p}")
    p, w, m = cls.p, cls.w, cls.m
    if p == 2:
        raise EvenPrime("factorization theorem is stated for odd p")
    if m is INFINITY:
        raise WrongShape("f1 = 0: input lacks the p^m*g1 linear term")

    F = si.numerator()
    dF, g = polys.derivative(F), polys.squarefree(F)[1]
    for ell in range(1, min(m, w // 2) + 1):
        report = _find_valuation_root(F, dF, g, p, ell, ell * (M + 4))
        if report is not None:
            break
    else:
        raise NoSuitableRoot(
            f"no root with vp(r) = ell <= min(m={m}, w//2={w // 2}) found"
            + ("; w > 2m, so the out-of-scope fallback algorithm may still factor f"
               if w > 2 * m else ""),
            fallback_out_of_scope=w > 2 * m,
        )

    root = report.root
    scale = root.residue // p ** ell % p ** ell  # the unit part e0 mod p^ell
    if scale != 1:
        # g(x) = f(e0 * x) has the root r/e0, whose unit part is 1 mod p^ell
        si = si.rescaled(scale)
        root = PadicInt(p, root.precision,
                        root.residue * pow(scale, -1, p ** root.precision))

    digits = root_to_digits(root, ell, M + 1)
    dM = RootDigits(p, ell, digits.digits[:M])
    a = a_coeffs(digits, M)
    t = t_coeffs(a, p ** ell)
    gammas = (si.coeff(1) // p ** m,) + tuple(si.coeff(j) for j in range(2, M + 3))
    prob = FactorizationProblem(p, w, m, gammas)
    bhat, b = bhat_coeffs(prob, ell, t, M)

    A_ext = [p ** ell, -1] + [-an for an in a]                # through x^(M+1)
    B_ext = [p ** (w - ell), p ** (w - 2 * ell) + p ** (m - ell) * gammas[0]] + b
    A = tuple(A_ext[: M + 1])
    B = tuple(B_ext[: M + 1])

    checks = _run_checks(si, p, w, ell, M, A_ext, B_ext, a, t, bhat, digits, root)
    if not checks.all_passed():
        raise PrecisionExhausted(f"internal lemma checks failed: {checks}")
    return FactorPair(A, B, M, p, w, m, ell, root, dM, si, scale, checks)


def _run_checks(si, p, w, ell, M, A_ext, B_ext, a, t, bhat, digits, root) -> FactorChecks:
    product = check_product(A_ext, B_ext, si, M, p ** w)

    # divisibility: integer coefficients, and b_n = bhat_n / p^(ell n) exactly
    div_ok = product.integral_ok and all(bhat[n - 1] == B_ext[n + 1] * p ** (ell * n)
                                         for n in range(1, M + 1))

    # reciprocal: Ahat * (1 + x + x sum t_n x^n) = 1 mod x^(M+2)
    ahat = Series([1, -1] + [-(p ** (ell * n)) * a[n - 1] for n in range(1, M + 1)], M + 1)
    recip_ok = ahat * Series([1, 1, *t], M + 1) == Series.one(M + 1)

    # recurrence T_(n-1) = E * T_n on a sample of indices, negative ones
    # included: each side is the closed form at its own index; on the same
    # sample the closed form and the reciprocal of Ahat agree, t_n = T_n(p^ell)
    order, pl = len(digits.digits), p ** ell
    E = e_series(digits, order)
    T = {n: tn_series(digits, n, order) for n in range(-3, min(5, M) + 1)}
    rec_ok = (all(T[n - 1] == (E * T[n]).truncate(order) for n in range(-2, min(5, M) + 1))
              and all(polys.evaluate(T[n].int_coeffs[: n + 1], pl) == t[n - 1]
                      for n in range(1, min(5, M) + 1)))

    # A annihilates the root mod p^(ell(M+2))
    mod_ann = p ** (ell * (M + 2))
    ann_ok = polys.evaluate(A_ext, root.residue) % mod_ann == 0

    return FactorChecks(product.product_ok, product.constant_ok, div_ok, recip_ok,
                        _tn_congruences(E, pl, t), rec_ok, ann_ok, 2 * ell <= w)


def _tn_congruences(E: Series, pl: int, t: list) -> bool:
    """T_nu(pl) = t_nu mod pl^(nu+2) for nu in [-1, len(t)] (t_0 = t_(-1) = 1),
    T_nu = E^(-nu-2) (E + x E'), independent of the Bell closed form behind t;
    E is an integer series, E(0) = 1, of order > len(t).  T_nu has integer
    coefficients, so at x = pl its terms past x^(nu+1) vanish mod pl^(nu+2):
    T_nu(pl) = e^(-nu-2) (e + d) with e = E(pl), a unit, and d = pl E'(pl)."""
    cs, mod = E.int_coeffs, pl ** (len(t) + 2)
    e = d = 0
    for k in range(len(cs) - 1, -1, -1):  # Horner's rule
        e, d = e * pl + cs[k], d * pl + k * cs[k]
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
    prod = polys.mul(A, B, M + 1)
    mismatches = [(j, c, si.coeff(j)) for j, c in enumerate(prod) if c != si.coeff(j)]
    integral = all(isinstance(c, int) for c in (*A, *B))
    return FactorReport(not mismatches, A[0] * B[0] == constant, integral, tuple(mismatches))


def verify_factorization(f, pair: FactorPair, M: int) -> FactorReport:
    """Recompute A*B mod x^(M+1) against f; report, never raise.

    ``f`` should be the series the pair claims to factor (``pair.series``
    covers the rescaled case).
    """
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
