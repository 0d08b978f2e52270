import contextlib
import io
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from padiclift import cli, factorize, hensel, polys
from padiclift.bell import BellTable
from padiclift.bigmath import INFINITY, iroot, is_prime, vp_rat
from padiclift.errors import DomainError
from padiclift.factorize import (NEEDS_ROOT_ANALYSIS, Classification,
                                 DivisibilityViolation, InsufficientPrecision,
                                 IntegralityViolation, NoMultipleRoot,
                                 NoSuitableRoot, RootDigits, SeriesInput,
                                 UnitPartNotOne, WrongShape, WrongValuation,
                                 a_coeffs, bhat_coeffs, classify,
                                 factor, factor_multiple_root, root_to_digits,
                                 t_coeffs, tn_series, verify_factorization)
from padiclift.hensel import lift_general
from padiclift.padic import PadicInt
from padiclift.series import Series, lagrange_invert

# 9 + 12x + 7x^2 + 8x^3/(1-x): reducible with an exact root at 3
GEOM_F = SeriesInput.geometric((9, 12, 7, 8), 1)


def rand_digits(rng, p, ell, count):
    blk = p ** ell
    return RootDigits(p, ell, tuple(rng.randrange(blk) for _ in range(count)))


def e_series(e, order):
    """E(x) = 1 + sum e_j x^j, the digit series, as a truncated series."""
    return Series([1] + list(e.digits), order)


def t_of(d, M):
    """t_1..t_M of the root with digits d."""
    return t_coeffs(a_coeffs(BellTable(d.digits, M), M), d.p ** d.ell)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_cases():
    assert classify(5, 123).kind == "IrreduciblePrime"
    assert classify(-7, 0).kind == "IrreduciblePrime"
    assert classify(9, 2).kind == "IrreduciblePrimePowerUnitLinear"
    assert classify(1, 5).kind == "Unit"
    assert classify(-1, 5).kind == "Unit"
    assert classify(12, 1).kind == "ReducibleComposite"
    assert classify(0, 1).kind == "IrreducibleXTimesUnit"  # x is prime in Z[[x]]
    assert classify(0, -1).kind == "IrreducibleXTimesUnit"
    assert classify(0, 0).kind == "ReducibleComposite"      # x * x * h
    assert classify(0, 2).kind == "ReducibleComposite"      # x * (2 + ...), a non-unit
    c = classify(9, 12)
    assert (c.kind, c.p, c.w, c.m) == (NEEDS_ROOT_ANALYSIS, 3, 2, 1)
    c = classify(9, 0)
    assert c.kind == NEEDS_ROOT_ANALYSIS and c.m is INFINITY
    c = classify(2 ** 10, 6)
    assert (c.p, c.w, c.m) == (2, 10, 1)


def test_classify_str():
    assert str(classify(9, 12)) == "NeedsRootAnalysis p=3 w=2 m=1"


def scan_prime_power(n):
    """The reference: every exponent w from the top, with both floor-root
    candidates."""
    if n < 2:
        return None
    for w in range(n.bit_length(), 0, -1):
        r = iroot(n, w)
        for cand in (r, r + 1):
            if cand ** w == n and is_prime(cand):
                return cand, w
    return None


@settings(max_examples=300)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 10**9 + 7]), st.integers(0, 40),
       st.integers(1, 10**6), st.integers(1, 6))
def test_prime_power_matches_the_exponent_scan(p, w, m, e):
    # m ** e: perfect powers of composites are not prime powers
    for n in (p ** w * m, p ** w, m ** e):
        assert factorize._prime_power(n) == scan_prime_power(n)


def test_prime_power_peels_exponents_in_few_roots():
    # 10**4000 = 10**(2**5 * 5**3): a few roots, not one per exponent
    calls = []
    def counted(n, k):
        calls.append(k)
        return iroot(n, k)
    with mock.patch.object(factorize, "iroot", counted):
        assert factorize._prime_power(10 ** 4000) is None
    assert len(calls) <= 64


def test_prime_power_decides_at_a_small_divisor_without_roots():
    # 7...7 (4299 sevens) = 7 * 1...1 has the least divisor 3: no root to take
    calls = []
    def counted(n, k):
        calls.append(k)
        return iroot(n, k)
    with mock.patch.object(factorize, "iroot", counted):
        assert classify(int("7" * 4299), 1).kind == factorize.REDUCIBLE_COMPOSITE
    assert calls == []


# ---------------------------------------------------------------------------
# series inputs
# ---------------------------------------------------------------------------

def test_series_input_tail():
    assert [GEOM_F.coeff(j) for j in range(8)] == [9, 12, 7, 8, 8, 8, 8, 8]
    g = SeriesInput.geometric((1, 2), 3)
    assert [g.coeff(j) for j in range(5)] == [1, 2, 6, 18, 54]
    poly = SeriesInput.polynomial((1, 2, 3))
    assert poly.coeff(5) == 0


@pytest.mark.parametrize("make", [lambda: SeriesInput.geometric([], 3),
                                  lambda: SeriesInput((), 1),
                                  lambda: SeriesInput((), 0)],
                         ids=["geometric", "ratio-1", "ratio-0"])
def test_series_input_refuses_a_tail_with_no_head(make):
    # the tail extends head[-1], so an empty head has nothing to extend
    with pytest.raises(ValueError, match="head is empty"):
        make()
    assert SeriesInput.polynomial([]).coeff(0) == 0


def test_series_input_exact_eval():
    # closed form against a long truncation at a point of positive valuation
    c = 3
    J = 40
    approx = sum(GEOM_F.coeff(j) * Fraction(c) ** j for j in range(J + 1))
    exact = GEOM_F.eval_exact(c)
    assert (exact - approx) * Fraction(1 - c) == Fraction(GEOM_F.coeff(J + 1)) * c ** (J + 1)
    assert exact == 0  # 3 is an exact root of the full series
    d_exact = GEOM_F.eval_derivative_exact(c)
    h = Fraction(1)  # formal check via the rational function (9+12x+7x^2+8x^3/(1-x))'
    x = Fraction(c)
    assert d_exact == 12 + 14 * x + (24 * x ** 2 * (1 - x) + 8 * x ** 3) / (1 - x) ** 2


# ---------------------------------------------------------------------------
# digits
# ---------------------------------------------------------------------------

def test_root_to_digits_trivial():
    r = PadicInt.from_int(3 ** 1, 3, 20)
    d = root_to_digits(r, 1, 10)
    assert d.digits == (0,) * 10


def test_root_to_digits_single():
    p, ell = 5, 2
    blk = p ** ell
    u = 1 + 2 * blk
    r = PadicInt.from_int(blk * u, p, ell * 12)
    d = root_to_digits(r, ell, 6)
    assert d.digits == (2, 0, 0, 0, 0, 0)
    assert d.reconstruct(ell * 8) == blk * u % p ** (ell * 8)


def test_root_to_digits_reconstruction_random():
    rng = random.Random(71)
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        ell = rng.choice([1, 2])
        M = 6
        prec = ell * (M + 3)
        u = 1 + p ** ell * rng.randrange(p ** (ell * (M + 1)))
        r = PadicInt.from_int(p ** ell * u, p, prec)
        d = root_to_digits(r, ell, M)
        assert (d.reconstruct(prec) - r.residue) % p ** (ell * (M + 2)) == 0
        assert all(0 <= e < p ** ell for e in d.digits)


def test_root_to_digits_errors():
    r = PadicInt.from_int(9, 3, 30)
    with pytest.raises(WrongValuation):
        root_to_digits(r, 1, 5)
    r2 = PadicInt.from_int(3 * 2, 3, 30)   # unit part 2 != 1 mod 3
    with pytest.raises(UnitPartNotOne):
        root_to_digits(r2, 1, 5)
    with pytest.raises(InsufficientPrecision):
        root_to_digits(PadicInt.from_int(3, 3, 5), 1, 5)


# ---------------------------------------------------------------------------
# coefficient streams
# ---------------------------------------------------------------------------

def test_a_coeffs_zero_digits():
    d = RootDigits(3, 1, (0,) * 8)
    assert a_coeffs(BellTable(d.digits, 8), 8) == [0] * 8


def test_a_coeffs_hand_value():
    # e1 = 1, rest 0: a2 = (1/2)[-(3!/3!) B(2,1)(1,0) + (4!/3!) B(2,2)(1,0)] = 2
    d = RootDigits(7, 1, (1, 0, 0, 0))
    a = a_coeffs(BellTable(d.digits, 4), 4)
    assert a[0] == -1 and a[1] == 2


def test_a_coeffs_lagrange_oracle():
    # A = p^ell - phi^(-1)(x) for phi(t) = t E(t), so a_n = beta_n / n!.  Both
    # sides read series.root_numerators, so this checks the rescaling
    # a_n = beta_n / n!, not the kernel itself; test_a_coeffs_invert_e_series
    # checks the a_n with no Bell table
    rng = random.Random(73)
    for _ in range(10):
        d = rand_digits(rng, 5, 1, 8)
        alphas = [math.factorial(j) * e for j, e in enumerate(d.digits, start=1)]
        betas = lagrange_invert(alphas)
        expect = [b / math.factorial(n) for n, b in enumerate(betas, start=1)]
        assert [Fraction(x) for x in a_coeffs(BellTable(d.digits, 8), 8)] == expect


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 2),
       st.lists(st.integers(0, 10 ** 6), max_size=20))
@example(7, 1, list(rand_digits(random.Random(74), 7, 1, 8).digits))
def test_a_coeffs_invert_e_series(p, ell, raw):
    # phi(phi^(-1)) = x with phi = x * E(x), by Series composition: the
    # reference reads no Bell table
    d = RootDigits(p, ell, tuple(r % p ** ell for r in raw))
    M = len(raw)
    phi = Series.x(M + 1) * e_series(d, M + 1)
    phinv = Series([0, 1, *a_coeffs(BellTable(d.digits, M), M)], M + 1)
    assert phi.compose(phinv) == Series.x(M + 1)


def test_t_coeffs_zero_digits():
    d = RootDigits(3, 1, (0,) * 8)
    assert t_of(d, 8) == [1] * 8


def test_t_coeffs_first():
    rng = random.Random(75)
    for p, ell in ((3, 1), (5, 2)):
        d = rand_digits(rng, p, ell, 4)
        t = t_of(d, 4)
        assert t[0] == 1 - p ** ell * d.digits[0]


def test_t_coeffs_reciprocal_oracle():
    # Ahat * (1 + x + x sum t_n x^n) = 1, checked against Series.reciprocal
    rng = random.Random(76)
    for p, ell in ((3, 1), (5, 1), (7, 2)):
        d = rand_digits(rng, p, ell, 8)
        a = a_coeffs(BellTable(d.digits, 8), 8)
        t = t_coeffs(a, p ** ell)
        ahat = Series([1, -1] + [-(p ** (ell * n)) * a[n - 1] for n in range(1, 9)], 8)
        that = Series([1, 1] + t, 8)
        assert ahat.reciprocal() == that
        assert (ahat * that) == Series.one(8)


def test_tn_series_unit_digits():
    d = RootDigits(5, 1, (0,) * 6)
    for n in (-2, -1, 0, 1, 3):
        assert tn_series(d, n, 6) == Series.one(6)


def test_tn_series_closed_form_vs_e_formula():
    # T_n = E^(-n-2) (E + x E') for every n, negative n included
    rng = random.Random(77)
    for _ in range(8):
        d = rand_digits(rng, 5, 1, 8)
        E = e_series(d, 8)
        dxE = Series.x(8) * E.derivative().truncate(8)
        for n in range(-6, 7):
            expect = (E.reciprocal() ** (n + 2)) * (E + dxE)
            assert tn_series(d, n, 8) == expect, n


def test_tn_series_recurrence():
    rng = random.Random(78)
    d = rand_digits(rng, 7, 1, 8)
    E = e_series(d, 8)
    for n in range(-3, 6):
        lhs = tn_series(d, n - 1, 8)
        rhs = (E * tn_series(d, n, 8)).truncate(8)
        assert lhs == rhs, n


def test_recurrence_check_tests_the_closed_form_at_negative_indices(monkeypatch):
    # T_n for n <= 0 is the same closed form as for n >= 1, so a T_n skewed
    # only there (each row sum by k!, which keeps T_n integral: [x^k] T_n
    # moves by n+1-k) fails the recurrence check
    honest, run_checks = factorize.tn_coeffs, factorize._run_checks
    seen = []

    def skewed(table, ns, order):
        return {n: cs if n > 0 else [c + (n + 1 - k if k else 0) for k, c in enumerate(cs)]
                for n, cs in honest(table, ns, order).items()}

    def recording(*args):
        seen.append(run_checks(*args))
        return seen[-1]

    f = polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5])
    monkeypatch.setattr(factorize, "_run_checks", recording)
    assert all(factor(f, 8).digits.digits)
    monkeypatch.setattr(factorize, "tn_coeffs", skewed)
    with pytest.raises(factorize.PrecisionExhausted, match="tn_recurrence=False"):
        factor(f, 8)
    checks = seen[-1]
    assert not checks.tn_recurrence
    assert checks.product and checks.divisibility and checks.reciprocal and checks.tn_congruences


def test_one_corrupted_closed_form_coefficient_fails_the_recurrence(monkeypatch):
    # every T_n of the sample enters one identity T_(n-1) = E T_n or two, so
    # moving any one coefficient of any one of them by 1 breaks the check
    honest, run_checks = factorize.tn_coeffs, factorize._run_checks
    seen, where = [], []

    def skewed(table, ns, order):
        T = honest(table, ns, order)
        n, k = where[-1]
        T[n][k] += 1
        return T

    def recording(*args):
        seen.append(run_checks(*args))
        return seen[-1]

    f = polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5])
    monkeypatch.setattr(factorize, "_run_checks", recording)
    monkeypatch.setattr(factorize, "tn_coeffs", skewed)
    for n in range(-3, 6):
        for k in (0, 1, 4, 9):
            where.append((n, k))
            with pytest.raises(factorize.PrecisionExhausted):
                factor(f, 8)
            assert not seen[-1].tn_recurrence, (n, k)
            assert seen[-1].reciprocal and seen[-1].tn_congruences


def run_checks_by_series(fs, p, w, ell, M, A_ext, B_ext, a, t, bhat, digits, table, root):
    """The reference for factorize._run_checks: the lemma checks on Series, as
    they ran before they moved to int lists.  Each identity is a Series
    product compared coefficient by coefficient, each closed form T_n is
    built on its own table of the digits (``table`` is not read), and the
    congruences are Series algebra."""
    product = factorize.check_product(A_ext, B_ext, fs, M, p ** w)
    div_ok = product.integral_ok and all(bhat[n - 1] == B_ext[n + 1] * p ** (ell * n)
                                         for n in range(1, M + 1))
    ahat = Series([1, -1] + [-(p ** (ell * n)) * a[n - 1] for n in range(1, M + 1)], M + 1)
    recip_ok = ahat * Series([1, 1, *t], M + 1) == Series.one(M + 1)
    order, pl = len(digits.digits), p ** ell
    E = e_series(digits, order)
    T = {n: tn_series(digits, n, order) for n in range(-3, min(5, M) + 1)}
    rec_ok = (all(T[n - 1] == E * T[n] for n in range(-2, min(5, M) + 1))
              and all(polys.evaluate(T[n].int_coeffs[: n + 1], pl) == t[n - 1]
                      for n in range(1, min(5, M) + 1)))
    ann_ok = polys.evaluate(A_ext, root.residue) % p ** (ell * (M + 2)) == 0
    return factorize.FactorChecks(product.product_ok, product.constant_ok, div_ok, recip_ok,
                                  tn_congruences_by_series_algebra(E, pl, t), rec_ok, ann_ok,
                                  2 * ell <= w)


def test_checks_on_int_lists_match_the_series_reference(monkeypatch):
    # 50 planted inputs, each checked honest, with one t_n moved and with one
    # of its first M digits moved: 150 argument sets, every check result the
    # reference's; a moved t_n fails the reciprocal, a moved digit the congruences
    run_checks, captured = factorize._run_checks, []

    def capturing(*args):
        captured.append(args)
        return run_checks(*args)

    monkeypatch.setattr(factorize, "_run_checks", capturing)
    rng, results = random.Random(86), []
    while len(captured) < 50:
        f = plant(rng)
        if f is not None:
            factor(f, rng.randint(1, 12))
    for args in captured:
        M, t, d = args[4], list(args[8]), args[10]
        nu = rng.randint(1, M)
        t[nu - 1] += rng.choice([1, -1]) * d.p ** (d.ell * rng.randint(0, nu + 3))
        j = rng.randrange(M)
        moved = RootDigits(d.p, d.ell, d.digits[:j] + ((d.digits[j] + 1) % d.p ** d.ell,)
                           + d.digits[j + 1:])
        for case in (args, args[:8] + (t,) + args[9:],
                     args[:10] + (moved, BellTable(moved.digits, M + 1)) + args[12:]):
            got = run_checks(*case)
            assert got == run_checks_by_series(*case), case
            results.append(got)
    assert all(r.all_passed() for r in results[::3])
    assert not any(r.reciprocal for r in results[1::3])
    assert not any(r.tn_congruences for r in results[2::3])
    assert {r.tn_recurrence for r in results[1::3]} == {True, False}


def test_tn_congruences_random():
    # T_nu(p^ell) = t_nu mod p^(ell(nu+2)), nu in [-1, M]
    rng = random.Random(79)
    p, ell, M = 5, 1, 6
    d = rand_digits(rng, p, ell, M + 1)
    t = t_of(d, M)
    for nu in range(-1, M + 1):
        Tn = tn_series(d, nu, nu + 1)
        val = sum(int(c) * p ** (ell * k) for k, c in enumerate(Tn.coeffs))
        t_nu = t[nu - 1] if nu >= 1 else 1
        assert (val - t_nu) % p ** (ell * (nu + 2)) == 0, nu


def test_tn_congruences_catch_a_corrupted_t(monkeypatch):
    # the lemma check evaluates T_nu on the digit series E, not on the a_n
    # that made t, so a wrong t_nu (nu >= 1) must fail it
    rng = random.Random(80)
    p, ell, M = 5, 1, 6
    d = rand_digits(rng, p, ell, M + 1)
    E = [1, *d.digits]
    t = t_of(d, M)
    assert factorize._tn_congruences(E, p ** ell, t)
    for nu in (1, 3, M):
        bad = list(t)
        bad[nu - 1] += p ** (ell * (nu + 1))
        assert not factorize._tn_congruences(E, p ** ell, bad), nu
    # a wrong stream: t comes from the a_n, which read [x^k] D^j from the
    # Bell table, and the check does not.  [x^M] D += M + 1 moves X_M by
    # -(M + 1)^2, keeps the division by M + 1 exact, moves a_M by -(M + 1)
    # and so t_M by -(M + 1) p^(ell M) = -7 * 5^6, which is not 0 mod 5^8
    honest_band = factorize.BellTable.band

    def skewed(table, n):
        start, entries = honest_band(table, n)
        if n != M:
            return start, entries
        i = 1 - start  # the entry k = 1 of the band
        return start, entries[:i] + (entries[i] + M + 1,) + entries[i + 1:]

    monkeypatch.setattr(factorize.BellTable, "band", skewed)
    assert not factorize._tn_congruences(E, p ** ell, t_of(d, M))


def tn_congruences_by_series_algebra(E, pl, t):
    """The reference lemma check: T_nu = E^(-nu-2) (E + x E') built by Series
    products, one more factor 1/E per nu, truncated at x^(nu+1) and
    evaluated at pl."""
    R = E.reciprocal()
    T = E + Series.x(E.order) * E.derivative().truncate(E.order)  # T_(-2)
    for nu in range(-1, len(t) + 1):
        T = T * R
        t_nu = t[nu - 1] if nu >= 1 else 1
        if (T.truncate(nu + 1).evaluate(pl) - t_nu) % pl ** (nu + 2) != 0:
            return False
    return True


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7, 11]), st.integers(1, 2), st.integers(0, 12), st.data())
def test_tn_congruences_match_the_series_algebra_reference(p, ell, M, data):
    # half the time t_nu moves by a unit times 1, P^nu, P^(nu+1) or P^(nu+2);
    # only the last keeps T_nu(P) = t_nu mod P^(nu+2)
    P = p ** ell
    digits = data.draw(st.lists(st.integers(0, P - 1), min_size=M + 1, max_size=M + 1))
    d = RootDigits(p, ell, tuple(digits))
    t = t_of(d, M)
    expect = True
    if M and data.draw(st.booleans()):
        nu = data.draw(st.integers(1, M))
        step = data.draw(st.sampled_from([0, nu, nu + 1, nu + 2]))
        unit = data.draw(st.integers(1, p * P).filter(lambda u: u % p))
        t[nu - 1] += unit * P ** step
        expect = step == nu + 2
    assert factorize._tn_congruences([1, *digits], P, t) is expect
    assert tn_congruences_by_series_algebra(e_series(d, M + 1), P, t) is expect


def test_tn_congruences_build_no_series_product(monkeypatch):
    # the check runs on two values of E: no product and no reciprocal
    def refuse(*args):
        raise AssertionError("Series algebra in the lemma check")

    d = rand_digits(random.Random(84), 7, 2, 21)
    t = t_of(d, 20)
    for name in ("__mul__", "__rmul__", "reciprocal"):
        monkeypatch.setattr(Series, name, refuse)
    assert factorize._tn_congruences([1, *d.digits], 7 ** 2, t)


@pytest.mark.parametrize("f", [polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5]), GEOM_F])
def test_factor_and_lagrange_invert_build_no_series(monkeypatch, f):
    # the t stream, the closed forms, the lemma checks and phi run on int lists
    def refuse(*args, **kwargs):
        raise AssertionError("a Series was built")

    alphas = [1, Fraction(-2, 3), 5, 0, 7]
    betas = lagrange_invert(alphas)
    monkeypatch.setattr(Series, "__init__", refuse)
    monkeypatch.setattr(Series, "_of", refuse)
    assert factor(f, 8).checks.all_passed()
    assert lagrange_invert(alphas) == betas


def test_a_remainder_raises_integrality_violation(monkeypatch):
    # every provably-integer quotient of the factor streams goes through one
    # exact division; a skewed numerator that leaves a remainder must raise
    d = rand_digits(random.Random(85), 5, 1, 8)
    honest_numerators = factorize.root_numerators

    def skewed(*args):
        X = honest_numerators(*args)
        X[2] += 1
        return X

    monkeypatch.setattr(factorize, "root_numerators", skewed)
    # a_2 = (X_2 + 1)/3 with X_2/3 an integer
    with pytest.raises(factorize.IntegralityViolation, match="a_2"):
        a_coeffs(BellTable(d.digits, 4), 4)

    class SkewedBand(BellTable):
        def band(self, n):
            start, entries = super().band(n)
            if n == 3:  # the j = 2 entry of row 3, whose weight in [x^3] T_3 is 3 * 5
                entries = entries[:2 - start] + (entries[2 - start] + 1,) + entries[3 - start:]
            return start, entries

    monkeypatch.setattr(factorize, "BellTable", SkewedBand)
    # [x^3] T_3 = (L + 15)/3! with L/3! an integer
    with pytest.raises(factorize.IntegralityViolation, match=r"\[x\^3\] T_3"):
        tn_series(d, 3, 4)


@pytest.mark.parametrize("f", [polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5]), GEOM_F])
def test_factor_builds_no_fraction(monkeypatch, f):
    # integer data stays on int: the root lift, the streams and the checks
    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert factor(f, 8).checks.all_passed()


def test_recurrence_check_ties_the_stream_to_the_closed_form(monkeypatch):
    # t_2 moved by p^(4 ell) passes the congruence T_2(p^ell) = t_2 mod
    # p^(4 ell), but not the exact sample t_n = T_n(p^ell), n <= 5
    honest, run_checks = factorize.t_coeffs, factorize._run_checks
    seen = []

    def skewed(a, P):
        t = honest(a, P)
        t[1] += P ** 4
        return t

    def recording(*args):
        seen.append(run_checks(*args))
        return seen[-1]

    f = polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5])
    monkeypatch.setattr(factorize, "_run_checks", recording)
    assert factor(f, 8).checks.tn_recurrence
    monkeypatch.setattr(factorize, "t_coeffs", skewed)
    with pytest.raises(factorize.PrecisionExhausted, match="tn_recurrence=False"):
        factor(f, 8)
    checks = seen[-1]
    assert not checks.tn_recurrence
    assert checks.tn_congruences


def test_reciprocal_check_is_the_only_guard_on_the_last_t(monkeypatch):
    # t_M moved by P^(M+2) keeps T_M(P) = t_M mod P^(M+2), lies past the
    # recurrence sample n <= 5, and moves only b_M, which B does not keep
    honest, run_checks = factorize.t_coeffs, factorize._run_checks
    seen = []

    def skewed(a, P):
        t = honest(a, P)
        t[-1] += P ** (len(t) + 2)
        return t

    def recording(*args):
        seen.append(run_checks(*args))
        return seen[-1]

    f = polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5])
    monkeypatch.setattr(factorize, "_run_checks", recording)
    monkeypatch.setattr(factorize, "t_coeffs", skewed)
    with pytest.raises(factorize.PrecisionExhausted, match="reciprocal=False"):
        factor(f, 8)
    checks = seen[-1]
    assert not checks.reciprocal
    assert checks.product and checks.tn_congruences and checks.tn_recurrence


def test_t_stream_reads_no_closed_form(monkeypatch):
    # t_coeffs is the reciprocal of Ahat on the a_n: no Bell table, no T_n
    built, closed_forms = [], []

    class Counting(factorize.BellTable):
        def __init__(self, xs, n_max):
            built.append(n_max)
            super().__init__(xs, n_max)

    def counting_tn(*args):
        closed_forms.append(args)
        return factorize.tn_coeffs(*args)

    a = a_coeffs(BellTable(rand_digits(random.Random(83), 5, 1, 41).digits, 40), 40)
    monkeypatch.setattr(factorize, "BellTable", Counting)
    monkeypatch.setattr(factorize, "tn_coeffs", counting_tn)
    assert len(t_coeffs(a, 5)) == 40
    assert built == [] and closed_forms == []


def test_streams_share_one_bell_table(monkeypatch):
    built = []

    class Counting(factorize.BellTable):
        def __init__(self, xs, n_max):
            built.append(n_max)
            super().__init__(xs, n_max)

    monkeypatch.setattr(factorize, "BellTable", Counting)
    d = rand_digits(random.Random(81), 7, 1, 9)
    # the streams read the table they are given and build none
    table = BellTable(d.digits, 9)
    t_coeffs(a_coeffs(table, 8), 7)
    factorize.tn_coeffs(table, range(-2, 9), 9)
    assert built == []
    # a standalone tn_series builds the one table it reads
    for n in range(-2, 9):
        tn_series(d, n, 9)
    assert built == [9] * 11
    factor(GEOM_F, 12)
    assert built[11:] == [13]  # the factor digits' table; the root was exact
    # a_n, T_n and every lemma check of one factor call read one table
    factor(polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5]), 8)
    assert built[11:] == [13, 9]


def test_streams_past_the_digits_are_zero_padded():
    rng = random.Random(82)
    d = rand_digits(rng, 5, 1, 4)
    padded = RootDigits(5, 1, d.digits + (0,) * 6)
    assert a_coeffs(BellTable(d.digits, 10), 10) == a_coeffs(BellTable(padded.digits, 10), 10)
    assert t_of(d, 10) == t_of(padded, 10)
    for n in (-1, 2, 5):
        assert tn_series(d, n, 10) == tn_series(padded, n, 10)


# f = (3 - x)(27 + 5x + 7x^2 + x^3): exact root 3, digits all zero,
# p = 3, w = 4, m = vp(-12) = 1, gammas = (-4, 16, -4, -1)
ZERO_DIGIT_F = polys.mul([3, -1], [27, 5, 7, 1])


def test_bhat_basic():
    # n = 1 reading of the convolution: bhat_1 = p^(w-2l) t1 + p^(m-l) g1 + g2
    bhat, B = bhat_coeffs(ZERO_DIGIT_F, 3, [1, 1, 1], 1, 1)
    assert bhat[0] == 3 ** 2 * 1 + 3 ** 0 * (-4) * 1 + 16 == 21
    assert B == [27, 5, 7]


def test_bhat_zero_digit_closed_recursion():
    # all e_j = 0: t_n = 1, so bhat_n = p^(w-2l) + p^(m-l) g1 + sum_j p^(l(j-2)) g_j,
    # and B must be the whole cofactor 27 + 5x + 7x^2 + x^3 (zero tail)
    p, w, m, ell = 3, 4, 1, 1
    gammas = (ZERO_DIGIT_F[1] // p ** m, *ZERO_DIGIT_F[2:])
    t = [1] * 6
    bhat, B = bhat_coeffs(ZERO_DIGIT_F, p ** ell, t, 6, 1)
    for n in range(1, 7):
        expect = p ** (w - 2 * ell) + p ** (m - ell) * gammas[0]
        for j in range(2, min(n + 1, len(gammas)) + 1):
            expect += p ** (ell * (j - 2)) * gammas[j - 1]
        assert bhat[n - 1] == expect, n
    assert B == [27, 5, 7, 1, 0, 0, 0, 0]


def test_bhat_divisibility_violation():
    # a gamma_2 incompatible with any genuine root breaks p^(ell n) | bhat_n
    f = [81, -12, 17, -4, -1]
    with pytest.raises(DivisibilityViolation):
        bhat_coeffs(f, 3, [1, 1, 1], 1, 1)


@pytest.mark.parametrize("f, what", [([3, 3, 1], "f_0 / P^2 = 1/3"),
                                     ([9, 1, 1], "f_1 / P = 1/3")])
def test_bhat_refuses_a_non_integral_c(f, what):
    # C = f(P x) / P^2 is integral only when P^2 | f_0 and P | f_1
    with pytest.raises(IntegralityViolation) as refused:
        bhat_coeffs(f, 3, [1], 1, 1)
    assert str(refused.value) == f"{what} is not an integer"


def test_divisibility_check_catches_a_tampered_bhat(monkeypatch):
    # the lemma check compares every bhat_n with b_n p^(ell n), so a bhat
    # that no longer matches the b it produced must fail it
    honest, run_checks = factorize.bhat_coeffs, factorize._run_checks
    seen = []

    def tampered(*args):
        bhat, b = honest(*args)
        bhat[2] += 1
        return bhat, b

    def recording(*args):
        seen.append(run_checks(*args))
        return seen[-1]

    monkeypatch.setattr(factorize, "_run_checks", recording)
    assert factor(GEOM_F, 8).checks.divisibility
    monkeypatch.setattr(factorize, "bhat_coeffs", tampered)
    with pytest.raises(factorize.PrecisionExhausted, match="divisibility=False"):
        factor(GEOM_F, 8)
    checks = seen[-1]
    assert not checks.divisibility and not checks.all_passed()
    assert checks.product and checks.reciprocal and checks.tn_recurrence


# ---------------------------------------------------------------------------
# factor: geometric tail, planted, any unit part, failures
# ---------------------------------------------------------------------------

def test_factor_geometric_tail():
    pair = factor(GEOM_F, 10)
    assert pair.A == (3, -1) + (0,) * 9
    assert pair.B == (3, 5) + (4,) * 9
    assert pair.ell == 1 and pair.scale == 1
    assert pair.checks.all_passed()
    assert verify_factorization(GEOM_F, pair, 10).passed()


def test_factor_b_by_series_division():
    # B = f * A^(-1) over Q, an independent route to the same coefficients
    M = 10
    f = Series([GEOM_F.coeff(j) for j in range(M + 1)], M)
    A = Series([3, -1], M)
    B = f * A.reciprocal()
    pair = factor(GEOM_F, M)
    assert tuple(B.coeffs) == tuple(Fraction(c) for c in pair.B)


def plant(rng):
    p = rng.choice([3, 5, 7])
    ell = rng.choice([1, 2])
    w = ell + rng.randint(ell, ell + 2)
    u = [1, rng.randint(-4, 4), rng.randint(-4, 4)]
    v1 = rng.randint(-8, 8)
    if v1 % p == 0 or (w == 2 * ell and (v1 + 1) % p == 0):
        return None
    v = [p ** (w - ell), v1, rng.randint(-8, 8), rng.randint(-8, 8)]
    A_plant = polys.add([p ** ell], [-c for c in [0] + u])
    f = polys.mul(A_plant, v)
    if polys.degree(f) < 2 or f[1] == 0:
        return None
    if classify(f[0], f[1]).kind != NEEDS_ROOT_ANALYSIS:
        return None
    return f


def test_factor_planted():
    rng = random.Random(83)
    done = 0
    while done < 8:
        f = plant(rng)
        if f is None:
            continue
        pair = factor(f, 8)
        assert pair.checks.all_passed()
        rep = verify_factorization(pair.series, pair, 8)
        assert rep.passed(), (f, rep)
        done += 1


def geometric_from_poly(c, ratio):
    """SeriesInput for c(x) / (1 - ratio*x): coefficients obey the running
    recursion f_j = ratio*f_(j-1) + c_j, eventually exactly geometric."""
    head = []
    prev = 0
    for j in range(len(c) + 1):
        prev = ratio * prev + (c[j] if j < len(c) else 0)
        head.append(prev)
    return SeriesInput.geometric(tuple(head), ratio)


def test_factor_planted_series_inputs():
    # plant f = (p^ell - x*u(x)) * v(x) / (1 - r*x): a true power series with
    # an eventually-geometric tail and a known root of valuation ell
    rng = random.Random(89)
    done = 0
    while done < 6:
        p = rng.choice([3, 5, 7])
        ell = 1
        w = ell + rng.randint(ell, ell + 1)
        ratio = rng.choice([1, 2, -1])
        u = [1, rng.randint(-3, 3)]
        v1 = rng.randint(-6, 6)
        if v1 % p == 0 or (w == 2 * ell and (v1 + 1) % p == 0):
            continue
        v = [p ** (w - ell), v1, rng.randint(-6, 6)]
        c = polys.mul(polys.add([p ** ell], [-x for x in [0] + u]), v)
        si = geometric_from_poly(c, ratio)
        cls = classify(si.coeff(0), si.coeff(1))
        if cls.kind != NEEDS_ROOT_ANALYSIS or cls.m is INFINITY:
            continue
        try:
            pair = factor(si, 8)
        except NoSuitableRoot:
            # the unit 1/(1-rx) can shift vp(f1) above the root's valuation
            continue
        assert pair.checks.all_passed()
        assert verify_factorization(pair.series, pair, 8).passed()
        done += 1


def test_factor_rescale_path():
    # plant a root r whose unit part is e0 = 1/2 mod 5: A(x) = A'(c x) with
    # c = 1/e0 = 2, and the pair factors f itself
    p, ell = 5, 1
    A_plant = polys.add([p], [-c for c in [0, 2, 1]])   # 5 - x(2 + x)
    v = [p, 3, 1]
    f = polys.mul(A_plant, v)
    pair = factor(f, 8)
    assert pair.A[:2] == (5, -2) and pair.scale == 1
    assert pair.series == SeriesInput.polynomial(f)
    assert verify_factorization(f, pair, 8).passed()
    assert pair.checks.all_passed()
    r = pair.root.residue
    assert polys.evaluate(pair.A, r) % p ** (ell * 9) == 0
    assert polys.evaluate(A_plant, r) % p ** (ell * 10) == 0


@st.composite
def planted_products(draw):
    """(p^ell - x u(x)) v(x), v = p^(w-ell) + v1 x + ..., u(0) a unit mod p^ell:
    the first factor's root has unit part 1/u(0) mod p^ell, so c = u(0).  The
    roots of valuation ell keep vp(f'(r)) = ell (w > 2 ell, or u(0) + v1 a unit)."""
    p, ell = draw(st.sampled_from([2, 3, 5, 7])), draw(st.sampled_from([1, 2]))
    P = p ** ell
    w = draw(st.integers(2 * ell, 2 * ell + 2))
    u = [draw(st.integers(1, P - 1).filter(lambda k: k % p))]
    u += [draw(st.integers(-4, 4)) for _ in range(draw(st.integers(0, 2)))]
    v1 = draw(st.integers(-8, 8).filter(lambda k: k % p and (w > 2 * ell or (k + u[0]) % p)))
    v = [p ** (w - ell), v1] + [draw(st.integers(-8, 8)) for _ in range(draw(st.integers(0, 2)))]
    A_plant = polys.add([P], [0] + [-k for k in u])
    f = polys.mul(A_plant, v)
    assume(f[1] != 0)
    return f, A_plant, v, p, ell, draw(st.integers(1, 12))


def run_cli(argv, stdin=""):
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@settings(max_examples=120)
@given(planted_products())
def test_factor_takes_one_path_for_every_unit_part_and_prime(case):
    f, A_plant, v, p, ell, M = case
    rc, out = run_cli(["factor", "--coeffs=" + ",".join(map(str, f)), "--order", str(M), "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["effective_coeffs"] == (f + [0] * M)[: M + 1] and payload["scale"] == 1
    assert all(payload["checks"].values())
    assert run_cli(["verify"], out) == (0, "verified ok\n")
    r = polys.evaluate(payload["root"]["digits"], p)
    assert payload["ell"] == ell
    assert polys.evaluate(payload["A"], r) % p ** (ell * (M + 1)) == 0
    modulus = p ** (ell * (M + 2))
    if polys.evaluate(A_plant, r) % modulus == 0:
        assert payload["A"][1] == A_plant[1]    # -c, c = u(0)
    else:
        assert polys.evaluate(v, r) % modulus == 0


def test_factor_high_order_and_ell2():
    pair = factor(GEOM_F, 20)
    assert pair.A == (3, -1) + (0,) * 19
    assert pair.B == (3, 5) + (4,) * 19
    # ell = 2 pushes the root precision to 2*(M+4)
    p, ell, w = 5, 2, 5
    f = polys.mul(polys.add([p ** ell], [-c for c in [0, 1, 3, -2]]),
                  [p ** (w - ell), 7, -4, 2])
    pair = factor(f, 16)
    assert pair.ell == 2
    assert pair.checks.all_passed()
    assert verify_factorization(pair.series, pair, 16).passed()


def test_factor_deterministic():
    p, ell, w = 5, 2, 5
    f = polys.mul(polys.add([p ** ell], [-c for c in [0, 1, 3, -2]]),
                  [p ** (w - ell), 7, -4, 2])
    p1 = factor(f, 10)
    p2 = factor(f, 10)
    assert (p1.A, p1.B, p1.root) == (p2.A, p2.B, p2.root)


def test_factor_no_root_small_w():
    # partial sums of the geometric-tail example are irreducible; w = 2m, no fallback
    with pytest.raises(NoSuitableRoot) as exc:
        factor([9, 12, 7], 6)
    with pytest.raises(NoSuitableRoot):
        factor([9, 12, 7, 8], 6)


def test_factor_no_root_fallback_flag():
    # w=3 > 2m=2 and the slope-1/2 Newton segment keeps roots out of Q_p
    with pytest.raises(NoSuitableRoot) as exc:
        factor([27, 3, 0, 1], 6)


@pytest.mark.parametrize("k", [8, 12, 16, 13, 17, 21, 31, 41])
def test_factor_near_two_close_roots(k, evaluation_budget):
    # 9 - 6x + x^2 - 3^k x^3 is close to (x - 3)^2: two Z_3 roots near 3 for
    # odd k, none for even k; a digit scan keeps about 3^(d/2) classes alive
    evaluation_budget(500)
    if k % 2 == 0:
        with pytest.raises(NoSuitableRoot):
            factor([9, -6, 1, -3 ** k], 30)
    else:
        pair = factor([9, -6, 1, -3 ** k], 30)
        assert pair.checks.all_passed() and pair.root.residue % 9 == 3


def test_cli_factors_at_a_root_whose_newton_ball_lies_below_the_order():
    # k = 31: the two roots r near 3 have vp(r - 3) = vp(f'(r)) = 17, so a
    # digit scan would isolate them only at depth 35, past ell (M + 4) = 34
    argv = ["factor", "--coeffs=9,-6,1,-617673396283947", "--order", "30", "--json"]
    rc, out = run_cli(argv)
    assert rc == 0
    assert run_cli(["verify"], out) == (0, "verified ok\n")


def test_factor_at_a_prime_past_any_digit_scan(evaluation_budget):
    # (p - x)(p - 2x): the scan's start node takes its digits from the
    # roots mod p, so p = 10^9 + 7 costs no more than p = 3
    p = 10 ** 9 + 7
    evaluation_budget(100)
    pair = factor([p * p, -3 * p, 2], 6)
    assert pair.checks.all_passed()
    assert (pair.A, pair.B) == ((p, -1) + (0,) * 5, (p, -2) + (0,) * 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_factor_scan_lifts_no_root_of_higher_valuation(p, monkeypatch):
    # (x - p)(x^2 - p^4): the roots +-p^2 lie under digit 0 of the scan's
    # start node (0, ell = 1), a double root mod p there; only p is lifted
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return lift_general(*args, **kwargs)

    monkeypatch.setattr(factorize, "lift_general", counting)
    pair = factor(polys.mul([-p, 1], [-p ** 4, 0, 1]), 4)
    assert pair.ell == 1 and pair.root.residue == p
    assert len(calls) == 1


def _digit_scan(si, p, ell, N):
    """Independent reference for the factor scan: candidates c with
    vp(c) = ell at depth 2 ell + 1, visited in increasing order and refined
    one p-adic digit at a time up to depth N; returns the residue mod p^N of
    the first exact root or Newton-ball root with vp = ell, else None."""
    cands = [p ** ell * u for u in range(1, p ** (ell + 1)) if u % p != 0]
    depth = 2 * ell + 1
    while cands and depth <= N:
        nxt = []
        for c in sorted(cands):
            F = si.eval_exact(c)
            if F == 0:
                return c % p ** N
            nu, kappa = vp_rat(F, p), vp_rat(si.eval_derivative_exact(c), p)
            if kappa is not INFINITY and nu > 2 * kappa and depth > 2 * kappa:
                J = max(len(si.head), (N + kappa) // ell + 2)
                rep = lift_general([si.coeff(j) for j in range(J + 1)], c, p, N)
                if rep.root.valuation() == ell:
                    return rep.root.residue
                continue
            nxt += [c + t * p ** depth for t in range(p)
                    if vp_rat(si.eval_exact(c + t * p ** depth), p) >= depth + 1]
        cands = nxt
        depth += 1
    return None


@st.composite
def scan_inputs(draw):
    """(input, p, ell, N): planted roots of valuation ell, some repeated or
    close, times a cofactor, perturbed, with a zero or geometric tail."""
    p, ell = draw(st.sampled_from([3, 5])), draw(st.sampled_from([1, 2]))
    head = [draw(st.integers(-9, 9).filter(bool)), draw(st.integers(-3, 3))]
    for _ in range(draw(st.integers(0, 3))):
        r = p ** ell * draw(st.integers(1, 2 * p).filter(lambda u: u % p))
        if draw(st.booleans()):
            r += p ** draw(st.integers(ell + 1, 7)) * draw(st.integers(-p, p))
        head = polys.mul(head, [-r, 1])
    if draw(st.booleans()):
        head = polys.add(head, [p ** draw(st.integers(0, 8)) * draw(st.integers(-2, 2))]
                         + [draw(st.integers(-3, 3)) for _ in range(draw(st.integers(0, 2)))])
    ratio = draw(st.sampled_from([None, None, None, 0, 1, -1, 2, -4, 3]))
    si = SeriesInput.polynomial(head) if ratio is None else SeriesInput.geometric(head, ratio)
    return si, p, ell, draw(st.integers(2 * ell + 1, 10))


@settings(max_examples=200)
@given(scan_inputs())
# integer roots r > p^(2 ell + 1): the scan meets them exactly only deeper than 2 ell + 1
@example((SeriesInput.polynomial([-775260, 4557, -1]), 3, 1, 8))
@example((SeriesInput.polynomial([859222631260500, -32977423400, 359445, -1]), 5, 1, 7))
# two roots near 3 whose Newton balls lie below p^N: the scan meets neither
@example((SeriesInput.polynomial([9, -6, 1, -3 ** 31]), 3, 1, 10))
def test_scan_finds_a_root_no_later_in_digit_order_than_the_digit_scan(case):
    si, p, ell, N = case
    if not any(si.head):
        return
    F = si.numerator()
    rep = factorize._find_valuation_root(polys.squarefree(F)[1], p, ell, N)
    met = _digit_scan(si, p, ell, N)
    assert rep is not None or met is None
    if rep is not None:
        r = rep.root
        assert r.valuation() == ell and polys.evaluate(F, r.residue) % p ** N == 0
        assert met is None or r.digits() <= PadicInt(p, N, met).digits()


def lift_every_ball(g, p, ell, N):
    """Reference for the root rule: lift every ball, keep the first root in digit order."""
    reps = [lift_general(g, x, p, N) for x, _ in hensel._newton_balls(g, p, 0, ell, {0})]
    return min(reps, key=lambda rep: rep.root.digits(), default=None)


@st.composite
def close_roots(draw):
    """(input, p, ell, N): a cofactor times two or three roots of valuation ell
    that agree mod p^k, k up to past N, so their balls share their low digits."""
    p, ell = draw(st.sampled_from([2, 3, 5])), draw(st.sampled_from([1, 2]))
    r = p ** ell * draw(st.integers(1, 3 * p).filter(lambda u: u % p))
    head = [draw(st.integers(-9, 9).filter(bool)), draw(st.integers(-3, 3))]
    for _ in range(draw(st.integers(2, 3))):
        t = draw(st.integers(-p, p).filter(bool))
        head = polys.mul(head, [-(r + t * p ** draw(st.integers(ell + 1, 16))), 1])
    return SeriesInput.polynomial(head), p, ell, draw(st.integers(2 * ell + 1, 12))


@settings(max_examples=200)
@given(st.one_of(scan_inputs(), close_roots()))
def test_scan_lifts_only_the_root_it_keeps(case):
    si, p, ell, N = case
    if not any(si.head):
        return
    g, calls = polys.squarefree(si.numerator())[1], []

    def counting(*args):
        calls.append(args)
        return lift_general(*args)

    with mock.patch.object(factorize, "lift_general", counting):
        rep = factorize._find_valuation_root(g, p, ell, N)
    ref = lift_every_ball(g, p, ell, N)
    assert len(calls) <= 1
    assert (rep and rep.root) == (ref and ref.root)


@settings(max_examples=60)
@given(planted_products())
def test_factor_at_order_m_truncates_factor_at_order_m_plus_4(case):
    # the root rule reads digits from the lowest, so a higher order keeps the root
    f, _, _, _, _, M = case
    low, high = factor(f, M), factor(f, M + 4)
    assert (low.A, low.B) == (high.A[: M + 1], high.B[: M + 1])


def test_factor_builds_the_scan_numerator_once(monkeypatch):
    # (9 - x)(9 + 9x + x^2) has no root of valuation 1 and the root 9 of
    # valuation 2: both scans run on one squarefree part
    honest, calls = polys.squarefree, []

    def counting(f):
        calls.append(f)
        return honest(f)

    monkeypatch.setattr(polys, "squarefree", counting)
    assert factor(polys.mul([9, -1], [9, 9, 1]), 6).ell == 2
    assert len(calls) == 1


def test_factor_wrong_shape():
    with pytest.raises(WrongShape):
        factor([5, 3, 1], 6)       # prime constant term
    with pytest.raises(WrongShape):
        factor([9, 2, 1], 6)       # gcd(p, f1) = 1: irreducible
    for f1 in (-1, 0, 1, 2):       # f0 = 0: x times a unit, or reducible
        with pytest.raises(WrongShape):
            factor([0, f1, 1], 6)


def test_factor_negative_order():
    with pytest.raises(ValueError, match="order"):
        factor(GEOM_F, -1)


def test_verify_catches_tampering():
    pair = factor(GEOM_F, 8)
    bad = pair.B[:2] + (pair.B[2] + 1,) + pair.B[3:]
    import dataclasses
    broken = dataclasses.replace(pair, B=bad)
    rep = verify_factorization(GEOM_F, broken, 8)
    assert not rep.passed()
    assert rep.mismatches[0][0] == 2


# ---------------------------------------------------------------------------
# multiple roots
# ---------------------------------------------------------------------------

def test_factor_multiple_root():
    for p in (3, 5):
        f = polys.mul(polys.mul([-p, 1], [-p, 1]), [1, 1])
        G, fred = factor_multiple_root(f)
        assert G == [-p, 1]
        assert polys.mul(G, fred) == polys.trim(f)
        assert sorted(fred) == sorted(polys.mul([-p, 1], [1, 1]))


def test_factor_multiple_root_square_of_quadratic():
    p = 3
    g = [-p * p, 0, 1]                      # x^2 - p^2
    f = polys.mul(g, g)
    G, fred = factor_multiple_root(f)
    assert G == g
    assert fred == g


def test_factor_multiple_root_squarefree():
    with pytest.raises(NoMultipleRoot):
        factor_multiple_root([6, 5, 1])


@pytest.mark.parametrize("f, error, message", [
    ([4, 2, 1], NoSuitableRoot, "no root"),   # -3 is not a square in Q_2
], ids=["even-prime"])
def test_factor_refuses_inputs_outside_the_theorem(f, error, message):
    with pytest.raises(error, match=message):
        factor(f, 4)


@pytest.mark.parametrize("f, A, B", [
    ([9, 0, -1], (3, -1), (3, 1)),
    ([729, 0, -1], (27, -1), (27, 1)),        # ell = 3 = w // 2
    ([-8, 2, 1], (2, -1), (-4, -1)),
], ids=["no-linear-term", "no-linear-term-ell-3", "negative-constant"])
def test_factor_takes_a_negative_constant_or_no_linear_term(f, A, B):
    pair = factor(f, 4)
    assert (pair.A, pair.B) == (A + (0,) * 3, B + (0,) * 3)
    assert pair.m == (INFINITY if f[1] == 0 else 1)
    assert pair.checks.all_passed() and verify_factorization(f, pair, 4).passed()


@st.composite
def needs_root_analysis(draw):
    """(input, M): p^w + f1 x + ... with f1 = 0 half the time and p | f1 otherwise, at
    random or a planted (p^ell - x u(x)) v(x), as a polynomial or with a geometric tail."""
    p, no_f1 = draw(st.sampled_from([2, 3, 5, 7])), draw(st.booleans())
    if draw(st.booleans()):
        ell = draw(st.sampled_from([1, 2]))
        w = draw(st.integers(2 * ell, 2 * ell + 2))
        u = [draw(st.integers(1, p ** ell - 1).filter(lambda k: k % p)),
             *draw(st.lists(st.integers(-4, 4), max_size=2))]
        # f1 = p^ell v1 - u(0) p^(w-ell)
        v1 = u[0] * p ** (w - 2 * ell) if no_f1 else draw(st.integers(-8, 8))
        v = [p ** (w - ell), v1, *draw(st.lists(st.integers(-8, 8), max_size=2))]
        head = polys.mul(polys.add([p ** ell], [0] + [-k for k in u]), v)
    else:
        f1 = 0 if no_f1 else p ** draw(st.integers(1, 3)) * draw(st.integers(-4, 4).filter(bool))
        head = [p ** draw(st.integers(2, 6)), f1, *draw(st.lists(st.integers(-20, 20), max_size=4))]
    ratio = draw(st.sampled_from([None, None, 1, -1, 2, -3]))
    return SeriesInput(tuple(head), ratio), draw(st.integers(0, 8))


def factor_or_refusal(f, M):
    try:
        return factor(f, M)
    except DomainError as exc:
        return type(exc)


@settings(max_examples=300)
@given(needs_root_analysis())
def test_negating_f_negates_b_and_keeps_a(case):
    si, M = case
    neg = SeriesInput(tuple(-c for c in si.head), si.tail_ratio)
    pos_pair, neg_pair = factor_or_refusal(si, M), factor_or_refusal(neg, M)
    if isinstance(pos_pair, type):
        assert neg_pair is pos_pair
        return
    assert neg_pair.A == pos_pair.A and neg_pair.B == tuple(-b for b in pos_pair.B)
    assert pos_pair.checks.all_passed() and neg_pair.checks.all_passed()
    assert verify_factorization(neg, neg_pair, M).passed()
