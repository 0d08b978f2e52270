import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padiclift import factorize, polys
from padiclift.bigmath import INFINITY, vp_rat
from padiclift.factorize import (NEEDS_ROOT_ANALYSIS, Classification,
                                 DivisibilityViolation, FactorizationProblem,
                                 InsufficientPrecision, NoMultipleRoot,
                                 NoSuitableRoot, RootDigits, SeriesInput,
                                 UnitPartNotOne, WrongShape, WrongValuation,
                                 a_coeffs, bhat_coeffs, classify, e_series,
                                 factor, factor_multiple_root, root_to_digits,
                                 t_coeffs, tn_series, verify_factorization)
from padiclift.hensel import EvenPrime, lift_general
from padiclift.padic import PadicInt
from padiclift.series import Series, lagrange_invert

# 9 + 12x + 7x^2 + 8x^3/(1-x): reducible with an exact root at 3
GEOM_F = SeriesInput.geometric((9, 12, 7, 8), 1)


def rand_digits(rng, p, ell, count):
    blk = p ** ell
    return RootDigits(p, ell, tuple(rng.randrange(blk) for _ in range(count)))


def t_of(d, M):
    """t_1..t_M of the root with digits d."""
    return t_coeffs(a_coeffs(d, M), d.p ** d.ell)


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
    assert classify(0, 1).kind == "ReducibleComposite"
    c = classify(9, 12)
    assert (c.kind, c.p, c.w, c.m) == (NEEDS_ROOT_ANALYSIS, 3, 2, 1)
    c = classify(9, 0)
    assert c.kind == NEEDS_ROOT_ANALYSIS and c.m is INFINITY
    c = classify(2 ** 10, 6)
    assert (c.p, c.w, c.m) == (2, 10, 1)


def test_classify_str():
    assert str(classify(9, 12)) == "NeedsRootAnalysis p=3 w=2 m=1"


# ---------------------------------------------------------------------------
# series inputs
# ---------------------------------------------------------------------------

def test_series_input_tail():
    assert [GEOM_F.coeff(j) for j in range(8)] == [9, 12, 7, 8, 8, 8, 8, 8]
    g = SeriesInput.geometric((1, 2), 3)
    assert [g.coeff(j) for j in range(5)] == [1, 2, 6, 18, 54]
    poly = SeriesInput.polynomial((1, 2, 3))
    assert poly.coeff(5) == 0


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


def test_series_input_rescale():
    g = GEOM_F.rescaled(2)
    assert [g.coeff(j) for j in range(5)] == [9, 24, 28, 64, 128]


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
    assert a_coeffs(d, 8) == [0] * 8


def test_a_coeffs_hand_value():
    # e1 = 1, rest 0: a2 = (1/2)[-(3!/3!) B(2,1)(1,0) + (4!/3!) B(2,2)(1,0)] = 2
    d = RootDigits(7, 1, (1, 0, 0, 0))
    a = a_coeffs(d, 4)
    assert a[0] == -1 and a[1] == 2


def test_a_coeffs_lagrange_oracle():
    # A = p^ell - phi^(-1)(x) for phi(t) = t E(t), so a_n = beta_n / n!
    rng = random.Random(73)
    for _ in range(10):
        d = rand_digits(rng, 5, 1, 8)
        alphas = [math.factorial(j) * e for j, e in enumerate(d.digits, start=1)]
        betas = lagrange_invert(alphas)
        expect = [b / math.factorial(n) for n, b in enumerate(betas, start=1)]
        assert [Fraction(x) for x in a_coeffs(d, 8)] == expect


def test_a_coeffs_invert_e_series():
    # phi(phi^(-1)) = identity with phi = x * E(x)
    rng = random.Random(74)
    d = rand_digits(rng, 7, 1, 8)
    a = a_coeffs(d, 8)
    phi = (Series.x(9) * e_series(d, 8).truncate(9))
    phinv = Series([0, 1] + a, 9)
    assert phi.compose(phinv.truncate(9)) == Series.x(9)


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
        a = a_coeffs(d, 8)
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
    # T_n for n <= 0 is the same Lagrange sum as for n >= 1, so a sum skewed
    # only there (by k!, which keeps T_n integral) fails the recurrence check
    honest, run_checks = factorize.lagrange_sum, factorize._run_checks
    seen = []

    def skewed(table, n, k):
        return honest(table, n, k) + (math.factorial(k) if n <= 0 else 0)

    def recording(*args):
        seen.append(run_checks(*args))
        return seen[-1]

    f = polys.mul(polys.add([7], [0, -1, 3, -2]), [49, 3, -5])
    monkeypatch.setattr(factorize, "_run_checks", recording)
    assert all(factor(f, 8).digits.digits)
    monkeypatch.setattr(factorize, "lagrange_sum", skewed)
    with pytest.raises(factorize.PrecisionExhausted, match="tn_recurrence=False"):
        factor(f, 8)
    checks = seen[-1]
    assert not checks.tn_recurrence
    assert checks.product and checks.divisibility and checks.reciprocal and checks.tn_congruences


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
    E = e_series(d, M + 1)
    t = t_of(d, M)
    assert factorize._tn_congruences(E, p ** ell, t)
    for nu in (1, 3, M):
        bad = list(t)
        bad[nu - 1] += p ** (ell * (nu + 1))
        assert not factorize._tn_congruences(E, p ** ell, bad), nu
    # a wrong stream: t comes from the a_n, which read W(k, j) from the Bell
    # table, and the check does not.  W(M, 1) += M + 1 keeps the division by
    # M! exact, moves a_M by -(M + 1) and so t_M by -(M + 1) p^(ell M) =
    # -7 * 5^6, which is not 0 mod 5^8
    honest_row = factorize.BellTable.ordinary_row

    def skewed(table, n):
        row = honest_row(table, n)
        return (row[0], row[1] + M + 1) + row[2:] if n == M else row

    monkeypatch.setattr(factorize.BellTable, "ordinary_row", skewed)
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
    E = e_series(d, M + 1)
    assert factorize._tn_congruences(E, P, t) is expect
    assert tn_congruences_by_series_algebra(E, P, t) is expect


def test_tn_congruences_build_no_series_product(monkeypatch):
    # the check runs on two values of E: no product and no reciprocal
    def refuse(*args):
        raise AssertionError("Series algebra in the lemma check")

    d = rand_digits(random.Random(84), 7, 2, 21)
    E, t = e_series(d, 21), t_of(d, 20)
    for name in ("__mul__", "__rmul__", "reciprocal"):
        monkeypatch.setattr(Series, name, refuse)
    assert factorize._tn_congruences(E, 7 ** 2, t)


def test_a_remainder_raises_integrality_violation(monkeypatch):
    # every provably-integer quotient of the factor streams goes through one
    # exact division; a skewed numerator that leaves a remainder must raise
    d = rand_digits(random.Random(85), 5, 1, 8)
    honest_sum = factorize.lagrange_sum
    monkeypatch.setattr(factorize, "lagrange_sum", lambda *args: honest_sum(*args) + 1)
    # a_2 = (L + 1)/2! with L/2! an integer
    with pytest.raises(factorize.IntegralityViolation, match="a_2"):
        a_coeffs(d, 4)
    # [x^2] T_2 = (L + 1)/2! likewise
    with pytest.raises(factorize.IntegralityViolation, match=r"\[x\^2\] T_2"):
        tn_series(d, 2, 4)


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
        return tn_series(*args)

    a = a_coeffs(rand_digits(random.Random(83), 5, 1, 41), 40)
    monkeypatch.setattr(factorize, "BellTable", Counting)
    monkeypatch.setattr(factorize, "tn_series", counting_tn)
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
    t_coeffs(a_coeffs(d, 8), 7)
    for n in range(-2, 9):
        tn_series(d, n, 9)
    assert built == [9]
    factor(GEOM_F, 12)
    assert len(built) == 2  # the factor digits' table; the root was exact


def test_streams_past_the_digits_are_zero_padded():
    rng = random.Random(82)
    d = rand_digits(rng, 5, 1, 4)
    padded = RootDigits(5, 1, d.digits + (0,) * 6)
    assert a_coeffs(d, 10) == a_coeffs(padded, 10)
    assert t_of(d, 10) == t_of(padded, 10)
    for n in (-1, 2, 5):
        assert tn_series(d, n, 10) == tn_series(padded, n, 10)


# f = (3 - x)(27 + 5x + 7x^2 + x^3): exact root 3, digits all zero,
# p = 3, w = 4, m = vp(-12) = 1, gammas = (-4, 16, -4, -1)
ZERO_DIGIT_F = polys.mul([3, -1], [27, 5, 7, 1])
ZERO_DIGIT_PROB = FactorizationProblem(3, 4, 1, (-4, 16, -4, -1))


def test_bhat_basic():
    # n = 1 reading of the convolution: bhat_1 = p^(w-2l) t1 + p^(m-l) g1 + g2
    bhat, b = bhat_coeffs(ZERO_DIGIT_PROB, 1, [1, 1, 1], 1)
    assert bhat[0] == 3 ** 2 * 1 + 3 ** 0 * (-4) * 1 + 16 == 21
    assert b[0] == 7


def test_bhat_zero_digit_closed_recursion():
    # all e_j = 0: t_n = 1, so bhat_n = p^(w-2l) + p^(m-l) g1 + sum_j p^(l(j-2)) g_j,
    # and b_n must reproduce the cofactor 27 + 5x + 7x^2 + x^3 (zero tail)
    p, w, m, ell = 3, 4, 1, 1
    gammas = ZERO_DIGIT_PROB.gammas
    t = [1] * 6
    bhat, b = bhat_coeffs(ZERO_DIGIT_PROB, ell, t, 6)
    for n in range(1, 7):
        expect = p ** (w - 2 * ell) + p ** (m - ell) * gammas[0]
        for j in range(2, min(n + 1, len(gammas)) + 1):
            expect += p ** (ell * (j - 2)) * gammas[j - 1]
        assert bhat[n - 1] == expect, n
    assert b == [7, 1, 0, 0, 0, 0]   # B = 27 + 5x + 7x^2 + x^3


def test_bhat_divisibility_violation():
    # a gamma_2 incompatible with any genuine root breaks p^(ell n) | bhat_n
    prob = FactorizationProblem(3, 4, 1, (-4, 17, -4, -1))
    with pytest.raises(DivisibilityViolation):
        bhat_coeffs(prob, 1, [1, 1, 1], 1)


def test_divisibility_check_catches_a_tampered_bhat(monkeypatch):
    # the lemma check compares every bhat_n with b_n p^(ell n), so a bhat
    # that no longer matches the b it produced must fail it
    honest, run_checks = factorize.bhat_coeffs, factorize._run_checks
    seen = []

    def tampered(prob, ell, t, M):
        bhat, b = honest(prob, ell, t, M)
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
# factor: geometric tail, planted, rescaled, failures
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
    # plant a root whose unit part is 2 mod 5: factor() must rescale
    p, ell = 5, 1
    A_plant = polys.add([p], [-c for c in [0, 2, 1]])   # 5 - x(2 + x)
    v = [p, 3, 1]
    f = polys.mul(A_plant, v)
    pair = factor(f, 8)
    assert pair.scale == pow(2, -1, 5)
    g = [c * pair.scale ** j for j, c in enumerate(f)]
    assert [pair.series.coeff(j) for j in range(len(f))] == g
    assert verify_factorization(pair.series, pair, 8).passed()
    assert pair.checks.all_passed()


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
    assert exc.value.fallback_out_of_scope is False
    with pytest.raises(NoSuitableRoot):
        factor([9, 12, 7, 8], 6)


def test_factor_no_root_fallback_flag():
    # w=3 > 2m=2 and the slope-1/2 Newton segment keeps roots out of Q_p
    with pytest.raises(NoSuitableRoot) as exc:
        factor([27, 3, 0, 1], 6)
    assert exc.value.fallback_out_of_scope is True


@pytest.mark.parametrize("k", [8, 12, 16, 13, 17, 21])
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
    """Reference for the root choice of the factor scan: candidates c with
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
def test_scan_chooses_the_root_the_digit_scan_meets_first(case):
    si, p, ell, N = case
    if not any(si.head):
        return
    F = si.numerator()
    rep = factorize._find_valuation_root(F, polys.derivative(F), polys.squarefree(F)[1],
                                         p, ell, N)
    assert (rep and rep.root.residue) == _digit_scan(si, p, ell, N)


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
    with pytest.raises(WrongShape):
        factor([9, 12, 7], 6, p=5)


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
    ([-9, 3, 1], WrongShape, "negate f first"),
    ([4, 2, 1], EvenPrime, "odd p"),
    ([9, 0, 1], WrongShape, "f1 = 0"),
], ids=["negative-constant", "even-prime", "no-linear-term"])
def test_factor_refuses_inputs_outside_the_theorem(f, error, message):
    with pytest.raises(error, match=message):
        factor(f, 4)
