import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclift import hensel, polys, series
from padiclift.bigmath import INFINITY, vp, vp_factorial, vp_rat
from padiclift.cli import main
from padiclift.errors import DomainError
from padiclift.hensel import (BadExponents, DerivativeNotUnit,
                              InsufficientCongruence, NonIntegralShift,
                              NotARootModP, OutOfRange,
                              ZeroPolynomial,
                              lift_all, lift_cubic, lift_general,
                              lift_quadratic, lift_simple, lift_sparse,
                              newton_lift, taylor_shift,
                              teichmuller, teichmuller_oracle)
from padiclift.series import formal_root_terms

EX1 = [1, 11, -5]    # two simple roots mod 7: 1 and 4
EX2 = [17, 6, 2]     # double root 1 mod 5


def reduce_frac(x: Fraction, modulus: int) -> int:
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


# ---------------------------------------------------------------------------
# taylor_shift
# ---------------------------------------------------------------------------

def test_taylor_shift_plain():
    st = taylor_shift(EX1, 1)
    assert tuple(int(c) for c in st) == (7, 1, -5)
    st0 = taylor_shift(EX1, 0)
    assert tuple(int(c) for c in st0) == tuple(EX1)


def test_taylor_shift_scaled():
    st = taylor_shift(EX2, 1, kappa=1, p=5)
    assert tuple(int(c) for c in st) == (1, 2, 2)
    # g(x) = p^(-2k) f(r0 + p^k x) at sample points
    for x in (-1, 2, 5):
        g = sum(c * Fraction(x) ** j for j, c in enumerate(st))
        assert g == Fraction(polys.evaluate(EX2, 1 + 5 * x), 25)


def test_taylor_shift_non_integral():
    with pytest.raises(NonIntegralShift):
        taylor_shift(EX1, 1, kappa=1, p=7)   # vp(f(1)) = 1 < 2*kappa
    with pytest.raises(ValueError, match="kappa must be nonnegative"):
        taylor_shift(EX1, 1, kappa=-1, p=7)
    with pytest.raises(ValueError, match="p is required when kappa > 0"):
        taylor_shift(EX1, 1, kappa=1)


# ---------------------------------------------------------------------------
# lift_simple / newton_lift
# ---------------------------------------------------------------------------

def test_example1_partial_sum():
    rep = lift_simple(EX1, 1, 7, 3)
    assert rep.root.residue == 1 - 7 + 5 * 49 == 239
    assert rep.residual_valuation >= 3


def test_example1_seed4():
    rep = lift_simple(EX1, 4, 7, 1)
    assert rep.root.residue == 4


def test_example1_oracle_agreement():
    for r0 in (1, 4):
        a = lift_simple(EX1, r0, 7, 40)
        b = newton_lift(EX1, r0, 7, 40)
        c = lift_quadratic(*EX1, r0, 7, 40)
        assert a.root == b == c.root


def test_simple_errors():
    with pytest.raises(NotARootModP):
        lift_simple(EX1, 2, 7, 3)
    # p = 2 lifts like any prime: x^2 + x + 2 has a simple root over 0 and over 1
    for r0 in (0, 1):
        assert lift_simple([2, 1, 1], r0, 2, 30).root == newton_lift([2, 1, 1], r0, 2, 30)
    with pytest.raises(DerivativeNotUnit):
        lift_simple(EX2, 1, 5, 3)   # f'(1) = 10


def test_term_valuation_growth():
    cs = polys.taylor_coeffs(EX1, 1)
    v0 = vp(cs[0], 7)
    terms = [t for _, t in formal_root_terms(cs, 11)]
    bounds = [(n + 1) * v0 - vp_factorial(n + 1, 7) for n in range(12)]
    for n, t in enumerate(terms):
        assert vp_rat(t, 7) >= bounds[n]
    # the a-priori bound is eventually strictly increasing
    assert all(b2 > b1 for b1, b2 in zip(bounds[6:], bounds[7:]))


def test_newton_linear():
    assert newton_lift([-9, 1], 4, 5, 6).residue == 9


def test_newton_vs_simple_random():
    rng = random.Random(99)
    hits = 0
    while hits < 100:
        p = rng.choice([3, 5, 7, 11])
        f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))]
        if polys.degree(f) < 1:
            continue
        seed = None
        for r0 in range(p):
            if polys.evaluate(f, r0) % p == 0 and \
                    polys.evaluate(polys.derivative(f), r0) % p != 0:
                seed = r0
                break
        if seed is None:
            continue
        a = lift_simple(f, seed, p, 12)
        b = newton_lift(f, seed, p, 12)
        assert a.root == b, (f, p, seed)
        assert a.root.residue % p == seed
        hits += 1


# ---------------------------------------------------------------------------
# lift_quadratic / lift_cubic / lift_sparse
# ---------------------------------------------------------------------------

def test_quadratic_catalan_partial_sums_seed1():
    # r = 1 - sum Cat_n (-5)^n 7^(n+1): the closed Catalan form, summed by hand
    N = 18
    modulus = 7 ** N
    acc = Fraction(1)
    for n in range(40):
        from math import comb
        acc -= Fraction(comb(2 * n, n), n + 1) * Fraction(-5) ** n * Fraction(7) ** (n + 1)
    assert lift_quadratic(*EX1, 1, 7, N).root.residue == reduce_frac(acc, modulus)


def test_quadratic_catalan_partial_sums_seed4():
    N = 15
    modulus = 7 ** N
    acc = Fraction(4)
    for n in range(40):
        from math import comb
        acc -= Fraction(comb(2 * n, n), n + 1) * Fraction(5, 29) ** (2 * n + 1) * 7 ** (n + 1)
    assert lift_quadratic(*EX1, 4, 7, N).root.residue == reduce_frac(acc, modulus)


def test_quadratic_linear_degenerate():
    rep = lift_quadratic(10, 3, 0, 0, 5, 8)
    modulus = 5 ** 8
    assert rep.root.residue == reduce_frac(Fraction(-10, 3), modulus)


def test_cubic_vs_newton_random():
    for p in (7, 2):
        rng = random.Random(101)
        hits = 0
        while hits < 30:
            f = [rng.randint(-9, 9) for _ in range(4)]
            if f[3] == 0:
                continue
            seed = None
            for r0 in range(p):
                if polys.evaluate(f, r0) % p == 0 and \
                        polys.evaluate(polys.derivative(f), r0) % p != 0:
                    seed = r0
                    break
            if seed is None:
                continue
            rep = lift_cubic(*f, seed, p, 30)
            assert rep.root == newton_lift(f, seed, p, 30)
            assert rep.root == lift_simple(f, seed, p, 30).root
            hits += 1


def test_cubic_degenerate_quadratic():
    rep3 = lift_cubic(10, 3, 2, 0, 0, 5, 20)
    rep2 = lift_quadratic(10, 3, 2, 0, 5, 20)
    assert rep3.root == rep2.root


def test_cubic_matches_trinomial_series():
    # x^3 + x = q over Z_5 with q = 5u: compare against the Lambert series
    from padiclift.series import trinomial_root_terms
    for u in (1, 2, 7):
        q = 5 * u
        N = 20
        modulus = 5 ** N
        rep = lift_cubic(-q, 1, 0, 1, 0, 5, N)
        acc = 0
        for val in trinomial_root_terms(3, 1, N, q=q):
            if val:
                acc = (acc + reduce_frac(val, modulus)) % modulus
        assert rep.root.residue == acc


def test_sparse_matches_cubic():
    rep_s = lift_sparse(10, 1, 3, 1, 2, 3, 5, 30)
    rep_c = lift_cubic(10, 1, 3, 1, 0, 5, 30)
    assert rep_s.root == rep_c.root


def test_sparse_zero_middle_is_trinomial():
    # f = a0 + a1 x + x^m, i.e. the trinomial case with al = 0
    f = [-15, 1, 0, 0, 0, 1]
    rep = lift_sparse(-15, 1, 0, 1, 3, 5, 5, 25)
    assert rep.root == newton_lift(f, 0, 5, 25)
    # and directly against the closed trinomial series x^5 + x = q at q = 15
    from padiclift.series import trinomial_root_terms
    N = 25
    modulus = 5 ** N
    acc = 0
    for val in trinomial_root_terms(5, 1, N, q=15):
        if val:
            acc = (acc + reduce_frac(val, modulus)) % modulus
    assert rep.root.residue == acc


def test_all_lift_routes_agree():
    # one instance in the overlap of every implementation: a cubic that is
    # also sparse-shaped (l=2, m=3) with seed 0
    f = [10, 1, 3, 1]
    p, N = 5, 30
    routes = [
        lift_simple(f, 0, p, N).root,
        lift_cubic(*f, 0, p, N).root,
        lift_sparse(10, 1, 3, 1, 2, 3, p, N).root,
        newton_lift(f, 0, p, N),
        lift_general(f, 0, p, N).root,
    ]
    assert len({r.residue for r in routes}) == 1


@settings(max_examples=150)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 40), st.data())
def test_one_engine_sums_every_closed_form(p, N, data):
    # f has Taylor data (c0, c1, c2, c3) at its simple seed r0 mod p
    r0 = data.draw(st.integers(0, p - 1))
    c0 = p * data.draw(st.integers(-30, 30))
    c1 = data.draw(st.integers(-30, 30).filter(lambda c: c % p))
    c2, c3 = (data.draw(st.one_of(st.just(0), st.integers(-30, 30))) for _ in range(2))
    f = polys.taylor_coeffs([c0, c1, c2, c3], -r0)
    cubic = lift_cubic(*f, r0, p, N)
    sparse = lift_sparse(c0, c1, c2, c3, 2, 3, p, N)
    assert cubic.root.residue == (r0 + sparse.root.residue) % p ** N
    assert cubic.terms_used == sparse.terms_used
    assert cubic.root == newton_lift(f, r0, p, N)
    g = polys.taylor_coeffs([c0, c1, c2], -r0)
    quadratic = lift_quadratic(*g, r0, p, N)
    assert quadratic == lift_cubic(*g, 0, r0, p, N)
    assert quadratic.root == newton_lift(g, r0, p, N)


def test_sparse_exact_zero_root():
    rep = lift_sparse(0, 1, 2, 3, 2, 4, 7, 10)
    assert rep.root.residue == 0
    assert rep.residual_valuation is INFINITY


def test_sparse_parity_sweep():
    # the sign (-1)^(m(k-j)+l*j) must be right for every parity of (l, m)
    for primes in ([3, 5, 7], [2]):
        rng = random.Random(55)
        for l, m in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6), (2, 6), (5, 7)):
            for _ in range(3):
                p = rng.choice(primes)
                a0 = p * rng.randint(-6, 6)
                a1 = rng.choice([x for x in range(-9, 10) if x % p != 0])
                al = rng.randint(-9, 9)
                am = rng.choice([x for x in range(-9, 10) if x != 0])
                f = [0] * (m + 1)
                f[0], f[1], f[l], f[m] = a0, a1, al, am
                rep = lift_sparse(a0, a1, al, am, l, m, p, 20)
                assert rep.root == newton_lift(f, 0, p, 20), (p, l, m, a0, a1, al, am)


def test_sparse_errors():
    with pytest.raises(BadExponents):
        lift_sparse(5, 1, 1, 1, 1, 3, 5, 10)
    with pytest.raises(BadExponents):
        lift_sparse(5, 1, 1, 1, 3, 3, 5, 10)
    with pytest.raises(NotARootModP):
        lift_sparse(1, 1, 1, 1, 2, 3, 5, 10)
    with pytest.raises(DerivativeNotUnit):
        lift_sparse(5, 10, 1, 1, 2, 3, 5, 10)


# ---------------------------------------------------------------------------
# lift_general / lift_all
# ---------------------------------------------------------------------------

def test_general_degenerate_params_match_simple():
    rep = lift_general(EX1, 1, 7, 25, nu=1, kappa=0)
    assert rep.root == lift_simple(EX1, 1, 7, 25).root


def test_general_example2_direct_seeds():
    # refined seeds 6 and 16 satisfy the theorem hypotheses (nu=3/4, kappa=1)
    ra = lift_general(EX2, 6, 5, 30)
    rb = lift_general(EX2, 16, 5, 30)
    for rep, inner in ((ra, 6), (rb, 16)):
        assert polys.evaluate(EX2, rep.root.residue) % 5 ** 30 == 0
        assert rep.root.residue % 25 == inner
        assert rep.root.residue % 25 in (1 + 5, 1 + 3 * 5)


def test_general_double_seed_closed_series():
    # 1 + 5 - (25/6) sum Cat_n (5/18)^n in Z_5
    N = 12
    modulus = 5 ** N
    acc = Fraction(6)
    for n in range(40):
        from math import comb
        acc -= Fraction(25, 6) * Fraction(comb(2 * n, n), n + 1) * Fraction(5, 18) ** n
    assert lift_general(EX2, 6, 5, N).root.residue == reduce_frac(acc, modulus)
    acc = Fraction(16)
    for n in range(40):
        from math import comb
        acc -= Fraction(125, 14) * Fraction(comb(2 * n, n), n + 1) * Fraction(25, 98) ** n
    assert lift_general(EX2, 16, 5, N).root.residue == reduce_frac(acc, modulus)


def test_general_rejects_insufficient_congruence():
    with pytest.raises(InsufficientCongruence):
        lift_general(EX2, 1, 5, 10, nu=2, kappa=1)


def test_general_validates_explicit_params():
    with pytest.raises(NotARootModP):
        lift_general(EX1, 1, 7, 10, nu=3, kappa=0)   # vp(f(1)) = 1 only
    with pytest.raises(DerivativeNotUnit):
        lift_general(EX1, 1, 7, 10, nu=1, kappa=1)   # vp(f'(1)) = 0


def test_general_seed_congruence():
    rep = lift_general(EX2, 6, 5, 20)
    kappa = vp(polys.evaluate(polys.derivative(EX2), 6), 5)
    assert (rep.root.residue - 6) % 5 ** (kappa + 1) == 0


def test_general_exact_root():
    f = polys.mul([-3, 1], [1, 1])   # (x-3)(x+1), 3 = seed exactly
    rep = lift_general(f, 3, 3, 12)
    assert rep.root.residue == 3
    assert rep.residual_valuation is INFINITY


def test_lift_all_example2():
    reports = lift_all(EX2, 1, 5, 30)
    assert len(reports) == 2
    assert sorted(r.root.residue % 25 for r in reports) == [6, 16]
    for rep in reports:
        assert polys.evaluate(EX2, rep.root.residue) % 5 ** 30 == 0


def test_lift_all_simple_seed():
    reports = lift_all(EX1, 1, 7, 20)
    assert len(reports) == 1
    assert reports[0].root == lift_simple(EX1, 1, 7, 20).root


def test_lift_all_true_double_root():
    f = polys.mul([-3, 1], [-3, 1])   # (x-3)^2: the double root 3, found once
    reports = lift_all(f, 0, 3, 8)
    assert [rep.root.residue for rep in reports] == [3]
    assert reports[0].residual_valuation is INFINITY


def test_lift_all_zero_polynomial():
    # every element is a root, so no class ever separates: refuse at once
    for f in ([0], [0, 0], [0, 0, 0, 0]):
        with pytest.raises(ZeroPolynomial, match="every element"):
            lift_all(f, 0, 5, 3)


@pytest.mark.parametrize("p", [1, 0, -3])
def test_lift_all_refuses_p_below_2(p):
    # vp(x, 1) never ends, so the refusal comes before the root tree
    with pytest.raises(DomainError, match="not prime"):
        lift_all([-3, 1], 2, p, 10)


@pytest.mark.parametrize("p", [1, 0, -3])
@pytest.mark.parametrize("lift", [
    lambda p: lift_sparse(-3, 1, 1, 1, 2, 3, p, 5),
    lambda p: lift_cubic(-3, 1, 1, 1, 0, p, 5),
    lambda p: lift_quadratic(-3, 1, 1, 0, p, 5),
    lambda p: newton_lift([-3, 1, 1], 0, p, 5),
    lambda p: lift_simple([-3, 1, 1], 0, p, 5),
    lambda p: lift_general([-3, 1, 1], 0, p, 5),
], ids=["lift_sparse", "lift_cubic", "lift_quadratic", "newton_lift", "lift_simple",
        "lift_general"])
def test_closed_forms_and_newton_refuse_p_below_2(lift, p):
    # the refusal comes before any arithmetic mod p, which divides by zero
    # at p = 0 and certifies nothing at p = 1 or p = -3
    with pytest.raises(DomainError, match="not prime"):
        lift(p)


@pytest.mark.parametrize("N", [0, -1])
@pytest.mark.parametrize("lift", [
    lambda N: lift_simple([-3, 1, 1], 0, 3, N),
    lambda N: lift_sparse(-3, 1, 1, 1, 2, 3, 3, N),
    lambda N: lift_cubic(-3, 1, 1, 1, 0, 3, N),
    lambda N: lift_quadratic(-3, 1, 1, 0, 3, N),
    lambda N: newton_lift([-3, 1, 1], 0, 3, N),
], ids=["lift_simple", "lift_sparse", "lift_cubic", "lift_quadratic", "newton_lift"])
def test_simple_seed_lifts_refuse_precision_below_1(lift, N):
    # one refusal for every simple-seed lift, before p**N is formed: p**-1
    # is a float, which pow() refuses as a modulus
    with pytest.raises(ValueError, match="precision must be >= 1"):
        lift(N)


@pytest.mark.parametrize("N", [0, -1])
def test_lift_all_refuses_precision_below_1(N):
    # x^2 - 3 has no root over the class 0 mod 3: the empty list is no answer
    # to a precision that names no p-adic ball
    with pytest.raises(ValueError, match="precision must be >= 1"):
        lift_all([-3, 0, 1], 0, 3, N)


@pytest.mark.parametrize("N", [0, -1])
def test_lift_general_refuses_precision_below_1_before_any_series(monkeypatch, N):
    # the refusal comes before the Taylor shift and the series sum, not from
    # the certificate of a root already summed
    def refuse(*args):
        raise AssertionError("a root series summed for a refused precision")

    monkeypatch.setattr(hensel, "formal_root_numerators", refuse)
    with pytest.raises(ValueError, match="precision must be >= 1"):
        lift_general([-3, 1, 1], 0, 3, N, nu=1, kappa=0)


@settings(max_examples=200)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(-30, 30), min_size=1, max_size=5),
       st.integers(-50, 50), st.integers(1, 12))
def test_lift_simple_and_newton_refuse_a_bad_seed_alike(p, f, r0, N):
    # seeds that are not roots mod p, or not simple ones, meet one check
    if polys.evaluate(f, r0) % p == 0 and polys.evaluate(polys.derivative(f), r0) % p:
        f = polys.mul(f, [-r0, 1])  # make r0 a double root
    with pytest.raises(DomainError) as series_refusal:
        lift_simple(f, r0, p, N)
    with pytest.raises(DomainError) as newton_refusal:
        newton_lift(f, r0, p, N)
    assert type(series_refusal.value) is type(newton_refusal.value)
    assert str(series_refusal.value) == str(newton_refusal.value)


def test_lift_all_complete_against_enumeration():
    # for simple seed classes, the congruence f = 0 mod p^6 has exactly one
    # solution in the class, and lift_all must return it
    rng = random.Random(107)
    checked = 0
    while checked < 20:
        p = rng.choice([3, 5])
        f = [rng.randint(-9, 9) for _ in range(4)]
        if polys.degree(f) < 1:
            continue
        modulus = p ** 6
        brute = [x for x in range(modulus) if polys.evaluate(f, x) % modulus == 0]
        for r0 in range(p):
            if polys.evaluate(f, r0) % p != 0:
                continue
            if polys.evaluate(polys.derivative(f), r0) % p == 0:
                continue
            lifted = lift_all(f, r0, p, 6)
            in_class = [x for x in brute if x % p == r0]
            assert [rep.root.residue for rep in lifted] == in_class
            checked += 1


def test_lift_all_lists_each_root_once(capsys):
    # (x - 5)(x - 32): vp(5 - 32) = 3, so at N = 5 the classes 86, 113, ...
    # satisfy f = 0 mod 3^5 without being roots mod 3^5; each lies in the
    # Newton ball of 5 or of 32 and adds no root of its own
    f = [160, -37, 1]
    assert [rep.root.residue for rep in lift_all(f, 2, 3, 5)] == [5, 32]
    assert main(["lift", "--poly", "160,-37,1", "--prime", "3", "--precision", "5",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["residue"] for r in payload["roots"]] == ["5", "32"]


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("v", [1, 2, 3])
def test_lift_all_lifts_once_per_newton_ball(p, v, monkeypatch):
    # planted close pair a, b with vp(a - b) = v, and a root c in another class
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return lift_general(*args, **kwargs)

    monkeypatch.setattr(hensel, "lift_general", counting)
    rng = random.Random(1000 * p + v)
    for _ in range(6):
        a = rng.randint(-50, 50)
        b = a + p ** v * rng.choice([u for u in range(1, 3 * p) if u % p])
        c = a + rng.randint(1, p - 1)
        f = polys.mul(polys.mul([-a, 1], [-b, 1]), [-c, 1])
        for N in (v + 1, 2 * v + 3, 12):
            calls.clear()
            reports = lift_all(f, a, p, N)
            assert 1 <= len(calls) <= len(reports)
            # c lies in another class mod p, so the roots over a are a and b
            assert [rep.root.residue for rep in reports] == sorted({a % p ** N, b % p ** N})


def test_lift_all_returns_the_root_of_each_newton_ball():
    # at depth 7 the ball (3, 125) of the root 750 is first met at 125,
    # which is a root mod 5^7 but agrees with 750 only mod 5^4
    f = [0, -750, 1]
    assert [rep.root.residue for rep in lift_all(f, 0, 5, 7)] == [0, 750]
    rep = lift_general(f, 125, 5, 7)
    assert rep.root.residue == 750 and rep.terms_used > 0
    # vp(f(625)) = 7 > 2 kappa = 6 but N = 5 <= 2 kappa: summed with nu = 7
    assert lift_general([0, -125, 1], 625, 5, 5).root.residue == 0
    # seeds that already equal the root mod p^N are still returned as they are
    assert lift_general(f, 750 + 5 ** 9, 5, 7).terms_used == 0


def test_lift_all_separates_roots_that_agree_to_twenty_digits(evaluation_budget):
    # x^2 - 3^40 is squarefree; its roots +-3^20 share their first 20 digits
    evaluation_budget(500)
    reports = lift_all([-3 ** 40, 0, 1], 0, 3, 50)
    assert [rep.root.residue for rep in reports] == [3 ** 20, 3 ** 50 - 3 ** 20]


def test_lift_all_splits_a_child_node_at_a_large_prime(evaluation_budget):
    # (x - 1)(x - 1 - p): the double root 1 mod p is the start node (1, 1),
    # whose digits come from roots mod p, not from all p residues
    p = 1000003
    evaluation_budget(300)
    reports = lift_all(polys.mul([-1, 1], [-1 - p, 1]), 1, p, 5)
    assert [rep.root.residue for rep in reports] == [1, 1 + p]


def test_lift_all_lifts_each_ball_without_refining_it(evaluation_budget):
    # vp(g'(-125)) = 4 for g = (x+125)(x-6735)(3x^2+3x+1): digit-by-digit
    # refinement keeps about 7^4 classes alive per depth up to depth 9
    f = polys.mul(polys.mul([125, 1], [-6735, 1]), [1, 3, 3])
    evaluation_budget(300)
    reports = lift_all(f, 1, 7, 7)
    assert [(rep.root.residue, rep.terms_used) for rep in reports] == [
        (6735, 0), (27560, 2), (823418, 1)]


def test_a_linear_lift_builds_no_bell_table(monkeypatch):
    # x - 3 has no c2, c3, ...: X_n = 0 for n >= 1, so the 14283 terms need
    # no table past row 0 and no running power past term 0
    class Guarded(series.BellTable):
        def __init__(self, xs, n_max):
            assert any(xs) or n_max <= 0, f"{n_max} rows on all-zero data"
            super().__init__(xs, n_max)

    monkeypatch.setattr(series, "BellTable", Guarded)
    [rep] = lift_all([-3, 1], 1, 2, 14284)
    assert (rep.root.residue, rep.terms_used) == (3, 14283)


@st.composite
def planted_roots(draw):
    """(p, N, roots with repeats, f = lc * prod (x - a)): close pairs
    a' = a + p^e u, multiplicities up to 3, lc possibly divisible by p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    roots = []
    for a in draw(st.lists(st.integers(-40, 40), min_size=1, max_size=3)):
        roots += [a] * draw(st.integers(1, 3))
        if draw(st.booleans()):
            b = a + p ** draw(st.integers(1, 4)) * draw(st.integers(1, 2 * p))
            roots += [b] * draw(st.integers(1, 3))
    f = [draw(st.sampled_from([1, -1, 2, p, -3 * p]))]
    for a in roots:
        f = polys.mul(f, [-a, 1])
    return p, draw(st.integers(1, 8)), roots, f


@settings(max_examples=80)
@given(planted_roots())
def test_lift_all_returns_the_planted_roots(case):
    p, N, roots, f = case
    for r0 in range(p):
        if polys.evaluate(f, r0) % p:
            continue
        reports = lift_all(f, r0, p, N)
        assert [rep.root.residue for rep in reports] == sorted(
            {a % p ** N for a in roots if a % p == r0})
        for rep in reports:
            assert rep.residual_valuation == hensel.residual_valuation(f, rep.root.residue, p)
            assert rep.residual_valuation >= N


@settings(max_examples=80)
@given(planted_roots())
def test_newton_balls_yield_each_root_with_its_newton_ball(case):
    # (r mod p^(kappa+1), kappa = vp(g'(r))) per root, at every p: from each
    # seed class (r0, 1), from the whole tree (0, 0), and from the start
    # (0, ell) of the factor scan without digit 0
    p, _, roots, f = case
    g = polys.squarefree(f)[1]
    want = {}
    for r in set(roots):
        kappa = vp(polys.evaluate(polys.derivative(g), r), p)
        want[r] = (r % p ** (kappa + 1), kappa)
    got = [ball for r0 in range(p) for ball in hensel._newton_balls(g, p, r0, 1)]
    assert sorted(got) == sorted(want.values())
    assert sorted(hensel._newton_balls(g, p, 0, 0)) == sorted(want.values())
    for ell in (1, 2):
        got = hensel._newton_balls(g, p, 0, ell, {0})
        assert sorted(got) == sorted(b for r, b in want.items() if vp(r, p) == ell)


def test_p2_policy():
    # nu - 2*kappa >= 2: the result squares to 17
    rep = lift_general([-17, 0, 1], 1, 2, 20)
    assert (rep.root.residue ** 2 - 17) % 2 ** 20 == 0
    # margin 1 lifts too: the terms of the series have vp >= (n+1) vp(c0) at p = 2
    rep = lift_general([2, 1, 1], 0, 2, 10)
    assert rep.root == newton_lift([2, 1, 1], 0, 2, 10)
    assert rep.residual_valuation >= 10


# ---------------------------------------------------------------------------
# Teichmuller
# ---------------------------------------------------------------------------

def test_teichmuller_fixed_points():
    assert teichmuller(1, 7, 10).residue == 1
    assert teichmuller(6, 7, 10).residue == 7 ** 10 - 1
    assert teichmuller(2, 5, 2).residue == 7   # 2^5 = 32 = 7 mod 25, 7^5 = 7 mod 25


def test_teichmuller_oracle_agreement():
    for p in (3, 5, 7, 11):
        for q in range(1, p):
            assert teichmuller(q, p, 12) == teichmuller_oracle(q, p, 12)


def test_teichmuller_properties():
    p, N = 7, 10
    modulus = p ** N
    lifts = {q: teichmuller(q, p, N).residue for q in range(1, p)}
    assert len(set(lifts.values())) == p - 1
    for q, xi in lifts.items():
        assert xi % p == q
        assert pow(xi, p - 1, modulus) == 1
    for q1 in range(1, p):
        for q2 in range(1, p):
            expect = lifts[q1 * q2 % p]
            assert lifts[q1] * lifts[q2] % modulus == expect


def test_teichmuller_larger_prime():
    for q in (2, 11, 30):
        assert teichmuller(q, 31, 12) == teichmuller_oracle(q, 31, 12)


def test_teichmuller_out_of_range():
    with pytest.raises(OutOfRange):
        teichmuller(0, 7, 5)
    with pytest.raises(OutOfRange):
        teichmuller(7, 7, 5)
    with pytest.raises(OutOfRange):
        teichmuller(1, 5, 0)
    # at p = 2 the one residue is 1, and its lift is 1
    for N in range(1, 21):
        xi = teichmuller(1, 2, N)
        assert xi == teichmuller_oracle(1, 2, N) and xi.residue == 1


def test_teichmuller_oracle_out_of_range():
    # the oracle refuses what the engine refuses, with the same error
    for q, p, N in ((0, 7, 5), (7, 7, 5), (1, 5, 0), (3, 7, -1)):
        with pytest.raises(OutOfRange):
            teichmuller_oracle(q, p, N)


def test_cubic_refusals():
    # at p = 2, 2 + x + x^2 + x^3 lifts from its simple root 0
    assert lift_cubic(2, 1, 1, 1, 0, 2, 5).root == newton_lift([2, 1, 1, 1], 0, 2, 5)
    with pytest.raises(NotARootModP):
        lift_cubic(1, 1, 1, 1, 1, 7, 5)    # f(1) = 4 mod 7
    with pytest.raises(DerivativeNotUnit):
        lift_cubic(0, 0, 1, 0, 0, 5, 5)    # x^2 at its double root 0
