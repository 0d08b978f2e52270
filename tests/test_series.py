import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from padiclift.series import (CompositionNeedsZeroConstant, DegenerateExponent,
                              InversionProblem,
                              LinearCoefficientZero, NotInvertible, Series,
                              apply_poly_with_indeterminate_constant,
                              formal_root_brackets, formal_root_brackets_alt,
                              formal_root_series, formal_root_terms,
                              lagrange_invert, series_from_alphas,
                              trinomial_root_terms)


def rebuild_inverse(betas, order):
    cs = [Fraction(0), Fraction(1)]
    cs += [b / math.factorial(n) for n, b in enumerate(betas, start=1)]
    return Series(cs, order)


# ---------------------------------------------------------------------------
# ring operations
# ---------------------------------------------------------------------------

def test_mul():
    f = Series([1, 1], 2)
    g = Series([1, -1], 2)
    assert (f * g) == Series([1, 0, -1])
    assert (f * Series.zero(2)).is_zero()


def test_construction_refusals():
    with pytest.raises(ValueError, match="order must be >= 0"):
        Series([1], -1)
    with pytest.raises(ValueError, match="empty coefficient list and no order"):
        Series([])
    with pytest.raises(ValueError, match="non-integer coefficient"):
        Series([Fraction(1, 2)]).int_coeffs


def test_compose_identity():
    f = Series([3, 1, 4, 1, 5], 4)
    assert f.compose(Series.x(4)) == f
    with pytest.raises(CompositionNeedsZeroConstant):
        f.compose(Series([1, 1], 4))


def compose_by_powers(f, g):
    """The reference: sum_k f_k g^k, the powers of g accumulated."""
    M = min(f.order, g.order)
    out, gk, g = Series.zero(M), Series.one(M), g.truncate(M)
    for k, a in enumerate(f.coeffs[: M + 1]):
        if a:
            out = out + gk * a
        if k < M:
            gk = gk * g
    return out


def apply_by_powers(a, root):
    """The reference: t + sum_j a_j root^j, the powers of root accumulated."""
    out, xk = Series.x(root.order), Series.one(root.order)
    for j in range(1, len(a)):
        xk = xk * root
        if a[j]:
            out = out + xk * Fraction(a[j])
    return out


coefficients = st.one_of(st.integers(-99, 99), st.fractions(-99, 99, max_denominator=12))


def series(zero_constant=False):
    body = st.lists(coefficients, min_size=1, max_size=13)
    return body.map(lambda cs: Series([0, *cs[1:]] if zero_constant else cs))


@given(series(), series(zero_constant=True), st.lists(coefficients, max_size=13))
def test_horner_composition_matches_the_power_sums(f, g, a):
    assert f.compose(g) == compose_by_powers(f, g)
    assert apply_poly_with_indeterminate_constant(a, g) == apply_by_powers(a, g)


def test_reciprocal():
    geo = Series([1, -1], 6).reciprocal()
    assert geo == Series([1] * 7)
    assert Series([1], 4).reciprocal() == Series([1], 4)
    r = Series([3, 1], 4).reciprocal()
    assert r == Series([Fraction((-1) ** k, 3 ** (k + 1)) for k in range(5)])
    with pytest.raises(NotInvertible):
        Series([0, 1], 3).reciprocal()


def test_mul_reciprocal_roundtrip():
    rng = random.Random(31)
    for _ in range(20):
        f = Series([rng.randint(1, 5)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                          for _ in range(7)])
        assert f * f.reciprocal() == Series.one(7)


# ---------------------------------------------------------------------------
# Lagrange inversion
# ---------------------------------------------------------------------------

def test_lagrange_zero():
    assert lagrange_invert([0, 0, 0, 0]) == [0, 0, 0, 0]


def newton_series_inverse(phi, order):
    # independent oracle: solve phi(x) = u for x as a series in u by iteration
    x = Series.x(order)
    u = Series.x(order)
    for _ in range(order + 1):
        # x <- x - (phi(x) - u) since phi'(0) = 1 (contraction on valuations)
        x = x - (phi.compose(x) - u)
    return x


def test_lagrange_catalan():
    betas = lagrange_invert([1, 0, 0, 0, 0, 0])
    for n, b in enumerate(betas, start=1):
        assert b == (-1) ** n * Fraction(math.factorial(2 * n), math.factorial(n + 1))
    phi = series_from_alphas([1, 0, 0, 0, 0, 0], order=7)
    inv = rebuild_inverse(betas, 7)
    assert inv == newton_series_inverse(phi, 7)


def test_lagrange_roundtrip_random():
    rng = random.Random(37)
    for _ in range(40):
        alphas = [Fraction(rng.randint(-5, 5)) for _ in range(6)]
        betas = lagrange_invert(alphas)
        phi = series_from_alphas(alphas, order=7)
        inv = rebuild_inverse(betas, 7)
        assert inv.compose(phi) == Series.x(7)
        assert phi.compose(inv) == Series.x(7)


def test_inversion_problem_bundle():
    prob = InversionProblem([1, 0, 0, 0])
    assert prob.betas == tuple(lagrange_invert([1, 0, 0, 0]))
    assert prob.roundtrip_is_identity()
    assert prob.phi_inverse(5)[2] == -1   # -Cat_1 u^2 term


# ---------------------------------------------------------------------------
# formal roots
# ---------------------------------------------------------------------------

def test_linear_root():
    terms = formal_root_terms([6, 2], 5)
    assert terms[0][1] == Fraction(-3)
    assert all(t[0] == 0 for t in terms[1:])
    with pytest.raises(LinearCoefficientZero):
        formal_root_terms([1, 0, 1], 3)


def test_bracket_forms_agree():
    rng = random.Random(41)
    for _ in range(25):
        deg = rng.randint(1, 5)
        a = [Fraction(rng.randint(-5, 5))] + [rng.choice([-1, 1])] \
            + [Fraction(rng.randint(-5, 5)) for _ in range(deg - 1)]
        assert formal_root_brackets(a, 8) == formal_root_brackets_alt(a, 8)


def test_quadratic_brackets_are_catalan():
    # bracket_n = -Cat_n (a2/a1)^n for quadratics
    rng = random.Random(43)
    for _ in range(10):
        a1 = rng.choice([-1, 1, 2, 3])
        a2 = Fraction(rng.randint(-5, 5))
        br = formal_root_brackets([0, a1, a2], 6)
        for n, b in enumerate(br):
            cat = Fraction(math.comb(2 * n, n), n + 1)
            assert b == -cat * (Fraction(a2) / a1) ** n


def test_annihilation():
    rng = random.Random(47)
    for _ in range(30):
        deg = rng.randint(1, 5)
        a = [0] + [rng.choice([-1, 1])] + [Fraction(rng.randint(-5, 5))
                                           for _ in range(deg - 1)]
        root = formal_root_series(a, 8)
        resid = apply_poly_with_indeterminate_constant(a, root)
        assert all(c == 0 for c in resid.coeffs[:9]), (a, resid.coeffs)


def test_trinomial_eisenstein():
    assert trinomial_root_terms(5, 1, 3) == [
        (1, Fraction(1)), (5, Fraction(-1)), (9, Fraction(5)), (13, Fraction(-35))]


def test_trinomial_lambert_cubic():
    assert trinomial_root_terms(3, 1, 3) == [
        (1, Fraction(1)), (3, Fraction(-1)), (5, Fraction(3)), (7, Fraction(-12))]


def test_trinomial_catalan():
    terms = trinomial_root_terms(2, 1, 6)
    for k, (e, c) in enumerate(terms):
        assert e == k + 1
        assert c == (-1) ** k * Fraction(math.comb(2 * k, k), k + 1)


def test_trinomial_concrete_q():
    assert trinomial_root_terms(4, 2, 4, q=0) == [Fraction(0)] * 5
    vals = trinomial_root_terms(3, 2, 2, q=Fraction(1, 2))
    pairs = trinomial_root_terms(3, 2, 2)
    assert vals == [c * Fraction(1, 2) ** e for e, c in pairs]
    with pytest.raises(DegenerateExponent):
        trinomial_root_terms(1, 1, 3)
    with pytest.raises(LinearCoefficientZero):
        trinomial_root_terms(5, 0, 3)


def test_trinomial_matches_formal_root():
    # regroup x^m + p x = q as f = -q + p x + x^m with q an indeterminate
    for m, pc in ((2, 3), (3, 1), (5, 2)):
        a = [0] * (m + 1)
        a[1] = pc
        a[m] = 1
        n_terms = (m - 1) * 5 + 1
        root = formal_root_series(a, n_terms)   # series in t = a0
        # t = -q: negate odd-degree coefficients to read off the q-series
        got = {}
        for i, c in enumerate(root.coeffs):
            if c:
                got[i] = c * (-1) ** i
        expect = dict(trinomial_root_terms(m, pc, 5))
        for e, c in expect.items():
            if e <= root.order:
                assert got.get(e, Fraction(0)) == c, (m, pc, e)
        extra = set(got) - set(expect)
        assert not extra, (m, pc, extra)


def test_formal_root_terms_scaling():
    a = [Fraction(5), Fraction(2), Fraction(1)]
    terms = formal_root_terms(a, 4)
    brackets = formal_root_brackets(a, 4)
    for n, (br, val) in enumerate(terms):
        assert br == brackets[n]
        assert val == br * Fraction(5, 2) ** (n + 1)
    assert formal_root_brackets_alt(a, 4) == brackets
