"""Property tests of the integer kernels: the Bell table, the sums that
read it, the modular series sums, and the Series ring operations.

The references below are the exact-Fraction forms: the binomial
recurrence, the Lagrange sum, the regrouped bracket sum, the root-series
residue with a Fraction per bracket, the sparse double sum, the
Teichmuller triple sum, the Series product, reciprocal and evaluation,
and the evaluators of a factorization input, with every
partial sum a reduced rational and no cleared denominator.  Unlike
``bell_oracle`` the recurrence is polynomial, so it covers n up to 40.
The t stream, the reciprocal of Ahat, is checked against the
per-coefficient one, t_n = T_n(p^ell) from one closed form per n.  The one polynomial product
``polys.mul`` is checked against the double loop that skips zero
coefficients, ``bhat_coeffs`` against bhat_n summed term by term, and
``polys.roots_mod_p`` against the scan of all p residues.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padiclift
from padiclift import polys
from padiclift.bell import BellTable
from padiclift.bigmath import binom, falling, vp
from padiclift.factorize import (DivisibilityViolation, FactorizationProblem, RootDigits,
                                 SeriesInput, a_coeffs, bhat_coeffs, check_product, t_coeffs,
                                 tn_series)
from padiclift.hensel import (_ilog, _root_series_residue, _sparse_sum, _term_count,
                              lift_general, lift_simple, newton_lift,
                              teichmuller, teichmuller_oracle)
from padiclift.series import (InversionProblem, Series, formal_root_brackets,
                              formal_root_brackets_alt, formal_root_terms,
                              lagrange_invert)


def fraction_bell_rows(xs, n_max):
    """B(n, k) for 0 <= k <= n <= n_max by the recurrence, in Fraction."""
    xs = tuple(Fraction(x) for x in xs)
    rows = [[Fraction(0)] * (n + 1) for n in range(n_max + 1)]
    rows[0][0] = Fraction(1)
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, min(n - k + 1, len(xs)) + 1):
                if xs[j - 1]:
                    acc += binom(n - 1, j - 1) * xs[j - 1] * rows[n - j][k - 1]
            rows[n][k] = acc
    return rows


def fraction_lagrange_invert(alphas):
    """beta_n = sum_j (-1)^j (n+j)!/(n+1)! B(n, j), summed entry by entry."""
    rows = fraction_bell_rows(alphas, len(alphas))
    return [sum((-1) ** j * Fraction(math.factorial(n + j), math.factorial(n + 1)) * rows[n][j]
                for j in range(1, n + 1))
            for n in range(1, len(alphas) + 1)]


def regrouped_brackets(a, n_max):
    """bracket_n = sum_k (-1)^(n-k+1) C(2n+1, n-k) B(n+k, k)(1! a1, 2! a2, ...)
    / (a1^k (n+1)!), on the Fraction recurrence's B."""
    a = [Fraction(c) for c in a]
    rows = fraction_bell_rows([math.factorial(j) * a[j] for j in range(1, len(a))], 2 * n_max)
    return [sum((-1) ** (n - k + 1) * binom(2 * n + 1, n - k) * rows[n + k][k] / a[1] ** k
                for k in range(n + 1)) / math.factorial(n + 1)
            for n in range(n_max + 1)]


def triple_sum_brackets(p, n_max):
    """The Teichmuller brackets of the paper's triple sum, term by term:

    bracket'_n = sum_k sum_j (-1)^(n-j) / ((p-1)^k (n+1)! k!)
                 C(2n+1, n-k) C(k, j) (j(p-1))_(n+k),

    with xi = q - (c0/c1) sum_n bracket'_n (c0/(q c1))^n, c0 = q^(p-1) - 1
    and c1 = (p-1) q^(p-2).  They do not depend on q."""
    return [sum(Fraction((-1) ** (n - j) * binom(2 * n + 1, n - k) * binom(k, j)
                         * falling(j * (p - 1), n + k),
                         (p - 1) ** k * math.factorial(n + 1) * math.factorial(k))
                for k in range(n + 1) for j in range(k + 1))
            for n in range(n_max + 1)]


def reduce_mod(x, modulus):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def fraction_root_series_residue(cs, p, N):
    """The root series mod p**N with a Fraction per bracket: each bracket is
    reduced mod p**N and multiplied by a running power of c0/c1 mod p**N."""
    c0 = cs[0]
    if c0 == 0:
        return 0, 0
    count = _term_count(vp(c0, p), p, N)
    modulus = p ** N
    ratio = reduce_mod(Fraction(c0, cs[1]), modulus)
    acc, power = 0, 1
    for br in formal_root_brackets(cs, count - 1):
        power = power * ratio % modulus
        if br:
            acc += reduce_mod(br, modulus) * power
    return acc % modulus, count


def fraction_sparse_sum(a0, a1, al, am, l, m, p, N):
    """The sparse double sum with a Fraction per inner term, reduced per term."""
    if a0 == 0:
        return 0, 0
    v0 = vp(a0, p)
    modulus = p ** N
    acc = 0
    front = -Fraction(a0, a1)
    inner_base = Fraction(a0) ** (m - l) * am / Fraction(a1) ** (m - l)
    outer_base = Fraction(a0) ** (l - 1) / Fraction(a1) ** l
    k = 0
    while True:
        bracket = Fraction(0)
        for j in (0,) if al == 0 else (k,) if am == 0 else range(k + 1):
            e = m * (k - j) + l * j
            bracket += (Fraction((-1) ** e * binom(k, j) * binom(e, k), e - k + 1)
                        * Fraction(al) ** j * inner_base ** (k - j))
        term = front * bracket * outer_base ** k
        if term:
            acc = (acc + reduce_mod(term, modulus)) % modulus
        k += 1
        if (k + 1) * v0 - _ilog(m * k + 1, p) >= N:
            return acc, k


def fraction_mul(f, g):
    """Coefficients of the product of two coefficient lists, truncated to
    the shorter one, summed term by term in Fraction."""
    M = min(len(f), len(g)) - 1
    out = [Fraction(0)] * (M + 1)
    for i, a in enumerate(f[: M + 1]):
        if a == 0:
            continue
        for j in range(M + 1 - i):
            b = g[j]
            if b:
                out[i + j] += a * b
    return out


def fraction_reciprocal(f):
    """1/f to the same order, by the recurrence in Fraction; needs f[0] != 0."""
    out = [Fraction(0)] * len(f)
    out[0] = 1 / f[0]
    for n in range(1, len(f)):
        acc = Fraction(0)
        for i in range(1, n + 1):
            acc += f[i] * out[n - i]
        out[n] = -acc / f[0]
    return out


def fraction_evaluate(f, x):
    """Horner's rule in Fraction."""
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def per_coefficient_t(e, M):
    """t_n = T_n(p^ell), n = 1..M, one closed form T_n truncated at x^n per n:
    O(M^3) work in the Lagrange sums."""
    P = e.p ** e.ell
    return [int(tn_series(e, n, n).evaluate(P)) for n in range(1, M + 1)]


def fraction_eval(si, c):
    """f(c) by Horner's rule in Fraction, plus the closed geometric tail."""
    c = Fraction(c)
    acc = Fraction(0)
    for a in reversed(si.head):
        acc = acc * c + a
    if si.tail_ratio is not None:
        h, r, H = si.head[-1], si.tail_ratio, len(si.head)
        acc += h * r * c ** H / (1 - r * c)
    return acc


def fraction_eval_derivative(si, c):
    """f'(c) the same way, with the quotient rule on the tail."""
    c = Fraction(c)
    acc = Fraction(0)
    for j in range(len(si.head) - 1, 0, -1):
        acc = acc * c + j * si.head[j]
    if si.tail_ratio is not None:
        h, r, H = si.head[-1], si.tail_ratio, len(si.head)
        acc += h * r * (H * c ** (H - 1) * (1 - r * c) + r * c ** H) / (1 - r * c) ** 2
    return acc


small_ints = st.integers(-9, 9)
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
# integer sequences (D = 1) and rational ones (D > 1 most of the time);
# both draw zeros and negatives
sequences = st.one_of(st.lists(small_ints, max_size=10),
                      st.lists(st.one_of(small_ints, rationals), max_size=10))
# Series coefficients the same way; independent lengths give mismatched orders
coeff_lists = st.one_of(st.lists(small_ints, min_size=1, max_size=14),
                        st.lists(st.one_of(small_ints, rationals), min_size=1, max_size=14))
# a nonzero constant term, often not a unit: 1/f has growing denominators
invertible = st.tuples(st.one_of(small_ints, rationals).filter(bool),
                       st.lists(st.one_of(small_ints, rationals), max_size=12))


def all_fractions(s):
    return all(type(c) is Fraction for c in s.coeffs)


def test_bell_module_is_not_shadowed():
    assert padiclift.bell.BellTable is padiclift.BellTable


@settings(max_examples=60)
@given(sequences, st.integers(0, 40))
def test_table_matches_fraction_recurrence(xs, n_max):
    table = BellTable(xs, n_max)
    D = math.lcm(*(Fraction(x).denominator for x in xs))
    assert table.denominator == D
    for n, row in enumerate(fraction_bell_rows(xs, n_max)):
        for k, b in enumerate(row):
            assert table.value(n, k) == b
            assert table.int_value(n, k) == b * D ** k


@settings(max_examples=60)
@given(sequences, st.integers(0, 40))
def test_ordinary_entries_match_the_fraction_recurrence(xs, n_max):
    # the stored entry is E^k [x^n] A(x)^k = E^k k!/n! B(n, k), A = sum x_j/j! x^j
    table = BellTable(xs, n_max)
    E = math.lcm(*(Fraction(x, math.factorial(j)).denominator
                   for j, x in enumerate(xs, start=1)))
    assert table.ordinary_denominator == E
    for n, row in enumerate(fraction_bell_rows(xs, n_max)):
        assert len(table.ordinary_row(n)) == n + 1
        for k, b in enumerate(row):
            assert table.ordinary(n, k) == b * math.factorial(k) / math.factorial(n) * E ** k


def test_ordinary_denominator_on_integer_input():
    # a = (1, 1/2, 1/6): E = 6 although every x_j is an integer, and
    # 36 [x^4] (x + x^2/2 + x^3/6)^2 = 36 (2/6 + 1/4) = 21 = 36 * 2!/4! * B(4, 2)
    table = BellTable((1, 1, 1), 6)
    assert (table.denominator, table.ordinary_denominator) == (1, 6)
    assert table.ordinary(4, 2) == 21 and table.value(4, 2) == 7 == table.int_value(4, 2)
    assert table.ordinary(2, 3) == 0 and table.ordinary(-1, 0) == 0
    with pytest.raises(IndexError):
        table.ordinary(7, 1)


def test_long_sequence_at_n_40():
    xs = [(-1) ** j * Fraction(j % 5, 1 + j % 3) for j in range(40)]
    table = BellTable(xs, 40)
    assert table.denominator == 6
    for n, row in enumerate(fraction_bell_rows(xs, 40)):
        assert [table.value(n, k) for k in range(n + 1)] == row


@settings(max_examples=60)
@given(st.lists(st.one_of(small_ints, rationals), min_size=2, max_size=8),
       st.integers(0, 12))
def test_brackets_match_the_alternative_form(a, n_max):
    if a[1] == 0:
        a[1] = Fraction(-3, 2)
    brackets = formal_root_brackets(a, n_max)
    assert brackets == formal_root_brackets_alt(a, n_max)
    assert brackets == regrouped_brackets(a, n_max)


@settings(max_examples=40)
@given(st.lists(st.one_of(small_ints, rationals), max_size=6))
def test_lagrange_inversion_on_rational_alphas(alphas):
    assert lagrange_invert(alphas) == fraction_lagrange_invert(alphas)
    assert InversionProblem(alphas).roundtrip_is_identity()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_teichmuller_every_residue_at_n_40(p):
    for q in range(1, p):
        assert teichmuller(q, p, 40) == teichmuller_oracle(q, p, 40)


@settings(max_examples=80)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(1, 12), st.integers(1, 40))
def test_teichmuller_matches_powering(p, q, N):
    q = 1 + (q - 1) % (p - 1)
    assert teichmuller(q, p, N) == teichmuller_oracle(q, p, N)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_triple_sum_is_the_root_series_of_x_p_minus_1(p):
    # bracket'_n = -q^n bracket_n of the Taylor data of x^(p-1) - 1 at q
    reference = triple_sum_brackets(p, 15)
    f = [-1] + [0] * (p - 2) + [1]
    for q in range(1, p):
        brackets = formal_root_brackets(polys.taylor_coeffs(f, q), 15)
        for n in range(16):
            assert reference[n] == -q ** n * brackets[n], (q, p, n)


@pytest.mark.parametrize("p", [1009, 10007, 1000003])
def test_teichmuller_at_large_primes(p):
    rng = random.Random(p)
    for q in (1, 2, p - 1, rng.randint(3, p - 2), rng.randint(3, p - 2)):
        for N in range(1, 7):
            assert teichmuller(q, p, N) == teichmuller_oracle(q, p, N), (q, N)


def from_taylor(cs, r0):
    """Integer coefficients of sum_j cs[j] (x - r0)^j."""
    f = [0]
    for c in reversed(cs):
        f = polys.add(polys.mul(f, [-r0, 1]), [c])
    return f


primes = st.sampled_from([3, 5, 7])
units = st.integers(1, 40)


@settings(max_examples=40)
@given(primes, st.integers(0, 6), units, units, st.lists(small_ints, max_size=4),
       st.integers(1, 30))
def test_lift_simple_matches_newton(p, r0, u0, u1, rest, N):
    # f(r0 + t) = p u0 + u1' t + ..., u1' a unit
    r0 %= p
    u1 += u1 % p == 0
    f = from_taylor([p * u0, u1] + rest, r0)
    assert lift_simple(f, r0, p, N).root == newton_lift(f, r0, p, N)


@settings(max_examples=40)
@given(primes, st.integers(0, 50), st.integers(0, 2), st.integers(1, 3), units, units,
       st.lists(small_ints, max_size=3), st.integers(1, 20))
def test_lift_general_matches_newton_on_the_rescaled_polynomial(p, r0, kappa, margin,
                                                                u0, u1, rest, extra):
    # f(r0 + t) = p^nu u0 + p^kappa u1 t + ..., with nu = 2 kappa + margin
    u0 += u0 % p == 0
    u1 += u1 % p == 0
    nu = 2 * kappa + margin
    N = nu + extra
    cs = [p ** nu * u0, p ** kappa * u1] + rest
    f = from_taylor(cs, r0)
    # g(x) = p^(-2 kappa) f(r0 + p^kappa x) has the simple root over 0 mod p
    g = [c * p ** ((j - 2) * kappa) for j, c in enumerate(cs[2:], start=2)]
    g = [p ** (nu - 2 * kappa) * u0, u1] + g
    x = newton_lift(g, 0, p, N - kappa).residue
    assert lift_general(f, r0, p, N).root.residue == (r0 + p ** kappa * x) % p ** N


maybe_zero = st.one_of(st.just(0), st.integers(-9, 9))


@settings(max_examples=150)
@given(primes, st.integers(-30, 30), st.integers(-40, 40), maybe_zero, maybe_zero,
       st.integers(2, 5), st.integers(1, 3), st.integers(1, 30))
def test_sparse_sum_matches_fraction_reference(p, u0, a1, al, am, l, gap, N):
    a1 += a1 % p == 0
    args = (p * u0, a1, al, am, l, l + gap, p, N)
    assert _sparse_sum(*args) == fraction_sparse_sum(*args)


def test_sparse_weights_are_integers():
    # C(k,j) C(e,k) / (e-k+1), e = m(k-j) + l j: coefficients of the root of
    # a0 + x + al x^l + am x^m, so _sparse_sum divides them exactly
    for m in range(3, 10):
        for l in range(2, m):
            for k in range(61):
                for j in range(k + 1):
                    e = m * (k - j) + l * j
                    assert math.comb(k, j) * math.comb(e, k) % (e - k + 1) == 0, (l, m, k, j)


@settings(max_examples=60)
@given(primes, st.integers(1, 2), units, st.integers(-40, 40), st.lists(small_ints, max_size=4),
       st.integers(1, 30))
def test_root_series_residue_matches_term_by_term_reduction(p, v0, u0, c1, rest, N):
    c1 += c1 % p == 0
    cs = [p ** v0 * u0, c1] + rest
    modulus = p ** N
    count = _term_count(vp(cs[0], p), p, N)
    expected = sum(reduce_mod(t, modulus) for _, t in formal_root_terms(cs, count - 1)) % modulus
    assert _root_series_residue(cs, p, N) == (expected, count)


@settings(max_examples=30)
@given(st.sampled_from([(3, 82), (5, 26)]), st.integers(1, 2), units,
       st.integers(-40, 40), st.lists(small_ints, max_size=3), st.integers(0, 8))
def test_root_series_residue_divides_out_high_powers_of_p(p_count, v0, u0, c1, rest, extra):
    # count >= 82 at p = 3 and >= 26 at p = 5, so vp(n+1) reaches 4 and 2
    p, min_count = p_count
    c1 += c1 % p == 0
    u0 += u0 % p == 0
    N = next(N for N in range(1, 200) if _term_count(v0, p, N) >= min_count) + extra
    cs = [p ** v0 * u0, c1] + rest
    assert _root_series_residue(cs, p, N) == fraction_root_series_residue(cs, p, N)


@pytest.mark.parametrize("xs", [
    (3,),                                     # a lone x_1: one entry per row
    (1, 2, 0, 0),                             # trailing zeros: L = 2
    (0, 3, 1),                                # x_1 = 0: rows start late
    (2, 0, 0, 5, 0, -1),                      # interior zeros
    (Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7)),  # E > 1
    (0, 0),                                   # A = 0: only row 0 is nonzero
])
def test_banded_table_matches_fraction_recurrence(xs):
    table = BellTable(xs, 24)
    L = max((j for j, x in enumerate(xs, start=1) if x), default=1)
    for n, row in enumerate(fraction_bell_rows(xs, 24)):
        assert table.band_start(n) == -(-n // L)
        assert len(table.ordinary_row(n)) == n + 1
        assert [table.value(n, k) for k in range(n + 1)] == row
        assert not any(row[:table.band_start(n)])


@settings(max_examples=150)
@given(coeff_lists, coeff_lists)
def test_series_product_matches_fraction_convolution(f, g):
    prod = Series(f) * Series(g)
    assert list(prod.coeffs) == fraction_mul([Fraction(c) for c in f], [Fraction(c) for c in g])
    assert all_fractions(prod)


@settings(max_examples=100)
@given(invertible)
def test_series_reciprocal_matches_fraction_recurrence(f):
    f0, rest = f
    cs = [Fraction(c) for c in (f0, *rest)]
    recip = Series(cs).reciprocal()
    assert list(recip.coeffs) == fraction_reciprocal(cs)
    assert all_fractions(recip)
    assert recip == Series(fraction_reciprocal(cs))  # a positive least denominator


@settings(max_examples=100)
@given(st.sampled_from([1, -1]), st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12))
def test_unit_constant_reciprocal_builds_no_fraction(f0, rest):
    # 1/f0 = f0 for f0 = +-1: the integer recurrence, as t_coeffs uses it on Ahat
    def refuse(cls, *args, **kwargs):
        raise AssertionError("built a Fraction")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", refuse)
        got = Series([f0, *rest]).reciprocal().int_coeffs
    assert list(got) == fraction_reciprocal([Fraction(c) for c in (f0, *rest)])
    assert all(type(c) is int for c in got)


@settings(max_examples=60)
@given(invertible, st.integers(-4, 4))
def test_series_powers_match_fraction_products(f, e):
    f0, rest = f
    cs = [Fraction(c) for c in (f0, *rest)]
    base = fraction_reciprocal(cs) if e < 0 else cs
    expected = [Fraction(1)] + [Fraction(0)] * (len(cs) - 1)
    for _ in range(abs(e)):
        expected = fraction_mul(expected, base)
    power = Series(cs) ** e
    assert list(power.coeffs) == expected
    assert all_fractions(power)


def test_series_power_spends_no_idle_products(monkeypatch):
    # left-to-right binary powering from the base itself: E ** k costs
    # bit_length - 1 squarings and popcount - 1 multiplications by E
    mul, calls = Series.__mul__, []

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Series, "__mul__", counting)
    E = Series([1, 2, -3, 5], 6)
    counts = []
    for k in range(10):
        calls.clear()
        E ** k
        counts.append(len(calls))
    assert counts == [0, 0, 1, 2, 2, 3, 3, 4, 3, 4]


@settings(max_examples=100)
@given(coeff_lists, st.one_of(small_ints, rationals, st.integers(-10 ** 6, 10 ** 6)))
def test_series_evaluation_matches_fraction_horner(f, x):
    value = Series(f).evaluate(x)
    assert value == fraction_evaluate([Fraction(c) for c in f], x)
    assert type(value) is Fraction


@settings(max_examples=150)
@given(coeff_lists, coeff_lists, st.one_of(small_ints, rationals), st.integers(0, 14))
def test_series_ring_operations_match_fraction_arithmetic(f, g, s, k):
    # sums, negation, scalars, derivative and truncation on the stored
    # numerators over one denominator, against entry-by-entry Fraction work
    F, G = [Fraction(c) for c in f], [Fraction(c) for c in g]
    M = min(len(F), len(G)) - 1
    sf, sg = Series(f), Series(g)
    cases = [
        (sf + sg, [F[i] + G[i] for i in range(M + 1)]),
        (sf - sg, [F[i] - G[i] for i in range(M + 1)]),
        (-sf, [-c for c in F]),
        (sf * s, [c * s for c in F]),
        (s * sf, [c * s for c in F]),
        (sf + s, [F[0] + s] + F[1:]),
        (s - sf, [s - F[0]] + [-c for c in F[1:]]),
        (sf.derivative(), [i * c for i, c in enumerate(F)][1:] or [Fraction(0)]),
        (sf.truncate(k), (F + [Fraction(0)] * k)[: k + 1]),
    ]
    for got, want in cases:
        assert list(got.coeffs) == want and all_fractions(got)
        # one stored form per series: equal series built any way compare
        # and hash equal
        assert got == Series(want) and hash(got) == hash(Series(want))
    assert (sf * sg - sg * sf).is_zero() and (sf * sg - sg * sf) == Series.zero(M)


# ---------------------------------------------------------------------------
# factorization streams and evaluators
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(st.sampled_from([3, 5, 7, 11]), st.integers(1, 2), st.integers(0, 40), st.data())
def test_t_stream_matches_the_per_coefficient_closed_form(p, ell, M, data):
    blk = p ** ell
    digits = data.draw(st.lists(st.integers(0, blk - 1), min_size=M, max_size=M + 2))
    e = RootDigits(p, ell, tuple(digits))
    assert t_coeffs(a_coeffs(e, M), blk) == per_coefficient_t(e, M)


scan_primes = st.sampled_from([3, 5, 7, 11])
# points in pZ (every scan point is one) and rational points
eval_points = st.one_of(st.builds(lambda p, k: (p, p * k), scan_primes, st.integers(-60, 60)),
                        st.tuples(st.none(), st.one_of(rationals, small_ints)))


@settings(max_examples=200)
@given(st.lists(st.integers(-50, 50), max_size=8), st.one_of(st.none(), st.integers(-6, 6)),
       eval_points)
def test_input_evaluators_match_fraction_horner(head, ratio, point):
    # polynomial (ratio None) and geometric inputs; 1 - r c may vanish at a
    # rational point, and then both forms divide by zero
    si = SeriesInput(tuple(head), ratio if head else None)
    p, c = point
    for fast, ref in ((si.eval_exact, fraction_eval),
                      (si.eval_derivative_exact, fraction_eval_derivative)):
        try:
            want = ref(si, c)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                fast(c)
            continue
        got = fast(c)
        assert got == want and type(got) is Fraction
        if p is not None:
            # on p*Z the single denominator v^(H-1) (v - r u) = 1 - r c is a unit
            assert got.denominator % p != 0


# ---------------------------------------------------------------------------
# the one polynomial product, and bhat on it
# ---------------------------------------------------------------------------


def zero_skipping_mul(f, g):
    """All len(f) + len(g) - 1 coefficients of f * g, by the double loop
    that skips zero coefficients."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] += a * b
    return out


def bhat_term(prob, ell, t, n):
    """bhat_n = p^(w-2l) t_n + p^(m-l) g1 t_(n-1) + sum_j p^(l(j-2)) g_j t_(n-j),
    t read through t_at and p^(l(j-2)) raised afresh for every (n, j)."""
    p = prob.p

    def t_at(i):
        if i >= 1:
            return t[i - 1]
        return 1 if i in (0, -1) else 0

    acc = p ** (prob.w - 2 * ell) * t_at(n) + p ** (prob.m - ell) * prob.gammas[0] * t_at(n - 1)
    for j in range(2, min(n + 1, len(prob.gammas)) + 1):
        g = prob.gammas[j - 1]
        if g:
            acc += p ** (ell * (j - 2)) * g * t_at(n - j)
    return acc


def bhat_by_terms(prob, ell, t, M):
    """(bhat, b) from :func:`bhat_term`, with the divisibility asserted."""
    bhat, b = [], []
    for n in range(1, M + 1):
        acc, d = bhat_term(prob, ell, t, n), prob.p ** (ell * n)
        if acc % d != 0:
            raise DivisibilityViolation(f"p^(ell*{n}) = {d} does not divide bhat_{n} = {acc}")
        bhat.append(acc)
        b.append(acc // d)
    return bhat, b


# lengths 0-9 with zeros, negatives and big integers
poly_coeffs = st.lists(st.one_of(st.just(0), small_ints, st.integers(-10 ** 40, 10 ** 40)),
                       max_size=9)


@settings(max_examples=300)
@given(poly_coeffs, poly_coeffs, st.data())
def test_polys_mul_matches_the_zero_skipping_double_loop(f, g, data):
    full = zero_skipping_mul(f, g)
    assert polys.mul(f, g) == full
    n = data.draw(st.integers(0, len(f) + len(g) + 2))
    got = polys.mul(f, g, n)
    assert got == (full + [0] * n)[:n]  # zeros past the full product
    assert polys.mul(tuple(f), tuple(g), n) == got


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 2), st.integers(0, 12), st.booleans(),
       st.data())
def test_bhat_coeffs_match_the_per_term_sum(p, ell, M, planted, data):
    w = 2 * ell if planted else data.draw(st.integers(2 * ell, 2 * ell + 2))
    m = data.draw(st.integers(ell, ell + 2))
    gammas = data.draw(st.lists(st.one_of(st.just(0), small_ints, st.integers(-10 ** 30, 10 ** 30)),
                                min_size=1, max_size=M + 2))
    prob = FactorizationProblem(p, w, m, tuple(gammas))
    t = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=M, max_size=M))
    if planted:
        # w = 2 ell puts t_n into bhat_n with coefficient 1: step each t_n so
        # that p^(ell n) divides bhat_n, then perhaps break one of them
        P = p ** ell
        for n in range(1, M + 1):
            k, t[n - 1] = t[n - 1], 0
            t[n - 1] = k * P ** n - bhat_term(prob, ell, t, n)
        broken = data.draw(st.integers(0, M))
        if broken:
            t[broken - 1] += 1
    try:
        want = bhat_by_terms(prob, ell, t, M)
    except DivisibilityViolation as exc:
        with pytest.raises(DivisibilityViolation) as got:
            bhat_coeffs(prob, ell, t, M)
        assert str(got.value) == str(exc)
        return
    assert bhat_coeffs(prob, ell, t, M) == want


def test_series_products_check_product_and_bhat_run_on_polys_mul(monkeypatch):
    mul, calls = polys.mul, []

    def counting(f, g, n=None):
        calls.append(n)
        return mul(f, g, n)

    monkeypatch.setattr(polys, "mul", counting)
    assert Series([1, 2, 3]) * Series([4, 5]) == Series([4, 13])
    assert calls == [2]
    assert check_product([3, -1], [3, 1], [9, 0, -1], 2, 9).passed()
    assert calls == [2, 3]
    assert bhat_coeffs(FactorizationProblem(3, 2, 1, (1,)), 1, [2], 1) == ([3], [1])
    assert calls == [2, 3, 3]


PRIMES_TO_211 = [q for q in range(2, 212) if all(q % d for d in range(2, q))]
PRIMES_PAST_THE_SCAN = [503, 509, 997, 1009, 2003]  # roots_mod_p splits from p = 500 on


@settings(max_examples=300)
@given(st.one_of(st.sampled_from(PRIMES_TO_211), st.sampled_from(PRIMES_PAST_THE_SCAN)),
       st.data())
def test_roots_mod_p_match_the_scan_of_all_residues(p, data):
    # a cofactor (a constant when no root is planted) times planted roots,
    # some repeated, each moved by a multiple of p
    f = data.draw(st.lists(st.one_of(small_ints, st.integers(-10 ** 30, 10 ** 30)),
                           min_size=1, max_size=4))
    planted = data.draw(st.lists(st.integers(0, p - 1), max_size=5))
    for a in planted + planted[: data.draw(st.integers(0, len(planted)))]:
        f = polys.mul(f, [p * data.draw(small_ints) - a, 1])
    form = data.draw(st.sampled_from(["as drawn", "zero mod p", "leading coefficient p k",
                                      "linear mod p"]))
    if form == "zero mod p":
        f = [p * c for c in f]
    elif form == "leading coefficient p k":
        f = f + [p * data.draw(st.integers(-10 ** 6, 10 ** 6))]
    elif form == "linear mod p":
        a1 = p * data.draw(small_ints) + data.draw(st.integers(1, p - 1))
        f = [data.draw(small_ints), a1] + [p * c for c in f]
    assert polys.roots_mod_p(f, p) == [r for r in range(p) if polys.evaluate(f, r) % p == 0]
