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
per-coefficient one, t_n = T_n(p^ell) from one closed form per n, and the
closed form T_n, a dot product with signed rows read from the table's bands,
against the row sum with a running weight and against its padded-row form
from before the weights were stepped.  The one polynomial product
``polys.mul`` is checked against the double loop that skips zero
coefficients, the product test ``polys.is_product`` against ``polys.mul``,
its chained form ``polys.is_product_chain`` against one ``is_product`` per pair,
``bhat_coeffs`` against bhat_n summed term by term, and
``polys.roots_mod_p`` against the scan of all p residues, ``polys.gcd_primitive``
against the pseudo-remainder loop that rescans every degree, ``polys.squarefree``
against the primitive gcd it certifies past, and
``polys.quotient`` against the ``polys.mul`` it undoes.  The Teichmuller
binomial series is checked against the root series of the same equation on
the Bell engine, whose brackets are the triple sum's.
"""

import math
import operator
import random
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import pytest
from conftest import bell_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padiclift
from padiclift import bell, factorize, hensel, polys, series
from padiclift.bell import BellTable
from padiclift.bigmath import binom, falling, vp
from padiclift.factorize import (DivisibilityViolation, RootDigits, _exact,
                                 SeriesInput, a_coeffs, bhat_coeffs, check_product, t_coeffs,
                                 tn_series)
from padiclift.hensel import (_root_series_residue, _sparse_sum, _term_count,
                              lift_general, lift_simple, newton_lift,
                              teichmuller, teichmuller_oracle)
from padiclift.series import (InversionProblem, Series, formal_root_brackets,
                              formal_root_brackets_alt, formal_root_numerators,
                              formal_root_terms, lagrange_invert)


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
    count = _term_count(vp(c0, p), N)
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
        if (1 + (l - 1) * k) * v0 >= N:
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


def ordinary_entry(table, n, k):
    """E^k [x^n] A^k, 0 <= k <= n: entry k of the band of row n, 0 below its start."""
    start, band = table.band(n)
    return band[k - start] if k >= start else 0


def row_sum_tn(e, n, order):
    """T_n to x^order, each coefficient (n+1-k)/k! times the row sum
    sum_j (-1)^j (n+j)!/(n+1)! B(k, j) with a running weight
    c_j = (n+j)!/(n+1)! k!/j!, c_(j+1) = c_j (n+j+1)/(j+1), on the digits' table,
    entry by entry from j = 1, the zeros below the band start included."""
    table, cs = BellTable(e.digits, order), [1]
    for k in range(1, order + 1):
        acc, c = 0, math.factorial(k)
        for j in range(1, k + 1):
            b = ordinary_entry(table, k, j)
            acc += -c * b if j & 1 else c * b
            c = c * (n + j + 1) // (j + 1)
        cs.append(Fraction((n + 1 - k) * acc, math.factorial(k)))
    return cs


def pseudo_remainder_gcd(f, g):
    """Primitive gcd by primitive pseudo-remainders, each degree rescanned."""
    a, b = polys.primitive(f), polys.primitive(g)
    if polys.degree(a) < polys.degree(b):
        a, b = b, a
    while polys.degree(b) >= 0:
        r, db = a, polys.degree(b)
        while polys.degree(r) >= db:
            dr = polys.degree(r)
            top, r = r[dr], [c * b[db] for c in r]
            for i in range(db + 1):
                r[dr - db + i] -= top * b[i]
        a, b = b, polys.primitive(r)
    return a


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
    table = bell_table(xs, n_max)
    for n, row in enumerate(fraction_bell_rows(xs, n_max)):
        for k, b in enumerate(row):
            assert table.value(n, k) == b


@settings(max_examples=60)
@given(sequences, st.integers(0, 40))
def test_ordinary_entries_match_the_fraction_recurrence(xs, n_max):
    # the stored entry is E^k [x^n] A(x)^k = E^k k!/n! B(n, k), A = sum x_j/j! x^j
    table = bell_table(xs, n_max)
    E = math.lcm(*(Fraction(x, math.factorial(j)).denominator
                   for j, x in enumerate(xs, start=1)))
    assert table.ordinary_denominator == E
    for n, row in enumerate(fraction_bell_rows(xs, n_max)):
        start, band = table.band(n)
        assert len(band) == n + 1 - start
        for k, b in enumerate(row):
            assert ordinary_entry(table, n, k) == b * math.factorial(k) / math.factorial(n) * E ** k


@settings(max_examples=60)
@given(st.lists(st.one_of(small_ints, rationals), max_size=8), st.integers(0, 16))
def test_table_stores_the_powers_of_its_series(a, n_max):
    # BellTable takes the ordinary coefficients a_j of A themselves: the stored
    # row n is E^k [x^n] A^k, read off Series powers of A = sum a_j x^j
    table = BellTable(a, n_max)
    E = math.lcm(*(Fraction(c).denominator for c in a))
    assert table.ordinary_denominator == E
    A = Series([0, *a], n_max)
    for k in range(n_max + 1):
        power = (A ** k).coeffs
        for n in range(k, n_max + 1):
            assert ordinary_entry(table, n, k) == power[n] * E ** k


def test_ordinary_denominator_on_integer_input():
    # a = (1, 1/2, 1/6): E = 6 although every x_j is an integer, and
    # 36 [x^4] (x + x^2/2 + x^3/6)^2 = 36 (2/6 + 1/4) = 21 = 36 * 2!/4! * B(4, 2)
    table = bell_table((1, 1, 1), 6)
    assert table.ordinary_denominator == 6
    assert table.band(4) == (2, (21, 324, 1296)) and table.value(4, 2) == 7
    # value is 0 below the band start (L = 3) and outside 0 <= k <= n, past
    # n_max too, and raises IndexError only for a row past n_max
    assert table.value(4, 1) == 0
    assert table.value(2, 3) == 0 and table.value(9, 10) == 0
    assert table.value(4, -1) == 0 and table.value(-1, 0) == 0 and table.value(-1, -2) == 0
    with pytest.raises(IndexError):
        table.value(7, 1)
    with pytest.raises(IndexError):
        table.value(7, 7)


def test_long_sequence_at_n_40():
    xs = [(-1) ** j * Fraction(j % 5, 1 + j % 3) for j in range(40)]
    table = bell_table(xs, 40)
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


def test_lagrange_invert_is_lambert_w_at_n_60():
    # alpha_r = 1: phi(t) = t e^t, whose inverse is Lambert's
    # W(u) = sum_n (-n)^(n-1) u^n / n!, so beta_n = (-(n+1))^n / (n+1)
    assert lagrange_invert([1] * 60) == [Fraction((-(n + 1)) ** n, n + 1) for n in range(1, 61)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_teichmuller_every_residue_at_n_40(p):
    for q in range(1, p):
        assert teichmuller(q, p, 40) == teichmuller_oracle(q, p, 40)


def bell_engine_teichmuller(q, p, N):
    """The Teichmuller residue by the root series of x^(p-1) - 1 on the Bell
    engine: Taylor data c0 = 1 - q^(1-p) and c_j = C(p-1, j) of the normalized
    equation at x = q(1+y), the data whose brackets the triple sum above gives."""
    modulus = p ** N
    c0 = (1 - pow(q, 1 - p, modulus)) % modulus
    cs = [c0] + [math.comb(p - 1, j) for j in range(1, min(p - 1, N) + 1)]
    rho, _ = _root_series_residue(cs, p, N)
    return q * (1 + rho) % modulus


@settings(max_examples=120)
@given(st.sampled_from([2, 3, 5, 7, 11, 13, 1093]), st.integers(1, 1092), st.integers(1, 40))
@example(11, 3, 40)    # 3^10 = 1 mod 11^2: vp(c0) = 2
@example(11, 3, 7)
@example(1093, 2, 40)  # 2^1092 = 1 mod 1093^2: vp(c0) = 2
@example(1093, 2, 5)
def test_teichmuller_matches_powering(p, q, N):
    # the binomial series, the powering oracle and the Bell engine agree;
    # q = 1 and q = p - 1 have c0 = 0, and the lift is q itself
    for q in {1, p - 1, 1 + (q - 1) % (p - 1)}:
        xi = teichmuller(q, p, N)
        assert xi == teichmuller_oracle(q, p, N)
        assert xi.residue == bell_engine_teichmuller(q, p, N), (q, p, N)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_triple_sum_is_the_root_series_of_x_p_minus_1(p):
    # bracket'_n = -q^n bracket_n of the Taylor data of x^(p-1) - 1 at q
    reference = triple_sum_brackets(p, 15)
    f = [-1] + [0] * (p - 2) + [1]
    for q in range(1, p):
        brackets = formal_root_brackets(polys.taylor_coeffs(f, q), 15)
        for n in range(16):
            assert reference[n] == -q ** n * brackets[n], (q, p, n)


def test_teichmuller_builds_no_bell_table():
    # the binomial series needs no table at any p, so a table that cannot be
    # built changes nothing
    with mock.patch.object(series, "BellTable", side_effect=AssertionError("BellTable built")), \
            mock.patch.object(bell, "BellTable", side_effect=AssertionError("BellTable built")):
        for q, N in ((2, 160), (123456, 40)):
            assert teichmuller(q, 1000003, N) == teichmuller_oracle(q, 1000003, N)


@pytest.mark.parametrize("p", [1009, 1093, 10007, 1000003])
def test_teichmuller_at_large_primes(p):
    # p = 1093: 2^1092 = 1 mod p^2, so at q = 2 vp(c0) = 2 and the binomial
    # series sums about N/2 terms
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


primes = st.sampled_from([2, 3, 5, 7])
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


def old_term_count(v0, p, N):
    """The term count of the bound that keeps the 1/(n+1)! of each bracket:
    term n has vp >= (n+1) v0 - vp((n+1)!) > (n+1)(v0 - 1/(p-1))."""
    return -(-N * (p - 1) // (v0 * (p - 1) - 1))


def newton_from(f, r0, p, N, kappa):
    """The root of f with vp(root - r0) > kappa, mod p**N, by Newton's
    iteration from r0 when vp(f(r0)) > 2 vp(f'(r0)) = 2 kappa."""
    df, pk, work = polys.derivative(f), p ** kappa, p ** (N + 2 * kappa + 2)
    r = r0
    for _ in range(4 * (N + 2)):
        fr = polys.evaluate(f, r)
        if fr % p ** (N + kappa) == 0:
            return r % p ** N
        r = (r - fr // pk * pow(polys.evaluate(df, r) // pk, -1, work)) % work
    raise AssertionError("Newton iteration did not converge")


# no p = 2: old_term_count divides by v0 (p-1) - 1 = 0 at p = 2, v0 = 1
bound_primes = st.sampled_from([3, 5, 7, 11])


@settings(max_examples=200, deadline=None)
@given(bound_primes, st.integers(1, 3), st.integers(0, 2), st.integers(0, 50), units, units,
       st.lists(small_ints, min_size=1, max_size=5), st.integers(1, 60))
def test_series_summed_to_the_integrality_bound_is_the_root(p, v0, kappa, r0, u0, u1, rest, N):
    # f(r0 + t) = p^(2 kappa + v0) u0 + p^kappa u1 t + ..., so the rescaled
    # Taylor data of lift_general have vp(c0) = v0 and degree 2 to 6
    u0 += u0 % p == 0
    u1 += u1 % p == 0
    f = from_taylor([p ** (2 * kappa + v0) * u0, p ** kappa * u1] + rest, r0)
    rep = lift_general(f, r0, p, N)
    with mock.patch.object(hensel, "_term_count", lambda v0, N: old_term_count(v0, p, N)):
        old = lift_general(f, r0, p, N)
    assert rep.root == old.root and rep.terms_used <= old.terms_used
    assert rep.root.residue == newton_from(f, r0, p, N, kappa)


@settings(max_examples=200, deadline=None)
@given(bound_primes, st.integers(1, 3), units, units, maybe_zero, maybe_zero,
       st.sampled_from([3, 4]), st.integers(1, 3), st.integers(1, 60))
def test_sparse_sum_stops_at_the_integrality_bound(p, v0, u0, a1, al, am, l, gap, N):
    u0 += u0 % p == 0
    a1 += a1 % p == 0
    m = l + gap
    f = [p ** v0 * u0, a1] + [0] * (m - 1)
    f[l] += al
    f[m] += am
    rho, terms = _sparse_sum(f[0], a1, al, am, l, m, p, N)
    assert terms == next(k for k in range(1, N + 1) if (1 + (l - 1) * k) * v0 >= N)
    with mock.patch.object(hensel, "_term_count", lambda v0, N: old_term_count(v0, p, N)):
        assert rho == _root_series_residue(f, p, N)[0] == newton_lift(f, 0, p, N).residue


def test_one_term_fewer_than_the_bound_misses_the_root():
    # c0 + y - y^2 has the root sum_n Cat_n (-c0)^(n+1): when p does not
    # divide Cat_(count-1), the term left out, n = count - 1, has vp = count v0 < N
    checked = 0
    for p in (3, 5, 7, 11):
        for v0 in (1, 2, 3):
            for N in range(2 * v0 + 1, 30):
                count = _term_count(v0, N)
                assert count * v0 < N <= (count + 1) * v0
                if math.comb(2 * count - 2, count - 1) // count % p == 0:
                    continue
                cs, modulus = [p ** v0, 1, -1], p ** N
                short = sum(reduce_mod(t, modulus) for _, t in formal_root_terms(cs, count - 2))
                root = newton_lift(cs, 0, p, N).residue
                assert _root_series_residue(cs, p, N) == (root, count)
                assert short % modulus != root, (p, v0, N)
                checked += 1
    assert checked > 150


@settings(max_examples=60)
@given(primes, st.integers(1, 2), units, st.integers(-40, 40), st.lists(small_ints, max_size=4),
       st.integers(1, 30))
def test_root_series_residue_matches_term_by_term_reduction(p, v0, u0, c1, rest, N):
    c1 += c1 % p == 0
    cs = [p ** v0 * u0, c1] + rest
    modulus = p ** N
    count = _term_count(vp(cs[0], p), N)
    expected = sum(reduce_mod(t, modulus) for _, t in formal_root_terms(cs, count - 1)) % modulus
    assert _root_series_residue(cs, p, N) == (expected, count)


@settings(max_examples=30)
@given(st.sampled_from([(2, 64), (3, 82), (5, 26)]), st.integers(1, 2), units,
       st.integers(-40, 40), st.lists(small_ints, max_size=3), st.integers(0, 8))
def test_root_series_residue_divides_out_high_powers_of_p(p_count, v0, u0, c1, rest, extra):
    # count >= 64 at p = 2, >= 82 at p = 3 and >= 26 at p = 5, so vp(n+1)
    # reaches 6, 4 and 2
    p, min_count = p_count
    c1 += c1 % p == 0
    u0 += u0 % p == 0
    N = next(N for N in range(1, 200) if _term_count(v0, N) >= min_count) + extra
    cs = [p ** v0 * u0, c1] + rest
    assert _root_series_residue(cs, p, N) == fraction_root_series_residue(cs, p, N)


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40).filter(bool), st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=6),
       st.integers(0, 60))
def test_root_numerators_are_divisible_by_n_plus_one(c1, rest, n_max):
    # X_n/(n+1) = +-a_n c1^(2n+1), a_n in Z[1/c1, c2, ...] the c0^(n+1)
    # coefficient of the root: the exact division in _root_series_residue
    _, X = formal_root_numerators([1, c1] + rest, n_max)
    assert [x % (n + 1) for n, x in enumerate(X)] == [0] * (n_max + 1)


def comb_per_term_numerators(a, n_max):
    """(u, X) of formal_root_numerators with C(n+j, j) from math.comb on every
    term of the band: the reference for the stepped binomial."""
    a = [Fraction(c) for c in a]
    rows = n_max if any(a[2:]) else min(n_max, 0)
    table = BellTable(a[2:], rows)
    u, v = (table.ordinary_denominator * a[1]).as_integer_ratio()
    X = []
    for n in range(rows + 1):
        start, band = table.band(n)
        X.append(sum((-1) ** j * math.comb(n + j, j) * b * v ** j * u ** (n - j)
                     for j, b in enumerate(band, start)))
    return u, X + [0] * (n_max - rows)


@settings(max_examples=80)
@given(st.one_of(small_ints, rationals).filter(bool),
       st.lists(st.one_of(st.just(0), small_ints, rationals), max_size=6), st.integers(0, 30))
def test_stepped_binomial_matches_math_comb(a1, rest, n_max):
    # zeros in rest move the band start: L is the index of its last nonzero entry
    a = [1, a1] + rest
    assert formal_root_numerators(a, n_max) == comb_per_term_numerators(a, n_max)


def test_root_numerators_call_no_comb():
    comb, calls = math.comb, []
    def counted(n, k):
        calls.append((n, k))
        return comb(n, k)
    with mock.patch.object(math, "comb", counted):
        formal_root_numerators([1, 3, 2, 0, 5], 40)
        formal_root_numerators([1, Fraction(-2, 3), 0, 0, 0, 7], 40)
    assert calls == []


@pytest.mark.parametrize("xs", [
    (3,),                                     # a lone x_1: one entry per row
    (1, 2, 0, 0),                             # trailing zeros: L = 2
    (0, 3, 1),                                # x_1 = 0: rows start late
    (2, 0, 0, 5, 0, -1),                      # interior zeros
    (Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 7)),  # E > 1
    (0, 0),                                   # A = 0: only row 0 is nonzero
])
def test_banded_table_matches_fraction_recurrence(xs):
    table = bell_table(xs, 24)
    L = max((j for j, x in enumerate(xs, start=1) if x), default=1)
    for n, row in enumerate(fraction_bell_rows(xs, 24)):
        start, band = table.band(n)
        assert start == -(-n // L)
        assert len(band) == n + 1 - start
        assert [table.value(n, k) for k in range(n + 1)] == row
        assert not any(row[:start])


def test_a_one_entry_sequence_stores_one_cell_per_row():
    # A = x: [x^n] A^k = 0 unless k = n, so each band is one cell and the
    # table grows with n_max, not with n_max^2
    table = BellTable([1], 4000)
    assert sum(len(table.band(n)[1]) for n in range(table.n_max + 1)) == table.n_max + 1
    assert bell.bell(4000, 1, [1]) == 0


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
    assert t_coeffs(a_coeffs(BellTable(e.digits, M), M), blk) == per_coefficient_t(e, M)


@settings(max_examples=150)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 2), st.integers(0, 30), st.integers(-3, 5),
       st.data())
def test_tn_series_matches_the_row_sum(p, ell, order, n, data):
    # digits drawn at random, or a few digits then zeros, all-zero included:
    # past the last nonzero digit L every row k > L has its band start above
    # 1, so tn_coeffs cuts its weights there; a second, drawn order on the same
    # digits builds its own table
    digit = st.integers(0, p ** ell - 1)
    digits = data.draw(st.one_of(
        st.lists(digit, max_size=30),
        st.builds(lambda head, zeros: head + [0] * zeros,
                  st.lists(digit, max_size=3), st.integers(0, 27))))
    e = RootDigits(p, ell, tuple(digits))
    for m in (order, data.draw(st.integers(0, 30))):
        assert tn_series(e, n, m).int_coeffs == tuple(row_sum_tn(e, n, m))


def padded_row_tn_coeffs(table, ns, order):
    """tn_coeffs as it stood before its weights were stepped from row to row: each
    row's weights (-1)^j k!/j! accumulated down from j = k, the signed band padded
    with zeros below its start, each coefficient one dot product with the full
    rising products of its index and one exact division."""
    R = {n: list(accumulate(range(n + 2, n + order + 1), operator.mul, initial=1)) for n in ns}
    T, fact = {n: [1] for n in ns}, 1
    for k in range(1, order + 1):
        fact *= k
        start, band = table.band(k)
        w = accumulate(range(k, start, -1), lambda c, j: -c * j, initial=(-1) ** k)
        V = [0] * (start - 1) + list(map(operator.mul, reversed(list(w)), band))
        for n, cs in T.items():
            cs.append(_exact((n + 1 - k) * sum(map(operator.mul, R[n], V)), fact,
                             "[x^{}] T_{}", k, n))
    return T


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 2), st.integers(0, 60), st.data())
@example(2, 1, 60, None)
def test_tn_coeffs_match_the_padded_row_reference(p, ell, order, data):
    # digits at random, or a few digits then zeros: past the last nonzero digit L
    # < order the band starts climb above 1 and the stepped weights are cut; orders
    # past 32 skip the row cache, and a second call at a cached order reads it.  The
    # example runs factor's sample of indices at order 60 on L = 2 and on L = 61
    digit = st.integers(0, p ** ell - 1)
    cases = [([1, 1], range(-3, 6)), ([1] * 61, range(-3, 6))]
    if data is not None:
        cases = [(data.draw(st.one_of(
            st.lists(digit, max_size=61),
            st.builds(lambda head, zeros: head + [0] * zeros,
                      st.lists(digit, max_size=5), st.integers(0, 60)))),
            data.draw(st.lists(st.integers(-6, 8), min_size=1, max_size=12, unique=True)))]
    for digits, ns in cases:
        table = BellTable(digits, order)
        want = padded_row_tn_coeffs(table, ns, order)
        assert factorize.tn_coeffs(table, ns, order) == want
        assert factorize.tn_coeffs(table, ns, order) == want


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


def bhat_term(f, p, w, m, ell, t, n):
    """bhat_n = p^(w-2l) t_n + p^(m-l) g1 t_(n-1) + sum_j p^(l(j-2)) g_j t_(n-j)
    for f = p^w + p^m g1 x + g2 x^2 + ..., the g_j read off f, t read through
    t_at and p^(l(j-2)) raised afresh for every (n, j)."""
    gammas = (f[1] // p ** m, *f[2:])

    def t_at(i):
        if i >= 1:
            return t[i - 1]
        return 1 if i in (0, -1) else 0

    acc = p ** (w - 2 * ell) * t_at(n) + p ** (m - ell) * gammas[0] * t_at(n - 1)
    for j in range(2, min(n + 1, len(gammas)) + 1):
        g = gammas[j - 1]
        if g:
            acc += p ** (ell * (j - 2)) * g * t_at(n - j)
    return acc


def bhat_by_terms(f, p, w, m, ell, t, M):
    """(bhat, B) from :func:`bhat_term`, with the divisibility asserted: B_0 =
    p^(w-l) and B_1 = p^(w-2l) + p^(m-l) g1 as the paper writes them, then
    B_(n+1) = bhat_n / p^(ell n)."""
    bhat, B = [], [p ** (w - ell), p ** (w - 2 * ell) + p ** (m - ell) * (f[1] // p ** m)]
    for n in range(1, M + 1):
        acc, d = bhat_term(f, p, w, m, ell, t, n), p ** (ell * n)
        if acc % d != 0:
            raise DivisibilityViolation(f"p^(ell*{n}) = {d} does not divide bhat_{n} = {acc}")
        bhat.append(acc)
        B.append(acc // d)
    return bhat, B


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


# signed coefficients up to 2^400 or all zero, lengths 0-40
big_coeffs = st.one_of(st.just(0), small_ints, st.integers(-2 ** 400, 2 ** 400))
product_lists = st.one_of(st.lists(st.just(0), max_size=40), st.lists(big_coeffs, max_size=40))


def bits(q):
    return max(map(abs, q), default=0).bit_length()


@settings(max_examples=100)
@given(product_lists, product_lists, st.integers(1, 40), st.data())
def test_is_product_matches_the_truncated_product(f, g, L, data):
    # f and g may be longer than h.  Every move of one coefficient of the true
    # h is refused: by +-1, +-2^(b-1) or +-2^b in each slot (b the slot width
    # of the proof), and by +-2^k for every k in b-12..b+1 in slot 0 and in the
    # top slot, where a narrower slot would let the move pass
    true = polys.mul(f, g, L)
    h = data.draw(st.one_of(st.just(true), st.lists(big_coeffs, min_size=L, max_size=L)))
    assert polys.is_product(f, g, h) is (h == true)
    f, g = f[:L], g[:L]
    b = max(bits(f) + bits(g) + min(len(f), len(g)).bit_length(), bits(true)) + 2
    moves = [(i, 2 ** k) for i in range(L) for k in (0, b - 1, b)]
    moves += [(i, 2 ** k) for i in {0, L - 1} for k in range(max(0, b - 12), b + 2)]
    for i, step in moves:
        for sign in (1, -1):
            moved = list(true)
            moved[i] += sign * step
            assert not polys.is_product(f, g, moved), (i, sign * step)


def test_is_product_slot_width_counts_the_terms():
    # [x^1] (7 + 3x)(7 + 7x + x^2) = 70 sums two products, which pass
    # 2^(bits(7) + bits(7)) = 64; a slot of that width plus one bit reads the
    # move of 70 by -2^7 as a carry out of the top slot and accepts it
    assert polys.is_product([7, 3], [7, 7, 1], [49, 70])
    assert not polys.is_product([7, 3], [7, 7, 1], [49, 70 - 2 ** 7])


# the last list of a chain: drawn, all zero, or drawn and negated
chain_ends = st.one_of(product_lists, st.lists(st.just(0), min_size=1, max_size=40),
                       st.builds(lambda q: [-c for c in q], product_lists))


@settings(max_examples=60)
@given(product_lists, chain_ends, st.integers(1, 40), st.integers(1, 8), st.data())
def test_is_product_chain_matches_one_is_product_per_pair(f, last, L, n, data):
    # an honest chain q_i = f q_(i+1) mod x^L down from a drawn q_n (a chain of zeros,
    # or negative throughout, included), or n + 1 lists drawn apart; then every move
    # of one coefficient of one list of the first or the last pair by +-1, +-2^(b-1)
    # or +-2^b (b the packed slot width), in the first, a middle and the last slot:
    # the packed answer is the pairs' answer each time
    qs = [last]
    if data.draw(st.booleans()):
        for _ in range(n):
            qs.insert(0, polys.mul(f, qs[0], L))
    else:
        qs = [data.draw(st.lists(big_coeffs, min_size=L, max_size=L)) for _ in range(n)] + qs
    pairs = lambda qs: all(map(polys.is_product, [f] * n, qs[1:], qs[:-1]))
    assert polys.is_product_chain(f, qs) is pairs(qs)
    fl, gs = f[:L], [q[:L] for q in qs[1:]]
    b = max(bits(fl) + max(map(bits, gs)) + min(len(fl), max(map(len, gs))).bit_length(),
            max(map(bits, qs[:-1]))) + 2
    for i in {0, 1, n - 1, n}:
        for k in {0, L // 2, L - 1}:
            for step in (1, 2 ** (b - 1), 2 ** b, -1, -2 ** (b - 1), -2 ** b):
                moved = list(qs)
                q = moved[i] = list(qs[i]) + [0] * (k + 1 - len(qs[i]))  # q_n may be short
                q[k] += step
                assert polys.is_product_chain(f, moved) is pairs(moved), (i, k, step)


def test_is_product_chain_keeps_a_negative_block_from_borrowing():
    # (1 + x)(-x) = -x - x^2 = -x mod x^2 twice: each block's difference is -x^2 at
    # x = 2^b, with zero low slots; unbiased, block 0 would borrow from block 1,
    # whose low slots would then read nonzero
    assert polys.is_product_chain([1, 1], [[0, -1], [0, -1], [0, -1]])
    assert not polys.is_product_chain([1, 1], [[0, -1], [0, -1], [0, -2]])
    assert polys.is_product_chain([1, 2], []) and polys.is_product_chain([1, 2], [[3]])
    assert polys.is_product_chain([], [[0], [5]]) and not polys.is_product_chain([], [[1], [5]])


@settings(max_examples=200)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 2), st.integers(0, 12), st.booleans(),
       st.data())
def test_bhat_coeffs_match_the_per_term_sum(p, ell, M, planted, data):
    w = 2 * ell if planted else data.draw(st.integers(2 * ell, 2 * ell + 2))
    m = data.draw(st.integers(ell, ell + 2))
    gammas = data.draw(st.lists(st.one_of(st.just(0), small_ints, st.integers(-10 ** 30, 10 ** 30)),
                                min_size=1, max_size=M + 2))
    f, P = [p ** w, p ** m * gammas[0], *gammas[1:]], p ** ell
    t = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=M, max_size=M))
    if planted:
        # w = 2 ell puts t_n into bhat_n with coefficient 1: step each t_n so
        # that p^(ell n) divides bhat_n, then perhaps break one of them
        for n in range(1, M + 1):
            k, t[n - 1] = t[n - 1], 0
            t[n - 1] = k * P ** n - bhat_term(f, p, w, m, ell, t, n)
        broken = data.draw(st.integers(0, M))
        if broken:
            t[broken - 1] += 1
    try:
        want = bhat_by_terms(f, p, w, m, ell, t, M)
    except DivisibilityViolation as exc:
        with pytest.raises(DivisibilityViolation) as got:
            bhat_coeffs(f, P, t, M, 1)
        assert str(got.value) == str(exc)
        return
    assert bhat_coeffs(f, P, t, M, 1) == want


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
    assert bhat_coeffs([9, 3], 3, [2], 1, 1) == ([3], [3, 2, 1])
    assert calls == [2, 3, 3]


@settings(max_examples=300)
@given(st.lists(st.lists(small_ints, min_size=1, max_size=4), max_size=3), st.data())
def test_gcd_primitive_matches_the_rescanning_loop(factors, data):
    # products with repeated factors, a constant (no factor) and the zero
    # polynomial, against their derivatives and against each other
    f = [data.draw(st.sampled_from([0, 1, -3, 12]))]
    for h in factors + factors[: data.draw(st.integers(0, len(factors)))]:
        f = polys.mul(f, h)
    g = polys.mul(f, data.draw(st.lists(small_ints, max_size=3)) or [0])
    for u, v in ((f, polys.derivative(f)), (f, g), (g, f), (f, [0]), ([0], f)):
        assert polys.gcd_primitive(u, v) == pseudo_remainder_gcd(u, v)


def squarefree_by_gcd(f):
    """(G, f / G), G = gcd(f, f') primitive by pseudo-remainders, as squarefree ran
    before its one-evaluation certificate."""
    G = polys.gcd_primitive(f, polys.derivative(f))
    return G, polys.quotient(f, G) if any(G) else [0]


wide_ints = st.one_of(small_ints, st.integers(-2 ** 200, 2 ** 200))


@settings(max_examples=300)
@given(st.lists(wide_ints, max_size=13), st.lists(wide_ints, min_size=1, max_size=4),
       st.lists(wide_ints, max_size=5),
       st.sampled_from([1, -1, 6, -2 ** 90, 3 ** 120]), st.data())
def test_squarefree_matches_the_primitive_gcd(f, g, h, content, data):
    # f of degree 0-12 as drawn (constants and [0] included), with its leading
    # coefficient negated, times a large content, or a planted g^2 h
    form = data.draw(st.sampled_from(["as drawn", "negated leading", "content", "g^2 h"]))
    if form == "negated leading" and f:
        f = f[:-1] + [-f[-1]]
    elif form == "content":
        f = [content * c for c in f]
    elif form == "g^2 h":
        f = polys.mul(polys.mul(g, g), h or [content])
    f = f or [0]
    assert polys.squarefree(f) == squarefree_by_gcd(f)


SQUAREFREE = [[-7, 0, 1], [0, 1], [5], [-3], [12, -8, 0, -4], [9, 6, 16, -16, -4],
              [2 ** 200 + 1, -3, 0, 7 * 3 ** 100], [random.Random(7).randrange(-2 ** 200, 2 ** 200)
                                                    for _ in range(13)]]


@pytest.mark.parametrize("f", SQUAREFREE)
def test_a_squarefree_input_reaches_no_primitive_gcd(f):
    with mock.patch.object(polys, "gcd_primitive", wraps=polys.gcd_primitive) as gcd:
        assert polys.squarefree(f) == ([1], polys.trim(f))
    assert gcd.call_count == 0


@pytest.mark.parametrize("f, G", [([1, -2, 1], [-1, 1]), ([0, 0, 4], [0, 1]), ([0], [0]),
                                  (polys.mul([9, 0, -1], polys.mul([-7, 0, 1], [-7, 0, 1])),
                                   [-7, 0, 1])])
def test_a_repeated_factor_takes_the_primitive_gcd(f, G):
    with mock.patch.object(polys, "gcd_primitive", wraps=polys.gcd_primitive) as gcd:
        assert polys.squarefree(f)[0] == G
    assert gcd.call_count == 1


@settings(max_examples=300)
@given(st.lists(small_ints, min_size=1, max_size=5).filter(any),
       st.lists(small_ints, min_size=1, max_size=6), st.sampled_from([1, -1]))
def test_quotient_undoes_mul_and_refuses_a_remainder(g, q, shift):
    f = polys.mul(g, q)
    assert polys.quotient(f, g) == polys.trim(q)
    f[0] += shift
    if polys.trim(g) not in ([1], [-1]):
        with pytest.raises(ValueError, match="does not divide"):
            polys.quotient(f, g)
    with pytest.raises(ZeroDivisionError):
        polys.quotient(f, [0] * len(g))


PRIMES_TO_211 = [q for q in range(2, 212) if all(q % d for d in range(2, q))]
# roots_mod_p splits from p = 500 on: below, the scan is the cheaper for f with all its
# roots mod p (degree 2: 119 against 164 us at p = 499), though not for every f
PRIMES_PAST_THE_SCAN = [503, 509, 997, 1009, 2003]


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


@pytest.mark.parametrize("roots, powers", [([1, 5], 1), ([2, 3], 3), ([0, 4, 9], 4)])
def test_roots_mod_p_takes_x_to_the_p_from_the_first_split_power(roots, powers):
    # one power y = x^((p-1)/2) mod g gives x^p = x y^2 for the filter and, mod h, the
    # delta = 0 split (1 and 5 split there: chi(5) = -1); each later delta takes one
    # more; x^2 + 1 has no root mod 10007 = 3 mod 4
    f = [1, 0, 1]
    for r in roots:
        f = polys.mul(f, [-r, 1])
    with mock.patch.object(polys, "_pow_mod", wraps=polys._pow_mod) as pow_mod:
        assert polys.roots_mod_p(f, 10007) == roots
    assert pow_mod.call_count == powers
