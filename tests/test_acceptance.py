"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact arithmetic; every asserted value is either a
hand-checkable constant or recomputed through an independent oracle
(Newton iteration, powering, series composition, planted factors).
Stated runtime budgets are enforced.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from padiclift import polys
from padiclift.bell import bell, bell_falling, bell_oracle
from padiclift.bigmath import binom, falling
from padiclift.factorize import (NEEDS_ROOT_ANALYSIS, SeriesInput, classify,
                                 factor, factor_multiple_root,
                                 verify_factorization)
from padiclift.hensel import (InsufficientCongruence, lift_all, lift_general,
                              lift_quadratic, lift_simple, newton_lift,
                              teichmuller, teichmuller_oracle)
from padiclift.padic import PadicInt
from padiclift.series import (Series, apply_poly_with_indeterminate_constant,
                              formal_root_brackets, formal_root_brackets_alt,
                              formal_root_series, lagrange_invert,
                              series_from_alphas, trinomial_root_terms)


@contextmanager
def criterion(number, description, budget_seconds=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    note = f" ({elapsed:.2f}s)" if budget_seconds else ""
    print(f"ACCEPTANCE {number:2d}: PASS - {description}{note}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, f"runtime {elapsed:.2f}s over budget {budget_seconds}s"


def test_criterion_1_example1():
    with criterion(1, "quadratic over Z_7: lifts at both seeds to 7^40, "
                      "series == Catalan form == Newton", budget_seconds=1.0):
        f = [1, 11, -5]
        for r0 in (1, 4):
            simple = lift_simple(f, r0, 7, 40)
            catalan = lift_quadratic(1, 11, -5, r0, 7, 40)
            newton = newton_lift(f, r0, 7, 40)
            assert simple.root == catalan.root == newton
            assert polys.evaluate(f, simple.root.residue) % 7 ** 40 == 0
        three = lift_simple(f, 1, 7, 3)
        assert three.root.residue == 1 - 7 + 5 * 49 == 239


def test_criterion_2_example2():
    with criterion(2, "double seed over Z_5 splits into two roots mod 5^30, "
                      "congruent to 1+5 and 1+15 mod 25", budget_seconds=1.0):
        f = [17, 6, 2]
        with pytest.raises(InsufficientCongruence):
            lift_general(f, 1, 5, 30, nu=2, kappa=1)
        reports = lift_all(f, 1, 5, 30)
        assert len(reports) == 2
        residues = sorted(rep.root.residue % 25 for rep in reports)
        assert residues == [1 + 5, 1 + 3 * 5]
        for rep in reports:
            assert polys.evaluate(f, rep.root.residue) % 5 ** 30 == 0
        assert reports[0].root.residue != reports[1].root.residue


def test_criterion_3_inverse_29():
    with criterion(3, "1/29 in Z_7 has digits (1,3,1,1,2,5)"):
        inv = PadicInt.from_int(29, 7, 6).unit_inverse()
        assert inv.digits() == (1, 3, 1, 1, 2, 5)
        assert PadicInt.from_rat(Fraction(1, 29), 7, 6) == inv


def test_criterion_4_teichmuller_suite():
    with criterion(4, "Teichmuller lifts for p in {3,5,7,11,13}, all q, N=25: "
                      "series == powering oracle, (p-1)-st roots of unity",
                   budget_seconds=10.0):
        N = 25
        for p in (3, 5, 7, 11, 13):
            modulus = p ** N
            for q in range(1, p):
                xi = teichmuller(q, p, N)
                assert xi.residue % p == q
                assert pow(xi.residue, p - 1, modulus) == 1
                assert xi == teichmuller_oracle(q, p, N)


def test_criterion_5_eisenstein():
    with criterion(5, "x^5 + x = q root series: coefficients 1,-1,5,-35 at "
                      "q^1,q^5,q^9,q^13; regrouping of the general formal root"):
        terms = trinomial_root_terms(5, 1, 3)
        assert terms == [(1, Fraction(1)), (5, Fraction(-1)),
                         (9, Fraction(5)), (13, Fraction(-35))]
        # regroup: f = t + x + x^5 with t = -q
        root = formal_root_series([0, 1, 0, 0, 0, 1], 13)
        got = {i: c * (-1) ** i for i, c in enumerate(root.coeffs) if c}
        assert got == dict(terms)


def test_criterion_6_lagrange_roundtrip():
    with criterion(6, "Lagrange inversion: 200 random alpha-vectors (M=8) "
                      "round-trip to the identity; Catalan special case"):
        rng = random.Random(2026)
        for _ in range(200):
            alphas = [rng.randint(-5, 5) for _ in range(8)]
            betas = lagrange_invert(alphas)
            phi = series_from_alphas(alphas, order=8)
            inv = Series([0, 1] + [Fraction(b, math.factorial(n))
                                   for n, b in enumerate(betas, start=1)], 8)
            assert inv.compose(phi) == Series.x(8)
            assert phi.compose(inv) == Series.x(8)
        betas = lagrange_invert([1] + [0] * 7)
        for n, b in enumerate(betas, start=1):
            assert b == (-1) ** n * Fraction(math.factorial(2 * n), math.factorial(n + 1))


def test_criterion_7_formal_root_annihilation():
    with criterion(7, "formal roots: 100 random polynomials (deg <= 5, a1 = +-1), "
                      "f(partial root) = 0 mod t^8; both bracket forms identical"):
        rng = random.Random(2027)
        for _ in range(100):
            deg = rng.randint(1, 5)
            a = [0, rng.choice([-1, 1])] + [rng.randint(-5, 5) for _ in range(deg - 1)]
            assert formal_root_brackets(a, 7) == formal_root_brackets_alt(a, 7)
            root = formal_root_series(a, 8)
            resid = apply_poly_with_indeterminate_constant(a, root)
            assert all(c == 0 for c in resid.coeffs[:8]), (a, resid.coeffs)


def test_criterion_8_bell_identities():
    with criterion(8, "Bell polynomials: recurrence == partition oracle "
                      "(n <= 10, 20 random inputs); homogeneity, shift, "
                      "convolution, single-slot, falling-factorial identities"):
        rng = random.Random(2028)
        for _ in range(20):
            xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(10)]
            for n in range(11):
                for k in range(n + 1):
                    assert bell(n, k, xs) == bell_oracle(n, k, xs)
        for trial in range(5):
            xs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(9)]
            ys = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(9)]
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            scaled = [a * b ** j * x for j, x in enumerate(xs, start=1)]
            halved = [xs[j + 1] / (j + 2) for j in range(8)]
            summed = [x + y for x, y in zip(xs, ys)]
            for n in range(9):
                for k in range(n + 1):
                    assert bell(n, k, scaled) == Fraction(a) ** k * b ** n * bell(n, k, xs)
                    assert bell(n, k, halved) == \
                        Fraction(math.factorial(n), math.factorial(n + k)) \
                        * bell(n + k, k, [0] + xs[1:])
                    rhs = sum(binom(n, nn) * bell(nn, kk, xs) * bell(n - nn, k - kk, ys)
                              for kk in range(k + 1) for nn in range(n + 1))
                    assert bell(n, k, summed) == rhs
        for j in range(1, 5):
            seq = [0] * (j - 1) + [Fraction(3)]
            for n in range(9):
                for k in range(n + 1):
                    val = bell(n, k, seq)
                    if n == j * k:
                        assert val == Fraction(math.factorial(j * k) * 3 ** k,
                                               math.factorial(k) * math.factorial(j) ** k)
                    else:
                        assert val == 0
        for a in (-2, 2, 5):
            seq = [falling(a, j) for j in range(1, 9)]
            for n in range(9):
                for k in range(n + 1):
                    assert bell_falling(n, k, a) == bell(n, k, seq)


def test_criterion_9_geometric_tail_factorization():
    with criterion(9, "geometric-tail series 9+12x+7x^2+8x^3/(1-x): A = 3-x, "
                      "B = 3+5x+4x^2+...+4x^10, all lemma checks pass",
                   budget_seconds=1.0):
        si = SeriesInput.geometric((9, 12, 7, 8), 1)
        pair = factor(si, 10)
        assert pair.A == (3, -1) + (0,) * 9
        assert pair.B == (3, 5) + (4,) * 9
        assert pair.checks.all_passed()
        assert verify_factorization(si, pair, 10).passed()


def test_criterion_10_planted_factorizations():
    with criterion(10, "25 planted factorizations (p in {3,5,7}, ell in {1,2}): "
                       "recovered A*B == f mod x^9, lemma assertions pass",
                   budget_seconds=30.0):
        rng = random.Random(2030)
        done = 0
        while done < 25:
            p = rng.choice([3, 5, 7])
            ell = rng.choice([1, 2])
            w = ell + rng.randint(ell, ell + 2)       # w = ell + vp(v(0))
            u = [1, rng.randint(-4, 4), rng.randint(-4, 4)]
            v1 = rng.randint(-8, 8)
            if v1 % p == 0 or (w == 2 * ell and (v1 + 1) % p == 0):
                continue
            v = [p ** (w - ell), v1, rng.randint(-8, 8), rng.randint(-8, 8)]
            f = polys.mul(polys.add([p ** ell], [-c for c in [0] + u]), v)
            if polys.degree(f) < 2 or polys.degree(f) > 6 or f[1] == 0:
                continue
            if classify(f[0], f[1]).kind != NEEDS_ROOT_ANALYSIS:
                continue
            pair = factor(f, 8)
            assert pair.checks.all_passed()
            assert verify_factorization(pair.series, pair, 8).passed()
            prod = polys.mul(list(pair.A), list(pair.B))
            for j in range(9):
                assert prod[j] == pair.series.coeff(j)
            done += 1


def test_criterion_11_multiple_root():
    with criterion(11, "multiple-root split: f = (x-p)^2 (x+1) gives "
                       "G ~ (x-p), f_red = (x-p)(x+1), G*f_red = f"):
        for p in (3, 5):
            f = polys.mul(polys.mul([-p, 1], [-p, 1]), [1, 1])
            G, fred = factor_multiple_root(f)
            assert G == [-p, 1]
            assert sorted(fred) == sorted(polys.mul([-p, 1], [1, 1]))
            assert polys.mul(G, fred) == polys.trim(f)
