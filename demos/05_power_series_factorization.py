#!/usr/bin/env python3
"""Factoring +-p^w + p^m*g1*x + ... over Z[[x]] from the digits of a root.

A series with composite non-prime-power constant term always factors; with
prime or unit-times-p constant term it never does.  The interesting case
is f(0) = +-p^w with p | f_1 (f_1 = 0 included): there reducibility rides
on a p-adic root of small valuation, and the factorization is completely
explicit in the root's base-p^ell digits.

The showpiece input is the power series

    f(x) = 9 + 12x + 7x^2 + 8x^3 + 8x^4 + ...  =  9 + 12x + 7x^2 + 8x^3/(1-x),

which factors as (3 - x) * (3 + 5x + 4x^2 + 4x^3 + ...), even though every
polynomial truncation of it is irreducible over Z[[x]].
"""

from padiclift import SeriesInput, classify, factor, factor_multiple_root, verify_factorization
from padiclift.factorize import NoSuitableRoot
from padiclift import polys

f = SeriesInput.geometric((9, 12, 7, 8), 1)
print("f = 9 + 12x + 7x^2 + 8x^3/(1-x)")
print("classification from (f0, f1) = (9, 12):", classify(9, 12))
print()

pair = factor(f, 10)
print(f"root found: valuation ell = {pair.ell}, digits {pair.digits.digits}")
print(f"A = {list(pair.A)}")
print(f"B = {list(pair.B)}")
print("internal lemma checks:", pair.checks)
print("external re-verification:", verify_factorization(f, pair, 10).passed())
print()

# Truncations of the same series have NO root of small valuation, and the
# factorizer says so instead of inventing a factor.
for d in (2, 3):
    head = (9, 12, 7, 8)[: d + 1]
    try:
        factor(list(head), 6)
    except NoSuitableRoot as exc:
        print(f"degree-{d} truncation {list(head)}: NoSuitableRoot ({exc})")
print()

# A planted polynomial: build f = (p^ell - x*u(x)) * v(x) and recover a
# factorization (not necessarily the planted one -- the canonical A is the
# one with linear coefficient -c, c the inverse of the root's unit part mod
# p^ell).
p, ell = 5, 1
planted = polys.mul([5, -1, -2], [25, 3, 1])   # (5 - x - 2x^2)(25 + 3x + x^2)
pair = factor(planted, 8)
print(f"planted {planted}:")
print(f"  A = {list(pair.A)}")
print(f"  B = {list(pair.B)}")
prod = polys.mul(list(pair.A), list(pair.B))
print("  A*B == f through x^8:", all(prod[j] == pair.series.coeff(j) for j in range(9)))
print()

# Multiple roots short-circuit to a gcd split.
g = polys.mul(polys.mul([-3, 1], [-3, 1]), [1, 1])
G, gred = factor_multiple_root(g)
print(f"(x-3)^2 (x+1) = {g}: gcd split gives G = {G}, f_red = {gred}")
