#!/usr/bin/env python3
"""Partial Bell polynomials: the combinatorial core of every formula here.

B(n, k) of a sequence x_1, x_2, ... sums over set partitions of an n-set
into k blocks, weighting a block of size j by x_j.  The library computes
them as B(n, k) = n!/k! [x^n] A(x)^k, A = sum_j x_j x^j / j!, from a table
of the powers of A (polynomial time), and keeps the literal partition-sum
definition as a slow independent oracle.
"""

import math
from fractions import Fraction

from padiclift.bell import BellTable, bell, bell_falling, bell_oracle
from padiclift.bigmath import falling

# On the all-ones sequence, B(n, k) counts set partitions: Stirling numbers.
# BellTable takes the coefficients of A, here A(x) = e^x - 1 = sum x^j / j!.
print("B(n, k) on (1, 1, 1, ...) = Stirling numbers of the second kind:")
table = BellTable([Fraction(1, math.factorial(j)) for j in range(1, 9)], 8)
for n in range(1, 8):
    print("  ", [int(table.value(n, k)) for k in range(1, n + 1)])
print()

print("recurrence vs partition enumeration, a spot check:")
xs = (Fraction(1, 2), 3, Fraction(-2, 5), 1)
for n, k in ((4, 2), (6, 3), (7, 4)):
    fast = bell(n, k, xs)
    slow = bell_oracle(n, k, xs)
    print(f"  B({n},{k}) = {fast}  (oracle: {slow}, equal: {fast == slow})")
print()

print("on falling factorials (a)_1, (a)_2, ... there is a closed form:")
a = 5
for n, k in ((4, 2), (5, 3)):
    closed = bell_falling(n, k, a)
    direct = bell(n, k, [falling(a, j) for j in range(1, n + 1)])
    print(f"  B({n},{k})((5)_1, (5)_2, ...) = {closed}  (recurrence: {direct})")
print()

print("homogeneity: scaling x_j by a*b^j scales B(n,k) by a^k b^n:")
scaled = [2 * 3 ** j * x for j, x in enumerate(xs, start=1)]
lhs = bell(5, 2, scaled)
rhs = Fraction(2) ** 2 * 3 ** 5 * bell(5, 2, xs)
print(f"  B(5,2)(2*3*x1, 2*9*x2, ...) = {lhs} = 4*243*B(5,2)(x) = {rhs}")
