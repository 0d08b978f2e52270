#!/usr/bin/env python3
"""Teichmuller lifts: the (p-1)-st roots of unity sitting inside Z_p.

Every q in {1, ..., p-1} is a (p-1)-st root of unity mod p and lifts to a
unique true root of unity xi_q in Z_p with xi_q = q mod p.  Two ways to
get there:

* the closed series of the simple root of x^(p-1) - 1 above q; the paper
  writes it as a triple sum in Bell-polynomial style, and this library
  sums the same root as a binomial series: x = q(1+y) turns the equation
  into (1+y)^(p-1) = 1 - c0, c0 = 1 - q^(1-p), so
  y = sum_k C(1/(p-1), k) (-c0)^k, in O(N) terms and with no Bell table, and
* the folklore iteration xi = lim q^(p^k), which stabilizes once the
  p-th-power map becomes the identity on the residue.

They agree digit for digit, and the lifts multiply like the residues do.
"""

from padiclift import teichmuller, teichmuller_oracle

p, N = 7, 8
modulus = p ** N

print(f"All Teichmuller lifts in Z_{p} at precision {p}^{N}:")
lifts = {}
for q in range(1, p):
    xi = teichmuller(q, p, N)
    assert xi == teichmuller_oracle(q, p, N)
    lifts[q] = xi
    print(f"  xi_{q} = {xi}")
print()

print("each lift really is a root of x^(p-1) - 1:")
for q, xi in lifts.items():
    print(f"  xi_{q}^{p - 1} mod {p}^{N} = {pow(xi.residue, p - 1, modulus)}")
print()

print("and q -> xi_q is multiplicative (a section of reduction mod p):")
for q1, q2 in ((2, 3), (4, 5), (6, 6)):
    lhs = lifts[q1].residue * lifts[q2].residue % modulus
    rhs = lifts[q1 * q2 % p].residue
    print(f"  xi_{q1} * xi_{q2} == xi_{q1 * q2 % p}: {lhs == rhs}")
