#!/usr/bin/env python3
"""Lifting roots mod p to p-adic roots, one closed-form series at a time.

We take f(x) = 1 + 11x - 5x^2 over the 7-adic integers.  Mod 7 it has two
simple roots, 1 and 4.  Classical Hensel theory says each lifts uniquely;
here we *compute* the lift as an explicit series whose n-th term is a
Catalan number times a power of 7, and cross-check against plain Newton
iteration.
"""

from padiclift import lift_all, lift_quadratic, lift_simple, newton_lift
from padiclift import polys

f = [1, 11, -5]
p, N = 7, 12

print(f"f(x) = 1 + 11x - 5x^2 over Z_{p}, target precision {p}^{N}")
print(f"roots mod {p}: {[r for r in range(p) if polys.evaluate(f, r) % p == 0]}")
print()

for r0 in (1, 4):
    series = lift_simple(f, r0, p, N)
    catalan = lift_quadratic(*f, r0, p, N)
    newton = newton_lift(f, r0, p, N)
    assert series.root == catalan.root == newton
    print(f"seed {r0}:")
    print(f"  root   = {series.root}")
    print(f"  series used {series.terms_used} exact terms; "
          f"residual valuation {series.residual_valuation}")
    print(f"  Newton iteration agrees bit for bit: {series.root == newton}")
    print()

# The first partial sums are hand-checkable: with c0 = f(1) = 7, c1 = 1,
# c2 = -5, the correction series starts  -7 + 5*49 - ...
three = lift_simple(f, 1, p, 3)
print(f"mod 7^3 the seed-1 root is 1 - 7 + 5*49 = {three.root.residue}")
print()

# A seed that is NOT simple: f = 17 + 6x + 2x^2 has the double root 1 mod 5.
# Refining the seed mod 25 splits it into two genuine 5-adic roots.
g = [17, 6, 2]
print("g(x) = 17 + 6x + 2x^2 over Z_5: 1 is a double root mod 5")
for rep in lift_all(g, 1, 5, 10):
    print(f"  root = {rep.root}   (= {rep.root.residue % 25} mod 25)")
print()

# Repeated and close roots: h = (x - 3)^2 (x - 3 - 3^6) has the double root 3
# and a neighbour that agrees with it to six 3-adic digits.  lift_all works
# on the squarefree part, so it returns each root once, certified on h.
h = polys.mul(polys.mul([-3, 1], [-3, 1]), [-3 - 3 ** 6, 1])
print("h(x) = (x - 3)^2 (x - 732) over Z_3: a double root and a close neighbour")
for rep in lift_all(h, 0, 3, 10):
    print(f"  root = {rep.root}   residue {rep.root.residue}, "
          f"residual valuation {rep.residual_valuation}")
