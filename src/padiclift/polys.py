"""Dense univariate polynomial helpers, coefficients ascending (constant first).

Exact, on ints.  Only what the lifting and factorization code needs: the
package's one product (:func:`mul`, full or truncated) and one Horner's rule
(:func:`evaluate`), both of which take Fractions too, as a rational ``Series``
and the ``SeriesInput`` evaluators do (``evaluate`` also takes a ``Series`` point,
so it composes series); :func:`is_product`, which decides a truncated product
identity of int lists by one product of packed integers (Kronecker
substitution), and :func:`is_product_chain`, which decides a chain of them,
f q_(i+1) = q_i, by one product of stacked blocks, for the lemma checks of ``factor``; derivatives,
Taylor shifts, exact division, and squarefree parts, certified by one
evaluation gcd when f is squarefree, else by a primitive gcd.
:func:`roots_mod_p` finds the roots of f mod a prime p, by a scan of the
residues below p = 500, else by a split.
"""

from __future__ import annotations

import math
import operator
from itertools import chain


def degree(f) -> int:
    """Index of the last nonzero coefficient; -1 for the zero polynomial."""
    for i in range(len(f) - 1, -1, -1):
        if f[i] != 0:
            return i
    return -1


def trim(f) -> list:
    d = degree(f)
    return list(f[: d + 1]) if d >= 0 else [0]


def evaluate(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def derivative(f) -> list:
    if len(f) <= 1:
        return [0]
    return [i * c for i, c in enumerate(f)][1:]


def taylor_coeffs(f, r0) -> list:
    """Coefficients c_j of f(r0 + x), i.e. c_j = f^(j)(r0) / j!, exactly.

    Repeated-Horner shift; integer inputs give integer outputs.
    """
    cs = list(f)
    n = len(cs)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            cs[i] += cs[i + 1] * r0
    return cs


def mul(f, g, n: int | None = None) -> list:
    """f * g: all len(f) + len(g) - 1 coefficients, or the first n, zero-padded;
    coefficient k sums f against g reversed, from f's start while k < len(g)."""
    n = len(f) + len(g) - 1 if n is None else n
    f, g = f[:n], g[:n]
    lg, G, top = len(g), g[::-1], min(n, len(f) + len(g) - 1)
    out = [sum(map(operator.mul, f[: k + 1], G[lg - 1 - k:])) for k in range(min(top, lg))]
    out += [sum(map(operator.mul, f[k - lg + 1: k + 1], G)) for k in range(lg, top)]
    return out + [0] * (n - len(out))


def is_product(f, g, h) -> bool:
    """Whether f g = h mod x^len(h), for int lists, by one product of integers.

    With L = len(h), f and g cut to L terms and bits(n) = n.bit_length(), pack each
    list q to Q = q(2^b) (Horner's rule by shifts), b = max(bits(max|f|) + bits(max|g|)
    + bits(min(len f, len g)), bits(max|h|)) + 2, and test F G - H = 0 mod 2^(b L).
    Exact: F G - H = sum_(k<L) d_k 2^(b k) mod 2^(b L), d_k = [x^k] (f g - h), and each
    d_k fits a signed b-bit slot, |d_k| <= min(len f, len g) max|f| max|g| + max|h| <
    2^(b-1).  If some d_k != 0, the least such k puts the lowest set bit of the sum at
    b k + v_2(d_k) < b (k + 1) <= b L, so the sum is not 0 mod 2^(b L)."""
    L = len(h)
    f, g = f[:L], g[:L]
    if not (f and g):
        return not any(h)
    bf, bg, bh = (max(-min(q), max(q)).bit_length() for q in (f, g, h))
    b = max(bf + bg + min(len(f), len(g)).bit_length(), bh) + 2
    return not (_pack(f, b) * _pack(g, b) - _pack(h, b)) & ((1 << (b * L)) - 1)


def is_product_chain(f, qs) -> bool:
    """Whether f q_(i+1) = q_i mod x^len(q_i) for i = 0..len(qs) - 2, for int lists:
    :func:`is_product` on every consecutive pair, by one product of integers.

    With L = max len(q_i) over the left sides, f and every q cut to L terms, b is
    :func:`is_product`'s slot width taken on all pairs at once, each q is packed once,
    Q_i = q_i(2^b).  Then each difference F Q_(i+1) - Q_i = sum_(k<2L-1) d_k 2^(b k)
    has |d_k| < 2^(b-1), so |F Q_(i+1) - Q_i| < 2^(b(2L-1)-1).  Stack the Q_i in blocks
    of w = 2 L b bits, S = sum_i Q_i 2^(w i): with n = len(qs) - 1 pairs, the stacked
    right sides are G = (S - Q_0) / 2^w, the stacked left sides H = S - Q_n 2^(w n), and
    X = F G - H + sum_(i<n) 2^(b(2L-1)) 2^(w i) = sum_(i<n) D_i 2^(w i) with
    0 < D_i = F Q_(i+1) - Q_i + 2^(b(2L-1)) < 2^w: the bias keeps every block
    positive and below 2^w, so no block borrows from or carries into the next, and
    block i of X is D_i.  As 2L - 1 >= len(q_i), the low b len(q_i) bits of D_i are
    those of F Q_(i+1) - Q_i, zero exactly when pair i holds (:func:`is_product`);
    one mask tests them all."""
    L = max(map(len, qs[:-1]), default=0)
    if not L:
        return True
    f, qs = f[:L], [q[:L] for q in qs]
    bf, bg, bh = (max(map(abs, chain(*part)), default=0).bit_length()
                  for part in ([f], qs[1:], qs[:-1]))
    b = max(bf + bg + min(len(f), max(map(len, qs[1:]))).bit_length(), bh) + 2
    w, bias, n = 2 * L * b, 1 << (b * (2 * L - 1)), len(qs) - 1
    Q = [_pack(q, b) for q in qs]
    S = mask = biases = 0
    for Qi in reversed(Q):
        S = (S << w) + Qi
    for q in reversed(qs[:-1]):
        mask, biases = (mask << w) | ((1 << (b * len(q))) - 1), (biases << w) + bias
    return not (_pack(f, b) * ((S - Q[0]) >> w) - S + (Q[n] << (w * n)) + biases) & mask


def _pack(q, b: int) -> int:
    acc = 0
    for c in reversed(q):
        acc = (acc << b) + c
    return acc


def add(f, g) -> list:
    n = max(len(f), len(g))
    return [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]


def content(f) -> int:
    """gcd of the integer coefficients (positive), 0 for the zero polynomial."""
    g = 0
    for c in f:
        g = math.gcd(g, c)
    return g


def primitive(f) -> list:
    """f over its content, leading coefficient > 0; [0] for f = 0."""
    f = trim(f)
    c = content(f) if f[-1] > 0 else -content(f)
    return [a // c for a in f] if c else f


def quotient(f, g) -> list:
    """f / g in Z[x]; ValueError unless g divides f there."""
    r, dg = trim(f), degree(g)
    if dg < 0:
        raise ZeroDivisionError("division by zero polynomial")
    q = [0] * max(len(r) - dg, 1)
    for dr in range(len(r) - 1, dg - 1, -1):
        q[dr - dg], rem = divmod(r[dr], g[dg])
        if rem:
            break
        for i in range(dg + 1):
            r[dr - dg + i] -= q[dr - dg] * g[i]
    if any(r):
        raise ValueError(f"{list(g)} does not divide {list(f)} in Z[x]")
    return trim(q)


def gcd_primitive(f, g) -> list:
    """Primitive gcd of two integer polynomials, by primitive pseudo-remainders,
    each kept trimmed ([] for zero), so that its degree is its length - 1."""
    a, b = primitive(f), primitive(g)
    if degree(a) < degree(b):
        a, b = b, a
    while any(b):
        r, db = a, len(b) - 1
        while len(r) > db:  # r <- lc(b) r - r_top x^(dr-db) b
            dr, top = len(r) - 1, r[-1]
            r = [c * b[db] for c in r]
            for i in range(db + 1):
                r[dr - db + i] -= top * b[i]
            del r[degree(r) + 1:]
        a, b = b, primitive(r)
    return a


def squarefree(f) -> tuple[list, list]:
    """(G, g): G = gcd(f, f') primitive, g = f / G with the roots of f, each once.

    A squarefree f is certified by one evaluation before any pseudo-remainder.  For
    f != 0 of degree d put H = 2^(d+1) (isqrt(sum f_i^2) + 1) and xi = 2^s, the least
    power of 2 above 2 H + 1; if 2 gcd(f(xi), f'(xi)) < xi, then G = 1 and g = f.
    Proof: a primitive G of degree e >= 1 dividing f and f' in Q[x] divides both in
    Z[x] (Gauss), so the integer G(xi) divides f(xi) and f'(xi).  By Mignotte's bound
    (1974) |G_i| <= C(e, i) ||f||_2 < H / 2, so with xi - 1 >= 2 H
    |G(xi)| >= xi^e - H (xi^e - 1) / (xi - 1) > xi^e / 2 >= xi / 2.  And f(xi) != 0,
    as xi > 1 + max|f_i| exceeds Cauchy's bound on the roots of f; so the gcd is a
    positive multiple of |G(xi)|, and twice it exceeds xi.  Any other f takes the
    primitive gcd (:func:`gcd_primitive`), as do f = 0 and an f that fails the test."""
    f = trim(f)
    if any(f):
        s = (((math.isqrt(sum(c * c for c in f)) + 1) << len(f)) * 2 + 1).bit_length()
        if 2 * math.gcd(_pack(f, s), _pack(derivative(f), s)) < 1 << s:
            return [1], f
    G = gcd_primitive(f, derivative(f))
    return G, quotient(f, G) if any(G) else [0]


def _monic_mod(f, p: int) -> list:
    """f mod p, trimmed and made monic; [] when f = 0 mod p."""
    f = [c % p for c in f]
    while f and not f[-1]:
        f.pop()
    u = pow(f[-1], -1, p) if f else 0
    return [c * u % p for c in f]


def _divmod_mod(f, h, p: int) -> tuple[list, list]:
    """(q, r) with f = q h + r mod p and deg r < deg h, for monic h; residues."""
    r, d = list(f), len(h) - 1
    q = [0] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c = q[i - d] = r[i] % p
        if c:
            r[i - d: i] = [a - c * b for a, b in zip(r[i - d: i], h)]
    return q, [c % p for c in r[:d]]


def _pow_mod(a, e: int, h, p: int) -> list:
    """a^e mod (h, p) for monic h and e >= 1, by squaring."""
    r = a = _divmod_mod(a, h, p)[1]
    for bit in bin(e)[3:]:
        r = _divmod_mod(mul(r, r), h, p)[1]
        if bit == "1":
            r = _divmod_mod(mul(r, a), h, p)[1]
    return r


def _gcd_mod(a, b, p: int) -> list:
    """Monic gcd of a monic a and any b, mod p."""
    b = _monic_mod(b, p)
    while b:
        a, b = b, _monic_mod(_divmod_mod(a, b, p)[1], p)
    return a


def roots_mod_p(f, p: int) -> list[int]:
    """The sorted r in range(p) with f(r) = 0 mod p, p prime; all of range(p)
    when f = 0 mod p.

    A linear f mod p gives its root at once.  Below p = 500 the residues are
    scanned: for f with all its roots mod p the scan beats the split at
    degrees 2-8 (degree 2: 2 against 24 us at p = 3, 119 against 164 us at
    p = 499), though a random monic f of degree 3-8 splits faster from about
    p = 400 (best of 5 on 20 polynomials; Python 3.11, 2 vCPUs).  Above, one
    power y = x^((p-1)/2) mod g, g = f mod p, gives x^p = x y^2 for
    g = gcd(g, x^p - x), the product of x - r over the roots r.  A factor h
    of g with two or more roots splits on gcd(h, (x + delta)^((p-1)/2) - 1),
    the roots r with chi(r + delta) = 1 (chi the Legendre symbol), for
    delta = 0 (y mod h), 1, 2, ...  The loop ends: for roots a != b the
    Jacobi sum of chi((a + delta)(b + delta)) over range(p) is -1, so
    (p-1)/2 delta put a and b apart, chi(a + delta) = -chi(b + delta) != 0.
    Those tried on h kept its roots together, so the parts of a split resume
    at delta + 1.
    """
    g = _monic_mod(f, p)
    if len(g) == 2:
        return [-g[0] % p]
    if p < 500 or not g:
        return [r for r in range(p) if evaluate(g, r) % p == 0]
    y = _pow_mod([0, 1], (p - 1) // 2, g, p)
    g = _gcd_mod(g, add(_divmod_mod([0] + mul(y, y), g, p)[1], [0, -1]), p)
    roots, stack = [], [(g, 0)]
    while stack:
        h, delta = stack.pop()
        if len(h) > 2:  # delta = 0 only on the first h, a divisor of the g y is taken mod
            power = (_divmod_mod(y, h, p)[1] if delta == 0
                     else _pow_mod([delta, 1], (p - 1) // 2, h, p))
            w = _gcd_mod(h, add(power, [-1]), p)
            parts = [w, _divmod_mod(h, w, p)[0]] if 1 < len(w) < len(h) else [h]
            stack += [(part, delta + 1) for part in parts]
        elif len(h) == 2:
            roots.append(-h[0] % p)
    return sorted(roots)
