"""Dense univariate polynomial helpers, coefficients ascending (constant first).

Exact, on ints.  Only what the lifting and factorization code needs: the
package's one product (:func:`mul`, full or truncated) and one Horner's rule
(:func:`evaluate`), both of which take Fractions too, as a rational ``Series``
and the ``SeriesInput`` evaluators do (``evaluate`` also takes a ``Series`` point,
so it composes series); :func:`is_product`, which decides a truncated product
identity of int lists by one product of packed integers (Kronecker
substitution), for the lemma checks of ``factor``; derivatives, Taylor shifts,
exact division, and squarefree parts by a primitive gcd.  :func:`roots_mod_p` finds the roots
of f mod a prime p, by a scan of the residues below p = 500, else by a split.
"""

from __future__ import annotations

import math
import operator


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
    """(G, g): G = gcd(f, f') primitive, g = f / G with the roots of f, each once."""
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
