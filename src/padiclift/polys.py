"""Dense univariate polynomial helpers, coefficients ascending (constant first).

Exact, on ints.  Only what the lifting and factorization code needs: the
package's one product (:func:`mul`, full or truncated) and one Horner's rule
(:func:`evaluate`), both of which take Fractions too, as a rational ``Series``
and the ``SeriesInput`` evaluators do; derivatives, Taylor shifts, exact division,
and squarefree parts by a primitive gcd.  :func:`roots_mod_p` finds the roots
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
    while degree(r) >= dg:
        dr = degree(r)
        q[dr - dg], rem = divmod(r[dr], g[dg])
        if rem:
            break
        for i in range(dg + 1):
            r[dr - dg + i] -= q[dr - dg] * g[i]
    if any(r):
        raise ValueError(f"{list(g)} does not divide {list(f)} in Z[x]")
    return trim(q)


def gcd_primitive(f, g) -> list:
    """Primitive gcd of two integer polynomials, by primitive pseudo-remainders."""
    a, b = primitive(f), primitive(g)
    if degree(a) < degree(b):
        a, b = b, a
    while degree(b) >= 0:
        r, db = a, degree(b)
        while degree(r) >= db:  # r <- lc(b) r - r_top x^(dr-db) b
            dr, top = degree(r), r[degree(r)]
            r = [c * b[db] for c in r]
            for i in range(db + 1):
                r[dr - db + i] -= top * b[i]
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

    A linear f mod p gives its root at once.  Below p = 500 a scan of the
    residues beats the split for degrees 2-8 (degree 2: 3 against 38 us at
    p = 3, 267 against 279 us at p = 499; Python 3.11, 2 vCPUs).  Above, a
    factor h with two or more roots of g = gcd(f mod p, x^p - x), the product
    of x - r over the roots r, splits on gcd(h, (x + delta)^((p-1)/2) - 1),
    the roots r with chi(r + delta) = 1 (chi the Legendre symbol), for
    delta = 0, 1, 2, ...  The loop ends: for roots a != b the Jacobi sum of
    chi((a + delta)(b + delta)) over range(p) is -1, so (p-1)/2 delta put a
    and b apart, chi(a + delta) = -chi(b + delta) != 0.  Those tried on h kept
    its roots together, so the parts of a split resume at delta + 1.
    """
    g = _monic_mod(f, p)
    if len(g) == 2:
        return [-g[0] % p]
    if p < 500 or not g:
        return [r for r in range(p) if evaluate(g, r) % p == 0]
    g = _gcd_mod(g, add(_pow_mod([0, 1], p, g, p), [0, -1]), p)
    roots, stack = [], [(g, 0)]
    while stack:
        h, delta = stack.pop()
        if len(h) > 2:
            w = _gcd_mod(h, add(_pow_mod([delta, 1], (p - 1) // 2, h, p), [-1]), p)
            parts = [w, _divmod_mod(h, w, p)[0]] if 1 < len(w) < len(h) else [h]
            stack += [(part, delta + 1) for part in parts]
        elif len(h) == 2:
            roots.append(-h[0] % p)
    return sorted(roots)
