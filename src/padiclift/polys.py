"""Dense univariate polynomial helpers, coefficients ascending (constant first).

Exact, on ints.  Only what the lifting and factorization code needs: the
package's one product (:func:`mul`, full or truncated) and one Horner's rule
(:func:`evaluate`, which takes Fractions too, as ``Series.evaluate`` and the
``SeriesInput`` evaluators do), derivatives, Taylor shifts, exact division,
and squarefree parts by a primitive gcd.
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
