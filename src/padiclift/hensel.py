"""Explicit Hensel lifting in Z_p by closed-form series.

Each lift sums the Bell-polynomial root series of the Taylor expansion of
f at the seed: writing c_j = f^(j)(r0)/j!, the correction is

    sum_n bracket_n(c) * (c0/c1)^(n+1),

whose n-th term has p-adic valuation at least (n+1) vp(c0) (:func:`_term_count`),
so the sum is truncated once that bound clears the target precision and
the result is certified by an exact residual check f(root) = 0 mod p**N.

Degenerate seeds (f(r0) = 0 mod p**nu only, derivative of valuation
kappa > 0) go through the rescaled expansion c_j = p^((j-2)kappa)
f^(j)(r0)/j! with 2*kappa < nu; see :func:`lift_general`.  :func:`lift_all`
finds every root over a seed class, repeated and close roots included, on
the rescaled root tree of the squarefree part (:func:`_newton_balls`).
:func:`teichmuller` sums the root of x^(p-1) - 1 above q as a binomial series.

Every closed-form path has an independent check: :func:`newton_lift` is
the classical quadratically-convergent iteration, kept free of any Bell
machinery so the two can be compared bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .bigmath import INFINITY, check_prime_base, vp, vp_factorial
from .errors import DomainError
from .padic import PadicInt
# formal_root_brackets stays bound: bench/tracer.py:layer_patches patches it here
from .series import formal_root_brackets, formal_root_numerators  # noqa: F401


class NotARootModP(DomainError):
    """Seed fails f(r0) = 0 at the required modulus."""


class DerivativeNotUnit(DomainError):
    """Derivative valuation does not match what the lift requires."""


class InsufficientCongruence(DomainError):
    """Parameters violate 0 <= 2*kappa < nu."""


class NonIntegralShift(DomainError):
    """Rescaled Taylor coefficients left Z_p: 2*kappa too large for this seed."""


class OutOfRange(DomainError):
    """Teichmuller argument outside {1, ..., p-1} (empty for p < 2), or N < 1."""


class BadExponents(DomainError):
    """Sparse lift needs 1 < l < m."""


class ZeroPolynomial(DomainError):
    """The zero polynomial has no isolated roots to lift."""


@dataclass(frozen=True)
class LiftReport:
    """A certified lift: root, number of series terms summed, and the exact
    valuation of f(root.residue) (INFINITY when the residue is a true
    integer root)."""

    root: PadicInt
    terms_used: int
    residual_valuation: object


def _scaled_shift(f, c: int, s: int) -> list:
    """Integer coefficients of f(c + s y), f in Z[x]."""
    return [b * s ** j for j, b in enumerate(polys.taylor_coeffs(f, c))]


def taylor_shift(f, r0: int, kappa: int = 0, p: int | None = None) -> tuple:
    """Taylor data (c_0, c_1, ...) of g(x) = p^(-2*kappa) f(r0 + p^kappa x), f in Z[x].

    With kappa = 0 this is the plain shift c_j = f^(j)(r0)/j!.  For
    kappa > 0 the prime must be supplied, and c_j = f^(j)(r0)/j! *
    p^(j kappa) / p^(2 kappa) is an exact integer division; if it leaves a
    remainder (only possible for j < 2), c_j has negative valuation, the
    pair (r0, kappa) is inconsistent and NonIntegralShift is raised.
    """
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    if kappa > 0 and p is None:
        raise ValueError("p is required when kappa > 0")
    pk = p ** kappa if kappa else 1
    cs = []
    for j, c in enumerate(_scaled_shift(f, r0, pk)):
        q, r = divmod(c, pk * pk)
        if r:
            raise NonIntegralShift(
                f"c_{j} = {Fraction(c, pk * pk)} has negative valuation; "
                f"2*kappa={2 * kappa} exceeds vp(f^({j})(r0)/{j}!)"
            )
        cs.append(q)
    return tuple(cs)


# ---------------------------------------------------------------------------
# series engine
# ---------------------------------------------------------------------------


def _term_count(v0: int, N: int) -> int:
    """The least count >= 1 with (count + 1) v0 >= N, v0 = vp(c0) >= 1: the
    terms needed so every omitted term has valuation >= N, at any p.

    Term n is a_n c0^(n+1), a_n in Z[1/c1, c2, c3, ...], so vp(term n) >=
    (n+1) v0 when p does not divide c1.  Proof: with c0 = t, the iterates of
    the fixed-point map y <- -(t + c2 y^2 + c3 y^3 + ...)/c1 from 0 lie in
    Z[1/c1, c2, ...][t]; as y = O(t), each step fixes one more power of t,
    so the root's t^(n+1) coefficient a_n lies in that ring too.
    """
    return max(1, -(-N // v0) - 1)


def _root_series_residue(cs, p: int, N: int) -> tuple[int, int]:
    """Sum the root series of the integer Taylor data cs modulo p**N.

    Requires vp(cs[0]) >= 1 and vp(cs[1]) = 0; returns (residue in
    p*Z/p^N, :func:`_term_count` terms summed).  Term n is (-1)^(n+1) X_n c0^(n+1)
    c1^-(2n+1) / (n+1), X_n from :func:`~padiclift.series.formal_root_numerators`.
    X_n/(n+1) = +-a_n c1^(2n+1) for the root's c0^(n+1) coefficient a_n, which
    lies in Z[1/c1, c2, ...] (the proof in :func:`_term_count`), so n + 1
    divides X_n exactly at every p; a remainder raises DomainError.
    """
    c0 = cs[0]
    if c0 == 0:
        return 0, 0
    count = _term_count(vp(c0, p), N)
    modulus = p ** N
    c1, X = formal_root_numerators(cs, count - 1)
    while not X[-1]:  # trailing zero X_n add nothing (linear data: all past X_0 = 1)
        X.pop()
    inv = pow(c1, -1, modulus)
    power = c0 * inv % modulus  # c0^(n+1) c1^-(2n+1)
    step = power * inv % modulus
    acc = 0
    for n, x in enumerate(X):
        if x:
            x, r = divmod(x, n + 1)
            if r:
                raise DomainError(f"internal error: X_{n} is not divisible by {n + 1}")
            t = x % modulus * power % modulus
            acc += t if n & 1 else -t
        power = power * step % modulus
    return acc % modulus, count


def residual_valuation(f, x: int, p: int):
    """vp(f(x)), or INFINITY when x is an exact root: the certificate of a lift."""
    return vp(polys.evaluate(f, x), p)


def _report(f, p: int, N: int, residue: int, terms: int) -> LiftReport:
    root = PadicInt(p, N, residue)
    rv = residual_valuation(f, root.residue, p)
    if rv < N:
        raise DomainError(
            f"internal truncation error: residual valuation {rv} < target {N}"
        )
    return LiftReport(root, terms, rv)


def _simple_seed(f, r0: int, p: int, N: int) -> int:
    """r0 mod p, once p is a prime base, N >= 1 and r0 a simple root of f mod p."""
    check_prime_base(p)
    if N < 1:
        raise ValueError("precision must be >= 1")
    if polys.evaluate(f, r0) % p != 0:
        raise NotARootModP(f"f({r0}) != 0 mod {p}")
    if polys.evaluate(polys.derivative(f), r0) % p == 0:
        raise DerivativeNotUnit(f"f'({r0}) = 0 mod {p}: seed is not a simple root")
    return r0 % p


def _closed_form(f, r0: int, p: int, N: int, total) -> LiftReport:
    """The sum total(c, p, N) = (residue, terms) of a root series on the Taylor data
    c of f at the simple seed r0, certified: the one path of every simple-seed series lift."""
    r0 = _simple_seed(f, r0, p, N)
    rho, terms = total(polys.taylor_coeffs(f, r0), p, N)
    return _report(f, p, N, (r0 + rho) % p ** N, terms)


def lift_simple(f, r0: int, p: int, N: int) -> LiftReport:
    """Lift a simple root mod p to a root of f modulo p**N, at any prime p.

    Needs f(r0) = 0 mod p and vp(f'(r0)) = 0; the result is congruent to
    r0 mod p and satisfies f(root) = 0 mod p**N.  This is :func:`_closed_form`
    with the root series of :func:`_root_series_residue` as its sum.
    """
    return _closed_form([int(c) for c in f], r0, p, N, _root_series_residue)


def lift_general(f, r0: int, p: int, N: int,
                 nu: int | None = None, kappa: int | None = None) -> LiftReport:
    """Extended lift: seed correct mod p**nu, derivative valuation kappa.

    Requires 0 <= 2*kappa < nu, at every prime p (p = 2 included: the term
    bound of :func:`_term_count` holds at every p).  nu and kappa are
    derived from f and r0 when not supplied; explicit values are
    validated.  The root is congruent to r0 mod p**(kappa+1).
    """
    f = [int(c) for c in f]
    check_prime_base(p)
    if N < 1:
        raise ValueError("precision must be >= 1")
    fr0 = polys.evaluate(f, r0)
    dfr0 = polys.evaluate(polys.derivative(f), r0)
    nu_true = vp(fr0, p)
    kappa_true = vp(dfr0, p)
    if nu is not None and nu_true < nu:
        raise NotARootModP(f"f({r0}) != 0 mod {p}^{nu} (vp = {nu_true})")
    if kappa is not None and kappa_true != kappa:
        raise DerivativeNotUnit(f"vp(f'({r0})) = {kappa_true}, not the requested {kappa}")
    if nu is None and kappa is None and nu_true >= N:
        # vp(root - r0) = nu - kappa for the root of r0's Newton ball (2 kappa < nu)
        if not 2 * kappa_true < nu_true < N + kappa_true:
            return _report(f, p, N, r0 % p ** N, 0)
        nu = nu_true
    if nu is None:
        nu = min(nu_true, N)
    if kappa_true is INFINITY:
        raise DerivativeNotUnit(f"f'({r0}) = 0 exactly; no simple root above this seed")
    kappa = kappa_true
    if not 0 <= 2 * kappa < nu:
        raise InsufficientCongruence(f"need 0 <= 2*kappa < nu, got kappa={kappa}, nu={nu}")
    if fr0 == 0:
        return _report(f, p, N, r0 % p ** N, 0)
    r0 %= p ** nu
    cs = taylor_shift(f, r0, kappa, p)
    n_inner = max(N - kappa, 1)
    rho, terms = _root_series_residue(cs, p, n_inner)
    return _report(f, p, N, (r0 + p ** kappa * rho) % p ** N, terms)


def _newton_balls(g, p: int, c: int, k: int, skip=()):
    """Yield (x, kappa) for each root r of the squarefree g in Z[x] with
    r = c + p^k a mod p^(k+1), a not in ``skip``: kappa = vp(g'(r)), and
    x = r mod p^(kappa+1) is the shortest truncation of r in its Newton ball,
    vp(g(x)) > 2 kappa, at every p.

    This is Panayi's rescaled root tree.  Node (c, k) is h(y) =
    g(c + p^k y) / p^v, v the p-content, so h mod p != 0.  By Hensel's
    factorization a root a of h mod p of multiplicity mu marks exactly mu
    roots z of g in C_p with vp(z - c - p^k a) > k.  A simple root marks one
    root r, in Z_p, and kappa = v - k (g'(c + p^k y) = p^(v-k) h'(y), h'(a)
    a unit); Newton's iteration on h from a reads its digits.  A multiple
    root is the child node (c + p^k a, k + 1), holding integral roots
    z != z' with vp(disc g) >= 2 vp(z - z') > 2k (roots outside Z_p take
    from vp(disc g) at most the (2 deg g - 2) vp(lc g) they add, by the
    Gauss norm).  So nodes lie less than vp(disc g)/2 + 1 below the start,
    and there are at most deg g leaves.  Every node takes its digits from
    polys.roots_mod_p(h, p); ``skip`` holds at the start node only.
    """
    stack = [(c, k, skip)]
    while stack:
        c, k, skip = stack.pop()
        pk = p ** k
        h = _scaled_shift(g, c, pk)
        v = vp(polys.content(h), p)
        h = [b // p ** v for b in h]
        dh = polys.derivative(h)
        for a in polys.roots_mod_p(h, p):
            if a in skip:
                continue
            if polys.evaluate(dh, a) % p == 0:
                stack.append((c + pk * a, k + 1, ()))
                continue
            kappa = v - k
            y, prec, need = a, 1, kappa + 1 - k
            while prec < need:
                prec = min(2 * prec, need)
                m = p ** prec
                y = (y - polys.evaluate(h, y) * pow(polys.evaluate(dh, y), -1, m)) % m
            yield (c + pk * y) % p ** (kappa + 1), kappa


def lift_all(f, r0: int, p: int, N: int) -> list[LiftReport]:
    """All roots of f in Z_p lying over the seed class r0 mod p, each once.

    The roots of f, repeated ones too, are those of its squarefree part
    g = f / G, G = gcd(f, f'): :func:`_newton_balls` isolates each, and
    ``lift_general(g, x, p, N)`` lifts it to p^N, certified on f = G g.
    Roots that agree mod p^N have vp(g') >= N, so each is returned as its
    representative mod p^N with 0 terms: one report stands for them all.
    """
    f = [int(c) for c in f]
    check_prime_base(p)
    if N < 1:
        raise ValueError("precision must be >= 1")
    if not any(f):
        raise ZeroPolynomial("f = 0: every element of Z_p is a root")
    r0 %= p
    if polys.evaluate(f, r0) % p != 0:
        raise NotARootModP(f"f({r0}) != 0 mod {p}")
    G, g = polys.squarefree(f)
    found: dict[int, LiftReport] = {}
    for x, _ in _newton_balls(g, p, r0, 1):
        rep = lift_general(g, x, p, N)
        if len(G) > 1:
            rep = LiftReport(rep.root, rep.terms_used, residual_valuation(f, rep.root.residue, p))
        found.setdefault(rep.root.residue, rep)
    return [found[k] for k in sorted(found)]


def newton_lift(f, r0: int, p: int, N: int) -> PadicInt:
    """Classical Newton/Hensel iteration, the oracle for the series lifts.

    Quadratic convergence: precision doubles per step.  Same simple-root
    hypothesis as the closed forms, checked by :func:`_simple_seed`.
    """
    f = [int(c) for c in f]
    r = _simple_seed(f, r0, p, N)
    df = polys.derivative(f)
    prec = 1
    while prec < N:
        prec = min(2 * prec, N)
        m = p ** prec
        r = (r - polys.evaluate(f, r) * pow(polys.evaluate(df, r) % m, -1, m)) % m
    if polys.evaluate(f, r) % p ** N != 0:
        raise DomainError("newton iteration failed its residual check")
    return PadicInt(p, N, r)


# ---------------------------------------------------------------------------
# low-degree and sparse specializations
# ---------------------------------------------------------------------------


def lift_quadratic(a0: int, a1: int, a2: int, r0: int, p: int, N: int) -> LiftReport:
    """Catalan-number form of the simple lift for degree <= 2.

    r = r0 - (c0/c1) * sum_n Cat_n (c0 c2 / c1^2)^n: the c3 = 0 case of
    :func:`lift_cubic`, where only the j = k terms survive.
    """
    return lift_cubic(a0, a1, a2, 0, r0, p, N)


def lift_cubic(a0: int, a1: int, a2: int, a3: int, r0: int, p: int, N: int) -> LiftReport:
    """Double-sum form of the simple lift for degree <= 3.

    r = r0 - (c0/c1) sum_k [ sum_j (-1)^(k-j) c2^j/(2k-j+1) C(k,j) C(3k-j,k)
        (c0 c3/c1)^(k-j) ] (c0/c1^2)^k,
    with c2 = f''(r0)/2 and c3 the leading coefficient: the sparse double
    sum of :func:`lift_sparse` at (l, m) = (2, 3) on the shifted polynomial.
    """
    f = [int(a0), int(a1), int(a2), int(a3)]
    return _closed_form(f, r0, p, N, lambda c, p, N: _sparse_sum(*c, 2, 3, p, N))


def _sparse_sum(a0: int, a1: int, al: int, am: int, l: int, m: int,
                p: int, N: int) -> tuple[int, int]:
    """The double sum of :func:`lift_sparse` mod p**N, as (residue, terms).

    Summed on ``int`` mod p**N: a1 is inverted once, and the powers of
    al, a0^(m-l) am / a1^(m-l) and a0^(l-1) / a1^l are running products.
    A zero al leaves only the j = 0 term of each inner sum and a zero am
    only j = k (the Catalan case), so only that term is summed.

    The weight C(k,j) C(e,k) / (e-k+1), e = m(k-j) + l j, is an integer,
    and is divided exactly; within each k, C(k,j) and C(e,k) are stepped
    along j by exact small divisions, not recomputed.  Proof of
    integrality: with a1 = 1, the root x of a0 + x + al x^l + am x^m is
    the limit of the fixed-point iteration x <- -(a0 + al x^l + am x^m)
    from x = 0, whose iterates are polynomials in a0, al, am with integer
    coefficients that agree in ever higher a0-degree; so the root has
    integer coefficients as a power series in a0, al, am.  In the closed
    form the (k, j) term is (-1)^(e+1) C(k,j) C(e,k)/(e-k+1) times the
    monomial al^j am^(k-j) a0^(1 + (l-1)k + (m-l)(k-j)), and distinct
    (k, j) give distinct monomials, so each weight is a coefficient of the
    root; so term k has vp >= (1 + (l-1)k) vp(a0), and the sum stops once that is >= N.
    """
    if a0 == 0:
        return 0, 0
    v0 = vp(a0, p)
    modulus = p ** N
    inv = pow(a1, -1, modulus)
    inner_base = pow(a0 * inv, m - l, modulus) * am % modulus
    outer_base = pow(a0, l - 1, modulus) * pow(inv, l, modulus) % modulus
    al_pows, inner_pows = [1], [1]
    outer = -a0 * inv % modulus  # front * outer_base^k
    acc = 0
    k = 0
    while True:
        bracket = 0
        js = (0,) if al == 0 else (k,) if am == 0 else range(k + 1)
        e = m * (k - js[0]) + l * js[0]
        ckj, cek = math.comb(k, js[0]), math.comb(e, k)
        for j in js:
            if j > js[0]:  # step C(k, j-1) -> C(k, j) and C(e, k) -> C(e - m + l, k)
                ckj = ckj * (k - j + 1) // j
                for _ in range(m - l):
                    cek = cek * (e - k) // e
                    e -= 1
            c, r = divmod(ckj * cek, e - k + 1)
            if r:
                raise DomainError(f"internal error: sparse weight ({k}, {j}) is not an integer")
            c = c * al_pows[j] * inner_pows[k - j]
            bracket += -c if e & 1 else c
        acc = (acc + bracket % modulus * outer) % modulus
        k += 1
        if (1 + (l - 1) * k) * v0 >= N:  # the least power of a0 in term k
            return acc, k
        outer = outer * outer_base % modulus
        al_pows.append(al_pows[-1] * al % modulus)
        inner_pows.append(inner_pows[-1] * inner_base % modulus)


def lift_sparse(a0: int, a1: int, al: int, am: int, l: int, m: int,
                p: int, N: int) -> LiftReport:
    """Lift of the seed 0 for f = a0 + a1 x + al x^l + am x^m, 1 < l < m.

    Needs 0 to be a simple root mod p: p | a0, p coprime to a1.  Implements
    the closed double sum

    r = -(a0/a1) sum_k [ sum_j (-1)^(m(k-j)+l j) al^j / (m(k-j)+l j-k+1)
        C(k,j) C(m(k-j)+l j, k) (a0^(m-l) am / a1^(m-l))^(k-j) ]
        (a0^(l-1) / a1^l)^k.
    """
    if not 1 < l < m:
        raise BadExponents(f"need 1 < l < m, got l={l}, m={m}")
    f = [0] * (m + 1)
    f[0], f[1], f[l], f[m] = int(a0), int(a1), int(al), int(am)
    return _closed_form(f, 0, p, N,
                        lambda c, p, N: _sparse_sum(c[0], c[1], c[l], c[m], l, m, p, N))


# ---------------------------------------------------------------------------
# Teichmuller lifts
# ---------------------------------------------------------------------------


def _teichmuller_modulus(q: int, p: int, N: int) -> int:
    """p**N, once 1 <= q <= p - 1 and N >= 1 are checked: the domain of both lifts."""
    if not 1 <= q <= p - 1:
        raise OutOfRange(f"need 1 <= q <= p-1, got q={q}, p={p}")
    if N < 1:
        raise OutOfRange(f"need precision N >= 1, got N={N}")
    return p ** N


def teichmuller(q: int, p: int, N: int) -> PadicInt:
    """The (p-1)-st root of unity in Z_p congruent to q mod p.

    The paper's triple sum, with c0 = q^(p-1) - 1 and c1 = (p-1) q^(p-2),
    xi = q - (c0/c1) sum_n bracket'_n (c0/(q c1))^n, where bracket'_n =
    sum_k sum_j (-1)^(n-j) C(2n+1, n-k) C(k, j) (j(p-1))_(n+k) / ((p-1)^k (n+1)! k!),
    is the root series of x^(p-1) - 1 at q.  Here it is summed in closed
    form: x = q(1+y) turns x^(p-1) = 1 into (1+y)^(p-1) = 1 - c0, with
    c0 = 1 - q^(1-p), so xi = q(1 + rho), rho = sum_(k>=1) C(1/(p-1), k) (-c0)^k.

    C(a, k) is a polynomial in a and an integer on N, dense in Z_p, so it
    lies in Z_p at a = 1/(p-1): term k has vp >= k vp(c0), and the
    :func:`_term_count` K leaves every omitted term at vp >= N.  Term k is
    term k-1 times (1 - (k-1)(p-1)) (-c0) / ((p-1) k).  A running numerator
    takes the first factor and divides out the p-part of k exactly, losing
    that many digits, so it runs mod p^(N + vp(K!)); the unit rest of the
    divisor goes into a running denominator, inverted once.

    Reducing c0 mod p^N moves the simple root rho only within p^N Z_p (the
    derivative (p-1)(1+y)^(p-2) is a unit on pZ_p); a reduced c0 of 0 gives
    xi = q.  Checked: xi = q mod p, xi^(p-1) = 1 mod p**N.
    """
    modulus = _teichmuller_modulus(q, p, N)
    c0 = (1 - pow(q, 1 - p, modulus)) % modulus
    rho = 0
    if c0:
        K = _term_count(vp(c0, p), N)
        work = p ** (N + vp_factorial(K, p))
        term, acc, den = 1, 0, 1  # the terms so far sum to acc / den
        for k in range(1, K + 1):
            u = k
            while u % p == 0:
                u //= p
            term = term * (1 - (k - 1) * (p - 1)) * -c0 % work // (k // u)
            acc = (acc * (p - 1) * u + term) % modulus
            den = den * (p - 1) * u % modulus
        rho = acc * pow(den, -1, modulus) % modulus
    xi = q * (1 + rho) % modulus
    if xi % p != q % p or pow(xi, p - 1, modulus) != 1:
        raise DomainError("teichmuller series failed its root-of-unity check")
    return PadicInt(p, N, xi)


def teichmuller_oracle(q: int, p: int, N: int) -> PadicInt:
    """Iterated powering: xi = lim q^(p^k) mod p**N, the independent check."""
    modulus = _teichmuller_modulus(q, p, N)
    x = q % modulus
    while True:
        y = pow(x, p, modulus)
        if y == x:
            return PadicInt(p, N, x)
        x = y
