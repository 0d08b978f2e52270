"""Seeded op streams for the three benchmark workloads, and their oracles.

Every workload is a list of *rounds*.  A round holds one op of each class
in a fixed composition (kind, prime, degree, precision or order), and only
the coefficients, seeds and residues inside each class are drawn from the
seeded generator.  The cost mix of a run therefore does not depend on the
seed, which keeps the end-to-end figures steady from seed to seed, while
the inputs themselves differ.  No two ops of a stream share an input: the
generator redraws any op whose key it has already produced.

Workloads (the names later issues refer to):

* ``lift``   - hensel lifts: ``lift_simple`` at simple seeds,
  ``lift_general``/``lift_all`` at planted degenerate and double seeds, the
  closed forms ``lift_quadratic``/``lift_cubic``/``lift_sparse``, and
  ``teichmuller``.  The series lifts spend nearly all their time in
  ``bell.BellTable`` and ``series.formal_root_brackets``; the closed forms
  and Teichmuller lifts build no Bell table, so Bell and Teichmuller
  changes separate by layer.
* ``factor`` - ``factorize.factor`` on planted factorizations and
  geometric-tail series.  The lemma checks rebuild many small integer Bell
  tables on the same root digits, so table sharing shows here and not in
  ``lift``.
* ``cli``    - short ``--json`` requests through ``padiclift.cli.main``,
  every subcommand, each ``lift``/``factor`` payload fed back through
  ``verify``, and a fixed share of invalid requests, each with the exit
  code it should get.  Per-call overhead dominates; Bell and series do
  little.

No op of a stream is known to fail.  The CLI's known defects (ROADMAP item
4) are probed apart from the stream, once per ``cli`` run: see
:func:`defect_probes`.

An op is executed by :func:`execute`, which returns a small result, and
judged by :func:`check`, which compares the result with an oracle that is
independent of the code path under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass, field

from padiclift import factorize, hensel

WHY = {
    "lift": "Bell tables and formal-root brackets do nearly all the work of the "
            "series lifts; closed forms and Teichmuller lifts use no Bell table",
    "factor": "lemma checks rebuild many small Bell tables on one root's digits; "
              "the root scan and series products take the rest",
    "cli": "per-call overhead dominates: argparse, JSON, is_prime and the residue "
           "scan; Bell and series do little",
}

# Ops stop being drawn after this many rounds, so that the finite input
# spaces (Teichmuller residues, small CLI requests) are never exhausted.
MAX_ROUNDS = {"lift": 200, "factor": 200, "cli": 2000}

# The known unbounded request: probed once per cli run in a child process
# under a deadline, outside the op stream and its figures.
ZERO_POLY_ARGV = ("lift", "--poly", "0", "--prime", "5", "--precision", "3", "--json")
ZERO_POLY_EXPECT = (1, 2)

PREV_STDOUT = object()  # stdin marker: feed the previous op's stdout


@dataclass
class Op:
    """One call of the program: ``kind`` names what to call with ``args``."""

    op_id: int
    workload: str
    kind: str
    args: tuple
    key: tuple
    expect: object = None       # oracle data: planted roots, exit codes, ...
    props: dict = field(default_factory=dict)
    stdin: object = None
    rnd: int = 0                # the round the op belongs to


# ---------------------------------------------------------------------------
# small exact helpers, kept apart from the library under test
# ---------------------------------------------------------------------------


def pmul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def peval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def pderiv(f):
    return [i * c for i, c in enumerate(f)][1:] or [0]


def val(n, p):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def from_taylor(cs, r0):
    """Coefficients of sum_j cs[j] (x - r0)^j."""
    out = [0] * len(cs)
    power = [1]
    for c in cs:
        for i, a in enumerate(power):
            out[i] += c * a
        power = pmul(power, [-r0, 1])
    return out


def newton_from(f, r0, p, N, kappa):
    """Newton iteration from r0 when vp(f(r0)) > 2 vp(f'(r0)) = 2 kappa.

    Converges to the unique root with vp(root - r0) > kappa; returns it mod
    p**N.  Used as the oracle for lifts at degenerate seeds, where
    ``newton_lift`` (simple roots mod p only) does not apply.
    """
    df = pderiv(f)
    work = p ** (N + 2 * kappa + 2)
    r = r0 % work
    target = p ** (N + kappa)
    for _ in range(4 * (N + 2)):
        fr = peval(f, r)
        if fr % target == 0:
            return r % p ** N
        d = peval(df, r)
        pk = p ** kappa
        r = (r - (fr // pk) * pow(d // pk, -1, work)) % work
    raise RuntimeError("oracle Newton iteration did not converge")


def unit(rng, p, lo=1, hi=9):
    while True:
        x = rng.randint(lo, hi) * rng.choice((1, -1))
        if x % p:
            return x


def nonzero(rng, hi=9):
    return rng.randint(1, hi) * rng.choice((1, -1))


# ---------------------------------------------------------------------------
# lift
# ---------------------------------------------------------------------------

# (kind, p, degree, N) per class; one op of each class per round.  The
# simple lifts have vp(f(r0)) = 1, so the series needs
# ceil(N(p-1)/(p-2)) terms and a Bell triangle of about twice that many
# rows (190 for p = 7, N = 80).  The classes form cost tiers so that the
# median and the 90th percentile each fall near the middle of a tier of
# similar ops, not in a gap between two classes: 7 light (closed forms,
# small lifts), 7 middle (about 10 ms), 2 upper (lift_all refinement,
# Teichmuller), 4 heavy (series lifts of about 110 ms whose cost varies
# little with the coefficients) and 1 very heavy series lift.
LIFT_ROUND = (
    ("lift_quadratic", 7, 2, 30),
    ("lift_simple", 7, 3, 6),
    ("lift_simple", 13, 5, 8),
    ("lift_cubic", 5, 3, 20),
    ("lift_sparse", 5, 5, 24),
    ("teichmuller", None, 0, 4),
    ("lift_all_quadratic", 5, 2, 8),
    ("lift_simple", 5, 4, 10),
    ("lift_simple", 7, 4, 12),
    ("lift_simple", 5, 2, 14),
    ("lift_simple", 7, 2, 12),
    ("lift_simple", 5, 3, 10),
    ("lift_general", 5, 3, 16),
    ("lift_general", 3, 2, 12),
    ("teichmuller", None, 0, 20),
    ("lift_all_planted", 3, 3, 8),
    ("lift_simple", 7, 2, 48),
    ("lift_simple", 5, 2, 40),
    ("lift_simple", 5, 3, 34),
    ("lift_simple", 7, 3, 36),
    ("lift_simple", 7, 2, 80),
)
# Teichmuller inputs are (q, p, N) with odd p <= 13: N is drawn from
# [N, N + TEICH_N_SPREAD), which leaves 29 * 12 inputs per class, more
# than MAX_ROUNDS draws.
TEICH_PAIRS = [(q, p) for p in (3, 5, 7, 11, 13) for q in range(2, p)]
TEICH_N_SPREAD = 12


def _simple_taylor(rng, p, d):
    """Taylor data at a seed with vp(c0) = 1 and c1 a unit."""
    return [p * unit(rng, p), unit(rng, p)] + [rng.randint(-9, 9) for _ in range(d - 2)] + [nonzero(rng)]


def _lift_op(rng, kind, p, d, N):
    props = {"p": p, "degree": d, "N": N}
    if kind == "lift_simple":
        r0 = rng.randrange(p)
        f = from_taylor(_simple_taylor(rng, p, d), r0)
        return (f, r0, p, N), None, props
    if kind == "lift_general":
        # one (nu, kappa) per class keeps the class's cost steady
        kappa = 1 if p == 3 else 2
        nu = 2 * kappa + 1
        r0 = rng.randrange(p ** 2)
        cs = [p ** nu * unit(rng, p), p ** kappa * unit(rng, p), unit(rng, p)]
        cs += [rng.randint(-9, 9) for _ in range(d - 3)] + ([nonzero(rng)] if d > 2 else [])
        f = from_taylor(cs, r0)
        explicit = rng.random() < 0.5
        props.update(nu=nu, kappa=kappa)
        return (f, r0, p, N, nu if explicit else None, kappa if explicit else None), kappa, props
    if kind == "lift_all_planted":
        # (x - a)(x - b) g(x) with a = b mod p: a double seed that splits
        a = rng.randint(-30, 30)
        b = a + p * unit(rng, p, 1, 4) * rng.choice((1, p))
        g = [unit(rng, p)]
        while peval(g, a) % p == 0 or len(g) < d - 1:
            g = [rng.randint(-9, 9) for _ in range(d - 2)] + [nonzero(rng)]
        f = pmul(pmul([-a, 1], [-b, 1]), g)
        props["roots_planted"] = 2
        return (f, a % p, p, N), ("roots", sorted({a % p ** N, b % p ** N})), props
    if kind == "lift_all_quadratic":
        # c2 y^2 + p v y + p^2 u at the seed: two roots or none, by the
        # quadratic character of v^2 - 4 u c2 mod p
        while True:
            u, v, c2 = unit(rng, p), unit(rng, p), unit(rng, p)
            disc = (v * v - 4 * u * c2) % p
            if disc:
                break
        count = 2 if pow(disc, (p - 1) // 2, p) == 1 else 0
        r0 = rng.randrange(p)
        f = from_taylor([p * p * u, p * v, c2], r0)
        props["roots_planted"] = count
        return (f, r0, p, N), ("count", count), props
    if kind in ("lift_quadratic", "lift_cubic"):
        r0 = rng.randrange(p)
        f = from_taylor(_simple_taylor(rng, p, d), r0)
        return tuple(f) + (r0, p, N), None, props
    if kind == "lift_sparse":
        l, m = rng.choice(((2, 3), (2, 4), (2, 5), (3, 4), (3, 5)))
        a0, a1, al, am = p * unit(rng, p), unit(rng, p), nonzero(rng), nonzero(rng)
        props["degree"] = m
        return (a0, a1, al, am, l, m, p, N), None, props
    if kind == "teichmuller":
        q, p = rng.choice(TEICH_PAIRS)
        props.update(p=p, N=rng.randrange(N, N + TEICH_N_SPREAD))
        del props["degree"]
        return (q, p, props["N"]), None, props
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------

# (shape, p, ell, M) per class, with how many ops of the class a round
# holds; the classes form cost tiers as for lift: 8 light (M <= 6), 15
# middle (M = 8), 4 heavy (M = 14) and 1 very heavy (M = 20).  The median
# then falls inside the middle tier and the 90th percentile at the middle
# of the heavy tier, not at an edge between two tiers.  A factor call's
# cost varies with the root's digits by a quarter or more, so many
# mid-sized calls make steadier figures than a few large ones.
FACTOR_ROUND = (
    (("planted", 3, 1, 4), 2),
    (("planted", 7, 1, 6), 2),
    (("geometric", 5, 1, 6), 2),
    (("planted", 5, 2, 6), 2),
    (("planted", 5, 2, 8), 3),
    (("planted", 3, 1, 8), 3),
    (("planted", 5, 1, 8), 3),
    (("planted", 7, 1, 8), 3),
    (("geometric", 7, 1, 8), 3),
    (("planted", 7, 1, 14), 1),
    (("planted", 3, 2, 14), 1),
    (("planted", 5, 1, 14), 1),
    (("geometric", 5, 1, 14), 1),
    (("planted", 5, 1, 20), 1),
)


def planted_factors(rng, p, ell, v_len=4):
    """(A, v) with f = A * v of the p^w + p^m g1 x + ... shape, as in the
    planted-factorization acceptance criterion: A = p^ell - x u(x)."""
    while True:
        w = ell + rng.randint(ell, ell + 2)
        u = [1, rng.randint(-4, 4), rng.randint(-4, 4)]
        v1 = rng.randint(-8, 8)
        if v1 % p == 0 or (w == 2 * ell and (v1 + 1) % p == 0):
            continue
        v = [p ** (w - ell), v1] + [rng.randint(-8, 8) for _ in range(v_len - 2)]
        A = [p ** ell] + [-c for c in u]
        f = pmul(A, v)
        while f and f[-1] == 0:
            f.pop()
        if 2 < len(f) <= 7 and f[1] != 0 and f[1] % p == 0:
            return A, v, f, w


def geometric_head(c, ratio):
    """Head of the SeriesInput for c(x) / (1 - ratio x)."""
    head, prev = [], 0
    for j in range(len(c) + 1):
        prev = ratio * prev + (c[j] if j < len(c) else 0)
        head.append(prev)
    return head


def _factor_op(rng, shape, p, ell, M):
    while True:
        A, v, f, w = planted_factors(rng, p, ell, 4 if shape == "planted" else 3)
        props = {"p": p, "ell": ell, "M": M, "w": w, "degree": len(f) - 1, "tail": shape}
        if shape == "planted":
            return (tuple(f), None, M), (A, v), props
        ratio = rng.choice((1, 2, -1, -2, 3))
        head = geometric_head(f, ratio)
        # the tail turns f1 into c1 + ratio*c0, whose valuation can fall
        # below ell; then no root is in scope and the input is redrawn
        f1 = head[1]
        if f1 and val(f1, p) >= ell:
            return (tuple(head), ratio, M), (A, v), props


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_PRIMES = [q for q in range(3, 10008) if all(q % d for d in range(2, int(q ** 0.5) + 1))]
TEICH_CLI_PRIMES = [q for q in CLI_PRIMES if q < 200]
COMPOSITES = sorted(set(range(9, 400, 2)) - set(CLI_PRIMES))

# Valid writes are followed by a verify read of their payload.
CLI_VALID = ("lift_seed", "lift_scan", "factor", "teichmuller", "bell", "invert",
             "classify", "classify")
CLI_INVALID = ("composite_prime", "bad_poly", "teich_out_of_range", "factor_wrong_shape",
               "missing_arg", "verify_wrong_kind")
# ROADMAP item 4: known crashers, each with the exit code a total CLI gives.
# They are probed once per cli run by defect_probes, not drawn into rounds.
CLI_DEFECTS = ("factor_negative_order", "verify_missing_file", "verify_no_input",
               "teich_precision_zero")
CLI_INVALID_PER_ROUND = 3


def _rat(rng):
    num = rng.randint(-9, 9)
    den = rng.choice((1, 1, 1, 2, 3, 5))
    return f"{num}/{den}" if den != 1 else str(num)


def _cli_factor_argv(rng, order):
    p = rng.choice((3, 5, 7))
    _, _, f, _ = planted_factors(rng, p, 1, 3)
    argv = ["factor", "--coeffs=" + ",".join(map(str, f)), "--order", str(order), "--json"]
    return argv, {"p": p, "M": order, "degree": len(f) - 1, "ell": 1}


def _cli_request(rng, kind, serial):
    """(argv, expected exit codes, props, stdin) for one CLI request."""
    if kind == "lift_seed":
        p = rng.choice((3, 5, 7, 11, 13))
        d = rng.randint(2, 4)
        r0 = rng.randrange(p)
        f = from_taylor(_simple_taylor(rng, p, d), r0)
        N = rng.randint(2, 8)
        argv = ["lift", "--poly=" + ",".join(map(str, f)), "--prime", str(p), "--seed", str(r0),
                "--precision", str(N), "--json"]
        return argv, (0,), {"p": p, "degree": d, "N": N}, None
    if kind == "lift_scan":
        p = rng.choice(CLI_PRIMES)
        roots = rng.sample(range(-40, 41), rng.randint(1, 3))
        f = [1]
        for a in roots:
            f = pmul(f, [-a, 1])
        N = rng.randint(2, 8)
        argv = ["lift", "--poly=" + ",".join(map(str, f)), "--prime", str(p),
                "--precision", str(N), "--json"]
        return argv, (0,), {"p": p, "degree": len(roots), "N": N}, None
    if kind == "factor":
        argv, props = _cli_factor_argv(rng, rng.randint(2, 6))
        if rng.random() < 0.4:
            ratio = rng.choice((1, 2, -1))
            coeffs = list(map(int, argv[1].split("=")[1].split(",")))
            head = geometric_head(coeffs, ratio)
            if head[1] and head[1] % props["p"] == 0:
                argv[1] = "--coeffs=" + ",".join(map(str, head))
                argv[4:4] = ["--tail", f"geometric:{ratio}"]
        return argv, (0,), props, None
    if kind == "teichmuller":
        p = rng.choice(TEICH_CLI_PRIMES)
        N = rng.randint(1, 8)
        argv = ["teichmuller", "--prime", str(p), "--q", str(rng.randint(1, p - 1)),
                "--precision", str(N), "--json"]
        return argv, (0,), {"p": p, "N": N}, None
    if kind == "bell":
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        xs = ",".join(_rat(rng) for _ in range(rng.randint(1, 4)))
        return ["bell", "--json", "--", str(n), str(k), xs], (0,), {"N": n}, None
    if kind == "invert":
        alphas = ",".join(_rat(rng) for _ in range(rng.randint(1, 6)))
        return ["invert", "--alphas=" + alphas, "--json"], (0,), {}, None
    if kind == "classify":
        f0 = rng.choice((rng.randint(-500, 500), rng.choice((3, 5, 7, 11)) ** rng.randint(1, 5)))
        argv = ["classify", "--f0", str(f0), "--f1", str(rng.randint(-500, 500)), "--json"]
        return argv, (0,), {}, None
    if kind == "composite_prime":
        argv = ["lift", f"--poly={rng.randint(-50, 50)},1,1", "--prime", str(rng.choice(COMPOSITES)),
                "--precision", str(rng.randint(1, 8)), "--json"]
        return argv, (2,), {}, None
    if kind == "bad_poly":
        argv = ["lift", f"--poly={rng.randint(-99, 99)},x,{rng.randint(-99, 99)}", "--prime",
                str(rng.choice(CLI_PRIMES[:50])), "--precision", str(rng.randint(1, 8)), "--json"]
        return argv, (2,), {}, None
    if kind == "teich_out_of_range":
        p = rng.choice(TEICH_CLI_PRIMES)
        q = rng.choice((0, p, p + rng.randint(1, 50), -rng.randint(1, 50)))
        argv = ["teichmuller", "--prime", str(p), f"--q={q}", "--precision",
                str(rng.randint(1, 8)), "--json"]
        return argv, (1,), {"p": p}, None
    if kind == "factor_wrong_shape":
        # a unit, or a constant term with two prime factors: never +p^w
        f0 = rng.choice((6, 10, 12, 15, 21, 35)) * rng.randint(1, 30)
        if rng.random() < 0.125:
            f0 = rng.choice((1, -1))
        coeffs = [f0] + [rng.randint(-9, 9) for _ in range(3)]
        argv = ["factor", "--coeffs=" + ",".join(map(str, coeffs)), "--order",
                str(rng.randint(2, 6)), "--json"]
        return argv, (1,), {}, None
    if kind == "missing_arg":
        argv = ["lift", "--prime", str(rng.choice(CLI_PRIMES)), "--precision", str(rng.randint(1, 8))]
        return argv, (2,), {}, None
    if kind == "verify_wrong_kind":
        payload = json.dumps({"kind": "bell", "value": str(rng.randint(0, 10 ** 9))})
        return ["verify", "--json"], (2,), {}, payload
    if kind == "factor_negative_order":
        argv, props = _cli_factor_argv(rng, -1)
        return argv, (2,), props, None
    if kind == "verify_missing_file":
        return ["verify", "--input", f".bench_out/missing{serial}.json"], (1, 2), {}, None
    if kind == "verify_no_input":
        payload = json.dumps({"kind": "lift", "roots": [], "serial": serial})
        return ["verify", "--json"], (1, 2), {}, payload
    if kind == "teich_precision_zero":
        p = rng.choice(TEICH_CLI_PRIMES)
        argv = ["teichmuller", "--prime", str(p), "--q", str(rng.randint(2, p - 1)),
                "--precision", "0", "--json"]
        return argv, (2,), {"p": p}, None
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def _round_kinds(workload, rnd):
    if workload == "lift":
        return list(LIFT_ROUND)
    if workload == "factor":
        return [spec for spec, count in FACTOR_ROUND for _ in range(count)]
    invalid = [CLI_INVALID[(rnd * CLI_INVALID_PER_ROUND + i) % len(CLI_INVALID)]
               for i in range(CLI_INVALID_PER_ROUND)]
    return list(CLI_VALID) + invalid


def stream(workload, seed):
    """Yield the ops of ``workload`` for ``seed``: same seed, same ops."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    op_id = 0
    for rnd in range(MAX_ROUNDS[workload]):
        kinds = _round_kinds(workload, rnd)
        rng.shuffle(kinds)
        for spec in kinds:
            for _ in range(1000):
                op = _make(workload, rng, spec, op_id)
                # a digest, so that a long run's memory stays flat
                digest = hashlib.blake2b(repr(op.key).encode(), digest_size=16).digest()
                if digest not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}: input space of {spec} exhausted")
            seen.add(digest)
            op.rnd = rnd
            yield op
            op_id += 1
            if workload == "cli" and spec in ("lift_seed", "lift_scan", "factor"):
                yield Op(op_id, "cli", "verify", ("verify", "--json"), ("verify", op.key), (0,),
                         {}, PREV_STDOUT, rnd)
                op_id += 1


def _make(workload, rng, spec, op_id):
    if workload == "lift":
        kind = spec[0]
        args, expect, props = _lift_op(rng, *spec)
        return Op(op_id, workload, kind, args, (kind,) + tuple(map(_freeze, args)), expect, props)
    if workload == "factor":
        args, expect, props = _factor_op(rng, *spec)
        return Op(op_id, workload, "factor", args, ("factor",) + args, expect, props)
    argv, codes, props, stdin = _cli_request(rng, spec, op_id)
    return Op(op_id, workload, spec, tuple(argv), (tuple(argv), stdin), codes, props, stdin)


def defect_probes(seed):
    """One op for each known CLI crasher in ``CLI_DEFECTS``, drawn from ``seed``.

    They run after the timed loop and count apart from it, so that the
    stream holds no op that is known to fail while each defect stays
    visible until it is fixed.  Their op ids are negative.
    """
    rng = random.Random(f"cli-defects:{seed}")
    return [_make("cli", rng, kind, -1 - i) for i, kind in enumerate(CLI_DEFECTS)]


def _freeze(x):
    return tuple(x) if isinstance(x, list) else x


def ops(workload, seed, count):
    """The first ``count`` ops of the stream, as a list."""
    out = []
    for op in stream(workload, seed):
        if len(out) == count:
            break
        out.append(op)
    return out


# ---------------------------------------------------------------------------
# execution and oracles
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What an op produced: ``value`` on success, else ``error``."""

    value: object = None
    error: str | None = None
    stdout: str = ""


def execute(op, prev_stdout=""):
    """Run one op; library errors are returned, not raised."""
    if op.workload == "cli":
        return _execute_cli(op, prev_stdout)
    if op.workload == "factor":
        head, ratio, M = op.args
        si = (factorize.SeriesInput.polynomial(head) if ratio is None
              else factorize.SeriesInput.geometric(head, ratio))
        try:
            return Outcome(factorize.factor(si, M))
        except Exception as exc:
            return Outcome(error=f"{type(exc).__name__}: {exc}")
    fn = {
        "lift_simple": hensel.lift_simple,
        "lift_general": hensel.lift_general,
        "lift_all_planted": hensel.lift_all,
        "lift_all_quadratic": hensel.lift_all,
        "lift_quadratic": hensel.lift_quadratic,
        "lift_cubic": hensel.lift_cubic,
        "lift_sparse": hensel.lift_sparse,
        "teichmuller": hensel.teichmuller,
    }[op.kind]
    try:
        return Outcome(fn(*op.args))
    except Exception as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")


def _execute_cli(op, prev_stdout):
    from padiclift import cli

    stdin = prev_stdout if op.stdin is PREV_STDOUT else (op.stdin or "")
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.args))
    except Exception as exc:  # an uncaught error is a result to count
        return Outcome(("uncaught", type(exc).__name__), stdout=out.getvalue())
    finally:
        sys.stdin = saved
    return Outcome(("exit", code), stdout=out.getvalue())


def check(op, outcome):
    """Oracle verdict: None if right, else what is wrong.

    Ops that were refused (raised, exited with the wrong code, or ran past
    the deadline) get a message starting ``refused:``; the caller counts
    them as failed.  Any other message is a wrong answer from an op that
    reported success.
    """
    if outcome.value is None:
        return f"refused: {outcome.error}"
    if op.workload != "cli":
        return (_check_lift if op.workload == "lift" else _check_factor)(op, outcome.value)
    tag, code = outcome.value
    if tag == "uncaught" or code not in op.expect:
        got = f"uncaught {code}" if tag == "uncaught" else f"exit {code}"
        return f"refused: {got}, expected exit {' or '.join(map(str, op.expect))}"
    if op.kind == "verify" and "verified ok" not in outcome.stdout:
        return "verify round-trip did not confirm the payload"
    return None


def _lift_poly(op):
    if op.kind in ("lift_quadratic", "lift_cubic"):
        return list(op.args[:-3]), op.args[-3], op.args[-2], op.args[-1]
    if op.kind == "lift_sparse":
        a0, a1, al, am, l, m, p, N = op.args
        f = [0] * (m + 1)
        f[0], f[1], f[l], f[m] = a0, a1, al, am
        return f, 0, p, N
    return list(op.args[0]), op.args[1], op.args[2], op.args[3]


def _check_lift(op, value):
    if op.kind == "teichmuller":
        q, p, N = op.args
        want = hensel.teichmuller_oracle(q, p, N).residue
        got = value.residue
        return None if got == want else f"teichmuller residue {got} != oracle {want}"
    f, r0, p, N = _lift_poly(op)
    if op.kind.startswith("lift_all"):
        got = [rep.root.residue for rep in value]
        modulus = p ** N
        for r in got:
            if peval(f, r) % modulus or r % p != r0 % p:
                return f"lift_all root {r} fails f(r) = 0 mod {p}^{N} over seed {r0}"
        if len(set(got)) != len(got):
            return f"lift_all returned a repeated root: {got}"
        what, want = op.expect
        if what == "roots" and sorted(got) != want:
            return f"lift_all roots {sorted(got)} != planted {want}"
        if what == "count" and len(got) != want:
            return f"lift_all found {len(got)} roots, expected {want}"
        return None
    got = value.root.residue
    if op.kind == "lift_general":
        want = newton_from(f, r0, p, N, op.expect)
    else:
        want = hensel.newton_lift(f, r0, p, N).residue
    return None if got == want else f"{op.kind} root {got} != Newton {want}"


def _check_factor(op, pair):
    """A*B = f, and A vanishes at a root of one of the planted factors.

    A is not unique (A*U, B/U is another pair for a unit U with U(0) = 1,
    U'(0) = 0), so A is compared with the planted factor through its root.
    """
    (head, ratio, M), (A, v) = op.args, op.expect
    rep = factorize.verify_factorization(pair.series, pair, M)
    if not rep.passed():
        return f"A*B != f mod x^{M + 1}: {rep.mismatches[:3]}"
    p, ell = pair.p, pair.ell
    root = pair.root.residue          # root of the series A*B, f(scale*x)
    if peval(list(pair.A), root) % p ** (ell * (M + 1)):
        return f"A does not vanish at the root {root}"
    r = root * pair.scale % pair.root.modulus
    modulus = p ** (ell * (M + 2))
    if peval(A, r) % modulus and peval(v, r) % modulus:
        return f"root {r} is a root of neither planted factor"
    return None
