"""Command-line front end: lift, factor, teichmuller, bell, invert, classify.

Exit codes: 0 on success, 1 on a domain error (bad seed, no root, ...),
2 on usage errors.  ``--json`` switches every subcommand to a
machine-readable payload with sorted keys, so identical invocations give
byte-identical output.  The hidden ``verify`` subcommand re-checks a
previously emitted JSON payload (root residual / factor product) and is
what CI uses for round-trip testing; a field of the wrong type is a usage error.

:func:`main` builds its argument parser once per process, on its first call,
and hands a request whose first word names a subcommand straight to that
subcommand's parser; the top-level parser reads only the other requests (none,
``-h``, an unknown name, an option first), with the same messages either way.
``lift`` without ``--seed`` seeds from :func:`polys.roots_mod_p` of f over
its p-content, as every node of the root tree does, at any p.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from fractions import Fraction

from . import factorize, hensel, polys
from .bell import bell
from .bigmath import INFINITY, is_prime, vp
from .errors import DomainError
from .padic import PadicInt
from .series import lagrange_invert


class UsageError(Exception):
    pass


def _parse_int_list(s: str) -> list[int]:
    try:
        return [int(tok.strip()) for tok in s.split(",")]
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {s!r}") from exc


def _parse_rat_list(s: str) -> list[Fraction]:
    toks = [tok.strip() for tok in s.split(",")]
    if exp := next((tok for tok in toks if re.search(r"[\d.][eE]", tok)), None):
        raise UsageError(f"exponent notation is not accepted, got {exp!r}")  # 1e9 builds 10^9
    try:
        return [Fraction(tok) for tok in toks]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"expected comma-separated rationals, got {s!r}") from exc


def _require_prime(p: int) -> int:
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    return p


def _require_printable(p: int, N: int) -> None:
    """Refuse N if p^N, of floor(N log10 p) + 1 digits, has more than the L str() prints;
    p ** N is computed only where N log10 p is within 1e-9 L of L: about L digits."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    excess = N * math.log10(p) - limit
    if limit and (p ** N >= 10 ** limit if abs(excess) < 1e-9 * limit else excess >= 0):
        raise UsageError(f"--precision {N} is too large: residues mod {p}^{N} may have "
                         f"more than {limit} decimal digits, the most Python prints")


def _text(form: str, *numbers) -> str:
    try:  # str() refuses an int of more than sys.get_int_max_str_digits() digits
        return form.format(*numbers)
    except ValueError:
        raise UsageError(f"a number to print has more than {sys.get_int_max_str_digits()} "
                         "decimal digits, the most Python prints") from None


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _valuation_json(v):
    """A valuation for a payload: INFINITY, a float, as the string "INFINITY"."""
    return "INFINITY" if v is INFINITY else v


def _report_json(rep: hensel.LiftReport) -> dict:
    return {
        "root": rep.root.to_json(),
        "residue": str(rep.root.residue),
        "terms_used": rep.terms_used,
        "residual_valuation": _valuation_json(rep.residual_valuation),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_lift(args) -> int:
    f = _parse_int_list(args.poly)
    p = _require_prime(args.prime)
    N = args.precision
    if N < 1:
        raise UsageError("precision must be >= 1")
    _require_printable(p, N)
    if args.seed is not None:
        seeds = [args.seed]
    elif not any(f):
        raise hensel.ZeroPolynomial("f = 0: every element of Z_p is a root")
    else:
        v = vp(polys.content(f), p)
        if not (seeds := polys.roots_mod_p([c // p ** v for c in f], p)):
            raise hensel.NotARootModP(f"f / {p}^{v} has no roots mod {p}" if v
                                      else f"f has no roots mod {p}")
    reports = []
    for r0 in seeds:
        if args.nu is not None or args.kappa is not None:
            reports.append(hensel.lift_general(f, r0, p, N, nu=args.nu, kappa=args.kappa))
        else:
            reports.extend(hensel.lift_all(f, r0, p, N))
    payload = {
        "input": {"poly": f, "prime": p, "precision": N},
        "kind": "lift",
        "roots": [_report_json(rep) for rep in reports],
    }
    lines = []
    if not reports:
        classes = ", ".join(str(r % p) for r in seeds)
        lines.append(f"no root in Z_{p} lies over the seeds {classes} mod {p}")
    for rep in reports:
        lines.append(f"root = {rep.root}")
        lines.append(f"  residue {rep.root.residue} mod {p}^{N}, "
                     f"{rep.terms_used} series terms, residual valuation "
                     f"{rep.residual_valuation}")
    _emit(args, payload, "\n".join(lines))
    return 0


def _parse_tail(spec: str):
    if spec == "zero":
        return None
    if spec.startswith("geometric:"):
        try:
            return int(spec.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad tail ratio in {spec!r}") from exc
    raise UsageError(f"--tail must be 'zero' or 'geometric:R', got {spec!r}")


def _cmd_factor(args) -> int:
    coeffs = _parse_int_list(args.coeffs)
    ratio = _parse_tail(args.tail)
    si = factorize.SeriesInput(tuple(coeffs), ratio)
    pair = factorize.factor(si, args.order)
    payload = {
        "input": {"coeffs": coeffs, "tail_ratio": ratio, "order": args.order},
        "kind": "factor",
        "p": pair.p,
        "w": pair.w,
        "m": _valuation_json(pair.m),
        "ell": pair.ell,
        "scale": pair.scale,
        "effective_coeffs": [pair.series.coeff(j) for j in range(args.order + 1)],
        "A": list(pair.A),
        "B": list(pair.B),
        "root": pair.root.to_json(),
        "root_digits": list(pair.digits.digits),
        "checks": {k: v for k, v in vars(pair.checks).items()},
    }
    human = "\n".join([
        f"f = {'-' if coeffs[0] < 0 else ''}p^w + p^m*g1*x + ...  with p={pair.p} w={pair.w} m={pair.m}, root valuation ell={pair.ell}",
        f"A = {list(pair.A)}",
        f"B = {list(pair.B)}",
        f"checks: all passed = {pair.checks.all_passed()}",
    ])
    _emit(args, payload, human)
    return 0


def _cmd_teichmuller(args) -> int:
    p = _require_prime(args.prime)
    _require_printable(p, args.precision)
    xi = hensel.teichmuller(args.q, p, args.precision)
    payload = {
        "input": {"prime": p, "q": args.q, "precision": args.precision},
        "kind": "teichmuller",
        "root": xi.to_json(),
        "residue": str(xi.residue),
    }
    _emit(args, payload, f"xi_{args.q} = {xi}\n  residue {xi.residue} mod {p}^{args.precision}")
    return 0


def _cmd_bell(args) -> int:
    xs = _parse_rat_list(args.xs)
    val = _text("{}", bell(args.n, args.k, xs))
    payload = {
        "input": {"n": args.n, "k": args.k, "xs": [_text("{}", x) for x in xs]},
        "kind": "bell",
        "value": val,
    }
    _emit(args, payload, val)
    return 0


def _cmd_invert(args) -> int:
    alphas = _parse_rat_list(args.alphas)
    payload = {
        "input": {"alphas": [_text("{}", a) for a in alphas]},
        "kind": "invert",
        "betas": [_text("{}/{}", b.numerator, b.denominator) for b in lagrange_invert(alphas)],
    }
    _emit(args, payload, json.dumps(payload["betas"]))
    return 0


def _cmd_classify(args) -> int:
    cls = factorize.classify(args.f0, args.f1)
    payload = {
        "input": {"f0": args.f0, "f1": args.f1},
        "kind": "classify",
        "classification": cls.kind,
    }
    if cls.kind == factorize.NEEDS_ROOT_ANALYSIS:
        payload.update({"p": cls.p, "w": cls.w, "m": _valuation_json(cls.m)})
    elif cls.p is not None:
        payload.update({"p": cls.p, "w": cls.w})
    _emit(args, payload, str(cls))
    return 0


_FIELD_KINDS = {
    "an object": lambda v: type(v) is dict,
    "a non-negative integer": lambda v: type(v) is int and v >= 0,
    "a positive integer": lambda v: type(v) is int and v > 0,
    "a decimal string": lambda v: type(v) is str and v.isdecimal(),
    "a list of integers": lambda v: type(v) is list and all(type(c) is int for c in v),
    "a non-empty list of integers": lambda v: v != [] and _FIELD_KINDS["a list of integers"](v),
    "a list of objects": lambda v: type(v) is list and all(type(c) is dict for c in v),
}


def _field(obj: dict, key: str, kind: str):
    """obj[key] if it is ``kind``, else a usage error; a missing key stays a KeyError."""
    value = obj[key]
    if not _FIELD_KINDS[kind](value):
        raise UsageError(f"payload field {key!r} must be {kind}, got {value!r:.60}")
    return value


def _verify_lift(payload) -> list[str]:
    problems = []
    inp = _field(payload, "input", "an object")
    f = _field(inp, "poly", "a list of integers")
    p = _require_prime(_field(inp, "prime", "a positive integer"))
    N = _field(inp, "precision", "a positive integer")
    for entry in _field(payload, "roots", "a list of objects"):
        root = _field(entry, "root", "an object")
        rp, rN, digits = (_field(root, key, kind) for key, kind in (
            ("p", "a positive integer"), ("precision", "a positive integer"),
            ("digits", "a list of integers")))
        if len(digits) != rN or min(digits) < 0 or max(digits) >= rp:
            raise UsageError(f"payload field 'digits' must be {rN} base-{rp} digits, "
                             f"got {digits!r:.60}")
        if (rp, rN) != (p, N):
            problems.append(f"root is given mod {rp}^{rN}, not mod {p}^{N}")
            continue
        root = PadicInt.from_json(root)
        residue = _field(entry, "residue", "a decimal string")
        try:
            residue = int(residue)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise UsageError(f"payload field 'residue' has {len(residue)} digits, "
                             "more than an integer string may have") from None
        if root.residue != residue:
            problems.append(f"digit vector does not reconstruct residue {entry['residue']}")
        if hensel.residual_valuation(f, root.residue, p) < N:
            problems.append(f"f({root.residue}) != 0 mod {p}^{N}")
    return problems


def _verify_factor(payload) -> list[str]:
    A, B = (_field(payload, key, "a non-empty list of integers") for key in ("A", "B"))
    f = _field(payload, "effective_coeffs", "a list of integers")
    order = _field(_field(payload, "input", "an object"), "order", "a non-negative integer")
    p, w = _field(payload, "p", "a positive integer"), _field(payload, "w", "a non-negative integer")
    # both sides are 0 past the last listed coefficient, and p^w >= 2^(w (bits(p) - 1))
    # exceeds |A(0) B(0)| once that exponent reaches its bit length: None matches no
    # constant; the product at x^0 ties the sign of A(0) B(0) to f_0
    order = min(order, max(len(A) + len(B) - 2, len(f) - 1))
    c = A[0] * B[0]
    constant = (None if w * (p.bit_length() - 1) >= c.bit_length()
                else -p ** w if c < 0 else p ** w)
    rep = factorize.check_product(A, B, f, order, constant)
    problems = [f"(A*B)[{j}] = {lhs} != f[{j}] = {rhs}" for j, lhs, rhs in rep.mismatches]
    if not rep.constant_ok:
        problems.append("A(0)*B(0) != p^w")
    return problems


def _cmd_verify(args) -> int:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        with open(args.input) as fh:
            raw = fh.read()
    try:
        payload = json.loads(raw)
    except ValueError as exc:
        raise UsageError(f"payload is not valid JSON: {exc}") from exc
    if type(payload) is not dict:
        raise UsageError(f"payload is not a JSON object, got {payload!r:.60}")
    kind = payload.get("kind")
    if kind == "lift":
        problems = _verify_lift(payload)
    elif kind == "factor":
        problems = _verify_factor(payload)
    else:
        raise UsageError(f"cannot verify payload of kind {kind!r}")
    if problems:
        for msg in problems:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    print("verified ok")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="padiclift",
        description="Hensel lifts, Teichmuller lifts, Bell polynomials, series "
                    "inversion, and Z[[x]] factorization in exact arithmetic.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("lift", help="lift a root mod p to a root mod p^N")
    sp.add_argument("--poly", required=True, help="coefficients, constant first, e.g. 1,11,-5")
    sp.add_argument("--prime", required=True, type=int)
    sp.add_argument("--seed", type=int, help="seed root r0 (default: every root of f mod p)")
    sp.add_argument("--precision", required=True, type=int)
    sp.add_argument("--nu", type=int, help="explicit congruence depth (with --kappa)")
    sp.add_argument("--kappa", type=int, help="explicit derivative valuation (with --nu)")
    common(sp)
    sp.set_defaults(func=_cmd_lift)

    sp = sub.add_parser("factor", help="factor p^w + p^m*g1*x + ... over Z[[x]]")
    sp.add_argument("--coeffs", required=True, help="coefficients, constant first")
    sp.add_argument("--order", required=True, type=int, help="truncation order M")
    sp.add_argument("--tail", default="zero", help="'zero' or 'geometric:R'")
    common(sp)
    sp.set_defaults(func=_cmd_factor)

    sp = sub.add_parser("teichmuller", help="the (p-1)-st root of unity over a residue")
    sp.add_argument("--prime", required=True, type=int)
    sp.add_argument("--q", required=True, type=int)
    sp.add_argument("--precision", required=True, type=int)
    common(sp)
    sp.set_defaults(func=_cmd_teichmuller)

    sp = sub.add_parser("bell", help="partial Bell polynomial B(n,k) on a sequence")
    sp.add_argument("n", type=int)
    sp.add_argument("k", type=int)
    sp.add_argument("xs", help="x1,x2,... (rationals allowed: 1/2,3,...)")
    common(sp)
    sp.set_defaults(func=_cmd_bell)

    sp = sub.add_parser("invert", help="Lagrange inversion of t(1 + sum alpha_r t^r/r!)")
    sp.add_argument("--alphas", required=True, help="alpha_1,alpha_2,...")
    common(sp)
    sp.set_defaults(func=_cmd_invert)

    sp = sub.add_parser("classify", help="Z[[x]] reducibility case of (f0, f1)")
    sp.add_argument("--f0", required=True, type=int)
    sp.add_argument("--f1", required=True, type=int)
    common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("verify")  # hidden round-trip checker for CI
    sp.add_argument("--input", default="-", help="JSON payload file, or - for stdin")
    common(sp)
    sp.set_defaults(func=_cmd_verify)

    ap.commands = sub.choices  # the subcommand parsers by name, for main
    return ap


_parser = None  # built by the first call of main, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _parser.commands.get(argv[0]) if argv else None
    try:
        if sub is None:
            args = _parser.parse_args(argv)
        else:  # the top-level parse would hand argv[1:] to sub and refuse what it leaves
            args, extra = sub.parse_known_args(argv[1:])
            if extra:
                _parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
