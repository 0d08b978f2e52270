"""Random requests through ``cli.main``, in process: every request exits 0, 1
or 2 without a traceback, every ``--json`` payload of ``lift`` and ``factor``
verifies, and the same payload with one checked field changed does not.

The draws stay inside p <= 13, precision <= 12 and degree <= 5, so the cost is
bounded by the ranges; ``lift`` without ``--seed`` also draws primes past the
scan of ``polys.roots_mod_p`` (503, 1009, 10007), so its split runs too.  They
never draw the four shapes the bench probes as known defects: a negative
``factor --order``, a ``verify --input`` file that is missing, a payload with a
key dropped, and ``teichmuller --precision 0``.  Any request, with junk words,
unknown names, ``-h`` and extra arguments put in, gives what the top-level
parse of the whole argv gives.
"""

import contextlib
import io
import json
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from padiclift import cli, polys
from padiclift.errors import DomainError
from padiclift.hensel import newton_lift

PRIMES = [2, 3, 5, 7, 11, 13]
PRIMES_PAST_THE_SCAN = [503, 1009, 10007]  # lift without --seed only
BIG = 10 ** 1999  # a 2,000-digit value for bell and invert


def run(argv, stdin="", main=None):
    """(exit code, stdout, stderr) of main(argv), cli.main by default, with ``stdin``
    as its input."""
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        rc = (main or cli.main)(argv)
    return rc, out.getvalue(), err.getvalue()


def joined(cs):
    return ",".join(map(str, cs))


@st.composite
def lift_argv(draw):
    p = draw(st.sampled_from(PRIMES + PRIMES_PAST_THE_SCAN))
    f, r = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=6)), None
    if draw(st.sampled_from([True, True, False])):  # plant a root, keeping the degree <= 5
        r = draw(st.integers(-p ** 3, p ** 3))
        f = polys.mul(f[:5], [-r, 1])
    argv = ["lift", "--poly=" + joined(f), "--prime", str(p),
            "--precision", str(draw(st.integers(1, 12)))]
    seed = None if p in PRIMES_PAST_THE_SCAN else draw(
        st.sampled_from([None, None, r, draw(st.integers(-2 * p, 2 * p))]))
    nu, kappa = (draw(st.sampled_from([None, None, None, k]))
                 for k in (draw(st.integers(-1, 6)), draw(st.integers(-1, 3))))
    for flag, value in (("--seed", seed), ("--nu", nu), ("--kappa", kappa)):
        argv += [] if value is None else [flag, str(value)]
    return argv


@st.composite
def factor_argv(draw):
    """A planted (p^ell - x u(x)) v(x), or p^w + p^m g1 x + ... at random, or
    the negative of either, with a zero tail or as c(x) / (1 - R x), a
    geometric tail of ratio R."""
    p, ell = draw(st.sampled_from(PRIMES)), draw(st.sampled_from([1, 2]))
    if draw(st.sampled_from([True, True, False])):
        u = [draw(st.integers(1, p ** ell - 1).filter(lambda k: k % p)),
             *draw(st.lists(st.integers(-4, 4), max_size=1))]
        v = [p ** draw(st.integers(ell, ell + 2)),
             *draw(st.lists(st.integers(-8, 8), min_size=1, max_size=2))]
        f = polys.mul(polys.add([p ** ell], [0] + [-k for k in u]), v)
    else:
        f = [p ** draw(st.integers(0, 6)), p ** draw(st.integers(0, 3)) * draw(st.integers(-9, 9)),
             *draw(st.lists(st.integers(-30, 30), max_size=4))]
    sign = draw(st.sampled_from([1, -1]))  # of f_0
    f = [sign * c for c in f]
    argv = ["factor", "--order", str(draw(st.integers(0, 10)))]
    ratio = draw(st.sampled_from([None, None, 1, -1, 2, -3]))
    if ratio is not None:
        head, prev = [], 0
        for c in f + [0]:
            prev = ratio * prev + c
            head.append(prev)
        f = head
        argv += ["--tail", f"geometric:{ratio}"]
    return argv + ["--coeffs=" + joined(f)]


def plain_rational():
    return st.one_of(st.integers(-50, 50).map(str),
                     st.tuples(st.integers(-50, 50), st.integers(1, 9)).map(lambda t: "%d/%d" % t))


def exponent_rational():
    """A rational in exponent notation, which the parser refuses by its form."""
    return st.builds("{}{}{}".format, st.sampled_from(["1", "-2", "3.5", ".5", "7."]),
                     st.sampled_from("eE"), st.integers(-400, 400))


def rational():
    return st.one_of(plain_rational(), exponent_rational(),
                     st.sampled_from([str(BIG), f"-{BIG}/7", "1/0", "x"]))


@st.composite
def other_argv(draw):
    kind = draw(st.sampled_from(["teichmuller", "bell", "invert", "classify"]))
    if kind == "teichmuller":
        p = draw(st.sampled_from(PRIMES + [1, 4, 9]))
        return [kind, "--prime", str(p), "--q", str(draw(st.integers(-2, p + 2))),
                "--precision", str(draw(st.integers(1, 12)))]
    if kind == "bell":
        n = draw(st.integers(0, 8))
        xs = draw(st.lists(rational(), min_size=1, max_size=4))
        return [kind, "--", str(n), str(draw(st.integers(-1, n + 1))), joined(xs)]
    if kind == "invert":
        return [kind, "--alphas=" + joined(draw(st.lists(rational(), min_size=1, max_size=6)))]
    f0 = draw(st.one_of(st.integers(-10 ** 6, 10 ** 6), st.just(0),
                        st.tuples(st.sampled_from(PRIMES), st.integers(1, 12)).map(lambda t: t[0] ** t[1])))
    f1 = draw(st.one_of(st.integers(-500, 500), st.sampled_from([-1, 1])))
    return [kind, "--f0", str(f0), "--f1", str(f1)]


def refuse_constant(token):
    raise ValueError(f"payload has the bare token {token}, which is not JSON")


def swap_type(value):
    return int(value) if type(value) is str else str(value)


def mutations(payload):
    """(path, edit) pairs, each changing one field that verify reads so that
    no payload survives it; every key stays."""
    if payload["kind"] == "lift":
        edits = [(("input", key), swap_type) for key in ("poly", "prime", "precision")]
        for i, entry in enumerate(payload["roots"]):
            p = entry["root"]["p"]
            edits += [(("roots", i, "residue"), swap_type), (("roots", i, "root", "digits"), swap_type),
                      (("roots", i, "residue"), lambda residue: str(int(residue) + 1))]
            edits += [(("roots", i, "root", "digits", j), lambda d, p=p: (d + 1) % p)
                      for j in range(len(entry["root"]["digits"]))]
        return edits
    edits = [((key,), swap_type) for key in ("A", "B", "effective_coeffs", "p", "w")]
    edits += [(("input", "order"), swap_type)]
    return edits + [((key, j), lambda c: c + 1)
                    for key in ("A", "B", "effective_coeffs") for j in range(len(payload[key]))]


def apply(payload, path, edit):
    *outer, last = path
    for key in outer:
        payload = payload[key]
    payload[last] = edit(payload[last])


def check_simple_roots(payload):
    """Each root with f'(r) a unit mod p is the Newton lift of its residue mod p."""
    f, p, N = (payload["input"][key] for key in ("poly", "prime", "precision"))
    for entry in payload["roots"]:
        r = int(entry["residue"])
        if polys.evaluate(polys.derivative(f), r) % p:
            assert newton_lift(f, r % p, p, N).residue == r


@settings(max_examples=1000)
@given(st.one_of(lift_argv(), factor_argv(), other_argv()), st.sampled_from([True, True, False]),
       st.data())
def test_every_request_exits_0_1_or_2_and_every_payload_verifies(argv, as_json, data):
    if as_json:
        argv = [argv[0], "--json", *argv[1:]]
    rc, out, err = run(argv)
    assert rc in (0, 1, 2)
    assert (rc == 0) == bool(out) and (rc == 0) != bool(err)
    if rc != 0 or not as_json or argv[0] not in ("lift", "factor"):
        return
    assert run(["verify"], out) == (0, "verified ok\n", "")
    payload = json.loads(out, parse_constant=refuse_constant)
    if argv[0] == "lift":
        check_simple_roots(payload)
    apply(payload, *data.draw(st.sampled_from(mutations(payload))))
    rc, out, err = run(["verify"], json.dumps(payload))
    assert rc in (1, 2) and out == "" and err


@given(st.sampled_from(["bell", "invert"]), st.lists(plain_rational(), max_size=3),
       exponent_rational(), st.lists(rational(), max_size=3), st.booleans())
def test_exponent_notation_is_a_usage_error_naming_the_token(kind, before, token, after, as_json):
    xs = joined(before + [token] + after)
    argv = [kind] + ["--json"] * as_json
    argv += ["--", "2", "1", xs] if kind == "bell" else ["--alphas=" + xs]
    assert run(argv) == (2, "", f"usage error: exponent notation is not accepted, got {token!r}\n")


@given(st.sampled_from([-1, 1]), st.lists(st.integers(-9, 9), max_size=3), st.booleans())
def test_x_times_a_unit_is_irreducible_and_factor_refuses_it(f1, tail, as_json):
    argv = ["classify"] + ["--json"] * as_json + ["--f0", "0", "--f1", str(f1)]
    rc, out, err = run(argv)
    assert (rc, err) == (0, "")
    assert (json.loads(out)["classification"] if as_json else out.strip()) == "IrreducibleXTimesUnit"
    assert run(["factor", "--order", "4", "--coeffs=" + joined([0, f1, *tail])]) == (
        1, "", "error: WrongShape: classification is IrreducibleXTimesUnit, not NeedsRootAnalysis\n")


def reference_main(argv):
    """cli.main with every request read by the top-level parser, once main has built it."""
    try:
        args = cli._parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except cli.UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


# words put anywhere in a request: options of no parser, of the top level, of
# another subcommand, unknown names, subcommand names, extra arguments
JUNK = ["-h", "--help", "--json", "--", "-", "extra", "7", "--nope", "--prime", "--f0=3",
        "lif", "Lift", "lift", "classify", "verify", "", "help"]


@settings(max_examples=400)
@given(st.one_of(lift_argv(), factor_argv(), other_argv(), st.just([])),
       st.lists(st.tuples(st.integers(0, 12), st.sampled_from(JUNK)), max_size=3))
def test_main_answers_as_the_top_level_parse_does(argv, junk):
    for at, word in junk:
        argv.insert(min(at, len(argv)), word)
    assert run(argv) == run(argv, main=reference_main)
