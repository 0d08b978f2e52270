import gc
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from padiclift import cli
from padiclift.cli import main
from padiclift.hensel import teichmuller_oracle


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_lift_json(capsys):
    rc, out, _ = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                     "--seed", "1", "--precision", "3", "--json")
    assert rc == 0
    payload = json.loads(out)
    (entry,) = payload["roots"]
    assert entry["residue"] == "239"
    assert entry["root"]["digits"] == [1, 6, 4]
    assert payload["input"] == {"poly": [1, 11, -5], "prime": 7, "precision": 3}


def test_lift_returns_a_repeated_root(capsys, evaluation_budget):
    # x^2 over Z_7: every class of the double root 0 stays a root mod 7^d
    evaluation_budget(300)
    rc, out, _ = run(capsys, "lift", "--poly", "0,0,1", "--prime", "7",
                     "--precision", "3", "--json")
    assert rc == 0
    assert [entry["residue"] for entry in json.loads(out)["roots"]] == ["0"]


def test_lift_returns_the_root_of_a_square(capsys, evaluation_budget):
    # (1 + x)^2 over Z_3: -1 = 26 mod 27, a root of multiplicity 2
    evaluation_budget(300)
    rc, out, _ = run(capsys, "lift", "--poly", "1,2,1", "--prime", "3", "--precision", "3")
    assert rc == 0
    assert "residue 26 mod 3^3" in out


def test_lift_scan_at_a_large_prime_splits_instead_of_scanning(capsys, evaluation_budget):
    evaluation_budget(300)
    rc, out, _ = run(capsys, "lift", "--poly=-2,0,1", "--prime", "999983",
                     "--precision", "5", "--json")
    roots = [int(entry["residue"]) for entry in json.loads(out)["roots"]]
    assert rc == 0 and len(roots) == 2
    assert all((r * r - 2) % 999983 ** 5 == 0 for r in roots)


def test_lift_seeds_come_from_f_over_its_p_content(capsys, evaluation_budget):
    # 999983 (1 + x) = 0 mod p, yet its one root -1 is found at once
    evaluation_budget(50)
    rc, out, _ = run(capsys, "lift", "--poly=999983,999983", "--prime", "999983",
                     "--precision", "2", "--json")
    assert rc == 0
    assert [entry["residue"] for entry in json.loads(out)["roots"]] == ["999966000288"]


def test_lift_without_seed_takes_any_prime(capsys, evaluation_budget):
    evaluation_budget(50)
    rc, out, _ = run(capsys, "lift", "--poly=2,-3,1", "--prime", "1000003",
                     "--precision", "3", "--json")
    assert rc == 0
    assert [entry["residue"] for entry in json.loads(out)["roots"]] == ["1", "2"]


def test_main_builds_its_parser_once(capsys, monkeypatch):
    build, read, built, reads, parses = cli.build_parser, cli._read, [], [], []

    def owner(sub):
        return next(i for i, parser in enumerate(built) if sub in parser.commands.values())

    def counting():
        parser = build()
        classify = parser.commands["classify"]
        parse = classify.parse_known_args

        def recording(*args):
            parses.append(owner(classify))
            return parse(*args)

        monkeypatch.setattr(classify, "parse_known_args", recording)
        built.append(parser)
        return parser

    def reading(sub, argv):
        reads.append(owner(sub))
        return read(sub, argv)

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_read", reading)
    assert run(capsys, "classify", "--f0", "9", "--f1", "3")[0] == 0
    assert run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7")[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "bell", "3", "2", "1,1,1")[0] == 0
    assert len(built) == 1
    # a reset parser is rebuilt, and its own subcommand parsers read the requests
    monkeypatch.setattr(cli, "_parser", None)
    assert run(capsys, "classify", "--f0", "9", "--f1", "3")[0] == 0
    assert run(capsys, "classify", "--f0", "9", "--f1", "3", "extra")[0] == 2
    assert len(built) == 2 and cli._parser is built[1]
    assert reads == [0, 0, 0, 1, 1] and parses == [1]


# a request of each subcommand that its table reads, with every option that takes a value
WELL_FORMED = [
    ["lift", "--poly=1,11,-5", "--prime", "7", "--seed", "1", "--precision", "3", "--nu", "1",
     "--kappa", "0", "--json"],
    ["factor", "--coeffs", "9,12,7,8", "--order=6", "--tail", "geometric:1", "--json"],
    ["teichmuller", "--prime", "5", "--q", "2", "--precision", "2"],
    ["bell", "3", "--json", "2", "1,1/2"],
    ["invert", "--alphas=-1,0"],
    ["classify", "--f0", "-9", "--f1", "3"],
    ["verify", "--input", "payload.json"],
]


def test_a_well_formed_request_skips_argparse(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert main(["factor", "--coeffs=9,12,7,8", "--order=6", "--tail=geometric:1", "--json"]) == 0
    (tmp_path / "payload.json").write_text(capsys.readouterr().out)
    entered = []

    def entering(name, parse):
        return lambda *args: entered.append(name) or parse(*args)

    for name, sub in cli._parser.commands.items():
        monkeypatch.setattr(sub, "parse_known_args", entering(name, sub.parse_known_args))
    for argv in WELL_FORMED:
        assert run(capsys, *argv)[0] == 0, argv
    assert entered == []
    # --, an abbreviation, -h, a missing option, a value its type refuses
    for argv, rc in ((["bell", "--", "3", "2", "1"], 0), (["invert", "--alph=1,0"], 0),
                     (["classify", "-h"], 0), (["lift", "--prime", "7", "--precision", "3"], 2),
                     (["teichmuller", "--prime", "5", "--q", "x", "--precision", "2"], 2)):
        assert run(capsys, *argv)[0] == rc, argv
    assert entered == ["bell", "invert", "classify", "lift", "teichmuller"]


@pytest.mark.parametrize("argv", WELL_FORMED, ids=[argv[0] for argv in WELL_FORMED])
def test_an_option_given_as_double_dash_is_a_usage_error(capsys, argv):
    # argparse 3.11 reads --opt=-- as [], which once reached the subcommand as a list
    sub = cli._parser.commands[argv[0]]
    for i, word in enumerate(argv):
        name, eq, _ = word.partition("=")
        if name not in sub.options or sub.options[name].nargs == 0:
            continue
        request = argv[:i] + [name + "=--"] + argv[i + 1 + (not eq):]
        assert run(capsys, *request) == (
            2, "", f"usage error: argument {name}: expected one value, got none\n"), request
    assert run(capsys, "bell", "--", "3", "2", "--") == (
        2, "", "usage error: argument xs: expected one value, got none\n")


def test_a_request_naming_a_subcommand_skips_the_top_level_parse(capsys, monkeypatch):
    # the top-level parse would only hand argv[1:] to the subcommand's parser
    main(["classify", "--f0", "9", "--f1", "3"])
    capsys.readouterr()
    entered = []
    parse = cli._parser.parse_known_args
    monkeypatch.setattr(cli._parser, "parse_known_args",
                        lambda *args: entered.append(args) or parse(*args))
    for argv, rc in ((["lift", "--poly", "1,11,-5", "--prime", "7", "--precision", "3"], 0),
                     (["lift", "--poly", "1,11,-5", "--prime", "x", "--precision", "3"], 2),
                     (["classify", "--f0", "9", "--f1", "3", "extra"], 2),
                     (["teichmuller", "--prime", "5", "--q", "2", "--precision", "0"], 1),
                     (["bell", "-h"], 0)):
        assert run(capsys, *argv)[0] == rc
    assert entered == []
    for argv in ([], ["-h"], ["frobnicate"], ["--json", "classify", "--f0", "9", "--f1", "3"]):
        run(capsys, *argv)
    assert len(entered) == 4


def test_lift_with_no_root_over_the_seeds_says_so(capsys):
    argv = ("lift", "--poly", "1,0,1", "--prime", "2", "--precision", "3")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert out == "no root in Z_2 lies over the seeds 1 mod 2\n"
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0
    assert json.loads(out)["roots"] == []


def test_lift_scan_mode(capsys):
    rc, out, _ = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                     "--precision", "2", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert sorted(int(e["residue"]) % 7 for e in payload["roots"]) == [1, 4]


def test_lift_double_seed_refines(capsys):
    rc, out, _ = run(capsys, "lift", "--poly", "17,6,2", "--prime", "5",
                     "--seed", "1", "--precision", "10", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert sorted(int(e["residue"]) % 25 for e in payload["roots"]) == [6, 16]


def test_teichmuller(capsys):
    rc, out, _ = run(capsys, "teichmuller", "--prime", "5", "--q", "2",
                     "--precision", "2", "--json")
    assert rc == 0
    assert json.loads(out)["residue"] == "7"


def test_teichmuller_at_a_large_prime(capsys):
    rc, out, _ = run(capsys, "teichmuller", "--prime", "1000003", "--q", "123456",
                     "--precision", "4", "--json")
    assert rc == 0
    want = teichmuller_oracle(123456, 1000003, 4).residue
    assert json.loads(out)["residue"] == str(want)


def test_teichmuller_at_the_largest_printable_precision(capsys):
    # 1000003^716 has 4296 digits, the most --precision prints at this prime;
    # the residue is checked as a root of unity here, not against the oracle
    p, N = 1000003, 716
    rc, out, _ = run(capsys, "teichmuller", "--prime", str(p), "--q", "2",
                     "--precision", str(N), "--json")
    assert rc == 0
    xi = int(json.loads(out)["residue"])
    assert xi % p == 2 and pow(xi, p - 1, p ** N) == 1


def test_teichmuller_refuses_precision_zero(capsys):
    rc, out, err = run(capsys, "teichmuller", "--prime", "5", "--q", "1", "--precision", "0")
    assert rc == 1 and out == ""
    assert "OutOfRange" in err and "Traceback" not in err


def test_classify(capsys):
    rc, out, _ = run(capsys, "classify", "--f0", "9", "--f1", "12")
    assert rc == 0
    assert out.strip() == "NeedsRootAnalysis p=3 w=2 m=1"


def test_bell(capsys):
    rc, out, _ = run(capsys, "bell", "4", "2", "1,1,1")
    assert rc == 0
    assert out.strip() == "7"
    rc, out, _ = run(capsys, "bell", "3", "2", "1/2,1/3")
    assert rc == 0
    assert out.strip() == "1/2"


def test_invert(capsys):
    rc, out, _ = run(capsys, "invert", "--alphas", "1,0,0,0", "--json")
    assert rc == 0
    assert json.loads(out)["betas"] == ["-1/1", "4/1", "-30/1", "336/1"]


def test_factor_json(capsys):
    rc, out, _ = run(capsys, "factor", "--coeffs", "9,12,7,8", "--order", "10",
                     "--tail", "geometric:1", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["A"] == [3, -1] + [0] * 9
    assert payload["B"] == [3, 5] + [4] * 9
    assert payload["ell"] == 1
    assert all(payload["checks"].values())


def strict_json(text):
    """json.loads that refuses the bare tokens Infinity, -Infinity and NaN."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("coeffs, header, m", [
    ("-8,2,1", "f = -p^w + p^m*g1*x + ...  with p=2 w=3 m=1, root valuation ell=1", 1),
    ("9,0,-1", "f = p^w + p^m*g1*x + ...  with p=3 w=2 m=INFINITY, root valuation ell=1",
     "INFINITY"),
], ids=["negative-constant", "no-linear-term"])
def test_negative_constant_and_zero_linear_term_payloads_are_strict_json_and_verify(
        capsys, monkeypatch, coeffs, header, m):
    argv = ("factor", "--coeffs=" + coeffs, "--order", "3")
    rc, out, _ = run(capsys, *argv)
    assert rc == 0 and out.splitlines()[0] == header
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0 and strict_json(out)["m"] == m
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run(capsys, "verify") == (0, "verified ok\n", "")


def test_determinism(capsys):
    args = ("factor", "--coeffs", "9,12,7,8", "--order", "8",
            "--tail", "geometric:1", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_exit_codes(capsys):
    rc, _, err = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                     "--seed", "2", "--precision", "3")
    assert rc == 1 and "NotARootModP" in err
    rc, _, err = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "8",
                     "--seed", "1", "--precision", "3")
    assert rc == 2
    rc, _, _ = run(capsys, "nonsense")
    assert rc == 2
    rc, _, err = run(capsys, "factor", "--coeffs", "9,12,7", "--order", "6")
    assert rc == 1 and "NoSuitableRoot" in err


def test_malformed_inputs_are_usage_errors(capsys):
    rc, _, _ = run(capsys, "lift", "--poly", "1,x,3", "--prime", "7",
                   "--seed", "1", "--precision", "3")
    assert rc == 2
    rc, _, _ = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                   "--seed", "1", "--precision", "0")
    assert rc == 2
    rc, _, _ = run(capsys, "factor", "--coeffs", "9,12,7,8", "--order", "6",
                   "--tail", "geometric:x")
    assert rc == 2
    rc, _, _ = run(capsys, "factor", "--coeffs", "9,12,7,8", "--order", "6",
                   "--tail", "arithmetic")
    assert rc == 2
    rc, _, _ = run(capsys, "bell", "3", "2", "1,1/0")
    assert rc == 2


def test_verify_roundtrip_lift(capsys, tmp_path, monkeypatch):
    rc, out, _ = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                     "--seed", "1", "--precision", "40", "--json")
    path = tmp_path / "lift.json"
    path.write_text(out)
    rc, out2, _ = run(capsys, "verify", "--input", str(path))
    assert rc == 0 and "verified ok" in out2


def test_verify_roundtrip_factor(capsys, tmp_path):
    rc, out, _ = run(capsys, "factor", "--coeffs", "9,12,7,8", "--order", "10",
                     "--tail", "geometric:1", "--json")
    path = tmp_path / "factor.json"
    path.write_text(out)
    rc, out2, _ = run(capsys, "verify", "--input", str(path))
    assert rc == 0 and "verified ok" in out2


def test_verify_catches_corruption(capsys, tmp_path):
    rc, out, _ = run(capsys, "factor", "--coeffs", "9,12,7,8", "--order", "6",
                     "--tail", "geometric:1", "--json")
    payload = json.loads(out)
    payload["B"][2] += 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    rc, _, err = run(capsys, "verify", "--input", str(path))
    assert rc == 1 and "FAIL" in err


def test_verify_closes_its_input_file(capsys, tmp_path):
    rc, out, _ = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                     "--seed", "1", "--precision", "3", "--json")
    path = tmp_path / "lift.json"
    path.write_text(out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out2, _ = run(capsys, "verify", "--input", str(path))
        gc.collect()
    assert rc == 0 and "verified ok" in out2
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_invalid_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "lift", ')
    rc, _, err = run(capsys, "verify", "--input", str(path))
    assert rc == 2 and "not valid JSON" in err


def test_verify_lift_needs_a_prime(capsys, tmp_path):
    rc, out, _ = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                     "--seed", "1", "--precision", "3", "--json")
    payload = json.loads(out)
    payload["input"]["prime"] = 4
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(payload))
    rc, _, err = run(capsys, "verify", "--input", str(path))
    assert rc == 2 and "not prime" in err


def test_verify_factor_needs_a_prime(capsys, tmp_path):
    # A = [3, -1] and B = [3, 1] still multiply to 9 - x^2 = 9^1 + ..., yet 9 is no prime
    rc, out, err = verify_edited(capsys, tmp_path, ("factor", "--coeffs=9,0,-1", "--order", "3"),
                                 lambda payload: payload.update(p=9, w=1))
    assert (rc, out, err) == (2, "", "usage error: 9 is not prime\n")


@pytest.mark.parametrize("edit, field", [
    (lambda payload: [payload], "payload"),
    (lambda payload: payload["input"].update(prime="7"), "'prime'"),
    (lambda payload: payload["input"].update(poly="1,11,-5"), "'poly'"),
    (lambda payload: payload["input"].update(precision=0), "'precision'"),
    (lambda payload: payload["roots"][0]["root"].update(digits="164"), "'digits'"),
], ids=["not-an-object", "prime-a-string", "poly-a-string", "precision-zero", "digits-a-string"])
def test_verify_lift_names_a_field_of_the_wrong_type(capsys, tmp_path, edit, field):
    rc, out, _ = run(capsys, "lift", "--poly", "1,11,-5", "--prime", "7",
                     "--seed", "1", "--precision", "3", "--json")
    payload = json.loads(out)
    payload = edit(payload) or payload
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "verify", "--input", str(path))
    assert rc == 2 and field in err and not out


@pytest.mark.parametrize("edit, field", [
    (lambda payload: payload["input"].update(order="6"), "'order'"),
    (lambda payload: payload["input"].update(order=-1), "'order'"),
    (lambda payload: payload.update(B=[9, 3.5]), "'B'"),
], ids=["order-a-string", "order-negative", "B-not-integers"])
def test_verify_factor_names_a_field_of_the_wrong_type(capsys, tmp_path, edit, field):
    rc, out, _ = run(capsys, "factor", "--coeffs", "9,12,7,8", "--order", "6",
                     "--tail", "geometric:1", "--json")
    payload = json.loads(out)
    edit(payload)
    path = tmp_path / "factor.json"
    path.write_text(json.dumps(payload))
    rc, out, err = run(capsys, "verify", "--input", str(path))
    assert rc == 2 and field in err and not out


def test_python_dash_m_padiclift_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "padiclift", *argv], env=env,
                              capture_output=True, text=True, timeout=30)

    proc = run_module("classify", "--f0", "9", "--f1", "12", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"] == "NeedsRootAnalysis"
    proc = run_module("teichmuller", "--prime", "4", "--q", "2", "--precision", "3")
    assert proc.returncode == 2 and "not prime" in proc.stderr


@pytest.mark.parametrize("poly", ["0", "0,0"])
def test_zero_polynomial_is_refused_promptly(poly):
    # every element is a root: without the guard the seed classes grow
    # without bound, so this runs in its own process under a timeout
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "padiclift.cli", "lift", "--poly", poly, "--prime", "5",
         "--precision", "3"], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1
    assert "ZeroPolynomial" in proc.stderr and "every element" in proc.stderr


def test_factor_takes_no_prime_option(capsys):
    # factor reads p from the constant term, so --prime is an unknown option
    args = ("factor", "--coeffs", "9,12,7,8", "--order", "6", "--tail", "geometric:1", "--json")
    assert run(capsys, *args)[0] == 0
    rc, out, err = run(capsys, *args, "--prime", "3")
    assert rc == 2 and not out and "unrecognized arguments: --prime 3" in err


def verify_edited(capsys, tmp_path, argv, edit):
    """verify on the --json payload of argv after edit(payload)."""
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0
    payload = json.loads(out)
    edit(payload)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    return run(capsys, "verify", "--input", str(path))


LIFT_ARGV = ("lift", "--poly", "1,11,-5", "--prime", "7", "--seed", "1", "--precision", "3")
FACTOR_ARGV = ("factor", "--coeffs", "9,12,7,8", "--order", "6", "--tail", "geometric:1")


def set_root(payload, digits, residue):
    entry = payload["roots"][0]
    entry["root"]["digits"], entry["residue"] = digits, residue


@pytest.mark.parametrize("argv, edit, line", [
    # the digits [1, 6, 4] give 239
    (LIFT_ARGV, lambda payload: set_root(payload, [1, 6, 4], "240"),
     "FAIL: digit vector does not reconstruct residue 240"),
    (LIFT_ARGV, lambda payload: set_root(payload, [1, 6, 5], "288"),
     "FAIL: f(288) != 0 mod 7^3"),
    (FACTOR_ARGV, lambda payload: payload.update(w=3), "FAIL: A(0)*B(0) != p^w"),
], ids=["residue", "residual", "constant"])
def test_verify_names_each_failed_check(capsys, tmp_path, argv, edit, line):
    rc, out, err = verify_edited(capsys, tmp_path, argv, edit)
    assert rc == 1 and not out and err == line + "\n"


@pytest.mark.parametrize("root, line", [
    ({"p": 2, "precision": 12, "digits": [1, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0]},  # 239
     "FAIL: root is given mod 2^12, not mod 7^3"),
    ({"p": 7, "precision": 4, "digits": [1, 6, 4, 0]}, "FAIL: root is given mod 7^4, not mod 7^3"),
], ids=["prime", "precision"])
def test_verify_lift_refuses_a_root_given_mod_another_modulus(capsys, tmp_path, root, line):
    # f(239) = 0 mod 7^3, so only the modulus of the root is wrong
    rc, out, err = verify_edited(capsys, tmp_path, LIFT_ARGV,
                                 lambda payload: payload["roots"][0].update(root=root))
    assert rc == 1 and not out and err == line + "\n"


def test_verify_lift_refuses_a_residue_too_long_to_read(capsys, tmp_path):
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    rc, out, err = verify_edited(capsys, tmp_path, LIFT_ARGV,
                                 lambda payload: payload["roots"][0].update(residue="1" * 5000))
    assert rc == 2 and not out
    assert err.startswith("usage error: payload field 'residue' has 5000 digits")


@pytest.mark.parametrize("field", ["A", "B"])
def test_verify_factor_refuses_an_empty_factor(capsys, tmp_path, field):
    rc, out, err = verify_edited(capsys, tmp_path, FACTOR_ARGV,
                                 lambda payload: payload.update({field: []}))
    assert (rc, out) == (2, "")
    assert err == (f"usage error: payload field {field!r} must be a non-empty list of integers, "
                   "got []\n")


def inflate_w(payload):
    payload["w"] = 10 ** 9


def inflate_root_precision(payload):
    payload["roots"][0]["root"]["precision"] = 10 ** 9


def inflate_order(payload):
    payload["input"]["order"] = 10 ** 12


@pytest.mark.parametrize("argv, edit, rc, err", [
    (FACTOR_ARGV, inflate_w, 1, "FAIL: A(0)*B(0) != p^w\n"),
    (LIFT_ARGV, inflate_root_precision, 2,
     "usage error: payload field 'digits' must be 1000000000 base-7 digits, got [1, 6, 4]\n"),
    # the payload lists f through x^6, so past it f is 0 and the x^7 term of A*B differs
    (FACTOR_ARGV, inflate_order, 1, "FAIL: (A*B)[7] = -4 != f[7] = 0\n"),
], ids=["w", "root-precision", "order"])
def test_verify_does_bounded_work_on_inflated_fields(capsys, argv, edit, rc, err):
    # each field once sized the work of verify (p^w, p^precision, order + 1
    # coefficients), so this runs in its own process under a timeout
    _, out, _ = run(capsys, *argv, "--json")
    payload = json.loads(out)
    edit(payload)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "padiclift", "verify"], input=json.dumps(payload),
                          env=env, capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, "", err)


@pytest.mark.parametrize("argv", [
    ("lift", "--poly=-7000021,-1,1", "--prime", "1000003", "--precision", "720", "--json"),
    ("lift", "--poly", "1,11,-5", "--prime", "7", "--seed", "1", "--precision", "8000", "--json"),
    ("teichmuller", "--prime", "1000003", "--q", "2", "--precision", "720"),
], ids=["lift-large-prime", "lift-seed", "teichmuller"])
def test_a_residue_too_long_to_print_is_a_usage_error(capsys, monkeypatch, argv):
    # p^N has more than 4300 decimal digits, the most str() prints by default;
    # the request is refused before any lift runs
    for name in ("lift_all", "lift_general", "teichmuller"):
        monkeypatch.setattr(cli.hensel, name, None)
    rc, out, err = run(capsys, *argv)
    N = argv[argv.index("--precision") + 1]
    assert (rc, out) == (2, "")
    assert err.startswith(f"usage error: --precision {N} is too large") and "4300 decimal" in err


def test_the_printable_precision_edge_is_exact(capsys):
    # 2^14284 has 4300 digits and 2^14285 has 4301; the seed 3 is the exact root
    argv = ("lift", "--poly=-3,1", "--prime", "2", "--seed", "3", "--nu", "1", "--kappa", "0")
    rc, out, _ = run(capsys, *argv, "--precision", "14284", "--json")
    assert rc == 0 and json.loads(out)["roots"][0]["residue"] == "3"
    assert run(capsys, *argv, "--precision", "14285")[0] == 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0: no limit, so nothing is refused
    try:
        assert run(capsys, *argv, "--precision", "14285")[0] == 0
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("argv", [
    ("bell", "2", "2", str(10 ** 2199)),          # B(2, 2) = x1^2 has 4399 digits
    ("invert", "--alphas", f"{10 ** 2199},1"),    # beta_2 has about 4399 digits
    ("bell", "--json", "1", "1", "0." + "0" * 4299 + "1"),  # the input prints 1/10^4300
], ids=["bell", "invert", "bell-input"])
def test_a_value_too_long_to_print_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == ("usage error: a number to print has more than 4300 decimal digits, "
                   "the most Python prints\n")


@pytest.mark.parametrize("argv, token", [
    (("bell", "1", "1", "1e3000000"), "1e3000000"),  # Fraction would build 10^(3*10^6)
    (("bell", "2", "1", "1/2,2E-3"), "2E-3"),
    (("invert", "--alphas", "1,.5e3,x"), ".5e3"),
    (("invert", "--json", "--alphas=1.e5"), "1.e5"),
])
def test_exponent_notation_is_refused_before_it_is_parsed(capsys, monkeypatch, argv, token):
    parsed = []
    monkeypatch.setattr(cli, "Fraction", lambda tok: parsed.append(tok) or Fraction(tok))
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"usage error: exponent notation is not accepted, got {token!r}\n"
    assert parsed == []
    # integers, a/b and decimals are still rationals
    assert run(capsys, "bell", "1", "1", "-1.25")[:2] == (0, "-5/4\n")
