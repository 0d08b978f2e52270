"""Tests of the benchmark itself: op streams, oracles, tracing, metric names.

No wall-clock assertions; the ops run here are the cheap ones.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from padiclift import hensel  # noqa: E402
from padiclift.padic import PadicInt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def keys(ops):
    return [op.key for op in ops]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_ops(workload):
    first = workloads.ops(workload, 7, 120)
    assert keys(first) == keys(workloads.ops(workload, 7, 120))
    assert keys(first) != keys(workloads.ops(workload, 8, 120))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_input_repeats_in_a_whole_stream(workload):
    # the whole capped stream: its input spaces must not run out either
    all_keys = keys(workloads.stream(workload, 3))
    assert len(all_keys) >= workloads.MAX_ROUNDS[workload] * 10
    assert len(set(all_keys)) == len(all_keys)


def first_op(workload, kind, limit=400, **props):
    for op in workloads.ops(workload, 5, limit):
        if op.kind == kind and all(op.props.get(k) == v for k, v in props.items()):
            return op
    raise LookupError(kind)


@pytest.mark.parametrize("kind", ["lift_quadratic", "lift_sparse", "lift_general",
                                  "lift_simple", "teichmuller"])
def test_gate_catches_a_corrupted_root(kind):
    op = first_op("lift", kind, **({"N": 6} if kind == "lift_simple" else {}))
    out = workloads.execute(op)
    assert workloads.check(op, out) is None
    value = out.value
    root = value.root if hasattr(value, "root") else value
    bad = PadicInt(root.p, root.precision, root.residue + root.p ** (root.precision - 1))
    bad = dataclasses.replace(value, root=bad) if hasattr(value, "root") else bad
    msg = workloads.check(op, workloads.Outcome(bad))
    assert msg and not msg.startswith("refused")


def test_gate_catches_corrupted_lift_all_roots():
    op = first_op("lift", "lift_all_planted")
    out = workloads.execute(op)
    assert workloads.check(op, out) is None
    msg = workloads.check(op, workloads.Outcome(out.value[:1]))
    assert msg and not msg.startswith("refused")


def test_gate_catches_a_corrupted_factor():
    op = first_op("factor", "factor", M=4)
    pair = workloads.execute(op).value
    assert workloads.check(op, workloads.Outcome(pair)) is None
    A = list(pair.A)
    A[2] += pair.p
    msg = workloads.check(op, workloads.Outcome(dataclasses.replace(pair, A=tuple(A))))
    assert msg and not msg.startswith("refused")


def test_gate_checks_cli_exit_codes_and_round_trips():
    op = first_op("cli", "lift_seed")
    out = workloads.execute(op)
    assert workloads.check(op, out) is None
    payload = json.loads(out.stdout)
    payload["roots"][0]["residue"] = str(int(payload["roots"][0]["residue"]) + 1)
    verify = workloads.Op(0, "cli", "verify", ("verify", "--json"), (), (0,), {},
                          workloads.PREV_STDOUT)
    msg = workloads.check(verify, workloads.execute(verify, json.dumps(payload)))
    assert msg and msg.startswith("refused")
    usage = next(op for op in workloads.defect_probes(5) if op.kind == "teich_precision_zero")
    assert workloads.check(usage, workloads.Outcome(("exit", 2))) is None
    assert workloads.check(usage, workloads.Outcome(("exit", 1))).startswith("refused")
    assert workloads.check(usage, workloads.Outcome(("uncaught", "KeyError"))).startswith("refused")


def test_known_defects_are_probed_apart_from_the_stream():
    probes = workloads.defect_probes(5)
    assert [op.kind for op in probes] == list(workloads.CLI_DEFECTS)
    assert not {op.kind for op in workloads.ops("cli", 5, 1000)} & set(workloads.CLI_DEFECTS)
    assert len(worker.open_defects("cli", 5, None)) == len(probes)
    assert worker.open_defects("lift", 5, None) == []


def test_latencies_are_scaled_by_the_nearby_references():
    tally = worker.Tally(cpu=[0.01, 0.02, 0.01], refs=[worker.REF_S * 2] * 4)
    assert tally.latencies() == pytest.approx([0.005, 0.01, 0.005])
    tally.refs[1] = worker.REF_S * 50  # one slow reference moves no median
    assert tally.latencies() == pytest.approx([0.005, 0.01, 0.005])


def test_traced_and_untraced_runs_execute_the_same_ops():
    plain = worker.run_loop("cli", 4, 60, 45, keep=True).kept
    t = tracing.Tracer()
    original = hensel.lift_all
    t.install()
    try:
        traced = worker.run_loop("cli", 4, 60, 45, t, keep=True).kept
    finally:
        t.restore()
    assert hensel.lift_all is original
    assert [op.key for op, _ in plain] == [op.key for op, _ in traced]
    assert [o.value for _, o in plain] == [o.value for _, o in traced]
    assert {s[4] for s in t.spans} <= {op.op_id for op, _ in traced}
    layers = tracing.layer_metrics(t.spans)
    assert layers["cli.exit_0"] > 0 and layers["bell.BellTable.calls"] > 0


def test_op_past_its_deadline_counts_as_failed(monkeypatch):
    monkeypatch.setattr(worker, "OP_DEADLINE_S", 0.02)
    monkeypatch.setattr(workloads, "execute", lambda op, prev="": time.sleep(5))
    tally = worker.run_loop("factor", 1, 60, 3, keep=True)
    assert [o.error for _, o in tally.kept] == [worker.DEADLINE] * 3
    assert tally.failed == tally.deadlines == 3 and not tally.wrong


def test_self_time_excludes_children():
    spans = [["a", 0, 100, -1, 0, False, None], ["b", 10, 40, 0, 0, False, None],
             ["c", 50, 60, 0, 0, False, None], ["d", 20, 30, 1, 0, False, None]]
    assert tracing.self_times(spans) == [60, 20, 10, 10]


def test_metric_names_match_benchmark_json():
    import run

    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS
    assert set(tracing.layer_metrics([])) == set(tracing.LAYER_METRICS)
    assert set(WORKLOADS) == set(workloads.WHY)


def test_printed_metrics_match_benchmark_json():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "factor", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lift", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_verdicts():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert compare.verdict(base, [x * 1.3 for x in base], "higher", 0.1)[0] == "improved"
    assert compare.verdict(base, [x * 0.8 for x in base], "higher", 0.1)[0] == "worse"
    assert compare.verdict(base, [x * 0.98 for x in base], "higher", 0.1)[0] == "no worse"
    noisy = [50.0, 150, 60, 140, 100, 70, 130, 90, 110, 100]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(base, base, "lower", 0.1)[1:] == (0, 0, 10)
