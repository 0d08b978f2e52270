"""padiclift benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {lift,factor,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; padiclift is imported from ``src/``, and
nothing needs building.  Each run starts a fresh worker process (see
``worker.py``) that imports padiclift and drives one workload as a closed
loop: one caller, one thread, each op started only after the previous one
returned.  The seed decides the inputs; the program only sees them.  A
run ends at the first round boundary after ``--seconds`` (see
``workloads.py``), so that it holds whole rounds.

``--trace 0`` measures the end-to-end metrics, with tracing off.  Times
are at reference speed (see ``worker.py``): CPU time, scaled by a fixed
reference loop timed beside each op, so that the drift of a shared host
cancels.  The wall-clock throughput is printed beside them.

    ops_per_s     ops attempted / summed op latency (the oracle checks
                  between ops are not timed)
    op_p50_ms     median op latency
    op_p90_ms     90th-percentile op latency (sample count printed beside it)
    setup_s       median time to import padiclift (and padiclift.cli for
                  ``cli``) over several fresh processes (``importtime.py``)
    peak_rss_mb   peak resident set of the worker after its loop

``--trace 1`` runs the first ``TRACE_OPS`` ops of the same stream twice,
untraced and then traced, each in a fresh process, and prints the
per-layer metrics of ``tracer.LAYER_METRICS`` with
``trace.overhead_ratio`` (untraced / traced ops_per_s on those ops).  The
spans and the input-property record go to ``.bench_out/``.

Every op is checked by an independent oracle.  A wrong answer from an op
that reported success is named on stderr and the run exits 1.  Ops that
are refused, crash or pass the deadline count as failed; no op of the
streams is known to fail.  The CLI's known defects (ROADMAP item 4) are
probed after each ``cli`` loop, apart from its ops and figures, and each
one still open is printed; ``--trace 1`` counts them as
``cli.known_defects``.  The last line of stdout is the JSON result; the
lines before it repeat each metric with its unit.  Without
``src/padiclift`` the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 11           # fresh-process import timings per run; the median is reported
ZERO_POLY_DEADLINE_S = 2.0   # the unbounded known-defect request gets this long
CHILD_GRACE_S = 120          # on top of --seconds, before a worker is killed
TRACE_OPS = {"lift": 105, "factor": 84, "cli": 588}  # whole rounds of each stream

E2E_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a verdict on the program)."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, timeout, script="worker.py"):
    """Run ``script`` with ``args``; return its last stdout line as JSON."""
    cmd = [sys.executable, str(BENCH / script)] + [str(a) for a in args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def zero_poly_request():
    """Run the known unbounded CLI request in its own process under a deadline.

    Returns (what is wrong or None, whether it passed the deadline).
    """
    from workloads import ZERO_POLY_ARGV, ZERO_POLY_EXPECT

    cmd = [sys.executable, "-m", "padiclift.cli", *ZERO_POLY_ARGV]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              timeout=ZERO_POLY_DEADLINE_S)
    except subprocess.TimeoutExpired:
        wrong, exceeded = f"deadline of {ZERO_POLY_DEADLINE_S:g} s exceeded", True
    else:
        if proc.returncode in ZERO_POLY_EXPECT:
            return None, False
        wrong, exceeded = f"exit {proc.returncode}, expected exit 1 or 2", False
    return f"{' '.join(ZERO_POLY_ARGV)}, in its own process: {wrong}", exceeded


def setup_seconds(workload):
    """Median import time over fresh processes (the first import may
    compile bytecode, so one unmeasured import runs before them)."""
    samples = [worker([workload], 60, "importtime.py")["setup_s"]
               for _ in range(SETUP_SAMPLES + 1)]
    return statistics.median(samples[1:])


def probe_defects(workload, res):
    """Add the cli run's zero-polynomial request to the worker's list of
    open known defects; return how many of them passed a deadline."""
    if workload != "cli":
        return 0
    wrong, exceeded = zero_poly_request()
    if wrong:
        res["open_defects"].append(wrong)
    return int(exceeded)


def measure(workload, seed, seconds):
    res = worker(["run", workload, seed, seconds, 10 ** 9, "-"], seconds + CHILD_GRACE_S)
    probe_defects(workload, res)
    metrics = {
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_p90_ms": res["op_p90_ms"],
        "setup_s": setup_seconds(workload),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"ops_per_s": f"wall clock {res['wall_ops_per_s']:.6g} ops/s, reference loop "
                          f"{1e3 * res['ref_s']:.4g} ms",
             "op_p90_ms": f"{len(res['latencies_s'])} samples"}
    return metrics, E2E_UNITS, res, notes


def measure_traced(workload, seed, seconds):
    import tracer as tracing

    count = TRACE_OPS[workload]
    plain = worker(["run", workload, seed, seconds, count, "-"], seconds + CHILD_GRACE_S)
    trace_file = OUT / f"trace-{workload}-{seed}.json"
    traced = worker(["run", workload, seed, seconds, count, trace_file],
                    seconds + CHILD_GRACE_S)
    common = min(plain["attempted"], traced["attempted"])
    metrics = dict(traced["layers"])
    metrics["cli.deadline_exceeded"] += probe_defects(workload, traced)
    metrics["cli.known_defects"] = len(traced["open_defects"])
    metrics["trace.overhead_ratio"] = (sum(traced["latencies_s"][:common])
                                       / sum(plain["latencies_s"][:common]))
    notes = {"trace.overhead_ratio": f"over the first {common} ops",
             "inputs": json.dumps(traced["inputs"], sort_keys=True)}
    return metrics, tracing.LAYER_METRICS, traced, notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("lift", "factor", "cli"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "padiclift" / "__init__.py").is_file():
        print(f"padiclift sources not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(BENCH))
    sys.path.insert(1, str(SRC))
    t0 = time.perf_counter()
    try:
        measured = (measure_traced if args.trace else measure)(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    metrics, units, res, notes = measured

    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload} {name} {value:.6g} {units[name]}{extra}")
    for reason, n in sorted(res["failures"].items()):
        print(f"{args.workload} failed x{n}: {reason}")
    for defect in res["open_defects"]:
        print(f"{args.workload} known defect still open: {defect}")
    if "inputs" in notes:
        print(f"{args.workload} inputs {notes['inputs']}")
    for msg in res["wrong"]:
        print(f"WRONG ANSWER: {msg}", file=sys.stderr)
    print(f"{args.workload} run took {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 1 if res["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
