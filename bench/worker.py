"""One benchmark process: import padiclift, run a workload's ops in a closed loop.

Started by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH,
so that each run pays the program's import and shares nothing with the
run before it.  It prints one JSON object as its last line:

    python3 bench/worker.py run WORKLOAD SEED SECONDS MAX_OPS TRACE_FILE
        run the seeded op stream for SECONDS or MAX_OPS ops, whichever
        ends first, one op at a time, checking each op with its oracle.
        TRACE_FILE "-" runs untraced; otherwise the calls between
        padiclift's layers are traced and the spans written there.

Times are taken at reference speed.  On a virtual machine that shares a
busy host, CPU speed can drift by half within minutes, and other processes
take turns on the cores.  So each op is timed in CPU time, which leaves
out the turns of other processes, and divided by the CPU time of a fixed
pure-Python reference loop (:func:`reference`) run right beside it, which
slows down and speeds up with the host.  The ratio is multiplied by
``REF_S``, so that a time reads in seconds on a machine where the
reference loop takes ``REF_S``.  The import time (``importtime.py``) is
scaled the same way.  A change to padiclift moves the op time and not the
reference.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

OP_DEADLINE_S = 30.0  # an op still running after this counts as failed
DEADLINE = "deadline exceeded"
REF_S = 6e-4          # nominal CPU time of one reference() call
REF_WINDOW = 8        # an op is scaled by the median of the 2 * REF_WINDOW + 2 nearest references
REF_WARMUP = 50       # reference calls before any is timed
SETUP_REFS = 31       # reference calls timed after an import


class OpDeadline(BaseException):
    """Raised inside an op that ran past OP_DEADLINE_S (BaseException, so
    that no ``except Exception`` in the program can swallow it)."""


def reference():
    """Fixed work in the program's style: a triangle of exact Fraction sums
    over earlier rows, as in a Bell-polynomial recurrence."""
    xs = [Fraction(j, j + 2) for j in range(1, 6)]
    rows = [[Fraction(1)]]
    for n in range(1, 10):
        row = [Fraction(0)]
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, min(n - k + 1, len(xs)) + 1):
                if k - 1 < len(rows[n - j]):
                    acc += (n * j) * xs[j - 1] * rows[n - j][k - 1]
            row.append(acc)
        rows.append(row)
    return rows


def reference_s():
    """CPU time of one reference() call."""
    t0 = time.process_time()
    reference()
    return time.process_time() - t0


def check_source(padiclift):
    """Exit unless padiclift was imported from the checkout's ``src``."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(padiclift.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"padiclift was imported from {padiclift.__file__}, not from {src}")


def _on_alarm(signum, frame):
    raise OpDeadline()


@dataclass
class Tally:
    """What a loop measured.  Per op it keeps only the CPU time and the
    reference time before it, so that the worker's memory does not grow
    with the number of ops it ran."""

    cpu: list = field(default_factory=list)
    refs: list = field(default_factory=list)  # one before each op, one after the last
    failed: int = 0
    reasons: dict = field(default_factory=dict)
    wrong: list = field(default_factory=list)
    deadlines: int = 0
    loop_s: float = 0.0  # wall time of the timed loop, checks and references left out
    kept: list = field(default_factory=list)  # (op, outcome), when asked for

    def record(self, op, verdict):
        if verdict is None:
            return
        if verdict.startswith("refused:"):
            self.failed += 1
            reason = f"{op.kind}: {verdict[len('refused: '):]}"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        else:
            self.wrong.append(f"op {op.op_id} ({op.kind} {op.args!r}): {verdict}")

    def latencies(self):
        """Each op's CPU time at reference speed: scaled by the median of the
        reference times nearest to it, so that the host's drift cancels
        and a single slow reference does not."""
        refs, w = self.refs, REF_WINDOW
        return [t * REF_S / statistics.median(refs[max(0, i - w):i + w + 2])
                for i, t in enumerate(self.cpu)]


def run_loop(workload, seed, seconds, max_ops, tracer=None, keep=False):
    """Closed loop over the op stream, for ``seconds`` or ``max_ops`` ops.

    The time limit ends the loop only between rounds, so that a run holds
    whole rounds and its cost mix does not depend on where the time ran
    out; the loop may overrun ``seconds`` by one round.  A reference()
    call is timed before each op.  Each op is checked by its oracle as
    soon as it returns; the checks and references are left out of
    ``loop_s``.
    """
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    tally = Tally()
    prev_stdout = ""
    for _ in range(REF_WARMUP):
        reference()
    aside = 0.0
    rnd = None
    start = time.perf_counter()
    t_end = start + seconds
    for op in workloads.stream(workload, seed):
        if len(tally.cpu) >= max_ops:
            break
        if op.rnd != rnd:
            if time.perf_counter() >= t_end:
                break
            rnd = op.rnd
        if tracer is not None:
            tracer.op_id = op.op_id
        w0 = time.perf_counter()
        tally.refs.append(reference_s())
        w1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        c0 = time.process_time()
        try:
            outcome = workloads.execute(op, prev_stdout)
        except OpDeadline:
            outcome = workloads.Outcome(error=DEADLINE)
            tally.deadlines += 1
        finally:
            c1 = time.process_time()
            signal.setitimer(signal.ITIMER_REAL, 0)
        w2 = time.perf_counter()
        tally.cpu.append(c1 - c0)
        prev_stdout = outcome.stdout
        tally.record(op, workloads.check(op, outcome))
        if keep:
            tally.kept.append((op, outcome))
        aside += (w1 - w0) + (time.perf_counter() - w2)
    tally.loop_s = time.perf_counter() - start - aside
    tally.refs.append(reference_s())
    return tally


def input_record(workload, kept, spans):
    """Distribution of the input properties the program's cost depends on."""
    import tracer as tracing
    import workloads

    def label(prop, v):
        # CLI primes reach 10^4: group primes of 20 and up by decade
        if prop != "p" or v < 20:
            return str(v)
        lo = 10 ** (len(str(v)) - 1)
        return f"{max(lo, 20)}-{10 * lo - 1}"

    def hist(values, prop=None):
        out = {}
        for v in values:
            key = label(prop, v)
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0])))

    record = {}
    for prop in ("p", "degree", "N", "M", "ell"):
        values = [op.props[prop] for op, _ in kept if prop in op.props]
        if values:
            record[prop] = hist(values, prop)
    record["terms_used"] = hist(tracing.lift_terms(spans))
    record["bell_n_max"] = hist(s[6] for s in spans if s[0] == "bell.BellTable" and not s[5])
    keys = [op.key for op, _ in kept]
    record["repeated_input_share"] = 1 - len(set(keys)) / len(keys) if keys else 0.0
    record["why"] = workloads.WHY[workload]
    return record


def open_defects(workload, seed, tracer):
    """Run the cli workload's known-defect probes (after the timed loop, so
    that they stay out of its figures); describe each that still fails."""
    import workloads

    if workload != "cli":
        return []
    out = []
    for op in workloads.defect_probes(seed):
        if tracer is not None:
            tracer.op_id = op.op_id
        verdict = workloads.check(op, workloads.execute(op))
        if verdict is not None:
            out.append(f"{' '.join(op.args)}: {verdict.removeprefix('refused: ')}")
    return out


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cmd_run(workload, seed, seconds, max_ops, trace_file):
    import padiclift

    check_source(padiclift)
    tracer = None
    if trace_file != "-":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    tally = run_loop(workload, seed, seconds, max_ops, tracer, keep=tracer is not None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies = tally.latencies()
    result = {
        "attempted": len(latencies),
        "failed": tally.failed,
        "failures": tally.reasons,
        "deadlines": tally.deadlines,
        "wrong": tally.wrong,
        "latencies_s": latencies,
        "ops_per_s": len(latencies) / sum(latencies),
        "wall_ops_per_s": len(latencies) / tally.loop_s,
        "ref_s": statistics.median(tally.refs),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "open_defects": open_defects(workload, seed, tracer),
    }
    if tracer is not None:
        tracer.restore()
        spans = tracer.spans
        result["layers"] = tracing.layer_metrics(spans)
        result["inputs"] = input_record(workload, tally.kept, spans)
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        with open(trace_file, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "inputs": result["inputs"],
                       "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id",
                                       "raised", "note"],
                       "names": names,
                       "spans": [[index[s[0]]] + s[1:] for s in spans]}, fh)
    print(json.dumps(result))


def main(argv):
    if argv[:1] == ["run"] and len(argv) == 6:
        cmd_run(argv[1], int(argv[2]), float(argv[3]), int(argv[4]), argv[5])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
