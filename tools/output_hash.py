"""Fingerprint of what the benchmark streams produce, to show that a change keeps it.

For seeds 21, 22 and 23 in turn, runs the first 200 ``lift``, 200 ``factor``
and 500 ``cli`` ops of ``bench/workloads.py`` through ``workloads.execute``
(fed the previous op's stdout) and ``workloads.check``, records
``(op.kind, repr(value), error, stdout, verdict)`` for each op, and prints
the first 16 hex digits of the sha256 of the concatenated record reprs,
in stream order.  padiclift is imported from this checkout's ``src/``:

    python tools/output_hash.py
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

SEEDS = (21, 22, 23)
COUNTS = {"lift": 200, "factor": 200, "cli": 500}


def output_hash() -> str:
    digest, prev_stdout = hashlib.sha256(), ""
    for seed in SEEDS:
        for workload, count in COUNTS.items():
            for op in workloads.ops(workload, seed, count):
                out = workloads.execute(op, prev_stdout)
                prev_stdout = out.stdout
                record = (op.kind, repr(out.value), out.error, out.stdout, workloads.check(op, out))
                digest.update(repr(record).encode())
    return digest.hexdigest()[:16]


if __name__ == "__main__":
    print(output_hash())
