"""Compare two sets of benchmark runs, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds ``<workload>.jsonl``: the last stdout line of each
``run.py --trace 0`` run, one run per line.  Line i of the parent and line
i of the change form pair i, so run them alternately, with the same seeds
and ``--seconds``:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      (cd parent && python3 bench/run.py --workload lift --seed $seed --seconds 20 | tail -1) >> P/lift.jsonl
      (cd change && python3 bench/run.py --workload lift --seed $seed --seconds 20 | tail -1) >> C/lift.jsonl
    done

For each workload and end-to-end metric it prints both sides' median and
quartiles, the pairs the change won, lost and tied, and a verdict, with
the metric's direction and bound taken from BENCHMARK.json:

* ``unresolved`` - either side's interquartile spread exceeds the bound,
  and not every change run beats every parent run;
* ``improved``   - the change wins at least 9 of 10 pairs and its median
  beats the parent's by more than the parent's interquartile spread;
* ``worse``      - the change's median is worse than the parent's by more
  than the bound;
* ``no worse``   - otherwise.

Exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """(verdict, wins, losses, ties) for paired runs of one metric."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    ties = len(pairs) - wins - losses
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    gain = sign * (c_med - p_med)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if spread > bound and not all_better:
        word = "unresolved"
    elif wins >= 0.9 * len(pairs) and gain > p_q3 - p_q1:
        word = "improved"
    elif gain < -bound * abs(p_med):
        word = "worse"
    else:
        word = "no worse"
    return word, wins, losses, ties


def load(directory, workload):
    path = Path(directory) / f"{workload}.jsonl"
    if not path.is_file():
        return None
    return [json.loads(line)["metrics"] for line in path.read_text().splitlines() if line.strip()]


def compare(parent_dir, change_dir, spec):
    """Rows of (workload, metric, parent stats, change stats, verdict...)."""
    rows = []
    for wl in spec["workloads"]:
        parent, change = load(parent_dir, wl["name"]), load(change_dir, wl["name"])
        if not parent or not change:
            continue
        for m in spec["end_to_end"]:
            p = [r[m["name"]]["value"] for r in parent]
            c = [r[m["name"]]["value"] for r in change]
            word, wins, losses, ties = verdict(p, c, m["better"], m["bound"])
            rows.append((wl["name"], m["name"], m["unit"], p, c, word, wins, losses, ties))
    return rows


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(argv[0], argv[1], spec)
    if not rows:
        sys.exit("no workload has results on both sides")
    print(f"{'workload':8} {'metric':12} {'parent median [q1, q3]':32} "
          f"{'change median [q1, q3]':32} {'won/lost/tied':13} verdict")
    for wl, name, unit, p, c, word, wins, losses, ties in rows:
        ps = "{:.4g} [{:.4g}, {:.4g}]".format(statistics.median(p), *quartiles(p))
        cs = "{:.4g} [{:.4g}, {:.4g}]".format(statistics.median(c), *quartiles(c))
        print(f"{wl:8} {name:12} {ps + ' ' + unit:32} {cs + ' ' + unit:32} "
              f"{f'{wins}/{losses}/{ties}':13} {word}")
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
