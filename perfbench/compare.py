"""Compare two result files metric by metric.

Usage: python3 perfbench/compare.py BASE.json NEW.json

Each file holds one or more runs (`run.py --out FILE` appends).  For every
(end-to-end metric, workload) pair present on both sides, the samples are
the per-run values when a side has several runs, else the operations of its
one run.  Each side's median and quartiles are printed, and the pair is
marked, using the bound BENCHMARK.json fixes for the metric:

- worse:       the new median is worse than the base median by more than the bound;
- unresolved:  a side's spread (q3 - q1, as a share of its median) is wider
               than the bound, unless every new sample beats every base sample;
- within:      neither of the above.

The exit code is 1 when any pair is worse, else 0.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from common import ROOT, quartiles

def load_spec() -> dict:
    """Direction and bound of each end-to-end metric, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def samples(path: Path) -> dict:
    """{(workload, metric): [values]} from a result file."""
    runs = json.loads(path.read_text())["runs"]
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    out = {}
    for workload, group in by_workload.items():
        for metric in group[0]["metrics"]:
            if len(group) > 1:
                out[(workload, metric)] = [r["metrics"][metric]["value"] for r in group
                                           if metric in r["metrics"]]
            else:
                ops = [op for op in group[0]["ops"] if not op["traced"]]
                values = [op[metric] for op in ops if metric in op]
                out[(workload, metric)] = values or [group[0]["metrics"][metric]["value"]]
    return out


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base, new, better: str, bound: float) -> str:
    b, n = quartiles(base)[1], quartiles(new)[1]
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    if worse_by > bound:
        return "worse"
    all_better = all(sign * (x - y) < 0 for x in new for y in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    return "within"


def _fmt(q, n: int) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}] {n}"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base, new = samples(Path(argv[0])), samples(Path(argv[1]))
    worst = False
    print(f"{'workload':14s} {'metric':13s} {'base median [q1, q3] n':>34s} "
          f"{'new median [q1, q3] n':>34s} {'change':>8s}  verdict (bound)")
    for key in sorted(base.keys() & new.keys()):
        workload, metric = key
        if metric not in spec:
            continue
        m = spec[metric]
        v = verdict(base[key], new[key], m["better"], m["bound"])
        worst = worst or v == "worse"
        qb, qn = quartiles(base[key]), quartiles(new[key])
        change = (qn[1] - qb[1]) / abs(qb[1]) if qb[1] else 0.0
        print(f"{workload:14s} {metric:13s} {_fmt(qb, len(base[key])):>34s} "
              f"{_fmt(qn, len(new[key])):>34s} {change:+8.1%}  {v} ({m['bound']:.0%})")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
