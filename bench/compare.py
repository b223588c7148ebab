"""Compare benchmark runs of a parent commit with runs of a change.

    python3 bench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds the result files ``bench/run.py`` writes (copy
``bench/results/`` aside after the parent's runs), several runs per workload
with different seeds.  Every workload x end-to-end metric gets its own row with
each side's median and quartiles and the spread (interquartile range over
median).  With a change directory each row also gets a verdict:

- ``better``: the change wins at least 9/10 of the pairs (runs paired by seed,
  ties count for neither) and the medians differ by more than the parent's
  interquartile range;
- ``WORSE``: the change's median is worse than the parent's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``unresolved``: either side's spread is wider than the bound, unless every
  run of the change is better than every run of the parent;
- ``same``: none of these.

Traced runs get one row per per-layer metric with the two medians, to show
where a saving appears.  Exit status 1 when any row is ``WORSE``.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """(workload, trace) -> {seed: metrics}"""
    runs: dict = {}
    for f in sorted(Path(directory).glob("*.json")):
        rec = json.loads(f.read_text())
        metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = metrics
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0 means a win
    seeds = sorted(parent.keys() & change.keys()) or None
    pairs = ([(parent[s], change[s]) for s in seeds] if seeds
             else list(zip(sorted(parent.values()), sorted(change.values()))))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    cm = statistics.median(cv)
    if sign * (cm - pm) > bound * pm:
        return "WORSE"
    if max(spread(pv), spread(cv)) > bound and not all(
            sign * (p - c) > 0 for p in pv for c in cv):
        return "unresolved"
    if wins >= 0.9 * len(pairs) and abs(pm - cm) > p3 - p1:
        return "better"
    return "same"


def side(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.5g} [{q1:.5g}, {q3:.5g}] {spread(values):6.1%}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    parent = load(argv[0])
    change = load(argv[1]) if len(argv) == 2 else {}
    worse = False
    print(f"{'workload':<14} {'metric':<42} {'parent median [q1, q3] spread':>40}"
          + (f" {'change median [q1, q3] spread':>40}  verdict" if change else ""))
    for (workload, trace), runs in sorted(parent.items()):
        specs = spec["per_layer"] if trace else spec["end_to_end"]
        for m in specs:
            pv = {s: r[m["name"]] for s, r in runs.items() if m["name"] in r}
            if not pv:
                continue
            line = f"{workload:<14} {m['name']:<42} {side(list(pv.values())):>40}"
            cv = {s: r[m["name"]] for s, r in change.get((workload, trace), {}).items()
                  if m["name"] in r}
            if cv:
                line += f" {side(list(cv.values())):>40}"
                if not trace:
                    v = verdict(pv, cv, m["better"], m["bound"])
                    worse |= v == "WORSE"
                    line += f"  {v}"
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
