"""Run the benchmark on a parent and a change checkout in interleaved pairs and
write the before/after record (a ``BENCH_*.json`` file).

    python3 scripts/bench_pairs.py --parent DIR --change DIR \
        --seeds $(seq 1701 1710) --seconds 30 --description TEXT --out BENCH_N.json

Each checkout is a directory holding ``BENCHMARK.json``, ``src/`` and
``bench/`` (a ``git archive`` of the commit), with no ``__pycache__`` under
``src/`` or ``bench/``; the script refuses any other before it runs anything.
For every seed and workload the two sides run ``bench/run.py --trace 0`` back
to back, one run at a time, and the side that goes first alternates from seed
to seed.  Then each side makes one ``--trace 1`` run per workload at seed
``TRACE_SEED``, and ``bench/compare.py`` of the change checkout compares the
two sides' result files.  The output holds every run's end-to-end metrics,
both traced runs' per-layer metrics and the compare rows with its exit status;
a ``compare.py`` that exits 1 without a ``WORSE`` row crashed, and is raised.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
WORKLOADS = ("ontology", "diamond", "random-linear")
TRACE_SEED = 1


def result_name(workload: str, seed: int, trace: int) -> str:
    """The file ``bench/run.py`` writes under ``bench/results/``."""
    return f"{workload}-seed{seed}-trace{trace}.json"


def check_checkout(checkout: Path) -> None:
    """Refuse a checkout that the benchmark would not run as a clean archive.

    ``bench/compare.py`` reads ``BENCHMARK.json`` from its checkout, and
    crashes without it.  A ``__pycache__`` under ``src/`` or ``bench/`` lets a
    pass load compiled bytecode that a clean archive compiles afresh when
    ``PYTHONDONTWRITEBYTECODE`` is set: measured on one commit, ``setup_s``
    read 0.016-0.020 s against 0.043-0.047 s and ``peak_rss_mb`` 18.6-18.8
    against 19.7-19.8 MB.
    """
    if not (checkout / "BENCHMARK.json").is_file():
        raise ValueError(f"{checkout}: no BENCHMARK.json")
    caches = [c for d in ("src", "bench") for c in sorted((checkout / d).rglob("__pycache__"))]
    if caches:
        raise ValueError(f"{checkout}: holds {caches[0].relative_to(checkout)}; "
                         "use a fresh git archive of the commit")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` run in checkout; its result record.

    The run gets the caller's environment with ``PYTHONDONTWRITEBYTECODE``
    set, so it writes no ``__pycache__`` into the checkout that
    ``check_checkout`` found clean, and later runs compile afresh too."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads((checkout / "bench" / "results" /
                       result_name(workload, seed, trace)).read_text())


def summary(record: dict) -> dict:
    """What the output keeps of one result record."""
    result = record["result"]
    out = {"seed": record["seed"]}
    if not record["trace"]:
        out["passes"] = len(record["passes"])
    out.update(attempted=result["attempted"], failed=result["failed"],
               metrics={k: v["value"] for k, v in result["metrics"].items()})
    return out


def compare(compare_py: Path, records: dict[str, list[dict]]) -> tuple[int, list[str]]:
    """bench/compare.py on each side's records: (exit status, printed rows)."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = []
        for name in SIDES:
            d = Path(tmp) / name
            d.mkdir()
            for rec in records[name]:
                (d / result_name(rec["workload"], rec["seed"], rec["trace"])).write_text(
                    json.dumps(rec))
            dirs.append(str(d))
        proc = subprocess.run([sys.executable, str(compare_py), *dirs],
                              capture_output=True, text=True)
    rows = proc.stdout.splitlines()
    # 1 means a WORSE row, which the record keeps; so does an uncaught exception
    if proc.returncode not in (0, 1) or (
            proc.returncode == 1 and not any(row.endswith("  WORSE") for row in rows)):
        raise RuntimeError(f"compare.py exited {proc.returncode}:\n{proc.stderr}")
    return proc.returncode, rows


def assemble(records: dict[str, list[dict]], status: int, rows: list[str],
             description: str, seconds: float) -> dict:
    """The BENCH_*.json record from each side's result records and the compare rows."""
    untraced = [r for r in records["parent"] if not r["trace"]]
    traced = [r for r in records["parent"] if r["trace"]]
    out = {
        "description": description,
        "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds:g} --trace T",
        "python": untraced[0]["python"],
        "cpus": untraced[0]["cpus"],
        "seeds_trace0": sorted({r["seed"] for r in untraced}),
        "seed_trace1": traced[0]["seed"],
        "runs": {},
        "traced": {},
    }
    for name in SIDES:
        for rec in sorted(records[name], key=lambda r: r["seed"]):
            key = "traced" if rec["trace"] else "runs"
            sides = out[key].setdefault(rec["workload"], {})
            if rec["trace"]:
                sides[name] = summary(rec)
            else:
                sides.setdefault(name, []).append(summary(rec))
    out["compare"] = {"command": "python3 bench/compare.py PARENT_DIR CHANGE_DIR",
                      "exit_status": status, "rows": rows}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--seeds", type=int, nargs="+", required=True,
                   help="workload seeds of the --trace 0 pairs")
    p.add_argument("--seconds", type=float, required=True, help="bench/run.py --seconds")
    p.add_argument("--description", required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for checkout in checkouts.values():
        check_checkout(checkout)
    records: dict[str, list[dict]] = {name: [] for name in SIDES}
    for n, seed in enumerate(args.seeds):
        order = SIDES if n % 2 == 0 else SIDES[::-1]
        for workload in WORKLOADS:
            for name in order:
                rec = run_bench(checkouts[name], workload, seed, args.seconds, 0)
                records[name].append(rec)
                print(f"{workload} seed {seed} {name}: wall_s "
                      f"{rec['result']['metrics']['wall_s']['value']:.5g}", flush=True)
    for workload in WORKLOADS:
        for name in SIDES:
            records[name].append(run_bench(checkouts[name], workload, TRACE_SEED,
                                           args.seconds, 1))
    status, rows = compare(checkouts["change"] / "bench" / "compare.py", records)
    out = assemble(records, status, rows, args.description, args.seconds)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print("\n".join(rows))
    return status


if __name__ == "__main__":
    sys.exit(main())
