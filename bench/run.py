"""Benchmark of the ucqrewrite engine, end to end and layer by layer.

    python3 bench/run.py --workload {ontology,diamond,random-linear} \
        --seed N --seconds S --trace {0,1}

One caller runs the workload's operations back to back (a closed loop, one
thread) and checks every output against its reference.  Each pass runs in a
fresh interpreter: it imports the package from ``src/``, builds the workload
from the seed and runs every operation once.

``--trace 0`` runs passes until ``--seconds`` have passed (at least three)
and reports the end-to-end metrics: set-up time (import, parse or generation,
rule decomposition; the median over the passes), the mean pass time, the
median and 90th percentile over operations of operation latency, the median
of rewrite latency (an operation's latency is its mean over the passes) and
peak memory of a pass.  Means over passes, not medians: the machine's speed
drifts over tens of seconds, and over the same ten runs of ontology the
spread (interquartile range over median) of the mean pass time was 14%
against 21% for the median pass time.

``--trace 1`` runs one process that makes a plain pass, then builds the
workload again and makes a second pass under the outside-in tracer of
``tracer.py``, and reports the per-layer metrics.

Human-readable rows come first; the last line of standard output is the JSON
result.  The run also writes it, with the rows and the raw spans, to
``bench/results/<workload>-seed<seed>-trace<trace>.json``, which
``bench/compare.py`` reads.  Failed operations are reported in the result,
not by the exit status.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import WORKLOADS, EXPECTED_CALLS, Outcome

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

MODULES = ("kb", "homomorphism", "partition", "unification", "rewriting", "chase", "dlgp")
MIN_PASSES = 3
CHILD_TIMEOUT = 150  # seconds; one pass of the slowest workload takes about 10

# per-layer record -> reported fields; "<counter>_ratio" is counter / calls
LAYER_FIELDS = {
    "rewriting.rewrite": ("calls", "self_s", "generated", "explored", "output", "levels"),
    "rewriting.beta": ("calls", "self_s"),
    "homomorphism.cover": ("calls", "self_s", "in_size", "kept"),
    "homomorphism.more_general": ("calls", "self_s", "true_ratio", "pred_reject_ratio",
                                  "repeat_ratio"),
    "homomorphism.core": ("calls", "self_s", "atoms_removed"),
    "homomorphism.find_homomorphism": ("calls", "self_s", "found_ratio"),
    "unification.single_piece_unifiers": ("calls", "self_s", "empty_ratio"),
    "unification.enumerate_aggregated": ("calls", "self_s", "empty_ratio"),
    "partition.join": ("calls", "self_s"),
    "kb.freshen_rule": ("calls", "self_s"),
    "kb.canonicalize": ("calls", "self_s"),
    "dlgp.parse_document": ("self_s",),
    "dlgp.query_to_dlgp": ("calls", "self_s"),
    "chase.entails": ("calls", "self_s", "yes", "no", "unknown"),
    "chase.homomorphisms": ("calls", "yields", "self_s"),
    "chase.find_homomorphism": ("calls", "self_s", "found_ratio"),
}


def import_modules() -> SimpleNamespace:
    """The package under ``src/``, never an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("ucqrewrite")
    if Path(pkg.__file__).resolve().parent != SRC / "ucqrewrite":
        raise ImportError(f"ucqrewrite imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: sys.modules[f"ucqrewrite.{n}"] for n in MODULES})


def run_pass(ops, samples: dict, problems: list) -> float:
    """One pass over the operations, recording each operation's timings."""
    t0 = time.perf_counter()
    for op in ops:
        s = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # an operation that raises counts as failed; keep going
            out = Outcome(time.perf_counter() - s, problem=f"raised {type(e).__name__}: {e}")
        rec = samples.setdefault(op.label, {"op_s": [], "rewrite_s": [], "entails_s": []})
        rec["op_s"].append(time.perf_counter() - s)
        rec["rewrite_s"].append(out.rewrite_s)
        if out.entails_s is not None:
            rec["entails_s"].append(out.entails_s)
        rec["counts"] = out.counts
        if out.problem:
            problems.append(f"{op.label}: {out.problem}")
    return time.perf_counter() - t0


def child(workload: str, seed: int, trace: bool) -> dict:
    """Set up and run one pass (two when tracing) in this process."""
    t0 = time.perf_counter()
    m = import_modules()
    ops = WORKLOADS[workload](m, seed)
    out = {"setup_s": time.perf_counter() - t0, "samples": {}, "problems": []}
    out["passes"] = [run_pass(ops, out["samples"], out["problems"])]
    if trace:
        tr = tracing.Tracer()
        restore = tracing.install(tr, {n: getattr(m, n) for n in MODULES})
        try:
            traced_ops = WORKLOADS[workload](m, seed)
            out["passes"].append(run_pass(traced_ops, out["samples"], out["problems"]))
        finally:
            restore()
        out["layers"], out["spans"] = tracing.layers(tr), tr.spans
    return out


def spawn(args, hashseed: int) -> dict:
    """Run ``child`` in a fresh interpreter with a fixed string-hash seed.

    Set iteration order follows the hash seed and moves single rewrites by up
    to 1.5x, so every pass runs under its own fixed seed instead of a random one.
    """
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--child"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentiles_ms(values: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds."""
    if len(values) == 1:
        return values[0] * 1e3, values[0] * 1e3
    return statistics.median(values) * 1e3, statistics.quantiles(values, n=10)[8] * 1e3


def op_latencies(samples: dict, key: str) -> list[float]:
    """Per operation, its mean over the passes of one timing."""
    return [statistics.fmean(rec[key]) for rec in samples.values() if rec[key]]


def merge(samples: dict, more: dict) -> None:
    for label, rec in more.items():
        acc = samples.setdefault(label, {"op_s": [], "rewrite_s": [], "entails_s": []})
        for key in ("op_s", "rewrite_s", "entails_s"):
            acc[key] += rec[key]
        acc["counts"] = rec["counts"]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setups, passes, samples) -> dict:
    op50, op90 = percentiles_ms(op_latencies(samples, "op_s"))
    rw50, _ = percentiles_ms(op_latencies(samples, "rewrite_s"))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.fmean(passes), "s"),
        "op_ms.p50": metric(op50, "ms"),
        "op_ms.p90": metric(op90, "ms"),
        "rewrite_ms.p50": metric(rw50, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def per_layer(layers: dict, overhead: float) -> dict:
    out = {}
    for key, fields in LAYER_FIELDS.items():
        rec = layers.get(key, {})
        for f in fields:
            if f.endswith("_ratio"):
                calls = rec.get("calls", 0)
                out[f"{key}.{f}"] = metric(rec.get(f[:-6], 0) / calls if calls else 0.0, "ratio")
            elif f == "self_s":
                out[f"{key}.{f}"] = metric(rec.get(f, 0.0), "s")
            else:
                out[f"{key}.{f}"] = metric(rec.get(f, 0), "count")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    return out


def rows(workload: str, samples: dict) -> list[str]:
    """One row per (query, operator); random-linear gets a verdict summary."""
    if workload == "random-linear":
        verdicts: dict[str, int] = {}
        for rec in samples.values():
            v = (rec["counts"] or {}).get("verdict", "none")
            verdicts[v] = verdicts.get(v, 0) + 1
        en50, en90 = percentiles_ms(op_latencies(samples, "entails_s"))
        return [f"instances {len(samples)}  verdicts {json.dumps(verdicts, sort_keys=True)}",
                f"entails_ms.p50 {en50:.4f} ms  entails_ms.p90 {en90:.4f} ms"]
    out = []
    for label, rec in sorted(samples.items()):
        c = rec["counts"] or {}
        out.append(f"op {label:<18} generated {c.get('generated', '-'):>4}  "
                   f"output {c.get('output', '-'):>3}  depth {c.get('depth', '-'):>3}  "
                   f"mean {statistics.fmean(rec['op_s']) * 1e3:10.3f} ms")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (SRC / "ucqrewrite" / "__init__.py").is_file():
        print(f"error: no ucqrewrite package under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args.workload, args.seed, bool(args.trace))))
        return 0

    samples: dict = {}
    problems: list[str] = []
    setups: list[float] = []
    passes: list[float] = []
    spans = None
    start = time.perf_counter()
    while len(setups) < (1 if args.trace else MIN_PASSES) or (
            not args.trace and time.perf_counter() - start < args.seconds):
        out = spawn(args, hashseed=len(setups))
        setups.append(out["setup_s"])
        passes += out["passes"]
        merge(samples, out["samples"])
        problems += out["problems"]
    if args.trace:
        silent = [k for k in EXPECTED_CALLS[args.workload]
                  if out["layers"].get(k, {}).get("calls", 0) == 0]
        if silent:
            print(f"error: traced functions never called: {', '.join(silent)}",
                  file=sys.stderr)
            return 1
        metrics = per_layer(out["layers"], passes[1] / passes[0])
        spans = out["spans"]
    else:
        metrics = end_to_end(setups, passes, samples)

    attempted = sum(len(rec["op_s"]) for rec in samples.values())
    failed = len(problems)
    report = rows(args.workload, samples)
    report.append(f"passes {len(passes)}  failed_ratio {failed}/{attempted} = "
                  f"{failed / attempted:.4f}")
    report += [f"problem {p}" for p in problems[:20]]
    report += [f"metric {k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "python": platform.python_version(),
              "cpus": os.cpu_count(), "passes": passes, "rows": report,
              "result": result, "spans": spans}
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
