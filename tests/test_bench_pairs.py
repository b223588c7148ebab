"""scripts/bench_pairs.py: the BENCH_*.json record assembled from canned result
files; no benchmark is run."""
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = ("setup_s", "wall_s", "op_ms.p50", "op_ms.p90", "rewrite_ms.p50", "peak_rss_mb")


def record(workload, seed, trace, wall):
    """A result record in the shape bench/run.py writes."""
    names = ("homomorphism.find_homomorphism.calls",) if trace else END_TO_END
    metrics = {n: {"value": 271 if trace else wall, "unit": "count" if trace else "s"}
               for n in names}
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": 30,
            "python": "3.11.7", "cpus": 2, "passes": [wall] * (2 if trace else 5),
            "rows": [], "spans": None,
            "result": {"correct": True, "attempted": 40, "failed": 0, "metrics": metrics}}


def checkout(tmp_path, name, benchmark=True):
    """A checkout holding what the script reads itself: BENCHMARK.json and
    bench/compare.py."""
    d = tmp_path / name
    (d / "bench").mkdir(parents=True)
    (d / "src").mkdir()
    shutil.copy(ROOT / "bench" / "compare.py", d / "bench")
    if benchmark:
        shutil.copy(ROOT / "BENCHMARK.json", d)
    return d


def main_args(parent, change, out):
    return ["--parent", str(parent), "--change", str(change), "--seeds", *map(str, range(1, 11)),
            "--seconds", "30", "--description", "canned", "--out", str(out)]


def test_main_alternates_the_first_side_and_writes_the_record(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout.name == "p" else "change"
        calls.append((workload, seed, trace, side))
        # the change is 20% faster on diamond and as fast elsewhere
        wall = 0.1 * (1 + seed % 3 / 100) * (0.8 if side == "change" and workload == "diamond"
                                            else 1)
        return record(workload, seed, trace, wall)

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = tmp_path / "BENCH.json"
    status = bench_pairs.main(main_args(checkout(tmp_path, "p"), checkout(tmp_path, "c"), out))
    assert status == 0
    untraced = [c for c in calls if not c[2]]
    assert [c[3] for c in untraced[:12]] == ["parent", "change"] * 3 + ["change", "parent"] * 3
    assert [c for c in calls if c[2]] == [(w, 1, 1, side) for w in bench_pairs.WORKLOADS
                                          for side in ("parent", "change")]
    got = json.loads(out.read_text())
    assert got["description"] == "canned"
    assert got["command"] == "python3 bench/run.py --workload W --seed N --seconds 30 --trace T"
    assert (got["python"], got["cpus"], got["seed_trace1"]) == ("3.11.7", 2, 1)
    assert got["seeds_trace0"] == list(range(1, 11))
    assert set(got["runs"]) == set(got["traced"]) == set(bench_pairs.WORKLOADS)
    runs = got["runs"]["diamond"]["change"]
    assert [r["seed"] for r in runs] == list(range(1, 11))
    assert runs[0] == {"seed": 1, "passes": 5, "attempted": 40, "failed": 0,
                       "metrics": {n: 0.1 * 1.01 * 0.8 for n in END_TO_END}}
    assert got["traced"]["ontology"]["parent"] == {
        "seed": 1, "attempted": 40, "failed": 0,
        "metrics": {"homomorphism.find_homomorphism.calls": 271}}
    compare = got["compare"]
    assert compare["exit_status"] == 0
    verdicts = {tuple(row.split()[:2]): row.split()[-1] for row in compare["rows"][1:]
                if row.split()[1] in END_TO_END}
    assert verdicts[("diamond", "wall_s")] == "better"
    assert verdicts[("ontology", "wall_s")] == "same"


def test_a_worse_row_is_kept_with_compare_s_exit_status():
    records = {side: [record("diamond", s, 0, wall) for s in (1, 2, 3)]
               + [record("diamond", 1, 1, wall)]
               for side, wall in (("parent", 0.1), ("change", 0.2))}
    status, rows = bench_pairs.compare(ROOT / "bench" / "compare.py", records)
    assert status == 1
    assert any(row.split()[:2] == ["diamond", "wall_s"] and row.endswith("WORSE") for row in rows)
    got = bench_pairs.assemble(records, status, rows, "worse", 5)
    assert got["compare"]["exit_status"] == 1
    assert got["seed_trace1"] == 1 and set(got["traced"]["diamond"]) == {"parent", "change"}


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("flaw", ["no BENCHMARK.json", "src/ucqrewrite/__pycache__",
                                  "bench/__pycache__"])
def test_a_checkout_unlike_a_clean_archive_is_refused_before_any_run(
        tmp_path, monkeypatch, side, flaw):
    calls = []
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: calls.append(args))
    sides = {name: checkout(tmp_path, name, benchmark=not (name == side and flaw.startswith("no")))
             for name in ("parent", "change")}
    if flaw.endswith("__pycache__"):
        (sides[side] / flaw).mkdir(parents=True)
    out = tmp_path / "BENCH.json"
    with pytest.raises(ValueError, match="BENCHMARK.json" if flaw.startswith("no") else flaw):
        bench_pairs.main(main_args(sides["parent"], sides["change"], out))
    assert calls == [] and not out.exists()


def test_a_compare_crash_is_not_recorded_as_a_worse_row(tmp_path):
    # compare.py reads BENCHMARK.json beside its bench/ and exits 1 on the
    # uncaught FileNotFoundError, as it would on a WORSE row
    records = {side: [record("diamond", s, 0, 0.1) for s in (1, 2, 3)]
               for side in ("parent", "change")}
    with pytest.raises(RuntimeError, match="exited 1"):
        bench_pairs.compare(checkout(tmp_path, "c", benchmark=False) / "bench" / "compare.py",
                            records)


def test_a_run_writes_no_bytecode_into_its_checkout(tmp_path, monkeypatch):
    # with bytecode written, the first run leaves __pycache__ in the checkout
    # check_checkout found clean, and every later run there loads it
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
    seen = []

    def fake_run(cmd, cwd, env, **kwargs):
        seen.append(env)
        results = cwd / "bench" / "results"
        results.mkdir()
        (results / bench_pairs.result_name("diamond", 3, 0)).write_text(
            json.dumps(record("diamond", 3, 0, 0.1)))
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    got = bench_pairs.run_bench(checkout(tmp_path, "c"), "diamond", 3, 30, 0)
    assert got["seed"] == 3
    (env,) = seen
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert env["BENCH_PAIRS_PROBE"] == "kept"  # the rest of the caller's environment
