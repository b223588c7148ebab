"""bench/run.py's traced run on a copy of the source: it exits 1 when a layer
the workload expects to see called never is, as when the rule copies of its
traced pass come from the rule base compiled for its plain pass."""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_traced_ontology_run_sees_every_expected_layer_called(tmp_path):
    # run on a copy, so the result file bench/run.py writes stays out of the tree
    skip = shutil.ignore_patterns("__pycache__", "results")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ontology", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0
    assert result["metrics"]["kb.freshen_rule.calls"]["value"] > 0
