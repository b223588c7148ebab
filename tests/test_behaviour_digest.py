"""scripts/behaviour_digest.py: the digest of what the program prints does not
follow the string-hash seed, so two checkouts compare by it under any seed.
It runs on ontology, which rewrites, and on random-linear, which also chases."""
import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_digest.py"


def test_the_ontology_and_random_linear_digest_is_the_same_under_two_hash_seeds():
    procs = [subprocess.Popen(
        [sys.executable, str(SCRIPT), "ontology", "random-linear"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONDONTWRITEBYTECODE="1"))
        for seed in (0, 5)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    (first, _), (second, _) = outs
    assert re.fullmatch(r"[0-9a-f]{64}\n", first)
    assert first == second
