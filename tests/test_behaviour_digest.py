"""scripts/behaviour_digest.py: the digest of what the program prints on all
three workloads and the CLI examples does not follow the string-hash seed, so
two checkouts compare by it under any seed, and it is the recorded value: a
change to printed output updates DIGEST and says why in CHANGES.md."""
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "behaviour_digest.py"
DIGEST = "a79b2246064ef56e4257c507b9ab25b941872d0462df20669ff3d7f75bffcc23"


def test_the_digest_of_every_workload_is_the_recorded_one_under_two_hash_seeds():
    procs = [subprocess.Popen(
        [sys.executable, str(SCRIPT)], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONDONTWRITEBYTECODE="1"))
        for seed in (0, 5)]
    outs = [p.communicate(timeout=180) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    assert [out for out, _ in outs] == [DIGEST + "\n"] * 2
