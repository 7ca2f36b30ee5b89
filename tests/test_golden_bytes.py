"""Training trajectories stay bit-identical: the benchmark's golden bytes.

``bench/baseline.json`` records, per workload and seed, the sha256 of the
checkpoint and report that one repeat of the workload writes. A change in
rounding order anywhere on the training or evaluation path changes them.
This runs one untraced seed-0 repeat of each workload through
``bench/run.py``'s ``Bench``, each in a fresh process as the benchmark runs
it, and compares both digests with the recorded ones.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("quickstart", "vocab_meta", "pooled_joint")

# run.py pins the BLAS threads when imported, so it must come before numpy
REPEAT = """
import json, sys
from pathlib import Path
sys.path.insert(0, "bench")
import run
run.import_metashop()
import workloads
workload, work = sys.argv[1], Path(sys.argv[2])
rep = run.Bench(workload, 0, workloads.FULL, work, 0).repeat()
print(json.dumps({"errors": rep.errors, **{
    key: rep.outputs.get(key) for key in ("checkpoint_sha256", "report_sha256")
}}))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed0_repeat_reproduces_the_recorded_bytes(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", REPEAT, workload, str(tmp_path / "work")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["errors"] == []
    want = json.loads((ROOT / "bench" / "baseline.json").read_text())["exact_outputs"]
    for key in ("checkpoint_sha256", "report_sha256"):
        assert got[key] == want[workload]["0"][key], key
