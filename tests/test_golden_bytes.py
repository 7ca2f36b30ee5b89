"""Training trajectories stay bit-identical: the benchmark's golden bytes.

``bench/baseline.json`` records, per workload and seed, the sha256 of the
checkpoint and report that one repeat of the workload writes. A change in
rounding order anywhere on the training or evaluation path changes them.
This runs one untraced seed-0 repeat of each workload through
``bench/run.py``'s ``Bench``, each in a fresh process as the benchmark runs
it, and compares both digests with the recorded ones.

Every workload and acceptance check starts from one of two generated
worlds: the acceptance world and the README world. Their interaction and
latent files are pinned here by sha256 too, so that a change in how records
are generated shows up as a changed world, not only as changed training.

The workloads evaluate item queries only, so the report and tables of a
``user_shop`` evaluation on the ``tests/test_cli.py`` world are pinned too:
ranking and scoring run under every query mode.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from metashop.cli import main
from test_cli import base_config, write_config

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


WORLD = """
import hashlib, json, sys
from pathlib import Path
import yaml
sys.path.insert(0, "bench")
import run
run.import_metashop()
import workloads
from metashop import datapipe
world, work = sys.argv[1], Path(sys.argv[2])
if world == "acceptance":
    spec = datapipe.SyntheticSpec(
        seed=workloads.ACCEPTANCE_WORLD_SEED, **workloads.ACCEPTANCE_WORLD
    )
else:
    synthetic = yaml.safe_load(workloads.README_CONFIG)["synthetic"]
    spec = datapipe.SyntheticSpec(seed=workloads.README_WORLD_SEED, **synthetic)
data = datapipe.generate_synthetic(spec)
work.mkdir()
datapipe.save_interactions(work / "train.csv", data.train)
datapipe.save_interactions(work / "test.csv", data.test)
datapipe.save_latents(
    work / "latents.csv", data.features.users, data.features.items, data.shop_effects
)
print(json.dumps({
    name: hashlib.sha256((work / name).read_bytes()).hexdigest()
    for name in ("train.csv", "test.csv", "latents.csv")
}))
"""

WORLD_SHA256 = {
    "acceptance": {
        "train.csv": "fab7d950de7cdad42faf5171786cec29e0a5bc79702fb6406f68f2822063dc72",
        "test.csv": "952425274b1840a5e276447e4140a1478f2859c5066e6871c6f32fea968ffa64",
        "latents.csv": "ee2e0fab10d82d60ada26d8db424949ac1786b0ff6d9f2cbbe78ea523258161a",
    },
    "readme": {
        "train.csv": "b432866ccdd17481b2cf8afb2ee670195e53114dbdb082d03ad38f8529f232ab",
        "test.csv": "88b4b09518c78d94beb7e13777a9bcf3bf58921c4367dc13eb5307f3e3d9594f",
        "latents.csv": "033480dcc25d814e9fd5d21455d1ce516d1e84125aa4fb23913b9d6d61ad790d",
    },
}


@pytest.mark.parametrize("world", sorted(WORLD_SHA256))
def test_generated_world_files_keep_their_bytes(world, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", WORLD, world, str(tmp_path / "world")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == WORLD_SHA256[world]


USER_SHOP_SHA256 = {
    "report.json": "1bfa83df7f5e5cc9a01388fd80d2b88251cbecefb455b993f80004935f16d90f",
    "tables.txt": "8d8837de2eb05c65246905fca817ff687e639c02c9a1f2c586073de1770674e4",
}


def test_user_shop_evaluation_keeps_its_bytes(tmp_path):
    out = tmp_path / "run"
    cfg = str(write_config(tmp_path / "run.yaml", base_config(out)))
    for command in ("gen-data", "train"):
        assert main([command, "--config", cfg]) == 0
    assert main(["evaluate", "--config", cfg, "--set", "eval.query_mode=user_shop"]) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in USER_SHOP_SHA256
    }
    assert got == USER_SHOP_SHA256
