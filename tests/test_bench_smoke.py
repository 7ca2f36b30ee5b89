"""The benchmark's smoke check, run as part of the test suite.

``bench/tracing.py`` wraps functions by the names their callers look them up
by, and every benchmark workload checks its own outputs. This runs
``bench/smoke.py`` (a tiny world, traced and untraced) so that a renamed
function or a broken workload check fails here, not only in a benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_check_passes():
    proc = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
