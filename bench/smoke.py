"""The benchmark's own smoke check.

Runs every workload on a tiny world with seed 2, untraced and traced, and
checks that each metric named in BENCHMARK.json comes out by name with its
unit, finite, and that every run's output checks pass. Then it forces a
failure (the quickstart ``adapt`` command reads a missing CSV) and checks
that the failure is counted in ``failed`` rather than crashing the run.

    python3 bench/smoke.py

Exits 0 when every check holds. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import sys

import run

SEED = 2


def expect(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok' if ok else 'FAILED'}: {what}")
    if not ok:
        failures.append(what)


def bench_once(workload: str, size, trace: int) -> tuple[dict, str]:
    work = run.OUT / "work" / f"smoke-{workload}"
    bench = run.Bench(workload, SEED, size, work, trace)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            result = bench.run(0.0, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result, out.getvalue()


def main() -> int:
    run.import_metashop()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for workload in run.WORKLOAD_NAMES:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, text = bench_once(workload, workloads.TINY, trace)
            tag = f"{workload} trace={trace}"
            expect(result["correct"], f"{tag}: output checks pass", failures)
            expect(result["failed"] == 0, f"{tag}: no operation failed", failures)
            got = result["metrics"]
            expect(
                set(got) == {m["name"] for m in declared},
                f"{tag}: emits exactly the declared metrics", failures,
            )
            expect(
                all(got.get(m["name"], {}).get("unit") == m["unit"] for m in declared),
                f"{tag}: every metric has its declared unit", failures,
            )
            expect(
                all(math.isfinite(v["value"]) for v in got.values()),
                f"{tag}: every metric is finite", failures,
            )
            lines = {tuple(line.split()[::2][:2]) for line in text.splitlines()}
            printed = run.END_TO_END + run.QUALITY + [("failed_frac", "fraction")]
            expect(
                all((name, unit) in lines for name, unit in printed),
                f"{tag}: prints every end-to-end figure with its unit", failures,
            )

    broken = dataclasses.replace(workloads.TINY, adapt_support="missing.csv")
    result, text = bench_once("quickstart", broken, 0)
    expect(result["failed"] >= 1, "forced failure: counted in failed", failures)
    expect(
        result["attempted"] > result["failed"],
        "forced failure: the other operations still ran", failures,
    )
    expect(not result["correct"], "forced failure: the run is not reported correct", failures)
    expect(
        "failed_frac" in text and set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]},
        "forced failure: the run still reports every metric", failures,
    )
    print(f"smoke check: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
