"""Benchmark of metashop: end-to-end figures, or per-layer figures from a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload vocab_meta --seed 1 --seconds 20 --trace 0

``--workload`` is ``quickstart``, ``vocab_meta``, ``pooled_joint`` or
``all`` (each workload in a fresh process, one after the other). Each
workload has a fixed synthetic marketplace; the seed draws the rest of its
inputs (see ``workloads.py``), and the same seed gives the same inputs. A run
repeats the whole workload for about ``--seconds`` seconds (at least
three times) and reports medians over the repeats. Every time reported is
in reference seconds: the measured time scaled by how fast a fixed
calibration slice, run from a timer every 20 ms, ran during that phase of
the repeat (``bench/hostspeed.py``), so that runs made while the shared
host is slower or faster compare. The unscaled medians are printed and
recorded as well.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` first repeats
the workload untraced for half the time, then with a span around every
call into each module (``bench/tracing.py``) for the other half, and
prints the per-layer metrics plus ``trace.overhead_s``: traced minus
untraced median ``total_s``.

Every run checks its outputs: the checkpoint survives a save -> load
round trip bit for bit, repeats give byte-identical checkpoints and
reports (so identical ``new_shop_recall`` and ``recall_shop_var``), serving
agrees with evaluation, and every metric is finite. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A record of the run (machine, seed, sha256 of
the checkpoint and report, per-repeat times, spans) goes to
``.bench_out/results/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread (at most nproc) before numpy loads: the workloads
# are single-client closed loops and their matrices are small.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("quickstart", "vocab_meta", "pooled_joint")
MIN_REPEATS = 3
MIN_TRACE_REPEATS = 2

# (name, unit) of every end-to-end metric, in the order printed.
END_TO_END = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("eval_s", "s"),
    ("total_s", "s"),
    ("serve_ms_p50", "ms"),
    ("serve_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]
# Exact outputs, printed on every run and reported with the per-layer
# metrics. They change with the seed, so they carry no run-to-run bound.
QUALITY = [("new_shop_recall", "fraction"), ("recall_shop_var", "fraction_sq")]


def import_metashop():
    """Import metashop from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import metashop
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import metashop from {SRC}: {exc}")
    if Path(metashop.__file__).resolve().parent != SRC / "metashop":
        raise SystemExit(f"bench: metashop came from {metashop.__file__}, not {SRC}")


def blas_threads(np) -> int | None:
    """Threads OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record(np, workload: str, seed: int, trace: int) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads(np),
        "machine": platform.machine(),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def median_of(reps, key) -> float:
    return statistics.median(key(r) for r in reps)


class Bench:
    """One workload, one seed: the repeat loop, checks and result."""

    def __init__(self, workload: str, seed: int, size, work: Path, trace: int):
        import numpy as np

        import workloads

        self.w = workloads
        self.workload = workload
        self.run_fn = workloads.WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.work = work
        self.machine = machine_record(np, workload, seed, trace)

    def repeat(self, tracer=None, size=None):
        work = self.w.fresh_dir(self.work / "repeat")
        rep = self.w.Repeat(tracer=tracer, mark=tracer.mark() if tracer else None)
        try:
            self.run_fn(rep, self.seed, size or self.size, work)
        except self.w.RepeatFailed:
            return rep
        rep.outputs["checkpoint_sha256"] = sha256(rep.outputs.pop("checkpoint"))
        rep.outputs["report_sha256"] = sha256(rep.outputs.pop("report"))
        if tracer is not None:
            self.rank_metrics(rep, tracer)
        rep.rank_inputs = None  # let the repeat's world go
        return rep

    def repeats(self, budget_s: float, at_least: int, tracer=None) -> list:
        """Repeat until the next repeat would overrun ``budget_s``.

        A repeat's scale comes from the calibration slices run during it,
        and each phase's from those run during or nearest to the phase.
        """
        reps = []
        start = time.perf_counter()
        last = 0.0
        while len(reps) < at_least or time.perf_counter() - start + last <= budget_s:
            began = time.perf_counter()
            mark = hostspeed.SAMPLER.mark()
            rep = self.repeat(tracer)
            rep.scale = hostspeed.SAMPLER.scale([(mark, hostspeed.SAMPLER.mark())])
            rep.phase_scale = {
                name: hostspeed.SAMPLER.scale(ranges) for name, ranges in rep.phase_slices.items()
            }
            reps.append(rep)
            last = time.perf_counter() - began
        return reps

    def rank_metrics(self, rep, tracer) -> None:
        """Time ``evaluate_tasks`` on precomputed scores: ranking and metrics alone.

        The scores come from the models the workload evaluated, so the
        report must equal the workload's own, byte for byte.
        """
        ev, metrics = self.w.evaluation, self.w.metrics
        w, scored, report = rep.rank_inputs()
        scores = {}
        for task in w["test_tasks"]:
            model = scored[task.shop_id] if isinstance(scored, dict) else scored
            items = sorted({r.item_id for r in task.query})
            scores[task.shop_id] = ev.score_matrix(model, w["pool"], items, w["features"])
        scorers = {shop: (lambda s: lambda users, items: s)(m) for shop, m in scores.items()}
        start = hostspeed.now()
        with tracer.span("bench.rank_metrics"):
            ranked = ev.evaluate_tasks(
                scorers, w["test_tasks"], w["features"], w["options"],
                shop_classes=w["stats"].taxonomy, user_pool=w["pool"],
            )
        rep.outputs["rank_metrics_s"] = hostspeed.now() - start
        rep.check(
            "rank_metrics_report_matches",
            metrics.report_to_json(ranked) == metrics.report_to_json(report),
        )

    def run(self, seconds: float, trace: int) -> dict:
        hostspeed.SAMPLER.start()
        try:
            # warm caches and lazy set-up on a tiny world, untimed
            self.repeat(size=self.w.TINY)
            if not trace:
                return self.result(self.repeats(seconds, MIN_REPEATS), [], trace)
            plain = self.repeats(seconds / 2, MIN_TRACE_REPEATS)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = self.repeats(seconds / 2, MIN_TRACE_REPEATS, tracer)
            finally:
                tracer.restore()
            self.tracer = tracer
            return self.result(plain, traced, trace)
        finally:
            hostspeed.SAMPLER.stop()

    def result(self, plain: list, traced: list, trace: int) -> dict:
        all_reps = plain + traced
        ok = [r for r in all_reps if r.total_s is not None]
        ok_plain = [r for r in plain if r.total_s is not None]
        ok_traced = [r for r in traced if r.total_s is not None]
        attempted = sum(r.attempted for r in all_reps)
        failed = sum(r.failed for r in all_reps)
        checks: dict[str, bool] = {}
        for r in all_reps:
            for name, passed in r.checks.items():
                checks[name] = checks.get(name, True) and passed
        for key in ("new_shop_recall", "recall_shop_var", "checkpoint_sha256", "report_sha256"):
            checks[f"identical_{key}"] = len({r.outputs.get(key) for r in ok}) == 1

        for error in sorted({e for r in all_reps for e in r.errors}):
            print(f"bench: {error}", file=sys.stderr)
        if not ok_plain or (trace and not ok_traced):
            raise SystemExit("bench: no repeat of the workload completed")

        e2e = end_to_end(ok_plain, scaled=True)
        wall = end_to_end(ok_plain, scaled=False)
        serve = [x for r in ok_plain for x in r.serve_ms]
        quality = {name: ok[0].outputs[name] for name, _ in QUALITY}
        units = dict(END_TO_END)
        if trace:
            metrics = self.layer_metrics(ok_traced, e2e["total_s"], quality)
            units = {n: u for n, u in layer_units()}
        else:
            metrics = e2e
        checks["metrics_finite"] = all(
            math.isfinite(v) for v in [*e2e.values(), *metrics.values(), *quality.values()]
        )

        record = {
            "machine": self.machine,
            "checks": checks,
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "serve_samples": len(serve),
            "repeats_untraced": len(ok_plain),
            "repeats_traced": len(ok_traced),
            "end_to_end": e2e,
            "end_to_end_wall": wall,
            "host": host_record(),
            "quality": quality,
            "checkpoint_sha256": ok[0].outputs["checkpoint_sha256"],
            "report_sha256": ok[0].outputs["report_sha256"],
            "per_repeat": [
                {"traced": traced_, "total_s": r.total_s, "times": r.times,
                 "scale": r.scale, "phase_scale": r.phase_scale, "errors": r.errors}
                for traced_, reps in ((False, plain), (True, traced))
                for r in reps
            ],
            "metrics": metrics,
        }
        self.write_record(record, trace)

        for name, unit in END_TO_END:
            print(f"{name} {e2e[name]:.6g} {unit}")
        print("wall-clock " + " ".join(f"{n}={wall[n]:.6g}{u}" for n, u in END_TO_END))
        print("host " + json.dumps(record["host"], sort_keys=True))
        for name, unit in QUALITY:
            print(f"{name} {quality[name]:.10g} {unit}")
        print(f"failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} operations)")
        if trace:
            for name, unit in layer_units():
                print(f"{name} {metrics[name]:.6g} {unit}")
        print(f"checkpoint_sha256 {record['checkpoint_sha256']}")
        print(f"report_sha256 {record['report_sha256']}")
        print("checks " + " ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in checks.items()))
        print("machine " + json.dumps(self.machine, sort_keys=True))
        return {
            "correct": all(checks.values()) and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        }

    def layer_metrics(self, reps: list, untraced_total_s: float, quality: dict) -> dict:
        def scale(r, name):
            return 1.0 if name in tracing.COUNT_METRICS else r.scale

        out = {
            name: median_of(reps, lambda r: r.layers[0][name] * scale(r, name))
            for name in reps[0].layers[0]
        }
        steps = [ms * r.scale for r in reps for ms in r.layers[1]]
        out["metaopt.meta_train_step_ms_p50"] = tracing.percentile(steps, 50) if steps else 0.0
        out["metaopt.meta_train_step_ms_p90"] = tracing.percentile(steps, 90) if steps else 0.0
        out["evaluation.rank_metrics_s"] = median_of(
            reps, lambda r: r.outputs["rank_metrics_s"] * r.scale
        )
        out["trace.overhead_s"] = median_of(reps, lambda r: r.total_s * r.scale) - untraced_total_s
        out["trace.spans"] = len(self.tracer.spans) / len(reps)
        for name, _ in QUALITY:
            out[f"evaluation.{name}"] = quality[name]
        return out

    def write_record(self, record: dict, trace: int) -> None:
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}-trace{trace}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
        if trace:
            names = sorted({s[0] for s in self.tracer.spans})
            code = {n: i for i, n in enumerate(names)}
            (results / f"{stem}-spans.json").write_text(json.dumps({
                "fields": ["name", "start_s", "end_s", "parent"],
                "names": names,
                "spans": [[code[n], a, b, p] for n, a, b, p in self.tracer.spans],
            }))


def host_record() -> dict:
    """The calibration slices of the run so far (``hostspeed.py``)."""
    slices = hostspeed.SAMPLER.slices
    return {
        "slices": len(slices),
        "slice_ms_median": statistics.median(slices) * 1e3 if slices else None,
        "slice_ms_reference": hostspeed.REFERENCE_SLICE_S * 1e3,
        "interval_ms": hostspeed.INTERVAL_S * 1e3,
        "in_slices_s": hostspeed.SAMPLER.in_slices,
    }


def end_to_end(reps: list, scaled: bool) -> dict:
    """End-to-end metrics over ``reps``, in reference seconds when ``scaled``.

    Phase times are medians over the repeats; serve latencies are the
    median over the repeats of each repeat's percentile (at least 100
    requests each, so ten beyond the 90th).
    """

    def s(r, phase=None):
        if not scaled:
            return 1.0
        return r.phase_scale.get(phase, r.scale) if phase else r.scale

    def phase(name):
        return median_of(reps, lambda r: r.times[name] * s(r, name))

    def serve(q):
        return median_of(
            reps, lambda r: tracing.percentile([x * s(r, "serve") for x in r.serve_ms], q)
        )

    return {
        "setup_s": phase("setup"),
        "train_s": phase("train"),
        "eval_s": phase("evaluate"),
        "total_s": median_of(reps, lambda r: r.total_s * s(r)),
        "serve_ms_p50": serve(50),
        "serve_ms_p90": serve(90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_units() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in the order printed."""
    out = []
    for name, _, unit in tracing.SPAN_METRICS:
        out += [(name, unit), (tracing.self_metric_name(name, unit), unit)]
    out += [(name, "count") for name in tracing.COUNT_METRICS]
    out += [
        ("metaopt.meta_train_step_ms_p50", "ms"),
        ("metaopt.meta_train_step_ms_p90", "ms"),
        ("evaluation.rank_metrics_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    out += [(f"evaluation.{name}", unit) for name, unit in QUALITY]
    return out


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_metashop()
    import workloads

    work = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, workloads.FULL, work, args.trace)
    try:
        result = bench.run(args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
