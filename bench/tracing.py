"""Spans and counters around the calls into each metashop module.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces a
public function with a timing wrapper at the name its calling module looks
it up by (``metaopt.prepare_batch``, ``numcore.sgd_step``, ...), so that one
span is one call into a layer; ``Tracer.restore`` puts the originals back.
Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends.
"""

from __future__ import annotations

import importlib
import os
import statistics
from collections import Counter
from contextlib import contextmanager

from hostspeed import now


def _n(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


def _records_resolved(counts, args, kwargs, result):
    counts["models.prepare_batch_calls"] += 1
    counts["models.records_resolved"] += _n(args[0] if args else kwargs["records"])


def _candidates_scored(counts, args, kwargs, result):
    counts["evaluation.candidates_scored"] += result.size


def _queries(counts, args, kwargs, result):
    counts["metrics.queries"] += _n(args[0] if args else kwargs["queries"])


def _records_loaded(counts, args, kwargs, result):
    counts["datapipe.records_loaded"] += _n(result)


def _synthetic_records(counts, args, kwargs, result):
    counts["datapipe.records_loaded"] += len(result.train) + len(result.test)


def _checkpoint_bytes(counts, args, kwargs, result):
    counts["checkpoint.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# (module, attribute, span name, counter). The span name is the layer and
# function that runs; the attribute is where its caller finds it.
SITES = [
    ("datapipe", "generate_synthetic", "datapipe.generate_synthetic", _synthetic_records),
    ("cli", "generate_synthetic", "datapipe.generate_synthetic", _synthetic_records),
    ("datapipe", "load_interactions", "datapipe.load_interactions", _records_loaded),
    ("cli", "load_interactions", "datapipe.load_interactions", _records_loaded),
    ("datapipe", "build_tasks", "datapipe.build_tasks", None),
    ("cli", "build_tasks", "datapipe.build_tasks", None),
    ("metaopt", "prepare_batch", "models.prepare_batch", _records_resolved),
    ("metaopt", "model_loss_and_grad", "models.model_loss_and_grad", None),
    ("numcore", "sgd_step", "numcore.sgd_step", None),
    ("numcore", "tree_check_finite", "numcore.tree_check_finite", None),
    ("numcore", "model_forward_trace", "numcore.model_forward_trace", None),
    ("numcore", "model_backward", "numcore.model_backward", None),
    ("metaopt", "meta_train_step", "metaopt.meta_train_step", None),
    ("metaopt", "local_adapt", "metaopt.local_adapt", None),
    ("cli", "local_adapt", "metaopt.local_adapt", None),
    ("metaopt", "meta_inference", "metaopt.meta_inference", None),
    ("cli", "meta_inference", "metaopt.meta_inference", None),
    ("metaopt", "nonmeta_train", "metaopt.nonmeta_train", None),
    ("evaluation", "score_matrix", "evaluation.score_matrix", _candidates_scored),
    ("evaluation", "aggregate", "metrics.aggregate", _queries),
    ("checkpoint", "save_checkpoint", "checkpoint.save", _checkpoint_bytes),
    ("cli", "save_checkpoint", "checkpoint.save", _checkpoint_bytes),
    ("checkpoint", "load_checkpoint", "checkpoint.load", None),
    ("cli", "load_checkpoint", "checkpoint.load", None),
    ("cli", "cmd_gen_data", "cli.gen_data", None),
    ("cli", "cmd_train", "cli.train", None),
    ("cli", "cmd_evaluate", "cli.evaluate", None),
    ("cli", "cmd_adapt", "cli.adapt", None),
]

# tree_map recurses through its own module global, so a counting wrapper
# there sees every node visited. It gets no span: one per node would cost
# more than the walk it measures.
COUNT_ONLY = [("numcore", "tree_map", "numcore.tree_map_nodes")]

# Per-layer metrics: (metric name, span name, unit). Each span also yields
# a ``<stem>_self_<unit>`` metric: its time minus the time of its children.
SPAN_METRICS = [
    ("models.prepare_batch_ms", "models.prepare_batch", "ms"),
    ("models.model_loss_and_grad_ms", "models.model_loss_and_grad", "ms"),
    ("numcore.sgd_step_ms", "numcore.sgd_step", "ms"),
    ("numcore.tree_check_finite_ms", "numcore.tree_check_finite", "ms"),
    ("numcore.model_forward_trace_ms", "numcore.model_forward_trace", "ms"),
    ("numcore.model_backward_ms", "numcore.model_backward", "ms"),
    ("metaopt.meta_train_step_ms", "metaopt.meta_train_step", "ms"),
    ("metaopt.local_adapt_ms", "metaopt.local_adapt", "ms"),
    ("metaopt.meta_inference_s", "metaopt.meta_inference", "s"),
    ("metaopt.nonmeta_train_s", "metaopt.nonmeta_train", "s"),
    ("evaluation.score_matrix_ms", "evaluation.score_matrix", "ms"),
    ("metrics.aggregate_ms", "metrics.aggregate", "ms"),
    ("datapipe.generate_synthetic_s", "datapipe.generate_synthetic", "s"),
    ("datapipe.load_interactions_s", "datapipe.load_interactions", "s"),
    ("datapipe.build_tasks_s", "datapipe.build_tasks", "s"),
    ("checkpoint.save_ms", "checkpoint.save", "ms"),
    ("checkpoint.load_ms", "checkpoint.load", "ms"),
    ("cli.gen_data_s", "cli.gen_data", "s"),
    ("cli.train_s", "cli.train", "s"),
    ("cli.evaluate_s", "cli.evaluate", "s"),
    ("cli.adapt_s", "cli.adapt", "s"),
]

COUNT_METRICS = [
    "models.prepare_batch_calls",
    "models.records_resolved",
    "numcore.tree_map_nodes",
    "evaluation.candidates_scored",
    "metrics.queries",
    "datapipe.records_loaded",
    "checkpoint.bytes",
]

_SCALE = {"ms": 1e3, "s": 1.0}


def self_metric_name(name: str, unit: str) -> str:
    return f"{name[: -len(unit) - 1]}_self_{unit}"


class Tracer:
    """In-memory spans and counters for the wrapped call sites."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, now(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = now()

    def _wrap(self, fn, name, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, now(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = now()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def _count_only(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for mod, attr, name, count in SITES:
            self._replace(mod, attr, lambda fn: self._wrap(fn, name, count))
        for mod, attr, key in COUNT_ONLY:
            self._replace(mod, attr, lambda fn: self._count_only(fn, key))

    def _replace(self, mod: str, attr: str, wrap) -> None:
        module = importlib.import_module(f"metashop.{mod}")
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrap(fn))

    def restore(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def mark(self) -> tuple[int, Counter]:
        """Where one repeat starts, for ``layer_metrics``."""
        return len(self.spans), Counter(self.counts)

    def layer_metrics(self, since: tuple[int, Counter]) -> tuple[dict, list[float]]:
        """Totals per span and counter since ``since``.

        Returns the metrics of one repeat and the durations (ms) of each
        meta step in it, for percentiles across repeats.
        """
        first, counts_before = since
        spans = self.spans[first:]
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in spans:
            total[name] += end - start
            if parent >= first:
                child[parent] += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, _) in enumerate(spans, start=first):
            self_time[name] += (end - start) - child[i]
        out = {}
        for metric, span_name, unit in SPAN_METRICS:
            out[metric] = total[span_name] * _SCALE[unit]
            out[self_metric_name(metric, unit)] = self_time[span_name] * _SCALE[unit]
        for key in COUNT_METRICS:
            out[key] = self.counts[key] - counts_before[key]
        steps = [
            (end - start) * 1e3
            for name, start, end, _ in spans
            if name == "metaopt.meta_train_step"
        ]
        return out, steps


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``' inclusive rule."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
