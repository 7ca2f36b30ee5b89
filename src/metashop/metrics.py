"""Ranking metrics and the two-level (item/shop) evaluation report.

One kernel ranks and scores every query: a score matrix holds a column per
query and a row per candidate, rows sorted by id. ``rank_order`` sorts each
column by descending score (ties go to the smaller id, 0.0 ties -0.0, NaN
ranks last), and ``recall_columns`` and ``ndcg_columns`` score the gain
matrix gathered in that order. ``recall_at_k`` and ``ndcg_at_k`` are
one-column calls of it. A large matrix is sorted column by column with the
faster unstable sort, and only the columns holding equal scores or NaN are
sorted again stably, so every column gets the stable sort's order.

recall@k counts a candidate as relevant when its gain is > 0, and has two
conventions, selected by RecallMode:
  * STANDARD divides hits in the top k by the total number of relevant
    candidates (undefined when there are none: the query is skipped and
    counted).
  * TOPK_FRACTION divides by k itself, so its ceiling is min(1, R/k); some
    published shop-level numbers use this form, which is why both exist.

nDCG@k uses gains 2^g - 1 and the log2(1 + rank) discount; a query whose
ideal DCG is zero scores 0.

Aggregation: item level is the unweighted mean over queries; shop level
first averages within each shop, then across shops (so small shops count as
much as large ones). Shop-level variance is the population variance of the
per-shop means, and threshold-exceedance rows report the fraction of shops
at or above each threshold.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .checkpoint import atomic_write_text, canonical_json, from_json, read_text, to_json
from .datapipe import SizeClass
from .errors import ConfigError, DataError, EmptyBatchError

REPORT_FORMAT_VERSION = 1
DEFAULT_THRESHOLDS = (0.5, 0.6, 0.7, 0.8)


class RecallMode(enum.Enum):
    STANDARD = "standard"
    TOPK_FRACTION = "topk_fraction"


@dataclass(frozen=True)
class RankedPrediction:
    """One query's candidates, best first, with their relevance gains."""

    query_id: str
    shop_id: str
    ranked: tuple[str, ...]
    relevance: dict[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranked", tuple(self.ranked))
        if not self.ranked:
            raise DataError(f"query {self.query_id!r} has no candidates")
        if len(set(self.ranked)) != len(self.ranked):
            raise DataError(f"query {self.query_id!r} has duplicate candidates")
        extra = set(self.relevance) - set(self.ranked)
        if extra:
            raise DataError(
                f"query {self.query_id!r}: relevance for unknown candidates "
                f"{sorted(extra)[:5]}"
            )

    @staticmethod
    def from_scores(
        query_id: str,
        shop_id: str,
        scores: Mapping[str, float],
        relevance: Mapping[str, float],
    ) -> "RankedPrediction":
        """Rank by descending score; ties break toward the smaller id."""
        ids = sorted(scores)
        order = rank_order(np.array([[scores[c]] for c in ids], dtype=np.float64))
        ranked = [ids[i] for i in order[:, 0]]
        return RankedPrediction(query_id, shop_id, ranked, dict(relevance))


# The two sorts cross near this many scores (timeit, 2 vCPUs: (600, 2) takes 22 us
# stable against 42 on the fast path, (400, 6) 144 against 86).
_FAST_RANK_MIN_SIZE = 1500


def rank_order(scores: np.ndarray) -> np.ndarray:
    """Row indices of each column by descending score.

    Rows must be sorted by candidate id: the order is the stable sort's, which
    breaks ties toward the smaller id, ties 0.0 with -0.0, and ranks NaN last.
    """
    if scores.size < _FAST_RANK_MIN_SIZE:
        return np.argsort(-scores, axis=0, kind="stable")
    cols = np.negative(scores.T, order="C")
    order = np.argsort(cols, axis=1)
    ranked = np.take_along_axis(cols, order, axis=1)
    # a column without equal scores or NaN has one order; re-sort the others
    redo = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
    for j in np.flatnonzero(redo | np.isnan(ranked[:, -1:]).any(axis=1)):
        order[j] = np.argsort(cols[j], kind="stable")
    return order.T


def _check_k(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ConfigError(f"k must be a positive integer, got {k!r}")


def recall_columns(
    gains: np.ndarray, k: int, mode: RecallMode = RecallMode.STANDARD
) -> list[float | None]:
    """recall@k of each column of ``gains`` in rank order; None if no gain is > 0."""
    _check_k(k)
    relevant = gains > 0
    hits = relevant[:k].sum(axis=0).tolist()
    totals = relevant.sum(axis=0).tolist()
    if mode is RecallMode.TOPK_FRACTION:
        return [h / k if t else None for h, t in zip(hits, totals)]
    return [h / t if t else None for h, t in zip(hits, totals)]


def _dcg(gains: np.ndarray) -> list[float]:
    # scalar terms added rank by rank: numpy's power and log2 can round differently
    totals = [0.0] * gains.shape[1]
    for r, row in enumerate(gains.tolist(), start=1):
        discount = math.log2(1.0 + r)
        totals = [t + (2.0 ** g - 1.0) / discount for t, g in zip(totals, row)]
    return totals


def ndcg_columns(gains: np.ndarray, k: int) -> list[float]:
    """nDCG@k of each column of ``gains`` in rank order; 0.0 if the ideal DCG is 0."""
    _check_k(k)
    n = gains.shape[0]
    top = np.partition(gains, n - k, axis=0)[n - k:] if k < n else gains
    ideal = _dcg(np.sort(top, axis=0)[::-1])
    return [d / i if i != 0.0 else 0.0 for d, i in zip(_dcg(gains[:k]), ideal)]


def _gain_column(pred: RankedPrediction) -> np.ndarray:
    return np.array([[pred.relevance.get(c, 0.0)] for c in pred.ranked])


def recall_at_k(
    pred: RankedPrediction, k: int, mode: RecallMode = RecallMode.STANDARD
) -> float | None:
    """Hits in the top k over relevant count (STANDARD) or over k itself."""
    return recall_columns(_gain_column(pred), k, mode)[0]


def ndcg_at_k(pred: RankedPrediction, k: int) -> float:
    """DCG over ideal DCG; exactly 1.0 for a perfect ranking, 0 if IDCG is 0."""
    return ndcg_columns(_gain_column(pred), k)[0]


def mae(predictions: Sequence[float], labels: Sequence[float]) -> float:
    """Mean absolute error between predictions and labels."""
    p = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if p.size == 0:
        raise EmptyBatchError("mae on an empty batch")
    if p.shape != y.shape:
        raise DataError(f"predictions {p.shape} vs labels {y.shape}")
    return float(np.mean(np.abs(p - y)))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryMetrics:
    """Metric values for one query; None marks an undefined (skipped) value."""

    query_id: str
    shop_id: str
    values: dict[str, float | None]


@dataclass(frozen=True)
class MetricSummary:
    item_level: float | None
    shop_mean: float | None
    shop_variance: float | None
    per_shop: dict[str, float]
    exceedance: dict[str, float]
    n_queries: int
    n_skipped: int


@dataclass(frozen=True)
class EvaluationReport:
    metrics: dict[str, MetricSummary]
    by_class: dict[str, dict[str, MetricSummary]]
    counts: dict[str, int]


def _summarise(
    queries: Sequence[QueryMetrics], name: str, thresholds: Sequence[float]
) -> MetricSummary:
    defined: list[tuple[str, float]] = []
    skipped = 0
    total = 0
    for q in queries:
        if name not in q.values:
            continue
        total += 1
        v = q.values[name]
        if v is None:
            skipped += 1
        else:
            defined.append((q.shop_id, v))
    per_shop: dict[str, list[float]] = {}
    for shop, v in defined:
        per_shop.setdefault(shop, []).append(v)
    shop_means = {s: float(np.mean(vs)) for s, vs in sorted(per_shop.items())}
    if defined:
        item_level = float(np.mean([v for _, v in defined]))
        means = np.asarray(list(shop_means.values()))
        shop_mean = float(np.mean(means))
        shop_var = float(np.var(means))
    else:
        item_level = shop_mean = shop_var = None
    exceedance = {}
    if shop_means:
        vals = np.asarray(list(shop_means.values()))
        for t in thresholds:
            exceedance[f"{t:g}"] = float(np.mean(vals >= t))
    return MetricSummary(
        item_level, shop_mean, shop_var, shop_means, exceedance, total, skipped
    )


def aggregate(
    queries: Sequence[QueryMetrics],
    shop_classes: Mapping[str, SizeClass] | None = None,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    extra_counts: Mapping[str, int] | None = None,
) -> EvaluationReport:
    """Build the evaluation report from per-query metric values.

    ``shop_classes`` (shop id -> size class) adds per-class breakdowns; the
    invariant item_level == mean over defined queries and shop level ==
    mean-of-shop-means holds within every breakdown too.
    """
    names = sorted({n for q in queries for n in q.values})
    metrics = {n: _summarise(queries, n, thresholds) for n in names}
    by_class: dict[str, dict[str, MetricSummary]] = {}
    if shop_classes is not None:
        for cls in SizeClass:
            subset = [q for q in queries if shop_classes.get(q.shop_id) is cls]
            if subset:
                by_class[cls.value] = {
                    n: _summarise(subset, n, thresholds) for n in names
                }
    counts = {
        "queries": len(queries),
        "shops": len({q.shop_id for q in queries}),
    }
    if shop_classes is not None:
        eval_shops = {q.shop_id for q in queries}
        for cls in SizeClass:
            counts[f"shops_{cls.value}"] = sum(
                1 for s in eval_shops if shop_classes.get(s) is cls
            )
    counts.update(extra_counts or {})
    return EvaluationReport(metrics, by_class, counts)


# ---------------------------------------------------------------------------
# report (de)serialisation
# ---------------------------------------------------------------------------


def report_to_json(report: EvaluationReport) -> dict:
    return {"format_version": REPORT_FORMAT_VERSION, **to_json(report)}


def report_from_json(obj: Mapping) -> EvaluationReport:
    try:
        if obj["format_version"] != REPORT_FORMAT_VERSION:
            raise DataError(
                f"report format_version {obj['format_version']!r} not supported"
            )
        report = from_json(EvaluationReport, obj)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"unreadable report near field {exc!r}") from exc
    for table in (report.metrics, *report.by_class.values()):
        for name, summary in table.items():
            try:
                sorted(summary.exceedance, key=float)  # as report_tables sorts them
            except ValueError as exc:
                raise DataError(f"report metric {name!r}: {exc}") from None
    return report


def save_report(path: str | Path, report: EvaluationReport) -> None:
    atomic_write_text(path, canonical_json(report_to_json(report)))


def load_report(path: str | Path) -> EvaluationReport:
    try:
        obj = json.loads(read_text(path, "report ", DataError))
    except json.JSONDecodeError as exc:
        raise DataError(f"report {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"report {path} does not hold a JSON object")
    try:
        return report_from_json(obj)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.6f}"


def report_tables(report: EvaluationReport) -> str:
    """Human-readable tab-delimited tables (summary, breakdowns, thresholds)."""
    lines = ["# metric summary"]
    lines.append(
        "metric\tclass\titem_level\tshop_mean\tshop_variance\tn_queries\tn_skipped"
    )
    blocks: list[tuple[str, dict[str, MetricSummary]]] = [("all", report.metrics)]
    blocks += sorted(report.by_class.items())
    for cls, table in blocks:
        for name in sorted(table):
            s = table[name]
            lines.append(
                f"{name}\t{cls}\t{_fmt(s.item_level)}\t{_fmt(s.shop_mean)}"
                f"\t{_fmt(s.shop_variance)}\t{s.n_queries}\t{s.n_skipped}"
            )
    any_thresholds = any(s.exceedance for s in report.metrics.values())
    if any_thresholds:
        lines.append("")
        lines.append("# fraction of shops at or above threshold")
        lines.append("metric\tclass\tthreshold\tfraction")
        for cls, table in blocks:
            for name in sorted(table):
                for t, frac in sorted(
                    table[name].exceedance.items(), key=lambda kv: float(kv[0])
                ):
                    lines.append(f"{name}\t{cls}\t{t}\t{frac:.6f}")
    lines.append("")
    lines.append("# counts")
    lines.append("key\tvalue")
    for k in sorted(report.counts):
        lines.append(f"{k}\t{report.counts[k]}")
    return "\n".join(lines) + "\n"
