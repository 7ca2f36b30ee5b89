"""Scoring pipeline: run models over test tasks and build evaluation reports.

Two query shapes, picked automatically from the labels when not forced:
  * ITEM (binary logs): each test item is a query; candidates are users (the
    full user pool by default) and a user is relevant if the item's query
    records show a purchase. This matches advertising an item to users.
  * USER_SHOP (rating logs): each (user, shop) cell is a query; candidates
    are the items that user rated in the shop's test records, with the
    rating as the nDCG gain (relevant for recall when at or above the
    rating threshold).

Every query scores its candidates through one interface. A model is a
RecModel, scored by ``score_matrix``, or a scorer: a callable taking
(user ids, item ids) and returning an (n_users, n_items) score array. A
model that needs more context to score binds it into a scorer first; the
distance baseline, for one, computes its user representations once and
scores with ``models.baseline_score_matrix``. Item queries over the shared
user pool resolve its feature rows once per distinct user encoder object.

Fractional recall cutoffs (0 < k < 1) resolve per query to
ceil(k * n_candidates), so "recall@0.1" reads as recall at 10% of the pool.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import numcore
from .datapipe import ShopTask, SizeClass, binary_labels
from .errors import ConfigError, DataError
from .metrics import (
    DEFAULT_THRESHOLDS,
    EvaluationReport,
    QueryMetrics,
    RecallMode,
    aggregate,
    mae,
    ndcg_columns,
    rank_order,
    recall_columns,
)
from .models import FeatureSource, RecModel, encode_rows, feature_rows

_JOINT_CHUNK_ROWS = 4096


class QueryMode(enum.Enum):
    ITEM = "item"
    USER_SHOP = "user_shop"


class CandidatePool(enum.Enum):
    ALL_USERS = "all_users"
    OBSERVED = "observed"


@dataclass(frozen=True)
class EvalOptions:
    recall_ks: tuple[float, ...] = (0.1,)
    ndcg_ks: tuple[int, ...] = (3,)
    include_mae: bool = True
    recall_mode: RecallMode = RecallMode.STANDARD
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    rating_positive_threshold: float = 4.0
    candidate_pool: CandidatePool = CandidatePool.ALL_USERS
    query_mode: QueryMode | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "recall_ks", tuple(self.recall_ks))
        object.__setattr__(self, "ndcg_ks", tuple(self.ndcg_ks))
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        for k in self.recall_ks:
            fractional = 0.0 < k < 1.0
            whole = k >= 1 and float(k).is_integer()
            if not (fractional or whole):
                raise ConfigError(
                    f"recall k must be a fraction in (0,1) or an integer >= 1, got {k}"
                )
        for k in self.ndcg_ks:
            if not (isinstance(k, (int, np.integer)) and k >= 1):
                raise ConfigError(f"ndcg k must be an integer >= 1, got {k!r}")
        for t in self.thresholds:
            if not math.isfinite(t):
                raise ConfigError(f"eval.thresholds must be finite, got {t}")
        if not math.isfinite(self.rating_positive_threshold):
            raise ConfigError(
                "eval.rating_positive_threshold must be finite, got "
                f"{self.rating_positive_threshold}"
            )


def resolve_k(k: float, n_candidates: int) -> int:
    """Fractional cutoffs become ceil(k * n), clipped to [1, n]."""
    if 0.0 < k < 1.0:
        return min(n_candidates, max(1, math.ceil(k * n_candidates)))
    return min(n_candidates, int(k))


def recall_name(k: float) -> str:
    return f"recall@{k:g}"


def infer_query_mode(tasks: Sequence[ShopTask]) -> QueryMode:
    """Binary labels mean item queries; anything else is a rating log."""
    binary = binary_labels(r for t in tasks for r in t.query)
    return QueryMode.ITEM if binary else QueryMode.USER_SHOP


# ---------------------------------------------------------------------------
# batched scoring
# ---------------------------------------------------------------------------


def score_matrix(
    model: RecModel,
    user_ids: Sequence[str],
    item_ids: Sequence[str],
    features: FeatureSource,
    user_rows: np.ndarray | None = None,
) -> np.ndarray:
    """Scores for every (user, item) pair, shape (n_users, n_items).

    ``user_rows`` are the users' ``feature_rows``, resolved here when None."""
    users = user_rows
    if users is None:
        users = feature_rows(model.user_encoder, map(features.user_raw, user_ids), "user")
    items = feature_rows(model.item_encoder, map(features.item_raw, item_ids), "item")
    u = encode_rows(model.user_encoder, users)
    v = encode_rows(model.item_encoder, items)
    if model.scorer.variant is numcore.ModelVariant.TWO_TOWER:
        hu, _ = numcore.mlp_forward_trace(model.scorer.user_tower, u)
        hi, _ = numcore.mlp_forward_trace(model.scorer.item_tower, v)
        raw = hu @ hi.T
    else:
        n_u, n_i = len(user_ids), len(item_ids)
        raw = np.empty((n_u, n_i))
        per_chunk = max(1, _JOINT_CHUNK_ROWS // max(n_u, 1))
        for start in range(0, n_i, per_chunk):
            stop = min(start + per_chunk, n_i)
            out, _ = numcore.model_forward_trace(
                model.scorer,
                np.repeat(u, stop - start, axis=0),
                np.tile(v[start:stop], (n_u, 1)),
            )
            raw[:, start:stop] = out.reshape(n_u, stop - start)
    return numcore.sigmoid(raw) if model.sigmoid_output else raw


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def _model_for(models: Any, shop_id: str):
    if isinstance(models, Mapping):
        if shop_id not in models:
            raise DataError(f"no model supplied for shop {shop_id!r}")
        return models[shop_id]
    return models


def _scores_for_task(
    model: Any, pool: list[str], items: list[str], features: FeatureSource, pool_rows=None
) -> np.ndarray:
    if isinstance(model, RecModel):
        return score_matrix(model, pool, items, features, user_rows=pool_rows)
    if callable(model):
        out = np.asarray(model(pool, items), dtype=np.float64)
        if out.shape != (len(pool), len(items)):
            raise DataError(
                f"custom scorer returned shape {out.shape}, "
                f"expected ({len(pool)}, {len(items)})"
            )
        return out
    raise DataError(f"cannot score with a {type(model).__name__}")


def evaluate_tasks(
    models: Mapping[str, Any] | Any,
    tasks: Sequence[ShopTask],
    features: FeatureSource,
    options: EvalOptions,
    shop_classes: Mapping[str, SizeClass] | None = None,
    user_pool: Sequence[str] | None = None,
) -> EvaluationReport:
    """Score every task's query records and aggregate the metrics.

    Args:
        models: one shared model, or a mapping shop id -> adapted model.
            A model is a RecModel or a scorer: a callable taking (user ids,
            item ids) and returning scores of shape (n_users, n_items).
        tasks: evaluation tasks; only the query records are scored here.
        features: raw feature lookup for encoding.
        options: metric set and conventions.
        shop_classes: optional taxonomy for per-class breakdowns.
        user_pool: candidate users for ITEM queries with the ALL_USERS pool.

    Returns:
        The two-level EvaluationReport.
    """
    if not tasks:
        raise DataError("no evaluation tasks")
    mode = options.query_mode or infer_query_mode(tasks)
    shared_pool = None
    if mode is QueryMode.ITEM and options.candidate_pool is CandidatePool.ALL_USERS:
        if user_pool is None:
            raise DataError("ITEM queries over ALL_USERS need a user_pool")
        shared_pool = _indexed(user_pool)
    queries: list[QueryMetrics] = []
    degenerate = 0
    pool_rows, rows_encoder = None, None
    for task in sorted(tasks, key=lambda t: t.shop_id):
        model = _model_for(models, task.shop_id)
        if mode is QueryMode.ITEM:
            candidates = (
                shared_pool
                if shared_pool is not None
                else _indexed(r.user_id for r in task.query)
            )
            if shared_pool is not None and isinstance(model, RecModel):
                if model.user_encoder is not rows_encoder:
                    rows_encoder = model.user_encoder
                    raws = map(features.user_raw, shared_pool[0])
                    pool_rows = feature_rows(rows_encoder, raws, "user")
            batches = [_item_queries(model, task, features, candidates, pool_rows,
                                     options.include_mae)]
        else:
            batches = _user_shop_queries(model, task, features, options)
        for keys, gains, recall_gains, observed in batches:
            values, deg = _metric_values(gains, recall_gains, observed, options)
            queries += [
                QueryMetrics(f"{task.shop_id}:{key}", task.shop_id, v)
                for key, v in zip(keys, values)
            ]
            degenerate += deg
    return aggregate(
        queries,
        shop_classes,
        options.thresholds,
        {"ndcg_degenerate": degenerate, "tasks": len(tasks)},
    )


# One batch of queries: their keys; nDCG gains and recall relevance, both in
# rank order (candidates x queries); each query's (predictions, labels).
Queries = tuple[list[str], np.ndarray, np.ndarray, list[tuple]]


def _metric_values(
    gains: np.ndarray,
    recall_gains: np.ndarray,
    observed: list[tuple],
    options: EvalOptions,
) -> tuple[list[dict[str, float | None]], int]:
    """Each query column's metric values, and how many have no gain > 0."""
    n, n_queries = gains.shape
    columns: dict[str, list] = {}
    for k in options.recall_ks:
        columns[recall_name(k)] = recall_columns(
            recall_gains, resolve_k(k, n), options.recall_mode
        )
    for k in options.ndcg_ks:
        columns[f"ndcg@{k}"] = ndcg_columns(gains, int(k))
    if options.include_mae:
        columns["mae"] = [mae(preds, labels) for preds, labels in observed]
    values = [{name: c[j] for name, c in columns.items()} for j in range(n_queries)]
    degenerate = int((~(gains > 0).any(axis=0)).sum()) if options.ndcg_ks else 0
    return values, degenerate


def _indexed(ids: Iterable[str]) -> tuple[list[str], dict[str, int]]:
    """The distinct ids, sorted, and the row of each."""
    pool = sorted(set(ids))
    return pool, {u: i for i, u in enumerate(pool)}


def _item_queries(
    model: Any,
    task: ShopTask,
    features: FeatureSource,
    candidates: tuple[list[str], dict[str, int]],
    pool_rows: np.ndarray | None = None,
    with_observed: bool = True,
) -> Queries:
    """One query per item over the candidate users, as ``_indexed`` gives them;
    each item's (predictions, labels) only ``with_observed``."""
    pool, pool_row = candidates
    items = sorted({r.item_id for r in task.query})
    item_col = {i: j for j, i in enumerate(items)}
    scores = _scores_for_task(model, pool, items, features, pool_rows)
    try:
        rows = np.array([pool_row[r.user_id] for r in task.query], dtype=np.intp)
    except KeyError as exc:
        raise DataError(
            f"test user {exc.args[0]!r} is missing from the candidate pool"
        ) from None
    cols = np.array([item_col[r.item_id] for r in task.query], dtype=np.intp)
    labels = np.array([r.label for r in task.query], dtype=np.float64)
    gains = np.zeros(scores.shape)
    gains[rows[labels > 0], cols[labels > 0]] = 1.0
    observed = []
    if with_observed:  # each item's (predictions, labels), in record order
        by_item = np.argsort(cols, kind="stable")
        ends = np.cumsum(np.bincount(cols)).tolist()
        preds, labs = scores[rows, cols][by_item].tolist(), labels[by_item].tolist()
        observed = [(preds[a:b], labs[a:b]) for a, b in zip([0, *ends], ends)]
    ranked = np.take_along_axis(gains, rank_order(scores), axis=0)
    return items, ranked, ranked, observed


def _user_shop_queries(
    model: Any,
    task: ShopTask,
    features: FeatureSource,
    options: EvalOptions,
) -> Iterator[Queries]:
    by_user: dict[str, list] = {}
    for r in task.query:
        by_user.setdefault(r.user_id, []).append(r)
    for user in sorted(by_user):
        recs = by_user[user]
        cands = sorted({r.item_id for r in recs})
        scores = _scores_for_task(model, [user], cands, features).T
        rows = np.searchsorted(cands, [r.item_id for r in recs])
        labels = [r.label for r in recs]
        gains = np.zeros(scores.shape)
        np.maximum.at(gains[:, 0], rows, labels)  # a rerated item keeps its best
        ranked = np.take_along_axis(gains, rank_order(scores), axis=0)
        relevant = ranked >= options.rating_positive_threshold
        yield [user], ranked, relevant, [(scores[rows, 0], labels)]
