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
scores with ``models.baseline_score_matrix``.

Fractional recall cutoffs (0 < k < 1) resolve per query to
ceil(k * n_candidates), so "recall@0.1" reads as recall at 10% of the pool.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from . import numcore
from .datapipe import ShopTask, SizeClass
from .errors import ConfigError, DataError
from .metrics import (
    DEFAULT_THRESHOLDS,
    EvaluationReport,
    QueryMetrics,
    RankedPrediction,
    RecallMode,
    aggregate,
    has_positive_gain,
    mae,
    ndcg_at_k,
    recall_at_k,
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


def resolve_k(k: float, n_candidates: int) -> int:
    """Fractional cutoffs become ceil(k * n), clipped to [1, n]."""
    if 0.0 < k < 1.0:
        return min(n_candidates, max(1, math.ceil(k * n_candidates)))
    return min(n_candidates, int(k))


def recall_name(k: float) -> str:
    return f"recall@{k:g}"


def infer_query_mode(tasks: Sequence[ShopTask]) -> QueryMode:
    """Binary labels mean item queries; anything else is a rating log."""
    for t in tasks:
        for r in t.query:
            if r.label not in (0.0, 1.0):
                return QueryMode.USER_SHOP
    return QueryMode.ITEM


# ---------------------------------------------------------------------------
# batched scoring
# ---------------------------------------------------------------------------


def score_matrix(
    model: RecModel,
    user_ids: Sequence[str],
    item_ids: Sequence[str],
    features: FeatureSource,
) -> np.ndarray:
    """Scores for every (user, item) pair, shape (n_users, n_items)."""
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
    model: Any, pool: list[str], items: list[str], features: FeatureSource
) -> np.ndarray:
    if isinstance(model, RecModel):
        return score_matrix(model, pool, items, features)
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
    queries: list[QueryMetrics] = []
    degenerate = 0
    for task in sorted(tasks, key=lambda t: t.shop_id):
        model = _model_for(models, task.shop_id)
        if mode is QueryMode.ITEM:
            new_queries, deg = _item_queries(model, task, features, options, user_pool)
        else:
            new_queries, deg = _user_shop_queries(model, task, features, options)
        queries.extend(new_queries)
        degenerate += deg
    return aggregate(
        queries,
        shop_classes,
        options.thresholds,
        {"ndcg_degenerate": degenerate, "tasks": len(tasks)},
    )


def _metric_values(
    pred: RankedPrediction,
    recall_relevance: dict[str, float],
    observed: tuple[list[float], list[float]],
    options: EvalOptions,
) -> tuple[dict[str, float | None], int]:
    values: dict[str, float | None] = {}
    n = len(pred.ranked)
    recall_pred = RankedPrediction(
        pred.query_id, pred.shop_id, pred.ranked, recall_relevance
    )
    for k in options.recall_ks:
        values[recall_name(k)] = recall_at_k(
            recall_pred, resolve_k(k, n), options.recall_mode
        )
    degenerate = 0
    for k in options.ndcg_ks:
        values[f"ndcg@{k}"] = ndcg_at_k(pred, int(k))
    if options.ndcg_ks and not has_positive_gain(pred):
        degenerate = 1
    if options.include_mae:
        preds, labels = observed
        values["mae"] = mae(preds, labels) if preds else None
    return values, degenerate


def _item_queries(
    model: Any,
    task: ShopTask,
    features: FeatureSource,
    options: EvalOptions,
    user_pool: Sequence[str] | None,
) -> tuple[list[QueryMetrics], int]:
    if options.candidate_pool is CandidatePool.ALL_USERS:
        if user_pool is None:
            raise DataError("ITEM queries over ALL_USERS need a user_pool")
        pool = list(user_pool)
    else:
        pool = sorted({r.user_id for r in task.query})
    items = sorted({r.item_id for r in task.query})
    pool_row = {u: i for i, u in enumerate(pool)}
    item_col = {i: j for j, i in enumerate(items)}
    scores = _scores_for_task(model, pool, items, features)
    positives: dict[str, set[str]] = {i: set() for i in items}
    observed: dict[str, tuple[list[float], list[float]]] = {i: ([], []) for i in items}
    for r in task.query:
        if r.user_id not in pool_row:
            raise DataError(
                f"test user {r.user_id!r} is missing from the candidate pool"
            )
        if r.label > 0:
            positives[r.item_id].add(r.user_id)
        preds, labels = observed[r.item_id]
        preds.append(float(scores[pool_row[r.user_id], item_col[r.item_id]]))
        labels.append(r.label)
    out = []
    degenerate = 0
    for j, item in enumerate(items):
        relevance = {u: 1.0 for u in positives[item]}
        pred = RankedPrediction.from_scores(
            f"{task.shop_id}:{item}", task.shop_id,
            dict(zip(pool, scores[:, j].tolist())), relevance,
        )
        values, deg = _metric_values(pred, relevance, observed[item], options)
        degenerate += deg
        out.append(QueryMetrics(pred.query_id, task.shop_id, values))
    return out, degenerate


def _user_shop_queries(
    model: Any,
    task: ShopTask,
    features: FeatureSource,
    options: EvalOptions,
) -> tuple[list[QueryMetrics], int]:
    by_user: dict[str, list] = {}
    for r in task.query:
        by_user.setdefault(r.user_id, []).append(r)
    out = []
    degenerate = 0
    for user in sorted(by_user):
        recs = by_user[user]
        cands = sorted({r.item_id for r in recs})
        row = _scores_for_task(model, [user], cands, features)[0]
        col_of = {i: j for j, i in enumerate(cands)}
        relevance: dict[str, float] = {}
        preds_obs: list[float] = []
        labels_obs: list[float] = []
        for r in recs:
            relevance[r.item_id] = max(relevance.get(r.item_id, 0.0), r.label)
            preds_obs.append(float(row[col_of[r.item_id]]))
            labels_obs.append(r.label)
        pred = RankedPrediction.from_scores(
            f"{task.shop_id}:{user}", task.shop_id,
            dict(zip(cands, row.tolist())), relevance,
        )
        recall_rel = {
            i: 1.0
            for i, g in relevance.items()
            if g >= options.rating_positive_threshold
        }
        values, deg = _metric_values(
            pred, recall_rel, (preds_obs, labels_obs), options
        )
        degenerate += deg
        out.append(QueryMetrics(pred.query_id, task.shop_id, values))
    return out, degenerate
