"""Independent reference implementations used to check the package numerics.

Everything here is deliberately written the slow way (Python loops, scalar
arithmetic, brute-force enumeration) so it shares no code with the package.
Some exceptions drive the package's own code: meta_train_per_step checks
only that meta_train's resolve-once cache changes nothing,
prepare_batch_per_record only that resolving each distinct id once changes
no batch bit or error, feature_rows_per_row only that converting a side in
one copy changes no row bit or error, predict_scores is the pairwise
reference that score_matrix's batched scoring must reproduce, the *_per_leaf
updates are the leaf-by-leaf arithmetic that the one-vector optimiser steps
must reproduce bit for bit, tree_add sums gradient trees for tests that
rebuild a meta step by hand, sigmoid_masked and
mlp_backward_with_derivs are the two-mask sigmoid and the backprop through
per-layer derivative arrays that numcore's one-pass forms must reproduce
bit for bit, meta_step_per_task and meta_inference_per_task adapt one
task at a time, as the stacked meta step and meta_inference must reproduce
bit for bit, and the *_tree functions are the forward, backward and
loss-and-gradient passes that walk a parameter tree's attributes (a stack's
leaves carry a leading task axis), which the kernels reading leaf views of
one (..., P) vector must reproduce bit for bit. InteractionRecordPostInit is
the unslotted record whose field-by-field checks the slotted record must
reproduce error for error, generate_synthetic_per_element
builds the synthetic world one scalar-indexed record at a time, and
build_tasks_set_split splits each group by set probes; the list-converted
generator and the mask split must reproduce both record for record, and
build_tasks must reproduce the set split on record lists and on
``Interactions`` tables alike. classify_shops_per_record counts sales record
by record, as classify_shops' column pass must reproduce, and table_of turns
records into a table whose codes differ from ``Interactions.of``'s, and
_record_sort_key is the record order that ``Interactions.order`` must
reproduce row for row.
ndcg_columns_full_sort takes the ideal gains from a full sort of each
column, as ndcg_columns' partition must reproduce bit for bit.
load_interactions_per_row and load_latents_per_line read a file one row
at a time, building each record or vector as it goes, as the loaders'
column passes must reproduce record for record, bit for bit and error for
error.
rank_order_stable is the one stable sort that metrics.rank_order's
column-wise fast path must reproduce index for index, and
item_queries_per_record builds one scored shop's item queries a query
record at a time, scoring through the package's own _scores_for_task, as
evaluation._item_queries' array pass must reproduce bit for bit and error
for error.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metashop.checkpoint import read_text
from metashop.datapipe import (
    _CODED,
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    _TAG_SYNTH,
    _TAG_TASKS,
    FeatureTable,
    InteractionRecord,
    Interactions,
    ShopStats,
    ShopTask,
    SizeClass,
    SyntheticData,
    TaskUnit,
    _apportion,
    _check_unique_columns,
    _id_list,
    stable_hash64,
)
from metashop.metaopt import (
    OuterOptimizer,
    _penalty_for,
    _resolve,
    fmst_train_step,
    meta_train_step,
)
from metashop.errors import ConfigError, DataError, EmptyBatchError
from metashop.evaluation import _scores_for_task
from metashop.metrics import _check_k, _dcg
from metashop.models import (
    Batch,
    EncoderMode,
    RecModel,
    encode_rows,
    prepare_batch,
    resolve_indices,
)
from metashop.numcore import (
    Activation,
    MlpParams,
    ModelTrace,
    ModelVariant,
    adam_init,
    adam_update,
    loss_and_pred_grad,
    model_forward_trace,
    sgd_step,
    sigmoid,
    tree_check_finite,
    tree_leaves,
    tree_map,
)


def _act(kind: Activation, z: float) -> float:
    if kind is Activation.RELU:
        return z if z > 0.0 else 0.0
    if kind is Activation.SIGMOID:
        return 1.0 / (1.0 + math.exp(-z))
    return z


def mlp_forward_loop(params: MlpParams, x) -> list[float]:
    """Per-neuron forward pass with explicit Python loops."""
    h = [float(v) for v in x]
    for layer, act in zip(params.layers, params.activations):
        out = []
        for o in range(layer.out_dim):
            s = float(layer.biases[o]) if layer.biases is not None else 0.0
            for i in range(layer.in_dim):
                s += float(layer.weights[o, i]) * h[i]
            out.append(_act(act, s))
        h = out
    return h


def squared_loss_loop(preds, labels) -> float:
    total = 0.0
    for p, y in zip(preds, labels):
        total += (float(y) - float(p)) ** 2
    return total / len(preds)


def bce_loss_loop(preds, labels, clamp: float = 1e-7) -> float:
    total = 0.0
    for p, y in zip(preds, labels):
        pc = min(max(float(p), clamp), 1.0 - clamp)
        total += float(y) * math.log(pc) + (1.0 - float(y)) * math.log(1.0 - pc)
    return -total / len(preds)


def central_fd_grad(loss_fn, tree, h: float = 1e-4):
    """Central finite differences of ``loss_fn`` w.r.t. every array leaf.

    ``loss_fn`` takes the (mutated-in-place) tree and returns a float. The
    returned tree has the same shape as ``tree`` and holds the FD gradients.
    """
    work = tree_map(lambda a: a.copy(), tree)
    grads = tree_map(np.zeros_like, work)
    for p_leaf, g_leaf in zip(tree_leaves(work), tree_leaves(grads)):
        flat_p = p_leaf.reshape(-1)
        flat_g = g_leaf.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            up = loss_fn(work)
            flat_p[i] = orig - h
            down = loss_fn(work)
            flat_p[i] = orig
            flat_g[i] = (up - down) / (2.0 * h)
    return grads


def grads_close(analytic, fd, rtol: float = 1e-4, atol: float = 1e-7) -> bool:
    """Leafwise |a - f| <= atol + rtol * |f| over two same-shaped trees."""
    la, lf = tree_leaves(analytic), tree_leaves(fd)
    assert len(la) == len(lf)
    return all(np.allclose(a, f, rtol=rtol, atol=atol) for a, f in zip(la, lf))


def adam_trace_scalar(p0: float, grad_seq, stepsize: float) -> list[float]:
    """Scalar Adam trajectory (beta1=0.9, beta2=0.999, eps=1e-8)."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = 0.0
    p = p0
    out = []
    for t, g in enumerate(grad_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p = p - stepsize * mhat / (math.sqrt(vhat) + eps)
        out.append(p)
    return out


def sigmoid_masked(z) -> np.ndarray:
    """The logistic function computed separately on each side of 0."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activation_deriv(kind: Activation, z: np.ndarray) -> np.ndarray:
    if kind is Activation.RELU:
        return (z > 0.0).astype(np.float64)
    if kind is Activation.SIGMOID:
        s = sigmoid_masked(z)
        return s * (1.0 - s)
    return np.ones_like(z)


def mlp_backward_with_derivs(params: MlpParams, caches, d_out, grads: MlpParams):
    """numcore.mlp_backward multiplying in a derivative array for every layer."""
    d = d_out
    for layer, grad, act, (x_in, z) in zip(
        reversed(params.layers),
        reversed(grads.layers),
        reversed(params.activations),
        reversed(caches),
    ):
        dz = d * _activation_deriv(act, z)
        np.matmul(dz.T, x_in, out=grad.weights)
        if layer.biases is not None:
            dz.sum(axis=0, out=grad.biases)
        d = dz @ layer.weights
    return d


def sgd_step_per_leaf(params, grads, stepsize: float) -> list[np.ndarray]:
    """``p - stepsize * g`` leaf by leaf."""
    return [p - stepsize * g for p, g in zip(tree_leaves(params), tree_leaves(grads))]


def tree_add(a, b):
    """The sum of two same-shaped parameter trees, as a tree."""
    return tree_map(np.add, a, b)


def tree_add_per_leaf(a, b) -> list[np.ndarray]:
    return [x + y for x, y in zip(tree_leaves(a), tree_leaves(b))]


def adam_step(state, params, grads, stepsize: float):
    """One Adam step on a tree: ``adam_update`` on the parameter and gradient
    vectors. Returns (new tree, new state)."""
    new, state = adam_update(params.layout, state, params.vector, grads.vector, stepsize)
    return params.at(new), state


def adam_step_per_leaf(first, second, step_count: int, params, grads, stepsize: float):
    """One Adam step leaf by leaf from per-leaf moments.

    Returns (new parameter leaves, first moment leaves, second moment leaves).
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = step_count + 1
    gs = tree_leaves(grads)
    m = [b1 * m_ + (1.0 - b1) * g for m_, g in zip(first, gs)]
    v = [b2 * v_ + (1.0 - b2) * g * g for v_, g in zip(second, gs)]
    bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
    new = [
        p - stepsize * (m_ / bc1) / (np.sqrt(v_ / bc2) + eps)
        for p, m_, v_ in zip(tree_leaves(params), m, v)
    ]
    return new, m, v


def predict_scores(model: RecModel, batch: Batch) -> np.ndarray:
    """Scores for a batch of pairs, sigmoid-squashed when the model says so."""
    u = encode_rows(model.user_encoder, batch.user_rows)
    v = encode_rows(model.item_encoder, batch.item_rows)
    raw, _ = model_forward_trace(model.scorer, u, v)
    return sigmoid(raw) if model.sigmoid_output else raw


def feature_rows_per_row(encoder, raws, side: str) -> np.ndarray:
    """feature_rows with one conversion and one width check per raw."""
    if encoder.mode is EncoderMode.PRETRAINED:
        rows = []
        for r in raws:
            try:
                row = np.asarray(r)
                if row.dtype.kind not in "biuf":  # float64 would read None or "0.5"
                    raise TypeError
            except (TypeError, ValueError):
                raise DataError(
                    f"{side} features must be numbers for a pretrained encoder, "
                    f"got {type(r).__name__}"
                ) from None
            rows.append(row.astype(np.float64).ravel())
        for r in rows:
            if r.shape[0] != encoder.dim:
                raise DataError(
                    f"{side} features have {r.shape[0]} dims, expected {encoder.dim}"
                )
        return np.stack(rows)
    return np.stack([resolve_indices(encoder, r, side) for r in raws])


def prepare_batch_per_record(records, features, user_encoder, item_encoder) -> Batch:
    """prepare_batch with one feature lookup and one feature row per record."""
    recs = list(records)
    if not recs:
        raise EmptyBatchError("prepare_batch on zero records")
    labels = np.asarray([float(r.label) for r in recs])
    users = [features.user_raw(r.user_id) for r in recs]
    items = [features.item_raw(r.item_id) for r in recs]
    return Batch(
        labels,
        feature_rows_per_row(user_encoder, users, "user"),
        feature_rows_per_row(item_encoder, items, "item"),
    )


def meta_train_per_step(model, tasks, features, cfg, steps, regularized=False):
    """meta_train without its resolve-once cache, for comparison.

    Draws the same seeded task batches and query subsamples, but builds each
    subsample as a new ShopTask of the picked records and hands plain tasks
    to the step function, which resolves every record again on every step.
    Returns (model, per-step losses).
    """
    rng = np.random.default_rng([cfg.seed, 23])
    step_fn = fmst_train_step if regularized else meta_train_step
    queue: list = []
    losses = []
    state = None
    for _ in range(steps):
        if not queue:
            queue = list(rng.permutation(len(tasks)))
        take, queue = queue[: cfg.shop_batch_size], queue[cfg.shop_batch_size :]
        batch = []
        for i in take:
            task = tasks[i]
            size = cfg.query_batch_size
            if size is not None and len(task.query) > size:
                picks = sorted(rng.choice(len(task.query), size=size, replace=False))
                task = ShopTask(
                    task.shop_id,
                    task.support,
                    tuple(task.query[j] for j in picks),
                    task.size_class,
                )
            batch.append(task)
        model, state, loss = step_fn(model, batch, features, cfg, state)
        losses.append(loss)
    return model, losses


def _apply(kind: Activation, z: np.ndarray) -> np.ndarray:
    if kind is Activation.RELU:
        return np.maximum(z, 0.0)
    return sigmoid(z) if kind is Activation.SIGMOID else z


def mlp_forward_trace_tree(params: MlpParams, x):
    """Forward pass through ``params.layers``, keeping (input, pre-activation)."""
    caches = []
    h = x
    for layer, act in zip(params.layers, params.activations):
        z = h @ layer.weights.swapaxes(-1, -2)
        if layer.biases is not None:
            z += layer.biases[..., None, :]
        caches.append((h, z))
        h = _apply(act, z)
    return h, caches


def mlp_backward_tree(params: MlpParams, caches, d_out, grads: MlpParams):
    """Backprop writing each layer's gradient into ``grads.layers``."""
    d = d_out
    for layer, grad, act, (x_in, z) in zip(
        reversed(params.layers),
        reversed(grads.layers),
        reversed(params.activations),
        reversed(caches),
    ):
        if act is Activation.RELU:
            d = d * (z > 0.0)
        elif act is Activation.SIGMOID:
            s = sigmoid(z)
            d = d * (s * (1.0 - s))
        np.matmul(d.swapaxes(-1, -2), x_in, out=grad.weights)
        if layer.biases is not None:
            d.sum(axis=-2, out=grad.biases)
        d = d @ layer.weights
    return d


def model_forward_trace_tree(params, user_x, item_x):
    if params.variant is ModelVariant.TWO_TOWER:
        hu, uc = mlp_forward_trace_tree(params.user_tower, user_x)
        hi, ic = mlp_forward_trace_tree(params.item_tower, item_x)
        return (hu * hi).sum(axis=-1), ModelTrace(user_x, item_x, uc, ic, hu, hi)
    x = np.concatenate([user_x, item_x], axis=-1)
    out, jc = mlp_forward_trace_tree(params.joint, x)
    return out[..., 0], ModelTrace(user_x, item_x, joint_caches=jc)


def model_backward_tree(params, trace, d_raw, grads):
    if params.variant is ModelVariant.TWO_TOWER:
        d_hu = d_raw[..., None] * trace.hi
        d_hi = d_raw[..., None] * trace.hu
        user, item = params.user_tower, params.item_tower
        dxu = mlp_backward_tree(user, trace.user_caches, d_hu, grads.user_tower)
        dxi = mlp_backward_tree(item, trace.item_caches, d_hi, grads.item_tower)
        return dxu, dxi
    d_out = d_raw[..., None]
    dx = mlp_backward_tree(params.joint, trace.joint_caches, d_out, grads.joint)
    du = trace.user_x.shape[-1]
    return dx[..., :du], dx[..., du:]


def _task_rows(rows):
    return (np.arange(rows.shape[0])[:, None],) if rows.ndim == 3 else ()


def encode_rows_tree(encoder, rows):
    """Gather each field's rows from ``encoder.tables`` and concatenate them."""
    if encoder.mode is EncoderMode.PRETRAINED:
        return rows
    at = _task_rows(rows)
    tables = [encoder.tables[f.name] for f in encoder.fields]
    parts = [table[(*at, rows[..., j])] for j, table in enumerate(tables)]
    return np.concatenate(parts, axis=-1)


def _encoder_grad_tree(encoder, idx, d_feats, grads):
    offset = 0
    for j, f in enumerate(encoder.fields):
        table = grads.tables[f.name]
        width = table.shape[-1]
        at = (*_task_rows(idx), idx[..., j])
        np.add.at(table, at, d_feats[..., offset : offset + width])
        offset += width


def model_loss_and_grad_tree(model: RecModel, batch: Batch, loss_kind, pred_penalty=None):
    """models.model_loss_and_grad walking ``model`` and a zeroed gradient tree."""
    if batch.size == 0:
        raise EmptyBatchError("gradient on an empty batch")
    u = encode_rows_tree(model.user_encoder, batch.user_rows)
    v = encode_rows_tree(model.item_encoder, batch.item_rows)
    grads = model.layout.build(np.zeros(model.vector.shape))
    raw, trace = model_forward_trace_tree(model.scorer, u, v)
    pred = sigmoid(raw) if model.sigmoid_output else raw
    loss, d_pred = loss_and_pred_grad(pred, batch.labels, loss_kind)
    if pred_penalty is not None:
        a, c = pred_penalty
        n = pred.shape[-1]
        loss = loss + (a * (pred.sum(axis=-1) / n) + c)
        loss = loss if isinstance(loss, np.ndarray) else float(loss)
        d_pred = d_pred + a / n
    d_raw = d_pred * pred * (1.0 - pred) if model.sigmoid_output else d_pred
    d_u, d_v = model_backward_tree(model.scorer, trace, d_raw, grads.scorer)
    _encoder_grad_tree(model.user_encoder, batch.user_rows, d_u, grads.user_encoder)
    _encoder_grad_tree(model.item_encoder, batch.item_rows, d_v, grads.item_encoder)
    tree_check_finite(grads, "model_loss_and_grad")
    return loss, grads


def adapt_alone(model, batch, cfg, penalty):
    """K plain SGD steps of one model on one support batch."""
    for _ in range(cfg.local_steps):
        _, grads = model_loss_and_grad_tree(model, batch, cfg.loss_kind, penalty)
        model = sgd_step(model, grads, cfg.alpha)
    return model


def meta_step_per_task(
    model, tasks, features, cfg, outer_state=None, regularized=False
):
    """meta_train_step (fmst_train_step when ``regularized``), one task at a time.

    Each task in ascending id order is resolved, adapted alone and its query
    gradient taken before the next task starts. Returns (model, outer
    state, mean query loss).
    """
    if regularized and cfg.gamma != 0.0:
        for task in tasks:
            _penalty_for(task, cfg)
    ordered = sorted(tasks, key=lambda t: t.shop_id)
    total = None
    loss_sum = 0.0
    for task in ordered:
        task = _resolve(task, features, model, {})
        penalty = _penalty_for(task, cfg) if regularized else None
        adapted = adapt_alone(model, task.support, cfg, penalty)
        loss, grads = model_loss_and_grad_tree(
            adapted, task.query, cfg.loss_kind, penalty
        )
        loss_sum += loss
        total = grads.vector if total is None else total + grads.vector
    total_grads = model.layout.build(total)
    if cfg.outer_optimizer is OuterOptimizer.SGD:
        return sgd_step(model, total_grads, cfg.beta), outer_state, loss_sum / len(ordered)
    state = outer_state if outer_state is not None else adam_init(model)
    new_model, new_state = adam_step(state, model, total_grads, cfg.beta)
    return new_model, new_state, loss_sum / len(ordered)


def meta_inference_per_task(model, tasks, features, cfg):
    """meta_inference adapting each task alone, in ascending id order."""
    enc = (model.user_encoder, model.item_encoder)
    out = {}
    for task in sorted(tasks, key=lambda t: t.shop_id):
        batch = prepare_batch(task.support, features, *enc)
        out[task.shop_id] = adapt_alone(model, batch, cfg, None)
    return out


# ---------------------------------------------------------------------------
# ranking-metric oracles (brute force)
# ---------------------------------------------------------------------------


def rank_candidates(scores: dict[str, float]) -> list[str]:
    """Sort candidate ids by descending score, ties broken by ascending id."""
    return [c for c, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def recall_oracle(ranked: list[str], relevant: set[str], k: int, divide_by_k: bool) -> float | None:
    if not relevant:
        return None
    hits = sum(1 for c in ranked[:k] if c in relevant)
    if divide_by_k:
        return hits / k
    return hits / len(relevant)


def dcg_oracle(gains_in_rank_order, k: int) -> float:
    total = 0.0
    for r, y in enumerate(gains_in_rank_order[:k], start=1):
        total += (2.0 ** float(y) - 1.0) / math.log2(1.0 + r)
    return total


def ndcg_oracle(ranked: list[str], relevance: dict[str, float], k: int) -> float:
    gains = [relevance.get(c, 0.0) for c in ranked]
    ideal = sorted(gains, reverse=True)
    idcg = dcg_oracle(ideal, k)
    if idcg == 0.0:
        return 0.0
    return dcg_oracle(gains, k) / idcg


def rank_order_stable(scores: np.ndarray) -> np.ndarray:
    """Row indices of each column by descending score, one stable sort."""
    return np.argsort(-scores, axis=0, kind="stable")


def item_queries_per_record(model, task, features, candidates):
    """``evaluation._item_queries`` one query record at a time."""
    pool, pool_row = candidates
    items = sorted({r.item_id for r in task.query})
    item_col = {i: j for j, i in enumerate(items)}
    scores = _scores_for_task(model, pool, items, features)
    gains = np.zeros(scores.shape)
    observed: list[tuple] = [([], []) for _ in items]
    for r in task.query:
        if r.user_id not in pool_row:
            raise DataError(
                f"test user {r.user_id!r} is missing from the candidate pool"
            )
        row, col = pool_row[r.user_id], item_col[r.item_id]
        if r.label > 0:
            gains[row, col] = 1.0
        observed[col][0].append(scores[row, col])
        observed[col][1].append(r.label)
    ranked = np.take_along_axis(gains, rank_order_stable(scores), axis=0)
    return items, ranked, ranked, observed


def mae_loop(preds, labels) -> float:
    total = 0.0
    for p, y in zip(preds, labels):
        total += abs(float(p) - float(y))
    return total / len(preds)


@dataclass(frozen=True)
class InteractionRecordPostInit:
    """The record as a plain frozen dataclass, checked field by field."""

    user_id: str
    item_id: str
    shop_id: str
    label: float
    timestamp: int | None = None
    genre_l3: str | None = None

    def __post_init__(self) -> None:
        for name in ("user_id", "item_id", "shop_id"):
            v = getattr(self, name)
            if not isinstance(v, str) or not v:
                raise DataError(f"{name} must be a non-empty string, got {v!r}")
        if not math.isfinite(self.label) or self.label < 0:
            raise DataError(f"label must be finite and >= 0, got {self.label}")


def generate_synthetic_per_element(spec) -> SyntheticData:
    """generate_synthetic with one scalar-indexed record per loop pass."""
    rng = np.random.default_rng([spec.seed, _TAG_SYNTH])
    d = spec.latent_dim
    scale = d ** -0.25
    users = _id_list("u", spec.n_users)
    items = _id_list("i", spec.n_items)
    shops = _id_list("s", spec.n_shops)
    genres = _id_list("g", spec.n_genres)
    U = rng.normal(0.0, 1.0, (spec.n_users, d)) * scale
    V = rng.normal(0.0, 1.0, (spec.n_items, d)) * scale
    W = rng.normal(0.0, 1.0, (spec.n_shops, d)) * scale * spec.shop_effect_std
    raw = rng.pareto(spec.pareto_exponent, spec.n_shops) + 1.0
    sizes = np.maximum(
        spec.min_shop_size,
        np.round(raw / raw.sum() * spec.interactions_per_shop * spec.n_shops).astype(int),
    )
    item_counts = _apportion(sizes.astype(float), spec.n_items)
    item_perm = rng.permutation(spec.n_items)
    shop_items = []
    offset = 0
    for p in range(spec.n_shops):
        shop_items.append(item_perm[offset : offset + item_counts[p]])
        offset += item_counts[p]
    item_genre = rng.integers(0, spec.n_genres, spec.n_items)
    if spec.n_new_shops:
        median_size = float(np.median(sizes))
        below = [p for p in range(spec.n_shops) if sizes[p] < median_size]
        if len(below) < spec.n_new_shops:
            below = list(np.argsort(sizes)[: max(spec.n_new_shops, 1)])
        new_idx = set(
            int(p) for p in rng.choice(below, size=spec.n_new_shops, replace=False)
        )
    else:
        new_idx = set()
    train, test = [], []
    clock = 0
    for p in range(spec.n_shops):
        n_p = int(sizes[p])
        u_idx = rng.integers(0, spec.n_users, n_p)
        i_idx = shop_items[p][rng.integers(0, len(shop_items[p]), n_p)]
        noise = rng.normal(0.0, spec.noise_std, n_p) if spec.noise_std else np.zeros(n_p)
        scores = np.sum(U[u_idx] * (V[i_idx] + W[p]), axis=1) + noise
        labels = (scores > spec.label_threshold).astype(float)
        recs = []
        for e in range(n_p):
            recs.append(
                InteractionRecord(
                    users[u_idx[e]],
                    items[i_idx[e]],
                    shops[p],
                    float(labels[e]),
                    clock,
                    genres[item_genre[i_idx[e]]],
                )
            )
            clock += 1
        if p in new_idx:
            test.extend(recs)
        else:
            n_test = math.ceil(spec.test_fraction * n_p)
            train.extend(recs[: n_p - n_test])
            test.extend(recs[n_p - n_test :])
    features = FeatureTable(
        {users[i]: U[i] for i in range(spec.n_users)},
        {items[i]: V[i] for i in range(spec.n_items)},
    )
    effects = {shops[p]: W[p] for p in range(spec.n_shops)}
    return SyntheticData(
        train, test, features, effects, tuple(sorted(shops[p] for p in new_idx))
    )


def _record_sort_key(r: InteractionRecord):
    """The record order: shop, timestamp (None as -1), user, item, label."""
    ts = r.timestamp if r.timestamp is not None else -1
    return (r.shop_id, ts, r.user_id, r.item_id, r.label)


def build_tasks_set_split(
    records, min_interactions=13, support_size=10, seed=0, task_unit=TaskUnit.SHOP
) -> list[ShopTask]:
    """build_tasks probing a set of support indices once per side per record,
    with the overlap check that intersects the two whole sets."""
    if support_size < 1:
        raise ConfigError(f"support_size must be >= 1, got {support_size}")
    if min_interactions <= support_size:
        raise ConfigError(
            f"min_interactions ({min_interactions}) must exceed "
            f"support_size ({support_size}) so queries are never empty"
        )
    attr = {TaskUnit.SHOP: "shop_id", TaskUnit.ITEM: "item_id", TaskUnit.USER: "user_id"}
    groups = {}
    for r in records:
        groups.setdefault(getattr(r, attr[task_unit]), []).append(r)
    tasks = []
    for key in sorted(groups):
        recs = sorted(groups[key], key=_record_sort_key)
        if len(recs) < min_interactions:
            continue
        rng = np.random.default_rng([seed, _TAG_TASKS, stable_hash64(key)])
        chosen = set(rng.permutation(len(recs))[:support_size].tolist())
        support = tuple(r for i, r in enumerate(recs) if i in chosen)
        query = tuple(r for i, r in enumerate(recs) if i not in chosen)
        if set(support) & set(query):
            raise DataError(f"task {key!r} has overlapping support/query")
        tasks.append(ShopTask(key, support, query))
    return tasks


def table_of(records, shop="s") -> Interactions:
    """``records`` as an Interactions table. Each field's values start with
    an unused entry and then run in reverse order of first appearance, so
    the codes differ from ``Interactions.of``'s. A field a record lacks reads
    as ``shop`` (shop_id) or None."""
    columns = {}
    for name in _CODED:
        got = [getattr(r, name, shop if name == "shop_id" else None) for r in records]
        values = [-7 if name == "timestamp" else "zz", *reversed(dict.fromkeys(got))]
        index = {v: j for j, v in enumerate(values)}
        columns[name] = (np.array([index[v] for v in got], dtype=np.int64), values)
    return Interactions(np.array([r.label for r in records], dtype=np.float64), columns)


def classify_shops_per_record(train_records, test_records) -> ShopStats:
    """classify_shops counting sales and collecting test shops record by record."""
    sales: dict[str, int] = {}
    for r in train_records:
        sales.setdefault(r.shop_id, 0)
        if r.label > 0:
            sales[r.shop_id] += 1
    test_shops = sorted({r.shop_id for r in test_records})
    existing = [s for s in test_shops if s in sales]
    n_large = math.ceil(0.25 * len(existing))
    large = set(sorted(existing, key=lambda s: (-sales[s], s))[:n_large])
    taxonomy: dict[str, SizeClass] = {}
    for s in test_shops:
        if s not in sales:
            taxonomy[s] = SizeClass.NEW
        elif s in large:
            taxonomy[s] = SizeClass.LARGE
        else:
            taxonomy[s] = SizeClass.SMALL
    median = float(statistics.median(sales.values())) if sales else 0.0
    small = frozenset(s for s, n in sales.items() if n < median)
    return ShopStats(sales, taxonomy, median, small)


def ndcg_columns_full_sort(gains: np.ndarray, k: int) -> list[float]:
    """ndcg_columns with the ideal gains from a full sort of every column."""
    _check_k(k)
    ideal = _dcg(np.sort(gains, axis=0)[::-1][:k])
    return [d / i if i != 0.0 else 0.0 for d, i in zip(_dcg(gains[:k]), ideal)]


def load_interactions_per_row(path) -> list[InteractionRecord]:
    """load_interactions building one record per row as it reads it."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path, "", DataError), newline=""))
    problems: list[str] = []
    records: list[InteractionRecord] = []
    seen: dict[tuple, int] = {}
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path} is empty") from None
    header = [h.strip() for h in header]
    unknown = set(header) - set(REQUIRED_COLUMNS) - set(OPTIONAL_COLUMNS)
    missing = set(REQUIRED_COLUMNS) - set(header)
    if unknown or missing:
        raise DataError(
            f"{path}: bad header (missing {sorted(missing)}, "
            f"unknown {sorted(unknown)})"
        )
    _check_unique_columns(path, header)
    col = {name: header.index(name) for name in header}
    c_user, c_item, c_shop, c_label = (col[name] for name in REQUIRED_COLUMNS)
    c_ts, c_genre = col.get("timestamp"), col.get("genre_l3")
    for row in reader:
        line_no = reader.line_num
        try:
            if len(row) != len(header):
                raise DataError(f"{len(row)} fields, expected {len(header)}")
            text = row[c_label]
            try:
                label = float(text)
            except ValueError:
                raise DataError(f"label {text!r} is not a number") from None
            if not (label in (0.0, 1.0) or 1.0 <= label <= 5.0):
                raise DataError(f"label {label} outside 0/1 and [1, 5]")
            ts = None
            if c_ts is not None and row[c_ts] != "":
                try:
                    ts = int(row[c_ts])
                except ValueError:
                    raise DataError(f"timestamp {row[c_ts]!r} is not an integer") from None
            genre = None
            if c_genre is not None and row[c_genre] != "":
                genre = row[c_genre]
            rec = InteractionRecord(row[c_user], row[c_item], row[c_shop], label, ts, genre)
            key = (rec.user_id, rec.item_id, rec.shop_id, rec.timestamp)
            if key in seen:
                raise DataError(
                    f"duplicate of line {seen[key]} "
                    f"(user={rec.user_id}, item={rec.item_id})"
                )
        except DataError as exc:
            problems.append(f"line {line_no}: {exc}")
            continue
        seen[key] = line_no
        records.append(rec)
    if problems:
        shown = "; ".join(problems[:20])
        more = f" (+{len(problems) - 20} more)" if len(problems) > 20 else ""
        raise DataError(f"{path}: {len(problems)} malformed rows: {shown}{more}")
    return records


def load_latents_per_line(path) -> tuple[FeatureTable, dict[str, np.ndarray]]:
    """load_latents converting and checking one line's vector at a time."""
    path = Path(path)
    reader = csv.reader(io.StringIO(read_text(path, "", DataError), newline=""))
    tables: dict[str, dict[str, np.ndarray]] = {"user": {}, "item": {}, "shop_effect": {}}
    header = next(reader, None)
    if not header or len(header) < 3 or header[:2] != ["kind", "id"]:
        raise DataError(f"{path}: expected a latent file header (kind,id,v0,...)")
    for row in reader:
        line_no = reader.line_num
        if len(row) != len(header):
            raise DataError(f"{path} line {line_no}: wrong field count")
        kind, key = row[0], row[1]
        try:
            vec = np.asarray([float(v) for v in row[2:]], dtype=np.float64)
        except ValueError:
            raise DataError(f"{path} line {line_no}: non-numeric value") from None
        table = tables.get(kind)
        if table is None:
            raise DataError(f"{path} line {line_no}: unknown kind {kind!r}")
        if not np.isfinite(vec).all():
            raise DataError(f"{path} line {line_no}: non-finite value")
        if key in table:
            raise DataError(f"{path} line {line_no}: repeated {kind} id {key!r}")
        table[key] = vec
    users, items, shops = tables.values()
    if not users or not items:
        raise DataError(f"{path}: latent file needs user and item rows")
    return FeatureTable(users, items, (path, path)), shops
