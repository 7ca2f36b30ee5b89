"""Meta-optimisation: local adaptation, first-order meta steps, fair training.

The meta step is first-order: each task adapts a copy of the shared
parameters with K plain SGD steps on its support set, the query-set gradient
is evaluated at the adapted parameters, and the shared parameters take one
step against the SUM of those query gradients (tasks accumulated in
ascending task-id order). Second-order terms are dropped.

Fair training (fmst_train_step) adds a score regularizer to the loss of the
tasks whose size class matches the chosen option: option1 adds
``gamma * (1 - mean(scores))`` to SMALL tasks (push small-shop scores up),
option2 adds ``gamma * mean(scores)`` to LARGE tasks (hold large-shop scores
down). The same term appears in a task's local update and its query-set
gradient. With gamma == 0 the regularizer code path is skipped entirely, so
the step is bit-identical to meta_train_step.

meta_train resolves each task's support and query records into batches once
per call, the first time the task is drawn, and hands the resolved tasks to
the step functions; a per-step query subsample is a seeded pick of rows from
the resolved query batch. The step functions also accept plain ShopTasks,
which they resolve through the same helper.

The non-meta trainers share one seeded mini-batch SGD loop, ``_sgd_epochs``,
and differ only in the per-batch loss-and-gradient function they hand it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from . import numcore
from .checkpoint import atomic_write_text, read_text, to_json
from .datapipe import (
    InteractionRecord,
    ShopTask,
    SizeClass,
    TaskUnit,
    purchase_histories,
)
from .errors import ConfigError, DataError, EmptyBatchError
from .models import (
    BaselineModel,
    Batch,
    FeatureSource,
    ModelKind,
    RecModel,
    baseline_loss_and_grad,
    model_loss_and_grad,
    prepare_batch,
)


class OuterOptimizer(enum.Enum):
    SGD = "sgd"
    ADAM = "adam"


class RegularizerKind(enum.Enum):
    OPTION_I = "option1"
    OPTION_II = "option2"


@dataclass(frozen=True)
class MetaConfig:
    """Hyperparameters shared by the trainers.

    ``alpha`` is the local (inner) learning rate and also the plain-SGD rate
    of the non-meta trainers; ``beta`` the global (outer) rate. The inner
    loop is always plain SGD; ``outer_optimizer`` only affects the global
    update. ``query_batch_size`` caps the per-step query subsample (None
    uses every query record).
    """

    alpha: float
    beta: float
    local_steps: int = 2
    gamma: float = 0.0
    regularizer: RegularizerKind = RegularizerKind.OPTION_I
    shop_batch_size: int = 8
    support_size: int = 10
    query_batch_size: int | None = None
    loss_kind: numcore.LossKind = numcore.LossKind.SQUARED
    model_kind: ModelKind = ModelKind.MESH
    task_unit: TaskUnit = TaskUnit.SHOP
    outer_optimizer: OuterOptimizer = OuterOptimizer.SGD
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be >= 0 and finite, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ConfigError(f"beta must be positive and finite, got {self.beta}")
        if self.local_steps < 0:
            raise ConfigError(f"local_steps must be >= 0, got {self.local_steps}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ConfigError(f"gamma must be >= 0, got {self.gamma}")
        if self.shop_batch_size < 1:
            raise ConfigError(
                f"shop_batch_size must be >= 1, got {self.shop_batch_size}"
            )
        if self.support_size < 1:
            raise ConfigError(f"support_size must be >= 1, got {self.support_size}")
        if self.query_batch_size is not None and self.query_batch_size < 1:
            raise ConfigError(
                f"query_batch_size must be >= 1, got {self.query_batch_size}"
            )


# ---------------------------------------------------------------------------
# fairness regularizers
# ---------------------------------------------------------------------------


def regularizer_option1(scores: np.ndarray) -> float:
    """1 - mean(scores): small when the scores are already high."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyBatchError("regularizer on an empty score set")
    return 1.0 - float(np.mean(scores))


def regularizer_option2(scores: np.ndarray) -> float:
    """mean(scores): small when the scores are already low."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise EmptyBatchError("regularizer on an empty score set")
    return float(np.mean(scores))


def _penalty_for(
    task: ShopTask | _ResolvedTask, cfg: MetaConfig
) -> tuple[float, float] | None:
    """The (a, c) of ``a * mean(pred) + c`` this task's objective carries."""
    if cfg.gamma == 0.0:
        return None
    if task.size_class is None:
        raise DataError(f"training task {task.shop_id!r} carries no size_class")
    if task.size_class is SizeClass.NEW:
        raise DataError(
            f"task {task.shop_id!r} is classed NEW; training sees only known shops"
        )
    if cfg.regularizer is RegularizerKind.OPTION_I:
        if task.size_class is SizeClass.SMALL:
            return (-cfg.gamma, cfg.gamma)
        return None
    if task.size_class is SizeClass.LARGE:
        return (cfg.gamma, 0.0)
    return None


# ---------------------------------------------------------------------------
# local adaptation and meta steps
# ---------------------------------------------------------------------------


def local_adapt(
    model: RecModel,
    support: Sequence[InteractionRecord],
    features: FeatureSource,
    cfg: MetaConfig,
) -> RecModel:
    """K full-batch SGD steps on the support set; the input model is unchanged."""
    batch = prepare_batch(support, features, model.user_encoder, model.item_encoder)
    return _adapt(model, batch, cfg, None)


def _adapt(
    model: RecModel,
    batch: Batch,
    cfg: MetaConfig,
    pred_penalty: tuple[float, float] | None,
) -> RecModel:
    for _ in range(cfg.local_steps):
        _, grads = model_loss_and_grad(model, batch, cfg.loss_kind, pred_penalty)
        model = numcore.sgd_step(model, grads, cfg.alpha)
    return model


@dataclass(frozen=True)
class _ResolvedTask:
    """A task with its support and query records resolved into batches."""

    shop_id: str
    size_class: SizeClass | None
    support: Batch
    query: Batch


def _resolve(
    task: ShopTask | _ResolvedTask, features: FeatureSource, model: RecModel
) -> _ResolvedTask:
    """Resolve a task's records; an already resolved task comes back as is.

    The batches depend only on the encoders' modes and vocabularies, which
    training never changes, so they stay valid for every later step.
    """
    if isinstance(task, _ResolvedTask):
        return task
    enc = (model.user_encoder, model.item_encoder)
    return _ResolvedTask(
        task.shop_id,
        task.size_class,
        prepare_batch(task.support, features, *enc),
        prepare_batch(task.query, features, *enc),
    )


def _meta_step(
    model: RecModel,
    tasks: Sequence[ShopTask | _ResolvedTask],
    features: FeatureSource,
    cfg: MetaConfig,
    outer_state: numcore.AdamState | None,
    regularized: bool,
) -> tuple[RecModel, numcore.AdamState | None, float]:
    if not tasks:
        raise EmptyBatchError("meta step with no tasks")
    ordered = sorted(tasks, key=lambda t: t.shop_id)
    total = None
    loss_sum = 0.0
    for task in ordered:
        task = _resolve(task, features, model)
        penalty = _penalty_for(task, cfg) if regularized else None
        adapted = _adapt(model, task.support, cfg, penalty)
        loss, grads = model_loss_and_grad(adapted, task.query, cfg.loss_kind, penalty)
        loss_sum += loss
        # each term is checked finite; the outer step checks the sum
        total = grads.vector if total is None else total + grads.vector
    total_grads = model.layout.build(total)
    if cfg.outer_optimizer is OuterOptimizer.SGD:
        new_model = numcore.sgd_step(model, total_grads, cfg.beta)
        new_state = outer_state
    else:
        state = outer_state if outer_state is not None else numcore.adam_init(model)
        new_model, new_state = numcore.adam_step(state, model, total_grads, cfg.beta)
    return new_model, new_state, loss_sum / len(ordered)


def meta_train_step(
    model: RecModel,
    tasks: Sequence[ShopTask],
    features: FeatureSource,
    cfg: MetaConfig,
    outer_state: numcore.AdamState | None = None,
) -> tuple[RecModel, numcore.AdamState | None, float]:
    """One first-order meta step over a batch of tasks.

    Returns (updated model, outer optimiser state, mean query loss). The
    query gradients are evaluated at each task's adapted parameters and
    summed in ascending task-id order; the global update starts from the
    original shared parameters. Plain ShopTasks are resolved into batches
    here; meta_train passes tasks it has already resolved.
    """
    return _meta_step(model, tasks, features, cfg, outer_state, regularized=False)


def fmst_train_step(
    model: RecModel,
    tasks: Sequence[ShopTask],
    features: FeatureSource,
    cfg: MetaConfig,
    outer_state: numcore.AdamState | None = None,
) -> tuple[RecModel, numcore.AdamState | None, float]:
    """A meta step with the fairness regularizer on matching size classes.

    Every task must carry a size_class (SMALL or LARGE; NEW is an error).
    With cfg.gamma == 0 this is bit-identical to meta_train_step.
    """
    if cfg.gamma != 0.0:
        for t in tasks:
            _penalty_for(t, cfg)  # validates size classes up front
    return _meta_step(model, tasks, features, cfg, outer_state, regularized=True)


def meta_inference(
    model: RecModel,
    tasks: Sequence[ShopTask],
    features: FeatureSource,
    cfg: MetaConfig,
) -> dict[str, RecModel]:
    """Adapt the shared model to each task independently (no regularizer)."""
    out = {}
    for task in sorted(tasks, key=lambda t: t.shop_id):
        out[task.shop_id] = local_adapt(model, task.support, features, cfg)
    return out


# ---------------------------------------------------------------------------
# training drivers
# ---------------------------------------------------------------------------


@dataclass
class TrainHistory:
    """Per-step mean losses plus how the run ended."""

    losses: list[float] = field(default_factory=list)
    stopped_early: bool = False


def meta_train(
    model: RecModel,
    tasks: Sequence[ShopTask],
    features: FeatureSource,
    cfg: MetaConfig,
    steps: int,
    regularized: bool = False,
    early_stop_patience: int | None = None,
) -> tuple[RecModel, TrainHistory]:
    """Run a fixed budget of meta steps over shuffled task batches.

    Task batches are drawn without replacement within an epoch and the order
    is reshuffled (seeded) at each epoch boundary; the final batch of an
    epoch may be smaller. Each task's support and query records are resolved
    into batches the first time the task is drawn and reused for the rest of
    the call. ``query_batch_size`` subsamples each task's query set per step
    as a seeded pick of rows from its resolved query batch.
    ``early_stop_patience`` stops when the best mean query loss has not
    improved for that many steps.
    """
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}")
    if early_stop_patience is not None and early_stop_patience < 0:
        raise ConfigError(
            f"early_stop_patience must be >= 0, got {early_stop_patience}"
        )
    if not tasks:
        raise EmptyBatchError("meta_train with no tasks")
    rng = np.random.default_rng([cfg.seed, 23])
    queue: list[int] = []
    resolved: dict[int, _ResolvedTask] = {}
    history = TrainHistory()
    state: numcore.AdamState | None = None
    best = math.inf
    best_step = -1
    step_fn = fmst_train_step if regularized else meta_train_step
    for step in range(steps):
        if not queue:
            queue = list(rng.permutation(len(tasks)))
        take = queue[: cfg.shop_batch_size]
        queue = queue[cfg.shop_batch_size :]
        for i in sorted(take, key=lambda j: tasks[j].shop_id):
            if i not in resolved:
                resolved[i] = _resolve(tasks[i], features, model)
        batch_tasks = [resolved[i] for i in take]
        if cfg.query_batch_size is not None:
            batch_tasks = [
                _subsample_query(t, cfg.query_batch_size, rng) for t in batch_tasks
            ]
        model, state, loss = step_fn(model, batch_tasks, features, cfg, state)
        history.losses.append(loss)
        if loss < best:
            best, best_step = loss, step
        if early_stop_patience is not None and step - best_step >= early_stop_patience:
            history.stopped_early = True
            break
    return model, history


def _subsample_query(
    task: _ResolvedTask, size: int, rng: np.random.Generator
) -> _ResolvedTask:
    """Keep ``size`` query rows, picked by the seeded rng, in record order."""
    if task.query.size <= size:
        return task
    picks = np.sort(rng.choice(task.query.size, size=size, replace=False))
    return _ResolvedTask(
        task.shop_id, task.size_class, task.support, _slice_batch(task.query, picks)
    )


def _slice_batch(batch: Batch, picks: np.ndarray) -> Batch:
    return Batch(batch.labels[picks], batch.user_rows[picks], batch.item_rows[picks])


def _sgd_epochs(
    model: Any, n: int, batch_loss: Callable[[Any, np.ndarray], tuple[float, Any]],
    cfg: MetaConfig, epochs: int, batch_size: int | None, tag: int,
) -> tuple[Any, TrainHistory]:
    """Mini-batch SGD at rate ``alpha``, the loop of every non-meta trainer.

    Each epoch shuffles rows 0..n-1 (seeded by ``[cfg.seed, tag]``) and steps
    on ``batch_size`` of them at a time (all n when None), with the loss and
    gradients ``batch_loss(model, rows)`` gives; losses are per-epoch means.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if batch_size is not None and batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    bs = n if batch_size is None else min(batch_size, n)
    rng = np.random.default_rng([cfg.seed, tag])
    history = TrainHistory()
    starts = range(0, n, bs)
    for _ in range(epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in starts:
            loss, grads = batch_loss(model, order[start : start + bs])
            model = numcore.sgd_step(model, grads, cfg.alpha)
            epoch_loss += loss
        history.losses.append(epoch_loss / len(starts))
    return model, history


def nonmeta_train(
    model: RecModel,
    records: Sequence[InteractionRecord],
    features: FeatureSource,
    cfg: MetaConfig,
    epochs: int,
    batch_size: int | None = None,
) -> tuple[RecModel, TrainHistory]:
    """Pooled mini-batch SGD at rate ``alpha`` (the conventional comparator).

    Each epoch visits the records in a seeded shuffle, so runs are
    bit-reproducible. With ``epochs == 0`` the model comes back unchanged.
    """
    if not records:
        raise EmptyBatchError("nonmeta_train with no records")
    full = prepare_batch(records, features, model.user_encoder, model.item_encoder)

    def batch_loss(m: RecModel, rows: np.ndarray) -> tuple[float, RecModel]:
        return model_loss_and_grad(m, _slice_batch(full, rows), cfg.loss_kind)

    return _sgd_epochs(model, full.size, batch_loss, cfg, epochs, batch_size, 29)


def one_shop_train(
    model: RecModel,
    shop_records: Sequence[InteractionRecord],
    features: FeatureSource,
    cfg: MetaConfig,
    epochs: int,
    batch_size: int | None = None,
) -> tuple[RecModel, TrainHistory]:
    """Train fresh parameters on a single shop's records (no meta-learning).

    Same plain mini-batch SGD as nonmeta_train; the caller supplies a
    freshly initialised model and only this shop's data.
    """
    shops = {r.shop_id for r in shop_records}
    if len(shops) > 1:
        raise DataError(f"one_shop_train got records from {len(shops)} shops")
    return nonmeta_train(model, shop_records, features, cfg, epochs, batch_size)


def train_baseline(
    model: BaselineModel,
    records: Sequence[InteractionRecord],
    features: FeatureSource,
    cfg: MetaConfig,
    epochs: int,
    batch_size: int = 64,
) -> tuple[BaselineModel, TrainHistory]:
    """Mini-batch SGD on the contrastive loss over positive/negative pairs.

    User representations are mapped-history means recomputed inside every
    gradient, so history items receive gradient too. Pairs whose user has no
    positive history are dropped (they cannot form a representation).
    """
    hist = purchase_histories(records)
    pairs = [
        (r.user_id, r.item_id, r.label > 0)
        for r in sorted(records, key=lambda r: (r.user_id, r.item_id, -r.label))
        if r.user_id in hist
    ]
    if not pairs:
        raise EmptyBatchError("no trainable pairs (every user is cold)")

    def batch_loss(m: BaselineModel, rows: np.ndarray) -> tuple[float, BaselineModel]:
        chunk = [pairs[j] for j in rows]
        pos = [(u, i) for u, i, p in chunk if p]
        neg = [(u, i) for u, i, p in chunk if not p]
        return baseline_loss_and_grad(m, pos, neg, hist, features)

    return _sgd_epochs(model, len(pairs), batch_loss, cfg, epochs, batch_size, 31)


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------


def write_manifest(path: str | Path, entries: Sequence[tuple[str, Any]]) -> None:
    """Write ordered key=value lines (UTF-8). Values are stringified."""
    for key, _ in entries:
        if "=" in key or "\n" in key:
            raise ConfigError(f"bad manifest key {key!r}")
    text = "".join(f"{k}={v}\n" for k, v in entries)
    atomic_write_text(path, text)


def read_manifest(path: str | Path) -> dict[str, str]:
    text = read_text(path, "manifest ", DataError)
    out = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path} line {line_no}: expected key=value")
        k, _, v = line.partition("=")
        out[k] = v
    return out


def config_manifest_entries(cfg: Any, prefix: str = "config") -> list[tuple[str, Any]]:
    """Flatten a (possibly nested) config into sorted manifest entries.

    Enums become their values and sequences comma-joined strings.
    """
    flat: dict[str, Any] = {}

    def visit(obj: Any, path: str) -> None:
        if isinstance(obj, dict):
            for k, v in obj.items():
                visit(v, f"{path}.{k}")
        elif isinstance(obj, list):
            flat[path] = ",".join(map(str, obj))
        else:
            flat[path] = obj

    visit(to_json(cfg), prefix)
    return sorted(flat.items())
