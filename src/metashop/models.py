"""Model bundles: feature encoders, scoring networks, and the distance baseline.

A RecModel ties together a user encoder, an item encoder, and a scoring
network so that one gradient step updates embedding tables and dense layers
together. The bundle is one numcore.ParamTree: every table, weight and bias
is a view of the model's single float64 ``vector`` (user tables, item
tables, then the scorer's layers), validated once when the model is built
or loaded. ``loss_and_grad_at`` reads the parameters as leaf views of a
(P,) vector or a (T, P) stack and hands them, last, to ``encode_rows`` and
numcore's kernels, which read a tree's own leaves when given none; its
gradient is a zeroed vector of the same layout, into whose leaves backprop
writes the dense-layer gradients (and a side's feature gradient only if it
has tables) and one ``np.add.at`` per encoder the table gradients, checked
for finiteness once. A BaselineModel is laid out the same way (item tables,
then the mapper's layers). prepare_batch looks up and resolves each distinct
user and item id of a batch once, then gathers one feature row per record;
TableRows does so once over many batches of one table.
feature_rows converts a whole side in one copy (flat float rows, plain
attribute dicts) and falls back to a per-row pass for other forms and for
errors.

Model kinds:
  * MESH: two MLP towers joined by a dot product of their outputs.
  * MESH_I: one joint MLP on the concatenation [user; item].
  * WIDE_DEEP: same joint architecture as MESH_I; it differs only in how it
    is trained (pooled, non-meta).
  * BASELINE: an item-mapper MLP; a user is the mean of the mapped items
    they purchased, and the score is the negated Euclidean distance between
    the user representation and the mapped item.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol

import numpy as np

from . import numcore
from .errors import (
    ColdUserError,
    DataError,
    EmptyBatchError,
    OutOfVocabularyError,
    ShapeError,
    check_at_least,
)


class ModelKind(enum.Enum):
    MESH = "mesh"
    MESH_I = "mesh_i"
    WIDE_DEEP = "wide_deep"
    BASELINE = "baseline"


class EncoderMode(enum.Enum):
    PRETRAINED = "pretrained"
    CATEGORICAL = "categorical"


class FeatureSource(Protocol):
    """Anything that can hand back raw per-id features."""

    def user_raw(self, user_id: str) -> Any: ...

    def item_raw(self, item_id: str) -> Any: ...


# ---------------------------------------------------------------------------
# feature encoders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """One categorical field: name plus its ordered vocabulary.

    ``positions`` maps each category to its table row.
    """

    name: str
    categories: tuple[str, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        positions = {c: j for j, c in enumerate(self.categories)}
        object.__setattr__(self, "positions", positions)
        if len(positions) != len(self.categories):
            raise ShapeError(f"field {self.name!r} has duplicate categories")
        if not self.categories:
            raise ShapeError(f"field {self.name!r} has an empty vocabulary")

    @property
    def vocab_size(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class FeatureEncoder(numcore.ParamTree):
    """Maps raw user/item data to a float vector.

    PRETRAINED passes through a fixed-size float vector unchanged and owns no
    parameters. CATEGORICAL owns one embedding table per field (rows indexed
    by the field vocabulary) and outputs the concatenation of the looked-up
    rows, so its tables receive gradients like any other parameter.
    """

    PARTS = ("tables",)
    mode: EncoderMode
    dim: int
    fields: tuple[FieldSpec, ...] = ()
    tables: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple(self.fields))
        if self.mode is EncoderMode.PRETRAINED:
            if self.fields or self.tables:
                raise ShapeError("pretrained encoders own no fields or tables")
            # dim 0 is allowed: a side that contributes no features
            check_at_least("encoder dim", self.dim, 0, error=ShapeError)
            self._pack()
            return
        if not self.fields:
            raise ShapeError("categorical encoders need at least one field")
        if set(self.tables) != {f.name for f in self.fields}:
            raise ShapeError("tables do not match the declared fields")
        coerced = {}
        total = 0
        for f in self.fields:
            t = np.asarray(self.tables[f.name], dtype=np.float64)
            if t.ndim != 2 or t.shape[0] != f.vocab_size:
                raise ShapeError(
                    f"table for field {f.name!r} has shape {t.shape}, "
                    f"expected ({f.vocab_size}, *)"
                )
            coerced[f.name] = t
            total += t.shape[1]
        object.__setattr__(self, "tables", coerced)
        if total != self.dim:
            raise ShapeError(f"encoder dim {self.dim} != sum of table dims {total}")
        self._pack()


def pretrained_encoder(dim: int) -> FeatureEncoder:
    return FeatureEncoder(EncoderMode.PRETRAINED, dim)


def build_categorical_encoder(
    fields: Sequence[tuple[str, Sequence[str]]],
    embedding_dim: int,
    rng: np.random.Generator | int,
) -> FeatureEncoder:
    """Seeded uniform(-1/sqrt(d), 1/sqrt(d)) tables, one per field, shared dim."""
    check_at_least("embedding_dim", embedding_dim, 1, error=ShapeError)
    rng = np.random.default_rng(rng)
    specs = tuple(FieldSpec(name, tuple(cats)) for name, cats in fields)
    limit = 1.0 / np.sqrt(embedding_dim)
    tables = {
        s.name: rng.uniform(-limit, limit, size=(s.vocab_size, embedding_dim))
        for s in specs
    }
    return FeatureEncoder(
        EncoderMode.CATEGORICAL, embedding_dim * len(specs), specs, tables
    )


def resolve_indices(encoder: FeatureEncoder, raw: Any) -> np.ndarray:
    """Turn raw categorical data into one table row index per field.

    ``raw`` is either a mapping {field name: category value} or a sequence of
    integer indices in field order. Unknown categories and out-of-range
    indices raise OutOfVocabularyError.
    """
    if encoder.mode is not EncoderMode.CATEGORICAL:
        raise ShapeError("resolve_indices needs a categorical encoder")
    idx = np.empty(len(encoder.fields), dtype=np.int64)
    if isinstance(raw, Mapping):
        for j, f in enumerate(encoder.fields):
            if f.name not in raw:
                raise OutOfVocabularyError(f"missing field {f.name!r}")
            value = raw[f.name]
            try:
                idx[j] = f.positions[value]
            except (KeyError, TypeError):
                raise OutOfVocabularyError(
                    f"unknown category {value!r} for field {f.name!r}"
                ) from None
        return idx
    values = list(raw)
    if len(values) != len(encoder.fields):
        raise ShapeError(
            f"{len(values)} indices for {len(encoder.fields)} fields"
        )
    for j, (f, v) in enumerate(zip(encoder.fields, values)):
        v = int(v)
        if not 0 <= v < f.vocab_size:
            raise OutOfVocabularyError(
                f"index {v} out of range for field {f.name!r} "
                f"(vocabulary size {f.vocab_size})"
            )
        idx[j] = v
    return idx


def feature_rows(encoder: FeatureEncoder, raws: Iterable[Any], side: str) -> np.ndarray:
    """Stack raw per-id features into one row per id.

    A pretrained encoder gets float rows, checked against its width (a
    mismatch is a DataError naming ``side``); a categorical encoder gets
    table-row indices, one column per field. Each side is converted in one
    copy: one ``np.array`` call over float rows that numpy reads as
    (n, width), one lookup pass per field over plain dicts (a dict subclass
    may answer a missing field with a default). Other forms, and a copy that
    raises, go through ``_rows_one_by_one``, which raises in row order.
    """
    rows = list(raws)
    try:
        if encoder.mode is EncoderMode.PRETRAINED:
            mat = np.array(rows, dtype=np.float64)
            if mat.shape == (len(rows), encoder.dim):
                return mat
        elif rows and all(type(r) is dict for r in rows):
            mat = np.empty((len(rows), len(encoder.fields)), dtype=np.int64)
            for j, f in enumerate(encoder.fields):
                mat[:, j] = [f.positions[r[f.name]] for r in rows]
            return mat
    except (KeyError, TypeError, ValueError):
        pass  # the per-row pass raises the first bad row's error
    return _rows_one_by_one(encoder, rows, side)


def _rows_one_by_one(encoder: FeatureEncoder, rows: list, side: str) -> np.ndarray:
    """feature_rows one row at a time, for any raw form and in error order."""
    if encoder.mode is EncoderMode.PRETRAINED:
        flat = [np.asarray(r, dtype=np.float64).ravel() for r in rows]
        for r in flat:
            if r.size != encoder.dim:
                raise DataError(
                    f"{side} features have {r.size} dims, expected {encoder.dim}"
                )
        return np.stack(flat)
    return np.stack([resolve_indices(encoder, r) for r in rows])


def _task_index(rows: np.ndarray) -> tuple:
    """The leading index into stacked tables: task t's rows read table t."""
    return (np.arange(rows.shape[0])[:, None],) if rows.ndim == 3 else ()


def encode_rows(
    encoder: FeatureEncoder, rows: np.ndarray, tables: Sequence | None = None
) -> np.ndarray:
    """Float features for feature_rows output.

    Index rows gather and concatenate rows of ``tables``, the encoder's own
    when None; pretrained rows already are the features; a stack's rows
    gather from each task's own tables.
    """
    if encoder.mode is EncoderMode.PRETRAINED:
        return rows
    tables = numcore.tree_leaves(encoder) if tables is None else tables
    at = _task_index(rows)
    return np.concatenate([t[(*at, rows[..., j])] for j, t in enumerate(tables)], axis=-1)


def encode(encoder: FeatureEncoder, raw: Any) -> np.ndarray:
    """Encode one user or item into its float feature vector."""
    return encode_rows(encoder, feature_rows(encoder, [raw], "pretrained"))[0]


# ---------------------------------------------------------------------------
# scoring model bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecModel(numcore.ParamTree):
    """Encoders plus scoring network, treated as one parameter tree."""

    PARTS = ("user_encoder", "item_encoder", "scorer")
    kind: ModelKind
    user_encoder: FeatureEncoder
    item_encoder: FeatureEncoder
    scorer: numcore.ModelParameters
    sigmoid_output: bool = False

    def __post_init__(self) -> None:
        if self.kind is ModelKind.BASELINE:
            raise ShapeError("the distance baseline uses BaselineModel")
        want_tt = self.kind is ModelKind.MESH
        is_tt = self.scorer.variant is numcore.ModelVariant.TWO_TOWER
        if want_tt != is_tt:
            raise ShapeError(
                f"{self.kind.value} does not match scorer variant "
                f"{self.scorer.variant.value}"
            )
        if is_tt:
            if self.scorer.user_tower.in_dim != self.user_encoder.dim:
                raise ShapeError(
                    f"user tower expects {self.scorer.user_tower.in_dim} dims, "
                    f"encoder gives {self.user_encoder.dim}"
                )
            if self.scorer.item_tower.in_dim != self.item_encoder.dim:
                raise ShapeError(
                    f"item tower expects {self.scorer.item_tower.in_dim} dims, "
                    f"encoder gives {self.item_encoder.dim}"
                )
        else:
            total = self.user_encoder.dim + self.item_encoder.dim
            if self.scorer.joint.in_dim != total:
                raise ShapeError(
                    f"joint MLP expects {self.scorer.joint.in_dim} dims, "
                    f"encoders give {total}"
                )
        self._pack()


def build_model(
    kind: ModelKind,
    user_encoder: FeatureEncoder,
    item_encoder: FeatureEncoder,
    hidden_dims: Sequence[int],
    rng: np.random.Generator | int,
    sigmoid_output: bool = False,
) -> RecModel:
    """Initialise a scoring network matching the encoder output dims."""
    rng = np.random.default_rng(rng)
    hidden = list(hidden_dims)
    if kind is ModelKind.MESH:
        scorer = numcore.init_two_tower(
            [user_encoder.dim] + hidden, [item_encoder.dim] + hidden, rng
        )
    elif kind in (ModelKind.MESH_I, ModelKind.WIDE_DEEP):
        scorer = numcore.init_joint(
            [user_encoder.dim + item_encoder.dim] + hidden + [1], rng
        )
    else:
        raise ShapeError("build_model handles mesh, mesh_i, and wide_deep")
    return RecModel(kind, user_encoder, item_encoder, scorer, sigmoid_output)


# ---------------------------------------------------------------------------
# batches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """Labelled examples with features resolved as far as possible.

    One feature_rows row per record: float rows for pretrained encoders,
    index rows for categorical ones, so that gradients can be scattered back
    into the tables. A stack of T batches has (T, n) labels, (T, n, w) rows.
    """

    labels: np.ndarray
    user_rows: np.ndarray
    item_rows: np.ndarray

    @property
    def size(self) -> int:
        return self.labels.shape[-1]


def prepare_batch(
    records: Iterable[Any],
    features: FeatureSource,
    user_encoder: FeatureEncoder,
    item_encoder: FeatureEncoder,
) -> Batch:
    """Resolve record ids into a Batch via the feature source and encoders.

    ``records`` is a ``datapipe.Interactions`` table, whose rows ``TableRows``
    gathers, or records whose ``label``, ``user_id`` and ``item_id`` are
    read directly. Each distinct id is looked up and resolved once; errors
    come in a per-record pass's order: user lookups, item lookups, user rows, item rows.
    """
    from .datapipe import Interactions, _first_appearance_codes  # datapipe -> checkpoint -> models

    if isinstance(records, Interactions):
        table = TableRows(records, features, user_encoder, item_encoder)
        return table.batch(np.arange(len(records)))
    records = list(records)
    labels = np.array([float(r.label) for r in records])
    if not len(labels):
        raise EmptyBatchError("prepare_batch on zero records")
    user_codes, user_ids = _first_appearance_codes([r.user_id for r in records])
    users = [features.user_raw(u) for u in user_ids]
    item_codes, item_ids = _first_appearance_codes([r.item_id for r in records])
    items = [features.item_raw(i) for i in item_ids]
    return Batch(
        labels,
        feature_rows(user_encoder, users, "user")[user_codes],
        feature_rows(item_encoder, items, "item")[item_codes],
    )


class TableRows:
    """Batches of rows of one ``datapipe.Interactions`` table. Each user and
    item code is looked up and resolved once, by the first batch holding it,
    in that batch's order of first appearance and ``prepare_batch``'s error
    order; a batch gathers its rows by code, copies of the same floats."""

    def __init__(self, table: Any, features: FeatureSource,
                 user_encoder: FeatureEncoder, item_encoder: FeatureEncoder) -> None:
        self.label = table.label
        self.sides = [  # per side: codes, values, lookup, encoder, name
            (*table.column(f"{name}_id"), lookup, encoder, name) for name, lookup, encoder in
            (("user", features.user_raw, user_encoder), ("item", features.item_raw, item_encoder))]
        self.known = [np.zeros(len(values), bool) for _, values, *_ in self.sides]
        self.rows = [  # each side's feature rows by code: table-row indices or floats
            np.empty((len(values), len(enc.fields) or enc.dim), "i8" if enc.fields else "f8")
            for _, values, _, enc, _ in self.sides]

    def batch(self, rows: np.ndarray) -> Batch:
        if not len(rows):
            raise EmptyBatchError("prepare_batch on zero records")
        codes = [side_codes[rows] for side_codes, *_ in self.sides]
        new = [np.fromiter(dict.fromkeys(c[~known[c]].tolist()), np.intp)  # first appearances
               for c, known in zip(codes, self.known)]
        raws = [list(map(lookup, values[n].tolist()))
                for (_, values, lookup, *_), n in zip(self.sides, new)]
        for (*_, enc, side), n, raw, known, by_code in zip(
                self.sides, new, raws, self.known, self.rows):
            if len(n):
                by_code[n], known[n] = feature_rows(enc, raw, side), True
        return Batch(self.label[rows], *(r[c] for r, c in zip(self.rows, codes)))


def _encoder_grad(idx: np.ndarray, d_feats: np.ndarray | None, grad: np.ndarray,
                  layout: numcore.Layout, leaves: range) -> None:
    """Scatter-add ``d_feats`` into the tables (``layout``'s ``leaves``) of the
    zeroed gradient vector ``grad``, (P,) or (T, P) for (T, n) ``idx``.

    One ``np.add.at`` over flat indices into ``grad`` adds each element's rows
    from 0.0 in row order. With no tables (pretrained), ``d_feats`` may be None.
    """
    if not leaves:
        return
    spans = [(layout.offsets[k], layout.shapes[k][1]) for k in leaves]  # (start, width)
    flat = np.concatenate([idx[..., j, None] * width + np.arange(start, start + width)
                           for j, (start, width) in enumerate(spans)], axis=-1)
    if grad.ndim == 2:  # task t adds to row t
        flat += grad.shape[1] * np.arange(len(grad))[:, None, None]
    np.add.at(grad.reshape(-1), flat.ravel(), d_feats.ravel())


def loss_and_grad_at(
    model: RecModel, vector: np.ndarray, batch: Batch, loss_kind: numcore.LossKind,
    pred_penalty: tuple[float, float] | None = None,
) -> tuple[Any, np.ndarray]:
    """``model_loss_and_grad`` at a (P,) ``vector`` or a (T, P) stack laid
    out like ``model``, which gives only the structure.

    Returns (objective, gradient vector shaped like ``vector``), one
    objective per task for a stack.
    """
    if batch.size == 0:
        raise EmptyBatchError("gradient on an empty batch")
    grad = np.zeros(vector.shape)
    p, g = model.layout.leaves(vector), model.layout.leaves(grad)
    nu = len(model.user_encoder.layout.paths)
    n = nu + len(model.item_encoder.layout.paths)
    u = encode_rows(model.user_encoder, batch.user_rows, p[:nu])
    v = encode_rows(model.item_encoder, batch.item_rows, p[nu:n])
    loss, d_u, d_v = numcore.loss_backward(
        model.scorer, u, v, batch.labels, loss_kind, model.sigmoid_output,
        pred_penalty, g[n:], p[n:], (nu > 0, n > nu),
    )
    _encoder_grad(batch.user_rows, d_u, grad, model.layout, range(nu))
    _encoder_grad(batch.item_rows, d_v, grad, model.layout, range(nu, n))
    model.layout.check_finite(grad, "model_loss_and_grad")
    return loss, grad


def model_loss_and_grad(
    model: RecModel,
    batch: Batch,
    loss_kind: numcore.LossKind,
    pred_penalty: tuple[float, float] | None = None,
) -> tuple[float, RecModel]:
    """Loss and gradient over the whole bundle (tables + scoring network).

    ``pred_penalty`` is numcore.loss_backward's optional (a, c) adding
    ``a * mean(pred) + c`` to the objective. Returns (objective value,
    gradients as a RecModel laid out like ``model``), per task for a stack.
    """
    loss, grad = loss_and_grad_at(model, model.vector, batch, loss_kind, pred_penalty)
    return loss, model.layout.build(grad)


# ---------------------------------------------------------------------------
# distance baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineModel(numcore.ParamTree):
    """Item encoder and mapper MLP, plus the contrastive-loss hyperparameters."""

    PARTS = ("item_encoder", "item_mapper")
    item_encoder: FeatureEncoder
    item_mapper: numcore.MlpParams
    margin: float
    negative_weight: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.margin) and self.margin > 0):
            raise ShapeError(f"margin must be positive, got {self.margin}")
        check_at_least("negative_weight", self.negative_weight, 0, error=ShapeError)
        self._pack()

    @property
    def kind(self) -> ModelKind:
        return ModelKind.BASELINE


def build_baseline(
    item_encoder: FeatureEncoder,
    hidden_dims: Sequence[int],
    rng: np.random.Generator | int,
    margin: float = 1.0,
    negative_weight: float = 1.0,
) -> BaselineModel:
    mapper = numcore.init_mlp([item_encoder.dim] + list(hidden_dims), rng)
    return BaselineModel(item_encoder, mapper, margin, negative_weight)


def _mapped_items(
    model: BaselineModel, item_ids: Iterable[str], features: FeatureSource
) -> tuple[np.ndarray, np.ndarray, list]:
    """(feature rows, mapped items, mapper caches) of ``item_ids``."""
    rows = feature_rows(model.item_encoder, map(features.item_raw, item_ids), "item")
    reps, caches = numcore.mlp_forward_trace(
        model.item_mapper, encode_rows(model.item_encoder, rows)
    )
    return rows, reps, caches


def baseline_user_reps(
    model: BaselineModel,
    histories: Mapping[str, Sequence[str]],
    features: FeatureSource,
    users: Sequence[str],
) -> dict[str, np.ndarray]:
    """Mapped-history means; users without history get the catalog mean."""
    catalog = sorted({i for items in histories.values() for i in items})
    if not catalog:
        raise DataError("baseline evaluation needs at least one purchase history")
    _, reps, _ = _mapped_items(model, catalog, features)
    row_of = {i: r for r, i in enumerate(catalog)}
    fallback = reps.mean(axis=0)
    out = {}
    for u in users:
        hist = histories.get(u)
        if hist:
            out[u] = reps[[row_of[i] for i in hist]].mean(axis=0)
        else:
            out[u] = fallback
    return out


def baseline_score_matrix(
    model: BaselineModel,
    user_reps: Mapping[str, np.ndarray],
    user_ids: Sequence[str],
    item_ids: Sequence[str],
    features: FeatureSource,
) -> np.ndarray:
    """Negated user-item distances, shape (n_users, n_items)."""
    _, reps, _ = _mapped_items(model, item_ids, features)
    u = np.stack([np.asarray(user_reps[uid], dtype=np.float64) for uid in user_ids])
    sq = (
        np.sum(u * u, axis=1)[:, None]
        + np.sum(reps * reps, axis=1)[None, :]
        - 2.0 * (u @ reps.T)
    )
    return -np.sqrt(np.maximum(sq, 0.0))


def baseline_loss_and_grad(
    model: BaselineModel,
    pos_pairs: Sequence[tuple[str, str]],
    neg_pairs: Sequence[tuple[str, str]],
    histories: Mapping[str, Sequence[str]],
    features: FeatureSource,
) -> tuple[float, BaselineModel]:
    """Contrastive loss and its gradient, with users as mapped-history means.

    User representations are recomputed from the current mapper inside the
    loss, so gradients flow through both the target item and every item in
    the user's history.

    Args:
        model: the baseline bundle.
        pos_pairs / neg_pairs: (user_id, item_id) pairs.
        histories: purchased item ids per user (training positives).
        features: raw feature lookup.

    Returns:
        (loss, gradients as a BaselineModel laid out like ``model``)
    """
    if not pos_pairs and not neg_pairs:
        raise EmptyBatchError("gradient on zero pairs")
    users = sorted({u for u, _ in pos_pairs} | {u for u, _ in neg_pairs})
    for u in users:
        if not histories.get(u):
            raise ColdUserError(f"user {u!r} has no purchase history")
    item_ids = sorted(
        {i for _, i in pos_pairs}
        | {i for _, i in neg_pairs}
        | {i for u in users for i in histories[u]}
    )
    row_of = {i: r for r, i in enumerate(item_ids)}
    rows, reps, caches = _mapped_items(model, item_ids, features)
    user_rep = {
        u: reps[[row_of[i] for i in histories[u]]].mean(axis=0) for u in users
    }
    d_reps = np.zeros_like(reps)
    d_user: dict[str, np.ndarray] = {u: np.zeros(reps.shape[1]) for u in users}
    loss = 0.0
    lam, m = model.negative_weight, model.margin
    for pairs, positive in ((pos_pairs, True), (neg_pairs, False)):
        for u, i in pairs:
            diff = user_rep[u] - reps[row_of[i]]
            dist = float(np.linalg.norm(diff))
            if positive:
                loss += dist
                dl_dd = 1.0
            else:
                slack = m - dist
                if slack <= 0.0:
                    continue
                loss += lam * slack
                dl_dd = -lam
            if dist == 0.0:
                continue  # zero subgradient at the kink
            g = dl_dd * diff / dist
            d_user[u] += g
            d_reps[row_of[i]] -= g
    for u in users:
        hist = histories[u]
        share = d_user[u] / len(hist)
        for i in hist:
            d_reps[row_of[i]] += share
    grads = model.layout.zeros()
    d_feats = numcore.mlp_backward(
        model.item_mapper, caches, d_reps, numcore.tree_leaves(grads.item_mapper),
        input_grad=bool(model.item_encoder.fields),
    )
    _encoder_grad(rows, d_feats, grads.vector, model.layout,
                  range(len(model.item_encoder.layout.paths)))
    numcore.tree_check_finite(grads, "baseline_loss_and_grad")
    return loss, grads
