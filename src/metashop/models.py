"""Model bundles: feature encoders, scoring networks, and the distance baseline.

A RecModel ties together a user encoder, an item encoder, and a scoring
network so that one gradient step updates embedding tables and dense layers
together. The bundle is one numcore.ParamTree: every table, weight and bias
is a view of the model's single float64 ``vector`` (user tables, item
tables, then the scorer's layers), validated once when the model is built
or loaded. A gradient is a zeroed RecModel of the same layout; backprop
writes the dense-layer gradients into it and ``np.add.at`` scatters the
table gradients into its table slices, and the filled vector is checked for
finiteness once. A BaselineModel is laid out the same way (item tables, then
the mapper's layers).

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
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Protocol, Sequence

import numpy as np

from . import numcore
from .errors import (
    ColdUserError,
    DataError,
    EmptyBatchError,
    OutOfVocabularyError,
    ShapeError,
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
            if self.dim < 0:
                # dim 0 is allowed: a side that contributes no features
                raise ShapeError(f"encoder dim must be >= 0, got {self.dim}")
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
    if isinstance(rng, (int, np.integer)):
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
    table-row indices, one column per field.
    """
    if encoder.mode is EncoderMode.PRETRAINED:
        mat = np.stack([np.asarray(r, dtype=np.float64).ravel() for r in raws])
        if mat.shape[1] != encoder.dim:
            raise DataError(
                f"{side} features have {mat.shape[1]} dims, expected {encoder.dim}"
            )
        return mat
    return np.stack([resolve_indices(encoder, r) for r in raws])


def encode_rows(encoder: FeatureEncoder, rows: np.ndarray) -> np.ndarray:
    """Float features for feature_rows output.

    Index rows gather and concatenate table rows; pretrained rows already
    are the features.
    """
    if encoder.mode is EncoderMode.PRETRAINED:
        return rows
    parts = [encoder.tables[f.name][rows[:, j]] for j, f in enumerate(encoder.fields)]
    return np.concatenate(parts, axis=1)


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
    if isinstance(rng, (int, np.integer)):
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

    The rows come from feature_rows: float matrices for pretrained encoders,
    index matrices for categorical ones, so that gradients can be scattered
    back into the tables.
    """

    labels: np.ndarray
    user_rows: np.ndarray
    item_rows: np.ndarray

    @property
    def size(self) -> int:
        return self.labels.shape[0]


def prepare_batch(
    records: Iterable[Any],
    features: FeatureSource,
    user_encoder: FeatureEncoder,
    item_encoder: FeatureEncoder,
) -> Batch:
    """Resolve record ids into a Batch via the feature source and encoders.

    Records only need ``user_id``, ``item_id``, and ``label`` attributes.
    """
    recs = list(records)
    if not recs:
        raise EmptyBatchError("prepare_batch on zero records")
    labels = np.asarray([float(r.label) for r in recs])
    users = [features.user_raw(r.user_id) for r in recs]
    items = [features.item_raw(r.item_id) for r in recs]
    return Batch(
        labels,
        feature_rows(user_encoder, users, "user"),
        feature_rows(item_encoder, items, "item"),
    )


def _encoder_grad(
    encoder: FeatureEncoder, idx: np.ndarray, d_feats: np.ndarray, grads: FeatureEncoder
) -> None:
    """Scatter-add ``d_feats`` into the zeroed tables of ``grads``, field by field.

    A pretrained encoder has no tables, so there is nothing to write.
    """
    offset = 0
    for j, f in enumerate(encoder.fields):
        table = grads.tables[f.name]
        width = table.shape[1]
        np.add.at(table, idx[:, j], d_feats[:, offset : offset + width])
        offset += width


def model_loss_and_grad(
    model: RecModel,
    batch: Batch,
    loss_kind: numcore.LossKind,
    pred_penalty: tuple[float, float] | None = None,
) -> tuple[float, RecModel]:
    """Loss and gradient over the whole bundle (tables + scoring network).

    ``pred_penalty`` is numcore.loss_backward's optional (a, c) adding
    ``a * mean(pred) + c`` to the objective. Returns (objective value,
    gradients as a RecModel laid out like ``model``).
    """
    if batch.size == 0:
        raise EmptyBatchError("gradient on an empty batch")
    u = encode_rows(model.user_encoder, batch.user_rows)
    v = encode_rows(model.item_encoder, batch.item_rows)
    grads = model.layout.zeros()
    loss, d_u, d_v = numcore.loss_backward(
        model.scorer, u, v, batch.labels, loss_kind, model.sigmoid_output,
        pred_penalty, grads.scorer,
    )
    _encoder_grad(model.user_encoder, batch.user_rows, d_u, grads.user_encoder)
    _encoder_grad(model.item_encoder, batch.item_rows, d_v, grads.item_encoder)
    numcore.tree_check_finite(grads, "model_loss_and_grad")
    return loss, grads


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
        if not (np.isfinite(self.negative_weight) and self.negative_weight >= 0):
            raise ShapeError(
                f"negative_weight must be >= 0, got {self.negative_weight}"
            )
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
        model.item_mapper, caches, d_reps, grads.item_mapper
    )
    _encoder_grad(model.item_encoder, rows, d_feats, grads.item_encoder)
    numcore.tree_check_finite(grads, "baseline_loss_and_grad")
    return loss, grads
