"""Dense-network numerics: parameters, forward passes, losses, backprop, SGD/Adam.

Everything is plain float64 numpy. Parameter containers are frozen dataclasses
treated as immutable trees; gradients reuse the same containers so that the
generic tree utilities (bottom of this module) can map elementwise updates over
parameters and gradients together. No function mutates its inputs.

Conventions:
  * dense layer computes ``act(W @ x + b)`` with ``W`` of shape (out, in)
  * batched inputs are row-major: X of shape (n, in_dim)
  * squared loss is ``mean((y - y_hat)^2)``; binary cross-entropy clamps
    predictions to [1e-7, 1 - 1e-7] before the logs
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import EmptyBatchError, NumericError, ShapeError

BCE_CLAMP = 1e-7
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Activation(enum.Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


class LossKind(enum.Enum):
    SQUARED = "squared"
    BCE = "bce"


class ModelVariant(enum.Enum):
    TWO_TOWER = "two_tower"
    JOINT = "joint"


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


def _as_f64(a: Any, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class DenseLayerParams:
    """One dense layer: ``weights`` (out, in) and optional ``biases`` (out,)."""

    weights: np.ndarray
    biases: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = _as_f64(self.weights, "weights")
        if w.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
        object.__setattr__(self, "weights", w)
        if self.biases is not None:
            b = _as_f64(self.biases, "biases")
            if b.shape != (w.shape[0],):
                raise ShapeError(
                    f"biases shape {b.shape} does not match out_dim {w.shape[0]}"
                )
            object.__setattr__(self, "biases", b)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class MlpParams:
    """A stack of dense layers with one activation per layer."""

    layers: tuple[DenseLayerParams, ...]
    activations: tuple[Activation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "activations", tuple(self.activations))
        if len(self.layers) == 0:
            raise ShapeError("an MLP needs at least one layer")
        if len(self.layers) != len(self.activations):
            raise ShapeError(
                f"{len(self.layers)} layers but {len(self.activations)} activations"
            )
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.in_dim != prev.out_dim:
                raise ShapeError(
                    f"layer input dim {nxt.in_dim} does not match previous "
                    f"output dim {prev.out_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class ModelParameters:
    """Scoring-network parameters: either two towers or one joint MLP.

    TWO_TOWER joins the towers by a dot product of their outputs, so the
    towers must end in a common dimension. JOINT runs one MLP on the
    concatenation [user; item] and must end in a single output unit.
    """

    variant: ModelVariant
    user_tower: MlpParams | None = None
    item_tower: MlpParams | None = None
    joint: MlpParams | None = None

    def __post_init__(self) -> None:
        if self.variant is ModelVariant.TWO_TOWER:
            if self.user_tower is None or self.item_tower is None:
                raise ShapeError("two-tower parameters need both towers")
            if self.joint is not None:
                raise ShapeError("two-tower parameters must not carry a joint MLP")
            if self.user_tower.out_dim != self.item_tower.out_dim:
                raise ShapeError(
                    f"tower output dims differ: {self.user_tower.out_dim} vs "
                    f"{self.item_tower.out_dim}"
                )
        else:
            if self.joint is None:
                raise ShapeError("joint parameters need a joint MLP")
            if self.user_tower is not None or self.item_tower is not None:
                raise ShapeError("joint parameters must not carry towers")
            if self.joint.out_dim != 1:
                raise ShapeError(
                    f"joint MLP must end in one unit, got {self.joint.out_dim}"
                )


# Gradients reuse the parameter containers (same tree shape).
GradientSet = ModelParameters


# ---------------------------------------------------------------------------
# initialisation
# ---------------------------------------------------------------------------


def _init_layer(
    rng: np.random.Generator, in_dim: int, out_dim: int, bias: bool
) -> DenseLayerParams:
    # He-style uniform fan-in initialisation.
    limit = np.sqrt(6.0 / max(in_dim, 1))
    w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    b = np.zeros(out_dim) if bias else None
    return DenseLayerParams(w, b)


def init_mlp(
    layer_dims: Sequence[int],
    rng: np.random.Generator | int,
    hidden_activation: Activation = Activation.RELU,
    final_activation: Activation = Activation.IDENTITY,
    bias: bool = True,
) -> MlpParams:
    """Build an MLP with the given ``layer_dims`` = [in, h1, ..., out].

    Weights are He-uniform with fan-in scaling, biases start at zero. Hidden
    layers use ``hidden_activation``, the last layer ``final_activation``.
    """
    if len(layer_dims) < 2:
        raise ShapeError("layer_dims needs at least input and output dims")
    if any(d < 0 for d in layer_dims) or any(d == 0 for d in layer_dims[1:]):
        raise ShapeError(f"invalid layer dims {tuple(layer_dims)}")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    layers = []
    acts = []
    n = len(layer_dims) - 1
    for i in range(n):
        layers.append(_init_layer(rng, layer_dims[i], layer_dims[i + 1], bias))
        acts.append(final_activation if i == n - 1 else hidden_activation)
    return MlpParams(tuple(layers), tuple(acts))


def init_two_tower(
    user_dims: Sequence[int],
    item_dims: Sequence[int],
    rng: np.random.Generator | int,
) -> ModelParameters:
    """Two MLP towers ending in a shared dimension, joined by a dot product."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    user = init_mlp(user_dims, rng)
    item = init_mlp(item_dims, rng)
    return ModelParameters(ModelVariant.TWO_TOWER, user_tower=user, item_tower=item)


def init_joint(dims: Sequence[int], rng: np.random.Generator | int) -> ModelParameters:
    """One MLP on [user; item] ending in a single output unit."""
    if dims[-1] != 1:
        raise ShapeError("joint MLP must end in one unit")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return ModelParameters(ModelVariant.JOINT, joint=init_mlp(dims, rng))


# ---------------------------------------------------------------------------
# activations and forward passes
# ---------------------------------------------------------------------------


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _apply_activation(kind: Activation, z: np.ndarray) -> np.ndarray:
    if kind is Activation.RELU:
        return np.maximum(z, 0.0)
    if kind is Activation.SIGMOID:
        return sigmoid(z)
    return z


def _activation_deriv(kind: Activation, z: np.ndarray) -> np.ndarray:
    if kind is Activation.RELU:
        return (z > 0.0).astype(np.float64)
    if kind is Activation.SIGMOID:
        s = sigmoid(z)
        return s * (1.0 - s)
    return np.ones_like(z)


def mlp_forward_trace(
    params: MlpParams, x: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Forward pass keeping per-layer (input, pre-activation) for backprop.

    Args:
        params: the MLP.
        x: batch of inputs, shape (n, in_dim).

    Returns:
        (output (n, out_dim), caches) where caches[l] = (X_in, Z) of layer l.
    """
    caches = []
    h = x
    for layer, act in zip(params.layers, params.activations):
        z = h @ layer.weights.T
        if layer.biases is not None:
            z = z + layer.biases
        caches.append((h, z))
        h = _apply_activation(act, z)
    return h, caches


def mlp_backward(
    params: MlpParams,
    caches: list[tuple[np.ndarray, np.ndarray]],
    d_out: np.ndarray,
) -> tuple[MlpParams, np.ndarray]:
    """Backpropagate ``d_out`` (n, out_dim) through the trace of a forward pass.

    Returns (gradients in an MlpParams-shaped tree, gradient w.r.t. the input).
    Gradient biases are None exactly where the layer has no biases.
    """
    grads: list[DenseLayerParams] = []
    d = d_out
    for layer, act, (x_in, z) in zip(
        reversed(params.layers), reversed(params.activations), reversed(caches)
    ):
        dz = d * _activation_deriv(act, z)
        gw = dz.T @ x_in
        gb = dz.sum(axis=0) if layer.biases is not None else None
        d = dz @ layer.weights
        grads.append(DenseLayerParams(gw, gb))
    grads.reverse()
    return MlpParams(tuple(grads), params.activations), d


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


@dataclass
class ModelTrace:
    """Intermediate state of a scoring forward pass, consumed by model_backward."""

    user_x: np.ndarray
    item_x: np.ndarray
    user_caches: list | None = None
    item_caches: list | None = None
    hu: np.ndarray | None = None
    hi: np.ndarray | None = None
    joint_caches: list | None = None


def model_forward_trace(
    params: ModelParameters, user_x: np.ndarray, item_x: np.ndarray
) -> tuple[np.ndarray, ModelTrace]:
    """Score a batch and keep what backprop needs.

    Args:
        params: scoring parameters (either variant).
        user_x: (n, user_dim) float features.
        item_x: (n, item_dim) float features; item_dim may be 0 for JOINT.

    Returns:
        (raw scores (n,), trace)
    """
    if user_x.shape[0] != item_x.shape[0]:
        raise ShapeError(
            f"batch sizes differ: {user_x.shape[0]} vs {item_x.shape[0]}"
        )
    if params.variant is ModelVariant.TWO_TOWER:
        hu, uc = mlp_forward_trace(params.user_tower, user_x)
        hi, ic = mlp_forward_trace(params.item_tower, item_x)
        raw = np.sum(hu * hi, axis=1)
        return raw, ModelTrace(user_x, item_x, uc, ic, hu, hi)
    x = np.concatenate([user_x, item_x], axis=1)
    if x.shape[1] != params.joint.in_dim:
        raise ShapeError(
            f"concatenated dim {x.shape[1]} != joint input {params.joint.in_dim}"
        )
    out, jc = mlp_forward_trace(params.joint, x)
    return out[:, 0], ModelTrace(user_x, item_x, joint_caches=jc)


def model_backward(
    params: ModelParameters, trace: ModelTrace, d_raw: np.ndarray
) -> tuple[GradientSet, np.ndarray, np.ndarray]:
    """Backpropagate d(loss)/d(raw score) through the scoring network.

    Returns (gradients, d_user_x, d_item_x) where the input gradients have the
    shapes of the feature matrices; they feed embedding-table updates upstream.
    """
    if params.variant is ModelVariant.TWO_TOWER:
        d_hu = d_raw[:, None] * trace.hi
        d_hi = d_raw[:, None] * trace.hu
        gu, dxu = mlp_backward(params.user_tower, trace.user_caches, d_hu)
        gi, dxi = mlp_backward(params.item_tower, trace.item_caches, d_hi)
        grads = ModelParameters(ModelVariant.TWO_TOWER, user_tower=gu, item_tower=gi)
        return grads, dxu, dxi
    gj, dx = mlp_backward(params.joint, trace.joint_caches, d_raw[:, None])
    du = trace.user_x.shape[1]
    grads = ModelParameters(ModelVariant.JOINT, joint=gj)
    return grads, dx[:, :du], dx[:, du:]


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def _check_pred_label(predictions: Any, labels: Any) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(predictions, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if p.size == 0:
        raise EmptyBatchError("loss on an empty batch")
    if p.shape != y.shape:
        raise ShapeError(f"predictions {p.shape} vs labels {y.shape}")
    return p, y


def loss_and_pred_grad(
    predictions: np.ndarray, labels: np.ndarray, kind: LossKind
) -> tuple[float, np.ndarray]:
    """Loss value plus its gradient w.r.t. each prediction.

    The BCE gradient is zero where the clamp is active (the clamp is flat
    there), so analytic and finite-difference gradients agree everywhere.
    """
    p, y = _check_pred_label(predictions, labels)
    n = p.size
    if kind is LossKind.SQUARED:
        r = p - y
        return float(np.mean(r * r)), (2.0 / n) * r
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))
    grad = (pc - y) / (pc * (1.0 - pc)) / n
    grad = np.where((p > BCE_CLAMP) & (p < 1.0 - BCE_CLAMP), grad, 0.0)
    return loss, grad


def loss_gradient(
    params: ModelParameters,
    batch: tuple[Any, Any, Any],
    loss_kind: LossKind,
    sigmoid_output: bool = False,
) -> tuple[float, GradientSet]:
    """Batch loss and its gradient w.r.t. every scoring parameter.

    Args:
        params: scoring parameters.
        batch: stacked arrays (U, V, y) of user features, item features
            and labels.
        loss_kind: squared error or binary cross-entropy.
        sigmoid_output: squash raw scores through a sigmoid before the loss.

    Returns:
        (loss, gradients) with gradients in a parameter-shaped tree.
    """
    u, v, y = (np.asarray(a, dtype=np.float64) for a in batch)
    y = y.ravel()
    if u.shape[0] == 0:
        raise EmptyBatchError("gradient on an empty batch")
    raw, trace = model_forward_trace(params, u, v)
    pred = sigmoid(raw) if sigmoid_output else raw
    loss, d_pred = loss_and_pred_grad(pred, y, loss_kind)
    d_raw = d_pred * pred * (1.0 - pred) if sigmoid_output else d_pred
    grads, _, _ = model_backward(params, trace, d_raw)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss from {loss_kind.value}")
    tree_check_finite(grads, "loss_gradient")
    return loss, grads


# ---------------------------------------------------------------------------
# optimiser steps
# ---------------------------------------------------------------------------


def sgd_step(params: Any, grads: Any, stepsize: float) -> Any:
    """One plain gradient step ``p - stepsize * g`` over a parameter tree."""
    if not np.isfinite(stepsize) or stepsize < 0:
        raise NumericError(f"invalid stepsize {stepsize}")
    if stepsize == 0.0:
        return params
    return tree_map(lambda p, g: p - stepsize * g, params, grads)


@dataclass(frozen=True)
class AdamState:
    """Adam accumulator: step count plus parameter-shaped moment trees."""

    step_count: int
    first_moment: Any
    second_moment: Any


def adam_init(params: Any) -> AdamState:
    zeros = tree_map(np.zeros_like, params)
    return AdamState(0, zeros, tree_map(np.zeros_like, params))


def adam_step(
    state: AdamState, params: Any, grads: Any, stepsize: float
) -> tuple[Any, AdamState]:
    """One Adam step (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected).

    Returns the updated parameters and the advanced state. The first step
    moves each coordinate by roughly ``stepsize`` against the gradient sign.
    """
    if not np.isfinite(stepsize) or stepsize < 0:
        raise NumericError(f"invalid stepsize {stepsize}")
    t = state.step_count + 1
    m = tree_map(
        lambda m_, g: ADAM_BETA1 * m_ + (1.0 - ADAM_BETA1) * g,
        state.first_moment,
        grads,
    )
    v = tree_map(
        lambda v_, g: ADAM_BETA2 * v_ + (1.0 - ADAM_BETA2) * g * g,
        state.second_moment,
        grads,
    )
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    new_params = tree_map(
        lambda p, m_, v_: p - stepsize * (m_ / bc1) / (np.sqrt(v_ / bc2) + ADAM_EPS),
        params,
        m,
        v,
    )
    return new_params, AdamState(t, m, v)


# ---------------------------------------------------------------------------
# tree utilities
# ---------------------------------------------------------------------------


# Dataclass field metadata key: the field holds no arrays, so the tree
# utilities skip it and tree_map keeps the first tree's value.
STATIC = "metashop_static"


@functools.cache
def _tree_fields(cls: type) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """(walked, static) init field names of a dataclass type, else None.

    Fields with ``init=False`` are left out: the constructor derives them.
    """
    if not dataclasses.is_dataclass(cls):
        return None
    init = [f for f in dataclasses.fields(cls) if f.init]
    return (
        tuple(f.name for f in init if not f.metadata.get(STATIC)),
        tuple(f.name for f in init if f.metadata.get(STATIC)),
    )


def tree_map(fn: Callable[..., np.ndarray], tree: Any, *rest: Any) -> Any:
    """Apply ``fn`` to every ndarray leaf of ``tree`` (zipped with ``rest``).

    Containers (dataclasses, dicts, tuples, lists) are rebuilt; non-array
    leaves (enums, ints, strings, None) pass through from the first tree, as
    do dataclass fields marked ``STATIC`` (such as vocabularies), which are
    not walked at all. A dataclass is rebuilt by calling its constructor
    with every init field, so its ``__post_init__`` checks still run; the
    field lists are looked up once per class.
    """
    if isinstance(tree, np.ndarray):
        return fn(tree, *rest)
    if isinstance(tree, dict):
        return {k: tree_map(fn, v, *(r[k] for r in rest)) for k, v in tree.items()}
    if isinstance(tree, (tuple, list)):
        vals = [tree_map(fn, v, *(r[i] for r in rest)) for i, v in enumerate(tree)]
        return type(tree)(vals)
    names = _tree_fields(type(tree))
    if names is None:
        return tree
    walked, static = names
    kwargs = {
        n: tree_map(fn, getattr(tree, n), *(getattr(r, n) for r in rest))
        for n in walked
    }
    for n in static:
        kwargs[n] = getattr(tree, n)
    return type(tree)(**kwargs)


def tree_leaves(tree: Any) -> list[np.ndarray]:
    """All ndarray leaves in deterministic (construction) order.

    Dataclasses are walked by the same cached field lists as tree_map.
    """
    out: list[np.ndarray] = []

    def visit(t: Any) -> None:
        if isinstance(t, np.ndarray):
            out.append(t)
        elif isinstance(t, dict):
            for v in t.values():
                visit(v)
        elif isinstance(t, (tuple, list)):
            for v in t:
                visit(v)
        else:
            names = _tree_fields(type(t))
            if names is not None:
                for n in names[0]:
                    visit(getattr(t, n))

    visit(tree)
    return out


def tree_add(a: Any, b: Any) -> Any:
    return tree_map(lambda x, y: x + y, a, b)


def tree_check_finite(tree: Any, op_name: str) -> None:
    """Raise NumericError naming ``op_name`` if any leaf has NaN/Inf."""
    for leaf in tree_leaves(tree):
        if not np.all(np.isfinite(leaf)):
            raise NumericError(f"non-finite values in {op_name}")


def tree_allclose(a: Any, b: Any, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """Elementwise comparison of two same-shaped trees (exact by default)."""
    la, lb = tree_leaves(a), tree_leaves(b)
    if len(la) != len(lb):
        return False
    return all(
        x.shape == y.shape and np.allclose(x, y, rtol=rtol, atol=atol)
        for x, y in zip(la, lb)
    )
