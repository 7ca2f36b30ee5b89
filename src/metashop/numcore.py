"""Dense-network numerics: parameters, forward passes, losses, backprop, SGD/Adam.

Everything is plain float64 numpy. Parameter containers are frozen
dataclasses (ParamTree subclasses) whose arrays are all views of one
contiguous float64 ``vector`` per tree, in leaf order; nested containers
hold views of consecutive slices of it. A ``Layout`` (leaf paths, offsets
and shapes, computed once when a tree is first built) is shared by every
tree derived from it, gradients included:

  * the public constructors (init, checkpoint load, tests) validate shapes
    and finiteness, then copy the arrays into a new vector;
  * an update (sgd_update, adam_update) is a numpy expression over (..., P)
    vectors and a finiteness check; trainers build a tree only for a model
    they hand back, and sgd_step and tree_map wrap the result
    with ``Layout.build``, which runs no constructor check;
  * a gradient is a zeroed (..., P) vector that backprop fills in place
    through its ``Layout.leaves`` views, checked for finiteness once.

Each kernel takes a tree for its structure (variant, activations, biases)
and, last, the ``leaves`` it reads in leaf order: the tree's own when None,
else the ``Layout.leaves`` of a (P,) vector or a (T, P) stack, so trainers
build no trees. A backward pass writes into ``grads``, the leaves of a
zeroed gradient. ``loss_backward`` is the one forward, sigmoid, loss (plus
penalty) and backward routine; ``loss_gradient`` and ``models`` call it.

A non-finite value is reported as a NumericError naming the operation and
the first bad leaf's path, for example ``scorer.user_tower.layers[0].weights``.
No function mutates its inputs, except backprop filling the gradient it is given.

Conventions:
  * dense layer computes ``act(W @ x + b)`` with ``W`` of shape (out, in)
  * batched inputs are row-major: X of shape (n, in_dim)
  * batched inputs may carry a leading task axis, X of shape (T, n, in_dim)
    for a stack of T trees (see ``Layout``); the kernels index from the end,
    so each task gets the same operations as alone, and losses come per task
  * squared loss is ``mean((y - y_hat)^2)``; binary cross-entropy clamps
    predictions to [1e-7, 1 - 1e-7] before the logs
"""

from __future__ import annotations

import bisect
import dataclasses
import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Sequence

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
# parameter vectors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Layout:
    """Where each leaf of one parameter-tree shape sits in its vector.

    Leaf ``i`` is named ``paths[i]`` (for example
    ``scorer.user_tower.layers[0].weights``) and fills
    ``vector[offsets[i]:offsets[i + 1]]`` in C order, with shape
    ``shapes[i]``. ``build`` wraps any float64 vector of ``size`` entries in a
    tree of this shape whose leaves are views of it; it runs no constructor
    check, so callers check the vector first. A (T, size) matrix builds a
    stack of T trees as one, leaf ``i`` of shape ``(T, *shapes[i])``;
    ``leaves`` gives the same views as a list, without a tree.
    """

    paths: tuple[str, ...]
    offsets: tuple[int, ...]
    shapes: tuple[tuple[int, ...], ...]
    build: Callable[[np.ndarray], Any] = dataclasses.field(repr=False, compare=False)
    # zeros whose dot product with a vector is 0.0 exactly when it is finite
    finite_probe: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    # per leaf: its slice of the last axis, and its shape unless it is 1-D
    keys: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "finite_probe", np.zeros(self.size))
        spans = zip(self.offsets, self.offsets[1:], self.shapes)
        keys = [(slice(a, b), s if len(s) != 1 else None) for a, b, s in spans]
        object.__setattr__(self, "keys", tuple(keys))

    @property
    def size(self) -> int:
        return self.offsets[-1]

    def zeros(self) -> Any:
        """A tree of this shape over a new zeroed vector (a gradient to fill)."""
        return self.build(np.zeros(self.size))

    def leaves(self, vector: np.ndarray) -> list[np.ndarray]:
        """Each leaf of a (..., size) ``vector`` as a view, of shape (..., *shapes[i])."""
        lead = vector.shape[:-1]
        return [
            vector[..., k] if s is None else vector[..., k].reshape(lead + s)
            for k, s in self.keys
        ]

    def check_finite(self, vector: np.ndarray, op_name: str) -> None:
        """Raise NumericError naming ``op_name`` and the first non-finite leaf
        (in a stack, of the lowest non-finite row)."""
        # 0 * x is 0 for finite x and NaN for NaN or inf, so one dot product
        # with zeros (per row) is the whole test on the common, finite path
        finite = vector.dot(self.finite_probe) == 0.0
        if finite if vector.ndim == 1 else finite.all():
            return
        index = int(np.argmin(np.isfinite(vector))) % self.size
        where = self.paths[bisect.bisect_right(self.offsets, index) - 1]
        raise NumericError(f"non-finite values in {op_name} at {where}")


class ParamTree:
    """Base of the parameter containers: every array is a view of ``vector``.

    ``PARTS`` names the fields that hold parameters; each holds an array,
    None, a child ParamTree, a tuple of them, or a dict of arrays. The other
    fields are carried over unchanged. The public constructor validates
    shapes in ``__post_init__`` and then calls ``_pack``, which copies every
    leaf, in ``PARTS`` order, into one new float64 ``vector``, checks that
    it is finite and makes the parts views of it. ``layout`` is shared by
    every tree derived from this one; ``Layout.build`` makes those trees
    without calling any constructor.
    """

    PARTS: ClassVar[tuple[str, ...]] = ()
    vector: np.ndarray
    layout: Layout

    def _pack(self) -> None:
        layout, vector = _compile(self)
        layout.check_finite(vector, type(self).__name__)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "layout", layout)
        vars(self).update(vars(layout.build(vector)))  # a tree without leaves: itself

    def at(self, vector: np.ndarray) -> Any:
        """This tree's shape around ``vector``; the tree itself if it is its own."""
        return self if vector is self.vector else self.layout.build(vector)


def _compile(node: ParamTree) -> tuple[Layout, np.ndarray]:
    """The layout of ``node``'s shape, and its leaves copied into one vector.

    Each part is placed once, recursively. Children keep their own
    layouts; the new one builds them from slices of the last axis.
    """
    paths: list[str] = []
    offsets = [0]
    shapes: list[tuple[int, ...]] = []
    segments: list[np.ndarray] = []

    def place(path: str, value: Any) -> Callable[[np.ndarray], Any]:
        """Record ``value``'s leaves; return what rebuilds it over a vector."""
        start = offsets[-1]
        if isinstance(value, np.ndarray):
            paths.append(path)
            shapes.append(value.shape)
            offsets.append(start + value.size)
            segments.append(value.ravel())
            key, shape = (..., slice(start, offsets[-1])), value.shape
            if value.ndim == 1:
                return lambda vector: vector[key]
            return lambda vector: vector[key].reshape(vector.shape[:-1] + shape)
        if isinstance(value, tuple):
            subs = [place(f"{path}[{i}]", v) for i, v in enumerate(value)]
            return lambda vector: tuple([sub(vector) for sub in subs])
        if isinstance(value, dict):
            subs = [(k, place(f"{path}[{k!r}]", v)) for k, v in value.items()]
            return lambda vector: {k: sub(vector) for k, sub in subs}
        if value is None or not value.layout.paths:
            return lambda vector: value  # nothing to rebuild: share it
        paths.extend(f"{path}.{p}" for p in value.layout.paths)
        offsets.extend(start + o for o in value.layout.offsets[1:])
        shapes.extend(value.layout.shapes)
        segments.append(value.vector)
        key, sub = (..., slice(start, offsets[-1])), value.layout.build
        return lambda vector: sub(vector[key])

    statics = {k: v for k, v in vars(node).items() if k not in node.PARTS}
    parts = [(name, place(name, getattr(node, name))) for name in node.PARTS]
    new = object.__new__
    cls = type(node)

    def build(vector: np.ndarray) -> ParamTree:
        out = new(cls)
        d = out.__dict__
        d.update(statics)
        for name, part in parts:
            d[name] = part(vector)
        d["vector"] = vector
        return out

    if not paths:
        build = lambda vector: node  # noqa: E731  (no leaves: share the node)
    layout = Layout(tuple(paths), tuple(offsets), tuple(shapes), build)
    statics["layout"] = layout
    vector = np.concatenate(segments) if segments else np.zeros(0)
    return layout, vector


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseLayerParams(ParamTree):
    """One dense layer: ``weights`` (out, in) and optional ``biases`` (out,)."""

    PARTS = ("weights", "biases")
    weights: np.ndarray
    biases: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got shape {w.shape}")
        object.__setattr__(self, "weights", w)
        if self.biases is not None:
            b = np.asarray(self.biases, dtype=np.float64)
            if b.shape != (w.shape[0],):
                raise ShapeError(
                    f"biases shape {b.shape} does not match out_dim {w.shape[0]}"
                )
            object.__setattr__(self, "biases", b)
        self._pack()

    @property
    def in_dim(self) -> int:
        return self.weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[-2]


@dataclass(frozen=True)
class MlpParams(ParamTree):
    """A stack of dense layers with one activation per layer."""

    PARTS = ("layers",)
    layers: tuple[DenseLayerParams, ...]
    activations: tuple[Activation, ...]
    # per layer: (weights, biases or None) leaf indices and the activation
    plan: tuple = dataclasses.field(init=False, repr=False, compare=False)

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
        plan, i = [], 0
        for layer, act in zip(self.layers, self.activations):
            plan.append((i, i + 1 if layer.biases is not None else None, act))
            i += len(layer.layout.paths)
        object.__setattr__(self, "plan", tuple(plan))
        self._pack()

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


@dataclass(frozen=True)
class ModelParameters(ParamTree):
    """Scoring-network parameters: either two towers or one joint MLP.

    TWO_TOWER joins the towers by a dot product of their outputs, so the
    towers must end in a common dimension. JOINT runs one MLP on the
    concatenation [user; item] and must end in a single output unit.
    """

    PARTS = ("user_tower", "item_tower", "joint")
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
        self._pack()


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
    rng = np.random.default_rng(rng)
    user = init_mlp(user_dims, rng)
    item = init_mlp(item_dims, rng)
    return ModelParameters(ModelVariant.TWO_TOWER, user_tower=user, item_tower=item)


def init_joint(dims: Sequence[int], rng: np.random.Generator | int) -> ModelParameters:
    """One MLP on [user; item] ending in a single output unit."""
    rng = np.random.default_rng(rng)
    return ModelParameters(ModelVariant.JOINT, joint=init_mlp(dims, rng))


# ---------------------------------------------------------------------------
# activations and forward passes
# ---------------------------------------------------------------------------


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (``exp`` only sees ``-|z|``)."""
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _apply_activation(kind: Activation, z: np.ndarray) -> np.ndarray:
    if kind is Activation.RELU:
        return np.maximum(z, 0.0)
    if kind is Activation.SIGMOID:
        return sigmoid(z)
    return z


def mlp_forward_trace(
    params: MlpParams, x: np.ndarray, leaves: Sequence | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Forward pass keeping per-layer (input, pre-activation) for backprop.

    ``x`` is (n, in_dim), or (T, n, in_dim) for a stack. Returns (output
    (n, out_dim), caches) where caches[l] = (X_in, Z) of layer l.
    """
    leaves = tree_leaves(params) if leaves is None else leaves
    h, caches = x, []
    for w, b, act in params.plan:
        z = h @ leaves[w].swapaxes(-1, -2)
        if b is not None:
            z += leaves[b][..., None, :]
        caches.append((h, z))
        h = _apply_activation(act, z)
    return h, caches


def mlp_backward(
    params: MlpParams,
    caches: list[tuple[np.ndarray, np.ndarray]],
    d_out: np.ndarray,
    grads: Sequence,
    leaves: Sequence | None = None,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backpropagate ``d_out`` (n, out_dim) through the trace of a forward pass.

    Writes each layer's gradient into ``grads``, the leaves of a zeroed
    gradient laid out like ``params``, and returns the gradient w.r.t. the
    input; with ``input_grad`` False it stops after the first layer's weight
    and bias gradients and returns None.
    """
    leaves = tree_leaves(params) if leaves is None else leaves
    d = d_out
    for (w, b, act), (x_in, z) in zip(reversed(params.plan), reversed(caches)):
        if act is Activation.RELU:  # a product, not np.where: keeps NaN * 0 and -0.0
            d = d * (z > 0.0)
        elif act is Activation.SIGMOID:
            s = sigmoid(z)
            d = d * (s * (1.0 - s))
        np.matmul(d.swapaxes(-1, -2), x_in, out=grads[w])
        if b is not None:
            d.sum(axis=-2, out=grads[b])
        d = d @ leaves[w] if input_grad or w != params.plan[0][0] else None
    return d


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


def _split(params: ModelParameters, leaves: Sequence) -> tuple:
    """The user and item towers' leaves; for JOINT, the joint MLP's and none."""
    n = len(params.user_tower.layout.paths) if params.user_tower else len(leaves)
    return leaves[:n], leaves[n:]


def model_forward_trace(
    params: ModelParameters, user_x: np.ndarray, item_x: np.ndarray,
    leaves: Sequence | None = None,
) -> tuple[np.ndarray, ModelTrace]:
    """Score a batch and keep what backprop needs.

    ``user_x`` is (n, user_dim) and ``item_x`` (n, item_dim) float features;
    item_dim may be 0 for JOINT. Returns (raw scores (n,), trace); (T, n)
    scores for (T, n, dim) features.
    """
    if user_x.shape[:-1] != item_x.shape[:-1]:
        raise ShapeError(
            f"batch sizes differ: {user_x.shape[-2]} vs {item_x.shape[-2]}"
        )
    first, second = _split(params, tree_leaves(params) if leaves is None else leaves)
    if params.variant is ModelVariant.TWO_TOWER:
        hu, uc = mlp_forward_trace(params.user_tower, user_x, first)
        hi, ic = mlp_forward_trace(params.item_tower, item_x, second)
        raw = (hu * hi).sum(axis=-1)
        return raw, ModelTrace(user_x, item_x, uc, ic, hu, hi)
    x = np.concatenate([user_x, item_x], axis=-1)
    if x.shape[-1] != params.joint.in_dim:
        raise ShapeError(
            f"concatenated dim {x.shape[-1]} != joint input {params.joint.in_dim}"
        )
    out, jc = mlp_forward_trace(params.joint, x, first)
    return out[..., 0], ModelTrace(user_x, item_x, joint_caches=jc)


def model_backward(
    params: ModelParameters, trace: ModelTrace, d_raw: np.ndarray, grads: Sequence,
    leaves: Sequence | None = None, input_grads: tuple[bool, bool] = (True, True),
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Backpropagate d(loss)/d(raw score) through the scoring network.

    Writes the parameter gradients into ``grads``, the leaves of a zeroed
    gradient laid out like ``params``, and returns (d_user_x, d_item_x),
    shaped like the feature matrices; they feed embedding-table updates. A
    side ``input_grads`` does not ask for is None, and not computed (JOINT:
    unless the other side is asked for).
    """
    first, second = _split(params, tree_leaves(params) if leaves is None else leaves)
    g_first, g_second = _split(params, grads)
    want_u, want_i = input_grads
    if params.variant is ModelVariant.TWO_TOWER:
        d_hu = d_raw[..., None] * trace.hi
        d_hi = d_raw[..., None] * trace.hu
        dxu = mlp_backward(params.user_tower, trace.user_caches, d_hu, g_first, first, want_u)
        dxi = mlp_backward(params.item_tower, trace.item_caches, d_hi, g_second, second, want_i)
        return dxu, dxi
    dx = mlp_backward(
        params.joint, trace.joint_caches, d_raw[..., None], g_first, first, want_u or want_i
    )
    du = trace.user_x.shape[-1]
    return (dx[..., :du] if want_u else None), (dx[..., du:] if want_i else None)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def loss_and_pred_grad(
    predictions: np.ndarray, labels: np.ndarray, kind: LossKind
) -> tuple[float, np.ndarray]:
    """Loss value plus its gradient w.r.t. each prediction.

    The BCE gradient is zero where the clamp is active (the clamp is flat
    there), so analytic and finite-difference gradients agree everywhere.
    A (T, n) stack of predictions gives one loss per task, as an array.
    """
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise EmptyBatchError("loss on an empty batch")
    if p.shape != y.shape:
        raise ShapeError(f"predictions {p.shape} vs labels {y.shape}")
    n = p.shape[-1]
    if kind is LossKind.SQUARED:
        r = p - y
        return _per_task((r * r).sum(axis=-1) / n), (2.0 / n) * r
    pc = np.clip(p, BCE_CLAMP, 1.0 - BCE_CLAMP)
    loss = -((y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum(axis=-1) / n)
    grad = (pc - y) / (pc * (1.0 - pc)) / n
    grad = np.where((p > BCE_CLAMP) & (p < 1.0 - BCE_CLAMP), grad, 0.0)
    return _per_task(loss), grad


def _per_task(loss: Any) -> Any:  # a float for one task, an array for a stack
    return loss if isinstance(loss, np.ndarray) else float(loss)


def loss_backward(
    params: ModelParameters, user_x: np.ndarray, item_x: np.ndarray,
    labels: np.ndarray, loss_kind: LossKind, sigmoid_output: bool,
    pred_penalty: tuple[float, float] | None, grads: Sequence,
    leaves: Sequence | None = None, input_grads: tuple[bool, bool] = (True, True),
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """Forward a batch, take its loss and backpropagate it.

    ``sigmoid_output`` squashes raw scores before the loss; ``pred_penalty``
    (a, c) adds ``a * mean(pred) + c`` to the objective (the fairness
    regularizers). ``grads`` are the leaves of a zeroed gradient laid out
    like ``params``. Returns (objective, d_user_x, d_item_x), one objective
    per task of a stack; ``input_grads`` is model_backward's.
    """
    raw, trace = model_forward_trace(params, user_x, item_x, leaves)
    pred = sigmoid(raw) if sigmoid_output else raw
    loss, d_pred = loss_and_pred_grad(pred, labels, loss_kind)
    if pred_penalty is not None:
        a, c = pred_penalty
        n = pred.shape[-1]
        loss = _per_task(loss + (a * (pred.sum(axis=-1) / n) + c))
        d_pred = d_pred + a / n
    d_raw = d_pred * pred * (1.0 - pred) if sigmoid_output else d_pred
    d_user_x, d_item_x = model_backward(params, trace, d_raw, grads, leaves, input_grads)
    return loss, d_user_x, d_item_x


def loss_gradient(
    params: ModelParameters,
    batch: tuple[Any, Any, Any],
    loss_kind: LossKind,
    sigmoid_output: bool = False,
) -> tuple[float, ModelParameters]:
    """Batch loss and its gradient w.r.t. every scoring parameter.

    ``batch`` holds stacked arrays (U, V, y) of user features, item features
    and labels. Returns (loss, gradients laid out like ``params``).
    """
    u, v, y = (np.asarray(a, dtype=np.float64) for a in batch)
    if u.shape[0] == 0:
        raise EmptyBatchError("gradient on an empty batch")
    grads = params.layout.zeros()
    g = tree_leaves(grads)
    loss, _, _ = loss_backward(
        params, u, v, y, loss_kind, sigmoid_output, None, g, input_grads=(False, False)
    )
    if not np.isfinite(loss):
        raise NumericError(f"non-finite loss from {loss_kind.value}")
    tree_check_finite(grads, "loss_gradient")
    return loss, grads


# ---------------------------------------------------------------------------
# optimiser steps
# ---------------------------------------------------------------------------


def _vector_like(tree: ParamTree, other: ParamTree) -> np.ndarray:
    """``other``'s vector; a tree of another shape than ``tree`` is an error."""
    if other.layout is not tree.layout and other.layout.shapes != tree.layout.shapes:
        raise ShapeError(
            f"parameter trees differ in shape: {tree.layout.shapes} vs "
            f"{other.layout.shapes}"
        )
    return other.vector


def sgd_update(layout: Layout, vector: np.ndarray, grad: np.ndarray, stepsize: float):
    """``vector - stepsize * grad`` for (..., P) vectors, checked finite (at
    stepsize 0, ``vector`` itself)."""
    if not math.isfinite(stepsize) or stepsize < 0:
        raise NumericError(f"invalid stepsize {stepsize}")
    if stepsize == 0.0:
        return vector
    new = vector - stepsize * grad
    layout.check_finite(new, "sgd_step")
    return new


def sgd_step(params: ParamTree, grads: ParamTree, stepsize: float) -> Any:
    """One plain gradient step ``p - stepsize * g`` over the parameter vector."""
    g = _vector_like(params, grads)
    return params.at(sgd_update(params.layout, params.vector, g, stepsize))


@dataclass(frozen=True)
class AdamState:
    """Adam accumulator: step count plus the two moment vectors.

    The moments are laid out like the parameters' vector.
    """

    step_count: int
    first_moment: np.ndarray
    second_moment: np.ndarray


def adam_init(params: ParamTree) -> AdamState:
    return AdamState(0, np.zeros(params.layout.size), np.zeros(params.layout.size))


def adam_update(
    layout: Layout, state: AdamState, vector: np.ndarray, grad: np.ndarray, stepsize: float
) -> tuple[np.ndarray, AdamState]:
    """One Adam step (beta1=0.9, beta2=0.999, eps=1e-8, bias-corrected) on a vector.

    Returns the updated vector and the advanced state. The first step moves
    each coordinate by roughly ``stepsize`` against the gradient sign.
    """
    if not math.isfinite(stepsize) or stepsize < 0:
        raise NumericError(f"invalid stepsize {stepsize}")
    t = state.step_count + 1
    m = ADAM_BETA1 * state.first_moment + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.second_moment + (1.0 - ADAM_BETA2) * grad * grad
    layout.check_finite(m, "adam_step")
    layout.check_finite(v, "adam_step")
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    new = vector - stepsize * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    layout.check_finite(new, "adam_step")
    return new, AdamState(t, m, v)


# ---------------------------------------------------------------------------
# tree utilities
# ---------------------------------------------------------------------------


def tree_leaves(tree: ParamTree) -> list[np.ndarray]:
    """Every leaf, in vector order, as a view of the tree's vector."""
    return tree.layout.leaves(tree.vector)


def tree_map(fn: Callable[..., np.ndarray], tree: ParamTree, *rest: ParamTree) -> Any:
    """A tree of ``tree``'s shape with leaf i = ``fn(leaf i, *(leaf i of rest))``.

    ``fn`` is called once per leaf, in leaf order; non-array fields carry
    over from ``tree``. Each result must keep its leaf's shape, and the new
    vector must be finite.
    """
    for other in rest:
        _vector_like(tree, other)
    layout = tree.layout
    vector = np.empty(layout.size)
    columns = zip(*(tree_leaves(t) for t in (tree, *rest)))
    for i, leaves in enumerate(columns):
        out = np.asarray(fn(*leaves), dtype=np.float64)
        if out.shape != layout.shapes[i]:
            raise ShapeError(
                f"tree_map turned {layout.paths[i]} of shape {layout.shapes[i]} "
                f"into shape {out.shape}"
            )
        vector[layout.offsets[i] : layout.offsets[i + 1]] = out.ravel()
    layout.check_finite(vector, "tree_map")
    return layout.build(vector)


def tree_check_finite(tree: ParamTree, op_name: str) -> None:
    """Raise NumericError naming ``op_name`` and the first leaf with NaN/Inf."""
    tree.layout.check_finite(tree.vector, op_name)


def tree_allclose(
    a: ParamTree, b: ParamTree, rtol: float = 0.0, atol: float = 0.0
) -> bool:
    """Elementwise comparison of two same-shaped trees (exact by default)."""
    la, lb = tree_leaves(a), tree_leaves(b)
    if len(la) != len(lb):
        return False
    return all(
        x.shape == y.shape and np.allclose(x, y, rtol=rtol, atol=atol)
        for x, y in zip(la, lb)
    )
