"""Property checks of the one-vector parameter layout of every model.

Each model keeps all of its trainable arrays in one float64 vector; the
containers hold views of it. These checks draw random RecModels (both scorer
variants, pretrained and categorical encoders) and random BaselineModels.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop.checkpoint import load_checkpoint, save_checkpoint
from metashop.models import (
    BaselineModel,
    Batch,
    FeatureEncoder,
    ModelKind,
    RecModel,
    baseline_loss_and_grad,
    build_baseline,
    build_categorical_encoder,
    build_model,
    feature_rows,
    model_loss_and_grad,
    pretrained_encoder,
)
from metashop.numcore import (
    LossKind,
    MlpParams,
    adam_init,
    adam_step,
    sgd_step,
    tree_leaves,
    tree_map,
)

from oracles import adam_step_per_leaf, sgd_step_per_leaf, tree_add_per_leaf

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
REC_KINDS = (ModelKind.MESH, ModelKind.MESH_I, ModelKind.WIDE_DEEP)


@dataclass(frozen=True)
class DictFeatures:
    users: dict
    items: dict

    def user_raw(self, user_id):
        return self.users[user_id]

    def item_raw(self, item_id):
        return self.items[item_id]


@st.composite
def encoders(draw, side: str, min_dim: int = 1):
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return pretrained_encoder(draw(st.integers(min_dim, 4)))
    n_fields = draw(st.integers(1, 2))
    fields = [
        (f"{side}{j}", [f"c{k}" for k in range(draw(st.integers(1, 4)))])
        for j in range(n_fields)
    ]
    return build_categorical_encoder(fields, draw(st.integers(1, 3)), seed)


@st.composite
def rec_models(draw):
    kind = draw(st.sampled_from(REC_KINDS))
    towers = kind is ModelKind.MESH
    user = draw(encoders("u"))
    item = draw(encoders("i", min_dim=1 if towers else 0))
    hidden = draw(st.lists(st.integers(1, 4), min_size=int(towers), max_size=2))
    seed = draw(st.integers(0, 2**16))
    sigmoid = draw(st.booleans())
    return build_model(kind, user, item, hidden, seed, sigmoid_output=sigmoid)


@st.composite
def baseline_models(draw):
    item = draw(encoders("i"))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    return build_baseline(
        item,
        hidden,
        draw(st.integers(0, 2**16)),
        margin=draw(st.floats(0.1, 2.0)),
        negative_weight=draw(st.floats(0.0, 2.0)),
    )


def raw_feature(encoder: FeatureEncoder, rng: np.random.Generator):
    """A raw pretrained vector, or one category index per field."""
    if encoder.fields:
        return tuple(int(rng.integers(f.vocab_size)) for f in encoder.fields)
    return rng.normal(size=encoder.dim)


def attribute_leaves(tree) -> list[np.ndarray]:
    """Every parameter array reached through the containers' attributes."""
    if isinstance(tree, RecModel):
        parts = [tree.user_encoder, tree.item_encoder, tree.scorer]
        return [a for p in parts for a in attribute_leaves(p)]
    if isinstance(tree, BaselineModel):
        parts = [tree.item_encoder, tree.item_mapper]
        return [a for p in parts for a in attribute_leaves(p)]
    if isinstance(tree, FeatureEncoder):
        return [tree.tables[f.name] for f in tree.fields]
    if isinstance(tree, MlpParams):
        out = []
        for layer in tree.layers:
            out.append(layer.weights)
            if layer.biases is not None:
                out.append(layer.biases)
        return out
    towers = (tree.user_tower, tree.item_tower, tree.joint)
    return [a for t in towers if t is not None for a in attribute_leaves(t)]


def address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def assert_views_of_one_vector(tree) -> None:
    vector = tree.vector
    assert vector.dtype == np.float64 and vector.ndim == 1
    assert vector.flags.c_contiguous
    leaves = attribute_leaves(tree)
    layout = tree.layout
    assert [a.shape for a in leaves] == list(layout.shapes)
    assert layout.offsets[-1] == vector.size
    for leaf, start, view in zip(leaves, layout.offsets, tree_leaves(tree)):
        assert leaf.dtype == np.float64 and leaf.flags.c_contiguous
        assert address(leaf) == address(vector) + 8 * start
        assert address(view) == address(leaf) and view.shape == leaf.shape


def random_grads(tree, seed: int):
    rng = np.random.default_rng(seed)
    return tree_map(lambda a: rng.normal(size=a.shape), tree)


def rec_batch(model: RecModel, seed: int) -> Batch:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    labels = rng.uniform(0.0, 1.0, size=n)
    users = [raw_feature(model.user_encoder, rng) for _ in range(n)]
    items = [raw_feature(model.item_encoder, rng) for _ in range(n)]
    return Batch(
        labels,
        feature_rows(model.user_encoder, users, "user"),
        feature_rows(model.item_encoder, items, "item"),
    )


def baseline_problem(model: BaselineModel, seed: int):
    rng = np.random.default_rng(seed)
    items = {f"i{j}": raw_feature(model.item_encoder, rng) for j in range(4)}
    hist = {"u0": ("i0", "i1"), "u1": ("i2",)}
    return [("u0", "i2"), ("u1", "i3")], [("u0", "i3")], hist, DictFeatures({}, items)


class TestLayout:
    @SETTINGS
    @given(rec_models(), st.integers(0, 2**16))
    def test_rec_model_leaves_are_views_of_one_vector(self, model, seed):
        assert_views_of_one_vector(model)
        _, grads = model_loss_and_grad(model, rec_batch(model, seed), LossKind.SQUARED)
        stepped = sgd_step(model, grads, 0.01)
        for tree in (grads, stepped, tree_map(np.add, grads, grads)):
            assert tree.layout is model.layout
            assert_views_of_one_vector(tree)
        for sub in (model.user_encoder, model.item_encoder, model.scorer):
            assert_views_of_one_vector(sub)
            assert np.shares_memory(sub.vector, model.vector) or sub.vector.size == 0

    @SETTINGS
    @given(baseline_models(), st.integers(0, 2**16))
    def test_baseline_leaves_are_views_of_one_vector(self, model, seed):
        assert_views_of_one_vector(model)
        _, grads = baseline_loss_and_grad(model, *baseline_problem(model, seed))
        assert grads.layout is model.layout
        assert_views_of_one_vector(grads)
        assert_views_of_one_vector(sgd_step(model, grads, 0.01))


class TestInPlaceWrites:
    """central_fd_grad perturbs leaves in place and re-evaluates the loss."""

    @SETTINGS
    @given(rec_models(), st.integers(0, 2**16), st.data())
    def test_rec_loss_sees_a_leaf_written_in_place(self, model, seed, data):
        batch = rec_batch(model, seed)
        work = tree_map(lambda a: a.copy(), model)
        leaf = tree_leaves(work)[data.draw(st.integers(0, len(work.layout.paths) - 1))]
        if leaf.size:
            leaf.flat[data.draw(st.integers(0, leaf.size - 1))] += 0.5
        fresh = tree_map(lambda a: a.copy(), work)  # packed anew from the leaves
        loss = model_loss_and_grad(work, batch, LossKind.SQUARED)[0]
        assert loss == model_loss_and_grad(fresh, batch, LossKind.SQUARED)[0]
        assert work.vector.tobytes() == fresh.vector.tobytes()

    @SETTINGS
    @given(baseline_models(), st.integers(0, 2**16), st.data())
    def test_baseline_loss_sees_a_leaf_written_in_place(self, model, seed, data):
        problem = baseline_problem(model, seed)
        work = tree_map(lambda a: a.copy(), model)
        leaf = tree_leaves(work)[data.draw(st.integers(0, len(work.layout.paths) - 1))]
        if leaf.size:
            leaf.flat[data.draw(st.integers(0, leaf.size - 1))] += 0.5
        fresh = tree_map(lambda a: a.copy(), work)
        assert baseline_loss_and_grad(work, *problem)[0] == (
            baseline_loss_and_grad(fresh, *problem)[0]
        )


class TestUpdatesMatchPerLeafArithmetic:
    @SETTINGS
    @given(st.one_of(rec_models(), baseline_models()), st.integers(0, 2**16))
    def test_sgd_and_tree_add(self, model, seed):
        grads = random_grads(model, seed)
        other = random_grads(model, seed + 1)
        stepsize = float(np.random.default_rng(seed).uniform(0.0, 0.5))
        pairs = [
            (
                sgd_step(model, grads, stepsize),
                sgd_step_per_leaf(model, grads, stepsize),
            ),
            (tree_map(np.add, grads, other), tree_add_per_leaf(grads, other)),
        ]
        for tree, want in pairs:
            got = tree_leaves(tree)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    @SETTINGS
    @given(st.one_of(rec_models(), baseline_models()), st.integers(0, 2**16))
    def test_adam(self, model, seed):
        state = adam_init(model)
        params = model
        first = [np.zeros(s) for s in model.layout.shapes]
        second = [np.zeros(s) for s in model.layout.shapes]
        for t in range(3):
            grads = random_grads(model, seed + t)
            want, first, second = adam_step_per_leaf(
                first, second, t, params, grads, 0.05
            )
            params, state = adam_step(state, params, grads, 0.05)
            assert state.step_count == t + 1
            got = tree_leaves(params)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
            moments = np.concatenate([m.ravel() for m in first])
            assert state.first_moment.tobytes() == moments.tobytes()


class TestCheckpointBytes:
    @SETTINGS
    @given(st.one_of(rec_models(), baseline_models()), st.integers(0, 2**16))
    def test_save_load_save_is_byte_identical(self, model, seed):
        # a trained-looking model: leaves built by an update, not a constructor
        model = sgd_step(model, random_grads(model, seed), 0.1)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_checkpoint(first, model, {"seed": str(seed)})
            loaded, meta = load_checkpoint(first)
            save_checkpoint(second, loaded, meta)
            assert first.read_bytes() == second.read_bytes()
            doc = json.loads(first.read_text(encoding="utf-8"))
            assert doc["meta"] == {"seed": str(seed)}
        assert type(loaded) is type(model)
        assert loaded.vector.tobytes() == model.vector.tobytes()
        assert_views_of_one_vector(loaded)
