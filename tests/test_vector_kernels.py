"""The vector kernels against the tree-walking oracles, and the trees they spare.

Training reads parameters as leaf views of one (P,) vector or a (T, P)
stack and builds a ParamTree only for a model it hands back. These checks
draw small models (both scorer variants, pretrained and categorical
encoders, sigmoid output on and off, with and without a fairness penalty)
and require the losses and gradient bytes of ``loss_and_grad_at``, the
public ``model_loss_and_grad`` and the public forward and backward passes to
equal those of the oracles in ``oracles.py``, which walk tree attributes.
They also count the RecModel trees the meta steps and ``local_adapt`` build.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop.metaopt import fmst_train_step, local_adapt, meta_train_step
from metashop.models import (
    Batch,
    ModelKind,
    build_model,
    encode_rows,
    feature_rows,
    loss_and_grad_at,
    model_loss_and_grad,
)
from metashop.numcore import (
    Activation,
    LossKind,
    init_mlp,
    mlp_backward,
    mlp_forward_trace,
    model_forward_trace,
)

from oracles import (
    encode_rows_tree,
    mlp_backward_tree,
    mlp_forward_trace_tree,
    model_forward_trace_tree,
    model_loss_and_grad_tree,
)
from test_stacked_adapt import encoders, raw_features, worlds

SETTINGS = settings(derandomize=True, max_examples=12, deadline=None)
# every pairing of scorer variant, encoder mode, sigmoid output and penalty
CASES = pytest.mark.parametrize(
    "kind, categorical, sigmoid, penalty",
    [
        (kind, categorical, sigmoid, penalty)
        for kind in (ModelKind.MESH, ModelKind.MESH_I)
        for categorical in (False, True)
        for sigmoid in (False, True)
        for penalty in (None, (-0.5, 0.5))
    ],
)


@st.composite
def problems(draw, kind, categorical, sigmoid, penalty):
    """A model, a (P,) vector or (T, P) stack near its own, and a batch to match.

    ``categorical`` makes the user encoder categorical (the item encoder is
    drawn); the loss is drawn.
    """
    towers = kind is ModelKind.MESH
    user = draw(encoders("u", 1).filter(lambda e: bool(e.fields) == categorical))
    item = draw(encoders("i", 1 if towers else 0))
    hidden = draw(st.lists(st.integers(1, 3), min_size=int(towers), max_size=2))
    loss = draw(st.sampled_from(list(LossKind)))
    model = build_model(kind, user, item, hidden, draw(st.integers(0, 99)), sigmoid)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    tasks = draw(st.sampled_from([None, 1, 2, 4]))
    lead = () if tasks is None else (tasks,)
    n = draw(st.integers(1, 5))
    vector = model.vector + 0.1 * rng.normal(size=lead + model.vector.shape)

    def rows(encoder, count):
        return feature_rows(encoder, raw_features(encoder, count, rng), "rows")

    batches = [
        Batch(rng.integers(2, size=n).astype(float), rows(user, n), rows(item, n))
        for _ in range(tasks or 1)
    ]
    if tasks is None:
        batch = batches[0]
    else:
        batch = Batch(*(
            np.array([getattr(b, part) for b in batches])
            for part in ("labels", "user_rows", "item_rows")
        ))
    return model, vector, batch, loss, penalty


def same_loss(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return a.shape == b.shape and a.tobytes() == b.tobytes()
    return repr(a) == repr(b)


@CASES
@SETTINGS
@given(data=st.data())
def test_loss_and_grad_at_equals_the_tree_oracle(
    kind, categorical, sigmoid, penalty, data
):
    problem = data.draw(problems(kind, categorical, sigmoid, penalty))
    model, vector, batch, loss_kind, penalty = problem
    loss, grad = loss_and_grad_at(model, vector, batch, loss_kind, penalty)
    want_loss, want = model_loss_and_grad_tree(
        model.layout.build(vector), batch, loss_kind, penalty
    )
    assert same_loss(loss, want_loss)
    assert grad.shape == want.vector.shape
    assert grad.tobytes() == want.vector.tobytes()


@CASES
@SETTINGS
@given(data=st.data())
def test_public_tree_functions_equal_the_tree_oracles(
    kind, categorical, sigmoid, penalty, data
):
    problem = data.draw(problems(kind, categorical, sigmoid, penalty))
    model, vector, batch, loss_kind, penalty = problem
    tree = model.layout.build(vector)
    if vector.ndim == 1:
        loss, grads = model_loss_and_grad(tree, batch, loss_kind, penalty)
        want_loss, want = model_loss_and_grad_tree(tree, batch, loss_kind, penalty)
        assert same_loss(loss, want_loss)
        assert grads.layout is model.layout
        assert grads.vector.tobytes() == want.vector.tobytes()
    u = encode_rows(tree.user_encoder, batch.user_rows)
    v = encode_rows(tree.item_encoder, batch.item_rows)
    assert u.tobytes() == encode_rows_tree(tree.user_encoder, batch.user_rows).tobytes()
    assert v.tobytes() == encode_rows_tree(tree.item_encoder, batch.item_rows).tobytes()
    raw, trace = model_forward_trace(tree.scorer, u, v)
    want_raw, _ = model_forward_trace_tree(tree.scorer, u, v)
    assert raw.tobytes() == want_raw.tobytes()
    mlp = tree.scorer.user_tower or tree.scorer.joint
    x = trace.user_x if tree.scorer.user_tower else np.concatenate([u, v], axis=-1)
    out, caches = mlp_forward_trace(mlp, x)
    want_out, want_caches = mlp_forward_trace_tree(mlp, x)
    assert out.tobytes() == want_out.tobytes()
    d_out = np.ones_like(out)
    got_grads, want_grads = (mlp.layout.build(np.zeros(mlp.vector.shape)) for _ in "ab")
    d_x = mlp_backward(mlp, caches, d_out, got_grads)
    want_d_x = mlp_backward_tree(mlp, want_caches, d_out, want_grads)
    assert d_x.tobytes() == want_d_x.tobytes()
    assert got_grads.vector.tobytes() == want_grads.vector.tobytes()


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("hidden", list(Activation))
@pytest.mark.parametrize("lead", [(), (3,)])
def test_mlp_kernels_equal_the_tree_oracles(bias, hidden, lead):
    rng = np.random.default_rng(len(lead))
    mlp = init_mlp([3, 4, 5, 2], 1, hidden, Activation.SIGMOID, bias)
    stack = mlp.layout.build(mlp.vector + rng.normal(size=lead + mlp.vector.shape))
    x = rng.normal(size=lead + (6, 3))
    out, caches = mlp_forward_trace(stack, x)
    want_out, want_caches = mlp_forward_trace_tree(stack, x)
    assert out.tobytes() == want_out.tobytes()
    d_out = rng.normal(size=out.shape)
    got, want = (mlp.layout.build(np.zeros(stack.vector.shape)) for _ in "ab")
    d_x = mlp_backward(stack, caches, d_out, got)
    assert d_x.tobytes() == mlp_backward_tree(stack, want_caches, d_out, want).tobytes()
    assert got.vector.tobytes() == want.vector.tobytes()


def count_builds(model) -> list:
    """Wrap ``model.layout.build`` so each RecModel tree built is recorded."""
    built = []
    build = model.layout.build

    def counting(vector):
        built.append(vector.shape)
        return build(vector)

    object.__setattr__(model.layout, "build", counting)
    return built


@pytest.mark.parametrize("step", [meta_train_step, fmst_train_step])
@pytest.mark.parametrize("n_tasks", [1, 3, 8])
@pytest.mark.parametrize("local_steps", [0, 1, 3])
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data())
def test_a_meta_step_builds_at_most_two_trees(step, n_tasks, local_steps, data):
    world = data.draw(worlds(n_tasks, local_steps))
    built = count_builds(world.model)
    step(world.model, world.tasks, world.features, world.cfg)
    assert len(built) <= 2, built


@settings(derandomize=True, max_examples=10, deadline=None)
@given(data=st.data(), local_steps=st.integers(0, 3))
def test_local_adapt_builds_one_tree(data, local_steps):
    world = data.draw(worlds(3, local_steps))
    built = count_builds(world.model)
    support = world.tasks[0].support
    adapted = local_adapt(world.model, support, world.features, world.cfg)
    if local_steps == 0:
        assert adapted is world.model and built == []
    else:
        assert built == [world.model.vector.shape]
        no_steps = replace(world.cfg, local_steps=0)
        assert local_adapt(world.model, support, world.features, no_steps) is world.model
        assert len(built) == 1
