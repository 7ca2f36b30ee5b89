"""The vector kernels against the tree-walking oracles, and the trees they spare.

Training reads parameters as leaf views of one (P,) vector or a (T, P)
stack and builds a ParamTree only for a model it hands back. These checks
draw small models (both scorer variants, pretrained and categorical
encoders, sigmoid output on and off, with and without a fairness penalty)
and require the losses and gradient bytes of ``loss_and_grad_at``, the
public ``model_loss_and_grad`` and the public forward and backward passes to
equal those of the oracles in ``oracles.py``, which walk tree attributes,
both on a tree and on another tree's structure reading the first one's
leaves. They also count the RecModel trees the meta steps and
``local_adapt`` build, and check that every gradient of a meta step,
``local_adapt`` and a pooled epoch runs one ``numcore.model_forward_trace``
and one ``numcore.model_backward``, the names the bench trace times; that
the table scatter matches ``np.add.at``; and that a side whose input
gradient is not asked for gets None and leaves every parameter byte as is.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metashop import metaopt, numcore
from metashop.metaopt import (
    fmst_train_step,
    local_adapt,
    meta_train_step,
    nonmeta_train,
)
from metashop.models import (
    Batch,
    EncoderMode,
    FeatureEncoder,
    FieldSpec,
    ModelKind,
    _encoder_grad,
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
    loss_backward,
    mlp_backward,
    mlp_forward_trace,
    model_backward,
    model_forward_trace,
    tree_leaves,
)

from oracles import (
    _encoder_grad_tree,
    encode_rows_tree,
    mlp_backward_tree,
    mlp_forward_trace_tree,
    model_backward_tree,
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
    # each kernel on ``tree``, and on ``model``'s structure reading ``tree``'s
    # leaves, as the hot path calls it
    u = encode_rows(tree.user_encoder, batch.user_rows)
    v = encode_rows(tree.item_encoder, batch.item_rows)
    assert u.tobytes() == encode_rows_tree(tree.user_encoder, batch.user_rows).tobytes()
    assert v.tobytes() == encode_rows_tree(tree.item_encoder, batch.item_rows).tobytes()
    u_at = encode_rows(model.user_encoder, batch.user_rows, tree_leaves(tree.user_encoder))
    v_at = encode_rows(model.item_encoder, batch.item_rows, tree_leaves(tree.item_encoder))
    assert (u_at.tobytes(), v_at.tobytes()) == (u.tobytes(), v.tobytes())
    scorer = tree_leaves(tree.scorer)
    raw, trace = model_forward_trace(tree.scorer, u, v)
    raw_at, trace_at = model_forward_trace(model.scorer, u, v, scorer)
    want_raw, want_trace = model_forward_trace_tree(tree.scorer, u, v)
    assert raw.tobytes() == raw_at.tobytes() == want_raw.tobytes()
    d_raw = np.linspace(-1.0, 1.0, raw.size).reshape(raw.shape)
    got, got_at, want = (zeroed(tree.scorer) for _ in "abc")
    d_x = model_backward(tree.scorer, trace, d_raw, tree_leaves(got))
    d_x_at = model_backward(model.scorer, trace_at, d_raw, tree_leaves(got_at), scorer)
    want_d_x = model_backward_tree(tree.scorer, want_trace, d_raw, want)
    assert same_arrays(d_x, want_d_x) and same_arrays(d_x_at, want_d_x)
    assert got.vector.tobytes() == got_at.vector.tobytes() == want.vector.tobytes()
    mlp = tree.scorer.user_tower or tree.scorer.joint
    structure = model.scorer.user_tower or model.scorer.joint
    x = trace.user_x if tree.scorer.user_tower else np.concatenate([u, v], axis=-1)
    check_mlp_kernels(mlp, structure, x, np.ones(x.shape[:-1] + (mlp.out_dim,)))


@pytest.mark.parametrize("kind", [ModelKind.MESH, ModelKind.MESH_I])
@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("input_grads", [(False, False), (True, False), (False, True)])
@SETTINGS
@given(data=st.data())
def test_an_input_gradient_not_asked_for_is_none(kind, stacked, input_grads, data):
    """Skipping a side's feature gradient leaves every parameter byte as is."""
    problem = problems(kind, False, False, None).filter(lambda p: (p[1].ndim == 2) == stacked)
    model, vector, batch, loss_kind, _ = data.draw(problem)
    tree = model.layout.build(vector)
    u = encode_rows(tree.user_encoder, batch.user_rows)
    v = encode_rows(tree.item_encoder, batch.item_rows)
    full, part = zeroed(tree.scorer), zeroed(tree.scorer)
    args = (tree.scorer, u, v, batch.labels, loss_kind, False, None)
    want = loss_backward(*args, tree_leaves(full))
    got = loss_backward(*args, tree_leaves(part), input_grads=input_grads)
    assert same_loss(got[0], want[0])
    for asked, d_x, want_d_x in zip(input_grads, got[1:], want[1:]):
        assert same_arrays([d_x], [want_d_x]) if asked else d_x is None
    assert part.vector.tobytes() == full.vector.tobytes()


GRADIENT_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_the_table_scatter_equals_add_at_byte_for_byte(data):
    """models._encoder_grad against the ``np.add.at`` oracle, on (n,) and
    (T, n) index arrays of 1-3 fields with repeated rows and signed zeros,
    NaNs and infinities in the feature gradient.

    Every entry but a NaN matches byte for byte. A NaN matches as a NaN:
    where NaNs of both signs meet, ``np.add.at`` keeps one sign or the other
    depending on the strides of its input, and a NaN gradient never leaves
    the finiteness check.
    """
    vocab = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    widths = data.draw(st.lists(st.integers(1, 3), min_size=len(vocab), max_size=len(vocab)))
    fields = tuple(FieldSpec(f"f{j}", tuple(map(str, range(v)))) for j, v in enumerate(vocab))
    tables = {f.name: np.zeros((f.vocab_size, w)) for f, w in zip(fields, widths)}
    encoder = FeatureEncoder(EncoderMode.CATEGORICAL, sum(widths), fields, tables)
    lead = data.draw(st.sampled_from([(), (1,), (3,)])) + (data.draw(st.integers(1, 6)),)
    idx = np.stack(
        [data.draw(arrays(np.int64, lead, elements=st.integers(0, v - 1))) for v in vocab],
        axis=-1,
    )
    d_feats = data.draw(arrays(np.float64, lead + (sum(widths),), elements=GRADIENT_ENTRIES))
    got, want = (encoder.layout.build(np.zeros(lead[:-1] + (encoder.layout.size,)))
                 for _ in "ab")
    with np.errstate(over="ignore", invalid="ignore"):  # drawn on purpose
        _encoder_grad(idx, d_feats, got.vector, encoder.layout, range(len(vocab)))
        _encoder_grad_tree(encoder, idx, d_feats, want)
    nan = np.isnan(want.vector)
    assert np.array_equal(np.isnan(got.vector), nan)
    assert got.vector[~nan].tobytes() == want.vector[~nan].tobytes()


@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("hidden", list(Activation))
@pytest.mark.parametrize("lead", [(), (3,)])
def test_mlp_kernels_equal_the_tree_oracles(bias, hidden, lead):
    rng = np.random.default_rng(len(lead))
    mlp = init_mlp([3, 4, 5, 2], 1, hidden, Activation.SIGMOID, bias)
    stack = mlp.layout.build(mlp.vector + rng.normal(size=lead + mlp.vector.shape))
    x = rng.normal(size=lead + (6, 3))
    check_mlp_kernels(stack, mlp, x, rng.normal(size=lead + (6, 2)))


def zeroed(tree):
    """A zeroed gradient tree laid out like ``tree``, a stack for a stack."""
    return tree.layout.build(np.zeros(tree.vector.shape))


def same_arrays(a, b) -> bool:
    return [(x.shape, x.tobytes()) for x in a] == [(y.shape, y.tobytes()) for y in b]


def check_mlp_kernels(mlp, structure, x, d_out) -> None:
    """The MLP forward and backward on ``mlp``, and on ``structure`` reading
    ``mlp``'s leaves, both equal to the tree oracles bit for bit."""
    leaves = tree_leaves(mlp)
    out, caches = mlp_forward_trace(mlp, x)
    out_at, caches_at = mlp_forward_trace(structure, x, leaves)
    want_out, want_caches = mlp_forward_trace_tree(mlp, x)
    assert out.tobytes() == out_at.tobytes() == want_out.tobytes()
    got, got_at, want = (zeroed(mlp) for _ in "abc")
    d_x = mlp_backward(mlp, caches, d_out, tree_leaves(got))
    d_x_at = mlp_backward(structure, caches_at, d_out, tree_leaves(got_at), leaves)
    want_d_x = mlp_backward_tree(mlp, want_caches, d_out, want)
    assert d_x.tobytes() == d_x_at.tobytes() == want_d_x.tobytes()
    assert got.vector.tobytes() == got_at.vector.tobytes() == want.vector.tobytes()


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


@contextmanager
def counting(*sites):
    """Count the calls made through each (module, function name) in ``sites``."""
    calls = Counter()
    saved = [(module, name, getattr(module, name)) for module, name in sites]
    for module, name, fn in saved:

        def wrapper(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        setattr(module, name, wrapper)
    try:
        yield calls
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


# the names bench/tracing.py wraps, and the gradient call of every trainer
TRACED = [
    (metaopt, "loss_and_grad_at"),
    (numcore, "model_forward_trace"),
    (numcore, "model_backward"),
]


@pytest.mark.parametrize("run", ["meta_step", "local_adapt", "nonmeta_epoch"])
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data(), local_steps=st.integers(0, 2))
def test_each_gradient_runs_the_traced_forward_and_backward(run, data, local_steps):
    world = data.draw(worlds(3, local_steps))
    model, tasks, features, cfg = world.model, world.tasks, world.features, world.cfg
    records = [r for t in tasks for r in (*t.support, *t.query)]
    with counting(*TRACED) as calls:
        if run == "meta_step":
            meta_train_step(model, tasks, features, cfg)
        elif run == "local_adapt":
            local_adapt(model, tasks[0].support, features, cfg)
        else:
            nonmeta_train(model, records, features, cfg, 1, 2)
    gradients = calls["loss_and_grad_at"]
    assert gradients > 0 or (run == "local_adapt" and local_steps == 0)
    assert calls["model_forward_trace"] == calls["model_backward"] == gradients
