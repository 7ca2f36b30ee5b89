"""Stacked adaptation against the one-task-at-a-time oracle, byte for byte.

The meta steps and meta_inference adapt the same-sized supports of a batch
of tasks as one stack of parameter vectors with a leading task axis. These
checks draw small worlds (both scorer kinds, pretrained and categorical
encoders with repeated ids, squared and BCE losses, fairness penalties over
mixed size classes, ragged supports, 0-3 inner steps, SGD and Adam outer
steps, 1-8 tasks) and require the models, losses and optimiser states to
equal the per-task oracle's bytes. A non-finite value in one task of a
stack must be reported exactly as the oracle reports it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop.datapipe import InteractionRecord, ShopTask, SizeClass
from metashop.errors import NumericError
from metashop.metaopt import (
    MetaConfig,
    OuterOptimizer,
    RegularizerKind,
    fmst_train_step,
    local_adapt,
    meta_inference,
    meta_train_step,
)
from metashop.models import (
    ModelKind,
    build_categorical_encoder,
    build_model,
    pretrained_encoder,
)
from metashop.numcore import LossKind

from oracles import meta_inference_per_task, meta_step_per_task

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None)
# the task count and inner steps are parametrized rather than drawn, so that
# every pairing is covered however the draws fall
TASKS_AND_STEPS = pytest.mark.parametrize(
    "n_tasks, local_steps", [(t, k) for t in (1, 3, 8) for k in range(4)]
)
N_USERS, N_ITEMS = 5, 4


@dataclass(frozen=True)
class DictFeatures:
    users: dict
    items: dict

    def user_raw(self, user_id):
        return self.users[user_id]

    def item_raw(self, item_id):
        return self.items[item_id]


@st.composite
def encoders(draw, side: str, min_dim: int):
    if draw(st.booleans()):
        return pretrained_encoder(draw(st.integers(min_dim, 3)))
    fields = [
        (f"{side}{j}", [f"c{k}" for k in range(draw(st.integers(1, 3)))])
        for j in range(draw(st.integers(1, 2)))
    ]
    dim, seed = draw(st.integers(1, 2)), draw(st.integers(0, 99))
    return build_categorical_encoder(fields, dim, seed)


def raw_features(encoder, n: int, rng: np.random.Generator) -> list:
    if encoder.fields:
        fields = encoder.fields
        return [tuple(int(rng.integers(f.vocab_size)) for f in fields) for _ in range(n)]
    return [rng.normal(size=encoder.dim) for _ in range(n)]


@dataclass(frozen=True)
class World:
    model: object
    features: DictFeatures
    tasks: list
    cfg: MetaConfig


@st.composite
def worlds(draw, n_tasks: int, local_steps: int):
    kind = draw(st.sampled_from([ModelKind.MESH, ModelKind.MESH_I]))
    towers = kind is ModelKind.MESH
    user = draw(encoders("u", 1))
    # a joint model may have an item side of width 0 (criterion 3's toy world)
    item = draw(encoders("i", 1 if towers else 0))
    hidden = draw(st.lists(st.integers(1, 3), min_size=int(towers), max_size=2))
    loss = draw(st.sampled_from(list(LossKind)))
    # BCE scores through the sigmoid, which keeps predictions inside the clamp
    sigmoid = loss is LossKind.BCE or draw(st.booleans())
    seed = draw(st.integers(0, 99))
    model = build_model(kind, user, item, hidden, seed, sigmoid_output=sigmoid)

    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    features = DictFeatures(
        dict(zip((f"u{j}" for j in range(N_USERS)), raw_features(user, N_USERS, rng))),
        dict(zip((f"i{j}" for j in range(N_ITEMS)), raw_features(item, N_ITEMS, rng))),
    )
    ragged = draw(st.booleans())
    support = draw(st.integers(1, 4))
    stamp = iter(range(10**6))

    def records(shop: str, n: int) -> list:
        return [
            InteractionRecord(
                f"u{rng.integers(N_USERS)}", f"i{rng.integers(N_ITEMS)}", shop,
                float(rng.integers(2)), timestamp=next(stamp),
            )
            for _ in range(n)
        ]

    tasks = []
    for t in range(n_tasks):
        shop = f"s{t}"
        n_support = int(rng.integers(1, 5)) if ragged else support
        size_class = draw(st.sampled_from([SizeClass.SMALL, SizeClass.LARGE]))
        query = records(shop, int(rng.integers(1, 5)))
        tasks.append(ShopTask(shop, records(shop, n_support), query, size_class))
    cfg = MetaConfig(
        alpha=draw(st.sampled_from([0.02, 0.1])),
        beta=0.05,
        local_steps=local_steps,
        gamma=draw(st.sampled_from([0.0, 0.5])),
        regularizer=draw(st.sampled_from(list(RegularizerKind))),
        shop_batch_size=draw(st.integers(1, 8)),
        loss_kind=loss,
        model_kind=kind,
        outer_optimizer=draw(st.sampled_from(list(OuterOptimizer))),
    )
    # drawn in shuffled order: the steps sort tasks by id themselves
    order = draw(st.permutations(range(n_tasks)))
    return World(model, features, [tasks[i] for i in order], cfg)


def same_bytes(a, b) -> bool:
    return a.vector.shape == b.vector.shape and a.vector.tobytes() == b.vector.tobytes()


def same_state(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return (
        a.step_count == b.step_count
        and a.first_moment.tobytes() == b.first_moment.tobytes()
        and a.second_moment.tobytes() == b.second_moment.tobytes()
    )


def outcome(fn, *args):
    """``fn(*args)``, or the NumericError it raised."""
    try:
        return fn(*args)
    except NumericError as exc:
        return exc


@TASKS_AND_STEPS
@SETTINGS
@given(data=st.data(), regularized=st.booleans())
def test_meta_steps_equal_the_per_task_oracle(n_tasks, local_steps, data, regularized):
    world = data.draw(worlds(n_tasks, local_steps))
    step = fmst_train_step if regularized else meta_train_step
    got = want = world.model
    got_state = want_state = None
    # two steps, so an Adam state carries over
    for _ in range(2):
        args = (world.tasks, world.features, world.cfg)
        stacked = outcome(step, got, *args, got_state)
        alone = outcome(meta_step_per_task, want, *args, want_state, regularized)
        if isinstance(alone, NumericError):  # a drawn world may diverge
            assert isinstance(stacked, NumericError)
            return
        got, got_state, got_loss = stacked
        want, want_state, want_loss = alone
        assert same_bytes(got, want)
        assert same_state(got_state, want_state)
        assert repr(got_loss) == repr(want_loss)


@TASKS_AND_STEPS
@SETTINGS
@given(data=st.data())
def test_meta_inference_equals_the_per_task_oracle(n_tasks, local_steps, data):
    world = data.draw(worlds(n_tasks, local_steps))
    got = meta_inference(world.model, world.tasks, world.features, world.cfg)
    want = meta_inference_per_task(world.model, world.tasks, world.features, world.cfg)
    assert list(got) == list(want)
    for shop, model in want.items():
        assert same_bytes(got[shop], model)
        if world.cfg.local_steps == 0:
            assert got[shop] is world.model


def blowup_world():
    """Three tasks of which only the second, ``s1``, has a huge item feature.

    The joint model's first layer sees 1e200 there: the layer's weight
    gradient overflows, while the user table's gradient stays finite, so the
    first bad leaf is not the first leaf of the layout.
    """
    rng = np.random.default_rng(7)
    user = build_categorical_encoder([("band", ["a", "b", "c"])], 2, 3)
    model = build_model(ModelKind.MESH_I, user, pretrained_encoder(2), [3], 5)
    items = {f"i{j}": rng.normal(size=2) for j in range(3)}
    items["huge"] = np.array([1e200, 1.0])
    features = DictFeatures({f"u{j}": (j % 3,) for j in range(4)}, items)

    def task(shop, support_item):
        support = [
            InteractionRecord(f"u{j}", support_item if j == 1 else "i0", shop, 1.0)
            for j in range(3)
        ]
        query = [InteractionRecord("u3", "i2", shop, 0.0)]
        return ShopTask(shop, support, query)

    tasks = [task("s0", "i1"), task("s1", "huge"), task("s2", "i2")]
    return model, features, tasks, MetaConfig(alpha=0.1, beta=0.1, local_steps=2)


def test_a_blowup_in_one_stacked_task_names_its_leaf_as_alone():
    model, features, tasks, cfg = blowup_world()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as alone:
            meta_step_per_task(model, tasks, features, cfg)
        with pytest.raises(NumericError) as stacked:
            meta_train_step(model, tasks, features, cfg)
    message = str(alone.value)
    assert str(stacked.value) == message
    leaf = re.fullmatch(r"non-finite values in (\w+) at (\S+)", message).group(2)
    assert leaf != model.layout.paths[0]
    # the stack of the other two tasks adapts cleanly
    meta_train_step(model, [tasks[0], tasks[2]], features, cfg)


def test_local_adapt_with_no_steps_returns_the_input_model():
    model, features, tasks, cfg = blowup_world()
    no_steps = replace(cfg, local_steps=0)
    assert local_adapt(model, tasks[0].support, features, no_steps) is model
