"""Tasks that ``build_tasks`` splits from a table, turned into batches by code.

``metaopt`` gathers such a task's batches through one ``models.TableRows``
per table and call. These checks hold those batches to ``prepare_batch`` on
the task's records byte for byte, hold the trainers to the record path's
errors in the same order, and count the feature lookups of a call.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metashop.metaopt as metaopt
from metashop.datapipe import (
    AttributeTable,
    FeatureTable,
    InteractionRecord,
    Interactions,
    ShopTask,
    TaskUnit,
    attach_size_classes,
    build_tasks,
    classify_shops,
)
from metashop.errors import DataError
from metashop.metaopt import MetaConfig, _resolve, meta_inference, meta_train, meta_train_step
from metashop.models import (
    ModelKind,
    build_categorical_encoder,
    build_model,
    prepare_batch,
    pretrained_encoder,
)
from metashop.numcore import tree_leaves

USERS = [f"u{k}" for k in range(6)]
ITEMS = [f"i{k}" for k in range(8)]
ENCODINGS = ("pretrained", "one_field", "two_fields")


def world_model(encoding: str, seed: int = 0):
    """A feature source and a model whose encoders read it."""
    rng = np.random.default_rng(seed)
    if encoding == "pretrained":
        features = FeatureTable({u: rng.normal(size=3) for u in USERS},
                                {i: rng.normal(size=2) for i in ITEMS})
        user_enc, item_enc = pretrained_encoder(3), pretrained_encoder(2)
    else:
        features = AttributeTable(
            {u: {"age": f"a{k % 3}"} for k, u in enumerate(USERS)},
            {i: {"id": i, "colour": ("red", "blue")[k % 2]} for k, i in enumerate(ITEMS)},
        )
        item_fields = [("id", ITEMS)]
        if encoding == "two_fields":
            item_fields.append(("colour", ["red", "blue"]))
        user_enc = build_categorical_encoder([("age", ["a0", "a1", "a2"])], 2, rng)
        item_enc = build_categorical_encoder(item_fields, 2, rng)
    return features, build_model(ModelKind.MESH, user_enc, item_enc, [2], rng)


def same_batch(a, b) -> bool:
    return all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        for x, y in zip((a.labels, a.user_rows, a.item_rows),
                        (b.labels, b.user_rows, b.item_rows))
    )


def same_model(a, b) -> bool:
    return all(x.tobytes() == y.tobytes() for x, y in zip(tree_leaves(a), tree_leaves(b)))


def by_hand(tasks):
    """Each task rebuilt from its records alone, as a caller would build it."""
    return [ShopTask(t.shop_id, t.support, t.query, t.size_class) for t in tasks]


record_rows = st.lists(
    st.tuples(st.sampled_from(USERS), st.sampled_from(ITEMS), st.sampled_from(["s0", "s1", "s2"]),
              st.sampled_from([0.0, 1.0, 3.5])),
    min_size=10, max_size=60, unique_by=lambda r: r[:3],
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rows=record_rows, encoding=st.sampled_from(ENCODINGS),
       unit=st.sampled_from(list(TaskUnit)), as_table=st.booleans(), data=st.data())
def test_gathered_batches_equal_prepare_batch(rows, encoding, unit, as_table, data):
    """Tasks resolved in any order through one ``TableRows`` give the batches
    ``prepare_batch`` gives on their records, and each task's rows of the
    table are its records."""
    records = [InteractionRecord(*r) for r in rows]
    min_interactions = data.draw(st.integers(2, 5))
    support_size = data.draw(st.integers(1, min_interactions - 1))
    tasks = build_tasks(Interactions.of(records) if as_table else records,
                        min_interactions, support_size, 3, unit)
    features, model = world_model(encoding)
    tables: dict = {}
    for j in data.draw(st.permutations(range(len(tasks)))):
        task = tasks[j]
        table, support_rows, query_rows = task.split
        assert table.records_at(support_rows) == list(task.support)
        assert table.records_at(query_rows) == list(task.query)
        got = _resolve(task, features, model, tables)
        for batch, side in ((got.support, task.support), (got.query, task.query)):
            want = prepare_batch(side, features, model.user_encoder, model.item_encoder)
            assert same_batch(batch, want)
    assert len(tables) == min(len(tasks), 1)


SHORT = {"solo": 1, "lonely": 2, "alone": 4}  # the width of each user's broken row


def lonely_world():
    """Six shops; shop s4 alone holds the users of ``SHORT`` and item ``rare``."""
    rng = np.random.default_rng(5)
    records = []
    for s in range(6):
        pairs = set()
        while len(pairs) < 16:
            pairs.add((f"u{rng.integers(8)}", f"i{rng.integers(8)}"))
        records += [InteractionRecord(u, i, f"s{s}", float(rng.integers(2)))
                    for u, i in sorted(pairs)]
    # coded in this order, against the record order alone, lonely, solo
    records += [InteractionRecord(u, "rare", "s4", 1.0) for u in ("solo", "lonely", "alone")]
    users = {u: rng.normal(size=3) for u in [f"u{k}" for k in range(8)] + list(SHORT)}
    items = {f"i{k}": rng.normal(size=3) for k in range(8)} | {"rare": rng.normal(size=3)}
    model = build_model(ModelKind.MESH, pretrained_encoder(3), pretrained_encoder(3), [4], 6,
                        sigmoid_output=True)
    cfg = MetaConfig(alpha=0.05, beta=0.05, local_steps=1, shop_batch_size=2, seed=4)
    return build_tasks(records, 13, 10, seed=3), FeatureTable(users, items), model, cfg


@pytest.fixture
def steps_taken(monkeypatch):
    """The shop ids of each meta step meta_train takes."""
    steps = []
    real = metaopt.meta_train_step

    def spying(model, tasks, *args):
        steps.append(sorted(t.shop_id for t in tasks))
        return real(model, tasks, *args)

    monkeypatch.setattr(metaopt, "meta_train_step", spying)
    return steps


def _outcome(tasks, features, model, cfg, steps, steps_taken):
    """(steps taken, exception type and text or None, model and losses or None)."""
    steps_taken.clear()
    try:
        trained, history = meta_train(model, tasks, features, cfg, steps)
    except DataError as exc:
        return len(steps_taken), (type(exc), str(exc)), None
    return len(steps_taken), None, (trained, history.losses)


@pytest.mark.parametrize("users, items, short", [
    ({"lonely"}, set(), False),
    ({"lonely"}, set(), True),
    (set(), {"rare"}, False),
    (set(SHORT), {"rare"}, False),
    ({"alone", "solo"}, set(), False),
    ({"alone", "solo"}, set(), True),
], ids=["missing_user", "short_user_row", "missing_item", "users_before_items",
        "first_appearance", "first_short_row"])
def test_a_bad_id_fails_at_the_step_that_first_draws_it(steps_taken, users, items, short):
    """Ids only shop s4 holds fail when s4 is first drawn, with the record
    path's exception and text: the first bad id of the first side that holds
    one, user lookups before item lookups, lookups before rows. A run that
    stops before then finishes as the record path does."""
    tasks, features, model, cfg = lonely_world()
    meta_train(model, tasks, features, cfg, 6)
    first = next(k for k, shops in enumerate(steps_taken) if "s4" in shops)
    assert first >= 1  # the world is drawn so that some steps come before
    if short:
        broken = FeatureTable(features.users | {u: np.zeros(SHORT[u]) for u in users}, features.items)
    else:
        broken = FeatureTable({u: v for u, v in features.users.items() if u not in users},
                              {i: v for i, v in features.items.items() if i not in items})
    s4 = next(t for t in tasks if t.shop_id == "s4")
    side = next(side for side in (s4.support, s4.query)
                if users & {r.user_id for r in side} or items & {r.item_id for r in side})
    bad_user = next((r.user_id for r in side if r.user_id in users), None)
    if short:
        text = f"user features have {SHORT[bad_user]} dims, expected 3"
    elif bad_user:
        text = f"no features for user {bad_user!r}"
    else:
        text = f"no features for item {next(iter(items))!r}"
    got = _outcome(tasks, broken, model, cfg, first + 1, steps_taken)
    assert got[:2] == (first, (DataError, text))
    assert got[:2] == _outcome(by_hand(tasks), broken, model, cfg, first + 1, steps_taken)[:2]
    got = _outcome(tasks, broken, model, cfg, first, steps_taken)
    want = _outcome(by_hand(tasks), broken, model, cfg, first, steps_taken)
    assert got[:2] == want[:2] == (first, None)
    assert same_model(got[2][0], want[2][0]) and got[2][1] == want[2][1]


@dataclass
class CountingFeatures:
    inner: FeatureTable
    seen: Counter

    def user_raw(self, user_id):
        self.seen["user", user_id] += 1
        return self.inner.user_raw(user_id)

    def item_raw(self, item_id):
        self.seen["item", item_id] += 1
        return self.inner.item_raw(item_id)


def distinct_ids(records) -> Counter:
    records = list(records)
    return Counter({("user", r.user_id) for r in records} | {("item", r.item_id) for r in records})


def test_each_id_is_looked_up_once_per_call(steps_taken):
    tasks, features, model, cfg = lonely_world()
    counting = CountingFeatures(features, Counter())
    for _ in range(2):
        counting.seen.clear()
        meta_train(model, tasks, counting, cfg, 2)
        drawn = {shop for shops in steps_taken for shop in shops}
        assert len(drawn) == 4  # of six tasks
        assert counting.seen == distinct_ids(
            r for t in tasks if t.shop_id in drawn for r in t.support + t.query)
        counting.seen.clear()
        meta_inference(model, tasks, counting, cfg)
        assert counting.seen == distinct_ids(r for t in tasks for r in t.support)


def test_hand_built_tasks_equal_and_train_as_built_ones():
    tasks, features, model, cfg = lonely_world()
    hand = by_hand(tasks)
    assert hand == tasks and list(map(hash, hand)) == list(map(hash, tasks))
    assert [repr(t) for t in hand] == [repr(t) for t in tasks]
    assert all(t.split is None for t in hand)
    sized = attach_size_classes(tasks, classify_shops(
        [r for t in tasks for r in t.support + t.query], []), use_taxonomy=False)
    assert [t.split for t in sized] == [t.split for t in tasks]
    assert sized == attach_size_classes(hand, classify_shops(
        [r for t in hand for r in t.support + t.query], []), use_taxonomy=False)
    assert replace(tasks[0], shop_id="x").split is tasks[0].split
    for cfg_ in (cfg, replace(cfg, query_batch_size=3)):
        got, got_history = meta_train(model, tasks, features, cfg_, 5)
        want, want_history = meta_train(model, hand, features, cfg_, 5)
        assert same_model(got, want) and got_history.losses == want_history.losses
    stepped, _, loss = meta_train_step(model, tasks[:3], features, cfg)
    stepped_by_hand, _, loss_by_hand = meta_train_step(model, hand[:3], features, cfg)
    assert same_model(stepped, stepped_by_hand) and loss == loss_by_hand
    adapted = meta_inference(model, tasks, features, cfg)
    adapted_by_hand = meta_inference(model, hand, features, cfg)
    assert all(same_model(adapted[s], adapted_by_hand[s]) for s in adapted_by_hand)
