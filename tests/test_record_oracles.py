"""The slotted record, the list-converted generator, the mask split and
the column passes against the forms they replaced (``tests/oracles.py``).

The record must raise the same error as the field-by-field dataclass for
every input, or hold the same fields with the same hash and repr. The
generator and ``build_tasks`` must give the same records, tables and tasks,
and ``build_tasks`` and ``classify_shops`` the same result or error on a
record list and on an ``Interactions`` table of it.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop.datapipe import (
    InteractionRecord,
    ShopTask,
    SyntheticSpec,
    TaskUnit,
    build_tasks,
    classify_shops,
    generate_synthetic,
)
from metashop.errors import DataError
from oracles import (
    InteractionRecordPostInit,
    build_tasks_set_split,
    classify_shops_per_record,
    generate_synthetic_per_element,
    table_of,
)

FIELDS = [f.name for f in dataclasses.fields(InteractionRecord)]


class Id(str):
    """A str subclass: the fast check's ``type(x) is str`` misses it."""


texts = st.text("ab_", max_size=3)
plain_ids = st.text("ab_", min_size=1, max_size=3)
id_values = st.one_of(
    plain_ids,
    texts,
    st.builds(Id, texts),
    st.builds(np.str_, texts),
    st.none(),
    st.integers(),
    st.builds(np.array, st.lists(texts, max_size=2)),
)
# three plain ids half the time, so that the label checks are reached often
id_triples = st.tuples(plain_ids, plain_ids, plain_ids) | st.tuples(
    id_values, id_values, id_values
)
label_values = st.one_of(
    st.floats(),
    st.floats(allow_nan=False).map(np.float64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, -1e-300]),
    st.booleans(),
    st.integers(-3, 10**6),
    st.text("01.-", max_size=2),
    st.none(),
)


def outcome(cls, args):
    try:
        return cls(*args)
    except Exception as exc:  # the error itself is what gets compared
        return (type(exc), str(exc))


class TestSlottedRecord:
    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(id_triples, label_values, st.none() | st.integers(), st.none() | texts)
    def test_same_error_or_same_record_as_the_field_checks(self, ids, label, ts, genre):
        args = (*ids, label, ts, genre)
        got = outcome(InteractionRecord, args)
        want = outcome(InteractionRecordPostInit, args)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, InteractionRecord)
        for name, value in zip(FIELDS, args):
            assert getattr(got, name) is getattr(want, name) is value
        assert hash(got) == hash(want)
        assert repr(got) == repr(want).replace(
            "InteractionRecordPostInit(", "InteractionRecord(", 1
        )

    def test_numpy_array_id_is_a_data_error(self):
        with pytest.raises(DataError, match="^user_id must be a non-empty string"):
            InteractionRecord(np.array(["u", "v"]), "i", "s", 1.0)

    def test_slots_frozen_replace_and_fields(self):
        r = InteractionRecord("u", "i", "s", 1.0, 4, "g")
        assert not hasattr(r, "__dict__")
        assert FIELDS == [
            "user_id", "item_id", "shop_id", "label", "timestamp", "genre_l3"
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.label = 0.0
        # a name that is not a field has no slot; Python 3.11's slotted frozen
        # dataclass raises TypeError for it, later versions FrozenInstanceError
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            r.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.user_id
        moved = dataclasses.replace(r, shop_id="t")
        assert moved == InteractionRecord("u", "i", "t", 1.0, 4, "g")
        assert moved != r and hash(moved) != hash(r)
        with pytest.raises(DataError, match="^label must be finite and >= 0, got -1"):
            dataclasses.replace(r, label=-1)
        assert InteractionRecord("u", "i", "s", 1.0) == InteractionRecord(
            user_id="u", item_id="i", shop_id="s", label=1.0, timestamp=None
        )


def feature_bytes(data):
    tables = (data.features.users, data.features.items, data.shop_effects)
    return [sorted((k, v.dtype.str, v.tobytes()) for k, v in t.items()) for t in tables]


class TestGeneratorMatchesThePerElementLoop:
    @pytest.mark.parametrize(
        "spec",
        [
            SyntheticSpec(),
            SyntheticSpec(seed=5, noise_std=0.0),
            SyntheticSpec(seed=2, n_new_shops=0, n_shops=7, n_items=30),
            SyntheticSpec(
                seed=9, n_users=50, n_items=200, n_shops=30, n_new_shops=8,
                n_genres=2, min_shop_size=2, interactions_per_shop=20,
                pareto_exponent=0.7, test_fraction=0.9,
            ),
        ],
        ids=["default", "no_noise", "no_new_shops", "many_small_shops"],
    )
    def test_same_records_and_tables(self, spec):
        got = generate_synthetic(spec)
        want = generate_synthetic_per_element(spec)
        assert list(got.train) == want.train
        assert list(got.test) == want.test
        for a, b in zip([*got.train, *got.test], want.train + want.test):
            assert [type(getattr(a, n)) for n in FIELDS] == [
                type(getattr(b, n)) for n in FIELDS
            ]
        assert feature_bytes(got) == feature_bytes(want)
        assert got.new_shops == want.new_shops


few_ids = st.sampled_from(["a", "b", "c"])


@st.composite
def records_with_repeats(draw):
    """Records over a few ids, some of them repeated as equal records."""
    records = draw(
        st.lists(
            st.builds(
                InteractionRecord,
                few_ids,
                few_ids | st.sampled_from(["d", "e"]),
                few_ids,
                st.sampled_from([0.0, 1.0, 3.5]),
                st.none() | st.integers(0, 4),
            ),
            min_size=8,
            max_size=40,
        )
    )
    picks = draw(st.lists(st.integers(0, len(records) - 1), max_size=4))
    records += [records[i] for i in picks]
    return draw(st.permutations(records))


class TestMaskSplitMatchesTheSetSplit:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        records_with_repeats(),
        st.sampled_from(list(TaskUnit)),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 3),
    )
    def test_same_tasks_or_same_error(self, records, unit, support, extra, seed):
        args = (records, support + extra, support, seed, unit)
        assert outcome(build_tasks, args) == outcome(build_tasks_set_split, args)

    def test_equal_records_on_both_sides_fail_alike(self):
        records = [InteractionRecord("u", "i", "s", 1.0)] * 13
        args = (records, 13, 10, 0, TaskUnit.SHOP)
        want = (DataError, "task 's' has overlapping support/query")
        assert outcome(build_tasks, args) == outcome(build_tasks_set_split, args) == want


# timestamps a code column must not squeeze into int64: missing, a real -1,
# beyond int64 either way, and 2**64 - 1, which numpy reads with -1 as float64
stamps = st.sampled_from([None, -1, 0, 1, 2, 2**70, 2**64 - 1, -(2**63) - 1])
# int and bool labels sort and compare as the floats a table holds
labels = st.sampled_from([0.0, 1.0, 3.5, 0, 1, 2, True, False])


@st.composite
def mixed_records(draw, min_size=0):
    """Records over a few ids, stamps and labels, some repeated as equal records."""
    records = draw(
        st.lists(
            st.builds(
                InteractionRecord, few_ids, few_ids | st.just("d"), few_ids, labels,
                stamps, st.none() | st.just("g"),
            ),
            min_size=min_size,
            max_size=40,
        )
    )
    if records:
        picks = draw(st.lists(st.integers(0, len(records) - 1), max_size=2))
        records += [records[i] for i in picks]
    return draw(st.permutations(records))


class TestColumnsMatchTheRecordOracles:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(
        mixed_records(min_size=12),
        st.sampled_from(list(TaskUnit)),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 3),
    )
    def test_build_tasks_on_lists_and_tables(self, records, unit, support, extra, seed):
        args = (support + extra, support, seed, unit)
        want = outcome(build_tasks_set_split, (records, *args))
        got = outcome(build_tasks, (records, *args))
        assert got == want
        assert outcome(build_tasks, (table_of(records), *args)) == want
        if isinstance(got, list):  # a record list's tasks hold its own objects
            ids = {id(r) for r in records}
            assert all(id(r) in ids for t in got for r in t.support + t.query)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mixed_records(), mixed_records(), st.booleans(), st.booleans())
    def test_classify_shops_on_lists_and_tables(self, train, test, train_table, test_table):
        want = classify_shops_per_record(train, test)
        got = classify_shops(
            table_of(train) if train_table else train,
            table_of(test) if test_table else test,
        )
        assert got == want
        assert list(got.sales.items()) == list(want.sales.items())  # first-seen order

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(mixed_records(min_size=1), st.data())
    def test_overlap_check_is_the_set_intersection(self, records, data):
        support = data.draw(st.lists(st.sampled_from(records), min_size=1, max_size=5))
        query = data.draw(st.lists(st.sampled_from(records), min_size=1, max_size=20))
        got = outcome(ShopTask, ("s", support, query))
        if set(support) & set(query):
            assert got == (DataError, "task 's' has overlapping support/query")
        else:
            assert got == ShopTask("s", tuple(support), tuple(query))
