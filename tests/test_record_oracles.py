"""The slotted record, the list-converted generator, the mask split and
the column passes against the forms they replaced (``tests/oracles.py``).

The record must raise the same error as the field-by-field dataclass for
every input, or hold the same fields with the same hash and repr. The
generator and ``build_tasks`` must give the same records, tables and tasks,
and ``build_tasks`` and ``classify_shops`` the same result or error on a
record list and on an ``Interactions`` table of it. ``load_interactions``
and ``load_latents`` must give the records, vectors and errors of reading
the same file one row at a time.
"""

from __future__ import annotations

import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop.datapipe import (
    InteractionRecord,
    Interactions,
    ShopTask,
    SyntheticSpec,
    TaskUnit,
    build_tasks,
    classify_shops,
    generate_synthetic,
    load_interactions,
    load_latents,
)
from metashop.errors import DataError
from oracles import (
    InteractionRecordPostInit,
    _record_sort_key,
    build_tasks_set_split,
    classify_shops_per_record,
    generate_synthetic_per_element,
    load_interactions_per_row,
    load_latents_per_line,
    table_of,
)

FIELDS = [f.name for f in dataclasses.fields(InteractionRecord)]


class Id(str):
    """A str subclass, which a ``type(x) is str`` check would miss."""


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
def mixed_records(draw, min_size=0, labels=labels):
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
        mixed_records(labels=labels | st.just(-0.0)),
        st.sampled_from([None, *TaskUnit]),
        st.booleans(),
    )
    def test_order_is_a_stable_sort_by_the_record_key(self, records, unit, coded_apart):
        """Ties keep row order, a missing timestamp sorts as a real -1 and
        -0.0 as 0.0; a task unit's id, when given, leads. The mask marks
        each row whose whole key another row shares."""
        table = table_of(records) if coded_apart else Interactions.of(records)
        lead = None if unit is None else f"{unit.value}_id"
        got, tied = table.order() if lead is None else table.order(table.ranks(lead)[0])
        keys = [(getattr(r, lead) if lead else "", _record_sort_key(r)) for r in records]
        assert got.tolist() == sorted(range(len(records)), key=keys.__getitem__)
        assert tied.tolist() == [keys.count(key) > 1 for key in keys]

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
        if isinstance(got, list):  # a record list's tasks hold equal records
            assert all(r in records for t in got for r in t.support + t.query)

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


# Field texts a file may hold. Every "good" text parses; each field's "bad"
# texts fail its check. Ids and genres carry quoted commas and line breaks
# (a bare carriage return splits the row instead); labels and timestamps
# carry what Python's float() and int() accept beyond plain digits.
GOOD = {
    "user_id": ["u1", "u2", "a,b", "x\ny", 'q"t'],
    "item_id": ["i1", "i2", " 7 ", "i\n"],
    "shop_id": ["s1", "s2", "s,3"],
    "label": ["0", "1", "1.0", "0.0", "-0.0", "3.5", " 2 ", "+5", "5.0", "1e0", "4_0e-1"],
    "timestamp": ["", "7", " 7 ", "+5", "5", "05", "1_0", str(2**70), "-3", "-1"],
    "genre_l3": ["", "g1", "a,b", "g\n2"],
}
BAD = {
    "user_id": ["", "a\rb"],
    "item_id": [""],
    "shop_id": [""],
    "label": ["x", "", "nan", "inf", "6", "0.5", "-1", "5.5"],
    "timestamp": ["x", "1.5", "1e3", " "],
    "genre_l3": ["c\rd"],
}


def _parsed_key(row: dict) -> tuple:
    stamp = row.get("timestamp", "")
    return (row["user_id"], row["item_id"], row["shop_id"],
            None if stamp == "" else int(stamp))


@st.composite
def interaction_files(draw):
    """The text of an interaction file: any column order, optional columns
    or not; a clean file holds only good texts and no repeated key, any
    other file bad texts, rows of the wrong width and repeats as well."""
    optional = draw(st.lists(st.sampled_from(["timestamp", "genre_l3"]), unique=True))
    header = draw(st.permutations(["user_id", "item_id", "shop_id", "label", *optional]))
    clean = draw(st.booleans())
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    keys = set()
    for _ in range(draw(st.integers(0, 30))):
        row = {name: draw(st.sampled_from(GOOD[name] if clean or draw(st.integers(0, 3))
                                          else BAD[name])) for name in header}
        if clean:
            if _parsed_key(row) in keys:
                continue
            keys.add(_parsed_key(row))
        fields = [row[name] for name in header]
        width = 0 if clean else draw(st.sampled_from([0, 0, 0, 0, 0, -1, 1]))
        writer.writerow(fields[:width] if width < 0 else fields + ["z"] * width)
    return out.getvalue()


def read_outcome(load, path):
    try:
        return [(r.user_id, r.item_id, r.shop_id, repr(r.label), type(r.timestamp),
                 r.timestamp, r.genre_l3) for r in load(path)]
    except DataError as exc:
        return str(exc)


@st.composite
def latent_files(draw):
    """The text of a latent file: zero to three value columns (zero is
    rejected), kinds, ids and values good or bad, rows of the wrong width.
    A clean row's id is its own; the others repeat ids."""
    dim = draw(st.integers(0, 3))
    header = ["kind", "id", *(f"v{i}" for i in range(dim))]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header if draw(st.integers(0, 7)) else ["kind", "key", *header[2:]])
    values = ["1.5", "-0.0", "1e-300", " 2 ", "1_0", "-7", "0.1"]
    clean_file = draw(st.booleans())
    for k in range(draw(st.integers(0, 12))):
        clean = clean_file or draw(st.integers(0, 4))
        kinds = ["user", "item", "shop_effect", *([] if clean else ["planet"])]
        kind = draw(st.sampled_from(kinds))
        key = draw(st.sampled_from(["a", "b", "c,d", "e\nf"])) + str(k) if clean else "a"
        vec = [draw(st.sampled_from(values if clean else [*values, "nan", "-inf", "x", ""]))
               for _ in range(dim + (0 if clean else draw(st.sampled_from([0, 0, 0, 1, -1]))))]
        writer.writerow([kind, key, *vec])
    return out.getvalue()


def latent_outcome(path):
    try:
        table, shops = load_latents(path)
    except DataError as exc:
        return str(exc)
    return [[(k, v.dtype.str, v.shape, v.tobytes()) for k, v in t.items()]
            for t in (table.users, table.items, shops)]


def latent_oracle_outcome(path):
    try:
        table, shops = load_latents_per_line(path)
    except DataError as exc:
        return str(exc)
    return [[(k, v.dtype.str, v.shape, v.tobytes()) for k, v in t.items()]
            for t in (table.users, table.items, shops)]


class TestLoadersMatchThePerRowReaders:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(interaction_files())
    def test_same_records_or_same_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("load") / "x.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_outcome(load_interactions, path) == read_outcome(
            load_interactions_per_row, path)

    @pytest.mark.parametrize("rows,problem", [
        ("u1,i1,s1,1,5\nu1,i1,s1,0,05\n", "line 3: duplicate of line 2 (user=u1, item=i1)"),
        ("u1,i1,s1,1,\nu1,i1,s1,0,\n", "line 3: duplicate of line 2 (user=u1, item=i1)"),
        ("u1,i1,s1,1,1_0\nu1,i1,s1,0,+10\n", "line 3: duplicate of line 2 (user=u1, item=i1)"),
        ("u1,i1,s1,6,1\n", "line 2: label 6.0 outside 0/1 and [1, 5]"),
        ("u1,,s1,1,1\n", "line 2: item_id must be a non-empty string, got ''"),
        ("u1,i1,s1,1\n", "line 2: 4 fields, expected 5"),
    ])
    def test_named_problems(self, tmp_path, rows, problem):
        path = tmp_path / "x.csv"
        path.write_text("user_id,item_id,shop_id,label,timestamp\n" + rows, encoding="utf-8")
        want = f"{path}: 1 malformed rows: {problem}"
        assert read_outcome(load_interactions, path) == want
        assert read_outcome(load_interactions_per_row, path) == want

    def test_more_than_twenty_problems_are_counted(self, tmp_path):
        path = tmp_path / "x.csv"
        bad = "".join(f"u{k},i1,s1,x\n" for k in range(23))
        path.write_text("user_id,item_id,shop_id,label\n" + bad, encoding="utf-8")
        got = read_outcome(load_interactions, path)
        assert got == read_outcome(load_interactions_per_row, path)
        assert got.startswith(f"{path}: 23 malformed rows: line 2: label 'x' is not a number;")
        assert got.endswith("line 21: label 'x' is not a number (+3 more)")

    def test_big_and_negative_stamps_and_empty_genres_load_as_written(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("genre_l3,timestamp,label,shop_id,item_id,user_id\n"
                        f",{2**70},1,s1,i1,u1\ng, -3 ,0,s1,i1,u1\n,,+5,s1,i1,u1\n",
                        encoding="utf-8")
        got = list(load_interactions(path))
        assert got == load_interactions_per_row(path)
        assert [(r.timestamp, r.genre_l3, r.label) for r in got] == [
            (2**70, None, 1.0), (-3, "g", 0.0), (None, None, 5.0)]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(latent_files())
    def test_same_vectors_bit_for_bit_or_same_first_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("latents") / "latents.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert latent_outcome(path) == latent_oracle_outcome(path)
