"""Interaction IO, task building, shop classes, negative sampling, and the
synthetic generator."""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import math
import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop.datapipe import (
    FeatureTable,
    InteractionRecord,
    Interactions,
    NegativeStrategy,
    ShopTask,
    SizeClass,
    SyntheticSpec,
    TaskUnit,
    attach_size_classes,
    attribute_fields,
    build_tasks,
    classify_shops,
    convert_ml1m,
    generate_synthetic,
    load_attributes,
    load_interactions,
    load_latents,
    negative_sample,
    save_attributes,
    save_interactions,
    save_latents,
)
from metashop.errors import ConfigError, DataError, SamplingError
from oracles import (
    build_tasks_set_split,
    load_interactions_per_row,
    load_latents_per_line,
    table_of,
)


def rec(u, i, s, y, ts=None, g=None):
    return InteractionRecord(u, i, s, float(y), ts, g)


PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)
ids = st.text("abuz09_-", min_size=1, max_size=3)
labels = st.sampled_from([0.0, 1.0]) | st.floats(1.0, 5.0)


def record_lists(shop_ids=ids, min_size=0, max_size=40):
    """Records with distinct (user, item, shop, timestamp) keys."""
    record = st.builds(
        InteractionRecord,
        ids,
        ids,
        shop_ids,
        labels,
        st.none() | st.integers(-(10**12), 10**12),
        st.none() | ids,
    )
    return st.lists(
        record,
        min_size=min_size,
        max_size=max_size,
        unique_by=lambda r: (r.user_id, r.item_id, r.shop_id, r.timestamp),
    )


class TestInteractionIO:
    def test_round_trip_with_optional_columns(self, tmp_path):
        records = [
            rec("u1", "i1", "s1", 1.0, 100, "ga"),
            rec("u2", "i2", "s1", 0.0, 101, "gb"),
            rec("u1", "i2", "s2", 3.5, 102, None),
        ]
        path = tmp_path / "x.csv"
        save_interactions(path, records)
        assert list(load_interactions(path)) == records

    def test_round_trip_minimal_columns(self, tmp_path):
        records = [rec("u1", "i1", "s1", 1.0), rec("u2", "i1", "s1", 0.0)]
        path = tmp_path / "x.csv"
        save_interactions(path, records)
        text = path.read_text()
        assert "timestamp" not in text and "genre_l3" not in text
        assert list(load_interactions(path)) == records

    @PROPERTY
    @given(record_lists(min_size=1))
    def test_save_then_load_is_the_identity(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("io") / "x.csv"
        save_interactions(path, records)
        assert list(load_interactions(path)) == records
        # labels are written with repr, which reads back to the same float
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == [repr(r.label) for r in records]

    def test_header_column_order_is_free(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "label,shop_id,user_id,item_id,genre_l3\n"
            "1.0,s1,u1,i1,ga\n"
            "0.0,s1,u2,i1,\n"
        )
        got = load_interactions(path)
        assert got[0] == rec("u1", "i1", "s1", 1.0, None, "ga")
        assert got[1].genre_l3 is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("user_id,item_id,shop_id,score\n")
        with pytest.raises(DataError, match="label"):
            load_interactions(path)

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "user_id,item_id,shop_id,label\n"
            "u1,i1,s1,1.0\n"
            "u2,i1,s1,oops\n"
            "u3,i1,s1,0.5\n"
            "u4,i1,s1\n"
            "u5,i1,s1,6.0\n"
        )
        with pytest.raises(DataError) as exc:
            load_interactions(path)
        msg = str(exc.value)
        assert "line 3" in msg and "line 4" in msg and "line 5" in msg
        assert "line 6" in msg and "4 malformed" in msg

    def test_duplicates_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text(
            "user_id,item_id,shop_id,label\n"
            "u1,i1,s1,1.0\n"
            "u1,i1,s1,1.0\n"
        )
        with pytest.raises(DataError, match="duplicate of line 2"):
            load_interactions(path)

    def test_same_pair_different_timestamp_is_fine(self, tmp_path):
        path = tmp_path / "x.csv"
        records = [rec("u1", "i1", "s1", 1.0, 5), rec("u1", "i1", "s1", 1.0, 6)]
        save_interactions(path, records)
        assert len(load_interactions(path)) == 2

    def test_missing_and_empty_files(self, tmp_path):
        with pytest.raises(DataError):
            load_interactions(tmp_path / "absent.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_interactions(empty)

    @pytest.mark.parametrize("special", ["u,1", '"u"1', "u\n1", "u\r1"])
    def test_a_field_that_needs_quoting_round_trips(self, tmp_path, special):
        records = [rec(special, "i1", "s1", 1.0, 7, special), rec("u2", "i2", "s1", 0.0)]
        path = tmp_path / "x.csv"
        save_interactions(path, records)
        assert list(load_interactions(path)) == records

    def test_only_fields_that_need_quoting_are_quoted(self, tmp_path):
        path = tmp_path / "x.csv"
        save_interactions(path, [rec("u,1", 'i"1', "s1", 1.0, 7, "g\na")])
        assert path.read_bytes() == (
            b'user_id,item_id,shop_id,label,timestamp,genre_l3\n"u,1","i""1",s1,1.0,7,"g\na"\n'
        )

    def test_plain_fields_are_written_unquoted(self, tmp_path):
        path = tmp_path / "x.csv"
        save_interactions(path, [rec("u1", "i1", "s1", 1.0, 3, "ga")])
        assert path.read_text() == (
            "user_id,item_id,shop_id,label,timestamp,genre_l3\nu1,i1,s1,1.0,3,ga\n"
        )

    def test_numpy_bool_and_int_labels_are_written_as_floats(self, tmp_path):
        labels = [np.float64(1.0), True, 0, np.float32(3.5)]
        records = [InteractionRecord(f"u{k}", "i1", "s1", y) for k, y in enumerate(labels)]
        path = tmp_path / "x.csv"
        save_interactions(path, records)
        rows = path.read_text().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["1.0", "1.0", "0.0", "3.5"]
        assert [r.label for r in load_interactions(path)] == [1.0, 1.0, 0.0, 3.5]

    def test_a_column_named_twice_is_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("user_id,item_id,shop_id,label, label\nu1,i1,s1,1,0\n")
        where = re.escape(str(path))
        with pytest.raises(DataError, match=f"^{where}: header names column 'label' twice$"):
            load_interactions(path)

    def test_lines_are_counted_through_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "x.csv"
        save_interactions(path, [rec("u\n1", "i1", "s1", 1.0), rec("u2", "i1", "s1", 0.0)])
        with path.open("a") as f:
            f.write("u3,i1,s1,oops\nu2,i1,s1,1.0\n")
        where = re.escape(str(path))
        with pytest.raises(DataError, match=(
            f"^{where}: 2 malformed rows: line 5: label 'oops' is not a number; "
            "line 6: duplicate of line 4 \\(user=u2, item=i1\\)$"
        )):
            load_interactions(path)

    @pytest.mark.parametrize("breaks, line", [
        ("\n", 4), ("\r\n", 4), ("\r", 4), ("\r\r\n", 5), ("\n\r", 5), ("\r\n\n", 5),
    ], ids=["lf", "crlf", "cr", "cr_crlf", "lf_cr", "crlf_lf"])
    def test_a_quoted_break_counts_as_the_csv_reader_counts_it(self, tmp_path, breaks, line):
        """A "\\r\\n" in a quoted field is one line, as the reader's text stream splits it."""
        path = tmp_path / "x.csv"
        path.write_text(f'user_id,item_id,shop_id,label\n"u{breaks}1",i1,s1,1\nu2,i1,s1,x\n',
                        encoding="utf-8", newline="")
        for load in (load_interactions, load_interactions_per_row):
            with pytest.raises(DataError) as err:
                load(path)
            assert str(err.value) == (
                f"{path}: 1 malformed rows: line {line}: label 'x' is not a number")

    def test_record_validation(self):
        with pytest.raises(DataError):
            rec("", "i1", "s1", 1.0)
        with pytest.raises(DataError):
            rec("u1", "i1", "s1", -1.0)
        with pytest.raises(DataError):
            rec("u1", "i1", "s1", float("nan"))


def spread_records(n_shops=4, per_shop=20, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for s in range(n_shops):
        for e in range(per_shop):
            out.append(
                rec(
                    f"u{rng.integers(50)}",
                    f"i{s}_{e}",
                    f"s{s}",
                    int(rng.integers(2)),
                    ts=s * 1000 + e,
                )
            )
    return out


class TestBuildTasks:
    def test_sizes_and_disjointness(self):
        records = spread_records()
        tasks = build_tasks(records, min_interactions=13, support_size=10)
        assert len(tasks) == 4
        for t in tasks:
            assert len(t.support) == 10
            assert len(t.query) == 10
            assert not set(t.support) & set(t.query)
            assert {r.shop_id for r in (*t.support, *t.query)} == {t.shop_id}

    @PROPERTY
    @given(
        record_lists(st.sampled_from(["s0", "s1", "s2"]), min_size=15, max_size=60),
        st.integers(1, 4),
        st.integers(0, 3),
        st.randoms(use_true_random=False),
    )
    def test_split_properties(self, records, support, extra, rnd):
        kwargs = dict(
            min_interactions=support + 1 + extra, support_size=support, seed=7
        )
        tasks = build_tasks(records, **kwargs)
        for t in tasks:
            group = [r for r in records if r.shop_id == t.shop_id]
            assert Counter(t.support + t.query) == Counter(group)
            assert len(t.support) == support
            assert not set(t.support) & set(t.query)
            # a group's split ignores every other group
            assert build_tasks(group, **kwargs) == [t]
        shuffled = list(records)
        rnd.shuffle(shuffled)
        assert build_tasks(shuffled, **kwargs) == tasks

    def test_small_groups_dropped(self):
        records = spread_records() + [rec("u1", "ix", "s_tiny", 1.0, ts=9999)]
        tasks = build_tasks(records)
        assert "s_tiny" not in {t.shop_id for t in tasks}

    def test_input_order_does_not_matter(self):
        records = spread_records(seed=3)
        rng = np.random.default_rng(5)
        shuffled = [records[i] for i in rng.permutation(len(records))]
        assert build_tasks(records, seed=11) == build_tasks(shuffled, seed=11)

    def test_seed_changes_the_split(self):
        records = spread_records(seed=4)
        a = build_tasks(records, seed=1)
        b = build_tasks(records, seed=2)
        assert a != b
        assert [t.shop_id for t in a] == [t.shop_id for t in b]

    def test_support_must_leave_room_for_queries(self):
        with pytest.raises(ConfigError):
            build_tasks(spread_records(), min_interactions=10, support_size=10)
        with pytest.raises(ConfigError):
            build_tasks(spread_records(), support_size=0)

    @pytest.mark.parametrize(
        "unit,attr", [(TaskUnit.ITEM, "item_id"), (TaskUnit.USER, "user_id")]
    )
    def test_other_task_units_group_by_their_key(self, unit, attr):
        rng = np.random.default_rng(8)
        records = [
            rec(f"u{rng.integers(3)}", f"i{rng.integers(3)}", f"s{rng.integers(4)}",
                1, ts=k)
            for k in range(200)
        ]
        tasks = build_tasks(records, min_interactions=13, support_size=5, task_unit=unit)
        assert tasks
        for t in tasks:
            assert {getattr(r, attr) for r in (*t.support, *t.query)} == {t.shop_id}


class TestShopClasses:
    def test_four_existing_shops_one_large(self):
        train = []
        for s, n in (("a", 10), ("b", 20), ("c", 30), ("d", 40)):
            train += [rec(f"u{k}", f"i{k}", s, 1.0) for k in range(n)]
        test = [rec("u1", "ix", s, 1.0) for s in ("a", "b", "c", "d", "zz")]
        stats = classify_shops(train, test)
        assert stats.taxonomy == {
            "a": SizeClass.SMALL,
            "b": SizeClass.SMALL,
            "c": SizeClass.SMALL,
            "d": SizeClass.LARGE,
            "zz": SizeClass.NEW,
        }
        assert Counter(stats.taxonomy.values())[SizeClass.LARGE] == 1

    def test_sales_count_positives_only(self):
        train = [rec("u1", "i1", "a", 1.0), rec("u2", "i1", "a", 0.0)]
        stats = classify_shops(train, [])
        assert stats.sales == {"a": 1}

    def test_ties_break_toward_smaller_id(self):
        train = [rec(f"u{k}", f"i{k}", s, 1.0) for s in ("a", "b") for k in range(5)]
        test = [rec("u1", "ix", s, 1.0) for s in ("a", "b")]
        stats = classify_shops(train, test)
        assert stats.taxonomy["a"] is SizeClass.LARGE
        assert stats.taxonomy["b"] is SizeClass.SMALL

    def test_median_rule_is_strict(self):
        train = []
        for s, n in (("a", 1), ("b", 2), ("c", 4)):
            train += [rec(f"u{k}", f"i{k}", s, 1.0) for k in range(n)]
        stats = classify_shops(train, [])
        assert stats.median_sales == 2.0
        assert stats.small_sampling == frozenset({"a"})
        assert stats.sampling_class("a") is SizeClass.SMALL
        assert stats.sampling_class("b") is SizeClass.LARGE
        with pytest.raises(DataError):
            stats.sampling_class("ghost")

    def test_partition_invariants_random_worlds(self):
        for trial in range(30):
            rng = np.random.default_rng(trial)
            n_shops = int(rng.integers(2, 12))
            train = []
            for s in range(n_shops):
                train += [
                    rec(f"u{k}", f"i{s}_{k}", f"s{s}", 1.0)
                    for k in range(int(rng.integers(1, 40)))
                ]
            test_shops = [f"s{s}" for s in range(n_shops) if rng.random() < 0.7]
            test_shops += [f"n{j}" for j in range(int(rng.integers(0, 3)))]
            test = [rec("u0", "ix", s, 1.0) for s in test_shops]
            stats = classify_shops(train, test)
            assert set(stats.taxonomy) == set(test_shops)
            existing = [s for s in test_shops if not s.startswith("n")]
            n_large = sum(
                1 for s in existing if stats.taxonomy[s] is SizeClass.LARGE
            )
            assert n_large == math.ceil(0.25 * len(existing))
            for s in test_shops:
                if s.startswith("n"):
                    assert stats.taxonomy[s] is SizeClass.NEW

    def test_attach_size_classes(self):
        train = []
        for s, n in (("a", 2), ("b", 6), ("c", 20)):
            train += [rec(f"u{k}", f"i{s}{k}", s, 1.0, ts=k) for k in range(n)]
        test = [rec("u9", "ix", s, 1.0) for s in ("a", "c", "zz")]
        stats = classify_shops(train, test)
        t_a = ShopTask("a", train[:1], train[1:2])
        t_b = ShopTask("b", train[2:3], train[3:4])
        sized = attach_size_classes([t_a, t_b], stats, use_taxonomy=False)
        assert sized[0].size_class is SizeClass.SMALL  # 2 < median 6
        # strictness: shop b sits exactly on the median and counts LARGE
        assert stats.median_sales == 6.0
        assert sized[1].size_class is SizeClass.LARGE
        eval_task = ShopTask("zz", train[:1], train[1:2])
        sized_eval = attach_size_classes([eval_task], stats, use_taxonomy=True)
        assert sized_eval[0].size_class is SizeClass.NEW
        with pytest.raises(DataError):
            attach_size_classes([t_b], stats, use_taxonomy=True)


def genre_world():
    """Two genres spread over two shops, enough users for clean pools."""
    records = []
    for k in range(12):
        records.append(rec(f"ua{k}", f"ia{k % 4}", "big", 1.0, ts=k, g="ga"))
    for k in range(6):
        records.append(rec(f"ub{k}", f"ib{k % 3}", "tiny", 1.0, ts=100 + k, g="gb"))
    stats = classify_shops(records, [])
    return records, stats


class TestNegativeSampling:
    def test_n0_users_bought_another_genre(self):
        records, stats = genre_world()
        negs = negative_sample(records, NegativeStrategy.N0, stats, ratio=1.0, seed=3)
        assert len(negs) == len(records)
        genres_of = {}
        for r in records:
            genres_of.setdefault(r.user_id, set()).add(r.genre_l3)
        positives = {(r.item_id, r.user_id) for r in records}
        seen = set()
        for n in negs:
            assert n.label == 0.0
            assert (n.item_id, n.user_id) not in positives
            assert (n.item_id, n.user_id) not in seen
            seen.add((n.item_id, n.user_id))
            assert genres_of[n.user_id] - {n.genre_l3}

    def test_ratio_and_determinism(self):
        records, stats = genre_world()
        a = negative_sample(records, NegativeStrategy.N0, stats, ratio=0.5, seed=9)
        assert len(a) == round(0.5 * len(records))
        b = negative_sample(records, NegativeStrategy.N0, stats, ratio=0.5, seed=9)
        assert a == b
        c = negative_sample(records, NegativeStrategy.N0, stats, ratio=0.5, seed=10)
        assert a != c

    def test_single_genre_pool_exhausts(self):
        records = [rec(f"u{k}", "ix", "s1", 1.0, g="ga") for k in range(5)]
        stats = classify_shops(records, [])
        with pytest.raises(SamplingError, match="ix"):
            negative_sample(records, NegativeStrategy.N0, stats, seed=1)

    def test_genre_required(self):
        records = [rec("u1", "i1", "s1", 1.0)]
        stats = classify_shops(records, [])
        with pytest.raises(DataError, match="genre_l3"):
            negative_sample(records, NegativeStrategy.N0, stats)

    def test_n2_on_large_shops_replays_n0(self):
        # every positive comes from the large shop, so strategy resolution
        # must consume no randomness and the two draws agree bitwise
        rng = np.random.default_rng(0)
        train = []
        for k in range(300):
            train.append(
                rec(f"u{k % 60}", f"i{k % 40}", "big", 1.0, ts=k,
                    g=f"g{(k % 40) % 4}")
            )
        train += [rec(f"v{k}", f"j{k}", "tiny", 1.0, ts=1000 + k, g="ga")
                  for k in range(10)]
        stats = classify_shops(train, [])
        assert stats.sampling_class("big") is SizeClass.LARGE
        positives = [r for r in train if r.shop_id == "big"]
        # dedupe (user, item) pairs so the pool bookkeeping stays simple
        uniq = {}
        for r in positives:
            uniq.setdefault((r.user_id, r.item_id), r)
        positives = list(uniq.values())
        n0 = negative_sample(positives, NegativeStrategy.N0, stats, ratio=4.0, seed=6)
        n2 = negative_sample(positives, NegativeStrategy.N2, stats, ratio=4.0, seed=6)
        assert len(n0) == 4 * len(positives) == 480
        assert n0 == n2

    def test_n1_coin_is_roughly_fair(self):
        # small-shop purchasers only ever buy genre ga; the other-genre pool
        # for ga is exactly the large-shop gb buyers, so the two pools are
        # disjoint and every draw reveals which side the coin chose
        n_small, n_large = 4000, 8000
        records = []
        for k in range(n_small):
            records.append(rec(f"sa{k}", f"ia{k}", "tiny", 1.0, ts=k, g="ga"))
        for k in range(n_large):
            records.append(
                rec(f"ob{k}", f"ib{k}", "big", 1.0, ts=n_small + k, g="gb")
            )
        stats = classify_shops(records, [])
        assert stats.sampling_class("tiny") is SizeClass.SMALL
        negs = negative_sample(records, NegativeStrategy.N1, stats, ratio=1.0, seed=2)
        ga_draws = [n for n in negs if n.item_id.startswith("ia")]
        assert len(ga_draws) == n_small
        small_picks = sum(1 for n in ga_draws if n.user_id.startswith("sa"))
        for n in ga_draws:
            assert n.user_id.startswith(("sa", "ob"))
        assert 0.45 < small_picks / len(ga_draws) < 0.55


class TestLatentsAndAttributes:
    def test_latents_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        users = {"u1": rng.normal(size=3), "u2": rng.normal(size=3)}
        items = {"i1": rng.normal(size=3)}
        effects = {"s1": rng.normal(size=3)}
        path = tmp_path / "latents.csv"
        save_latents(path, users, items, effects)
        table, shops = load_latents(path)
        for k, v in users.items():
            np.testing.assert_array_equal(table.user_raw(k), v)
        np.testing.assert_array_equal(table.item_raw("i1"), items["i1"])
        np.testing.assert_array_equal(shops["s1"], effects["s1"])
        named = f"^no features for user 'ghost' in {re.escape(str(path))}$"
        with pytest.raises(DataError, match=named):
            table.user_raw("ghost")
        with pytest.raises(DataError, match="^no features for item 'ghost'$"):
            FeatureTable(users, items).item_raw("ghost")

    def test_latents_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("kind,id,v0\nuser,u1,abc\n")
        with pytest.raises(DataError, match="non-numeric"):
            load_latents(bad)
        bad.write_text("kind,id,v0\nplanet,x,1.0\n")
        with pytest.raises(DataError, match="unknown kind"):
            load_latents(bad)
        bad.write_text("kind,id,v0\nuser,u1,1.0\n")
        with pytest.raises(DataError, match="user and item"):
            load_latents(bad)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_latents_reject_non_finite_values(self, tmp_path, value):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"kind,id,v0\nitem,i1,1.0\nuser,u1,{value}\n")
        where = re.escape(str(bad))
        with pytest.raises(DataError, match=f"^{where} line 3: non-finite value$"):
            load_latents(bad)

    def test_latents_reject_repeated_ids(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("kind,id,v0\nuser,u1,1.0\nitem,u1,2.0\nuser,u1,3.0\n")
        where = re.escape(str(bad))
        with pytest.raises(DataError, match=f"^{where} line 4: repeated user id 'u1'$"):
            load_latents(bad)

    def test_attributes_reject_repeated_ids(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,age\nu1,25\nu2,25\nu1,30\n")
        where = re.escape(str(bad))
        with pytest.raises(DataError, match=f"^{where} line 4: repeated id 'u1'$"):
            load_attributes(bad)

    def test_lines_are_counted_through_a_quoted_line_break(self, tmp_path):
        latents = tmp_path / "latents.csv"
        latents.write_text('kind,id,v0\nuser,"u\n1",1.0\nitem,i1,x\n')
        where = re.escape(str(latents))
        with pytest.raises(DataError, match=f"^{where} line 4: non-numeric value$"):
            load_latents(latents)
        attrs = tmp_path / "attrs.csv"
        attrs.write_text('user_id,city\nu1,"two\nlines"\nu1,Paris\n')
        where = re.escape(str(attrs))
        with pytest.raises(DataError, match=f"^{where} line 4: repeated id 'u1'$"):
            load_attributes(attrs)

    def test_attributes_reject_a_column_named_twice(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("user_id,age,city,age\nu1,25,Paris,30\n")
        where = re.escape(str(bad))
        with pytest.raises(DataError, match=f"^{where}: header names column 'age' twice$"):
            load_attributes(bad)

    def test_fields_that_need_quoting_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        users = {"u,1": rng.normal(size=2), 'u"2': rng.normal(size=2)}
        items = {"i\n1": rng.normal(size=2)}
        path = tmp_path / "latents.csv"
        save_latents(path, users, items)
        table, _ = load_latents(path)
        assert table.users.keys() == users.keys() and table.items.keys() == items.keys()
        for k, v in users.items():
            np.testing.assert_array_equal(table.user_raw(k), v)
        attrs = {
            "u,1": {"city": "Paris, FR", "note": 'say "hi"'},
            "u2": {"city": "two\nlines", "note": "carriage\rreturn"},
        }
        path = tmp_path / "attrs.csv"
        save_attributes(path, attrs, "user_id")
        assert load_attributes(path) == attrs

    @PROPERTY
    @given(st.lists(st.text('a,"\n\r', max_size=3), min_size=1, max_size=3, unique=True),
           st.dictionaries(st.text('a,"\n\r', max_size=3),
                           st.lists(st.text('a,"\n\r', max_size=3), min_size=3,
                                    max_size=3), min_size=1, max_size=4))
    def test_written_bytes_are_csv_writers(self, tmp_path_factory, fields, values):
        # rows joined as they are must be what csv.writer writes, and read back
        table = {key: dict(zip(fields, vs)) for key, vs in values.items()}
        path = tmp_path_factory.mktemp("attrs") / "attrs.csv"
        save_attributes(path, table, "id")
        fields.sort()
        rows = [["id", *fields], *([key, *map(table[key].get, fields)] for key in sorted(table))]
        cr = any("\r" in field for row in rows for field in row)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n",
                   quoting=csv.QUOTE_ALL if cr else csv.QUOTE_MINIMAL).writerows(rows)
        assert path.read_bytes() == out.getvalue().encode()
        assert load_attributes(path) == table

    def test_attributes_round_trip(self, tmp_path):
        table = {
            "u1": {"age": "25", "gender": "F"},
            "u2": {"age": "3", "gender": "M"},
        }
        path = tmp_path / "attrs.csv"
        save_attributes(path, table, "user_id")
        assert load_attributes(path) == table
        fields = attribute_fields(table)
        assert fields == [("age", ["25", "3"]), ("gender", ["F", "M"])]


class TestTheFirstFailingCheckIsReported:
    """A row or line that fails several checks reports the first in reading
    order, and a repeat counts only between rows with no other problem, as
    in the per-row readers of ``tests/oracles.py``."""

    @pytest.mark.parametrize("rows, problems", [
        ("u1,,s1,x\n", "1 malformed rows: line 2: label 'x' is not a number"),
        ("u1,i1,s1,x\nu1,i1,s1,1\nu1,i1,s1,0\n",
         "2 malformed rows: line 2: label 'x' is not a number; "
         "line 4: duplicate of line 3 (user=u1, item=i1)"),
    ], ids=["bad_label_and_empty_id", "repeat_of_a_failed_row"])
    def test_interaction_rows(self, tmp_path, rows, problems):
        path = tmp_path / "x.csv"
        path.write_text("user_id,item_id,shop_id,label\n" + rows, encoding="utf-8")
        for load in (load_interactions, load_interactions_per_row):
            with pytest.raises(DataError) as err:
                load(path)
            assert str(err.value) == f"{path}: {problems}"

    @pytest.mark.parametrize("rows, problem", [
        ("item,i1,1\nplanet,p1,x\n", "line 3: non-numeric value"),
        ("user,u1,1\nitem,i1,nan\nuser,u1,2\n", "line 3: non-finite value"),
    ], ids=["non_numeric_and_unknown_kind", "repeat_after_a_bad_line"])
    def test_latent_lines(self, tmp_path, rows, problem):
        path = tmp_path / "latents.csv"
        path.write_text("kind,id,v0\n" + rows, encoding="utf-8")
        for load in (load_latents, load_latents_per_line):
            with pytest.raises(DataError) as err:
                load(path)
            assert str(err.value) == f"{path} {problem}"


class TestSynthetic:
    def test_partition_and_new_shops(self):
        spec = SyntheticSpec(seed=3)
        data = generate_synthetic(spec)
        train_set, test_set = set(data.train), set(data.test)
        assert not train_set & test_set
        assert len(data.new_shops) == spec.n_new_shops
        train_shops = {r.shop_id for r in data.train}
        test_shops = {r.shop_id for r in data.test}
        for s in data.new_shops:
            assert s not in train_shops
            assert s in test_shops
        assert len(train_shops) == spec.n_shops - spec.n_new_shops

    def test_every_shop_reaches_minimum_size(self):
        spec = SyntheticSpec(seed=4, min_shop_size=30)
        data = generate_synthetic(spec)
        sizes = Counter(r.shop_id for r in [*data.train, *data.test])
        assert len(sizes) == spec.n_shops
        assert min(sizes.values()) >= 30

    def test_power_law_concentrates_interactions(self):
        data = generate_synthetic(SyntheticSpec(seed=0, pareto_exponent=0.6))
        sizes = sorted(
            Counter(r.shop_id for r in [*data.train, *data.test]).values(),
            reverse=True,
        )
        top = math.ceil(0.25 * len(sizes))
        assert sum(sizes[:top]) / sum(sizes) > 0.6

    def test_bitwise_determinism(self):
        a = generate_synthetic(SyntheticSpec(seed=11))
        b = generate_synthetic(SyntheticSpec(seed=11))
        assert list(a.train) == list(b.train) and list(a.test) == list(b.test)
        for k in a.features.users:
            np.testing.assert_array_equal(
                a.features.users[k], b.features.users[k]
            )
        c = generate_synthetic(SyntheticSpec(seed=12))
        assert list(a.train) != list(c.train)

    def test_timestamps_unique_and_split_temporal(self):
        data = generate_synthetic(SyntheticSpec(seed=5))
        everything = [*data.train, *data.test]
        stamps = [r.timestamp for r in everything]
        assert len(set(stamps)) == len(stamps)
        last_train = {}
        first_test = {}
        for r in data.train:
            last_train[r.shop_id] = max(last_train.get(r.shop_id, -1), r.timestamp)
        for r in data.test:
            first_test[r.shop_id] = min(
                first_test.get(r.shop_id, 1 << 60), r.timestamp
            )
        for s, last in last_train.items():
            assert last < first_test[s]

    def test_records_carry_genres_and_binary_labels(self):
        data = generate_synthetic(SyntheticSpec(seed=6))
        everything = [*data.train, *data.test]
        labels = {r.label for r in everything}
        assert labels == {0.0, 1.0}
        genres = {r.genre_l3 for r in everything}
        assert None not in genres and len(genres) >= 2
        # every item lives in exactly one shop
        item_shop = {}
        for r in everything:
            assert item_shop.setdefault(r.item_id, r.shop_id) == r.shop_id

    def test_latent_tables_complete_and_persistable(self, tmp_path):
        spec = SyntheticSpec(seed=7, n_users=40, n_items=30, n_shops=5,
                             interactions_per_shop=80, n_new_shops=1)
        data = generate_synthetic(spec)
        assert len(data.features.users) == 40
        assert len(data.features.items) == 30
        assert len(data.shop_effects) == 5
        assert all(v.shape == (spec.latent_dim,) for v in data.shop_effects.values())
        path = tmp_path / "latents.csv"
        save_latents(path, data.features.users, data.features.items,
                     data.shop_effects)
        table, shops = load_latents(path)
        for k, v in data.features.items.items():
            np.testing.assert_array_equal(table.item_raw(k), v)
        some_shop = sorted(data.shop_effects)[0]
        np.testing.assert_array_equal(
            shops[some_shop], data.shop_effects[some_shop]
        )

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_new_shops=20, n_shops=20)
        with pytest.raises(ConfigError):
            SyntheticSpec(test_fraction=1.5)
        with pytest.raises(ConfigError):
            SyntheticSpec(n_items=5, n_shops=10)


class TestMl1mConversion:
    def write_fake(self, src):
        src.mkdir()
        (src / "movies.dat").write_text(
            "1::Toy Story (1995)::Animation|Children's\n"
            "2::Old Film (1990)::Drama\n"
            "3::New Film (1999)::Drama\n"
            "4::No Year Film::Comedy\n"
            "5::Frontier (2000)::Western\n",
            encoding="latin-1",
        )
        (src / "users.dat").write_text(
            "1::F::25::10::55117\n2::M::35::7::02139\n", encoding="latin-1"
        )
        (src / "ratings.dat").write_text(
            "1::1::5::978300760\n"
            "1::3::4::978300761\n"
            "2::2::3::978300762\n"
            "2::5::2::978300763\n"
            "1::99::5::978300764\n",
            encoding="latin-1",
        )

    def test_conversion(self, tmp_path):
        src = tmp_path / "ml-1m"
        out = tmp_path / "out"
        self.write_fake(src)
        counts = convert_ml1m(src, out, train_before_year=1998)
        assert counts == {
            "train_records": 2,
            "test_records": 2,
            "holdout_shops": 1,
            "movies_without_year": 1,
            "ratings_without_movie": 1,
        }
        train = load_interactions(out / "train.csv")
        test = load_interactions(out / "test.csv")
        assert {r.item_id for r in train} == {"m1", "m2"}
        assert {r.shop_id for r in train} == {"Animation", "Drama"}
        assert {r.shop_id for r in test} == {"Drama", "Western"}
        assert all(r.genre_l3 == r.shop_id for r in [*train, *test])
        assert {r.label for r in train} == {5.0, 3.0}
        users = load_attributes(out / "user_attrs.csv")
        assert users["u1"]["zip_region"] == "5"
        items = load_attributes(out / "item_attrs.csv")
        assert items["m5"]["year"] == "2000"

    @pytest.mark.parametrize("year,train,test", [
        (1998,
         "u1,m1,Animation,5.0,978300760,Animation\nu2,m2,Drama,3.0,978300762,Drama\n",
         "u1,m3,Drama,4.0,978300761,Drama\nu2,m5,Western,2.0,978300763,Western\n"),
        (1990, None,
         "u1,m1,Animation,5.0,978300760,Animation\nu1,m3,Drama,4.0,978300761,Drama\n"
         "u2,m2,Drama,3.0,978300762,Drama\nu2,m5,Western,2.0,978300763,Western\n"),
    ], ids=["both_periods", "all_in_test_period"])
    def test_written_bytes(self, tmp_path, year, train, test):
        """Every byte of the four files; an empty split is its bare header."""
        src = tmp_path / "ml-1m"
        self.write_fake(src)
        convert_ml1m(src, tmp_path / "out", train_before_year=year)
        full = "user_id,item_id,shop_id,label,timestamp,genre_l3\n"
        assert {p.name: p.read_text() for p in (tmp_path / "out").iterdir()} == {
            "train.csv": full + train if train else "user_id,item_id,shop_id,label\n",
            "test.csv": full + test,
            "user_attrs.csv": "user_id,age,gender,occupation,zip_region\n"
                              "u1,25,F,10,5\nu2,35,M,7,0\n",
            "item_attrs.csv": "item_id,genre,year\n"
                              "m1,Animation,1995\nm2,Drama,1990\nm3,Drama,1999\nm5,Western,2000\n",
        }

    def test_explicit_holdout(self, tmp_path):
        src = tmp_path / "ml-1m"
        out = tmp_path / "out"
        self.write_fake(src)
        convert_ml1m(src, out, holdout_shops=["Drama"], train_before_year=1998)
        train = load_interactions(out / "train.csv")
        assert {r.shop_id for r in train} == {"Animation"}

    def test_missing_source(self, tmp_path):
        with pytest.raises(DataError, match="ratings.dat"):
            convert_ml1m(tmp_path, tmp_path / "out")

    def test_fallback_holdout_takes_the_three_least_rated_new_genres(self, tmp_path):
        """Every genre has a movie before 1998, so the holdout falls back to
        the three genres with the fewest ratings of later movies: Comedy and
        Horror (1 each), then Drama over Western (2 each, by name). Musical,
        with no later rating, is not counted at all."""
        src = tmp_path / "ml-1m"
        src.mkdir()
        genres = ["Action", "Comedy", "Drama", "Horror", "Western"]
        movies = [f"{2 * k + 1}::Old (199{k})::{g}\n{2 * k + 2}::New (1999)::{g}|Drama\n"
                  for k, g in enumerate(genres)]
        (src / "movies.dat").write_text("".join(movies) + "11::Old (1995)::Musical\n",
                                        encoding="latin-1")
        (src / "users.dat").write_text(
            "".join(f"{u}::F::25::10::55117\n" for u in (1, 2, 3)), encoding="latin-1")
        # movie: its ratings (by users 1, 2, ...), Western's first in time
        later = {10: 2, 8: 1, 6: 2, 4: 1, 2: 3}
        ratings = [(u, m) for m, n in later.items() for u in range(1, n + 1)]
        ratings += [(1, m) for m in (1, 3, 5, 7, 9, 11)]
        (src / "ratings.dat").write_text(
            "".join(f"{u}::{m}::4::{978300000 + k}\n" for k, (u, m) in enumerate(ratings)),
            encoding="latin-1")
        counts = convert_ml1m(src, tmp_path / "out", train_before_year=1998)
        assert counts["holdout_shops"] == 3
        train = load_interactions(tmp_path / "out" / "train.csv")
        test = load_interactions(tmp_path / "out" / "test.csv")
        assert {r.shop_id for r in train} == {"Action", "Musical", "Western"}
        assert Counter(r.shop_id for r in test) == {
            "Action": 3, "Comedy": 2, "Drama": 3, "Horror": 2, "Western": 2}
        assert counts["train_records"] + counts["test_records"] == len(ratings)

    @pytest.mark.parametrize("title", ["Caf\x85 (1995)", "Form\x0cfeed (1995)",
                                       "Odd\x0b\x1c\x1d\x1e (1995)"])
    def test_a_title_may_hold_what_splitlines_breaks_at(self, tmp_path, title):
        """Only a line feed ends a line: not NEL (latin-1 byte 0x85), a form
        feed, a vertical tab or a file, group or record separator."""
        src = tmp_path / "ml-1m"
        self.write_fake(src)
        movies = src / "movies.dat"
        movies.write_bytes(movies.read_bytes().replace(b"Toy Story (1995)",
                                                       title.encode("latin-1")))
        assert convert_ml1m(src, tmp_path / "out", train_before_year=1998)["train_records"] == 2
        items = load_attributes(tmp_path / "out" / "item_attrs.csv")
        assert items["m1"] == {"year": "1995", "genre": "Animation"}

    def test_a_crlf_dump_converts_as_its_lf_twin(self, tmp_path):
        outputs = []
        for name, ending in (("lf", b"\n"), ("crlf", b"\r\n")):
            src = tmp_path / name / "ml-1m"
            src.parent.mkdir()
            self.write_fake(src)
            for dat in src.iterdir():
                dat.write_bytes(dat.read_bytes().replace(b"\n", ending))
            convert_ml1m(src, tmp_path / name / "out", train_before_year=1998)
            outputs.append({p.name: p.read_bytes() for p in (tmp_path / name / "out").iterdir()})
        assert outputs[0] == outputs[1] and len(outputs[0]) == 4

    def test_repeated_rating_names_both_lines(self, tmp_path):
        src = tmp_path / "ml-1m"
        self.write_fake(src)
        ratings = src / "ratings.dat"
        ratings.write_text("1::1::5::978300760\n1::1::3::978300760\n", "latin-1")
        with pytest.raises(DataError) as err:
            convert_ml1m(src, tmp_path / "out")
        assert str(err.value) == (
            f"{ratings} line 2: duplicate of {ratings} line 1 (user 1, movie 1)"
        )
        assert not (tmp_path / "out").exists()


def small_table() -> Interactions:
    """Three rows over two users, one item and one shop."""
    return Interactions(np.array([1.0, 0.0, 2.5]), {
        "user_id": (np.array([1, 0, 1]), ["u0", "u1"]),
        "item_id": (np.zeros(3, dtype=np.int32), ["i0"]),
        "shop_id": (np.zeros(3, dtype=np.int32), ["s0"]),
        "timestamp": (np.arange(3), [3, None, -1]),
        "genre_l3": (np.array([0, 1, 0]), ["g", None]),
    })


@pytest.fixture
def built(monkeypatch):
    """What builds records, in order: each ``records_at`` call's row count,
    and "init" for each record made through the constructor."""
    built = []
    records_at = Interactions.records_at
    monkeypatch.setattr(
        Interactions, "records_at",
        lambda self, rows: built.append(len(rows)) or records_at(self, rows),
    )
    init = InteractionRecord.__init__
    monkeypatch.setattr(
        InteractionRecord, "__init__",
        lambda self, *a, **k: built.append("init") or init(self, *a, **k),
    )
    return built


class TestInteractionsTable:
    def test_reads_as_its_records(self, tmp_path):
        table = small_table()
        records = [
            InteractionRecord("u1", "i0", "s0", 1.0, 3, "g"),
            InteractionRecord("u0", "i0", "s0", 0.0, None, None),
            InteractionRecord("u1", "i0", "s0", 2.5, -1, "g"),
        ]
        assert len(table) == 3 and list(table) == records
        assert table[1] == records[1] and table[-1] == records[2]
        assert table[1:] == records[1:] and table[::-1] == records[::-1]
        assert records[2] in table and table.index(records[2]) == 2
        with pytest.raises(IndexError):
            table[3]
        # a missing timestamp stays apart from a real -1, in records and in files
        assert [r.timestamp for r in table] == [3, None, -1]
        save_interactions(tmp_path / "a.csv", table)
        save_interactions(tmp_path / "b.csv", records)
        text = (tmp_path / "a.csv").read_text()
        assert text == (tmp_path / "b.csv").read_text()
        assert text.splitlines()[2:] == ["u0,i0,s0,0.0,,", "u1,i0,s0,2.5,-1,g"]

    def test_of_codes_a_record_list(self):
        """A record list becomes a checked table of equal records, coded in
        order of first appearance; a table is returned as it is."""
        records = [rec("v", "i", "s", 1), rec("u", "i", "s", 0), rec("v", "j", "s", 2)]
        table = Interactions.of(records)
        assert list(table) == records
        assert table.column("user_id")[0].tolist() == [0, 1, 0]
        assert Interactions.of(table) is table
        table = small_table()
        assert Interactions.of(table) is table
        bad = dataclasses.replace(records[0])
        object.__setattr__(bad, "item_id", 7)  # past the record's own check
        with pytest.raises(DataError, match="^item_id must be a non-empty string, got 7$"):
            Interactions.of([records[0], bad])

    @pytest.mark.parametrize(
        "field, part, at, value, message",
        [
            ("label", None, 1, np.nan, "label must be finite and >= 0, got nan"),
            ("label", None, 2, -1.0, "label must be finite and >= 0, got -1.0"),
            ("user_id", 1, 0, "", "user_id must be a non-empty string, got ''"),
            ("shop_id", 1, 0, 7, "shop_id must be a non-empty string, got 7"),
            ("item_id", 0, 0, 1, "item_id needs one code per label into its values"),
            ("item_id", 0, 0, -1, "item_id needs one code per label into its values"),
            ("genre_l3", None, None, (np.zeros(2, int), ["g"]), "genre_l3 needs one code"),
            ("timestamp", None, None, (np.zeros(3), [1]), "timestamp needs one code"),
            ("label", None, None, np.ones((3, 1)), "user_id needs one code"),
        ],
        ids=["nan_label", "negative_label", "empty_id", "int_id", "code_past_the_end",
             "negative_code", "short_codes", "float_codes", "label_matrix"],
    )
    def test_checks_its_columns_once(self, field, part, at, value, message):
        """A label is checked per row, an id per value, a code for its range.

        ``part`` 0 changes a code, 1 a value; with no ``at`` the whole column
        is replaced."""
        label = np.array([1.0, 0.0, 2.5])
        columns = {
            "user_id": (np.array([1, 0, 1]), ["u0", "u1"]),
            "item_id": (np.zeros(3, dtype=np.int64), ["i0"]),
            "shop_id": (np.zeros(3, dtype=np.int64), ["s0"]),
            "timestamp": (np.arange(3), [3, None, -1]),
            "genre_l3": (np.zeros(3, dtype=np.int64), ["g"]),
        }
        if field == "label":
            if at is None:
                label = value
            else:
                label[at] = value
        elif at is None:
            columns[field] = value
        else:
            columns[field][part][at] = value
        with pytest.raises(DataError, match=f"^{re.escape(message)}"):
            Interactions(label, columns)

    def test_pooled_training_builds_no_record(self, built):
        """generate_synthetic -> classify_shops -> nonmeta_train reads columns only."""
        from metashop.metaopt import MetaConfig, nonmeta_train
        from metashop.models import ModelKind, build_model, pretrained_encoder

        spec = SyntheticSpec(seed=1, n_users=40, n_items=30, n_shops=5,
                             interactions_per_shop=40, n_new_shops=1)
        data = generate_synthetic(spec)
        stats = classify_shops(data.train, data.test)
        enc = pretrained_encoder(spec.latent_dim)
        model = build_model(ModelKind.MESH_I, enc, enc, [4], 0, sigmoid_output=True)
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=1)
        nonmeta_train(model, data.train, data.features, cfg, epochs=1, batch_size=16)
        assert built == [] and stats.taxonomy
        # the counters see records built on demand
        assert data.test[0] == list(data.test)[0]
        assert built == [1, len(data.test)]


# each way of reading a build_tasks task, which must build its call's records
FIRST_READS = {
    "support": lambda t: t.support,
    "query": lambda t: t.query,
    "eq": lambda t: t == t,
    "hash": hash,
    "repr": repr,
    "pickle": pickle.dumps,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": lambda t: dataclasses.replace(t, size_class=SizeClass.SMALL),
}


# every way a task comes to be, from build_tasks' tasks and the shop stats
TASK_FORMS = {
    "built": lambda tasks, stats: tasks,
    "hand_built": lambda tasks, stats: [ShopTask(t.shop_id, t.support, t.query) for t in tasks],
    "replaced": lambda tasks, stats: [dataclasses.replace(t, query=t.query[1:]) for t in tasks],
    "copied": lambda tasks, stats: list(map(copy.copy, tasks)),
    "deep_copied": lambda tasks, stats: copy.deepcopy(tasks),
    "pickled": lambda tasks, stats: pickle.loads(pickle.dumps(tasks)),
    "sized": lambda tasks, stats: attach_size_classes(tasks, stats, False),
}


class TestTaskRecordsOnFirstRead:
    def test_meta_training_builds_no_record(self, built):
        """generate_synthetic -> build_tasks -> meta_train and meta_inference
        resolve tasks from their table split, never from records."""
        from metashop.metaopt import MetaConfig, meta_inference, meta_train
        from metashop.models import ModelKind, build_model, pretrained_encoder

        spec = SyntheticSpec(seed=1, n_users=40, n_items=30, n_shops=5,
                             interactions_per_shop=40, n_new_shops=1)
        data = generate_synthetic(spec)
        train, test = (build_tasks(split, min_interactions=6, support_size=3, seed=2)
                       for split in (data.train, data.test))
        enc = pretrained_encoder(spec.latent_dim)
        model = build_model(ModelKind.MESH, enc, enc, [4], 0, sigmoid_output=True)
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=1, shop_batch_size=2,
                         query_batch_size=4, support_size=3)
        trained, history = meta_train(model, train, data.features, cfg, 6)
        adapted = meta_inference(trained, test, data.features, cfg)
        assert built == [] and len(history.losses) == 6 and len(adapted) == len(test) > 1

    @pytest.mark.parametrize("which", [0, -1], ids=["first_task", "last_task"])
    @pytest.mark.parametrize("read", FIRST_READS.values(), ids=FIRST_READS)
    def test_the_first_read_builds_the_whole_call_at_once(self, built, read, which):
        records = spread_records()
        built.clear()
        tasks = build_tasks(records, min_interactions=13, support_size=10)
        assert built == [] and len(tasks) == 4
        read(tasks[which])
        sides = [(t.support, t.query) for t in tasks]
        assert built == [sum(len(t.split[1]) + len(t.split[2]) for t in tasks)]
        for (support, query), t in zip(sides, tasks):
            table, support_rows, query_rows = t.split
            assert type(support) is type(query) is tuple
            assert (support, query) == (
                tuple(table.records_at(support_rows)), tuple(table.records_at(query_rows)))

    def test_built_tasks_act_as_hand_built_ones(self):
        """Equality, hash, repr, pickling, copies and replace, each on tasks
        no one has read yet, match build_tasks_set_split's ShopTask(...) ones."""
        records = spread_records(seed=6)
        hand = build_tasks_set_split(records, 13, 10, 3)
        assert all(len(t.split[0]) == len(t.support) + len(t.query) for t in hand)

        def fresh():
            return build_tasks(records, 13, 10, 3)

        assert fresh() == hand and hand == fresh()
        assert list(map(hash, fresh())) == list(map(hash, hand))
        assert list(map(repr, fresh())) == list(map(repr, hand))
        tasks = fresh()
        copies = [pickle.loads(pickle.dumps(fresh())), copy.deepcopy(fresh()),
                  list(map(copy.copy, fresh()))]
        for copied in copies:
            assert copied == hand
            for t, original in zip(copied, tasks):
                assert type(t.support) is type(t.query) is tuple
                assert "_records" not in vars(t)
                assert [rows.tolist() for rows in t.split[1:]] == [
                    rows.tolist() for rows in original.split[1:]]
        for t, h in zip(fresh(), hand):
            assert dataclasses.replace(t, size_class=SizeClass.LARGE) == dataclasses.replace(
                h, size_class=SizeClass.LARGE)
        stats = classify_shops(records, [])
        assert attach_size_classes(fresh(), stats, False) == attach_size_classes(
            hand, stats, False)

    @pytest.mark.parametrize("make", TASK_FORMS.values(), ids=TASK_FORMS)
    def test_every_task_holds_a_split_of_its_records(self, make):
        records = spread_records(seed=6)
        tasks = make(build_tasks(records, 13, 10, 3), classify_shops(records, []))
        assert len(tasks) == 4
        for t in tasks:
            table, support_rows, query_rows = t.split
            assert (tuple(table.records_at(support_rows)),
                    tuple(table.records_at(query_rows))) == (t.support, t.query)

    def test_sized_copies_share_the_table(self):
        records = spread_records(seed=6)
        tasks = build_tasks(records, 13, 10, 3)
        for t, sized in zip(tasks, attach_size_classes(tasks, classify_shops(records, []), False)):
            want = dataclasses.replace(t, size_class=sized.size_class)
            assert sized.split[0] is t.split[0] and sized.size_class is not None
            assert sized == want and hash(sized) == hash(want)

    def test_a_table_with_equal_records_fails_at_the_same_task(self):
        """Shops b and c each hold one record 13 times; b fails first, on a
        table as on a record list. Shop a's rows tie on every sort key in
        pairs (another genre, or a missing timestamp against a real -1) but
        hold no equal records, so it builds as by hand."""
        shop_a = [rec(f"u{k}", "i", "a", 1.0, -1, g) for k in range(6) for g in ("g", None)]
        shop_a += [rec("v", "i", "a", 2.0, None), rec("v", "i", "a", 2.0, -1)]
        records = shop_a + [rec("u", "i", "c", 1.0, 5, "g")] * 13
        records += [rec("u", "i", "b", 1.0, 5, "g")] * 13
        want = "task 'b' has overlapping support/query"
        for given_ in (records, Interactions.of(records), table_of(records)):
            with pytest.raises(DataError) as err:
                build_tasks(given_, 13, 10, 0)
            assert str(err.value) == want
        with pytest.raises(DataError, match=f"^{want}$"):
            build_tasks_set_split(records, 13, 10, 0)
        for given_ in (shop_a, table_of(shop_a)):
            assert build_tasks(given_, 13, 10, 0) == build_tasks_set_split(shop_a, 13, 10, 0)
