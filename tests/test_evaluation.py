"""End-to-end scoring pipeline checks with oracle and random scorers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from metashop.datapipe import InteractionRecord, ShopTask, SizeClass
from metashop import evaluation
from metashop.errors import DataError
from metashop.evaluation import (
    CandidatePool,
    EvalOptions,
    QueryMode,
    evaluate_tasks,
    infer_query_mode,
    recall_name,
    resolve_k,
    score_matrix,
)
from metashop.metrics import RecallMode
from metashop.models import (
    ModelKind,
    baseline_score_matrix,
    baseline_user_reps,
    build_baseline,
    build_categorical_encoder,
    build_model,
    feature_rows,
    prepare_batch,
    pretrained_encoder,
)

from metashop.numcore import mlp_forward_trace

from oracles import (
    item_queries_per_record,
    mae_loop,
    ndcg_oracle,
    predict_scores,
    rank_candidates,
    recall_oracle,
)


def mapped(model, x) -> np.ndarray:
    """One item's features through the baseline's item mapper."""
    return mlp_forward_trace(model.item_mapper, np.asarray(x)[None, :])[0][0]


@dataclass(frozen=True)
class DictFeatures:
    users: dict
    items: dict

    def user_raw(self, user_id):
        return self.users[user_id]

    def item_raw(self, item_id):
        return self.items[item_id]


@dataclass(frozen=True)
class Rec:
    user_id: str
    item_id: str
    shop_id: str = "s"
    label: float = 1.0


def irec(u, i, s, y):
    return InteractionRecord(u, i, s, float(y))


def binary_world(n_users=20, n_shops=3, items_per_shop=4, pos_per_item=3, seed=0):
    """Every item gets a known positive-user set; the rest of the pool is 0."""
    rng = np.random.default_rng(seed)
    pool = [f"u{k:02d}" for k in range(n_users)]
    tasks = []
    positives = {}
    for s in range(n_shops):
        shop = f"s{s}"
        query = []
        for j in range(items_per_shop):
            item = f"i{s}_{j}"
            chosen = rng.choice(n_users, size=pos_per_item, replace=False)
            positives[item] = {pool[c] for c in chosen}
            for c in chosen:
                query.append(irec(pool[c], item, shop, 1.0))
            # one explicit observed negative per item
            neg = next(k for k in range(n_users) if k not in chosen)
            query.append(irec(pool[neg], item, shop, 0.0))
        support = [irec(pool[0], f"sup{s}", shop, 1.0)]
        tasks.append(ShopTask(shop, support, query))
    return pool, tasks, positives


class TestOracleScorers:
    def test_label_oracle_reaches_perfect_scores(self):
        pool, tasks, positives = binary_world()

        def oracle(users, items):
            return np.array(
                [[1.0 if u in positives[i] else 0.0 for i in items] for u in users]
            )

        options = EvalOptions(recall_ks=(0.5,), ndcg_ks=(3,), include_mae=True)
        report = evaluate_tasks(oracle, tasks, None, options, user_pool=pool)
        recall = report.metrics["recall@0.5"]
        assert recall.item_level == 1.0
        assert recall.shop_mean == 1.0
        assert recall.shop_variance == 0.0
        assert recall.n_skipped == 0
        ndcg = report.metrics["ndcg@3"]
        assert ndcg.item_level == 1.0
        assert report.counts["ndcg_degenerate"] == 0
        assert report.metrics["mae"].item_level == 0.0
        assert report.counts["tasks"] == len(tasks)
        assert report.metrics["recall@0.5"].exceedance["0.8"] == 1.0

    def test_random_scores_hit_half_recall_at_half_pool(self):
        pool, tasks, _ = binary_world(n_users=40, n_shops=4, items_per_shop=3,
                                      pos_per_item=4, seed=1)
        options = EvalOptions(recall_ks=(0.5,), ndcg_ks=(), include_mae=False)
        means = []
        for seed in range(20):
            rng = np.random.default_rng([seed, 99])

            def scorer(users, items):
                return rng.normal(size=(len(users), len(items)))

            report = evaluate_tasks(scorer, tasks, None, options, user_pool=pool)
            means.append(report.metrics["recall@0.5"].item_level)
        assert abs(float(np.mean(means)) - 0.5) < 0.05

    def test_bad_scorer_outputs_rejected(self):
        pool, tasks, _ = binary_world()
        options = EvalOptions(recall_ks=(1,), ndcg_ks=())
        with pytest.raises(DataError, match="shape"):
            evaluate_tasks(
                lambda u, i: np.zeros((1, 1)), tasks, None, options, user_pool=pool
            )
        with pytest.raises(DataError, match="cannot score"):
            evaluate_tasks(object(), tasks, None, options, user_pool=pool)


class TestScoreMatrix:
    def features(self, n_users, n_items, dim, seed):
        rng = np.random.default_rng(seed)
        return DictFeatures(
            {f"u{k}": rng.normal(size=dim) for k in range(n_users)},
            {f"i{k}": rng.normal(size=dim) for k in range(n_items)},
        )

    def test_two_tower_matches_per_pair_predictions(self):
        feats = self.features(7, 5, 3, 2)
        model = build_model(
            ModelKind.MESH, pretrained_encoder(3), pretrained_encoder(3), [4], 5,
            sigmoid_output=True,
        )
        users, items = sorted(feats.users), sorted(feats.items)
        mat = score_matrix(model, users, items, feats)
        pairs = [Rec(u, i) for u in users for i in items]
        batch = prepare_batch(pairs, feats, model.user_encoder, model.item_encoder)
        flat = predict_scores(model, batch).reshape(len(users), len(items))
        np.testing.assert_allclose(mat, flat, rtol=1e-10, atol=1e-12)

    def test_joint_matches_across_chunk_boundaries(self):
        n_users = 1500  # chunks of 2 items: 3 blocks over 5 items
        feats = self.features(n_users, 5, 2, 3)
        model = build_model(
            ModelKind.MESH_I, pretrained_encoder(2), pretrained_encoder(2), [3], 7
        )
        users, items = sorted(feats.users), sorted(feats.items)
        mat = score_matrix(model, users, items, feats)
        assert mat.shape == (n_users, 5)
        rng = np.random.default_rng(11)
        some_users = [users[k] for k in rng.choice(n_users, size=40, replace=False)]
        pairs = [Rec(u, i) for u in some_users for i in items]
        batch = prepare_batch(pairs, feats, model.user_encoder, model.item_encoder)
        flat = predict_scores(model, batch).reshape(len(some_users), len(items))
        rows = [users.index(u) for u in some_users]
        np.testing.assert_allclose(mat[rows], flat, rtol=1e-10, atol=1e-12)

    def test_baseline_matrix_and_reps(self):
        feats = self.features(0, 6, 2, 4)
        model = build_baseline(pretrained_encoder(2), [3], 8)
        items = sorted(feats.items)
        histories = {"u0": [items[0], items[1]], "u1": [items[2]], "cold": []}
        reps = baseline_user_reps(model, histories, feats, ["u0", "u1", "cold"])
        mat = baseline_score_matrix(model, reps, ["u0", "u1", "cold"], items, feats)
        for r, u in enumerate(["u0", "u1", "cold"]):
            for c, i in enumerate(items):
                want = -np.linalg.norm(reps[u] - mapped(model, feats.item_raw(i)))
                assert mat[r, c] == pytest.approx(want, rel=1e-10, abs=1e-12)
        # the cold user's representation is the catalog mean of mapped items
        catalog = sorted({i for h in histories.values() for i in h})
        rows = np.stack([mapped(model, feats.item_raw(i)) for i in catalog])
        np.testing.assert_allclose(reps["cold"], rows.mean(axis=0), rtol=1e-12)

    def test_baseline_requires_histories_in_pipeline(self):
        # a baseline is evaluated through a scorer bound to its training
        # histories (cli._evaluate_model); the bare model is not a scorer
        pool, tasks, _ = binary_world()
        model = build_baseline(pretrained_encoder(2), [3], 9)
        options = EvalOptions(recall_ks=(1,), ndcg_ks=())
        feats = self.features(20, 0, 2, 5)
        with pytest.raises(DataError, match="^cannot score with a BaselineModel$"):
            evaluate_tasks(model, tasks, feats, options, user_pool=pool)


class TestItemMode:
    def test_query_semantics_and_errors(self):
        pool, tasks, positives = binary_world(n_shops=1)
        options = EvalOptions(recall_ks=(1,), ndcg_ks=(3,))
        const = lambda users, items: np.zeros((len(users), len(items)))
        report = evaluate_tasks(const, tasks, None, options, user_pool=pool)
        # one query per distinct item in the shop's test records
        assert report.counts["queries"] == 4
        with pytest.raises(DataError, match="user_pool"):
            evaluate_tasks(const, tasks, None, options)
        with pytest.raises(DataError, match="missing from the candidate pool"):
            evaluate_tasks(const, tasks, None, options, user_pool=pool[:2])

    def test_observed_pool_uses_only_test_users(self):
        pool, tasks, positives = binary_world(n_shops=1)
        options = EvalOptions(
            recall_ks=(1,), ndcg_ks=(), include_mae=False,
            candidate_pool=CandidatePool.OBSERVED,
        )
        seen_pools = []

        def spy(users, items):
            seen_pools.append(tuple(users))
            return np.zeros((len(users), len(items)))

        evaluate_tasks(spy, tasks, None, options)
        expected = sorted({r.user_id for r in tasks[0].query})
        assert seen_pools == [tuple(expected)]

    def test_per_shop_model_mapping(self):
        pool, tasks, positives = binary_world(n_shops=2)

        def oracle(users, items):
            return np.array(
                [[1.0 if u in positives[i] else 0.0 for i in items] for u in users]
            )

        zero = lambda users, items: np.zeros((len(users), len(items)))
        options = EvalOptions(recall_ks=(0.5,), ndcg_ks=(), include_mae=False)
        report = evaluate_tasks(
            {"s0": oracle, "s1": zero}, tasks, None, options, user_pool=pool
        )
        per_shop = report.metrics["recall@0.5"].per_shop
        assert per_shop["s0"] == 1.0
        assert per_shop["s1"] < 1.0
        with pytest.raises(DataError, match="no model supplied"):
            evaluate_tasks({"s0": oracle}, tasks, None, options, user_pool=pool)

    def test_class_breakdown_flows_through(self):
        pool, tasks, positives = binary_world(n_shops=3)
        classes = {
            "s0": SizeClass.NEW,
            "s1": SizeClass.SMALL,
            "s2": SizeClass.LARGE,
        }
        options = EvalOptions(recall_ks=(1,), ndcg_ks=(), include_mae=False)
        zero = lambda users, items: np.zeros((len(users), len(items)))
        report = evaluate_tasks(
            zero, tasks, None, options, shop_classes=classes, user_pool=pool
        )
        assert set(report.by_class) == {"new", "small", "large"}
        assert report.counts["shops_new"] == 1


class TestUserShopMode:
    def test_rating_semantics_by_hand(self):
        ratings = {"a": 5.0, "b": 2.0, "c": 4.0}
        scores = {"a": 0.1, "b": 0.9, "c": 0.5}
        task = ShopTask(
            "shop",
            [irec("ux", "sup", "shop", 3.0)],
            [irec("u1", i, "shop", y) for i, y in sorted(ratings.items())],
        )

        def scorer(users, items):
            return np.array([[scores[i] for i in items] for _ in users])

        options = EvalOptions(
            recall_ks=(2,), ndcg_ks=(3,), include_mae=True,
            rating_positive_threshold=4.0,
        )
        report = evaluate_tasks(scorer, [task], None, options)
        assert report.counts["queries"] == 1  # one (user, shop) cell
        ranked = ["b", "c", "a"]
        want_ndcg = ndcg_oracle(ranked, ratings, 3)
        assert report.metrics["ndcg@3"].item_level == pytest.approx(
            want_ndcg, rel=1e-12
        )
        # relevant = rating >= 4 -> {a, c}; top-2 = {b, c} -> 1/2
        assert report.metrics["recall@2"].item_level == pytest.approx(0.5)
        want_mae = (4.9 + 1.1 + 3.5) / 3
        assert report.metrics["mae"].item_level == pytest.approx(want_mae)

    def test_duplicate_item_keeps_best_rating(self):
        task = ShopTask(
            "shop",
            [irec("uy", "sup", "shop", 3.0)],
            [
                InteractionRecord("u1", "a", "shop", 2.0, 1),
                InteractionRecord("u1", "a", "shop", 5.0, 2),
                InteractionRecord("u1", "b", "shop", 3.0, 3),
            ],
        )
        top_a = lambda users, items: np.array(
            [[1.0 if i == "a" else 0.0 for i in items] for _ in users]
        )
        options = EvalOptions(recall_ks=(1,), ndcg_ks=(), include_mae=False)
        report = evaluate_tasks(top_a, [task], None, options)
        # "a" resolves to rating 5 -> relevant; ranked first -> recall 1
        assert report.metrics["recall@1"].item_level == 1.0

    def test_mode_inference_and_override(self):
        _, binary_tasks, _ = binary_world(n_shops=1)
        assert infer_query_mode(binary_tasks) is QueryMode.ITEM
        rating_task = ShopTask(
            "shop",
            [irec("u9", "sup", "shop", 1.0)],
            [irec("u1", "a", "shop", 3.5)],
        )
        assert infer_query_mode([rating_task]) is QueryMode.USER_SHOP
        scorer = lambda users, items: np.zeros((len(users), len(items)))
        options = EvalOptions(
            recall_ks=(1,), ndcg_ks=(), include_mae=False,
            query_mode=QueryMode.USER_SHOP,
        )
        report = evaluate_tasks(scorer, binary_tasks, None, options)
        # forced USER_SHOP: queries are (user, shop) cells, not items
        users_in_query = {r.user_id for r in binary_tasks[0].query}
        assert report.counts["queries"] == len(users_in_query)


class TestHelpers:
    def test_resolve_k(self):
        assert resolve_k(0.1, 200) == 20
        assert resolve_k(0.1, 5) == 1
        assert resolve_k(0.26, 10) == 3
        assert resolve_k(3, 2) == 2
        assert resolve_k(5.0, 100) == 5

    def test_recall_name(self):
        assert recall_name(0.1) == "recall@0.1"
        assert recall_name(3) == "recall@3"
        assert recall_name(5.0) == "recall@5"

    def test_empty_tasks_rejected(self):
        with pytest.raises(DataError):
            evaluate_tasks(lambda u, i: None, [], None, EvalOptions())


def oracle_k(k: float, n: int) -> int:
    if k < 1:
        return min(n, max(1, math.ceil(k * n)))
    return min(n, int(k))


class TestOracleAgreement:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_query_value_matches_the_oracles(self, data):
        mode = data.draw(st.sampled_from(list(QueryMode)))
        n_users = data.draw(st.integers(1, 12))
        # string order of these ids is not their numeric order
        users = [f"u{j}" for j in range(n_users)]
        labels = [0.0, 1.0] if mode is QueryMode.ITEM else [0.0, 1.0, 2.5, 4.0, 5.0]
        # few distinct scores, so ties are common; 0.0 and -0.0 tie
        score = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]),
            st.floats(min_value=-10.0, max_value=10.0),
        )
        tasks, table = [], {}
        for s in range(data.draw(st.integers(1, 3))):
            shop = f"s{s}"
            items = [f"i{s}_{j}" for j in range(data.draw(st.integers(1, 4)))]
            records = data.draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(users),
                        st.sampled_from(items),
                        st.sampled_from(labels),
                    ),
                    min_size=1,
                    max_size=16,
                )
            )
            query = [irec(u, i, shop, y) for u, i, y in records]
            support = [irec("support_user", "support_item", shop, 1.0)]
            tasks.append(ShopTask(shop, support, query))
            for u in users:
                for i in items:
                    table[u, i] = data.draw(score)

        def scorer(us, its):
            return np.array([[table[u, i] for i in its] for u in us])

        recall_ks = (
            data.draw(st.integers(1, n_users + 2)),
            data.draw(st.sampled_from([0.1, 0.26, 0.5, 0.9])),
        )
        options = EvalOptions(
            recall_ks=recall_ks,
            ndcg_ks=(data.draw(st.integers(1, 5)),),
            recall_mode=data.draw(st.sampled_from(list(RecallMode))),
            rating_positive_threshold=data.draw(st.sampled_from([0.0, 2.5, 4.0])),
            candidate_pool=data.draw(st.sampled_from(list(CandidatePool))),
            query_mode=mode,
        )
        # unsorted, with one id repeated
        user_pool = data.draw(st.permutations(users))
        user_pool = [*user_pool, data.draw(st.sampled_from(users))]

        with mock.patch.object(
            evaluation, "aggregate", wraps=evaluation.aggregate
        ) as spy:
            report = evaluate_tasks(scorer, tasks, None, options, user_pool=user_pool)
        got = spy.call_args.args[0]

        want = []
        for task in tasks:
            if mode is QueryMode.ITEM:
                if options.candidate_pool is CandidatePool.ALL_USERS:
                    cands = set(user_pool)
                else:
                    cands = {r.user_id for r in task.query}
                keys = sorted({r.item_id for r in task.query})
                for item in keys:
                    recs = [r for r in task.query if r.item_id == item]
                    scores = {u: table[u, item] for u in cands}
                    gains = {r.user_id: 1.0 for r in recs if r.label > 0}
                    relevant = set(gains)
                    want.append(
                        (f"{task.shop_id}:{item}", scores, gains, relevant, recs)
                    )
            else:
                for user in sorted({r.user_id for r in task.query}):
                    recs = [r for r in task.query if r.user_id == user]
                    scores = {r.item_id: table[user, r.item_id] for r in recs}
                    gains = {i: 0.0 for i in scores}
                    for r in recs:
                        gains[r.item_id] = max(gains[r.item_id], r.label)
                    relevant = {
                        i for i, g in gains.items()
                        if g >= options.rating_positive_threshold
                    }
                    want.append(
                        (f"{task.shop_id}:{user}", scores, gains, relevant, recs)
                    )

        assert [q.query_id for q in got] == [w[0] for w in want]
        divide_by_k = options.recall_mode is RecallMode.TOPK_FRACTION
        for q, (_, scores, gains, relevant, recs) in zip(got, want):
            ranked = rank_candidates(scores)
            for k in recall_ks:
                assert q.values[recall_name(k)] == recall_oracle(
                    ranked, relevant, oracle_k(k, len(ranked)), divide_by_k
                )
            for k in options.ndcg_ks:
                assert q.values[f"ndcg@{k}"] == ndcg_oracle(ranked, gains, k)
            preds = [table[r.user_id, r.item_id] for r in recs]
            assert q.values["mae"] == pytest.approx(
                mae_loop(preds, [r.label for r in recs]), rel=0, abs=1e-12
            )
        degenerate = sum(1 for w in want if not any(g > 0 for g in w[2].values()))
        assert report.counts["ndcg_degenerate"] == degenerate


class TestItemQueryOracle:
    """The array pass of ``_item_queries`` against the per-record loop."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_record_loop(self, data):
        n_users = data.draw(st.integers(1, 10))
        users = [f"u{j}" for j in range(n_users)]
        items = [f"i{j}" for j in range(data.draw(st.integers(1, 5)))]
        records = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(users),
                    st.sampled_from(items),
                    st.sampled_from([0.0, 1.0]),
                ),
                min_size=1,
                max_size=20,
            )
        )
        # the same (user, item) cell labelled 1 then 0, and 0 then 1
        u, i = data.draw(st.sampled_from(users)), data.draw(st.sampled_from(items))
        records += [(u, i, 1.0), (u, i, 0.0), (users[0], i, 0.0), (users[0], i, 1.0)]
        records = data.draw(st.permutations(records))
        query = [irec(u, i, "s", y) for u, i, y in records]
        task = ShopTask("s", [irec("sup_u", "sup_i", "s", 1.0)], query)
        # pools that may lack test users, and hold users with no record
        dropped = data.draw(st.sets(st.sampled_from(users), max_size=2))
        kept = [u for u in users if u not in dropped]
        extra = [f"x{j}" for j in range(data.draw(st.integers(0 if kept else 1, 3)))]
        candidates = evaluation._indexed(kept + extra)
        table = {
            (u, i): data.draw(st.sampled_from([0.0, -0.0, 0.5, 1.0]))
            for u in candidates[0]
            for i in items
        }
        calls = []

        def scorer(us, its):
            calls.append(len(us))
            return np.array([[table[u, i] for i in its] for u in us])

        outcomes = []
        for build in (evaluation._item_queries, item_queries_per_record):
            try:
                outcomes.append(build(scorer, task, None, candidates))
            except DataError as exc:
                outcomes.append(str(exc))
        got, want = outcomes
        missing = [r.user_id for r in query if r.user_id in dropped]
        event(f"missing user: {bool(missing)}")
        if missing:
            text = f"test user {missing[0]!r} is missing from the candidate pool"
            assert got == want == text
            assert calls == [len(candidates[0])] * 2  # both score first
            return
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()
        assert len(got[3]) == len(want[3]) == len(got[0])
        for (preds, labels), (want_preds, want_labels) in zip(got[3], want[3]):
            assert np.array(preds).tobytes() == np.array(want_preds).tobytes()
            assert labels == want_labels
        # without MAE the per-item grouping is skipped and nothing else moves
        bare = evaluation._item_queries(scorer, task, None, candidates, None, False)
        assert bare[0] == got[0] and bare[3] == []
        assert bare[1].tobytes() == got[1].tobytes() == bare[2].tobytes()

        # the whole report is unchanged with the loop in place
        for include_mae in (True, False):
            options = EvalOptions(
                recall_ks=(1, 0.5), ndcg_ks=(1, 3), include_mae=include_mae
            )
            fast = evaluate_tasks(
                scorer, [task], None, options, user_pool=candidates[0]
            )
            with mock.patch.object(
                evaluation,
                "_item_queries",
                lambda model, task, features, cands, *_: item_queries_per_record(
                    model, task, features, cands
                ),
            ):
                slow = evaluate_tasks(
                    scorer, [task], None, options, user_pool=candidates[0]
                )
            assert fast == slow


@dataclass
class CountingFeatures:
    """DictFeatures that counts ``user_raw`` lookups."""

    users: dict
    items: dict
    user_calls: int = 0

    def user_raw(self, user_id):
        self.user_calls += 1
        return self.users[user_id]

    def item_raw(self, item_id):
        return self.items[item_id]


class TestPoolResolution:
    """How often ``evaluate_tasks`` resolves the shared user pool's rows."""

    def world(self, categorical: bool):
        pool, tasks, _ = binary_world(n_users=20, n_shops=3)
        rng = np.random.default_rng(4)
        items = sorted({r.item_id for t in tasks for r in t.query})
        if categorical:
            users = {
                u: {"band": "ab"[k % 2], "tier": "xyz"[k % 3]}
                for k, u in enumerate(pool)
            }
            user_enc = build_categorical_encoder(
                [("band", ["a", "b"]), ("tier", ["x", "y", "z"])], 3, 5
            )
        else:
            users = {u: rng.normal(size=3) for u in pool}
            user_enc = pretrained_encoder(3)
        feats = CountingFeatures(users, {i: rng.normal(size=3) for i in items})
        model = build_model(ModelKind.MESH, user_enc, pretrained_encoder(3), [4], 6)
        return pool, tasks, feats, model

    def adapted(self, model, tasks):
        # a changed vector per shop, as meta_inference hands back
        return {
            t.shop_id: model.at(model.vector * (1.0 + 0.1 * k))
            for k, t in enumerate(tasks)
        }

    def resolutions(self, models, pool, tasks, feats) -> float:
        options = EvalOptions(recall_ks=(1,), ndcg_ks=(3,))
        evaluate_tasks(models, tasks, feats, options, user_pool=pool)
        return feats.user_calls / len(pool)

    def test_one_shared_model_resolves_once(self):
        pool, tasks, feats, model = self.world(categorical=False)
        assert self.resolutions(model, pool, tasks, feats) == 1

    def test_adapted_models_sharing_a_pretrained_encoder_resolve_once(self):
        pool, tasks, feats, model = self.world(categorical=False)
        models = self.adapted(model, tasks)
        assert len({id(m.user_encoder) for m in models.values()}) == 1
        assert self.resolutions(models, pool, tasks, feats) == 1

    def test_adapted_categorical_encoders_resolve_per_shop(self):
        pool, tasks, feats, model = self.world(categorical=True)
        models = self.adapted(model, tasks)
        assert self.resolutions(models, pool, tasks, feats) == len(tasks)

    def test_callable_scorers_never_resolve(self):
        pool, tasks, feats, _ = self.world(categorical=False)
        zero = lambda users, items: np.zeros((len(users), len(items)))
        assert self.resolutions(zero, pool, tasks, feats) == 0

    def test_resolved_reports_match_per_call_resolution(self):
        # the report with rows resolved once equals one that resolves per call
        for categorical in (False, True):
            pool, tasks, feats, model = self.world(categorical)
            options = EvalOptions(recall_ks=(1, 0.5), ndcg_ks=(3,))
            for models in (model, self.adapted(model, tasks)):
                once = evaluate_tasks(models, tasks, feats, options, user_pool=pool)
                with mock.patch.object(
                    evaluation,
                    "score_matrix",
                    lambda m, u, i, f, user_rows=None: score_matrix(m, u, i, f),
                ):
                    each = evaluate_tasks(
                        models, tasks, feats, options, user_pool=pool
                    )
                assert once == each

    @pytest.mark.parametrize("kind", [ModelKind.MESH, ModelKind.MESH_I])
    def test_given_user_rows_score_byte_for_byte(self, kind):
        rng = np.random.default_rng(8)
        users = [f"u{k}" for k in range(30)]
        items = [f"i{k}" for k in range(7)]
        feats = DictFeatures(
            {u: rng.normal(size=3) for u in users},
            {i: rng.normal(size=2) for i in items},
        )
        model = build_model(kind, pretrained_encoder(3), pretrained_encoder(2), [4], 9)
        rows = feature_rows(model.user_encoder, map(feats.user_raw, users), "user")
        given_rows = score_matrix(model, users, items, feats, user_rows=rows)
        assert given_rows.tobytes() == score_matrix(model, users, items, feats).tobytes()
