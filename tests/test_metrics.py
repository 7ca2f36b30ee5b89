"""Metric worked examples, brute-force oracle agreement, and aggregation."""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop import metrics
from metashop.datapipe import SizeClass
from metashop.errors import ConfigError, DataError
from metashop.metrics import (
    EvaluationReport,
    MetricSummary,
    QueryMetrics,
    RankedPrediction,
    RecallMode,
    aggregate,
    load_report,
    mae,
    ndcg_at_k,
    ndcg_columns,
    rank_order,
    recall_at_k,
    recall_columns,
    report_from_json,
    report_tables,
    report_to_json,
    save_report,
)

from oracles import (
    ndcg_columns_full_sort,
    ndcg_oracle,
    rank_candidates,
    rank_order_stable,
    recall_oracle,
)


def pred(ranked, relevance, query="q", shop="s"):
    return RankedPrediction(query, shop, tuple(ranked), dict(relevance))


class TestWorkedExamples:
    def test_recall_modes_disagree_deliberately(self):
        # one relevant candidate ranked first, k=2:
        # standard 1/1, top-k fraction 1/2
        p = pred(["a", "b", "c"], {"a": 1.0})
        assert recall_at_k(p, 2, RecallMode.STANDARD) == 1.0
        assert recall_at_k(p, 2, RecallMode.TOPK_FRACTION) == 0.5

    def test_recall_counts_hits(self):
        p = pred(["a", "b", "c", "d"], {"a": 1.0, "c": 1.0, "d": 1.0})
        assert recall_at_k(p, 2, RecallMode.STANDARD) == pytest.approx(1 / 3)
        assert recall_at_k(p, 3, RecallMode.STANDARD) == pytest.approx(2 / 3)
        assert recall_at_k(p, 4, RecallMode.TOPK_FRACTION) == pytest.approx(3 / 4)

    def test_recall_none_when_no_relevant(self):
        p = pred(["a", "b"], {})
        assert recall_at_k(p, 1, RecallMode.STANDARD) is None
        assert recall_at_k(p, 1, RecallMode.TOPK_FRACTION) is None
        assert recall_columns(np.zeros((2, 1)), 1) == [None]

    def test_perfect_ndcg_is_exactly_one(self):
        p = pred(["a", "b", "c"], {"a": 3.0, "b": 2.0, "c": 1.0})
        assert ndcg_at_k(p, 3) == 1.0
        assert ndcg_at_k(p, 2) == 1.0

    def test_dcg_hand_computation(self):
        # gains 3,0,2 at ranks 1,2,3:
        # (2^3-1)/log2(2) + 0 + (2^2-1)/log2(4) = 7 + 1.5
        ideal = 7.0 + 3.0 / math.log2(3.0)
        assert ndcg_columns(np.array([[3.0], [0.0], [2.0]]), 3) == [
            pytest.approx(8.5 / ideal, rel=1e-12)
        ]
        p = pred(["a", "b", "c"], {"a": 3.0, "c": 2.0})
        assert ndcg_at_k(p, 3) == pytest.approx(8.5 / ideal, rel=1e-12)

    def test_zero_idcg_scores_zero(self):
        p = pred(["a", "b"], {})
        assert ndcg_at_k(p, 2) == 0.0

    def test_mae(self):
        assert mae([1.0, 2.0], [2.0, 4.0]) == pytest.approx(1.5)
        with pytest.raises(DataError):
            mae([1.0], [1.0, 2.0])

    def test_k_validation(self):
        p = pred(["a"], {"a": 1.0})
        for bad in (0, -1, 1.5):
            with pytest.raises(ConfigError):
                recall_at_k(p, bad)
            with pytest.raises(ConfigError):
                ndcg_at_k(p, bad)

    def test_ranked_prediction_validation(self):
        with pytest.raises(DataError):
            pred([], {})
        with pytest.raises(DataError):
            pred(["a", "a"], {})
        with pytest.raises(DataError):
            pred(["a"], {"b": 1.0})

    def test_from_scores_ties_break_by_id(self):
        p = RankedPrediction.from_scores(
            "q", "s", {"b": 1.0, "a": 1.0, "c": 2.0}, {}
        )
        assert p.ranked == ("c", "a", "b")


class TestOracleAgreement:
    def test_thousand_seeded_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(1000):
            n = int(rng.integers(1, 201))
            cands = [f"c{j}" for j in range(n)]
            scores = {c: float(rng.normal()) for c in cands}
            graded = rng.random() < 0.5
            relevance = {}
            for c in cands:
                if rng.random() < 0.3:
                    relevance[c] = (
                        float(rng.integers(1, 6)) if graded else 1.0
                    )
            k = int(rng.integers(1, n + 1))
            p = RankedPrediction.from_scores("q", "s", scores, relevance)
            ranked = rank_candidates(scores)
            assert list(p.ranked) == ranked
            relevant = {c for c, g in relevance.items() if g > 0}
            for divide_by_k, mode in (
                (False, RecallMode.STANDARD),
                (True, RecallMode.TOPK_FRACTION),
            ):
                got = recall_at_k(p, k, mode)
                want = recall_oracle(ranked, relevant, k, divide_by_k)
                if want is None:
                    assert got is None
                else:
                    assert got == pytest.approx(want, abs=1e-12)
            gains = {c: relevance.get(c, 0.0) for c in cands}
            assert ndcg_at_k(p, k) == pytest.approx(
                ndcg_oracle(ranked, gains, k), abs=1e-12
            )


    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_ties_and_signed_gains_match_the_oracles(self, data):
        n = data.draw(st.integers(1, 14))
        # ids whose string order is not their numeric order, inserted shuffled
        cands = [f"c{j}" for j in data.draw(st.permutations(range(n)))]
        # few distinct scores, so ties are common; 0.0 and -0.0 tie
        score = st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]),
            st.floats(allow_nan=False),
        )
        scores = {c: data.draw(score) for c in cands}
        # half the queries have no positive gain, so zeros lead the ideal order
        top = data.draw(st.sampled_from([0.0, 8.0]))
        gain = st.one_of(
            st.sampled_from([0.0, -0.0, -1.0, top]),
            st.floats(min_value=-8.0, max_value=top),
        )
        listed = data.draw(st.lists(st.sampled_from(cands), unique=True))
        relevance = {c: data.draw(gain) for c in listed}
        k = data.draw(st.integers(1, n + 3))
        p = RankedPrediction.from_scores("q", "s", scores, relevance)
        ranked = rank_candidates(scores)
        assert list(p.ranked) == ranked
        relevant = {c for c, g in relevance.items() if g > 0}
        assert recall_at_k(p, k) == recall_oracle(ranked, relevant, k, False)
        assert recall_at_k(p, k, RecallMode.TOPK_FRACTION) == recall_oracle(
            ranked, relevant, k, True
        )
        assert ndcg_at_k(p, k) == ndcg_oracle(ranked, relevance, k)


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])


def score_column(rng, n: int, kind: str) -> np.ndarray:
    """One score column of ``kind``; only "distinct" and "random" lack ties."""
    if kind == "distinct":
        return rng.permutation(n) * 0.25 - 3.0
    if kind == "random":
        return rng.normal(size=n)
    if kind == "special":
        return SPECIAL[rng.integers(len(SPECIAL), size=n)]
    if kind == "equal":
        return np.full(n, SPECIAL[rng.integers(len(SPECIAL))])
    col = rng.normal(size=n)  # "one_tie" or "one_nan": one flaw in distinct values
    if n > 1:
        col[rng.integers(1, n)] = col[0] if kind == "one_tie" else np.nan
    return col


KINDS = ("distinct", "random", "special", "equal", "one_tie", "one_nan")
# both sides of the size cut, and degenerate shapes
SHAPES = st.one_of(
    st.tuples(st.integers(0, 30), st.integers(0, 8)),
    st.tuples(st.integers(300, 420), st.integers(4, 12)),
    st.tuples(st.just(1), st.integers(0, 2000)),
    st.tuples(st.integers(0, 2500), st.just(1)),
    st.tuples(st.just(0), st.integers(0, 2000)),
)


def assert_same_order(scores: np.ndarray) -> None:
    before = scores.copy()
    got, want = rank_order(scores), rank_order_stable(scores)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert scores.tobytes() == before.tobytes()  # input untouched


class TestNdcgIdealTopK:
    """ndcg_columns partitions out the ideal top k; the full sort must agree."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 5), st.integers(1, 12), st.data())
    def test_matches_the_full_sort(self, n, m, k, data):
        # few distinct gains, so ties are common; some columns all zero
        gains = np.array(
            data.draw(st.lists(
                st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5]), min_size=m, max_size=m),
                min_size=n, max_size=n,
            )),
            dtype=np.float64,
        ).reshape(n, m)
        zero = data.draw(st.lists(st.integers(0, max(m - 1, 0)), max_size=2))
        gains[:, [j for j in zero if j < m]] = 0.0
        got = ndcg_columns(gains, k)
        assert np.array(got).tobytes() == np.array(ndcg_columns_full_sort(gains, k)).tobytes()


class TestRankOrder:
    """The column-wise fast path gives the one stable sort's order exactly."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        shape=SHAPES,
        kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        fast_everywhere=st.booleans(),
    )
    def test_matches_the_stable_sort(self, shape, kinds, seed, fast_everywhere):
        n, m = shape
        rng = np.random.default_rng(seed)
        scores = np.empty((n, m))
        for j in range(m):
            scores[:, j] = score_column(rng, n, kinds[j % len(kinds)])
        cut = 0 if fast_everywhere else metrics._FAST_RANK_MIN_SIZE
        with mock.patch.object(metrics, "_FAST_RANK_MIN_SIZE", cut):
            assert_same_order(scores)

    @pytest.mark.parametrize("cut", [0, metrics._FAST_RANK_MIN_SIZE])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0), (0, 2000), (1, 1)])
    def test_empty_and_single_inputs(self, cut, shape):
        with mock.patch.object(metrics, "_FAST_RANK_MIN_SIZE", cut):
            assert_same_order(np.zeros(shape))

    def test_tied_and_untied_columns_mixed_above_the_cut(self):
        rng = np.random.default_rng(5)
        scores = np.column_stack(
            [score_column(rng, 400, kind) for kind in KINDS * 2]
        )
        assert scores.size >= metrics._FAST_RANK_MIN_SIZE
        assert_same_order(scores)
        # the signed zeros tie: +0.0 at row 0 stays ahead of -0.0 at row 1
        scores[:2, 0] = [0.0, -0.0]
        scores[2:, 0] = -1.0
        assert rank_order(scores)[:2, 0].tolist() == [0, 1]
        scores[:2, 0] = [-0.0, 0.0]
        assert rank_order(scores)[:2, 0].tolist() == [0, 1]


def q(query, shop, **values):
    return QueryMetrics(query, shop, dict(values))


class TestAggregation:
    def test_two_level_means_by_hand(self):
        queries = [
            q("q1", "A", recall=1.0),
            q("q2", "A", recall=0.0),
            q("q3", "B", recall=1.0),
        ]
        report = aggregate(queries, thresholds=(0.5, 0.8))
        s = report.metrics["recall"]
        assert s.item_level == pytest.approx(2 / 3)
        assert s.per_shop == {"A": 0.5, "B": 1.0}
        assert s.shop_mean == pytest.approx(0.75)
        assert s.shop_variance == pytest.approx(0.0625)
        assert s.exceedance == {"0.5": 1.0, "0.8": 0.5}
        assert s.n_queries == 3 and s.n_skipped == 0
        assert report.counts == {"queries": 3, "shops": 2}

    def test_none_values_are_skipped_and_counted(self):
        queries = [
            q("q1", "A", recall=None),
            q("q2", "A", recall=1.0),
            q("q3", "B", recall=None),
        ]
        s = aggregate(queries).metrics["recall"]
        assert s.item_level == 1.0
        assert s.per_shop == {"A": 1.0}  # shop B had nothing defined
        assert s.n_queries == 3 and s.n_skipped == 2

    def test_all_skipped_gives_none_summary(self):
        s = aggregate([q("q1", "A", recall=None)]).metrics["recall"]
        assert s.item_level is None and s.shop_mean is None
        assert s.shop_variance is None
        assert s.exceedance == {}

    def test_class_breakdown(self):
        classes = {"A": SizeClass.NEW, "B": SizeClass.LARGE}
        queries = [
            q("q1", "A", ndcg=0.2),
            q("q2", "B", ndcg=0.8),
        ]
        report = aggregate(queries, shop_classes=classes)
        assert set(report.by_class) == {"new", "large"}
        assert report.by_class["new"]["ndcg"].shop_mean == pytest.approx(0.2)
        assert report.counts["shops_new"] == 1
        assert report.counts["shops_large"] == 1
        assert report.counts["shops_small"] == 0

    def test_population_variance_convention(self):
        queries = [q(f"q{i}", f"s{i}", m=v) for i, v in enumerate((0.1, 0.5, 0.9))]
        s = aggregate(queries).metrics["m"]
        assert s.shop_variance == pytest.approx(np.var([0.1, 0.5, 0.9]))

    def test_mixed_metric_names(self):
        queries = [q("q1", "A", recall=1.0), q("q2", "A", ndcg=0.5)]
        report = aggregate(queries)
        assert report.metrics["recall"].n_queries == 1
        assert report.metrics["ndcg"].n_queries == 1

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_aggregation_properties(self, data):
        names = ["recall", "ndcg", "mae"]
        # one shop drawn per query, so shops get uneven query counts
        shops = data.draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=14))
        queries = []
        for j, shop in enumerate(shops):
            present = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
            values = {n: data.draw(st.none() | st.floats(0.0, 1.0)) for n in present}
            queries.append(QueryMetrics(f"q{j}", shop, values))
        classes = data.draw(
            st.dictionaries(st.sampled_from("ABCDEF"), st.sampled_from(list(SizeClass)))
        )
        report = aggregate(queries, shop_classes=classes)

        def close(a, b):
            return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

        classified = {x.shop_id for x in queries if x.shop_id in classes}
        for name, s in report.metrics.items():
            rows = [x for x in queries if name in x.values]
            defined = [(x.shop_id, x.values[name]) for x in rows if x.values[name] is not None]
            assert (s.n_queries, s.n_skipped) == (len(rows), len(rows) - len(defined))
            if not defined:
                assert s.item_level is s.shop_mean is s.shop_variance is None
                continue
            assert close(s.item_level, sum(v for _, v in defined) / len(defined))
            within = {}
            for shop, v in defined:
                within.setdefault(shop, []).append(v)
            means = [sum(vs) / len(vs) for vs in within.values()]
            assert close(s.shop_mean, sum(means) / len(means))
            assert s.shop_variance >= 0.0

            seen: set[str] = set()
            n_queries = n_skipped = 0
            for cls, table in report.by_class.items():
                row = table[name]
                for shop, mean in row.per_shop.items():
                    assert classes[shop].value == cls and shop not in seen
                    assert mean == s.per_shop[shop]
                seen |= set(row.per_shop)
                n_queries += row.n_queries
                n_skipped += row.n_skipped
            assert seen == {shop for shop, _ in defined} & classified
            in_classified = [x for x in rows if x.shop_id in classified]
            assert n_queries == len(in_classified)
            assert n_skipped == sum(x.values[name] is None for x in in_classified)


values = st.floats(allow_nan=False, allow_infinity=False)
shop_ids = st.text(min_size=1, max_size=4)


@st.composite
def summaries(draw) -> MetricSummary:
    optional = st.none() | values
    return MetricSummary(
        draw(optional),
        draw(optional),
        draw(optional),
        draw(st.dictionaries(shop_ids, values, max_size=4)),
        draw(st.dictionaries(st.sampled_from(["0.5", "0.6", "0.8"]), values)),
        draw(st.integers(0, 10**6)),
        draw(st.integers(0, 10**6)),
    )


def metric_tables():
    names = st.sampled_from(["recall@0.1", "ndcg@3", "mae"])
    return st.dictionaries(names, summaries(), max_size=3)


@st.composite
def reports(draw) -> EvaluationReport:
    by_class = draw(
        st.dictionaries(st.sampled_from(["new", "small", "large"]), metric_tables())
    )
    counts = draw(st.dictionaries(st.text(max_size=8), st.integers(0, 10**9)))
    return EvaluationReport(draw(metric_tables()), by_class, counts)


class TestReportIO:
    def build(self):
        queries = [
            q("q1", "A", **{"recall@3": 1.0, "ndcg@3": 0.7}),
            q("q2", "B", **{"recall@3": None, "ndcg@3": 0.0}),
        ]
        classes = {"A": SizeClass.NEW, "B": SizeClass.SMALL}
        return aggregate(queries, shop_classes=classes, extra_counts={"extra": 7})

    def test_json_round_trip(self, tmp_path):
        report = self.build()
        assert report_from_json(report_to_json(report)) == report
        path = tmp_path / "report.json"
        save_report(path, report)
        assert load_report(path) == report
        # canonical serialisation: saving twice is byte-identical
        first = path.read_bytes()
        save_report(path, report)
        assert path.read_bytes() == first

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(reports())
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, report):
        path = tmp_path_factory.mktemp("report") / "report.json"
        save_report(path, report)
        first = path.read_bytes()
        save_report(path, load_report(path))
        assert path.read_bytes() == first

    def test_version_checked(self):
        obj = report_to_json(self.build())
        obj["format_version"] = 99
        with pytest.raises(DataError):
            report_from_json(obj)

    @pytest.mark.parametrize(
        "field,value",
        [("metrics", []), ("by_class", None), ("counts", {"queries": "many"})],
    )
    def test_malformed_field_is_a_data_error(self, field, value):
        obj = report_to_json(self.build())
        obj[field] = value
        with pytest.raises(DataError, match="unreadable report near field"):
            report_from_json(obj)

    def test_tables_contain_the_numbers(self):
        text = report_tables(self.build())
        assert "# metric summary" in text
        assert "recall@3\tall\t1.000000" in text
        assert "recall@3\tnew\t1.000000" in text
        assert "extra\t7" in text
        assert "# fraction of shops at or above threshold" in text
