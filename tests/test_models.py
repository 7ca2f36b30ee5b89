"""Encoder, model-bundle, and baseline checks (closed forms + FD oracles)."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metashop import models
from metashop.datapipe import (
    AttributeTable,
    FeatureTable,
    InteractionRecord,
    Interactions,
    SyntheticSpec,
    attribute_fields,
    generate_synthetic,
    load_attributes,
    load_latents,
    save_attributes,
    save_latents,
)
from metashop.errors import (
    ColdUserError,
    DataError,
    EmptyBatchError,
    OutOfVocabularyError,
    ShapeError,
)
from metashop.models import (
    BaselineModel,
    EncoderMode,
    FeatureEncoder,
    FieldSpec,
    ModelKind,
    baseline_loss_and_grad,
    baseline_score_matrix,
    baseline_user_reps,
    build_baseline,
    build_categorical_encoder,
    build_model,
    encode,
    feature_rows,
    model_loss_and_grad,
    prepare_batch,
    pretrained_encoder,
)
from metashop.evaluation import score_matrix
from metashop.numcore import (
    LossKind,
    ModelVariant,
    init_mlp,
    mlp_forward_trace,
    sgd_step,
    tree_allclose,
    tree_leaves,
    tree_map,
)

from oracles import (
    central_fd_grad,
    feature_rows_per_row,
    grads_close,
    predict_scores,
    prepare_batch_per_record,
    table_of,
)


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
    label: float


class TestEncoders:
    def test_categorical_concatenates_table_rows(self):
        enc = build_categorical_encoder(
            [("color", ["red", "blue"]), ("size", ["s", "m", "l"])], 2, 5
        )
        vec = encode(enc, (0, 1))
        want = np.concatenate([enc.tables["color"][0], enc.tables["size"][1]])
        np.testing.assert_array_equal(vec, want)
        by_name = encode(enc, {"color": "red", "size": "m"})
        np.testing.assert_array_equal(by_name, want)

    def test_out_of_vocabulary(self):
        enc = build_categorical_encoder([("color", ["red", "blue"])], 2, 5)
        with pytest.raises(OutOfVocabularyError):
            encode(enc, {"color": "green"})
        with pytest.raises(OutOfVocabularyError):
            encode(enc, (2,))
        with pytest.raises(OutOfVocabularyError):
            encode(enc, {"shade": "red"})
        with pytest.raises(OutOfVocabularyError):
            encode(enc, {"color": ["red"]})  # unhashable, so not a category

    def test_tree_utilities_skip_the_vocabulary(self):
        enc = build_categorical_encoder([("color", ["red", "blue"])], 2, 5)
        doubled = tree_map(lambda a: 2.0 * a, enc)
        assert doubled.fields is enc.fields
        np.testing.assert_array_equal(
            doubled.tables["color"], 2.0 * enc.tables["color"]
        )
        assert len(tree_leaves(enc)) == 1

    def test_pretrained_passthrough_and_dim_check(self):
        enc = pretrained_encoder(3)
        np.testing.assert_array_equal(encode(enc, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="2 dims, expected 3"):
            encode(enc, [1.0, 2.0])

    def test_zero_dim_side_is_allowed(self):
        enc = pretrained_encoder(0)
        assert encode(enc, np.zeros(0)).shape == (0,)

    def test_encoder_validation(self):
        with pytest.raises(ShapeError):
            FieldSpec("f", ("a", "a"))
        with pytest.raises(ShapeError):
            FeatureEncoder(EncoderMode.CATEGORICAL, 4)
        with pytest.raises(ShapeError):
            FeatureEncoder(
                EncoderMode.CATEGORICAL,
                5,  # wrong total dim
                (FieldSpec("f", ("a", "b")),),
                {"f": np.zeros((2, 4))},
            )


class TestRecModel:
    def make(self, kind=ModelKind.MESH, sigmoid=False, seed=3):
        enc_u = pretrained_encoder(3)
        enc_i = pretrained_encoder(2)
        return build_model(kind, enc_u, enc_i, [4, 3], seed, sigmoid_output=sigmoid)

    def features(self, rng):
        users = {f"u{i}": rng.normal(size=3) for i in range(6)}
        items = {f"i{i}": rng.normal(size=2) for i in range(4)}
        return DictFeatures(users, items)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            build_model(
                ModelKind.MESH, pretrained_encoder(3), pretrained_encoder(2), [], 0
            )
        enc = pretrained_encoder(3)
        scorer_model = build_model(ModelKind.MESH, enc, enc, [4], 0)
        # mixing kind and scorer variant directly is rejected
        from metashop.models import RecModel

        with pytest.raises(ShapeError):
            RecModel(ModelKind.MESH_I, enc, enc, scorer_model.scorer)

    def test_prepare_batch_pretrained(self):
        rng = np.random.default_rng(0)
        feats = self.features(rng)
        model = self.make()
        recs = [Rec("u0", "i0", 1.0), Rec("u1", "i2", 0.0)]
        batch = prepare_batch(recs, feats, model.user_encoder, model.item_encoder)
        assert batch.size == 2
        np.testing.assert_array_equal(batch.user_rows[1], feats.users["u1"])
        with pytest.raises(EmptyBatchError):
            prepare_batch([], feats, model.user_encoder, model.item_encoder)
        with pytest.raises(DataError, match="item features have 2 dims, expected 3"):
            prepare_batch(recs, feats, model.user_encoder, pretrained_encoder(3))

    @pytest.mark.parametrize("kind", [ModelKind.MESH, ModelKind.MESH_I])
    def test_gradients_match_fd_with_embedding_tables(self, kind):
        rng = np.random.default_rng(77)
        enc_u = build_categorical_encoder(
            [("age", ["a", "b", "c"]), ("region", ["x", "y"])], 2, 10
        )
        enc_i = build_categorical_encoder([("genre", ["g0", "g1", "g2"])], 3, 11)
        model = build_model(kind, enc_u, enc_i, [4], 12, sigmoid_output=True)
        users = {f"u{i}": (i % 3, i % 2) for i in range(5)}
        items = {f"i{i}": (i % 3,) for i in range(4)}
        feats = DictFeatures(users, items)
        recs = [
            Rec(f"u{rng.integers(5)}", f"i{rng.integers(4)}", float(rng.integers(2)))
            for _ in range(6)
        ]
        batch = prepare_batch(recs, feats, enc_u, enc_i)
        _, grads = model_loss_and_grad(model, batch, LossKind.BCE)

        def fd_loss(tree):
            return model_loss_and_grad(tree, batch, LossKind.BCE)[0]

        fd = central_fd_grad(fd_loss, model)
        assert grads_close(grads, fd)

    def test_pred_penalty_value_and_gradient(self):
        rng = np.random.default_rng(8)
        model = self.make(sigmoid=True)
        feats = self.features(rng)
        recs = [Rec(f"u{i}", f"i{i % 4}", float(i % 2)) for i in range(5)]
        batch = prepare_batch(recs, feats, model.user_encoder, model.item_encoder)
        base, _ = model_loss_and_grad(model, batch, LossKind.SQUARED)
        gamma = 0.3
        # option-1 style penalty: gamma * (1 - mean(pred))
        with_pen, grads = model_loss_and_grad(
            model, batch, LossKind.SQUARED, pred_penalty=(-gamma, gamma)
        )
        mean_pred = float(np.mean(predict_scores(model, batch)))
        assert math.isclose(with_pen, base + gamma * (1.0 - mean_pred), rel_tol=1e-12)

        def fd_loss(tree):
            return model_loss_and_grad(
                tree, batch, LossKind.SQUARED, pred_penalty=(-gamma, gamma)
            )[0]

        assert grads_close(grads, central_fd_grad(fd_loss, model))

    def test_sgd_step_works_on_whole_bundle(self):
        rng = np.random.default_rng(4)
        enc_u = build_categorical_encoder([("f", ["a", "b"])], 2, 1)
        enc_i = pretrained_encoder(2)
        model = build_model(ModelKind.MESH, enc_u, enc_i, [3], 2)
        feats = DictFeatures({"u0": (0,), "u1": (1,)}, {"i0": rng.normal(size=2)})
        batch = prepare_batch(
            [Rec("u0", "i0", 1.0), Rec("u1", "i0", 0.0)], feats, enc_u, enc_i
        )
        _, grads = model_loss_and_grad(model, batch, LossKind.SQUARED)
        stepped = sgd_step(model, grads, 0.1)
        assert not tree_allclose(model, stepped)
        # untouched table rows stay identical
        np.testing.assert_array_equal(
            stepped.user_encoder.tables["f"].shape, model.user_encoder.tables["f"].shape
        )


USER_FIELDS = [("age", ["a", "b", "c"]), ("region", ["x", "y"])]
ITEM_FIELDS = [("genre", ["g0", "g1", "g2", "g3"])]


def feature_setup(kind, n_users, n_items, seed):
    """(features, user encoder, item encoder) over ids u0.. and i0.."""
    rng = np.random.default_rng(seed)
    if kind == "pretrained":
        # lists, flat arrays and (1, d) arrays all resolve to flat float rows
        forms = (list, np.asarray, lambda v: np.asarray(v)[None, :])
        users = {f"u{j}": forms[j % 3](rng.normal(size=3)) for j in range(n_users)}
        items = {f"i{j}": forms[j % 3](rng.normal(size=2)) for j in range(n_items)}
        return FeatureTable(users, items), pretrained_encoder(3), pretrained_encoder(2)
    enc_u = build_categorical_encoder(USER_FIELDS, 2, seed)
    enc_i = build_categorical_encoder(ITEM_FIELDS, 3, seed + 1)
    if kind == "mapping":
        users = {
            f"u{j}": {"region": "xy"[j % 2], "age": "abc"[(j * 7) % 3]}
            for j in range(n_users)
        }
        items = {f"i{j}": {"genre": f"g{(j * 5) % 4}"} for j in range(n_items)}
        return AttributeTable(users, items), enc_u, enc_i
    users = {f"u{j}": ((j * 7) % 3, j % 2) for j in range(n_users)}
    items = {f"i{j}": [np.int64((j * 5) % 4)] for j in range(n_items)}
    return DictFeatures(users, items), enc_u, enc_i


def raised(fn, *args):
    """(type, message) of the exception ``fn(*args)`` raises."""
    with pytest.raises(Exception) as err:
        fn(*args)
    return type(err.value), str(err.value)


def with_user(feats, user_id, raw):
    return type(feats)({**feats.users, user_id: raw}, feats.items)


def with_item(feats, item_id, raw):
    return type(feats)(feats.users, {**feats.items, item_id: raw})


# (name, feature setup, record (user, item) pairs, change to the features,
# expected exception type)
BAD_BATCHES = [
    ("empty", "pretrained", [], None, EmptyBatchError),
    ("unknown_user", "pretrained", [("u0", "i0"), ("u9", "i1")], None, DataError),
    ("unknown_item", "pretrained", [("u0", "i0"), ("u1", "i9")], None, DataError),
    (
        "unknown_user_after_unknown_item",
        "pretrained",
        [("u0", "i0"), ("u1", "i9"), ("u9", "i0"), ("u8", "i8")],
        None,
        DataError,
    ),
    (
        "first_of_two_unknown_users",
        "mapping",
        [("u0", "i0"), ("u9", "i0"), ("u8", "i1"), ("u9", "i1")],
        None,
        DataError,
    ),
    (
        "oov_category",
        "mapping",
        [("u0", "i0"), ("u1", "i1"), ("u0", "i1")],
        lambda f: with_item(f, "i1", {"genre": "g9"}),
        OutOfVocabularyError,
    ),
    (
        "oov_index_after_oov_item",
        "indices",
        [("u0", "i1"), ("u1", "i0")],
        lambda f: with_item(with_user(f, "u1", (3, 0)), "i1", [7]),
        OutOfVocabularyError,
    ),
    (
        "unknown_item_before_bad_user_category",
        "mapping",
        [("u0", "i0"), ("u1", "i0"), ("u2", "i5")],
        lambda f: with_user(f, "u1", {"age": "z", "region": "x"}),
        DataError,
    ),
    (
        "wrong_pretrained_width",
        "pretrained",
        [("u0", "i0"), ("u1", "i1"), ("u0", "i0")],
        lambda f: FeatureTable(f.users, {k: np.zeros(4) for k in f.items}),
        DataError,
    ),
    (
        "ragged_pretrained_rows",
        "pretrained",
        [("u0", "i0"), ("u1", "i1"), ("u0", "i0")],
        lambda f: with_user(f, "u1", np.zeros(4)),
        DataError,
    ),
    (
        "bad_id_first_seen_late",
        "indices",
        [(f"u{j % 3}", f"i{j % 2}") for j in range(40)] + [("u1", "i7"), ("u0", "i1")],
        None,
        KeyError,
    ),
    (
        "bad_category_first_seen_late",
        "mapping",
        [(f"u{j % 2}", f"i{j // 2 % 2}") for j in range(40)]
        + [("u2", "i0"), ("u0", "i1")],
        lambda f: with_user(f, "u2", {"age": "a", "region": "q"}),
        OutOfVocabularyError,
    ),
]


class TestPrepareBatch:
    """prepare_batch resolves each distinct id once; the per-record oracle
    resolves every record. Batches and errors must be the same, whether
    prepare_batch gets the records or an ``Interactions`` table of them."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.sampled_from(["pretrained", "mapping", "indices"]),
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 2**16),
        st.data(),
    )
    def test_matches_per_record_oracle(self, kind, n_users, n_items, seed, data):
        feats, enc_u, enc_i = feature_setup(kind, n_users, n_items, seed)
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_users - 1),
                    st.integers(0, n_items - 1),
                    st.sampled_from([0.0, 1.0, 0.25, 1]),
                ),
                min_size=1,
                max_size=60,
            )
        )
        recs = [Rec(f"u{u}", f"i{i}", y) for u, i, y in pairs]
        want = prepare_batch_per_record(recs, feats, enc_u, enc_i)
        for given_as in (recs, table_of(recs)):
            got = prepare_batch(given_as, feats, enc_u, enc_i)
            for name in ("labels", "user_rows", "item_rows"):
                a, b = getattr(got, name), getattr(want, name)
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "kind, pairs, change, expected", [c[1:] for c in BAD_BATCHES],
        ids=[c[0] for c in BAD_BATCHES],
    )
    def test_errors_match_per_record_oracle(self, kind, pairs, change, expected):
        feats, enc_u, enc_i = feature_setup(kind, 3, 2, 5)
        if change is not None:
            feats = change(feats)
        recs = [Rec(u, i, 1.0) for u, i in pairs]
        got = raised(prepare_batch, recs, feats, enc_u, enc_i)
        assert got == raised(prepare_batch_per_record, recs, feats, enc_u, enc_i)
        assert got == raised(prepare_batch, table_of(recs), feats, enc_u, enc_i)
        assert got[0] is expected


# record (user, item) pairs every feature setup resolves, ids repeated
GOOD_PAIRS = [("u0", "i0"), ("u1", "i1"), ("u0", "i1"), ("u2", "i0"), ("u1", "i1")]


def batch_or_error(records, feats, enc_u, enc_i):
    """(dtype, shape, bytes) of each Batch array, or the (type, message) raised."""
    try:
        batch = prepare_batch(records, feats, enc_u, enc_i)
    except Exception as err:
        return type(err), str(err)
    return [(a.dtype, a.shape, a.tobytes())
            for a in (batch.labels, batch.user_rows, batch.item_rows)]


class TestPrepareBatchOnRecordsAndTheirTable:
    """A record tuple's fields, read directly, give the batch and the first
    error of ``Interactions.of`` the same records."""

    @pytest.mark.parametrize(
        "kind, pairs, change",
        [(kind, GOOD_PAIRS, None) for kind in ("pretrained", "mapping", "indices")]
        + [c[1:4] for c in BAD_BATCHES],
        ids=["pretrained", "mapping", "indices"] + [c[0] for c in BAD_BATCHES],
    )
    def test_same_batch_bytes_or_same_error(self, kind, pairs, change):
        feats, enc_u, enc_i = feature_setup(kind, 3, 2, 5)
        if change is not None:
            feats = change(feats)
        recs = tuple(InteractionRecord(u, i, "s", (0.0, 1.0, 0.25)[k % 3], k)
                     for k, (u, i) in enumerate(pairs))
        got = batch_or_error(recs, feats, enc_u, enc_i)
        assert got == batch_or_error(Interactions.of(recs), feats, enc_u, enc_i)
        assert isinstance(got, list) == (change is None and pairs is GOOD_PAIRS)


def outcome(fn, *args):
    """(dtype, shape, bytes) of the array ``fn(*args)`` returns, or the
    (type, message) of what it raises."""
    try:
        out = fn(*args)
    except Exception as err:
        return type(err), str(err)
    return out.dtype, out.shape, out.tobytes()


FLOAT_FORMS = {
    "flat_float": lambda v: np.asarray(v, dtype=np.float64),
    "flat_int": lambda v: np.asarray(np.round(v * 4), dtype=np.int64),
    "list": list,
    "row_array": lambda v: np.asarray(v)[None, :],
}

CAT_ENCODER = build_categorical_encoder(USER_FIELDS, 2, 0)
CAT_FORMS = ("dict", "proxy", "indices", "index_list")
CAT_FAULTS = (None, "missing", "first_bad", "second_bad")


def cat_raw(form, age, region, fault):
    """A USER_FIELDS raw in ``form``. A mapping's fault drops the second
    field, makes the first unknown or the second unhashable; an index
    sequence's is one index short or an out-of-range first or second."""
    if form in ("dict", "proxy"):
        good = {"age": age, "region": region}
        raw = {
            "missing": {"age": age},
            "first_bad": {**good, "age": "z"},
            "second_bad": {**good, "region": ["x"]},
        }.get(fault, good)
        return MappingProxyType(raw) if form == "proxy" else raw
    idx = ("abc".index(age), "xy".index(region))
    idx = {"missing": idx[:1], "first_bad": (7, idx[1]), "second_bad": (idx[0], 5)}.get(
        fault, idx
    )
    return idx if form == "indices" else [np.int64(v) for v in idx]


class TestFeatureRows:
    """feature_rows converts a side in one copy; the per-row oracle converts
    one raw at a time. Rows and errors must be the same."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 6), st.integers(0, 2**16), st.data())
    def test_pretrained_matches_per_row_oracle(self, dim, n, seed, data):
        rng = np.random.default_rng(seed)
        names = sorted(FLOAT_FORMS)
        forms = data.draw(st.one_of(
            st.sampled_from(names).map(lambda f: [f] * n),
            st.lists(st.sampled_from(names), min_size=n, max_size=n),
        ))
        widths = data.draw(st.one_of(
            st.just([dim] * n),
            st.lists(st.integers(max(dim - 1, 0), dim + 1), min_size=n, max_size=n),
        ))
        raws = [FLOAT_FORMS[f](rng.normal(size=w)) for f, w in zip(forms, widths)]
        enc = pretrained_encoder(dim)
        got = outcome(feature_rows, enc, iter(raws), "user")
        assert got == outcome(feature_rows_per_row, enc, raws, "user")

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.data())
    def test_categorical_matches_per_row_oracle(self, n, data):
        forms = data.draw(st.one_of(
            st.just(["dict"] * n),
            st.lists(st.sampled_from(CAT_FORMS), min_size=n, max_size=n),
        ))
        faults = st.sampled_from(CAT_FAULTS[:1] * 6 + CAT_FAULTS[1:])
        raws = [
            cat_raw(form, data.draw(st.sampled_from("abc")),
                    data.draw(st.sampled_from("xy")), data.draw(faults))
            for form in forms
        ]
        got = outcome(feature_rows, CAT_ENCODER, iter(raws), "item")
        assert got == outcome(feature_rows_per_row, CAT_ENCODER, raws, "item")

    @pytest.mark.parametrize(
        "encoder, raws",
        [
            (pretrained_encoder(3), []),
            (pretrained_encoder(3), [np.zeros(3), np.zeros(2)]),
            (pretrained_encoder(3), [np.zeros(3), np.zeros(4), np.zeros(2)]),
            (CAT_ENCODER, []),
            (CAT_ENCODER,
             [{"age": "a", "region": "x"}, {"age": "b"}, {"age": "q", "region": "y"}]),
            (CAT_ENCODER, [{"age": "a", "region": "x"}, {"age": "c", "region": {}}]),
            (CAT_ENCODER, [{"age": "a", "region": "x"}, (0, 2)]),
            # a default for a missing field must not stand in for the field
            (CAT_ENCODER, [defaultdict(lambda: "x", age="a")]),
        ],
        ids=["empty_floats", "short_row", "long_before_short", "empty_dicts",
             "missing_before_unknown", "unhashable", "index_out_of_range",
             "defaultdict_missing_field"],
    )
    def test_errors_match_per_row_oracle(self, encoder, raws):
        got = outcome(feature_rows, encoder, raws, "user")
        assert isinstance(got[0], type) and issubclass(got[0], Exception)
        assert got == outcome(feature_rows_per_row, encoder, raws, "user")

    def test_ragged_rows_name_the_side_and_both_widths(self):
        raws = [np.zeros(3), np.zeros(4)]
        with pytest.raises(DataError, match=r"^item features have 4 dims, expected 3$"):
            feature_rows(pretrained_encoder(3), raws, "item")

    @pytest.fixture
    def per_row_calls(self, monkeypatch):
        """Calls of the per-row pass and of per-raw index resolution."""
        calls = []
        for name in ("_rows_one_by_one", "resolve_indices"):
            real = getattr(models, name)
            monkeypatch.setattr(
                models, name,
                lambda *a, real=real, name=name: calls.append(name) or real(*a),
            )
        return calls

    def _score_and_batch(self, feats, enc_u, enc_i, users, items):
        model = build_model(ModelKind.MESH, enc_u, enc_i, [4], 0)
        scores = score_matrix(model, users, items, feats)
        recs = [Rec(u, i, 1.0) for u, i in zip(users, items * len(users))]
        batch = prepare_batch(recs, feats, enc_u, enc_i)
        return scores, batch

    def test_attribute_tables_take_the_bulk_path(self, tmp_path, per_row_calls):
        users = {f"u{j}": {"age": "abc"[j % 3], "region": "xy"[j % 2]} for j in range(9)}
        items = {f"i{j}": {"genre": f"g{j % 4}"} for j in range(5)}
        save_attributes(tmp_path / "users.csv", users, "user_id")
        save_attributes(tmp_path / "items.csv", items, "item_id")
        users = load_attributes(tmp_path / "users.csv")
        items = load_attributes(tmp_path / "items.csv")
        enc_u = build_categorical_encoder(attribute_fields(users), 2, 0)
        enc_i = build_categorical_encoder(attribute_fields(items), 3, 1)
        scores, batch = self._score_and_batch(
            AttributeTable(users, items), enc_u, enc_i, list(users), list(items)
        )
        assert scores.shape == (9, 5) and batch.user_rows.shape == (9, 2)
        assert per_row_calls == []

    def test_synthetic_and_latent_tables_take_the_bulk_path(
        self, tmp_path, per_row_calls
    ):
        data = generate_synthetic(SyntheticSpec(
            n_users=30, n_items=12, n_shops=4, interactions_per_shop=40, n_new_shops=1
        ))
        save_latents(tmp_path / "latents.csv", data.features.users, data.features.items)
        loaded, _ = load_latents(tmp_path / "latents.csv")
        enc = pretrained_encoder(8)
        for feats in (data.features, loaded):
            scores, batch = self._score_and_batch(
                feats, enc, enc, list(feats.users), list(feats.items)
            )
            assert scores.shape == (30, 12) and batch.item_rows.shape == (30, 8)
        assert per_row_calls == []


class TestBaseline:
    def setup_model(self, seed=9):
        enc = pretrained_encoder(2)
        return build_baseline(enc, [3], seed, margin=1.0, negative_weight=0.5)

    def test_user_representation_is_mean_of_mapped_items(self):
        model = self.setup_model()
        xs = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        feats = DictFeatures({}, {f"i{k}": x for k, x in enumerate(xs)})
        reps = baseline_user_reps(model, {"u": ["i0", "i1", "i2"]}, feats, ["u"])
        mapped = np.stack(
            [mlp_forward_trace(model.item_mapper, x[None, :])[0][0] for x in xs]
        )
        np.testing.assert_allclose(reps["u"], mapped.mean(axis=0), rtol=1e-12)

    def test_cold_user_raises(self):
        model = self.setup_model()
        feats = DictFeatures({}, {"i0": np.zeros(2)})
        with pytest.raises(ColdUserError):
            baseline_loss_and_grad(model, [("u0", "i0")], [], {"u0": ()}, feats)

    def test_contrastive_loss_closed_forms(self):
        # identity mapper so distances are plain Euclidean
        mapper = init_mlp([2, 2], 0)
        eye = mapper.layers[0]
        eye.weights[...] = np.eye(2)  # leaves are views of the mapper's vector
        eye.biases[...] = 0.0
        model = BaselineModel(
            pretrained_encoder(2), mapper, margin=1.0, negative_weight=2.0
        )
        # the user's only purchase sits at the origin
        feats = DictFeatures(
            {},
            {
                "origin": np.array([0.0, 0.0]),
                "near": np.array([0.3, 0.4]),  # distance 0.5
                "far": np.array([3.0, 4.0]),  # distance 5
            },
        )
        hist = {"u": ("origin",)}

        def loss(pos, neg):
            return baseline_loss_and_grad(model, pos, neg, hist, feats)[0]

        # positives only: sum of distances
        assert math.isclose(
            loss([("u", "near"), ("u", "far")], []), 5.5, rel_tol=1e-12
        )
        # negative inside the margin contributes weight * (margin - d)
        assert math.isclose(loss([], [("u", "near")]), 2.0 * 0.5, rel_tol=1e-12)
        # negative outside the margin contributes nothing
        assert loss([], [("u", "far")]) == 0.0
        with pytest.raises(EmptyBatchError):
            loss([], [])

    def test_predict_is_negated_distance(self):
        model = self.setup_model()
        x = np.array([0.5, -0.2])
        rep = mlp_forward_trace(model.item_mapper, x[None, :])[0][0]
        u = rep + np.array([0.0, 0.1, 0.0])
        feats = DictFeatures({}, {"x": x})
        scores = baseline_score_matrix(model, {"u": u}, ["u"], ["x"], feats)
        assert math.isclose(scores[0, 0], -0.1, rel_tol=1e-9)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(31)
        enc = pretrained_encoder(2)
        model = build_baseline(enc, [3], 13, margin=2.0, negative_weight=0.7)
        items = {f"i{i}": rng.normal(size=2) for i in range(5)}
        feats = DictFeatures({}, items)
        hist = {"u0": ("i0", "i1"), "u1": ("i2",)}
        pos = [("u0", "i3"), ("u1", "i0")]
        neg = [("u0", "i4"), ("u1", "i3")]
        loss, grads = baseline_loss_and_grad(model, pos, neg, hist, feats)
        assert loss > 0

        def fd_loss(tree):
            return baseline_loss_and_grad(tree, pos, neg, hist, feats)[0]

        assert grads_close(grads, central_fd_grad(fd_loss, model))

    def test_gradient_with_categorical_items(self):
        enc = build_categorical_encoder([("genre", ["a", "b", "c"])], 3, 17)
        model = build_baseline(enc, [2], 19)
        feats = DictFeatures({}, {"i0": (0,), "i1": (1,), "i2": (2,)})
        hist = {"u0": ("i0",)}
        loss, grads = baseline_loss_and_grad(
            model, [("u0", "i1")], [("u0", "i2")], hist, feats
        )

        def fd_loss(tree):
            return baseline_loss_and_grad(
                tree, [("u0", "i1")], [("u0", "i2")], hist, feats
            )[0]

        assert grads_close(grads, central_fd_grad(fd_loss, model))

    def test_cold_pair_user_raises(self):
        model = self.setup_model()
        feats = DictFeatures({}, {"i0": np.zeros(2)})
        with pytest.raises(ColdUserError):
            baseline_loss_and_grad(model, [("ghost", "i0")], [], {}, feats)


class TestPredictDispatch:
    def test_kinds_route_to_their_scorers(self):
        rng = np.random.default_rng(2)
        u, v = rng.normal(size=3), rng.normal(size=2)
        feats = DictFeatures({"u": u}, {"v": v})
        mesh = build_model(
            ModelKind.MESH, pretrained_encoder(3), pretrained_encoder(2), [4], 1
        )
        joint = build_model(
            ModelKind.MESH_I, pretrained_encoder(3), pretrained_encoder(2), [4], 1
        )
        wide = build_model(
            ModelKind.WIDE_DEEP, pretrained_encoder(3), pretrained_encoder(2), [4], 1
        )
        assert mesh.scorer.variant is ModelVariant.TWO_TOWER
        assert joint.scorer.variant is wide.scorer.variant is ModelVariant.JOINT
        assert score_matrix(mesh, ["u"], ["v"], feats).shape == (1, 1)
        assert score_matrix(joint, ["u"], ["v"], feats) == score_matrix(
            wide, ["u"], ["v"], feats
        )
        base = build_baseline(pretrained_encoder(2), [3], 5)
        reps = baseline_user_reps(base, {"u": ["v"]}, feats, ["u"])
        assert baseline_score_matrix(base, reps, ["u"], ["v"], feats)[0, 0] <= 0.0
