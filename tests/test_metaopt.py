"""Meta-training checks: bit-identity of compositions, an exact 1-D example,
an FD-driven oracle for the regularized step, and the training drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from metashop.datapipe import (
    InteractionRecord,
    ShopTask,
    SizeClass,
    SyntheticSpec,
    TaskUnit,
)
from metashop.errors import ConfigError, DataError
from metashop.evaluation import CandidatePool, EvalOptions, QueryMode
from metashop.metaopt import (
    MetaConfig,
    OuterOptimizer,
    RegularizerKind,
    config_manifest_entries,
    fmst_train_step,
    local_adapt,
    meta_inference,
    meta_train,
    meta_train_step,
    nonmeta_train,
    one_shop_train,
    read_manifest,
    regularizer_option1,
    regularizer_option2,
    train_baseline,
    write_manifest,
)
from metashop.models import (
    ModelKind,
    RecModel,
    build_baseline,
    build_model,
    model_loss_and_grad,
    prepare_batch,
    pretrained_encoder,
)
from metashop.metrics import RecallMode
from metashop.numcore import (
    Activation,
    DenseLayerParams,
    LossKind,
    MlpParams,
    ModelParameters,
    ModelVariant,
    sgd_step,
    tree_leaves,
)

import metashop.metaopt as metaopt
from oracles import central_fd_grad, meta_train_per_step, tree_add


def bitwise_equal(a, b) -> bool:
    la, lb = tree_leaves(a), tree_leaves(b)
    return len(la) == len(lb) and all(
        x.tobytes() == y.tobytes() and x.shape == y.shape for x, y in zip(la, lb)
    )


@dataclass(frozen=True)
class DictFeatures:
    users: dict
    items: dict

    def user_raw(self, user_id):
        return self.users[user_id]

    def item_raw(self, item_id):
        return self.items[item_id]


def rec(u, i, s, y):
    return InteractionRecord(u, i, s, float(y))


def small_world(seed=0, n_shops=3, per_shop=8, dim=3):
    """A few shops with pretrained features and disjoint support/query."""
    rng = np.random.default_rng(seed)
    users = {f"u{i}": rng.normal(size=dim) for i in range(20)}
    items = {f"i{i}": rng.normal(size=dim) for i in range(12)}
    feats = DictFeatures(users, items)
    tasks = []
    for s in range(n_shops):
        recs = [
            rec(f"u{rng.integers(20)}", f"i{rng.integers(12)}", f"s{s}",
                rng.integers(2))
            for _ in range(per_shop * 2)
        ]
        # records must be pairwise distinct across the split
        seen, uniq = set(), []
        for r in recs:
            if r not in seen:
                seen.add(r)
                uniq.append(r)
        half = len(uniq) // 2
        tasks.append(ShopTask(f"s{s}", uniq[:half], uniq[half:]))
    return feats, tasks


def tiny_model(seed=1, dim=3, kind=ModelKind.MESH):
    return build_model(
        kind, pretrained_encoder(dim), pretrained_encoder(dim), [4], seed,
        sigmoid_output=True,
    )


@pytest.fixture
def resolved(monkeypatch):
    """Record lists resolved through ``metaopt.prepare_batch``, call by call.

    The benchmark's tracer wraps that lookup name to count batch calls and
    records, so a trainer that resolved records some other way would make
    those counts read 0.
    """
    calls = []

    def counting(records, *args):
        records = list(records)
        calls.append(records)
        return prepare_batch(records, *args)

    monkeypatch.setattr(metaopt, "prepare_batch", counting)
    return calls


class TestLocalAdapt:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_manual_sgd_sequence(self, k):
        feats, tasks = small_world()
        model = tiny_model()
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=k)
        adapted = local_adapt(model, tasks[0].support, feats, cfg)

        manual = model
        batch = prepare_batch(
            tasks[0].support, feats, model.user_encoder, model.item_encoder
        )
        for _ in range(k):
            _, grads = model_loss_and_grad(manual, batch, cfg.loss_kind)
            manual = sgd_step(manual, grads, cfg.alpha)
        assert bitwise_equal(adapted, manual)

    def test_zero_steps_returns_input_unchanged(self):
        feats, tasks = small_world()
        model = tiny_model()
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=0)
        assert local_adapt(model, tasks[0].support, feats, cfg) is model

    def test_input_model_not_mutated(self):
        feats, tasks = small_world()
        model = tiny_model()
        before = [leaf.copy() for leaf in tree_leaves(model)]
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=2)
        local_adapt(model, tasks[0].support, feats, cfg)
        for got, want in zip(tree_leaves(model), before):
            np.testing.assert_array_equal(got, want)


class TestMetaStep:
    def test_decomposition_matches_manual(self):
        feats, tasks = small_world(seed=5)
        model = tiny_model(seed=6)
        cfg = MetaConfig(alpha=0.03, beta=0.07, local_steps=2)
        stepped, state, mean_loss = meta_train_step(model, tasks, feats, cfg)
        assert state is None

        total = None
        losses = []
        for task in sorted(tasks, key=lambda t: t.shop_id):
            adapted = local_adapt(model, task.support, feats, cfg)
            query = prepare_batch(
                task.query, feats, model.user_encoder, model.item_encoder
            )
            loss, grads = model_loss_and_grad(adapted, query, cfg.loss_kind)
            losses.append(loss)
            total = grads if total is None else tree_add(total, grads)
        manual = sgd_step(model, total, cfg.beta)
        assert bitwise_equal(stepped, manual)
        assert math.isclose(mean_loss, sum(losses) / len(losses), rel_tol=1e-12)

    def test_task_order_is_irrelevant(self):
        feats, tasks = small_world(seed=7)
        model = tiny_model(seed=8)
        cfg = MetaConfig(alpha=0.03, beta=0.07, local_steps=1)
        a, _, _ = meta_train_step(model, tasks, feats, cfg)
        b, _, _ = meta_train_step(model, list(reversed(tasks)), feats, cfg)
        assert bitwise_equal(a, b)

    def test_one_parameter_analytic_example(self):
        # score = theta * x, squared loss, x=1, y=1:
        # inner: theta' = 0 - 0.25 * 2(0-1) = 0.5
        # outer: theta  = 0 - 0.25 * 2(0.5-1) = 0.25
        layer = DenseLayerParams(np.array([[0.0]]), None)
        scorer = ModelParameters(
            ModelVariant.JOINT,
            joint=MlpParams((layer,), (Activation.IDENTITY,)),
        )
        model = RecModel(
            ModelKind.MESH_I, pretrained_encoder(1), pretrained_encoder(0), scorer
        )
        feats = DictFeatures(
            {"ua": np.array([1.0]), "ub": np.array([1.0])},
            {"i": np.zeros(0)},
        )
        task = ShopTask("s", [rec("ua", "i", "s", 1.0)], [rec("ub", "i", "s", 1.0)])
        cfg = MetaConfig(alpha=0.25, beta=0.25, local_steps=1)
        stepped, _, _ = meta_train_step(model, [task], feats, cfg)
        theta = stepped.scorer.joint.layers[0].weights[0, 0]
        assert theta == 0.25

    def test_adam_outer_state_threads_through(self):
        feats, tasks = small_world(seed=9)
        model = tiny_model(seed=10)
        cfg = MetaConfig(
            alpha=0.03, beta=0.01, local_steps=1,
            outer_optimizer=OuterOptimizer.ADAM,
        )
        m1, state1, _ = meta_train_step(model, tasks, feats, cfg)
        assert state1 is not None and state1.step_count == 1
        m2, state2, _ = meta_train_step(m1, tasks, feats, cfg, state1)
        assert state2.step_count == 2
        assert not bitwise_equal(m1, m2)


def classed(task, size_class):
    return ShopTask(task.shop_id, task.support, task.query, size_class)


class TestFairnessStep:
    def test_gamma_zero_is_bit_identical_over_trajectory(self):
        feats, tasks = small_world(seed=11)
        model_a = tiny_model(seed=12)
        model_b = tiny_model(seed=12)
        cfg = MetaConfig(alpha=0.04, beta=0.06, local_steps=2, gamma=0.0)
        for _ in range(10):
            model_a, _, la = meta_train_step(model_a, tasks, feats, cfg)
            model_b, _, lb = fmst_train_step(model_b, tasks, feats, cfg)
            assert la == lb
            assert bitwise_equal(model_a, model_b)

    def test_option1_ignores_large_tasks(self):
        feats, tasks = small_world(seed=13)
        large = [classed(t, SizeClass.LARGE) for t in tasks]
        model = tiny_model(seed=14)
        cfg = MetaConfig(
            alpha=0.04, beta=0.06, local_steps=1, gamma=0.5,
            regularizer=RegularizerKind.OPTION_I,
        )
        plain, _, _ = meta_train_step(model, large, feats, cfg)
        fair, _, _ = fmst_train_step(model, large, feats, cfg)
        assert bitwise_equal(plain, fair)

    def test_option2_ignores_small_tasks(self):
        feats, tasks = small_world(seed=15)
        small = [classed(t, SizeClass.SMALL) for t in tasks]
        model = tiny_model(seed=16)
        cfg = MetaConfig(
            alpha=0.04, beta=0.06, local_steps=1, gamma=0.5,
            regularizer=RegularizerKind.OPTION_II,
        )
        plain, _, _ = meta_train_step(model, small, feats, cfg)
        fair, _, _ = fmst_train_step(model, small, feats, cfg)
        assert bitwise_equal(plain, fair)

    def test_matching_class_changes_the_update(self):
        feats, tasks = small_world(seed=17)
        small = [classed(t, SizeClass.SMALL) for t in tasks]
        model = tiny_model(seed=18)
        cfg = MetaConfig(
            alpha=0.04, beta=0.06, local_steps=1, gamma=0.5,
            regularizer=RegularizerKind.OPTION_I,
        )
        plain, _, _ = meta_train_step(model, small, feats, cfg)
        fair, _, _ = fmst_train_step(model, small, feats, cfg)
        assert not bitwise_equal(plain, fair)

    def test_missing_or_new_size_class_rejected(self):
        feats, tasks = small_world(seed=19)
        model = tiny_model(seed=20)
        cfg = MetaConfig(alpha=0.04, beta=0.06, gamma=0.5)
        with pytest.raises(DataError):
            fmst_train_step(model, tasks, feats, cfg)
        bad = [classed(tasks[0], SizeClass.NEW)]
        with pytest.raises(DataError):
            fmst_train_step(model, bad, feats, cfg)

    def test_regularizer_closed_forms(self):
        scores = np.array([0.2, 0.4])
        assert math.isclose(regularizer_option1(scores), 0.7, rel_tol=1e-12)
        assert math.isclose(regularizer_option2(scores), 0.3, rel_tol=1e-12)

    def test_regularized_step_matches_fd_oracle(self):
        """Recompute the whole regularized step with central-FD gradients."""
        feats, tasks = small_world(seed=21, n_shops=2, per_shop=5)
        sized = [
            classed(tasks[0], SizeClass.SMALL),
            classed(tasks[1], SizeClass.LARGE),
        ]
        model = tiny_model(seed=22)
        gamma = 0.3
        for option in (RegularizerKind.OPTION_I, RegularizerKind.OPTION_II):
            cfg = MetaConfig(
                alpha=0.05, beta=0.08, local_steps=2, gamma=gamma,
                regularizer=option,
            )
            fair, _, _ = fmst_train_step(model, sized, feats, cfg)

            def penalty_of(task):
                if option is RegularizerKind.OPTION_I:
                    return (-gamma, gamma) if task.size_class is SizeClass.SMALL else None
                return (gamma, 0.0) if task.size_class is SizeClass.LARGE else None

            total = None
            for task in sorted(sized, key=lambda t: t.shop_id):
                pen = penalty_of(task)
                sup = prepare_batch(
                    task.support, feats, model.user_encoder, model.item_encoder
                )
                qry = prepare_batch(
                    task.query, feats, model.user_encoder, model.item_encoder
                )
                adapted = model
                for _ in range(cfg.local_steps):
                    g = central_fd_grad(
                        lambda m: model_loss_and_grad(m, sup, cfg.loss_kind, pen)[0],
                        adapted,
                    )
                    adapted = sgd_step(adapted, g, cfg.alpha)
                qg = central_fd_grad(
                    lambda m: model_loss_and_grad(m, qry, cfg.loss_kind, pen)[0],
                    adapted,
                )
                total = qg if total is None else tree_add(total, qg)
            oracle = sgd_step(model, total, cfg.beta)
            for got, want in zip(tree_leaves(fair), tree_leaves(oracle)):
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)


class TestMetaInference:
    def test_per_shop_adaptation(self):
        feats, tasks = small_world(seed=23)
        model = tiny_model(seed=24)
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=2)
        adapted = meta_inference(model, tasks, feats, cfg)
        assert sorted(adapted) == sorted(t.shop_id for t in tasks)
        for task in tasks:
            assert bitwise_equal(
                adapted[task.shop_id],
                local_adapt(model, task.support, feats, cfg),
            )
        # different supports produce different adapted parameters
        assert not bitwise_equal(adapted["s0"], adapted["s1"])


class TestDrivers:
    def test_meta_train_is_deterministic(self):
        feats, tasks = small_world(seed=25)
        cfg = MetaConfig(
            alpha=0.05, beta=0.1, local_steps=1, shop_batch_size=2,
            query_batch_size=3, seed=77,
        )
        runs = []
        for _ in range(2):
            model, hist = meta_train(tiny_model(seed=26), tasks, feats, cfg, steps=6)
            runs.append((model, hist.losses))
        assert bitwise_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_meta_train_learns_a_little(self):
        feats, tasks = small_world(seed=27, n_shops=4, per_shop=10)
        cfg = MetaConfig(alpha=0.08, beta=0.15, local_steps=1, shop_batch_size=4)
        _, hist = meta_train(tiny_model(seed=28), tasks, feats, cfg, steps=30)
        assert hist.losses[-1] < hist.losses[0]
        assert not hist.stopped_early

    def test_early_stop_on_stalled_loss(self):
        feats, tasks = small_world(seed=29)
        # beta so small the update underflows: parameters never change,
        # every step repeats the same loss, and patience=1 trips at step 2
        cfg = MetaConfig(alpha=0.05, beta=1e-300, local_steps=1, shop_batch_size=8)
        model, hist = meta_train(
            tiny_model(seed=30), tasks, feats, cfg, steps=50, early_stop_patience=1
        )
        assert hist.stopped_early
        assert len(hist.losses) == 2
        assert hist.losses[0] == hist.losses[1]

    @pytest.mark.parametrize("steps, drawn", [(0, 0), (1, 2), (2, 4), (7, 5)])
    def test_each_drawn_task_is_resolved_once(self, resolved, steps, drawn):
        feats, tasks = small_world(seed=39, n_shops=5)
        cfg = MetaConfig(
            alpha=0.05, beta=0.1, local_steps=2, shop_batch_size=2,
            query_batch_size=3,
        )
        meta_train(tiny_model(seed=40), tasks, feats, cfg, steps=steps)
        assert len(resolved) == 2 * drawn

    def test_pooled_trainers_resolve_their_records_once(self, resolved):
        feats, tasks = small_world(seed=44)
        records = [r for t in tasks for r in t.support + t.query]
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=1)
        nonmeta_train(tiny_model(seed=45), records, feats, cfg, epochs=3, batch_size=5)
        assert resolved == [records]
        one_shop_train(tiny_model(seed=46), tasks[0].support, feats, cfg, epochs=2)
        assert resolved == [records, list(tasks[0].support)]

    def test_local_adapt_resolves_once_per_call(self, resolved):
        feats, tasks = small_world(seed=47)
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=3)
        for task in tasks:
            local_adapt(tiny_model(seed=48), task.support, feats, cfg)
        assert resolved == [list(t.support) for t in tasks]

    def test_meta_inference_resolves_once_per_task(self, resolved):
        feats, tasks = small_world(seed=49, n_shops=4)
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=2)
        meta_inference(tiny_model(seed=50), list(reversed(tasks)), feats, cfg)
        assert resolved == [list(t.support) for t in tasks]

    @pytest.mark.parametrize("query_batch_size", [None, 3])
    @pytest.mark.parametrize("outer", list(OuterOptimizer))
    @pytest.mark.parametrize("regularized", [False, True])
    def test_matches_per_step_resolution(self, query_batch_size, outer, regularized):
        feats, tasks = small_world(seed=41, n_shops=5)
        classes = (SizeClass.SMALL, SizeClass.LARGE)
        tasks = [classed(t, classes[j % 2]) for j, t in enumerate(tasks)]
        cfg = MetaConfig(
            alpha=0.05, beta=0.02, local_steps=2, shop_batch_size=2,
            query_batch_size=query_batch_size, outer_optimizer=outer,
            gamma=0.4 if regularized else 0.0, seed=43,
        )
        model = tiny_model(seed=42)
        got, hist = meta_train(model, tasks, feats, cfg, steps=7, regularized=regularized)
        want, losses = meta_train_per_step(
            model, tasks, feats, cfg, steps=7, regularized=regularized
        )
        assert bitwise_equal(got, want)
        assert hist.losses == losses

    def test_zero_steps(self):
        feats, tasks = small_world(seed=31)
        model = tiny_model(seed=32)
        cfg = MetaConfig(alpha=0.05, beta=0.1)
        out, hist = meta_train(model, tasks, feats, cfg, steps=0)
        assert out is model and hist.losses == []

    def test_negative_patience_rejected(self):
        feats, tasks = small_world(seed=31)
        cfg = MetaConfig(alpha=0.05, beta=0.1)
        with pytest.raises(ConfigError) as err:
            meta_train(
                tiny_model(seed=32), tasks, feats, cfg, steps=5, early_stop_patience=-3
            )
        assert str(err.value) == "early_stop_patience must be >= 0, got -3"

    def test_nonmeta_train_determinism_and_descent(self):
        feats, tasks = small_world(seed=33, n_shops=4, per_shop=10)
        records = [r for t in tasks for r in (*t.support, *t.query)]
        cfg = MetaConfig(alpha=0.1, beta=0.1, seed=5)
        out_a, hist_a = nonmeta_train(
            tiny_model(seed=34), records, feats, cfg, epochs=8, batch_size=16
        )
        out_b, hist_b = nonmeta_train(
            tiny_model(seed=34), records, feats, cfg, epochs=8, batch_size=16
        )
        assert bitwise_equal(out_a, out_b)
        assert hist_a.losses == hist_b.losses
        assert hist_a.losses[-1] < hist_a.losses[0]

    def test_one_shop_train_guards_and_identity(self):
        feats, tasks = small_world(seed=35)
        model = tiny_model(seed=36)
        cfg = MetaConfig(alpha=0.1, beta=0.1)
        mixed = [*tasks[0].support, *tasks[1].support]
        with pytest.raises(DataError):
            one_shop_train(model, mixed, feats, cfg, epochs=1)
        out, hist = one_shop_train(model, tasks[0].support, feats, cfg, epochs=0)
        assert out is model and hist.losses == []

    def test_train_baseline_descends_and_is_deterministic(self):
        rng = np.random.default_rng(37)
        items = {f"i{i}": rng.normal(size=2) for i in range(10)}
        feats = DictFeatures({}, items)
        records = []
        for u in range(8):
            for i in range(10):
                records.append(rec(f"u{u}", f"i{i}", "s0", 1.0 if i % 2 == u % 2 else 0.0))
        cfg = MetaConfig(alpha=0.02, beta=0.1, seed=9)
        runs = []
        for _ in range(2):
            model = build_baseline(pretrained_encoder(2), [4], 38)
            trained, hist = train_baseline(model, records, feats, cfg, epochs=6)
            runs.append((trained, hist.losses))
        assert bitwise_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]
        assert runs[0][1][-1] < runs[0][1][0]


class TestManifests:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.manifest"
        write_manifest(path, [("config.alpha", 0.05), ("steps", 12), ("note", "")])
        got = read_manifest(path)
        assert got == {"config.alpha": "0.05", "steps": "12", "note": ""}

    @pytest.mark.parametrize("value", ["x\x85y", "form\x0cfeed", "a\x0bb\x1cc\x1dd\x1ee"])
    def test_a_value_may_hold_what_splitlines_breaks_at(self, tmp_path, value):
        path = tmp_path / "run.manifest"
        write_manifest(path, [("note", value), ("steps", 12)])
        assert read_manifest(path) == {"note": value, "steps": "12"}

    def test_crlf_lines_read_as_lf_lines(self, tmp_path):
        path = tmp_path / "run.manifest"
        path.write_bytes(b"a=1\r\nb=x=y\r\n\r\n")
        assert read_manifest(path) == {"a": "1", "b": "x=y"}

    def test_bad_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_manifest(tmp_path / "m", [("a=b", 1)])

    def test_bad_line_rejected(self, tmp_path):
        p = tmp_path / "m"
        p.write_text("just words\n")
        with pytest.raises(DataError):
            read_manifest(p)

    def test_non_utf8_manifest_is_a_data_error(self, tmp_path):
        p = tmp_path / "m"
        p.write_bytes("note=\u00e9\n".encode("latin-1"))
        with pytest.raises(DataError) as err:
            read_manifest(p)
        assert str(err.value).startswith(f"cannot read manifest {p}: ")

    def test_config_flattening(self):
        cfg = MetaConfig(alpha=0.05, beta=0.1, gamma=0.8)
        entries = dict(config_manifest_entries(cfg))
        assert entries["config.alpha"] == 0.05
        assert entries["config.gamma"] == 0.8
        assert entries["config.loss_kind"] == "squared"
        assert entries["config.outer_optimizer"] == "sgd"
        nested = dict(config_manifest_entries({"b": 2, "a": {"ks": (1, 3)}}, "run"))
        assert nested == {"run.a.ks": "1,3", "run.b": 2}
        keys = [k for k, _ in config_manifest_entries(cfg)]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "cfg,prefix,expected",
        [
            (
                MetaConfig(
                    alpha=0.05,
                    beta=0.1,
                    gamma=0.8,
                    regularizer=RegularizerKind.OPTION_II,
                    loss_kind=LossKind.BCE,
                    model_kind=ModelKind.MESH_I,
                    task_unit=TaskUnit.ITEM,
                    outer_optimizer=OuterOptimizer.ADAM,
                    seed=4,
                ),
                "config",
                [
                    ("config.alpha", 0.05),
                    ("config.beta", 0.1),
                    ("config.gamma", 0.8),
                    ("config.local_steps", 2),
                    ("config.loss_kind", "bce"),
                    ("config.model_kind", "mesh_i"),
                    ("config.outer_optimizer", "adam"),
                    ("config.query_batch_size", None),
                    ("config.regularizer", "option2"),
                    ("config.seed", 4),
                    ("config.shop_batch_size", 8),
                    ("config.support_size", 10),
                    ("config.task_unit", "item"),
                ],
            ),
            (
                EvalOptions(
                    recall_ks=(0.1, 5),
                    ndcg_ks=(3, 10),
                    recall_mode=RecallMode.TOPK_FRACTION,
                    thresholds=(0.5, 0.75),
                    candidate_pool=CandidatePool.OBSERVED,
                    query_mode=QueryMode.USER_SHOP,
                ),
                "eval",
                [
                    ("eval.candidate_pool", "observed"),
                    ("eval.include_mae", True),
                    ("eval.ndcg_ks", "3,10"),
                    ("eval.query_mode", "user_shop"),
                    ("eval.rating_positive_threshold", 4.0),
                    ("eval.recall_ks", "0.1,5"),
                    ("eval.recall_mode", "topk_fraction"),
                    ("eval.thresholds", "0.5,0.75"),
                ],
            ),
            (
                SyntheticSpec(n_users=50, seed=3),
                "synthetic",
                [
                    ("synthetic.interactions_per_shop", 600),
                    ("synthetic.label_threshold", 0.8),
                    ("synthetic.latent_dim", 8),
                    ("synthetic.min_shop_size", 30),
                    ("synthetic.n_genres", 6),
                    ("synthetic.n_items", 120),
                    ("synthetic.n_new_shops", 3),
                    ("synthetic.n_shops", 20),
                    ("synthetic.n_users", 50),
                    ("synthetic.noise_std", 0.3),
                    ("synthetic.pareto_exponent", 1.3),
                    ("synthetic.seed", 3),
                    ("synthetic.shop_effect_std", 1.0),
                    ("synthetic.test_fraction", 0.3),
                ],
            ),
        ],
        ids=["meta", "eval", "synthetic"],
    )
    def test_exact_entries(self, cfg, prefix, expected):
        entries = config_manifest_entries(cfg, prefix)
        # str() of each value is what the manifest holds, so types matter
        assert [(k, v, type(v)) for k, v in entries] == [
            (k, v, type(v)) for k, v in expected
        ]
