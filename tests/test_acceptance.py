"""Shipping gate: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; a failure prints its FAIL line before the assertion fires. The
two synthetic experiments (criteria 6 and 7) retrain real models over five
seeds each and together take a few minutes of CPU. The MovieLens check is
skipped unless a local copy of the dataset is available, since this suite
must run without network access.
"""

from __future__ import annotations

import csv
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
import yaml

from metashop import numcore
from metashop.cli import main as cli_main
from metashop.datapipe import (
    AttributeTable,
    InteractionRecord,
    NegativeStrategy,
    ShopTask,
    SizeClass,
    SyntheticSpec,
    attach_size_classes,
    attribute_fields,
    build_tasks,
    classify_shops,
    generate_synthetic,
    load_interactions,
    negative_sample,
    stable_hash64,
)
from metashop.evaluation import EvalOptions, evaluate_tasks
from metashop.metaopt import (
    MetaConfig,
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
)
from metashop.metrics import RankedPrediction, RecallMode, mae, ndcg_at_k, recall_at_k
from metashop.models import (
    ModelKind,
    RecModel,
    build_categorical_encoder,
    build_model,
    encode,
    model_loss_and_grad,
    prepare_batch,
    pretrained_encoder,
)
from metashop.numcore import (
    Activation,
    DenseLayerParams,
    LossKind,
    MlpParams,
    ModelParameters,
    ModelVariant,
    tree_allclose,
    tree_leaves,
)

from oracles import (
    central_fd_grad,
    grads_close,
    mae_loop,
    ndcg_oracle,
    rank_candidates,
    recall_oracle,
)


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")


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


# ---------------------------------------------------------------------------
# 1. gradients against central finite differences
# ---------------------------------------------------------------------------


def _random_encoder(rng, categorical: bool, prefix: str):
    """Either a pretrained passthrough or a one/two-field embedding table."""
    if not categorical:
        dim = int(rng.integers(2, 5))
        enc = pretrained_encoder(dim)
        grab = lambda: rng.normal(size=dim)
        return enc, grab
    n_fields = int(rng.integers(1, 3))
    vocabs = [int(rng.integers(2, 6)) for _ in range(n_fields)]
    fields = [
        (f"{prefix}{j}", [f"v{t}" for t in range(vocabs[j])])
        for j in range(n_fields)
    ]
    emb = int(rng.integers(2, 5))
    enc = build_categorical_encoder(fields, emb, rng)
    grab = lambda: tuple(int(rng.integers(v)) for v in vocabs)
    return enc, grab


def _kink_margins(scorer, U, V):
    """Distance of the forward pass from the nondifferentiable points.

    Central differences are only trustworthy when no relu pre-activation
    sits within the probe step of zero and the sigmoid is not saturated,
    so configurations too close to a kink are rejected and redrawn.
    """
    raw, trace = numcore.model_forward_trace(scorer, U, V)

    mins = []

    def collect(mlp, caches):
        for act, (_, z) in zip(mlp.activations, caches):
            if act is Activation.RELU:
                mins.append(float(np.min(np.abs(z))))

    if scorer.variant is ModelVariant.TWO_TOWER:
        collect(scorer.user_tower, trace.user_caches)
        collect(scorer.item_tower, trace.item_caches)
    else:
        collect(scorer.joint, trace.joint_caches)
    min_z = min(mins) if mins else math.inf
    return min_z, float(np.max(np.abs(raw)))


def test_criterion_1_gradient_check():
    kinds = (ModelKind.MESH, ModelKind.MESH_I, ModelKind.WIDE_DEEP)
    started = time.monotonic()
    checked = 0
    redraws = 0
    for case in range(102):
        for attempt in range(30):
            rng = np.random.default_rng([case, attempt, 101])
            kind = kinds[case % 3]
            loss = LossKind.BCE if case % 2 else LossKind.SQUARED
            sigmoid = True if loss is LossKind.BCE else bool(rng.integers(2))
            enc_u, grab_u = _random_encoder(rng, bool(rng.integers(2)), "uf")
            enc_i, grab_i = _random_encoder(rng, bool(rng.integers(2)), "if")
            hidden = [int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3)))]
            model = build_model(
                kind, enc_u, enc_i, hidden, rng, sigmoid_output=sigmoid
            )
            # lift parameters to O(1) so pre-activations clear the kinks
            model = numcore.tree_map(
                lambda p: p + 0.4 * rng.standard_normal(p.shape), model
            )
            users = {f"u{j}": grab_u() for j in range(5)}
            items = {f"i{j}": grab_i() for j in range(4)}
            feats = DictFeatures(users, items)
            n = int(rng.integers(1, 9))
            records = [
                rec(
                    f"u{rng.integers(5)}",
                    f"i{rng.integers(4)}",
                    "s0",
                    rng.integers(2) if loss is LossKind.BCE else rng.uniform(0.0, 1.5),
                )
                for _ in range(n)
            ]
            U = np.stack([encode(enc_u, feats.user_raw(r.user_id)) for r in records])
            V = np.stack([encode(enc_i, feats.item_raw(r.item_id)) for r in records])
            min_z, max_raw = _kink_margins(model.scorer, U, V)
            if min_z < 1e-2 or (sigmoid and max_raw > 12.0):
                redraws += 1
                continue
            batch = prepare_batch(records, feats, enc_u, enc_i)
            _, grads = model_loss_and_grad(model, batch, loss)

            def fd_loss(tree):
                return model_loss_and_grad(tree, batch, loss)[0]

            fd = central_fd_grad(fd_loss, model)
            assert grads_close(grads, fd), (
                f"config {case}.{attempt}: {kind.value} {loss.value} "
                f"hidden={hidden} n={n}"
            )
            checked += 1
            break
        else:
            pytest.fail(f"case {case}: no kink-free configuration in 30 draws")
    elapsed = time.monotonic() - started
    ok = checked >= 100 and elapsed < 30.0
    verdict(
        "criterion 1, gradient finite-difference check",
        ok,
        f"{checked} configs ({redraws} kink redraws) in {elapsed:.1f}s, "
        f"rtol 1e-4, atol 1e-7",
    )
    assert checked >= 100
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. inner loop equals a plain SGD sequence
# ---------------------------------------------------------------------------


def test_criterion_2_local_adapt_oracle():
    rng = np.random.default_rng([2, 101])
    dim = 3
    users = {f"u{j}": rng.normal(size=dim) for j in range(8)}
    items = {f"i{j}": rng.normal(size=dim) for j in range(6)}
    feats = DictFeatures(users, items)
    records = [
        rec(f"u{rng.integers(8)}", f"i{rng.integers(6)}", "s", rng.integers(2))
        for _ in range(7)
    ]
    model = build_model(
        ModelKind.MESH,
        pretrained_encoder(dim),
        pretrained_encoder(dim),
        [4],
        rng,
        sigmoid_output=True,
    )
    U = np.stack([feats.user_raw(r.user_id) for r in records])
    V = np.stack([feats.item_raw(r.item_id) for r in records])
    y = np.array([r.label for r in records])

    for k in (1, 2, 3):
        cfg = MetaConfig(alpha=0.07, beta=0.1, local_steps=k, loss_kind=LossKind.BCE)
        adapted = local_adapt(model, records, feats, cfg)
        scorer = model.scorer
        for _ in range(k):
            _, g = numcore.loss_gradient(scorer, (U, V, y), cfg.loss_kind, True)
            scorer = numcore.sgd_step(scorer, g, cfg.alpha)
        assert bitwise_equal(adapted.scorer, scorer), f"K={k} diverged"

    # the same identity with embedding tables in the bundle, K=2 being the
    # production setting for the inner loop
    enc_u = build_categorical_encoder([("band", ["a", "b", "c"])], 2, 31)
    enc_i = build_categorical_encoder([("kind", ["x", "y"])], 3, 32)
    cat_feats = DictFeatures(
        {f"u{j}": (j % 3,) for j in range(8)},
        {f"i{j}": (j % 2,) for j in range(6)},
    )
    cat_model = build_model(ModelKind.MESH_I, enc_u, enc_i, [4], 33, sigmoid_output=True)
    batch = prepare_batch(records, cat_feats, enc_u, enc_i)
    for k in (1, 2, 3):
        cfg = MetaConfig(alpha=0.05, beta=0.1, local_steps=k, loss_kind=LossKind.BCE)
        adapted = local_adapt(cat_model, records, cat_feats, cfg)
        manual = cat_model
        for _ in range(k):
            _, g = model_loss_and_grad(manual, batch, cfg.loss_kind)
            manual = numcore.sgd_step(manual, g, cfg.alpha)
        assert bitwise_equal(adapted, manual), f"K={k} diverged on tables"

    verdict(
        "criterion 2, local_adapt oracle equivalence",
        True,
        "bit-identical to sequential loss_gradient+sgd_step for K in {1,2,3}",
    )


# ---------------------------------------------------------------------------
# 3. meta step decomposition and the exact one-parameter example
# ---------------------------------------------------------------------------


def _toy_world(seed: int, n_shops: int = 3):
    rng = np.random.default_rng([seed, 303])
    users = {f"u{j}": rng.normal(size=3) for j in range(20)}
    items = {f"i{j}": rng.normal(size=3) for j in range(12)}
    feats = DictFeatures(users, items)
    tasks = []
    for s in range(n_shops):
        raw = [
            rec(f"u{rng.integers(20)}", f"i{rng.integers(12)}", f"s{s}",
                rng.integers(2))
            for _ in range(16)
        ]
        seen, uniq = set(), []
        for r in raw:
            if r not in seen:
                seen.add(r)
                uniq.append(r)
        half = len(uniq) // 2
        tasks.append(ShopTask(f"s{s}", uniq[:half], uniq[half:]))
    return feats, tasks


def test_criterion_3_meta_step_decomposition():
    feats, tasks = _toy_world(seed=3)
    model = build_model(
        ModelKind.MESH, pretrained_encoder(3), pretrained_encoder(3), [4], 17,
        sigmoid_output=True,
    )
    cfg = MetaConfig(alpha=0.03, beta=0.07, local_steps=2, loss_kind=LossKind.BCE)
    stepped, _, _ = meta_train_step(model, tasks, feats, cfg)

    total = None
    for task in sorted(tasks, key=lambda t: t.shop_id):
        adapted = local_adapt(model, task.support, feats, cfg)
        query = prepare_batch(task.query, feats, model.user_encoder, model.item_encoder)
        _, grads = model_loss_and_grad(adapted, query, cfg.loss_kind)
        total = grads if total is None else numcore.tree_map(np.add, total, grads)
    manual = numcore.sgd_step(model, total, cfg.beta)
    assert tree_allclose(stepped, manual, rtol=1e-12, atol=0.0)

    # score = theta * x with squared loss, x = 1, y = 1:
    #   inner: theta' = 0 - 0.25 * 2(0 - 1)   = 0.5
    #   outer: theta  = 0 - 0.25 * 2(0.5 - 1) = 0.25
    layer = DenseLayerParams(np.array([[0.0]]), None)
    scorer = ModelParameters(
        ModelVariant.JOINT, joint=MlpParams((layer,), (Activation.IDENTITY,))
    )
    one = RecModel(
        ModelKind.MESH_I, pretrained_encoder(1), pretrained_encoder(0), scorer
    )
    one_feats = DictFeatures(
        {"ua": np.array([1.0]), "ub": np.array([1.0])}, {"i": np.zeros(0)}
    )
    task = ShopTask("s", [rec("ua", "i", "s", 1.0)], [rec("ub", "i", "s", 1.0)])
    one_cfg = MetaConfig(alpha=0.25, beta=0.25, local_steps=1)
    stepped_one, _, _ = meta_train_step(one, [task], one_feats, one_cfg)
    theta = stepped_one.scorer.joint.layers[0].weights[0, 0]
    assert theta == 0.25

    verdict(
        "criterion 3, meta-step decomposition",
        True,
        "matches isolated per-task gradients at 1e-12; analytic step 0 -> 0.25 exact",
    )


# ---------------------------------------------------------------------------
# 4. fair training degenerates to plain meta training at gamma zero
# ---------------------------------------------------------------------------


def test_criterion_4_fmst_degeneracy():
    feats, tasks = _toy_world(seed=4)
    stats_classes = (SizeClass.SMALL, SizeClass.LARGE, SizeClass.SMALL)
    classed = [
        ShopTask(t.shop_id, t.support, t.query, c)
        for t, c in zip(tasks, stats_classes)
    ]
    model_a = build_model(
        ModelKind.MESH, pretrained_encoder(3), pretrained_encoder(3), [4], 23,
        sigmoid_output=True,
    )
    model_b = build_model(
        ModelKind.MESH, pretrained_encoder(3), pretrained_encoder(3), [4], 23,
        sigmoid_output=True,
    )
    cfg = MetaConfig(
        alpha=0.04, beta=0.06, local_steps=2, gamma=0.0, loss_kind=LossKind.BCE
    )
    for step in range(10):
        model_a, _, la = meta_train_step(model_a, classed, feats, cfg)
        model_b, _, lb = fmst_train_step(model_b, classed, feats, cfg)
        assert la == lb, f"step {step}: losses diverged"
        assert bitwise_equal(model_a, model_b), f"step {step}: parameters diverged"

    # closed forms on exactly representable score sets
    scores = np.array([0.25, 0.5, 0.75])
    assert regularizer_option1(scores) == 0.5
    assert regularizer_option2(scores) == 0.5
    assert regularizer_option1(np.array([1.0, 1.0])) == 0.0
    assert regularizer_option2(np.array([0.0, 0.0, 0.0])) == 0.0
    assert regularizer_option1(np.array([0.0])) == 1.0

    verdict(
        "criterion 4, fair-training degeneracy",
        True,
        "gamma=0 bit-identical over 10 steps; regularizer closed forms exact",
    )


# ---------------------------------------------------------------------------
# 5. ranking metrics against brute-force loops
# ---------------------------------------------------------------------------


def _close(a, b, tol=1e-12):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def test_criterion_5_metric_oracles():
    checked = 0
    for seed in range(1000):
        rng = np.random.default_rng([seed, 501])
        n = int(rng.integers(2, 201))
        cands = [f"c{j:03d}" for j in range(n)]
        raw = rng.normal(size=n)
        if seed % 4 == 0:
            raw = np.round(raw, 1)  # force score ties now and then
        scores = dict(zip(cands, raw.tolist()))
        gains = rng.integers(0, 4, size=n) * (rng.random(size=n) < 0.35)
        relevance = {c: float(g) for c, g in zip(cands, gains)}
        pred = RankedPrediction.from_scores(f"q{seed}", "shop", scores, relevance)
        k = int(rng.integers(1, n + 1))

        ranked = rank_candidates(scores)
        relevant = {c for c, g in relevance.items() if g > 0}
        got_std = recall_at_k(pred, k, RecallMode.STANDARD)
        got_frac = recall_at_k(pred, k, RecallMode.TOPK_FRACTION)
        assert _close(got_std, recall_oracle(ranked, relevant, k, False)), seed
        assert _close(got_frac, recall_oracle(ranked, relevant, k, True)), seed
        assert _close(ndcg_at_k(pred, k), ndcg_oracle(ranked, relevance, k)), seed

        preds = rng.normal(size=int(rng.integers(1, 40)))
        labels = rng.normal(size=preds.size)
        assert _close(mae(preds, labels), mae_loop(preds, labels)), seed
        checked += 1

    # a ranking already in ideal order scores exactly one
    perfect = RankedPrediction(
        "q", "s", ("a", "b", "c", "d"), {"a": 3.0, "b": 2.0, "c": 1.0, "d": 0.0}
    )
    for k in (1, 2, 3, 4):
        assert ndcg_at_k(perfect, k) == 1.0

    verdict(
        "criterion 5, metric oracles",
        checked == 1000,
        f"{checked} seeded instances within 1e-12; perfect ranking nDCG exactly 1",
    )
    assert checked == 1000


# ---------------------------------------------------------------------------
# 6 and 7. synthetic experiments: meta training vs pooled and one-shop
# ---------------------------------------------------------------------------

# Both experiments run on the same generated worlds: fifty shops with
# power-law sizes, five of them held out entirely as new shops, roughly
# fifty thousand interactions. Item identity is only learnable through
# embeddings, so a pooled model leaves never-trained items at their random
# initialization while the adapted meta model can still place them; users
# are shared across shops, so a single shop's records cannot pin down user
# embeddings while meta training pools that signal.

_WORLD = dict(
    n_users=400,
    n_items=600,
    n_shops=50,
    latent_dim=8,
    pareto_exponent=2.0,
    noise_std=0.3,
    interactions_per_shop=1000,
    n_new_shops=5,
    shop_effect_std=1.2,
    label_threshold=0.8,
    test_fraction=0.3,
    n_genres=6,
    min_shop_size=400,
)
_SUPPORT = 20
_MIN_INTERACTIONS = 25
_META_STEPS = 800


class HybridFeatures:
    """Pretrained user vectors, item identity as a categorical field."""

    def __init__(self, users, item_ids):
        self.users = users
        self.items = {i: {"id": i} for i in item_ids}

    def user_raw(self, u):
        return self.users[u]

    def item_raw(self, i):
        return self.items[i]


class UserIdFeatures:
    """User identity as a categorical field, pretrained item vectors."""

    def __init__(self, user_ids, items):
        self.users = {u: {"id": u} for u in user_ids}
        self.items = items

    def user_raw(self, u):
        return self.users[u]

    def item_raw(self, i):
        return self.items[i]


def test_criterion_6_synthetic_bias_experiment():
    started = time.monotonic()
    wins = 0
    details = []
    for seed in range(5):
        data = generate_synthetic(SyntheticSpec(seed=seed, **_WORLD))
        item_ids = sorted(data.features.items)
        feats = HybridFeatures(data.features.users, item_ids)
        rng = np.random.default_rng([seed, 5])
        item_enc = build_categorical_encoder([("id", item_ids)], 8, rng)
        model0 = build_model(
            ModelKind.MESH, pretrained_encoder(8), item_enc, [8], rng,
            sigmoid_output=True,
        )
        cfg = MetaConfig(
            alpha=0.15, beta=0.1, local_steps=2, shop_batch_size=8,
            support_size=_SUPPORT, query_batch_size=512,
            loss_kind=LossKind.BCE, model_kind=ModelKind.MESH, seed=seed,
        )
        tasks = build_tasks(data.train, _MIN_INTERACTIONS, _SUPPORT, seed)
        meta_model, _ = meta_train(model0, tasks, feats, cfg, _META_STEPS)
        pooled, _ = nonmeta_train(model0, data.train, feats, cfg, 50, 256)

        stats = classify_shops(data.train, data.test)
        test_tasks = attach_size_classes(
            build_tasks(data.test, _MIN_INTERACTIONS, _SUPPORT, seed), stats, True
        )
        pool = sorted(data.features.users)
        options = EvalOptions(recall_ks=(0.1,), ndcg_ks=(3,), include_mae=False)
        adapted = meta_inference(meta_model, test_tasks, feats, cfg)
        meta_rep = evaluate_tasks(
            adapted, test_tasks, feats, options,
            shop_classes=stats.taxonomy, user_pool=pool,
        )
        pool_rep = evaluate_tasks(
            pooled, test_tasks, feats, options,
            shop_classes=stats.taxonomy, user_pool=pool,
        )
        m_new = meta_rep.by_class["new"]["recall@0.1"].shop_mean
        p_new = pool_rep.by_class["new"]["recall@0.1"].shop_mean
        m_var = meta_rep.metrics["recall@0.1"].shop_variance
        p_var = pool_rep.metrics["recall@0.1"].shop_variance
        win = m_new > p_new and m_var < p_var
        wins += win
        details.append(
            f"seed {seed}: new {m_new:.3f} vs {p_new:.3f}, "
            f"var {m_var:.5f} vs {p_var:.5f}, {'win' if win else 'loss'}"
        )
    elapsed = time.monotonic() - started
    for line in details:
        print("  " + line)
    ok = wins >= 4 and elapsed < 600.0
    verdict(
        "criterion 6, synthetic bias experiment",
        ok,
        f"{wins}/5 seeds with higher new-shop recall and lower variance, "
        f"{elapsed:.0f}s",
    )
    assert wins >= 4
    assert elapsed < 600.0


def test_criterion_7_one_shop_inferiority():
    started = time.monotonic()
    wins = 0
    details = []
    for seed in range(5):
        data = generate_synthetic(SyntheticSpec(seed=seed, **_WORLD))
        user_ids = sorted(data.features.users)
        feats = UserIdFeatures(user_ids, data.features.items)

        def fresh(tag_seed):
            rng = np.random.default_rng(tag_seed)
            return build_model(
                ModelKind.MESH,
                build_categorical_encoder([("id", user_ids)], 8, rng),
                pretrained_encoder(8),
                [8], rng, sigmoid_output=True,
            )

        cfg = MetaConfig(
            alpha=0.15, beta=0.3, local_steps=2, shop_batch_size=8,
            support_size=_SUPPORT, query_batch_size=512,
            loss_kind=LossKind.BCE, model_kind=ModelKind.MESH, seed=seed,
        )
        tasks = build_tasks(data.train, _MIN_INTERACTIONS, _SUPPORT, seed)
        meta_model, _ = meta_train(fresh([seed, 5]), tasks, feats, cfg, _META_STEPS)

        stats = classify_shops(data.train, data.test)
        test_tasks = attach_size_classes(
            build_tasks(data.test, _MIN_INTERACTIONS, _SUPPORT, seed), stats, True
        )
        train_shops = {r.shop_id for r in data.train}
        eligible = sorted({t.shop_id for t in test_tasks} & train_shops)
        rng = np.random.default_rng([seed, 37])
        picked = sorted(eligible[j] for j in rng.choice(len(eligible), 6, replace=False))
        sample_tasks = [t for t in test_tasks if t.shop_id in picked]
        options = EvalOptions(recall_ks=(0.1,), ndcg_ks=(3,), include_mae=False)

        adapted = meta_inference(meta_model, sample_tasks, feats, cfg)
        meta_rep = evaluate_tasks(
            adapted, sample_tasks, feats, options,
            shop_classes=stats.taxonomy, user_pool=sorted(user_ids),
        )
        singles = {}
        for shop in picked:
            subset = [r for r in data.train if r.shop_id == shop]
            trained, _ = one_shop_train(
                fresh([seed, 7, stable_hash64(shop)]), subset, feats, cfg, 15, 64
            )
            singles[shop] = trained
        solo_rep = evaluate_tasks(
            singles, sample_tasks, feats, options,
            shop_classes=stats.taxonomy, user_pool=sorted(user_ids),
        )
        m = meta_rep.metrics["recall@0.1"].shop_mean
        o = solo_rep.metrics["recall@0.1"].shop_mean
        win = m > o
        wins += win
        details.append(
            f"seed {seed}: adapted {m:.3f} vs one-shop {o:.3f}, "
            f"{'win' if win else 'loss'}"
        )
    elapsed = time.monotonic() - started
    for line in details:
        print("  " + line)
    verdict(
        "criterion 7, one-shop inferiority",
        wins >= 4,
        f"{wins}/5 seeds with adapted shop-level recall above one-shop, "
        f"{elapsed:.0f}s",
    )
    assert wins >= 4


# ---------------------------------------------------------------------------
# 8. MovieLens directional reproduction (needs the dataset on disk)
# ---------------------------------------------------------------------------


def _ml1m_source() -> Path | None:
    env = os.environ.get("METASHOP_ML1M_DIR")
    candidates = []
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "ml-1m")
    for cand in candidates:
        if (cand / "ratings.dat").exists():
            return cand
    return None


def test_criterion_8_movielens_directional(tmp_path):
    source = _ml1m_source()
    if source is None:
        pytest.skip(
            "MovieLens 1M dump not found: set METASHOP_ML1M_DIR or place ml-1m/ "
            "next to the package (this environment has no network access)"
        )
    started = time.monotonic()
    from metashop.datapipe import convert_ml1m, load_attributes

    out = tmp_path / "ml1m"
    convert_ml1m(source, out)
    train = load_interactions(out / "train.csv")
    test = load_interactions(out / "test.csv")
    users = load_attributes(out / "user_attrs.csv")
    items = load_attributes(out / "item_attrs.csv")
    feats = AttributeTable(users, items)

    seed = 0
    rng = np.random.default_rng([seed, 5])
    enc_u = build_categorical_encoder(attribute_fields(users), 32, rng)
    enc_i = build_categorical_encoder(attribute_fields(items), 32, rng)
    meta0 = build_model(ModelKind.MESH_I, enc_u, enc_i, [128, 100], rng)
    wide0 = build_model(ModelKind.WIDE_DEEP, enc_u, enc_i, [128, 100], rng)
    cfg = MetaConfig(
        alpha=5e-6, beta=5e-5, local_steps=2, shop_batch_size=8,
        support_size=10, query_batch_size=1024,
        loss_kind=LossKind.SQUARED, model_kind=ModelKind.MESH_I, seed=seed,
    )
    tasks = build_tasks(train, 13, 10, seed)
    meta_model, _ = meta_train(meta0, tasks, feats, cfg, 2000)
    wide_model, _ = nonmeta_train(wide0, train, feats, cfg, 3, 512)

    stats = classify_shops(train, test)
    test_tasks = attach_size_classes(build_tasks(test, 13, 10, seed), stats, True)
    pool = sorted(users)
    options = EvalOptions(
        recall_ks=(0.1,), ndcg_ks=(3,), include_mae=True,
        rating_positive_threshold=4.0,
    )
    adapted = meta_inference(meta_model, test_tasks, feats, cfg)
    meta_rep = evaluate_tasks(
        adapted, test_tasks, feats, options,
        shop_classes=stats.taxonomy, user_pool=pool,
    )
    wide_rep = evaluate_tasks(
        wide_model, test_tasks, feats, options,
        shop_classes=stats.taxonomy, user_pool=pool,
    )
    m = meta_rep.by_class["new"]["ndcg@3"].shop_mean
    w = wide_rep.by_class["new"]["ndcg@3"].shop_mean
    elapsed = time.monotonic() - started
    relative = (m - w) / w if w > 0 else math.inf
    ok = relative >= 0.10 and elapsed < 7200.0
    verdict(
        "criterion 8, MovieLens directional reproduction",
        ok,
        f"new-shop nDCG@3 {m:.3f} vs {w:.3f}, relative {relative:+.1%}, "
        f"{elapsed:.0f}s",
    )
    assert relative >= 0.10
    assert elapsed < 7200.0


# ---------------------------------------------------------------------------
# 9. byte-identical artifacts on rerun, every trainer and sampler
# ---------------------------------------------------------------------------


def _write_cfg(path: Path, out: Path) -> Path:
    cfg = {
        "seed": 11,
        "output_dir": str(out),
        "data": {
            "train": str(out / "train.csv"),
            "test": str(out / "test.csv"),
            "latents": str(out / "latents.csv"),
        },
        "model": {"kind": "mesh", "hidden_dims": [8]},
        "train": {
            "trainer": "meta",
            "alpha": 0.05,
            "beta": 0.05,
            "local_steps": 2,
            "steps": 6,
            "shop_batch_size": 4,
        },
        "eval": {
            "checkpoint": str(out / "checkpoint.json"),
            "adapt": True,
            "recall_ks": [0.1],
            "ndcg_ks": [3],
        },
        "synthetic": {
            "n_users": 120,
            "n_items": 60,
            "n_shops": 8,
            "latent_dim": 6,
            "interactions_per_shop": 120,
            "n_new_shops": 2,
            "min_shop_size": 25,
        },
    }
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def _manifest_lines(path: Path) -> dict:
    entries = read_manifest(path)
    entries.pop("wall_time_seconds")
    return entries


def test_criterion_9_determinism(tmp_path):
    mismatches = []

    def run_world(root: Path) -> Path:
        root.mkdir(parents=True, exist_ok=True)
        out = root / "run"
        cfg = _write_cfg(root / "run.yaml", out)
        assert cli_main(["gen-data", "--config", str(cfg)]) == 0
        return cfg

    cfg_a = run_world(tmp_path / "a")
    cfg_b = run_world(tmp_path / "b")
    out_a, out_b = tmp_path / "a" / "run", tmp_path / "b" / "run"
    for name in ("train.csv", "test.csv", "latents.csv"):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            mismatches.append(f"gen-data {name}")

    with open(out_a / "train.csv", encoding="utf-8") as fh:
        a_shop = next(csv.DictReader(fh))["shop_id"]

    trainer_runs = [
        ("meta", []),
        ("fmst", ["train.trainer=fmst", "train.gamma=0.3",
                  "train.regularizer=option1"]),
        ("nonmeta", ["train.trainer=nonmeta", "train.epochs=2",
                     "data.negative_strategy=n1"]),
        ("one_shop", ["train.trainer=one_shop", "train.epochs=2",
                      f"train.shop_id={a_shop}"]),
        ("baseline", ["train.trainer=baseline", "model.kind=baseline",
                      "train.epochs=2"]),
    ]
    for label, overrides in trainer_runs:
        blobs = []
        manifests = []
        for cfg, out in ((cfg_a, out_a), (cfg_b, out_b)):
            args = ["train", "--config", str(cfg)]
            for ov in overrides:
                args += ["--set", ov]
            assert cli_main(args) == 0, label
            blobs.append((out / "checkpoint.json").read_bytes())
            manifests.append(_manifest_lines(out / "train.manifest"))
        if blobs[0] != blobs[1]:
            mismatches.append(f"{label} checkpoint")
        if manifests[0] != manifests[1]:
            mismatches.append(f"{label} manifest")

    # the meta checkpoint was overwritten above; retrain before evaluating
    for cfg in (cfg_a, cfg_b):
        assert cli_main(["train", "--config", str(cfg)]) == 0
    for cfg, out in ((cfg_a, out_a), (cfg_b, out_b)):
        assert cli_main(["evaluate", "--config", str(cfg)]) == 0
        assert cli_main([
            "adapt", "--config", str(cfg),
            "--set", f"adapt.checkpoint={out / 'checkpoint.json'}",
            "--set", f"adapt.support={out / 'train.csv'}",
        ]) == 0
    for name in ("report.json", "tables.txt"):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            mismatches.append(f"evaluate {name}")
    adapted_a = sorted((out_a / "adapted").glob("*.json"))
    adapted_b = sorted((out_b / "adapted").glob("*.json"))
    if [p.name for p in adapted_a] != [p.name for p in adapted_b]:
        mismatches.append("adapt file set")
    else:
        for pa, pb in zip(adapted_a, adapted_b):
            if pa.read_bytes() != pb.read_bytes():
                mismatches.append(f"adapt {pa.name}")

    # the samplers once more at the library level, all three strategies
    data = generate_synthetic(SyntheticSpec(
        n_users=60, n_items=40, n_shops=6, latent_dim=4, seed=3,
        interactions_per_shop=80, n_new_shops=1, min_shop_size=20,
    ))
    stats = classify_shops(data.train, data.test)
    positives = [r for r in data.train if r.label > 0]
    for strategy in NegativeStrategy:
        first = negative_sample(positives, strategy, stats, 1.0, seed=9)
        second = negative_sample(positives, strategy, stats, 1.0, seed=9)
        if first != second:
            mismatches.append(f"negative_sample {strategy.value}")

    verdict(
        "criterion 9, rerun determinism",
        not mismatches,
        "byte-identical checkpoints, reports, and samples"
        if not mismatches
        else "mismatched: " + ", ".join(mismatches),
    )
    assert not mismatches
