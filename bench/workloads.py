"""The three benchmark workloads.

Each workload is one closed loop: one client in one process, the next call
made only when the previous one returned. A call to ``run_*`` is one repeat
of the whole workload. It records its phase times, serve latencies and
operation counts in a ``Repeat`` and leaves its outputs (checkpoint and
report files, quality figures) for the checks in ``run.py``.

Why these three:

* ``quickstart`` is the README quick start driven through ``cli.main``:
  the only path through YAML config, CSV write and read, checkpoint files
  and manifests. It has no vocabulary, so per-record feature stacking in
  ``prepare_batch`` dominates; a change that only removes vocabulary walks
  should leave it unchanged.
* ``vocab_meta`` is the acceptance world with item id as a 600-row
  categorical field, meta-trained, adapted per shop and served. Tree walks
  into vocabularies, ``tuple.index`` lookups and dense embedding gradients
  dominate it.
* ``pooled_joint`` is the same world trained as the joint MLP with pooled
  SGD and evaluated unadapted. ``prepare_batch`` runs once, so per-step
  record resolution is absent while per-step tree walks remain, and
  scoring goes through the chunked joint branch of ``score_matrix``.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import hostspeed
from metashop import checkpoint, cli, datapipe, evaluation, metaopt, metrics, models, numcore

# The README quick-start config exactly as written there. The benchmark
# overrides only the seed and the paths (see ``run_quickstart``).
README_CONFIG = """\
seed: 7
output_dir: runs/demo

data:
  train: runs/demo/train.csv
  test: runs/demo/test.csv
  latents: runs/demo/latents.csv
  min_interactions: 13
  support_size: 10

model:
  kind: mesh
  hidden_dims: [16]

train:
  trainer: meta
  alpha: 0.05
  beta: 0.05
  local_steps: 2
  steps: 200
  shop_batch_size: 8

eval:
  checkpoint: runs/demo/checkpoint.json
  adapt: true
  recall_ks: [0.1]
  ndcg_ks: [3]

synthetic:
  n_users: 300
  n_items: 150
  n_shops: 12
  latent_dim: 8
  interactions_per_shop: 400
  n_new_shops: 2
  min_shop_size: 60
"""

# The marketplace of each workload is fixed, so that runs with different
# seeds time the same amount of work: evaluation cost grows with the
# heavy-tailed shop sizes a world happens to draw. The workload seed draws
# everything else: each shop's support/query split, model initialisation,
# and the order of task batches and pooled mini-batches.
README_WORLD_SEED = yaml.safe_load(README_CONFIG)["seed"]
ACCEPTANCE_WORLD_SEED = 0

# The acceptance world of tests/test_acceptance.py (criteria 6 and 7).
ACCEPTANCE_WORLD = dict(
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

# A world small enough for warm-up and the smoke check. Every shop keeps at
# least MIN_INTERACTIONS test records, so every test shop has a task.
TINY_WORLD = dict(
    ACCEPTANCE_WORLD,
    n_users=60,
    n_items=80,
    n_shops=8,
    interactions_per_shop=150,
    n_new_shops=2,
    min_shop_size=100,
)

SUPPORT = 20
MIN_INTERACTIONS = 25
RECALL_K = 0.1
RECALL = evaluation.recall_name(RECALL_K)
SERVE_SAMPLES = 100


@dataclass(frozen=True)
class Size:
    """How much work one repeat does."""

    world: dict
    meta_steps: int
    pooled_epochs: int
    serve_samples: int
    quickstart_overrides: tuple[str, ...] = ()
    # the support file of the quickstart ``adapt`` command, relative to the
    # run directory; the smoke check names a missing file to force a failure
    adapt_support: str = "train.csv"


FULL = Size(ACCEPTANCE_WORLD, meta_steps=40, pooled_epochs=5, serve_samples=SERVE_SAMPLES)
TINY = Size(
    TINY_WORLD,
    meta_steps=3,
    pooled_epochs=1,
    serve_samples=12,
    quickstart_overrides=(
        "train.steps=5",
        "synthetic.n_users=60",
        "synthetic.n_items=40",
        "synthetic.n_shops=5",
        "synthetic.interactions_per_shop=80",
        "synthetic.n_new_shops=1",
    ),
)


class RepeatFailed(Exception):
    """An operation the rest of the repeat depends on failed."""


@dataclass
class Repeat:
    """Timings, counts and outputs of one repeat of a workload."""

    tracer: object | None = None
    mark: tuple | None = None
    times: dict = field(default_factory=dict)
    serve_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    start: float = field(default_factory=hostspeed.now)
    total_s: float | None = None
    layers: tuple | None = None
    # reference seconds per measured second while the repeat ran, and while
    # each phase ran (hostspeed.py)
    scale: float = 1.0
    phase_scale: dict = field(default_factory=dict)
    # the calibration slices taken during each phase: [(first, end), ...]
    phase_slices: dict = field(default_factory=dict)
    # () -> (world dict, the model or per-shop models scored, report)
    rank_inputs: object | None = None

    def stop(self) -> None:
        """End of the timed workload; checks after this are not timed."""
        self.total_s = hostspeed.now() - self.start
        if self.tracer is not None:
            self.layers = self.tracer.layer_metrics(self.mark)

    def op(self, name: str, fn, *args, required: bool = True):
        """Run one operation, timing it into phase ``name``.

        A failure is counted, not fatal. When later phases need the result
        (``required``), the rest of the repeat is abandoned.
        """
        self.attempted += 1
        span = self.tracer.span(f"bench.{name}") if self.tracer else contextlib.nullcontext()
        first = hostspeed.SAMPLER.mark()
        start = hostspeed.now()
        try:
            with span:
                result = fn(*args)
        except Exception as exc:  # the benchmark counts any failure and goes on
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            if required:
                raise RepeatFailed(name) from exc
            return None
        self.times[name] = self.times.get(name, 0.0) + hostspeed.now() - start
        self.phase_slices.setdefault(name, []).append((first, hostspeed.SAMPLER.mark()))
        return result

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)


class HybridFeatures:
    """Pretrained user vectors, item identity as a categorical field."""

    def __init__(self, users, item_ids):
        self.users = users
        self.items = {i: {"id": i} for i in item_ids}

    def user_raw(self, u):
        return self.users[u]

    def item_raw(self, i):
        return self.items[i]


def same_model(a, b) -> bool:
    """Bit-for-bit equality of two models' parameters and structure."""
    la, lb = numcore.tree_leaves(a), numcore.tree_leaves(b)
    return (
        checkpoint.model_to_json(a) == checkpoint.model_to_json(b)
        and len(la) == len(lb)
        and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(la, lb)
        )
    )


def _quality(report) -> dict:
    return {
        "new_shop_recall": report.by_class["new"][RECALL].shop_mean,
        "recall_shop_var": report.metrics[RECALL].shop_variance,
    }


def _serve(rep: Repeat, model, tasks, features, cfg, pool, samples) -> dict:
    """One request per test shop in id order, for at least ``samples`` requests.

    A request adapts the model to the shop's support set (when ``cfg`` is
    given), scores the pool against the shop's query items and selects the
    top ``recall@0.1`` users per item. A failed request counts as missing
    any latency limit. Returns the model each shop was first served with.
    """
    ordered = sorted(tasks, key=lambda t: t.shop_id)
    k = evaluation.resolve_k(RECALL_K, len(pool))
    first: dict[str, tuple] = {}

    def request(task):
        m = metaopt.local_adapt(model, task.support, features, cfg) if cfg else model
        items = sorted({r.item_id for r in task.query})
        scores = evaluation.score_matrix(m, pool, items, features)
        return m, np.argsort(-scores, axis=0, kind="stable")[:k]

    for _ in range(math.ceil(samples / len(ordered))):
        for task in ordered:
            start = hostspeed.now()
            out = rep.op("serve", request, task, required=False)
            rep.serve_ms.append((hostspeed.now() - start) * 1e3 if out else math.inf)
            if out is None:
                continue
            m, picks = out
            # every round must serve the same audience to the same shop
            m0, picks0 = first.setdefault(task.shop_id, (m, picks.tobytes()))
            rep.check("serve_repeatable", picks0 == picks.tobytes())
    return {shop: m for shop, (m, _) in first.items()}


def _world_setup(seed: int, size: Size, kind: models.ModelKind, with_train_tasks: bool):
    """Criterion-6 set-up: pretrained users, item id as a categorical field."""
    data = datapipe.generate_synthetic(
        datapipe.SyntheticSpec(seed=ACCEPTANCE_WORLD_SEED, **size.world)
    )
    item_ids = sorted(data.features.items)
    features = HybridFeatures(data.features.users, item_ids)
    rng = np.random.default_rng([seed, 5])
    item_enc = models.build_categorical_encoder([("id", item_ids)], 8, rng)
    model0 = models.build_model(
        kind, models.pretrained_encoder(8), item_enc, [8], rng, sigmoid_output=True
    )
    cfg = metaopt.MetaConfig(
        alpha=0.15, beta=0.1, local_steps=2, shop_batch_size=8,
        support_size=SUPPORT, query_batch_size=512,
        loss_kind=numcore.LossKind.BCE, model_kind=kind, seed=seed,
    )
    train_tasks = (
        datapipe.build_tasks(data.train, MIN_INTERACTIONS, SUPPORT, seed)
        if with_train_tasks else None
    )
    stats = datapipe.classify_shops(data.train, data.test)
    test_tasks = datapipe.attach_size_classes(
        datapipe.build_tasks(data.test, MIN_INTERACTIONS, SUPPORT, seed), stats, True
    )
    return dict(
        data=data, features=features, model0=model0, cfg=cfg,
        train_tasks=train_tasks, stats=stats, test_tasks=test_tasks,
        pool=sorted(data.features.users),
        options=evaluation.EvalOptions(recall_ks=(RECALL_K,), ndcg_ks=(3,), include_mae=False),
    )


def _persist(model, path: Path):
    checkpoint.save_checkpoint(path, model, {"trainer": "bench"})
    loaded, _ = checkpoint.load_checkpoint(path)
    return loaded


def _evaluate(w, models_, report_path: Path):
    report = evaluation.evaluate_tasks(
        models_, w["test_tasks"], w["features"], w["options"],
        shop_classes=w["stats"].taxonomy, user_pool=w["pool"],
    )
    metrics.save_report(report_path, report)
    return report


def _finish_world(rep: Repeat, w, trained, loaded, scored, report, work: Path) -> None:
    rep.check("checkpoint_round_trip", same_model(trained, loaded))
    rep.outputs.update(_quality(report))
    rep.outputs["checkpoint"] = work / "checkpoint.json"
    rep.outputs["report"] = work / "report.json"
    rep.rank_inputs = lambda: (w, scored, report)


def run_vocab_meta(rep: Repeat, seed: int, size: Size, work: Path) -> None:
    w = rep.op("setup", _world_setup, seed, size, models.ModelKind.MESH, True)
    trained, _ = rep.op(
        "train", metaopt.meta_train, w["model0"], w["train_tasks"], w["features"],
        w["cfg"], size.meta_steps,
    )
    loaded = rep.op("persist", _persist, trained, work / "checkpoint.json")

    def evaluate():
        adapted = metaopt.meta_inference(loaded, w["test_tasks"], w["features"], w["cfg"])
        return adapted, _evaluate(w, adapted, work / "report.json")

    adapted, report = rep.op("evaluate", evaluate)
    served = _serve(rep, loaded, w["test_tasks"], w["features"], w["cfg"], w["pool"],
                    size.serve_samples)
    rep.stop()
    rep.check(
        "serve_matches_meta_inference",
        all(same_model(m, adapted[shop]) for shop, m in served.items()),
    )
    _finish_world(rep, w, trained, loaded, adapted, report, work)


def run_pooled_joint(rep: Repeat, seed: int, size: Size, work: Path) -> None:
    w = rep.op("setup", _world_setup, seed, size, models.ModelKind.MESH_I, False)
    trained, _ = rep.op(
        "train", metaopt.nonmeta_train, w["model0"], w["data"].train, w["features"],
        w["cfg"], size.pooled_epochs, 256,
    )
    loaded = rep.op("persist", _persist, trained, work / "checkpoint.json")
    report = rep.op("evaluate", _evaluate, w, loaded, work / "report.json")
    _serve(rep, loaded, w["test_tasks"], w["features"], None, w["pool"], size.serve_samples)
    rep.stop()
    _finish_world(rep, w, trained, loaded, loaded, report, work)


def _cli(command: str, config: Path, overrides: list[str]) -> None:
    argv = [command, "--config", str(config)]
    for s in overrides:
        argv += ["--set", s]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"metashop {command} exited {code}: {err.getvalue().strip()}")


def quickstart_paths(work: Path) -> dict[str, Path]:
    return {
        "train": work / "train.csv",
        "test": work / "test.csv",
        "latents": work / "latents.csv",
        "checkpoint": work / "checkpoint.json",
        "report": work / "report.json",
    }


def _quickstart_serving_inputs(seed: int, paths: dict[str, Path]):
    """What a server loads: the checkpoint, the latents and the test shops."""
    conf = yaml.safe_load(README_CONFIG)
    model, _ = checkpoint.load_checkpoint(paths["checkpoint"])
    features, _ = datapipe.load_latents(paths["latents"])
    tasks = datapipe.build_tasks(
        datapipe.load_interactions(paths["test"]),
        conf["data"]["min_interactions"], conf["data"]["support_size"], seed,
    )
    t = conf["train"]
    cfg = metaopt.MetaConfig(
        alpha=t["alpha"], beta=t["beta"], local_steps=t["local_steps"],
        support_size=conf["data"]["support_size"],
        loss_kind=numcore.LossKind.SQUARED,  # what `train.loss: auto` resolves to
        seed=seed,
    )
    return model, features, tasks, cfg


def run_quickstart(rep: Repeat, seed: int, size: Size, work: Path) -> None:
    config = work / "run.yaml"
    config.write_text(README_CONFIG, encoding="utf-8")
    paths = quickstart_paths(work)
    overrides = [
        f"seed={seed}",
        f"synthetic.seed={README_WORLD_SEED}",
        f"output_dir={work}",
        f"data.train={paths['train']}",
        f"data.test={paths['test']}",
        f"data.latents={paths['latents']}",
        f"eval.checkpoint={paths['checkpoint']}",
        *size.quickstart_overrides,
    ]
    rep.op("setup", _cli, "gen-data", config, overrides)
    rep.op("train", _cli, "train", config, overrides)
    rep.op("evaluate", _cli, "evaluate", config, overrides)
    rep.op(
        "adapt", _cli, "adapt", config,
        overrides + [
            f"adapt.checkpoint={paths['checkpoint']}",
            f"adapt.support={work / size.adapt_support}",
        ],
        required=False,
    )
    model, features, tasks, cfg = rep.op(
        "serve_load", _quickstart_serving_inputs, seed, paths
    )
    pool = sorted(features.users)
    _serve(rep, model, tasks, features, cfg, pool, size.serve_samples)
    rep.stop()

    # the checkpoint the CLI wrote must survive a load -> save -> load trip
    copy = work / "checkpoint.copy.json"
    checkpoint.save_checkpoint(copy, model, checkpoint.load_checkpoint(paths["checkpoint"])[1])
    again, _ = checkpoint.load_checkpoint(copy)
    rep.check(
        "checkpoint_round_trip",
        copy.read_bytes() == paths["checkpoint"].read_bytes() and same_model(model, again),
    )
    rep.outputs.update(_quality(metrics.load_report(paths["report"])))
    rep.outputs["checkpoint"] = paths["checkpoint"]
    rep.outputs["report"] = paths["report"]
    rep.rank_inputs = lambda: quickstart_rank_inputs(seed, work)


def quickstart_rank_inputs(seed: int, work: Path):
    """The adapted models, tasks and pool ``metashop evaluate`` scored."""
    conf = yaml.safe_load(README_CONFIG)
    paths = quickstart_paths(work)
    model, features, _, cfg = _quickstart_serving_inputs(seed, paths)
    train = datapipe.load_interactions(paths["train"])
    test = datapipe.load_interactions(paths["test"])
    stats = datapipe.classify_shops(train, test)
    tasks = datapipe.attach_size_classes(
        datapipe.build_tasks(
            test, conf["data"]["min_interactions"], conf["data"]["support_size"], seed
        ),
        stats, True,
    )
    w = dict(
        features=features, test_tasks=tasks, stats=stats,
        pool=sorted({r.user_id for r in train} | {r.user_id for r in test}),
        options=evaluation.EvalOptions(recall_ks=(RECALL_K,), ndcg_ks=(3,)),
    )
    adapted = metaopt.meta_inference(model, tasks, features, cfg)
    return w, adapted, metrics.load_report(paths["report"])


WORKLOADS = {
    "quickstart": run_quickstart,
    "vocab_meta": run_vocab_meta,
    "pooled_joint": run_pooled_joint,
}


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
