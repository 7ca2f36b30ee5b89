"""Command-line entry points: dataset generation, training, adaptation,
evaluation, ablation grids, and report rendering.

Runs are driven by one YAML config file with these sections (all optional
unless a command needs them):

    seed: 7                # mandatory, every random stream derives from it
    output_dir: runs/demo  # where artifacts land

    data:
      train: data/train.csv        # interaction files
      test: data/test.csv
      latents: data/latents.csv    # pretrained feature vectors, or:
      user_attrs: data/users.csv   # categorical attributes (both needed)
      item_attrs: data/items.csv
      min_interactions: 13         # task admission threshold
      support_size: 10
      negative_strategy: none      # none | n0 | n1 | n2
      negative_ratio: 1.0

    model:
      kind: mesh                   # mesh | mesh_i | wide_deep | baseline
      hidden_dims: [32]
      embedding_dim: 16            # categorical encoders only
      sigmoid_output: auto         # auto | true | false
      margin: 1.0                  # baseline only
      negative_weight: 1.0         # baseline only

    train:
      trainer: meta                # meta | fmst | nonmeta | one_shop | baseline
      alpha: 0.01                  # local / plain-SGD rate
      beta: 0.1                    # global meta rate
      local_steps: 2
      gamma: 0.0                   # fair-training weight (fmst)
      regularizer: option1         # option1 | option2
      shop_batch_size: 8
      query_batch_size: null
      steps: 100                   # meta trainers
      epochs: 5                    # pooled / one-shop / baseline trainers
      batch_size: null
      loss: auto                   # auto | squared | bce
      outer_optimizer: sgd         # sgd | adam
      task_unit: shop              # shop | item | user
      early_stop_patience: null
      shop_id: null                # one_shop trainer target

    eval:
      checkpoint: runs/demo/checkpoint.json
      adapt: false                 # adapt per shop before scoring
      recall_ks: [0.1]
      ndcg_ks: [3]
      recall_mode: standard        # standard | topk_fraction
      include_mae: true
      thresholds: [0.5, 0.6, 0.7, 0.8]
      rating_positive_threshold: 4.0
      candidate_pool: all_users    # all_users | observed
      query_mode: null             # null (infer) | item | user_shop

    synthetic:                     # gen-data knobs: SyntheticSpec fields
      n_users: 400
      ...

    ablation:
      study: debias_gamma          # one_shop | negative_sampling |
      n_shops: 6                   #   debias_gamma | task_unit
      gammas: [0.0, 0.01, 0.8]

    adapt:
      checkpoint: runs/demo/checkpoint.json
      support: data/support.csv
      shops: null                  # default: every shop in the support file

`--set section.key=value` overrides file values (values parsed as YAML, so
`--set train.steps=50` and `--set eval.recall_ks=[1,3]` both work); flags
beat the file. Unknown keys fail validation before anything is written.

`ablation` runs one study as a grid of settings. Each row is what `train`
then `evaluate` with `eval.adapt: true` write for that setting, and every
other config value applies to every row: `debias_gamma` trains with
`train.trainer: fmst` at each `train.gamma` in `ablation.gammas`;
`negative_sampling` sets `data.negative_strategy` to n0, n1 and n2;
`task_unit` sets `train.task_unit` to shop, item and user, and needs
`train.trainer` meta or fmst, the trainers that build tasks; `one_shop` scores
one `meta` row on `ablation.n_shops` sampled shops next to a `one_shop`
model per sampled shop, scored unadapted.

Each section's keys and types come from its dataclass below (`synthetic`
from SyntheticSpec, whose values are type-checked but passed on as
written). A choice key's type gives its allowed strings: the library enum
that the parsed config holds a member of, or a `Literal` of strings kept
as written (the trainers, the studies, and `auto` and `none`, which mean
squared loss for any labels and no negative sampling).

Exit codes: 0 success, 1 config error, 2 data error (any malformed input
file, checkpoints and feature widths included), 3 numeric failure (a
non-finite loss, gradient or parameter update).
"""

from __future__ import annotations

import argparse
import sys
import time
import types
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import (
    Any,
    Literal,
    Mapping,
    Sequence,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np
import yaml

from . import numcore
from .checkpoint import atomic_write_text, load_checkpoint, read_text, save_checkpoint
from .datapipe import (
    AttributeTable,
    InteractionRecord,
    NegativeStrategy,
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
    purchase_histories,
    save_interactions,
    save_latents,
    stable_hash64,
)
from .errors import ConfigError, DataError, MetaShopError, NumericError, ShapeError
from .evaluation import (
    CandidatePool,
    EvalOptions,
    QueryMode,
    evaluate_tasks,
)
from .metaopt import (
    MetaConfig,
    OuterOptimizer,
    RegularizerKind,
    config_manifest_entries,
    local_adapt,
    meta_inference,
    meta_train,
    nonmeta_train,
    one_shop_train,
    train_baseline,
    write_manifest,
)
from .metrics import RecallMode, load_report, report_tables, save_report
from .models import (
    BaselineModel,
    ModelKind,
    RecModel,
    baseline_score_matrix,
    baseline_user_reps,
    build_baseline,
    build_categorical_encoder,
    build_model,
    pretrained_encoder,
)

_TAG_MODEL_INIT = 5
_TAG_ONE_SHOP_INIT = 7
_TAG_ABLATION = 37


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------


@dataclass
class DataConfig:
    train: str | None = None
    test: str | None = None
    latents: str | None = None
    user_attrs: str | None = None
    item_attrs: str | None = None
    min_interactions: int = 13
    support_size: int = 10
    negative_strategy: NegativeStrategy | Literal["none"] = "none"
    negative_ratio: float = 1.0


@dataclass
class ModelConfig:
    kind: ModelKind = ModelKind.MESH
    hidden_dims: list[int] = field(default_factory=lambda: [32])
    embedding_dim: int = 16
    sigmoid_output: bool | Literal["auto"] = "auto"
    margin: float = 1.0
    negative_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.hidden_dims or any(d < 1 for d in self.hidden_dims):
            raise ConfigError("model.hidden_dims must be positive integers")


@dataclass
class TrainConfig:
    trainer: Literal["meta", "fmst", "nonmeta", "one_shop", "baseline"] = "meta"
    alpha: float = 0.01
    beta: float = 0.1
    local_steps: int = 2
    gamma: float = 0.0
    regularizer: RegularizerKind = RegularizerKind.OPTION_I
    shop_batch_size: int = 8
    query_batch_size: int | None = None
    steps: int = 100
    epochs: int = 5
    batch_size: int | None = None
    loss: numcore.LossKind | Literal["auto"] = "auto"
    outer_optimizer: OuterOptimizer = OuterOptimizer.SGD
    task_unit: TaskUnit = TaskUnit.SHOP
    early_stop_patience: int | None = None
    shop_id: str | None = None


@dataclass
class EvalConfig:
    checkpoint: str | None = None
    adapt: bool = False
    recall_ks: list[float] = field(default_factory=lambda: [0.1])
    ndcg_ks: list[int] = field(default_factory=lambda: [3])
    recall_mode: RecallMode = RecallMode.STANDARD
    include_mae: bool = True
    thresholds: list[float] = field(default_factory=lambda: [0.5, 0.6, 0.7, 0.8])
    rating_positive_threshold: float = 4.0
    candidate_pool: CandidatePool = CandidatePool.ALL_USERS
    query_mode: QueryMode | None = None


@dataclass
class AblationConfig:
    # empty until a config names one
    study: Literal["one_shop", "negative_sampling", "debias_gamma", "task_unit"] = ""
    n_shops: int = 6
    gammas: list[float] = field(default_factory=lambda: [0.0, 0.01, 0.8])

    def __post_init__(self) -> None:
        if self.n_shops < 1:
            raise ConfigError(f"ablation.n_shops must be >= 1, got {self.n_shops}")


@dataclass
class AdaptConfig:
    checkpoint: str | None = None
    support: str | None = None
    shops: list[str] | None = None


@dataclass
class RunConfig:
    seed: int
    output_dir: str | None
    data: DataConfig
    model: ModelConfig
    train: TrainConfig
    eval: EvalConfig
    synthetic: dict[str, Any]
    ablation: AblationConfig
    adapt: AdaptConfig


_SECTIONS = {
    "data": DataConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
    "synthetic": SyntheticSpec,
    "ablation": AblationConfig,
    "adapt": AdaptConfig,
}
_HINTS = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}

# List wording by element type; adapt.shops is the one list of strings.
_LIST_OF = {
    int: "a list of integers",
    float: "a non-empty list of numbers",
    str: "a list of shop ids",
}


def _cast(path: str, hint: Any, v: Any) -> Any:
    """Check ``v`` against the type hint of the field at ``path``.

    Returns the value with ints widened where a float is declared and a
    choice key's string as its enum member. A string the hint lists as a
    ``Literal`` (auto, none, a trainer or a study) is returned as written.
    """
    is_union = get_origin(hint) in (Union, types.UnionType)
    members = get_args(hint) if is_union else (hint,)
    if v is None and type(None) in members:
        return None
    literals = [a for m in members if get_origin(m) is Literal for a in get_args(m)]
    if v is None and "none" in literals:
        v = "none"  # YAML null and the word none mean the same
    if isinstance(v, str) and v in literals:
        return v
    rest = [m for m in members if m is not type(None) and get_origin(m) is not Literal]
    hint = rest[0] if rest else str
    if get_origin(hint) is list:
        (item,) = get_args(hint)
        if not isinstance(v, (list, tuple)) or (item is float and not v):
            raise ConfigError(f"{path} must be {_LIST_OF[item]}")
        return [_cast(f"{path}[{i}]", item, x) for i, x in enumerate(v)]
    if hint is bool:
        if not isinstance(v, bool):
            raise ConfigError(f"{path} must be true or false, got {v!r}")
    elif hint is int:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{path} must be an integer, got {type(v).__name__}")
    elif hint is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path} must be a number, got {type(v).__name__}")
        try:
            return float(v)
        except OverflowError:
            raise ConfigError(f"{path} is too large for a number") from None
    else:
        choices = literals if hint is str else literals + [k.value for k in hint]
        if not isinstance(v, str) or not v:
            raise ConfigError(f"{path} must be a non-empty string, got {v!r}")
        if choices and v not in choices:
            raise ConfigError(f"{path} must be one of {', '.join(choices)}; got {v!r}")
        if hint is not str:
            return hint(v)
    return v


def parse_config(raw: Mapping[str, Any]) -> RunConfig:
    """Validate the raw config mapping into a RunConfig (fail fast).

    Section keys and types come from the section dataclasses; synthetic
    values are checked against SyntheticSpec but kept as written.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError("config file must hold a mapping at the top level")
    unknown = set(raw) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown, key=str)[0]}")
    if "seed" not in raw:
        raise ConfigError("config needs a top-level seed")
    seed = _cast("seed", int, raw["seed"])
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    output_dir = _cast("output_dir", str | None, raw.get("output_dir"))
    for section in _SECTIONS:
        if section in raw and not isinstance(raw[section], Mapping):
            raise ConfigError(f"config section {section} must be a mapping")
    sections: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        hints = _HINTS[name]
        values = {}
        for key, value in raw.get(name, {}).items():
            if key not in hints:
                raise ConfigError(f"unknown config key {name}.{key}")
            cast = _cast(f"{name}.{key}", hints[key], value)
            values[key] = value if cls is SyntheticSpec else cast
        sections[name] = values if cls is SyntheticSpec else cls(**values)
    return RunConfig(seed, output_dir, **sections)


def load_config(path: str | Path, overrides: Sequence[str] = ()) -> RunConfig:
    """Read the YAML config, apply --set overrides, and validate."""
    try:
        raw = yaml.safe_load(read_text(path, "config ", ConfigError))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a mapping at the top level")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        dotted, _, text_value = item.partition("=")
        keys = [k for k in dotted.split(".") if k]
        if not keys:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        try:
            value = yaml.safe_load(text_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"--set {dotted}: bad value {text_value!r}") from exc
        node = raw
        for k in keys[:-1]:
            nxt = node.setdefault(k, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"--set {dotted}: {k} is not a section")
            node = nxt
        node[keys[-1]] = value
    return parse_config(raw)


def _require(value: Any, what: str) -> Any:
    if value is None or value == "":
        raise ConfigError(f"this command needs {what}")
    return value


def _require_path(value: str | None, what: str) -> Path:
    path = Path(_require(value, what))
    if not path.exists():
        raise ConfigError(f"{what} {path} does not exist")
    return path


def _out_dir(cfg: RunConfig) -> Path:
    return Path(_require(cfg.output_dir, "output_dir"))


# ---------------------------------------------------------------------------
# assembly helpers
# ---------------------------------------------------------------------------


def _feature_source(cfg: RunConfig):
    """Load the configured feature source: latents, or user and item attributes."""
    data = cfg.data
    if data.latents is not None:
        table, _ = load_latents(_require_path(data.latents, "data.latents"))
        return table
    if data.user_attrs is not None or data.item_attrs is not None:
        if data.user_attrs is None or data.item_attrs is None:
            raise ConfigError(
                "categorical features need both data.user_attrs and data.item_attrs"
            )
        users = load_attributes(_require_path(data.user_attrs, "data.user_attrs"))
        items = load_attributes(_require_path(data.item_attrs, "data.item_attrs"))
        return AttributeTable(users, items)
    raise ConfigError(
        "no feature source: set data.latents, or data.user_attrs plus data.item_attrs"
    )


def _resolve_sigmoid(cfg: RunConfig, records: Sequence[InteractionRecord]) -> bool:
    """model.sigmoid_output, where auto means: the labels are all 0 or 1."""
    s = cfg.model.sigmoid_output
    if s == "auto":
        return all(r.label in (0.0, 1.0) for r in records)
    return bool(s)


def _from_section(cls, section, **more: Any):
    """``cls`` built from the ``section`` fields it shares by name, plus ``more``."""
    names = cls.__dataclass_fields__.keys() & vars(section).keys()
    return cls(**{n: getattr(section, n) for n in names}, **more)


def _meta_config(cfg: RunConfig) -> MetaConfig:
    loss = cfg.train.loss
    return _from_section(
        MetaConfig,
        cfg.train,
        support_size=cfg.data.support_size,
        loss_kind=numcore.LossKind.SQUARED if loss == "auto" else loss,
        model_kind=cfg.model.kind,
        seed=cfg.seed,
    )


def _build_fresh_model(cfg: RunConfig, features, sigmoid: bool, seed_tag):
    """Initialise the configured model against the feature source."""
    rng = np.random.default_rng(seed_tag)
    if isinstance(features, AttributeTable):
        user_enc = build_categorical_encoder(
            attribute_fields(features.users), cfg.model.embedding_dim, rng
        )
        item_enc = build_categorical_encoder(
            attribute_fields(features.items), cfg.model.embedding_dim, rng
        )
    else:
        user_dim = len(next(iter(features.users.values()))) if features.users else 0
        item_dim = len(next(iter(features.items.values())))
        user_enc = pretrained_encoder(user_dim)
        item_enc = pretrained_encoder(item_dim)
    try:
        if cfg.model.kind is ModelKind.BASELINE:
            return build_baseline(
                item_enc,
                cfg.model.hidden_dims,
                rng,
                margin=cfg.model.margin,
                negative_weight=cfg.model.negative_weight,
            )
        return build_model(
            cfg.model.kind, user_enc, item_enc, cfg.model.hidden_dims, rng, sigmoid
        )
    except ShapeError as exc:
        raise ConfigError(f"model does not fit the features: {exc}") from exc


def _eval_options(cfg: RunConfig) -> EvalOptions:
    return _from_section(EvalOptions, cfg.eval)


def _loss_entries(losses: Sequence[float]) -> list[tuple[str, Any]]:
    return [(f"loss.{i:04d}", repr(v)) for i, v in enumerate(losses)]


def _headline(report) -> str:
    parts = []
    for name in sorted(report.metrics):
        s = report.metrics[name]
        if s.shop_mean is not None:
            parts.append(f"{name} shop_mean={s.shop_mean:.4f}")
    return ", ".join(parts) if parts else "no defined metrics"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig) -> int:
    started = time.monotonic()
    out = _out_dir(cfg)
    spec_args = dict(cfg.synthetic)
    spec_args.setdefault("seed", cfg.seed)
    spec = SyntheticSpec(**spec_args)
    data = generate_synthetic(spec)
    save_interactions(out / "train.csv", data.train)
    save_interactions(out / "test.csv", data.test)
    save_latents(
        out / "latents.csv", data.features.users, data.features.items,
        data.shop_effects,
    )
    sizes: dict[str, int] = {}
    for r in data.train + data.test:
        sizes[r.shop_id] = sizes.get(r.shop_id, 0) + 1
    entries = [("command", "gen-data"), ("seed", cfg.seed)]
    entries += config_manifest_entries(spec, "synthetic")
    entries += [
        ("train_records", len(data.train)),
        ("test_records", len(data.test)),
        ("new_shops", ",".join(data.new_shops)),
    ]
    entries += [(f"shop_size.{s}", sizes[s]) for s in sorted(sizes)]
    entries.append(("wall_time_seconds", f"{time.monotonic() - started:.3f}"))
    write_manifest(out / "gen-data.manifest", entries)
    print(
        f"wrote {len(data.train)} train and {len(data.test)} test records "
        f"for {spec.n_shops} shops ({len(data.new_shops)} held out as new) "
        f"to {out}"
    )
    return 0


def _load_train_records(cfg: RunConfig) -> list[InteractionRecord]:
    return load_interactions(_require_path(cfg.data.train, "data.train"))


def _load_test_records(cfg: RunConfig) -> list[InteractionRecord]:
    return load_interactions(_require_path(cfg.data.test, "data.test"))


def _training_set(cfg: RunConfig, records: list[InteractionRecord]):
    """Check the trainer/kind pairing, then add sampled negatives if asked for.

    Returns (training records, their shop stats, resolved sigmoid_output,
    MetaConfig). An ablation arm builds it once for every model it trains.
    """
    if (cfg.train.trainer == "baseline") != (cfg.model.kind is ModelKind.BASELINE):
        raise ConfigError("trainer=baseline and model.kind=baseline go together")
    sigmoid = _resolve_sigmoid(cfg, records)
    meta_cfg = _meta_config(cfg)
    stats = classify_shops(records, [])
    if cfg.data.negative_strategy != "none":
        positives = [r for r in records if r.label > 0]
        records = records + negative_sample(
            positives,
            cfg.data.negative_strategy,
            stats,
            ratio=cfg.data.negative_ratio,
            seed=cfg.seed,
        )
    return records, stats, sigmoid, meta_cfg


def _train_model(cfg: RunConfig, training, features, seed_tag: list[int]):
    """Build a fresh model and train it on a _training_set; returns (model, history)."""
    records, stats, sigmoid, meta_cfg = training
    model = _build_fresh_model(cfg, features, sigmoid, seed_tag)
    t = cfg.train
    trainer = t.trainer
    if trainer in ("meta", "fmst"):
        tasks = build_tasks(
            records,
            min_interactions=cfg.data.min_interactions,
            support_size=cfg.data.support_size,
            seed=cfg.seed,
            task_unit=meta_cfg.task_unit,
        )
        if not tasks:
            raise DataError(
                "no task reaches data.min_interactions; lower it or add data"
            )
        if trainer == "fmst" and meta_cfg.gamma != 0.0:
            if meta_cfg.task_unit is not TaskUnit.SHOP:
                raise ConfigError(
                    "fair training sizes tasks by shop sales; use task_unit=shop"
                )
            tasks = attach_size_classes(tasks, stats, use_taxonomy=False)
        return meta_train(
            model, tasks, features, meta_cfg, t.steps,
            regularized=(trainer == "fmst"),
            early_stop_patience=t.early_stop_patience,
        )
    if trainer == "nonmeta":
        return nonmeta_train(
            model, records, features, meta_cfg, t.epochs, t.batch_size
        )
    if trainer == "one_shop":
        shop = _require(t.shop_id, "train.shop_id (the shop to train on)")
        subset = [r for r in records if r.shop_id == shop]
        if not subset:
            raise DataError(f"no training records for shop {shop!r}")
        return one_shop_train(model, subset, features, meta_cfg, t.epochs, t.batch_size)
    # the one trainer left after config parsing: baseline
    return train_baseline(
        model, records, features, meta_cfg, t.epochs,
        64 if t.batch_size is None else t.batch_size,
    )


def cmd_train(cfg: RunConfig) -> int:
    started = time.monotonic()
    out = _out_dir(cfg)
    records = _load_train_records(cfg)
    features = _feature_source(cfg)
    training = _training_set(cfg, records)
    model, history = _train_model(
        cfg, training, features, [cfg.seed, _TAG_MODEL_INIT]
    )
    trainer = cfg.train.trainer
    ckpt = out / "checkpoint.json"
    save_checkpoint(
        ckpt, model,
        {"trainer": trainer, "model_kind": cfg.model.kind.value, "seed": str(cfg.seed)},
    )
    entries = [("command", "train"), ("trainer", trainer)]
    entries += config_manifest_entries(_meta_config(cfg))
    entries += [
        ("train_records", len(training[0])),
        ("steps_run", len(history.losses)),
        ("stopped_early", str(history.stopped_early).lower()),
    ]
    entries += _loss_entries(history.losses)
    entries.append(("wall_time_seconds", f"{time.monotonic() - started:.3f}"))
    write_manifest(out / "train.manifest", entries)
    last = f"{history.losses[-1]:.6f}" if history.losses else "n/a"
    print(
        f"{trainer} training ran {len(history.losses)} steps "
        f"(final loss {last}); checkpoint at {ckpt}"
    )
    return 0


def cmd_adapt(cfg: RunConfig) -> int:
    started = time.monotonic()
    out = _out_dir(cfg)
    ckpt_path = _require_path(cfg.adapt.checkpoint, "adapt.checkpoint")
    support_path = _require_path(cfg.adapt.support, "adapt.support")
    model, meta = load_checkpoint(ckpt_path)
    if not isinstance(model, RecModel):
        raise ConfigError("only the shared recommendation models can adapt")
    features = _feature_source(cfg)
    records = load_interactions(support_path)
    groups: dict[str, list[InteractionRecord]] = {}
    for r in records:
        groups.setdefault(r.shop_id, []).append(r)
    shops = cfg.adapt.shops or sorted(groups)
    meta_cfg = _meta_config(cfg)
    adapted_dir = out / "adapted"
    written = []
    for shop in shops:
        if shop not in groups or not groups[shop]:
            raise DataError(f"no support records for shop {shop!r}")
        adapted = local_adapt(model, groups[shop], features, meta_cfg)
        path = adapted_dir / f"{shop}.json"
        save_checkpoint(path, adapted, meta)
        written.append(path)
    entries = [("command", "adapt"), ("checkpoint", str(ckpt_path))]
    entries += config_manifest_entries(meta_cfg)
    entries += [("shops", ",".join(shops)), ("files", len(written))]
    entries.append(("wall_time_seconds", f"{time.monotonic() - started:.3f}"))
    write_manifest(out / "adapt.manifest", entries)
    print(f"adapted {len(written)} shops into {adapted_dir}")
    return 0


def _evaluation_pieces(cfg: RunConfig):
    """Everything evaluate/ablation share: records, features, stats, tasks, pool."""
    train_records = _load_train_records(cfg)
    test_records = _load_test_records(cfg)
    features = _feature_source(cfg)
    stats = classify_shops(train_records, test_records)
    tasks = build_tasks(
        test_records,
        min_interactions=cfg.data.min_interactions,
        support_size=cfg.data.support_size,
        seed=cfg.seed,
    )
    if not tasks:
        raise DataError("no evaluation task reaches data.min_interactions")
    pool = sorted(
        {r.user_id for r in train_records} | {r.user_id for r in test_records}
    )
    return train_records, features, stats, tasks, pool


def _evaluate_model(cfg, model, tasks, features, stats, pool, train_records):
    models: Any = model
    if isinstance(model, BaselineModel):
        # bind the baseline once: one user representation per pool user
        histories = purchase_histories(train_records)
        reps = baseline_user_reps(model, histories, features, pool)
        models = partial(baseline_score_matrix, model, reps, features=features)
    elif cfg.eval.adapt and isinstance(model, RecModel):
        models = meta_inference(model, tasks, features, _meta_config(cfg))
    return evaluate_tasks(
        models,
        tasks,
        features,
        _eval_options(cfg),
        shop_classes=stats.taxonomy,
        user_pool=pool,
    )


def cmd_evaluate(cfg: RunConfig) -> int:
    started = time.monotonic()
    out = _out_dir(cfg)
    ckpt_path = _require_path(cfg.eval.checkpoint, "eval.checkpoint")
    model, _ = load_checkpoint(ckpt_path)
    train_records, features, stats, tasks, pool = _evaluation_pieces(cfg)
    report = _evaluate_model(cfg, model, tasks, features, stats, pool, train_records)
    save_report(out / "report.json", report)
    atomic_write_text(out / "tables.txt", report_tables(report))
    entries = [("command", "evaluate"), ("checkpoint", str(ckpt_path))]
    entries += config_manifest_entries(_eval_options(cfg), "eval")
    entries += [("adapt", str(cfg.eval.adapt).lower())]
    entries += [(f"count.{k}", v) for k, v in sorted(report.counts.items())]
    entries.append(("wall_time_seconds", f"{time.monotonic() - started:.3f}"))
    write_manifest(out / "evaluate.manifest", entries)
    print(f"evaluated {report.counts['queries']} queries: {_headline(report)}")
    print(f"report at {out / 'report.json'}; tables at {out / 'tables.txt'}")
    return 0


def cmd_report(report_path: str, out_path: str | None) -> int:
    report = load_report(report_path)
    text = report_tables(report)
    if out_path:
        atomic_write_text(out_path, text)
        print(f"tables written to {out_path}")
    else:
        print(text, end="")
    return 0


# ---------------------------------------------------------------------------
# ablation grids
# ---------------------------------------------------------------------------


def _grid_metrics(report) -> dict[str, tuple[float | None, float | None]]:
    return {
        name: (s.shop_mean, s.shop_variance)
        for name, s in sorted(report.metrics.items())
    }


def _write_grid(out: Path, study: str, rows: list[tuple[str, dict]]) -> None:
    names = sorted({n for _, metrics in rows for n in metrics})
    header = ["setting"]
    for n in names:
        header += [f"{n}.shop_mean", f"{n}.shop_variance"]
    lines = ["\t".join(header)]
    for label, metrics in rows:
        cells = [label]
        for n in names:
            mean, var = metrics.get(n, (None, None))
            cells.append("" if mean is None else f"{mean:.6f}")
            cells.append("" if var is None else f"{var:.6f}")
        lines.append("\t".join(cells))
    atomic_write_text(out / f"ablation_{study}.tsv", "\n".join(lines) + "\n")


def _with(cfg: RunConfig, **sections: Mapping[str, Any]) -> RunConfig:
    """``cfg`` with keys replaced per section, e.g. ``train={"gamma": 0.8}``."""
    changed = {s: replace(getattr(cfg, s), **keys) for s, keys in sections.items()}
    return replace(cfg, **changed)


def _study_settings(cfg: RunConfig, study: str) -> list[tuple[str, str, RunConfig]]:
    """(row label, report file, config) for each adapted row of a study."""

    def row(label: str, report: str | None = None, **sections: Mapping[str, Any]):
        setting = _with(cfg, eval={"adapt": True}, **sections)
        return label, f"report_{report or label}.json", setting

    if study == "debias_gamma":
        return [
            row(f"gamma={g:g}", train={"trainer": "fmst", "gamma": g})
            for g in cfg.ablation.gammas
        ]
    if study == "negative_sampling":
        return [row(s.value, data={"negative_strategy": s}) for s in NegativeStrategy]
    if study == "task_unit":
        if cfg.train.trainer not in ("meta", "fmst"):
            raise ConfigError(
                f"train.trainer={cfg.train.trainer} ignores train.task_unit; "
                "the task_unit study needs trainer meta or fmst"
            )
        return [row(u.value, train={"task_unit": u}) for u in TaskUnit]
    # the one study left after config parsing: one_shop
    return [row("meta_adapted", "meta", train={"trainer": "meta"})]


def cmd_ablation(cfg: RunConfig) -> int:
    started = time.monotonic()
    out = _out_dir(cfg)
    study = _require(cfg.ablation.study, "ablation.study")
    settings = _study_settings(cfg, study)
    train_records, features, stats, tasks, pool = _evaluation_pieces(cfg)
    if study == "one_shop":
        eligible = sorted(
            {t.shop_id for t in tasks}
            & {r.shop_id for r in train_records}
        )
        if not eligible:
            raise DataError("one_shop study needs shops present in train and test")
        rng = np.random.default_rng([cfg.seed, _TAG_ABLATION])
        n_sample = min(cfg.ablation.n_shops, len(eligible))
        picked = sorted(
            eligible[i] for i in rng.choice(len(eligible), n_sample, replace=False)
        )
        tasks = [t for t in tasks if t.shop_id in picked]

    rows: list[tuple[str, dict]] = []
    for label, report_name, setting in settings:
        training = _training_set(setting, train_records)
        model, _ = _train_model(
            setting, training, features, [cfg.seed, _TAG_MODEL_INIT]
        )
        report = _evaluate_model(
            setting, model, tasks, features, stats, pool, train_records
        )
        save_report(out / report_name, report)
        rows.append((label, _grid_metrics(report)))
    if study == "one_shop":
        arm = _with(cfg, eval={"adapt": False}, train={"trainer": "one_shop"})
        training = _training_set(arm, train_records)
        models = {}
        for shop in picked:
            models[shop], _ = _train_model(
                _with(arm, train={"shop_id": shop}),
                training, features,
                [cfg.seed, _TAG_ONE_SHOP_INIT, stable_hash64(shop)],
            )
        report = _evaluate_model(
            arm, models, tasks, features, stats, pool, train_records
        )
        save_report(out / "report_one_shop.json", report)
        rows.append(("one_shop", _grid_metrics(report)))

    _write_grid(out, study, rows)
    entries = [("command", "ablation"), ("study", study), ("seed", cfg.seed)]
    entries += [("rows", ",".join(label for label, _ in rows))]
    entries.append(("wall_time_seconds", f"{time.monotonic() - started:.3f}"))
    write_manifest(out / f"ablation_{study}.manifest", entries)
    print(f"{study} grid with {len(rows)} settings written to "
          f"{out / f'ablation_{study}.tsv'}")
    return 0


def cmd_prep_ml1m(source: str, out: str, holdout: str | None, year: int) -> int:
    holdout_list = (
        [s for s in holdout.split(",") if s] if holdout is not None else None
    )
    counts = convert_ml1m(source, out, holdout_list, train_before_year=year)
    print(
        f"converted {counts['train_records']} train and "
        f"{counts['test_records']} test ratings "
        f"({counts['holdout_shops']} held-out shops) into {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _add_config_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="YAML run config")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (dotted keys, YAML-parsed values)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metashop",
        description=(
            "Shop-level meta-learning for cold-start item advertisement: "
            "generate data, train, adapt per shop, evaluate, and run "
            "ablation grids."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("gen-data", "generate a synthetic marketplace dataset"),
        ("train", "train a model and write a checkpoint"),
        ("adapt", "adapt a checkpoint to each shop in a support file"),
        ("evaluate", "score a checkpoint on test tasks and write reports"),
        ("ablation", "run a named comparison grid"),
    ):
        p = sub.add_parser(name, help=text, description=text)
        _add_config_args(p)

    p = sub.add_parser("report", help="render a saved report as tables")
    p.add_argument("--report", required=True, help="report.json path")
    p.add_argument("--out", default=None, help="write tables here (default stdout)")

    p = sub.add_parser(
        "prep-ml1m", help="convert a MovieLens 1M dump (genres become shops)"
    )
    p.add_argument("--source", required=True, help="directory with *.dat files")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--holdout", default=None,
        help="comma-separated shops to hold out of training (default: automatic)",
    )
    p.add_argument(
        "--train-before-year", type=int, default=1998,
        help="movies released before this year form the training period",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "report":
            return cmd_report(args.report, args.out)
        if args.command == "prep-ml1m":
            return cmd_prep_ml1m(
                args.source, args.out, args.holdout, args.train_before_year
            )
        cfg = load_config(args.config, args.overrides)
        handler = {
            "gen-data": cmd_gen_data,
            "train": cmd_train,
            "adapt": cmd_adapt,
            "evaluate": cmd_evaluate,
            "ablation": cmd_ablation,
        }[args.command]
        return handler(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ShapeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MetaShopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
