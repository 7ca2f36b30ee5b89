"""Each rule has one owner: the train hyperparameters are declared once, the
at-least check, the negative ratio, the binary-label predicate and each
loader check are stated once, only one helper reads CSV text, only datapipe
sets a task's split, and every rng purpose tag lives in datapipe's registry.
A bad value gets the same message whether a config carries it or a library
call does."""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

import metashop
from metashop.cli import TrainConfig, parse_config
from metashop.datapipe import (
    FeatureTable,
    InteractionRecord,
    NegativeStrategy,
    ShopTask,
    SyntheticSpec,
    build_tasks,
    classify_shops,
    negative_sample,
)
from metashop.errors import ConfigError
from metashop.metaopt import MetaConfig, TrainParams, meta_train, nonmeta_train
from metashop.models import ModelKind, build_model, pretrained_encoder

SRC = Path(metashop.__file__).parent
RECORDS = [InteractionRecord("u1", "i1", "s1", 1.0, 1, "ga"),
           InteractionRecord("u2", "i1", "s1", 0.0, 2, "ga")]
FEATURES = FeatureTable({"u1": np.ones(2), "u2": np.zeros(2)}, {"i1": np.ones(2)})
MODEL = build_model(ModelKind.MESH, pretrained_encoder(2), pretrained_encoder(2), [3], 0, False)
CFG = MetaConfig(alpha=0.1, beta=0.1)
TASKS = [ShopTask("s1", RECORDS[:1], RECORDS[1:])]


def _meta(**kw):
    return MetaConfig(alpha=0.1, beta=0.1, **kw)


# (config values, the library call given the same bad value, the message)
RULES = {
    "steps": ({"train": {"steps": -1}},
              lambda: meta_train(MODEL, TASKS, FEATURES, CFG, -1),
              "steps must be >= 0, got -1"),
    "epochs": ({"train": {"epochs": -1}},
               lambda: nonmeta_train(MODEL, RECORDS, FEATURES, CFG, -1),
               "epochs must be >= 0, got -1"),
    "batch_size": ({"train": {"batch_size": 0}},
                   lambda: nonmeta_train(MODEL, RECORDS, FEATURES, CFG, 1, 0),
                   "batch_size must be >= 1, got 0"),
    "early_stop_patience": (
        {"train": {"early_stop_patience": -1}},
        lambda: meta_train(MODEL, TASKS, FEATURES, CFG, 1, early_stop_patience=-1),
        "early_stop_patience must be >= 0, got -1"),
    "local_steps": ({"train": {"local_steps": -1}}, lambda: _meta(local_steps=-1),
                    "local_steps must be >= 0, got -1"),
    "shop_batch_size": ({"train": {"shop_batch_size": 0}},
                        lambda: _meta(shop_batch_size=0),
                        "shop_batch_size must be >= 1, got 0"),
    "query_batch_size": ({"train": {"query_batch_size": 0}},
                         lambda: _meta(query_batch_size=0),
                         "query_batch_size must be >= 1, got 0"),
    "support_size_meta": ({"data": {"support_size": 0}}, lambda: _meta(support_size=0),
                          "support_size must be >= 1, got 0"),
    "support_size_tasks": ({"data": {"support_size": 0}},
                           lambda: build_tasks(RECORDS, support_size=0),
                           "support_size must be >= 1, got 0"),
    "seed": ({"seed": -1}, lambda: SyntheticSpec(seed=-1), "seed must be >= 0, got -1"),
    "seed_meta": ({"seed": -1}, lambda: _meta(seed=-1), "seed must be >= 0, got -1"),
    "negative_ratio": (
        {"data": {"negative_ratio": 0}},
        lambda: negative_sample(RECORDS[:1], NegativeStrategy.N0,
                                classify_shops(RECORDS, []), ratio=0.0),
        "negative ratio must be positive, got 0.0"),
}


class TestOneMessagePerRule:
    @pytest.mark.parametrize("case", list(RULES))
    def test_config_and_library_agree(self, case):
        values, call, message = RULES[case]
        with pytest.raises(ConfigError) as at_load:
            parse_config({"seed": 1, **values})
        with pytest.raises(ConfigError) as at_call:
            call()
        assert str(at_load.value) == str(at_call.value) == message

    @pytest.mark.parametrize(
        "name,least", [("local_steps", 0), ("shop_batch_size", 1), ("support_size", 1)]
    )
    def test_none_fails_a_required_count(self, name, least):
        with pytest.raises(ConfigError, match=f"^{name} must be >= {least}, got None$"):
            _meta(**{name: None})

    def test_none_passes_only_the_optional_counts(self):
        assert _meta(query_batch_size=None).query_batch_size is None
        assert TrainConfig(batch_size=None, early_stop_patience=None).batch_size is None
        with pytest.raises(ConfigError, match="^steps must be >= 0, got None$"):
            TrainConfig(steps=None)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -0.5])
    def test_gamma_must_be_finite_and_at_least_zero(self, gamma):
        with pytest.raises(ConfigError, match=f"^gamma must be >= 0, got {gamma}$"):
            _meta(gamma=gamma)


class TestTrainParamsDeclaredOnce:
    NINE = ["alpha", "beta", "local_steps", "gamma", "regularizer", "shop_batch_size",
            "query_batch_size", "task_unit", "outer_optimizer"]

    def test_both_configs_inherit_the_nine_fields(self):
        assert [f.name for f in dataclasses.fields(TrainParams)] == self.NINE
        assert TrainConfig.__mro__[1] is TrainParams
        assert MetaConfig.__mro__[1] is TrainParams

    def test_train_config_restates_only_the_rate_defaults(self):
        assert set(TrainConfig.__annotations__) & set(self.NINE) == {"alpha", "beta"}
        assert set(MetaConfig.__annotations__) & set(self.NINE) == set()
        assert (TrainConfig().alpha, TrainConfig().beta) == (0.01, 0.1)
        with pytest.raises(TypeError):
            MetaConfig()  # the library has no default rates

    def test_meta_config_keywords_are_unchanged(self):
        assert {f.name for f in dataclasses.fields(MetaConfig)} == {
            *self.NINE, "support_size", "loss_kind", "model_kind", "seed"}

    def test_train_section_is_frozen(self):
        cfg = parse_config({"seed": 1})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.train.steps = 3

    def test_train_ranges_run_when_the_section_is_built(self):
        with pytest.raises(ConfigError, match="^beta must be positive and finite, got 0$"):
            TrainConfig(beta=0)


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _message_texts():
    """("module:line", text) for each f-string and other string constant in
    src/ but docstrings, each value or format field written as ``{}``."""
    for name, tree in _modules():
        skip = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        skip |= {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for v in node.values}
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                text = "".join(v.value if isinstance(v, ast.Constant) else "{}"
                               for v in node.values)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) in skip:
                    continue
                text = re.sub(r"\{[^{}]*\}", "{}", node.value)
            else:
                continue
            yield f"{name}:{node.lineno}", text


LOADER_MESSAGES = [
    "label {} is not a number", "label {} outside 0/1 and [1, 5]",
    "timestamp {} is not an integer", "{} fields, expected {}",
    "duplicate of line {} (user={}, item={})", "non-numeric value", "non-finite value",
    "unknown kind {}", "repeated {} id {}",
]


def _registry() -> dict[str, int]:
    tree = ast.parse((SRC / "datapipe.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id.startswith("_TAG_")
    }


class TestSourceGuards:
    """What the source says, parsed: a new copy of a rule fails here."""

    def test_rng_tags_are_registry_names(self):
        """No ``[seed, <int>, ...]`` seed list (``np.random.default_rng``'s and
        the model initialisations') and no ``_sgd_epochs`` call names its tag
        by a literal."""
        literals = []
        for name, tree in _modules():
            for node in ast.walk(tree):
                if isinstance(node, ast.List) and len(node.elts) > 1:
                    tags = node.elts[1:2] if "seed" in ast.unparse(node.elts[0]) else []
                elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_sgd_epochs":
                    tags = node.args[6:7] + [k.value for k in node.keywords if k.arg == "tag"]
                else:
                    continue
                literals += [f"{name}:{node.lineno}" for t in tags
                             if isinstance(t, ast.Constant)]
        assert literals == []

    def test_registry_tags_are_distinct(self):
        tags = _registry()
        assert len(tags) >= 9 and len(set(tags.values())) == len(tags)

    def test_tags_are_assigned_only_in_the_registry(self):
        where = [
            f"{name}:{node.lineno}"
            for name, tree in _modules() if name != "datapipe.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id.startswith("_TAG_") for t in node.targets)
        ]
        assert where == []

    def test_the_at_least_message_is_written_once(self):
        at_least = re.compile(r"^(\{\}|[\w. ]+) must be >= (\{\}|\d+), got \{\}$")
        found = [where for where, text in _message_texts() if at_least.match(text)]
        assert len(found) == 1, found

    @pytest.mark.parametrize("message", LOADER_MESSAGES)
    def test_each_loader_message_is_written_once(self, message):
        """Each check is stated once, so no second pass can state it again."""
        alone = re.compile(rf"(^|\W){re.escape(message)}($|\W)")
        found = [where for where, text in _message_texts() if alone.search(text)]
        assert len(found) == 1, found

    def test_csv_is_read_only_by_the_shared_reader(self):
        """``datapipe._read_csv`` alone turns file text into rows."""
        def reads(node):
            return isinstance(node, ast.Call) and ast.unparse(node.func) in (
                "csv.reader", "csv.DictReader")
        owners, calls = [], 0
        for _, tree in _modules():
            calls += sum(map(reads, ast.walk(tree)))
            owners += [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                       for node in ast.walk(func) if reads(node)]
        assert (owners, calls) == (["_read_csv"], 1)

    def test_the_trainers_update_vectors_not_trees(self):
        """``metaopt`` builds a tree only for a model it hands back: it calls no
        tree-walking update and builds no tree around a gradient."""
        tree_calls = re.compile(r"^(numcore\.)?(sgd_step|adam_step|tree_map)$|\.layout\.build$")
        found = [f"metaopt.py:{node.lineno}: {ast.unparse(node.func)}"
                 for name, tree in _modules() if name == "metaopt.py"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and tree_calls.search(ast.unparse(node.func))]
        assert found == []

    def test_one_negative_ratio_check(self):
        text = "".join((SRC / name).read_text(encoding="utf-8") for name, _ in _modules())
        assert text.count("negative ratio must be positive") == 1

    def test_one_binary_label_predicate(self):
        """Only ``binary_labels`` asks whether labels are 0 or 1."""
        owners = {}
        for name, tree in _modules():
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.isin"
                            and ast.unparse(node.args[1]) == "(0.0, 1.0)"):
                        owners[func.name] = name
                    if isinstance(node, ast.Name) and node.id == "binary_labels":
                        owners.setdefault(f"{func.name} calls", name)
        assert owners == {
            "binary_labels": "datapipe.py",
            "_resolve_sigmoid calls": "cli.py",
            "infer_query_mode calls": "evaluation.py",
        }

    def test_only_datapipe_sets_a_task_split(self):
        """``ShopTask.split`` is set in datapipe alone, through
        ``object.__setattr__`` or ``__dict__``, and no module tests it for None."""
        sets, none_checks = [], []
        for name, tree in _modules():
            for node in ast.walk(tree):
                targets = node.targets if isinstance(node, ast.Assign) else []
                if isinstance(node, ast.Call):
                    func, args = ast.unparse(node.func), [ast.unparse(a) for a in node.args]
                    if (func == "object.__setattr__" and args[1:2] == ["'split'"]
                            or func.endswith("__dict__.update")
                            and any(k.arg == "split" for k in node.keywords)):
                        sets.append(f"{name}: {func}")
                elif any(re.search(r"(\.split|\['split'\])$", ast.unparse(t)) for t in targets):
                    sets.append(f"{name}: {ast.unparse(node)}")
                elif isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if (any(ast.unparse(s).endswith(".split") for s in sides)
                            and any(isinstance(s, ast.Constant) and s.value is None
                                    for s in sides)):
                        none_checks.append(f"{name}:{node.lineno}")
        assert (sorted(sets), none_checks) == (
            ["datapipe.py: object.__setattr__", "datapipe.py: task.__dict__.update"], [])
