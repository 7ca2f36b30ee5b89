"""End-to-end tests of the command-line interface.

Everything goes through main() with real files in tmp_path, the same way a
user would drive it, so these double as integration tests for the whole
pipeline: synthetic data in, checkpoints and reports out.
"""

from __future__ import annotations

import csv
import ctypes
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import metashop.cli as cli
import metashop.evaluation as evaluation
from metashop.checkpoint import (
    atomic_write_text,
    canonical_json,
    load_checkpoint,
    model_to_json,
)
from metashop.cli import load_config, main, parse_config
from metashop.datapipe import InteractionRecord, Interactions, NegativeStrategy, TaskUnit
from metashop.errors import ConfigError
from metashop.evaluation import CandidatePool, QueryMode
from metashop.metaopt import OuterOptimizer, RegularizerKind, read_manifest
from metashop.metrics import RecallMode
from metashop.models import ModelKind, build_baseline, pretrained_encoder
from metashop.numcore import LossKind


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


def base_config(out: Path, seed: int = 11) -> dict:
    return {
        "seed": seed,
        "output_dir": str(out),
        "data": {
            "train": str(out / "train.csv"),
            "test": str(out / "test.csv"),
            "latents": str(out / "latents.csv"),
            "min_interactions": 13,
            "support_size": 10,
        },
        "model": {"kind": "mesh", "hidden_dims": [8]},
        "train": {
            "trainer": "meta",
            "alpha": 0.05,
            "beta": 0.05,
            "local_steps": 2,
            "steps": 8,
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


@pytest.fixture()
def workspace(tmp_path):
    """A config file plus generated synthetic data, ready to train on."""
    out = tmp_path / "run"
    cfg_path = write_config(tmp_path / "run.yaml", base_config(out))
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    return cfg_path, out


def manifest_without_timing(path: Path) -> dict:
    entries = read_manifest(path)
    entries.pop("wall_time_seconds")
    return entries


def assert_cannot_write(capsys, path: Path, root: Path, reason: str) -> None:
    """stderr is the one line naming ``path`` as a config error for
    ``reason``, and no ``.<name>.<hex>`` temp file is left under ``root``."""
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {path}: {reason}\n"
    assert not list(root.rglob(".*"))


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A base_config run after gen-data, train and evaluate; copy it to edit it."""
    out = tmp_path_factory.mktemp("trained") / "run"
    cfg_path = write_config(out.parent / "run.yaml", base_config(out))
    for command in ("gen-data", "train", "evaluate"):
        assert main([command, "--config", str(cfg_path)]) == 0
    return out


def _set_field(text: str, line: int, column: int, value: str) -> str:
    """``text`` with one comma-separated field of a 1-based line replaced."""
    lines = text.split("\n")
    fields = lines[line - 1].split(",")
    fields[column] = value
    lines[line - 1] = ",".join(fields)
    return "\n".join(lines)


def _edit_json(**changes):
    def edit(text: str) -> str:
        doc = json.loads(text)
        for key, value in changes.items():
            if value is None:
                del doc[key]
            else:
                doc[key] = value
        return json.dumps(doc)

    return edit


class TestConfigParsing:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key extra"):
            parse_config({"seed": 1, "extra": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="train.warmup"):
            parse_config({"seed": 1, "train": {"warmup": 5}})

    def test_seed_is_mandatory(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config({"output_dir": "x"})

    def test_wrong_types_rejected(self):
        with pytest.raises(ConfigError, match="train.steps must be an integer"):
            parse_config({"seed": 1, "train": {"steps": "many"}})
        with pytest.raises(ConfigError, match="eval.adapt must be true or false"):
            parse_config({"seed": 1, "eval": {"adapt": "yes please"}})

    def test_bad_choice_lists_the_options(self):
        with pytest.raises(ConfigError, match="one of mesh, mesh_i"):
            parse_config({"seed": 1, "model": {"kind": "transformer"}})

    def test_set_overrides_beat_the_file(self, tmp_path):
        path = write_config(
            tmp_path / "c.yaml", {"seed": 3, "train": {"steps": 10}}
        )
        cfg = load_config(path, ["train.steps=99", "train.alpha=0.5"])
        assert cfg.train.steps == 99
        assert cfg.train.alpha == 0.5
        assert cfg.seed == 3

    def test_set_values_are_yaml(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"seed": 3})
        cfg = load_config(
            path,
            ["eval.recall_ks=[1, 3]", "eval.adapt=true", "train.shop_id=s01"],
        )
        assert cfg.eval.recall_ks == (1.0, 3.0)
        assert cfg.eval.adapt is True
        assert cfg.train.shop_id == "s01"

    def test_set_can_create_missing_sections(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"seed": 3})
        cfg = load_config(path, ["ablation.study=one_shop"])
        assert cfg.ablation.study == "one_shop"

    def test_set_without_equals_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"seed": 3})
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path, ["train.steps"])

    def test_unknown_override_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"seed": 3})
        with pytest.raises(ConfigError, match="unknown config key train.bogus"):
            load_config(path, ["train.bogus=1"])

    def test_non_mapping_config_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("- a list\n- of things\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="mapping"):
            load_config(path)

    def test_a_list_config_file_is_one(self, tmp_path, capsys):
        path = tmp_path / "c.yaml"
        path.write_text("- seed: 3\n- output_dir: run\n", encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"config error: config {path} must hold a mapping at the top level\n"
        )

    def test_parse_config_needs_a_mapping(self):
        """load_config rejects a non-mapping file first, so only a library
        caller reaches this check."""
        with pytest.raises(ConfigError) as err:
            parse_config([1])
        assert str(err.value) == "config file must hold a mapping at the top level"

    def test_defaults_fill_untouched_sections(self):
        cfg = parse_config({"seed": 5})
        assert cfg.data.min_interactions == 13
        assert cfg.train.trainer == "meta"
        assert cfg.eval.recall_ks == (0.1,)
        assert cfg.ablation.gammas == [0.0, 0.01, 0.8]

    def test_choice_keys_hold_enum_members(self):
        cfg = parse_config({"seed": 5})
        assert cfg.data.negative_strategy == "none"
        assert cfg.train.loss == "auto"
        assert cfg.eval.query_mode is None
        assert cfg.model.sigmoid_output == "auto"
        cfg = parse_config(
            {
                "seed": 5,
                "data": {"negative_strategy": "n2"},
                "model": {"kind": "wide_deep", "sigmoid_output": False},
                "train": {
                    "trainer": "fmst",
                    "regularizer": "option2",
                    "loss": "bce",
                    "outer_optimizer": "adam",
                    "task_unit": "item",
                },
                "eval": {
                    "recall_mode": "topk_fraction",
                    "candidate_pool": "observed",
                    "query_mode": "user_shop",
                },
                "ablation": {"study": "task_unit"},
            }
        )
        assert cfg.data.negative_strategy is NegativeStrategy.N2
        assert cfg.model.kind is ModelKind.WIDE_DEEP
        assert cfg.model.sigmoid_output is False
        assert cfg.train.trainer == "fmst"
        assert cfg.train.regularizer is RegularizerKind.OPTION_II
        assert cfg.train.loss is LossKind.BCE
        assert cfg.train.outer_optimizer is OuterOptimizer.ADAM
        assert cfg.train.task_unit is TaskUnit.ITEM
        assert cfg.eval.recall_mode is RecallMode.TOPK_FRACTION
        assert cfg.eval.candidate_pool is CandidatePool.OBSERVED
        assert cfg.eval.query_mode is QueryMode.USER_SHOP
        assert cfg.ablation.study == "task_unit"


class Ok:
    """An accepted config value, compared by repr so 2 and 2.0 differ."""

    def __init__(self, value):
        self.value = value


# One value of each YAML type: int, float, bool, str, null, list, mapping.
YAML_VALUES = (2, 2.5, True, "abc", None, [1], {"a": 1})


def _outcomes(text: str, other: dict | None = None) -> tuple:
    """One outcome per YAML_VALUES entry: the message ``text``, or ``other[i]``."""
    return tuple(
        (other or {}).get(i, text.format(p="{p}", v=v, t=type(v).__name__))
        for i, v in enumerate(YAML_VALUES)
    )


INT = _outcomes("{p} must be an integer, got {t}", {0: Ok(2)})
OPT_INT = _outcomes("{p} must be an integer, got {t}", {0: Ok(2), 4: Ok(None)})
NUMBER = _outcomes("{p} must be a number, got {t}", {0: Ok(2.0), 1: Ok(2.5)})
BOOL = _outcomes("{p} must be true or false, got {v!r}", {2: Ok(True)})
OPT_STR = _outcomes(
    "{p} must be a non-empty string, got {v!r}", {3: Ok("abc"), 4: Ok(None)}
)
INT_LIST = _outcomes("{p} must be a list of integers", {5: Ok([1])})
NUMBER_LIST = _outcomes("{p} must be a non-empty list of numbers", {5: Ok([1.0])})
# the eval lists are EvalOptions tuples
INT_TUPLE = _outcomes("{p} must be a list of integers", {5: Ok((1,))})
NUMBER_TUPLE = _outcomes("{p} must be a non-empty list of numbers", {5: Ok((1.0,))})
SHOPS = _outcomes(
    "{p} must be a list of shop ids",
    {4: Ok(None), 5: "{p}[0] must be a non-empty string, got 1"},
)
# synthetic numbers are checked against SyntheticSpec but kept as written
NUMBER_AS_IS = _outcomes("{p} must be a number, got {t}", {0: Ok(2), 1: Ok(2.5)})


def _choice(options: str, none=None) -> tuple:
    other = {3: f"{{p}} must be one of {options}; got 'abc'"}
    if none is not None:
        other[4] = none
    return _outcomes("{p} must be a non-empty string, got {v!r}", other)


CONFIG_KEYS = {
    "seed": INT,
    "output_dir": OPT_STR,
    "data.train": OPT_STR,
    "data.test": OPT_STR,
    "data.latents": OPT_STR,
    "data.user_attrs": OPT_STR,
    "data.item_attrs": OPT_STR,
    # 2 is an integer, but not above the default support_size of 10
    "data.min_interactions": _outcomes(
        "{p} must be an integer, got {t}",
        {
            0: "min_interactions (2) must exceed support_size (10) "
            "so queries are never empty"
        },
    ),
    "data.support_size": INT,
    "data.negative_strategy": _choice("none, n0, n1, n2", Ok("none")),
    "data.negative_ratio": NUMBER,
    "model.kind": _choice("mesh, mesh_i, wide_deep, baseline"),
    "model.hidden_dims": INT_LIST,
    "model.embedding_dim": INT,
    "model.sigmoid_output": BOOL,
    "model.margin": NUMBER,
    "model.negative_weight": NUMBER,
    "train.trainer": _choice("meta, fmst, nonmeta, one_shop, baseline"),
    "train.alpha": NUMBER,
    "train.beta": NUMBER,
    "train.local_steps": INT,
    "train.gamma": NUMBER,
    "train.regularizer": _choice("option1, option2"),
    "train.shop_batch_size": INT,
    "train.query_batch_size": OPT_INT,
    "train.steps": INT,
    "train.epochs": INT,
    "train.batch_size": OPT_INT,
    "train.loss": _choice("auto, squared, bce"),
    "train.outer_optimizer": _choice("sgd, adam"),
    "train.task_unit": _choice("shop, item, user"),
    "train.early_stop_patience": OPT_INT,
    "train.shop_id": OPT_STR,
    "eval.checkpoint": OPT_STR,
    "eval.adapt": BOOL,
    "eval.recall_ks": NUMBER_TUPLE,
    "eval.ndcg_ks": INT_TUPLE,
    "eval.recall_mode": _choice("standard, topk_fraction"),
    "eval.include_mae": BOOL,
    "eval.thresholds": NUMBER_TUPLE,
    "eval.rating_positive_threshold": NUMBER,
    "eval.candidate_pool": _choice("all_users, observed"),
    "eval.query_mode": _choice("item, user_shop", Ok(None)),
    "synthetic.n_users": INT,
    "synthetic.n_items": INT,
    "synthetic.n_shops": INT,
    "synthetic.latent_dim": INT,
    "synthetic.pareto_exponent": NUMBER_AS_IS,
    "synthetic.noise_std": NUMBER_AS_IS,
    "synthetic.seed": INT,
    "synthetic.interactions_per_shop": INT,
    "synthetic.n_new_shops": INT,
    "synthetic.shop_effect_std": NUMBER_AS_IS,
    "synthetic.label_threshold": NUMBER_AS_IS,
    "synthetic.test_fraction": NUMBER_AS_IS,
    "synthetic.n_genres": INT,
    "synthetic.min_shop_size": INT,
    "ablation.study": _choice(
        "one_shop, negative_sampling, debias_gamma, task_unit"
    ),
    "ablation.n_shops": INT,
    "ablation.gammas": NUMBER_LIST,
    "adapt.checkpoint": OPT_STR,
    "adapt.support": OPT_STR,
    "adapt.shops": SHOPS,
}

# Values past the type check: ranges, element types and empty lists.
EDGE_CASES = [
    ("model.hidden_dims", [], "model.hidden_dims must be positive integers"),
    ("model.hidden_dims", [4, 0], "model.hidden_dims must be positive integers"),
    ("model.hidden_dims", [1.5], "model.hidden_dims[0] must be an integer, got float"),
    ("model.sigmoid_output", "auto", Ok("auto")),
    ("eval.ndcg_ks", [], Ok(())),
    ("eval.recall_ks", [], "eval.recall_ks must be a non-empty list of numbers"),
    ("eval.thresholds", [0.5, "x"], "eval.thresholds[1] must be a number, got str"),
    ("ablation.gammas", [], "ablation.gammas must be a non-empty list of numbers"),
    ("ablation.gammas", [0, 1], Ok([0.0, 1.0])),
    ("adapt.shops", ["s1", ""], "adapt.shops[1] must be a non-empty string, got ''"),
    ("data.train", "", "data.train must be a non-empty string, got ''"),
    ("train.loss", "", "train.loss must be a non-empty string, got ''"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("ablation.n_shops", 0, "ablation.n_shops must be >= 1, got 0"),
    ("ablation.n_shops", -1, "ablation.n_shops must be >= 1, got -1"),
    ("model.embedding_dim", 0, "model.embedding_dim must be >= 1, got 0"),
    ("model.embedding_dim", -2, "model.embedding_dim must be >= 1, got -2"),
    ("eval.thresholds", [0.5, float("nan")], "eval.thresholds must be finite, got nan"),
    (
        "eval.rating_positive_threshold",
        float("inf"),
        "eval.rating_positive_threshold must be finite, got inf",
    ),
    ("train.beta", -5, "beta must be positive and finite, got -5.0"),
    ("train.steps", -1, "steps must be >= 0, got -1"),
    ("train.steps", 0, Ok(0)),
    ("train.epochs", -1, "epochs must be >= 0, got -1"),
    ("train.batch_size", 0, "batch_size must be >= 1, got 0"),
    ("train.batch_size", 1, Ok(1)),
    ("train.early_stop_patience", -1, "early_stop_patience must be >= 0, got -1"),
    ("train.early_stop_patience", 0, Ok(0)),
    ("data.negative_ratio", -1, "negative ratio must be positive, got -1.0"),
    ("data.negative_ratio", 0, "negative ratio must be positive, got 0.0"),
    ("data.negative_ratio", float("nan"), "negative ratio must be positive, got nan"),
    (
        "data.min_interactions",
        10,
        "min_interactions (10) must exceed support_size (10) so queries are never empty",
    ),
    ("adapt.shops", [], "adapt.shops is empty; leave the key out to adapt every shop"),
]


def _raw_config(path: str, value) -> dict:
    if "." not in path:
        return {"seed": 1, path: value}
    section, key = path.split(".")
    return {"seed": 1, section: {key: value}}


def _parsed_value(cfg, path: str):
    if "." not in path:
        return getattr(cfg, path)
    section, key = path.split(".")
    if section == "synthetic":
        return cfg.synthetic[key]
    return getattr(getattr(cfg, section), key)


def _check_outcome(path: str, value, expected) -> None:
    raw = _raw_config(path, value)
    if isinstance(expected, Ok):
        assert repr(_parsed_value(parse_config(raw), path)) == repr(expected.value)
        return
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert str(info.value) == expected.replace("{p}", path)


class TestConfigSchema:
    """Every key's outcome for one value of each YAML type, message for message."""

    @pytest.mark.parametrize(
        "path,value,expected",
        [
            (path, value, outcome)
            for path, outcomes in CONFIG_KEYS.items()
            for value, outcome in zip(YAML_VALUES, outcomes)
        ],
        ids=lambda x: x if isinstance(x, str) else type(x).__name__,
    )
    def test_each_yaml_type(self, path, value, expected):
        _check_outcome(path, value, expected)

    @pytest.mark.parametrize("path,value,expected", EDGE_CASES)
    def test_edge_values(self, path, value, expected):
        _check_outcome(path, value, expected)

    def test_every_section_key_is_covered(self):
        cfg = parse_config({"seed": 1})
        keys = {"seed", "output_dir"}
        for section in ("data", "model", "train", "eval", "ablation", "adapt"):
            keys |= {f"{section}.{k}" for k in vars(getattr(cfg, section))}
        from metashop.datapipe import SyntheticSpec

        keys |= {f"synthetic.{k}" for k in SyntheticSpec.__dataclass_fields__}
        assert keys == set(CONFIG_KEYS)

    def test_docstring_lists_every_key(self):
        # the module docstring is the one user-facing copy of the schema
        listing = cli.__doc__.split("sections (all optional")[1].split("`--set")[0]
        top, keys, section = set(), set(), None
        for line in listing.splitlines():
            if m := re.match(r"    (\w+):", line):
                section = m.group(1)
                top.add(section)
            elif (m := re.match(r"      (\w+):", line)) and section != "synthetic":
                keys.add(f"{section}.{m.group(1)}")
        assert top == set(cli.RunConfig.__dataclass_fields__)
        declared = {
            f"{name}.{key}"
            for name, cls in cli._SECTIONS.items()
            if name != "synthetic"
            for key in cls.__dataclass_fields__
        }
        assert keys == declared

    def test_section_must_be_a_mapping(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"seed": 1, "eval": [1]})
        assert str(info.value) == "config section eval must be a mapping"

    def test_unknown_synthetic_key(self):
        with pytest.raises(ConfigError) as info:
            parse_config({"seed": 1, "synthetic": {"n_planets": 3}})
        assert str(info.value) == "unknown config key synthetic.n_planets"

    def test_integer_rate_is_a_float_in_the_manifest(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "train", "--config", str(cfg_path),
                "--set", "train.alpha=1", "--set", "train.local_steps=0",
            ]
        )
        assert code == 0
        assert read_manifest(out / "train.manifest")["config.alpha"] == "1.0"

    def test_synthetic_values_reach_the_manifest_unchanged(self, tmp_path):
        out = tmp_path / "run"
        cfg = base_config(out)
        cfg["synthetic"]["pareto_exponent"] = 2
        path = write_config(tmp_path / "run.yaml", cfg)
        assert main(["gen-data", "--config", str(path)]) == 0
        manifest = read_manifest(out / "gen-data.manifest")
        assert manifest["synthetic.pareto_exponent"] == "2"


class TestExitCodes:
    def test_success_is_zero(self, workspace):
        cfg_path, _ = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0

    def test_config_problems_are_one(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.yaml")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag_is_one(self, tmp_path):
        path = write_config(tmp_path / "c.yaml", {"seed": 3})
        assert main(["train", "--config", str(path), "--frobnicate"]) == 1

    def test_unknown_command_is_one(self):
        assert main(["make-money"]) == 1

    def test_missing_input_path_is_one(self, tmp_path, capsys):
        out = tmp_path / "run"
        path = write_config(tmp_path / "c.yaml", base_config(out))
        assert main(["train", "--config", str(path)]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_data_problems_are_two(self, workspace, capsys):
        cfg_path, out = workspace
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "data.min_interactions=100000",
            ]
        )
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_one_shop_without_records_is_two(self, workspace, capsys):
        cfg_path, _ = workspace
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.trainer=one_shop",
                "--set",
                "train.shop_id=ghost",
            ]
        )
        assert code == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_blowup_is_three(self, workspace, capsys):
        cfg_path, _ = workspace
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.alpha=1.0e+200",
                "--set",
                "train.loss=bce",
            ]
        )
        assert code == 3
        assert "numeric error" in capsys.readouterr().err

    def test_numeric_blowup_names_the_leaf(self, workspace, capsys):
        cfg_path, _ = workspace
        args = ["train", "--config", str(cfg_path), "--set", "train.alpha=1.0e+200"]
        assert main(args + ["--set", "train.loss=bce"]) == 3
        err = capsys.readouterr().err
        assert re.search(
            r"^numeric error: non-finite values in \w+ at "
            r"(user_encoder|item_encoder|scorer)\.\S+$",
            err,
            re.MULTILINE,
        ), err

    @pytest.mark.parametrize("trainer", ["nonmeta", "baseline"])
    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_bad_batch_size_is_one(self, workspace, capsys, trainer, batch_size):
        cfg_path, _ = workspace
        args = ["train", "--config", str(cfg_path), "--set", f"train.trainer={trainer}"]
        args += ["--set", f"train.batch_size={batch_size}"]
        if trainer == "baseline":
            args += ["--set", "model.kind=baseline"]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"config error: batch_size must be >= 1, got {batch_size}\n"
        )

    @pytest.mark.parametrize(
        "name,command",
        [
            ("train.csv", "train"),
            ("latents.csv", "train"),
            ("users.csv", "train"),
            ("items.csv", "train"),
            ("test.csv", "evaluate"),
            ("checkpoint.json", "evaluate"),
            ("support.csv", "adapt"),
            ("report.json", "report"),
            ("run.yaml", "train"),
        ],
    )
    def test_non_utf8_input_is_named(self, workspace, capsys, name, command):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        (out / "support.csv").write_bytes((out / "train.csv").read_bytes())
        (out / "users.csv").write_text("user_id,age\nu0,young\n", encoding="utf-8")
        (out / "items.csv").write_text("item_id,color\ni0,red\n", encoding="utf-8")
        target = cfg_path if name == "run.yaml" else out / name
        target.write_bytes(target.read_bytes() + "\u00e9\n".encode("latin-1"))
        args = [command, "--config", str(cfg_path)]
        if command == "report":
            args = ["report", "--report", str(target)]
        elif command == "adapt":
            args += ["--set", f"adapt.checkpoint={out / 'checkpoint.json'}"]
            args += ["--set", f"adapt.support={target}"]
        elif name in ("users.csv", "items.csv"):
            args += ["--set", "data.latents=null"]
            args += ["--set", f"data.user_attrs={out / 'users.csv'}"]
            args += ["--set", f"data.item_attrs={out / 'items.csv'}"]
        capsys.readouterr()
        assert main(args) == (1 if name == "run.yaml" else 2)
        err = capsys.readouterr().err
        assert f"cannot read {'config ' if name == 'run.yaml' else ''}" in err
        assert str(target) in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_non_finite_latent_is_two(self, workspace, capsys, command):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        latents = out / "latents.csv"
        lines = latents.read_text(encoding="utf-8").splitlines()
        row = next(n for n, line in enumerate(lines) if line.startswith("user,"))
        fields = lines[row].split(",")
        lines[row] = ",".join(fields[:2] + ["nan"] + fields[3:])
        latents.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {latents} line {row + 1}: non-finite value\n"
        )

    def test_checkpoint_that_is_not_an_object_is_two(self, workspace, capsys):
        cfg_path, out = workspace
        (out / "checkpoint.json").write_text("[1,2]\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(out / "checkpoint.json") in err

    @pytest.mark.parametrize("bad", ["shape", "nan"])
    def test_checkpoint_with_bad_arrays_is_two(self, workspace, capsys, bad):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = out / "checkpoint.json"
        doc = json.loads(ckpt.read_text(encoding="utf-8"))
        layer = doc["model"]["scorer"]["user_tower"]["layers"][0]
        if bad == "shape":
            layer["biases"].append(0.0)
        else:
            layer["weights"][0][0] = float("nan")  # json writes a NaN literal
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert str(ckpt) in err

    def test_checkpoint_without_weights_names_the_field(self, workspace, capsys):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = out / "checkpoint.json"
        doc = json.loads(ckpt.read_text(encoding="utf-8"))
        del doc["model"]["scorer"]["user_tower"]["layers"][0]["weights"]
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {ckpt}: unreadable checkpoint near field KeyError('weights')\n"
        )

    @pytest.mark.parametrize(
        "keys,value",
        [
            (["sigmoid_output"], "false"),
            (["user_encoder", "dim"], 6.5),
            (["user_encoder", "dim"], True),
            (["scorer", "variant"], "three_tower"),
        ],
        ids=["bool_as_string", "fractional_int", "bool_as_int", "unknown_enum"],
    )
    def test_checkpoint_scalar_of_the_wrong_type_is_two(
        self, workspace, capsys, keys, value
    ):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = out / "checkpoint.json"
        doc = json.loads(ckpt.read_text(encoding="utf-8"))
        node = doc["model"]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        ckpt.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ckpt}: unreadable checkpoint near field ")

    @pytest.mark.parametrize("adapt", ["false", "true"])
    def test_feature_width_mismatch_is_two(self, tmp_path, capsys, adapt):
        wide, narrow = tmp_path / "wide", tmp_path / "narrow"
        for out, dim in ((wide, 4), (narrow, 3)):
            cfg = base_config(out)
            cfg["synthetic"]["latent_dim"] = dim
            write_config(tmp_path / f"{out.name}.yaml", cfg)
            assert main(["gen-data", "--config", str(tmp_path / f"{out.name}.yaml")]) == 0
        cfg_path = tmp_path / "wide.yaml"
        assert main(["train", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        code = main(
            [
                "evaluate", "--config", str(cfg_path),
                "--set", f"data.latents={narrow / 'latents.csv'}",
                "--set", f"eval.adapt={adapt}",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "data error: user features have 3 dims, expected 4\n"
        )


_ATTRS = ["data.latents=null", "data.user_attrs={users}", "data.item_attrs={items}"]


def _baseline_checkpoint(text: str) -> str:
    """A checkpoint holding a fresh baseline model in place of ``text``."""
    model = build_baseline(pretrained_encoder(6), [4], 0)
    doc = {"format_version": 1, "model": model_to_json(model), "meta": {}}
    return canonical_json(doc)

# (file, edit of its text, command, --set values, stderr, exit code); {path}
# is the edited file, {users} and {items} the attribute files, {latents} and
# {checkpoint} the trained run's
INPUT_ERRORS = {
    "empty_user_id": (
        "train.csv",
        lambda t: _set_field(t, 2, 0, ""),
        "train",
        [],
        "data error: {path}: 1 malformed rows: "
        "line 2: user_id must be a non-empty string, got ''",
        2,
    ),
    "timestamp_not_an_integer": (
        "train.csv",
        lambda t: _set_field(t, 3, 4, "soon"),
        "train",
        [],
        "data error: {path}: 1 malformed rows: "
        "line 3: timestamp 'soon' is not an integer",
        2,
    ),
    "latents_header": (
        "latents.csv",
        lambda t: t.replace("kind,id,", "type,id,", 1),
        "train",
        [],
        "data error: {path}: expected a latent file header (kind,id,v0,...)",
        2,
    ),
    "latents_without_values": (
        "latents.csv",
        lambda t: "".join(",".join(line.split(",")[:2]) + "\n" for line in t.splitlines()),
        "train",
        [],
        "data error: {path}: expected a latent file header (kind,id,v0,...)",
        2,
    ),
    "latents_field_count": (
        "latents.csv",
        lambda t: _set_field(t, 4, 2, "0.5,0.5"),
        "evaluate",
        [],
        "data error: {path} line 4: wrong field count",
        2,
    ),
    "attributes_without_columns": (
        "users.csv",
        lambda t: "user_id\nu000\n",
        "train",
        _ATTRS,
        "data error: {path}: expected an id column plus attribute columns",
        2,
    ),
    "attributes_without_rows": (
        "users.csv",
        lambda t: "user_id,age\n",
        "train",
        _ATTRS,
        "data error: {path}: attribute file needs at least one row",
        2,
    ),
    "categorical_embedding_dim_zero": (
        "../run.yaml",
        lambda t: t,
        "train",
        [*_ATTRS, "model.embedding_dim=0"],
        "config error: model.embedding_dim must be >= 1, got 0",
        1,
    ),
    "attributes_field_count": (
        "items.csv",
        lambda t: "item_id,color\ni000,red\ni001,red,blue\n",
        "train",
        _ATTRS,
        "data error: {path} line 3: wrong field count",
        2,
    ),
    "interactions_column_twice": (
        "train.csv",
        lambda t: t.replace(",label,", ",label,label,", 1),
        "train",
        [],
        "data error: {path}: header names column 'label' twice",
        2,
    ),
    "latents_column_twice": (
        "latents.csv",
        lambda t: t.replace("kind,id,v0,v1,", "kind,id,v0,v0,", 1),
        "train",
        [],
        "data error: {path}: header names column 'v0' twice",
        2,
    ),
    "attributes_column_twice": (
        "users.csv",
        lambda t: "user_id,age,age\nu000,a,b\n",
        "train",
        _ATTRS,
        "data error: {path}: header names column 'age' twice",
        2,
    ),
    "support_user_without_latents": (
        "support.csv",
        lambda t: _set_field(t, 2, 0, "ghost"),
        "adapt",
        ["adapt.checkpoint={checkpoint}", "adapt.support={support}"],
        "data error: no features for user 'ghost' in {latents}",
        2,
    ),
    "support_user_without_attributes": (
        "support.csv",
        lambda t: _set_field(t, 2, 0, "ghost"),
        "adapt",
        ["adapt.checkpoint={checkpoint}", "adapt.support={support}", *_ATTRS],
        "data error: no attributes for user 'ghost' in {users}",
        2,
    ),
    "checkpoint_not_json": (
        "checkpoint.json",
        lambda t: t[:1],
        "evaluate",
        [],
        "data error: checkpoint {path} is not valid JSON: Expecting property "
        "name enclosed in double quotes: line 1 column 2 (char 1)",
        2,
    ),
    "checkpoint_version": (
        "checkpoint.json",
        _edit_json(format_version=2),
        "evaluate",
        [],
        "data error: checkpoint {path} format_version 2 not supported (expected 1)",
        2,
    ),
    "checkpoint_without_model": (
        "checkpoint.json",
        _edit_json(model=None),
        "evaluate",
        [],
        "data error: checkpoint {path} has no 'model' field",
        2,
    ),
    "checkpoint_meta_not_an_object": (
        "checkpoint.json",
        _edit_json(meta=["trainer"]),
        "adapt",
        ["adapt.checkpoint={path}", "adapt.support={support}"],
        "data error: checkpoint {path} has a 'meta' field that is not an object",
        2,
    ),
    "config_not_yaml": (
        "../run.yaml",
        lambda t: "seed: [11\n",
        "train",
        [],
        "config error: config {path} is not valid YAML: expected ',' or ']', "
        "but got '<stream end>' at line 2, column 1",
        1,
    ),
    "config_scanner_error": (
        "../run.yaml",
        lambda t: "a: b: c\n",
        "train",
        [],
        "config error: config {path} is not valid YAML: mapping values are not "
        "allowed here at line 1, column 5",
        1,
    ),
    "config_control_character": (
        "../run.yaml",
        lambda t: "seed: \x07\n",
        "train",
        [],
        "config error: config {path} is not valid YAML: unacceptable character "
        "#x0007: special characters are not allowed",
        1,
    ),
    "recall_k_zero": (
        "../run.yaml",
        lambda t: t,
        "evaluate",
        ["eval.recall_ks=[0]"],
        "config error: recall k must be a fraction in (0,1) or an integer >= 1, "
        "got 0.0",
        1,
    ),
    "ndcg_k_zero": (
        "../run.yaml",
        lambda t: t,
        "evaluate",
        ["eval.ndcg_ks=[0]"],
        "config error: ndcg k must be an integer >= 1, got 0",
        1,
    ),
    "negative_alpha": (
        "../run.yaml",
        lambda t: t,
        "train",
        ["train.alpha=-1"],
        "config error: alpha must be >= 0 and finite, got -1.0",
        1,
    ),
    "zero_beta": (
        "../run.yaml",
        lambda t: t,
        "train",
        ["train.beta=0"],
        "config error: beta must be positive and finite, got 0.0",
        1,
    ),
    "negative_epochs": (
        "../run.yaml",
        lambda t: t,
        "train",
        ["train.trainer=nonmeta", "train.epochs=-1"],
        "config error: epochs must be >= 0, got -1",
        1,
    ),
    "negative_steps": (
        "../run.yaml",
        lambda t: t,
        "train",
        ["train.steps=-1"],
        "config error: steps must be >= 0, got -1",
        1,
    ),
    "baseline_zero_margin": (
        "../run.yaml",
        lambda t: t,
        "train",
        ["train.trainer=baseline", "model.kind=baseline", "model.margin=0"],
        "config error: model does not fit the features: "
        "margin must be positive, got 0.0",
        1,
    ),
    "user_attrs_without_item_attrs": (
        "../run.yaml",
        lambda t: t,
        "train",
        ["data.latents=null", "data.user_attrs={users}"],
        "config error: categorical features need both data.user_attrs and "
        "data.item_attrs",
        1,
    ),
    "no_feature_source": (
        "../run.yaml",
        lambda t: t,
        "train",
        ["data.latents=null"],
        "config error: no feature source: set data.latents, or data.user_attrs "
        "plus data.item_attrs",
        1,
    ),
    "no_evaluation_task": (
        "../run.yaml",
        lambda t: t,
        "evaluate",
        ["data.min_interactions=100000"],
        "data error: no evaluation task reaches data.min_interactions",
        2,
    ),
    "adapt_a_baseline": (
        "checkpoint.json",
        _baseline_checkpoint,
        "adapt",
        ["adapt.checkpoint={path}", "adapt.support={support}"],
        "config error: only the shared recommendation models can adapt",
        1,
    ),
    "unknown_model_class": (
        "checkpoint.json",
        lambda t: t.replace('"model_class":"rec"', '"model_class":"foo"', 1),
        "evaluate",
        [],
        "data error: {path}: unknown model_class 'foo'",
        2,
    ),
}


class TestInputErrors:
    """One exact stderr line and exit code per bad input, through main()."""

    @pytest.mark.parametrize("case", list(INPUT_ERRORS))
    def test_exact_message(self, trained_run, tmp_path, capsys, case):
        name, edit, command, sets, expected, code = INPUT_ERRORS[case]
        out = tmp_path / "run"
        shutil.copytree(trained_run, out)
        cfg_path = write_config(tmp_path / "run.yaml", base_config(out))
        (out / "support.csv").write_bytes((out / "train.csv").read_bytes())
        (out / "users.csv").write_text("user_id,age\nu000,a\n", encoding="utf-8")
        (out / "items.csv").write_text("item_id,color\ni000,red\n", encoding="utf-8")
        path = (out / name).resolve()
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        names = {
            "path": path,
            "support": out / "support.csv",
            "users": out / "users.csv",
            "items": out / "items.csv",
            "latents": out / "latents.csv",
            "checkpoint": out / "checkpoint.json",
        }
        argv = [command, "--config", str(cfg_path)]
        for s in sets:
            argv += ["--set", s.format(**names)]
        capsys.readouterr()
        assert main(argv) == code
        assert capsys.readouterr().err == expected.format(**names) + "\n"

    def test_gen_data_checks_the_train_section(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "run.yaml", base_config(out))
        capsys.readouterr()
        argv = ["gen-data", "--config", str(cfg_path), "--set", "train.beta=0"]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: beta must be positive and finite, got 0.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("train.steps=-1", "steps must be >= 0, got -1"),
            ("train.early_stop_patience=-1", "early_stop_patience must be >= 0, got -1"),
            ("data.negative_ratio=-1", "negative ratio must be positive, got -1.0"),
            (
                "data.min_interactions=5",
                "min_interactions (5) must exceed support_size (10) "
                "so queries are never empty",
            ),
            ("synthetic.pareto_exponent=0", "pareto_exponent must be positive"),
        ],
    )
    def test_gen_data_checks_the_trainer_ranges(self, tmp_path, capsys, override, message):
        out = tmp_path / "run"
        cfg_path = write_config(tmp_path / "run.yaml", base_config(out))
        capsys.readouterr()
        assert main(["gen-data", "--config", str(cfg_path), "--set", override]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestGenData:
    def test_writes_data_and_manifest(self, workspace):
        _, out = workspace
        assert (out / "train.csv").exists()
        assert (out / "test.csv").exists()
        assert (out / "latents.csv").exists()
        manifest = read_manifest(out / "gen-data.manifest")
        assert manifest["command"] == "gen-data"
        assert int(manifest["train_records"]) > 0
        assert manifest["synthetic.n_shops"] == "8"

    def test_manifest_has_per_shop_sizes(self, workspace):
        _, out = workspace
        manifest = read_manifest(out / "gen-data.manifest")
        sizes = {k: int(v) for k, v in manifest.items() if k.startswith("shop_size.")}
        assert len(sizes) == 8
        total = int(manifest["train_records"]) + int(manifest["test_records"])
        assert sum(sizes.values()) == total

    def test_rerun_is_byte_identical(self, workspace):
        cfg_path, out = workspace
        before = {
            name: (out / name).read_bytes()
            for name in ("train.csv", "test.csv", "latents.csv")
        }
        assert main(["gen-data", "--config", str(cfg_path)]) == 0
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob

    def test_files_follow_the_umask(self, tmp_path):
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            out = tmp_path / f"run{umask:o}"
            path = write_config(tmp_path / "run.yaml", base_config(out))
            old = os.umask(umask)
            try:
                assert main(["gen-data", "--config", str(path)]) == 0
            finally:
                os.umask(old)
            for name in ("train.csv", "test.csv", "latents.csv", "gen-data.manifest"):
                assert (out / name).stat().st_mode & 0o777 == mode, (umask, name)

    def test_an_output_dir_under_a_file_is_one(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("x\n")
        out = tmp_path / "afile" / "sub"
        path = write_config(tmp_path / "run.yaml", base_config(out))
        assert main(["gen-data", "--config", str(path)]) == 1
        # the mkdir failure's text names the file that blocks the directory
        assert_cannot_write(capsys, out / "train.csv", tmp_path,
                            f"[Errno 20] Not a directory: '{out}'")

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "tables.txt"
        atomic_write_text(target, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "new " * 5000 + "\ud800")  # lone surrogate
        assert target.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tables.txt"]

    def test_seed_changes_the_data(self, workspace, tmp_path):
        cfg_path, out = workspace
        other = tmp_path / "other"
        cfg = base_config(other, seed=99)
        path2 = write_config(tmp_path / "other.yaml", cfg)
        assert main(["gen-data", "--config", str(path2)]) == 0
        assert (out / "train.csv").read_bytes() != (other / "train.csv").read_bytes()

    @pytest.mark.parametrize(
        "setting, named",
        [
            ("synthetic.pareto_exponent=0.001", "pareto_exponent"),
            ("synthetic.shop_effect_std=.inf", "shop_effect_std"),
            ("synthetic.noise_std=.nan", "noise_std"),
            ("synthetic.label_threshold=.inf", "label_threshold"),
        ],
    )
    def test_degenerate_knob_is_a_config_error(self, tmp_path, capsys, setting, named):
        out = tmp_path / "run"
        path = write_config(tmp_path / "run.yaml", base_config(out))
        assert main(["gen-data", "--config", str(path), "--set", setting]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert not list(tmp_path.rglob("*.csv"))


class TestTrain:
    def test_meta_checkpoint_round_trips(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        model, meta = load_checkpoint(out / "checkpoint.json")
        assert meta["trainer"] == "meta"
        assert meta["model_kind"] == "mesh"
        assert meta["seed"] == "11"

    def test_manifest_tracks_every_step(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        manifest = read_manifest(out / "train.manifest")
        assert manifest["steps_run"] == "8"
        assert manifest["stopped_early"] == "false"
        losses = [v for k, v in sorted(manifest.items()) if k.startswith("loss.")]
        assert len(losses) == 8
        assert all(float(v) > 0 for v in losses)

    def test_rerun_checkpoint_is_byte_identical(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        first = (out / "checkpoint.json").read_bytes()
        first_manifest = manifest_without_timing(out / "train.manifest")
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (out / "checkpoint.json").read_bytes() == first
        assert manifest_without_timing(out / "train.manifest") == first_manifest

    def test_fmst_gamma_zero_matches_meta_parameters(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        plain = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.trainer=fmst",
                "--set",
                "train.gamma=0.0",
            ]
        )
        assert code == 0
        fair = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
        assert fair["model"] == plain["model"]
        assert fair["meta"]["trainer"] == "fmst"
        assert plain["meta"]["trainer"] == "meta"

    def test_fmst_gamma_positive_differs(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        meta_bytes = (out / "checkpoint.json").read_bytes()
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.trainer=fmst",
                "--set",
                "train.gamma=0.5",
            ]
        )
        assert code == 0
        assert (out / "checkpoint.json").read_bytes() != meta_bytes

    def test_nonmeta_trainer(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.trainer=nonmeta",
                "--set",
                "train.epochs=2",
            ]
        )
        assert code == 0
        _, meta = load_checkpoint(out / "checkpoint.json")
        assert meta["trainer"] == "nonmeta"
        manifest = read_manifest(out / "train.manifest")
        assert manifest["steps_run"] == "2"

    def test_one_shop_trainer_needs_shop_id(self, workspace, capsys):
        cfg_path, _ = workspace
        code = main(
            ["train", "--config", str(cfg_path), "--set", "train.trainer=one_shop"]
        )
        assert code == 1
        assert "shop_id" in capsys.readouterr().err

    def test_one_shop_trainer_runs(self, workspace):
        cfg_path, out = workspace
        import csv

        with open(out / "train.csv", newline="", encoding="utf-8") as fh:
            shop = next(csv.DictReader(fh))["shop_id"]
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.trainer=one_shop",
                "--set",
                f"train.shop_id={shop}",
                "--set",
                "train.epochs=2",
            ]
        )
        assert code == 0

    def test_baseline_trainer_needs_baseline_model(self, workspace, capsys):
        cfg_path, _ = workspace
        code = main(
            ["train", "--config", str(cfg_path), "--set", "train.trainer=baseline"]
        )
        assert code == 1
        assert "baseline" in capsys.readouterr().err

    def test_baseline_trainer_runs(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.trainer=baseline",
                "--set",
                "model.kind=baseline",
                "--set",
                "train.epochs=2",
            ]
        )
        assert code == 0
        model, meta = load_checkpoint(out / "checkpoint.json")
        assert meta["model_kind"] == "baseline"

    def test_negative_augmentation_changes_training(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        plain = (out / "checkpoint.json").read_bytes()
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "data.negative_strategy=n0",
                "--set",
                "data.negative_ratio=0.5",
            ]
        )
        assert code == 0
        assert (out / "checkpoint.json").read_bytes() != plain


class TestAdapt:
    def test_writes_one_file_per_shop(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        code = main(
            [
                "adapt",
                "--config",
                str(cfg_path),
                "--set",
                f"adapt.checkpoint={out / 'checkpoint.json'}",
                "--set",
                f"adapt.support={out / 'train.csv'}",
            ]
        )
        assert code == 0
        files = sorted((out / "adapted").glob("*.json"))
        assert len(files) == 6
        for f in files:
            model, meta = load_checkpoint(f)
            assert meta["trainer"] == "meta"

    def test_zero_rate_adaptation_reproduces_the_checkpoint(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        code = main(
            [
                "adapt",
                "--config",
                str(cfg_path),
                "--set",
                f"adapt.checkpoint={out / 'checkpoint.json'}",
                "--set",
                f"adapt.support={out / 'train.csv'}",
                "--set",
                "train.alpha=0.0",
            ]
        )
        assert code == 0
        source = (out / "checkpoint.json").read_bytes()
        for f in (out / "adapted").glob("*.json"):
            assert f.read_bytes() == source

    def test_shop_subset_and_missing_shop(self, workspace, capsys):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        base = [
            "adapt",
            "--config",
            str(cfg_path),
            "--set",
            f"adapt.checkpoint={out / 'checkpoint.json'}",
            "--set",
            f"adapt.support={out / 'train.csv'}",
        ]
        assert main(base + ["--set", "adapt.shops=[s000]"]) == 0
        assert [p.name for p in sorted((out / "adapted").glob("*.json"))] == [
            "s000.json"
        ]
        assert main(base + ["--set", "adapt.shops=[nope]"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_a_shop_listed_twice_is_a_config_error(self, workspace, capsys):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        argv = ["adapt", "--config", str(cfg_path)]
        for s in [
            f"adapt.checkpoint={out / 'checkpoint.json'}",
            f"adapt.support={out / 'train.csv'}",
            "adapt.shops=[s000, s001, s000]",
        ]:
            argv += ["--set", s]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "config error: adapt.shops lists 's000' twice\n"
        )
        assert not (out / "adapted").exists()

    def test_a_bad_shop_stops_every_write(self, workspace, capsys):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        argv = ["adapt", "--config", str(cfg_path)]
        for s in [
            f"adapt.checkpoint={out / 'checkpoint.json'}",
            f"adapt.support={out / 'train.csv'}",
            "adapt.shops=[s000, s001, ghost]",
        ]:
            argv += ["--set", s]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "data error: no support records for shop 'ghost'\n"
        )
        assert not (out / "adapted").exists()

    @pytest.mark.parametrize(
        "shop",
        ["{tmp}/escaped", "s\x00", "s" * 300, "s\n1", "s\r1", "a\\b"],
        ids=["absolute_path", "nul", "300_chars", "newline", "carriage_return", "backslash"],
    )
    def test_a_shop_id_that_cannot_name_a_file_stops_every_write(
        self, workspace, tmp_path, capsys, shop
    ):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        shop = shop.format(tmp=tmp_path)
        with open(out / "train.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        column = rows[0].index("shop_id")
        for row in rows[1:]:
            row[column] = shop if row[column] == "s000" else row[column]
        support = out / "support.csv"
        with open(support, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
        argv = ["adapt", "--config", str(cfg_path)]
        for s in [f"adapt.checkpoint={out / 'checkpoint.json'}", f"adapt.support={support}"]:
            argv += ["--set", s]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"data error: {support}: shop id {shop!r} cannot name a file: it must hold no "
            "path separator or control character and at most 236 UTF-8 bytes\n"
        )
        assert not (out / "adapted").exists()
        assert not (out / "adapt.manifest").exists()
        assert not (tmp_path / "escaped.json").exists()

    def test_a_shop_id_of_236_utf8_bytes_names_its_file(self, workspace, capsys):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        text = (out / "train.csv").read_text(encoding="utf-8")
        argv = ["adapt", "--config", str(cfg_path), "--set",
                f"adapt.checkpoint={out / 'checkpoint.json'}"]
        for shop, code in [("\u00e9" * 118, 0), ("\u00e9" * 118 + "x", 2)]:
            support = out / f"support{code}.csv"
            support.write_text(text.replace(",s000,", f",{shop},"), encoding="utf-8")
            capsys.readouterr()
            assert main(argv + ["--set", f"adapt.support={support}"]) == code
        assert (out / "adapted" / ("\u00e9" * 118 + ".json")).is_file()
        assert "cannot name a file" in capsys.readouterr().err


class TestCategoricalFeatures:
    """train, evaluate and adapt on attribute tables instead of latents."""

    def test_train_evaluate_and_adapt(self, workspace):
        cfg_path, out = workspace
        ids: dict[str, set] = {"user_id": set(), "item_id": set()}
        for name in ("train.csv", "test.csv"):
            with open(out / name, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    for column, seen in ids.items():
                        seen.add(row[column])
        for name, column, field in (
            ("users.csv", "user_id", "age"),
            ("items.csv", "item_id", "color"),
        ):
            rows = [f"{v},{field}{i % 3}" for i, v in enumerate(sorted(ids[column]))]
            text = "\n".join([f"{column},{field}", *rows]) + "\n"
            (out / name).write_text(text, encoding="utf-8")
        attrs = [
            "data.latents=null",
            f"data.user_attrs={out / 'users.csv'}",
            f"data.item_attrs={out / 'items.csv'}",
            f"adapt.checkpoint={out / 'checkpoint.json'}",
            f"adapt.support={out / 'train.csv'}",
        ]
        for kind, sigmoid in (("mesh", "auto"), ("mesh_i", "true")):
            sets = [*attrs, f"model.kind={kind}", f"model.sigmoid_output={sigmoid}"]
            runs = []
            for _ in range(2):
                for command in ("train", "evaluate", "adapt"):
                    _run(cfg_path, command, sets)
                runs.append(
                    {
                        p.name: p.read_bytes()
                        for p in [*out.glob("*.json"), *out.glob("adapted/*.json")]
                    }
                )
            assert runs[0] == runs[1]
            assert "report.json" in runs[0] and "s000.json" in runs[0]
            model = json.loads(runs[0]["checkpoint.json"])["model"]
            assert model["kind"] == kind and model["sigmoid_output"] is True
            for encoder, field in (("user_encoder", "age"), ("item_encoder", "color")):
                assert model[encoder]["mode"] == "categorical"
                assert list(model[encoder]["tables"]) == [field]


class TestEvaluate:
    def test_builds_only_the_records_of_its_tasks(self, trained_run, tmp_path, monkeypatch):
        """Loading, shop classes and the user pool read columns; only the
        tasks build_tasks returns are built as records, in one pass."""
        self.evaluate_counting_records(trained_run, tmp_path, monkeypatch, [])

    def test_a_baseline_builds_only_the_records_of_its_tasks(
            self, trained_run, tmp_path, monkeypatch):
        """A baseline's purchase histories read the train columns too."""
        baseline = ["train.trainer=baseline", "model.kind=baseline", "train.epochs=2"]
        self.evaluate_counting_records(trained_run, tmp_path, monkeypatch, baseline)

    @staticmethod
    def evaluate_counting_records(trained_run, tmp_path, monkeypatch, trained):
        """Train with the ``trained`` overrides, if any, on a copy of the
        trained run, then evaluate it counting the records built."""
        out = tmp_path / "run"
        shutil.copytree(trained_run, out)
        cfg_path = write_config(tmp_path / "run.yaml", base_config(out))
        if trained:
            _run(cfg_path, "train", trained)
        built, tasks = [], []
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
        build_tasks = cli.build_tasks
        monkeypatch.setattr(
            cli, "build_tasks", lambda *a, **k: tasks.extend(build_tasks(*a, **k)) or tasks
        )
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        assert tasks and built == [sum(len(t.support) + len(t.query) for t in tasks)]

    def test_report_and_tables(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert set(report["metrics"]) == {"recall@0.1", "ndcg@3", "mae"}
        assert report["counts"]["queries"] > 0
        assert {"new", "small", "large"} <= set(report["by_class"])
        tables = (out / "tables.txt").read_text(encoding="utf-8")
        assert "recall@0.1\tall" in tables
        manifest = read_manifest(out / "evaluate.manifest")
        assert manifest["adapt"] == "true"

    def test_rerun_report_is_byte_identical(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        report = (out / "report.json").read_bytes()
        tables = (out / "tables.txt").read_bytes()
        manifest = manifest_without_timing(out / "evaluate.manifest")
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        assert (out / "report.json").read_bytes() == report
        assert (out / "tables.txt").read_bytes() == tables
        assert manifest_without_timing(out / "evaluate.manifest") == manifest

    def test_adaptation_changes_the_report(self, workspace):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        adapted = (out / "report.json").read_bytes()
        code = main(
            ["evaluate", "--config", str(cfg_path), "--set", "eval.adapt=false"]
        )
        assert code == 0
        assert (out / "report.json").read_bytes() != adapted

    def test_baseline_evaluates(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "train",
                "--config",
                str(cfg_path),
                "--set",
                "train.trainer=baseline",
                "--set",
                "model.kind=baseline",
                "--set",
                "train.epochs=2",
            ]
        )
        assert code == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["counts"]["queries"] > 0

    @pytest.mark.parametrize(
        "sets", [[], ["eval.query_mode=user_shop"]], ids=["item", "user_shop"]
    )
    def test_baseline_user_reps_computed_once(self, workspace, monkeypatch, sets):
        cfg_path, out = workspace
        baseline = ["train.trainer=baseline", "model.kind=baseline", "train.epochs=2"]
        argv = ["train", "--config", str(cfg_path)]
        for s in baseline:
            argv += ["--set", s]
        assert main(argv) == 0
        calls = []
        real = cli.baseline_user_reps

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "baseline_user_reps", counting)
        argv = ["evaluate", "--config", str(cfg_path)]
        for s in sets:
            argv += ["--set", s]
        assert main(argv) == 0
        assert len(calls) == 1
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["counts"]["queries"] > 0


def _run(cfg_path: Path, command: str, sets=()) -> None:
    argv = [command, "--config", str(cfg_path)]
    for s in sets:
        argv += ["--set", s]
    assert main(argv) == 0, argv


def _lines(path: Path, prefix: str) -> dict:
    return {k: v for k, v in read_manifest(path).items() if k.startswith(prefix)}


# the config.* lines of base_config's train and adapt runs
DEFAULT_CONFIG_LINES = {
    "config.alpha": "0.05",
    "config.beta": "0.05",
    "config.gamma": "0.0",
    "config.local_steps": "2",
    "config.loss_kind": "squared",
    "config.model_kind": "mesh",
    "config.outer_optimizer": "sgd",
    "config.query_batch_size": "None",
    "config.regularizer": "option1",
    "config.seed": "11",
    "config.shop_batch_size": "4",
    "config.support_size": "10",
    "config.task_unit": "shop",
}
DEFAULT_EVAL_LINES = {
    "eval.candidate_pool": "all_users",
    "eval.include_mae": "True",
    "eval.ndcg_ks": "3",
    "eval.query_mode": "None",
    "eval.rating_positive_threshold": "4.0",
    "eval.recall_ks": "0.1",
    "eval.recall_mode": "standard",
    "eval.thresholds": "0.5,0.6,0.7,0.8",
}


class TestManifestLines:
    """Each choice key as the manifest and checkpoint spell it, line by line."""

    FMST = [
        "train.trainer=fmst",
        "train.gamma=0.5",
        "train.regularizer=option2",
        "train.outer_optimizer=adam",
        "train.loss=bce",
    ]

    def test_train_evaluate_and_adapt(self, workspace):
        cfg_path, out = workspace
        _run(cfg_path, "train", self.FMST)
        assert _lines(out / "train.manifest", "config.") == {
            **DEFAULT_CONFIG_LINES,
            "config.gamma": "0.5",
            "config.loss_kind": "bce",
            "config.outer_optimizer": "adam",
            "config.regularizer": "option2",
        }
        _, meta = load_checkpoint(out / "checkpoint.json")
        assert meta == {"model_kind": "mesh", "seed": "11", "trainer": "fmst"}

        _run(
            cfg_path,
            "evaluate",
            [
                "eval.recall_mode=topk_fraction",
                "eval.candidate_pool=observed",
                "eval.query_mode=item",
            ],
        )
        assert _lines(out / "evaluate.manifest", "eval.") == {
            **DEFAULT_EVAL_LINES,
            "eval.candidate_pool": "observed",
            "eval.query_mode": "item",
            "eval.recall_mode": "topk_fraction",
        }
        _run(cfg_path, "evaluate")
        assert _lines(out / "evaluate.manifest", "eval.") == DEFAULT_EVAL_LINES

        _run(
            cfg_path,
            "adapt",
            [
                f"adapt.checkpoint={out / 'checkpoint.json'}",
                f"adapt.support={out / 'train.csv'}",
            ],
        )
        assert _lines(out / "adapt.manifest", "config.") == DEFAULT_CONFIG_LINES


class TestManifestPolicy:
    """Every config command's manifest: command first, wall time last, on success."""

    def test_command_first_and_wall_time_last(self, workspace):
        cfg_path, out = workspace
        adapt = [
            f"adapt.checkpoint={out / 'checkpoint.json'}",
            f"adapt.support={out / 'train.csv'}",
        ]
        ablation = ["ablation.study=debias_gamma", "ablation.gammas=[0.0]"]
        runs = [
            ("gen-data", [], "gen-data.manifest"),
            ("train", [], "train.manifest"),
            ("evaluate", [], "evaluate.manifest"),
            ("adapt", adapt, "adapt.manifest"),
            ("ablation", ablation, "ablation_debias_gamma.manifest"),
        ]
        for command, sets, name in runs:
            _run(cfg_path, command, sets)
            lines = (out / name).read_text(encoding="utf-8").splitlines()
            assert lines[0] == f"command={command}"
            key, _, value = lines[-1].partition("=")
            assert key == "wall_time_seconds"
            assert float(value) >= 0.0

    @pytest.mark.parametrize(
        "command, broken, sets",
        [
            ("train", "train.csv", []),
            ("evaluate", "checkpoint.json", []),
            ("adapt", "checkpoint.json", ["adapt.checkpoint={c}", "adapt.support={t}"]),
            ("ablation", "test.csv", ["ablation.study=debias_gamma"]),
        ],
    )
    def test_failed_command_leaves_no_manifest(
        self, trained_run, tmp_path, command, broken, sets
    ):
        out = tmp_path / "run"
        shutil.copytree(trained_run, out)
        for manifest in out.glob("*.manifest"):
            manifest.unlink()
        (out / broken).write_text("{", encoding="utf-8")
        cfg_path = write_config(tmp_path / "run.yaml", base_config(out))
        argv = [command, "--config", str(cfg_path)]
        for s in sets:
            argv += ["--set", s.format(c=out / "checkpoint.json", t=out / "train.csv")]
        assert main(argv) == 2
        assert not list(out.rglob("*.manifest"))


class TestReportCommand:
    def test_prints_tables(self, workspace, capsys):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.json")]) == 0
        printed = capsys.readouterr().out
        assert "# metric summary" in printed
        assert printed == (out / "tables.txt").read_text(encoding="utf-8")

    def test_writes_tables_to_file(self, workspace, tmp_path):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        target = tmp_path / "elsewhere.txt"
        assert main(
            ["report", "--report", str(out / "report.json"), "--out", str(target)]
        ) == 0
        assert target.read_bytes() == (out / "tables.txt").read_bytes()

    def test_an_out_path_that_is_a_directory_is_one(self, trained_run, tmp_path, capsys):
        target = tmp_path / "adir"
        target.mkdir()
        capsys.readouterr()
        assert main(
            ["report", "--report", str(trained_run / "report.json"), "--out", str(target)]
        ) == 1
        # not the rename's text, which names the temp file already removed
        assert_cannot_write(capsys, target, tmp_path, "Is a directory")
        assert not list(target.iterdir())

    def test_missing_report_is_two(self, tmp_path):
        assert main(["report", "--report", str(tmp_path / "gone.json")]) == 2

    def test_python_dash_m_runs_main(self, tmp_path):
        gone = tmp_path / "gone.json"
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "metashop", "report", "--report", str(gone)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"data error: cannot read report {gone}: ")

    def test_non_numeric_threshold_is_two(self, workspace, tmp_path, capsys):
        cfg_path, out = workspace
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert main(["evaluate", "--config", str(cfg_path)]) == 0
        text = (out / "report.json").read_text(encoding="utf-8")
        target = tmp_path / "renamed.json"
        for cls in (None, "small"):
            report = json.loads(text)
            table = report["metrics"] if cls is None else report["by_class"][cls]
            exceedance = table["recall@0.1"]["exceedance"]
            exceedance["x.7"] = exceedance.pop("0.7")
            target.write_text(json.dumps(report), encoding="utf-8")
            capsys.readouterr()
            assert main(["report", "--report", str(target)]) == 2
            err = capsys.readouterr().err
            assert "'recall@0.1'" in err and "'x.7'" in err, err
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                _edit_json(counts=None),
                "{path}: unreadable report near field KeyError('counts')",
            ),
            (
                _edit_json(format_version=9),
                "{path}: report format_version 9 not supported",
            ),
            (
                lambda t: t.replace('"0.7":', '"x.7":'),
                "{path}: report metric 'mae': could not convert string to float: 'x.7'",
            ),
            (lambda t: "[1,2]", "report {path} does not hold a JSON object"),
            (lambda t: "3", "report {path} does not hold a JSON object"),
            (
                lambda t: "{}",
                "{path}: unreadable report near field KeyError('format_version')",
            ),
        ],
        ids=["no_counts", "version", "exceedance_key", "list", "number", "empty"],
    )
    def test_load_errors_name_the_file(
        self, trained_run, tmp_path, capsys, edit, message
    ):
        target = tmp_path / "report.json"
        target.write_text(
            edit((trained_run / "report.json").read_text(encoding="utf-8")),
            encoding="utf-8",
        )
        capsys.readouterr()
        assert main(["report", "--report", str(target)]) == 2
        assert capsys.readouterr().err == f"data error: {message.format(path=target)}\n"


class TestAblation:
    @pytest.mark.parametrize("command, sets", [
        ("evaluate", []),
        ("ablation", ["ablation.study=debias_gamma", "ablation.gammas=[0.0, 0.8]"]),
        ("ablation", ["ablation.study=one_shop", "ablation.n_shops=3", "train.epochs=2"]),
    ], ids=["evaluate", "debias_gamma", "one_shop"])
    def test_one_label_walk_per_command(self, workspace, monkeypatch, command, sets):
        """The query mode is inferred once per command, however many reports it
        makes, and not at all when ``eval.query_mode`` is set."""
        cfg_path, _ = workspace
        walks = []
        real = evaluation.binary_labels
        monkeypatch.setattr(evaluation, "binary_labels", lambda r: walks.append(1) or real(r))
        if command == "evaluate":
            _run(cfg_path, "train", ["train.steps=4"])
        for query_mode, want in ([], 1), (["eval.query_mode=item"], 0):
            walks.clear()
            _run(cfg_path, command, ["train.steps=4", *sets, *query_mode])
            assert len(walks) == want

    def test_debias_gamma_grid(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "ablation",
                "--config",
                str(cfg_path),
                "--set",
                "ablation.study=debias_gamma",
                "--set",
                "ablation.gammas=[0.0, 0.8]",
                "--set",
                "train.steps=4",
            ]
        )
        assert code == 0
        lines = (
            (out / "ablation_debias_gamma.tsv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert lines[0].startswith("setting\t")
        assert [l.split("\t")[0] for l in lines[1:]] == ["gamma=0", "gamma=0.8"]
        assert (out / "report_gamma=0.json").exists()
        assert (out / "report_gamma=0.8.json").exists()

    def test_one_shop_grid_has_both_rows(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "ablation",
                "--config",
                str(cfg_path),
                "--set",
                "ablation.study=one_shop",
                "--set",
                "ablation.n_shops=3",
                "--set",
                "train.steps=4",
                "--set",
                "train.epochs=2",
            ]
        )
        assert code == 0
        lines = (
            (out / "ablation_one_shop.tsv").read_text(encoding="utf-8").splitlines()
        )
        assert [l.split("\t")[0] for l in lines[1:]] == ["meta_adapted", "one_shop"]
        meta_report = json.loads(
            (out / "report_meta.json").read_text(encoding="utf-8")
        )
        assert meta_report["counts"]["shops"] == 3

    # outputs of the one_shop study with n1 negatives on this world, from
    # the code that sampled negatives once per one_shop model
    ONE_SHOP_SHA256 = {
        2: {
            "ablation_one_shop.tsv": "a2f08b64c887e900d11256e4cb111f7fc7bc49c441d600dac823159ccc6dd988",
            "report_meta.json": "6de1d5af01784caf45388e0476c9b304b5c46ddacf1d89b3e14a690e432d1a10",
            "report_one_shop.json": "3c57704946762833320f229588318ca7c1ea792f65cae1088eb69e18db4c7ab5",
        },
        4: {
            "ablation_one_shop.tsv": "5d245b3a4eff793a45dbec5da809c14f44db70a9861e9483797e601de54b81e1",
            "report_meta.json": "779bb6135a31910c98771fae79a614ad02e3095ecd4871731d38cc91485ae5bd",
            "report_one_shop.json": "6a4bd48095e746bcb362ad62b67e174ae6206fb7428ca30d8b5796e8887fd65f",
        },
    }

    def test_one_shop_samples_negatives_once_per_arm(self, workspace, monkeypatch):
        cfg_path, out = workspace
        calls = []
        real = cli.negative_sample

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "negative_sample", counting)
        for n_shops, expected in self.ONE_SHOP_SHA256.items():
            calls.clear()
            argv = ["ablation", "--config", str(cfg_path)]
            for s in [
                "ablation.study=one_shop",
                f"ablation.n_shops={n_shops}",
                "data.negative_strategy=n1",
                "train.steps=4",
                "train.epochs=2",
            ]:
                argv += ["--set", s]
            assert main(argv) == 0
            # one sample for the meta arm, one shared by every one_shop model
            assert len(calls) == 2
            got = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in expected
            }
            assert got == expected

    def test_negative_sampling_grid(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "ablation",
                "--config",
                str(cfg_path),
                "--set",
                "ablation.study=negative_sampling",
                "--set",
                "data.negative_ratio=0.5",
                "--set",
                "train.steps=4",
            ]
        )
        assert code == 0
        lines = (
            (out / "ablation_negative_sampling.tsv")
            .read_text(encoding="utf-8")
            .splitlines()
        )
        assert [l.split("\t")[0] for l in lines[1:]] == ["n0", "n1", "n2"]

    def test_task_unit_grid(self, workspace):
        cfg_path, out = workspace
        code = main(
            [
                "ablation",
                "--config",
                str(cfg_path),
                "--set",
                "ablation.study=task_unit",
                "--set",
                "data.min_interactions=5",
                "--set",
                "data.support_size=3",
                "--set",
                "train.steps=4",
            ]
        )
        assert code == 0
        lines = (
            (out / "ablation_task_unit.tsv").read_text(encoding="utf-8").splitlines()
        )
        assert [l.split("\t")[0] for l in lines[1:]] == ["shop", "item", "user"]

    @pytest.mark.parametrize(
        "gammas, message",
        [
            ("[0.01, 0.0100000001]", "0.01 and 0.0100000001 would share the row and "
             "report gamma=0.01"),
            ("[0.0, 0.8, 0.0]", "0.0 and 0.0 would share the row and report gamma=0"),
        ],
        ids=["print_alike", "repeated"],
    )
    def test_gammas_that_print_alike_write_nothing(self, workspace, capsys, gammas, message):
        cfg_path, out = workspace
        before = sorted(out.iterdir())
        argv = ["ablation", "--config", str(cfg_path), "--set", "ablation.study=debias_gamma",
                "--set", f"ablation.gammas={gammas}"]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: ablation.gammas {message}\n"
        assert sorted(out.iterdir()) == before

    def test_taskless_unit_writes_no_row(self, workspace, capsys):
        # at min_interactions 13 the shop and item rows train, the user row not
        cfg_path, out = workspace
        argv = ["ablation", "--config", str(cfg_path)]
        argv += ["--set", "ablation.study=task_unit", "--set", "train.steps=4"]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "data error: no task reaches data.min_interactions with "
            "train.task_unit=user; lower it or add data\n"
        )
        assert not list(out.glob("report_*.json"))
        assert not (out / "ablation_task_unit.tsv").exists()
        assert not (out / "ablation_task_unit.manifest").exists()

    @pytest.mark.parametrize(
        "trainer",
        [["nonmeta"], ["one_shop"], ["baseline", "model.kind=baseline"]],
        ids=["nonmeta", "one_shop", "baseline"],
    )
    def test_task_unit_with_a_taskless_trainer_is_a_config_error(
        self, workspace, capsys, trainer
    ):
        cfg_path, out = workspace
        import csv

        with open(out / "train.csv", newline="", encoding="utf-8") as fh:
            shop = next(csv.DictReader(fh))["shop_id"]
        argv = ["ablation", "--config", str(cfg_path)]
        for s in [
            "ablation.study=task_unit",
            f"train.trainer={trainer[0]}",
            *trainer[1:],
            f"train.shop_id={shop}",
            "train.steps=4",
            "train.epochs=2",
        ]:
            argv += ["--set", s]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: train.trainer={trainer[0]} ")
        assert not (out / "ablation_task_unit.tsv").exists()

    def test_study_is_required(self, workspace, capsys):
        cfg_path, _ = workspace
        assert main(["ablation", "--config", str(cfg_path)]) == 1
        assert "ablation.study" in capsys.readouterr().err

    def test_baseline_model_is_a_config_error(self, workspace, capsys):
        cfg_path, _ = workspace
        code = main(
            [
                "ablation",
                "--config",
                str(cfg_path),
                "--set",
                "model.kind=baseline",
                "--set",
                "ablation.study=debias_gamma",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_fair_training_by_item_is_a_config_error(self, workspace, capsys):
        cfg_path, _ = workspace
        code = main(
            [
                "ablation",
                "--config",
                str(cfg_path),
                "--set",
                "ablation.study=debias_gamma",
                "--set",
                "ablation.gammas=[0.0, 0.8]",
                "--set",
                "train.task_unit=item",
                "--set",
                "train.gamma=0.5",
                "--set",
                "data.min_interactions=5",
                "--set",
                "data.support_size=3",
                "--set",
                "train.steps=4",
            ]
        )
        assert code == 1
        assert "fair training sizes tasks by shop sales" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "study, setting, report",
        [
            (
                ["ablation.study=debias_gamma", "ablation.gammas=[0.0, 0.8]"],
                ["train.trainer=fmst", "train.gamma=0.8"],
                "report_gamma=0.8.json",
            ),
            (
                ["ablation.study=negative_sampling"],
                ["data.negative_strategy=n1"],
                "report_n1.json",
            ),
            (
                [
                    "ablation.study=task_unit",
                    "data.min_interactions=5",
                    "data.support_size=3",
                ],
                [
                    "train.task_unit=item",
                    "data.min_interactions=5",
                    "data.support_size=3",
                ],
                "report_item.json",
            ),
            (
                [
                    "ablation.study=debias_gamma",
                    "ablation.gammas=[0.8]",
                    "data.negative_strategy=n1",
                ],
                [
                    "train.trainer=fmst",
                    "train.gamma=0.8",
                    "data.negative_strategy=n1",
                ],
                "report_gamma=0.8.json",
            ),
        ],
        ids=["gamma", "negatives", "task_unit", "gamma_with_negatives"],
    )
    def test_row_is_train_then_evaluate(self, workspace, study, setting, report):
        cfg_path, out = workspace

        def run(command, sets):
            argv = [command, "--config", str(cfg_path)]
            for s in ["train.steps=4", "data.negative_ratio=0.5", *sets]:
                argv += ["--set", s]
            assert main(argv) == 0

        run("ablation", study)
        run("train", setting)
        run("evaluate", ["eval.adapt=true", *setting])
        assert (out / "report.json").read_bytes() == (out / report).read_bytes()


class TestPrepMl1m:
    @pytest.fixture()
    def fake_dump(self, tmp_path):
        src = tmp_path / "ml-1m"
        src.mkdir()
        (src / "movies.dat").write_text(
            "1::Toy Story (1995)::Animation|Children's\n"
            "2::Heat (1995)::Action|Crime\n"
            "3::Sabrina (1995)::Comedy|Romance\n"
            "4::No Year::Drama\n",
            encoding="latin-1",
        )
        (src / "users.dat").write_text(
            "1::F::1::10::48067\n2::M::56::16::70072\n3::M::25::15::55117\n",
            encoding="latin-1",
        )
        (src / "ratings.dat").write_text(
            "1::1::5::978300760\n"
            "2::1::3::978301968\n"
            "2::2::4::978302109\n"
            "3::3::4::978301398\n"
            "1::9::5::978302205\n",
            encoding="latin-1",
        )
        return src

    def test_converts_a_dump(self, fake_dump, tmp_path, capsys):
        out = tmp_path / "converted"
        code = main(
            ["prep-ml1m", "--source", str(fake_dump), "--out", str(out)]
        )
        assert code == 0
        assert "converted" in capsys.readouterr().out
        assert (out / "train.csv").exists()
        assert (out / "test.csv").exists()
        assert (out / "user_attrs.csv").exists()
        assert (out / "item_attrs.csv").exists()

    @pytest.mark.parametrize(
        "name,line,text,message",
        [
            ("movies.dat", 2, "2::Heat (1995)", "line 2: 2 fields, expected 3"),
            ("movies.dat", 3, "3::Sabrina (1995)::", "line 3: no genre"),
            ("users.dat", 3, "3::M::25::15", "line 3: 4 fields, expected 5"),
            ("ratings.dat", 4, "3::3::4", "line 4: 3 fields, expected 4"),
            (
                "ratings.dat", 1, "1::1::x::978300760",
                "line 1: rating 'x' is not a number",
            ),
            (
                "ratings.dat", 2, "2::1::3::97830x",
                "line 2: timestamp '97830x' is not an integer",
            ),
            (
                "ratings.dat", 3, "2::2::9::978302109",
                "line 3: rating 9.0 outside [1, 5]",
            ),
            ("ratings.dat", None, None, "[Errno 21] Is a directory: '{path}'"),
            (
                "movies.dat", 2, "1::Heat (1999)::Drama",
                "line 2: duplicate of {path} line 1 (movie 1)",
            ),
            (
                "users.dat", 3, "1::M::56::16::70072",
                "line 3: duplicate of {path} line 1 (user 1)",
            ),
        ],
        ids=[
            "short_movie", "no_genre", "short_user", "short_rating",
            "rating_not_a_number", "timestamp_not_an_integer", "rating_out_of_range",
            "directory", "repeated_movie", "repeated_user",
        ],
    )
    def test_malformed_dump_is_two(
        self, fake_dump, tmp_path, capsys, name, line, text, message
    ):
        path = fake_dump / name
        if line is None:  # a directory where the file should be
            path.unlink()
            path.mkdir()
            expected = f"cannot read {path}: {message.format(path=path)}"
        else:
            lines = path.read_text(encoding="latin-1").splitlines()
            lines[line - 1] = text
            path.write_text("\n".join(lines) + "\n", encoding="latin-1")
            expected = f"{path} {message.format(path=path)}"
        out = tmp_path / "converted"
        assert main(["prep-ml1m", "--source", str(fake_dump), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: {expected}\n"
        assert not out.exists()

    def test_repeated_rating_is_two(self, fake_dump, tmp_path, capsys):
        """A second rating of one movie by one user at one timestamp names
        both lines, instead of writing a train.csv that every later command
        rejects."""
        path = fake_dump / "ratings.dat"
        with path.open("a", encoding="latin-1") as f:
            f.write("2::2::5::978302109\n")
        out = tmp_path / "converted"
        assert main(["prep-ml1m", "--source", str(fake_dump), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {path} line 6: duplicate of {path} line 3 (user 2, movie 2)\n"
        )
        assert not out.exists()

    def test_an_out_path_that_is_a_file_is_one(self, fake_dump, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("x\n")
        assert main(["prep-ml1m", "--source", str(fake_dump), "--out", str(out)]) == 1
        assert_cannot_write(capsys, out / "train.csv", tmp_path,
                            f"[Errno 17] File exists: '{out}'")
        assert out.read_text() == "x\n"

    def test_missing_source_is_two(self, tmp_path):
        code = main(
            [
                "prep-ml1m",
                "--source",
                str(tmp_path / "nowhere"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert code == 2


def _yaml_text(value) -> str:
    """``value`` as the flow-style YAML a user would type after ``--set key=``."""
    text = yaml.safe_dump(value, default_flow_style=True, width=1000)
    return text.removesuffix("\n...\n").removesuffix("\n")


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_KEYS = st.sampled_from(
    sorted(CONFIG_KEYS)
    + ["data", "synthetic", "train.warmup", "eval.adapt.deep", "bogus", "seed.x"]
) | st.text(alphabet="abtrin._", min_size=1, max_size=12)
_OVERRIDES = st.lists(
    st.builds(
        lambda key, value: f"{key}={value}",
        _KEYS,
        _VALUES.map(_yaml_text) | st.text(max_size=10),
    )
    | st.text(max_size=12),
    max_size=4,
)

# gen-data really runs, so sizes stay small enough to generate in milliseconds
_SYNTH_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.floats(-3.0, 5.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")])
    | st.text(max_size=5)
    | st.lists(st.integers(0, 3), max_size=2)
)
_SYNTH_OVERRIDES = st.lists(
    st.builds(
        lambda key, value: f"{key}={_yaml_text(value)}",
        st.sampled_from(
            sorted(k for k in CONFIG_KEYS if k.startswith("synthetic."))
            + ["synthetic.n_planets", "seed"]
        ),
        _SYNTH_VALUES,
    ),
    max_size=4,
)


class TestOverrideProperties:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(overrides=_OVERRIDES)
    def test_load_config_returns_or_raises_config_error(self, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp) / "c.yaml", base_config(Path(tmp) / "run"))
            try:
                load_config(path, overrides)
            except ConfigError:
                pass

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(overrides=_SYNTH_OVERRIDES)
    def test_gen_data_exits_with_a_documented_code(self, overrides):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_config(Path(tmp) / "c.yaml", base_config(Path(tmp) / "run"))
            argv = ["gen-data", "--config", str(path)]
            for item in overrides:
                argv += ["--set", item]
            assert main(argv) in (0, 1, 2)


FAULT_PROBE = """
import resource
import sys
import numpy as np
from metashop.cli import main
from metashop.models import Batch, ModelKind, build_model, loss_and_grad_at, pretrained_encoder
from metashop.numcore import LossKind

assert main(["report", "--report", sys.argv[1]]) == 2  # any command sets the heap up
n, rng = 2255, np.random.default_rng(0)  # the README world's largest query set
model = build_model(ModelKind.MESH, pretrained_encoder(8), pretrained_encoder(8), [16], 0)
batch = Batch(rng.random(n), rng.normal(size=(n, 8)), rng.normal(size=(n, 8)))
for _ in range(3):  # the heap grows to its high-water mark
    loss_and_grad_at(model, model.vector, batch, LossKind.SQUARED)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    loss_and_grad_at(model, model.vector, batch, LossKind.SQUARED)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_the_heap_setting_keeps_a_big_query_gradient_from_faulting(tmp_path):
    """Left to glibc's sliding thresholds, each such call faults its freed
    temporaries back in, about 250-300 minor faults."""
    try:
        ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        pytest.skip("the C library has no mallopt")
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, str(tmp_path / "gone.json")],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 20 <= 5
