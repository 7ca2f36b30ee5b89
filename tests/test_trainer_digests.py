"""The bytes of every trainer path that the golden-bytes benchmark leaves out.

``tests/test_golden_bytes.py`` pins meta-SGD on two-tower models and pooled
SGD on a joint model. These cases pin the other paths through the inner and
outer loops on the ``tests/test_cli.py`` world: the fairness penalty of
either option, the Adam outer step, pooled SGD on ``wide_deep``, one-shop
training and ``metashop adapt``. Each digest is the sha256 of the checkpoint
the command writes (for ``adapt``, of every adapted file's name and bytes,
in name order). A change in rounding order anywhere on these paths changes
a digest.
"""

from __future__ import annotations

import csv
import hashlib

import pytest

from metashop.cli import main

from test_cli import base_config, write_config

DIGESTS = {
    "fmst_option1": "7b0aba2d15d4271d9eb597a339e8bb9227ed17c87df4a45d7c665753b537dd14",
    "fmst_option2": "7ebda03cb86292814fe7b51dd78e606d9f13165b001dd650116bb64967592740",
    "meta_adam": "6a8df6363497542176aaa8101b46f6ed5775ed1ddd177b5cf0404e9cb412a658",
    "wide_deep_nonmeta": "b70db6a01813ec64184a8dee72b0d06c3dd276a285e9bcdd4be6d71f58a16238",
    "one_shop": "1ec72d1f7e8e0ce361e94b199c1d4bfc125e5b7045fdcf9eb9567a619219f92c",
    "adapt": "c3d5ae5fac7966d23590b6c71db6a675ee43a87f0f66570cb0fb45a39dfd0fec",
}

SETTINGS = {
    "fmst_option1": ["train.trainer=fmst", "train.gamma=0.3", "train.regularizer=option1"],
    "fmst_option2": ["train.trainer=fmst", "train.gamma=0.3", "train.regularizer=option2"],
    "meta_adam": ["train.outer_optimizer=adam"],
    "wide_deep_nonmeta": [
        "model.kind=wide_deep", "train.trainer=nonmeta", "train.epochs=2",
        "train.batch_size=64",
    ],
    "one_shop": ["train.trainer=one_shop", "train.shop_id={shop}", "train.epochs=2"],
    "adapt": [],
}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    out = tmp_path_factory.mktemp("digests") / "run"
    cfg_path = write_config(out.parent / "run.yaml", base_config(out))
    assert main(["gen-data", "--config", str(cfg_path)]) == 0
    return cfg_path, out


def _sets(values: list[str], **names) -> list[str]:
    return [arg for v in values for arg in ("--set", v.format(**names))]


@pytest.mark.parametrize("case", list(DIGESTS))
def test_trainer_writes_the_recorded_bytes(world, case):
    cfg_path, out = world
    with open(out / "train.csv", newline="", encoding="utf-8") as fh:
        shop = next(csv.DictReader(fh))["shop_id"]
    argv = ["--config", str(cfg_path), *_sets(SETTINGS[case], shop=shop)]
    assert main(["train", *argv]) == 0
    digest = hashlib.sha256()
    if case == "adapt":
        paths = ["adapt.checkpoint={out}/checkpoint.json", "adapt.support={out}/train.csv"]
        assert main(["adapt", *argv, *_sets(paths, out=out)]) == 0
        for path in sorted((out / "adapted").glob("*.json")):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    else:
        digest.update((out / "checkpoint.json").read_bytes())
    assert digest.hexdigest() == DIGESTS[case]
