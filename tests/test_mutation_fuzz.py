"""Every mutated input file ends in a documented exit code, never a traceback.

One tiny world (40 users, 30 items, 4 shops, 5 meta steps) is trained and
evaluated once. Each example copies its inputs into a fresh directory,
edits one file a few times (a span replaced with nan, inf, nothing, a
separator, a 20-digit number, a non-ASCII byte or a non-ASCII character; a
span deleted; a line duplicated; the file truncated) and runs the command
that reads that file through main(). Exit codes: 0 success, 1 config, 2
data, 3 numeric; a 1 or 2 must name the edited file, a config key, or an
id or value taken from the inputs.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import metashop.cli as cli
from metashop.cli import main

# Paths are relative to the example's directory, so no edit can point an
# output outside it.
CONFIG = {
    "seed": 3,
    "output_dir": "out",
    "data": {
        "train": "train.csv",
        "test": "test.csv",
        "latents": "latents.csv",
        "min_interactions": 5,
        "support_size": 3,
    },
    "model": {"kind": "mesh", "hidden_dims": [4]},
    "train": {
        "alpha": 0.05,
        "beta": 0.05,
        "local_steps": 1,
        "steps": 5,
        "shop_batch_size": 2,
    },
    "eval": {"checkpoint": "checkpoint.json", "adapt": True},
    "adapt": {"checkpoint": "checkpoint.json", "support": "support.csv"},
    "synthetic": {
        "n_users": 40,
        "n_items": 30,
        "n_shops": 4,
        "latent_dim": 4,
        "interactions_per_shop": 40,
        "n_new_shops": 1,
        "min_shop_size": 15,
    },
}
ATTRS = ["data.latents=null", "data.user_attrs=users.csv", "data.item_attrs=items.csv"]
# The config's own run lengths are pinned: a 20-digit step count is a valid
# request for a run that never ends.
PINNED = ["train.steps=5", "train.local_steps=1"]

# the file edited -> the command that reads it, with its --set values
COMMANDS = {
    "train.csv": ("train", []),
    "test.csv": ("evaluate", []),
    "support.csv": ("adapt", []),
    "latents.csv": ("train", []),
    "users.csv": ("train", ATTRS),
    "items.csv": ("train", ATTRS),
    "checkpoint.json": ("evaluate", []),
    "report.json": ("report", []),
    "run.yaml": ("train", PINNED),
}

REPLACEMENTS = [
    *(b"nan", b"inf", b""),
    *(b",", b":", b"\n", b"\t", b'"', b"["),
    b"9" * 20,
    *(b"\xe9", "\u00e9".encode("utf-8")),
]
CONFIG_KEYS = {
    "seed",
    "output_dir",
    *cli._SECTIONS,
    *(key for hints in cli._HINTS.values() for key in hints),
}


@pytest.fixture(scope="module")
def world(tmp_path_factory) -> Path:
    """A directory holding every input file of the tiny world."""
    root = tmp_path_factory.mktemp("world")
    (root / "run.yaml").write_text(yaml.safe_dump(CONFIG), encoding="utf-8")
    with _inside(root):
        for command in ("gen-data", "train", "evaluate"):
            argv = [command, "--config", "run.yaml", "--set", "output_dir=."]
            assert _run(argv)[0] == 0
    ids: dict[str, list[str]] = {"user": [], "item": []}
    for line in (root / "latents.csv").read_text(encoding="utf-8").splitlines()[1:]:
        kind, key = line.split(",")[:2]
        ids.get(kind, []).append(key)
    for name, header, kind in (
        ("users.csv", "user_id,age", "user"),
        ("items.csv", "item_id,color", "item"),
    ):
        rows = [f"{key},v{i % 3}\n" for i, key in enumerate(ids[kind])]
        (root / name).write_text(f"{header}\n" + "".join(rows), encoding="utf-8")
    (root / "support.csv").write_bytes((root / "test.csv").read_bytes())
    return root


@contextlib.contextmanager
def _inside(directory: Path):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@st.composite
def edits(draw, blob: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        end = min(len(blob), at + draw(st.integers(0, 8)))
        kind = draw(st.sampled_from(["replace", "delete", "duplicate", "truncate"]))
        if kind == "replace":
            blob = blob[:at] + draw(st.sampled_from(REPLACEMENTS)) + blob[end:]
        elif kind == "delete":
            blob = blob[:at] + blob[end:]
        elif kind == "duplicate":
            start = blob.rfind(b"\n", 0, at) + 1
            stop = blob.find(b"\n", at)
            stop = len(blob) if stop < 0 else stop + 1
            blob = blob[:stop] + blob[start:stop] + blob[stop:]
        else:
            blob = blob[:at]
    return blob


def _names_the_problem(err: str, name: str, inputs: bytes) -> bool:
    message = err.split(": ", 1)[-1]
    if name in message:
        return True
    if any(
        re.search(rf"(?<![\w]){re.escape(key)}(?![\w])", message) for key in CONFIG_KEYS
    ):
        return True
    # a key, id or value taken from the inputs, e.g. a user id with no features
    quoted = re.findall(r"'([^']+)'|unknown config key (\S+)", message)
    text = inputs.decode("utf-8", errors="replace")
    text += text.encode("unicode_escape").decode("ascii")  # as repr() quotes it
    return any(q and q in text for pair in quoted for q in pair)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=500, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_with_a_documented_code(world, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    mutated = data.draw(edits((world / name).read_bytes()))
    command, sets = COMMANDS[name]
    inputs = {other: (world / other).read_bytes() for other in COMMANDS}
    inputs[name] = mutated
    with tempfile.TemporaryDirectory() as tmp, _inside(Path(tmp)):
        for other, blob in inputs.items():
            Path(other).write_bytes(blob)
        argv = ["report", "--report", name] if command == "report" else [
            command, "--config", "run.yaml"
        ]
        for s in sets:
            argv += ["--set", s]
        code, err = _run(argv)
    assert code in (0, 1, 2, 3), err
    if code in (1, 2):
        named = _names_the_problem(err, name, b"".join(inputs.values()))
        assert named, (name, err)
