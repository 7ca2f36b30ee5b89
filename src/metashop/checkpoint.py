"""Versioned JSON checkpoints for model bundles, plus shared JSON and file helpers.

``to_json`` and ``from_json`` are the one codec between dataclasses and JSON,
driven by each dataclass's init fields and their type hints. A checkpoint's
``model`` object, an evaluation report and a config manifest all hold one key
per constructor field, and loading rebuilds every container through its
public constructor, so every shape and finiteness check runs.

The JSON is canonical (sorted keys, compact separators, repr-roundtrip
floats), so saving the same model twice yields byte-identical files. Writes
go through a temp file in the target directory followed by an atomic rename.

``read_text`` reads every input file: one that cannot be opened or decoded
(UTF-8 unless the caller names another encoding) raises the caller's error
type (DataError, ConfigError) naming it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import os
import types
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError, MetaShopError, NumericError, ShapeError
from .models import BaselineModel, RecModel

FORMAT_VERSION = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, compact, trailing newline)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output.

    Missing parent directories are made. The temp file is created next to
    ``path`` like any new file, so the result gets 0666 less the process
    umask. A failed write removes it; an OSError becomes a ConfigError
    naming ``path``.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.urandom(6).hex()}"
    fh = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if fh is not None:  # the temp file is this call's own
            tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            # os.replace's text names the temp file, which is gone by now
            reason = exc if exc.filename2 is None else exc.strerror
            raise ConfigError(f"cannot write {path}: {reason}") from exc
        raise


def read_text(
    path: str | Path, what: str, error: type[MetaShopError], encoding: str = "utf-8"
) -> str:
    """A file's text, line endings as written; failures raise ``error``."""
    try:
        with open(path, encoding=encoding, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# dataclass <-> JSON
# ---------------------------------------------------------------------------


_SCALARS = (str, int, float, type(None))


def to_json(value: Any) -> Any:
    """JSON-ready form of a value: one key per init field of a dataclass.

    Arrays become nested lists, enums their values, tuples lists; mappings
    keep their keys. Other values are returned as they are.
    """
    if isinstance(value, _SCALARS):
        return value
    if dataclasses.is_dataclass(value):
        fields = _init_fields(type(value))
        return {name: to_json(getattr(value, name)) for name, _ in fields}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    if isinstance(value, Mapping):
        return {k: to_json(v) for k, v in value.items()}
    return value


def from_json(tp: Any, obj: Any) -> Any:
    """Rebuild a value of type ``tp`` from ``to_json`` output.

    Dataclasses are rebuilt through their public constructors, reading their
    fields in declaration order, so every shape and finiteness check runs. A
    missing field raises KeyError naming it; a value of the wrong form raises
    KeyError, TypeError, ValueError or AttributeError.
    """
    if dataclasses.is_dataclass(tp):
        fields = _init_fields(tp)
        return tp(**{name: from_json(hint, obj[name]) for name, hint in fields})
    origin = get_origin(tp)
    if origin in (Union, types.UnionType):  # X | None
        if obj is None:
            return None
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
        return from_json(tp, obj)
    if origin is tuple:
        item = get_args(tp)[0]
        return tuple(from_json(item, v) for v in obj)
    if origin is dict:
        item = get_args(tp)[1]
        return {k: from_json(item, v) for k, v in obj.items()}
    if tp is np.ndarray:
        return np.asarray(obj, dtype=np.float64)
    if tp is float and type(obj) is int:
        return float(obj)
    if tp in (str, int, float, bool) and type(obj) is not tp:
        raise TypeError(f"expected {tp.__name__}, got {obj!r}")
    return tp(obj)  # a scalar of its own type, or an enum's value


@functools.cache
def _init_fields(cls: type) -> tuple[tuple[str, Any], ...]:
    """(name, type hint) of each init field of a dataclass, in declaration order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls) if f.init)


def model_to_json(model: RecModel | BaselineModel) -> dict:
    if isinstance(model, BaselineModel):
        return {"model_class": "baseline", "kind": model.kind.value, **to_json(model)}
    return {"model_class": "rec", **to_json(model)}


def model_from_json(obj: Mapping) -> RecModel | BaselineModel:
    """Rebuild a model; malformed, misshapen or non-finite input is a DataError."""
    try:
        cls = obj["model_class"]
        if cls in ("baseline", "rec"):
            return from_json(BaselineModel if cls == "baseline" else RecModel, obj)
    except (KeyError, ValueError, TypeError, AttributeError) as exc:
        raise DataError(f"unreadable checkpoint near field {exc!r}") from exc
    except (ShapeError, NumericError) as exc:
        raise DataError(f"unusable checkpoint: {exc}") from exc
    raise DataError(f"unknown model_class {obj.get('model_class')!r}")


def save_checkpoint(
    path: str | Path,
    model: RecModel | BaselineModel,
    meta: Mapping[str, str] | None = None,
) -> None:
    """Write a model (and optional string metadata) as canonical JSON."""
    doc = {
        "format_version": FORMAT_VERSION,
        "model": model_to_json(model),
        "meta": dict(meta or {}),
    }
    atomic_write_text(path, canonical_json(doc))


def load_checkpoint(path: str | Path) -> tuple[RecModel | BaselineModel, dict]:
    try:
        doc = json.loads(read_text(path, "checkpoint ", DataError))
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"checkpoint {path} does not hold a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"checkpoint {path} format_version {version!r} not supported "
            f"(expected {FORMAT_VERSION})"
        )
    if "model" not in doc:
        raise DataError(f"checkpoint {path} has no 'model' field")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {path} has a 'meta' field that is not an object")
    try:
        return model_from_json(doc["model"]), dict(meta)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
