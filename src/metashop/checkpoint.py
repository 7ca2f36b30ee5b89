"""Versioned JSON checkpoints for model bundles, plus shared file helpers.

The JSON is canonical (sorted keys, compact separators, repr-roundtrip
floats), so saving the same model twice yields byte-identical files. Writes
go through a temp file in the target directory followed by an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from . import numcore
from .errors import DataError, NumericError, ShapeError
from .models import (
    BaselineModel,
    BaselineParams,
    EncoderMode,
    FeatureEncoder,
    FieldSpec,
    ModelKind,
    RecModel,
)

FORMAT_VERSION = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, compact, trailing newline)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a temp file + rename so readers never see partial output.

    The file gets the mode a plain ``open`` would give it (0666 less the
    process umask), not the owner-only mode of the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# model <-> JSON
# ---------------------------------------------------------------------------


def _mlp_to_json(mlp: numcore.MlpParams) -> dict:
    return {
        "layers": [
            {
                "weights": layer.weights.tolist(),
                "biases": None if layer.biases is None else layer.biases.tolist(),
            }
            for layer in mlp.layers
        ],
        "activations": [a.value for a in mlp.activations],
    }


def _mlp_from_json(obj: Mapping) -> numcore.MlpParams:
    layers = tuple(
        numcore.DenseLayerParams(
            np.asarray(l["weights"], dtype=np.float64),
            None if l["biases"] is None else np.asarray(l["biases"], dtype=np.float64),
        )
        for l in obj["layers"]
    )
    acts = tuple(numcore.Activation(a) for a in obj["activations"])
    return numcore.MlpParams(layers, acts)


def _encoder_to_json(enc: FeatureEncoder) -> dict:
    return {
        "mode": enc.mode.value,
        "dim": enc.dim,
        "fields": [
            {"name": f.name, "categories": list(f.categories)} for f in enc.fields
        ],
        "tables": {name: t.tolist() for name, t in enc.tables.items()},
    }


def _encoder_from_json(obj: Mapping) -> FeatureEncoder:
    mode = EncoderMode(obj["mode"])
    fields = tuple(
        FieldSpec(f["name"], tuple(f["categories"])) for f in obj["fields"]
    )
    tables = {
        name: np.asarray(t, dtype=np.float64) for name, t in obj["tables"].items()
    }
    return FeatureEncoder(mode, int(obj["dim"]), fields, tables)


def _scorer_to_json(scorer: numcore.ModelParameters) -> dict:
    out: dict[str, Any] = {"variant": scorer.variant.value}
    for name in ("user_tower", "item_tower", "joint"):
        mlp = getattr(scorer, name)
        out[name] = None if mlp is None else _mlp_to_json(mlp)
    return out


def _scorer_from_json(obj: Mapping) -> numcore.ModelParameters:
    def opt(name: str):
        return None if obj[name] is None else _mlp_from_json(obj[name])

    return numcore.ModelParameters(
        numcore.ModelVariant(obj["variant"]),
        user_tower=opt("user_tower"),
        item_tower=opt("item_tower"),
        joint=opt("joint"),
    )


def model_to_json(model: RecModel | BaselineModel) -> dict:
    if isinstance(model, BaselineModel):
        return {
            "model_class": "baseline",
            "kind": ModelKind.BASELINE.value,
            "item_encoder": _encoder_to_json(model.item_encoder),
            "item_mapper": _mlp_to_json(model.params.item_mapper),
            "margin": model.params.margin,
            "negative_weight": model.params.negative_weight,
        }
    return {
        "model_class": "rec",
        "kind": model.kind.value,
        "sigmoid_output": model.sigmoid_output,
        "user_encoder": _encoder_to_json(model.user_encoder),
        "item_encoder": _encoder_to_json(model.item_encoder),
        "scorer": _scorer_to_json(model.scorer),
    }


def model_from_json(obj: Mapping) -> RecModel | BaselineModel:
    """Rebuild a model; malformed, misshapen or non-finite input is a DataError."""
    try:
        cls = obj["model_class"]
        if cls == "baseline":
            return BaselineModel(
                _encoder_from_json(obj["item_encoder"]),
                BaselineParams(
                    _mlp_from_json(obj["item_mapper"]),
                    float(obj["margin"]),
                    float(obj["negative_weight"]),
                ),
            )
        if cls == "rec":
            return RecModel(
                ModelKind(obj["kind"]),
                _encoder_from_json(obj["user_encoder"]),
                _encoder_from_json(obj["item_encoder"]),
                _scorer_from_json(obj["scorer"]),
                bool(obj["sigmoid_output"]),
            )
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
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
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
