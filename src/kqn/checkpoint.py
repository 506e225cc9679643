"""Model persistence: a JSON checkpoint holding config plus parameters,
and the skill-vector CSV consumed by downstream analysis and the hybrid
baseline. A hybrid DKT model's frozen skill table is one of its
parameters, so its checkpoint is as self-contained as any other.

A checkpoint is one JSON object: "format_version" (2), "model" ("kqn" or
"dkt"), "config" (every field of the model's config dataclass) and
"params", which maps each parameter name to {"dtype": "<f8", "shape":
[...], "data": base64 of its little-endian float64 bytes in C order}, so a
save/load round trip is bit-exact. The file's bytes are exactly
json.dumps(doc, indent=1) followed by a newline; the base64 payloads,
which hold no character JSON escapes, are copied in, not escaped.
load_checkpoint checks the document against its own config (and a DKT
model's against its stored table) and raises ValueError naming the file
and the field or parameter at fault.
"""
from __future__ import annotations

import base64
import dataclasses
import json
import math

import numpy as np

from . import dkt, model
from .dkt import DktConfig
from .model import ModelConfig, Params, encode_skill_table
from .tables import has_type, read_json_object, read_table, write_table, write_text

FORMAT_VERSION = 2
_DTYPE = "<f8"

_CONFIG_TYPES = {"kqn": ModelConfig, "dkt": DktConfig}

# A parameter's data slot in the dumped skeleton. Only a parameter entry
# has a key ending in "data" whose value is null (a config value is never
# null, and a quote inside a name is escaped), so the skeleton's text
# splits at this string once per parameter, in order.
_SLOT = '"data": null'


def save_checkpoint(path, config, params: Params) -> None:
    """Write a checkpoint of the model kind that config's type gives;
    refuses any other config type and non-finite parameters.

    Only the skeleton, the document with null in each data slot, goes
    through json.dumps. Each base64 payload goes to write_text as its own
    chunk between the skeleton's pieces, so the file gets the bytes of
    json.dumps(doc, indent=1) + "\n" while the escaper never scans a
    payload and no joined copy of the document is made."""
    kinds = [kind for kind, cls in _CONFIG_TYPES.items() if type(config) is cls]
    if not kinds:
        names = " or ".join(cls.__name__ for cls in _CONFIG_TYPES.values())
        raise ValueError(f"config must be a {names}, got {type(config).__name__}")
    for key, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {key!r} contains non-finite values")
    entries = {key: _encode(value) for key, value in params.items()}
    skeleton = {
        "format_version": FORMAT_VERSION,
        "model": kinds[0],
        "config": dataclasses.asdict(config),
        "params": {key: {**entry, "data": None} for key, entry in entries.items()},
    }
    pieces = json.dumps(skeleton, indent=1).split(_SLOT)
    chunks = [pieces[0]]
    for entry, piece in zip(entries.values(), pieces[1:]):
        chunks += ['"data": "', entry["data"], '"' + piece]
    write_text(path, [*chunks, "\n"])


def _encode(value) -> dict:
    array = np.asarray(value, dtype=_DTYPE, order="C")
    data = base64.b64encode(array).decode("ascii")  # the array's bytes in C order
    return {"dtype": _DTYPE, "shape": list(array.shape), "data": data}


def load_checkpoint(path):
    """Returns (model_kind, config, params). Raises ValueError "<path>: ..."
    unless the file is a version-2 checkpoint whose config fields have
    their dataclass's types and whose parameters are finite and have the
    keys and shapes init_params gives for that config (and a DKT model's
    stored skill table), after read_json_object's own checks."""
    doc = read_json_object(path, "checkpoint")
    try:
        return _read(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read(doc: dict):
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    kind = doc.get("model")
    if not isinstance(kind, str) or kind not in _CONFIG_TYPES:
        raise ValueError(f"unknown model kind {kind!r} in checkpoint")
    config = _config(_CONFIG_TYPES[kind], doc.get("config"))
    stored = doc.get("params")
    if not isinstance(stored, dict):
        raise ValueError("params must be an object")
    params = {key: _decode(key, entry) for key, entry in stored.items()}
    shapes = _shapes(kind, config, params)
    missing, unknown = shapes.keys() - params.keys(), params.keys() - shapes.keys()
    if missing:
        raise ValueError(f"parameters missing: {', '.join(map(repr, sorted(missing)))}")
    if unknown:
        raise ValueError(f"unknown parameters: {', '.join(map(repr, sorted(unknown)))}")
    for key, value in params.items():
        if value.shape != shapes[key]:
            raise ValueError(
                f"parameter {key!r} has shape {value.shape}, the config gives {shapes[key]}"
            )
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {key!r} contains non-finite values")
    return kind, config, params


def _config(cls, fields):
    """The config from its stored fields, which must be exactly the
    dataclass's fields. The dataclass then checks their types and values."""
    if not isinstance(fields, dict):
        raise ValueError("config must be an object")
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(fields.keys() - set(names))
    if unknown:
        raise ValueError(f"unknown config fields: {', '.join(map(repr, unknown))}")
    for name in names:
        if name not in fields:
            raise ValueError(f"config lacks field {name!r}")
    return cls(**fields)


def _decode(key: str, entry) -> np.ndarray:
    """One parameter as a writable float64 array."""
    if not isinstance(entry, dict) or entry.keys() != {"dtype", "shape", "data"}:
        raise ValueError(f"parameter {key!r} must be an object of dtype, shape and data")
    if entry["dtype"] != _DTYPE:
        raise ValueError(f"parameter {key!r} has dtype {entry['dtype']!r}, not {_DTYPE!r}")
    shape = entry["shape"]
    if not isinstance(shape, list) or not all(has_type(n, int) and n >= 0 for n in shape):
        raise ValueError(f"parameter {key!r} has shape {shape!r}, not a list of sizes")
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"parameter {key!r} data is not base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(
            f"parameter {key!r} holds {len(raw)} bytes, shape {shape} needs {8 * math.prod(shape)}"
        )
    return np.frombuffer(raw, _DTYPE).reshape(shape).astype(float)


class _NoDraws:
    """Stands in for the Generator that init_params draws its weights from:
    uniform() returns a broadcast zero of the asked size, which costs no
    draws and no memory."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def _shapes(kind: str, config, params: Params) -> dict:
    """Every parameter's shape, as init_params gives it for the config and,
    for a DKT model, the stored skill table, which init_params checks."""
    # Every size in a config is a side of some weight matrix. init_params
    # allocates the biases, so a size beyond what the file stores is
    # refused before it is asked.
    stored = sum(value.size for value in params.values())
    for name, value in dataclasses.asdict(config).items():
        if type(value) is int and value > stored:
            raise ValueError(f"config field {name!r} is {value}, the file stores "
                             f"{stored} parameter values")
    if kind == "kqn":
        reference = model.init_params(config, _NoDraws())
    else:
        reference = dkt.init_params(config, _NoDraws(), params.get("skill_table"))
    return {key: value.shape for key, value in reference.items()}


def export_skill_vectors(path, params: Params, config: ModelConfig) -> None:
    """Skill-vector CSV: header skill,x1..xd, one row per skill id."""
    table, _ = encode_skill_table(params)
    header = ["skill", *(f"x{i + 1}" for i in range(config.dim))]
    write_table(path, header, ([e, *row] for e, row in enumerate(table.tolist(), start=1)))


def load_skill_vectors(path):
    """Returns (skill_ids, table) with table rows in file order; a
    non-finite cell is an error naming the file and the skill."""
    _, ids, table = read_table(path, "skill-vector", ("skill", ...))
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: skill {ids[bad[0]]} has a non-finite coordinate")
    return np.array(ids), table
