"""Model persistence: a JSON checkpoint holding config plus parameters,
and the skill-vector CSV consumed by downstream analysis and the hybrid
baseline.

Parameters are serialized with Python float repr via tolist(), so a
save/load round-trip is bit-exact.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .dkt import DktConfig
from .model import ModelConfig, Params, encode_skill_table
from .tables import read_table, write_table

FORMAT_VERSION = 1

_CONFIG_TYPES = {"kqn": ModelConfig, "dkt": DktConfig}


def save_checkpoint(path, model_kind: str, config, params: Params) -> None:
    """Write a checkpoint; refuses non-finite parameters."""
    if model_kind not in _CONFIG_TYPES:
        raise ValueError(f"model_kind must be one of {sorted(_CONFIG_TYPES)}, got {model_kind!r}")
    for key, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"parameter {key!r} contains non-finite values")
    doc = {
        "format_version": FORMAT_VERSION,
        "model": model_kind,
        "config": dataclasses.asdict(config),
        "params": {k: np.asarray(v, dtype=float).tolist() for k, v in params.items()},
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_checkpoint(path):
    """Returns (model_kind, config, params)."""
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {version!r}")
    kind = doc.get("model")
    if kind not in _CONFIG_TYPES:
        raise ValueError(f"unknown model kind {kind!r} in checkpoint")
    config = _CONFIG_TYPES[kind](**doc["config"])
    params = {k: np.array(v, dtype=float) for k, v in doc["params"].items()}
    return kind, config, params


def export_skill_vectors(path, params: Params, config: ModelConfig) -> None:
    """Skill-vector CSV: header skill,x1..xd, one row per skill id."""
    table, _ = encode_skill_table(params)
    header = ["skill", *(f"x{i + 1}" for i in range(config.dim))]
    write_table(path, header, ([e, *row] for e, row in enumerate(table.tolist(), start=1)))


def load_skill_vectors(path):
    """Returns (skill_ids, table) with table rows in file order."""
    _, ids, table = read_table(path, "skill-vector", ("skill", ...))
    return np.array(ids), table
