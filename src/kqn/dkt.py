"""LSTM baseline for next-response prediction, plus the hybrid variant
whose input concatenates a correctness encoding with frozen skill vectors
learned elsewhere.

The recurrent scan, the one-hot input encoding, batch checks and loss are
the query model's (see model.py); this module adds only the hybrid input
encoding and the output layer, which maps the recurrent output to one logit
per skill so that trial t scores element e_{t+1} of that vector against
c_{t+1}. Like the query head, it runs on the valid cells only and reads
just the e_{t+1} row of the layer. A hybrid model holds its frozen table
as the parameter "skill_table", which no gradient reaches, so its config
and parameters describe it fully and a checkpoint carries the table it was
trained with.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BatchForward,
    OneHotInputs,
    Params,
    check_batch,
    check_config,
    init_recurrent,
    next_trials,
    scan,
    scan_backward,
    uniform_weights,
)

# Not called here, but perfbench/tracing.py patches these names in this
# module, so they stay bound.
from .model import lstm_cell, lstm_cell_backward  # noqa: F401
from .ops import dropout_mask, sigmoid  # noqa: F401

INPUT_MODES = ("onehot", "hybrid")
HYBRID_ENCODINGS = ("correctness", "signed")


@dataclass(frozen=True)
class DktConfig:
    """num_skills N and hidden width H; input_mode selects the plain 2N
    one-hot response encoding or the hybrid N+d concatenation that needs a
    skill-vector table."""

    num_skills: int
    hidden: int = 32
    keep_prob: float = 0.6
    input_mode: str = "onehot"
    hybrid_encoding: str = "correctness"

    def __post_init__(self):
        check_config(self, input_mode=INPUT_MODES, hybrid_encoding=HYBRID_ENCODINGS)


def init_params(config: DktConfig, rng: np.random.Generator, skill_table=None) -> Params:
    """The recurrent block of model.init_recurrent, then the output layer;
    in hybrid mode a copy of skill_table follows as the last parameter.

    This is the one place that checks the table: hybrid mode needs one of
    num_skills rows and one-hot mode takes none. The input width follows
    from it: 2N one-hot inputs, or N correctness inputs and the table's d.
    """
    n = config.num_skills
    width = 2 * n
    if config.input_mode == "hybrid":
        if skill_table is None:
            raise ValueError("hybrid input mode needs a skill-vector table")
        table = np.array(skill_table, dtype=float)
        if table.ndim != 2 or table.shape[0] != n:
            raise ValueError(f"skill table must have {n} rows, got shape {table.shape}")
        width = n + table.shape[1]
    elif skill_table is not None:
        raise ValueError("skill table is only used in hybrid input mode")
    params = init_recurrent(rng, "lstm", config.hidden, width)
    params["out_w"] = uniform_weights(rng, n, config.hidden)
    params["out_b"] = np.zeros(n)
    if config.input_mode == "hybrid":
        params["skill_table"] = table
    return params


class DktModel:
    """Trainer-facing wrapper. skill_table, the frozen table of a hybrid
    model, is read only by init_params; forward reads the copy held in the
    parameters, so DktModel(config) scores any checkpoint of that config."""

    name = "dkt"

    def __init__(self, config: DktConfig, skill_table=None):
        self.config = config
        self.skill_table = skill_table

    def init_params(self, rng: np.random.Generator) -> Params:
        return init_params(self.config, rng, self.skill_table)

    def step_inputs(self, params, skills, corrects):
        """The step-input encoding (see model.OneHotInputs): the one-hot
        response encoding, or in hybrid mode HybridInputs over
        params["skill_table"]."""
        cfg = self.config
        if cfg.input_mode == "onehot":
            return OneHotInputs(skills, corrects, cfg.num_skills)
        return HybridInputs(
            skills, corrects, params["skill_table"], cfg.hybrid_encoding == "signed"
        )

    def forward(self, params, skills, corrects, lengths, mode="eval", rng=None) -> BatchForward:
        cfg = self.config
        check_batch(skills, lengths, cfg.num_skills, mode, cfg.keep_prob, rng)
        hv, valid, scan_cache = scan(
            params, "lstm", self.step_inputs(params, skills, corrects), lengths, cfg.keep_prob,
            mode, rng,
        )
        q = next_trials(skills, len(valid))[valid]
        # Each valid cell reads one output unit, the next skill's row of out_w.
        logits = np.einsum("nh,nh->n", hv, params["out_w"][q - 1]) + params["out_b"][q - 1]
        cache = {"scan": scan_cache, "hv": hv, "q": q} if mode == "train" else None
        return BatchForward.from_valid(logits, valid, corrects, cache)

    def backward(self, params, fwd: BatchForward) -> Params:
        """Gradients of every parameter but the frozen skill_table."""
        if fwd.cache is None:
            raise ValueError("backward needs a forward pass run with mode='train'")
        cache = fwd.cache
        dy = fwd.logit_grad()
        grads = scan_backward(dy[:, None] * params["out_w"][cache["q"] - 1], cache["scan"], params)
        grads["out_w"] = np.zeros_like(params["out_w"])
        grads["out_b"] = np.zeros_like(params["out_b"])
        np.add.at(grads["out_w"], cache["q"] - 1, dy[:, None] * cache["hv"])
        np.add.at(grads["out_b"], cache["q"] - 1, dy)
        return grads


class HybridInputs:
    """Hybrid step inputs: a correctness block (the flag, or +/-1 when
    signed, at index skill-1) followed by the skill's row of the frozen
    table. x, project and project_grad follow model.OneHotInputs; here
    both passes build x and take the dense product."""

    def __init__(self, skills, corrects, table, signed: bool):
        self.skills, self.corrects, self.table, self.signed = skills, corrects, table, signed

    def x(self, j, rows):
        n = len(self.table)
        x = np.zeros((len(rows), n + self.table.shape[1]))
        e = self.skills[rows, j]
        c = self.corrects[rows, j]
        x[np.arange(len(rows)), e - 1] = 2.0 * c - 1.0 if self.signed else c
        x[:, n:] = self.table[e - 1]
        return x

    def project(self, wxT, j, rows):
        return self.x(j, rows) @ wxT

    def project_grad(self, d_wxT, dpre, j, rows):
        d_wxT += self.x(j, rows).T @ dpre
