"""LSTM baseline for next-response prediction, plus the hybrid variant
whose input concatenates a correctness encoding with frozen skill vectors
learned elsewhere.

The recurrent scan, batch checks and loss are the query model's (see
model.py); this module adds only the input encodings and the output layer,
which maps the recurrent output to one logit per skill so that trial t
scores element e_{t+1} of that vector against c_{t+1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    BatchForward,
    Params,
    check_batch,
    next_trials,
    onehot_inputs,
    scan,
    scan_backward,
    scatter_steps,
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
        if self.num_skills < 2:
            raise ValueError(f"num_skills must be >= 2, got {self.num_skills}")
        if self.hidden < 1:
            raise ValueError(f"hidden must be positive, got {self.hidden}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"input_mode must be one of {INPUT_MODES}, got {self.input_mode!r}")
        if self.hybrid_encoding not in HYBRID_ENCODINGS:
            raise ValueError(
                f"hybrid_encoding must be one of {HYBRID_ENCODINGS}, "
                f"got {self.hybrid_encoding!r}"
            )


def init_params(config: DktConfig, input_dim: int, rng: np.random.Generator) -> Params:
    """Same scheme as the query model: uniform +/-1/sqrt(fan_in), zero
    biases, LSTM forget bias +1."""
    h, n = config.hidden, config.num_skills

    def uniform(rows, cols):
        lim = 1.0 / np.sqrt(cols)
        return rng.uniform(-lim, lim, size=(rows, cols))

    params: Params = {
        "rnn_wx": uniform(4 * h, input_dim),
        "rnn_wh": uniform(4 * h, h),
        "rnn_b": np.zeros(4 * h),
        "out_w": uniform(n, h),
        "out_b": np.zeros(n),
    }
    params["rnn_b"][h : 2 * h] = 1.0
    return params


class DktModel:
    """Trainer-facing wrapper. In hybrid mode the skill table is data, not
    a parameter: gradients never touch it."""

    name = "dkt"

    def __init__(self, config: DktConfig, skill_table: Optional[np.ndarray] = None):
        self.config = config
        if config.input_mode == "hybrid":
            if skill_table is None:
                raise ValueError("hybrid input mode needs a skill-vector table")
            table = np.asarray(skill_table, dtype=float)
            if table.ndim != 2 or table.shape[0] != config.num_skills:
                raise ValueError(
                    f"skill table must have {config.num_skills} rows, got shape {table.shape}"
                )
            self.skill_table = table.copy()
        else:
            if skill_table is not None:
                raise ValueError("skill table is only used in hybrid input mode")
            self.skill_table = None

    @property
    def input_dim(self) -> int:
        if self.config.input_mode == "onehot":
            return 2 * self.config.num_skills
        return self.config.num_skills + self.skill_table.shape[1]

    def init_params(self, rng: np.random.Generator) -> Params:
        return init_params(self.config, self.input_dim, rng)

    def step_inputs(self, skills, corrects):
        """Step-input builder: the one-hot response encoding, or in hybrid
        mode a correctness block (the flag, or +/-1 when signed, at index
        skill-1) followed by the frozen skill vector."""
        cfg = self.config
        n = cfg.num_skills
        if cfg.input_mode == "onehot":
            return onehot_inputs(skills, corrects, n)
        signed = cfg.hybrid_encoding == "signed"

        def step(j, rows):
            x = np.zeros((skills.shape[0], self.input_dim))
            e = skills[rows, j]
            c = corrects[rows, j]
            x[rows, e - 1] = 2.0 * c - 1.0 if signed else c
            x[rows, n:] = self.skill_table[e - 1]
            return x

        return step

    def forward(self, params, skills, corrects, lengths, mode="eval", rng=None) -> BatchForward:
        cfg = self.config
        check_batch(skills, lengths, cfg.num_skills, mode, cfg.keep_prob, rng)
        hd, scan_cache = scan(
            params, "lstm", self.step_inputs(skills, corrects), lengths, cfg.keep_prob, mode, rng
        )
        q = next_trials(skills, hd.shape[0])
        out = hd @ params["out_w"].T + params["out_b"]
        logits = np.take_along_axis(out, q[..., None] - 1, axis=2)[..., 0]
        cache = {"scan": scan_cache, "hd": hd, "q": q} if mode == "train" else None
        return BatchForward.from_logits(logits, corrects, lengths, cache)

    def backward(self, params, fwd: BatchForward) -> Params:
        if fwd.cache is None:
            raise ValueError("backward needs a forward pass run with mode='train'")
        cache = fwd.cache
        dy = fwd.logit_grad()
        grads = scan_backward(
            dy[..., None] * params["out_w"][cache["q"] - 1], cache["scan"], params
        )
        grads["out_w"] = np.zeros_like(params["out_w"])
        grads["out_b"] = np.zeros_like(params["out_b"])
        scatter_steps(grads["out_w"], cache["q"], dy[..., None] * cache["hd"])
        scatter_steps(grads["out_b"], cache["q"], dy)
        return grads
