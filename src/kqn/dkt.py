"""LSTM baseline for next-response prediction, plus the hybrid variant
whose input concatenates a correctness encoding with frozen skill vectors
learned elsewhere.

The recurrent scan, batch checks, scatter-add and loss are the query
model's (see model.py): a step input is one of the 2N responses, and the
scan gathers its projection from one table. This module adds only the
hybrid input rows, the (2N, N+d) matrix that scan projects in place of
the one-hot identity, and the output layer, which maps the recurrent
output to one logit per skill so that trial t scores element e_{t+1} of
that vector against c_{t+1}. Like the query head, it runs on the valid
cells only and reads just the e_{t+1} row of the layer. A hybrid model
holds its frozen table as the parameter "skill_table", which no gradient
reaches, so its config and parameters describe it fully and a checkpoint
carries the table it was trained with.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    BatchForward,
    Params,
    ScanOperands,
    Scorer,
    check_batch,
    init_recurrent,
    next_trials,
    response_rows,
    scan,
    scan_backward,
    scan_operands,
    scatter_add,
    uniform_weights,
)
from .tables import check_config

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


class DktModel(Scorer):
    """Trainer-facing wrapper. skill_table, the frozen table of a hybrid
    model, is read only by init_params; forward reads the copy held in the
    parameters, so DktModel(config) scores any checkpoint of that config."""

    name = "dkt"

    def __init__(self, config: DktConfig, skill_table=None):
        self.config = config
        self.skill_table = skill_table

    def init_params(self, rng: np.random.Generator) -> Params:
        return init_params(self.config, rng, self.skill_table)

    def prepare(self, params) -> ScanOperands:
        """The parameter-only operands of forward: the scan's, over the
        hybrid rows in hybrid mode. Made on every train-mode batch and
        once per scoring call (scorer)."""
        inputs = None
        if self.config.input_mode == "hybrid":
            inputs = hybrid_rows(params["skill_table"], self.config.hybrid_encoding == "signed")
        return scan_operands(params, "lstm", inputs)

    def forward(self, params, skills, corrects, lengths, mode="eval", rng=None,
                prepared=None) -> BatchForward:
        """prepared, when given, is self.prepare(params); else the call
        makes it."""
        cfg = self.config
        check_batch(skills, lengths, cfg.num_skills, mode, cfg.keep_prob, rng)
        if prepared is None:
            prepared = self.prepare(params)
        hv, valid, scan_cache = scan(
            prepared, response_rows(skills, corrects, cfg.num_skills), lengths,
            cfg.keep_prob, mode, rng,
        )
        q = next_trials(skills, len(valid))[valid]
        # Each valid cell reads one output unit, the next skill's row of out_w.
        logits = np.einsum("nh,nh->n", hv, params["out_w"][q - 1]) + params["out_b"][q - 1]
        cache = {"scan": scan_cache, "hv": hv, "q": q} if mode == "train" else None
        return BatchForward.from_valid(logits, valid, corrects, cache)

    def backward(self, params, fwd: BatchForward) -> Params:
        """Gradients of every parameter but the frozen skill_table.
        Consumes fwd.cache: the output layer's gradients are taken from hv
        first, releasing it, and the gradient on hv goes to the scan's
        backward in its packed order."""
        cache = fwd.take_cache()
        dy = fwd.logit_grad()
        rows = cache["q"] - 1
        head = {"out_w": np.zeros_like(params["out_w"]), "out_b": np.zeros_like(params["out_b"])}
        scatter_add(head["out_w"], rows, dy[:, None] * cache.pop("hv"))
        np.add.at(head["out_b"], rows, dy)
        scan_cache = cache.pop("scan")
        perm = scan_cache["perm"]
        grads = scan_backward(dy[perm, None] * params["out_w"][rows[perm]], scan_cache, params)
        grads.update(head)
        return grads


def hybrid_rows(table, signed: bool) -> np.ndarray:
    """The (2N, N+d) hybrid input of each response, row skill-1 +
    correct*N: a correctness block (the flag, or -1/+1 when signed, at
    index skill-1) followed by the skill's row of the frozen table."""
    n = len(table)
    wrong = np.diag(np.full(n, -1.0 if signed else 0.0))
    return np.block([[wrong, table], [np.eye(n), table]])
