"""Knowledge-query model: a recurrent encoder summarizes a response history
into a knowledge-state vector, a two-layer perceptron embeds each skill onto
the unit sphere, and their dot product is the logit for the next response.

All forward passes are batched over students with explicit validity masks;
backward passes are hand-derived and exact for the masked objective (the
cross-entropy summed over valid trials). The batched recurrent scan, its
backward pass and the forward result are shared with the DKT baseline,
which supplies only its own input encoding and output head.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .metrics import binary_cross_entropy
from .ops import dropout_mask, l2_normalize_rows, l2_normalize_rows_backward, sigmoid

Params = dict[str, np.ndarray]

_RNN_KINDS = ("lstm", "gru")
# Gate blocks along axis 0 of the stacked recurrent weights.
_GATES = {"lstm": 4, "gru": 3}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    num_skills: N, skills are ids 1..N.
    dim: d, width of knowledge-state and skill vectors.
    rnn_kind: "lstm" or "gru".
    rnn_hidden: recurrent state width.
    mlp_hidden: hidden width of the skill encoder.
    keep_prob: dropout keep probability on the recurrent output (train only).
    """

    num_skills: int
    dim: int
    rnn_kind: str = "lstm"
    rnn_hidden: int = 32
    mlp_hidden: int = 32
    keep_prob: float = 0.6

    def __post_init__(self):
        if self.num_skills < 2:
            raise ValueError(f"num_skills must be >= 2, got {self.num_skills}")
        if self.dim < 1 or self.rnn_hidden < 1 or self.mlp_hidden < 1:
            raise ValueError("dim, rnn_hidden and mlp_hidden must be positive")
        if self.rnn_kind not in _RNN_KINDS:
            raise ValueError(f"rnn_kind must be one of {_RNN_KINDS}, got {self.rnn_kind!r}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must be in (0, 1], got {self.keep_prob}")


def init_params(config: ModelConfig, rng: np.random.Generator) -> Params:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases.

    The LSTM forget-gate bias starts at +1 so early training does not
    erase state before the gates have learned anything.
    """
    n, d = config.num_skills, config.dim
    h, m = config.rnn_hidden, config.mlp_hidden
    g = _GATES[config.rnn_kind]

    def uniform(rows, cols):
        lim = 1.0 / np.sqrt(cols)
        return rng.uniform(-lim, lim, size=(rows, cols))

    params: Params = {
        "rnn_wx": uniform(g * h, 2 * n),
        "rnn_wh": uniform(g * h, h),
        "rnn_b": np.zeros(g * h),
        "proj_w": uniform(d, h),
        "proj_b": np.zeros(d),
        "mlp_w0": uniform(m, n),
        "mlp_b0": np.zeros(m),
        "mlp_w1": uniform(d, m),
        "mlp_b1": np.zeros(d),
    }
    if config.rnn_kind == "lstm":
        params["rnn_b"][h : 2 * h] = 1.0
    return params


# ---------------------------------------------------------------------------
# Recurrent cells (batched: x is (B, 2N), states are (B, H))


def lstm_cell(x, h_prev, c_prev, wx, wh, b):
    """One LSTM step. Gate order along the stacked axis is i, f, g, o."""
    hh = h_prev.shape[1]
    pre = x @ wx.T + h_prev @ wh.T + b
    i = sigmoid(pre[:, :hh])
    f = sigmoid(pre[:, hh : 2 * hh])
    g = np.tanh(pre[:, 2 * hh : 3 * hh])
    o = sigmoid(pre[:, 3 * hh :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    cache = (x, h_prev, c_prev, i, f, g, o, c)
    return h, c, cache


def lstm_cell_backward(dh, dc_next, cache, wx, wh):
    """Backward through one LSTM step.

    Returns (dh_prev, dc_prev, dwx, dwh, db). dh is the gradient arriving
    at h from this step's output, dc_next the one arriving at c from the
    following step.
    """
    x, h_prev, c_prev, i, f, g, o, c = cache
    tc = np.tanh(c)
    do = dh * tc
    dc = dc_next + dh * o * (1.0 - tc * tc)
    di = dc * g
    df = dc * c_prev
    dg = dc * i
    dc_prev = dc * f
    dpre = np.concatenate(
        [
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ],
        axis=1,
    )
    dwx = dpre.T @ x
    dwh = dpre.T @ h_prev
    db = dpre.sum(axis=0)
    dh_prev = dpre @ wh
    return dh_prev, dc_prev, dwx, dwh, db


def gru_cell(x, h_prev, wx, wh, b):
    """One GRU step, candidate gated as tanh(Wx + U(r*h_prev)).

    Gate order along the stacked axis is r, z, n, and the new state is
    z*h_prev + (1-z)*n.
    """
    hh = h_prev.shape[1]
    a = x @ wx.T + b
    r = sigmoid(a[:, :hh] + h_prev @ wh[:hh].T)
    z = sigmoid(a[:, hh : 2 * hh] + h_prev @ wh[hh : 2 * hh].T)
    rh = r * h_prev
    n = np.tanh(a[:, 2 * hh :] + rh @ wh[2 * hh :].T)
    h = z * h_prev + (1.0 - z) * n
    cache = (x, h_prev, r, z, n)
    return h, cache


def gru_cell_backward(dh, cache, wx, wh):
    """Backward through one GRU step. Returns (dh_prev, dwx, dwh, db)."""
    x, h_prev, r, z, n = cache
    hh = h_prev.shape[1]
    dz = dh * (h_prev - n)
    dn = dh * (1.0 - z)
    dh_prev = dh * z

    dan = dn * (1.0 - n * n)
    rh = r * h_prev
    dwh_n = dan.T @ rh
    drh = dan @ wh[2 * hh :]
    dr = drh * h_prev
    dh_prev = dh_prev + drh * r

    dar = dr * r * (1.0 - r)
    daz = dz * z * (1.0 - z)
    dwh_r = dar.T @ h_prev
    dwh_z = daz.T @ h_prev
    dh_prev = dh_prev + dar @ wh[:hh] + daz @ wh[hh : 2 * hh]

    dpre = np.concatenate([dar, daz, dan], axis=1)
    dwx = dpre.T @ x
    dwh = np.concatenate([dwh_r, dwh_z, dwh_n], axis=0)
    db = dpre.sum(axis=0)
    return dh_prev, dwx, dwh, db


# ---------------------------------------------------------------------------
# Batched sequences, shared with the DKT baseline
#
# A batch is (skills, corrects, lengths) from batch_arrays. Step j consumes
# response j and predicts response j+1, so a batch runs S = max length - 1
# steps and every per-step array is (S, B, ...).


@dataclass
class BatchForward:
    """Everything produced by one batched forward pass.

    logits, probs = sigmoid(logits), targets and valid are (S, B); position
    (j, b) is student b's prediction for trial j+1. The loss and its
    gradient read the logits. knowledge_states (S, B, d) and skill_table
    (N, d) are filled by the query model and None for DKT. cache is
    populated only in train mode.
    """

    logits: np.ndarray
    probs: np.ndarray
    targets: np.ndarray
    valid: np.ndarray
    knowledge_states: Optional[np.ndarray] = None
    skill_table: Optional[np.ndarray] = None
    cache: Optional[dict] = field(default=None, repr=False)

    @classmethod
    def from_logits(cls, logits, corrects, lengths, cache, **head) -> "BatchForward":
        """Wrap a head's (S, B) logits with their targets and validity mask."""
        s_steps = logits.shape[0]
        return cls(
            logits=logits,
            probs=sigmoid(logits),
            targets=next_trials(corrects, s_steps).astype(float),
            valid=np.arange(s_steps)[:, None] < lengths - 1,
            cache=cache,
            **head,
        )

    @property
    def num_valid(self) -> int:
        return int(np.sum(self.valid))

    def loss_sum(self) -> float:
        """Cross-entropy summed over valid trials."""
        return float(
            np.sum(binary_cross_entropy(self.logits[self.valid], self.targets[self.valid]))
        )

    def logit_grad(self) -> np.ndarray:
        """Gradient of loss_sum() with respect to each (S, B) logit."""
        return np.where(self.valid, self.probs - self.targets, 0.0)


def batch_arrays(sequences):
    """Pad a list of response sequences into (skills, corrects, lengths).

    Padded cells hold skill 1 / correct 0; the validity mask built from
    lengths is what gives them meaning downstream.
    """
    lengths = np.array([len(seq.responses) for seq in sequences], dtype=int)
    t_max = int(lengths.max()) if len(lengths) else 0
    skills = np.ones((len(sequences), t_max), dtype=int)
    corrects = np.zeros((len(sequences), t_max), dtype=int)
    # Row-major mask order is the order of the concatenated responses.
    filled = np.arange(t_max) < lengths[:, None]
    responses = np.concatenate([np.zeros((0, 2), dtype=int)] + [s.responses for s in sequences])
    skills[filled], corrects[filled] = responses.T
    return skills, corrects, lengths


def check_batch(skills, lengths, num_skills: int, mode: str, keep_prob: float, rng) -> None:
    """Reject a batch no model can score: an unknown mode, train-mode
    dropout without an rng, a sequence with nothing to predict, or a
    skill id outside 1..num_skills."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and keep_prob < 1.0 and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    if len(lengths) and lengths.min() < 2:
        raise ValueError(
            f"every sequence needs at least 2 responses to score, got {lengths.min()}"
        )
    if skills.size and (skills.min() < 1 or skills.max() > num_skills):
        raise ValueError(
            f"skill ids outside 1..{num_skills}: got range {skills.min()}..{skills.max()}"
        )


def next_trials(a: np.ndarray, s_steps: int) -> np.ndarray:
    """(S, B) view of a padded (B, T) array shifted to the predicted trial."""
    return np.ascontiguousarray(a[:, 1 : s_steps + 1].T)


def onehot_inputs(skills, corrects, num_skills: int):
    """Step inputs for the 2N one-hot response encoding: position skill-1
    flags a wrong answer, position skill-1+N a correct one."""
    hot = skills - 1 + corrects * num_skills

    def step(j, rows):
        x = np.zeros((skills.shape[0], 2 * num_skills))
        x[rows, hot[rows, j]] = 1.0
        return x

    return step


def scan(params: Params, rnn_kind: str, step_input, lengths, keep_prob: float, mode: str, rng):
    """Run the recurrent cell over every step of a padded batch.

    step_input(j, rows) builds the (B, D) input of step j, where rows are
    the students that still predict a trial; other rows must stay zero.
    Returns (out, cache): out is the (S, B, H) recurrent output, dropped
    out in train mode, and cache feeds scan_backward (None in eval mode).
    """
    wx, wh, b = params["rnn_wx"], params["rnn_wh"], params["rnn_b"]
    bsz, hh = len(lengths), wh.shape[1]
    train = mode == "train"
    out = np.zeros((max(int(lengths.max()) - 1, 0) if bsz else 0, bsz, hh))
    cells = []
    h = np.zeros((bsz, hh))
    c = np.zeros((bsz, hh))
    for j in range(out.shape[0]):
        x = step_input(j, np.flatnonzero(j < lengths - 1))
        if rnn_kind == "lstm":
            h, c, cell = lstm_cell(x, h, c, wx, wh, b)
        else:
            h, cell = gru_cell(x, h, wx, wh, b)
        out[j] = h
        if train:
            cells.append(cell)
    if not train:
        return out, None
    mask = dropout_mask(out.shape, keep_prob, rng)
    out *= mask
    return out, {"rnn_kind": rnn_kind, "cells": cells, "mask": mask}


def scan_backward(d_out: np.ndarray, cache: dict, params: Params) -> Params:
    """Gradients of rnn_wx, rnn_wh and rnn_b given d_out, the (S, B, H)
    gradient on scan's outputs."""
    wx, wh = params["rnn_wx"], params["rnn_wh"]
    grads = {k: np.zeros_like(params[k]) for k in ("rnn_wx", "rnn_wh", "rnn_b")}
    dh_rec = np.zeros(d_out.shape[1:])
    dc_rec = np.zeros(d_out.shape[1:])
    d_h = d_out * cache["mask"]
    for j in reversed(range(d_out.shape[0])):
        dh = d_h[j] + dh_rec
        if cache["rnn_kind"] == "lstm":
            dh_rec, dc_rec, dwx, dwh, db = lstm_cell_backward(
                dh, dc_rec, cache["cells"][j], wx, wh
            )
        else:
            dh_rec, dwx, dwh, db = gru_cell_backward(dh, cache["cells"][j], wx, wh)
        grads["rnn_wx"] += dwx
        grads["rnn_wh"] += dwh
        grads["rnn_b"] += db
    return grads


def sum_steps(terms: np.ndarray) -> np.ndarray:
    """Sum (S, ...) per-step terms from the last step to the first, the
    order in which backpropagation through time reaches them."""
    return terms[::-1].sum(axis=0)


def scatter_steps(target: np.ndarray, q: np.ndarray, terms: np.ndarray) -> None:
    """target[q - 1] += terms for (S, B) skill ids q, in place, from the
    last step to the first."""
    np.add.at(target, q[::-1].reshape(-1) - 1, terms[::-1].reshape(-1, *terms.shape[2:]))


# ---------------------------------------------------------------------------
# Encoders


def encode_skill_table(params: Params):
    """Unit-sphere embeddings for every skill at once.

    Returns (table, cache): table is (N, d) with row e-1 the vector for
    skill e; cache feeds skill_table_backward.
    """
    z0 = params["mlp_w0"].T + params["mlp_b0"]
    a0 = np.maximum(z0, 0.0)
    z1 = a0 @ params["mlp_w1"].T + params["mlp_b1"]
    a1 = np.maximum(z1, 0.0)
    table, norms = l2_normalize_rows(a1)
    cache = {"z0": z0, "a0": a0, "z1": z1, "a1": a1, "norms": norms}
    return table, cache


def skill_table_backward(d_table: np.ndarray, cache: dict, params: Params) -> Params:
    """Gradients of the skill-encoder parameters given gradients on the
    full embedding table."""
    da1 = l2_normalize_rows_backward(d_table, cache["a1"], cache["norms"])
    dz1 = da1 * (cache["z1"] > 0)
    dw1 = dz1.T @ cache["a0"]
    db1 = dz1.sum(axis=0)
    da0 = dz1 @ params["mlp_w1"]
    dz0 = da0 * (cache["z0"] > 0)
    # Inputs to the first layer are the identity rows, so dw0 is just dz0
    # transposed and db0 its column sums.
    return {
        "mlp_w0": dz0.T,
        "mlp_b0": dz0.sum(axis=0),
        "mlp_w1": dw1,
        "mlp_b1": db1,
    }


# ---------------------------------------------------------------------------
# Query model over a batch


def forward_batch(
    skills: np.ndarray,
    corrects: np.ndarray,
    lengths: np.ndarray,
    params: Params,
    config: ModelConfig,
    mode: str = "eval",
    rng: Optional[np.random.Generator] = None,
) -> BatchForward:
    """Run the recurrent encoder over a padded batch and query every
    next-trial skill.

    Student b contributes predictions for j in 0..lengths[b]-2; all other
    positions are masked out by `valid` and excluded from loss and
    gradients.
    """
    check_batch(skills, lengths, config.num_skills, mode, config.keep_prob, rng)
    table, skill_cache = encode_skill_table(params)
    hd, scan_cache = scan(
        params, config.rnn_kind, onehot_inputs(skills, corrects, config.num_skills),
        lengths, config.keep_prob, mode, rng,
    )
    q = next_trials(skills, hd.shape[0])
    kstates = hd @ params["proj_w"].T + params["proj_b"]
    s_sel = table[q - 1]
    logits = np.sum(kstates * s_sel, axis=2)
    cache = None
    if mode == "train":
        cache = {"scan": scan_cache, "skill": skill_cache, "hd": hd, "q": q, "s_sel": s_sel}
    return BatchForward.from_logits(
        logits, corrects, lengths, cache, knowledge_states=kstates, skill_table=table
    )


def backward_batch(fwd: BatchForward, params: Params, config: ModelConfig) -> Params:
    """Exact gradients of fwd.loss_sum() with respect to every parameter."""
    if fwd.cache is None:
        raise ValueError("backward needs a forward pass run with mode='train'")
    cache = fwd.cache
    dy = fwd.logit_grad()[..., None]
    dks = dy * cache["s_sel"]
    d_table = np.zeros_like(fwd.skill_table)
    scatter_steps(d_table, cache["q"], dy * fwd.knowledge_states)
    grads = scan_backward(dks @ params["proj_w"], cache["scan"], params)
    grads["proj_w"] = sum_steps(np.matmul(dks.transpose(0, 2, 1), cache["hd"]))
    grads["proj_b"] = sum_steps(dks.sum(axis=1))
    grads.update(skill_table_backward(d_table, cache["skill"], params))
    return grads


class KqnModel:
    """Trainer-facing wrapper pairing a config with the functional core."""

    name = "kqn"

    def __init__(self, config: ModelConfig):
        self.config = config

    def init_params(self, rng: np.random.Generator) -> Params:
        return init_params(self.config, rng)

    def forward(self, params, skills, corrects, lengths, mode="eval", rng=None) -> BatchForward:
        return forward_batch(skills, corrects, lengths, params, self.config, mode=mode, rng=rng)

    def backward(self, params, fwd: BatchForward) -> Params:
        return backward_batch(fwd, params, self.config)
