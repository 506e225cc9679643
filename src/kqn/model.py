"""Knowledge-query model: a recurrent encoder summarizes a response history
into a knowledge-state vector, a two-layer perceptron embeds each skill onto
the unit sphere, and their dot product is the logit for the next response.

All forward passes are batched over students with explicit validity masks;
backward passes are hand-derived and exact for the masked objective (the
cross-entropy summed over valid trials). One skeleton, SequenceModel, runs
the query model and the DKT baseline: its forward checks the batch, runs
the recurrent scan and hands the scored cells' output to the model's head;
its backward hands the head's backward the logits' gradient and the
scan's packed order, then runs the scan's. A head sees only per-cell
rows, never the batch, its mode or the scan's cache. The two models
differ only in their heads, and DKT in its hybrid input rows.

Only work a scored trial needs is done: a step input is one of 2N
responses, so one (2N, G*H) table of input projections is made per set
of parameters (prepare) and each step gathers its students' rows (the
gradient is a scatter-add of the same rows), each step runs the cell on
the students still predicting and writes its output straight into the
packed rows, in train and eval mode alike, the gates use the tanh form of
the logistic function, dropout draws only the scored cells, and scan
hands the heads one row of recurrent output per scored cell, no padded
(S, B, H) block.

The cells work on the stacked gate block. A logistic gate is
0.5 + 0.5*tanh(u/2); fold_gates halves its columns of the input
projections, the recurrent weights and the bias once per prepare, so a
step runs one tanh over the stacked block and one in-place scale and
offset, 0.5 and 0.5 on a logistic block, 1.0 and -0.0 on a tanh block.
The LSTM's backward recomputes tanh(c) from the cached c in one
elementwise pass; the GRU's keeps the forward's r*h_prev. Every
probability and gradient keeps the bits of the unfolded cells: halving
is exact, 0.5 being a power of two; adding -0.0 is the identity, where
+0.0 would turn a -0.0 into +0.0; and every product keeps the operands
and layout it had, which is why the GRU keeps one product per gate (see
gru_cell; the rule is a property of the OpenBLAS measured,
scipy-openblas 0.3.31).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .metrics import binary_cross_entropy
from .ops import dropout_mask, l2_normalize_rows, l2_normalize_rows_backward, sigmoid
from .tables import check_config

Params = dict[str, np.ndarray]

RNN_KINDS = ("lstm", "gru")
# Gate blocks along axis 0 of the stacked recurrent weights. Block 2, the
# LSTM's g and the GRU's candidate n, is a tanh; the others are logistic.
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
        check_config(self, rnn_kind=RNN_KINDS)


def uniform_weights(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) weight matrix drawn from Uniform(-1/sqrt(cols),
    +1/sqrt(cols)), cols being its fan-in."""
    lim = 1.0 / np.sqrt(cols)
    return rng.uniform(-lim, lim, size=(rows, cols))


def init_recurrent(rng: np.random.Generator, rnn_kind: str, hidden: int, input_dim: int) -> Params:
    """rnn_wx, rnn_wh and rnn_b of a recurrent cell, the weights drawn in
    that order by uniform_weights and the biases zero, except that the
    LSTM forget-gate bias starts at +1 so early training does not erase
    state before the gates have learned anything."""
    rows = _GATES[rnn_kind] * hidden
    params: Params = {
        "rnn_wx": uniform_weights(rng, rows, input_dim),
        "rnn_wh": uniform_weights(rng, rows, hidden),
        "rnn_b": np.zeros(rows),
    }
    if rnn_kind == "lstm":
        params["rnn_b"][hidden : 2 * hidden] = 1.0
    return params


def init_params(config: ModelConfig, rng: np.random.Generator) -> Params:
    """The recurrent block of init_recurrent over the 2N one-hot inputs,
    then the projection and the skill encoder, drawn in that order."""
    n, d = config.num_skills, config.dim
    h, m = config.rnn_hidden, config.mlp_hidden
    return {
        **init_recurrent(rng, config.rnn_kind, h, 2 * n),
        "proj_w": uniform_weights(rng, d, h),
        "proj_b": np.zeros(d),
        "mlp_w0": uniform_weights(rng, m, n),
        "mlp_b0": np.zeros(m),
        "mlp_w1": uniform_weights(rng, d, m),
        "mlp_b1": np.zeros(d),
    }


# ---------------------------------------------------------------------------
# Recurrent cells (batched over k rows: a is the (k, G*H) input projection
# of the step's inputs, states are (k, H)). The forward cells take the
# operands of fold_gates; the backward cells take rnn_wh as stored and
# give gradients for the unfolded parameters.


def fold_gates(rnn_kind: str, emb, rnn_wh, rnn_b) -> tuple:
    """Fold emb, the (M, G*H) input projection rows, in place and return
    the other operands of one scan's forward cells, their arguments after
    the state: (wh, b, scale, offset) for the LSTM and (wh,) for the GRU.

    Each logistic block's columns of emb, of the C-contiguous (H, G*H)
    transpose of rnn_wh (so every product reads an (in, out) matrix) and
    of rnn_b are halved; scale and offset are _gate's, per column. The
    GRU adds its bias to the input projection before anything else, so
    its bias is added to emb here; the LSTM adds it last, so its cell
    takes it. emb is folded in place: at M = 2000 rows a second table
    cost more than the whole fold."""
    hh = rnn_wh.shape[1]
    logistic = np.repeat(np.arange(_GATES[rnn_kind]) != 2, hh)
    scale = np.where(logistic, 0.5, 1.0)
    wh = np.ascontiguousarray(rnn_wh.T) * scale
    if rnn_kind == "gru":
        emb += rnn_b
        emb *= scale
        return (wh,)
    emb *= scale
    return wh, rnn_b * scale, scale, np.where(logistic, 0.5, -0.0)


def _gate(t, scale, offset):
    """The gate nonlinearity over a folded pre-activation block t, in
    place: tanh, then t*scale + offset. With scale and offset 0.5, on a
    block fold_gates halved, it is the logistic function, in [0, 1] and
    within 2**-52 of ops.sigmoid (exactly 0 below about -38; the
    probabilities, which AUC ranks, keep ops.sigmoid). With scale 1.0
    and offset -0.0 it is tanh bit for bit."""
    np.tanh(t, out=t)
    t *= scale
    t += offset
    return t


def lstm_cell(a, h_prev, c_prev, wh, b, scale, offset, out=None):
    """One LSTM step on the operands of fold_gates. Gate order along the
    stacked axis is i, f, g, o, and one _gate pass covers all four. h is
    written into out when it is given. The cache keeps c, not tanh(c),
    which the backward recomputes."""
    hh = h_prev.shape[1]
    act = h_prev @ wh
    act += a
    act += b
    _gate(act, scale, offset)
    i, f, g, o = act[:, :hh], act[:, hh : 2 * hh], act[:, 2 * hh : 3 * hh], act[:, 3 * hh :]
    c = f * c_prev
    c += i * g
    h = np.tanh(c, out=out)
    h *= o
    cache = (h_prev, c_prev, act, c)
    return h, c, cache


def lstm_cell_backward(dh, dc_next, cache, wh):
    """Backward through one LSTM step, wh being rnn_wh as stored.

    Returns (dh_prev, dc_prev, dpre, dwh, db), dpre being the gradient on
    the (unfolded) input projection a. dh is the gradient arriving at h
    from this step's output, dc_next the one arriving at c from the
    following step. The logistic gates' derivative, (d*x)*(1-x), runs
    over the whole stacked block; the g block is then overwritten with
    its tanh derivative.
    """
    h_prev, c_prev, act, c = cache
    hh = h_prev.shape[1]
    i, f, g, o = act[:, :hh], act[:, hh : 2 * hh], act[:, 2 * hh : 3 * hh], act[:, 3 * hh :]
    tc = np.tanh(c)
    dc = dh * o
    dc *= 1.0 - tc * tc
    dc += dc_next
    dg = dc * i
    dg *= 1.0 - g * g
    dpre = np.concatenate([dc * g, dc * c_prev, dg, dh * tc], axis=1)
    dc *= f
    dpre *= act
    dpre *= 1.0 - act
    dpre[:, 2 * hh : 3 * hh] = dg
    dwh = dpre.T @ h_prev
    db = dpre.sum(axis=0)
    dh_prev = dpre @ wh
    return dh_prev, dc, dpre, dwh, db


def gru_cell(a, h_prev, wh, out=None):
    """One GRU step on the operands of fold_gates (a holds the bias),
    candidate gated as tanh(Wx + U(r*h_prev)); h is written into out when
    it is given.

    Gate order along the stacked axis is r, z, n, and the new state is
    z*h_prev + (1-z)*n. r and z each take their own product with an
    (H, H) column block of wh, as the unfolded cell did: one product with
    the (H, 2H) r|z block gives other bits at some widths (H = 17 to 19,
    at any row count), on the OpenBLAS measured.
    """
    hh = h_prev.shape[1]
    r = h_prev @ wh[:, :hh]
    r += a[:, :hh]
    _gate(r, 0.5, 0.5)
    z = h_prev @ wh[:, hh : 2 * hh]
    z += a[:, hh : 2 * hh]
    _gate(z, 0.5, 0.5)
    rh = r * h_prev
    n = rh @ wh[:, 2 * hh :]
    n += a[:, 2 * hh :]
    np.tanh(n, out=n)
    h = np.multiply(z, h_prev, out=out)
    h += (1.0 - z) * n
    cache = (h_prev, r, z, n, rh)
    return h, cache


def gru_cell_backward(dh, cache, wh):
    """Backward through one GRU step, wh being rnn_wh as stored. Returns
    (dh_prev, dpre, dwh, db), dpre being the gradient on the (unfolded)
    input projection a."""
    h_prev, r, z, n, rh = cache
    hh = h_prev.shape[1]
    dz = dh * (h_prev - n)
    dan = dh * (1.0 - z)
    dan *= 1.0 - n * n
    dh_prev = dh * z
    drh = dan @ wh[2 * hh :]
    dar = drh * h_prev
    drh *= r
    dh_prev += drh
    dar *= r
    dar *= 1.0 - r
    dz *= z
    dz *= 1.0 - z
    dwh = np.concatenate([dar.T @ h_prev, dz.T @ h_prev, dan.T @ rh])
    dh_prev += dar @ wh[:hh]
    dh_prev += dz @ wh[hh : 2 * hh]
    dpre = np.concatenate([dar, dz, dan], axis=1)
    db = dpre.sum(axis=0)
    return dh_prev, dpre, dwh, db


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
    (j, b) is student b's prediction for trial j+1. The heads score only
    the valid cells: elsewhere the logits are 0 (so the probs 0.5), and the
    loss and its gradient never read them. knowledge_states (one row per
    valid cell, in the row-major order of valid) and skill_table (N, d) are
    filled by the query model and None for DKT. cache is train mode only,
    and a backward pass consumes it (take_cache).
    """

    logits: np.ndarray
    probs: np.ndarray
    targets: np.ndarray
    valid: np.ndarray
    knowledge_states: Optional[np.ndarray] = None
    skill_table: Optional[np.ndarray] = None
    cache: Optional[dict] = field(default=None, repr=False)

    @classmethod
    def from_valid(cls, scored, valid, corrects, cache, **head) -> "BatchForward":
        """Wrap a head's logits on the valid cells, in the row-major order
        of the (S, B) mask valid, with their targets."""
        logits = np.zeros(valid.shape)
        logits[valid] = scored
        return cls(
            logits=logits,
            probs=sigmoid(logits),
            targets=next_trials(corrects, len(valid)).astype(float),
            valid=valid,
            cache=cache,
            **head,
        )

    @property
    def num_valid(self) -> int:
        return int(np.sum(self.valid))

    def take_cache(self) -> dict:
        """The train-mode cache, which a backward pass consumes: it is
        released from this forward, so the state it holds lives no longer
        than the backward, and a second backward raises."""
        if self.cache is None:
            raise ValueError("backward needs a forward pass run with mode='train'")
        cache, self.cache = self.cache, None
        return cache

    def loss_sum(self) -> float:
        """Cross-entropy summed over valid trials."""
        return float(
            np.sum(binary_cross_entropy(self.logits[self.valid], self.targets[self.valid]))
        )

    def logit_grad(self) -> np.ndarray:
        """Gradient of loss_sum() with respect to the valid logits, an (n,)
        array in the row-major order of valid."""
        return self.probs[self.valid] - self.targets[self.valid]


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
    skill id outside 1..num_skills (check_skill_ids)."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and keep_prob < 1.0 and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    if len(lengths) and lengths.min() < 2:
        raise ValueError(
            f"every sequence needs at least 2 responses to score, got {lengths.min()}"
        )
    check_skill_ids(skills, num_skills)


def check_skill_ids(skills: np.ndarray, num_skills: int) -> None:
    """Reject skill ids outside 1..num_skills, naming the range of all of
    them."""
    if skills.size and (skills.min() < 1 or skills.max() > num_skills):
        raise ValueError(
            f"skill ids outside 1..{num_skills}: got range {skills.min()}..{skills.max()}"
        )


def next_trials(a: np.ndarray, s_steps: int) -> np.ndarray:
    """(S, B) view of a padded (B, T) array shifted to the predicted trial."""
    return np.ascontiguousarray(a[:, 1 : s_steps + 1].T)


def response_rows(skills, corrects, num_skills: int) -> np.ndarray:
    """Each response's row among the 2N step inputs, skill-1 + correct*N:
    the first N rows are wrong answers, the last N correct ones."""
    return skills - 1 + corrects * num_skills


def scatter_add(table: np.ndarray, index: np.ndarray, rows: np.ndarray, cols=None) -> None:
    """table[index] += rows in place, repeated indices accumulating in
    order: the 2-D np.add.at bit for bit, run as np.add.at on flat 1-d
    indices, NumPy's fast path. table is a C-contiguous (M, W) array. A
    caller that scatters many slices into one table makes the flat
    operands once and passes them instead: table.reshape(-1) as table,
    index * W as index and np.arange(W) as cols."""
    if cols is None:
        cols = np.arange(table.shape[1])
        table, index = table.reshape(-1), index * len(cols)
    np.add.at(table, (index[:, None] + cols).ravel(), rows.ravel())


def pad_rows(x: np.ndarray, rows: int) -> np.ndarray:
    """x with zero rows appended up to `rows` rows; x itself if it has as many."""
    if len(x) >= rows:
        return x
    return np.concatenate([x, np.zeros((rows - len(x), x.shape[1]))])


class ScanOperands(NamedTuple):
    """The operands of scan that depend only on the parameters, made by
    scan_operands: the cell kind, the (2N, D) step inputs (None for
    one-hot), emb, the folded (2N, G*H) table of their input projections,
    and cell, the other operands of the forward cells (fold_gates)."""

    rnn_kind: str
    inputs: Optional[np.ndarray]
    emb: np.ndarray
    cell: tuple


def scan_operands(params: Params, rnn_kind: str, inputs=None) -> ScanOperands:
    """scan's operands for params. inputs is the (2N, D) matrix of step
    inputs, None standing for the identity, the one-hot encoding. The
    input projections emb = inputs @ rnn_wx.T (for one-hot, a contiguous
    copy of rnn_wx.T) and fold_gates' folding of the logistic gates' 0.5
    into emb and the cell's weights are done here, so a caller that scores
    many batches with one set of parameters does them once."""
    # A copy, never a view of rnn_wx: fold_gates folds it in place.
    emb = np.array(params["rnn_wx"].T, order="C")
    if inputs is not None:
        emb = inputs @ emb
    return ScanOperands(rnn_kind, inputs, emb,
                        fold_gates(rnn_kind, emb, params["rnn_wh"], params["rnn_b"]))


def scan(operands: ScanOperands, hot, lengths, keep_prob: float, mode: str, rng):
    """Run the recurrent cell over a padded batch, packed: each step runs
    only the students that still predict a trial.

    hot is the (B, T) array of response_rows, each naming one of the 2N
    rows of the step inputs, and each step gathers its students' rows of
    operands.emb (see scan_operands).

    The rows are sorted by length, longest first (a stable sort), so step j
    runs the cell on the first k_j sorted rows, k_j being the number of
    students with j < length - 1; k_j never grows with j. The packed cells
    are laid out step-major: step j's cells are the slice offs[j]:offs[j+1]
    of packed_hot, their response rows, and perm maps each packed cell to
    its row in the valid mask's row-major order.

    Every forward product reads its weight as a C-contiguous (in, out)
    matrix: emb, and the contiguous transpose of rnn_wh that the cells
    take (the GRU reads its r, z and candidate blocks as column blocks of
    it). In that layout every row of a product of 2 or more rows
    is the same bits at any row count on the OpenBLAS measured
    (scipy-openblas 0.3.31), but NumPy runs a 1-row product as a
    matrix-vector call whose bits differ. So in eval mode a step that runs
    one student runs on 2 rows: it also gathers the next packed cell's
    response row and writes the next packed row, which a later step
    overwrites (packed_hot and the packed rows have one spare entry for
    the last step), and the state rows past k_j, which no scored cell
    reads, are carried along.

    Returns (hv, valid, cache): valid is the (S, B) mask of the cells that
    predict a trial, hv the (n, H) recurrent output of its n cells in the
    mask's row-major order, dropped out in train mode with an (n, H) mask
    drawn in that order, so only scored cells consume the generator;
    cache feeds scan_backward (None in eval mode). In both modes the cells
    write each step's h straight into the packed rows. In train mode the
    cell caches' h_prev are views of those rows, so each value is held
    once, and the mask is drawn before the step loop and kept as boolean
    keep flags, in packed order, and the scalar 1/keep_prob, its only
    nonzero value.
    """
    emb, cell_operands = operands.emb, operands.cell
    # The cells' first operand is the (H, G*H) recurrent weight.
    bsz, hh = len(lengths), cell_operands[0].shape[0]
    train = mode == "train"
    lstm = operands.rnn_kind == "lstm"
    s_steps = max(int(lengths.max()) - 1, 0) if bsz else 0
    valid = np.arange(s_steps)[:, None] < lengths - 1
    order = np.argsort(-lengths, kind="stable")
    packed = valid[:, order]
    packed_hot = hot[order, :s_steps].T[packed]
    perm = (np.cumsum(valid).reshape(valid.shape) - 1)[:, order][packed]
    offs = np.concatenate([[0], np.cumsum(np.sum(valid, axis=1))]).tolist()
    floor = 0 if train else 2
    if train:
        keep = dropout_mask((len(perm), hh), keep_prob, rng) != 0
    # One spare entry and row, which an eval step of one student runs on.
    packed_hot = np.append(packed_hot, 0)
    packed_h = np.empty((len(perm) + 1, hh))
    cells = []
    h = np.zeros((max(bsz, floor), hh))
    c = np.zeros_like(h)
    for lo, hi in zip(offs[:-1], offs[1:]):
        rows = max(hi - lo, floor)
        a, out = emb[packed_hot[lo : lo + rows]], packed_h[lo : lo + rows]
        if lstm:
            h, c, cell = lstm_cell(a, h[:rows], c[:rows], *cell_operands, out=out)
        else:
            h, cell = gru_cell(a, h[:rows], *cell_operands, out=out)
        if train:
            cells.append(cell)
    hv = np.empty((len(perm), hh))
    hv[perm] = packed_h[:-1]
    del packed_h
    if not train:
        return hv, valid, None
    # hv*scale*keep is hv*mask bit for bit.
    scale = 1.0 / keep_prob
    hv *= scale
    hv *= keep
    return hv, valid, {"rnn_kind": operands.rnn_kind, "inputs": operands.inputs,
                       "emb_shape": emb.shape, "cells": cells, "keep": keep[perm],
                       "scale": scale, "packed_hot": packed_hot, "perm": perm, "offs": offs}


def scan_backward(d_h: np.ndarray, cache: dict, params: Params) -> Params:
    """Gradients of rnn_wx, rnn_wh and rnn_b given d_h, the (n, H)
    gradient on scan's output hv in scan's packed order (the rows
    hv[cache["perm"]]), walking scan's packed steps in reverse. Step j
    scatter-adds dpre, the gradient on its gathered rows of emb, into one
    (2N, G*H) table d_emb; rnn_wx's gradient is the transpose of d_emb for
    one-hot inputs, or of inputs.T @ d_emb.

    It overwrites d_h, masking it in place by scan's dropout mask
    (d_h*scale*keep is d_h*mask bit for bit)."""
    wh = params["rnn_wh"]
    d_emb = np.zeros(cache["emb_shape"])
    grads = {k: np.zeros_like(params[k]) for k in ("rnn_wh", "rnn_b")}
    offs = cache["offs"]
    # scatter_add's flat operands, made once for every step.
    flat, cols = d_emb.reshape(-1), np.arange(d_emb.shape[1])
    starts = cache["packed_hot"] * d_emb.shape[1]
    d_h *= cache["scale"]
    d_h *= cache["keep"]
    # Gradients on the recurrent state of the sorted rows; rows a later
    # step did not run stay zero.
    dh_rec = np.zeros((offs[1] if len(offs) > 1 else 0, wh.shape[1]))
    dc_rec = np.zeros_like(dh_rec)
    for j in reversed(range(len(offs) - 1)):
        lo, hi = offs[j], offs[j + 1]
        k = hi - lo
        dh = d_h[lo:hi] + dh_rec[:k]
        if cache["rnn_kind"] == "lstm":
            dh_rec[:k], dc_rec[:k], dpre, dwh, db = lstm_cell_backward(
                dh, dc_rec[:k], cache["cells"][j], wh
            )
        else:
            dh_rec[:k], dpre, dwh, db = gru_cell_backward(dh, cache["cells"][j], wh)
        scatter_add(flat, starts[lo:hi], dpre, cols)
        grads["rnn_wh"] += dwh
        grads["rnn_b"] += db
    if cache["inputs"] is not None:
        d_emb = cache["inputs"].T @ d_emb
    return {"rnn_wx": np.ascontiguousarray(d_emb.T), **grads}


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
# One batch skeleton, two heads


class Prepared(NamedTuple):
    """A model's parameter-only operands: scan's and its head's."""

    scan: ScanOperands
    head: Optional[tuple]


class SequenceModel:
    """The one batched forward and backward of a recurrent encoder with a
    head. A model gives init_params(rng), prepare(params) -> Prepared,
    head(params, prepared.head, hv, q) -> (logits, cache, fields) on
    scan's output hv and next-trial skills q of the valid cells, and
    head_backward(params, dy, cache, perm) -> (head gradients, gradient on
    hv in scan's packed order), dy being the gradient on the valid logits
    and perm scan's packed order; it pops hv from the cache. A head sees
    only these per-cell rows: the batch, its mode and the scan's cache
    stay in the skeleton."""

    def __init__(self, config):
        self.config = config

    def scorer(self, params, skills):
        """An eval-mode forward over blocks (skills, corrects, lengths) of a
        scored set whose skill ids are skills, refused here if any is out of
        range; prepare runs once, here."""
        check_skill_ids(skills, self.config.num_skills)
        prepared = self.prepare(params)
        return lambda *block: self.forward(params, *block, mode="eval", prepared=prepared)

    def forward(self, params, skills, corrects, lengths, mode="eval", rng=None,
                prepared=None) -> BatchForward:
        """Student b contributes predictions for j in 0..lengths[b]-2; the
        head runs on those valid cells only, and all other positions are
        masked out by `valid` and excluded from loss and gradients.
        prepared, when given, is self.prepare(params); else the call makes
        it."""
        cfg = self.config
        check_batch(skills, lengths, cfg.num_skills, mode, cfg.keep_prob, rng)
        if prepared is None:
            prepared = self.prepare(params)
        hv, valid, scan_cache = scan(
            prepared.scan, response_rows(skills, corrects, cfg.num_skills), lengths,
            cfg.keep_prob, mode, rng,
        )
        q = next_trials(skills, len(valid))[valid]
        logits, cache, fields = self.head(params, prepared.head, hv, q)
        cache = None if scan_cache is None else {**cache, "scan": scan_cache}
        return BatchForward.from_valid(logits, valid, corrects, cache, **fields)

    def backward(self, params, fwd: BatchForward) -> Params:
        """Exact gradients of fwd.loss_sum(); consumes fwd.cache."""
        cache = fwd.take_cache()
        head, d_h = self.head_backward(params, fwd.logit_grad(), cache, cache["scan"]["perm"])
        grads = scan_backward(d_h, cache["scan"], params)
        grads.update(head)
        return grads


class KqnModel(SequenceModel):
    """The query head: kv = proj_w @ h + proj_b meets the next skill's unit
    vector in a dot product. forward and backward run through
    forward_batch and backward_batch."""

    name = "kqn"

    def init_params(self, rng: np.random.Generator) -> Params:
        return init_params(self.config, rng)

    def prepare(self, params) -> Prepared:
        """The head's operands are the C-contiguous (H, d) transpose of
        proj_w and the skill table with its encoder cache."""
        table, skill_cache = encode_skill_table(params)
        return Prepared(scan_operands(params, self.config.rnn_kind),
                        (np.ascontiguousarray(params["proj_w"].T), table, skill_cache))

    def head(self, params, prepared, hv, q):
        """A 1-row projection runs on 2 rows, as scan's steps do, so a
        student's probabilities are the same bits in any batch."""
        proj, table, skill_cache = prepared
        kv = (pad_rows(hv, 2) @ proj)[: len(hv)] + params["proj_b"]
        return (np.sum(kv * table[q - 1], axis=1),
                {"skill": skill_cache, "table": table, "hv": hv, "kv": kv, "q": q},
                {"knowledge_states": kv, "skill_table": table})

    def head_backward(self, params, dy, cache: dict, perm):
        dy = dy[:, None]
        table, rows = cache["table"], cache["q"] - 1
        dks = dy * table[rows]
        head = {"proj_w": dks.T @ cache.pop("hv"), "proj_b": dks.sum(axis=0)}
        d_table = np.zeros_like(table)
        scatter_add(d_table, rows, dy * cache["kv"])
        head.update(skill_table_backward(d_table, cache["skill"], params))
        return head, dks[perm] @ params["proj_w"]

    def forward(self, params, skills, corrects, lengths, mode="eval", rng=None,
                prepared=None) -> BatchForward:
        return forward_batch(skills, corrects, lengths, params, self.config, mode, rng, prepared)

    def backward(self, params, fwd: BatchForward) -> Params:
        return backward_batch(fwd, params, self.config)


def forward_batch(skills, corrects, lengths, params: Params, config: ModelConfig, mode="eval",
                  rng=None, prepared: Optional[Prepared] = None) -> BatchForward:
    """The query model's SequenceModel.forward."""
    return SequenceModel.forward(KqnModel(config), params, skills, corrects, lengths, mode, rng,
                                 prepared)


def backward_batch(fwd: BatchForward, params: Params, config: ModelConfig) -> Params:
    """The query model's SequenceModel.backward."""
    return SequenceModel.backward(KqnModel(config), params, fwd)
