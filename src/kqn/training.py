"""Optimization loop shared by every sequence model in the package: Adam
with bias correction, student-level data splits, early stopping on
validation AUC, hyperparameter grid search, and the metrics CSV format.

A trainable model is anything exposing init_params(rng), forward(params,
skills, corrects, lengths, mode, rng) returning an object with logits,
probs, targets, valid, loss_sum() and num_valid, and backward(params, fwd).
"""
from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .metrics import auc_scores
from .model import KqnModel, ModelConfig, Params, batch_arrays


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings.

    epochs_validation is the epoch budget of train(); it is an upper
    bound under early stopping (patience epochs without a validation-AUC
    improvement, best weights restored).
    """

    batch_size: int = 128
    epochs_validation: int = 50
    adam_alpha: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    patience: int = 5

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs_validation < 1:
            raise ValueError("epochs_validation must be positive")
        if not 0.0 <= self.adam_beta1 < 1.0 or not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError("adam betas must be in [0, 1)")
        if self.adam_alpha <= 0 or self.adam_eps <= 0:
            raise ValueError("adam_alpha and adam_eps must be positive")
        if self.patience < 1:
            raise ValueError("patience must be positive")


@dataclass
class AdamState:
    m: Params
    v: Params
    t: int = 0


def init_adam(params: Params) -> AdamState:
    return AdamState(
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(params: Params, grads: Params, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.

    At t=1 the update reduces to alpha * g / (|g| + eps'), so no single
    step can exceed alpha per coordinate by more than rounding.
    """
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for k, g in grads.items():
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        params[k] -= cfg.adam_alpha * (m / bc1) / (np.sqrt(v / bc2) + cfg.adam_eps)


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class Split:
    train: tuple
    valid: tuple
    test: tuple


def split_data(sequences, train_ratio: float, tv_ratio: float, seed: int) -> Split:
    """Student-level split: first train+valid vs test at tv_ratio, then
    train vs valid at train_ratio within the first part.

    Counts are floors, remainders flow to test and valid respectively, and
    the shuffle is seeded. Raises if any part ends up empty.
    """
    if not 0.0 < train_ratio < 1.0 or not 0.0 < tv_ratio < 1.0:
        raise ValueError("ratios must be strictly between 0 and 1")
    sequences = list(sequences)
    n = len(sequences)
    order = np.random.default_rng(seed).permutation(n)
    n_tv = int(np.floor(n * tv_ratio))
    n_train = int(np.floor(n_tv * train_ratio))
    if n_train == 0 or n_tv - n_train == 0 or n - n_tv == 0:
        raise ValueError(
            f"split of {n} students at {train_ratio}/{tv_ratio} leaves an empty part"
        )
    train = tuple(sequences[i] for i in order[:n_train])
    valid = tuple(sequences[i] for i in order[n_train:n_tv])
    test = tuple(sequences[i] for i in order[n_tv:])
    return Split(train=train, valid=valid, test=test)


# ---------------------------------------------------------------------------
# Training loop


class EpochRecord(NamedTuple):
    epoch: int
    train_loss: float
    valid_auc: float


@dataclass
class TrainingMetrics:
    epochs: list[EpochRecord]
    best_epoch: int
    wall_time: float
    skipped: int


@dataclass
class TrainResult:
    params: Params
    metrics: TrainingMetrics


def _scoreable(sequences):
    kept = [s for s in sequences if len(s.responses) >= 2]
    return kept, len(sequences) - len(kept)


def _batches(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def train(model, train_seqs, valid_seqs, cfg: TrainConfig) -> TrainResult:
    """Fit a model with Adam and validation-AUC early stopping.

    Single-response sequences are skipped (nothing to predict) and counted
    in metrics.skipped. All randomness (init, shuffles, dropout) comes from
    one generator seeded with cfg.seed. A non-finite batch loss raises
    ValueError naming the epoch and batch, before that batch's update.
    """
    t0 = time.monotonic()
    train_kept, skipped_train = _scoreable(train_seqs)
    valid_kept, skipped_valid = _scoreable(valid_seqs)
    if not train_kept:
        raise ValueError("no trainable sequences (all shorter than 2 responses)")
    if not valid_kept:
        raise ValueError("no scoreable validation sequences")

    rng = np.random.default_rng(cfg.seed)
    params = model.init_params(rng)
    state = init_adam(params)

    records: list[EpochRecord] = []
    best_auc = -np.inf
    best_epoch = 0
    best_params = copy.deepcopy(params)
    stale = 0

    for epoch in range(1, cfg.epochs_validation + 1):
        order = rng.permutation(len(train_kept))
        loss_total = 0.0
        trials_total = 0
        for batch_no, idx_batch in enumerate(_batches(order, cfg.batch_size), start=1):
            batch = [train_kept[i] for i in idx_batch]
            skills, corrects, lengths = batch_arrays(batch)
            fwd = model.forward(params, skills, corrects, lengths, mode="train", rng=rng)
            loss = fwd.loss_sum()
            if not np.isfinite(loss):
                raise ValueError(
                    f"training diverged: epoch {epoch} batch {batch_no} loss is {loss}"
                )
            loss_total += loss
            trials_total += fwd.num_valid
            grads = model.backward(params, fwd)
            adam_step(params, grads, state, cfg)

        train_loss = loss_total / max(trials_total, 1)
        valid_auc, _, _ = evaluate(model, params, valid_kept, cfg.batch_size)
        records.append(EpochRecord(epoch=epoch, train_loss=train_loss, valid_auc=valid_auc))

        if valid_auc > best_auc:
            best_auc = valid_auc
            best_epoch = epoch
            best_params = copy.deepcopy(params)
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    metrics = TrainingMetrics(
        epochs=records,
        best_epoch=best_epoch,
        wall_time=time.monotonic() - t0,
        skipped=skipped_train + skipped_valid,
    )
    return TrainResult(params=best_params, metrics=metrics)


def evaluate(model, params: Params, sequences, batch_size: int = 128):
    """Score sequences in eval mode; returns (auc, mean_loss, n_trials)."""
    kept, _ = _scoreable(sequences)
    if not kept:
        raise ValueError("no scoreable sequences to evaluate")
    probs = []
    targets = []
    loss_total = 0.0
    for batch in _batches(kept, batch_size):
        skills, corrects, lengths = batch_arrays(list(batch))
        fwd = model.forward(params, skills, corrects, lengths, mode="eval")
        probs.append(fwd.probs[fwd.valid])
        targets.append(fwd.targets[fwd.valid])
        loss_total += fwd.loss_sum()
    p = np.concatenate(probs)
    return auc_scores(p, np.concatenate(targets)), loss_total / len(p), len(p)


# ---------------------------------------------------------------------------
# Grid search


@dataclass(frozen=True)
class GridSpec:
    rnn_kinds: tuple[str, ...] = ("lstm", "gru")
    dims: tuple[int, ...] = (32, 64, 128)
    rnn_hiddens: tuple[int, ...] = (32, 64, 128)
    mlp_hiddens: tuple[int, ...] = (32, 64, 128)


def enumerate_grid(num_skills: int, grid: GridSpec, keep_prob: float = 0.6):
    """Yield one ModelConfig per grid cell in deterministic order."""
    for kind in grid.rnn_kinds:
        for dim in grid.dims:
            for hr in grid.rnn_hiddens:
                for hm in grid.mlp_hiddens:
                    yield ModelConfig(
                        num_skills=num_skills,
                        dim=dim,
                        rnn_kind=kind,
                        rnn_hidden=hr,
                        mlp_hidden=hm,
                        keep_prob=keep_prob,
                    )


@dataclass(frozen=True)
class GridCell:
    config: ModelConfig
    valid_auc: float
    best_epoch: int


@dataclass
class GridSearchResult:
    best: GridCell
    cells: list[GridCell]


def _cell_rank(cell: GridCell):
    # Higher AUC wins; ties prefer smaller dim, then smaller recurrent and
    # perceptron widths, then LSTM over GRU.
    cfg = cell.config
    return (
        -cell.valid_auc,
        cfg.dim,
        cfg.rnn_hidden,
        cfg.mlp_hidden,
        0 if cfg.rnn_kind == "lstm" else 1,
    )


def grid_search(
    num_skills: int,
    train_seqs,
    valid_seqs,
    cfg: TrainConfig,
    grid: GridSpec = GridSpec(),
    keep_prob: float = 0.6,
    model_factory: Callable[[ModelConfig], object] = KqnModel,
    progress: Optional[Callable[[ModelConfig, float], None]] = None,
) -> GridSearchResult:
    """Train every grid cell to epochs_validation and rank by best
    validation AUC with the deterministic tie-break of _cell_rank."""
    cells = []
    for config in enumerate_grid(num_skills, grid, keep_prob):
        result = train(model_factory(config), train_seqs, valid_seqs, cfg)
        best = max(r.valid_auc for r in result.metrics.epochs)
        cells.append(
            GridCell(config=config, valid_auc=best, best_epoch=result.metrics.best_epoch)
        )
        if progress is not None:
            progress(config, best)
    ranked = sorted(cells, key=_cell_rank)
    return GridSearchResult(best=ranked[0], cells=cells)


# ---------------------------------------------------------------------------
# Metrics CSV


def write_metrics_csv(path, records: Sequence[EpochRecord]) -> None:
    """epoch,train_loss,valid_auc rows; floats use repr for exact
    round-trip and byte-stable output."""
    lines = ["epoch,train_loss,valid_auc"]
    for rec in records:
        lines.append(
            f"{rec.epoch},{repr(float(rec.train_loss))},{repr(float(rec.valid_auc))}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_metrics_csv(path) -> list[EpochRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "epoch,train_loss,valid_auc":
        raise ValueError(f"{path} is not a metrics CSV")
    out = []
    for line in lines[1:]:
        epoch, loss, auc_s = line.split(",")
        out.append(EpochRecord(int(epoch), float(loss), float(auc_s)))
    return out
