"""Optimization loop shared by every sequence model in the package: Adam
with bias correction, student-level data splits, early stopping on
validation AUC, a grid search over model configs, and the metrics CSV
format.

A trainable model is anything exposing init_params(rng), forward(params,
skills, corrects, lengths, mode, rng) returning an object with logits,
probs, targets, valid, loss_sum() and num_valid, backward(params, fwd),
and scorer(params, skills): given every skill id of a scored set, it
refuses ids the model cannot score and returns score(skills, corrects,
lengths), an eval-mode forward over the set's blocks with the
parameter-only work done once.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .metrics import auc_scores, binary_cross_entropy
from .model import KqnModel, ModelConfig, Params, batch_arrays
from .tables import check_config, check_integer, read_table, write_table


# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Students per eval-mode forward pass when train() validates and a fit
# scores its test part (evaluate forms the blocks longest first). Scores
# do not depend on the batch (see model.scan), so this bounds only memory.
SCORE_BLOCK = 128


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings.

    batch_size is the training batch only: validation and test are scored
    in blocks of SCORE_BLOCK students. epochs_validation is the epoch
    budget of train(); it is an upper bound under early stopping
    (patience epochs without a validation-AUC improvement, best weights
    restored).
    """

    batch_size: int = 128
    epochs_validation: int = 50
    adam_alpha: float = 0.001
    seed: int = 0
    patience: int = 5

    def __post_init__(self):
        check_config(self)
        if self.adam_alpha <= 0:
            raise ValueError(f"adam_alpha must be > 0, got {self.adam_alpha!r}")


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
    step can exceed alpha per coordinate by more than rounding. Each
    parameter takes the IEEE operations, in the order, of
        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        p -= alpha (m / bc1) / (sqrt(v / bc2) + eps),
    run in place and through two scratch arrays per parameter.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for k, g in grads.items():
        m = state.m[k]
        v = state.v[k]
        step = np.empty_like(g)
        denom = np.empty_like(g)
        m *= b1
        m += np.multiply(1.0 - b1, g, out=step)
        v *= b2
        np.multiply(1.0 - b2, g, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(m, bc1, out=step)
        step *= cfg.adam_alpha
        np.divide(v, bc2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        params[k] -= np.divide(step, denom, out=step)


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
    one generator seeded with cfg.seed. A non-finite batch loss or gradient
    entry raises ValueError naming the epoch and batch, before that batch's
    update, and so does a non-finite validation loss, naming the epoch.
    A batch's forward and gradients are dropped before the next forward,
    so a fit holds one batch of train-mode state at a time.
    """
    train_kept, skipped_train = _scoreable(train_seqs)
    valid_kept, skipped_valid = _scoreable(valid_seqs)
    if not train_kept:
        raise ValueError("no trainable sequences (all shorter than 2 responses)")
    if not valid_kept:
        raise ValueError("no scoreable validation sequences")

    rng = np.random.default_rng(cfg.seed)
    params = model.init_params(rng)
    state = init_adam(params)

    # Epoch 1 always sets the best_ values: its validation AUC is finite,
    # since a non-finite validation loss raises first and auc_scores
    # refuses a one-class set.
    records: list[EpochRecord] = []
    best_auc = -np.inf
    stale = 0

    for epoch in range(1, cfg.epochs_validation + 1):
        order = rng.permutation(len(train_kept))
        loss_total = 0.0
        trials_total = 0
        for batch_no, idx_batch in enumerate(_batches(order, cfg.batch_size), start=1):
            batch = [train_kept[i] for i in idx_batch]
            skills, corrects, lengths = batch_arrays(batch)
            # A diverging fit overflows inside this step; the check below
            # reports it as one error instead of a stream of NumPy warnings.
            with np.errstate(all="ignore"):
                fwd = model.forward(params, skills, corrects, lengths, mode="train", rng=rng)
                loss, trials = fwd.loss_sum(), fwd.num_valid
                grads = model.backward(params, fwd)
                del fwd
                diverged = f"training diverged: epoch {epoch} batch {batch_no}"
                if not np.isfinite(loss):
                    raise ValueError(f"{diverged} loss is {loss}")
                bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
                if bad:
                    raise ValueError(f"{diverged} gradient {bad[0]!r} is not finite")
                loss_total += loss
                trials_total += trials
                adam_step(params, grads, state, cfg)
                del grads

        train_loss = loss_total / max(trials_total, 1)
        with np.errstate(all="ignore"):
            valid_auc, valid_loss, _ = evaluate(model, params, valid_kept, SCORE_BLOCK)
        if not np.isfinite(valid_loss):
            raise ValueError(f"training diverged: epoch {epoch} validation loss is {valid_loss}")
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
        skipped=skipped_train + skipped_valid,
    )
    return TrainResult(params=best_params, metrics=metrics)


def evaluate(model, params: Params, sequences, batch_size: int = SCORE_BLOCK):
    """Score sequences in eval mode; returns (auc, mean_loss, n_trials).

    The scored set's skill ids are checked once, before any block, and
    the parameter-only work is done once (model.scorer). Students are
    scored batch_size per forward pass, longest first (a stable sort),
    so each block pads only to its own longest student. A student's
    eval-mode logits are the same bits in any batch, and the logits,
    probabilities and targets go back to the students' input order, where
    the loss is reduced once; so the result does not depend on
    batch_size. A loss that is not finite comes back with a NaN AUC, and
    callers refuse the loss."""
    check_integer(batch_size, "batch_size", "a positive integer")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    kept, _ = _scoreable(sequences)
    if not kept:
        raise ValueError("no scoreable sequences to evaluate")
    score = model.scorer(params, np.concatenate([s.responses[:, 0] for s in kept]))
    counts = np.array([len(s.responses) - 1 for s in kept])
    order = np.argsort(-counts, kind="stable")
    cells = []
    for idx in _batches(order, batch_size):
        fwd = score(*batch_arrays([kept[i] for i in idx]))
        # Transposed, the valid mask's row-major order is student-major.
        by_student = fwd.valid.T
        cells.append([a.T[by_student] for a in (fwd.logits, fwd.probs, fwd.targets)])
    # A stable sort of the scored cells by student puts them in input order.
    back = np.argsort(np.repeat(order, counts[order]), kind="stable")
    y, p, c = (np.concatenate(part)[back] for part in zip(*cells))
    loss = float(np.sum(binary_cross_entropy(y, c)))
    # auc_scores refuses the NaN probabilities of a NaN loss, naming no file.
    auc = auc_scores(p, c) if np.isfinite(loss) else np.nan
    return auc, loss / len(p), len(p)


# ---------------------------------------------------------------------------
# Grid search


@dataclass(frozen=True)
class GridCell:
    config: ModelConfig
    valid_auc: float
    best_epoch: int


def cell_rank(cell: GridCell):
    """The sort key that puts the best cell first: higher AUC wins; ties
    prefer smaller dim, then smaller recurrent and perceptron widths, then
    LSTM over GRU."""
    cfg = cell.config
    return (
        -cell.valid_auc,
        cfg.dim,
        cfg.rnn_hidden,
        cfg.mlp_hidden,
        0 if cfg.rnn_kind == "lstm" else 1,
    )


def grid_search(
    configs: Sequence[ModelConfig],
    train_seqs,
    valid_seqs,
    cfg: TrainConfig,
    progress: Optional[Callable[[GridCell], None]] = None,
) -> list[GridCell]:
    """Train a KqnModel of each config in the order given; returns one
    GridCell per config, holding its best epoch and that epoch's
    validation AUC. progress, when given, sees each cell as it is done."""
    cells = []
    for config in configs:
        metrics = train(KqnModel(config), train_seqs, valid_seqs, cfg).metrics
        best = metrics.best_epoch
        cells.append(GridCell(config, metrics.epochs[best - 1].valid_auc, best))
        if progress is not None:
            progress(cells[-1])
    return cells


# ---------------------------------------------------------------------------
# Metrics CSV


def write_metrics_csv(path, records: Sequence[EpochRecord]) -> None:
    """epoch,train_loss,valid_auc rows (see tables.py)."""
    write_table(path, EpochRecord._fields, records)


def read_metrics_csv(path) -> list[EpochRecord]:
    _, epochs, values = read_table(path, "metrics", EpochRecord._fields)
    return [EpochRecord(e, loss, auc) for e, (loss, auc) in zip(epochs, values.tolist())]
