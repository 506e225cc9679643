"""Evaluation metrics for per-trial binary predictions.

AUC is computed with the rank-statistic (Mann-Whitney) formulation using
tie-averaged ranks, which is O(n log n) and matches pair counting exactly,
ties counted as half. Cross-entropy is taken from logits, so it is exact
and finite for every finite prediction.
"""
from __future__ import annotations

import numpy as np


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    # Group identical values: gid[i] is the index of i's tie group.
    starts = np.concatenate(([True], sx[1:] != sx[:-1]))
    gid = np.cumsum(starts) - 1
    first = np.flatnonzero(starts)
    counts = np.diff(np.concatenate((first, [len(x)])))
    avg = first + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(len(x))
    ranks[order] = avg[gid]
    return ranks


def auc_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve from raw score/label arrays. Scores must be
    finite and labels 0 or 1; anything else raises ValueError."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(
            f"scores and labels must be equal-length 1-d arrays, got "
            f"{scores.shape} and {labels.shape}"
        )
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    # Another label would take a rank slot without being counted.
    if n_pos + n_neg != labels.size:
        raise ValueError("AUC labels must be 0 or 1")
    if not np.all(np.isfinite(scores)):
        raise ValueError("AUC scores must be finite")
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"AUC needs both classes; got {n_pos} positives, {n_neg} negatives"
        )
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def binary_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Elementwise -[c log p + (1-c) log(1-p)] for p = sigmoid(y), computed
    as softplus((1 - 2c) y). Its derivative in y is p - c."""
    z = (1.0 - 2.0 * np.asarray(targets, dtype=float)) * np.asarray(logits, dtype=float)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
