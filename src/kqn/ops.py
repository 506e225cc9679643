"""Double-precision dense primitives with hand-derived backward passes.

Everything is pure: forwards map finite inputs to finite outputs, backwards
map an upstream gradient plus the forward inputs (or cached outputs) to
input gradients. Randomness enters only through an explicit numpy Generator.
"""
from __future__ import annotations

import numpy as np

# Below this norm a row is treated as degenerate by l2_normalize_rows.
NORM_EPS = 1e-12


def sigmoid(u):
    """Logistic function 1/(1+exp(-u)), overflow-safe, elementwise."""
    arr = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(arr))
    return np.where(arr >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def l2_normalize_rows(m: np.ndarray):
    """Scale each row of an (R, C) matrix to unit length; returns (out,
    norms). Degenerate rows (norm < NORM_EPS) map to the uniform positive
    unit vector so downstream consumers stay on the unit sphere."""
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=1)
    ok = norms >= NORM_EPS
    out = np.empty_like(m)
    out[ok] = m[ok] / norms[ok, None]
    out[~ok] = 1.0 / np.sqrt(m.shape[1])
    return out, norms


def l2_normalize_rows_backward(dout, m, norms):
    """Chain rule through l2_normalize_rows; degenerate rows get zero."""
    ok = norms >= NORM_EPS
    dm = np.zeros_like(m)
    s = m[ok] / norms[ok, None]
    proj = np.sum(s * dout[ok], axis=1, keepdims=True)
    dm[ok] = (dout[ok] - s * proj) / norms[ok, None]
    return dm


def dropout_mask(shape, keep_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: entries are 1/keep_prob with probability
    keep_prob, else 0. keep_prob == 1 returns all ones without consuming
    the generator, so train and eval streams stay comparable."""
    if not 0.0 < keep_prob <= 1.0:
        raise ValueError(f"keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return np.ones(shape)
    return (rng.random(shape) < keep_prob) / keep_prob
