"""Skill-similarity analysis on learned unit-sphere skill vectors.

Covers pairwise distance matrices, the odds-ratio identity relating
prediction odds to skill distance, agglomerative clustering under seven
linkages via the Lance-Williams recurrence, flat cuts, the Adjusted Rand
Index, Mantel permutation tests, dimensionality sensitivity statistics,
and the per-student knowledge-interaction heatmap, plus the CSV formats
for all of them.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

import numpy as np

from .model import ModelConfig, Params, batch_arrays, encode_skill_table, forward_batch
from .ops import sigmoid

DISTANCE_KINDS = ("cosine", "euclidean")
LINKAGES = ("average", "centroid", "complete", "median", "single", "ward", "weighted")
# Linkages whose recurrence operates on squared Euclidean distances.
_SQUARED_LINKAGES = ("centroid", "median", "ward")


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric non-negative matrix with zero diagonal."""

    kind: str
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if self.kind not in DISTANCE_KINDS:
            raise ValueError(f"kind must be one of {DISTANCE_KINDS}, got {self.kind!r}")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {v.shape}")
        if np.max(np.abs(v - v.T)) > 1e-12:
            raise ValueError("distance matrix is not symmetric within 1e-12")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(v < 0):
            raise ValueError("distance matrix entries must be non-negative")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def pairwise_distances(vectors, kind: str) -> DistanceMatrix:
    """All-pairs distances between unit vectors.

    cosine: 1 - s_i.s_j; euclidean: ||s_i - s_j||. For unit vectors the
    squared Euclidean distance is exactly twice the cosine distance.
    """
    v = np.asarray(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected a 2-d array of row vectors, got shape {v.shape}")
    if kind not in DISTANCE_KINDS:
        raise ValueError(f"kind must be one of {DISTANCE_KINDS}, got {kind!r}")
    norms = np.linalg.norm(v, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-6:
        worst = int(np.argmax(np.abs(norms - 1.0)))
        raise ValueError(
            f"vectors must be unit length; row {worst} has norm {norms[worst]}"
        )
    gram = v @ v.T
    if kind == "cosine":
        out = 1.0 - gram / np.outer(norms, norms)
    else:
        sq = norms[:, None] ** 2 + norms[None, :] ** 2 - 2.0 * gram
        out = np.sqrt(np.maximum(sq, 0.0))
    out = 0.5 * (out + out.T)
    out = np.maximum(out, 0.0)
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(kind=kind, values=out)


# ---------------------------------------------------------------------------
# The odds-ratio identity


def odds_ratio_identity(ks, table):
    """Both sides of the squared log odds-ratio identity for every skill
    pair i < j, as condensed arrays in np.triu_indices order.

    lhs goes through the probabilistic route: the log odds of
    sigmoid(table @ ks), differenced per pair and squared. rhs is pure
    geometry: (ks . delta_ij)^2 * d_ij^2, with delta_ij the unit direction
    of s_i - s_j and d_ij their pairwise Euclidean distance. The rows must
    be unit vectors, and then the two sides agree to rounding. Raises for
    (near-)identical rows, whose difference direction is undefined.
    """
    ks = np.asarray(ks, dtype=float)
    table = np.asarray(table, dtype=float)
    i, j = np.triu_indices(len(table), k=1)
    diff = table[i] - table[j]
    norm = np.linalg.norm(diff, axis=1)
    if np.any(norm < 1e-12):
        raise ValueError("skill vectors are identical; pair direction is undefined")
    p = sigmoid(table @ ks)
    log_odds = np.log(p) - np.log1p(-p)
    lhs = (log_odds[i] - log_odds[j]) ** 2
    dist = pairwise_distances(table, "euclidean").values[i, j]
    rhs = (diff @ ks / norm) ** 2 * dist ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# Hierarchical clustering


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge list. Row t is (a, b, height, size): cluster ids
    a and b merged into id num_leaves + t of the given size. Leaves are ids
    0..num_leaves-1."""

    merges: np.ndarray
    num_leaves: int


def hcluster(dmat: DistanceMatrix, linkage: str) -> Dendrogram:
    """Agglomerative clustering via the Lance-Williams recurrence.

    single/complete/average/weighted update raw distances; centroid,
    median and ward run on squared distances (the matrix is interpreted
    as Euclidean) with recorded heights square-rooted. Ties in the merge
    choice resolve to the first pair in row-major upper-triangle order.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = dmat.n
    if n < 2:
        raise ValueError(f"need at least 2 points to cluster, got {n}")
    squared = linkage in _SQUARED_LINKAGES

    total = 2 * n - 1
    w = np.full((total, total), np.inf)
    w[:n, :n] = dmat.values ** 2 if squared else dmat.values
    np.fill_diagonal(w, np.inf)
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    sizes = np.ones(total, dtype=int)
    merges = np.zeros((n - 1, 4))

    for step in range(n - 1):
        idx = np.flatnonzero(active)
        sub = w[np.ix_(idx, idx)]
        iu = np.triu_indices(len(idx), k=1)
        flat = int(np.argmin(sub[iu]))
        i = int(idx[iu[0][flat]])
        j = int(idx[iu[1][flat]])
        dij = w[i, j]
        m = n + step
        ni, nj = int(sizes[i]), int(sizes[j])

        others = idx[(idx != i) & (idx != j)]
        dki = w[others, i]
        dkj = w[others, j]
        if linkage == "single":
            dkm = 0.5 * (dki + dkj) - 0.5 * np.abs(dki - dkj)
        elif linkage == "complete":
            dkm = 0.5 * (dki + dkj) + 0.5 * np.abs(dki - dkj)
        elif linkage == "average":
            dkm = (ni * dki + nj * dkj) / (ni + nj)
        elif linkage == "weighted":
            dkm = 0.5 * (dki + dkj)
        elif linkage == "centroid":
            dkm = (ni * dki + nj * dkj) / (ni + nj) - ni * nj * dij / (ni + nj) ** 2
        elif linkage == "median":
            dkm = 0.5 * (dki + dkj) - 0.25 * dij
        else:  # ward
            nk = sizes[others]
            dkm = ((ni + nk) * dki + (nj + nk) * dkj - nk * dij) / (ni + nj + nk)

        w[m, others] = dkm
        w[others, m] = dkm
        active[i] = False
        active[j] = False
        active[m] = True
        sizes[m] = ni + nj
        height = float(np.sqrt(max(dij, 0.0))) if squared else float(dij)
        merges[step] = (i, j, height, ni + nj)

    return Dendrogram(merges=merges, num_leaves=n)


def flat_clusters(dend: Dendrogram, n: int) -> np.ndarray:
    """Cut to exactly n clusters by undoing the last n-1 merges.

    Labels are 1..n, numbered by each cluster's smallest leaf index.
    """
    leaves = dend.num_leaves
    if not 1 <= n <= leaves:
        raise ValueError(f"cluster count must be in 1..{leaves}, got {n}")
    parent = list(range(2 * leaves - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(leaves - n):
        a, b = int(dend.merges[step, 0]), int(dend.merges[step, 1])
        m = leaves + step
        parent[find(a)] = m
        parent[find(b)] = m

    labels = np.zeros(leaves, dtype=int)
    seen: dict[int, int] = {}
    for leaf in range(leaves):
        root = find(leaf)
        if root not in seen:
            seen[root] = len(seen) + 1
        labels[leaf] = seen[root]
    return labels


# ---------------------------------------------------------------------------
# Partition agreement


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand Index from the pair-counting contingency table.

    Standard definition: scores 1 for identical partitions, has expected
    value 0 under chance, and can be negative for anti-correlated
    partitions (it is not clamped at 0).
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"label arrays must be 1-d and equal length, got {a.shape}, {b.shape}")
    n = len(a)
    if n < 2:
        raise ValueError(f"need at least 2 items, got {n}")
    _, ia = np.unique(a, return_inverse=True)
    _, ib = np.unique(b, return_inverse=True)
    cont = np.zeros((ia.max() + 1, ib.max() + 1))
    np.add.at(cont, (ia, ib), 1.0)

    def comb2(x):
        return x * (x - 1.0) / 2.0

    index = comb2(cont).sum()
    sum_a = comb2(cont.sum(axis=1)).sum()
    sum_b = comb2(cont.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


# ---------------------------------------------------------------------------
# Mantel permutation test


@dataclass(frozen=True)
class MantelResult:
    rho: float
    p_value: float
    permutations: int


def _check_mantel_matrix(values: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"{name} must be square, got shape {v.shape}")
    if np.max(np.abs(v - v.T)) > 1e-10:
        raise ValueError(f"{name} is not symmetric")
    if np.any(np.abs(np.diag(v)) > 1e-12):
        raise ValueError(f"{name} must have a zero diagonal")
    return v


def mantel(d1, d2, permutations: int = 999, rng=None) -> MantelResult:
    """One-sided (greater) Mantel test between two distance matrices.

    rho is the Pearson correlation of the upper triangles; the null
    distribution jointly permutes the second matrix's rows and columns,
    and p = (1 + #{permuted rho >= observed}) / (permutations + 1).
    """
    v1 = _check_mantel_matrix(d1.values if isinstance(d1, DistanceMatrix) else d1, "d1")
    v2 = _check_mantel_matrix(d2.values if isinstance(d2, DistanceMatrix) else d2, "d2")
    if v1.shape != v2.shape:
        raise ValueError(f"matrices differ in size: {v1.shape} vs {v2.shape}")
    n = v1.shape[0]
    if n < 3:
        raise ValueError(f"Mantel test needs at least 3 points, got {n}")
    if permutations < 1:
        raise ValueError(f"permutations must be positive, got {permutations}")
    rng = np.random.default_rng(rng)

    iu = np.triu_indices(n, k=1)
    u1 = v1[iu]
    u2 = v2[iu]
    c1 = u1 - u1.mean()
    c2 = u2 - u2.mean()
    norm1 = float(np.linalg.norm(c1))
    norm2 = float(np.linalg.norm(c2))
    if norm1 == 0.0 or norm2 == 0.0:
        raise ValueError("constant upper triangle; correlation is undefined")
    rho = float(c1 @ c2) / (norm1 * norm2)

    # A joint row/column permutation only reorders the upper-triangle
    # multiset, so the permuted mean and norm equal the originals.
    mean2 = u2.mean()
    count = 0
    for _ in range(permutations):
        perm = rng.permutation(n)
        pu2 = v2[np.ix_(perm, perm)][iu]
        rho_p = float(c1 @ (pu2 - mean2)) / (norm1 * norm2)
        if rho_p >= rho:
            count += 1
    return MantelResult(
        rho=rho,
        p_value=(1.0 + count) / (permutations + 1.0),
        permutations=permutations,
    )


# ---------------------------------------------------------------------------
# Dimensionality sensitivity


@dataclass(frozen=True)
class SensitivityReport:
    """xi: mean absolute pairwise-distance difference per dimension pair
    (keys are sorted (d1, d2) tuples); eta: mean pairwise distance per
    dimension."""

    kind: str
    xi: dict
    eta: dict


def sensitivity_stats(vector_sets: Mapping[int, np.ndarray], kind: str) -> SensitivityReport:
    """Compare skill geometries learned at different dimensionalities.

    Every set must embed the same N skills (row r is skill r+1 in all of
    them). eta_d is the mean over the C(N,2) pairs of the chosen distance;
    xi_{d1,d2} the mean absolute difference between the two sets' pairwise
    distances.
    """
    if len(vector_sets) == 0:
        raise ValueError("need at least one vector set")
    dims = sorted(vector_sets)
    counts = {d: np.asarray(vector_sets[d]).shape[0] for d in dims}
    if len(set(counts.values())) != 1:
        raise ValueError(f"vector sets cover different skill counts: {counts}")
    n = counts[dims[0]]
    if n < 2:
        raise ValueError(f"need at least 2 skills, got {n}")

    iu = np.triu_indices(n, k=1)
    condensed = {d: pairwise_distances(vector_sets[d], kind).values[iu] for d in dims}
    eta = {d: float(np.mean(condensed[d])) for d in dims}
    xi = {}
    for a_pos, d1 in enumerate(dims):
        for d2 in dims[a_pos + 1 :]:
            xi[(d1, d2)] = float(np.mean(np.abs(condensed[d1] - condensed[d2])))
    return SensitivityReport(kind=kind, xi=xi, eta=eta)


# ---------------------------------------------------------------------------
# Knowledge-interaction heatmap


@dataclass(frozen=True)
class Heatmap:
    """percent[r, t] = 100 * sigmoid(KS_{t+1} . s_{skill_ids[r]}) for the
    knowledge state after consuming response t+1. Column labels name the
    response consumed: '(skill,correct)'."""

    percent: np.ndarray
    skill_ids: tuple[int, ...]
    column_labels: tuple[str, ...]


def heatmap_matrix(params: Params, config: ModelConfig, seq) -> Heatmap:
    """Query every distinct skill in a student's sequence against each of
    their successive knowledge states."""
    skills, corrects, lengths = batch_arrays([seq])
    fwd = forward_batch(skills, corrects, lengths, params, config)
    kstates = fwd.knowledge_states[:, 0, :]
    skill_ids = tuple(np.unique(seq.responses[:, 0]).tolist())
    table = fwd.skill_table
    logits = table[np.array(skill_ids) - 1] @ kstates.T
    percent = 100.0 * sigmoid(logits)
    labels = tuple(f"({s},{c})" for s, c in seq.responses[: kstates.shape[0]].tolist())
    return Heatmap(percent=percent, skill_ids=skill_ids, column_labels=labels)


# ---------------------------------------------------------------------------
# CSV formats

# All floats are written with repr(float(x)) so values round-trip exactly
# and output is byte-stable across runs.


def _fmt(x) -> str:
    return repr(float(x))


def write_distance_csv(path, dmat: DistanceMatrix, skill_ids=None) -> None:
    n = dmat.n
    ids = list(skill_ids) if skill_ids is not None else list(range(1, n + 1))
    if len(ids) != n:
        raise ValueError(f"{len(ids)} skill ids for a {n}x{n} matrix")
    lines = ["skill," + ",".join(str(i) for i in ids)]
    for r in range(n):
        lines.append(str(ids[r]) + "," + ",".join(_fmt(x) for x in dmat.values[r]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_distance_csv(path, kind: str = "euclidean"):
    """Returns (DistanceMatrix, skill_ids)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("skill,"):
        raise ValueError(f"{path} is not a distance CSV")
    ids = [int(tok) for tok in lines[0].split(",")[1:]]
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append([float(tok) for tok in cells[1:]])
    values = np.array(rows)
    return DistanceMatrix(kind=kind, values=values), ids


def write_dendrogram_csv(path, dend: Dendrogram) -> None:
    lines = ["a,b,height,size"]
    for a, b, height, size in dend.merges:
        lines.append(f"{int(a)},{int(b)},{_fmt(height)},{int(size)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_dendrogram_csv(path) -> Dendrogram:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "a,b,height,size":
        raise ValueError(f"{path} is not a dendrogram CSV")
    merges = np.zeros((len(lines) - 1, 4))
    for t, line in enumerate(lines[1:]):
        a, b, height, size = line.split(",")
        merges[t] = (int(a), int(b), float(height), int(size))
    return Dendrogram(merges=merges, num_leaves=len(merges) + 1)


def write_clusters_csv(path, labels, skill_ids=None) -> None:
    ids = list(skill_ids) if skill_ids is not None else list(range(1, len(labels) + 1))
    lines = ["skill,label"]
    for sid, lab in zip(ids, labels):
        lines.append(f"{sid},{int(lab)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_clusters_csv(path):
    """Returns (skill_ids, labels) as parallel int arrays."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != "skill,label":
        raise ValueError(f"{path} is not a cluster CSV")
    ids = []
    labels = []
    for line in lines[1:]:
        sid, lab = line.split(",")
        ids.append(int(sid))
        labels.append(int(lab))
    return np.array(ids), np.array(labels)


def write_heatmap_csv(path, hm: Heatmap) -> None:
    # Column labels contain commas, so this one goes through a real CSV
    # writer with quoting.
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["skill", *hm.column_labels])
    for sid, row in zip(hm.skill_ids, hm.percent):
        writer.writerow([sid, *[_fmt(x) for x in row]])
    Path(path).write_text(buf.getvalue())


def read_heatmap_csv(path) -> Heatmap:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "skill":
        raise ValueError(f"{path} is not a heatmap CSV")
    labels = tuple(rows[0][1:])
    ids = tuple(int(r[0]) for r in rows[1:])
    percent = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
    return Heatmap(percent=percent, skill_ids=ids, column_labels=labels)
