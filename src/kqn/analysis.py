"""Skill-similarity analysis on learned unit-sphere skill vectors.

Covers pairwise distance matrices, the odds-ratio identity relating
prediction odds to skill distance, agglomerative clustering under seven
linkages with SciPy's algorithms and merges, flat cuts, the Adjusted Rand
Index, Mantel permutation tests, dimensionality sensitivity statistics,
and the per-student knowledge-interaction heatmap, plus the CSV formats
for all of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .model import ModelConfig, Params, batch_arrays, forward_batch
from .ops import sigmoid
from .tables import check_integer, header_line, read_int, read_table, write_table, write_text

DISTANCE_KINDS = ("cosine", "euclidean")
LINKAGES = ("average", "centroid", "complete", "median", "single", "ward", "weighted")


@dataclass(frozen=True)
class DistanceMatrix:
    """Finite, non-negative matrix with zero diagonal, symmetric within
    1e-12: the one check of a distance matrix. values holds the given upper
    triangle mirrored into a new array, so it is symmetric bit for bit and
    every reader sees the same cells in either triangle."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distance matrix entries must be finite")
        if np.max(np.abs(v - v.T), initial=0.0) > 1e-12:
            raise ValueError("distance matrix is not symmetric within 1e-12")
        if np.any(np.diag(v) != 0.0):
            raise ValueError("distance matrix diagonal must be zero")
        if np.any(v < 0):
            raise ValueError("distance matrix entries must be non-negative")
        object.__setattr__(self, "values", np.where(np.tri(len(v), k=-1, dtype=bool), v.T, v))

    @property
    def n(self) -> int:
        return self.values.shape[0]


def off_unit_row(norms) -> Optional[int]:
    """The index of the norm farthest from 1, or of the first nan, when
    one is off by more than 1e-6; None when every norm is unit length."""
    off = np.abs(norms - 1.0)
    if np.all(off <= 1e-6):  # a nan norm fails too
        return None
    return int(np.argmax(off))  # the first nan, if there is one


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
    worst = off_unit_row(norms)
    if worst is not None:
        raise ValueError(
            f"vectors must be unit length; row {worst} has norm {norms[worst]}"
        )
    gram = v @ v.T
    if kind == "cosine":
        out = 1.0 - gram / np.outer(norms, norms)
    else:
        sq = norms[:, None] ** 2 + norms[None, :] ** 2 - 2.0 * gram
        out = np.sqrt(np.maximum(sq, 0.0))
    out = np.maximum(out, 0.0)
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(out)


# ---------------------------------------------------------------------------
# The odds-ratio identity


def odds_ratio_identity(ks, table):
    """Both sides of the squared log odds-ratio identity for every skill
    pair i < j, as condensed arrays in np.triu_indices order.

    lhs goes through the probabilistic route: the log odds of
    sigmoid(table @ ks), differenced per pair and squared. rhs is pure
    geometry: (ks . delta_ij)^2 * d_ij^2, with delta_ij the unit direction
    of s_i - s_j and d_ij their pairwise Euclidean distance. The rows must
    be unit vectors, and then the two sides agree to rounding. A pair of
    (near-)identical rows has no direction, but its distance is 0, so its
    rhs is 0; its lhs is 0 to rounding.
    """
    ks = np.asarray(ks, dtype=float)
    table = np.asarray(table, dtype=float)
    i, j = np.triu_indices(len(table), k=1)
    diff = table[i] - table[j]
    norm = np.linalg.norm(diff, axis=1)
    # log sigmoid(y) - log sigmoid(-y) through the stable log sigmoid(u) =
    # -softplus(-u) = -logaddexp(0, -u), finite for every finite logit.
    y = table @ ks
    log_odds = np.logaddexp(0.0, y) - np.logaddexp(0.0, -y)
    lhs = (log_odds[i] - log_odds[j]) ** 2
    dist = pairwise_distances(table, "euclidean").values[i, j]
    along = np.divide(diff @ ks, norm, out=np.zeros_like(norm), where=norm >= 1e-12)
    rhs = along ** 2 * dist ** 2
    return lhs, rhs


# ---------------------------------------------------------------------------
# Hierarchical clustering


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge list. Row t is (a, b, height, size): cluster ids
    a and b merged into id num_leaves + t of the given size. Leaves are ids
    0..num_leaves-1."""

    merges: np.ndarray

    @property
    def num_leaves(self) -> int:
        return len(self.merges) + 1


@np.errstate(over="ignore", invalid="ignore")
def hcluster(dmat: DistanceMatrix, linkage: str) -> Dendrogram:
    """Agglomerative clustering equal to scipy.cluster.hierarchy.linkage
    bit for bit, ties included, by SciPy's algorithm for each linkage
    (Müllner, arXiv:1109.2378): Prim's minimum spanning tree for single,
    the nearest-neighbour chain for complete, average, weighted and ward,
    and the generic algorithm with a heap of neighbour candidates for
    centroid and median. Distances are updated raw, by SciPy's formulas in
    its operation order, in one n x n matrix whose retired rows and columns
    hold inf; centroid, median and ward read it as Euclidean. Union-find
    labels all merges, the tree's and chain's sorted stably by height first.
    A merge height that overflows to inf or nan raises ValueError.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = dmat.n
    if n < 2:
        raise ValueError(f"need at least 2 points to cluster, got {n}")
    w = np.array(dmat.values, dtype=float)
    np.fill_diagonal(w, np.inf)
    if linkage in ("centroid", "median"):
        rows = _generic_linkage(w, linkage)
    else:
        rows = _prim(w) if linkage == "single" else _nn_chain(w, linkage)
        rows = rows[np.argsort(rows[:, 2], kind="mergesort")]
    a, b, size = np.array(_join(rows[:, :2].astype(int).tolist(), n)[1]).T
    return Dendrogram(np.column_stack([a, b, rows[:, 2], size]))


def _finite_height(dist, linkage: str) -> float:
    if not math.isfinite(dist):
        raise ValueError(f"distances too large for {linkage} linkage: a merge height overflows")
    return float(dist)


def _merge(w, linkage: str, x: int, y: int, dxy: float, sizes) -> None:
    """Merge cluster x into y at distance dxy. x retires (size 0, row and
    column inf), and every retired entry of y's new row and column comes
    out inf. sizes is a float array."""
    nx, ny = int(sizes[x]), int(sizes[y])
    sizes[x], sizes[y] = 0, nx + ny
    dx, dy = w[x], w[y]
    if linkage == "complete":
        new = np.maximum(dx, dy)
    elif linkage == "average":
        new = (nx * dx + ny * dy) / (nx + ny)
    elif linkage == "weighted":
        new = 0.5 * (dx + dy)
    elif linkage == "ward":
        t = 1.0 / (nx + ny + sizes)
        new = np.sqrt((sizes + nx) * t * dx * dx + (sizes + ny) * t * dy * dy
                      - sizes * t * dxy * dxy)
    elif linkage == "centroid":
        new = np.sqrt(((nx * dx * dx + ny * dy * dy) - nx * ny * dxy * dxy / (nx + ny))
                      / (nx + ny))
    else:  # median
        new = np.sqrt(0.5 * (dx * dx + dy * dy) - 0.25 * dxy * dxy)
    w[y] = w[:, y] = new
    w[x] = w[:, x] = np.inf


def _prim(w) -> np.ndarray:
    """Single linkage as Prim's minimum spanning tree grown from leaf 0:
    rows (x, y, height) in the order the tree takes its edges."""
    n = len(w)
    best = np.full(n, np.inf)
    rows = []
    x = 0
    for _ in range(n - 1):
        w[:, x] = np.inf
        np.minimum(best, w[x], out=best)
        best[x] = np.inf
        y = int(best.argmin())
        rows.append((x, y, best[y]))
        x = y
    return np.array(rows)


def _nn_chain(w, linkage: str) -> np.ndarray:
    """The nearest-neighbour chain: rows (x, y, height) in the order of
    their merges. A step keeps the chain's previous cluster unless another
    is strictly nearer; merged x < y leave the new cluster at y."""
    n = len(w)
    sizes = np.ones(n)
    rows = []
    chain = [0]
    for _ in range(n - 1):
        if not chain:
            chain.append(int(sizes.nonzero()[0][0]))
        while True:
            x = chain[-1]
            row = w[x]
            y = int(row.argmin())
            dist = _finite_height(row[y], linkage)
            if len(chain) > 1 and not dist < row[chain[-2]]:
                y = chain[-2]
                dist = float(row[y])
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        rows.append((x, y, dist))
        _merge(w, linkage, x, y, dist, sizes)
    return np.array(rows)


def _generic_linkage(w, linkage: str) -> np.ndarray:
    """The generic algorithm: each cluster x keeps a neighbour candidate
    above it and a lower bound of its distance, in a heap whose least bound
    is re-checked until exact, at most n - k times at merge k. Returns rows
    (x, y, height) in merge order; merged x < y leave the new cluster at y."""
    n = len(w)
    sizes = np.ones(n)
    rows = []

    def nearest(x: int):
        # The first nearest live cluster above x. Cluster n - 1 never
        # retires, so an inf or nan minimum is an overflow.
        row = w[x, x + 1:]
        i = int(row.argmin())
        return x + 1 + i, _finite_height(row[i], linkage)

    neighbor, bound = map(np.array, zip(*map(nearest, range(n - 1))))
    heap = _Heap(bound.tolist())
    for k in range(n - 1):
        for _ in range(n - k):
            x, dist = heap.keys[0], heap.values[0]
            y = int(neighbor[x])
            if dist == w[x, y]:
                break
            neighbor[x], bound[x] = y, dist = nearest(x)
            heap.change(x, dist)
        heap.pop()
        _merge(w, linkage, x, y, dist, sizes)
        rows.append((x, y, dist))
        below = neighbor[:x]
        below[below == x] = y
        column = w[:y, y]
        for z in (column < bound[:y]).nonzero()[0].tolist():
            neighbor[z], bound[z] = y, column[z]
            heap.change(z, float(column[z]))
        if y < n - 1:
            neighbor[y], bound[y] = z, dist = nearest(y)
            heap.change(y, dist)
    return np.array(rows)


class _Heap:
    """SciPy's binary min-heap of the values of keys 0..n-1, least at
    values[0] and keys[0]: built bottom-up, a changed value sifts up if it
    fell and down otherwise, and every comparison is strict."""

    def __init__(self, values: list):
        self.values, self.size = values, len(values)
        self.keys = list(range(self.size))
        self.index = list(range(self.size))
        for i in reversed(range(self.size // 2)):
            self._down(i)

    def pop(self) -> None:
        self.size -= 1
        self.values[0], self.keys[0] = self.values[self.size], self.keys[self.size]
        self._down(0)

    def change(self, key: int, value: float) -> None:
        values, keys, index = self.values, self.keys, self.index
        i = index[key]
        if not value < values[i]:
            values[i] = value
            return self._down(i)
        while i > 0 and values[(i - 1) >> 1] > value:
            parent = (i - 1) >> 1
            values[i], keys[i] = values[parent], keys[parent]
            index[keys[i]] = i
            i = parent
        values[i], keys[i], index[key] = value, key, i

    def _down(self, i: int) -> None:
        values, keys, index = self.values, self.keys, self.index
        value, key = values[i], keys[i]
        child = 2 * i + 1
        while child < self.size:
            if child + 1 < self.size and values[child + 1] < values[child]:
                child += 1
            if not value > values[child]:
                break
            values[i], keys[i] = values[child], keys[child]
            index[keys[i]] = i
            i, child = child, 2 * child + 1
        values[i], keys[i], index[key] = value, key, i


def _join(pairs, leaves: int):
    """Union-find over merge rows: row t joins the clusters holding nodes a
    and b (leaves, or ids below leaves + t) as cluster leaves + t. Returns
    find, which maps a node to its cluster after the last row, and each
    row's (smaller root, larger root, merged size)."""
    parent = list(range(2 * leaves - 1))
    size = [1] * (2 * leaves - 1)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    joined = []
    for t, (a, b) in enumerate(pairs):
        ra, rb = find(a), find(b)
        m = leaves + t
        parent[ra] = parent[rb] = m
        size[m] = size[ra] + size[rb]
        joined.append((min(ra, rb), max(ra, rb), size[m]))
    return find, joined


def flat_clusters(dend: Dendrogram, n: int) -> np.ndarray:
    """Cut to exactly n clusters by undoing the last n-1 merges.

    Labels are 1..n, numbered by each cluster's smallest leaf index.
    """
    leaves = dend.num_leaves
    check_integer(n, "cluster count")
    if not 1 <= n <= leaves:
        raise ValueError(f"cluster count must be in 1..{leaves}, got {n}")
    find, _ = _join(dend.merges[: leaves - n, :2].astype(int).tolist(), leaves)
    roots = [find(leaf) for leaf in range(leaves)]
    _, first, inverse = np.unique(roots, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse] + 1


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


def mantel(d1: DistanceMatrix, d2: DistanceMatrix, permutations=999, rng=None) -> MantelResult:
    """One-sided (greater) Mantel test between two distance matrices.

    rho is the Pearson correlation of the upper triangles; the null
    distribution jointly permutes the second matrix's rows and columns,
    and p = (1 + #{permuted rho >= observed}) / (permutations + 1). A
    permuted upper triangle takes cells from both triangles of d2, which
    DistanceMatrix makes equal bit for bit. The null loop gathers each
    permutation's pairs from a centred copy of d2; neither matrix is
    written. The permutation count, an integer (tables.check_integer) of
    at least 1, is checked before the matrices' point count and upper
    triangles. Each upper triangle, and the centred copy of d2, is divided
    by its largest entry before centring, so rho does not depend on the
    distances' scale and no statistic of finite distances can overflow.
    """
    v1, v2 = d1.values, d2.values
    if v1.shape != v2.shape:
        raise ValueError(f"matrices differ in size: {v1.shape} vs {v2.shape}")
    check_integer(permutations, "permutations")
    if permutations < 1:
        raise ValueError(f"permutations must be positive, got {permutations}")
    n = v1.shape[0]
    if n < 3:
        raise ValueError(f"Mantel test needs at least 3 points, got {n}")
    rng = np.random.default_rng(rng)

    iu = np.triu_indices(n, k=1)
    u1 = v1[iu]
    u2 = v2[iu]
    top1, top2 = u1.max(), u2.max()
    if top1 == 0.0 or top2 == 0.0:
        raise ValueError("constant upper triangle; correlation is undefined")
    u1 /= top1
    u2 /= top2
    mean1, mean2 = u1.mean(), u2.mean()
    c1 = u1 - mean1
    c2 = u2 - mean2
    norm1 = float(np.linalg.norm(c1))
    norm2 = float(np.linalg.norm(c2))
    if norm1 == 0.0 or norm2 == 0.0:
        raise ValueError("constant upper triangle; correlation is undefined")
    scale = norm1 * norm2
    rho = float(c1 @ c2) / scale

    # A joint row/column permutation only reorders the upper-triangle
    # multiset, so the permuted mean and norm equal the originals.
    # Upper-triangle row r holds n-1-r pairs, so the permuted pairs sit at
    # flat indices perm[r]*n + perm[c]: one take per permutation, from d2
    # scaled and centred once. centered.take(idx) equals
    # flat.take(idx) / top2 - mean2 element by element, so every permuted
    # statistic keeps its bits.
    centered = (v2 / top2 - mean2).ravel()
    run = np.arange(n - 1, -1, -1)
    count = 0
    for _ in range(permutations):
        perm = rng.permutation(n)
        idx = np.repeat(perm * n, run)
        idx += perm.take(iu[1])
        if float(c1 @ centered.take(idx)) / scale >= rho:
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
    # One student: the valid cells in row-major order are its steps in order.
    kstates = fwd.knowledge_states
    skill_ids = tuple(np.unique(seq.responses[:, 0]).tolist())
    table = fwd.skill_table
    logits = table[np.array(skill_ids) - 1] @ kstates.T
    percent = 100.0 * sigmoid(logits)
    labels = tuple(f"({s},{c})" for s, c in seq.responses[: kstates.shape[0]].tolist())
    return Heatmap(percent=percent, skill_ids=skill_ids, column_labels=labels)


# ---------------------------------------------------------------------------
# CSV formats (see tables.py)


def _skill_ids(skill_ids, rows: int) -> list:
    """One skill id per row, 1..rows by default; each must be an integer
    (tables.check_integer), as the readers require."""
    ids = list(range(1, rows + 1) if skill_ids is None else skill_ids)
    if len(ids) != rows:
        raise ValueError(f"{len(ids)} skill ids for {rows} rows")
    for sid in ids:
        check_integer(sid, "skill id")
    return ids


def write_distance_csv(path, dmat: DistanceMatrix, skill_ids=None) -> None:
    """Write the full matrix, one row per skill, formatting each unordered
    pair once: DistanceMatrix is symmetric bit for bit, so cell (i, j) and
    cell (j, i) get the same bytes. Row k formats its cells from the
    diagonal rightwards with repr, pops its cells left of the diagonal
    from the earlier rows' pending strings (kept last column first) and is
    written as one joined line; at most n^2/4 strings are held at once."""
    ids = _skill_ids(skill_ids, dmat.n)
    v = dmat.values

    def lines():
        yield header_line(["skill", *ids])
        pending = []
        for k, sid in enumerate(ids):
            right = list(map(repr, v[k, k:].tolist()))
            left = map(list.pop, pending)
            line = ",".join([str(sid), *left, *right]) + "\n"
            pending.append(right[:0:-1])
            yield line

    write_text(path, lines())


def read_distance_csv(path):
    """Returns (DistanceMatrix, skill_ids)."""
    header, ids, values = read_table(path, "distance", ("skill", ...))
    try:
        header_ids = [read_int(c) for c in header[1:]]
    except ValueError as exc:
        raise ValueError(f"{path} line 1: {exc}") from exc
    if ids != header_ids:
        raise ValueError(f"{path}: row skill ids differ from the header's")
    try:
        return DistanceMatrix(values), ids
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_dendrogram_csv(path, dend: Dendrogram) -> None:
    rows = ((int(a), int(b), h, int(size)) for a, b, h, size in dend.merges.tolist())
    write_table(path, ("a", "b", "height", "size"), rows)


def read_dendrogram_csv(path) -> Dendrogram:
    _, a, rest = read_table(path, "dendrogram", ("a", "b", "height", "size"))
    return Dendrogram(np.column_stack([a, rest]))


def write_clusters_csv(path, labels, skill_ids=None) -> None:
    """Each label, like each id, must be an integer (tables.check_integer);
    both are checked before anything is written."""
    ids = _skill_ids(skill_ids, len(labels))
    for label in labels:
        check_integer(label, "cluster label")
    write_table(path, ("skill", "label"), zip(ids, labels))


def read_clusters_csv(path):
    """Returns (skill_ids, labels) as parallel int arrays."""
    _, ids, labels = read_table(path, "cluster", ("skill", "label"), dtype=int)
    return np.array(ids), labels[:, 0]


def write_heatmap_csv(path, hm: Heatmap) -> None:
    rows = ([sid, *row] for sid, row in zip(hm.skill_ids, hm.percent.tolist()))
    write_table(path, ("skill", *hm.column_labels), rows)


def read_heatmap_csv(path) -> Heatmap:
    header, ids, percent = read_table(path, "heatmap", ("skill", ...))
    return Heatmap(percent=percent, skill_ids=tuple(ids), column_labels=tuple(header[1:]))
