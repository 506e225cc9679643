"""Skill-similarity analysis on learned unit-sphere skill vectors.

Covers pairwise distance matrices, the odds-ratio identity relating
prediction odds to skill distance, agglomerative clustering under seven
linkages via the Lance-Williams recurrence, flat cuts, the Adjusted Rand
Index, Mantel permutation tests, dimensionality sensitivity statistics,
and the per-student knowledge-interaction heatmap, plus the CSV formats
for all of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import ModelConfig, Params, batch_arrays, forward_batch
from .ops import sigmoid
from .tables import read_table, write_table

DISTANCE_KINDS = ("cosine", "euclidean")
LINKAGES = ("average", "centroid", "complete", "median", "single", "ward", "weighted")
# Linkages whose recurrence operates on squared Euclidean distances.
_SQUARED_LINKAGES = ("centroid", "median", "ward")


@dataclass(frozen=True)
class DistanceMatrix:
    """Finite, symmetric, non-negative matrix with zero diagonal."""

    kind: str
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.kind not in DISTANCE_KINDS:
            raise ValueError(f"kind must be one of {DISTANCE_KINDS}, got {self.kind!r}")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("distance matrix entries must be finite")
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
    off = np.abs(norms - 1.0)
    if not np.all(off <= 1e-6):  # a nan norm fails too
        worst = int(np.argmax(off))  # the first nan, if there is one
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
    # log sigmoid(y) - log sigmoid(-y) through the stable log sigmoid(u) =
    # -softplus(-u) = -logaddexp(0, -u), finite for every finite logit.
    y = table @ ks
    log_odds = np.logaddexp(0.0, y) - np.logaddexp(0.0, -y)
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


@np.errstate(over="ignore", invalid="ignore")
def hcluster(dmat: DistanceMatrix, linkage: str) -> Dendrogram:
    """Agglomerative clustering via the Lance-Williams recurrence.

    single/complete/average/weighted update raw distances; centroid,
    median and ward run on squared distances (the matrix is interpreted
    as Euclidean) with recorded heights square-rooted.

    The distances live in one matrix updated in place: a merged cluster
    takes the slot of its lower-slot member and the other slot is retired
    to inf, so slots stay in the order of each cluster's smallest leaf
    index. Once the live clusters number at most 3/4 of the matrix side,
    their rows and columns are copied, in slot order, into a smaller
    matrix (sizes and ids follow), so each merge's argmin scans a matrix
    that shrinks geometrically instead of all n^2 cells. Ties in the merge
    choice resolve to the first pair of slots in row-major upper-triangle
    order, which compaction keeps.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"linkage must be one of {LINKAGES}, got {linkage!r}")
    n = dmat.n
    if n < 2:
        raise ValueError(f"need at least 2 points to cluster, got {n}")
    squared = linkage in _SQUARED_LINKAGES

    w = np.array(dmat.values ** 2 if squared else dmat.values, dtype=float)
    np.fill_diagonal(w, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=int)
    ids = np.arange(n)
    merges = np.zeros((n - 1, 4))

    for step in range(n - 1):
        live = n - step
        if 4 * live <= 3 * len(w):
            keep = np.flatnonzero(active)
            w = w[np.ix_(keep, keep)]
            sizes, ids, active = sizes[keep], ids[keep], np.ones(live, dtype=bool)
        # w is symmetric, so the first minimum lies in the upper triangle.
        i, j = divmod(int(np.argmin(w)), len(w))
        dij = w[i, j]
        ni, nj = int(sizes[i]), int(sizes[j])
        active[i] = active[j] = False
        others = np.flatnonzero(active)
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

        w[i, others] = w[others, i] = dkm
        w[j, :] = w[:, j] = np.inf
        active[i] = True
        sizes[i] = ni + nj
        height = float(np.sqrt(max(dij, 0.0))) if squared else float(dij)
        merges[step] = (min(ids[i], ids[j]), max(ids[i], ids[j]), height, ni + nj)
        ids[i] = n + step

    # Under the errstate, distances too large for the linkage end as an inf or nan height.
    if not np.all(np.isfinite(merges[:, 2])):
        raise ValueError(f"distances too large for {linkage} linkage: a merge height overflows")

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
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} entries must be finite")
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
    # Upper-triangle row r holds n-1-r pairs, so the permuted pairs sit at
    # flat indices perm[r]*n + perm[c]: one take per permutation.
    mean2 = u2.mean()
    flat = v2.ravel()
    run = np.arange(n - 1, -1, -1)
    count = 0
    for _ in range(permutations):
        perm = rng.permutation(n)
        pu2 = flat.take(np.repeat(perm * n, run) + perm[iu[1]])
        pu2 -= mean2
        rho_p = float(c1 @ pu2) / (norm1 * norm2)
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
# CSV formats (see tables.py)


def write_distance_csv(path, dmat: DistanceMatrix, skill_ids=None) -> None:
    """Write the full matrix, one row per skill, formatting each unordered
    pair once. The matrix must be symmetric bit for bit (pairwise_distances
    makes it so; a 0.0 facing a -0.0 is refused too), so cell (i, j) and
    cell (j, i) get the same bytes. Row k formats its cells from the
    diagonal rightwards and hands the ones right of the diagonal down: each
    later row pops its cell in column k from row k's pending strings, kept
    last column first. Only the pending strings are held, at most n^2/4 of
    them, never the whole table of strings."""
    ids = list(skill_ids) if skill_ids is not None else list(range(1, dmat.n + 1))
    if len(ids) != dmat.n:
        raise ValueError(f"{len(ids)} skill ids for a {dmat.n}x{dmat.n} matrix")
    v = dmat.values
    if not np.array_equal(v.view(np.uint64), v.T.view(np.uint64)):
        raise ValueError("distance matrix is not exactly symmetric")

    def rows():
        pending = []
        for k, sid in enumerate(ids):
            cells = list(map(str, v[k, k:].tolist()))
            left = [strings.pop() for strings in pending]
            pending.append(cells[:0:-1])
            yield [sid, *left, *cells]

    write_table(path, ["skill", *ids], rows())


def read_distance_csv(path, kind: str = "euclidean"):
    """Returns (DistanceMatrix, skill_ids)."""
    header, ids, values = read_table(path, "distance", ("skill", ...))
    if ids != [int(c) for c in header[1:]]:
        raise ValueError(f"{path}: row skill ids differ from the header's")
    try:
        return DistanceMatrix(kind=kind, values=values), ids
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_dendrogram_csv(path, dend: Dendrogram) -> None:
    rows = ((int(a), int(b), h, int(size)) for a, b, h, size in dend.merges.tolist())
    write_table(path, ("a", "b", "height", "size"), rows)


def read_dendrogram_csv(path) -> Dendrogram:
    _, a, rest = read_table(path, "dendrogram", ("a", "b", "height", "size"))
    return Dendrogram(merges=np.column_stack([a, rest]), num_leaves=len(a) + 1)


def write_clusters_csv(path, labels, skill_ids=None) -> None:
    ids = list(skill_ids) if skill_ids is not None else list(range(1, len(labels) + 1))
    write_table(path, ("skill", "label"), ((sid, int(lab)) for sid, lab in zip(ids, labels)))


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
