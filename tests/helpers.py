"""Shared oracles and finite-difference machinery.

Every oracle here is an independent re-derivation of the quantity under
test (pair counting for AUC, contingency tables for ARI, Prim's MST for
single linkage, explicit loops elsewhere). Tests compare the fast library
implementations against these.
"""

import numpy as np

# ---------------------------------------------------------------------------
# Finite differences


def finite_diff(f, x, eps=1e-5):
    """Central-difference gradient of scalar f(x), elementwise.

    Works on a private copy of x; f receives the perturbed copy."""
    x = np.array(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def max_rel_err(numeric, analytic, floor=1e-6):
    """Max elementwise |num - ana| / max(floor, |num|, |ana|)."""
    numeric = np.asarray(numeric, dtype=float)
    analytic = np.asarray(analytic, dtype=float)
    denom = np.maximum(floor, np.maximum(np.abs(numeric), np.abs(analytic)))
    return float(np.max(np.abs(numeric - analytic) / denom))


# ---------------------------------------------------------------------------
# Single-vector unit normalization: the oracle for ops.l2_normalize_rows and
# its backward pass


def l2_normalize(v):
    """v / ||v||; degenerate inputs (||v|| < NORM_EPS) map to the uniform
    positive unit vector."""
    from kqn.ops import NORM_EPS

    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < NORM_EPS:
        return np.full(v.shape, 1.0 / np.sqrt(v.size))
    return v / n


def l2_normalize_backward(dout, v):
    """Chain rule through l2_normalize; zero on the degenerate branch."""
    from kqn.ops import NORM_EPS

    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n < NORM_EPS:
        return np.zeros_like(v)
    s = v / n
    return (dout - s * float(s @ dout)) / n


# ---------------------------------------------------------------------------
# Shared gradient-check instance: two short sequences, tiny dims, dropout
# off. The init seed is chosen so every skill-MLP pre-activation magnitude
# exceeds 1e-3 and every pre-normalization row norm exceeds 1e-2 for both
# cell kinds; relu and the normalizer's uniform fallback both have kinks
# with exact-zero subgradients, and central differences at eps=1e-5 must
# stay on one side of them. The tests assert these margins.

GRAD_CHECK_DATA_SEED = 3
GRAD_CHECK_INIT_SEED = 5
GRAD_CHECK_EPS = 1e-5
GRAD_CHECK_FLOOR = 1e-3


def gradient_check_setup(rnn_kind):
    from kqn.data import ResponseSequence
    from kqn.model import ModelConfig, batch_arrays, init_params

    config = ModelConfig(
        num_skills=5, dim=4, rnn_kind=rnn_kind, rnn_hidden=6, mlp_hidden=6, keep_prob=1.0
    )
    rng = np.random.default_rng(GRAD_CHECK_DATA_SEED)
    seqs = []
    for sid, steps in ((1, 8), (2, 6)):
        resp = tuple(
            (int(rng.integers(1, 6)), int(rng.integers(0, 2)))
            for _ in range(steps)
        )
        seqs.append(ResponseSequence(student_id=sid, responses=resp))
    arrays = batch_arrays(seqs)
    params = init_params(config, np.random.default_rng(GRAD_CHECK_INIT_SEED))
    return config, params, arrays


def assert_gradient_margins(params):
    from kqn.model import encode_skill_table

    _, cache = encode_skill_table(params)
    assert min(np.min(np.abs(cache["z0"])), np.min(np.abs(cache["z1"]))) > 1e-3
    assert np.min(cache["norms"]) > 1e-2


def kqn_gradient_errors(rnn_kind):
    """Max relative FD error per parameter name, at the frozen instance."""
    from kqn.model import backward_batch, forward_batch

    config, params, (skills, corrects, lengths) = gradient_check_setup(rnn_kind)
    assert_gradient_margins(params)

    def loss(p):
        return forward_batch(skills, corrects, lengths, p, config, mode="eval").loss_sum()

    fwd = forward_batch(skills, corrects, lengths, params, config, mode="train")
    grads = backward_batch(fwd, params, config)
    errors = {}
    for key in sorted(params):
        def loss_with(arr, k=key):
            p2 = dict(params)
            p2[k] = arr
            return loss(p2)

        numeric = finite_diff(loss_with, params[key], GRAD_CHECK_EPS)
        errors[key] = max_rel_err(numeric, grads[key], floor=GRAD_CHECK_FLOOR)
    return errors


# ---------------------------------------------------------------------------
# Step-at-a-time reference for the packed scan: every step runs on the whole
# padded batch, finished students getting a zero input, the input projection
# is the dense product x @ wx.T, every head runs inside the time loop on all
# B cells of its step, one dropout mask is drawn per step for the rows still
# running and every gradient is accumulated step by step, rnn_wx's as the
# dense dpre.T @ x. The packed path keeps the per-cell arithmetic (its
# one-hot gather equals the dense product bit for bit), so on the
# tests' batches probabilities on valid cells agree bit for bit (a product
# over one or two rows can take another BLAS kernel and differ in the last
# bit). Its weight gradients sum over the running rows and valid cells only,
# in another order, so they agree to a relative SCAN_GRAD_RTOL.

SCAN_GRAD_RTOL = 1e-13


def reference_step_loop(model, params, skills, corrects, lengths, rng):
    """Train-mode (probs, grads) of a KqnModel or DktModel, one step at a
    time."""
    from kqn.model import OneHotInputs, encode_skill_table, gru_cell, gru_cell_backward
    from kqn.model import lstm_cell, lstm_cell_backward, skill_table_backward
    from kqn.ops import dropout_mask, sigmoid

    cfg = model.config
    kqn = model.name == "kqn"
    kind = cfg.rnn_kind if kqn else "lstm"
    inputs = (
        OneHotInputs(skills, corrects, cfg.num_skills) if kqn
        else model.step_inputs(params, skills, corrects)
    )
    bsz, hh = len(lengths), params["rnn_wh"].shape[1]
    s_steps = int(lengths.max()) - 1
    table, skill_cache = encode_skill_table(params) if kqn else (None, None)
    wx, wh, b = params["rnn_wx"], params["rnn_wh"], params["rnn_b"]
    h, c = np.zeros((bsz, hh)), np.zeros((bsz, hh))
    probs = np.zeros((s_steps, bsz))
    steps = []
    for j in range(s_steps):
        rows = np.flatnonzero(j < lengths - 1)
        x = np.zeros((bsz, wx.shape[1]))
        x[rows] = inputs.x(j, rows)
        if kind == "lstm":
            h, c, cell = lstm_cell(x @ wx.T, h, c, wh, b)
        else:
            h, cell = gru_cell(x @ wx.T, h, wh, b)
        # Dropout draws only the running rows, in batch order.
        mask = np.zeros((bsz, hh))
        mask[rows] = dropout_mask((len(rows), hh), cfg.keep_prob, rng)
        hd = h * mask
        q = skills[:, j + 1]
        if kqn:
            ks = hd @ params["proj_w"].T + params["proj_b"]
            y = np.sum(ks * table[q - 1], axis=1)
        else:
            ks = None
            y = np.einsum("bh,bh->b", hd, params["out_w"][q - 1]) + params["out_b"][q - 1]
        probs[j] = sigmoid(y)
        steps.append((cell, x, mask, hd, q, ks))

    targets = corrects[:, 1:].T
    valid = np.arange(s_steps)[:, None] < lengths - 1
    dy = np.where(valid, probs - targets, 0.0)
    # A hybrid DKT model's skill_table is frozen: it gets no gradient.
    grads = {k: np.zeros_like(v) for k, v in params.items() if k != "skill_table"}
    d_table = np.zeros_like(table) if kqn else None
    dh_rec, dc_rec = np.zeros((bsz, hh)), np.zeros((bsz, hh))
    for j in reversed(range(s_steps)):
        cell, x, mask, hd, q, ks = steps[j]
        dyj = dy[j][:, None]
        if kqn:
            dks = dyj * table[q - 1]
            np.add.at(d_table, q - 1, dyj * ks)
            grads["proj_w"] += dks.T @ hd
            grads["proj_b"] += dks.sum(axis=0)
            dhd = dks @ params["proj_w"]
        else:
            np.add.at(grads["out_w"], q - 1, dyj * hd)
            np.add.at(grads["out_b"], q - 1, dy[j])
            dhd = dyj * params["out_w"][q - 1]
        dh = dhd * mask + dh_rec
        if kind == "lstm":
            dh_rec, dc_rec, dpre, dwh, db = lstm_cell_backward(dh, dc_rec, cell, wh)
        else:
            dh_rec, dpre, dwh, db = gru_cell_backward(dh, cell, wh)
        grads["rnn_wx"] += dpre.T @ x
        grads["rnn_wh"] += dwh
        grads["rnn_b"] += db
    if kqn:
        grads.update(skill_table_backward(d_table, skill_cache, params))
    return probs, grads


def assert_matches_step_loop(model, params, arrays, seed):
    """A train-mode forward and backward of model on the batch arrays
    against reference_step_loop, both drawing dropout from seed:
    probabilities bit for bit on valid cells, and each gradient within
    SCAN_GRAD_RTOL of the reference's largest entry."""
    fwd = model.forward(params, *arrays, mode="train", rng=np.random.default_rng(seed))
    grads = model.backward(params, fwd)
    probs, ref = reference_step_loop(model, params, *arrays, np.random.default_rng(seed))
    assert fwd.probs[fwd.valid].tobytes() == probs[fwd.valid].tobytes()
    assert set(grads) == set(ref)
    for key in ref:
        scale = np.max(np.abs(ref[key]))
        assert np.max(np.abs(grads[key] - ref[key])) <= SCAN_GRAD_RTOL * scale, key


# ---------------------------------------------------------------------------
# Response logs: the per-response padding loop that batch_arrays replaced,
# kept as its oracle, and comparisons for array-valued sequences


def batch_arrays_loop(sequences):
    """(skills, corrects, lengths) padded one response at a time; padded
    cells hold skill 1 / correct 0."""
    lengths = np.array([len(seq.responses) for seq in sequences], dtype=int)
    t_max = int(lengths.max()) if len(lengths) else 0
    skills = np.ones((len(sequences), t_max), dtype=int)
    corrects = np.zeros((len(sequences), t_max), dtype=int)
    for b, seq in enumerate(sequences):
        for t, (skill, correct) in enumerate(seq.responses.tolist()):
            skills[b, t] = skill
            corrects[b, t] = correct
    return skills, corrects, lengths


def pairs(seq):
    """A sequence's responses as a hashable tuple of (skill, correct)."""
    return tuple(map(tuple, seq.responses.tolist()))


def assert_same_sequences(a, b):
    assert [s.student_id for s in a] == [s.student_id for s in b]
    assert [pairs(s) for s in a] == [pairs(s) for s in b]


# ---------------------------------------------------------------------------
# Model-free concept recovery: how much concept structure the response data
# carry, clustered exactly as criterion 5 clusters the learned vectors


def residual_concept_ari(sequences, concepts, num_skills, n_clusters=5):
    """ARI of the concept labels against skills clustered by residual
    correlation.

    Each student's residual on a skill is their mean of (correct minus the
    skill's base rate over all the sequences), 0 for an unseen skill. Skills
    are correlated across students; 1 - r (the cosine distance of the
    centred residual columns) is cut at n_clusters by average linkage.
    """
    from kqn.analysis import DistanceMatrix, ari, flat_clusters, hcluster

    responses = np.concatenate([seq.responses for seq in sequences])
    seen = np.bincount(responses[:, 0], minlength=num_skills + 1)[1:]
    right = np.bincount(responses[:, 0], weights=responses[:, 1], minlength=num_skills + 1)[1:]
    base_rate = right / np.maximum(seen, 1)
    residuals = np.zeros((len(sequences), num_skills))
    for i, seq in enumerate(sequences):
        skills, corrects = seq.responses.T
        residual = corrects - base_rate[skills - 1]
        count = np.bincount(skills - 1, minlength=num_skills)
        total = np.bincount(skills - 1, weights=residual, minlength=num_skills)
        residuals[i] = total / np.maximum(count, 1)
    dist = 1.0 - np.corrcoef(residuals.T)
    dist = 0.5 * (dist + dist.T)
    np.fill_diagonal(dist, 0.0)
    labels = flat_clusters(hcluster(DistanceMatrix("cosine", dist), "average"), n_clusters)
    truth = np.array([concepts[e] for e in range(1, num_skills + 1)])
    return ari(labels, truth)


# ---------------------------------------------------------------------------
# AUC oracle: all-pairs counting with half credit for score ties


def auc_pairs(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes")
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# ARI oracle: contingency table + comb2, straight from the definition


def _comb2(k):
    return k * (k - 1) / 2.0


def ari_contingency(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    ua = sorted(set(a.tolist()))
    ub = sorted(set(b.tolist()))
    table = np.zeros((len(ua), len(ub)))
    for i, x in enumerate(ua):
        for j, y in enumerate(ub):
            table[i, j] = np.sum((a == x) & (b == y))
    sum_cells = sum(_comb2(int(n)) for n in table.reshape(-1))
    sum_rows = sum(_comb2(int(n)) for n in table.sum(axis=1))
    sum_cols = sum(_comb2(int(n)) for n in table.sum(axis=0))
    total = _comb2(len(a))
    expected = sum_rows * sum_cols / total
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


# ---------------------------------------------------------------------------
# Single-linkage oracle: sorted MST edge weights equal sorted merge heights


def mst_edge_weights(dist):
    dist = np.asarray(dist, dtype=float)
    n = dist.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = dist[0].copy()
    weights = []
    for _ in range(n - 1):
        best_masked = np.where(in_tree, np.inf, best)
        j = int(np.argmin(best_masked))
        weights.append(best_masked[j])
        in_tree[j] = True
        best = np.minimum(best, dist[j])
    return np.sort(np.array(weights))


# ---------------------------------------------------------------------------
# Lance-Williams reference: a (2n-1)-square matrix with one row per cluster
# id, where every merge copies out the active submatrix and scans its upper
# triangle in id order, or, with tie_order="leaf", in the order of each
# cluster's smallest leaf. The in-place hcluster keeps this arithmetic, so on
# tie-free inputs the merge lists agree bit for bit, and with
# tie_order="leaf" they agree on ties too.


def reference_hcluster(dmat, linkage, tie_order="id"):
    """Merge rows (a, b, height, size) of agglomerative clustering."""
    n = dmat.n
    squared = linkage in ("centroid", "median", "ward")
    total = 2 * n - 1
    w = np.full((total, total), np.inf)
    w[:n, :n] = dmat.values ** 2 if squared else dmat.values
    np.fill_diagonal(w, np.inf)
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    sizes = np.ones(total, dtype=int)
    first_leaf = np.arange(total)
    merges = np.zeros((n - 1, 4))
    for step in range(n - 1):
        idx = np.flatnonzero(active)
        if tie_order == "leaf":
            idx = idx[np.argsort(first_leaf[idx])]
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
        first_leaf[m] = min(first_leaf[i], first_leaf[j])
        height = float(np.sqrt(max(dij, 0.0))) if squared else float(dij)
        merges[step] = (min(i, j), max(i, j), height, ni + nj)
    return merges


# ---------------------------------------------------------------------------
# Mantel reference: each null draw permutes the full second matrix and reads
# its upper triangle, from the same generator stream as kqn.analysis.mantel.


def reference_mantel(d1, d2, permutations, seed):
    """(rho, p_value) of the one-sided Mantel test."""
    n = len(d1)
    iu = np.triu_indices(n, k=1)
    c1 = d1[iu] - d1[iu].mean()
    c2 = d2[iu] - d2[iu].mean()
    scale = float(np.linalg.norm(c1)) * float(np.linalg.norm(c2))
    rho = float(c1 @ c2) / scale
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(permutations):
        perm = rng.permutation(n)
        count += float(c1 @ (d2[np.ix_(perm, perm)][iu] - d2[iu].mean())) / scale >= rho
    return rho, (1.0 + count) / (permutations + 1.0)


# ---------------------------------------------------------------------------
# Random synthetic-style distance matrices and unit vectors


def random_distance_matrix(n, rng):
    pts = rng.normal(size=(n, 3))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return d


def random_unit_vectors(n, dim, rng):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
