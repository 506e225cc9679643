"""Shared oracles and finite-difference machinery.

Every oracle here is an independent re-derivation of the quantity under
test (pair counting for AUC, contingency tables for ARI, Prim's MST for
single linkage, explicit loops elsewhere). Tests compare the fast library
implementations against these.
"""

import re
import tracemalloc

import numpy as np

from kqn.data import Dataset, ResponseSequence

# ---------------------------------------------------------------------------
# Memory


def traced_peak(fn):
    """The peak of the memory that tracemalloc traces while fn() runs, in
    bytes: what fn allocates, counted from zero at its start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
# Dense step inputs: the oracle for the response rows and the input-rows
# matrix that scan gathers from


def dense_inputs(model, params, skills, corrects):
    """(B, T, D) step input of every response of a KqnModel or DktModel,
    set cell by cell. One-hot (KQN, one-hot DKT): 2N entries, position
    skill-1 flagging a wrong answer and skill-1+N a correct one. Hybrid
    DKT: a correctness block (the flag, or -1/+1 when signed, at index
    skill-1) followed by the skill's row of params["skill_table"]."""
    cfg = model.config
    n = cfg.num_skills
    hybrid = model.name == "dkt" and cfg.input_mode == "hybrid"
    table = params["skill_table"] if hybrid else None
    bsz, t_max = skills.shape
    x = np.zeros((bsz, t_max, n + table.shape[1] if hybrid else 2 * n))
    for b in range(bsz):
        for t in range(t_max):
            e, c = int(skills[b, t]), int(corrects[b, t])
            if not hybrid:
                x[b, t, e - 1 + c * n] = 1.0
                continue
            x[b, t, e - 1] = 2 * c - 1 if cfg.hybrid_encoding == "signed" else c
            x[b, t, n:] = table[e - 1]
    return x


def traced_scan(params, hot, lengths, inputs=None, seed=0):
    """An LSTM's scan and scan_backward in train mode, keep_prob 1 and a
    random gradient on hv (in scan's packed order), with spies on the
    cell. Returns, per step, the running rows (longest first, a stable
    sort), the input projection the cell took, unfolded (fold_gates'
    halving undone, exactly), and the dpre its backward gave, then
    rnn_wx's gradient."""
    import pytest

    import kqn.model
    from kqn.model import lstm_cell, lstm_cell_backward, scan, scan_backward, scan_operands

    taken, dpres = [], []

    def cell(a, h_prev, c_prev, wh, b, scale, offset, out=None):
        taken.append(a / scale)
        return lstm_cell(a, h_prev, c_prev, wh, b, scale, offset, out=out)

    def cell_backward(*args):
        out = lstm_cell_backward(*args)
        dpres.append(out[2])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kqn.model, "lstm_cell", cell)
        mp.setattr(kqn.model, "lstm_cell_backward", cell_backward)
        operands = scan_operands(params, "lstm", inputs)
        hv, valid, cache = scan(operands, hot, lengths, 1.0, "train", None)
        grads = scan_backward(np.random.default_rng(seed).normal(size=hv.shape), cache, params)
    order = np.argsort(-lengths, kind="stable")
    rows = [order[:k] for k in valid.sum(axis=1)]
    return rows, taken, dpres[::-1], grads["rnn_wx"]


# ---------------------------------------------------------------------------
# Reference recurrent cells: the unfolded kernels, one gate at a time, kept
# verbatim as the bit-exact oracle of model.py's stacked-gate kernels. They
# take a, wh and b unfolded, wh being the (G*H, H) recurrent weight; scan
# gave them wh as the .T view of its C-contiguous transpose. The folded_*
# wrappers run the model's forward cells on the same unfolded operands,
# folded by model.fold_gates as scan folds them.


def folded_lstm_cell(a, h_prev, c_prev, wh, b):
    from kqn.model import fold_gates, lstm_cell

    a = np.array(a)
    operands = fold_gates("lstm", a, wh, b)
    return lstm_cell(a, h_prev, c_prev, *operands)


def folded_gru_cell(a, h_prev, wh, b):
    from kqn.model import fold_gates, gru_cell

    a = np.array(a)
    operands = fold_gates("gru", a, wh, b)
    return gru_cell(a, h_prev, *operands)


def reference_gate(u):
    """The logistic function as 0.5 + 0.5*tanh(u/2), one transcendental per
    entry: in [0, 1] and within 2**-52 of ops.sigmoid (exactly 0 below
    about -38). The probabilities, which AUC ranks, keep ops.sigmoid."""
    t = np.tanh(0.5 * u)
    t *= 0.5
    t += 0.5
    return t


def reference_lstm_cell(a, h_prev, c_prev, wh, b):
    """One LSTM step. Gate order along the stacked axis is i, f, g, o."""
    hh = h_prev.shape[1]
    pre = a + h_prev @ wh.T + b
    i_f = reference_gate(pre[:, : 2 * hh])
    i, f = i_f[:, :hh], i_f[:, hh:]
    g = np.tanh(pre[:, 2 * hh : 3 * hh])
    o = reference_gate(pre[:, 3 * hh :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    cache = (h_prev, c_prev, i, f, g, o, c)
    return h, c, cache


def reference_lstm_cell_backward(dh, dc_next, cache, wh):
    """Backward through one LSTM step.

    Returns (dh_prev, dc_prev, dpre, dwh, db), dpre being the gradient on
    the input projection a. dh is the gradient arriving at h from this
    step's output, dc_next the one arriving at c from the following step.
    """
    h_prev, c_prev, i, f, g, o, c = cache
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
    dwh = dpre.T @ h_prev
    db = dpre.sum(axis=0)
    dh_prev = dpre @ wh
    return dh_prev, dc_prev, dpre, dwh, db


def reference_gru_cell(a, h_prev, wh, b):
    """One GRU step, candidate gated as tanh(Wx + U(r*h_prev)).

    Gate order along the stacked axis is r, z, n, and the new state is
    z*h_prev + (1-z)*n.
    """
    hh = h_prev.shape[1]
    a = a + b
    r = reference_gate(a[:, :hh] + h_prev @ wh[:hh].T)
    z = reference_gate(a[:, hh : 2 * hh] + h_prev @ wh[hh : 2 * hh].T)
    rh = r * h_prev
    n = np.tanh(a[:, 2 * hh :] + rh @ wh[2 * hh :].T)
    h = z * h_prev + (1.0 - z) * n
    cache = (h_prev, r, z, n)
    return h, cache


def reference_gru_cell_backward(dh, cache, wh):
    """Backward through one GRU step. Returns (dh_prev, dpre, dwh, db),
    dpre being the gradient on the input projection a."""
    h_prev, r, z, n = cache
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
    dwh = np.concatenate([dwh_r, dwh_z, dwh_n], axis=0)
    db = dpre.sum(axis=0)
    return dh_prev, dpre, dwh, db


# ---------------------------------------------------------------------------
# Step-at-a-time reference for the packed scan: every step runs on the whole
# padded batch, finished students getting a zero input, the input projection
# is the dense product x @ wx.T, every head runs inside the time loop on all
# B cells of its step, one dropout mask is drawn per step for the rows still
# running and every gradient is accumulated step by step, rnn_wx's as the
# dense dpre.T @ x, x coming from dense_inputs. The packed path gathers
# each step's projection from one product over the 2N input rows (for
# one-hot, rnn_wx.T itself, equal to the dense product bit for bit), so on
# the tests' batches probabilities on valid cells agree bit for bit (a
# product over another row count can take another BLAS kernel and differ
# in the last bit). Its weight gradients sum over the running rows and valid cells only,
# in another order, so they agree to a relative SCAN_GRAD_RTOL.

SCAN_GRAD_RTOL = 1e-13


def reference_step_loop(model, params, skills, corrects, lengths, rng):
    """Train-mode (probs, grads) of a KqnModel or DktModel, one step at a
    time."""
    from kqn.model import encode_skill_table, skill_table_backward
    from kqn.ops import dropout_mask, sigmoid

    cfg = model.config
    kqn = model.name == "kqn"
    kind = cfg.rnn_kind if kqn else "lstm"
    inputs = dense_inputs(model, params, skills, corrects)
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
        x[rows] = inputs[rows, j]
        if kind == "lstm":
            h, c, cell = reference_lstm_cell(x @ wx.T, h, c, wh, b)
        else:
            h, cell = reference_gru_cell(x @ wx.T, h, wh, b)
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
            dh_rec, dc_rec, dpre, dwh, db = reference_lstm_cell_backward(dh, dc_rec, cell, wh)
        else:
            dh_rec, dpre, dwh, db = reference_gru_cell_backward(dh, cell, wh)
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


def reference_evaluate(model, params, sequences):
    """training.evaluate's (auc, mean_loss, n_trials), scoring each student
    of 2 or more responses alone, in input order, through model.forward,
    and reducing the loss once over every trial in that order."""
    from kqn.metrics import auc_scores, binary_cross_entropy
    from kqn.model import batch_arrays

    scored = []
    for seq in sequences:
        if len(seq.responses) >= 2:
            fwd = model.forward(params, *batch_arrays([seq]), mode="eval")
            scored.append([a[:, 0] for a in (fwd.logits, fwd.probs, fwd.targets)])
    y, p, c = map(np.concatenate, zip(*scored))
    loss = float(np.sum(binary_cross_entropy(y, c)))
    return auc_scores(p, c), loss / len(p), len(p)


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


# The per-token parser that parse_triplets' array conversion replaced,
# kept as its oracle: same arrays and num_skills on every accepted text,
# same first error on every refused one. A count or token is an optional
# sign and ASCII digits within spaces or tabs, the rule of tables.INT_TOKEN
# restated here character by character.


def _reference_int(text: str) -> int:
    body = text.strip(" \t")
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(body)


def _reference_split_ints(line: str, lineno: int, what: str) -> list[int]:
    # Tolerate trailing separators, blank tokens and spaces or tabs around
    # tokens.
    tokens = [tok.strip(" \t") for tok in line.split(",")]
    tokens = [tok for tok in tokens if tok != ""]
    out = []
    for tok in tokens:
        try:
            out.append(_reference_int(tok))
        except ValueError:
            raise ValueError(f"line {lineno}: {what} token {tok!r} is not an integer")
    return out


def reference_parse_triplets(text: str, name: str = "dataset") -> Dataset:
    """Parse triplet text into a Dataset, keeping skill ids as written.

    num_skills is the largest id. Lines end at LF, CRLF or CR, and a line
    of only spaces and tabs is blank. A malformed record (bad count,
    length mismatch, non-positive skill id, correctness flag outside
    {0, 1}) raises with the offending line number.
    """
    lines = re.split(r"\r\n|\r|\n", text)
    if lines[-1] == "":
        del lines[-1]
    sequences = []
    idx = 0
    while idx < len(lines):
        if lines[idx].strip(" \t") == "":
            idx += 1
            continue
        lineno = idx + 1
        try:
            t = _reference_int(lines[idx].strip(" \t").rstrip(","))
        except ValueError:
            raise ValueError(f"line {lineno}: expected a response count, got {lines[idx]!r}")
        if t <= 0:
            raise ValueError(f"line {lineno}: response count must be positive, got {t}")
        if idx + 2 >= len(lines):
            raise ValueError(f"line {lineno}: record is truncated")
        skills = _reference_split_ints(lines[idx + 1], lineno + 1, "skill")
        corrects = _reference_split_ints(lines[idx + 2], lineno + 2, "correctness")
        if len(skills) != t:
            raise ValueError(
                f"line {lineno + 1}: expected {t} skills, got {len(skills)}"
            )
        if len(corrects) != t:
            raise ValueError(
                f"line {lineno + 2}: expected {t} correctness flags, got {len(corrects)}"
            )
        for s in skills:
            if not 0 < s < 2**63:
                raise ValueError(f"line {lineno + 1}: skill ids must be in 1..2**63-1, got {s}")
        for c in corrects:
            if c not in (0, 1):
                raise ValueError(f"line {lineno + 2}: correctness flags must be 0 or 1, got {c}")
        sequences.append(ResponseSequence(len(sequences), np.column_stack((skills, corrects))))
        idx += 3
    largest = max((int(seq.responses[:, 0].max()) for seq in sequences), default=0)
    return Dataset(name=name, num_skills=largest, sequences=tuple(sequences))


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
    labels = flat_clusters(hcluster(DistanceMatrix(dist), "average"), n_clusters)
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
# Mantel reference: each null draw permutes the full second matrix and reads
# its upper triangle, from the same generator stream as kqn.analysis.mantel.


def reference_mantel(d1, d2, permutations, seed):
    """(rho, p_value) of the one-sided Mantel test, each matrix divided
    by the largest entry of its upper triangle first."""
    n = len(d1)
    iu = np.triu_indices(n, k=1)
    d1, d2 = d1 / d1[iu].max(), d2 / d2[iu].max()
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


def nudged_ties(n, levels, step, rng):
    """(nudged, mirrored): mirrored is a symmetric matrix of distances drawn
    from 0..levels-1, so that they tie everywhere; nudged is the same matrix
    with about 30% of its lower-triangle cells moved by step (a cell that
    would turn negative stays). With |step| <= 1e-12 both pass
    DistanceMatrix's symmetry check, and mirrored is nudged's upper
    triangle mirrored."""
    upper = np.triu(rng.integers(0, levels, size=(n, n)), 1).astype(float)
    mirrored = upper + upper.T
    nudged = mirrored.copy()
    lower = np.tril_indices(n, k=-1)
    cells = nudged[lower]
    moved = (rng.random(cells.shape) < 0.3) & (cells + step >= 0.0)
    nudged[lower] = np.where(moved, cells + step, cells)
    return nudged, mirrored


def random_unit_vectors(n, dim, rng):
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
