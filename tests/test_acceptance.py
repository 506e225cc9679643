"""Acceptance gate: eight end-to-end behavioral criteria, each printing a
single PASS/FAIL line with the measured numbers before asserting its
bounds. Criteria 4-8 share the session-scoped desk-sized dataset and the
models trained on it (see conftest).

Known honest failure: criterion 5's cluster-recovery bar. The desk data
carry the concepts and the model misses them. Clustering skills by how
the 160 training students' residuals (correct minus the skill's base
rate) correlate recovers the concepts with ARI 0.298, above the 0.15 bar
(test_criterion_5_bar_is_reachable_from_the_data). The learned vectors
encode skill difficulty instead: their first principal component holds
38% of the variance and correlates with the true difficulty at |r| 0.95,
and with it projected out ARI stays near 0. Next-response prediction
gains only about 0.02 test AUC from concept structure at this scale, so
the training signal for it is weak. The test asserts the stated bar
anyway and fails.

Measured negatives. Program-side levers, each an uncommitted prototype on the
desk split (training seeds as a diagnostic only; fixture, bar and seed
unchanged), did not move the ARI:

    lever                                         desk ARI                 desk test AUC
    fixture model (d=16), seeds 1-3               +0.001, -0.031, +0.003   0.703, 0.701, 0.702
    step input tied to the skill vector,          -0.033, -0.026, +0.010   0.707, 0.706, 0.707
      [c*s_e, (1-c)*s_e]
    tied input, 60 epochs, no early stopping      <= +0.001 at every       validation peak 0.712
      (seed 1)                                      5th epoch                at epoch 30
    loss on the next 10 trials from each state    -0.034                   0.703
      (seed 1)
    decoupled weight decay (AdamW), weights       -0.043 to -0.001         <= 0.703
      shrunk by 1 or 10 x alpha per step,
      40 epochs (seed 1)
    4x and 8x the students, desk config with      -0.028, +0.028           not measured
      early stopping (seed 1)                       (model-free: 0.754,
                                                    0.948)
    8x the students, no early stopping,           reaches 0.083 only as    not measured
      40 epochs (seed 1)                            validation AUC falls
                                                    from 0.723 to 0.693
    DKT+ reconstruction and waviness              mean -0.005 over         0.703 (all three)
      regularizers on sigmoid(table . kv)           seeds 1-3
      (Yeung & Yeung, arXiv:1806.02180),
      lambda_r, lambda_w1, lambda_w2 =
      0.1, 0.003, 3 (the paper's)
    DKT+ regularizers, 0.5, 0.03, 30              mean +0.006 over         0.702-0.703
                                                    seeds 1-3
    DKT+ regularizers, 1, 0.3, 300                mean -0.020 over         0.701-0.703
                                                    seeds 1-3
    DKT+ regularizers, 2, 0, 0                    mean -0.012 over         0.692-0.697
                                                    seeds 1-3

The DKT+ prototype was gradient-checked against finite differences; unregularized,
its harness gives seeds 1-3 ARI +0.001, -0.031 and +0.002 (test AUC 0.703,
0.701, 0.702).

With one trial ahead the multi-step prototype reproduces the fixture
exactly (ARI 0.0009, test AUC 0.7028). Why, measured on the fixture model:
one direction holds 89% of the knowledge states' variance and the next 9%,
so the state tracks one global ability, not five concept abilities; the
per-skill mean explains 91% of the logit variance (difficulty), and the
skill table's first principal component has |r| 0.959 with the per-skill
training base rate; clustering skills by how their logits correlate
across states gives ARI between -0.03 and 0 over seeds 1-3, as does a
state-covariance (Mahalanobis) distance, so the concept signal is absent
from the model's dynamics and the geometry does not hide it; and DKT at
desk is no different, its output rows clustering at ARI -0.017.
"""
import time

import numpy as np

import helpers
from kqn.analysis import (
    DistanceMatrix,
    ari,
    flat_clusters,
    hcluster,
    heatmap_matrix,
    mantel,
    odds_ratio_identity,
    pairwise_distances,
    sensitivity_stats,
)
from kqn.metrics import auc_scores
from kqn.model import KqnModel, encode_skill_table
from kqn.training import evaluate, train, write_metrics_csv

# Exemplar held-out student for the heatmap contract (criterion 8).
HELDOUT_STUDENT_ID = 339


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_gradients_match_finite_differences():
    start = time.perf_counter()
    errors = {kind: helpers.kqn_gradient_errors(kind) for kind in ("lstm", "gru")}
    elapsed = time.perf_counter() - start
    worst = {kind: max(errs.values()) for kind, errs in errors.items()}
    ok = worst["lstm"] <= 1e-4 and worst["gru"] <= 1e-4 and elapsed < 10.0
    _report(
        1,
        ok,
        f"max rel err lstm {worst['lstm']:.3e}, gru {worst['gru']:.3e}, "
        f"runtime {elapsed:.2f}s",
    )
    for kind in ("lstm", "gru"):
        for name, err in errors[kind].items():
            assert err <= 1e-4, f"{kind} d/d{name} rel err {err:.3e}"
    assert elapsed < 10.0


def test_criterion_2_geometry_identities():
    rng = np.random.default_rng(0)
    worst_factor2 = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        pair = helpers.random_unit_vectors(2, dim, rng)
        d_euclid = pairwise_distances(pair, "euclidean").values[0, 1]
        d_cos = pairwise_distances(pair, "cosine").values[0, 1]
        worst_factor2 = max(worst_factor2, abs(d_euclid**2 - 2.0 * d_cos))
    worst_odds = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 17))
        pair = helpers.random_unit_vectors(2, dim, rng)
        ks = rng.normal(size=dim)
        (lhs,), (rhs,) = odds_ratio_identity(ks, pair)
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        worst_odds = max(worst_odds, rel)
    ok = worst_factor2 <= 1e-10 and worst_odds <= 1e-8
    _report(
        2,
        ok,
        f"|euclid^2 - 2 cos| max {worst_factor2:.3e} (1000 pairs), "
        f"odds identity rel max {worst_odds:.3e} (1000 draws)",
    )
    assert worst_factor2 <= 1e-10
    assert worst_odds <= 1e-8


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(1)
    auc_exact = 0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 20, size=n) / 19.0
        auc_exact += auc_scores(scores, labels) == helpers.auc_pairs(scores, labels)

    ari_exact = 0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        a = rng.integers(1, int(rng.integers(2, 8)) + 1, size=n)
        b = rng.integers(1, int(rng.integers(2, 8)) + 1, size=n)
        ari_exact += ari(a, b) == helpers.ari_contingency(a, b)

    # Single-linkage heights are the edges of Prim's minimum spanning tree,
    # taken with the plain min as the oracle takes them; the bar stays at
    # 1e-12 relative.
    mst_match = 0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        values = helpers.random_distance_matrix(n, rng)
        dend = hcluster(DistanceMatrix(values), "single")
        heights = np.sort(dend.merges[:, 2])
        mst_match += bool(
            np.allclose(heights, helpers.mst_edge_weights(values), rtol=1e-12, atol=0.0)
        )

    ok = auc_exact == 100 and ari_exact == 100 and mst_match == 50
    _report(
        3,
        ok,
        f"AUC exact {auc_exact}/100, ARI exact {ari_exact}/100, "
        f"single-linkage vs MST (rtol 1e-12) {mst_match}/50",
    )
    assert auc_exact == 100
    assert ari_exact == 100
    assert mst_match == 50


def test_criterion_4_desk_scale_prediction(desk, kqn16, dkt_desk):
    batch = desk.train_cfg.batch_size
    start = time.perf_counter()
    kqn_auc, _, _ = evaluate(KqnModel(kqn16.config), kqn16.params, desk.split.test, batch)
    from kqn.dkt import DktModel

    dkt_auc, _, _ = evaluate(DktModel(dkt_desk.config), dkt_desk.params, desk.split.test, batch)
    eval_seconds = time.perf_counter() - start
    total_seconds = kqn16.train_seconds + dkt_desk.train_seconds + eval_seconds
    ok = (
        kqn_auc >= 0.70
        and kqn_auc - 0.5 >= 0.15
        and dkt_auc >= 0.65
        and kqn_auc >= dkt_auc - 0.02
        and total_seconds <= 600.0
    )
    _report(
        4,
        ok,
        f"KQN test AUC {kqn_auc:.4f} (bar 0.70), DKT {dkt_auc:.4f} (bar 0.65), "
        f"KQN-DKT {kqn_auc - dkt_auc:+.4f} (bar -0.02), "
        f"runtime {total_seconds:.0f}s (bar 600s)",
    )
    assert kqn_auc >= 0.70
    assert kqn_auc - 0.5 >= 0.15
    assert dkt_auc >= 0.65
    assert kqn_auc >= dkt_auc - 0.02
    assert total_seconds <= 600.0


def test_criterion_5_cluster_recovery(desk, kqn16):
    table, _ = encode_skill_table(kqn16.params)
    dmat = pairwise_distances(table, "euclidean")
    labels = flat_clusters(hcluster(dmat, "average"), 5)
    truth = np.array([desk.concepts[s] for s in range(1, desk.spec.num_skills + 1)])
    observed = ari(labels, truth)

    rng = np.random.default_rng(0)
    random_aris = [
        ari(rng.integers(1, 6, size=desk.spec.num_skills), truth) for _ in range(100)
    ]
    random_mean = float(np.mean(random_aris))
    ok = observed >= 0.15 and observed > random_mean
    _report(
        5,
        ok,
        f"ARI {observed:.4f} (bar 0.15), random-partition mean {random_mean:.5f} "
        f"(exceeds: {observed > random_mean})",
    )
    assert observed > random_mean
    assert observed >= 0.15, (
        f"ARI {observed:.4f} below 0.15: the desk data carry the concepts "
        f"(residual-correlation clustering reaches ARI >= 0.15) but the learned "
        f"vectors encode skill difficulty and miss them"
    )


def test_criterion_5_bar_is_reachable_from_the_data(desk):
    observed = helpers.residual_concept_ari(desk.split.train, desk.concepts, desk.spec.num_skills)
    print(f"criterion 5 data ceiling: residual-correlation ARI {observed:.4f} (bar 0.15)")
    assert observed >= 0.15


def test_criterion_6_dimensionality_sensitivity(kqn8, kqn16):
    table8, _ = encode_skill_table(kqn8.params)
    table16, _ = encode_skill_table(kqn16.params)
    d8 = pairwise_distances(table8, "euclidean")
    d16 = pairwise_distances(table16, "euclidean")
    result = mantel(d16, d8, permutations=999, rng=np.random.default_rng(0))
    report = sensitivity_stats({8: table8, 16: table16}, "euclidean")
    xi = report.xi[(8, 16)]
    eta8 = report.eta[8]
    eta16 = report.eta[16]
    ok = result.rho > 0.3 and result.p_value <= 0.05 and xi < eta8 and xi < eta16
    _report(
        6,
        ok,
        f"Mantel rho {result.rho:.4f} (bar 0.3), p {result.p_value:.4f} (bar 0.05), "
        f"xi {xi:.4f} vs eta8 {eta8:.4f}, eta16 {eta16:.4f}",
    )
    assert result.rho > 0.3
    assert result.p_value <= 0.05
    assert xi < eta8
    assert xi < eta16


def test_criterion_7_training_is_deterministic(desk, kqn16, tmp_path):
    rerun = train(KqnModel(kqn16.config), desk.split.train, desk.split.valid, desk.train_cfg)
    write_metrics_csv(tmp_path / "first.csv", kqn16.result.metrics.epochs)
    write_metrics_csv(tmp_path / "second.csv", rerun.metrics.epochs)
    first = (tmp_path / "first.csv").read_bytes()
    second = (tmp_path / "second.csv").read_bytes()
    ok = first == second
    _report(
        7,
        ok,
        f"same-seed metric CSVs byte-identical: {ok} "
        f"({len(first)} bytes, {len(kqn16.result.metrics.epochs)} epochs)",
    )
    assert first == second


def test_criterion_8_heatmap_contract(desk, kqn16):
    seq = next(s for s in desk.split.test if s.student_id == HELDOUT_STUDENT_ID)
    hm = heatmap_matrix(kqn16.params, kqn16.config, seq)
    steps = len(seq.responses)
    distinct = len(np.unique(seq.responses[:, 0]))
    row_of = {skill: r for r, skill in enumerate(hm.skill_ids)}

    shape_ok = hm.percent.shape == (distinct, steps - 1)
    range_ok = bool(np.all((hm.percent > 0.0) & (hm.percent < 100.0)))
    events = 0
    ups = 0
    # Column t holds the state after consuming response t, so response j
    # is absorbed across the transition from column j-1 to column j.
    for j in range(1, steps - 1):
        skill, correct = seq.responses[j]
        if correct == 1:
            events += 1
            row = row_of[skill]
            ups += bool(hm.percent[row, j] > hm.percent[row, j - 1])
    rate = ups / events
    ok = shape_ok and range_ok and rate >= 0.60
    _report(
        8,
        ok,
        f"shape {hm.percent.shape} (want ({distinct}, {steps - 1})), "
        f"values in (0,100): {range_ok}, direction rate {rate:.2f} "
        f"({ups}/{events} correct-response events, bar 0.60)",
    )
    assert shape_ok
    assert range_ok
    assert events > 0
    assert rate >= 0.60
