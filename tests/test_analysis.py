import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import pdist, squareform

from kqn.analysis import (
    DISTANCE_KINDS,
    DistanceMatrix,
    LINKAGES,
    ari,
    flat_clusters,
    hcluster,
    heatmap_matrix,
    mantel,
    odds_ratio_identity,
    pairwise_distances,
    read_clusters_csv,
    read_dendrogram_csv,
    read_distance_csv,
    read_heatmap_csv,
    sensitivity_stats,
    write_clusters_csv,
    write_dendrogram_csv,
    write_distance_csv,
    write_heatmap_csv,
)
from kqn.data import ResponseSequence
from kqn.model import ModelConfig, batch_arrays, forward_batch, init_params
from kqn.ops import sigmoid
from kqn.tables import write_table

from helpers import (
    ari_contingency,
    mst_edge_weights,
    random_unit_vectors,
    reference_hcluster,
    reference_mantel,
)

MONOTONE_LINKAGES = ("single", "complete", "average", "weighted", "ward")


class TestDistanceMatrix:
    def test_validation(self):
        good = np.array([[0.0, 1.0], [1.0, 0.0]])
        DistanceMatrix(kind="euclidean", values=good)
        with pytest.raises(ValueError):
            DistanceMatrix(kind="euclidean", values=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            DistanceMatrix(kind="euclidean", values=np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(kind="euclidean", values=np.array([[0.5, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(kind="euclidean", values=np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(kind="manhattan", values=good)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        values = np.array([[0.0, bad, 1.0], [bad, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(kind="euclidean", values=values)

    def test_array_likes_become_float_arrays(self):
        dmat = DistanceMatrix("euclidean", [[0, 1], [1.0, 0.0]])
        assert isinstance(dmat.values, np.ndarray)
        assert dmat.values.dtype == np.float64
        assert dmat.n == 2
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix("euclidean", [[0.0, 1.0], [2.0, 0.0]])


class TestPairwiseDistances:
    def test_matches_explicit_loops(self):
        rng = np.random.default_rng(0)
        v = random_unit_vectors(8, 5, rng)
        cos = pairwise_distances(v, "cosine").values
        euc = pairwise_distances(v, "euclidean").values
        for i in range(8):
            for j in range(8):
                assert_allclose(cos[i, j], 1.0 - float(v[i] @ v[j]), atol=1e-12)
                assert_allclose(euc[i, j], float(np.linalg.norm(v[i] - v[j])), atol=1e-12)

    def test_factor_of_two_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = random_unit_vectors(2, int(rng.integers(2, 16)), rng)
            euc = pairwise_distances(v, "euclidean").values[0, 1]
            cos = pairwise_distances(v, "cosine").values[0, 1]
            assert abs(euc ** 2 - 2.0 * cos) <= 1e-10

    def test_non_unit_rows_rejected(self):
        v = np.array([[1.0, 0.0], [0.0, 2.0]])
        for kind in ("cosine", "euclidean"):
            with pytest.raises(ValueError, match="unit"):
                pairwise_distances(v, kind)

    def test_nan_rows_rejected(self):
        # A nan norm compares false with any tolerance, so it needs its own test.
        v = np.array([[1.0, 0.0], [np.nan, 0.0], [0.0, 1.0]])
        for kind in ("cosine", "euclidean"):
            with pytest.raises(ValueError, match="unit length; row 1 has norm nan"):
                pairwise_distances(v, kind)

    def test_unknown_kind_rejected(self):
        v = random_unit_vectors(3, 4, np.random.default_rng(2))
        with pytest.raises(ValueError):
            pairwise_distances(v, "manhattan")


class TestOddsRatioIdentity:
    def test_hand_case_lhs_equals_rhs_equals_one(self):
        lhs, rhs = odds_ratio_identity(np.array([1.0, 0.0]), np.eye(2))
        assert_allclose(lhs, [1.0], rtol=1e-12)
        assert_allclose(rhs, [1.0], rtol=1e-12)

    def test_orthogonal_state_gives_zero_both_sides(self):
        lhs, rhs = odds_ratio_identity(np.array([1.0, 1.0]), np.eye(2))
        assert_allclose(lhs, [0.0], atol=1e-24)
        assert_allclose(rhs, [0.0], atol=1e-24)

    def test_random_draws_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = int(rng.integers(2, 10))
            v = random_unit_vectors(int(rng.integers(2, 6)), d, rng)
            ks = rng.normal(scale=2.0, size=d)
            lhs, rhs = odds_ratio_identity(ks, v)
            denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-12)
            assert np.max(np.abs(lhs - rhs) / denom) <= 1e-8

    def test_identical_vectors_rejected(self):
        v = np.array([[0.6, 0.8], [1.0, 0.0], [0.6, 0.8]])
        with pytest.raises(ValueError, match="identical"):
            odds_ratio_identity(np.ones(2), v)

    @pytest.mark.parametrize("logit", [50.0, -50.0, 800.0, -800.0])
    def test_saturated_logits_stay_finite(self, logit):
        # sigmoid(50) rounds to 1, and exp(800) overflows; the log odds must
        # still be the logit itself, with no warning.
        lhs, rhs = odds_ratio_identity(np.array([logit, 0.0]), np.eye(2))
        assert_allclose(lhs, [logit ** 2], rtol=1e-12)
        assert_allclose(rhs, [logit ** 2], rtol=1e-12)

    def test_geometry_fields(self):
        # Condensed pair order is np.triu_indices order, and the right side
        # is (ks . (s_i - s_j))^2 for each pair.
        rng = np.random.default_rng(5)
        v = random_unit_vectors(4, 3, rng)
        ks = rng.normal(size=3)
        lhs, rhs = odds_ratio_identity(ks, v)
        assert lhs.shape == rhs.shape == (6,)
        i, j = np.triu_indices(4, k=1)
        assert_allclose(rhs, ((v[i] - v[j]) @ ks) ** 2, rtol=1e-12)


class TestHcluster:
    def test_single_linkage_matches_mst_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 15))
            pts = rng.normal(size=(n, 3))
            values = squareform(pdist(pts))
            dend = hcluster(DistanceMatrix(kind="euclidean", values=values), "single")
            assert_allclose(np.sort(dend.merges[:, 2]), mst_edge_weights(values), rtol=1e-10)

    @pytest.mark.parametrize("method", LINKAGES)
    def test_merge_heights_match_scipy(self, method):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(4, 12))
            pts = rng.normal(size=(n, 3))
            values = squareform(pdist(pts))
            dend = hcluster(DistanceMatrix(kind="euclidean", values=values), method)
            z = scipy_linkage(pdist(pts), method=method)
            assert_allclose(np.sort(dend.merges[:, 2]), np.sort(z[:, 2]), rtol=1e-8)

    @pytest.mark.parametrize("method", MONOTONE_LINKAGES)
    def test_flat_cuts_match_scipy(self, method):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(5, 14))
            pts = rng.normal(size=(n, 3))
            values = squareform(pdist(pts))
            dend = hcluster(DistanceMatrix(kind="euclidean", values=values), method)
            z = scipy_linkage(pdist(pts), method=method)
            for k in (2, 3):
                ours = flat_clusters(dend, k)
                theirs = fcluster(z, t=k, criterion="maxclust")
                assert ari(ours, theirs) == 1.0

    def test_merge_sizes_accumulate(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(9, 3))
        dend = hcluster(
            DistanceMatrix(kind="euclidean", values=squareform(pdist(pts))), "average"
        )
        assert dend.merges[-1, 3] == 9
        assert dend.num_leaves == 9

    def test_tie_breaks_row_major(self):
        # two equally close pairs: (0,1) must merge before (2,3)
        values = np.full((4, 4), 5.0)
        np.fill_diagonal(values, 0.0)
        values[0, 1] = values[1, 0] = 1.0
        values[2, 3] = values[3, 2] = 1.0
        dend = hcluster(DistanceMatrix(kind="euclidean", values=values), "single")
        assert (dend.merges[0, 0], dend.merges[0, 1]) == (0.0, 1.0)
        assert (dend.merges[1, 0], dend.merges[1, 1]) == (2.0, 3.0)

    def test_tie_break_keys_clusters_by_slot(self):
        # After (0,1) merges into cluster 6, d(6,5) = 2 ties with d(3,4) = 2.
        # Cluster 6 is keyed by its smallest leaf, 0, so (5,6) comes first;
        # ordering clusters by id instead would merge (3,4) first.
        values = np.full((6, 6), 5.0)
        np.fill_diagonal(values, 0.0)
        for a, b, d in ((0, 1, 1.0), (3, 4, 2.0), (0, 5, 2.0), (1, 5, 2.0)):
            values[a, b] = values[b, a] = d
        dmat = DistanceMatrix(kind="euclidean", values=values)
        dend = hcluster(dmat, "single")
        assert dend.merges[:3, :2].tolist() == [[0, 1], [5, 6], [3, 4]]
        assert dend.merges[:3, 2].tolist() == [1.0, 2.0, 2.0]
        assert reference_hcluster(dmat, "single")[1, :2].tolist() == [3, 4]

    @pytest.mark.parametrize("method, step", [("ward", 1e200), ("average", 5e307)])
    def test_overflowing_distances_rejected(self, method, step):
        # Finite inputs whose squares (ward) or sums (average) overflow.
        values = step * np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        with pytest.raises(ValueError, match="too large"):
            hcluster(DistanceMatrix(kind="euclidean", values=values), method)

    @pytest.mark.parametrize("method", LINKAGES)
    @settings(deadline=None)
    @given(n=st.integers(2, 40), dim=st.integers(2, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_loop(self, method, n, dim, seed):
        v = np.abs(np.random.default_rng(seed).normal(size=(n, dim)))
        dmat = pairwise_distances(v / np.linalg.norm(v, axis=1, keepdims=True), "euclidean")
        assert np.array_equal(hcluster(dmat, method).merges, reference_hcluster(dmat, method))

    @pytest.mark.parametrize("method", LINKAGES)
    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 90), low=st.integers(0, 2), levels=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ties_match_reference_keyed_by_leaf(self, method, n, low, levels, seed):
        # Distances from a handful of integers tie everywhere, and at n up
        # to 90 the working matrix is compacted several times, so the merge
        # order rests on keeping the slots in smallest-leaf order.
        rng = np.random.default_rng(seed)
        values = np.triu(rng.integers(low, low + levels, size=(n, n)), 1).astype(float)
        dmat = DistanceMatrix(kind="euclidean", values=values + values.T)
        expected = reference_hcluster(dmat, method, tie_order="leaf")
        assert np.array_equal(hcluster(dmat, method).merges, expected)

    def test_bad_linkage_and_tiny_matrix(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            hcluster(DistanceMatrix(kind="euclidean", values=values), "median2")
        with pytest.raises(ValueError):
            hcluster(DistanceMatrix(kind="euclidean", values=np.zeros((1, 1))), "single")


class TestFlatClusters:
    def make_dend(self, n=7, seed=8):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        return hcluster(
            DistanceMatrix(kind="euclidean", values=squareform(pdist(pts))), "complete"
        )

    def test_extreme_cuts(self):
        dend = self.make_dend()
        assert flat_clusters(dend, 1).tolist() == [1] * 7
        assert flat_clusters(dend, 7).tolist() == [1, 2, 3, 4, 5, 6, 7]

    def test_labels_numbered_by_smallest_leaf(self):
        dend = self.make_dend()
        for k in range(2, 7):
            labels = flat_clusters(dend, k)
            firsts = {}
            for leaf, lab in enumerate(labels):
                firsts.setdefault(lab, leaf)
            # label 1's first leaf precedes label 2's, and so on
            order = [firsts[lab] for lab in sorted(firsts)]
            assert order == sorted(order)
            assert len(set(labels)) == k

    def test_out_of_range_raises(self):
        dend = self.make_dend()
        with pytest.raises(ValueError):
            flat_clusters(dend, 0)
        with pytest.raises(ValueError):
            flat_clusters(dend, 8)


class TestAri:
    def test_opposed_pairs_hand_value(self):
        # index 0, expected 2*2/6, max 2 -> (0 - 2/3)/(2 - 2/3) = -1/2
        assert_allclose(ari([1, 1, 2, 2], [1, 2, 1, 2]), -0.5, rtol=1e-12)

    def test_identical_partitions(self):
        assert ari([1, 2, 2, 3], [5, 9, 9, 7]) == 1.0

    def test_all_singletons_degenerate_denominator(self):
        assert ari([1, 2, 3], [3, 1, 2]) == 1.0

    def test_matches_contingency_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(5, 80))
            a = rng.integers(1, 5, size=n)
            b = rng.integers(1, 5, size=n)
            assert_allclose(ari(a, b), ari_contingency(a, b), rtol=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(10)
        a = rng.integers(1, 4, size=30)
        b = rng.integers(1, 4, size=30)
        remap = {1: 7, 2: 5, 3: 9}
        a2 = np.array([remap[x] for x in a])
        assert_allclose(ari(a, b), ari(a2, b), rtol=1e-12)

    @given(st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=2, max_size=40),
           st.permutations(range(1, 6)), st.permutations(range(1, 6)))
    def test_symmetric_and_invariant_under_label_permutation(self, pairs, perm_a, perm_b):
        a, b = (np.array(col) for col in zip(*pairs))
        value = ari(a, b)
        assert_allclose(ari(b, a), value, rtol=1e-12, atol=1e-15)
        relabel_a, relabel_b = np.array([0, *perm_a]), np.array([0, *perm_b])
        assert_allclose(ari(relabel_a[a], b), value, rtol=1e-12, atol=1e-15)
        assert_allclose(ari(a, relabel_b[b]), value, rtol=1e-12, atol=1e-15)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ari([1, 2], [1, 2, 3])


class TestMantel:
    def random_dmat(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        return squareform(pdist(pts))

    def test_self_correlation(self):
        d = self.random_dmat(15, 11)
        res = mantel(d, d, permutations=999, rng=np.random.default_rng(0))
        assert res.rho == pytest.approx(1.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0 / 1000.0)
        assert res.permutations == 999

    def test_rho_is_upper_triangle_pearson(self):
        d1 = self.random_dmat(12, 12)
        d2 = self.random_dmat(12, 13)
        res = mantel(d1, d2, permutations=9, rng=np.random.default_rng(1))
        iu = np.triu_indices(12, k=1)
        expected = np.corrcoef(d1[iu], d2[iu])[0, 1]
        assert_allclose(res.rho, expected, rtol=1e-12)

    def test_independent_matrices_not_significant(self):
        d1 = self.random_dmat(20, 14)
        d2 = self.random_dmat(20, 15)
        res = mantel(d1, d2, permutations=499, rng=np.random.default_rng(2))
        assert res.p_value > 0.01

    def test_seeded_determinism(self):
        d1 = self.random_dmat(10, 16)
        d2 = self.random_dmat(10, 17)
        a = mantel(d1, d2, permutations=99, rng=np.random.default_rng(5))
        b = mantel(d1, d2, permutations=99, rng=np.random.default_rng(5))
        assert a == b

    def test_p_value_matches_permuted_matrix_oracle(self):
        d1 = self.random_dmat(9, 19)
        d2 = 0.5 * d1 + self.random_dmat(9, 20)
        res = mantel(d1, d2, permutations=199, rng=np.random.default_rng(4))
        assert (res.rho, res.p_value) == reference_mantel(d1, d2, 199, 4)
        assert 1 / 200 < res.p_value < 1

    @settings(deadline=None)
    @given(n=st.integers(3, 60), levels=st.integers(2, 4), integer=st.booleans(),
           permutations=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_permuted_matrix_oracle(self, n, levels, integer, permutations, seed):
        # Integer-valued matrices make permuted statistics tie with rho, so
        # the >= count is exercised on equal values as well as on random ones.
        rng = np.random.default_rng(seed)
        if integer:
            pair = [np.triu(rng.integers(0, levels, size=(n, n)), 1).astype(float)
                    for _ in range(2)]
        else:
            pair = [np.triu(rng.random((n, n)), 1) for _ in range(2)]
        d1, d2 = (m + m.T for m in pair)
        iu = np.triu_indices(n, k=1)
        assume(np.ptp(d1[iu]) > 0 and np.ptp(d2[iu]) > 0)
        res = mantel(d1, d2, permutations=permutations, rng=seed)
        assert (res.rho, res.p_value) == reference_mantel(d1, d2, permutations, seed)

    def test_accepts_distance_matrix_objects(self):
        rng = np.random.default_rng(18)
        v = random_unit_vectors(8, 4, rng)
        d1 = pairwise_distances(v, "euclidean")
        d2 = pairwise_distances(v, "cosine")
        res = mantel(d1, d2, permutations=49, rng=np.random.default_rng(3))
        assert np.isfinite(res.rho)

    def test_validation_errors(self):
        d = self.random_dmat(6, 19)
        with pytest.raises(ValueError, match="symmetric"):
            bad = d.copy()
            bad[0, 1] += 1.0
            mantel(bad, d)
        with pytest.raises(ValueError, match="diag"):
            bad = d.copy()
            bad[0, 0] = 1.0
            mantel(bad, d)
        with pytest.raises(ValueError, match="size"):
            mantel(d, self.random_dmat(5, 20))
        with pytest.raises(ValueError, match="at least 3"):
            mantel(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="permutations"):
            mantel(d, d, permutations=0)
        with pytest.raises(ValueError, match="constant"):
            mantel(np.zeros((4, 4)), d[:4, :4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        d = self.random_dmat(6, 21)
        broken = d.copy()
        broken[1, 2] = broken[2, 1] = bad
        with pytest.raises(ValueError, match="d2 entries must be finite"):
            mantel(d, broken, permutations=9)


class TestSensitivityStats:
    def test_hand_computed_example(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
        b = np.array([[0.0, 1.0], [1.0, 0.0], [0.8, 0.6]])
        report = sensitivity_stats({2: a, 3: b}, "euclidean")
        da = pairwise_distances(a, "euclidean").values
        db = pairwise_distances(b, "euclidean").values
        pairs = [(0, 1), (0, 2), (1, 2)]
        eta_a = np.mean([da[i, j] for i, j in pairs])
        eta_b = np.mean([db[i, j] for i, j in pairs])
        xi_ab = np.mean([abs(da[i, j] - db[i, j]) for i, j in pairs])
        assert_allclose(report.eta[2], eta_a, rtol=1e-12)
        assert_allclose(report.eta[3], eta_b, rtol=1e-12)
        assert_allclose(report.xi[(2, 3)], xi_ab, rtol=1e-12)
        assert report.kind == "euclidean"

    def test_identical_sets_have_zero_xi(self):
        v = random_unit_vectors(6, 4, np.random.default_rng(21))
        report = sensitivity_stats({4: v, 8: v.copy()}, "cosine")
        assert report.xi[(4, 8)] == 0.0
        assert report.eta[4] == report.eta[8]

    def test_mismatched_skill_counts_raise(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError, match="different"):
            sensitivity_stats(
                {2: random_unit_vectors(5, 2, rng), 3: random_unit_vectors(6, 3, rng)},
                "euclidean",
            )

    def test_empty_and_tiny_inputs_raise(self):
        with pytest.raises(ValueError):
            sensitivity_stats({}, "euclidean")
        with pytest.raises(ValueError):
            sensitivity_stats({2: np.array([[1.0, 0.0]])}, "euclidean")


class TestHeatmap:
    def make_model(self):
        config = ModelConfig(num_skills=9, dim=4, rnn_hidden=5, mlp_hidden=5, keep_prob=1.0)
        params = init_params(config, np.random.default_rng(23))
        return config, params

    def make_seq(self):
        triples = [(2, 1), (5, 0), (2, 1), (7, 1), (5, 1)]
        return ResponseSequence(student_id=0, responses=triples)

    def test_shape_rows_and_labels(self):
        config, params = self.make_model()
        seq = self.make_seq()
        hm = heatmap_matrix(params, config, seq)
        assert hm.skill_ids == (2, 5, 7)
        assert hm.percent.shape == (3, 4)
        assert hm.column_labels == ("(2,1)", "(5,0)", "(2,1)", "(7,1)")
        assert np.all(hm.percent > 0.0) and np.all(hm.percent < 100.0)

    def test_cells_are_percent_sigmoid_queries(self):
        config, params = self.make_model()
        seq = self.make_seq()
        hm = heatmap_matrix(params, config, seq)
        fwd = forward_batch(*batch_arrays([seq]), params, config)
        for r, skill in enumerate(hm.skill_ids):
            for t in range(hm.percent.shape[1]):
                ks = fwd.knowledge_states[t, 0]
                expected = 100.0 * sigmoid(float(ks @ fwd.skill_table[skill - 1]))
                assert_allclose(hm.percent[r, t], expected, rtol=1e-12)

    def test_errors(self):
        config, params = self.make_model()
        short = ResponseSequence(0, ((1, 1),))
        with pytest.raises(ValueError):
            heatmap_matrix(params, config, short)
        out_of_range = ResponseSequence(0, ((1, 1), (12, 0)))
        with pytest.raises(ValueError, match="outside"):
            heatmap_matrix(params, config, out_of_range)


class TestCsvRoundTrips:
    def test_distance_csv(self, tmp_path):
        v = random_unit_vectors(5, 3, np.random.default_rng(24))
        dmat = pairwise_distances(v, "euclidean")
        path = tmp_path / "dist.csv"
        write_distance_csv(path, dmat, skill_ids=[3, 5, 7, 9, 11])
        back, ids = read_distance_csv(path, kind="euclidean")
        assert ids == [3, 5, 7, 9, 11]
        assert np.array_equal(back.values, dmat.values)
        assert path.read_text().splitlines()[0] == "skill,3,5,7,9,11"
        with pytest.raises(ValueError):
            write_distance_csv(tmp_path / "x.csv", dmat, skill_ids=[1, 2])

    @settings(deadline=None)
    @given(n=st.integers(1, 60), dim=st.integers(1, 8), kind=st.sampled_from(DISTANCE_KINDS),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_distance_csv_bytes_equal_full_rows(self, tmp_path_factory, n, dim, kind, seed,
                                                data):
        # Formatting each pair once and handing it down gives the bytes of
        # formatting every cell of the full matrix.
        ids = data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n))
        dmat = pairwise_distances(random_unit_vectors(n, dim, np.random.default_rng(seed)), kind)
        out = tmp_path_factory.mktemp("csv")
        write_distance_csv(out / "fast.csv", dmat, skill_ids=ids)
        rows = ([sid, *row] for sid, row in zip(ids, dmat.values.tolist()))
        write_table(out / "full.csv", ["skill", *ids], rows)
        assert (out / "fast.csv").read_bytes() == (out / "full.csv").read_bytes()

    @pytest.mark.parametrize("upper, lower", [(0.5, 0.5 + 1e-13), (0.0, -0.0)],
                             ids=["within_1e-13", "signed_zero"])
    def test_distance_csv_refuses_inexact_symmetry(self, tmp_path, upper, lower):
        # Both matrices pass DistanceMatrix's 1e-12 check, but cell (1, 0)
        # would not be written with the bytes of cell (0, 1).
        values = np.array([[0.0, upper, 2.0], [lower, 0.0, 1.0], [2.0, 1.0, 0.0]])
        dmat = DistanceMatrix(kind="euclidean", values=values)
        with pytest.raises(ValueError, match="not exactly symmetric"):
            write_distance_csv(tmp_path / "d.csv", dmat)
        assert list(tmp_path.iterdir()) == []

    def test_ids_beyond_float_precision_round_trip(self, tmp_path):
        # 2**62 + 1 is not a float64; ids must never pass through one.
        ids = [2 ** 62 + 1, 2 ** 63 - 1, 7]
        dmat = pairwise_distances(random_unit_vectors(3, 2, np.random.default_rng(28)), "cosine")
        write_distance_csv(tmp_path / "d.csv", dmat, skill_ids=ids)
        back, back_ids = read_distance_csv(tmp_path / "d.csv", kind="cosine")
        assert back_ids == ids
        assert np.array_equal(back.values, dmat.values)
        write_clusters_csv(tmp_path / "c.csv", [2, 1, 2], skill_ids=ids)
        back_ids, labels = read_clusters_csv(tmp_path / "c.csv")
        assert back_ids.tolist() == ids
        assert labels.tolist() == [2, 1, 2]
        assert (tmp_path / "c.csv").read_text().splitlines()[1] == f"{2 ** 62 + 1},2"

    def test_distance_csv_default_ids(self, tmp_path):
        v = random_unit_vectors(3, 3, np.random.default_rng(25))
        dmat = pairwise_distances(v, "cosine")
        path = tmp_path / "dist.csv"
        write_distance_csv(path, dmat)
        _, ids = read_distance_csv(path)
        assert ids == [1, 2, 3]

    def test_dendrogram_csv(self, tmp_path):
        rng = np.random.default_rng(26)
        pts = rng.normal(size=(8, 3))
        dend = hcluster(
            DistanceMatrix(kind="euclidean", values=squareform(pdist(pts))), "ward"
        )
        path = tmp_path / "dend.csv"
        write_dendrogram_csv(path, dend)
        back = read_dendrogram_csv(path)
        assert back.num_leaves == 8
        assert np.array_equal(back.merges, dend.merges)
        assert flat_clusters(back, 3).tolist() == flat_clusters(dend, 3).tolist()

    def test_clusters_csv(self, tmp_path):
        labels = np.array([1, 2, 1, 3])
        path = tmp_path / "clusters.csv"
        write_clusters_csv(path, labels, skill_ids=[10, 20, 30, 40])
        ids, back = read_clusters_csv(path)
        assert ids.tolist() == [10, 20, 30, 40]
        assert back.tolist() == [1, 2, 1, 3]

    def test_heatmap_csv_quotes_labels(self, tmp_path):
        config = ModelConfig(num_skills=4, dim=3, rnn_hidden=4, mlp_hidden=4, keep_prob=1.0)
        params = init_params(config, np.random.default_rng(27))
        seq = ResponseSequence(0, ((1, 1), (3, 0), (1, 0)))
        hm = heatmap_matrix(params, config, seq)
        path = tmp_path / "heatmap.csv"
        write_heatmap_csv(path, hm)
        text = path.read_text()
        assert '"(1,1)"' in text.splitlines()[0]
        back = read_heatmap_csv(path)
        assert back.skill_ids == hm.skill_ids
        assert back.column_labels == hm.column_labels
        assert np.array_equal(back.percent, hm.percent)

    def test_readers_reject_foreign_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_distance_csv(path)
        with pytest.raises(ValueError):
            read_dendrogram_csv(path)
        with pytest.raises(ValueError):
            read_clusters_csv(path)
        with pytest.raises(ValueError):
            read_heatmap_csv(path)
