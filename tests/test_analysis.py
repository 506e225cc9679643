import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import pdist, squareform

from kqn.analysis import (
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

from helpers import ari_contingency, mst_edge_weights, random_unit_vectors

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
