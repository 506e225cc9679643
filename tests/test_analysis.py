import re

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
    nudged_ties,
    random_unit_vectors,
    reference_mantel,
)

MONOTONE_LINKAGES = ("single", "complete", "average", "weighted", "ward")


def scipy_merges(dmat, method):
    return scipy_linkage(squareform(dmat.values, checks=False), method=method)


class TestDistanceMatrix:
    def test_validation(self):
        good = np.array([[0.0, 1.0], [1.0, 0.0]])
        DistanceMatrix(good)
        with pytest.raises(ValueError):
            DistanceMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            DistanceMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        values = np.array([[0.0, bad, 1.0], [bad, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(values)

    def test_array_likes_become_float_arrays(self):
        dmat = DistanceMatrix([[0, 1], [1.0, 0.0]])
        assert isinstance(dmat.values, np.ndarray)
        assert dmat.values.dtype == np.float64
        assert dmat.n == 2
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])

    @settings(deadline=None)
    @given(n=st.integers(1, 30), levels=st.integers(1, 4), step=st.sampled_from([-9e-13, 1e-13]),
           scaled=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_values_mirror_the_upper_triangle(self, n, levels, step, scaled, seed):
        # Any matrix within 1e-12 of symmetric, signed zeros anywhere
        # included, is held as its upper triangle mirrored into a new array.
        rng = np.random.default_rng(seed)
        given_values, _ = nudged_ties(n, levels, step, rng)
        if scaled:
            given_values *= rng.random()
        given_values[(rng.random((n, n)) < 0.5) & (given_values == 0.0)] *= -1.0
        before = given_values.copy()
        bits = DistanceMatrix(given_values).values.view(np.uint64)
        assert np.array_equal(bits, bits.T)
        upper = np.triu_indices(n)
        assert np.array_equal(bits[upper], given_values.view(np.uint64)[upper])
        assert np.array_equal(given_values.view(np.uint64), before.view(np.uint64))


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

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_non_matrix_rejected(self, shape):
        v = np.ones(shape)
        for kind in ("cosine", "euclidean"):
            with pytest.raises(ValueError, match=rf"^expected a 2-d array of row vectors, "
                                                 rf"got shape {re.escape(str(shape))}$"):
                pairwise_distances(v, kind)


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

    def test_identical_vectors_give_zero_both_sides(self):
        # Repeated rows have no pair direction, but their distance is 0, so
        # the identity holds as 0 = 0; trained d=8 tables hold such rows.
        v = np.array([[0.6, 0.8], [1.0, 0.0], [0.6, 0.8]])
        lhs, rhs = odds_ratio_identity(np.array([1.5, -0.5]), v)
        repeated = 1  # the pair (0, 2) in np.triu_indices order
        assert rhs[repeated] == 0.0
        assert lhs[repeated] <= 1e-24
        others = np.arange(3) != repeated
        assert_allclose(lhs[others], rhs[others], rtol=1e-12)
        assert np.all(rhs[others] > 0.1)

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
            dend = hcluster(DistanceMatrix(values), "single")
            assert_allclose(np.sort(dend.merges[:, 2]), mst_edge_weights(values), rtol=1e-10)

    @pytest.mark.parametrize("method", LINKAGES)
    def test_merge_heights_match_scipy(self, method):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(4, 12))
            pts = rng.normal(size=(n, 3))
            values = squareform(pdist(pts))
            dend = hcluster(DistanceMatrix(values), method)
            z = scipy_linkage(pdist(pts), method=method)
            assert_allclose(np.sort(dend.merges[:, 2]), np.sort(z[:, 2]), rtol=1e-8)

    @pytest.mark.parametrize("method", LINKAGES)
    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(4, 60), dim=st.integers(2, 16), copies=st.integers(2, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_duplicate_points_merge_at_scipy_heights_and_sizes(self, method, n, dim, copies,
                                                               seed):
        # Two or three identical skill vectors tie at distance zero, and
        # the tied pairs merge in SciPy's order: a trained desk table held
        # three, and SciPy's centroid merges leaves (19, 22) first, not the
        # smallest leaves (5, 19). Every merged pair, height and size agrees.
        rng = np.random.default_rng(seed)
        v = np.abs(rng.normal(size=(n, dim)))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        same = rng.choice(n, size=copies, replace=False)
        v[same] = v[same[0]]
        dmat = pairwise_distances(v, "euclidean")
        ours = hcluster(dmat, method).merges
        ref = scipy_merges(dmat, method)
        assert np.array_equal(ours[:, :2], ref[:, :2])
        assert_allclose(ours[:, 2], ref[:, 2], rtol=1e-9, atol=1e-12)
        assert np.array_equal(ours[:, 3], ref[:, 3])

    def test_three_identical_vectors_merge_as_scipy(self):
        # The shape of a trained desk table: 50 non-negative unit vectors
        # at d=16, three of them identical. Here a tie rule keyed by each
        # cluster's smallest leaf gave other merges than SciPy under
        # complete, centroid and median.
        rng = np.random.default_rng(104)
        v = np.abs(rng.normal(size=(50, 16)))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        same = rng.choice(50, size=3, replace=False)
        v[same] = v[same[0]]
        dmat = pairwise_distances(v, "euclidean")
        for method in LINKAGES:
            assert np.array_equal(hcluster(dmat, method).merges, scipy_merges(dmat, method))

    @pytest.mark.parametrize("method", MONOTONE_LINKAGES)
    def test_flat_cuts_match_scipy(self, method):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(5, 14))
            pts = rng.normal(size=(n, 3))
            values = squareform(pdist(pts))
            dend = hcluster(DistanceMatrix(values), method)
            z = scipy_linkage(pdist(pts), method=method)
            for k in (2, 3):
                ours = flat_clusters(dend, k)
                theirs = fcluster(z, t=k, criterion="maxclust")
                assert ari(ours, theirs) == 1.0

    def test_merge_sizes_accumulate(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(9, 3))
        dend = hcluster(
            DistanceMatrix(squareform(pdist(pts))), "average"
        )
        assert dend.merges[-1, 3] == 9
        assert dend.num_leaves == 9

    def test_tie_breaks_row_major(self):
        # Two equally close pairs: SciPy merges (0,1) before (2,3) under
        # every linkage, the minimum spanning tree because it grows from
        # leaf 0, the chain and the generic algorithm because they start at
        # the first live cluster.
        values = np.full((4, 4), 5.0)
        np.fill_diagonal(values, 0.0)
        values[0, 1] = values[1, 0] = 1.0
        values[2, 3] = values[3, 2] = 1.0
        dmat = DistanceMatrix(values)
        for method in LINKAGES:
            dend = hcluster(dmat, method)
            assert dend.merges[:2, :2].tolist() == [[0, 1], [2, 3]]
            assert np.array_equal(dend.merges, scipy_merges(dmat, method))

    def test_tie_break_keys_clusters_by_slot(self):
        # After (0,1) merges into cluster 6, d(6,5) = 2 ties with d(3,4) = 2.
        # SciPy's tree takes the edge to 5 before the one from 3 to 4, and
        # its stable sort by height keeps that order, so (5,6) comes first.
        values = np.full((6, 6), 5.0)
        np.fill_diagonal(values, 0.0)
        for a, b, d in ((0, 1, 1.0), (3, 4, 2.0), (0, 5, 2.0), (1, 5, 2.0)):
            values[a, b] = values[b, a] = d
        dmat = DistanceMatrix(values)
        dend = hcluster(dmat, "single")
        assert dend.merges[:3, :2].tolist() == [[0, 1], [5, 6], [3, 4]]
        assert dend.merges[:3, 2].tolist() == [1.0, 2.0, 2.0]
        for method in LINKAGES:
            assert np.array_equal(hcluster(dmat, method).merges, scipy_merges(dmat, method))

    @pytest.mark.parametrize("method, step", [("ward", 1e200), ("average", 5e307),
                                              ("centroid", 1e200), ("median", 1e200)])
    def test_overflowing_distances_rejected(self, method, step):
        # Finite inputs whose squares (ward, centroid, median) or sums
        # (average) overflow. SciPy refuses centroid and median here too.
        values = step * np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        with pytest.raises(ValueError, match="too large"):
            hcluster(DistanceMatrix(values), method)

    # SciPy's linkage is the reference of the next two properties: the
    # whole merge list, pairs, heights and sizes, must equal it bit for bit.

    @pytest.mark.parametrize("method", LINKAGES)
    @settings(deadline=None)
    @given(n=st.integers(2, 40), dim=st.integers(2, 8), kind=st.sampled_from(DISTANCE_KINDS),
           groups=st.lists(st.integers(2, 5), max_size=2), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference_loop(self, method, n, dim, kind, groups, seed):
        # Non-negative unit vectors with up to two groups of 2-5 copied rows.
        rng = np.random.default_rng(seed)
        v = np.abs(rng.normal(size=(n, dim)))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for copies in groups:
            same = rng.choice(n, size=min(copies, n), replace=False)
            v[same] = v[same[0]]
        dmat = pairwise_distances(v, kind)
        assert np.array_equal(hcluster(dmat, method).merges, scipy_merges(dmat, method))

    @pytest.mark.parametrize("method", LINKAGES)
    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 90), low=st.integers(0, 2), levels=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ties_match_reference_keyed_by_leaf(self, method, n, low, levels, seed):
        # Distances from a handful of integers, zeros included, tie
        # everywhere; SciPy breaks each tie through its algorithm.
        rng = np.random.default_rng(seed)
        values = np.triu(rng.integers(low, low + levels, size=(n, n)), 1).astype(float)
        dmat = DistanceMatrix(values + values.T)
        assert np.array_equal(hcluster(dmat, method).merges, scipy_merges(dmat, method))

    @pytest.mark.parametrize("method", LINKAGES)
    @settings(deadline=None, max_examples=40)
    @given(n=st.integers(2, 30), levels=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_reads_the_upper_triangle(self, method, n, levels, seed):
        # Lower-triangle cells 1e-13 below their upper twins, within the
        # symmetry tolerance, cluster as the mirrored upper triangle.
        nudged, mirrored = nudged_ties(n, levels, -1e-13, np.random.default_rng(seed))
        expected = hcluster(DistanceMatrix(mirrored), method).merges
        assert np.array_equal(hcluster(DistanceMatrix(nudged), method).merges, expected)

    def test_bad_linkage_and_tiny_matrix(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            hcluster(DistanceMatrix(values), "median2")
        with pytest.raises(ValueError):
            hcluster(DistanceMatrix(np.zeros((1, 1))), "single")


class TestFlatClusters:
    def make_dend(self, n=7, seed=8):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 2))
        return hcluster(
            DistanceMatrix(squareform(pdist(pts))), "complete"
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

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 2.0, 2.5, "2"])
    def test_count_must_be_an_integer(self, bad):
        # A bool would cut silently to one cluster; a float reached a
        # bare TypeError.
        message = re.escape(f"cluster count must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            flat_clusters(self.make_dend(), bad)

    def test_count_may_be_a_numpy_integer(self):
        dend = self.make_dend()
        assert flat_clusters(dend, np.int64(3)).tolist() == flat_clusters(dend, 3).tolist()


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

    @pytest.mark.parametrize("labels", [[], [3]])
    def test_fewer_than_two_items_raise(self, labels):
        with pytest.raises(ValueError, match=f"^need at least 2 items, got {len(labels)}$"):
            ari(labels, labels)


class TestMantel:
    def random_dmat(self, n, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        return DistanceMatrix(squareform(pdist(pts)))

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
        expected = np.corrcoef(d1.values[iu], d2.values[iu])[0, 1]
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
        d2 = DistanceMatrix(0.5 * d1.values + self.random_dmat(9, 20).values)
        res = mantel(d1, d2, permutations=199, rng=np.random.default_rng(4))
        assert (res.rho, res.p_value) == reference_mantel(d1.values, d2.values, 199, 4)
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
        res = mantel(DistanceMatrix(d1), DistanceMatrix(d2), permutations=permutations, rng=seed)
        assert (res.rho, res.p_value) == reference_mantel(d1, d2, permutations, seed)

    def test_matches_permuted_matrix_oracle_at_benchmark_scale(self):
        # 300 skills, as in the benchmark's Mantel pair, from tables whose
        # rows repeat as a trained table's do (one-hot and duplicated
        # rows), so many cells tie. Neither matrix may be written.
        rng = np.random.default_rng(35)
        tables = []
        for dim in (16, 32):
            pool = np.vstack([np.eye(dim), np.abs(random_unit_vectors(230, dim, rng))])
            tables.append(pool[rng.integers(0, len(pool), size=300)])
        d1, d2 = (pairwise_distances(t, "euclidean") for t in tables)
        before = [d.values.tobytes() for d in (d1, d2)]
        res = mantel(d1, d2, permutations=99, rng=35)
        assert (res.rho, res.p_value) == reference_mantel(d1.values, d2.values, 99, 35)
        assert [d.values.tobytes() for d in (d1, d2)] == before

    @pytest.mark.parametrize("scale_a, scale_b", [(1e308, 1e308), (1.0, 1e308), (1e200, 1.0),
                                                  (1.0, 1e-170), (1.0, 1e-160)])
    def test_scaled_distances_give_the_unscaled_rho(self, scale_a, scale_b):
        # A mean overflowed (1e308) or a norm did (1e200): mantel raised.
        # At 1e-160 a norm's square lost bits (rho -0.3230398 against
        # -0.3230301 unscaled), and at 1e-170 it underflowed to zero and
        # the matrix was refused as constant. Warnings are errors here, so
        # none may escape.
        rng = np.random.default_rng(23)
        a, b = (np.triu(rng.random((6, 6)), 1) for _ in range(2))
        iu = np.triu_indices(6, k=1)
        pearson = np.corrcoef(a[iu], b[iu])[0, 1]
        plain = mantel(DistanceMatrix(a + a.T), DistanceMatrix(b + b.T), permutations=99, rng=1)
        a, b = a * scale_a, b * scale_b
        scaled = mantel(DistanceMatrix(a + a.T), DistanceMatrix(b + b.T), permutations=99, rng=1)
        assert scaled.rho == pytest.approx(plain.rho, rel=1e-14, abs=0)
        assert scaled.rho == pytest.approx(pearson, rel=1e-14, abs=0)
        assert scaled.p_value == plain.p_value

    @settings(deadline=None)
    @given(n=st.integers(3, 30), levels=st.integers(2, 4), permutations=st.integers(1, 60),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_reads_the_upper_triangle(self, n, levels, permutations, seed):
        # Lower-triangle cells 1e-13 above their upper twins, within the
        # symmetry tolerance, test as the mirrored upper triangles.
        rng = np.random.default_rng(seed)
        (n1, m1), (n2, m2) = (nudged_ties(n, levels, 1e-13, rng) for _ in range(2))
        iu = np.triu_indices(n, k=1)
        assume(np.ptp(m1[iu]) > 0 and np.ptp(m2[iu]) > 0)
        expected = mantel(DistanceMatrix(m1), DistanceMatrix(m2), permutations, seed)
        assert mantel(DistanceMatrix(n1), DistanceMatrix(n2), permutations, seed) == expected

    def test_accepts_distance_matrix_objects(self):
        rng = np.random.default_rng(18)
        v = random_unit_vectors(8, 4, rng)
        d1 = pairwise_distances(v, "euclidean")
        d2 = pairwise_distances(v, "cosine")
        res = mantel(d1, d2, permutations=49, rng=np.random.default_rng(3))
        assert np.isfinite(res.rho)

    def test_validation_errors(self):
        d = self.random_dmat(6, 19)
        tiny = DistanceMatrix(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="size"):
            mantel(d, self.random_dmat(5, 20))
        with pytest.raises(ValueError, match="at least 3"):
            mantel(tiny, tiny)
        with pytest.raises(ValueError, match="permutations"):
            mantel(d, d, permutations=0)
        with pytest.raises(ValueError, match="constant"):
            mantel(DistanceMatrix(np.zeros((4, 4))), DistanceMatrix(d.values[:4, :4]))

    @pytest.mark.parametrize("bad", [True, np.bool_(True), 2.0, 2.5, "9"])
    def test_permutation_count_must_be_an_integer(self, bad):
        # True ran one permutation and reported permutations=True; 2.5
        # reached a bare TypeError. The count is checked before the point
        # count.
        d = self.random_dmat(6, 19)
        tiny = DistanceMatrix(np.zeros((2, 2)))
        message = re.escape(f"permutations must be an integer, got {bad!r}")
        for pair in ((d, d), (tiny, tiny)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                mantel(*pair, permutations=bad)

    def test_permutation_count_may_be_a_numpy_integer(self):
        d1, d2 = self.random_dmat(8, 21), self.random_dmat(8, 22)
        res = mantel(d1, d2, permutations=np.int64(19), rng=7)
        assert res == mantel(d1, d2, permutations=19, rng=7)


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
                ks = fwd.knowledge_states[t]
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
        back, ids = read_distance_csv(path)
        assert ids == [3, 5, 7, 9, 11]
        assert np.array_equal(back.values, dmat.values)
        assert path.read_text().splitlines()[0] == "skill,3,5,7,9,11"
        with pytest.raises(ValueError):
            write_distance_csv(tmp_path / "x.csv", dmat, skill_ids=[1, 2])

    @settings(deadline=None)
    @given(n=st.integers(0, 60), dim=st.integers(1, 8), kind=st.sampled_from(DISTANCE_KINDS),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_distance_csv_bytes_equal_full_rows(self, tmp_path_factory, n, dim, kind, seed,
                                                data):
        # Formatting each pair once and handing it down gives the bytes of
        # formatting every cell of the full matrix; at n=0 both are the
        # header line alone.
        ids = data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n))
        dmat = pairwise_distances(random_unit_vectors(n, dim, np.random.default_rng(seed)), kind)
        out = tmp_path_factory.mktemp("csv")
        write_distance_csv(out / "fast.csv", dmat, skill_ids=ids)
        rows = ([sid, *row] for sid, row in zip(ids, dmat.values.tolist()))
        write_table(out / "full.csv", ["skill", *ids], rows)
        assert (out / "fast.csv").read_bytes() == (out / "full.csv").read_bytes()

    @pytest.mark.parametrize("upper, lower", [(0.5, 0.5 + 1e-13), (0.0, -0.0)],
                             ids=["within_1e-13", "signed_zero"])
    def test_distance_csv_mirrors_upper_triangle(self, tmp_path, upper, lower):
        # Both matrices pass DistanceMatrix's 1e-12 check; cell (1, 0) is
        # written with the bytes of cell (0, 1).
        values = np.array([[0.0, upper, 2.0], [lower, 0.0, 1.0], [2.0, 1.0, 0.0]])
        write_distance_csv(tmp_path / "d.csv", DistanceMatrix(values))
        rows = [line.split(",") for line in (tmp_path / "d.csv").read_text().splitlines()]
        assert rows[1][2] == rows[2][1] == repr(upper)

    def test_ids_beyond_float_precision_round_trip(self, tmp_path):
        # 2**62 + 1 is not a float64; ids must never pass through one.
        ids = [2 ** 62 + 1, 2 ** 63 - 1, 7]
        dmat = pairwise_distances(random_unit_vectors(3, 2, np.random.default_rng(28)), "cosine")
        write_distance_csv(tmp_path / "d.csv", dmat, skill_ids=ids)
        back, back_ids = read_distance_csv(tmp_path / "d.csv")
        assert back_ids == ids
        assert np.array_equal(back.values, dmat.values)
        write_clusters_csv(tmp_path / "c.csv", [2, 1, 2], skill_ids=ids)
        back_ids, labels = read_clusters_csv(tmp_path / "c.csv")
        assert back_ids.tolist() == ids
        assert labels.tolist() == [2, 1, 2]
        assert (tmp_path / "c.csv").read_text().splitlines()[1] == f"{2 ** 62 + 1},2"

    @pytest.mark.parametrize("bad", [True, np.bool_(False), 1.0, np.float64(2.0), "a", None])
    def test_distance_csv_refuses_ids_its_reader_refuses(self, tmp_path, bad):
        dmat = pairwise_distances(random_unit_vectors(3, 2, np.random.default_rng(29)), "cosine")
        message = re.escape(f"skill id must be an integer, got {bad!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            write_distance_csv(tmp_path / "d.csv", dmat, skill_ids=[4, bad, 6])
        assert list(tmp_path.iterdir()) == []

    def test_distance_csv_takes_numpy_integer_ids(self, tmp_path):
        dmat = pairwise_distances(random_unit_vectors(3, 2, np.random.default_rng(29)), "cosine")
        write_distance_csv(tmp_path / "np.csv", dmat, skill_ids=np.array([4, -5, 6]))
        write_distance_csv(tmp_path / "py.csv", dmat, skill_ids=[4, -5, 6])
        assert (tmp_path / "np.csv").read_bytes() == (tmp_path / "py.csv").read_bytes()
        assert read_distance_csv(tmp_path / "np.csv")[1] == [4, -5, 6]

    def test_distance_csv_default_ids(self, tmp_path):
        v = random_unit_vectors(3, 3, np.random.default_rng(25))
        dmat = pairwise_distances(v, "cosine")
        path = tmp_path / "dist.csv"
        write_distance_csv(path, dmat)
        _, ids = read_distance_csv(path)
        assert ids == [1, 2, 3]

    def test_dendrogram_csv(self, tmp_path):
        rng = np.random.default_rng(26)
        # The equilateral triangle's centroid and median merges invert: the
        # third point is sqrt(3)/2 from the midpoint of a side of length 1.
        triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        for pts in (rng.normal(size=(8, 3)), triangle):
            for linkage in LINKAGES:
                dend = hcluster(DistanceMatrix(squareform(pdist(pts))), linkage)
                path = tmp_path / f"{linkage}.csv"
                write_dendrogram_csv(path, dend)
                back = read_dendrogram_csv(path)
                assert back.num_leaves == len(pts)
                assert np.array_equal(back.merges, dend.merges)
                assert flat_clusters(back, 3).tolist() == flat_clusters(dend, 3).tolist()
                if pts is triangle and linkage in ("centroid", "median"):
                    assert dend.merges[1, 2] < dend.merges[0, 2]

    @pytest.mark.parametrize("ids, message", [
        ([1, True], "skill id must be an integer, got True"),
        ([1, 2.0], "skill id must be an integer, got 2.0"),
        ([1, 2, 3], "3 skill ids for 2 rows"),
        ([1], "1 skill ids for 2 rows"),
    ], ids=["bool", "float", "too_many", "too_few"])
    def test_clusters_csv_refuses_ids_its_reader_refuses(self, tmp_path, ids, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_clusters_csv(tmp_path / "c.csv", [1, 2], skill_ids=ids)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("labels, message", [
        ([1.7, 1, 3], "cluster label must be an integer, got 1.7"),
        ([1, True, 3], "cluster label must be an integer, got True"),
        ([1, 2, np.float64(3.0)], "cluster label must be an integer, got np.float64(3.0)"),
    ], ids=["float", "bool", "numpy_float"])
    def test_clusters_csv_refuses_labels_that_are_no_integers(self, tmp_path, labels, message):
        # int() would have written 1.7 and True as 1 without a word.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_clusters_csv(tmp_path / "c.csv", labels)
        assert list(tmp_path.iterdir()) == []

    def test_clusters_csv_takes_numpy_integer_labels(self, tmp_path):
        path = tmp_path / "c.csv"
        write_clusters_csv(path, np.array([3, 1, 2], dtype=np.int32), skill_ids=[5, 6, 7])
        assert path.read_text() == "skill,label\n5,3\n6,1\n7,2\n"

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
