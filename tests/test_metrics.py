import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kqn.metrics import auc_scores, binary_cross_entropy
from kqn.ops import sigmoid

from helpers import auc_pairs


class TestAuc:
    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(4, 120))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # coarse grid scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            assert_allclose(auc_scores(scores, labels), auc_pairs(scores, labels), rtol=1e-12)

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc_scores(scores, labels) == 1.0
        assert auc_scores(1.0 - scores, labels) == 0.0

    def test_all_tied_scores_give_half(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([0, 1, 0, 1])
        assert auc_scores(scores, labels) == 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(1)
        scores = rng.random(20000)
        labels = rng.integers(0, 2, size=20000)
        assert abs(auc_scores(scores, labels) - 0.5) < 0.02

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            auc_scores(np.array([0.1, 0.9]), np.array([1, 1]))
        with pytest.raises(ValueError):
            auc_scores(np.array([0.1, 0.9]), np.array([0, 0]))


class TestBinaryCrossEntropy:
    def test_half_probability_gives_log_two(self):
        assert_allclose(binary_cross_entropy(np.array([0.0]), np.array([1])), [np.log(2.0)])
        assert_allclose(binary_cross_entropy(np.array([0.0]), np.array([0])), [np.log(2.0)])

    def test_saturated_logits_give_exact_loss(self):
        # sigmoid(-40) rounds to 4.2e-18 and sigmoid(40) to exactly 1.0; the
        # loss is taken from the logit, so neither is capped.
        assert_allclose(binary_cross_entropy(np.array([-40.0]), np.array([1])), [40.0])
        assert_allclose(binary_cross_entropy(np.array([40.0]), np.array([0])), [40.0])
        assert_allclose(binary_cross_entropy(np.array([40.0]), np.array([1])), [np.exp(-40.0)])

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.01, 0.99, size=100)
        t = rng.integers(0, 2, size=100)
        expected = -(t * np.log(p) + (1 - t) * np.log(1.0 - p))
        assert_allclose(binary_cross_entropy(np.log(p / (1.0 - p)), t), expected, rtol=1e-12)

    @given(y=st.floats(-1e6, 1e6), c=st.integers(0, 1))
    def test_finite_and_non_negative(self, y, c):
        loss = binary_cross_entropy(np.array([y]), np.array([c]))
        assert np.isfinite(loss[0]) and loss[0] >= 0.0

    @given(y=st.floats(-15.0, 15.0), c=st.integers(0, 1))
    def test_matches_probability_form(self, y, c):
        p = sigmoid(y)
        expected = -(c * np.log(p) + (1 - c) * np.log1p(-p))
        assert_allclose(binary_cross_entropy(y, c), expected, rtol=1e-9)

    @given(y=st.floats(-15.0, 15.0), c=st.integers(0, 1))
    def test_derivative_is_p_minus_c(self, y, c):
        h = 1e-5
        slope = (binary_cross_entropy(y + h, c) - binary_cross_entropy(y - h, c)) / (2.0 * h)
        assert_allclose(slope, sigmoid(y) - c, rtol=1e-6, atol=1e-9)
