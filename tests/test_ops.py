import numpy as np
import pytest
from numpy.testing import assert_allclose

from kqn.ops import (
    NORM_EPS,
    dropout_mask,
    l2_normalize_rows,
    l2_normalize_rows_backward,
    sigmoid,
)

from helpers import finite_diff, l2_normalize, l2_normalize_backward, max_rel_err


class TestSigmoid:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(3)
        u = rng.normal(scale=3.0, size=200)
        assert_allclose(sigmoid(u), 1.0 / (1.0 + np.exp(-u)), rtol=1e-12)

    def test_extreme_arguments_saturate_without_warnings(self):
        with np.errstate(over="raise"):
            assert sigmoid(800.0) == 1.0
            assert sigmoid(-800.0) == 0.0

    def test_backward_matches_finite_differences(self):
        # The cell backward passes use s * (1 - s) as the sigmoid's slope.
        rng = np.random.default_rng(4)
        u = rng.normal(size=20)
        dout = rng.normal(size=20)
        s = sigmoid(u)
        analytic = dout * s * (1.0 - s)
        numeric = finite_diff(lambda a: float(dout @ sigmoid(a)), u)
        assert max_rel_err(numeric, analytic) < 1e-6


class TestL2Normalize:
    def test_unit_norm_output(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(2, 8)))
            assert_allclose(np.linalg.norm(l2_normalize(v)), 1.0, rtol=1e-12)

    def test_zero_vector_falls_back_to_uniform(self):
        for d in (2, 3, 7):
            out = l2_normalize(np.zeros(d))
            assert_allclose(out, np.full(d, 1.0 / np.sqrt(d)), rtol=1e-12)
        tiny = np.full(4, NORM_EPS / 10.0)
        assert_allclose(l2_normalize(tiny), np.full(4, 0.5), rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            v = rng.normal(size=5)
            if np.linalg.norm(v) < 0.5:
                continue
            dout = rng.normal(size=5)
            analytic = l2_normalize_backward(dout, v)
            numeric = finite_diff(lambda a: float(dout @ l2_normalize(a)), v)
            assert max_rel_err(numeric, analytic) < 1e-6

    def test_backward_zero_on_fallback_branch(self):
        assert_allclose(l2_normalize_backward(np.ones(3), np.zeros(3)), np.zeros(3))

    def test_rows_variant_matches_per_row(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 4))
        out, norms = l2_normalize_rows(m)
        for i in range(6):
            assert_allclose(out[i], l2_normalize(m[i]), rtol=1e-12)
            assert_allclose(norms[i], np.linalg.norm(m[i]), rtol=1e-12)

    def test_rows_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(5, 3)) + np.sign(rng.normal(size=(5, 3))) * 0.2
        dout = rng.normal(size=(5, 3))
        _, norms = l2_normalize_rows(m)
        analytic = l2_normalize_rows_backward(dout, m, norms)
        numeric = finite_diff(lambda a: float(np.sum(dout * l2_normalize_rows(a)[0])), m)
        assert max_rel_err(numeric, analytic) < 1e-6


class TestDropoutMask:
    def test_values_are_zero_or_inverse_keep_prob(self):
        rng = np.random.default_rng(10)
        mask = dropout_mask((50, 40), 0.6, rng)
        assert set(np.round(np.unique(mask), 12)) <= {0.0, round(1.0 / 0.6, 12)}

    def test_mean_is_one(self):
        rng = np.random.default_rng(11)
        mask = dropout_mask((400, 300), 0.3, rng)
        assert abs(mask.mean() - 1.0) < 0.02

    def test_keep_prob_one_returns_ones_without_consuming_rng(self):
        rng_a = np.random.default_rng(12)
        rng_b = np.random.default_rng(12)
        mask = dropout_mask((4, 4), 1.0, rng_a)
        assert_allclose(mask, np.ones((4, 4)))
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)

    def test_invalid_keep_prob_raises(self):
        rng = np.random.default_rng(13)
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                dropout_mask((2, 2), bad, rng)
