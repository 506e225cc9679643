import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kqn.data import ResponseSequence
from kqn.dkt import DktConfig, DktModel, hybrid_rows, init_params
from kqn.model import batch_arrays, response_rows
from kqn.ops import sigmoid
from kqn.training import TrainConfig, train

from helpers import (
    SCAN_GRAD_RTOL,
    assert_matches_step_loop,
    dense_inputs,
    finite_diff,
    folded_lstm_cell,
    max_rel_err,
    traced_scan,
)

TABLE_2X2 = np.array([[0.6, 0.8], [1.0, 0.0]])


def random_sequences(rng, count, num_skills, min_len=2, max_len=8):
    seqs = []
    for sid in range(count):
        steps = int(rng.integers(min_len, max_len + 1))
        resp = tuple(
            (int(rng.integers(1, num_skills + 1)), int(rng.integers(0, 2)))
            for _ in range(steps)
        )
        seqs.append(ResponseSequence(student_id=sid, responses=resp))
    return seqs


def hybrid_model(encoding="correctness"):
    config = DktConfig(num_skills=2, keep_prob=1.0, input_mode="hybrid",
                       hybrid_encoding=encoding)
    return DktModel(config, skill_table=TABLE_2X2)


def dkt_kqn_input(response, encoding="correctness"):
    """Hybrid input vector of one (skill, correct) response: its response
    row of the input-rows matrix, checked against the dense oracle."""
    skill, correct = response
    model = hybrid_model(encoding)
    params = model.init_params(np.random.default_rng(0))
    got = hybrid_rows(params["skill_table"], encoding == "signed")[
        response_rows(skill, correct, 2)
    ]
    want = dense_inputs(model, params, np.array([[skill]]), np.array([[correct]]))[0, 0]
    assert got.tobytes() == want.tobytes()
    return got


class TestHybridInput:
    def test_correctness_encoding_examples(self):
        wrong = dkt_kqn_input((1, 0))
        right = dkt_kqn_input((1, 1))
        assert_allclose(wrong, [0.0, 0.0, 0.6, 0.8])
        assert_allclose(right, [1.0, 0.0, 0.6, 0.8])

    def test_signed_encoding_examples(self):
        wrong = dkt_kqn_input((1, 0), encoding="signed")
        right = dkt_kqn_input((2, 1), encoding="signed")
        assert_allclose(wrong, [-1.0, 0.0, 0.6, 0.8])
        assert_allclose(right, [0.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("encoding", ["correctness", "signed"])
    @settings(deadline=None, max_examples=50)
    @given(data=st.data())
    def test_projection_matches_dense_product(self, encoding, data):
        # scan projects the 2N input rows once and gathers them, so each
        # step's input projection matches x @ wx.T within rounding, and
        # rnn_wx's gradient, inputs.T @ the scattered table, matches the
        # sum of the dense products x.T @ dpre.
        n = data.draw(st.integers(2, 40), label="num_skills")
        d = data.draw(st.integers(1, 16), label="table width")
        hidden = data.draw(st.sampled_from([1, 5, 32]), label="hidden")
        k = data.draw(st.integers(1, 30), label="students")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        config = DktConfig(num_skills=n, hidden=hidden, keep_prob=1.0, input_mode="hybrid",
                           hybrid_encoding=encoding)
        model = DktModel(config, skill_table=rng.random((n, d)))
        params = model.init_params(rng)
        lengths = rng.integers(2, 7, size=k)
        skills = rng.integers(1, n + 1, size=(k, 6))
        corrects = rng.integers(0, 2, size=(k, 6))
        x = dense_inputs(model, params, skills, corrects)
        inputs = hybrid_rows(params["skill_table"], encoding == "signed")
        rows, taken, dpres, got = traced_scan(
            params, response_rows(skills, corrects, n), lengths, inputs, seed=1
        )
        wx = params["rnn_wx"]
        for j, (given_rows, a) in enumerate(zip(rows, taken)):
            want_a = x[given_rows, j] @ wx.T
            assert np.max(np.abs(a - want_a)) <= 1e-14 * max(np.max(np.abs(want_a)), 1.0)
        want = sum(x[r, j].T @ dpre for j, (r, dpre) in enumerate(zip(rows, dpres))).T
        assert np.max(np.abs(got - want)) <= SCAN_GRAD_RTOL * np.max(np.abs(want))

    def test_missing_skill_and_bad_encoding_raise(self):
        model = hybrid_model()
        params = model.init_params(np.random.default_rng(0))
        seq = ResponseSequence(0, ((1, 1), (3, 1)))
        with pytest.raises(ValueError, match="outside 1..2"):
            model.forward(params, *batch_arrays([seq]))
        with pytest.raises(ValueError, match="encoding"):
            hybrid_model(encoding="plusminus")


class TestDktConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DktConfig(num_skills=1)
        with pytest.raises(ValueError):
            DktConfig(num_skills=3, hidden=0)
        with pytest.raises(ValueError):
            DktConfig(num_skills=3, keep_prob=0.0)
        with pytest.raises(ValueError):
            DktConfig(num_skills=3, input_mode="dense")
        with pytest.raises(ValueError):
            DktConfig(num_skills=3, hybrid_encoding="plusminus")

    def test_table_requirements(self):
        # init_params is the one place that checks the table.
        onehot = DktConfig(num_skills=2, input_mode="onehot")
        hybrid = DktConfig(num_skills=2, input_mode="hybrid")
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="only used in hybrid"):
            init_params(onehot, rng, TABLE_2X2)
        with pytest.raises(ValueError, match="needs a skill-vector table"):
            DktModel(hybrid).init_params(rng)
        with pytest.raises(ValueError, match=r"2 rows, got shape \(3, 2\)"):
            init_params(hybrid, rng, np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"2 rows, got shape \(2,\)"):
            init_params(hybrid, rng, np.zeros(2))

    def test_input_dims(self):
        # The input width follows the table.
        rng = np.random.default_rng(0)
        assert init_params(DktConfig(num_skills=2), rng)["rnn_wx"].shape == (128, 4)
        hybrid = DktConfig(num_skills=2, input_mode="hybrid")
        assert init_params(hybrid, rng, TABLE_2X2)["rnn_wx"].shape == (128, 4)
        assert init_params(hybrid, rng, np.ones((2, 5)))["rnn_wx"].shape == (128, 7)


class TestFrozenSkillTable:
    def test_table_is_a_copied_parameter(self):
        source = TABLE_2X2.copy()
        model = DktModel(DktConfig(num_skills=2, input_mode="hybrid", keep_prob=1.0),
                         skill_table=source)
        params = model.init_params(np.random.default_rng(0))
        assert list(params) == ["rnn_wx", "rnn_wh", "rnn_b", "out_w", "out_b", "skill_table"]
        seqs = random_sequences(np.random.default_rng(1), 3, 2)
        skills, corrects, lengths = batch_arrays(seqs)
        before = model.forward(params, skills, corrects, lengths).probs
        source[:] = 99.0
        after = model.forward(params, skills, corrects, lengths).probs
        assert np.array_equal(before, after)
        assert np.array_equal(params["skill_table"], TABLE_2X2)

    def test_forward_reads_the_table_from_the_parameters(self):
        # A model built from the config alone, as evaluate builds it from
        # a checkpoint, scores the same as the one that was trained.
        config = DktConfig(num_skills=2, input_mode="hybrid", keep_prob=1.0)
        params = DktModel(config, skill_table=TABLE_2X2).init_params(np.random.default_rng(0))
        arrays = batch_arrays(random_sequences(np.random.default_rng(1), 3, 2))
        trained = DktModel(config, skill_table=TABLE_2X2).forward(params, *arrays).probs
        probs = DktModel(config).forward(params, *arrays).probs
        assert probs.tobytes() == trained.tobytes()
        swapped = dict(params, skill_table=TABLE_2X2[::-1].copy())
        assert not np.array_equal(DktModel(config).forward(swapped, *arrays).probs, probs)

    def test_gradients_never_touch_the_table(self):
        model = DktModel(DktConfig(num_skills=2, input_mode="hybrid", keep_prob=1.0),
                         skill_table=TABLE_2X2)
        params = model.init_params(np.random.default_rng(2))
        seqs = random_sequences(np.random.default_rng(3), 3, 2)
        skills, corrects, lengths = batch_arrays(seqs)
        fwd = model.forward(params, skills, corrects, lengths, mode="train")
        grads = model.backward(params, fwd)
        assert set(grads) == set(params) - {"skill_table"}
        assert np.array_equal(params["skill_table"], TABLE_2X2)


class TestDktForward:
    def test_onehot_probs_match_reference_lstm(self):
        config = DktConfig(num_skills=3, hidden=4, keep_prob=1.0)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(4))
        seq = ResponseSequence(0, ((2, 1), (1, 0), (3, 1)))
        fwd = model.forward(params, *batch_arrays([seq]))

        h = np.zeros((1, 4))
        c = np.zeros((1, 4))
        for j, (skill, correct) in enumerate(seq.responses[:-1]):
            x = np.zeros((1, 6))
            x[0, skill - 1 + correct * 3] = 1.0
            proj = x @ params["rnn_wx"].T
            h, c, _ = folded_lstm_cell(proj, h, c, params["rnn_wh"], params["rnn_b"])
            a = h @ params["out_w"].T + params["out_b"]
            next_skill, next_correct = seq.responses[j + 1]
            assert_allclose(fwd.probs[j, 0], sigmoid(float(a[0, next_skill - 1])), rtol=1e-12)
            assert fwd.targets[j, 0] == next_correct

    @pytest.mark.parametrize("mode, encoding", [
        ("onehot", "correctness"), ("hybrid", "correctness"), ("hybrid", "signed"),
    ])
    def test_matches_step_loop_bit_for_bit(self, mode, encoding):
        rng = np.random.default_rng(14)
        table = rng.random((4, 3))
        config = DktConfig(num_skills=4, hidden=5, keep_prob=0.6, input_mode=mode,
                           hybrid_encoding=encoding)
        model = DktModel(config, skill_table=table if mode == "hybrid" else None)
        params = model.init_params(np.random.default_rng(15))
        arrays = batch_arrays(random_sequences(np.random.default_rng(16), 6, 4, 2, 11))
        assert_matches_step_loop(model, params, arrays, 17)

    def test_skill_range_validated(self):
        config = DktConfig(num_skills=2, keep_prob=1.0)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(5))
        seq = ResponseSequence(0, ((1, 1), (3, 0)))
        skills, corrects, lengths = batch_arrays([seq])
        with pytest.raises(ValueError, match="1..2"):
            model.forward(params, skills, corrects, lengths)

    def test_short_sequence_raises(self):
        config = DktConfig(num_skills=2, keep_prob=1.0)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(6))
        seq = ResponseSequence(0, ((1, 1),))
        with pytest.raises(ValueError, match="at least 2 responses"):
            model.forward(params, *batch_arrays([seq]))

    def test_train_mode_needs_rng_when_dropping(self):
        config = DktConfig(num_skills=2, keep_prob=0.5)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(7))
        seqs = random_sequences(np.random.default_rng(8), 2, 2)
        skills, corrects, lengths = batch_arrays(seqs)
        with pytest.raises(ValueError, match="rng"):
            model.forward(params, skills, corrects, lengths, mode="train")


class TestDktGradients:
    @pytest.mark.parametrize("input_mode, encoding", [
        ("onehot", "correctness"), ("hybrid", "correctness"), ("hybrid", "signed"),
    ], ids=["onehot", "hybrid", "hybrid_signed"])
    def test_backward_matches_finite_differences(self, input_mode, encoding):
        rng = np.random.default_rng(9)
        table = rng.normal(size=(4, 3))
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
        config = DktConfig(num_skills=4, hidden=5, keep_prob=1.0, input_mode=input_mode,
                           hybrid_encoding=encoding)
        model = DktModel(config, skill_table=table if input_mode == "hybrid" else None)
        params = model.init_params(np.random.default_rng(10))
        seqs = random_sequences(np.random.default_rng(11), 3, 4, min_len=4, max_len=7)
        skills, corrects, lengths = batch_arrays(seqs)

        def loss(p):
            return model.forward(p, skills, corrects, lengths).loss_sum()

        fwd = model.forward(params, skills, corrects, lengths, mode="train")
        grads = model.backward(params, fwd)
        assert set(grads) == set(params) - {"skill_table"}
        for key in sorted(grads):
            def loss_with(arr, k=key):
                p2 = dict(params)
                p2[k] = arr
                return loss(p2)

            numeric = finite_diff(loss_with, params[key])
            assert max_rel_err(numeric, grads[key], floor=1e-3) <= 1e-4, key

    def test_init_shapes(self):
        config = DktConfig(num_skills=6, hidden=5)
        params = init_params(config, np.random.default_rng(12))
        assert params["rnn_wx"].shape == (20, 12)
        assert params["rnn_wh"].shape == (20, 5)
        assert params["out_w"].shape == (6, 5)
        assert params["out_b"].shape == (6,)
        assert_allclose(params["rnn_b"][5:10], np.ones(5))

    def test_draw_and_key_order(self):
        # Fits and checkpoints depend on this order: the recurrent block
        # first, then the output layer.
        config = DktConfig(num_skills=6, hidden=5)
        params = init_params(config, np.random.default_rng(31))
        rng = np.random.default_rng(31)
        for key, shape in (("rnn_wx", (20, 12)), ("rnn_wh", (20, 5)), ("out_w", (6, 5))):
            lim = 1.0 / np.sqrt(shape[1])
            assert params[key].tobytes() == rng.uniform(-lim, lim, size=shape).tobytes(), key
        assert list(params) == ["rnn_wx", "rnn_wh", "rnn_b", "out_w", "out_b"]


class TestDktTraining:
    def test_loss_decreases_under_shared_trainer(self, tiny_synthetic):
        config = DktConfig(num_skills=10, hidden=6, keep_prob=1.0)
        cfg = TrainConfig(batch_size=16, epochs_validation=3, adam_alpha=0.003,
                          seed=0, patience=50)
        result = train(DktModel(config), tiny_synthetic.dataset.sequences[:40],
                       tiny_synthetic.dataset.sequences[40:], cfg)
        losses = [r.train_loss for r in result.metrics.epochs]
        assert losses[0] > losses[-1]

    def test_hybrid_mode_trains_with_frozen_table(self, tiny_synthetic):
        rng = np.random.default_rng(13)
        table = rng.normal(size=(10, 4))
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
        config = DktConfig(num_skills=10, hidden=6, keep_prob=1.0, input_mode="hybrid")
        model = DktModel(config, skill_table=table)
        cfg = TrainConfig(batch_size=16, epochs_validation=2, adam_alpha=0.003,
                          seed=0, patience=50)
        result = train(model, tiny_synthetic.dataset.sequences[:30],
                       tiny_synthetic.dataset.sequences[30:40], cfg)
        assert len(result.metrics.epochs) == 2
        assert result.params["skill_table"].tobytes() == table.tobytes()
