import numpy as np
import pytest
from numpy.testing import assert_allclose

from kqn.data import ResponseSequence, StudentResponse
from kqn.dkt import DktConfig, DktModel, init_params
from kqn.model import batch_arrays, lstm_cell
from kqn.ops import sigmoid
from kqn.training import TrainConfig, train

from helpers import finite_diff, max_rel_err, reference_step_loop

TABLE_2X2 = np.array([[0.6, 0.8], [1.0, 0.0]])


def random_sequences(rng, count, num_skills, min_len=2, max_len=8):
    seqs = []
    for sid in range(count):
        steps = int(rng.integers(min_len, max_len + 1))
        resp = tuple(
            StudentResponse(int(rng.integers(1, num_skills + 1)), int(rng.integers(0, 2)))
            for _ in range(steps)
        )
        seqs.append(ResponseSequence(student_id=sid, responses=resp))
    return seqs


def hybrid_model(encoding="correctness"):
    config = DktConfig(num_skills=2, keep_prob=1.0, input_mode="hybrid",
                       hybrid_encoding=encoding)
    return DktModel(config, skill_table=TABLE_2X2)


def dkt_kqn_input(response, encoding="correctness"):
    """Hybrid input vector of one response, through the batched step input."""
    step = hybrid_model(encoding).step_inputs(
        np.array([[response.skill]]), np.array([[response.correct]])
    )
    return step(0, np.array([0]))[0]


class TestHybridInput:
    def test_correctness_encoding_examples(self):
        wrong = dkt_kqn_input(StudentResponse(1, 0))
        right = dkt_kqn_input(StudentResponse(1, 1))
        assert_allclose(wrong, [0.0, 0.0, 0.6, 0.8])
        assert_allclose(right, [1.0, 0.0, 0.6, 0.8])

    def test_signed_encoding_examples(self):
        wrong = dkt_kqn_input(StudentResponse(1, 0), encoding="signed")
        right = dkt_kqn_input(StudentResponse(2, 1), encoding="signed")
        assert_allclose(wrong, [-1.0, 0.0, 0.6, 0.8])
        assert_allclose(right, [0.0, 1.0, 1.0, 0.0])

    def test_missing_skill_and_bad_encoding_raise(self):
        model = hybrid_model()
        params = model.init_params(np.random.default_rng(0))
        seq = ResponseSequence(0, (StudentResponse(1, 1), StudentResponse(3, 1)))
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
        onehot = DktConfig(num_skills=2, input_mode="onehot")
        hybrid = DktConfig(num_skills=2, input_mode="hybrid")
        with pytest.raises(ValueError):
            DktModel(onehot, skill_table=TABLE_2X2)
        with pytest.raises(ValueError):
            DktModel(hybrid)
        with pytest.raises(ValueError):
            DktModel(hybrid, skill_table=np.zeros((3, 2)))

    def test_input_dims(self):
        assert DktModel(DktConfig(num_skills=2)).input_dim == 4
        model = DktModel(DktConfig(num_skills=2, input_mode="hybrid"), skill_table=TABLE_2X2)
        assert model.input_dim == 4


class TestFrozenSkillTable:
    def test_table_is_copied_at_construction(self):
        source = TABLE_2X2.copy()
        model = DktModel(DktConfig(num_skills=2, input_mode="hybrid", keep_prob=1.0),
                         skill_table=source)
        params = model.init_params(np.random.default_rng(0))
        seqs = random_sequences(np.random.default_rng(1), 3, 2)
        skills, corrects, lengths = batch_arrays(seqs)
        before = model.forward(params, skills, corrects, lengths).probs
        source[:] = 99.0
        after = model.forward(params, skills, corrects, lengths).probs
        assert np.array_equal(before, after)

    def test_gradients_never_touch_the_table(self):
        model = DktModel(DktConfig(num_skills=2, input_mode="hybrid", keep_prob=1.0),
                         skill_table=TABLE_2X2)
        params = model.init_params(np.random.default_rng(2))
        seqs = random_sequences(np.random.default_rng(3), 3, 2)
        skills, corrects, lengths = batch_arrays(seqs)
        fwd = model.forward(params, skills, corrects, lengths, mode="train")
        grads = model.backward(params, fwd)
        assert set(grads) == set(params)
        assert np.array_equal(model.skill_table, TABLE_2X2)


class TestDktForward:
    def test_onehot_probs_match_reference_lstm(self):
        config = DktConfig(num_skills=3, hidden=4, keep_prob=1.0)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(4))
        seq = ResponseSequence(
            0, (StudentResponse(2, 1), StudentResponse(1, 0), StudentResponse(3, 1))
        )
        fwd = model.forward(params, *batch_arrays([seq]))

        h = np.zeros((1, 4))
        c = np.zeros((1, 4))
        for j, resp in enumerate(seq.responses[:-1]):
            x = np.zeros((1, 6))
            x[0, resp.skill - 1 + resp.correct * 3] = 1.0
            h, c, _ = lstm_cell(x, h, c, params["rnn_wx"], params["rnn_wh"], params["rnn_b"])
            a = h @ params["out_w"].T + params["out_b"]
            nxt = seq.responses[j + 1]
            assert_allclose(fwd.probs[j, 0], sigmoid(float(a[0, nxt.skill - 1])), rtol=1e-12)
            assert fwd.targets[j, 0] == nxt.correct

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
        fwd = model.forward(params, *arrays, mode="train", rng=np.random.default_rng(17))
        grads = model.backward(params, fwd)
        probs, ref = reference_step_loop(model, params, *arrays, np.random.default_rng(17))
        assert fwd.probs.tobytes() == probs.tobytes()
        assert set(grads) == set(ref)
        for key in ref:
            assert grads[key].tobytes() == ref[key].tobytes(), key

    def test_skill_range_validated(self):
        config = DktConfig(num_skills=2, keep_prob=1.0)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(5))
        seq = ResponseSequence(0, (StudentResponse(1, 1), StudentResponse(3, 0)))
        skills, corrects, lengths = batch_arrays([seq])
        with pytest.raises(ValueError, match="1..2"):
            model.forward(params, skills, corrects, lengths)

    def test_short_sequence_raises(self):
        config = DktConfig(num_skills=2, keep_prob=1.0)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(6))
        seq = ResponseSequence(0, (StudentResponse(1, 1),))
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
    @pytest.mark.parametrize("input_mode", ["onehot", "hybrid"])
    def test_backward_matches_finite_differences(self, input_mode):
        rng = np.random.default_rng(9)
        table = rng.normal(size=(4, 3))
        table = table / np.linalg.norm(table, axis=1, keepdims=True)
        config = DktConfig(num_skills=4, hidden=5, keep_prob=1.0, input_mode=input_mode)
        model = DktModel(config, skill_table=table if input_mode == "hybrid" else None)
        params = model.init_params(np.random.default_rng(10))
        seqs = random_sequences(np.random.default_rng(11), 3, 4, min_len=4, max_len=7)
        skills, corrects, lengths = batch_arrays(seqs)

        def loss(p):
            return model.forward(p, skills, corrects, lengths).loss_sum()

        fwd = model.forward(params, skills, corrects, lengths, mode="train")
        grads = model.backward(params, fwd)
        for key in sorted(params):
            def loss_with(arr, k=key):
                p2 = dict(params)
                p2[k] = arr
                return loss(p2)

            numeric = finite_diff(loss_with, params[key])
            assert max_rel_err(numeric, grads[key], floor=1e-3) <= 1e-4, key

    def test_init_shapes(self):
        config = DktConfig(num_skills=6, hidden=5)
        params = init_params(config, 12, np.random.default_rng(12))
        assert params["rnn_wx"].shape == (20, 12)
        assert params["rnn_wh"].shape == (20, 5)
        assert params["out_w"].shape == (6, 5)
        assert params["out_b"].shape == (6,)
        assert_allclose(params["rnn_b"][5:10], np.ones(5))


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
        assert np.array_equal(model.skill_table, table)
