import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kqn.analysis import odds_ratio_identity
from kqn.data import ResponseSequence
from kqn.model import (
    BatchForward,
    KqnModel,
    ModelConfig,
    batch_arrays,
    encode_skill_table,
    forward_batch,
    gru_cell,
    gru_cell_backward,
    init_params,
    lstm_cell,
    lstm_cell_backward,
    onehot_inputs,
    skill_table_backward,
)
from kqn.ops import sigmoid

from helpers import (
    batch_arrays_loop,
    finite_diff,
    kqn_gradient_errors,
    max_rel_err,
    reference_step_loop,
)


def random_sequences(rng, count, num_skills, min_len=2, max_len=9):
    seqs = []
    for sid in range(count):
        steps = int(rng.integers(min_len, max_len + 1))
        resp = tuple(
            (int(rng.integers(1, num_skills + 1)), int(rng.integers(0, 2)))
            for _ in range(steps)
        )
        seqs.append(ResponseSequence(student_id=sid, responses=resp))
    return seqs


def encode_response(skill, correct, num_skills):
    """One response through the batched one-hot step input."""
    step = onehot_inputs(np.array([[skill]]), np.array([[correct]]), num_skills)
    return step(0, np.array([0]))[0]


class TestEncodeResponse:
    def test_wrong_answer_sets_low_half(self):
        assert_allclose(encode_response(1, 0, 2), [1.0, 0.0, 0.0, 0.0])
        assert_allclose(encode_response(2, 0, 2), [0.0, 1.0, 0.0, 0.0])

    def test_correct_answer_sets_high_half(self):
        assert_allclose(encode_response(1, 1, 2), [0.0, 0.0, 1.0, 0.0])
        assert_allclose(encode_response(2, 1, 2), [0.0, 0.0, 0.0, 1.0])

    def test_range_errors(self):
        config = ModelConfig(num_skills=2, dim=2, rnn_hidden=3, mlp_hidden=3, keep_prob=1.0)
        params = init_params(config, np.random.default_rng(0))
        for bad in (0, 3):
            seq = ResponseSequence(0, ((1, 1), (bad, 0)))
            with pytest.raises(ValueError, match="outside 1..2"):
                forward_batch(*batch_arrays([seq]), params, config)

    def test_rows_past_the_last_scored_step_stay_zero(self):
        seqs = [
            ResponseSequence(0, ((2, 1), (1, 0))),
            ResponseSequence(1, ((1, 0),) * 3),
        ]
        skills, corrects, _ = batch_arrays(seqs)
        x = onehot_inputs(skills, corrects, 2)(1, np.array([1]))
        assert_allclose(x, [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])


class TestLstmCell:
    def test_matches_reference_gate_formulas(self):
        rng = np.random.default_rng(0)
        bsz, nin, hh = 3, 4, 5
        x = rng.normal(size=(bsz, nin))
        h_prev = rng.normal(size=(bsz, hh))
        c_prev = rng.normal(size=(bsz, hh))
        wx = rng.normal(size=(4 * hh, nin))
        wh = rng.normal(size=(4 * hh, hh))
        b = rng.normal(size=4 * hh)

        pre = x @ wx.T + h_prev @ wh.T + b
        i = 1.0 / (1.0 + np.exp(-pre[:, :hh]))
        f = 1.0 / (1.0 + np.exp(-pre[:, hh : 2 * hh]))
        g = np.tanh(pre[:, 2 * hh : 3 * hh])
        o = 1.0 / (1.0 + np.exp(-pre[:, 3 * hh :]))
        c_ref = f * c_prev + i * g
        h_ref = o * np.tanh(c_ref)

        h, c, _ = lstm_cell(x, h_prev, c_prev, wx, wh, b)
        assert_allclose(h, h_ref, rtol=1e-12)
        assert_allclose(c, c_ref, rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        bsz, nin, hh = 2, 3, 4
        x = rng.normal(size=(bsz, nin))
        h_prev = rng.normal(size=(bsz, hh))
        c_prev = rng.normal(size=(bsz, hh))
        wx = rng.normal(size=(4 * hh, nin)) * 0.5
        wh = rng.normal(size=(4 * hh, hh)) * 0.5
        b = rng.normal(size=4 * hh) * 0.5
        ph = rng.normal(size=(bsz, hh))
        pc = rng.normal(size=(bsz, hh))

        def loss(x_, h_, c_, wx_, wh_, b_):
            h, c, _ = lstm_cell(x_, h_, c_, wx_, wh_, b_)
            return float(np.sum(h * ph) + np.sum(c * pc))

        h, c, cache = lstm_cell(x, h_prev, c_prev, wx, wh, b)
        dh_prev, dc_prev, dwx, dwh, db = lstm_cell_backward(ph, pc, cache, wx, wh)
        # dh_prev/dc_prev cover the state path; weight grads the parameters
        pairs = [
            (dh_prev, finite_diff(lambda a: loss(x, a, c_prev, wx, wh, b), h_prev)),
            (dc_prev, finite_diff(lambda a: loss(x, h_prev, a, wx, wh, b), c_prev)),
            (dwx, finite_diff(lambda a: loss(x, h_prev, c_prev, a, wh, b), wx)),
            (dwh, finite_diff(lambda a: loss(x, h_prev, c_prev, wx, a, b), wh)),
            (db, finite_diff(lambda a: loss(x, h_prev, c_prev, wx, wh, a), b)),
        ]
        for analytic, numeric in pairs:
            assert max_rel_err(numeric, analytic) < 1e-6


class TestGruCell:
    def test_matches_reference_gate_formulas(self):
        rng = np.random.default_rng(2)
        bsz, nin, hh = 3, 4, 5
        x = rng.normal(size=(bsz, nin))
        h_prev = rng.normal(size=(bsz, hh))
        wx = rng.normal(size=(3 * hh, nin))
        wh = rng.normal(size=(3 * hh, hh))
        b = rng.normal(size=3 * hh)

        a = x @ wx.T + b
        r = 1.0 / (1.0 + np.exp(-(a[:, :hh] + h_prev @ wh[:hh].T)))
        z = 1.0 / (1.0 + np.exp(-(a[:, hh : 2 * hh] + h_prev @ wh[hh : 2 * hh].T)))
        n = np.tanh(a[:, 2 * hh :] + (r * h_prev) @ wh[2 * hh :].T)
        h_ref = z * h_prev + (1.0 - z) * n

        h, _ = gru_cell(x, h_prev, wx, wh, b)
        assert_allclose(h, h_ref, rtol=1e-12)

    def test_all_zero_parameters_halve_the_state(self):
        rng = np.random.default_rng(3)
        h_prev = rng.normal(size=(2, 4))
        x = rng.normal(size=(2, 6))
        h, _ = gru_cell(x, h_prev, np.zeros((12, 6)), np.zeros((12, 4)), np.zeros(12))
        assert_allclose(h, 0.5 * h_prev, rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        bsz, nin, hh = 2, 3, 4
        x = rng.normal(size=(bsz, nin))
        h_prev = rng.normal(size=(bsz, hh))
        wx = rng.normal(size=(3 * hh, nin)) * 0.5
        wh = rng.normal(size=(3 * hh, hh)) * 0.5
        b = rng.normal(size=3 * hh) * 0.5
        ph = rng.normal(size=(bsz, hh))

        def loss(x_, h_, wx_, wh_, b_):
            h, _ = gru_cell(x_, h_, wx_, wh_, b_)
            return float(np.sum(h * ph))

        _, cache = gru_cell(x, h_prev, wx, wh, b)
        dh_prev, dwx, dwh, db = gru_cell_backward(ph, cache, wx, wh)
        pairs = [
            (dh_prev, finite_diff(lambda a: loss(x, a, wx, wh, b), h_prev)),
            (dwx, finite_diff(lambda a: loss(x, h_prev, a, wh, b), wx)),
            (dwh, finite_diff(lambda a: loss(x, h_prev, wx, a, b), wh)),
            (db, finite_diff(lambda a: loss(x, h_prev, wx, wh, a), b)),
        ]
        for analytic, numeric in pairs:
            assert max_rel_err(numeric, analytic) < 1e-6


class TestSkillEncoder:
    def make_params(self, seed=7):
        config = ModelConfig(num_skills=6, dim=3, rnn_hidden=4, mlp_hidden=5)
        return config, init_params(config, np.random.default_rng(seed))

    def test_table_rows_are_unit_vectors(self):
        _, params = self.make_params()
        table, cache = encode_skill_table(params)
        assert table.shape == (6, 3)
        assert_allclose(np.linalg.norm(table, axis=1), np.ones(6), rtol=1e-12)

    def test_single_skill_matches_table_row(self):
        # The query of skill e reads row e-1 of the table; ids past N raise.
        config, params = self.make_params()
        table, _ = encode_skill_table(params)
        for e in range(1, 7):
            seq = ResponseSequence(0, ((1, 1), (e, 0)))
            fwd = forward_batch(*batch_arrays([seq]), params, config)
            assert_allclose(fwd.probs[0, 0], sigmoid(fwd.knowledge_states[0, 0] @ table[e - 1]),
                            rtol=1e-12)
        seq = ResponseSequence(0, ((1, 1), (7, 0)))
        with pytest.raises(ValueError):
            forward_batch(*batch_arrays([seq]), params, config)

    def test_table_matches_reference_mlp(self):
        _, params = self.make_params()
        table, _ = encode_skill_table(params)
        for e in range(1, 7):
            onehot = np.zeros(6)
            onehot[e - 1] = 1.0
            a0 = np.maximum(params["mlp_w0"] @ onehot + params["mlp_b0"], 0.0)
            a1 = np.maximum(params["mlp_w1"] @ a0 + params["mlp_b1"], 0.0)
            assert_allclose(table[e - 1], a1 / np.linalg.norm(a1), rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        _, params = self.make_params(seed=5)
        proj = np.random.default_rng(8).normal(size=(6, 3))

        def loss(p):
            return float(np.sum(encode_skill_table(p)[0] * proj))

        _, cache = encode_skill_table(params)
        grads = skill_table_backward(proj, cache, params)
        for key in ("mlp_w0", "mlp_b0", "mlp_w1", "mlp_b1"):
            def loss_with(arr, k=key):
                p2 = dict(params)
                p2[k] = arr
                return loss(p2)

            numeric = finite_diff(loss_with, params[key])
            assert max_rel_err(numeric, grads[key], floor=1e-3) < 1e-5


class TestQuery:
    """The query head: logit KS . s for the next trial's skill vector."""

    CONFIG = ModelConfig(num_skills=5, dim=4, rnn_hidden=6, mlp_hidden=6, keep_prob=1.0)

    def forward(self, **overrides):
        params = init_params(self.CONFIG, np.random.default_rng(9))
        params.update(overrides)
        seqs = random_sequences(np.random.default_rng(10), 4, self.CONFIG.num_skills)
        skills, corrects, lengths = batch_arrays(seqs)
        return forward_batch(skills, corrects, lengths, params, self.CONFIG), skills

    def test_logit_prob_odds(self):
        fwd, skills = self.forward()
        s_sel = fwd.skill_table[skills[:, 1:].T - 1]
        assert_allclose(fwd.logits, np.sum(fwd.knowledge_states * s_sel, axis=2), rtol=1e-12)
        assert np.array_equal(fwd.probs, sigmoid(fwd.logits))
        assert_allclose(np.log(fwd.probs / (1.0 - fwd.probs)), fwd.logits, atol=1e-12)

    def test_zero_state_gives_even_odds(self):
        fwd, _ = self.forward(proj_w=np.zeros((4, 6)), proj_b=np.zeros(4))
        assert np.all(fwd.logits == 0.0)
        assert np.all(fwd.probs == 0.5)

    def test_saturated_predictions_keep_finite_odds(self):
        # Skill vectors are non-negative unit vectors, so every logit is of
        # size 1e4 or more and every probability rounds to 1 or 0; the
        # logits, the loss and its gradient stay finite.
        for sign in (1.0, -1.0):
            fwd, _ = self.forward(proj_b=np.full(4, sign * 1e4))
            assert np.all(fwd.probs[fwd.valid] == (sign > 0))
            assert np.all(np.isfinite(fwd.logits))
            assert np.isfinite(fwd.loss_sum()) and fwd.loss_sum() > 1e4
            assert np.all(np.abs(fwd.logit_grad()) <= 1.0)

    def test_shape_mismatch_raises(self):
        # The batched query sigmoid(table @ ks) rejects a state of the wrong length.
        with pytest.raises(ValueError):
            odds_ratio_identity(np.zeros(3), np.eye(4))


class TestBatchForward:
    def test_confidently_wrong_trial_keeps_its_gradient(self):
        fwd = BatchForward.from_logits(
            np.array([[-40.0]]), np.array([[0, 1]]), np.array([2]), cache=None
        )
        assert_allclose(fwd.logit_grad(), [[-1.0]], rtol=1e-12)
        assert_allclose(fwd.loss_sum(), 40.0, rtol=1e-12)


class TestBatchArrays:
    def test_padding_and_lengths(self):
        seqs = [
            ResponseSequence(0, ((3, 1), (2, 0))),
            ResponseSequence(1, ((4, 1),)),
        ]
        skills, corrects, lengths = batch_arrays(seqs)
        assert skills.tolist() == [[3, 2], [4, 1]]
        assert corrects.tolist() == [[1, 0], [1, 0]]
        assert lengths.tolist() == [2, 1]

    @settings(deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(1, 500), st.integers(0, 1)),
                             min_size=1, max_size=15), max_size=10))
    def test_scatter_matches_per_response_loop(self, logs):
        seqs = [ResponseSequence(i, pairs) for i, pairs in enumerate(logs)]
        for got, want in zip(batch_arrays(seqs), batch_arrays_loop(seqs)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


class TestForwardBatch:
    def make(self, rnn_kind="lstm", keep_prob=1.0):
        return ModelConfig(
            num_skills=5, dim=4, rnn_kind=rnn_kind, rnn_hidden=6, mlp_hidden=6,
            keep_prob=keep_prob,
        )

    def test_batched_equals_per_sequence(self):
        rng = np.random.default_rng(10)
        for kind in ("lstm", "gru"):
            config = self.make(kind)
            params = init_params(config, np.random.default_rng(11))
            seqs = random_sequences(rng, 6, config.num_skills)
            skills, corrects, lengths = batch_arrays(seqs)
            fwd = forward_batch(skills, corrects, lengths, params, config)
            for b, seq in enumerate(seqs):
                solo = forward_batch(*batch_arrays([seq]), params, config).probs[:, 0]
                batched = fwd.probs[: len(seq.responses) - 1, b]
                assert np.max(np.abs(batched - solo)) <= 1e-9

    @pytest.mark.parametrize("rnn_kind", ["lstm", "gru"])
    def test_matches_step_loop_bit_for_bit(self, rnn_kind):
        model = KqnModel(self.make(rnn_kind, keep_prob=0.6))
        params = model.init_params(np.random.default_rng(28))
        seqs = random_sequences(np.random.default_rng(29), 7, 5, 2, 12)
        arrays = batch_arrays(seqs)
        fwd = model.forward(params, *arrays, mode="train", rng=np.random.default_rng(30))
        grads = model.backward(params, fwd)
        probs, ref = reference_step_loop(model, params, *arrays, np.random.default_rng(30))
        assert fwd.probs.tobytes() == probs.tobytes()
        assert set(grads) == set(ref)
        for key in ref:
            assert grads[key].tobytes() == ref[key].tobytes(), key

    def test_valid_mask_counts(self):
        config = self.make()
        params = init_params(config, np.random.default_rng(12))
        seqs = random_sequences(np.random.default_rng(13), 5, config.num_skills)
        skills, corrects, lengths = batch_arrays(seqs)
        fwd = forward_batch(skills, corrects, lengths, params, config)
        assert fwd.num_valid == sum(len(s.responses) - 1 for s in seqs)
        for b, seq in enumerate(seqs):
            col = fwd.valid[:, b]
            assert col[: len(seq.responses) - 1].all()
            assert not col[len(seq.responses) - 1 :].any()

    def test_targets_are_next_trial_correctness(self):
        config = self.make()
        params = init_params(config, np.random.default_rng(14))
        seq = ResponseSequence(0, ((1, 1), (3, 0), (2, 1)))
        skills, corrects, lengths = batch_arrays([seq])
        fwd = forward_batch(skills, corrects, lengths, params, config)
        assert fwd.targets[:, 0].tolist() == [0.0, 1.0]

    def test_short_sequence_raises(self):
        config = self.make()
        params = init_params(config, np.random.default_rng(15))
        seqs = [
            ResponseSequence(0, ((1, 1), (2, 0))),
            ResponseSequence(1, ((1, 1),)),
        ]
        with pytest.raises(ValueError, match="at least 2 responses"):
            forward_batch(*batch_arrays(seqs), params, config)

    def test_train_mode_validation(self):
        config = self.make(keep_prob=0.5)
        params = init_params(config, np.random.default_rng(16))
        seqs = random_sequences(np.random.default_rng(17), 3, config.num_skills)
        skills, corrects, lengths = batch_arrays(seqs)
        with pytest.raises(ValueError):
            forward_batch(skills, corrects, lengths, params, config, mode="train")
        with pytest.raises(ValueError):
            forward_batch(skills, corrects, lengths, params, config, mode="predict")

    def test_dropout_changes_train_but_not_eval(self):
        config = self.make(keep_prob=0.5)
        params = init_params(config, np.random.default_rng(18))
        seqs = random_sequences(np.random.default_rng(19), 4, config.num_skills)
        skills, corrects, lengths = batch_arrays(seqs)
        ev = forward_batch(skills, corrects, lengths, params, config, mode="eval")
        tr = forward_batch(
            skills, corrects, lengths, params, config, mode="train",
            rng=np.random.default_rng(20),
        )
        assert np.max(np.abs(ev.probs - tr.probs)) > 1e-6
        ev2 = forward_batch(skills, corrects, lengths, params, config, mode="eval")
        assert np.array_equal(ev.probs, ev2.probs)

    def test_keep_prob_one_train_equals_eval(self):
        config = self.make(keep_prob=1.0)
        params = init_params(config, np.random.default_rng(21))
        seqs = random_sequences(np.random.default_rng(22), 4, config.num_skills)
        skills, corrects, lengths = batch_arrays(seqs)
        ev = forward_batch(skills, corrects, lengths, params, config, mode="eval")
        tr = forward_batch(skills, corrects, lengths, params, config, mode="train")
        assert np.array_equal(ev.probs, tr.probs)

    def test_total_loss_sums_trial_entropies(self):
        config = self.make()
        params = init_params(config, np.random.default_rng(23))
        seq = random_sequences(np.random.default_rng(24), 1, config.num_skills, 5, 5)[0]
        fwd = forward_batch(*batch_arrays([seq]), params, config)
        expected = -sum(
            np.log(p) if correct == 1 else np.log(1.0 - p)
            for p, correct in zip(fwd.probs[:, 0], seq.responses[1:, 1])
        )
        assert_allclose(fwd.loss_sum(), expected, rtol=1e-12)
        empty = forward_batch(*batch_arrays([]), params, config)
        assert empty.num_valid == 0 and empty.loss_sum() == 0.0


class TestInitParams:
    def test_shapes_and_forget_gate_bias(self):
        config = ModelConfig(num_skills=5, dim=4, rnn_kind="lstm", rnn_hidden=6, mlp_hidden=7)
        params = init_params(config, np.random.default_rng(25))
        assert params["rnn_wx"].shape == (24, 10)
        assert params["rnn_wh"].shape == (24, 6)
        assert params["rnn_b"].shape == (24,)
        assert params["proj_w"].shape == (4, 6)
        assert params["mlp_w0"].shape == (7, 5)
        assert params["mlp_w1"].shape == (4, 7)
        # forget-gate rows start open, everything else at zero
        assert_allclose(params["rnn_b"][6:12], np.ones(6))
        assert_allclose(params["rnn_b"][:6], np.zeros(6))
        assert_allclose(params["rnn_b"][12:], np.zeros(12))

    def test_gru_has_three_gate_rows(self):
        config = ModelConfig(num_skills=5, dim=4, rnn_kind="gru", rnn_hidden=6, mlp_hidden=7)
        params = init_params(config, np.random.default_rng(26))
        assert params["rnn_wx"].shape == (18, 10)
        assert_allclose(params["rnn_b"], np.zeros(18))

    def test_init_scale_tracks_fan_in(self):
        config = ModelConfig(num_skills=5, dim=4, rnn_hidden=6, mlp_hidden=7)
        params = init_params(config, np.random.default_rng(27))
        assert np.max(np.abs(params["rnn_wx"])) <= 1.0 / np.sqrt(10)
        assert np.max(np.abs(params["rnn_wh"])) <= 1.0 / np.sqrt(6)
        assert np.max(np.abs(params["mlp_w0"])) <= 1.0 / np.sqrt(5)


class TestFullGradient:
    def test_lstm_gradients_match_finite_differences(self):
        errors = kqn_gradient_errors("lstm")
        assert max(errors.values()) <= 1e-4, errors

    def test_gru_gradients_match_finite_differences(self):
        errors = kqn_gradient_errors("gru")
        assert max(errors.values()) <= 1e-4, errors
