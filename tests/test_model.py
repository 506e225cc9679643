import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kqn.analysis import odds_ratio_identity
from kqn.data import ResponseSequence, SyntheticSpec
from kqn.dkt import DktConfig, DktModel
from kqn.model import (
    BatchForward,
    KqnModel,
    ModelConfig,
    _gate,
    batch_arrays,
    encode_skill_table,
    fold_gates,
    forward_batch,
    gru_cell_backward,
    init_params,
    init_recurrent,
    lstm_cell_backward,
    response_rows,
    scatter_add,
    skill_table_backward,
    uniform_weights,
)
from kqn.ops import sigmoid
from kqn.training import TrainConfig

from helpers import (
    SCAN_GRAD_RTOL,
    assert_matches_step_loop,
    batch_arrays_loop,
    dense_inputs,
    finite_diff,
    folded_gru_cell,
    folded_lstm_cell,
    kqn_gradient_errors,
    max_rel_err,
    reference_gate,
    reference_gru_cell,
    reference_gru_cell_backward,
    reference_lstm_cell,
    reference_lstm_cell_backward,
    traced_peak,
    traced_scan,
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
    """One response's step input: its response row of the identity, the
    matrix scan gathers from for one-hot inputs."""
    return np.eye(2 * num_skills)[response_rows(np.array(skill), np.array(correct), num_skills)]


def projection_draw(data, max_skills=130):
    """A batch with repeated students and skills, its response rows, its
    dense one-hot inputs and an LSTM's recurrent parameters, at gate
    widths up to the paper-size LSTM's 512."""
    n = data.draw(st.integers(1, max_skills), label="num_skills")
    hh = data.draw(st.sampled_from([1, 3, 24, 128]), label="hidden")
    k = data.draw(st.integers(1, 40), label="students")
    distinct = data.draw(st.integers(1, n), label="skills drawn from")
    repeat = data.draw(st.booleans(), label="every other student repeats the first")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, 6, size=k)
    skills = rng.integers(1, distinct + 1, size=(k, 5))
    corrects = rng.integers(0, 2, size=(k, 5))
    if repeat:
        skills[::2], corrects[::2] = skills[0], corrects[0]
    config = ModelConfig(num_skills=max(n, 2), dim=2, rnn_hidden=hh, mlp_hidden=2)
    params = init_params(config, rng)
    x = dense_inputs(KqnModel(config), params, skills, corrects)
    return params, response_rows(skills, corrects, config.num_skills), lengths, x


class TestConfigTypes:
    # Each config refuses a wrongly typed field itself, before init_params
    # or save_checkpoint would meet it.
    @pytest.mark.parametrize("make, message", [
        (lambda: ModelConfig(num_skills=5, dim=4, keep_prob=True),
         "config field 'keep_prob' must be of type float, got True"),
        (lambda: ModelConfig(num_skills=5, dim=True),
         "config field 'dim' must be of type int, got True"),
        (lambda: ModelConfig(num_skills=np.int64(5), dim=4),
         "config field 'num_skills' must be of type int, got np.int64(5)"),
        (lambda: ModelConfig(num_skills=5, dim=4, rnn_kind=1),
         "config field 'rnn_kind' must be of type str, got 1"),
        (lambda: DktConfig(num_skills=5, hidden=2.5),
         "config field 'hidden' must be of type int, got 2.5"),
        (lambda: DktConfig(num_skills=5, hidden=True),
         "config field 'hidden' must be of type int, got True"),
    ])
    def test_wrong_type_is_refused(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    @pytest.mark.parametrize("make, field", [
        (lambda: TrainConfig(batch_size=True), "batch_size"),
        (lambda: TrainConfig(patience=2.5), "patience"),
        (lambda: TrainConfig(epochs_validation=2.0), "epochs_validation"),
        (lambda: TrainConfig(adam_alpha="0.1"), "adam_alpha"),
        (lambda: TrainConfig(seed=1.5), "seed"),
        (lambda: TrainConfig(seed=-1), "seed"),
        (lambda: SyntheticSpec(num_students=2.0, num_skills=4, num_concepts=2,
                               steps_per_student=3), "num_students"),
        (lambda: SyntheticSpec(num_students=2, num_skills=4, num_concepts=2,
                               steps_per_student=3, guess="0.1"), "guess"),
    ], ids=["batch_size_bool", "patience_float", "epochs_float", "alpha_str", "seed_float",
            "seed_negative", "students_float", "guess_str"])
    def test_train_and_synthetic_configs_refuse_bad_fields(self, make, field):
        # The same type rule as the model configs, before train() or the
        # generator would fail on the value or use it silently.
        with pytest.raises(ValueError, match=f"\\b{field}\\b"):
            make()

    def test_an_int_serves_for_a_float(self):
        assert ModelConfig(num_skills=5, dim=4, keep_prob=1).keep_prob == 1
        assert DktConfig(num_skills=5, keep_prob=1).keep_prob == 1


class TestEncodeResponse:
    def test_wrong_answer_sets_low_half(self):
        assert response_rows(np.array([1, 2]), np.array([0, 0]), 2).tolist() == [0, 1]
        assert_allclose(encode_response(1, 0, 2), [1.0, 0.0, 0.0, 0.0])
        assert_allclose(encode_response(2, 0, 2), [0.0, 1.0, 0.0, 0.0])

    def test_correct_answer_sets_high_half(self):
        assert response_rows(np.array([1, 2]), np.array([1, 1]), 2).tolist() == [2, 3]
        assert_allclose(encode_response(1, 1, 2), [0.0, 0.0, 1.0, 0.0])
        assert_allclose(encode_response(2, 1, 2), [0.0, 0.0, 0.0, 1.0])

    def test_range_errors(self):
        config = ModelConfig(num_skills=2, dim=2, rnn_hidden=3, mlp_hidden=3, keep_prob=1.0)
        params = init_params(config, np.random.default_rng(0))
        for bad in (0, 3):
            seq = ResponseSequence(0, ((1, 1), (bad, 0)))
            with pytest.raises(ValueError, match="outside 1..2"):
                forward_batch(*batch_arrays([seq]), params, config)

    def test_one_input_row_per_given_row_in_order(self):
        # Step j gathers hot[rows, j]: one row per given student, in the
        # given order, each the identity row equal to the dense input.
        seqs = [
            ResponseSequence(0, ((2, 1), (1, 0))),
            ResponseSequence(1, ((1, 0),) * 3),
        ]
        skills, corrects, _ = batch_arrays(seqs)
        hot = response_rows(skills, corrects, 2)
        assert hot[[1, 0], 0].tolist() == [0, 3]
        assert hot[[1], 1].tolist() == [0]
        assert hot[np.array([], dtype=int), 1].shape == (0,)
        config = ModelConfig(num_skills=2, dim=2)
        x = dense_inputs(KqnModel(config), None, skills, corrects)
        assert np.eye(4)[hot].tobytes() == x.tobytes()

    @settings(deadline=None)
    @given(st.data())
    def test_projection_gather_equals_dense_product_bit_for_bit(self, data):
        # The row of rnn_wx.T that scan gathers for each running student
        # is x @ wx.T bit for bit, a one-hot row adding only exact zeros,
        # over k = 1 and up, repeated skills and responses included.
        params, hot, lengths, x = projection_draw(data)
        rows, taken, _, _ = traced_scan(params, hot, lengths)
        wx = params["rnn_wx"]
        assert len(taken) == len(rows) == lengths.max() - 1
        for j, (given, a) in enumerate(zip(rows, taken)):
            assert a.tobytes() == (x[given, j] @ wx.T).tobytes()

    @settings(deadline=None)
    @given(st.data())
    def test_projection_grad_equals_dense_product(self, data):
        # rnn_wx's gradient from the scatter-add of every step's dpre into
        # one table is the sum of the dense products x.T @ dpre; repeated
        # responses accumulate in another order.
        params, hot, lengths, x = projection_draw(data)
        rows, _, dpres, got = traced_scan(params, hot, lengths, seed=1)
        want = sum(x[given, j].T @ dpre for j, (given, dpre) in enumerate(zip(rows, dpres))).T
        assert np.max(np.abs(got - want)) <= SCAN_GRAD_RTOL * np.max(np.abs(want))


class TestScatterAdd:
    @settings(deadline=None)
    @given(st.data())
    def test_equals_2d_add_at_bit_for_bit(self, data):
        # A table that already holds values, indices repeated in any order.
        m = data.draw(st.integers(1, 130), label="table rows")
        w = data.draw(st.sampled_from([1, 3, 64, 128, 512]), label="width")
        k = data.draw(st.integers(0, 300), label="rows added")
        distinct = data.draw(st.integers(1, m), label="indices drawn from")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        start = rng.normal(size=(m, w)) * 10.0 ** rng.integers(-3, 4, size=(m, 1))
        index = rng.integers(0, distinct, size=k)
        rows = rng.normal(size=(k, w))
        want = start.copy()
        np.add.at(want, index, rows)
        got = start.copy()
        scatter_add(got, index, rows)
        assert got.tobytes() == want.tobytes()


class TestGate:
    def test_tanh_form_is_the_sigmoid_within_one_ulp_of_one(self):
        # On a block folded by 0.5, scale and offset 0.5 give the tanh form
        # of the logistic function. The error is absolute: below about -38
        # the tanh form is exactly 0 while the sigmoid is still positive.
        rng = np.random.default_rng(41)
        u = np.concatenate([
            rng.uniform(-1e3, 1e3, 200_000), rng.normal(0.0, 5.0, 200_000),
            np.linspace(-60.0, 60.0, 240_001), [-1e3, 1e3, -np.inf, np.inf, 0.0, -0.0],
        ])
        with np.errstate(all="raise"):
            g = _gate(0.5 * u, 0.5, 0.5)
        assert g.min() >= 0.0 and g.max() <= 1.0
        assert np.max(np.abs(g - sigmoid(u))) <= 2.0 ** -52
        assert g.tobytes() == reference_gate(u).tobytes()
        assert _gate(np.array([-np.inf, np.inf]), 0.5, 0.5).tolist() == [0.0, 1.0]

    def test_tanh_block_is_tanh_bit_for_bit(self):
        # Scale 1.0 and offset -0.0 leave tanh's bits, the sign of zero
        # included; offset +0.0 would turn tanh(-0.0) = -0.0 into +0.0.
        rng = np.random.default_rng(42)
        u = np.concatenate([rng.normal(0.0, 3.0, 10_000), [0.0, -0.0, -np.inf, np.inf, -1e-300]])
        assert _gate(u.copy(), 1.0, -0.0).tobytes() == np.tanh(u).tobytes()
        assert np.signbit(_gate(np.array([-0.0]), 1.0, -0.0)).tolist() == [True]
        assert np.signbit(_gate(np.array([-0.0]), 1.0, 0.0)).tolist() == [False]

    @pytest.mark.parametrize("rnn_kind", ["lstm", "gru"])
    def test_fold_halves_only_the_logistic_blocks(self, rnn_kind):
        # fold_gates' emb, weights and bias are the stored ones, transposed
        # for the weights, with each logistic block halved; the GRU's emb
        # also holds its bias.
        hh, gates = 3, {"lstm": 4, "gru": 3}[rnn_kind]
        rng = np.random.default_rng(43)
        emb = rng.normal(size=(5, gates * hh))
        params = init_recurrent(rng, rnn_kind, hh, 5)
        params["rnn_b"] = rng.normal(size=gates * hh)
        folded = emb.copy()
        operands = fold_gates(rnn_kind, folded, params["rnn_wh"], params["rnn_b"])
        scale = np.repeat([0.5, 0.5, 1.0, 0.5][:gates], hh)
        wh = operands[0]
        assert wh.flags.c_contiguous and wh.shape == (hh, gates * hh)
        assert wh.tobytes() == (params["rnn_wh"].T * scale).tobytes()
        if rnn_kind == "gru":
            assert len(operands) == 1
            assert folded.tobytes() == ((emb + params["rnn_b"]) * scale).tobytes()
        else:
            _, b, got_scale, offset = operands
            assert folded.tobytes() == (emb * scale).tobytes()
            assert b.tobytes() == (params["rnn_b"] * scale).tobytes()
            assert got_scale.tolist() == scale.tolist()
            assert offset.tobytes() == np.repeat([0.5, 0.5, -0.0, 0.5], hh).tobytes()


def kernel_operands(data, rnn_kind):
    """Operands of one cell step, drawn for the bit-exact oracle: H from
    {1, 3, 8, 20, 32, 128} (at 3 and 20 one product with the GRU's (H, 2H)
    r|z block would give other bits than its two (H, H) products), k from
    {1, 2, 3, 16, 37, 128}, weights at their init scale or larger, and
    optionally saturated pre-activations (entries of a with |u| in
    [40, 1000], so gates are exactly 0 or 1 and tanh +-1), exact +-0.0
    entries (in the bias too) and all-zero rows."""
    hh = data.draw(st.sampled_from([1, 3, 8, 20, 32, 128]), label="hidden")
    k = data.draw(st.sampled_from([1, 2, 3, 16, 37, 128]), label="rows")
    gain = data.draw(st.sampled_from([1.0, 4.0, 16.0]), label="weight gain")
    saturate = data.draw(st.booleans(), label="saturated entries")
    zeros = data.draw(st.booleans(), label="signed-zero entries")
    zero_rows = data.draw(st.booleans(), label="zero rows")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    width = {"lstm": 4, "gru": 3}[rnn_kind] * hh
    params = init_recurrent(rng, rnn_kind, hh, 2)
    wh = params["rnn_wh"] * gain
    b = rng.normal(size=width)
    arrays = {"a": rng.normal(0.0, 2.0, (k, width)), "h_prev": rng.uniform(-1.0, 1.0, (k, hh)),
              "c_prev": rng.normal(0.0, 2.0, (k, hh)), "dh": rng.normal(size=(k, hh)),
              "dc_next": rng.normal(size=(k, hh))}
    if saturate:
        a = arrays["a"]
        hit = rng.random(a.shape) < 0.3
        a[hit] = rng.choice([-1.0, 1.0], hit.sum()) * rng.uniform(40.0, 1000.0, hit.sum())
    for x in (*arrays.values(), b):
        if zeros:
            hit = rng.random(x.shape) < 0.2
            x[hit] = rng.choice([-0.0, 0.0], hit.sum())
    if zero_rows:
        for x in arrays.values():
            x[rng.random(k) < 0.3] = rng.choice([-0.0, 0.0])
    return arrays, wh, b


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for i, (x, y) in enumerate(zip(got, want)):
        assert np.shape(x) == np.shape(y), i
        assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), i


class TestKernelsMatchReference:
    """The stacked-gate kernels give the unfolded reference cells' bits,
    the sign of zero included: h and c forward, dh_prev, dc_prev, dpre,
    dwh and db backward. The reference takes its operands as scan gave
    them (wh as the .T view of its C-contiguous transpose), the kernel
    takes them folded by fold_gates, and the backward passes both take
    rnn_wh as stored."""

    @settings(deadline=None)
    @given(st.data())
    def test_lstm(self, data):
        x, wh, b = kernel_operands(data, "lstm")
        ref_h, ref_c, ref_cache = reference_lstm_cell(
            x["a"], x["h_prev"], x["c_prev"], np.ascontiguousarray(wh.T).T, b)
        h, c, cache = folded_lstm_cell(x["a"], x["h_prev"], x["c_prev"], wh, b)
        assert_same_bits((h, c), (ref_h, ref_c))
        assert_same_bits(lstm_cell_backward(x["dh"], x["dc_next"], cache, wh),
                         reference_lstm_cell_backward(x["dh"], x["dc_next"], ref_cache, wh))

    @settings(deadline=None)
    @given(st.data())
    def test_gru(self, data):
        x, wh, b = kernel_operands(data, "gru")
        ref_h, ref_cache = reference_gru_cell(x["a"], x["h_prev"], np.ascontiguousarray(wh.T).T, b)
        h, cache = folded_gru_cell(x["a"], x["h_prev"], wh, b)
        assert_same_bits((h,), (ref_h,))
        assert_same_bits(gru_cell_backward(x["dh"], cache, wh),
                         reference_gru_cell_backward(x["dh"], ref_cache, wh))


class TestLstmCell:
    def test_matches_reference_gate_formulas(self):
        rng = np.random.default_rng(0)
        bsz, hh = 3, 5
        a = rng.normal(size=(bsz, 4 * hh))
        h_prev = rng.normal(size=(bsz, hh))
        c_prev = rng.normal(size=(bsz, hh))
        wh = rng.normal(size=(4 * hh, hh))
        b = rng.normal(size=4 * hh)

        pre = a + h_prev @ wh.T + b
        i = 1.0 / (1.0 + np.exp(-pre[:, :hh]))
        f = 1.0 / (1.0 + np.exp(-pre[:, hh : 2 * hh]))
        g = np.tanh(pre[:, 2 * hh : 3 * hh])
        o = 1.0 / (1.0 + np.exp(-pre[:, 3 * hh :]))
        c_ref = f * c_prev + i * g
        h_ref = o * np.tanh(c_ref)

        h, c, _ = folded_lstm_cell(a, h_prev, c_prev, wh, b)
        assert_allclose(h, h_ref, rtol=1e-12)
        assert_allclose(c, c_ref, rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        bsz, hh = 2, 4
        a = rng.normal(size=(bsz, 4 * hh))
        h_prev = rng.normal(size=(bsz, hh))
        c_prev = rng.normal(size=(bsz, hh))
        wh = rng.normal(size=(4 * hh, hh)) * 0.5
        b = rng.normal(size=4 * hh) * 0.5
        ph = rng.normal(size=(bsz, hh))
        pc = rng.normal(size=(bsz, hh))

        def loss(a_, h_, c_, wh_, b_):
            h, c, _ = folded_lstm_cell(a_, h_, c_, wh_, b_)
            return float(np.sum(h * ph) + np.sum(c * pc))

        h, c, cache = folded_lstm_cell(a, h_prev, c_prev, wh, b)
        dh_prev, dc_prev, dpre, dwh, db = lstm_cell_backward(ph, pc, cache, wh)
        # dpre/dh_prev/dc_prev cover the input and state paths; dwh/db the
        # parameters
        pairs = [
            (dpre, finite_diff(lambda v: loss(v, h_prev, c_prev, wh, b), a)),
            (dh_prev, finite_diff(lambda v: loss(a, v, c_prev, wh, b), h_prev)),
            (dc_prev, finite_diff(lambda v: loss(a, h_prev, v, wh, b), c_prev)),
            (dwh, finite_diff(lambda v: loss(a, h_prev, c_prev, v, b), wh)),
            (db, finite_diff(lambda v: loss(a, h_prev, c_prev, wh, v), b)),
        ]
        for analytic, numeric in pairs:
            assert max_rel_err(numeric, analytic) < 1e-6


class TestGruCell:
    def test_matches_reference_gate_formulas(self):
        rng = np.random.default_rng(2)
        bsz, hh = 3, 5
        a = rng.normal(size=(bsz, 3 * hh))
        h_prev = rng.normal(size=(bsz, hh))
        wh = rng.normal(size=(3 * hh, hh))
        b = rng.normal(size=3 * hh)

        ab = a + b
        r = 1.0 / (1.0 + np.exp(-(ab[:, :hh] + h_prev @ wh[:hh].T)))
        z = 1.0 / (1.0 + np.exp(-(ab[:, hh : 2 * hh] + h_prev @ wh[hh : 2 * hh].T)))
        n = np.tanh(ab[:, 2 * hh :] + (r * h_prev) @ wh[2 * hh :].T)
        h_ref = z * h_prev + (1.0 - z) * n

        h, _ = folded_gru_cell(a, h_prev, wh, b)
        assert_allclose(h, h_ref, rtol=1e-12)

    def test_all_zero_parameters_halve_the_state(self):
        rng = np.random.default_rng(3)
        h_prev = rng.normal(size=(2, 4))
        h, _ = folded_gru_cell(np.zeros((2, 12)), h_prev, np.zeros((12, 4)), np.zeros(12))
        assert_allclose(h, 0.5 * h_prev, rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        bsz, hh = 2, 4
        a = rng.normal(size=(bsz, 3 * hh))
        h_prev = rng.normal(size=(bsz, hh))
        wh = rng.normal(size=(3 * hh, hh)) * 0.5
        b = rng.normal(size=3 * hh) * 0.5
        ph = rng.normal(size=(bsz, hh))

        def loss(a_, h_, wh_, b_):
            h, _ = folded_gru_cell(a_, h_, wh_, b_)
            return float(np.sum(h * ph))

        _, cache = folded_gru_cell(a, h_prev, wh, b)
        dh_prev, dpre, dwh, db = gru_cell_backward(ph, cache, wh)
        pairs = [
            (dpre, finite_diff(lambda v: loss(v, h_prev, wh, b), a)),
            (dh_prev, finite_diff(lambda v: loss(a, v, wh, b), h_prev)),
            (dwh, finite_diff(lambda v: loss(a, h_prev, v, b), wh)),
            (db, finite_diff(lambda v: loss(a, h_prev, wh, v), b)),
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
            assert_allclose(fwd.probs[0, 0], sigmoid(fwd.knowledge_states[0] @ table[e - 1]),
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
        # One knowledge state per valid cell, in the row-major order of valid.
        s_sel = fwd.skill_table[skills[:, 1:].T - 1][fwd.valid]
        assert fwd.knowledge_states.shape == (fwd.num_valid, self.CONFIG.dim)
        assert_allclose(fwd.logits[fwd.valid], np.sum(fwd.knowledge_states * s_sel, axis=1),
                        rtol=1e-12)
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
        fwd = BatchForward.from_valid(
            np.array([-40.0]), np.array([[True]]), np.array([[0, 1]]), cache=None
        )
        assert_allclose(fwd.logit_grad(), [-1.0], rtol=1e-12)
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
        assert_matches_step_loop(model, params, arrays, 30)

    @pytest.mark.parametrize("variant", ["lstm", "gru", "hybrid"])
    def test_packed_scan_with_longest_row_not_first(self, variant):
        # Sorting puts rows 1 and 3 (tied, longest) first and row 2 last;
        # each step then runs on a shrinking prefix of that order.
        if variant == "hybrid":
            table = np.random.default_rng(31).random((5, 3))
            model = DktModel(DktConfig(num_skills=5, hidden=6, keep_prob=0.6,
                                       input_mode="hybrid"), skill_table=table)
        else:
            model = KqnModel(self.make(variant, keep_prob=0.6))
        params = model.init_params(np.random.default_rng(32))
        rng = np.random.default_rng(33)
        seqs = [
            ResponseSequence(b, tuple((int(rng.integers(1, 6)), int(rng.integers(0, 2)))
                                      for _ in range(n)))
            for b, n in enumerate((4, 9, 2, 9, 6))
        ]
        arrays = batch_arrays(seqs)
        assert_matches_step_loop(model, params, arrays, 34)
        # Each column is the student's own: reordering the batch reorders
        # the columns of the eval-mode probabilities and nothing else.
        fwd = model.forward(params, *arrays)
        perm = [4, 2, 0, 3, 1]
        moved = model.forward(params, *batch_arrays([seqs[b] for b in perm]))
        assert_allclose(moved.probs[moved.valid], fwd.probs[:, perm][fwd.valid[:, perm]],
                        rtol=1e-12)

    @pytest.mark.parametrize("variant", ["lstm", "gru", "dkt"])
    def test_invalid_cells_hold_zero(self, variant):
        # Nonzero output biases: a head run on a padded cell's zero
        # recurrent output would give it a nonzero logit.
        if variant == "dkt":
            model = DktModel(DktConfig(num_skills=5, hidden=6, keep_prob=0.6))
        else:
            model = KqnModel(self.make(variant, keep_prob=0.6))
        params = model.init_params(np.random.default_rng(35))
        bias = "out_b" if variant == "dkt" else "proj_b"
        params[bias] = np.random.default_rng(36).normal(size=params[bias].shape)
        arrays = batch_arrays(random_sequences(np.random.default_rng(37), 6, 5, 2, 10))
        for mode in ("eval", "train"):
            fwd = model.forward(params, *arrays, mode=mode, rng=np.random.default_rng(38))
            padded = ~fwd.valid
            assert padded.any() and np.all(fwd.logits[fwd.valid] != 0.0)
            assert np.all(fwd.logits[padded] == 0.0)
            assert np.array_equal(fwd.probs, sigmoid(fwd.logits))
            if variant == "dkt":
                assert fwd.knowledge_states is None
            else:
                assert len(fwd.knowledge_states) == fwd.num_valid

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

    def test_dropout_draws_only_the_scored_cells(self):
        # One uniform per scored cell and hidden unit, none for padding.
        config = self.make(keep_prob=0.6)
        params = init_params(config, np.random.default_rng(39))
        seqs = random_sequences(np.random.default_rng(40), 6, config.num_skills, 2, 12)
        rng = np.random.default_rng(41)
        fwd = forward_batch(*batch_arrays(seqs), params, config, mode="train", rng=rng)
        assert not fwd.valid.all()
        fresh = np.random.default_rng(41)
        fresh.random((fwd.num_valid, config.rnn_hidden))
        assert rng.bit_generator.state == fresh.bit_generator.state

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


    @pytest.mark.parametrize("rnn_kind", ["lstm", "gru"])
    def test_draw_and_key_order(self, rnn_kind):
        # Fits and checkpoints depend on this order: the recurrent block
        # first, then the projection and the two encoder layers.
        config = ModelConfig(num_skills=5, dim=4, rnn_kind=rnn_kind, rnn_hidden=6, mlp_hidden=7)
        params = init_params(config, np.random.default_rng(30))
        rows = (4 if rnn_kind == "lstm" else 3) * 6
        rng = np.random.default_rng(30)
        for key, shape in (("rnn_wx", (rows, 10)), ("rnn_wh", (rows, 6)), ("proj_w", (4, 6)),
                           ("mlp_w0", (7, 5)), ("mlp_w1", (4, 7))):
            lim = 1.0 / np.sqrt(shape[1])
            assert params[key].tobytes() == rng.uniform(-lim, lim, size=shape).tobytes(), key
        assert list(params) == ["rnn_wx", "rnn_wh", "rnn_b", "proj_w", "proj_b",
                                "mlp_w0", "mlp_b0", "mlp_w1", "mlp_b1"]


class TestFullGradient:
    def test_lstm_gradients_match_finite_differences(self):
        errors = kqn_gradient_errors("lstm")
        assert max(errors.values()) <= 1e-4, errors

    def test_gru_gradients_match_finite_differences(self):
        errors = kqn_gradient_errors("gru")
        assert max(errors.values()) <= 1e-4, errors


class TestRowBits:
    """The BLAS property the eval-mode floor of 2 rows rests on. With each
    weight laid out as scan and forward_batch read it, a C-contiguous
    (in, out) matrix or a column block of one, every row of a product of 2
    to 300 rows is the same bits as the same row of a 1024-row product.
    The (out, in) layout read as x @ w.T does not have the property: at
    inner width 32 and output width 128 its products of up to 9 rows
    differ in the last bit."""

    @pytest.mark.parametrize("hidden", [8, 32, 128])
    def test_rows_are_the_same_bits_at_every_row_count(self, hidden):
        rng = np.random.default_rng(hidden)
        lstm = np.ascontiguousarray(init_recurrent(rng, "lstm", hidden, 2)["rnn_wh"].T)
        gru = np.ascontiguousarray(init_recurrent(rng, "gru", hidden, 2)["rnn_wh"].T)
        operands = {"lstm": lstm}
        for g, gate in enumerate("rzn"):
            operands[f"gru_{gate}"] = gru[:, g * hidden : (g + 1) * hidden]
        for dim in (8, 16, 32, 64):
            operands[f"head_{dim}"] = np.ascontiguousarray(uniform_weights(rng, dim, hidden).T)
        x = rng.uniform(-1.0, 1.0, size=(1024, hidden))
        for name, w in operands.items():
            full = x @ w
            differ = [k for k in range(2, 301) if (x[:k] @ w).tobytes() != full[:k].tobytes()]
            assert not differ, (name, differ[:5])


class TestBatchInvariance:
    """A student's eval-mode probabilities are the same bits scored alone,
    in any batch and at any position. Every eval-mode product reads its
    weight as a C-contiguous (in, out) matrix, whose rows are the same
    bits at every row count from 2 up (TestRowBits), and a step or head
    product of one row runs on 2, zero-padded. The batches mix short
    students with a long one, so a step's row count falls to 1, and the
    widths span small products (H=8, d=8) and large ones (H=128, d=64)."""

    VARIANTS = ("lstm", "gru", "onehot", "correctness", "signed")

    @staticmethod
    def make(variant, n, hidden, dim, rng):
        if variant in ("lstm", "gru"):
            return KqnModel(ModelConfig(num_skills=n, dim=dim, rnn_kind=variant,
                                        rnn_hidden=hidden, mlp_hidden=hidden))
        if variant == "onehot":
            return DktModel(DktConfig(num_skills=n, hidden=hidden))
        config = DktConfig(num_skills=n, hidden=hidden, input_mode="hybrid",
                           hybrid_encoding=variant)
        return DktModel(config, skill_table=rng.random((n, dim)))

    def assert_invariant(self, variant, n, hidden, dim, lengths, position, rng):
        model = self.make(variant, n, hidden, dim, rng)
        params = model.init_params(rng)
        seqs = [ResponseSequence(b, np.column_stack((rng.integers(1, n + 1, t),
                                                     rng.integers(0, 2, t))))
                for b, t in enumerate(lengths)]
        steps = lengths[position] - 1
        alone = model.forward(params, *batch_arrays([seqs[position]])).probs[:, 0]
        batched = model.forward(params, *batch_arrays(seqs)).probs[:steps, position]
        assert batched.tobytes() == alone.tobytes()

    @settings(deadline=None)
    @given(st.data())
    def test_probs_do_not_depend_on_the_batch(self, data):
        variant = data.draw(st.sampled_from(self.VARIANTS), label="model")
        hidden = data.draw(st.sampled_from([8, 32, 64, 128]), label="hidden")
        dim = data.draw(st.sampled_from([8, 16, 32, 64]), label="dim")
        n = data.draw(st.integers(2, 12), label="skills")
        size = data.draw(st.integers(1, 40), label="batch size")
        position = data.draw(st.integers(0, size - 1), label="position")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        lengths = rng.integers(2, 13, size=size)
        lengths[rng.integers(size)] = rng.integers(30, 81)
        self.assert_invariant(variant, n, hidden, dim, lengths, position, rng)

    @pytest.mark.parametrize("variant, n, hidden, dim", [
        ("lstm", 50, 32, 16), ("gru", 50, 32, 8), ("onehot", 50, 32, 8),  # desk, analysis
        ("lstm", 124, 128, 64), ("gru", 124, 128, 32), ("onehot", 124, 128, 8),  # paper
    ])
    def test_benchmark_shapes(self, variant, n, hidden, dim):
        # The others finish first, so the long student's steps run on
        # fewer and fewer rows, down to 1 for its last 19 steps.
        rng = np.random.default_rng(hidden + dim)
        lengths = rng.integers(2, 61, size=40)
        lengths[7] = 80
        self.assert_invariant(variant, n, hidden, dim, lengths, 7, rng)


class TestScanMemory:
    """scan hands the heads one row per scored cell and draws dropout on
    those rows only, and the query model keeps one knowledge state per
    scored cell. On a skewed batch, one student of 200 trials and 63 of 3,
    a padded (S, B, H) or (S, B, d) block at width 64 would be 6.5 MB, 97%
    of it padding; no pass may need one."""

    MODELS = {
        "kqn_lstm": lambda: KqnModel(ModelConfig(num_skills=10, dim=8, rnn_kind="lstm",
                                                 rnn_hidden=64, mlp_hidden=8)),
        "kqn_gru": lambda: KqnModel(ModelConfig(num_skills=10, dim=8, rnn_kind="gru",
                                                rnn_hidden=64, mlp_hidden=8)),
        "kqn_dim64": lambda: KqnModel(ModelConfig(num_skills=10, dim=64, rnn_kind="lstm",
                                                  rnn_hidden=64, mlp_hidden=8)),
        "dkt_onehot": lambda: DktModel(DktConfig(num_skills=10, hidden=64)),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_no_pass_holds_a_padded_block(self, name):
        model = self.MODELS[name]()
        params = model.init_params(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        seqs = [ResponseSequence(b, np.column_stack((rng.integers(1, 11, n), rng.integers(0, 2, n))))
                for b, n in enumerate([200] + [3] * 63)]
        batch = batch_arrays(seqs)
        block = 199 * 64 * 64 * 8
        eval_peak = traced_peak(lambda: model.forward(params, *batch))
        train_peak = traced_peak(lambda: model.backward(
            params, model.forward(params, *batch, mode="train", rng=rng)))
        assert eval_peak < block, eval_peak
        assert train_peak < 2 * block, train_peak


class TestTrainStateMemory:
    """A train-mode batch holds each recurrent value once. The traced peak
    of one forward and backward with dropout, on a skewed LSTM batch of n
    scored cells, stays within a bound written from the shape: per cell
    the 4H gate block and three (n, H) arrays (c, the packed h, and hv or
    its gradient), plus the head's arrays of its width w: three (n, d) for
    KQN (kv, the gathered skill rows and their product) and one (n, H) for
    DKT (the gathered out_w rows, or the scatter's index), all of 8-byte
    items. 10% slack covers the boolean keep flags, the (S, B) results and
    the parameter-sized arrays. A second copy of h or a kept tanh(c) is
    one more (n, H) array, about 11% of this bound at H = 64; the peak
    reads about 0.96 of it for both models."""

    SLACK = 1.1
    HIDDEN, DIM = 64, 16
    MODELS = {
        "kqn": (lambda: KqnModel(ModelConfig(num_skills=10, dim=16, rnn_kind="lstm",
                                             rnn_hidden=64, mlp_hidden=8)), 3, DIM),
        "dkt": (lambda: DktModel(DktConfig(num_skills=10, hidden=64)), 1, HIDDEN),
    }

    @pytest.mark.parametrize("name", list(MODELS))
    def test_peak_is_bounded_by_the_shape(self, name):
        make, heads, width = self.MODELS[name]
        model = make()
        params = model.init_params(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        lengths = rng.integers(2, 201, size=32)
        lengths[0] = 200
        seqs = [ResponseSequence(b, np.column_stack((rng.integers(1, 11, t), rng.integers(0, 2, t))))
                for b, t in enumerate(lengths)]
        batch = batch_arrays(seqs)
        n = int(np.sum(batch[2] - 1))
        peak = traced_peak(lambda: model.backward(
            params, model.forward(params, *batch, mode="train", rng=rng)))
        bound = self.SLACK * 8 * n * (4 * self.HIDDEN + 3 * self.HIDDEN + heads * width)
        assert peak <= bound, (peak, bound)
