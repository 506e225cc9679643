import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import kqn.dkt
import kqn.model
from helpers import reference_evaluate, traced_peak
from kqn.data import ResponseSequence
from kqn.dkt import DktConfig, DktModel
from kqn.model import ModelConfig, KqnModel
from kqn.training import (
    TrainConfig,
    GridCell,
    adam_step,
    cell_rank,
    evaluate,
    grid_search,
    init_adam,
    read_metrics_csv,
    split_data,
    train,
    write_metrics_csv,
)
from kqn.metrics import auc_scores
from kqn.model import BatchForward, batch_arrays, forward_batch

TINY_CONFIG = ModelConfig(num_skills=10, dim=4, rnn_hidden=6, mlp_hidden=6, keep_prob=1.0)


def tiny_train_cfg(**overrides):
    base = dict(batch_size=16, epochs_validation=3, adam_alpha=0.003, seed=0, patience=50)
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_first_step_bounded_by_alpha(self):
        rng = np.random.default_rng(0)
        cfg = TrainConfig()
        params = {"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
        before = {k: v.copy() for k, v in params.items()}
        grads = {"w": rng.normal(scale=10.0, size=(4, 3)), "b": rng.normal(scale=0.01, size=3)}
        state = init_adam(params)
        adam_step(params, grads, state, cfg)
        for k in params:
            delta = params[k] - before[k]
            assert np.max(np.abs(delta)) <= cfg.adam_alpha * (1.0 + 1e-8)
            # away from the eps regime the first step is alpha * sign(g)
            big = np.abs(grads[k]) > 1e-3
            assert_allclose(
                delta[big], -cfg.adam_alpha * np.sign(grads[k][big]), rtol=1e-4
            )

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(1)
        cfg = TrainConfig(adam_alpha=0.01)
        params = {"w": rng.normal(size=(3, 2))}
        ref = {k: v.copy() for k, v in params.items()}
        m = np.zeros((3, 2))
        v = np.zeros((3, 2))
        state = init_adam(params)
        for t in range(1, 11):
            g = rng.normal(size=(3, 2))
            adam_step(params, {"w": g}, state, cfg)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            ref["w"] = ref["w"] - cfg.adam_alpha * mhat / (np.sqrt(vhat) + 1e-8)
            assert_allclose(params["w"], ref["w"], rtol=1e-12)
        assert state.t == 10

    @pytest.mark.parametrize("alpha", [0.003, 1])
    def test_same_bits_as_the_plain_expression(self, alpha):
        # adam_step runs through scratch arrays the IEEE operations, in the
        # order, of the expression below, so params and moments agree bit
        # for bit at every step, for parameters of any rank or size. The
        # parameters start near the size of a step, so a step's last bit
        # shows in them.
        rng = np.random.default_rng(2)
        cfg = TrainConfig(adam_alpha=alpha)
        shapes = {"w": (5, 3), "b": (3,), "s": (), "e": (0, 4), "wide": (2, 40)}
        params = {k: np.asarray(rng.normal(scale=alpha, size=shape))
                  for k, shape in shapes.items()}
        ref = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros(shape) for k, shape in shapes.items()}
        v = {k: np.zeros(shape) for k, shape in shapes.items()}
        state = init_adam(params)
        for t in range(1, 8):
            grads = {k: np.asarray(rng.normal(scale=10.0 ** rng.integers(-9, 4), size=shape))
                     for k, shape in shapes.items()}
            adam_step(params, grads, state, cfg)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for k, g in grads.items():
                m[k] *= 0.9
                m[k] += (1.0 - 0.9) * g
                v[k] *= 0.999
                v[k] += (1.0 - 0.999) * g * g
                ref[k] -= cfg.adam_alpha * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)
            for k in shapes:
                assert params[k].tobytes() == ref[k].tobytes()
                assert state.m[k].tobytes() == m[k].tobytes()
                assert state.v[k].tobytes() == v[k].tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(adam_alpha=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"^adam_alpha must be finite, got {bad}$"):
                TrainConfig(adam_alpha=bad)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)


class TestSplitData:
    def make(self, n):
        return [
            ResponseSequence(i, ((1, 0), (2, 1)))
            for i in range(n)
        ]

    def test_desk_scale_arithmetic(self):
        split = split_data(self.make(400), 0.8, 0.5, seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (160, 40, 200)

    def test_floor_remainders_flow_to_test_then_valid(self):
        split = split_data(self.make(100), 0.7, 0.5, seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (35, 15, 50)
        split = split_data(self.make(7), 0.7, 0.5, seed=0)
        assert (len(split.train), len(split.valid), len(split.test)) == (2, 1, 4)

    def test_parts_are_disjoint_and_cover(self):
        seqs = self.make(41)
        split = split_data(seqs, 0.6, 0.7, seed=3)
        ids = [s.student_id for part in (split.train, split.valid, split.test) for s in part]
        assert sorted(ids) == list(range(41))

    def test_seeded_determinism(self):
        seqs = self.make(30)
        a = split_data(seqs, 0.8, 0.5, seed=5)
        b = split_data(seqs, 0.8, 0.5, seed=5)
        assert a == b
        c = split_data(seqs, 0.8, 0.5, seed=6)
        assert a != c

    def test_bad_ratios_and_empty_parts_raise(self):
        with pytest.raises(ValueError):
            split_data(self.make(10), 0.0, 0.5, seed=0)
        with pytest.raises(ValueError):
            split_data(self.make(10), 0.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_data(self.make(2), 0.5, 0.5, seed=0)


class TestTrain:
    def test_three_epochs_training_loss_strictly_decreases(self, tiny_synthetic):
        cfg = tiny_train_cfg()
        result = train(KqnModel(TINY_CONFIG), tiny_synthetic.dataset.sequences[:40],
                       tiny_synthetic.dataset.sequences[40:], cfg)
        losses = [r.train_loss for r in result.metrics.epochs]
        assert len(losses) == 3
        assert losses[0] > losses[1] > losses[2]

    def test_non_finite_loss_raises_naming_epoch_and_batch(self, tiny_synthetic):
        # Adam's first step moves every weight by about 1e300, so the next
        # batch's forward pass overflows.
        seqs = tiny_synthetic.dataset.sequences
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"epoch 1 batch 2 "):
            train(KqnModel(TINY_CONFIG), seqs[:40], seqs[40:], tiny_train_cfg(adam_alpha=1e300))

    def test_non_finite_gradient_raises_before_the_update(self, tiny_synthetic):
        # A finite loss with one infinite gradient entry must not reach Adam.
        class InfiniteGradient(KqnModel):
            def backward(self, params, fwd):
                grads = super().backward(params, fwd)
                grads["mlp_b1"][0] = np.inf
                return grads

        seqs = tiny_synthetic.dataset.sequences
        with pytest.raises(ValueError, match=r"^training diverged: epoch 1 batch 1 gradient "
                                             r"'mlp_b1' is not finite$"):
            train(InfiniteGradient(TINY_CONFIG), seqs[:40], seqs[40:], tiny_train_cfg())

    def test_returned_params_are_best_validation_epoch(self, tiny_synthetic):
        cfg = tiny_train_cfg(epochs_validation=8)
        model = KqnModel(TINY_CONFIG)
        train_seqs = tiny_synthetic.dataset.sequences[:40]
        valid_seqs = tiny_synthetic.dataset.sequences[40:]
        result = train(model, train_seqs, valid_seqs, cfg)
        best_recorded = max(r.valid_auc for r in result.metrics.epochs)
        auc_now, _, _ = evaluate(model, result.params, valid_seqs)
        assert_allclose(auc_now, best_recorded, rtol=1e-12)
        assert result.metrics.best_epoch == max(
            range(len(result.metrics.epochs)),
            key=lambda i: result.metrics.epochs[i].valid_auc,
        ) + 1

    def test_early_stopping_respects_patience(self, tiny_synthetic):
        cfg = tiny_train_cfg(epochs_validation=60, patience=2)
        result = train(KqnModel(TINY_CONFIG), tiny_synthetic.dataset.sequences[:40],
                       tiny_synthetic.dataset.sequences[40:], cfg)
        records = result.metrics.epochs
        assert len(records) < 60
        # the run ends with exactly `patience` non-improving epochs
        assert len(records) >= result.metrics.best_epoch + cfg.patience

    def test_single_response_sequences_skipped_and_counted(self, tiny_synthetic):
        stub = ResponseSequence(999, ((1, 1),))
        cfg = tiny_train_cfg(epochs_validation=1)
        result = train(
            KqnModel(TINY_CONFIG),
            list(tiny_synthetic.dataset.sequences[:20]) + [stub],
            list(tiny_synthetic.dataset.sequences[20:30]) + [stub],
            cfg,
        )
        assert result.metrics.skipped == 2
        with pytest.raises(ValueError):
            train(KqnModel(TINY_CONFIG), [stub], tiny_synthetic.dataset.sequences[:5], cfg)

    @pytest.mark.parametrize("valid", [[], [ResponseSequence(999, ((1, 1),))]],
                             ids=["empty", "one-response"])
    def test_no_scoreable_validation_sequence_raises(self, tiny_synthetic, valid):
        with pytest.raises(ValueError, match="^no scoreable validation sequences$"):
            train(KqnModel(TINY_CONFIG), tiny_synthetic.dataset.sequences[:5], valid,
                  tiny_train_cfg(epochs_validation=1))

    def test_seeded_runs_are_identical(self, tiny_synthetic):
        cfg = tiny_train_cfg(epochs_validation=2)
        runs = []
        for _ in range(2):
            result = train(KqnModel(TINY_CONFIG), tiny_synthetic.dataset.sequences[:30],
                           tiny_synthetic.dataset.sequences[30:40], cfg)
            runs.append(result)
        assert runs[0].metrics.epochs == runs[1].metrics.epochs
        for k in runs[0].params:
            assert np.array_equal(runs[0].params[k], runs[1].params[k])


# Models whose train-mode state is large next to their parameters: long
# sequences over few skills.
LIFETIME_MODELS = {
    "kqn": lambda: KqnModel(ModelConfig(num_skills=4, dim=4, rnn_hidden=32, mlp_hidden=4)),
    "dkt": lambda: DktModel(DktConfig(num_skills=4, hidden=32)),
}


def equal_sequences(count, length, seed=0):
    rng = np.random.default_rng(seed)
    return [ResponseSequence(b, np.column_stack((rng.integers(1, 5, length),
                                                 rng.integers(0, 2, length))))
            for b in range(count)]


class OneBatchAtATime:
    """A model that holds weak references to its last train-mode forward
    and to one of its gradients, and at every forward asserts that both
    are gone."""

    def __init__(self, model):
        self.model = model
        self.held = []
        self.train_forwards = 0

    def init_params(self, rng):
        return self.model.init_params(rng)

    def forward(self, params, skills, corrects, lengths, mode="eval", rng=None):
        assert all(ref() is None for ref in self.held), "the last batch's state is still held"
        fwd = self.model.forward(params, skills, corrects, lengths, mode=mode, rng=rng)
        if mode == "train":
            self.held = [weakref.ref(fwd)]
            self.train_forwards += 1
        return fwd

    def backward(self, params, fwd):
        grads = self.model.backward(params, fwd)
        self.held.append(weakref.ref(grads["rnn_wx"]))
        return grads

    def scorer(self, params, skills):
        score = self.model.scorer(params, skills)

        def checked(*block):
            assert all(ref() is None for ref in self.held), "the last batch's state is still held"
            return score(*block)

        return checked


@pytest.mark.parametrize("name", list(LIFETIME_MODELS))
class TestOneBatchAtATime:
    def test_train_drops_each_batch_before_the_next_forward(self, name):
        model = OneBatchAtATime(LIFETIME_MODELS[name]())
        train(model, equal_sequences(12, 8), equal_sequences(3, 8, seed=1),
              tiny_train_cfg(batch_size=4, epochs_validation=2))
        assert model.train_forwards == 6

    def test_backward_consumes_the_cache(self, name):
        model = LIFETIME_MODELS[name]()
        params = model.init_params(np.random.default_rng(0))
        fwd = model.forward(params, *batch_arrays(equal_sequences(3, 6)), mode="train",
                            rng=np.random.default_rng(1))
        model.backward(params, fwd)
        assert fwd.cache is None
        with pytest.raises(ValueError, match=r"^backward needs a forward pass run with "
                                             r"mode='train'$"):
            model.backward(params, fwd)

    def test_two_batches_peak_as_one(self, name):
        # At most 1.1x the traced peak of one batch's forward and
        # backward: a fit that held the last batch's state through the
        # next forward would peak near twice it.
        model = LIFETIME_MODELS[name]()
        seqs = equal_sequences(32, 120)
        params = model.init_params(np.random.default_rng(0))
        rng = np.random.default_rng(1)
        arrays = batch_arrays(seqs[:16])
        one = traced_peak(lambda: model.backward(
            params, model.forward(params, *arrays, mode="train", rng=rng)))
        cfg = tiny_train_cfg(batch_size=16, epochs_validation=1)
        fit = traced_peak(lambda: train(model, seqs, equal_sequences(2, 120, seed=1), cfg))
        assert fit <= 1.1 * one, (fit, one)


class TestEvaluate:
    @pytest.mark.parametrize("seqs", [[], [ResponseSequence(999, ((1, 1),))]],
                             ids=["empty", "one-response"])
    def test_no_scoreable_sequence_raises(self, seqs):
        model = KqnModel(TINY_CONFIG)
        params = model.init_params(np.random.default_rng(0))
        with pytest.raises(ValueError, match="^no scoreable sequences to evaluate$"):
            evaluate(model, params, seqs, 4)

    def test_matches_per_sequence_scoring(self, tiny_synthetic):
        cfg = tiny_train_cfg(epochs_validation=2)
        model = KqnModel(TINY_CONFIG)
        seqs = tiny_synthetic.dataset.sequences[:25]
        result = train(model, seqs, tiny_synthetic.dataset.sequences[25:35], cfg)
        auc_eval, loss_eval, n = evaluate(model, result.params, seqs, batch_size=7)
        probs = []
        targets = []
        for seq in seqs:
            fwd = forward_batch(*batch_arrays([seq]), result.params, TINY_CONFIG)
            probs.extend(fwd.probs[:, 0])
            targets.extend(fwd.targets[:, 0])
        assert n == len(probs) == sum(s.length - 1 for s in seqs)
        assert abs(auc_eval - auc_scores(np.array(probs), np.array(targets))) < 1e-12

    def test_batch_size_invariance(self):
        # Lengths from 2 to 20, so each batch runs a shrinking set of
        # students per step, at widths whose products the row floor pads
        # at small batches; the initial parameters are scaled up so the
        # states are far from zero. The result is the same bits at every
        # batch size.
        model = KqnModel(ModelConfig(num_skills=10, dim=8, rnn_hidden=32, mlp_hidden=8))
        params = {k: 3.0 * v for k, v in model.init_params(np.random.default_rng(0)).items()}
        rng = np.random.default_rng(3)
        seqs = [ResponseSequence(b, np.column_stack((rng.integers(1, 11, t),
                                                     rng.integers(0, 2, t))))
                for b, t in enumerate(rng.integers(2, 21, 50))]
        results = {size: evaluate(model, params, seqs, batch_size=size)
                   for size in (1, 3, 16, 128)}
        assert len(set(results.values())) == 1, results

    def test_loss_is_bit_identical_at_every_batch_size(self, tiny_synthetic):
        # A stub whose logit for trial j+1 depends on response j alone, so
        # each student's logits are the same bits in any batch; only the
        # reduction could make the loss depend on the batch size.
        class ResponseLogits:
            def forward(self, params, skills, corrects, lengths, mode="eval", rng=None):
                valid = np.arange(lengths.max() - 1)[:, None] < lengths - 1
                y = 3.0 * np.sin(1.3 * skills[:, :-1].T + 0.7 * corrects[:, :-1].T)
                return BatchForward.from_valid(y[valid], valid, corrects, None)

            def scorer(self, params, skills):
                return lambda *block: self.forward(params, *block)

        seqs = tiny_synthetic.dataset.sequences[:30]
        results = [evaluate(ResponseLogits(), {}, seqs, batch_size=size)
                   for size in (1, 3, len(seqs))]
        assert len({r[1] for r in results}) == 1
        assert len({r[0] for r in results}) == 1 and len({r[2] for r in results}) == 1


    @pytest.mark.parametrize("bad", [2.5, 2.0, True, False, np.bool_(True), "4", None])
    def test_batch_size_must_be_an_integer(self, tiny_synthetic, bad):
        # range() would refuse a float with a bare TypeError, and a bool
        # would score at batch size 1 or fail as 0; TrainConfig refuses both.
        model = KqnModel(TINY_CONFIG)
        params = model.init_params(np.random.default_rng(0))
        seqs = tiny_synthetic.dataset.sequences[:5]
        with pytest.raises(ValueError, match=rf"^batch_size must be a positive integer, got {bad!r}$"):
            evaluate(model, params, seqs, bad)

    def test_batch_size_may_be_a_numpy_integer(self, tiny_synthetic):
        model = KqnModel(TINY_CONFIG)
        params = model.init_params(np.random.default_rng(0))
        seqs = tiny_synthetic.dataset.sequences[:5]
        assert evaluate(model, params, seqs, np.int64(2)) == evaluate(model, params, seqs, 2)
        for bad in (0, np.int64(0), -3):
            with pytest.raises(ValueError, match=f"^batch_size must be positive, got {bad}$"):
                evaluate(model, params, seqs, bad)


def record_calls(monkeypatch, owner, name, record):
    """Patch owner.name with a wrapper that appends record(result) of each
    call to the list returned."""
    original, seen = getattr(owner, name), []

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(record(result))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return seen


SCORING_VARIANTS = ("lstm", "gru", "onehot", "correctness", "signed")


def scoring_model(variant, n=6):
    """A KQN model of the variant's cell or a DKT model of its input
    encoding, at small widths, with its initial parameters."""
    rng = np.random.default_rng(11)
    if variant in ("lstm", "gru"):
        model = KqnModel(ModelConfig(num_skills=n, dim=4, rnn_kind=variant, rnn_hidden=8,
                                     mlp_hidden=5))
    elif variant == "onehot":
        model = DktModel(DktConfig(num_skills=n, hidden=8))
    else:
        model = DktModel(DktConfig(num_skills=n, hidden=8, input_mode="hybrid",
                                   hybrid_encoding=variant), skill_table=rng.random((n, 3)))
    return model, model.init_params(rng)


def skewed_sequences(count=40, n=6, seed=5):
    """count students of 2 to 59 responses in file order, then one of 60,
    over skills 1..n."""
    rng = np.random.default_rng(seed)
    lengths = [*rng.integers(2, 60, count), 60]
    return [ResponseSequence(b, np.column_stack((rng.integers(1, n + 1, t),
                                                 rng.integers(0, 2, t))))
            for b, t in enumerate(lengths)]


class TestScoringOrder:
    """evaluate prepares the model once per call and scores its blocks
    longest first; the result keeps every bit of scoring each student
    alone in input order."""

    @pytest.mark.parametrize("size", [1, 3, 7, 32])
    @pytest.mark.parametrize("variant", SCORING_VARIANTS)
    def test_equals_scoring_each_student_alone(self, variant, size):
        model, params = scoring_model(variant)
        seqs = skewed_sequences()
        assert evaluate(model, params, seqs, size) == reference_evaluate(model, params, seqs)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("variant", SCORING_VARIANTS)
    def test_a_prepared_forward_keeps_every_bit(self, variant, mode):
        model, params = scoring_model(variant)
        arrays = batch_arrays(skewed_sequences(count=9))
        fresh, prepared = (
            model.forward(params, *arrays, mode, np.random.default_rng(4), *given)
            for given in ((), (model.prepare(params),))
        )
        for key in ("logits", "probs", "targets", "valid"):
            assert getattr(fresh, key).tobytes() == getattr(prepared, key).tobytes(), key
        if mode == "train":
            grads, prepared_grads = model.backward(params, fresh), model.backward(params, prepared)
            assert list(grads) == list(prepared_grads)
            assert all(grads[k].tobytes() == prepared_grads[k].tobytes() for k in grads)

    @pytest.mark.parametrize("variant", SCORING_VARIANTS)
    def test_parameter_only_work_runs_once_per_call(self, variant, monkeypatch):
        folds = record_calls(monkeypatch, kqn.model, "fold_gates", len)
        tables = record_calls(monkeypatch, kqn.model, "encode_skill_table", len)
        model, params = scoring_model(variant)
        evaluate(model, params, skewed_sequences(), 3)
        assert (len(folds), len(tables)) == (1, int(variant in ("lstm", "gru")))

    @pytest.mark.parametrize("variant", ["lstm", "onehot"])
    def test_blocks_run_the_steps_of_length_order(self, variant, monkeypatch):
        def record_steps(owner, name):
            return record_calls(monkeypatch, owner, name, lambda fwd: fwd.probs.shape[0])

        steps = record_steps(kqn.model, "forward_batch"), record_steps(kqn.dkt.DktModel, "forward")
        model, params = scoring_model(variant)
        seqs = skewed_sequences()
        evaluate(model, params, seqs, 7)
        longest_first = sorted((s.length for s in seqs), reverse=True)
        file_order = sum(max(s.length for s in seqs[i : i + 7]) - 1
                         for i in range(0, len(seqs), 7))
        blocks = steps[0] + steps[1]
        assert len(blocks) == 6
        assert sum(blocks) == sum(n - 1 for n in longest_first[::7]) < file_order

    @pytest.mark.parametrize("variant", ["lstm", "signed"])
    def test_a_bad_id_in_the_last_student_names_the_range_of_the_set(self, variant,
                                                                       monkeypatch):
        # Only the first student holds skill 1, and the last, the
        # shortest, holds skill 9 of 6: in file order and in length order
        # it is scored alone in the last block, whose range is 3..9.
        model, params = scoring_model(variant)
        seqs = [ResponseSequence(0, [(1, 1)] * 10)]
        seqs += [ResponseSequence(b, [(2 + b % 5, b % 2)] * (3 + b)) for b in range(1, 6)]
        seqs.append(ResponseSequence(6, [(3, 1), (9, 0)]))

        def no_forward(*args, **kwargs):
            raise AssertionError("a block was scored")

        monkeypatch.setattr(kqn.model, "forward_batch", no_forward)
        monkeypatch.setattr(kqn.dkt.DktModel, "forward", no_forward)
        with pytest.raises(ValueError) as exc:
            evaluate(model, params, seqs, 3)
        assert str(exc.value) == "skill ids outside 1..6: got range 1..9"


class TestGridSearch:
    def test_tie_break_prefers_small_then_lstm(self):
        def cell(kind, dim, hr, hm, auc_v):
            cfg = ModelConfig(num_skills=4, dim=dim, rnn_kind=kind, rnn_hidden=hr, mlp_hidden=hm)
            return GridCell(config=cfg, valid_auc=auc_v, best_epoch=1)

        a = cell("gru", 8, 16, 16, 0.70)
        b = cell("lstm", 8, 16, 16, 0.70)
        c = cell("lstm", 4, 32, 32, 0.70)
        d = cell("lstm", 4, 16, 32, 0.70)
        e = cell("lstm", 4, 16, 16, 0.75)
        ranked = sorted([a, b, c, d, e], key=cell_rank)
        assert ranked[0] is e
        assert ranked[1] is d
        assert ranked[2] is c
        assert ranked[3] is b
        assert ranked[4] is a

    def test_one_cell_per_config_in_order(self, tiny_synthetic):
        # Each cell is the fit an independent train() gives its config: the
        # best epoch and that epoch's AUC, which is the best AUC.
        cfg = tiny_train_cfg(epochs_validation=3)
        train_seqs = tiny_synthetic.dataset.sequences[:25]
        valid_seqs = tiny_synthetic.dataset.sequences[25:35]
        configs = [ModelConfig(num_skills=10, dim=dim, rnn_kind=kind, rnn_hidden=5,
                               mlp_hidden=5, keep_prob=1.0)
                   for kind, dim in (("gru", 4), ("lstm", 3), ("lstm", 4))]
        seen = []
        cells = grid_search(configs, train_seqs, valid_seqs, cfg, progress=seen.append)
        assert [cell.config for cell in cells] == configs
        assert seen == cells
        for cell in cells:
            metrics = train(KqnModel(cell.config), train_seqs, valid_seqs, cfg).metrics
            assert cell.best_epoch == metrics.best_epoch
            assert cell.valid_auc == max(r.valid_auc for r in metrics.epochs)


class TestMetricsCsv:
    def test_round_trip_is_exact(self, tmp_path):
        from kqn.training import EpochRecord

        rng = np.random.default_rng(2)
        records = [
            EpochRecord(epoch=i + 1, train_loss=float(rng.random()), valid_auc=float(rng.random()))
            for i in range(5)
        ]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, records)
        back = read_metrics_csv(path)
        assert back == records
        assert path.read_text().splitlines()[0] == "epoch,train_loss,valid_auc"

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1,2,3\n")
        with pytest.raises(ValueError):
            read_metrics_csv(path)
