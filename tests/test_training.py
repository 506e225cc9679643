import numpy as np
import pytest
from numpy.testing import assert_allclose

from kqn.data import ResponseSequence
from kqn.model import ModelConfig, KqnModel
from kqn.training import (
    AdamState,
    GridSpec,
    TrainConfig,
    _cell_rank,
    GridCell,
    adam_step,
    enumerate_grid,
    evaluate,
    grid_search,
    init_adam,
    read_metrics_csv,
    split_data,
    train,
    write_metrics_csv,
)
from kqn.metrics import auc_scores
from kqn.model import batch_arrays, forward_batch

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
        cfg = TrainConfig(adam_alpha=0.01, adam_beta1=0.8, adam_beta2=0.95, adam_eps=1e-7)
        params = {"w": rng.normal(size=(3, 2))}
        ref = {k: v.copy() for k, v in params.items()}
        m = np.zeros((3, 2))
        v = np.zeros((3, 2))
        state = init_adam(params)
        for t in range(1, 11):
            g = rng.normal(size=(3, 2))
            adam_step(params, {"w": g}, state, cfg)
            m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
            v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
            mhat = m / (1 - cfg.adam_beta1 ** t)
            vhat = v / (1 - cfg.adam_beta2 ** t)
            ref["w"] = ref["w"] - cfg.adam_alpha * mhat / (np.sqrt(vhat) + cfg.adam_eps)
            assert_allclose(params["w"], ref["w"], rtol=1e-12)
        assert state.t == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(adam_alpha=0.0)
        with pytest.raises(ValueError):
            TrainConfig(adam_beta1=1.0)
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


class TestEvaluate:
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

    def test_batch_size_invariance(self, tiny_synthetic):
        cfg = tiny_train_cfg(epochs_validation=1)
        model = KqnModel(TINY_CONFIG)
        seqs = tiny_synthetic.dataset.sequences[:20]
        result = train(model, seqs, tiny_synthetic.dataset.sequences[20:30], cfg)
        one = evaluate(model, result.params, seqs, batch_size=1)
        many = evaluate(model, result.params, seqs, batch_size=64)
        assert abs(one[0] - many[0]) < 1e-12
        assert abs(one[1] - many[1]) < 1e-12
        assert one[2] == many[2]


class TestGridSearch:
    def test_enumeration_order_and_size(self):
        cells = list(enumerate_grid(5, GridSpec()))
        assert len(cells) == 54
        assert cells[0].rnn_kind == "lstm" and cells[-1].rnn_kind == "gru"
        assert cells[0].dim == 32 and cells[0].rnn_hidden == 32 and cells[0].mlp_hidden == 32
        small = list(enumerate_grid(5, GridSpec(rnn_kinds=("gru",), dims=(4,),
                                                rnn_hiddens=(6,), mlp_hiddens=(6, 8))))
        assert [c.mlp_hidden for c in small] == [6, 8]
        assert all(c.num_skills == 5 for c in small)

    def test_tie_break_prefers_small_then_lstm(self):
        def cell(kind, dim, hr, hm, auc_v):
            cfg = ModelConfig(num_skills=4, dim=dim, rnn_kind=kind, rnn_hidden=hr, mlp_hidden=hm)
            return GridCell(config=cfg, valid_auc=auc_v, best_epoch=1)

        a = cell("gru", 8, 16, 16, 0.70)
        b = cell("lstm", 8, 16, 16, 0.70)
        c = cell("lstm", 4, 32, 32, 0.70)
        d = cell("lstm", 4, 16, 32, 0.70)
        e = cell("lstm", 4, 16, 16, 0.75)
        ranked = sorted([a, b, c, d, e], key=_cell_rank)
        assert ranked[0] is e
        assert ranked[1] is d
        assert ranked[2] is c
        assert ranked[3] is b
        assert ranked[4] is a

    def test_search_returns_best_by_rank(self, tiny_synthetic):
        cfg = tiny_train_cfg(epochs_validation=2)
        grid = GridSpec(rnn_kinds=("lstm",), dims=(3, 4), rnn_hiddens=(5,), mlp_hiddens=(5,))
        seen = []
        result = grid_search(
            10,
            tiny_synthetic.dataset.sequences[:25],
            tiny_synthetic.dataset.sequences[25:35],
            cfg,
            grid=grid,
            keep_prob=1.0,
            progress=lambda config, auc_v: seen.append((config.dim, auc_v)),
        )
        assert len(result.cells) == 2
        assert [dim for dim, _ in seen] == [3, 4]
        assert result.best == sorted(result.cells, key=_cell_rank)[0]


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
