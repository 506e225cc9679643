"""The benchmark's tracer (perfbench/tracing.py) wraps kqn functions by
module and attribute name. Every name it patches must stay bound where it
looks, or a traced benchmark run fails before it starts. Its output checks
(perfbench/checks.py) read the artifacts' layout, pinned here as well."""
import importlib
import importlib.util
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kqn
from kqn.data import ResponseSequence
from kqn.dkt import DktConfig, DktModel
from kqn.model import KqnModel, ModelConfig, batch_arrays, forward_batch, init_params

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("ops", "metrics", "model", "dkt", "data", "checkpoint", "training", "analysis", "cli")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


tracing = load_perfbench("tracing")


def kqn_modules():
    return {"": kqn, **{name: importlib.import_module(f"kqn.{name}") for name in MODULES}}


@pytest.mark.parametrize(
    "home, attr, where", [(t[0], t[1], t[3]) for t in tracing.TARGETS],
    ids=[f"{t[0]}.{t[1]}" for t in tracing.TARGETS],
)
def test_target_resolves(home, attr, where):
    modules = kqn_modules()
    original = getattr(modules[home], attr)
    assert callable(original)
    for owner in where or ():
        assert getattr(modules[owner], attr) is original, f"kqn.{owner}.{attr}"


def test_forward_mode_positions():
    # The tracer reads the mode from argument 5 to name forward spans.
    assert list(inspect.signature(forward_batch).parameters)[5] == "mode"
    assert list(inspect.signature(DktModel.forward).parameters)[5] == "mode"
    assert callable(DktModel.backward)


def test_hcluster_linkage_position():
    # The tracer names analysis.hcluster.<linkage> spans from argument 1.
    assert list(inspect.signature(kqn.analysis.hcluster).parameters)[1] == "linkage"


def test_file_hooks_find_the_written_file(tmp_path):
    # _after_file sizes the file at the call's `path` argument, passed first,
    # once the call has returned.
    hooked = sorted(f"{home}.{attr}" for (home, attr), hook in tracing._AFTER.items()
                    if hook.__qualname__.startswith("_after_file."))
    assert hooked == ["analysis.write_distance_csv", "checkpoint.export_skill_vectors",
                      "checkpoint.save_checkpoint"]
    config = ModelConfig(num_skills=3, dim=2, rnn_hidden=2, mlp_hidden=2)
    params = init_params(config, np.random.default_rng(0))
    table, _ = kqn.model.encode_skill_table(params)
    calls = {
        kqn.checkpoint.save_checkpoint: (config, params),
        kqn.checkpoint.export_skill_vectors: (params, config),
        kqn.analysis.write_distance_csv: (kqn.analysis.pairwise_distances(table, "cosine"),),
    }
    for func, rest in calls.items():
        assert list(inspect.signature(func).parameters)[0] == "path"
        path = tmp_path / func.__name__
        func(path, *rest)
        assert path.stat().st_size > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f.__name__ for f in calls)


def test_workload_vectors_are_the_skill_vector_table(tmp_path, monkeypatch):
    # perfbench/workloads._write_vectors writes the analysis workload's
    # skill-vector files by hand; they must keep the bytes that
    # export_skill_vectors writes through tables.write_table, so a format
    # change in tables.py fails here rather than drifting from them.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports checks by name
    workloads = load_perfbench("workloads")
    config = ModelConfig(num_skills=7, dim=5, rnn_hidden=2, mlp_hidden=2)
    params = init_params(config, np.random.default_rng(4))
    kqn.checkpoint.export_skill_vectors(tmp_path / "export.csv", params, config)
    workloads._write_vectors(tmp_path / "bench.csv", kqn.model.encode_skill_table(params)[0])
    assert (tmp_path / "bench.csv").read_bytes() == (tmp_path / "export.csv").read_bytes()


def traced_train_step(model):
    """Span names, with their counts, of one traced train-mode forward and
    backward of model on a batch of 3 packed steps (lengths 4 and 3), and
    whether every traced binding was restored afterwards."""
    modules = kqn_modules()
    tracer = tracing.Tracer()
    before = {(home, attr): getattr(modules[home], attr) for home, attr, _, _ in tracing.TARGETS}
    tracer.install(modules)
    try:
        params = model.init_params(np.random.default_rng(0))
        arrays = batch_arrays([
            ResponseSequence(0, [(e, e % 2) for e in (1, 3, 2, 2)]),
            ResponseSequence(1, [(e, 1) for e in (2, 1, 3)]),
        ])
        tracer.active = True
        fwd = model.forward(params, *arrays, mode="train", rng=np.random.default_rng(2))
        model.backward(params, fwd)
        tracer.active = False
    finally:
        tracer.uninstall()
    names = Counter(span["name"] for span in tracer.export())
    restored = all(getattr(modules[home], attr) is original
                   for (home, attr), original in before.items())
    return names, restored


def test_install_traces_dkt_through_the_shared_scan():
    # The cells are traced by their module-global names, so each packed
    # step must call them there: a scan that inlined a cell would record
    # no span for it.
    names, restored = traced_train_step(DktModel(DktConfig(num_skills=3, hidden=4, keep_prob=0.5)))
    assert {"dkt.forward.train", "dkt.backward", "ops.dropout_mask"} <= set(names)
    assert names["model.lstm_cell"] == names["model.lstm_cell_backward"] == 3
    assert not set(names) & {"dkt.lstm_cell", "dkt.lstm_cell_backward"}
    assert restored


def test_install_traces_the_gru_cells_once_per_step():
    config = ModelConfig(num_skills=3, dim=2, rnn_kind="gru", rnn_hidden=4, mlp_hidden=2,
                         keep_prob=0.5)
    names, restored = traced_train_step(KqnModel(config))
    assert {"model.forward_batch.train", "model.backward_batch"} <= set(names)
    assert names["model.gru_cell"] == names["model.gru_cell_backward"] == 3
    assert not set(names) & {"model.lstm_cell", "model.lstm_cell_backward"}
    assert restored


def test_fit_reports_have_the_layout_the_checks_read(tmp_path):
    # checks.fit reads a train run's test scores from repeats[0] of its
    # eval.json and a dkt run's from the top level.
    checks = load_perfbench("checks")
    main = kqn.cli.main
    assert main(["synth", "--out", str(tmp_path / "synth"), "--students", "24", "--skills", "4",
                 "--concepts", "2", "--steps", "8", "--seed", "1"]) == 0
    assert main(["split", "--out", str(tmp_path / "split"),
                 "--data", str(tmp_path / "synth" / "data.txt")]) == 0
    parts = [f"--{p}={tmp_path / 'split' / p}.txt" for p in ("train", "valid", "test")]
    fit = [*parts, "--epochs", "2", "--batch-size", "8", "--keep-prob", "1"]
    assert main(["train", "--out", str(tmp_path / "train"), *fit, "--dim", "3",
                 "--rnn-hidden", "4", "--mlp-hidden", "4"]) == 0
    assert main(["dkt", "--out", str(tmp_path / "dkt"), *fit, "--hidden", "4"]) == 0
    for command in ("train", "dkt"):
        report = json.loads((tmp_path / command / "eval.json").read_text())
        scores = report["repeats"][0] if command == "train" else report
        assert {"best_epoch", "valid_auc", "test_auc", "test_loss", "test_trials"} <= set(scores)
        assert checks.fit(tmp_path / command, command, 2) == scores["test_auc"]


def test_evaluate_passes_the_evaluation_check_on_skewed_lengths(tmp_path):
    # checks.evaluation compares evaluate's eval.json with a fresh forward's
    # (S, B) probs[valid] and requires the fit's test AUC at one batch size
    # to equal evaluate's at another. Lengths from 2 to 12 make every batch
    # run a shrinking set of students per step.
    checks = load_perfbench("checks")
    main = importlib.import_module("kqn.cli").main
    assert main(["synth", "--out", str(tmp_path / "synth"), "--students", "60", "--skills", "5",
                 "--concepts", "2", "--steps", "12", "--seed", "4"]) == 0
    assert main(["split", "--out", str(tmp_path / "split"),
                 "--data", str(tmp_path / "synth" / "data.txt")]) == 0
    rng = np.random.default_rng(5)
    parts = []
    for part in ("train", "valid", "test"):
        path = tmp_path / "split" / f"{part}.txt"
        ds = kqn.data.load_dataset(path)
        cut = [
            ResponseSequence(s.student_id, s.responses[: int(rng.integers(2, 13))])
            for s in ds.sequences
        ]
        kqn.data.save_dataset(kqn.data.Dataset(ds.name, ds.num_skills, tuple(cut)), path)
        parts.append(f"--{part}={path}")
    lengths = [len(s.responses) for s in cut]
    assert min(lengths) == 2 and max(lengths) > 8
    fit = [*parts, "--epochs", "2", "--batch-size", "8"]
    assert main(["train", "--out", str(tmp_path / "train"), *fit, "--dim", "3",
                 "--rnn-hidden", "4", "--mlp-hidden", "4"]) == 0
    assert main(["dkt", "--out", str(tmp_path / "dkt"), *fit, "--hidden", "4"]) == 0
    for command in ("train", "dkt"):
        fit_auc = checks.fit(tmp_path / command, command, 2)
        checkpoint = tmp_path / command / "checkpoint.json"
        assert main(["evaluate", "--out", str(tmp_path / f"eval_{command}"),
                     "--checkpoint", str(checkpoint), "--data", str(tmp_path / "split" / "test.txt"),
                     "--batch-size", "3"]) == 0
        trials = checks.evaluation(tmp_path / f"eval_{command}", checkpoint,
                                   tmp_path / "split" / "test.txt", 3, fit_auc)
        assert trials == sum(lengths) - len(lengths)


def test_evaluate_passes_the_evaluation_check_on_a_desk_shaped_run(tmp_path):
    # Equal lengths and the desk widths (H=32, a fit at batch size 16):
    # the fit scores its 200 test students in one block of SCORE_BLOCK and
    # one of 72, evaluate in batches of 3, the last of 2 students, so its
    # products run on as few as 2 rows before the row floor.
    checks = load_perfbench("checks")
    main = importlib.import_module("kqn.cli").main
    assert main(["synth", "--out", str(tmp_path / "synth"), "--students", "400", "--skills",
                 "50", "--concepts", "5", "--steps", "12", "--seed", "6"]) == 0
    assert main(["split", "--out", str(tmp_path / "split"), "--data",
                 str(tmp_path / "synth" / "data.txt"), "--tv-ratio", "0.5", "--seed", "6"]) == 0
    test = tmp_path / "split" / "test.txt"
    assert kqn.data.load_dataset(test).num_students == 200
    parts = [f"--{p}={tmp_path / 'split' / p}.txt" for p in ("train", "valid", "test")]
    fit = [*parts, "--epochs", "1", "--batch-size", "16", "--alpha", "0.003"]
    assert main(["train", "--out", str(tmp_path / "train"), *fit, "--dim", "16",
                 "--rnn-hidden", "32", "--mlp-hidden", "32"]) == 0
    assert main(["dkt", "--out", str(tmp_path / "dkt"), *fit, "--hidden", "32"]) == 0
    for command in ("train", "dkt"):
        fit_auc = checks.fit(tmp_path / command, command, 1)
        checkpoint = tmp_path / command / "checkpoint.json"
        assert main(["evaluate", "--out", str(tmp_path / f"eval_{command}"), "--checkpoint",
                     str(checkpoint), "--data", str(test), "--batch-size", "3"]) == 0
        trials = checks.evaluation(tmp_path / f"eval_{command}", checkpoint, test, 3, fit_auc)
        assert trials == 200 * 11
