"""End-to-end checks of the command-line front end, run in process."""
import base64
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import helpers
import kqn
from kqn.analysis import (
    LINKAGES,
    ari,
    heatmap_matrix,
    mantel,
    pairwise_distances,
    read_clusters_csv,
    read_distance_csv,
    sensitivity_stats,
    write_heatmap_csv,
)
from kqn.checkpoint import _encode, load_checkpoint, load_skill_vectors, save_checkpoint
from kqn.cli import _list_option, _resolve, build_parser, main
from kqn.data import (
    ResponseSequence,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    relabel_skills,
)
from kqn.model import KqnModel, ModelConfig, encode_skill_table
from kqn.tables import write_table
from kqn.training import TrainConfig, evaluate, split_data, train


# A symmetric distance file with one non-finite pair.
NAN_DISTANCES = "skill,1,2,3\n1,0.0,nan,2.0\n2,nan,0.0,1.0\n3,2.0,1.0,0.0\n"
# A skill-vector file with one non-finite coordinate, for skill 2.
NAN_VECTORS = "skill,x1,x2\n1,0.6,0.8\n2,nan,0.0\n3,1.0,0.0\n4,0.0,1.0\n5,0.8,0.6\n6,1.0,0.0\n"


def run(*argv):
    rc = main([str(a) for a in argv])
    assert rc == 0, f"command failed: {argv}"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One shared workspace: synth -> split -> two trained models -> dkt."""
    root = tmp_path_factory.mktemp("cli")
    run("synth", "--out", root / "synth", "--students", 30, "--skills", 6,
        "--concepts", 2, "--steps", 12, "--seed", 3)
    run("split", "--out", root / "split", "--data", root / "synth" / "data.txt",
        "--seed", 0)
    common = ["--train", root / "split" / "train.txt",
              "--valid", root / "split" / "valid.txt",
              "--test", root / "split" / "test.txt",
              "--rnn", "gru", "--rnn-hidden", 4, "--mlp-hidden", 4,
              "--keep-prob", 0.8, "--batch-size", 8, "--epochs", 2,
              "--alpha", 0.003, "--seed", 1]
    run("train", "--out", root / "kqn4", "--dim", 4, *common)
    run("train", "--out", root / "kqn3", "--dim", 3, *common)
    dkt = ["--train", root / "split" / "train.txt",
           "--valid", root / "split" / "valid.txt",
           "--test", root / "split" / "test.txt",
           "--hidden", 4, "--keep-prob", 0.8, "--batch-size", 8,
           "--epochs", 2, "--alpha", 0.003, "--seed", 1]
    run("dkt", "--out", root / "dkt", *dkt)
    run("dkt", "--out", root / "hybrid", *dkt,
        "--mode", "hybrid", "--skill-vectors", root / "kqn4" / "skill_vectors.csv")
    return root


class TestSynth:
    def test_artifacts(self, ws):
        outdir = ws / "synth"
        for name in ("data.txt", "data.txt.meta.json", "concepts.csv", "manifest.json"):
            assert (outdir / name).exists()
        dataset = load_dataset(outdir / "data.txt")
        assert dataset.num_students == 30
        assert dataset.num_skills == 6
        assert all(len(seq.responses) == 12 for seq in dataset.sequences)

    def test_matches_direct_generator(self, ws):
        spec = SyntheticSpec(num_students=30, num_skills=6, num_concepts=2,
                             steps_per_student=12, guess=0.25, seed=3)
        dataset, concepts = generate_synthetic(spec)
        from_cli = load_dataset(ws / "synth" / "data.txt")
        helpers.assert_same_sequences(from_cli.sequences, dataset.sequences)
        ids, labels = read_clusters_csv(ws / "synth" / "concepts.csv")
        assert list(ids) == sorted(concepts)
        assert [concepts[i] for i in ids] == list(labels)

    def test_manifest_shape(self, ws):
        doc = json.loads((ws / "synth" / "manifest.json").read_text())
        assert set(doc) == {"command", "version", "options", "seed", "environment"}
        assert doc["command"] == "synth"
        assert doc["version"] == kqn.__version__
        assert doc["seed"] == 3
        assert doc["options"]["students"] == 30
        assert doc["options"]["skills"] == 6

    def test_manifest_records_the_environment(self, ws):
        env = json.loads((ws / "synth" / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS"}
        for var, value in env["threads"].items():
            assert value == os.environ.get(var)


class TestSplit:
    def test_counts_match_library_split(self, ws):
        dataset = load_dataset(ws / "synth" / "data.txt")
        split = split_data(dataset.sequences, 0.8, 0.5, 0)
        parts = {name: load_dataset(ws / "split" / f"{name}.txt")
                 for name in ("train", "valid", "test")}
        assert parts["train"].num_students == len(split.train) == 12
        assert parts["valid"].num_students == len(split.valid) == 3
        assert parts["test"].num_students == len(split.test) == 15
        # The triplet format stores no student ids (they are positional),
        # so compare the response content in order.
        for name, expected in (("train", split.train), ("test", split.test)):
            assert [helpers.pairs(s) for s in parts[name].sequences] == \
                [helpers.pairs(s) for s in expected]

    def test_parts_cover_the_dataset(self, ws):
        from collections import Counter

        whole = Counter(
            helpers.pairs(seq) for seq in load_dataset(ws / "synth" / "data.txt").sequences
        )
        parts = Counter()
        for name in ("train", "valid", "test"):
            part = load_dataset(ws / "split" / f"{name}.txt")
            parts.update(helpers.pairs(seq) for seq in part.sequences)
        assert parts == whole
        assert sum(parts.values()) == 30

    def test_sidecar_metadata_carried(self, ws):
        meta = json.loads((ws / "split" / "train.txt.meta.json").read_text())
        assert "concepts" in meta
        assert "generator" in meta


class TestTrain:
    def test_artifacts(self, ws):
        outdir = ws / "kqn4"
        for name in ("metrics.csv", "checkpoint.json", "skill_vectors.csv",
                     "eval.json", "manifest.json"):
            assert (outdir / name).exists()
        lines = (outdir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_loss,valid_auc"
        assert 2 <= len(lines) <= 3

    def test_checkpoint_contents(self, ws):
        kind, config, params = load_checkpoint(ws / "kqn4" / "checkpoint.json")
        assert kind == "kqn"
        assert config.num_skills == 6
        assert config.dim == 4
        assert config.rnn_kind == "gru"
        table, _ = encode_skill_table(params)
        ids, exported = load_skill_vectors(ws / "kqn4" / "skill_vectors.csv")
        assert list(ids) == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(exported, table)

    def test_eval_report(self, ws):
        report = json.loads((ws / "kqn4" / "eval.json").read_text())
        rep = report["repeats"][0]
        assert rep["best_epoch"] >= 1
        assert 0.0 <= rep["valid_auc"] <= 1.0
        assert 0.0 <= rep["test_auc"] <= 1.0
        assert report["test_auc_mean"] == rep["test_auc"]

    def test_same_seed_is_byte_identical(self, ws, tmp_path):
        args = ["--train", ws / "split" / "train.txt",
                "--valid", ws / "split" / "valid.txt",
                "--dim", 3, "--rnn", "gru", "--rnn-hidden", 4, "--mlp-hidden", 4,
                "--keep-prob", 0.8, "--batch-size", 8, "--epochs", 2,
                "--alpha", 0.003, "--seed", 7]
        run("train", "--out", tmp_path / "a", *args)
        run("train", "--out", tmp_path / "b", *args)
        for name in ("metrics.csv", "checkpoint.json", "skill_vectors.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zero_repeats_rejected(self, ws, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "r0"),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"), "--repeats", "0"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: repeats must be at least 1")
        assert not (tmp_path / "r0").exists()

    def test_diverging_fit_is_an_error(self, ws, tmp_path, capsys):
        with np.errstate(all="ignore"):
            rc = main(["train", "--out", str(tmp_path / "div"),
                       "--train", str(ws / "split" / "train.txt"),
                       "--valid", str(ws / "split" / "valid.txt"),
                       "--dim", "3", "--rnn-hidden", "4", "--mlp-hidden", "4",
                       "--batch-size", "8", "--alpha", "1e300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged: epoch 1 batch ")
        assert not (tmp_path / "div" / "metrics.csv").exists()


    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_refused(self, ws, tmp_path, capsys, alpha):
        # Refused as a setting, not blamed on the fit.
        rc = main(["train", "--out", str(tmp_path / "bad"),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"), "--alpha", alpha])
        assert rc == 1
        assert capsys.readouterr().err == f"error: adam_alpha must be finite, got {alpha}\n"
        assert not (tmp_path / "bad").exists()

    # With one batch per epoch, the validation pass is the first to see the
    # diverged weights.
    @pytest.mark.parametrize("batch_size, where", [("8", "batch 2 loss"),
                                                   ("1000", "validation loss")])
    def test_diverging_fit_prints_only_the_error(self, ws, tmp_path, capsys, batch_size, where):
        # No NumPy warning may precede the one-line error.
        rc = main(["train", "--out", str(tmp_path / "div"),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"),
                   "--dim", "3", "--rnn-hidden", "4", "--mlp-hidden", "4",
                   "--batch-size", batch_size, "--alpha", "1e300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: training diverged: epoch 1 {where} is nan\n"


class TestEvaluate:
    def test_matches_library_evaluate(self, ws, tmp_path):
        run("evaluate", "--out", tmp_path, "--checkpoint", ws / "kqn4" / "checkpoint.json",
            "--data", ws / "split" / "test.txt", "--batch-size", 8)
        report = json.loads((tmp_path / "eval.json").read_text())
        kind, config, params = load_checkpoint(ws / "kqn4" / "checkpoint.json")
        test_ds = load_dataset(ws / "split" / "test.txt")
        auc_value, loss_value, n_trials = evaluate(
            KqnModel(config), params, test_ds.sequences, 8)
        assert report["model"] == "kqn"
        assert report["auc"] == auc_value
        assert report["loss"] == loss_value
        assert report["trials"] == n_trials == sum(
            len(seq.responses) - 1 for seq in test_ds.sequences)

    def test_fit_test_scores_equal_evaluate_at_any_batch_size(self, tmp_path):
        # The fit scores its test part in blocks of SCORE_BLOCK students,
        # evaluate in batches of --batch-size; lengths from 2 to 40 and
        # widths the row floor pads make the batches differ step by step.
        run("synth", "--out", tmp_path / "synth", "--students", 150, "--skills", 30,
            "--concepts", 2, "--steps", 40, "--seed", 6)
        rng = np.random.default_rng(7)
        ds = load_dataset(tmp_path / "synth" / "data.txt")
        cut = [ResponseSequence(s.student_id, s.responses[: int(rng.integers(2, 41))])
               for s in ds.sequences]
        parts = {}
        for part, seqs in (("train", cut[:40]), ("valid", cut[40:50]), ("test", cut[50:])):
            parts[part] = tmp_path / f"{part}.txt"
            kqn.data.save_dataset(kqn.data.Dataset(part, 30, tuple(seqs)), parts[part])
        run("train", "--out", tmp_path / "fit", *[f"--{p}={path}" for p, path in parts.items()],
            "--dim", 8, "--rnn-hidden", 32, "--mlp-hidden", 8, "--batch-size", 16,
            "--epochs", 1, "--alpha", 0.05)
        fit = json.loads((tmp_path / "fit" / "eval.json").read_text())["repeats"][0]
        for size in (1, 7):
            run("evaluate", "--out", tmp_path / f"eval{size}", "--checkpoint",
                tmp_path / "fit" / "checkpoint.json", "--data", parts["test"],
                "--batch-size", size)
            report = json.loads((tmp_path / f"eval{size}" / "eval.json").read_text())
            assert (report["auc"], report["loss"], report["trials"]) == \
                (fit["test_auc"], fit["test_loss"], fit["test_trials"])

    @pytest.mark.parametrize("size", [0, -3])
    def test_batch_size_must_be_positive(self, ws, tmp_path, capsys, size):
        rc = main(["evaluate", "--out", str(tmp_path / "out"), "--checkpoint",
                   str(ws / "kqn4" / "checkpoint.json"), "--data", str(ws / "split" / "test.txt"),
                   "--batch-size", str(size)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: batch_size must be positive, got {size}\n"
        assert not (tmp_path / "out").exists()

    def test_non_binary_flag_is_a_line_numbered_error(self, ws, tmp_path, capsys):
        # Before flags were checked, the third record was dropped without a
        # word and the other two were scored.
        (tmp_path / "flags.txt").write_text("3\n1,2,3\n1,0,1\n3\n2,3,1\n0,1,0\n2\n2,3\n0,2\n")
        rc = main(["evaluate", "--out", str(tmp_path / "out"), "--checkpoint",
                   str(ws / "kqn4" / "checkpoint.json"), "--data", str(tmp_path / "flags.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: line 9: correctness flags must be 0 or 1, got 2\n"

    def test_malformed_data_leaks_no_warning(self, ws, tmp_path, capsys):
        # A text np.fromstring cannot read to its end: the one error line
        # is all that reaches stderr, with warnings shown as by default.
        (tmp_path / "bad.txt").write_text("2\n1,2,\n0,1\n2\n1,,x\n0,1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            rc = main(["evaluate", "--out", str(tmp_path / "out"), "--checkpoint",
                       str(ws / "kqn4" / "checkpoint.json"), "--data", str(tmp_path / "bad.txt")])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 5: skill token 'x' is not an integer\n"

    def test_module_entry_point_reads_sys_argv(self, ws, tmp_path):
        argv = ["evaluate", "--checkpoint", str(ws / "kqn4" / "checkpoint.json"),
                "--data", str(ws / "split" / "test.txt"), "--batch-size", "8"]
        src = str(Path(kqn.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "kqn.cli", *argv, "--out", "sub"],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=300)
        assert (proc.returncode, proc.stderr) == (0, "")
        run(*argv, "--out", tmp_path / "inproc")
        for name in ("eval.json", "manifest.json"):
            sub = json.loads((tmp_path / "sub" / name).read_text())
            inproc = json.loads((tmp_path / "inproc" / name).read_text())
            if name == "manifest.json":
                assert sub["options"].pop("out") == "sub"
                inproc["options"].pop("out")
            assert sub == inproc

    def test_skill_ids_beyond_checkpoint(self, ws, tmp_path, capsys):
        steps = ",".join(str(e) for e in range(1, 10))
        (tmp_path / "nine.txt").write_text(f"9\n{steps}\n1,0,1,0,1,0,1,0,1\n")
        for model in ("kqn4", "dkt"):
            rc = main(["evaluate", "--out", str(tmp_path / model), "--checkpoint",
                       str(ws / model / "checkpoint.json"),
                       "--data", str(tmp_path / "nine.txt")])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: skill ids outside 1..6")

    def test_sparse_ids_are_scored_as_written(self, ws, tmp_path):
        rows = [("2,4,6,2,4,6", "1,0,1,1,0,0"), ("6,6,4,2,2,4", "0,1,1,0,1,1"),
                ("4,2,6,4,6,2", "1,1,0,0,1,0")]
        (tmp_path / "sparse.txt").write_text("".join(f"6\n{e}\n{c}\n" for e, c in rows))
        run("evaluate", "--out", tmp_path / "out", "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--data", tmp_path / "sparse.txt")
        report = json.loads((tmp_path / "out" / "eval.json").read_text())
        _, config, params = load_checkpoint(ws / "kqn4" / "checkpoint.json")
        sequences = [
            ResponseSequence(i, tuple((int(e), int(c))
                                      for e, c in zip(es.split(","), cs.split(","))))
            for i, (es, cs) in enumerate(rows)
        ]
        auc_value, loss_value, n_trials = evaluate(KqnModel(config), params, sequences)
        assert (report["auc"], report["loss"], report["trials"]) == \
            (auc_value, loss_value, n_trials)

    def test_dkt_checkpoint(self, ws, tmp_path):
        run("evaluate", "--out", tmp_path, "--checkpoint", ws / "dkt" / "checkpoint.json",
            "--data", ws / "split" / "test.txt", "--batch-size", 8)
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["model"] == "dkt"
        assert 0.0 <= report["auc"] <= 1.0

    def test_hybrid_checkpoint_needs_no_other_input(self, ws, tmp_path):
        # The checkpoint holds the skill table the model was trained with.
        run("evaluate", "--out", tmp_path, "--checkpoint", ws / "hybrid" / "checkpoint.json",
            "--data", ws / "split" / "test.txt", "--batch-size", 8)
        report = json.loads((tmp_path / "eval.json").read_text())
        fit = json.loads((ws / "hybrid" / "eval.json").read_text())
        assert (report["auc"], report["loss"], report["trials"]) == \
            (fit["test_auc"], fit["test_loss"], fit["test_trials"])
        _, table = load_skill_vectors(ws / "kqn4" / "skill_vectors.csv")
        _, _, params = load_checkpoint(ws / "hybrid" / "checkpoint.json")
        assert params["skill_table"].tobytes() == table.tobytes()


def stored(doc, key):
    """A parameter of a checkpoint document as an array."""
    entry = doc["params"][key]
    return np.frombuffer(base64.b64decode(entry["data"]), "<f8").reshape(entry["shape"])


def with_param(doc, key, value):
    """The document with parameter key set to value, or without it when
    value is None."""
    params = {k: v for k, v in doc["params"].items() if k != key}
    if value is not None:
        params[key] = _encode(value)
    return {**doc, "params": params}


# Each edit of a trained checkpoint and the one stderr line that evaluate
# then prints after "error: <path>: ", or after "error: " where the line
# names the path itself, at {path}.
MALFORMED = {
    "dim_is_a_string": ("kqn4", lambda d: {**d, "config": {**d["config"], "dim": "3"}},
                        "config field 'dim' must be of type int, got '3'"),
    "unknown_config_key": ("kqn4", lambda d: {**d, "config": {**d["config"], "depth": 2}},
                           "unknown config fields: 'depth'"),
    "top_level_list": ("kqn4", lambda d: [d], "checkpoint file {path} must hold a JSON object"),
    "missing_parameter": (
        "kqn4", lambda d: {**d, "params": {k: v for k, v in d["params"].items() if k != "proj_w"}},
        "parameters missing: 'proj_w'"),
    "wrongly_shaped_parameter": (
        "kqn4", lambda d: {**d, "params": {**d["params"],
                                           "proj_w": {**d["params"]["proj_w"], "shape": [2, 8]}}},
        "parameter 'proj_w' has shape (2, 8), the config gives (4, 4)"),
    "dim_above_the_parameters": ("kqn3", lambda d: {**d, "config": {**d["config"], "dim": 4}},
                                 "parameter 'proj_w' has shape (3, 4), the config gives (4, 4)"),
    "table_of_the_wrong_row_count": (
        "hybrid", lambda d: with_param(d, "skill_table", stored(d, "skill_table")[:5]),
        "skill table must have 6 rows, got shape (5, 4)"),
    "table_narrower_than_rnn_wx": (
        "hybrid", lambda d: with_param(d, "skill_table", stored(d, "skill_table")[:, :3]),
        "parameter 'rnn_wx' has shape (16, 10), the config gives (16, 9)"),
    "hybrid_without_a_table": ("hybrid", lambda d: with_param(d, "skill_table", None),
                               "hybrid input mode needs a skill-vector table"),
    "onehot_with_a_table": ("dkt", lambda d: with_param(d, "skill_table", np.eye(6)),
                            "skill table is only used in hybrid input mode"),
}


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_one_error_line(self, ws, tmp_path, capsys, case):
        source, edit, message = MALFORMED[case]
        bad = tmp_path / "checkpoint.json"
        bad.write_text(json.dumps(edit(json.loads((ws / source / "checkpoint.json").read_text()))))
        rc = main(["evaluate", "--out", str(tmp_path / "out"), "--checkpoint", str(bad),
                   "--data", str(ws / "split" / "test.txt")])
        assert rc == 1
        line = message.format(path=bad) if "{path}" in message else f"{bad}: {message}"
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out" / "eval.json").exists()


class TestOverflowingCheckpoint:
    """Every weight times 1e160 is finite, so the checkpoint loads, but its
    skill encoder overflows to NaN when used."""

    @pytest.fixture
    def scaled(self, ws, tmp_path):
        _, config, params = load_checkpoint(ws / "kqn4" / "checkpoint.json")
        path = tmp_path / "scaled.json"
        save_checkpoint(path, config, {k: v * 1e160 for k, v in params.items()})
        return path

    @pytest.mark.parametrize("command, args, what", [
        ("evaluate", ["--data", "test"], "scores"),
        ("heatmap", ["--data", "test", "--student", "0"], "scores"),
        ("distances", [], "skill vectors"),
        ("cluster", [], "skill vectors"),
    ])
    def test_one_error_line_and_no_artifact(self, ws, tmp_path, capsys, scaled, command,
                                            args, what):
        args = [str(ws / "split" / "test.txt") if a == "test" else a for a in args]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--out", str(tmp_path / "out"), "--checkpoint", str(scaled),
                       *args])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {scaled}: the model's {what} are not finite\n")
        assert not (tmp_path / "out").exists()


class TestHeatmap:
    def test_matches_library_heatmap(self, ws, tmp_path):
        run("heatmap", "--out", tmp_path / "hm", "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--data", ws / "split" / "test.txt",
            "--student", 1)
        _, config, params = load_checkpoint(ws / "kqn4" / "checkpoint.json")
        test_ds = load_dataset(ws / "split" / "test.txt")
        hm = heatmap_matrix(params, config, test_ds.sequences[1])
        write_heatmap_csv(tmp_path / "expected.csv", hm)
        assert (tmp_path / "hm" / "heatmap.csv").read_bytes() == \
            (tmp_path / "expected.csv").read_bytes()
        assert hm.percent.shape[1] == 11

    def test_student_index_out_of_range(self, ws, tmp_path, capsys):
        rc = main(["heatmap", "--out", str(tmp_path), "--checkpoint",
                   str(ws / "kqn4" / "checkpoint.json"),
                   "--data", str(ws / "split" / "test.txt"), "--student", "99"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_rejects_baseline_checkpoint(self, ws, tmp_path, capsys):
        checkpoint = ws / "dkt" / "checkpoint.json"
        rc = main(["heatmap", "--out", str(tmp_path / "out"), "--checkpoint", str(checkpoint),
                   "--data", str(ws / "split" / "test.txt"), "--student", "0"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint} is a dkt checkpoint, not a knowledge-query one\n"
        )
        assert not (tmp_path / "out").exists()


class TestDistancesClusterAri:
    def test_distances_match_library(self, ws, tmp_path):
        run("distances", "--out", tmp_path, "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--kind", "euclidean")
        dmat, ids = read_distance_csv(tmp_path / "distances.csv")
        _, _, params = load_checkpoint(ws / "kqn4" / "checkpoint.json")
        table, _ = encode_skill_table(params)
        expected = pairwise_distances(table, "euclidean")
        assert list(ids) == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(dmat.values, expected.values)

    def test_cluster_chain(self, ws, tmp_path):
        run("distances", "--out", tmp_path / "d", "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--kind", "euclidean")
        run("cluster", "--out", tmp_path / "c", "--distances",
            tmp_path / "d" / "distances.csv", "--linkage", "average", "--n", 2)
        ids, labels = read_clusters_csv(tmp_path / "c" / "clusters.csv")
        assert list(ids) == [1, 2, 3, 4, 5, 6]
        assert set(labels) == {1, 2}
        merges = (tmp_path / "c" / "dendrogram.csv").read_text().splitlines()
        assert merges[0] == "a,b,height,size"
        assert len(merges) == 1 + 5

    def test_skill_vector_input(self, ws, tmp_path):
        # Both commands read a skill-vector file in its own row order.
        source = ws / "kqn4" / "skill_vectors.csv"
        head, *rows = source.read_text().splitlines()
        order = [3, 0, 5, 1, 4, 2]
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([head, *(rows[i] for i in order)]) + "\n")
        run("distances", "--out", tmp_path / "d", "--skill-vectors", shuffled,
            "--kind", "cosine")
        dmat, ids = read_distance_csv(tmp_path / "d" / "distances.csv")
        source_ids, table = load_skill_vectors(source)
        assert list(ids) == [source_ids[i] for i in order]
        assert np.array_equal(dmat.values, pairwise_distances(table[order], "cosine").values)
        run("cluster", "--out", tmp_path / "v", "--skill-vectors", shuffled,
            "--distance", "cosine", "--linkage", "average", "--n", 2)
        run("cluster", "--out", tmp_path / "c", "--distances",
            tmp_path / "d" / "distances.csv", "--linkage", "average", "--n", 2)
        for name in ("dendrogram.csv", "clusters.csv"):
            assert (tmp_path / "v" / name).read_bytes() == (tmp_path / "c" / name).read_bytes()

    @pytest.mark.parametrize("header, first_id, message", [
        # The header names 4 skills, but every row holds 3 distances.
        ("skill,1,2,3,4", "1", " line 2: 4 cells, the header has 5"),
        # The rows name their skills in another order than the header.
        ("skill,1,2,3", "3", ": row skill ids differ from the header's"),
    ], ids=["missing-column", "reordered-rows"])
    def test_mismatched_distance_file_is_an_error(self, tmp_path, capsys, header, first_id,
                                                  message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\n{first_id},0.0,1.0,2.0\n2,1.0,0.0,1.0\n"
                       f"{4 - int(first_id)},2.0,1.0,0.0\n")
        rc = main(["cluster", "--out", str(tmp_path / "c"), "--distances", str(bad), "--n", "2"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}{message}\n"
        assert not (tmp_path / "c" / "clusters.csv").exists()

    @pytest.mark.parametrize("line", [1, 3])
    @pytest.mark.parametrize("cell", ["2_0", "\uff12"])
    def test_distance_id_only_python_reads_is_an_error(self, tmp_path, capsys, line, cell):
        # int() reads 2_0 as skill 20 and a fullwidth 2 as skill 2.
        rows = ["skill,1,2,3", "1,0.0,1.0,2.0", "2,1.0,0.0,1.0", "3,2.0,1.0,0.0"]
        rows[line - 1] = rows[line - 1].replace("2", cell, 1)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        rc = main(["cluster", "--out", str(tmp_path / "c"), "--distances", str(bad), "--n", "2"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad} line {line}: cannot read {cell!r} as int\n"
        assert not (tmp_path / "c").exists()

    def test_nan_distance_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(NAN_DISTANCES)
        rc = main(["cluster", "--out", str(tmp_path / "c"), "--distances", str(bad),
                   "--linkage", "average", "--n", "2"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: distance matrix entries must be finite\n"
        assert not (tmp_path / "c" / "dendrogram.csv").exists()

    @pytest.mark.parametrize("command", ["cluster", "mantel"])
    def test_header_only_distance_file_is_an_error(self, tmp_path, capsys, command):
        # A file with no rows is a 0x0 matrix, refused by the point-count
        # rule (cluster) or, against a 3-skill file, by the skill-set rule.
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text("skill\n")
        good.write_text("skill,1,2,3\n1,0.0,1.0,2.0\n2,1.0,0.0,1.0\n3,2.0,1.0,0.0\n")
        sources = (["--distances", str(bad)] if command == "cluster"
                   else ["--distances-a", str(bad), "--distances-b", str(good)])
        rc = main([command, "--out", str(tmp_path / "out"), *sources])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: need at least 2 points to cluster, got 0\n" if command == "cluster"
            else f"error: {bad} and {good} cover different skill sets\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["distances", "cluster"])
    def test_rejects_baseline_checkpoint(self, ws, tmp_path, capsys, command):
        # The same check as heatmap's.
        checkpoint = ws / "dkt" / "checkpoint.json"
        rc = main([command, "--out", str(tmp_path / "out"), "--checkpoint", str(checkpoint)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {checkpoint} is a dkt checkpoint, not a knowledge-query one\n"
        )

    @pytest.mark.parametrize("command, sources", [
        ("distances", ("checkpoint", "skill_vectors")),
        ("cluster", ("distances", "checkpoint")),
        ("cluster", ("distances", "skill_vectors")),
        ("cluster", ("checkpoint", "skill_vectors")),
        ("cluster", ("distances", "checkpoint", "skill_vectors")),
    ], ids=lambda v: v if isinstance(v, str) else "+".join(v))
    def test_refuses_more_than_one_source(self, tmp_path, capsys, command, sources):
        # Refused before any input is read: none of the files exists.
        flags = ["--" + key.replace("_", "-") for key in sources]
        argv = [command, "--out", str(tmp_path / "out")]
        for flag in flags:
            argv += [flag, str(tmp_path / "missing")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: give only one of {', '.join(flags)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", [
        ("distances", "--checkpoint or --skill-vectors"),
        ("cluster", "--distances or --checkpoint or --skill-vectors"),
    ])
    def test_needs_a_source(self, tmp_path, capsys, command, flags):
        assert main([command, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: need {flags}\n"
        assert not (tmp_path / "out").exists()

    def test_cluster_direct_from_checkpoint(self, ws, tmp_path):
        run("cluster", "--out", tmp_path, "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--distance", "cosine",
            "--linkage", "single", "--n", 3)
        _, labels = read_clusters_csv(tmp_path / "clusters.csv")
        assert set(labels) == {1, 2, 3}

    def test_ari_self_is_one(self, ws, tmp_path):
        run("ari", "--out", tmp_path, "--labels-a", ws / "synth" / "concepts.csv",
            "--labels-b", ws / "synth" / "concepts.csv")
        report = json.loads((tmp_path / "ari.json").read_text())
        assert report["ari"] == 1.0

    def test_ari_matches_library(self, ws, tmp_path):
        run("cluster", "--out", tmp_path / "c", "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--distance", "euclidean",
            "--linkage", "average", "--n", 2)
        run("ari", "--out", tmp_path / "a", "--labels-a", ws / "synth" / "concepts.csv",
            "--labels-b", tmp_path / "c" / "clusters.csv")
        report = json.loads((tmp_path / "a" / "ari.json").read_text())
        ids_a, labels_a = read_clusters_csv(ws / "synth" / "concepts.csv")
        ids_b, labels_b = read_clusters_csv(tmp_path / "c" / "clusters.csv")
        expected = ari(labels_a[np.argsort(ids_a)], labels_b[np.argsort(ids_b)])
        assert report["ari"] == expected

    def test_ari_mismatched_skill_sets(self, ws, tmp_path, capsys):
        (tmp_path / "short.csv").write_text("skill,label\n1,1\n2,2\n")
        rc = main(["ari", "--out", str(tmp_path), "--labels-a",
                   str(ws / "synth" / "concepts.csv"), "--labels-b",
                   str(tmp_path / "short.csv")])
        assert rc == 1
        assert "different skill sets" in capsys.readouterr().err


# The pairwise distances 1, 2 and 3 of skills 1, 2 and 3.
DISTANCES_123 = "skill,1,2,3\n1,0.0,1.0,2.0\n2,1.0,0.0,3.0\n3,2.0,3.0,0.0\n"


class TestSkillIdAlignment:
    """ari, mantel and sensitivity pair the two files' rows by skill id."""

    def test_mantel_reads_reordered_ids(self, tmp_path):
        (tmp_path / "a.csv").write_text(DISTANCES_123)
        (tmp_path / "b.csv").write_text(
            "skill,3,2,1\n3,0.0,3.0,2.0\n2,3.0,0.0,1.0\n1,2.0,1.0,0.0\n")
        run("mantel", "--out", tmp_path / "m", "--distances-a", tmp_path / "a.csv",
            "--distances-b", tmp_path / "b.csv", "--permutations", 9)
        rho = json.loads((tmp_path / "m" / "mantel.json").read_text())["rho"]
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_mantel_refuses_different_skill_sets(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text(DISTANCES_123)
        (tmp_path / "b.csv").write_text(
            "skill,7,8,9\n7,0.0,1.0,2.0\n8,1.0,0.0,3.0\n9,2.0,3.0,0.0\n")
        rc = main(["mantel", "--out", str(tmp_path / "m"), "--distances-a",
                   str(tmp_path / "a.csv"), "--distances-b", str(tmp_path / "b.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'a.csv'} and {tmp_path / 'b.csv'} cover different skill sets\n"
        )
        assert not (tmp_path / "m").exists()

    def test_sensitivity_refuses_different_skill_sets(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("skill,x1,x2\n1,0.6,0.8\n2,1.0,0.0\n")
        (tmp_path / "b.csv").write_text("skill,x1,x2,x3\n5,0.6,0.8,0.0\n6,1.0,0.0,0.0\n")
        rc = main(["sensitivity", "--out", str(tmp_path / "s"), "--vectors",
                   str(tmp_path / "a.csv"), "--vectors", str(tmp_path / "b.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'a.csv'} and {tmp_path / 'b.csv'} cover different skill sets\n"
        )
        assert not (tmp_path / "s").exists()

    def test_sensitivity_reads_reordered_ids(self, tmp_path):
        rows = {1: "0.6,0.8,0.0", 2: "1.0,0.0,0.0", 3: "0.0,0.0,1.0"}
        (tmp_path / "a.csv").write_text("skill,x1,x2\n1,0.6,0.8\n2,1.0,0.0\n3,0.0,1.0\n")
        for name, order in (("b.csv", (1, 2, 3)), ("c.csv", (3, 1, 2))):
            (tmp_path / name).write_text(
                "skill,x1,x2,x3\n" + "".join(f"{sid},{rows[sid]}\n" for sid in order))
        for name in ("b.csv", "c.csv"):
            run("sensitivity", "--out", tmp_path / name[0], "--vectors", tmp_path / "a.csv",
                "--vectors", tmp_path / name)
        assert (tmp_path / "b" / "sensitivity.json").read_bytes() == \
            (tmp_path / "c" / "sensitivity.json").read_bytes()

    def test_ari_refuses_a_repeated_id(self, ws, tmp_path, capsys):
        (tmp_path / "twice.csv").write_text("skill,label\n1,1\n2,2\n1,2\n")
        rc = main(["ari", "--out", str(tmp_path / "a"), "--labels-a",
                   str(ws / "synth" / "concepts.csv"), "--labels-b", str(tmp_path / "twice.csv")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'twice.csv'}: skill id 1 appears more than once\n"
        )


def write_distances(path, values):
    """A distance file holding values as given, bit for bit."""
    ids = range(1, len(values) + 1)
    write_table(path, ["skill", *ids], ([sid, *row] for sid, row in zip(ids, values.tolist())))


class TestUpperTriangle:
    """A file within 1e-12 of symmetric is read as its upper triangle
    mirrored: its lower-triangle cells, each 1e-13 off, change nothing."""

    @pytest.mark.parametrize("linkage", LINKAGES)
    def test_cluster(self, tmp_path, linkage):
        nudged, mirrored = helpers.nudged_ties(12, 3, -1e-13, np.random.default_rng(4))
        for name, values in (("nudged", nudged), ("mirrored", mirrored)):
            write_distances(tmp_path / f"{name}.csv", values)
            run("cluster", "--out", tmp_path / name, "--distances", tmp_path / f"{name}.csv",
                "--linkage", linkage, "--n", 3)
        for artifact in ("dendrogram.csv", "clusters.csv"):
            assert (tmp_path / "nudged" / artifact).read_bytes() == \
                (tmp_path / "mirrored" / artifact).read_bytes()

    def test_mantel(self, tmp_path):
        rng = np.random.default_rng(4)
        pairs = [helpers.nudged_ties(12, 3, 1e-13, rng) for _ in range(2)]
        for k, name in enumerate(("nudged", "mirrored")):
            for side, pair in zip("ab", pairs):
                write_distances(tmp_path / f"{name}_{side}.csv", pair[k])
            run("mantel", "--out", tmp_path / name, "--distances-a", tmp_path / f"{name}_a.csv",
                "--distances-b", tmp_path / f"{name}_b.csv", "--permutations", 99)
        assert (tmp_path / "nudged" / "mantel.json").read_bytes() == \
            (tmp_path / "mirrored" / "mantel.json").read_bytes()


class TestMantelSensitivity:
    def test_mantel_matches_library(self, ws, tmp_path):
        run("distances", "--out", tmp_path / "a", "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--kind", "euclidean")
        run("distances", "--out", tmp_path / "b", "--checkpoint",
            ws / "kqn3" / "checkpoint.json", "--kind", "euclidean")
        run("mantel", "--out", tmp_path / "m", "--distances-a",
            tmp_path / "a" / "distances.csv", "--distances-b",
            tmp_path / "b" / "distances.csv", "--permutations", 199, "--seed", 5)
        report = json.loads((tmp_path / "m" / "mantel.json").read_text())
        d1, _ = read_distance_csv(tmp_path / "a" / "distances.csv")
        d2, _ = read_distance_csv(tmp_path / "b" / "distances.csv")
        expected = mantel(d1, d2, permutations=199, rng=5)
        assert report["rho"] == expected.rho
        assert report["p_value"] == expected.p_value
        assert report["permutations"] == 199

    def test_nan_distance_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(NAN_DISTANCES)
        good = tmp_path / "good.csv"
        good.write_text(NAN_DISTANCES.replace("nan", "1.5"))
        rc = main(["mantel", "--out", str(tmp_path / "m"), "--distances-a", str(good),
                   "--distances-b", str(bad), "--permutations", "9"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: distance matrix entries must be finite\n"
        assert not (tmp_path / "m" / "mantel.json").exists()

    def mantel_error(self, tmp_path, capsys, text_a, text_b, *flags):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text(text_a)
        b.write_text(text_b)
        rc = main(["mantel", "--out", str(tmp_path / "m"), "--distances-a", str(a),
                   "--distances-b", str(b), *flags])
        assert rc == 1
        assert not (tmp_path / "m").exists()
        return capsys.readouterr().err, a, b

    def test_too_few_skills_names_both_files(self, tmp_path, capsys):
        err, a, b = self.mantel_error(tmp_path, capsys, "skill\n", "skill\n")
        assert err == f"error: {a} and {b}: Mantel test needs at least 3 points, got 0\n"

    def test_constant_upper_triangle_names_both_files(self, tmp_path, capsys):
        flat = "skill,1,2,3\n1,0.0,1.0,1.0\n2,1.0,0.0,1.0\n3,1.0,1.0,0.0\n"
        err, a, b = self.mantel_error(tmp_path, capsys, DISTANCES_123, flat)
        assert err == f"error: {a} and {b}: constant upper triangle; correlation is undefined\n"

    def test_huge_distances_give_the_unscaled_rho(self, tmp_path, capsys):
        # The statistics of these finite distances overflowed: the command
        # printed RuntimeWarnings and then a JSON error naming no file, and
        # later refused them as too large.
        rng = np.random.default_rng(6)
        paths, uppers = [], []
        for name in ("a", "b"):
            m = np.triu(rng.random((6, 6)), 1)
            uppers.append(m[np.triu_indices(6, k=1)])
            m = (m + m.T) * 1e308
            lines = ["skill,1,2,3,4,5,6"]
            lines += [",".join([str(i + 1), *map(repr, row.tolist())]) for i, row in enumerate(m)]
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_text("\n".join(lines) + "\n")
        run("mantel", "--out", tmp_path / "m", "--distances-a", paths[0], "--distances-b",
            paths[1], "--permutations", 99)
        report = json.loads((tmp_path / "m" / "mantel.json").read_text())
        assert report["rho"] == pytest.approx(np.corrcoef(*uppers)[0, 1], rel=1e-14, abs=0)
        assert capsys.readouterr().err == ""

    def test_zero_permutations_blames_no_file(self, tmp_path, capsys):
        # Checked before the files' contents, so two header-only files get
        # the same error.
        for text in (DISTANCES_123, "skill\n"):
            err, _, _ = self.mantel_error(tmp_path, capsys, text, text, "--permutations", "0")
            assert err == "error: permutations must be positive, got 0\n"

    def test_nan_skill_vector_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(NAN_VECTORS)
        rc = main(["distances", "--out", str(tmp_path / "d"), "--skill-vectors", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: skill 2 has a non-finite coordinate\n"
        assert not (tmp_path / "d" / "distances.csv").exists()

    @pytest.mark.parametrize("bad_side", ["a", "b"])
    def test_unreadable_cell_names_its_file_and_line(self, tmp_path, capsys, bad_side):
        texts = {"a": DISTANCES_123, "b": DISTANCES_123}
        texts[bad_side] = DISTANCES_123.replace("2,1.0,0.0,3.0", "2,1.0,0.0,abc")
        err, a, b = self.mantel_error(tmp_path, capsys, texts["a"], texts["b"])
        assert err == f"error: {a if bad_side == 'a' else b} line 3: cannot read 'abc' as float\n"

    @pytest.mark.parametrize("command", ["sensitivity", "distances", "cluster"])
    def test_non_unit_vector_names_its_file_and_skill(self, tmp_path, capsys, command):
        # Skill 9 is row 2 of the second file.
        good, bad = tmp_path / "u.csv", tmp_path / "nu.csv"
        good.write_text("skill,x1,x2\n5,0.6,0.8\n7,1.0,0.0\n9,0.0,1.0\n")
        bad.write_text("skill,x1,x2,x3\n5,0.6,0.8,0.0\n7,1.0,0.0,0.0\n9,0.5,0.5,0.0\n")
        inputs = (["--vectors", str(good), "--vectors", str(bad)] if command == "sensitivity"
                  else ["--skill-vectors", str(bad)])
        rc = main([command, "--out", str(tmp_path / "o"), *inputs])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: vectors must be unit length; skill 9 has norm 0.7071067811865476\n"
        )
        assert not (tmp_path / "o").exists()

    # Cells Python's float() reads but np.loadtxt refuses.
    @pytest.mark.parametrize("cell", ["1_0", "１.0", "١.0"])
    @pytest.mark.parametrize("source", ["distances", "skill-vectors"])
    def test_cell_only_python_reads_names_its_file_and_line(self, tmp_path, capsys, cell,
                                                            source):
        float(cell)
        bad = tmp_path / "bad.csv"
        if source == "distances":
            bad.write_text(DISTANCES_123.replace("2,1.0,0.0,3.0", f"2,1.0,0.0,{cell}"))
            argv = ["cluster", "--distances", str(bad)]
        else:
            bad.write_text(f"skill,x1,x2\n1,0.6,0.8\n2,{cell},0.0\n")
            argv = ["distances", "--skill-vectors", str(bad)]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {bad} line 3: cannot read {cell!r} as float\n"
        assert not (tmp_path / "o").exists()

    def test_sensitivity_matches_library(self, ws, tmp_path):
        run("sensitivity", "--out", tmp_path,
            "--vectors", ws / "kqn4" / "skill_vectors.csv",
            "--vectors", ws / "kqn3" / "skill_vectors.csv", "--kind", "euclidean")
        report = json.loads((tmp_path / "sensitivity.json").read_text())
        _, t4 = load_skill_vectors(ws / "kqn4" / "skill_vectors.csv")
        _, t3 = load_skill_vectors(ws / "kqn3" / "skill_vectors.csv")
        expected = sensitivity_stats({4: t4, 3: t3}, "euclidean")
        assert set(report["eta"]) == {"3", "4"}
        for dim, value in expected.eta.items():
            assert report["eta"][str(dim)] == value
        assert len(report["xi"]) == 1
        (pair_key, xi_value), = report["xi"].items()
        (pair, expected_xi), = expected.xi.items()
        assert pair_key == f"{pair[0]},{pair[1]}"
        assert xi_value == expected_xi

    def test_sensitivity_needs_two_files(self, ws, tmp_path, capsys):
        rc = main(["sensitivity", "--out", str(tmp_path), "--vectors",
                   str(ws / "kqn4" / "skill_vectors.csv")])
        assert rc == 1
        assert "at least two" in capsys.readouterr().err

    def test_sensitivity_rejects_duplicate_dims(self, ws, tmp_path, capsys):
        rc = main(["sensitivity", "--out", str(tmp_path),
                   "--vectors", str(ws / "kqn4" / "skill_vectors.csv"),
                   "--vectors", str(ws / "kqn4" / "skill_vectors.csv")])
        assert rc == 1
        assert "share dimension" in capsys.readouterr().err


class TestDkt:
    def test_artifacts(self, ws):
        outdir = ws / "dkt"
        for name in ("metrics.csv", "checkpoint.json", "eval.json", "manifest.json"):
            assert (outdir / name).exists()
        kind, config, _ = load_checkpoint(outdir / "checkpoint.json")
        assert kind == "dkt"
        assert config.num_skills == 6
        assert config.input_mode == "onehot"
        report = json.loads((outdir / "eval.json").read_text())
        assert 0.0 <= report["test_auc"] <= 1.0

    def test_hybrid_needs_vectors(self, ws, tmp_path, capsys):
        rc = main(["dkt", "--out", str(tmp_path),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"),
                   "--mode", "hybrid", "--epochs", "1"])
        assert rc == 1
        assert "skill-vectors" in capsys.readouterr().err

    def test_onehot_refuses_vectors(self, ws, tmp_path, capsys):
        # Refused before anything is read or written, even for a missing file.
        rc = main(["dkt", "--out", str(tmp_path / "out"),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"),
                   "--skill-vectors", str(tmp_path / "missing.csv"), "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --skill-vectors is only used in hybrid mode\n"
        )
        assert not (tmp_path / "out").exists()

    def test_hybrid_refuses_nan_vectors(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(NAN_VECTORS)
        rc = main(["dkt", "--out", str(tmp_path / "out"),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"),
                   "--mode", "hybrid", "--skill-vectors", str(bad), "--epochs", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {bad}: skill 2 has a non-finite coordinate\n"
        assert not (tmp_path / "out" / "checkpoint.json").exists()

    def test_hybrid_trains_with_vectors(self, ws, tmp_path):
        run("dkt", "--out", tmp_path,
            "--train", ws / "split" / "train.txt",
            "--valid", ws / "split" / "valid.txt",
            "--mode", "hybrid", "--encoding", "signed",
            "--skill-vectors", ws / "kqn4" / "skill_vectors.csv",
            "--hidden", 4, "--epochs", 1, "--batch-size", 8, "--seed", 2)
        kind, config, _ = load_checkpoint(tmp_path / "checkpoint.json")
        assert kind == "dkt"
        assert config.input_mode == "hybrid"
        assert config.hybrid_encoding == "signed"

    @staticmethod
    def hybrid(ws, out, vectors):
        return main(["dkt", "--out", str(out), "--train", str(ws / "split" / "train.txt"),
                     "--valid", str(ws / "split" / "valid.txt"), "--mode", "hybrid",
                     "--skill-vectors", str(vectors), "--hidden", "4", "--epochs", "2",
                     "--batch-size", "8", "--seed", "2"])

    def test_hybrid_pairs_vectors_with_skills_by_id(self, ws, tmp_path):
        source = ws / "kqn4" / "skill_vectors.csv"
        head, *rows = source.read_text().splitlines()
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("\n".join([head, *rows[::-1]]) + "\n")
        for name, vectors in (("file", source), ("reordered", reordered)):
            assert self.hybrid(ws, tmp_path / name, vectors) == 0
        for artifact in ("metrics.csv", "checkpoint.json"):
            assert (tmp_path / "file" / artifact).read_bytes() == \
                (tmp_path / "reordered" / artifact).read_bytes()

    @pytest.mark.parametrize("case", ["shifted", "missing", "repeated"])
    def test_hybrid_refuses_vectors_not_of_every_skill(self, ws, tmp_path, capsys, case):
        head, *rows = (ws / "kqn4" / "skill_vectors.csv").read_text().splitlines()
        if case == "shifted":
            rows = [f"{int(sid) + 1},{rest}" for sid, rest in (r.split(",", 1) for r in rows)]
        rows = {"shifted": rows, "missing": rows[:-1], "repeated": rows + rows[:1]}[case]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([head, *rows]) + "\n")
        assert self.hybrid(ws, tmp_path / "out", bad) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: skill id 1 appears more than once\n" if case == "repeated"
            else f"error: skill ids 1..6 and {bad} cover different skill sets\n"
        )
        assert not (tmp_path / "out").exists()


class TestGridsearch:
    def test_tiny_grid(self, ws, tmp_path):
        run("gridsearch", "--out", tmp_path,
            "--train", ws / "split" / "train.txt",
            "--valid", ws / "split" / "valid.txt",
            "--kinds", "gru", "--dims", "3,4", "--rnn-hiddens", "4",
            "--mlp-hiddens", "4", "--epochs", 1, "--batch-size", 8, "--seed", 0)
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "rnn,dim,rnn_hidden,mlp_hidden,valid_auc,best_epoch"
        assert len(lines) == 1 + 2
        best = json.loads((tmp_path / "best.json").read_text())
        assert best["rnn"] == "gru"
        assert best["dim"] in (3, 4)
        cell_aucs = [float(line.split(",")[4]) for line in lines[1:]]
        assert best["valid_auc"] == max(cell_aucs)

    def test_grid_is_the_fits_of_its_cells(self, ws, tmp_path, capsys):
        # Kinds outermost and perceptron widths innermost; each row is the
        # fit train() gives its cell, and best.json and the last stdout line
        # name the cell of highest AUC, ties to the smaller widths, then LSTM.
        train_ds, valid_ds = (load_dataset(ws / "split" / f"{p}.txt") for p in ("train", "valid"))
        capsys.readouterr()
        run("gridsearch", "--out", tmp_path, "--train", ws / "split" / "train.txt",
            "--valid", ws / "split" / "valid.txt", "--kinds", "lstm,gru", "--dims", "3,4",
            "--rnn-hiddens", 4, "--mlp-hiddens", "4,5", "--keep-prob", 0.8, "--epochs", 2,
            "--batch-size", 8, "--alpha", 0.003, "--seed", 1)
        cfg = TrainConfig(batch_size=8, epochs_validation=2, adam_alpha=0.003, seed=1)
        rows = []
        for kind in ("lstm", "gru"):
            for dim in (3, 4):
                for mlp in (4, 5):
                    config = ModelConfig(num_skills=6, dim=dim, rnn_kind=kind, rnn_hidden=4,
                                         mlp_hidden=mlp, keep_prob=0.8)
                    fit = train(KqnModel(config), train_ds.sequences, valid_ds.sequences, cfg)
                    auc = max(r.valid_auc for r in fit.metrics.epochs)
                    rows.append((kind, dim, 4, mlp, auc, fit.metrics.best_epoch))
        best = min(rows, key=lambda r: (-r[4], r[1], r[2], r[3], r[0] != "lstm"))
        assert (tmp_path / "grid.csv").read_text() == \
            "rnn,dim,rnn_hidden,mlp_hidden,valid_auc,best_epoch\n" + \
            "".join(",".join(map(str, row)) + "\n" for row in rows)
        keys = ("rnn", "dim", "rnn_hidden", "mlp_hidden", "valid_auc")
        assert (tmp_path / "best.json").read_text() == \
            json.dumps(dict(zip(keys, best)), indent=2) + "\n"
        label = "{} d={} rnn={} mlp={}"
        assert capsys.readouterr().out.splitlines() == [
            *(f"{label.format(*row[:4])}: valid AUC {row[4]:.4f}" for row in rows),
            f"best: {label.format(*best[:4])} (valid AUC {best[4]:.4f})",
        ]

    @pytest.mark.parametrize("flag, value", [("--dims", ""), ("--kinds", ",")])
    def test_empty_list_option(self, ws, tmp_path, capsys, flag, value):
        rc = main(["gridsearch", "--out", str(tmp_path),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"), flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag[2:]} needs at least one item\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bad_list_item_names_its_option(self, ws, tmp_path, capsys, source):
        args = ["gridsearch", "--out", str(tmp_path / "out"),
                "--train", str(ws / "split" / "train.txt"),
                "--valid", str(ws / "split" / "valid.txt")]
        if source == "flag":
            args += ["--dims", "3, x"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"dims": "3, x"}))
            args += ["--config", str(tmp_path / "cfg.json")]
        assert main(args) == 1
        assert capsys.readouterr().err == "error: dims: cannot read 'x' as int\n"
        assert not (tmp_path / "out").exists()

    def test_list_options_from_config(self, tmp_path):
        config = {"kinds": "gru", "dims": "3, 4", "rnn_hiddens": [4, 5], "mlp_hiddens": 6}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        opts = _resolve(build_parser().parse_args(
            ["gridsearch", "--out", "o", "--train", "t", "--valid", "v",
             "--config", str(tmp_path / "cfg.json")]))
        assert [_list_option(opts, key) for key in config] == \
            [("gru",), (3, 4), (4, 5), (6,)]


class TestRelabel:
    def test_merge_matches_library(self, ws, tmp_path):
        mapping = {"1": 1, "2": 1, "3": 2, "4": 2, "5": 3, "6": 3}
        (tmp_path / "map.json").write_text(json.dumps(mapping))
        run("relabel", "--out", tmp_path / "out", "--data",
            ws / "synth" / "data.txt", "--mapping", tmp_path / "map.json")
        merged = load_dataset(tmp_path / "out" / "data.txt")
        dataset = load_dataset(ws / "synth" / "data.txt")
        expected = relabel_skills(dataset, {int(k): v for k, v in mapping.items()})
        assert merged.num_skills == 3
        helpers.assert_same_sequences(merged.sequences, expected.sequences)

    def test_mapping_must_be_an_object(self, ws, tmp_path, capsys):
        (tmp_path / "map.json").write_text("[1, 2]")
        rc = main(["relabel", "--out", str(tmp_path / "out"), "--data",
                   str(ws / "synth" / "data.txt"), "--mapping", str(tmp_path / "map.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must hold a JSON object" in err

    @pytest.mark.parametrize("mapping", [{"1": 1.7}, {"1": True}, {"x": 1}, {"1.0": 1}],
                             ids=["float_value", "bool_value", "word_key", "float_key"])
    def test_mapping_takes_integer_strings_to_ints(self, ws, tmp_path, capsys, mapping):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({str(k): 1 for k in range(1, 7)} | mapping))
        rc = main(["relabel", "--out", str(tmp_path / "out"), "--data",
                   str(ws / "synth" / "data.txt"), "--mapping", str(path)])
        assert rc == 1
        key, value = next(iter(mapping.items()))
        assert capsys.readouterr().err == (
            f"error: {path}: mapping keys must be integer strings and its values ints, "
            f"got {key!r}: {value!r}\n"
        )


class TestOptionHandling:
    def test_config_file_merges_under_flags(self, tmp_path):
        config = {"students": 8, "skills": 4, "concepts": 2, "steps": 6}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        run("synth", "--out", tmp_path / "out", "--config", tmp_path / "cfg.json",
            "--students", 10, "--seed", 1)
        dataset = load_dataset(tmp_path / "out" / "data.txt")
        assert dataset.num_students == 10
        assert dataset.num_skills == 4
        doc = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert doc["options"]["students"] == 10
        assert doc["options"]["skills"] == 4
        assert doc["seed"] == 1

    def test_malformed_config_names_the_file(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text('{"dim": 3,}')
        rc = main(["train", "--out", str(tmp_path / "out"),
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'cfg.json'}: Expecting property name enclosed in double "
            "quotes: line 1 column 11 (char 10)\n"
        )

    def test_unknown_config_key(self, tmp_path, capsys):
        (tmp_path / "cfg.json").write_text(json.dumps({"bogus": 1}))
        rc = main(["synth", "--out", str(tmp_path / "out"),
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad", [
        ("train", {"dim": "16"}),
        ("train", {"keep_prob": True}),
        ("synth", {"students": 8.5}),
        ("split", {"data": 3}),
        ("gridsearch", {"kinds": ["lstm", 1]}),
        ("gridsearch", {"dims": ["8"]}),
        ("train", {"rnn": "rnm"}),
        ("cluster", {"linkage": None}),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, bad):
        (tmp_path / "cfg.json").write_text(json.dumps(bad))
        rc = main([command, "--out", str(tmp_path / "out"),
                   "--config", str(tmp_path / "cfg.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(next(iter(bad))) in err

    def test_config_values_of_matching_type(self, tmp_path):
        config = {"students": 8, "skills": 4, "concepts": 2, "steps": 6, "guess": 0,
                  "name": "typed"}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        run("synth", "--out", tmp_path / "out", "--config", tmp_path / "cfg.json")
        assert load_dataset(tmp_path / "out" / "data.txt").num_students == 8

    def test_missing_required_option(self, capsys):
        rc = main(["synth"])
        assert rc == 1
        assert "missing required options: out" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert kqn.__version__ in capsys.readouterr().out


# Each command with its input options pointing at files that do not exist.
MISSING_INPUTS = {
    "evaluate": ("--checkpoint", "missing.json", "--data", "missing.txt"),
    "heatmap": ("--checkpoint", "missing.json", "--data", "missing.txt"),
    "distances": ("--checkpoint", "missing.json"),
    "cluster": ("--distances", "missing.csv"),
    "split": ("--data", "missing.txt"),
    "relabel": ("--data", "missing.txt", "--mapping", "missing.json"),
    "train": ("--train", "missing.txt", "--valid", "missing.txt"),
    "dkt": ("--train", "missing.txt", "--valid", "missing.txt"),
    "ari": ("--labels-a", "missing.csv", "--labels-b", "missing.csv"),
    "mantel": ("--distances-a", "missing.csv", "--distances-b", "missing.csv"),
    "sensitivity": ("--vectors", "missing_a.csv", "--vectors", "missing_b.csv"),
}


# What a garbage input file holds; None leaves it missing.
GARBAGE = {"missing": None, "empty": b"", "list": b"[1]", "open_brace": b"{",
           "null": b"null", "not_utf8": b"\xff\xfe\x80"}

# The inputs of a command whose dataset file, data.txt, has a garbage sidecar.
SIDECAR_INPUTS = {
    "split": lambda ws, data: ["--data", data],
    "train": lambda ws, data: ["--train", data, "--valid", data],
    "evaluate": lambda ws, data: ["--checkpoint", ws / "kqn4" / "checkpoint.json",
                                  "--data", data],
}

# (command, content, sidecar): every input of the command holds `content`,
# or, with sidecar set, only its dataset's sidecar does. The missing-file
# cases keep the command as their id.
REFUSED = [
    pytest.param(command, content, False,
                 id=command if content == "missing" else f"{command}-{content}")
    for command in MISSING_INPUTS for content in GARBAGE
] + [
    pytest.param(command, content, True, id=f"{command}-sidecar-{content}")
    for command in SIDECAR_INPUTS for content in GARBAGE if content != "missing"
]


class TestRunner:
    @pytest.mark.parametrize("command, content, sidecar", REFUSED)
    def test_refused_command_leaves_no_out_directory(self, request, tmp_path, capsys,
                                                     command, content, sidecar):
        garbage = GARBAGE[content]
        argv = [command, "--out", str(tmp_path / "out")]
        if sidecar:
            ws = request.getfixturevalue("ws")
            data = tmp_path / "data.txt"
            data.write_bytes((ws / "split" / "test.txt").read_bytes())
            (tmp_path / "data.txt.meta.json").write_bytes(garbage)
            argv += map(str, SIDECAR_INPUTS[command](ws, data))
        else:
            for arg in MISSING_INPUTS[command]:
                if arg.startswith("missing"):
                    arg = tmp_path / arg
                    if garbage is not None:
                        arg.write_bytes(garbage)
                argv.append(str(arg))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        if sidecar:
            assert str(tmp_path / "data.txt.meta.json") in err
        assert not (tmp_path / "out").exists()

    def test_manifest_names_each_quick_start_command(self, ws, tmp_path):
        run("distances", "--out", tmp_path / "dist4", "--checkpoint",
            ws / "kqn4" / "checkpoint.json")
        run("distances", "--out", tmp_path / "dist3", "--checkpoint",
            ws / "kqn3" / "checkpoint.json")
        run("cluster", "--out", tmp_path / "clust", "--distances",
            tmp_path / "dist4" / "distances.csv", "--n", 2)
        run("ari", "--out", tmp_path / "ari", "--labels-a", ws / "synth" / "concepts.csv",
            "--labels-b", tmp_path / "clust" / "clusters.csv")
        run("mantel", "--out", tmp_path / "mantel", "--distances-a",
            tmp_path / "dist4" / "distances.csv", "--distances-b",
            tmp_path / "dist3" / "distances.csv", "--permutations", 9)
        run("sensitivity", "--out", tmp_path / "sens",
            "--vectors", ws / "kqn4" / "skill_vectors.csv",
            "--vectors", ws / "kqn3" / "skill_vectors.csv")
        run("heatmap", "--out", tmp_path / "hm", "--checkpoint",
            ws / "kqn4" / "checkpoint.json", "--data", ws / "split" / "test.txt")
        outs = {"synth": ws / "synth", "split": ws / "split", "train": ws / "kqn4",
                "dkt": ws / "dkt", "distances": tmp_path / "dist4",
                "cluster": tmp_path / "clust", "ari": tmp_path / "ari",
                "mantel": tmp_path / "mantel", "sensitivity": tmp_path / "sens",
                "heatmap": tmp_path / "hm"}
        for command, outdir in outs.items():
            doc = json.loads((outdir / "manifest.json").read_text())
            assert doc["command"] == command


# Every command's defaults and the options it requires besides --out,
# written out as literals: benchmarks and scripts depend on these flag
# names, and manifests echo these values.
CLI_DEFAULTS = {
    "synth": {"out": None, "students": 400, "skills": 50, "concepts": 5, "steps": 50,
              "guess": 0.25, "seed": 0, "name": None},
    "split": {"out": None, "data": None, "train_ratio": 0.8, "tv_ratio": 0.5, "seed": 0},
    "train": {"out": None, "train": None, "valid": None, "test": None, "dim": 32,
              "rnn": "lstm", "rnn_hidden": 32, "mlp_hidden": 32, "keep_prob": 0.6,
              "batch_size": 128, "epochs": 50, "alpha": 0.001, "patience": 5,
              "repeats": 1, "seed": 0},
    "evaluate": {"out": None, "checkpoint": None, "data": None, "batch_size": 128, "seed": 0},
    "gridsearch": {"out": None, "train": None, "valid": None, "kinds": "lstm,gru",
                   "dims": "32,64,128", "rnn_hiddens": "32,64,128",
                   "mlp_hiddens": "32,64,128", "keep_prob": 0.6, "batch_size": 128,
                   "epochs": 50, "alpha": 0.001, "patience": 5, "seed": 0},
    "heatmap": {"out": None, "checkpoint": None, "data": None, "student": 0, "seed": 0},
    "distances": {"out": None, "checkpoint": None, "skill_vectors": None,
                  "kind": "euclidean", "seed": 0},
    "cluster": {"out": None, "checkpoint": None, "skill_vectors": None, "distances": None,
                "distance": "euclidean", "linkage": "average", "n": 5, "seed": 0},
    "ari": {"out": None, "labels_a": None, "labels_b": None, "seed": 0},
    "mantel": {"out": None, "distances_a": None, "distances_b": None,
               "permutations": 999, "seed": 0},
    "sensitivity": {"out": None, "vectors": None, "kind": "euclidean", "seed": 0},
    "dkt": {"out": None, "train": None, "valid": None, "test": None, "hidden": 32,
            "keep_prob": 0.6, "mode": "onehot", "encoding": "correctness",
            "skill_vectors": None, "batch_size": 128, "epochs": 50, "alpha": 0.001,
            "patience": 5, "seed": 0},
    "relabel": {"out": None, "data": None, "mapping": None, "seed": 0},
}
CLI_REQUIRED = {
    "synth": (), "split": ("data",), "train": ("train", "valid"),
    "evaluate": ("checkpoint", "data"), "gridsearch": ("train", "valid"),
    "heatmap": ("checkpoint", "data"), "distances": (), "cluster": (),
    "ari": ("labels_a", "labels_b"), "mantel": ("distances_a", "distances_b"),
    "sensitivity": ("vectors",), "dkt": ("train", "valid"), "relabel": ("data", "mapping"),
}


@pytest.mark.parametrize("command", list(CLI_DEFAULTS))
def test_cli_surface_is_pinned(command):
    parser = build_parser()
    subcommands = parser._subparsers._group_actions[0].choices
    assert list(subcommands) == list(CLI_DEFAULTS)
    flags = {s for a in subcommands[command]._actions for s in a.option_strings}
    defaults = CLI_DEFAULTS[command]
    assert flags - {"-h", "--help"} == \
        {"--config"} | {"--" + key.replace("_", "-") for key in defaults}

    given = ("out", *CLI_REQUIRED[command])
    argv = [command]
    for key in given:
        argv += ["--" + key.replace("_", "-"), "x"]
    expected = dict(defaults, **{k: ["x"] if k == "vectors" else "x" for k in given})
    # Compare as the manifest writes them, so 1 and 1.0 differ.
    opts = _resolve(parser.parse_args(argv))
    assert json.dumps(opts, sort_keys=True) == json.dumps(expected, sort_keys=True)
    with pytest.raises(ValueError) as exc:
        _resolve(parser.parse_args([command]))
    assert str(exc.value) == f"missing required options: {', '.join(given)}"


def _exit_and_output(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("tail", [["--help"], ["--bogus", "1"]], ids=["help", "usage_error"])
@pytest.mark.parametrize("command", list(CLI_DEFAULTS))
def test_one_command_parser_writes_the_full_parsers_text(capsys, command, tail):
    # main builds only the parser of the command it runs; its help and
    # usage errors must not show it.
    argv = [command, *tail]
    full = _exit_and_output(capsys, build_parser().parse_args, argv)
    assert full[0] == (0 if tail == ["--help"] else 2)
    assert _exit_and_output(capsys, build_parser(command).parse_args, argv) == full
    assert _exit_and_output(capsys, main, argv) == full


def test_top_level_help_version_and_missing_command(capsys):
    code, help_text = _exit_and_output(capsys, main, ["--help"])
    assert code == 0
    assert "{" + ",".join(CLI_DEFAULTS) + "}" in help_text.out
    listed = [line.split()[0] for line in help_text.out.splitlines()
              if line.startswith("    ") and line.split()[0] in CLI_DEFAULTS]
    assert listed == list(CLI_DEFAULTS)
    assert _exit_and_output(capsys, main, ["--version"]) == \
        (0, (f"kqn {kqn.__version__}\n", ""))
    code, missing = _exit_and_output(capsys, main, [])
    assert code == 2
    assert missing.err.endswith("kqn: error: the following arguments are required: command\n")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", list(CLI_DEFAULTS))
def test_negative_seed_is_refused(tmp_path, capsys, command, via):
    # Refused while the options are resolved, before any input is read or
    # output written, with a message that names the option.
    argv = [command, "--out", str(tmp_path / "out")]
    for key in CLI_REQUIRED[command]:
        argv += ["--" + key.replace("_", "-"), str(tmp_path / "missing")]
    if via == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()
