"""End-to-end checks of the command-line front end, run in process."""
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import helpers
import kqn
from kqn.analysis import (
    ari,
    heatmap_matrix,
    mantel,
    pairwise_distances,
    read_clusters_csv,
    read_distance_csv,
    sensitivity_stats,
    write_heatmap_csv,
)
from kqn.checkpoint import load_checkpoint, load_skill_vectors
from kqn.cli import _list_option, _resolve, build_parser, main
from kqn.data import (
    ResponseSequence,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    relabel_skills,
)
from kqn.model import KqnModel, encode_skill_table
from kqn.training import evaluate, split_data


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
    run("dkt", "--out", root / "dkt",
        "--train", root / "split" / "train.txt",
        "--valid", root / "split" / "valid.txt",
        "--test", root / "split" / "test.txt",
        "--hidden", 4, "--keep-prob", 0.8, "--batch-size", 8,
        "--epochs", 2, "--alpha", 0.003, "--seed", 1)
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
        assert set(doc) == {"command", "version", "options", "seed"}
        assert doc["command"] == "synth"
        assert doc["version"] == kqn.__version__
        assert doc["seed"] == 3
        assert doc["options"]["students"] == 30
        assert doc["options"]["skills"] == 6


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

    def test_non_binary_flag_is_a_line_numbered_error(self, ws, tmp_path, capsys):
        # Before flags were checked, the third record was dropped without a
        # word and the other two were scored.
        (tmp_path / "flags.txt").write_text("3\n1,2,3\n1,0,1\n3\n2,3,1\n0,1,0\n2\n2,3\n0,2\n")
        rc = main(["evaluate", "--out", str(tmp_path / "out"), "--checkpoint",
                   str(ws / "kqn4" / "checkpoint.json"), "--data", str(tmp_path / "flags.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: line 9: correctness flags must be 0 or 1, got 2\n"

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
        rc = main(["heatmap", "--out", str(tmp_path), "--checkpoint",
                   str(ws / "dkt" / "checkpoint.json"),
                   "--data", str(ws / "split" / "test.txt"), "--student", "0"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flag, value", [("--dims", ""), ("--kinds", ",")])
    def test_empty_list_option(self, ws, tmp_path, capsys, flag, value):
        rc = main(["gridsearch", "--out", str(tmp_path),
                   "--train", str(ws / "split" / "train.txt"),
                   "--valid", str(ws / "split" / "valid.txt"), flag, value])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {flag[2:]} needs at least one item\n"

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
    "evaluate": {"out": None, "checkpoint": None, "data": None, "skill_vectors": None,
                 "batch_size": 128, "seed": 0},
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
