"""Command-line front end.

Every subcommand is scriptable (no prompts), takes an optional --config
JSON file whose keys are the flag names with dashes as underscores, lets
explicit flags override the file, and writes a manifest.json echoing the
fully resolved options next to its artifacts. All randomness flows from
the resolved seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    Heatmap,
    ari,
    flat_clusters,
    hcluster,
    heatmap_matrix,
    mantel,
    pairwise_distances,
    read_clusters_csv,
    read_distance_csv,
    sensitivity_stats,
    write_clusters_csv,
    write_dendrogram_csv,
    write_distance_csv,
    write_heatmap_csv,
)
from .checkpoint import (
    export_skill_vectors,
    load_checkpoint,
    load_skill_vectors,
    save_checkpoint,
)
from .data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    relabel_skills,
    save_dataset,
)
from .dkt import DktConfig, DktModel
from .model import KqnModel, ModelConfig, encode_skill_table
from .training import (
    GridSpec,
    TrainConfig,
    evaluate,
    grid_search,
    split_data,
    train,
    write_metrics_csv,
)


def _write_manifest(outdir: Path, command: str, options: dict) -> None:
    doc = {
        "command": command,
        "version": __version__,
        "options": {k: (str(v) if isinstance(v, Path) else v) for k, v in options.items()},
        "seed": options.get("seed"),
    }
    (outdir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# Options a config file may give as a JSON list (or a single item), with
# the type of each item.
_LIST_ITEMS = {"vectors": str, "kinds": str, "dims": int, "rnn_hiddens": int, "mlp_hiddens": int}


def _is(value, kind) -> bool:
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _config_type_ok(key: str, value, default) -> bool:
    """Whether a config-file value has its option's type: that of the
    default (an int also serves for a float), a string or null where the
    default is None, or a list of items for the options in _LIST_ITEMS."""
    item = _LIST_ITEMS.get(key)
    items = value if isinstance(value, list) else [value]
    if item is not None and all(_is(v, item) for v in items):
        return True
    if default is None:
        return value is None or isinstance(value, str)
    return _is(value, type(default))


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge hard defaults <- config file <- explicit flags."""
    out = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            if not _config_type_ok(key, value, defaults[key]):
                expected = "str" if defaults[key] is None else type(defaults[key]).__name__
                raise ValueError(f"config key {key!r} must be of type {expected}, got {value!r}")
        out.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _require(opts: dict, *keys: str) -> None:
    missing = [k for k in keys if opts[k] is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")


def _outdir(opts: dict) -> Path:
    path = Path(opts["out"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sidecar_extra(data_path) -> dict:
    """Carry generator metadata (concepts, parameters) through dataset
    transforms when the source file has a sidecar."""
    sidecar = Path(str(data_path) + ".meta.json")
    if not sidecar.exists():
        return {}
    meta = json.loads(sidecar.read_text())
    return {k: meta[k] for k in ("concepts", "generator") if k in meta}


# ---------------------------------------------------------------------------
# Commands

SYNTH_DEFAULTS = {
    "out": None,
    "students": 400,
    "skills": 50,
    "concepts": 5,
    "steps": 50,
    "guess": 0.25,
    "seed": 0,
    "name": None,
}


def cmd_synth(args) -> int:
    opts = _resolve(args, SYNTH_DEFAULTS)
    _require(opts, "out")
    outdir = _outdir(opts)
    spec = SyntheticSpec(
        num_students=opts["students"],
        num_skills=opts["skills"],
        num_concepts=opts["concepts"],
        steps_per_student=opts["steps"],
        guess=opts["guess"],
        seed=opts["seed"],
    )
    dataset, concepts = generate_synthetic(spec)
    if opts["name"]:
        dataset = dataclasses.replace(dataset, name=opts["name"])
    extra = {
        "concepts": {str(k): v for k, v in concepts.items()},
        "generator": dataclasses.asdict(spec),
    }
    save_dataset(dataset, outdir / "data.txt", extra=extra)
    skill_ids = sorted(concepts)
    write_clusters_csv(outdir / "concepts.csv", [concepts[e] for e in skill_ids], skill_ids)
    _write_manifest(outdir, "synth", opts)
    print(
        f"generated {dataset.num_students} students, {dataset.num_skills} skills, "
        f"{dataset.num_responses} responses -> {outdir / 'data.txt'}"
    )
    return 0


SPLIT_DEFAULTS = {
    "out": None,
    "data": None,
    "train_ratio": 0.8,
    "tv_ratio": 0.5,
    "seed": 0,
}


def cmd_split(args) -> int:
    opts = _resolve(args, SPLIT_DEFAULTS)
    _require(opts, "out", "data")
    outdir = _outdir(opts)
    dataset = load_dataset(opts["data"])
    split = split_data(dataset.sequences, opts["train_ratio"], opts["tv_ratio"], opts["seed"])
    extra = _sidecar_extra(opts["data"])
    for part, seqs in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        subset = dataclasses.replace(
            dataset, name=f"{dataset.name}-{part}", sequences=tuple(seqs)
        )
        save_dataset(subset, outdir / f"{part}.txt", extra=extra)
    _write_manifest(outdir, "split", opts)
    print(
        f"split {dataset.num_students} students into "
        f"{len(split.train)}/{len(split.valid)}/{len(split.test)} "
        f"(train/valid/test) under {outdir}"
    )
    return 0


TRAIN_DEFAULTS = {
    "out": None,
    "train": None,
    "valid": None,
    "test": None,
    "dim": 32,
    "rnn": "lstm",
    "rnn_hidden": 32,
    "mlp_hidden": 32,
    "keep_prob": 0.6,
    "batch_size": 128,
    "epochs": 50,
    "alpha": 0.001,
    "patience": 5,
    "repeats": 1,
    "seed": 0,
}


def _load_parts(opts, *keys):
    parts = [load_dataset(opts[k]) for k in keys if opts[k]]
    num_skills = max(ds.num_skills for ds in parts)
    return parts, num_skills


def cmd_train(args) -> int:
    opts = _resolve(args, TRAIN_DEFAULTS)
    _require(opts, "out", "train", "valid")
    outdir = _outdir(opts)
    (train_ds, valid_ds), num_skills = _load_parts(opts, "train", "valid")
    test_ds = load_dataset(opts["test"]) if opts["test"] else None
    if test_ds is not None:
        num_skills = max(num_skills, test_ds.num_skills)

    config = ModelConfig(
        num_skills=num_skills,
        dim=opts["dim"],
        rnn_kind=opts["rnn"],
        rnn_hidden=opts["rnn_hidden"],
        mlp_hidden=opts["mlp_hidden"],
        keep_prob=opts["keep_prob"],
    )
    model = KqnModel(config)
    summaries = []
    test_aucs = []
    for rep in range(opts["repeats"]):
        tc = TrainConfig(
            batch_size=opts["batch_size"],
            epochs_validation=opts["epochs"],
            adam_alpha=opts["alpha"],
            seed=opts["seed"] + rep,
            patience=opts["patience"],
        )
        result = train(model, train_ds.sequences, valid_ds.sequences, tc, epochs=opts["epochs"])
        name = "metrics.csv" if rep == 0 else f"metrics_{rep}.csv"
        write_metrics_csv(outdir / name, result.metrics.epochs)
        best = result.metrics.epochs[result.metrics.best_epoch - 1]
        summary = {
            "repeat": rep,
            "seed": tc.seed,
            "best_epoch": result.metrics.best_epoch,
            "valid_auc": best.valid_auc,
        }
        if rep == 0:
            save_checkpoint(outdir / "checkpoint.json", "kqn", config, result.params)
            export_skill_vectors(outdir / "skill_vectors.csv", result.params, config)
        if test_ds is not None:
            auc_value, loss_value, n_trials = evaluate(
                model, result.params, test_ds.sequences, opts["batch_size"]
            )
            summary.update(test_auc=auc_value, test_loss=loss_value, test_trials=n_trials)
            test_aucs.append(auc_value)
        summaries.append(summary)
        print(
            f"repeat {rep}: best epoch {summary['best_epoch']} "
            f"valid AUC {summary['valid_auc']:.4f}"
            + (f" test AUC {summary['test_auc']:.4f}" if test_ds is not None else "")
        )

    report = {"repeats": summaries}
    if test_aucs:
        report["test_auc_mean"] = float(np.mean(test_aucs))
        report["test_auc_std"] = float(np.std(test_aucs))
    (outdir / "eval.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(outdir, "train", opts)
    return 0


EVALUATE_DEFAULTS = {
    "out": None,
    "checkpoint": None,
    "data": None,
    "skill_vectors": None,
    "batch_size": 128,
    "seed": 0,
}


def _model_from_checkpoint(kind, config, skill_vectors_path=None):
    if kind == "kqn":
        return KqnModel(config)
    if config.input_mode == "hybrid":
        if skill_vectors_path is None:
            raise ValueError("hybrid checkpoint needs --skill-vectors")
        _, table = load_skill_vectors(skill_vectors_path)
        return DktModel(config, skill_table=table)
    return DktModel(config)


def cmd_evaluate(args) -> int:
    opts = _resolve(args, EVALUATE_DEFAULTS)
    _require(opts, "out", "checkpoint", "data")
    outdir = _outdir(opts)
    kind, config, params = load_checkpoint(opts["checkpoint"])
    model = _model_from_checkpoint(kind, config, opts["skill_vectors"])
    dataset = load_dataset(opts["data"])
    auc_value, loss_value, n_trials = evaluate(
        model, params, dataset.sequences, opts["batch_size"]
    )
    report = {"model": kind, "auc": auc_value, "loss": loss_value, "trials": n_trials}
    (outdir / "eval.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(outdir, "evaluate", opts)
    print(f"{kind} AUC {auc_value:.4f} loss {loss_value:.4f} over {n_trials} trials")
    return 0


GRID_DEFAULTS = {
    "out": None,
    "train": None,
    "valid": None,
    "kinds": "lstm,gru",
    "dims": "32,64,128",
    "rnn_hiddens": "32,64,128",
    "mlp_hiddens": "32,64,128",
    "keep_prob": 0.6,
    "batch_size": 128,
    "epochs": 50,
    "alpha": 0.001,
    "patience": 5,
    "seed": 0,
}


def _int_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(x) for x in text)
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip())


def cmd_gridsearch(args) -> int:
    opts = _resolve(args, GRID_DEFAULTS)
    _require(opts, "out", "train", "valid")
    outdir = _outdir(opts)
    (train_ds, valid_ds), num_skills = _load_parts(opts, "train", "valid")
    kinds = opts["kinds"] if isinstance(opts["kinds"], (list, tuple)) else opts["kinds"].split(",")
    grid = GridSpec(
        rnn_kinds=tuple(k.strip() for k in kinds if k.strip()),
        dims=_int_list(opts["dims"]),
        rnn_hiddens=_int_list(opts["rnn_hiddens"]),
        mlp_hiddens=_int_list(opts["mlp_hiddens"]),
    )
    tc = TrainConfig(
        batch_size=opts["batch_size"],
        epochs_validation=opts["epochs"],
        adam_alpha=opts["alpha"],
        seed=opts["seed"],
        patience=opts["patience"],
    )

    def progress(config, auc_value):
        print(
            f"{config.rnn_kind} d={config.dim} rnn={config.rnn_hidden} "
            f"mlp={config.mlp_hidden}: valid AUC {auc_value:.4f}"
        )

    result = grid_search(
        num_skills,
        train_ds.sequences,
        valid_ds.sequences,
        tc,
        grid=grid,
        keep_prob=opts["keep_prob"],
        progress=progress,
    )
    lines = ["rnn,dim,rnn_hidden,mlp_hidden,valid_auc,best_epoch"]
    for cell in result.cells:
        c = cell.config
        lines.append(
            f"{c.rnn_kind},{c.dim},{c.rnn_hidden},{c.mlp_hidden},"
            f"{repr(float(cell.valid_auc))},{cell.best_epoch}"
        )
    (outdir / "grid.csv").write_text("\n".join(lines) + "\n")
    best = result.best.config
    (outdir / "best.json").write_text(
        json.dumps(
            {
                "rnn": best.rnn_kind,
                "dim": best.dim,
                "rnn_hidden": best.rnn_hidden,
                "mlp_hidden": best.mlp_hidden,
                "valid_auc": result.best.valid_auc,
            },
            indent=2,
        )
        + "\n"
    )
    _write_manifest(outdir, "gridsearch", opts)
    print(
        f"best: {best.rnn_kind} d={best.dim} rnn={best.rnn_hidden} "
        f"mlp={best.mlp_hidden} (valid AUC {result.best.valid_auc:.4f})"
    )
    return 0


HEATMAP_DEFAULTS = {"out": None, "checkpoint": None, "data": None, "student": 0, "seed": 0}


def cmd_heatmap(args) -> int:
    opts = _resolve(args, HEATMAP_DEFAULTS)
    _require(opts, "out", "checkpoint", "data")
    outdir = _outdir(opts)
    kind, config, params = load_checkpoint(opts["checkpoint"])
    if kind != "kqn":
        raise ValueError("heatmap needs a knowledge-query checkpoint")
    dataset = load_dataset(opts["data"])
    idx = opts["student"]
    if not 0 <= idx < dataset.num_students:
        raise ValueError(f"student index {idx} outside 0..{dataset.num_students - 1}")
    hm = heatmap_matrix(params, config, dataset.sequences[idx])
    write_heatmap_csv(outdir / "heatmap.csv", hm)
    _write_manifest(outdir, "heatmap", opts)
    print(
        f"heatmap for student {idx}: {hm.percent.shape[0]} skills x "
        f"{hm.percent.shape[1]} steps -> {outdir / 'heatmap.csv'}"
    )
    return 0


DISTANCES_DEFAULTS = {
    "out": None,
    "checkpoint": None,
    "skill_vectors": None,
    "kind": "euclidean",
    "seed": 0,
}


def _table_from_opts(opts):
    if opts["checkpoint"]:
        kind, config, params = load_checkpoint(opts["checkpoint"])
        if kind != "kqn":
            raise ValueError("skill vectors come from a knowledge-query checkpoint")
        table, _ = encode_skill_table(params)
        ids = list(range(1, config.num_skills + 1))
        return table, ids
    if opts["skill_vectors"]:
        ids, table = load_skill_vectors(opts["skill_vectors"])
        return table, list(ids)
    raise ValueError("need --checkpoint or --skill-vectors")


def cmd_distances(args) -> int:
    opts = _resolve(args, DISTANCES_DEFAULTS)
    _require(opts, "out")
    outdir = _outdir(opts)
    table, ids = _table_from_opts(opts)
    dmat = pairwise_distances(table, opts["kind"])
    write_distance_csv(outdir / "distances.csv", dmat, ids)
    _write_manifest(outdir, "distances", opts)
    print(f"{opts['kind']} distances for {dmat.n} skills -> {outdir / 'distances.csv'}")
    return 0


CLUSTER_DEFAULTS = {
    "out": None,
    "checkpoint": None,
    "skill_vectors": None,
    "distances": None,
    "distance": "euclidean",
    "linkage": "average",
    "n": 5,
    "seed": 0,
}


def cmd_cluster(args) -> int:
    opts = _resolve(args, CLUSTER_DEFAULTS)
    _require(opts, "out")
    outdir = _outdir(opts)
    if opts["distances"]:
        dmat, ids = read_distance_csv(opts["distances"], kind=opts["distance"])
    else:
        table, ids = _table_from_opts(opts)
        dmat = pairwise_distances(table, opts["distance"])
    dend = hcluster(dmat, opts["linkage"])
    labels = flat_clusters(dend, opts["n"])
    write_dendrogram_csv(outdir / "dendrogram.csv", dend)
    write_clusters_csv(outdir / "clusters.csv", labels, ids)
    _write_manifest(outdir, "cluster", opts)
    sizes = np.bincount(labels)[1:]
    print(
        f"{opts['linkage']}/{opts['distance']} cut at n={opts['n']}: "
        f"cluster sizes {sizes.tolist()}"
    )
    return 0


ARI_DEFAULTS = {"out": None, "labels_a": None, "labels_b": None, "seed": 0}


def cmd_ari(args) -> int:
    opts = _resolve(args, ARI_DEFAULTS)
    _require(opts, "out", "labels_a", "labels_b")
    outdir = _outdir(opts)
    ids_a, labels_a = read_clusters_csv(opts["labels_a"])
    ids_b, labels_b = read_clusters_csv(opts["labels_b"])
    if sorted(ids_a) != sorted(ids_b):
        raise ValueError("label files cover different skill sets")
    order_a = np.argsort(ids_a)
    order_b = np.argsort(ids_b)
    value = ari(labels_a[order_a], labels_b[order_b])
    (outdir / "ari.json").write_text(json.dumps({"ari": value}, indent=2) + "\n")
    _write_manifest(outdir, "ari", opts)
    print(f"ARI {value:.6f}")
    return 0


MANTEL_DEFAULTS = {
    "out": None,
    "distances_a": None,
    "distances_b": None,
    "permutations": 999,
    "seed": 0,
}


def cmd_mantel(args) -> int:
    opts = _resolve(args, MANTEL_DEFAULTS)
    _require(opts, "out", "distances_a", "distances_b")
    outdir = _outdir(opts)
    d1, _ = read_distance_csv(opts["distances_a"])
    d2, _ = read_distance_csv(opts["distances_b"])
    result = mantel(d1, d2, permutations=opts["permutations"], rng=opts["seed"])
    report = {
        "rho": result.rho,
        "p_value": result.p_value,
        "permutations": result.permutations,
    }
    (outdir / "mantel.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(outdir, "mantel", opts)
    print(f"mantel rho {result.rho:.6f} p {result.p_value:.6g}")
    return 0


SENSITIVITY_DEFAULTS = {"out": None, "vectors": None, "kind": "euclidean", "seed": 0}


def cmd_sensitivity(args) -> int:
    opts = _resolve(args, SENSITIVITY_DEFAULTS)
    _require(opts, "out", "vectors")
    paths = opts["vectors"] if isinstance(opts["vectors"], (list, tuple)) else [opts["vectors"]]
    if len(paths) < 2:
        raise ValueError("sensitivity needs at least two skill-vector files")
    outdir = _outdir(opts)
    sets = {}
    for path in paths:
        _, table = load_skill_vectors(path)
        dim = table.shape[1]
        if dim in sets:
            raise ValueError(f"two vector files share dimension {dim}")
        sets[dim] = table
    report = sensitivity_stats(sets, opts["kind"])
    doc = {
        "kind": report.kind,
        "eta": {str(d): v for d, v in report.eta.items()},
        "xi": {f"{a},{b}": v for (a, b), v in report.xi.items()},
    }
    (outdir / "sensitivity.json").write_text(json.dumps(doc, indent=2) + "\n")
    _write_manifest(outdir, "sensitivity", opts)
    for (a, b), v in report.xi.items():
        print(f"xi[{a},{b}] {v:.6f} (eta[{a}] {report.eta[a]:.6f}, eta[{b}] {report.eta[b]:.6f})")
    return 0


DKT_DEFAULTS = {
    "out": None,
    "train": None,
    "valid": None,
    "test": None,
    "hidden": 32,
    "keep_prob": 0.6,
    "mode": "onehot",
    "encoding": "correctness",
    "skill_vectors": None,
    "batch_size": 128,
    "epochs": 50,
    "alpha": 0.001,
    "patience": 5,
    "seed": 0,
}


def cmd_dkt(args) -> int:
    opts = _resolve(args, DKT_DEFAULTS)
    _require(opts, "out", "train", "valid")
    outdir = _outdir(opts)
    (train_ds, valid_ds), num_skills = _load_parts(opts, "train", "valid")
    test_ds = load_dataset(opts["test"]) if opts["test"] else None
    if test_ds is not None:
        num_skills = max(num_skills, test_ds.num_skills)
    config = DktConfig(
        num_skills=num_skills,
        hidden=opts["hidden"],
        keep_prob=opts["keep_prob"],
        input_mode=opts["mode"],
        hybrid_encoding=opts["encoding"],
    )
    table = None
    if opts["mode"] == "hybrid":
        if not opts["skill_vectors"]:
            raise ValueError("hybrid mode needs --skill-vectors")
        _, table = load_skill_vectors(opts["skill_vectors"])
    model = DktModel(config, skill_table=table)
    tc = TrainConfig(
        batch_size=opts["batch_size"],
        epochs_validation=opts["epochs"],
        adam_alpha=opts["alpha"],
        seed=opts["seed"],
        patience=opts["patience"],
    )
    result = train(model, train_ds.sequences, valid_ds.sequences, tc, epochs=opts["epochs"])
    write_metrics_csv(outdir / "metrics.csv", result.metrics.epochs)
    save_checkpoint(outdir / "checkpoint.json", "dkt", config, result.params)
    best = result.metrics.epochs[result.metrics.best_epoch - 1]
    report = {"best_epoch": result.metrics.best_epoch, "valid_auc": best.valid_auc}
    if test_ds is not None:
        auc_value, loss_value, n_trials = evaluate(
            model, result.params, test_ds.sequences, opts["batch_size"]
        )
        report.update(test_auc=auc_value, test_loss=loss_value, test_trials=n_trials)
    (outdir / "eval.json").write_text(json.dumps(report, indent=2) + "\n")
    _write_manifest(outdir, "dkt", opts)
    print(
        f"dkt best epoch {report['best_epoch']} valid AUC {report['valid_auc']:.4f}"
        + (f" test AUC {report['test_auc']:.4f}" if test_ds is not None else "")
    )
    return 0


RELABEL_DEFAULTS = {"out": None, "data": None, "mapping": None, "seed": 0}


def cmd_relabel(args) -> int:
    opts = _resolve(args, RELABEL_DEFAULTS)
    _require(opts, "out", "data", "mapping")
    outdir = _outdir(opts)
    dataset = load_dataset(opts["data"])
    raw = json.loads(Path(opts["mapping"]).read_text())
    mapping = {int(k): int(v) for k, v in raw.items()}
    relabeled = relabel_skills(dataset, mapping)
    save_dataset(relabeled, outdir / "data.txt", extra={"relabeled_from": str(opts["data"])})
    _write_manifest(outdir, "relabel", opts)
    print(
        f"relabeled {dataset.num_skills} skills down to {relabeled.num_skills} "
        f"-> {outdir / 'data.txt'}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser

_COMMANDS = {
    "synth": cmd_synth,
    "split": cmd_split,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "gridsearch": cmd_gridsearch,
    "heatmap": cmd_heatmap,
    "distances": cmd_distances,
    "cluster": cmd_cluster,
    "ari": cmd_ari,
    "mantel": cmd_mantel,
    "sensitivity": cmd_sensitivity,
    "dkt": cmd_dkt,
    "relabel": cmd_relabel,
}


def _add_common(sub):
    sub.add_argument("--config", help="JSON file of option defaults")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kqn",
        description="Knowledge tracing with dot-product knowledge-state queries",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="generate a synthetic response log")
    _add_common(p)
    p.add_argument("--students", type=int)
    p.add_argument("--skills", type=int)
    p.add_argument("--concepts", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--guess", type=float)
    p.add_argument("--name")

    p = subs.add_parser("split", help="split a dataset by student")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--train-ratio", type=float, dest="train_ratio")
    p.add_argument("--tv-ratio", type=float, dest="tv_ratio")

    p = subs.add_parser("train", help="train the knowledge-query model")
    _add_common(p)
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--test")
    p.add_argument("--dim", type=int)
    p.add_argument("--rnn", choices=["lstm", "gru"])
    p.add_argument("--rnn-hidden", type=int, dest="rnn_hidden")
    p.add_argument("--mlp-hidden", type=int, dest="mlp_hidden")
    p.add_argument("--keep-prob", type=float, dest="keep_prob")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--repeats", type=int)

    p = subs.add_parser("evaluate", help="score a checkpoint on a dataset")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--skill-vectors", dest="skill_vectors")
    p.add_argument("--batch-size", type=int, dest="batch_size")

    p = subs.add_parser("gridsearch", help="sweep architecture hyperparameters")
    _add_common(p)
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--kinds")
    p.add_argument("--dims")
    p.add_argument("--rnn-hiddens", dest="rnn_hiddens")
    p.add_argument("--mlp-hiddens", dest="mlp_hiddens")
    p.add_argument("--keep-prob", type=float, dest="keep_prob")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--patience", type=int)

    p = subs.add_parser("heatmap", help="export one student's knowledge-interaction matrix")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--data")
    p.add_argument("--student", type=int)

    p = subs.add_parser("distances", help="export the skill distance matrix")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--skill-vectors", dest="skill_vectors")
    p.add_argument("--kind", choices=["cosine", "euclidean"])

    p = subs.add_parser("cluster", help="hierarchical clustering of skills")
    _add_common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--skill-vectors", dest="skill_vectors")
    p.add_argument("--distances")
    p.add_argument("--distance", choices=["cosine", "euclidean"])
    p.add_argument(
        "--linkage",
        choices=["average", "centroid", "complete", "median", "single", "ward", "weighted"],
    )
    p.add_argument("--n", type=int)

    p = subs.add_parser("ari", help="adjusted Rand index between two labelings")
    _add_common(p)
    p.add_argument("--labels-a", dest="labels_a")
    p.add_argument("--labels-b", dest="labels_b")

    p = subs.add_parser("mantel", help="permutation test between two distance matrices")
    _add_common(p)
    p.add_argument("--distances-a", dest="distances_a")
    p.add_argument("--distances-b", dest="distances_b")
    p.add_argument("--permutations", type=int)

    p = subs.add_parser("sensitivity", help="compare skill geometries across dimensions")
    _add_common(p)
    p.add_argument("--vectors", action="append")
    p.add_argument("--kind", choices=["cosine", "euclidean"])

    p = subs.add_parser("dkt", help="train the baseline next-response model")
    _add_common(p)
    p.add_argument("--train")
    p.add_argument("--valid")
    p.add_argument("--test")
    p.add_argument("--hidden", type=int)
    p.add_argument("--keep-prob", type=float, dest="keep_prob")
    p.add_argument("--mode", choices=["onehot", "hybrid"])
    p.add_argument("--encoding", choices=["correctness", "signed"])
    p.add_argument("--skill-vectors", dest="skill_vectors")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--patience", type=int)

    p = subs.add_parser("relabel", help="merge or rename skill ids")
    _add_common(p)
    p.add_argument("--data")
    p.add_argument("--mapping", help="JSON file mapping old skill ids to new labels")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
