"""Command-line front end.

Every subcommand is scriptable (no prompts), takes an optional --config
JSON file whose keys are the flag names with dashes as underscores, and
lets explicit flags override the file. All randomness flows from the
resolved seed.

A command only writes its artifacts under --out; main then writes
manifest.json there, echoing the resolved options and recording the
environment (Python, NumPy, BLAS and the BLAS thread variables), and
returns 0. On an error it prints one "error:" line, writes no manifest and
returns 1.

Two tables drive the parser and the option resolution: _OPTIONS gives the
type, default and choices of every option, and _COMMANDS gives each
subcommand's function, help line, required options and other options.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import platform
import re
import sys
import typing
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DISTANCE_KINDS,
    LINKAGES,
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
    read_sidecar,
    relabel_skills,
    save_dataset,
)
from .dkt import HYBRID_ENCODINGS, INPUT_MODES, DktConfig, DktModel
from .model import RNN_KINDS, KqnModel, ModelConfig, encode_skill_table
from .tables import has_type, read_json_object, write_json, write_table
from .training import (
    GridSpec,
    TrainConfig,
    evaluate,
    grid_search,
    split_data,
    train,
    write_metrics_csv,
)

# name: (type, default, choices). A list option takes comma-separated items
# on the command line, except --vectors, which is repeated; a config file
# may give it as a JSON list, a single item or a comma string.
_OPTIONS = {
    "out": (str, None, None),
    "seed": (int, 0, None),
    "students": (int, 400, None),
    "skills": (int, 50, None),
    "concepts": (int, 5, None),
    "steps": (int, 50, None),
    "guess": (float, 0.25, None),
    "name": (str, None, None),
    "data": (str, None, None),
    "train_ratio": (float, 0.8, None),
    "tv_ratio": (float, 0.5, None),
    "train": (str, None, None),
    "valid": (str, None, None),
    "test": (str, None, None),
    "dim": (int, 32, None),
    "rnn": (str, "lstm", RNN_KINDS),
    "rnn_hidden": (int, 32, None),
    "mlp_hidden": (int, 32, None),
    "hidden": (int, 32, None),
    "keep_prob": (float, 0.6, None),
    "mode": (str, "onehot", INPUT_MODES),
    "encoding": (str, "correctness", HYBRID_ENCODINGS),
    "batch_size": (int, 128, None),
    "epochs": (int, 50, None),
    "alpha": (float, 0.001, None),
    "patience": (int, 5, None),
    "repeats": (int, 1, None),
    "kinds": (list[str], "lstm,gru", None),
    "dims": (list[int], "32,64,128", None),
    "rnn_hiddens": (list[int], "32,64,128", None),
    "mlp_hiddens": (list[int], "32,64,128", None),
    "checkpoint": (str, None, None),
    "skill_vectors": (str, None, None),
    "student": (int, 0, None),
    "kind": (str, "euclidean", DISTANCE_KINDS),
    "distances": (str, None, None),
    "distance": (str, "euclidean", DISTANCE_KINDS),
    "linkage": (str, "average", LINKAGES),
    "n": (int, 5, None),
    "labels_a": (str, None, None),
    "labels_b": (str, None, None),
    "distances_a": (str, None, None),
    "distances_b": (str, None, None),
    "permutations": (int, 999, None),
    "vectors": (list[str], None, None),
    "mapping": (str, None, None),
}

_HELP = {"out": "output directory", "mapping": "JSON file mapping old skill ids to new labels"}


def _item_type(kind):
    """The item type of a list option's type, or None for a scalar."""
    return typing.get_args(kind)[0] if typing.get_origin(kind) is list else None


def _check_config_value(key: str, value) -> None:
    """A config value has its option's type (an int also serves for a
    float) and one of its choices; null only where the default is null.
    A list option also takes a JSON list of items or a comma string."""
    kind, default, choices = _OPTIONS[key]
    item = _item_type(kind)
    if value is None:
        ok = default is None
    elif item is not None:
        items = value if isinstance(value, list) else [value]
        ok = isinstance(value, str) or all(has_type(v, item) for v in items)
    else:
        ok = has_type(value, kind)
    if not ok:
        expected = kind.__name__ if item is None else f"list of {item.__name__}"
        raise ValueError(f"config key {key!r} must be of type {expected}, got {value!r}")
    if choices and value not in choices:
        raise ValueError(f"config key {key!r} must be one of {', '.join(choices)}, got {value!r}")


def _list_option(opts: dict, key: str) -> tuple:
    """Items of a list option, converted to the option's item type; a
    string is split at commas and blank items are dropped."""
    value = opts[key]
    raw = value if isinstance(value, list) else str(value).split(",")
    convert = _item_type(_OPTIONS[key][0])
    items = tuple(convert(str(v).strip()) for v in raw if str(v).strip())
    if not items:
        raise ValueError(f"{key} needs at least one item")
    return items


def _option_names(command: str) -> tuple:
    _, _, required, other = _COMMANDS[command]
    return ("out", "seed", *required, *other)


def _resolve(args: argparse.Namespace) -> dict:
    """Merge table defaults <- config file <- explicit flags, then check
    that every required option is set and that the seed is not negative."""
    names = _option_names(args.command)
    opts = {name: _OPTIONS[name][1] for name in names}
    if args.config:
        loaded = read_json_object(args.config, "config")
        unknown = set(loaded) - set(opts)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            _check_config_value(key, value)
        opts.update(loaded)
    for name in names:
        value = getattr(args, name)
        if value is not None:
            opts[name] = value
    missing = [name for name in ("out", *_COMMANDS[args.command][2]) if opts[name] is None]
    if missing:
        raise ValueError(f"missing required options: {', '.join(missing)}")
    if opts["seed"] < 0:
        raise ValueError(f"--seed must be >= 0, got {opts['seed']}")
    return opts


def _load_parts(opts: dict):
    """The train, valid and (when given) test datasets, and the largest
    num_skills among them."""
    train_ds, valid_ds = load_dataset(opts["train"]), load_dataset(opts["valid"])
    test_ds = load_dataset(opts["test"]) if opts.get("test") else None
    parts = [ds for ds in (train_ds, valid_ds, test_ds) if ds is not None]
    return train_ds, valid_ds, test_ds, max(ds.num_skills for ds in parts)


def _fit(opts: dict, model, parts, seed: int, metrics: Path, label: str):
    """Train model on the train and valid parts under the fit options and
    seed, write its per-epoch metrics CSV and score the test part when
    there is one. Prints one summary line after label and returns the
    fitted parameters and the summary: best epoch, its validation AUC and
    the test AUC, loss and trial count."""
    train_ds, valid_ds, test_ds = parts
    result = train(model, train_ds.sequences, valid_ds.sequences, _train_config(opts, seed))
    write_metrics_csv(metrics, result.metrics.epochs)
    best = result.metrics.best_epoch
    summary = {"best_epoch": best, "valid_auc": result.metrics.epochs[best - 1].valid_auc}
    if test_ds is not None:
        auc_value, loss_value, n_trials = evaluate(
            model, result.params, test_ds.sequences, opts["batch_size"]
        )
        summary.update(test_auc=auc_value, test_loss=loss_value, test_trials=n_trials)
    print(
        f"{label} best epoch {best} valid AUC {summary['valid_auc']:.4f}"
        + (f" test AUC {summary['test_auc']:.4f}" if test_ds is not None else "")
    )
    return result.params, summary


def _train_config(opts: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        batch_size=opts["batch_size"],
        epochs_validation=opts["epochs"],
        adam_alpha=opts["alpha"],
        seed=seed,
        patience=opts["patience"],
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(opts: dict, outdir: Path) -> None:
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
    print(
        f"generated {dataset.num_students} students, {dataset.num_skills} skills, "
        f"{dataset.num_responses} responses -> {outdir / 'data.txt'}"
    )


def cmd_split(opts: dict, outdir: Path) -> None:
    dataset = load_dataset(opts["data"])
    split = split_data(dataset.sequences, opts["train_ratio"], opts["tv_ratio"], opts["seed"])
    # The parts carry the source's generator metadata (concepts, parameters).
    meta = read_sidecar(opts["data"])
    extra = {k: meta[k] for k in ("concepts", "generator") if k in meta}
    for part, seqs in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        subset = dataclasses.replace(
            dataset, name=f"{dataset.name}-{part}", sequences=tuple(seqs)
        )
        save_dataset(subset, outdir / f"{part}.txt", extra=extra)
    print(
        f"split {dataset.num_students} students into "
        f"{len(split.train)}/{len(split.valid)}/{len(split.test)} "
        f"(train/valid/test) under {outdir}"
    )


def cmd_train(opts: dict, outdir: Path) -> None:
    if opts["repeats"] < 1:
        raise ValueError(f"repeats must be at least 1, got {opts['repeats']}")
    *parts, num_skills = _load_parts(opts)
    config = ModelConfig(
        num_skills=num_skills,
        dim=opts["dim"],
        rnn_kind=opts["rnn"],
        rnn_hidden=opts["rnn_hidden"],
        mlp_hidden=opts["mlp_hidden"],
        keep_prob=opts["keep_prob"],
    )
    summaries = []
    for rep in range(opts["repeats"]):
        seed = opts["seed"] + rep
        metrics = outdir / ("metrics.csv" if rep == 0 else f"metrics_{rep}.csv")
        params, summary = _fit(opts, KqnModel(config), parts, seed, metrics, f"repeat {rep}:")
        if rep == 0:
            save_checkpoint(outdir / "checkpoint.json", "kqn", config, params)
            export_skill_vectors(outdir / "skill_vectors.csv", params, config)
        summaries.append({"repeat": rep, "seed": seed, **summary})

    report = {"repeats": summaries}
    test_aucs = [s["test_auc"] for s in summaries if "test_auc" in s]
    if test_aucs:
        report["test_auc_mean"] = float(np.mean(test_aucs))
        report["test_auc_std"] = float(np.std(test_aucs))
    write_json(outdir / "eval.json", report)


def cmd_evaluate(opts: dict, outdir: Path) -> None:
    kind, config, params = load_checkpoint(opts["checkpoint"])
    model = KqnModel(config) if kind == "kqn" else DktModel(config)
    dataset = load_dataset(opts["data"])
    auc_value, loss_value, n_trials = evaluate(
        model, params, dataset.sequences, opts["batch_size"]
    )
    report = {"model": kind, "auc": auc_value, "loss": loss_value, "trials": n_trials}
    write_json(outdir / "eval.json", report)
    print(f"{kind} AUC {auc_value:.4f} loss {loss_value:.4f} over {n_trials} trials")


def cmd_gridsearch(opts: dict, outdir: Path) -> None:
    train_ds, valid_ds, _, num_skills = _load_parts(opts)
    grid = GridSpec(
        rnn_kinds=_list_option(opts, "kinds"),
        dims=_list_option(opts, "dims"),
        rnn_hiddens=_list_option(opts, "rnn_hiddens"),
        mlp_hiddens=_list_option(opts, "mlp_hiddens"),
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
        _train_config(opts, opts["seed"]),
        grid=grid,
        keep_prob=opts["keep_prob"],
        progress=progress,
    )
    header = ("rnn", "dim", "rnn_hidden", "mlp_hidden", "valid_auc", "best_epoch")
    rows = ((c.config.rnn_kind, c.config.dim, c.config.rnn_hidden, c.config.mlp_hidden,
             c.valid_auc, c.best_epoch) for c in result.cells)
    write_table(outdir / "grid.csv", header, rows)
    best = result.best.config
    write_json(
        outdir / "best.json",
        {
            "rnn": best.rnn_kind,
            "dim": best.dim,
            "rnn_hidden": best.rnn_hidden,
            "mlp_hidden": best.mlp_hidden,
            "valid_auc": result.best.valid_auc,
        },
    )
    print(
        f"best: {best.rnn_kind} d={best.dim} rnn={best.rnn_hidden} "
        f"mlp={best.mlp_hidden} (valid AUC {result.best.valid_auc:.4f})"
    )


def cmd_heatmap(opts: dict, outdir: Path) -> None:
    config, params = _kqn_checkpoint(opts["checkpoint"])
    dataset = load_dataset(opts["data"])
    idx = opts["student"]
    if not 0 <= idx < dataset.num_students:
        raise ValueError(f"student index {idx} outside 0..{dataset.num_students - 1}")
    hm = heatmap_matrix(params, config, dataset.sequences[idx])
    write_heatmap_csv(outdir / "heatmap.csv", hm)
    print(
        f"heatmap for student {idx}: {hm.percent.shape[0]} skills x "
        f"{hm.percent.shape[1]} steps -> {outdir / 'heatmap.csv'}"
    )


def _kqn_checkpoint(path):
    """The config and parameters of a knowledge-query checkpoint; a DKT
    checkpoint holds no skill geometry and is refused."""
    kind, config, params = load_checkpoint(path)
    if kind != "kqn":
        raise ValueError(f"{path} is a {kind} checkpoint, not a knowledge-query one")
    return config, params


def _table_from_opts(opts):
    if opts["checkpoint"]:
        config, params = _kqn_checkpoint(opts["checkpoint"])
        table, _ = encode_skill_table(params)
        ids = list(range(1, config.num_skills + 1))
        return table, ids
    if opts["skill_vectors"]:
        ids, table = load_skill_vectors(opts["skill_vectors"])
        return table, list(ids)
    raise ValueError("need --checkpoint or --skill-vectors")


def cmd_distances(opts: dict, outdir: Path) -> None:
    table, ids = _table_from_opts(opts)
    dmat = pairwise_distances(table, opts["kind"])
    write_distance_csv(outdir / "distances.csv", dmat, ids)
    print(f"{opts['kind']} distances for {dmat.n} skills -> {outdir / 'distances.csv'}")


def cmd_cluster(opts: dict, outdir: Path) -> None:
    if opts["distances"]:
        dmat, ids = read_distance_csv(opts["distances"], kind=opts["distance"])
    else:
        table, ids = _table_from_opts(opts)
        dmat = pairwise_distances(table, opts["distance"])
    dend = hcluster(dmat, opts["linkage"])
    labels = flat_clusters(dend, opts["n"])
    write_dendrogram_csv(outdir / "dendrogram.csv", dend)
    write_clusters_csv(outdir / "clusters.csv", labels, ids)
    sizes = np.bincount(labels)[1:]
    print(
        f"{opts['linkage']}/{opts['distance']} cut at n={opts['n']}: "
        f"cluster sizes {sizes.tolist()}"
    )


def _aligned(path_a, ids_a, path_b, ids_b) -> np.ndarray:
    """The row order that lists the second file's rows in the first file's
    skill-id order. The two files must cover the same skill ids, each
    once; else this is an error naming the file at fault."""
    for path, ids in ((path_a, ids_a), (path_b, ids_b)):
        repeated = [sid for sid, n in Counter(ids).items() if n > 1]
        if repeated:
            raise ValueError(f"{path}: skill id {repeated[0]} appears more than once")
    row = {sid: r for r, sid in enumerate(ids_b)}
    if row.keys() != set(ids_a):
        raise ValueError(f"{path_a} and {path_b} cover different skill sets")
    return np.array([row[sid] for sid in ids_a], dtype=int)


def cmd_ari(opts: dict, outdir: Path) -> None:
    ids_a, labels_a = read_clusters_csv(opts["labels_a"])
    ids_b, labels_b = read_clusters_csv(opts["labels_b"])
    value = ari(labels_a, labels_b[_aligned(opts["labels_a"], ids_a, opts["labels_b"], ids_b)])
    write_json(outdir / "ari.json", {"ari": value})
    print(f"ARI {value:.6f}")


def cmd_mantel(opts: dict, outdir: Path) -> None:
    d1, ids_a = read_distance_csv(opts["distances_a"])
    d2, ids_b = read_distance_csv(opts["distances_b"])
    rows = _aligned(opts["distances_a"], ids_a, opts["distances_b"], ids_b)
    result = mantel(d1, d2.values[np.ix_(rows, rows)], permutations=opts["permutations"],
                    rng=opts["seed"])
    report = {
        "rho": result.rho,
        "p_value": result.p_value,
        "permutations": result.permutations,
    }
    write_json(outdir / "mantel.json", report)
    print(f"mantel rho {result.rho:.6f} p {result.p_value:.6g}")


def cmd_sensitivity(opts: dict, outdir: Path) -> None:
    paths = _list_option(opts, "vectors")
    if len(paths) < 2:
        raise ValueError("sensitivity needs at least two skill-vector files")
    loaded = [(path, *load_skill_vectors(path)) for path in paths]
    first, first_ids, _ = loaded[0]
    sets = {}
    for path, ids, table in loaded:
        dim = table.shape[1]
        if dim in sets:
            raise ValueError(f"two vector files share dimension {dim}")
        sets[dim] = table[_aligned(first, first_ids, path, ids)]
    report = sensitivity_stats(sets, opts["kind"])
    doc = {
        "kind": report.kind,
        "eta": {str(d): v for d, v in report.eta.items()},
        "xi": {f"{a},{b}": v for (a, b), v in report.xi.items()},
    }
    write_json(outdir / "sensitivity.json", doc)
    for (a, b), v in report.xi.items():
        print(f"xi[{a},{b}] {v:.6f} (eta[{a}] {report.eta[a]:.6f}, eta[{b}] {report.eta[b]:.6f})")


def cmd_dkt(opts: dict, outdir: Path) -> None:
    hybrid = opts["mode"] == "hybrid"
    if hybrid != bool(opts["skill_vectors"]):
        raise ValueError(
            "hybrid mode needs --skill-vectors" if hybrid
            else "--skill-vectors is only used in hybrid mode"
        )
    *parts, num_skills = _load_parts(opts)
    config = DktConfig(
        num_skills=num_skills,
        hidden=opts["hidden"],
        keep_prob=opts["keep_prob"],
        input_mode=opts["mode"],
        hybrid_encoding=opts["encoding"],
    )
    table = load_skill_vectors(opts["skill_vectors"])[1] if hybrid else None
    model = DktModel(config, skill_table=table)
    params, report = _fit(opts, model, parts, opts["seed"], outdir / "metrics.csv", "dkt")
    save_checkpoint(outdir / "checkpoint.json", "dkt", config, params)
    write_json(outdir / "eval.json", report)


def cmd_relabel(opts: dict, outdir: Path) -> None:
    dataset = load_dataset(opts["data"])
    path = opts["mapping"]
    doc = read_json_object(path, "mapping")
    for key, value in doc.items():
        if not (re.fullmatch(r"-?[0-9]+", key) and has_type(value, int)):
            raise ValueError(f"{path}: mapping keys must be integer strings and its values "
                             f"ints, got {key!r}: {value!r}")
    relabeled = relabel_skills(dataset, {int(k): v for k, v in doc.items()})
    save_dataset(relabeled, outdir / "data.txt", extra={"relabeled_from": str(opts["data"])})
    print(
        f"relabeled {dataset.num_skills} skills down to {relabeled.num_skills} "
        f"-> {outdir / 'data.txt'}"
    )


# ---------------------------------------------------------------------------
# Parser

_FIT = ("batch_size", "epochs", "alpha", "patience")

# command: (function, help, required options, other options); every command
# also takes --config, --out (required) and --seed.
_COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic response log",
              (), ("students", "skills", "concepts", "steps", "guess", "name")),
    "split": (cmd_split, "split a dataset by student", ("data",), ("train_ratio", "tv_ratio")),
    "train": (cmd_train, "train the knowledge-query model", ("train", "valid"),
              ("test", "dim", "rnn", "rnn_hidden", "mlp_hidden", "keep_prob", *_FIT, "repeats")),
    "evaluate": (cmd_evaluate, "score a checkpoint on a dataset",
                 ("checkpoint", "data"), ("batch_size",)),
    "gridsearch": (cmd_gridsearch, "sweep architecture hyperparameters", ("train", "valid"),
                   ("kinds", "dims", "rnn_hiddens", "mlp_hiddens", "keep_prob", *_FIT)),
    "heatmap": (cmd_heatmap, "export one student's knowledge-interaction matrix",
                ("checkpoint", "data"), ("student",)),
    "distances": (cmd_distances, "export the skill distance matrix",
                  (), ("checkpoint", "skill_vectors", "kind")),
    "cluster": (cmd_cluster, "hierarchical clustering of skills",
                (), ("checkpoint", "skill_vectors", "distances", "distance", "linkage", "n")),
    "ari": (cmd_ari, "adjusted Rand index between two labelings", ("labels_a", "labels_b"), ()),
    "mantel": (cmd_mantel, "permutation test between two distance matrices",
               ("distances_a", "distances_b"), ("permutations",)),
    "sensitivity": (cmd_sensitivity, "compare skill geometries across dimensions",
                    ("vectors",), ("kind",)),
    "dkt": (cmd_dkt, "train the baseline next-response model", ("train", "valid"),
            ("test", "hidden", "keep_prob", "mode", "encoding", "skill_vectors", *_FIT)),
    "relabel": (cmd_relabel, "merge or rename skill ids", ("data", "mapping"), ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kqn",
        description="Knowledge tracing with dot-product knowledge-state queries",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, _, _) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="JSON file of option defaults")
        for name in _option_names(command):
            kind, _, choices = _OPTIONS[name]
            sub.add_argument(
                "--" + name.replace("_", "-"),
                type=kind if kind in (int, float) else None,
                choices=choices,
                action="append" if name == "vectors" else "store",
                help=_HELP.get(name),
            )
    return parser


def _environment() -> dict:
    """The builds and thread settings a run's numbers depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args)
        outdir = Path(opts["out"])
        _COMMANDS[args.command][0](opts, outdir)
        manifest = {"command": args.command, "version": __version__, "options": opts,
                    "seed": opts["seed"], "environment": _environment()}
        write_json(outdir / "manifest.json", manifest, sort_keys=True)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
