"""Output checks run on the artifacts of every benchmarked command.

Each check raises CheckFailed (or any parsing error the kqn readers raise)
when an artifact is wrong; the runner records that against the command,
which then counts as a failed operation. Checks run outside the timed
region and with tracing off.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from kqn.analysis import (
    read_clusters_csv,
    read_dendrogram_csv,
    read_distance_csv,
    read_heatmap_csv,
)
from kqn.checkpoint import load_checkpoint, load_skill_vectors
from kqn.data import load_dataset
from kqn.dkt import DktModel
from kqn.metrics import auc_scores
from kqn.model import KqnModel, batch_arrays
from kqn.training import evaluate, read_metrics_csv


class CheckFailed(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _finite(value) -> bool:
    return bool(np.all(np.isfinite(np.asarray(value, dtype=float))))


def _json(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def manifest(outdir: Path, command: str) -> None:
    doc = _json(outdir / "manifest.json")
    expect(doc["command"] == command, f"manifest names {doc['command']!r}, not {command!r}")


def dataset(path: Path):
    ds = load_dataset(path)
    expect(ds.num_students > 0, f"{path} holds no students")
    return ds


def fit(outdir: Path, command: str, epochs: int) -> float:
    """metrics.csv, eval.json, the checkpoint and (for kqn) the exported
    skill vectors; returns the test AUC the fit reported."""
    records = read_metrics_csv(outdir / "metrics.csv")
    expect(len(records) == epochs, f"{len(records)} epochs recorded, {epochs} run")
    for rec in records:
        expect(_finite(rec.train_loss), f"epoch {rec.epoch} train loss {rec.train_loss}")
        expect(0.0 <= rec.valid_auc <= 1.0, f"epoch {rec.epoch} valid AUC {rec.valid_auc}")
    report = _json(outdir / "eval.json")
    if command == "train":
        report = report["repeats"][0]
    expect(_finite(report["test_loss"]), f"test loss {report['test_loss']}")
    expect(0.0 <= report["test_auc"] <= 1.0, f"test AUC {report['test_auc']}")
    kind, config, params = load_checkpoint(outdir / "checkpoint.json")
    expect(all(_finite(v) for v in params.values()), "checkpoint holds non-finite values")
    if kind == "kqn":
        ids, table = load_skill_vectors(outdir / "skill_vectors.csv")
        expect(list(ids) == list(range(1, config.num_skills + 1)), "skill ids are not 1..N")
        expect(table.shape == (config.num_skills, config.dim), f"table shape {table.shape}")
        expect(float(table.min()) >= 0.0, "skill vectors have negative coordinates")
        worst = float(np.max(np.abs(np.linalg.norm(table, axis=1) - 1.0)))
        expect(worst <= 1e-9, f"skill vector norm off unit by {worst}")
    return float(report["test_auc"])


def evaluation(outdir: Path, checkpoint: Path, data: Path, batch_size: int, fit_auc: float):
    """eval.json against a fresh evaluate call and against auc_scores over
    the probabilities of a fresh eval-mode forward; returns the trial count."""
    report = _json(outdir / "eval.json")
    expect(_finite(report["loss"]), f"eval loss {report['loss']}")
    kind, config, params = load_checkpoint(checkpoint)
    model = KqnModel(config) if kind == "kqn" else DktModel(config)
    sequences = load_dataset(data).sequences
    auc, _, trials = evaluate(model, params, sequences, batch_size)
    expect(auc == report["auc"], f"eval.json AUC {report['auc']} != fresh evaluate {auc}")
    expect(trials == report["trials"], f"eval.json trials {report['trials']} != {trials}")
    kept = [s for s in sequences if len(s.responses) >= 2]
    probs, labels = [], []
    for start in range(0, len(kept), batch_size):
        skills, corrects, lengths = batch_arrays(kept[start : start + batch_size])
        fwd = model.forward(params, skills, corrects, lengths, mode="eval")
        probs.append(fwd.probs[fwd.valid])
        labels.append(fwd.targets[fwd.valid])
    p = np.concatenate(probs)
    expect(_finite(p) and p.min() >= 0.0 and p.max() <= 1.0, "probabilities outside [0, 1]")
    recomputed = auc_scores(p, np.concatenate(labels))
    expect(recomputed == report["auc"], f"auc_scores gives {recomputed}, eval.json {report['auc']}")
    expect(report["auc"] == fit_auc, f"evaluate AUC {report['auc']} != fit test AUC {fit_auc}")
    return int(trials)


def heatmap(outdir: Path, steps: int) -> None:
    hm = read_heatmap_csv(outdir / "heatmap.csv")
    expect(hm.percent.shape == (len(hm.skill_ids), steps), f"heatmap shape {hm.percent.shape}")
    expect(_finite(hm.percent), "heatmap holds non-finite values")
    expect(hm.percent.min() >= 0.0 and hm.percent.max() <= 100.0, "heatmap outside [0, 100]")


def distances(outdir: Path, n: int):
    dmat, ids = read_distance_csv(outdir / "distances.csv")
    expect(dmat.n == n and len(ids) == n, f"{dmat.n} skills in distances, {n} expected")
    return dmat


def cluster(outdir: Path, dmat, linkage: str, n_clusters: int) -> None:
    """The dendrogram must equal SciPy's linkage on the same matrix: same
    merged pairs and sizes in the same order, heights to rounding."""
    dend = read_dendrogram_csv(outdir / "dendrogram.csv")
    ref = scipy_linkage(squareform(dmat.values, checks=False), method=linkage)
    ours = dend.merges
    expect(ours.shape == ref.shape, f"dendrogram shape {ours.shape} != {ref.shape}")
    same_pairs = np.array_equal(np.sort(ours[:, :2], axis=1), np.sort(ref[:, :2], axis=1))
    expect(same_pairs, f"{linkage} merges differ from scipy")
    expect(np.array_equal(ours[:, 3], ref[:, 3]), f"{linkage} merge sizes differ from scipy")
    expect(
        np.allclose(ours[:, 2], ref[:, 2], rtol=1e-9, atol=1e-12),
        f"{linkage} merge heights differ from scipy",
    )
    _, labels = read_clusters_csv(outdir / "clusters.csv")
    expect(set(labels.tolist()) == set(range(1, n_clusters + 1)), "cluster labels are not 1..n")


def ari(outdir: Path) -> None:
    value = _json(outdir / "ari.json")["ari"]
    expect(math.isfinite(value) and -1.0 <= value <= 1.0, f"ARI {value}")


def mantel(outdir: Path, d1, d2, permutations: int) -> None:
    report = _json(outdir / "mantel.json")
    iu = np.triu_indices(d1.n, k=1)
    pearson = float(np.corrcoef(d1.values[iu], d2.values[iu])[0, 1])
    expect(abs(report["rho"] - pearson) <= 1e-12, f"rho {report['rho']} != Pearson r {pearson}")
    expect(0.0 < report["p_value"] <= 1.0, f"p value {report['p_value']}")
    expect(report["permutations"] == permutations, f"{report['permutations']} permutations")


def sensitivity(outdir: Path, sets: int) -> None:
    doc = _json(outdir / "sensitivity.json")
    expect(len(doc["eta"]) == sets, f"{len(doc['eta'])} dimensions reported, {sets} given")
    expect(len(doc["xi"]) == sets * (sets - 1) // 2, f"{len(doc['xi'])} dimension pairs")
    expect(_finite(list(doc["eta"].values()) + list(doc["xi"].values())), "non-finite statistic")
