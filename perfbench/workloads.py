"""The three benchmark workloads and the kqn CLI calls each one makes.

Every workload runs the same pipeline as the README quick start: generate
a response log, split it, fit the query model (LSTM and GRU) and the DKT
baseline, evaluate, draw a heatmap, then compare skill geometries with
distances, clustering, ARI, Mantel and sensitivity. The sizes differ so
that each workload stresses different layers:

desk      the quick start at the acceptance-fixture size. Operands are
          tiny (B=16, H=32, 100-wide one-hot), so per-call NumPy and
          Python overhead and per-batch fixed costs dominate; all
          sequences have equal length, so nothing is padded.
paper     paper-sized batches (N=124, B=128, H=128, d=64) with lengths
          drawn from a heavy-tailed distribution clipped to [2, 200]. The
          recurrent step and its backward are BLAS-bound and about three
          quarters of the padded cells are wasted.
analysis  the skill-similarity suite at N=600 on seeded random
          non-negative unit vectors: the O(n^3) merge loop, the Python
          permutation loop in Mantel and 7 MB distance CSVs dominate.
          Its model stage is tiny (one epoch on 64 students) but has
          N=1000 skills, so the 2N-wide one-hot input shows there.
"""
from __future__ import annotations

import dataclasses
import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import checks
# load_dataset and save_dataset are looked up on the module at each call,
# so the traced set-up calls the wrappers tracing.py installs there.
import kqn.data as kdata
from kqn.data import ResponseSequence

TRAIN_RATIO = 0.8
LINKAGES = ("average", "ward", "centroid")
CLUSTERS = 5
PERMUTATIONS = 999


@dataclass(frozen=True)
class Fit:
    name: str  # output directory of the fit
    command: str  # "train" or "dkt"
    options: tuple  # model and optimiser flags


@dataclass(frozen=True)
class Workload:
    name: str
    students: int
    skills: int
    concepts: int
    steps: int
    fits: tuple
    epochs: int  # fixed; --patience equals it, so no fit stops early
    eval_batch: int
    eval_repeats: int  # kqn evaluate calls per iteration
    tv_ratio: float  # share of students kept for train and valid; the rest is test
    # (median, sigma, shortest, longest) of lognormal sequence lengths;
    # None keeps every student at `steps` responses.
    lengths: Optional[tuple] = None
    # (n, dims, pair_n): random unit vectors analysed instead of the fitted
    # skill vectors; None analyses the vectors of the kqn and gru fits.
    vectors: Optional[tuple] = None


def _kqn(dim, rnn, hidden, mlp, batch, alpha):
    return (
        "--dim", dim, "--rnn", rnn, "--rnn-hidden", hidden, "--mlp-hidden", mlp,
        "--keep-prob", 0.6, "--batch-size", batch, "--alpha", alpha,
    )


def _dkt(hidden, batch, alpha):
    return ("--hidden", hidden, "--keep-prob", 0.6, "--batch-size", batch, "--alpha", alpha)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="desk",
            students=400, skills=50, concepts=5, steps=50,
            fits=(
                Fit("kqn", "train", _kqn(16, "lstm", 32, 32, 16, 0.003)),
                Fit("gru", "train", _kqn(8, "gru", 32, 32, 16, 0.003)),
                Fit("dkt", "dkt", _dkt(32, 16, 0.003)),
            ),
            epochs=6, eval_batch=16, eval_repeats=4, tv_ratio=0.5,
        ),
        Workload(
            name="paper",
            students=400, skills=124, concepts=5, steps=200,
            fits=(
                Fit("kqn", "train", _kqn(64, "lstm", 128, 128, 128, 0.01)),
                Fit("gru", "train", _kqn(32, "gru", 128, 128, 128, 0.01)),
                Fit("dkt", "dkt", _dkt(128, 128, 0.01)),
            ),
            epochs=1, eval_batch=32, eval_repeats=3, tv_ratio=0.8,
            # An assumed heavy-tailed shape, not fitted to ASSISTments:
            # no length histogram of the real data is in the repository.
            lengths=(40, 1.0, 2, 200),
        ),
        Workload(
            name="analysis",
            # A quarter of the students is test, so the untrained fits'
            # test AUC rests on 4560 trials and varies little with the seed.
            students=320, skills=1000, concepts=20, steps=20,
            fits=(
                Fit("kqn", "train", _kqn(16, "lstm", 32, 32, 32, 0.003)),
                Fit("gru", "train", _kqn(8, "gru", 32, 32, 32, 0.003)),
                Fit("dkt", "dkt", _dkt(32, 32, 0.003)),
            ),
            epochs=1, eval_batch=32, eval_repeats=2, tv_ratio=0.25,
            vectors=(600, (16, 32, 64), 300),
        ),
    )
}


@dataclass
class Inputs:
    seed: int
    train: Path
    valid: Path
    test: Path
    concepts: Path
    vectors: dict  # dim -> vector CSV (random-vector workloads)
    pair: tuple  # two vector CSVs of the Mantel pair
    train_trials: int = 0  # scored trials in one pass over train
    test_trials: int = 0
    heatmap_steps: int = 0


def sizes(wl: Workload) -> dict:
    doc = dataclasses.asdict(wl)
    doc["fits"] = [
        {"name": f.name, "command": f.command, "options": [str(o) for o in f.options]}
        for f in wl.fits
    ]
    doc.update(
        train_ratio=TRAIN_RATIO, linkages=LINKAGES, clusters=CLUSTERS, permutations=PERMUTATIONS
    )
    return doc


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed, written where the CLI reads them


def _skew_lengths(src: Path, dst: Path, lengths: tuple, block: int, seed: int, stream: int) -> Path:
    """Cut each sequence to a lognormal length and write the result as a
    triplet file with a sidecar carrying the concept labels.

    The lengths are the lognormal's quantiles at (i + 0.5) / n, shuffled by
    the seed, so every seed gets the same multiset of lengths: the padded
    and scored cell counts, and with them the work per batch, do not vary
    with the seed. Every run of `block` students in file order (a batch of
    that size, as `kqn evaluate` forms them) holds one of the longest
    lengths at a seeded place, so those batches pad to the same length
    whatever the seed."""
    median, sigma, shortest, longest = lengths
    ds = kdata.load_dataset(src)
    n = ds.num_students
    normal = statistics.NormalDist()
    quantiles = np.array([normal.inv_cdf((i + 0.5) / n) for i in range(n)])
    cut = np.clip(np.rint(median * np.exp(sigma * quantiles)), shortest, longest).astype(int)
    rng = np.random.default_rng([seed, stream])
    starts = np.arange(0, n, block)
    heads = starts + rng.integers(0, np.minimum(block, n - starts))
    rest = np.ones(n, dtype=bool)
    rest[heads] = False
    ordered = np.sort(cut)[::-1]
    cut = np.empty_like(ordered)
    cut[heads] = ordered[: len(heads)]
    cut[rest] = rng.permutation(ordered[len(heads):])
    sequences = tuple(
        ResponseSequence(seq.student_id, seq.responses[:n]) for seq, n in zip(ds.sequences, cut)
    )
    meta = json.loads(Path(str(src) + ".meta.json").read_text())
    extra = {k: meta[k] for k in ("concepts", "generator")}
    extra["lengths"] = {"lognormal_median": median, "sigma": sigma, "clip": [shortest, longest]}
    kdata.save_dataset(dataclasses.replace(ds, sequences=sequences), dst, extra=extra)
    return dst


def _write_vectors(path: Path, table: np.ndarray) -> None:
    lines = ["skill," + ",".join(f"x{i + 1}" for i in range(table.shape[1]))]
    for e, row in enumerate(table, start=1):
        lines.append(str(e) + "," + ",".join(repr(float(x)) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _random_vectors(directory: Path, spec: tuple, seed: int):
    """Seeded non-negative unit vectors: one N x d set per dimension and a
    Mantel pair of the first pair_n rows of the first two sets."""
    n, dims, pair_n = spec
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    paths, tables = {}, {}
    for dim in dims:
        table = np.abs(rng.normal(size=(n, dim)))
        table /= np.linalg.norm(table, axis=1, keepdims=True)
        paths[dim] = directory / f"vectors-{dim}.csv"
        tables[dim] = table
        _write_vectors(paths[dim], table)
    pair = []
    for dim in dims[:2]:
        pair.append(directory / f"pair-{dim}.csv")
        _write_vectors(pair[-1], tables[dim][:pair_n])
    return paths, tuple(pair)


def setup(wl: Workload, seed: int, root: Path, runner) -> Inputs:
    """Generate and write every input, then make one warm-up call."""
    synth, split = root / "synth", root / "split"
    runner.cli(
        "synth", "--out", synth, "--students", wl.students, "--skills", wl.skills,
        "--concepts", wl.concepts, "--steps", wl.steps, "--seed", seed,
    )
    runner.cli(
        "split", "--out", split, "--data", synth / "data.txt", "--train-ratio", TRAIN_RATIO,
        "--tv-ratio", wl.tv_ratio, "--seed", seed,
    )
    if wl.lengths is not None:
        skewed = root / "skewed"
        skewed.mkdir()
        with runner.traced():
            for stream, part in enumerate(("train", "valid", "test"), start=1):
                _skew_lengths(
                    split / f"{part}.txt", skewed / f"{part}.txt", wl.lengths, wl.eval_batch,
                    seed, stream,
                )
        split = skewed
    vectors, pair = {}, ()
    if wl.vectors is not None:
        vectors, pair = _random_vectors(root / "vectors", wl.vectors, seed)
    # One epoch of the first fit on the validation part, so the first
    # measured iteration finds warm caches and a warm allocator like the
    # later ones.
    first = wl.fits[0]
    train, valid = split / "train.txt", split / "valid.txt"
    runner.cli(
        first.command, "--out", root / "warmup", "--train", valid, "--valid", valid,
        "--seed", seed, *first.options, "--epochs", 1, "--patience", 1,
    )
    return Inputs(
        seed=seed, train=train, valid=valid, test=split / "test.txt",
        concepts=synth / "concepts.csv", vectors=vectors, pair=pair,
    )


def describe(inputs: Inputs) -> None:
    """Fill in the trial counts the throughput metrics divide by."""
    def scored(path):
        return sum(len(s.responses) - 1 for s in kdata.load_dataset(path).sequences if len(s.responses) > 1)

    inputs.train_trials = scored(inputs.train)
    inputs.test_trials = scored(inputs.test)
    inputs.heatmap_steps = len(kdata.load_dataset(inputs.test).sequences[0].responses) - 1


# ---------------------------------------------------------------------------
# One measured iteration


def iteration(wl: Workload, inp: Inputs, out: Path, runner, check: bool) -> dict:
    """Run every command once. Returns the seconds per command group, as
    the runner reports them (scaled to the reference speed), and, when
    `check` is set, the values read from the checked artifacts.

    With `check` unset the artifacts are only compared byte for byte with
    those of the checked iteration, which the runner does."""
    seconds = dict.fromkeys(
        ("kqn_train", "dkt_train", "evaluate", "heatmap", "distances", "cluster", "ari",
         "mantel", "sensitivity"), 0.0,
    )
    values = {}
    seed = inp.seed
    fit_auc = {}
    for fit in wl.fits:
        d = out / fit.name
        op, s = runner.cli(
            fit.command, "--out", d, "--train", inp.train, "--valid", inp.valid,
            "--test", inp.test, "--seed", seed, *fit.options,
            "--epochs", wl.epochs, "--patience", wl.epochs,
        )
        seconds["kqn_train" if fit.command == "train" else "dkt_train"] += s
        if check:
            fit_auc[fit.name] = runner.check(op, checks.fit, d, fit.command, wl.epochs)
    if check:
        values["kqn_test_auc"] = fit_auc["kqn"]
        values["dkt_test_auc"] = fit_auc["dkt"]

    checkpoint = out / "kqn" / "checkpoint.json"
    for _ in range(wl.eval_repeats):
        op, s = runner.cli(
            "evaluate", "--out", out / "evaluate", "--checkpoint", checkpoint,
            "--data", inp.test, "--batch-size", wl.eval_batch, "--seed", seed,
        )
        seconds["evaluate"] += s
    if check and fit_auc.get("kqn") is not None:
        trials = runner.check(
            op, checks.evaluation, out / "evaluate", checkpoint, inp.test, wl.eval_batch,
            fit_auc["kqn"],
        )
        if trials is not None and trials != inp.test_trials:
            runner.fail(op, f"evaluate scored {trials} trials, test set has {inp.test_trials}")

    op, s = runner.cli(
        "heatmap", "--out", out / "heatmap", "--checkpoint", checkpoint, "--data", inp.test,
        "--student", 0, "--seed", seed,
    )
    seconds["heatmap"] += s
    if check:
        runner.check(op, checks.heatmap, out / "heatmap", inp.heatmap_steps)

    if wl.vectors is None:
        sources = {
            name: (["--checkpoint", out / name / "checkpoint.json"], wl.skills)
            for name in ("kqn", "gru")
        }
        cluster_on, mantel_pair = "kqn", ("kqn", "gru")
        vector_files = [out / "kqn" / "skill_vectors.csv", out / "gru" / "skill_vectors.csv"]
        truth = inp.concepts
    else:
        n, dims, pair_n = wl.vectors
        sources = {
            "all": (["--skill-vectors", inp.vectors[dims[0]]], n),
            "pair-a": (["--skill-vectors", inp.pair[0]], pair_n),
            "pair-b": (["--skill-vectors", inp.pair[1]], pair_n),
        }
        cluster_on, mantel_pair = "all", ("pair-a", "pair-b")
        vector_files = [inp.vectors[d] for d in dims]
        truth = None

    dmats = {}
    for name, (source, n) in sources.items():
        d = out / f"distances-{name}"
        op, s = runner.cli("distances", "--out", d, *source, "--kind", "euclidean", "--seed", seed)
        seconds["distances"] += s
        if check:
            dmats[name] = runner.check(op, checks.distances, d, n)

    for linkage in LINKAGES:
        d = out / f"cluster-{linkage}"
        op, s = runner.cli(
            "cluster", "--out", d, "--distances", out / f"distances-{cluster_on}" / "distances.csv",
            "--linkage", linkage, "--n", CLUSTERS, "--seed", seed,
        )
        seconds["cluster"] += s
        if check and dmats.get(cluster_on) is not None:
            runner.check(op, checks.cluster, d, dmats[cluster_on], linkage, CLUSTERS)

    labels_a = truth if truth is not None else out / "cluster-ward" / "clusters.csv"
    op, s = runner.cli(
        "ari", "--out", out / "ari", "--labels-a", labels_a,
        "--labels-b", out / "cluster-average" / "clusters.csv", "--seed", seed,
    )
    seconds["ari"] += s
    if check:
        runner.check(op, checks.ari, out / "ari")

    a, b = mantel_pair
    op, s = runner.cli(
        "mantel", "--out", out / "mantel",
        "--distances-a", out / f"distances-{a}" / "distances.csv",
        "--distances-b", out / f"distances-{b}" / "distances.csv",
        "--permutations", PERMUTATIONS, "--seed", seed,
    )
    seconds["mantel"] += s
    if check and dmats.get(a) is not None and dmats.get(b) is not None:
        runner.check(op, checks.mantel, out / "mantel", dmats[a], dmats[b], PERMUTATIONS)

    flags = [tok for path in vector_files for tok in ("--vectors", path)]
    op, s = runner.cli(
        "sensitivity", "--out", out / "sensitivity", *flags, "--kind", "euclidean",
        "--seed", seed,
    )
    seconds["sensitivity"] += s
    if check:
        runner.check(op, checks.sensitivity, out / "sensitivity", len(vector_files))
    return {"seconds": seconds, "values": values}
