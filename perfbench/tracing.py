"""Span tracing for the traced benchmark runs.

Spans are recorded from outside the package: `Tracer.install` replaces
public functions of the kqn modules with wrappers that open a span around
the original call, and `Tracer.uninstall` puts the originals back. Nothing
under src/ knows about tracing, and untraced runs never see a wrapper.

A span is (name, start, end, parent, run); its self time is its duration
minus the time covered by its child spans, so the self times of a tree add
up to its root's duration by construction. Spans stay in memory and are
written out by the runner when the benchmark ends.
"""
from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

# Functions whose spans get a per-call median and tail in the metrics.
PER_CALL = (
    "model.forward_batch.train",
    "model.forward_batch.eval",
    "model.backward_batch",
    "dkt.forward.train",
    "dkt.backward",
    "training.adam_step",
)

# Container spans whose own work (time outside traced children) is
# reported as `<key>.self_s`, keyed by the span-name prefix they pool.
SELF_GROUPS = {
    "cli": ("cli.",),
    "training": ("training.train", "training.evaluate"),
    "model.forward_batch": ("model.forward_batch.",),
    "model.backward_batch": ("model.backward_batch",),
    "dkt.forward": ("dkt.forward.",),
    "dkt.backward": ("dkt.backward",),
}

CLI_COMMANDS = (
    "synth", "split", "train", "dkt", "evaluate", "heatmap",
    "distances", "cluster", "ari", "mantel", "sensitivity",
)

LINKAGES = ("average", "ward", "centroid")

# (module, attribute, span name, where) for every traced function. A name of None
# means the wrapper derives it from the call (mode or linkage argument).
# `where` lists the modules whose binding is replaced; None means every kqn
# module that binds the same object, so `from .x import f` aliases are
# traced too.
TARGETS = (
    ("data", "load_dataset", "data.load_dataset", None),
    ("data", "save_dataset", "data.save_dataset", None),
    ("data", "generate_synthetic", "data.generate_synthetic", None),
    ("training", "train", "training.train", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "evaluate", "training.evaluate", None),
    ("model", "batch_arrays", "model.batch_arrays", None),
    ("model", "forward_batch", None, ("model",)),
    ("model", "backward_batch", "model.backward_batch", ("model",)),
    ("model", "lstm_cell", "model.lstm_cell", ("model",)),
    ("model", "lstm_cell_backward", "model.lstm_cell_backward", ("model",)),
    ("model", "gru_cell", "model.gru_cell", ("model",)),
    ("model", "gru_cell_backward", "model.gru_cell_backward", ("model",)),
    ("model", "encode_skill_table", "model.encode_skill_table", None),
    ("model", "skill_table_backward", "model.skill_table_backward", None),
    ("dkt", "lstm_cell", "dkt.lstm_cell", ("dkt",)),
    ("dkt", "lstm_cell_backward", "dkt.lstm_cell_backward", ("dkt",)),
    ("ops", "sigmoid", "ops.sigmoid", ("model", "dkt")),
    ("ops", "dropout_mask", "ops.dropout_mask", ("model", "dkt")),
    ("metrics", "auc_scores", "metrics.auc_scores", None),
    ("metrics", "binary_cross_entropy", "metrics.binary_cross_entropy", None),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("checkpoint", "export_skill_vectors", "checkpoint.export_skill_vectors", None),
    ("checkpoint", "load_skill_vectors", "checkpoint.load_skill_vectors", None),
    ("analysis", "pairwise_distances", "analysis.pairwise_distances", None),
    ("analysis", "hcluster", None, None),
    ("analysis", "flat_clusters", "analysis.flat_clusters", None),
    ("analysis", "ari", "analysis.ari", None),
    ("analysis", "mantel", "analysis.mantel", None),
    ("analysis", "sensitivity_stats", "analysis.sensitivity_stats", None),
    ("analysis", "heatmap_matrix", "analysis.heatmap_matrix", None),
    ("analysis", "write_distance_csv", "analysis.write_distance_csv", None),
    ("analysis", "read_distance_csv", "analysis.read_distance_csv", None),
)

# Spans reported as `<name>.s` (summed duration) and `<name>.calls`.
TIMED = tuple(
    [f"cli.{c}" for c in CLI_COMMANDS]
    + [
        "data.load_dataset", "data.save_dataset", "data.generate_synthetic",
        "training.train", "training.adam_step", "training.evaluate",
        "model.batch_arrays", "model.forward_batch.train", "model.forward_batch.eval",
        "model.backward_batch", "model.lstm_cell", "model.lstm_cell_backward",
        "model.gru_cell", "model.gru_cell_backward", "model.encode_skill_table",
        "model.skill_table_backward",
        "dkt.forward.train", "dkt.forward.eval", "dkt.backward",
        "dkt.lstm_cell", "dkt.lstm_cell_backward",
        "ops.sigmoid", "ops.dropout_mask",
        "metrics.auc_scores", "metrics.binary_cross_entropy",
        "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
        "checkpoint.export_skill_vectors", "checkpoint.load_skill_vectors",
        "analysis.pairwise_distances",
    ]
    + [f"analysis.hcluster.{k}" for k in LINKAGES]
    + [
        "analysis.flat_clusters", "analysis.ari", "analysis.mantel",
        "analysis.sensitivity_stats", "analysis.heatmap_matrix",
        "analysis.write_distance_csv", "analysis.read_distance_csv",
    ]
)

COUNTS = (
    "data.responses_loaded",
    "training.epochs",
    "training.batches",
    "model.recurrent_steps",
    "model.padded_cells",
    "model.valid_trials",
    "checkpoint.bytes_written",
    "analysis.hcluster.merges",
    "analysis.mantel.permutations",
    "analysis.distance_csv_bytes",
)


def _mode(args, kwargs, position):
    if "mode" in kwargs:
        return kwargs["mode"]
    return args[position] if len(args) > position else "eval"


class Tracer:
    """Records nested spans and counters while `active` is set."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index, run, self_s]
        self.counts = defaultdict(lambda: defaultdict(float))  # run -> name -> value
        self.run = None
        self.active = False
        self._stack = []  # [span_index, child_seconds]
        self._patches = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run, None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def end(self) -> None:
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        span[5] = duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def count(self, name: str, value: float) -> None:
        self.counts[self.run][name] += value

    # -- wrapping ----------------------------------------------------------

    def install(self, kqn_modules: dict) -> None:
        """Wrap every function in TARGETS; kqn_modules maps short module
        names (plus "" for the package) to module objects."""
        for home, attr, name, where in TARGETS:
            original = getattr(kqn_modules[home], attr)
            wrapper = self._wrapper(original, home, attr, name)
            owners = (
                [kqn_modules[w] for w in where]
                if where is not None
                else [m for m in kqn_modules.values() if getattr(m, attr, None) is original]
            )
            for owner in owners:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        dkt_model = kqn_modules["dkt"].DktModel
        for method in ("forward", "backward"):
            original = getattr(dkt_model, method)
            name = None if method == "forward" else "dkt.backward"
            self._patches.append((dkt_model, method, original))
            setattr(dkt_model, method, self._wrapper(original, "dkt", method, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrapper(self, original, home, attr, name):
        tracer = self
        namer = _namer(home, attr, name)
        after = _AFTER.get((home, attr))

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            tracer.begin(namer(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    # -- aggregation ---------------------------------------------------------

    def summary(self, run):
        """Per-name totals for one run id: name -> [seconds, calls,
        self_seconds, durations]."""
        out = defaultdict(lambda: [0.0, 0, 0.0, []])
        for name, start, end, _, span_run, self_s in self.spans:
            if span_run != run:
                continue
            row = out[name]
            row[0] += end - start
            row[1] += 1
            row[2] += self_s
            row[3].append(end - start)
        return out

    def export(self):
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r, "self_s": x}
            for n, s, e, p, r, x in self.spans
        ]


def _namer(home, attr, name):
    if name is not None:
        return lambda args, kwargs: name
    if home == "model" and attr == "forward_batch":
        return lambda args, kwargs: f"model.forward_batch.{_mode(args, kwargs, 5)}"
    if home == "dkt" and attr == "forward":
        return lambda args, kwargs: f"dkt.forward.{_mode(args, kwargs, 5)}"
    if home == "analysis" and attr == "hcluster":
        return lambda args, kwargs: (
            f"analysis.hcluster.{kwargs['linkage'] if 'linkage' in kwargs else args[1]}"
        )
    raise ValueError(f"no span name for {home}.{attr}")


def _after_forward_batch(tracer, args, kwargs, fwd):
    tracer.count("model.recurrent_steps", fwd.probs.shape[0])
    tracer.count("model.padded_cells", fwd.probs.size)
    tracer.count("model.valid_trials", int(fwd.valid.sum()))


def _after_file(counter):
    """Count the size of the file written to the call's `path` argument."""
    def hook(tracer, args, kwargs, result):
        tracer.count(counter, os.path.getsize(kwargs["path"] if "path" in kwargs else args[0]))
    return hook


_AFTER = {
    ("data", "load_dataset"): lambda t, a, k, ds: t.count(
        "data.responses_loaded", ds.num_responses
    ),
    ("training", "train"): lambda t, a, k, res: t.count(
        "training.epochs", len(res.metrics.epochs)
    ),
    ("training", "adam_step"): lambda t, a, k, res: t.count("training.batches", 1),
    ("model", "forward_batch"): _after_forward_batch,
    ("checkpoint", "save_checkpoint"): _after_file("checkpoint.bytes_written"),
    ("checkpoint", "export_skill_vectors"): _after_file("checkpoint.bytes_written"),
    ("analysis", "hcluster"): lambda t, a, k, dend: t.count(
        "analysis.hcluster.merges", len(dend.merges)
    ),
    ("analysis", "mantel"): lambda t, a, k, res: t.count(
        "analysis.mantel.permutations", res.permutations
    ),
    ("analysis", "write_distance_csv"): _after_file("analysis.distance_csv_bytes"),
}


def tail(durations):
    """(percentile, value): the highest of the 50th, 90th, 99th and 99.9th
    percentiles with at least ten samples beyond it, or (100, max) when
    there are fewer than twenty samples."""
    ordered = sorted(durations)
    n = len(ordered)
    best = (100.0, ordered[-1])
    for pct in (50.0, 90.0, 99.0, 99.9):
        if n * (1.0 - pct / 100.0) >= 10.0:
            index = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            best = (pct, ordered[index])
    return best


def layer_metrics(tracer, setup_run, iteration_runs, overhead_s):
    """Per-layer metrics from one traced set-up plus the median over the
    traced iterations. Counts come from one iteration (every iteration does
    the same work) plus the set-up."""
    setup = tracer.summary(setup_run)
    iterations = [tracer.summary(run) for run in iteration_runs]

    def seconds(column, names):
        base = sum(setup[n][column] for n in names if n in setup)
        per_iter = [sum(it[n][column] for n in names if n in it) for it in iterations]
        return base + statistics.median(per_iter)

    all_names = set(setup)
    for it in iterations:
        all_names |= set(it)
    metrics = {}
    for name in TIMED:
        metrics[f"{name}.s"] = (seconds(0, [name]), "s")
        if not name.startswith("cli."):
            metrics[f"{name}.calls"] = (setup[name][1] + iterations[0][name][1], "count")
    for key, prefixes in SELF_GROUPS.items():
        members = [n for n in all_names if n.startswith(prefixes)]
        metrics[f"{key}.self_s"] = (seconds(2, members), "s")
    for name in PER_CALL:
        durations = [d for it in iterations for d in it[name][3]]
        pct, value = tail(durations) if durations else (0.0, 0.0)
        metrics[f"{name}.p50_s"] = (statistics.median(durations) if durations else 0.0, "s")
        metrics[f"{name}.tail_s"] = (value, "s")
        metrics[f"{name}.tail_pct"] = (pct, "%")

    first = iteration_runs[0]
    totals = defaultdict(float)
    for run in (setup_run, first):
        for key, value in tracer.counts[run].items():
            totals[key] += value
    for key in COUNTS:
        if key != "analysis.mantel.permutations":
            metrics[key] = (totals[key], "count" if "bytes" not in key else "B")
    padded = totals["model.padded_cells"]
    metrics["model.pad_efficiency"] = (
        totals["model.valid_trials"] / padded if padded else 0.0, "ratio"
    )
    mantel_s = seconds(0, ["analysis.mantel"])
    metrics["analysis.mantel.permutations_per_s"] = (
        totals["analysis.mantel.permutations"] / mantel_s if mantel_s else 0.0, "1/s"
    )
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
