"""Benchmark of the kqn command line, run in-process from one Python process.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 28 --trace 0

Run from the repository root. The package is imported from ./src, inputs
are generated from --seed under .bench_work/, and each workload's commands
are driven through kqn.cli.main(argv) until --seconds have passed. Every
command's artifacts are checked (see checks.py). The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: medians over the
iterations of times scaled to a reference machine speed (see
calibration.py). With --trace 1 untraced and traced iterations alternate
and the metrics are the per-layer ones from the spans, in raw wall time
(see tracing.py). A report with the environment, sizes, raw and scaled
per-iteration timings, failures and, when traced, every span is written
to .bench_work/reports/.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# One BLAS thread: the end-to-end numbers must be steady on a shared
# machine, and at desk size a second thread gains nothing.
BLAS_THREADS = 1
SETUP_REPEATS = 3
MAX_TRACED_ITERATIONS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "kqn_train_s": "s",
    "dkt_train_s": "s",
    "train_trials_per_s": "trials/s",
    "eval_trials_per_s": "trials/s",
    "kqn_test_auc": "AUC",
    "dkt_test_auc": "AUC",
    "distances_s": "s",
    "cluster_s": "s",
    "mantel_s": "s",
    "analysis_s": "s",
    "peak_rss_mb": "MiB",
}


class Op:
    """One attempted CLI command and everything that went wrong with it."""

    def __init__(self, argv):
        self.argv = argv
        self.out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
        self.errors = []
        self.wall_s = 0.0


class Runner:
    """Runs kqn commands in-process, timing each and keeping its Op.

    With a calibration set, each command is measured by it (see
    calibration.py) and its time is returned scaled to the reference
    speed. Calibration samples are taken inside a command only while no
    traced segment runs, so spans never contain them."""

    def __init__(self, main, tracer=None):
        self.main = main
        self.tracer = tracer
        self.calibration = None
        self.ops = []

    def cli(self, *argv):
        argv = [str(a) for a in argv]
        op = Op(argv)
        self.ops.append(op)
        stdout, stderr = io.StringIO(), io.StringIO()
        tracer = self.tracer if self.tracer is not None and self.tracer.run else None

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is not None:
                    tracer.active = True
                    tracer.begin(f"cli.{argv[0]}")
                try:
                    return self.main(argv)
                except SystemExit as exc:
                    return exc.code
                except Exception as exc:  # a crash counts as a failed command
                    return f"{type(exc).__name__}: {exc}"
                finally:
                    if tracer is not None:
                        tracer.end()
                        tracer.active = False

        if self.calibration is None:
            start = time.perf_counter()
            code = call()
            op.wall_s = seconds = time.perf_counter() - start
        else:
            code, op.wall_s, seconds = self.calibration.measure(call, inside=tracer is None)
        if code != 0:
            message = stderr.getvalue().strip().splitlines()
            self.fail(op, f"exit {code}" + (f": {message[-1]}" if message else ""))
        return op, seconds

    @contextlib.contextmanager
    def traced(self):
        """Trace library calls the benchmark itself makes (input set-up)."""
        tracer = self.tracer if self.tracer is not None and self.tracer.run else None
        if tracer is not None:
            tracer.active = True
        try:
            yield
        finally:
            if tracer is not None:
                tracer.active = False

    def check(self, op, fn, *args):
        """Run one output check of op's artifacts; a failing check marks op
        failed. Skipped when the command itself already failed."""
        if op.errors:
            return None
        try:
            return fn(*args)
        except Exception as exc:  # any exception is a failed check
            self.fail(op, f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None

    def fail(self, op, message):
        op.errors.append(message)

    @property
    def failed(self):
        return [op for op in self.ops if op.errors]


def _digest_tree(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _fingerprint(*directories) -> str:
    h = hashlib.sha256()
    for directory in directories:
        for p in sorted(directory.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Environment


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it is not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# The run


def _iterate(run_one, seconds, traced_pairs):
    """Call run_one(traced) until --seconds have passed: always once (one
    untraced/traced pair when tracing), and then only while the next
    iteration is expected to end less than half an iteration past the
    deadline, so a run lasts about --seconds whatever the iteration size."""
    start = time.perf_counter()
    done = 0
    while True:
        if traced_pairs:
            run_one(False)
            run_one(True)
        else:
            run_one(False)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done > seconds:
            break
        if traced_pairs and done >= MAX_TRACED_ITERATIONS:
            break


def run(args, import_s, main_fn, kqn_modules):
    import numpy as np

    import calibration as calibrate
    import checks
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(main_fn, tracer)

    def trace_as(run_id):
        # Wrappers are in place only while a traced segment runs, so the
        # untraced iterations run the unmodified package.
        if tracer is None:
            return
        if run_id is None:
            tracer.run = None
            tracer.uninstall()
        else:
            tracer.install(kqn_modules)
            tracer.run = run_id

    # Set-up: repeated, the median reported; a traced run sets up once,
    # traced. Each set-up, and each later command, is measured and scaled
    # by the calibration.
    calibration = calibrate.Calibration()
    sample = calibration.sample()
    import_s *= calibration.scale(sample, sample)
    setup_times = []
    inputs = None
    for rep in range(1 if args.trace else SETUP_REPEATS):
        first_op = len(runner.ops)
        trace_as("setup")
        inputs, _, seconds = calibration.measure(
            lambda: workloads.setup(wl, args.seed, work / f"setup{rep}", runner),
            inside=tracer is None,
        )
        trace_as(None)
        setup_times.append(seconds)
        if rep == 0:
            for op in runner.ops[first_op:]:
                runner.check(op, checks.manifest, op.out, op.argv[0])
            for path in (inputs.train, inputs.valid, inputs.test):
                runner.check(runner.ops[first_op + 1], checks.dataset, path)
    workloads.describe(inputs)
    runner.calibration = calibration

    iterations = []  # per iteration: seconds, values, traced, run, wall, scaled
    reference = {}  # op index within an iteration -> digests of its outputs
    hash_store = WORK / "metrics_hashes.json"

    def run_one(traced):
        index = len(iterations)
        out = work / "iteration"
        shutil.rmtree(out, ignore_errors=True)
        first_op = len(runner.ops)
        run_id = f"iter{index}" if traced else None
        check = index == 0
        if traced:
            trace_as(run_id)
        result = workloads.iteration(wl, inputs, out, runner, check)
        if traced:
            trace_as(None)
        result["traced"] = traced
        result["run"] = run_id
        ops = runner.ops[first_op:]
        result["wall"] = sum(op.wall_s for op in ops)
        result["scaled"] = sum(result["seconds"].values())
        for position, op in enumerate(ops):
            if op.out is None or op.errors:
                continue
            digests = _digest_tree(op.out)
            if check:
                runner.check(op, checks.manifest, op.out, op.argv[0])
                reference[position] = digests
            elif position in reference and digests != reference[position]:
                runner.fail(op, f"{op.argv[0]} artifacts differ from the first iteration")
        if check:
            _check_hash_store(hash_store, wl, args.seed, ops, runner)
        iterations.append(result)

    _iterate(run_one, args.seconds, traced_pairs=bool(args.trace))

    if args.trace:
        untraced = [it["scaled"] for it in iterations if not it["traced"]]
        traced = [it for it in iterations if it["traced"]]
        overhead = statistics.median(it["scaled"] for it in traced) - statistics.median(untraced)
        metrics = tracing.layer_metrics(tracer, "setup", [it["run"] for it in traced], overhead)
    else:
        metrics = end_to_end(wl, inputs, iterations, import_s, setup_times)

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np),
        "sizes": workloads.sizes(wl),
        "inputs": {
            "train_trials": inputs.train_trials,
            "test_trials": inputs.test_trials,
        },
        "import_s": import_s,
        "setup_s_each": setup_times,
        "calibration_reference_s": calibrate.REFERENCE_S,
        "iterations": [
            {"traced": it["traced"], "wall_s": it["wall"], "scaled_s": it["scaled"],
             "seconds": it["seconds"]}
            for it in iterations
        ],
        "failures": [{"argv": op.argv, "errors": op.errors} for op in runner.failed],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        report["spans"] = tracer.export()
    reports = WORK / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(json.dumps(report) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print("sizes " + json.dumps(report["sizes"], sort_keys=True))
    for op in runner.failed:
        print("FAILED " + " ".join(op.argv) + " :: " + " | ".join(op.errors))
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"{key:<{width}}  {value:.6g} {unit}")
    return {
        "correct": not runner.failed,
        "attempted": len(runner.ops),
        "failed": len(runner.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def end_to_end(wl, inputs, iterations, import_s, setup_times):
    """Medians over the iterations of each end-to-end metric."""
    def median(fn):
        return statistics.median(fn(it["seconds"]) for it in iterations)

    fit_trials = inputs.train_trials * wl.epochs * len(wl.fits)
    values = iterations[0]["values"]
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "kqn_train_s": median(lambda s: s["kqn_train"]),
        "dkt_train_s": median(lambda s: s["dkt_train"]),
        "train_trials_per_s": median(lambda s: fit_trials / (s["kqn_train"] + s["dkt_train"])),
        "eval_trials_per_s": median(
            lambda s: inputs.test_trials * wl.eval_repeats / s["evaluate"]
        ),
        "kqn_test_auc": values.get("kqn_test_auc") or 0.0,
        "dkt_test_auc": values.get("dkt_test_auc") or 0.0,
        "distances_s": median(lambda s: s["distances"]),
        "cluster_s": median(lambda s: s["cluster"]),
        "mantel_s": median(lambda s: s["mantel"]),
        "analysis_s": median(
            lambda s: s["distances"] + s["cluster"] + s["ari"] + s["mantel"]
            + s["sensitivity"] + s["heatmap"]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def _check_hash_store(store: Path, wl, seed, ops, runner):
    """Record each fit's metrics.csv hash per seed and compare it with what
    an earlier run of the same code, benchmark and seed recorded."""
    key = f"{wl.name}/seed{seed}/{_fingerprint(ROOT / 'src' / 'kqn', Path(__file__).parent)}"
    known = json.loads(store.read_text()) if store.exists() else {}
    seen = known.get(key, {})
    for op in ops:
        if op.errors or op.argv[0] not in ("train", "dkt"):
            continue
        name = op.out.name
        digest = hashlib.sha256((op.out / "metrics.csv").read_bytes()).hexdigest()
        if name in seen and seen[name] != digest:
            runner.fail(op, f"{name}/metrics.csv differs from an earlier run with seed {seed}")
        seen[name] = digest
    known[key] = seen
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("desk", "paper", "analysis"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kqn" / "cli.py").is_file():
        print(f"error: no kqn sources under {src}", file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import kqn.cli

    import_s = time.perf_counter() - start
    if Path(kqn.cli.__file__).resolve().parent != (src / "kqn").resolve():
        print(f"error: imported kqn from {kqn.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import kqn

    names = ("ops", "metrics", "model", "dkt", "data", "checkpoint", "training", "analysis", "cli")
    modules = {"": kqn, **{n: sys.modules[f"kqn.{n}"] for n in names}}
    result = run(args, import_s, kqn.cli.main, modules)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
