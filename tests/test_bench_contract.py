"""The benchmark's tracer (perfbench/tracing.py) wraps kqn functions by
module and attribute name. Every name it patches must stay bound where it
looks, or a traced benchmark run fails before it starts."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import kqn
from kqn.data import ResponseSequence, StudentResponse
from kqn.dkt import DktConfig, DktModel
from kqn.model import batch_arrays, forward_batch

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("ops", "metrics", "model", "dkt", "data", "checkpoint", "training", "analysis", "cli")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


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


def test_install_traces_dkt_through_the_shared_scan():
    modules = kqn_modules()
    tracer = tracing.Tracer()
    before = {(home, attr): getattr(modules[home], attr) for home, attr, _, _ in tracing.TARGETS}
    tracer.install(modules)
    try:
        model = DktModel(DktConfig(num_skills=3, hidden=4, keep_prob=0.5))
        params = model.init_params(np.random.default_rng(0))
        arrays = batch_arrays([
            ResponseSequence(0, tuple(StudentResponse(e, e % 2) for e in (1, 3, 2, 2))),
            ResponseSequence(1, tuple(StudentResponse(e, 1) for e in (2, 1, 3))),
        ])
        tracer.active = True
        fwd = model.forward(params, *arrays, mode="train", rng=np.random.default_rng(2))
        model.backward(params, fwd)
        tracer.active = False
    finally:
        tracer.uninstall()
    names = {span["name"] for span in tracer.export()}
    assert {"dkt.forward.train", "dkt.backward", "model.lstm_cell",
            "model.lstm_cell_backward", "ops.dropout_mask"} <= names
    assert not names & {"dkt.lstm_cell", "dkt.lstm_cell_backward"}
    for (home, attr), original in before.items():
        assert getattr(modules[home], attr) is original
