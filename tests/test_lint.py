"""Static checks of the package source, and of the tests' imports. No
linter is a dependency, so the checks it would make are kept here."""
import ast
import importlib.util
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kqn"
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"
TESTS = Path(__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read elsewhere in the module.
    `from __future__` imports and lines marked `# noqa: F401` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


def test_finds_an_unused_import():
    source = (
        "import os\nimport sys  # noqa: F401\n"
        "from typing import Optional, Mapping\nx: Mapping\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: Optional"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unpatched_noqa_imports(source: str, patched) -> list[str]:
    """Names bound by an import on a line marked `# noqa: F401` that are
    not in patched."""
    lines = source.splitlines()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                "# noqa: F401" in lines[node.lineno - 1]:
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            found += [f"line {node.lineno}: {name}" for name in names if name not in patched]
    return found


def traced_names(module: str) -> set:
    """The names the benchmark's tracer sets in kqn.<module> whether or not
    the module uses them: those of the TARGETS whose `where` lists it. (A
    target without `where` replaces only bindings that already exist.)"""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {attr for _, attr, _, where in tracing.TARGETS if where and module in where}


def test_finds_an_unpatched_noqa_import():
    source = (
        "from .model import lstm_cell, gru_cell  # noqa: F401\n"
        "import os  # noqa: F401\nimport sys\n"
    )
    assert unpatched_noqa_imports(source, {"lstm_cell"}) == ["line 1: gru_cell", "line 2: os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_noqa_imports_are_traced(path):
    # An import kept only for the tracer stays only while the tracer needs it.
    assert unpatched_noqa_imports(path.read_text(), traced_names(path.stem)) == []


def direct_writes(source: str) -> list[str]:
    """Calls that write a file or make a directory themselves:
    .write_text(, .write_bytes(, .mkdir(, os.makedirs(, or open( / .open(
    in a mode that writes (w, a, x or +), or in a mode that is not a
    literal."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes", "mkdir"):
            found.append(f"line {node.lineno}: .{func.attr}(")
            continue
        if isinstance(func, ast.Attribute) and func.attr == "makedirs":
            found.append(f"line {node.lineno}: os.makedirs(")
            continue
        builtin = isinstance(func, ast.Name) and func.id == "open"
        if not builtin and not (isinstance(func, ast.Attribute) and func.attr == "open"):
            continue
        # open(file, mode) and Path.open(mode); the default mode reads.
        args = node.args[1:] if builtin else node.args
        mode = args[0] if args else None
        mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
        text = mode.value if isinstance(mode, ast.Constant) else "r" if mode is None else "?"
        if not isinstance(text, str) or set(text) - set("rbt"):
            found.append(f"line {node.lineno}: open( in mode {text!r}")
    return found


def test_finds_a_direct_write():
    source = (
        "p.write_text('x')\nopen(p)\nopen(p, 'rb')\nopen(p, 'w')\n"
        "p.open(mode='a')\np.open()\nopen(p, m)\nwrite_text(p, 'x')\n"
        "p.parent.mkdir(parents=True)\nos.makedirs(p)\n"
    )
    assert direct_writes(source) == [
        "line 1: .write_text(", "line 4: open( in mode 'w'", "line 5: open( in mode 'a'",
        "line 7: open( in mode '?'", "line 9: .mkdir(", "line 10: os.makedirs(",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "tables.py"), ids=lambda p: p.name
)
def test_only_tables_writes_files(path):
    # kqn.tables.write_text writes through a temp file and os.replace, so
    # an interrupted write never leaves part of an artifact behind, and it
    # makes the directory it writes into, so nothing else makes one.
    assert direct_writes(path.read_text()) == []


def unchecked_configs(source: str) -> list[str]:
    """Classes named *Config or *Spec whose __post_init__ does not call
    check_config, so a second validator cannot grow beside it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Spec"))):
            continue
        post = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
        calls = [c for f in post for c in ast.walk(f) if isinstance(c, ast.Call)
                 and isinstance(c.func, ast.Name) and c.func.id == "check_config"]
        if not calls:
            found.append(f"line {node.lineno}: {node.name}")
    return found


def test_finds_an_unchecked_config():
    source = (
        "class AConfig:\n    def __post_init__(self):\n        check_config(self)\n"
        "class BSpec:\n    def __post_init__(self):\n        check_types(self)\n"
        "class CConfig:\n    pass\n"
        "class Other:\n    pass\n"
    )
    assert unchecked_configs(source) == ["line 4: BSpec", "line 7: CConfig"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_config_calls_check_config(path):
    assert unchecked_configs(path.read_text()) == []


def test_the_config_check_sees_every_config():
    # The check is not vacuous: it finds the four config dataclasses.
    found = {node.name for path in SRC.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Spec"))}
    assert found >= {"ModelConfig", "DktConfig", "TrainConfig", "SyntheticSpec"}


# The calls that make up the one batch skeleton, model.SequenceModel.
SKELETON = ("scan(", "scan_backward(", "check_batch(", "BatchForward.from_valid(", ".take_cache()")


def second_skeletons(sources: dict) -> list[str]:
    """SKELETON's calls not made from exactly one place in sources (file
    name to text), so a second batch skeleton cannot grow beside
    SequenceModel's. scan, scan_backward and check_batch count when called
    by name, take_cache when called on any object."""
    sites = {call: [] for call in SKELETON}
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
            call = ".take_cache()" if attr == "take_cache" else f"{ast.unparse(node.func)}("
            if call in sites:
                sites[call].append(f"{name}:{node.lineno}")
    return [f"{call} at {', '.join(places) or 'no place'}"
            for call, places in sites.items() if len(places) != 1]


def test_finds_a_second_skeleton():
    sources = {
        "a.py": "check_batch(s)\nhv = scan(ops)\nfwd.take_cache()\nmodel.scan(x)\n"
                "BatchForward.from_valid(y)\n",
        "b.py": "def scan_backward(x):\n    return x\nf.take_cache()\nfrom_valid(y)\n",
    }
    assert second_skeletons(sources) == ["scan_backward( at no place",
                                         ".take_cache() at a.py:3, b.py:3"]


def test_one_batch_skeleton():
    # KQN and DKT differ only in their heads: the checks, the scan, the
    # result and the backward each run from one place.
    assert second_skeletons({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []
