"""The CSV table codec shared by every artifact, and the one check of a
config dataclass."""
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kqn import tables
from kqn.analysis import (
    pairwise_distances,
    read_clusters_csv,
    read_dendrogram_csv,
    read_distance_csv,
    read_heatmap_csv,
    write_distance_csv,
)
from kqn.checkpoint import load_skill_vectors
from kqn.data import SyntheticSpec
from kqn.dkt import DktConfig
from kqn.model import ModelConfig
from kqn.tables import read_table, write_table, write_text
from kqn.training import TrainConfig, read_metrics_csv

from helpers import random_unit_vectors, traced_peak

# Values whose repr switches notation or needs all 17 digits.
HARD_FLOATS = [0.1, 1 / 3, 1e16, 9999999999999998.0, 1e-4, 9.999e-5, 1e-5, 5e-324,
               1.7976931348623157e308, -0.0, 2.0 ** 60]


def test_cells_are_written_as_repr_of_float_and_str_of_int(tmp_path):
    # Under NumPy 2, repr(np.float64(x)) prints "np.float64(x)"; the cells
    # must carry the bytes of repr(float(x)) whether the value arrives as a
    # Python or a NumPy scalar.
    path = tmp_path / "t.csv"
    big = 2 ** 63 - 1
    rows = [[i, x, np.float64(x), np.int64(i)] for i, x in enumerate(HARD_FLOATS)]
    rows.append([big, 1.0, np.float64(2.0), np.int64(big)])
    write_table(path, ("id", "py", "np", "(a,b)"), rows)
    lines = path.read_bytes().decode().split("\n")
    assert lines[0] == 'id,py,np,"(a,b)"'
    for line, (i, x, y, j) in zip(lines[1:], rows):
        assert line == f"{int(i)},{x!r},{float(y)!r},{int(j)}"
    assert lines[-1] == ""
    head, ids, values = read_table(path, "test", ("id", "py", "np", "(a,b)"))
    assert head == ["id", "py", "np", "(a,b)"]
    assert ids == [r[0] for r in rows]
    assert values.shape == (len(rows), 3)
    assert np.array_equal(values[:-1, 0], HARD_FLOATS)


def test_header_checks(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("skill", "x1", "x2"), [(1, 0.5, 0.25)])
    assert read_table(path, "vector", ("skill", ...))[0] == ["skill", "x1", "x2"]
    for header in [("skill", "x1"), ("skill", "x1", "x2", "x3"), ("id", ...)]:
        with pytest.raises(ValueError, match=r"t\.csv is not a vector CSV$"):
            read_table(path, "vector", header)
    path.write_text("")
    with pytest.raises(ValueError, match="is not a vector CSV"):
        read_table(path, "vector", ("skill", ...))


def test_every_row_needs_the_header_width(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("skill,1,2,3\n1,0.0,1.0,2.0\n2,1.0,0.0\n")
    with pytest.raises(ValueError, match=r"t\.csv line 3: 3 cells, the header has 4$"):
        read_table(path, "distance", ("skill", ...))


def test_empty_table_keeps_its_width(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b", "c"), [])
    assert path.read_text() == "a,b,c\n"
    _, ids, values = read_table(path, "test", ("a", "b", "c"))
    assert ids == [] and values.shape == (0, 2)


@settings(deadline=None)
@given(
    st.lists(st.integers(-(2 ** 63) + 1, 2 ** 63 - 1), min_size=1, max_size=5),
    st.integers(0, 4),
    st.data(),
)
def test_round_trip_is_exact(tmp_path_factory, ids, width, data):
    values = data.draw(st.lists(
        st.lists(st.floats(allow_nan=False), min_size=width, max_size=width),
        min_size=len(ids), max_size=len(ids),
    ))
    path = tmp_path_factory.mktemp("t") / "t.csv"
    header = ["id", *(f"v{k}" for k in range(width))]
    write_table(path, header, ([i, *row] for i, row in zip(ids, values)))
    _, back_ids, back = read_table(path, "test", header)
    assert back_ids == ids
    assert np.array_equal(back, np.array(values).reshape(len(ids), width))


def test_an_interrupted_write_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    write_text(path, ["old\n"])

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(tables.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_table(path, ("a",), [(1,)])
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_a_row_that_raises_leaves_no_file(tmp_path):
    def rows():
        yield (1, 0.5)
        raise ValueError("row 2")

    with pytest.raises(ValueError, match="row 2"):
        write_table(tmp_path / "t.csv", ("a", "b"), rows())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
def test_json_artifacts_refuse_what_json_cannot_hold(tmp_path, value):
    # json.dumps would write NaN or Infinity, which no JSON reader accepts.
    path = tmp_path / "out" / "eval.json"
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
        tables.write_json(path, {"loss": value})
    assert not (tmp_path / "out").exists()


def test_rows_are_written_as_they_come(tmp_path):
    # The 600 x 600 distance file is 6.8 MB of text; writing it may hold
    # its pending cell strings, never all of its lines at once.
    dmat = pairwise_distances(random_unit_vectors(600, 8, np.random.default_rng(0)), "euclidean")
    tracemalloc.start()
    try:
        write_distance_csv(tmp_path / "d.csv", dmat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak


def test_distance_writer_holds_fewer_strings_than_the_upper_triangle(tmp_path):
    # The writer keeps only the cells still to be written left of the
    # diagonal, at most n^2/4 strings; holding every formatted cell of the
    # upper triangle, the bound this guard is measured against, takes
    # about twice that.
    dmat = pairwise_distances(random_unit_vectors(400, 8, np.random.default_rng(3)), "cosine")
    v = dmat.values
    upper = traced_peak(lambda: [list(map(repr, v[k, k:].tolist())) for k in range(dmat.n)])
    writer = traced_peak(lambda: write_distance_csv(tmp_path / "d.csv", dmat))
    assert writer < upper, (writer, upper)


@pytest.mark.parametrize("good", [3, -7, 2 ** 70, np.int64(3), np.int8(-1), np.uint64(5)])
def test_integer_rule_takes_python_and_numpy_integers(good):
    tables.check_integer(good, "count")


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), 2.0, 2.5, np.float64(2.0),
                                 "4", None])
def test_integer_rule_refuses_bools_floats_and_others(bad):
    message = re.escape(f"count must be an integer, got {bad!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        tables.check_integer(bad, "count")
    with pytest.raises(ValueError, match=r"^size must be a positive integer, got "):
        tables.check_integer(bad, "size", "a positive integer")


# Each reader of a table artifact, with a good file for it.
READERS = {
    "distance": (read_distance_csv, "skill,1,2\n1,0.0,1.0\n2,1.0,0.0\n"),
    "clusters": (read_clusters_csv, "skill,label\n1,1\n2,2\n"),
    "skill-vector": (load_skill_vectors, "skill,x1,x2\n1,0.6,0.8\n2,1.0,0.0\n"),
    "metrics": (read_metrics_csv, "epoch,train_loss,valid_auc\n1,0.69,0.5\n2,0.68,0.6\n"),
    "dendrogram": (read_dendrogram_csv, "a,b,height,size\n1,2,0.5,2\n3,4,1.0,3\n"),
    "heatmap": (read_heatmap_csv, 'skill,"(1,1)","(2,0)"\n1,50.0,60.0\n2,40.0,30.0\n'),
}


@pytest.mark.parametrize("column", ["id", "value"])
@pytest.mark.parametrize("reader", READERS)
def test_a_bad_cell_names_its_file_and_line(tmp_path, reader, column):
    # NumPy's own message names neither the file nor the file's line.
    read, text = READERS[reader]
    path = tmp_path / "t.csv"
    path.write_text(text)
    read(path)
    lines = text.splitlines()
    cells = lines[2].split(",")
    at = 0 if column == "id" else len(cells) - 1
    cells[at] = "q" if column == "id" else "abc"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    kind = "int" if column == "id" or reader == "clusters" else "float"
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{path} line 3: cannot read {cells[at]!r} as {kind}"


@pytest.mark.parametrize("reader", READERS)
def test_a_value_only_python_reads_names_its_file_and_line(tmp_path, reader):
    # int() and float() read 1_0; np.loadtxt, which reads the values, does not.
    read, text = READERS[reader]
    lines = text.splitlines()
    lines[1] = lines[1].rpartition(",")[0] + ",1_0"
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    kind = "int" if reader == "clusters" else "float"
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{path} line 2: cannot read '1_0' as {kind}"


def test_a_bad_distance_header_cell_names_its_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("skill,1,q\n1,0.0,1.0\n2,1.0,0.0\n")
    with pytest.raises(ValueError) as exc:
        read_distance_csv(path)
    assert str(exc.value) == f"{path} line 1: cannot read 'q' as int"


# Id cells that int() reads and the ASCII token rule refuses: int() takes
# 2_0 as 20, and a fullwidth, Arabic-Indic or no-break-space-padded 2 as 2.
PYTHON_ONLY_IDS = ["2_0", "\uff12", "\u0662", "2\u00a0"]
# The READERS entry and the line the id is on.
ID_READERS = {
    "distance-row": ("distance", 3),
    "distance-header": ("distance", 1),
    "clusters": ("clusters", 3),
    "skill-vector": ("skill-vector", 3),
}


@pytest.mark.parametrize("cell", PYTHON_ONLY_IDS)
@pytest.mark.parametrize("where", ID_READERS)
def test_an_id_only_python_reads_is_refused(tmp_path, where, cell):
    reader, line = ID_READERS[where]
    read, text = READERS[reader]
    lines = text.splitlines()
    if line == 1:
        lines[0] = lines[0].replace(",2", f",{cell}")
    else:
        lines[2] = cell + lines[2][1:]
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value) == f"{path} line {line}: cannot read {cell!r} as int"


def test_ids_may_be_signed_and_padded_with_spaces_or_tabs(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("skill,label\n +1\t,1\n\t2 ,2\n")
    ids, labels = read_clusters_csv(path)
    assert ids.tolist() == [1, 2] and labels.tolist() == [1, 2]
    path.write_text("skill, +1,\t2\n1,0.0,1.0\n2,1.0,0.0\n")
    assert read_distance_csv(path)[1] == [1, 2]


def test_the_id_rule_is_the_dataset_token_rule():
    from kqn import data

    assert data._TOKENS.pattern == rf"{tables.INT_TOKEN}(?:,{tables.INT_TOKEN})*"


# A valid instance of each config dataclass, by keyword.
CONFIGS = {
    ModelConfig: dict(num_skills=5, dim=4),
    DktConfig: dict(num_skills=5),
    TrainConfig: dict(),
    SyntheticSpec: dict(num_students=3, num_skills=4, num_concepts=2, steps_per_student=5),
}
BOUNDS = {"num_skills": 2, "steps_per_student": 2, "seed": 0}


def bad_fields():
    """(config class, field, value, expected message start) for a bool in
    each int field, a nan in each float field and each int field one under
    its lower bound."""
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            if f.type == "int":
                low = BOUNDS.get(f.name, 1)
                yield cls, f.name, True, f"config field {f.name!r} must be of type int"
                yield cls, f.name, low - 1, f"{f.name} must be >= {low}, got {low - 1}"
            elif f.type == "float":
                rule = "in (0, 1]" if f.name == "keep_prob" else "finite"
                yield cls, f.name, float("nan"), f"{f.name} must be {rule}, got nan"


BAD_FIELDS = list(bad_fields())


@pytest.mark.parametrize("cls, field, value, message", BAD_FIELDS,
                         ids=[f"{cls.__name__}-{field}-{value}" for cls, field, value, _ in BAD_FIELDS])
def test_every_config_checks_its_fields(cls, field, value, message):
    cls(**CONFIGS[cls])
    with pytest.raises(ValueError) as exc:
        cls(**{**CONFIGS[cls], field: value})
    assert re.match(re.escape(message), str(exc.value))
