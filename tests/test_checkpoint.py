import base64
import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kqn.checkpoint
from kqn.checkpoint import (
    FORMAT_VERSION,
    _decode,
    _encode,
    export_skill_vectors,
    load_checkpoint,
    load_skill_vectors,
    save_checkpoint,
)
from kqn.dkt import DktConfig, DktModel
from kqn.model import ModelConfig, encode_skill_table, init_params
from kqn.training import TrainConfig


# The float64 extremes: smallest subnormal, largest subnormal, smallest
# normal, the largest finite magnitudes and a signed zero.
EXTREMES = [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308, -0.0]


def make_kqn(seed=0):
    config = ModelConfig(num_skills=6, dim=3, rnn_kind="gru", rnn_hidden=4, mlp_hidden=5,
                         keep_prob=0.7)
    return config, init_params(config, np.random.default_rng(seed))


def saved_doc(tmp_path):
    config, params = make_kqn()
    path = tmp_path / "model.json"
    save_checkpoint(path, config, params)
    return path, json.loads(path.read_text())


def rewrite(path, doc):
    path.write_text(json.dumps(doc))
    return path


def bits(array):
    return array.view("<u8")


class TestParameterCodec:
    @settings(deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0),
                      elements=st.sampled_from(EXTREMES) | st.floats(allow_nan=False,
                                                                     allow_infinity=False)))
    @example(np.array(EXTREMES).reshape(2, 3))
    @example(np.empty((0, 4)))
    @example(np.array(-0.0))
    def test_round_trip_is_bit_exact(self, value):
        entry = json.loads(json.dumps(_encode(value)))
        back = _decode("p", entry)
        assert back.shape == value.shape
        assert back.dtype == np.float64
        assert np.array_equal(bits(back), bits(value))
        assert back.flags.writeable

    def test_saved_json_holds_no_float_lists(self, tmp_path):
        _, doc = saved_doc(tmp_path)

        def floats(node):
            if isinstance(node, dict):
                return any(floats(v) for v in node.values())
            if isinstance(node, list):
                return any(isinstance(v, float) or floats(v) for v in node)
            return False

        assert not floats(doc)
        for entry in doc["params"].values():
            assert entry.keys() == {"dtype", "shape", "data"}
            assert entry["dtype"] == "<f8"
            assert isinstance(entry["data"], str)

    def test_version_1_document_refused(self, tmp_path):
        _, params = make_kqn()
        path, doc = saved_doc(tmp_path)
        doc["format_version"] = 1
        doc["params"] = {k: v.tolist() for k, v in params.items()}
        with pytest.raises(ValueError, match="unsupported checkpoint format_version 1$"):
            load_checkpoint(rewrite(path, doc))

    @pytest.mark.parametrize("data, message", [
        ("not base64!", "'proj_w' data is not base64"),
        ("AAA", "'proj_w' data is not base64"),
        (None, "'proj_w' data is not base64"),
        ("AAAA", r"'proj_w' holds 3 bytes, shape \[3, 4\] needs 96$"),
        (base64.b64encode(bytes(8 * 11)).decode(), r"'proj_w' holds 88 bytes, shape \[3, 4\]"),
    ])
    def test_bad_data_is_a_value_error(self, tmp_path, data, message):
        path, doc = saved_doc(tmp_path)
        doc["params"]["proj_w"]["data"] = data
        with pytest.raises(ValueError, match=message):
            load_checkpoint(rewrite(path, doc))


class TestCheckpointRoundTrip:
    def test_kqn_bit_exact(self, tmp_path):
        config, params = make_kqn()
        path = tmp_path / "model.json"
        save_checkpoint(path, config, params)
        kind, config2, params2 = load_checkpoint(path)
        assert kind == "kqn"
        assert config2 == config
        assert isinstance(config2, ModelConfig)
        assert set(params2) == set(params)
        for k in params:
            assert np.array_equal(params[k], params2[k])

    def test_dkt_bit_exact(self, tmp_path):
        config = DktConfig(num_skills=4, hidden=3, keep_prob=1.0)
        model = DktModel(config)
        params = model.init_params(np.random.default_rng(1))
        path = tmp_path / "dkt.json"
        save_checkpoint(path, config, params)
        kind, config2, params2 = load_checkpoint(path)
        assert kind == "dkt"
        assert config2 == config
        assert isinstance(config2, DktConfig)
        for k in params:
            assert np.array_equal(params[k], params2[k])

    def test_unknown_kind_rejected_on_save(self, tmp_path):
        # The kind follows from the config's type, and only a model config
        # has one; nothing is written.
        _, params = make_kqn()
        path = tmp_path / "x.json"
        with pytest.raises(ValueError) as exc:
            save_checkpoint(path, TrainConfig(), params)
        assert str(exc.value) == "config must be a ModelConfig or DktConfig, got TrainConfig"
        assert not path.exists()

    def test_non_finite_params_rejected(self, tmp_path):
        config, params = make_kqn()
        params["proj_w"][0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(tmp_path / "x.json", config, params)

    def test_version_mismatch_rejected(self, tmp_path):
        config, params = make_kqn()
        path = tmp_path / "model.json"
        save_checkpoint(path, config, params)
        doc = json.loads(path.read_text())
        doc["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_checkpoint(path)

    def test_foreign_model_kind_rejected_on_load(self, tmp_path):
        config, params = make_kqn()
        path = tmp_path / "model.json"
        save_checkpoint(path, config, params)
        doc = json.loads(path.read_text())
        doc["model"] = "bkt"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown model"):
            load_checkpoint(path)


def documented(kind, config, params):
    """The checkpoint document as the module docstring describes it,
    built without the module's own encoder."""
    return {
        "format_version": 2,
        "model": kind,
        "config": dataclasses.asdict(config),
        "params": {key: {"dtype": "<f8", "shape": list(value.shape),
                         "data": base64.b64encode(value.astype("<f8").tobytes()).decode()}
                   for key, value in params.items()},
    }


def saved_case(kind, variant):
    """(kind, config, params) of a KQN model with an rnn_kind or a DKT
    model with an input_mode."""
    rng = np.random.default_rng(2)
    if kind == "kqn":
        config = ModelConfig(num_skills=7, dim=3, rnn_kind=variant, rnn_hidden=4, mlp_hidden=5,
                             keep_prob=0.7)
        return kind, config, init_params(config, rng)
    config = DktConfig(num_skills=5, hidden=3, input_mode=variant, keep_prob=1)
    table = np.abs(rng.normal(size=(5, 2))) if variant == "hybrid" else None
    return kind, config, DktModel(config, skill_table=table).init_params(rng)


class TestSavedBytes:
    @pytest.mark.parametrize("case", [("kqn", "lstm"), ("kqn", "gru"), ("dkt", "onehot"),
                                      ("dkt", "hybrid")], ids="_".join)
    def test_file_is_the_documented_json(self, tmp_path, case):
        kind, config, params = saved_case(*case)
        path = tmp_path / "model.json"
        save_checkpoint(path, config, params)
        expected = json.dumps(documented(kind, config, params), indent=1) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_names_that_look_like_a_data_slot(self, tmp_path):
        # Parameter names holding quotes, "data" or null, and parameters of
        # every rank and of no values, still give the documented bytes.
        config, _ = make_kqn()
        rng = np.random.default_rng(3)
        params = {"data": rng.normal(size=(2, 3)), 'x"data': np.array(-0.0),
                  '"data": null': rng.normal(size=4), "e": np.empty((0, 4)),
                  "t": rng.normal(size=(2, 3)).T}
        path = tmp_path / "model.json"
        save_checkpoint(path, config, params)
        expected = json.dumps(documented("kqn", config, params), indent=1) + "\n"
        assert path.read_text() == expected

    def test_each_payload_is_its_own_chunk(self, tmp_path, monkeypatch):
        # The payloads reach write_text once each, as they are, and no
        # chunk holds the whole document.
        kind, config, params = saved_case("kqn", "lstm")
        seen = []

        def spy(path, chunks):
            seen.append(list(chunks))
            return write_text(path, seen[-1])

        write_text = kqn.checkpoint.write_text
        monkeypatch.setattr(kqn.checkpoint, "write_text", spy)
        path = tmp_path / "model.json"
        save_checkpoint(path, config, params)
        [chunks] = seen
        payloads = [entry["data"] for entry in documented(kind, config, params)["params"].values()]
        assert [c for c in chunks if c in payloads] == payloads
        assert not any(p in c for c in chunks if c not in payloads for p in payloads)
        assert "".join(chunks) == path.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


def nan_bytes(n):
    return base64.b64encode(np.full(n, np.nan).tobytes()).decode()


# Each edit of a saved make_kqn() document and the error it must raise.
REFUSED = {
    "nan_entry": (lambda d: d["params"]["proj_b"].update(data=nan_bytes(3)),
                  "parameter 'proj_b' contains non-finite values"),
    "float32": (lambda d: d["params"]["proj_b"].update(dtype="<f4"), "'proj_b' has dtype '<f4'"),
    "string_size": (lambda d: d["params"]["proj_b"].update(shape=["3"]),
                    "'proj_b' has shape .* not a list"),
    "negative_size": (lambda d: d["params"]["proj_b"].update(shape=[-3]),
                      "'proj_b' has shape .* not a list"),
    "no_dtype": (lambda d: d["params"]["proj_b"].pop("dtype"), "'proj_b' must be an object of"),
    "extra_parameter": (lambda d: d["params"].update(extra=d["params"]["proj_b"]),
                        "unknown parameters: 'extra'"),
    "params_list": (lambda d: d.update(params=[]), "params must be an object"),
    "bool_for_int": (lambda d: d["config"].update(rnn_hidden=True),
                     "config field 'rnn_hidden' must be of type int, got True"),
    "string_for_float": (lambda d: d["config"].update(keep_prob="0.7"),
                         "'keep_prob' must be of type float"),
    "keep_prob_zero": (lambda d: d["config"].update(keep_prob=0), r"keep_prob must be in \(0, 1\]"),
    "missing_field": (lambda d: d["config"].pop("mlp_hidden"), "config lacks field 'mlp_hidden'"),
    "config_null": (lambda d: d.update(config=None), "config must be an object"),
    "model_list": (lambda d: d.update(model=["kqn"]), "unknown model kind"),
    # Refused before init_params would allocate biases of that size.
    "huge_size": (lambda d: d["config"].update(num_skills=10 ** 12),
                  "config field 'num_skills' is 1000000000000, the file stores 272 parameter values"),
}


class TestDocumentChecks:
    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_naming_the_file(self, tmp_path, case):
        edit, message = REFUSED[case]
        path, doc = saved_doc(tmp_path)
        edit(doc)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_checkpoint(rewrite(path, doc))

    @pytest.mark.parametrize("text, message", [
        (b"[1]", "checkpoint file {path} must hold a JSON object"),
        (b"null", "checkpoint file {path} must hold a JSON object"),
        (b'{"model": "kqn",}', "{path}: Expecting property name enclosed in double quotes"),
        (b"\xff{}", "{path}: 'utf-8' codec can't decode byte 0xff"),
    ], ids=["list", "null", "malformed_json", "undecodable"])
    def test_file_that_is_no_json_object(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}") as exc:
            load_checkpoint(path)
        assert str(exc.value).count(str(path)) == 1

    def test_an_int_serves_for_keep_prob(self, tmp_path):
        path, doc = saved_doc(tmp_path)
        doc["config"]["keep_prob"] = 1
        _, config, _ = load_checkpoint(rewrite(path, doc))
        assert config.keep_prob == 1

    def test_hybrid_dkt_keeps_its_table_width(self, tmp_path):
        # The stored skill table gives the input width.
        table = np.eye(4)[:, :2]
        config = DktConfig(num_skills=4, hidden=3, input_mode="hybrid")
        params = DktModel(config, skill_table=table).init_params(np.random.default_rng(1))
        path = tmp_path / "dkt.json"
        save_checkpoint(path, config, params)
        loaded = load_checkpoint(path)[2]
        assert loaded["rnn_wx"].shape == (12, 6)
        assert loaded["skill_table"].tobytes() == table.tobytes()
        doc = json.loads(path.read_text())
        doc["params"]["rnn_wx"] = _encode(params["rnn_wx"][:, :4])
        with pytest.raises(ValueError, match=r"'rnn_wx' has shape \(12, 4\), the config gives"):
            load_checkpoint(rewrite(path, doc))


class TestSkillVectorCsv:
    def test_round_trip_is_exact(self, tmp_path):
        config, params = make_kqn(seed=2)
        table, _ = encode_skill_table(params)
        path = tmp_path / "vectors.csv"
        export_skill_vectors(path, params, config)
        ids, back = load_skill_vectors(path)
        assert ids.tolist() == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(back, table)
        assert path.read_text().splitlines()[0] == "skill,x1,x2,x3"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "vectors.csv"
        path.write_text(f"skill,x1,x2\n1,0.6,0.8\n7,1.0,{cell}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: skill 7 has a non-finite"):
            load_skill_vectors(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            load_skill_vectors(path)
