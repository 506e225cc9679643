import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import kqn.data
from kqn.data import (
    Dataset,
    ResponseSequence,
    SyntheticSpec,
    concept_of_skill,
    generate_synthetic,
    load_dataset,
    parse_triplets,
    read_sidecar,
    relabel_skills,
    save_dataset,
    serialize_triplets,
)
from kqn.ops import sigmoid
from kqn.training import TrainConfig

SAMPLE = """3
1,2,3
0,1,1
2
2,2
1,0
"""


class TestParseTriplets:
    def test_well_formed_sample(self):
        ds = parse_triplets(SAMPLE)
        assert ds.num_skills == 3
        assert ds.num_students == 2
        assert ds.sequences[0].responses.tolist() == [[1, 0], [2, 1], [3, 1]]
        assert ds.sequences[1].responses.tolist() == [[2, 1], [2, 0]]

    def test_blank_lines_and_trailing_commas_tolerated(self):
        messy = "2,\n 5 , 9,\n1,0\n\n\n1\n9\n1\n"
        ds = parse_triplets(messy)
        assert ds.num_students == 2
        # sparse ids are kept as written; num_skills is the largest
        assert ds.num_skills == 9
        assert ds.sequences[0].responses[:, 0].tolist() == [5, 9]
        assert ds.sequences[1].responses[:, 0].tolist() == [9]

    def test_dense_file_parses_to_itself(self):
        assert serialize_triplets(parse_triplets(SAMPLE)) == SAMPLE

    def test_non_binary_correctness_raises_with_line_number(self):
        text = "1\n2\n1\n2\n1,2\n0,3\n"
        with pytest.raises(ValueError, match="^line 6: correctness flags must be 0 or 1"):
            parse_triplets(text)

    def test_length_mismatch_raises_with_line_number(self):
        text = "3\n1,2\n0,1,1\n"
        with pytest.raises(ValueError, match="line 2"):
            parse_triplets(text)
        text = "2\n1,2\n0\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_triplets(text)

    def test_bad_count_and_truncated_record_raise(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_triplets("x\n1\n1\n")
        with pytest.raises(ValueError, match="truncated"):
            parse_triplets("2\n1,2\n")
        with pytest.raises(ValueError, match="positive"):
            parse_triplets("0\n\n\n")

    def test_non_integer_token_raises(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_triplets("1\na\n1\n")
        for skill in (0, 2**63):
            with pytest.raises(ValueError, match=r"line 2: skill ids must be in 1\.\.2\*\*63-1"):
                parse_triplets(f"1\n{skill}\n1\n")

    # Tokens int() reads and the ASCII token rule (tables.INT_TOKEN) refuses:
    # int() takes 2_0 as 20, and a fullwidth or no-break-space-padded 2 as 2.
    @pytest.mark.parametrize("token", ["2_0", "\uff12", "2\u00a0", "\u00a02"])
    def test_a_token_only_python_reads_is_refused_as_written(self, token):
        with pytest.raises(ValueError) as exc:
            parse_triplets(f"3\n1,{token},3\n0,1,0\n")
        assert str(exc.value) == f"line 2: skill token {token!r} is not an integer"

    def test_a_flag_only_python_reads_is_refused_as_written(self):
        with pytest.raises(ValueError) as exc:
            parse_triplets("2\n4,5\n0,1_0\n")
        assert str(exc.value) == "line 3: correctness token '1_0' is not an integer"

    # The first text is plain, so the array path reads its counts; the
    # second ends in a lone line, so only the token-by-token path does.
    @pytest.mark.parametrize("tail", ["", "x\n"])
    @pytest.mark.parametrize("count", ["2_0", "\uff12\uff10", "20\u00a0"])
    def test_a_count_only_python_reads_is_refused(self, count, tail):
        text = f"{count}\n{','.join(['1'] * 20)}\n{','.join(['0'] * 20)}\n{tail}"
        with pytest.raises(ValueError) as exc:
            parse_triplets(text)
        assert str(exc.value) == f"line 1: expected a response count, got {count!r}"


# Triplet texts that are mostly well formed: counts, ids and flags are
# right nine times in ten, else drawn from tokens that fromstring and int()
# read differently; separators and line ends vary the same way, and a text
# may be cut anywhere.
_ODD_TOKENS = st.sampled_from([
    "", " ", "+", "-", "+5", "- 1", "+ 1", "1_0", "٣", "\t1", "1 2", "007", "x",
    str(2**63), str(2**63 - 1), str(-2**63 - 1), str(-2**63), "1" + "0" * 19, "0x10",
    "1.0", "\x00", "\xa01", "0" * 5000 + "1",
])
_SEPARATORS = [",", ",", ",", ",", ", ", " ,", ",\t", ",,"]
_LINE_ENDS = ["\n", "\n", "\n", "\n", "\r\n", "\r", "\n\n", ",\n", " \n"]


@st.composite
def _triplet_texts(draw):
    def pick(good, odd=_ODD_TOKENS):
        return draw(odd) if draw(st.integers(0, 9)) == 0 else good

    def line(tokens):
        out = ""
        for k, tok in enumerate(tokens):
            out += (draw(st.sampled_from(_SEPARATORS)) if k else "") + tok
        return out + draw(st.sampled_from(_LINE_ENDS))

    text = ""
    for _ in range(draw(st.integers(0, 4))):
        t = draw(st.integers(1, 5))
        n = t + pick(0, st.sampled_from([-1, 1]))
        text += pick(str(t)) + draw(st.sampled_from(_LINE_ENDS))
        text += line([pick(str(draw(st.integers(1, 60)))) for _ in range(n)])
        text += line([pick(str(draw(st.integers(0, 1)))) for _ in range(n)])
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text



def assert_parses_like_reference(text):
    """parse_triplets gives the oracle's arrays and num_skills, or raises
    the oracle's error text."""
    try:
        expected = helpers.reference_parse_triplets(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_triplets(text)
        assert str(got.value) == str(exc)
        return
    ds = parse_triplets(text)
    assert ds.num_skills == expected.num_skills
    assert [s.responses.dtype for s in ds.sequences] == \
        [s.responses.dtype for s in expected.sequences]
    helpers.assert_same_sequences(ds.sequences, expected.sequences)


ORACLE_CASES = {
    # values at and beyond the int64 limits, as ids, flags and counts
    "id_2**63": f"1\n{2**63}\n1\n",
    "id_2**63-1": f"2\n{2**63 - 1},3\n1,0\n",
    "id_-2**63-1": f"1\n{-2**63 - 1}\n1\n",
    "id_-2**63": f"1\n{-2**63}\n1\n",
    "flag_2**63": f"1\n3\n{2**63}\n",
    "flag_-2**63-1": f"1\n3\n{-2**63 - 1}\n",
    "flag_2**63-1": f"1\n3\n{2**63 - 1}\n",
    "flag_20_digits": "2\n3,4\n0,10000000000000000000\n",
    "flag_20_digits_saturated": "2\n3,4\n0,99999999999999999999\n",
    "count_2**63": f"{2**63}\n1\n1\n",
    # tokens int() reads and fromstring reads otherwise or not at all
    "plus_sign": "2\n+5,3\n+1,-0\n",
    "underscore": "2\n1_0,3\n0,1\n",
    "arabic_indic_digit": "2\n٣,3\n0,1\n",
    "fullwidth_digit": "1\n５\n1\n",
    "tabs": "2\n\t5\t,\t3\n1\t,0\n",
    "space_inside_token": "2\n1 2,3\n0,1\n",
    "empty_token": "2\n1,,2\n0,1\n",
    "empty_token_counted": "3\n1,,2\n0,1,1\n",
    "trailing_comma_counted": "3\n1,2,\n0,1,1\n",
    "leading_comma_counted": "3\n,1,2\n0,1,1\n",
    "trailing_commas": "2,\n1,2,\n0,1,\n",
    "trailing_comma_at_end": "2\n1,2\n0,1,",
    "leading_comma": "2\n,1,2\n0,1\n",
    "blank_token": "3\n1, ,2\n0,1,1\n",
    "blank_flag": "3\n1,2,3\n0, ,1\n",
    "sign_space_digit": "2\n+ 5,3\n- 0,1\n",
    "sign_only": "2\n1,2\n0,+\n",
    "leading_zeros": "2\n007,010\n00,01\n",
    "zeros_beyond_int_digit_limit": "1\n" + "0" * 5000 + "3\n1\n",
    "hex_float_exponent": "3\n0x10,1.0,1e3\n0,1,1\n",
    "nul": "2\n1\x00,2\n0,1\n",
    "nul_at_end": "2\n1,2\n0,1\x00",
    "nbsp": "2\n1\xa0,2\n0,1\n",
    "unicode_minus": "1\n−1\n1\n",
    # line structure
    "blank_line_inside_record": "2\n1,2\n\n0,1\n",
    "blank_lines_between_records": "\n\n1\n4\n1\n\n \t\n2\n5,6\n0,1\n\n",
    "truncated_last_record": "1\n4\n1\n2\n5,6\n",
    "crlf": "1\r\n4\r\n1\r\n2\r\n5,6\r\n0,1\r\n",
    "cr_and_unicode_line_breaks": "1\r4\x851 2\x0c5,6\x1d0,1 ",
    "unicode_line_breaks_inside_lines": "2\r\n4\x1c5,6\r\n1\u2028,0\r\n",
    "other_whitespace_separators": "1\n4\n1\n\xa0\n1\n5\n0\n\x0c\n",
    "space_and_tab_separators": " \n1\n4\n1\n\t \n1\n5\n0\n",
    "bad_token_then_bad_header": "2\n1,x\n0,1\nh\n1\n1\n",
    "bad_header_then_bad_token": "h\n1\n1\n2\n1,x\n0,1\n",
    "count_mismatch_after_good_records": "1\n4\n1\n3\n1,2\n0,1\n",
    "zero_count": "0\n\n\n",
    "negative_count": "-1\n1\n1\n",
    "empty": "",
    "blank_only": "\n \n\t\n",
    "plain": SAMPLE,
}


class TestParseMatchesReference:
    @pytest.mark.parametrize("text", list(ORACLE_CASES.values()), ids=list(ORACLE_CASES))
    def test_cases(self, text):
        assert_parses_like_reference(text)

    @settings(deadline=None, max_examples=400)
    @given(_triplet_texts())
    def test_structured_texts(self, text):
        assert_parses_like_reference(text)

    @settings(deadline=None, max_examples=300)
    @given(st.text(alphabet="0123,-+ \t\n\r_x٣\x00\x0c\x85\xa0", max_size=40))
    def test_random_texts(self, text):
        assert_parses_like_reference(text)

    def test_plain_text_is_not_read_token_by_token(self, monkeypatch):
        # Signs, spaces, tabs, CRLF, a trailing comma on a count and blank
        # lines between records are all converted in C.
        def refuse(lines):
            raise AssertionError("read token by token")

        monkeypatch.setattr(kqn.data, "_read_exact", refuse)
        ds = parse_triplets("\r\n2,\r\n 5 ,\t+9\r\n1, 0\r\n\r\n\r\n1\r\n0009\r\n-0\r\n")
        assert [helpers.pairs(s) for s in ds.sequences] == [((5, 1), (9, 0)), ((9, 0),)]
        desk, _ = generate_synthetic(SyntheticSpec(num_students=20, num_skills=50,
                                                   num_concepts=5, steps_per_student=50))
        assert parse_triplets(serialize_triplets(desk)).num_responses == 1000
        assert parse_triplets("").num_students == 0

    @pytest.mark.parametrize("pad", ["\xa0", "\u3000", "\x0c", "\x0b", "\x85"])
    def test_a_separator_of_other_whitespace_is_not_blank(self, pad):
        # Only spaces and tabs make a blank line: each of these separator
        # lines let a 2-student file parse.
        for text, line in ((f"{pad}\n1\n4\n1\n", 1), (f"1\n4\n1\n{pad}\n2\n5,6\n0,1\n", 4)):
            with pytest.raises(ValueError) as exc:
                parse_triplets(text)
            assert str(exc.value) == f"line {line}: expected a response count, got {pad!r}"
        assert kqn.data._read_plain(["1", "4", "1", pad, "1", "5", "0"]) is None
        assert kqn.data._read_plain(["1", "4", "1", " \t", "1", "5", "0"]) is not None

    @pytest.mark.parametrize("brk", ["\x0c", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_lines_end_only_at_lf_crlf_and_cr(self, brk):
        # splitlines() ended a line at each of these, so a form feed after
        # the skills was refused as 0 flags on line 3.
        with pytest.raises(ValueError) as exc:
            parse_triplets(f"2\n4,5{brk}\n1,0\n")
        assert str(exc.value) == f"line 2: skill token {'5' + brk!r} is not an integer"
        ds = parse_triplets("1\r4\r1\r\n\r\n2\n5,6\r0,1")
        assert [helpers.pairs(s) for s in ds.sequences] == [((4, 1),), ((5, 0), (6, 1))]

    def test_sequences_are_row_slices_of_one_array(self):
        ds = parse_triplets(SAMPLE)
        first, second = (s.responses for s in ds.sequences)
        assert first.base is not None and first.base is second.base
        assert first.flags.c_contiguous and second.flags.c_contiguous
        assert first.dtype == second.dtype == np.dtype(int)

    @pytest.mark.parametrize("text", [SAMPLE, "2\n1,,x\n0,1\n", "2\n1, ,2\n0,1\n"])
    def test_warning_filters_unchanged(self, text):
        before = list(warnings.filters)
        try:
            parse_triplets(text)
        except ValueError:
            pass
        assert warnings.filters == before


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = parse_triplets(SAMPLE, name="sample")
        path = tmp_path / "sample.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert (back.name, back.num_skills) == (ds.name, ds.num_skills)
        helpers.assert_same_sequences(back.sequences, ds.sequences)

    def test_sidecar_num_skills_wins(self, tmp_path):
        seqs = (
            ResponseSequence(0, ((2, 1), (5, 0))),
        )
        ds = Dataset(name="sparse", num_skills=10, sequences=seqs)
        path = tmp_path / "sparse.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.num_skills == 10
        # original sparse ids survive the round trip
        assert back.sequences[0].responses[:, 0].tolist() == [2, 5]

    def test_without_sidecar_ids_are_kept(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("2\n4,8\n1,0\n")
        back = load_dataset(path)
        assert back.num_skills == 8
        assert back.sequences[0].responses[:, 0].tolist() == [4, 8]

    def test_skill_id_beyond_sidecar_count_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n7\n1\n")
        (tmp_path / "bad.txt.meta.json").write_text('{"num_skills": 3}\n')
        with pytest.raises(ValueError, match="exceeds"):
            load_dataset(path)

    @pytest.mark.parametrize("text, message", [
        ("[1]", "sidecar file .* must hold a JSON object"),
        ("null", "sidecar file .* must hold a JSON object"),
        ('{"num_skills": 3,}', "Expecting property name"),
        ('{"num_skills": "x"}', "num_skills must be an int of at least 1, got 'x'"),
        ('{"num_skills": 2.5}', "num_skills must be an int of at least 1, got 2.5"),
        ('{"num_skills": true}', "num_skills must be an int of at least 1, got True"),
        ('{"num_skills": 0}', "num_skills must be an int of at least 1, got 0"),
        ('{"name": 3}', "name must be a str, got 3"),
    ], ids=["list", "null", "malformed", "str_count", "float_count", "bool_count", "zero_count",
            "int_name"])
    def test_malformed_sidecar_is_an_error_naming_it(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1,2\n1,0\n")
        (tmp_path / "bad.txt.meta.json").write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            load_dataset(path)
        assert str(tmp_path / "bad.txt.meta.json") in str(exc.value)

    def test_extra_metadata_written(self, tmp_path):
        ds = parse_triplets(SAMPLE)
        path = tmp_path / "meta.txt"
        save_dataset(ds, path, extra={"generator": {"seed": 7}})
        meta = json.loads((tmp_path / "meta.txt.meta.json").read_text())
        assert list(meta) == ["name", "num_skills", "generator"]
        assert meta["num_skills"] == 3
        assert meta["generator"] == {"seed": 7}
        assert read_sidecar(path) == meta
        assert read_sidecar(tmp_path / "absent.txt") == {}


class TestRelabelSkills:
    def test_merge_and_dense_renumber(self):
        ds = parse_triplets(SAMPLE)
        out = relabel_skills(ds, {1: 10, 2: 10, 3: 4})
        # targets {10, 4} renumber to {4: 1, 10: 2}
        assert out.num_skills == 2
        assert out.sequences[0].responses.tolist() == [[2, 0], [2, 1], [1, 1]]
        assert out.sequences[1].responses.tolist() == [[2, 1], [2, 0]]

    def test_missing_id_raises(self):
        ds = parse_triplets(SAMPLE)
        with pytest.raises(ValueError, match="missing"):
            relabel_skills(ds, {1: 1, 2: 2})


class TestSyntheticGenerator:
    def test_shapes_and_ranges(self):
        spec = SyntheticSpec(
            num_students=20, num_skills=7, num_concepts=3, steps_per_student=15, seed=4
        )
        ds, concepts = generate_synthetic(spec)
        assert ds.num_students == 20
        assert ds.num_skills == 7
        assert all(seq.length == 15 for seq in ds.sequences)
        skills, corrects = np.concatenate([seq.responses for seq in ds.sequences]).T
        assert set(skills.tolist()) <= set(range(1, 8))
        assert set(corrects.tolist()) <= {0, 1}
        assert sorted(concepts) == list(range(1, 8))
        assert set(concepts.values()) <= {1, 2, 3}

    def test_concept_assignment_round_robin_balanced(self):
        assert concept_of_skill(1, 5) == 1
        assert concept_of_skill(5, 5) == 5
        assert concept_of_skill(6, 5) == 1
        spec = SyntheticSpec(
            num_students=1, num_skills=50, num_concepts=5, steps_per_student=2, seed=0
        )
        _, concepts = generate_synthetic(spec)
        counts = np.bincount(list(concepts.values()))[1:]
        assert counts.tolist() == [10, 10, 10, 10, 10]

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(
            num_students=10, num_skills=5, num_concepts=2, steps_per_student=8, seed=9
        )
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        helpers.assert_same_sequences(a.sequences, b.sequences)
        c, _ = generate_synthetic(
            SyntheticSpec(
                num_students=10, num_skills=5, num_concepts=2, steps_per_student=8, seed=10
            )
        )
        assert serialize_triplets(a) != serialize_triplets(c)

    def test_mean_correctness_matches_symmetry_argument(self):
        # E[P] = guess + (1-guess) * E[sigmoid(a-d)] and a-d is symmetric
        # about 0, so E[P] = guess + (1-guess)/2. Needs many skills as well
        # as many students: only num_skills difficulties are ever drawn.
        spec = SyntheticSpec(
            num_students=600, num_skills=300, num_concepts=4, steps_per_student=50, seed=11
        )
        ds, _ = generate_synthetic(spec)
        rate = np.mean(np.concatenate([seq.responses[:, 1] for seq in ds.sequences]))
        assert abs(rate - 0.625) < 0.02

    def test_higher_guess_raises_floor(self):
        spec = SyntheticSpec(
            num_students=600, num_skills=300, num_concepts=4, steps_per_student=50,
            guess=0.8, seed=11,
        )
        ds, _ = generate_synthetic(spec)
        rate = np.mean(np.concatenate([seq.responses[:, 1] for seq in ds.sequences]))
        assert abs(rate - 0.9) < 0.02

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_students=0, num_skills=5, num_concepts=2, steps_per_student=5)
        with pytest.raises(ValueError):
            SyntheticSpec(num_students=1, num_skills=5, num_concepts=6, steps_per_student=5)
        with pytest.raises(ValueError):
            SyntheticSpec(num_students=1, num_skills=5, num_concepts=2, steps_per_student=5, guess=1.0)

    def test_negative_seed_is_refused_by_name(self):
        # As TrainConfig refuses it, before NumPy's seeding would fail
        # without naming the field.
        for make in (lambda: SyntheticSpec(num_students=2, num_skills=4, num_concepts=2,
                                           steps_per_student=3, seed=-1),
                     lambda: TrainConfig(seed=-1)):
            with pytest.raises(ValueError) as exc:
                make()
            assert str(exc.value) == "seed must be >= 0, got -1"

    def test_draw_order(self):
        # data.txt depends on this order: every skill's difficulty, then per
        # student one ability per concept, the skills and the flags' uniforms.
        spec = SyntheticSpec(num_students=3, num_skills=6, num_concepts=2, steps_per_student=4,
                             guess=0.3, seed=8)
        ds, _ = generate_synthetic(spec)
        rng = np.random.default_rng(8)
        difficulty = rng.normal(0.0, 1.0, size=6)
        for seq in ds.sequences:
            ability = rng.normal(0.0, 1.0, size=2)
            skills = rng.integers(1, 7, size=4)
            p = 0.3 + 0.7 * sigmoid(ability[(skills - 1) % 2] - difficulty[skills - 1])
            corrects = (rng.random(4) < p).astype(int)
            assert seq.responses.tolist() == np.column_stack((skills, corrects)).tolist()


class TestSequenceTypes:
    def test_length_property_and_counts(self):
        seq = ResponseSequence(3, ((1, 1),))
        assert seq.length == 1
        ds = Dataset(name="d", num_skills=1, sequences=(seq,))
        assert ds.num_students == 1
        assert ds.num_responses == 1

    def test_responses_must_be_pairs(self):
        assert ResponseSequence(0, [[4, 1], [2, 0]]).responses.shape == (2, 2)
        with pytest.raises(ValueError, match=r"\(T, 2\).*\(2, 3\)"):
            ResponseSequence(0, [[4, 1, 0], [2, 0, 1]])
        with pytest.raises(ValueError, match="shape"):
            ResponseSequence(0, [4, 1])

    def test_dataset_equality_is_identity(self):
        seqs = (ResponseSequence(0, ((1, 1), (2, 0))),)
        ds = Dataset(name="d", num_skills=2, sequences=seqs)
        assert ds == ds
        assert ds != Dataset(name="d", num_skills=2, sequences=seqs)
        assert len({ds, ds}) == 1


# Random ragged response logs over sparse skill ids.
_PAIRS = st.lists(st.tuples(st.integers(1, 2**63 - 1), st.integers(0, 1)), min_size=1, max_size=12)
_LOGS = st.lists(_PAIRS, max_size=8)


class TestProperties:
    @settings(deadline=None)
    @given(_LOGS)
    def test_serialize_parse_round_trip(self, logs):
        ds = Dataset(
            name="dataset",
            num_skills=max((s for pairs in logs for s, _ in pairs), default=0),
            sequences=tuple(ResponseSequence(i, pairs) for i, pairs in enumerate(logs)),
        )
        back = parse_triplets(serialize_triplets(ds))
        assert back.num_skills == ds.num_skills
        helpers.assert_same_sequences(back.sequences, ds.sequences)

    @settings(deadline=None)
    @given(_LOGS, st.data())
    def test_relabel_is_a_per_response_lookup(self, logs, data):
        ds = Dataset("d", 0, tuple(ResponseSequence(i, pairs) for i, pairs in enumerate(logs)))
        present = sorted({s for pairs in logs for s, _ in pairs})
        targets = data.draw(st.lists(st.integers(-3, 3), min_size=len(present),
                                     max_size=len(present)))
        mapping = dict(zip(present, targets))
        dense = {t: i + 1 for i, t in enumerate(sorted(set(targets)))}
        out = relabel_skills(ds, mapping)
        assert out.num_skills == len(dense)
        assert [helpers.pairs(seq) for seq in out.sequences] == [
            tuple((dense[mapping[s]], c) for s, c in pairs) for pairs in logs
        ]
