import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
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
