import numpy as np
import pytest

from kqn.data import (
    Dataset,
    ResponseSequence,
    StudentResponse,
    SyntheticSpec,
    concept_of_skill,
    generate_synthetic,
    load_dataset,
    parse_triplets,
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
        result = parse_triplets(SAMPLE)
        ds = result.dataset
        assert ds.num_skills == 3
        assert ds.num_students == 2
        assert result.dropped == 0
        assert ds.sequences[0].responses == (
            StudentResponse(1, 0),
            StudentResponse(2, 1),
            StudentResponse(3, 1),
        )
        assert ds.sequences[1].responses == (StudentResponse(2, 1), StudentResponse(2, 0))

    def test_blank_lines_and_trailing_commas_tolerated(self):
        messy = "2,\n 5 , 9,\n1,0\n\n\n1\n9\n1\n"
        result = parse_triplets(messy)
        assert result.dataset.num_students == 2
        # sparse ids 5 and 9 remap onto 1 and 2 in sorted order
        assert result.skill_map == {5: 1, 9: 2}
        assert result.dataset.sequences[0].responses[0].skill == 1
        assert result.dataset.sequences[1].responses[0].skill == 2

    def test_dense_file_parses_to_itself(self):
        result = parse_triplets(SAMPLE)
        assert serialize_triplets(result.dataset) == SAMPLE

    def test_non_binary_correctness_drops_whole_record(self):
        text = "2\n1,2\n0,3\n1\n2\n1\n"
        result = parse_triplets(text)
        assert result.dropped == 1
        assert result.dataset.num_students == 1
        assert result.dataset.num_skills == 1

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


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds = parse_triplets(SAMPLE, name="sample").dataset
        path = tmp_path / "sample.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back == ds

    def test_sidecar_num_skills_wins(self, tmp_path):
        seqs = (
            ResponseSequence(0, (StudentResponse(2, 1), StudentResponse(5, 0))),
        )
        ds = Dataset(name="sparse", num_skills=10, sequences=seqs)
        path = tmp_path / "sparse.txt"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.num_skills == 10
        # original sparse ids survive the round trip
        assert [r.skill for r in back.sequences[0].responses] == [2, 5]

    def test_without_sidecar_ids_are_kept(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("2\n4,8\n1,0\n")
        back = load_dataset(path)
        assert back.num_skills == 8
        assert [r.skill for r in back.sequences[0].responses] == [4, 8]

    def test_skill_id_beyond_sidecar_count_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n7\n1\n")
        (tmp_path / "bad.txt.meta.json").write_text('{"num_skills": 3}\n')
        with pytest.raises(ValueError, match="exceeds"):
            load_dataset(path)

    def test_extra_metadata_written(self, tmp_path):
        import json

        ds = parse_triplets(SAMPLE).dataset
        path = tmp_path / "meta.txt"
        save_dataset(ds, path, extra={"generator": {"seed": 7}})
        meta = json.loads((tmp_path / "meta.txt.meta.json").read_text())
        assert meta["num_skills"] == 3
        assert meta["generator"] == {"seed": 7}


class TestRelabelSkills:
    def test_merge_and_dense_renumber(self):
        ds = parse_triplets(SAMPLE).dataset
        out = relabel_skills(ds, {1: 10, 2: 10, 3: 4})
        # targets {10, 4} renumber to {4: 1, 10: 2}
        assert out.num_skills == 2
        assert [r.skill for r in out.sequences[0].responses] == [2, 2, 1]
        assert [r.skill for r in out.sequences[1].responses] == [2, 2]

    def test_missing_id_raises(self):
        ds = parse_triplets(SAMPLE).dataset
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
        skills = {r.skill for seq in ds.sequences for r in seq.responses}
        assert skills <= set(range(1, 8))
        corrects = {r.correct for seq in ds.sequences for r in seq.responses}
        assert corrects <= {0, 1}
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
        assert a == b
        c, _ = generate_synthetic(
            SyntheticSpec(
                num_students=10, num_skills=5, num_concepts=2, steps_per_student=8, seed=10
            )
        )
        assert a != c

    def test_mean_correctness_matches_symmetry_argument(self):
        # E[P] = guess + (1-guess) * E[sigmoid(a-d)] and a-d is symmetric
        # about 0, so E[P] = guess + (1-guess)/2. Needs many skills as well
        # as many students: only num_skills difficulties are ever drawn.
        spec = SyntheticSpec(
            num_students=600, num_skills=300, num_concepts=4, steps_per_student=50, seed=11
        )
        ds, _ = generate_synthetic(spec)
        rate = np.mean([r.correct for seq in ds.sequences for r in seq.responses])
        assert abs(rate - 0.625) < 0.02

    def test_higher_guess_raises_floor(self):
        spec = SyntheticSpec(
            num_students=600, num_skills=300, num_concepts=4, steps_per_student=50,
            guess=0.8, seed=11,
        )
        ds, _ = generate_synthetic(spec)
        rate = np.mean([r.correct for seq in ds.sequences for r in seq.responses])
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
        seq = ResponseSequence(3, (StudentResponse(1, 1),))
        assert seq.length == 1
        ds = Dataset(name="d", num_skills=1, sequences=(seq,))
        assert ds.num_students == 1
        assert ds.num_responses == 1
