"""Response-log datasets, one (T, 2) int array of (skill, correct) rows per
student: triplet-text parsing and serialization, JSON sidecars, dense skill
relabeling, and a seeded synthetic generator.

The triplet text format is three lines per student:

    T
    e_1,e_2,...,e_T
    c_1,c_2,...,c_T

with skills as positive integers and correctness flags in {0, 1}.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .ops import sigmoid


@dataclass(frozen=True, eq=False)
class ResponseSequence:
    """One student's responses as a (T, 2) int array: column 0 holds the
    skill ids and column 1 the correctness flags. Any array-like of pairs
    converts; equality is identity, as an array field has no single ==."""

    student_id: int
    responses: np.ndarray

    def __post_init__(self):
        responses = np.asarray(self.responses, dtype=int)
        if responses.ndim != 2 or responses.shape[1] != 2:
            raise ValueError(
                f"responses must be (T, 2) (skill, correct) pairs, got shape {responses.shape}"
            )
        object.__setattr__(self, "responses", responses)

    @property
    def length(self) -> int:
        return len(self.responses)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named set of response sequences over skills 1..num_skills;
    equality is identity, as for the sequences it holds."""

    name: str
    num_skills: int
    sequences: tuple[ResponseSequence, ...]

    @property
    def num_students(self) -> int:
        return len(self.sequences)

    @property
    def num_responses(self) -> int:
        return sum(seq.length for seq in self.sequences)


def _split_ints(line: str, lineno: int, what: str) -> list[int]:
    # Tolerate trailing separators and stray spaces around tokens.
    tokens = [tok.strip() for tok in line.strip().split(",")]
    tokens = [tok for tok in tokens if tok != ""]
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"line {lineno}: {what} token {tok!r} is not an integer")
    return out


def parse_triplets(text: str, name: str = "dataset") -> Dataset:
    """Parse triplet text into a Dataset, keeping skill ids as written.

    num_skills is the largest id. A malformed record (bad count, length
    mismatch, non-positive skill id, correctness flag outside {0, 1})
    raises with the offending line number.
    """
    lines = text.splitlines()
    sequences = []
    idx = 0
    while idx < len(lines):
        if lines[idx].strip() == "":
            idx += 1
            continue
        lineno = idx + 1
        try:
            t = int(lines[idx].strip().rstrip(","))
        except ValueError:
            raise ValueError(f"line {lineno}: expected a response count, got {lines[idx]!r}")
        if t <= 0:
            raise ValueError(f"line {lineno}: response count must be positive, got {t}")
        if idx + 2 >= len(lines):
            raise ValueError(f"line {lineno}: record is truncated")
        skills = _split_ints(lines[idx + 1], lineno + 1, "skill")
        corrects = _split_ints(lines[idx + 2], lineno + 2, "correctness")
        if len(skills) != t:
            raise ValueError(
                f"line {lineno + 1}: expected {t} skills, got {len(skills)}"
            )
        if len(corrects) != t:
            raise ValueError(
                f"line {lineno + 2}: expected {t} correctness flags, got {len(corrects)}"
            )
        for s in skills:
            if not 0 < s < 2**63:
                raise ValueError(f"line {lineno + 1}: skill ids must be in 1..2**63-1, got {s}")
        for c in corrects:
            if c not in (0, 1):
                raise ValueError(f"line {lineno + 2}: correctness flags must be 0 or 1, got {c}")
        sequences.append(ResponseSequence(len(sequences), np.column_stack((skills, corrects))))
        idx += 3
    largest = max((int(seq.responses[:, 0].max()) for seq in sequences), default=0)
    return Dataset(name=name, num_skills=largest, sequences=tuple(sequences))


def serialize_triplets(dataset: Dataset) -> str:
    """Inverse of parse_triplets."""
    parts = []
    for seq in dataset.sequences:
        skills, corrects = seq.responses.T.tolist()
        parts.append(str(seq.length))
        parts.append(",".join(map(str, skills)))
        parts.append(",".join(map(str, corrects)))
    return "\n".join(parts) + ("\n" if parts else "")


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def read_sidecar(path) -> dict:
    """The JSON sidecar written next to a dataset file, or {} if none."""
    sidecar = _sidecar_path(Path(path))
    return json.loads(sidecar.read_text()) if sidecar.exists() else {}


def save_dataset(dataset: Dataset, path, extra: Optional[dict] = None) -> None:
    """Write triplet text plus a JSON sidecar carrying num_skills and any
    extra metadata (generator parameters, concept labels, remaps)."""
    path = Path(path)
    path.write_text(serialize_triplets(dataset))
    meta = {"name": dataset.name, "num_skills": dataset.num_skills}
    if extra:
        meta.update(extra)
    _sidecar_path(path).write_text(json.dumps(meta, indent=2) + "\n")


def load_dataset(path) -> Dataset:
    """Read triplet text, keeping skill ids as written.

    num_skills is the sidecar's value when there is one (skills may not
    cover 1..N densely after splitting), else the largest id; relabel_skills
    is the way to renumber ids densely.
    """
    path = Path(path)
    meta = read_sidecar(path)
    dataset = parse_triplets(path.read_text(), name=meta.get("name", path.stem))
    num_skills = int(meta.get("num_skills", dataset.num_skills))
    if dataset.num_skills > num_skills:
        raise ValueError(f"skill id {dataset.num_skills} exceeds sidecar num_skills={num_skills}")
    return Dataset(name=dataset.name, num_skills=num_skills, sequences=dataset.sequences)


def relabel_skills(dataset: Dataset, mapping: dict[int, int]) -> Dataset:
    """Merge or rename skills, then renumber densely.

    mapping must cover every skill id present; merged labels are renumbered
    by sorted distinct target label.
    """
    columns = [seq.responses[:, 0] for seq in dataset.sequences]
    present = np.unique(np.concatenate([np.zeros(0, dtype=int), *columns]))
    missing = sorted(set(present.tolist()) - set(mapping))
    if missing:
        raise ValueError(f"mapping is missing skill ids: {missing}")
    targets = sorted({mapping[s] for s in present.tolist()})
    dense = {t: i + 1 for i, t in enumerate(targets)}
    # new_ids[i] is the new id of present[i]; searching present rather than
    # indexing by id keeps sparse ids up to 2**63 - 1 cheap.
    new_ids = np.array([dense[mapping[s]] for s in present.tolist()], dtype=int)
    sequences = tuple(
        ResponseSequence(
            seq.student_id,
            np.column_stack((new_ids[np.searchsorted(present, skills)], seq.responses[:, 1])),
        )
        for seq, skills in zip(dataset.sequences, columns)
    )
    return Dataset(name=dataset.name, num_skills=len(targets), sequences=sequences)


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True)
class SyntheticSpec:
    """Item-response style generator settings.

    Skills are assigned to concepts round-robin (concept of skill e is
    (e-1) % num_concepts + 1). Each student draws one ability per concept,
    each skill has one difficulty, and P(correct) = guess +
    (1-guess) * sigmoid(ability - difficulty).
    """

    num_students: int
    num_skills: int
    num_concepts: int
    steps_per_student: int
    guess: float = 0.25
    ability_mean: float = 0.0
    ability_std: float = 1.0
    difficulty_mean: float = 0.0
    difficulty_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.num_students < 1 or self.num_skills < 2 or self.steps_per_student < 2:
            raise ValueError(
                "need at least 1 student, 2 skills and 2 steps per student"
            )
        if not 1 <= self.num_concepts <= self.num_skills:
            raise ValueError(
                f"num_concepts must be in 1..{self.num_skills}, got {self.num_concepts}"
            )
        if not 0.0 <= self.guess < 1.0:
            raise ValueError(f"guess must be in [0, 1), got {self.guess}")


def concept_of_skill(skill: int, num_concepts: int) -> int:
    return (skill - 1) % num_concepts + 1


def generate_synthetic(spec: SyntheticSpec):
    """Draw a full dataset from one seeded stream.

    Returns (dataset, concepts) where concepts maps skill id to its
    ground-truth concept label.
    """
    rng = np.random.default_rng(spec.seed)
    difficulty = rng.normal(spec.difficulty_mean, spec.difficulty_std, size=spec.num_skills)
    concepts = {
        e: concept_of_skill(e, spec.num_concepts) for e in range(1, spec.num_skills + 1)
    }
    sequences = []
    for sid in range(spec.num_students):
        ability = rng.normal(spec.ability_mean, spec.ability_std, size=spec.num_concepts)
        skills = rng.integers(1, spec.num_skills + 1, size=spec.steps_per_student)
        p = spec.guess + (1.0 - spec.guess) * sigmoid(
            ability[(skills - 1) % spec.num_concepts] - difficulty[skills - 1]
        )
        corrects = (rng.random(spec.steps_per_student) < p).astype(int)
        sequences.append(ResponseSequence(sid, np.column_stack((skills, corrects))))
    dataset = Dataset(
        name=f"synthetic-{spec.num_concepts}",
        num_skills=spec.num_skills,
        sequences=tuple(sequences),
    )
    return dataset, concepts
