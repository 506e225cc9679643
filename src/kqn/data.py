"""Response-log datasets: triplet-text parsing and serialization, JSON
sidecars, dense skill relabeling, and a seeded synthetic generator.

The triplet text format is three lines per student:

    T
    e_1,e_2,...,e_T
    c_1,c_2,...,c_T

with skills as positive integers and correctness flags in {0, 1}.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .ops import sigmoid


class StudentResponse(NamedTuple):
    skill: int
    correct: int


@dataclass(frozen=True)
class ResponseSequence:
    student_id: int
    responses: tuple[StudentResponse, ...]

    @property
    def length(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class Dataset:
    name: str
    num_skills: int
    sequences: tuple[ResponseSequence, ...]
    skill_names: Optional[dict[int, str]] = None

    @property
    def num_students(self) -> int:
        return len(self.sequences)

    @property
    def num_responses(self) -> int:
        return sum(seq.length for seq in self.sequences)


@dataclass(frozen=True)
class ParseResult:
    dataset: Dataset
    skill_map: dict[int, int]
    dropped: int


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


def parse_triplets(text: str, name: str = "dataset") -> ParseResult:
    """Parse triplet text into a Dataset with skills re-indexed to 1..N.

    Re-indexing maps the sorted distinct original ids onto 1..N, so a file
    already using 1..N densely parses to itself. Records with a correctness
    flag outside {0, 1} are dropped whole and counted; length mismatches
    raise with the offending line number.
    """
    lines = text.splitlines()
    records = []
    dropped = 0
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
            if s <= 0:
                raise ValueError(f"line {lineno + 1}: skill ids must be positive, got {s}")
        if any(c not in (0, 1) for c in corrects):
            dropped += 1
        else:
            records.append((skills, corrects))
        idx += 3

    distinct = sorted({s for skills, _ in records for s in skills})
    skill_map = {orig: i + 1 for i, orig in enumerate(distinct)}
    sequences = tuple(
        ResponseSequence(
            student_id=sid,
            responses=tuple(
                StudentResponse(skill_map[s], c) for s, c in zip(skills, corrects)
            ),
        )
        for sid, (skills, corrects) in enumerate(records)
    )
    dataset = Dataset(name=name, num_skills=len(distinct), sequences=sequences)
    return ParseResult(dataset=dataset, skill_map=skill_map, dropped=dropped)


def serialize_triplets(dataset: Dataset) -> str:
    """Inverse of parse_triplets for densely indexed datasets."""
    parts = []
    for seq in dataset.sequences:
        parts.append(str(seq.length))
        parts.append(",".join(str(r.skill) for r in seq.responses))
        parts.append(",".join(str(r.correct) for r in seq.responses))
    return "\n".join(parts) + ("\n" if parts else "")


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def save_dataset(dataset: Dataset, path, extra: Optional[dict] = None) -> None:
    """Write triplet text plus a JSON sidecar carrying num_skills and any
    extra metadata (generator parameters, concept labels, remaps)."""
    path = Path(path)
    path.write_text(serialize_triplets(dataset))
    meta = {"name": dataset.name, "num_skills": dataset.num_skills}
    if dataset.skill_names:
        meta["skill_names"] = {str(k): v for k, v in dataset.skill_names.items()}
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
    sidecar = _sidecar_path(path)
    meta = json.loads(sidecar.read_text()) if sidecar.exists() else {}
    result = parse_triplets(path.read_text(), name=meta.get("name", path.stem))
    largest = max(result.skill_map, default=0)
    num_skills = int(meta.get("num_skills", largest))
    if largest > num_skills:
        raise ValueError(f"skill id {largest} exceeds sidecar num_skills={num_skills}")
    # Undo the dense re-indexing of parse_triplets.
    inverse = {new: orig for orig, new in result.skill_map.items()}
    sequences = tuple(
        ResponseSequence(
            seq.student_id,
            tuple(StudentResponse(inverse[r.skill], r.correct) for r in seq.responses),
        )
        for seq in result.dataset.sequences
    )
    skill_names = None
    if "skill_names" in meta:
        skill_names = {int(k): v for k, v in meta["skill_names"].items()}
    return Dataset(
        name=result.dataset.name,
        num_skills=num_skills,
        sequences=sequences,
        skill_names=skill_names,
    )


def relabel_skills(dataset: Dataset, mapping: dict[int, int]) -> Dataset:
    """Merge or rename skills, then renumber densely.

    mapping must cover every skill id present; merged labels are renumbered
    by sorted distinct target label.
    """
    present = {r.skill for seq in dataset.sequences for r in seq.responses}
    missing = present - set(mapping)
    if missing:
        raise ValueError(f"mapping is missing skill ids: {sorted(missing)}")
    targets = sorted({mapping[s] for s in present})
    dense = {t: i + 1 for i, t in enumerate(targets)}
    sequences = tuple(
        ResponseSequence(
            seq.student_id,
            tuple(StudentResponse(dense[mapping[r.skill]], r.correct) for r in seq.responses),
        )
        for seq in dataset.sequences
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
        sequences.append(
            ResponseSequence(
                student_id=sid,
                responses=tuple(
                    StudentResponse(int(s), int(c)) for s, c in zip(skills, corrects)
                ),
            )
        )
    dataset = Dataset(
        name=f"synthetic-{spec.num_concepts}",
        num_skills=spec.num_skills,
        sequences=tuple(sequences),
    )
    return dataset, concepts
