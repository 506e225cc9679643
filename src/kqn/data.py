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

import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .ops import sigmoid
from .tables import (
    INT_TOKEN, check_config, has_type, read_int, read_json_object, write_json, write_text,
)


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
    # Tolerate trailing separators, blank tokens and spaces or tabs around
    # tokens; every other token is read by read_int.
    out = []
    for tok in line.split(","):
        tok = tok.strip(" \t")
        if tok == "":
            continue
        try:
            out.append(read_int(tok))
        except ValueError:
            raise ValueError(f"line {lineno}: {what} token {tok!r} is not an integer")
    return out


def _read_count(line: str) -> int:
    """The response count a record's first line holds, read by read_int
    after the spaces, tabs and trailing commas around it."""
    return read_int(line.strip(" \t").rstrip(","))


def _read_exact(lines: list[str]):
    """The response counts and the skill and correctness values of every
    record, read one token at a time with tables.read_int. Raises the
    first malformed record's error, with its line number, in file order."""
    counts, all_skills, all_corrects = [], [], []
    idx = 0
    while idx < len(lines):
        if lines[idx].strip() == "":
            idx += 1
            continue
        lineno = idx + 1
        try:
            t = _read_count(lines[idx])
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
        counts.append(t)
        all_skills += skills
        all_corrects += corrects
        idx += 3
    return counts, all_skills, all_corrects


# Comma-separated tables.INT_TOKEN tokens, each an optional sign and ASCII
# digits within spaces or tabs: the text on which np.fromstring reads the
# values int() reads. On other text NumPy reads a blank or sign-only token as 0
# and "- 5" as -5, where int() refuses them.
_TOKENS = re.compile(rf"{INT_TOKEN}(?:,{INT_TOKEN})*")


def _fits_fromstring(text: str) -> bool:
    """Whether text is in the _TOKENS form, checked without the regex when
    it holds only digits and commas (as serialize_triplets writes it)."""
    if not text.isascii():
        return False
    if text.encode().translate(None, b"0123456789,"):
        return _TOKENS.fullmatch(text) is not None
    return ",," not in text and not text.startswith(",") and not text.endswith(",")


def _has_long_token(lines: list[str]) -> bool:
    """Whether a token is longer than the digits int() converts
    (sys.get_int_max_str_digits(), leading zeros included), a limit
    np.fromstring does not have."""
    limit = sys.get_int_max_str_digits()
    return limit > 0 and any(
        len(tok) > limit for line in lines if len(line) > limit for tok in line.split(",")
    )


def _read_plain(lines: list[str]):
    """What _read_exact returns, with the values converted in C by
    np.fromstring, or None when the lines are not plainly accepted: records
    apart only by blank lines, tokens in the _TOKENS form, as many per line
    as the count says, skill ids in 1..2**63-2 and flags in {0, 1}. On None
    only _read_exact can tell whether the text is accepted and, if not,
    which error comes first."""
    rows = [i for i, line in enumerate(lines) if line.strip()]
    heads = rows[0::3]
    if rows[1::3] != [i + 1 for i in heads] or rows[2::3] != [i + 2 for i in heads]:
        return None
    try:
        counts = [_read_count(lines[i]) for i in heads]
    except ValueError:
        return None
    columns = []
    for offset in (1, 2):
        body = [lines[i + offset] for i in heads]
        if [line.count(",") + 1 for line in body] != counts or _has_long_token(body):
            return None
        text = ",".join(body)
        if not _fits_fromstring(text):
            return None
        columns.append(np.fromstring(text, dtype=np.int64, sep=","))
    skills, corrects = columns
    # fromstring saturates a value beyond int64 at a limit without a word,
    # so 2**63 - 1 itself is left to the exact reader as well.
    if not (np.all(skills > 0) and np.all(skills < np.iinfo(np.int64).max)
            and np.all((corrects == 0) | (corrects == 1))):
        return None
    return counts, skills, corrects


def parse_triplets(text: str, name: str = "dataset") -> Dataset:
    """Parse triplet text into a Dataset, keeping skill ids as written.

    num_skills is the largest id. A malformed record (bad count, length
    mismatch, non-positive skill id, correctness flag outside {0, 1})
    raises with the offending line number. Each sequence's responses are
    a row slice of one (total, 2) array.
    """
    lines = text.splitlines()
    counts, skills, corrects = _read_plain(lines) or _read_exact(lines)
    responses = np.empty((len(skills), 2), dtype=int)
    responses[:, 0] = skills
    responses[:, 1] = corrects
    ends = np.cumsum(counts).tolist()
    sequences = tuple(
        ResponseSequence(k, responses[end - t:end])
        for k, (t, end) in enumerate(zip(counts, ends))
    )
    largest = int(responses[:, 0].max()) if len(responses) else 0
    return Dataset(name=name, num_skills=largest, sequences=sequences)


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
    """The JSON sidecar written next to a dataset file, or {} if none. Its
    num_skills, when given, is an int of at least 1 and its name a str;
    any other sidecar is an error naming it."""
    sidecar = _sidecar_path(Path(path))
    if not sidecar.exists():
        return {}
    meta = read_json_object(sidecar, "sidecar")
    num_skills, name = meta.get("num_skills", 1), meta.get("name", "")
    if not (has_type(num_skills, int) and num_skills >= 1):
        raise ValueError(f"{sidecar}: num_skills must be an int of at least 1, got {num_skills!r}")
    if not has_type(name, str):
        raise ValueError(f"{sidecar}: name must be a str, got {name!r}")
    return meta


def save_dataset(dataset: Dataset, path, extra: Optional[dict] = None) -> None:
    """Write triplet text plus a JSON sidecar carrying num_skills and any
    extra metadata (generator parameters, concept labels, remaps)."""
    path = Path(path)
    write_text(path, [serialize_triplets(dataset)])
    meta = {"name": dataset.name, "num_skills": dataset.num_skills}
    if extra:
        meta.update(extra)
    write_json(_sidecar_path(path), meta)


def load_dataset(path) -> Dataset:
    """Read triplet text, keeping skill ids as written.

    num_skills is the sidecar's value when there is one (skills may not
    cover 1..N densely after splitting), else the largest id; relabel_skills
    is the way to renumber ids densely.
    """
    path = Path(path)
    meta = read_sidecar(path)
    dataset = parse_triplets(path.read_text(), name=meta.get("name", path.stem))
    num_skills = meta.get("num_skills", dataset.num_skills)
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
    (e-1) % num_concepts + 1). Each student draws one standard-normal
    ability per concept, each skill has one standard-normal difficulty,
    and P(correct) = guess + (1-guess) * sigmoid(ability - difficulty).
    """

    num_students: int
    num_skills: int
    num_concepts: int
    steps_per_student: int
    guess: float = 0.25
    seed: int = 0

    def __post_init__(self):
        check_config(self)
        if self.num_concepts > self.num_skills:
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
    difficulty = rng.normal(0.0, 1.0, size=spec.num_skills)
    concepts = {
        e: concept_of_skill(e, spec.num_concepts) for e in range(1, spec.num_skills + 1)
    }
    sequences = []
    for sid in range(spec.num_students):
        ability = rng.normal(0.0, 1.0, size=spec.num_concepts)
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
