"""Evaluation corpus: source segments, system outputs, ranking judgments.

File formats (tab-separated, no header, UTF-8, LF):

    segments:   lp <TAB> seg_id <TAB> src_text
    outputs:    lp <TAB> system_id <TAB> seg_id <TAB> mt_text
    judgments:  lp <TAB> seg_id <TAB> better_system <TAB> worse_system

Each file also has a canonical JSONL mirror: one object per line with the
same field names. Text fields are trimmed of leading/trailing whitespace.
Invalid UTF-8 anywhere is a FormatError, not a silent replacement.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    DuplicateKeyError,
    FormatError,
    ReferentialError,
    SelfComparisonError,
)

_LP_RE = re.compile(r"[a-z]{2,3}-[a-z]{2,3}")  # a translation direction such as zh-en


@dataclass(frozen=True, order=True)
class Segment:
    lp: str
    seg_id: str
    src_text: str


@dataclass(frozen=True, order=True)
class SystemOutput:
    lp: str
    system_id: str
    seg_id: str
    mt_text: str


@dataclass(frozen=True, order=True)
class RRJudgment:
    """One relative-ranking triplet: better_system beat worse_system on seg_id."""

    lp: str
    seg_id: str
    better_system: str
    worse_system: str


@dataclass(frozen=True)
class EvalDataset:
    """Validated, immutable bundle of segments, outputs and judgments.

    Duplicate judgments are preserved (they carry weight); duplicate
    segments or outputs are rejected at load time.
    """

    segments: frozenset[Segment]
    outputs: frozenset[SystemOutput]
    judgments: tuple[RRJudgment, ...]
    _seg_index: dict = field(init=False, repr=False, compare=False)
    _out_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        seg_index = {(s.lp, s.seg_id): s for s in self.segments}
        out_index = {(o.lp, o.system_id, o.seg_id): o for o in self.outputs}
        object.__setattr__(self, "_seg_index", seg_index)
        object.__setattr__(self, "_out_index", out_index)

    @classmethod
    def build(
        cls,
        segments: Iterable[Segment],
        outputs: Iterable[SystemOutput],
        judgments: Iterable[RRJudgment],
    ) -> "EvalDataset":
        """Assemble and cross-validate a dataset.

        Raises ReferentialError if an output points at a missing segment or
        a judgment names a system without an output for its segment.
        """
        segs = frozenset(segments)
        outs = frozenset(outputs)
        judgs = tuple(judgments)
        seg_keys = {(s.lp, s.seg_id) for s in segs}
        out_keys = {(o.lp, o.system_id, o.seg_id) for o in outs}
        for o in outs:
            if (o.lp, o.seg_id) not in seg_keys:
                raise ReferentialError(
                    f"output {o.lp}/{o.system_id}/{o.seg_id} has no segment"
                )
        for j in judgs:
            for sysid in (j.better_system, j.worse_system):
                if (j.lp, sysid, j.seg_id) not in out_keys:
                    raise ReferentialError(
                        f"judgment {j.lp}/{j.seg_id} names {sysid} "
                        f"which has no output for that segment"
                    )
        return cls(segments=segs, outputs=outs, judgments=judgs)

    def get_segment(self, lp: str, seg_id: str) -> Segment:
        return self._seg_index[(lp, seg_id)]

    def get_output(self, lp: str, system_id: str, seg_id: str) -> SystemOutput:
        return self._out_index[(lp, system_id, seg_id)]

    def has_output(self, lp: str, system_id: str, seg_id: str) -> bool:
        return (lp, system_id, seg_id) in self._out_index


def _iter_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line_no, decoded line) pairs, skipping blank lines.

    Decodes per line so encoding failures report the exact line number.
    """
    p = Path(path)
    with open(p, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(str(p), line_no, f"invalid UTF-8: {exc}") from exc
            text = text.rstrip("\r\n")
            if not text.strip():
                continue
            yield line_no, text


def _split_tsv(path: str, line_no: int, line: str, n_fields: int) -> list[str]:
    parts = line.split("\t")
    if len(parts) != n_fields:
        raise FormatError(
            path, line_no, f"expected {n_fields} tab-separated fields, got {len(parts)}"
        )
    return [p.strip() for p in parts]


def _parse_jsonl(path: str, line_no: int, line: str, fields: tuple[str, ...]) -> list[str]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FormatError(path, line_no, f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(path, line_no, "expected a JSON object")
    values = []
    for name in fields:
        if name not in obj:
            raise FormatError(path, line_no, f"missing field {name!r}")
        value = obj[name]
        if not isinstance(value, str):
            raise FormatError(path, line_no, f"field {name!r} must be a string")
        values.append(value.strip())
    return values


def _check_lp(path: str, line_no: int, lp: str) -> None:
    if not _LP_RE.fullmatch(lp):
        raise FormatError(path, line_no, f"bad language pair: {lp!r}")


FORMATS = ("tsv", "jsonl")


def _records(
    path: str | Path, fmt: str, fields: tuple[str, ...]
) -> Iterator[tuple[int, list[str]]]:
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    p = str(path)
    for line_no, line in _iter_lines(path):
        if fmt == "tsv":
            yield line_no, _split_tsv(p, line_no, line, len(fields))
        else:
            yield line_no, _parse_jsonl(p, line_no, line, fields)


_SEGMENT_FIELDS = ("lp", "seg_id", "src_text")
_OUTPUT_FIELDS = ("lp", "system_id", "seg_id", "mt_text")
_JUDGMENT_FIELDS = ("lp", "seg_id", "better_system", "worse_system")


def load_segments(path: str | Path, fmt: str = "tsv") -> list[Segment]:
    """Load source segments; duplicate (lp, seg_id) is a DuplicateKeyError."""
    out: list[Segment] = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, (lp, seg_id, src_text) in _records(path, fmt, _SEGMENT_FIELDS):
        _check_lp(str(path), line_no, lp)
        if not src_text:
            raise FormatError(str(path), line_no, "empty src_text")
        key = (lp, seg_id)
        if key in seen:
            raise DuplicateKeyError(
                str(path), line_no,
                f"duplicate segment {lp}/{seg_id} (first seen line {seen[key]})",
            )
        seen[key] = line_no
        out.append(Segment(lp=lp, seg_id=seg_id, src_text=src_text))
    return out


def load_system_outputs(path: str | Path, fmt: str = "tsv") -> list[SystemOutput]:
    """Load system outputs; duplicate (lp, system_id, seg_id) is rejected."""
    out: list[SystemOutput] = []
    seen: dict[tuple[str, str, str], int] = {}
    for line_no, (lp, system_id, seg_id, mt_text) in _records(path, fmt, _OUTPUT_FIELDS):
        _check_lp(str(path), line_no, lp)
        key = (lp, system_id, seg_id)
        if key in seen:
            raise DuplicateKeyError(
                str(path), line_no,
                f"duplicate output {lp}/{system_id}/{seg_id} "
                f"(first seen line {seen[key]})",
            )
        seen[key] = line_no
        out.append(SystemOutput(lp=lp, system_id=system_id, seg_id=seg_id, mt_text=mt_text))
    return out


def load_rr_judgments(path: str | Path, fmt: str = "tsv") -> list[RRJudgment]:
    """Load ranking judgments. Duplicates are preserved; self-comparisons are not."""
    out: list[RRJudgment] = []
    for line_no, (lp, seg_id, better, worse) in _records(path, fmt, _JUDGMENT_FIELDS):
        _check_lp(str(path), line_no, lp)
        if better == worse:
            raise SelfComparisonError(
                f"{path}:{line_no}: judgment compares {better!r} with itself"
            )
        out.append(RRJudgment(lp=lp, seg_id=seg_id, better_system=better, worse_system=worse))
    return out


def load_dataset(
    segments_path: str | Path,
    outputs_path: str | Path,
    judgments_path: str | Path,
    fmt: str = "tsv",
) -> EvalDataset:
    return EvalDataset.build(
        load_segments(segments_path, fmt),
        load_system_outputs(outputs_path, fmt),
        load_rr_judgments(judgments_path, fmt),
    )


def _dump_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def save_dataset_jsonl(
    dataset: EvalDataset,
    segments_path: str | Path,
    outputs_path: str | Path,
    judgments_path: str | Path,
) -> None:
    """Write the canonical JSONL mirror; reloading it yields an equal dataset."""
    _dump_jsonl(
        segments_path,
        (
            {"lp": s.lp, "seg_id": s.seg_id, "src_text": s.src_text}
            for s in sorted(dataset.segments)
        ),
    )
    _dump_jsonl(
        outputs_path,
        (
            {"lp": o.lp, "system_id": o.system_id, "seg_id": o.seg_id, "mt_text": o.mt_text}
            for o in sorted(dataset.outputs)
        ),
    )
    _dump_jsonl(
        judgments_path,
        (
            {
                "lp": j.lp,
                "seg_id": j.seg_id,
                "better_system": j.better_system,
                "worse_system": j.worse_system,
            }
            for j in dataset.judgments
        ),
    )


def dataset_stats(dataset: EvalDataset) -> dict[str, dict[str, int]]:
    """Per-language-pair counts: {lp: {"n_segments", "n_systems", "n_judgments"}}."""
    lps = sorted(
        {s.lp for s in dataset.segments}
        | {o.lp for o in dataset.outputs}
        | {j.lp for j in dataset.judgments}
    )
    return {
        lp: {
            "n_segments": sum(1 for s in dataset.segments if s.lp == lp),
            "n_systems": len({o.system_id for o in dataset.outputs if o.lp == lp}),
            "n_judgments": sum(1 for j in dataset.judgments if j.lp == lp),
        }
        for lp in lps
    }
