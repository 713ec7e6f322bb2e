"""Evaluation corpus: source segments, system outputs, ranking judgments.

File formats (tab-separated, no header, UTF-8, LF):

    segments:   lp <TAB> seg_id <TAB> src_text
    outputs:    lp <TAB> system_id <TAB> seg_id <TAB> mt_text
    judgments:  lp <TAB> seg_id <TAB> better_system <TAB> worse_system

Each file also has a canonical JSONL mirror: one object per line with the
same field names. _SEGMENT_FIELDS, _OUTPUT_FIELDS and _JUDGMENT_FIELDS
hold these columns; the loaders and save_dataset read them in both
formats. Text fields are trimmed of leading/trailing whitespace. Invalid
UTF-8 anywhere is a FormatError, not a silent replacement.
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


FORMATS = ("tsv", "jsonl")

# The columns of each file, in TSV order; the JSONL keys have the same names.
_SEGMENT_FIELDS = ("lp", "seg_id", "src_text")
_OUTPUT_FIELDS = ("lp", "system_id", "seg_id", "mt_text")
_JUDGMENT_FIELDS = ("lp", "seg_id", "better_system", "worse_system")


def _records(path: str | Path, fmt: str, cls: type, fields: tuple[str, ...]) -> Iterator:
    """Yield (line_no, record) per line, with fields naming its columns in order."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    p = str(path)
    for line_no, line in _iter_lines(path):
        if fmt == "tsv":
            values = _split_tsv(p, line_no, line, len(fields))
        else:
            values = _parse_jsonl(p, line_no, line, fields)
        record = cls(**dict(zip(fields, values)))
        if not _LP_RE.fullmatch(record.lp):
            raise FormatError(p, line_no, f"bad language pair: {record.lp!r}")
        yield line_no, record


def _check_unique(path, line_no: int, seen: dict, noun: str, key: tuple[str, ...]) -> None:
    if key in seen:
        raise DuplicateKeyError(
            str(path), line_no,
            f"duplicate {noun} {'/'.join(key)} (first seen line {seen[key]})",
        )
    seen[key] = line_no


def load_segments(path: str | Path, fmt: str = "tsv") -> list[Segment]:
    """Load source segments; duplicate (lp, seg_id) is a DuplicateKeyError."""
    out: list[Segment] = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, segment in _records(path, fmt, Segment, _SEGMENT_FIELDS):
        if not segment.src_text:
            raise FormatError(str(path), line_no, "empty src_text")
        _check_unique(path, line_no, seen, "segment", (segment.lp, segment.seg_id))
        out.append(segment)
    return out


def load_system_outputs(path: str | Path, fmt: str = "tsv") -> list[SystemOutput]:
    """Load system outputs; duplicate (lp, system_id, seg_id) is rejected."""
    out: list[SystemOutput] = []
    seen: dict[tuple[str, str, str], int] = {}
    for line_no, output in _records(path, fmt, SystemOutput, _OUTPUT_FIELDS):
        _check_unique(path, line_no, seen, "output",
                      (output.lp, output.system_id, output.seg_id))
        out.append(output)
    return out


def load_rr_judgments(path: str | Path, fmt: str = "tsv") -> list[RRJudgment]:
    """Load ranking judgments. Duplicates are preserved; self-comparisons are not."""
    out: list[RRJudgment] = []
    for line_no, judgment in _records(path, fmt, RRJudgment, _JUDGMENT_FIELDS):
        if judgment.better_system == judgment.worse_system:
            raise SelfComparisonError(
                f"{path}:{line_no}: judgment compares {judgment.better_system!r} with itself"
            )
        out.append(judgment)
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


def _line(record, fields: tuple[str, ...], fmt: str) -> str:
    values = [getattr(record, name) for name in fields]
    if fmt == "jsonl":
        return json.dumps(dict(zip(fields, values)), ensure_ascii=False, sort_keys=True) + "\n"
    if any(ch in value for value in values for ch in "\t\r\n"):
        raise ValueError(f"{record!r}: a TSV field cannot hold a tab, CR or LF")
    return "\t".join(values) + "\n"


def save_dataset(
    dataset: EvalDataset,
    segments_path: str | Path,
    outputs_path: str | Path,
    judgments_path: str | Path,
    fmt: str = "tsv",
) -> None:
    """Write the three files in fmt, in the form load_dataset reads.

    Segments and outputs are written sorted, judgments in dataset order, so
    a loaded dataset reloads equal. A field holding a tab, CR or LF is a
    ValueError naming its record, raised before any file is written, since
    the TSV could not be read back.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format: {fmt!r}")
    files = [
        (path, [_line(record, fields, fmt) for record in records])
        for path, fields, records in (
            (segments_path, _SEGMENT_FIELDS, sorted(dataset.segments)),
            (outputs_path, _OUTPUT_FIELDS, sorted(dataset.outputs)),
            (judgments_path, _JUDGMENT_FIELDS, dataset.judgments),
        )
    ]
    for path, lines in files:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)


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
