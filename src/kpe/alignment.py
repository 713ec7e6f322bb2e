"""Token-level alignment and its SVG heatmap rendering.

The tokenizer splits on whitespace, detaches leading/trailing punctuation
as their own tokens, and splits CJK runs per character. The aligner asks a
provider for one similarity percentage per (source token, translation
token) via the kpe_token_align template. align_pairs is its one entry
point, from (source, translation) sentence pairs to matrices: it splits
each sentence with tokenize, sends one prompt per pair and every pair of
a call in one run_batch (a single pair is a one-item list). It parses
the response matrix and scales to [0, 1]; out-of-range cells are clamped
and counted rather than failing the whole matrix. A pair that fails gets
its own error in its slot; the others still align. The heatmap is a
deterministic, self-contained SVG: one rect per cell on a white-to-black
linear scale, axis labels, and the exact score as hover text.
"""

from __future__ import annotations

import logging
import math
import unicodedata
from dataclasses import dataclass, field
from html import escape

from .backend import CompletionFailure, FileCache, GenParams, run_batch
from .errors import (
    EmptyInputError,
    InputTooLargeError,
    KpeError,
    MatrixShapeError,
    TooManyTokensError,
    ValueParseError,
)
from .prompting import (
    builtin_templates,
    render_template,
    render_token_list,
)

log = logging.getLogger(__name__)

MAX_GRID_CELLS = 1024
MAX_AXIS_TOKENS = 64

_CJK_RANGES = (
    (0x3400, 0x4DBF),   # ideograph extension A
    (0x4E00, 0x9FFF),   # unified ideographs
    (0xF900, 0xFAFF),   # compatibility ideographs
)


def _is_cjk(ch: str) -> bool:
    code = ord(ch)
    return any(lo <= code <= hi for lo, hi in _CJK_RANGES)


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(sentence: str) -> tuple[str, ...]:
    """Whitespace split, punctuation detached at chunk edges, CJK per character.

    A blank sentence raises EmptyInputError, so the tuple is never empty.
    """
    if not sentence.strip():
        raise EmptyInputError("cannot tokenize an empty sentence")
    tokens: list[str] = []
    for chunk in sentence.split():
        start = 0
        end = len(chunk)
        leading: list[str] = []
        trailing: list[str] = []
        while start < end and _is_punct(chunk[start]):
            leading.append(chunk[start])
            start += 1
        while end > start and _is_punct(chunk[end - 1]):
            trailing.append(chunk[end - 1])
            end -= 1
        trailing.reverse()
        tokens.extend(leading)
        core = chunk[start:end]
        buffer = ""
        for ch in core:
            if _is_cjk(ch):
                if buffer:
                    tokens.append(buffer)
                    buffer = ""
                tokens.append(ch)
            else:
                buffer += ch
        if buffer:
            tokens.append(buffer)
        tokens.extend(trailing)
    return tuple(tokens)


@dataclass(frozen=True)
class AlignmentMatrix:
    """|src| x |mt| grid of similarity scores in [0, 1]."""

    src_tokens: tuple[str, ...]
    mt_tokens: tuple[str, ...]
    cells: tuple[tuple[float, ...], ...]
    clamped: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not self.src_tokens or not self.mt_tokens:
            raise ValueError("alignment needs at least one token on each axis")
        if len(self.cells) != len(self.src_tokens):
            raise ValueError("row count does not match source tokens")
        for row in self.cells:
            if len(row) != len(self.mt_tokens):
                raise ValueError("column count does not match translation tokens")
            for value in row:
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"cell {value} outside [0, 1]")


def _parse_matrix_text(
    text: str, n_src: int, n_mt: int
) -> tuple[tuple[tuple[float, ...], ...], int]:
    lines = [line for line in text.split("\n") if line.strip()]
    if len(lines) != n_src:
        raise MatrixShapeError(f"expected {n_src} rows, got {len(lines)}")
    rows: list[tuple[float, ...]] = []
    clamped = 0
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != n_mt:
            raise MatrixShapeError(f"row {i}: expected {n_mt} cells, got {len(parts)}")
        row: list[float] = []
        for jcol, part in enumerate(parts):
            cell = part.strip().rstrip("%").strip()
            try:
                value = float(cell) / 100.0
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # "nan" and "inf" parse as floats, not as cells
                raise ValueParseError(i, jcol, part.strip())
            if value < 0.0:
                value = 0.0
                clamped += 1
            elif value > 1.0:
                value = 1.0
                clamped += 1
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows), clamped


def align_pairs(
    pairs: list[tuple[str, str]],
    provider,
    cache: FileCache | None = None,
    *,
    params: GenParams,
    max_in_flight: int = 4,
) -> list[AlignmentMatrix | KpeError]:
    """Elicit each (source, translation) sentence pair's similarity matrix in one batch.

    Both sentences of a pair are split with tokenize, and every pair gets
    one prompt; results come back in input order. A pair that cannot be
    aligned gets its own KpeError in its slot: a blank sentence, an axis
    over MAX_AXIS_TOKENS or a grid over MAX_GRID_CELLS (no prompt is
    sent), the provider's error, or a malformed matrix.
    """
    template = builtin_templates().get("kpe_token_align")
    results: list[AlignmentMatrix | KpeError | None] = [None] * len(pairs)
    asked: list[tuple[int, tuple[str, ...], tuple[str, ...]]] = []
    prompts = []
    for i, (src_text, mt_text) in enumerate(pairs):
        try:
            src_tokens, mt_tokens = tokenize(src_text), tokenize(mt_text)
        except EmptyInputError as exc:
            results[i] = exc
            continue
        n_src, n_mt = len(src_tokens), len(mt_tokens)
        if n_src > MAX_AXIS_TOKENS or n_mt > MAX_AXIS_TOKENS:
            results[i] = TooManyTokensError(
                f"axis limit is {MAX_AXIS_TOKENS} tokens, got {n_src} x {n_mt}"
            )
        elif n_src * n_mt > MAX_GRID_CELLS:
            results[i] = InputTooLargeError(
                f"{n_src} x {n_mt} = {n_src * n_mt} cells exceeds {MAX_GRID_CELLS}"
            )
        else:
            asked.append((i, src_tokens, mt_tokens))
            prompts.append(render_template(
                template,
                {
                    "source_seg": render_token_list(src_tokens),
                    "target_seg": render_token_list(mt_tokens),
                },
            ))
    outcomes = run_batch(provider, cache, prompts, params, max_in_flight)
    for (i, src_tokens, mt_tokens), outcome in zip(asked, outcomes):
        if isinstance(outcome, CompletionFailure):
            results[i] = outcome.exception
            continue
        try:
            cells, clamped = _parse_matrix_text(outcome.text, len(src_tokens), len(mt_tokens))
        except (MatrixShapeError, ValueParseError) as exc:
            results[i] = exc
            continue
        if clamped:
            log.warning("clamped %d alignment cells into [0, 1]", clamped)
        results[i] = AlignmentMatrix(
            src_tokens=src_tokens,
            mt_tokens=mt_tokens,
            cells=cells,
            clamped=clamped,
        )
    return results  # type: ignore[return-value]


def greedy_alignment(matrix: AlignmentMatrix) -> list[tuple[int, int, float]]:
    """For every translation token, the best-scoring source token.

    Returns (src_index, mt_index, score) triples, one per column; ties go
    to the lowest source index.
    """
    links: list[tuple[int, int, float]] = []
    for j in range(len(matrix.mt_tokens)):
        best_i = 0
        best = matrix.cells[0][j]
        for i in range(1, len(matrix.src_tokens)):
            if matrix.cells[i][j] > best:
                best = matrix.cells[i][j]
                best_i = i
        links.append((best_i, j, best))
    return links


_CELL = 24
_FONT = 11


def _gray(score: float) -> str:
    level = 255 - round(score * 255)
    return f"#{level:02x}{level:02x}{level:02x}"


def render_heatmap(matrix: AlignmentMatrix) -> str:
    """Self-contained SVG heatmap; byte-deterministic for a given matrix."""
    n_src, n_mt = len(matrix.src_tokens), len(matrix.mt_tokens)
    if n_src > MAX_AXIS_TOKENS or n_mt > MAX_AXIS_TOKENS:
        raise TooManyTokensError(
            f"axis limit is {MAX_AXIS_TOKENS} tokens, got {n_src} x {n_mt}"
        )
    max_src_len = min(max(len(t) for t in matrix.src_tokens), 24)
    max_mt_len = min(max(len(t) for t in matrix.mt_tokens), 24)
    left = 16 + 7 * max_src_len
    top = 16 + 5 * max_mt_len
    width = left + n_mt * _CELL + 8 + 5 * max_mt_len
    height = top + n_src * _CELL + 8

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    style = f'font-family="monospace" font-size="{_FONT}" fill="#000000"'
    for j, token in enumerate(matrix.mt_tokens):
        x = left + j * _CELL + _CELL // 2
        y = top - 6
        parts.append(
            f'<text x="{x}" y="{y}" {style} text-anchor="start" '
            f'transform="rotate(-45 {x} {y})">{escape(token, quote=False)}</text>'
        )
    for i, token in enumerate(matrix.src_tokens):
        y = top + i * _CELL + _CELL // 2 + _FONT // 2
        parts.append(
            f'<text x="{left - 6}" y="{y}" {style} text-anchor="end">'
            f"{escape(token, quote=False)}</text>"
        )
    for i in range(n_src):
        for j in range(n_mt):
            score = matrix.cells[i][j]
            x = left + j * _CELL
            y = top + i * _CELL
            title = escape(
                f"{matrix.src_tokens[i]} / {matrix.mt_tokens[j]}: {score:.4f}", quote=False
            )
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_gray(score)}" stroke="#cccccc" stroke-width="1">'
                f"<title>{title}</title></rect>"
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
