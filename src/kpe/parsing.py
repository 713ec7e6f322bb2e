"""Parsers for free-form provider responses.

All parsers are pure functions of their text argument and return the
number itself: parse_categorical the class index (0 = worst; the label is
schema.classes[i]), parse_stars an int and parse_scalar a float. They
never clamp: an out-of-range number is a RangeError so degradation stays
visible.
"""

from __future__ import annotations

import re

from .errors import (
    AmbiguityError,
    NoMatchError,
    NoNumberError,
    RangeError,
    UnknownClassError,
)
from .prompting import ResponseSchema


_CLASS_ANCHOR = "class:"


def parse_categorical(text: str, schema: ResponseSchema) -> int:
    """Return the index of the class label a response names.

    Case-insensitive substring search; punctuation or quotes around the
    label do not matter because matching is positional. If the response
    has a `Class:` anchor, only the text after the last one is searched, so
    an answer that first echoes the class list is read from its verdict.
    When several labels occur, the longest match wins; equal lengths fall
    back to the earliest occurrence. Distinct labels matching the same best
    span (possible only if two labels are case-variants) is an
    AmbiguityError.
    """
    if schema.kind != "categorical":
        raise ValueError("parse_categorical needs a categorical schema")
    lowered = text.lower()
    anchor = lowered.rfind(_CLASS_ANCHOR)
    if anchor != -1:
        lowered = lowered[anchor + len(_CLASS_ANCHOR):]
    best: tuple[int, int, int] | None = None  # (-len, pos, class index)
    for idx, label in enumerate(schema.classes):
        needle = label.lower()
        pos = lowered.find(needle)
        while pos != -1:
            cand = (-len(needle), pos, idx)
            if best is None or cand[:2] < best[:2]:
                best = cand
            elif cand[:2] == best[:2] and cand[2] != best[2]:
                raise AmbiguityError(
                    f"labels {schema.classes[best[2]]!r} and {label!r} "
                    f"both match at position {pos}"
                )
            pos = lowered.find(needle, pos + 1)
    if best is None:
        raise NoMatchError(f"no class label found in {text!r}")
    return best[2]


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def parse_scalar(text: str, lo: float = 0.0, hi: float = 100.0) -> float:
    """Parse the first decimal number; outside [lo, hi] is a RangeError."""
    m = _NUMBER_RE.search(text)
    if not m:
        raise NoNumberError(f"no number found in {text!r}")
    value = float(m.group(0))
    if not lo <= value <= hi:
        raise RangeError(f"{value} outside [{lo}, {hi}]")
    return value


_STAR_GLYPH_RE = re.compile(r"★+")
_N_OF_5_RE = re.compile(r"(-?\d+)\s*/\s*5")
_N_STARS_RE = re.compile(r"(-?\d+)\s*stars?\b", re.IGNORECASE)
_INT_RE = re.compile(r"-?\d+")


def parse_stars(text: str, lo: int = 1, hi: int = 5) -> int:
    """Parse a star rating: a run of star glyphs, "N/5", "N stars", or a bare N."""
    m = _STAR_GLYPH_RE.search(text)
    if m:
        value = len(m.group(0))
    else:
        for pattern in (_N_OF_5_RE, _N_STARS_RE, _INT_RE):
            m = pattern.search(text)
            if m:
                value = int(m.group(1) if pattern is not _INT_RE else m.group(0))
                break
        else:
            raise NoMatchError(f"no star rating found in {text!r}")
    if not lo <= value <= hi:
        raise RangeError(f"{value} stars outside [{lo}, {hi}]")
    return value


def category_to_ordinal(class_string: str, schema: ResponseSchema) -> int:
    """Map a class label to its rank in the schema (0 = worst)."""
    if schema.kind != "categorical":
        raise ValueError("category_to_ordinal needs a categorical schema")
    for idx, label in enumerate(schema.classes):
        if label.lower() == class_string.strip().lower():
            return idx
    raise UnknownClassError(f"{class_string!r} is not in the class list")
