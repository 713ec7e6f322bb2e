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
_OUT_OF_RE = re.compile(r"(-?\d+)\s*\(?\s*(?:/|out\s+of)\s*(\d+)", re.IGNORECASE)
_N_STARS_RE = re.compile(r"(-?\d+)\s*stars?\b", re.IGNORECASE)
_INT_RE = re.compile(r"(-?\d+)")
_STARS_ANCHOR_RE = re.compile(r"stars:", re.IGNORECASE)


def parse_stars(text: str, lo: int = 1, hi: int = 5) -> int:
    """Parse a star rating: star glyphs, "N/hi" or "N out of hi", "N stars", or a bare N.

    The forms are tried in that order, so "4 out of 5 stars" reads 4, not
    the scale's 5. As in parse_categorical, a response with a `Stars:`
    anchor is read only after the last one. An "N/M" or "N out of M" whose
    M is not hi is a RangeError: it rates on another scale.
    """
    tail = _STARS_ANCHOR_RE.split(text)[-1]
    if m := _STAR_GLYPH_RE.search(tail):
        value = len(m.group(0))
    elif m := _OUT_OF_RE.search(tail):
        value, scale = int(m.group(1)), int(m.group(2))
        if scale != hi:
            raise RangeError(f"{value} out of {scale} is not a rating out of {hi} stars")
    elif m := _N_STARS_RE.search(tail) or _INT_RE.search(tail):
        value = int(m.group(1))
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
