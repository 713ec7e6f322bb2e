"""Parsers for free-form provider responses.

All parsers are pure functions of their text argument and return the
number itself: parse_categorical the class index (0 = worst; the label is
schema.classes[i]), parse_stars an int and parse_scalar a float. All three
keep one rule: after the last answer anchor of their kind
(prompting.ANSWER_ANCHORS: `Class:`, `Stars:`, `Score:`; "4 stars:" or
"superstars:" is not one), or over the whole answer if it has none, the
leftmost answer wins. A label negated in its own clause is no answer, nor is
either end of a range. They never clamp: an out-of-range number is a
RangeError so degradation stays visible.
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
from .prompting import ANSWER_ANCHORS, ResponseSchema


# An anchor counts where it starts a word; a `Stars:` anchor also needs no
# number just before it on its line ("4 stars: fluent" rates, where
# "0 to 100 Score: 85" and "1 to 5\nStars: 4" anchor).
_WORD_BEFORE_RE = re.compile(r"\w\Z")
_NOT_AN_ANCHOR_RE = {
    "categorical": _WORD_BEFORE_RE,
    "scalar": _WORD_BEFORE_RE,
    "stars": re.compile(r"(?:\w|\d[^\S\n]*)\Z"),
}


def _after_anchor(text: str, kind: str) -> str:
    """The lowercased text after the last anchor of kind, or all of it if there is none."""
    lowered, anchor = text.lower(), ANSWER_ANCHORS[kind].lower()
    pos = len(lowered)
    while (pos := lowered.rfind(anchor, 0, pos + len(anchor) - 1)) != -1:
        if not _NOT_AN_ANCHOR_RE[kind].search(lowered, 0, pos):
            return lowered[pos + len(anchor):]
    return lowered


# A label's clause starts after the last ";", ":", "." or comma before a
# conjunction ahead of it; a negator earlier in that clause rules the label out.
_CLAUSES_RE = re.compile(
    r"(?s:.*(?:[;:.]|,\s*(?:and|but|or|nor|yet|so|although|though|while|whereas)\b))?"
)
_NEGATOR_RE = re.compile(
    r"\b(?:not|no|never|hardly|nothing|nowhere|rather|instead|far\s+from|anything\s+but)\b"
    r"|n['’]t\b"
)


def _negated(lowered: str, pos: int) -> bool:
    """Whether a negator comes before pos in the clause that holds it."""
    start = _CLAUSES_RE.match(lowered, 0, pos).end()
    return _NEGATOR_RE.search(lowered, start, pos) is not None


def parse_categorical(text: str, schema: ResponseSchema) -> int:
    """Return the index of the class label a response names.

    Case-insensitive substring search under the module's rule: after the
    last `Class:` anchor, the first label wins, and of two starting together
    the longer. A label is skipped when a negator comes before it in its own
    clause: "Class: rather than a Perfect translation; Good translation"
    reads Good translation. If every label found is negated, that is a
    NoMatchError; distinct labels on one span (case-variants only) are an
    AmbiguityError.
    """
    if schema.kind != "categorical":
        raise ValueError("parse_categorical needs a categorical schema")
    lowered = _after_anchor(text, "categorical")
    found: list[tuple[int, int, int]] = []  # (pos, -len, class index) of each match
    for idx, label in enumerate(schema.classes):
        needle = label.lower()
        pos = lowered.find(needle)
        while pos != -1:
            found.append((pos, -len(needle), idx))
            pos = lowered.find(needle, pos + 1)
    found.sort()
    for n, (pos, length, idx) in enumerate(found):
        if _negated(lowered, pos):
            continue
        if n + 1 < len(found) and found[n + 1][:2] == (pos, length):
            raise AmbiguityError(
                f"labels {schema.classes[idx]!r} and {schema.classes[found[n + 1][2]]!r} "
                f"both match at position {pos}"
            )
        return idx
    if found:
        raise NoMatchError(f"the only class labels in {text!r} are negated")
    raise NoMatchError(f"no class label found in {text!r}")


# A rating is star glyphs or a number with an optional "/M", "of M" or "out
# of M" scale. At each start a range, with its scale, is tried first, so
# neither of its ends nor its scale is read as a rating.
_NUM = r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?"
_OF = r"\s*\(?\s*(?:/|(?:out\s+)?of)\s*"
_RATING_RE = re.compile(
    rf"(?:\bbetween\s+{_NUM}\s+and\s+|{_NUM}\s*(?:-|to\b)\s*){_NUM}(?:{_OF}{_NUM})?"
    rf"|(★+)|({_NUM})(?:{_OF}({_NUM}))?"
)


def _rating(text: str, kind: str, lo: float, hi: float) -> float:
    """The leftmost rating after the anchor of kind, in [lo, hi].

    An M other than hi rates on another scale, a RangeError. Ranges with no
    rating are an AmbiguityError.
    """
    ranged = False
    for m in _RATING_RE.finditer(_after_anchor(text, kind)):
        glyphs, number, scale = m.groups()
        if not (glyphs or number):
            ranged = True
            continue
        value = float(len(glyphs) if glyphs else number)
        if scale is not None and float(scale) != hi:
            raise RangeError(f"{number} out of {scale} is not a rating out of {hi}")
        if not lo <= value <= hi:
            raise RangeError(f"{m.group()} outside [{lo}, {hi}]")
        return value
    if ranged:
        raise AmbiguityError(f"{text!r} gives a range, not a rating")
    if kind == "stars":
        raise NoMatchError(f"no star rating found in {text!r}")
    raise NoNumberError(f"no number found in {text!r}")


def parse_scalar(text: str, lo: float = 0.0, hi: float = 100.0) -> float:
    """Parse the leftmost number after `Score:`, not a range; "8.5/10" of 100 is a RangeError."""
    return _rating(text, "scalar", lo, hi)


def parse_stars(text: str, lo: int = 1, hi: int = 5) -> int:
    """Parse a star rating: star glyphs, "N/hi", "N of hi", "N out of hi" or a bare N.

    "4 out of 5 stars" reads 4, and "On a 1-5 scale, 4 stars" skips the
    range; a fractional count of stars is a RangeError.
    """
    value = _rating(text, "stars", lo, hi)
    if not value.is_integer():
        raise RangeError(f"{value} is not a whole number of stars")
    return int(value)


def category_to_ordinal(class_string: str, schema: ResponseSchema) -> int:
    """Map a class label to its rank in the schema (0 = worst)."""
    if schema.kind != "categorical":
        raise ValueError("category_to_ordinal needs a categorical schema")
    for idx, label in enumerate(schema.classes):
        if label.lower() == class_string.strip().lower():
            return idx
    raise UnknownClassError(f"{class_string!r} is not in the class list")
