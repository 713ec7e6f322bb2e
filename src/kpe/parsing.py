"""Parsers for free-form provider responses.

All parsers are pure functions of their text argument and return the
number itself: parse_categorical the class index (0 = worst; the label is
schema.classes[i]), parse_stars an int and parse_scalar a float. Each
reads only the text after the last answer anchor of its kind
(prompting.ANSWER_ANCHORS: `Class:`, `Stars:`, `Score:`), or the whole
answer if it has none; "4 stars:" or "superstars:" is not an anchor. They
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


def _after_anchor(text: str, kind: str) -> tuple[str, bool]:
    """The lowercased text after the last anchor of kind, and whether there was one.

    With no anchor the text is all of the answer.
    """
    lowered, anchor = text.lower(), ANSWER_ANCHORS[kind].lower()
    pos = len(lowered)
    while (pos := lowered.rfind(anchor, 0, pos + len(anchor) - 1)) != -1:
        if not _NOT_AN_ANCHOR_RE[kind].search(lowered, 0, pos):
            return lowered[pos + len(anchor):], True
    return lowered, False


# A negation, then an optional article, right before a label: the answer
# rules that class out ("not a Perfect translation"), so it is not a match.
_NEGATION_RE = re.compile(
    r"(?:\bnot|n't|\bfar\s+from|\banything\s+but|\bhardly|\bno\s+way|\bby\s+no\s+means"
    r"|\bnowhere\s+near|\bnever)\s+(?:(?:a|an|the)\s+)?$"
)


def parse_categorical(text: str, schema: ResponseSchema) -> int:
    """Return the index of the class label a response names.

    Case-insensitive substring search; punctuation or quotes around the
    label do not matter because matching is positional. If the response
    has a `Class:` anchor, only the text after the last one is searched, so
    an answer that first echoes the class list is read from its verdict.
    After an anchor, the label that starts first wins, so an answer that
    goes on to name a class it rejects is read from its verdict; of two
    labels starting together, the longer wins. Without an anchor, the
    longest label anywhere wins, the earliest of equal lengths. A label
    right after "not", "n't", "far from", "anything but", "hardly",
    "no way", "by no means", "nowhere near" or "never" (and maybe
    a/an/the) is negated and never matches; if only negated labels occur,
    that is a NoMatchError. Distinct labels matching the same best span
    (possible only if two labels are case-variants) is an AmbiguityError.
    """
    if schema.kind != "categorical":
        raise ValueError("parse_categorical needs a categorical schema")
    lowered, anchored = _after_anchor(text, "categorical")
    # (pos, -len, class index) after an anchor, else (-len, pos, class index)
    best: tuple[int, int, int] | None = None
    negated = False
    for idx, label in enumerate(schema.classes):
        needle = label.lower()
        pos = lowered.find(needle)
        while pos != -1:
            cand = (pos, -len(needle), idx) if anchored else (-len(needle), pos, idx)
            if _NEGATION_RE.search(lowered, 0, pos):
                negated = True
            elif best is None or cand[:2] < best[:2]:
                best = cand
            elif cand[:2] == best[:2] and cand[2] != best[2]:
                raise AmbiguityError(
                    f"labels {schema.classes[best[2]]!r} and {label!r} "
                    f"both match at position {pos}"
                )
            pos = lowered.find(needle, pos + 1)
    if best is None:
        if negated:
            raise NoMatchError(f"the only class labels in {text!r} are negated")
        raise NoMatchError(f"no class label found in {text!r}")
    return best[2]


_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


def parse_scalar(text: str, lo: float = 0.0, hi: float = 100.0) -> float:
    """Parse the first decimal number after the anchor; outside [lo, hi] is a RangeError."""
    m = _NUMBER_RE.search(_after_anchor(text, "scalar")[0])
    if not m:
        raise NoNumberError(f"no number found in {text!r}")
    value = float(m.group(0))
    if not lo <= value <= hi:
        raise RangeError(f"{value} outside [{lo}, {hi}]")
    return value


# The star-rating forms in order of rank; m.lastindex is the form's rank.
_STARS_RE = re.compile(
    r"(★+)"  # 1: glyphs
    r"|(-?\d+)\s*\(?\s*(?:/|out\s+of)\s*(\d+)"  # 3: N/M or N out of M
    r"|(-?\d+)\s*stars?\b"  # 4: N stars
    r"|(-?\d+)"  # 5: a bare N
)


def parse_stars(text: str, lo: int = 1, hi: int = 5) -> int:
    """Parse a star rating: star glyphs, "N/hi" or "N out of hi", "N stars", or a bare N.

    As in parse_categorical, a response with a `Stars:` anchor is read only
    after the last one, and there the leftmost rating wins ("Stars: 3. Not
    5 stars." reads 3). At one start the forms rank in the order above, and
    an "N out of M" takes its N with it, so "4 out of 5 stars" reads 4, not
    the scale's 5. Without an anchor, the highest-ranked form anywhere wins,
    the earliest of one form. An "N/M" or "N out of M" whose M is not hi is
    a RangeError: it rates on another scale.
    """
    tail, anchored = _after_anchor(text, "stars")
    matches = _STARS_RE.finditer(tail)
    if anchored:
        m = next(matches, None)
    else:
        m = min(matches, key=lambda m: m.lastindex, default=None)
    if m is None:
        raise NoMatchError(f"no star rating found in {text!r}")
    glyphs, n_of, scale, n_stars, bare = m.groups()
    if glyphs:
        value = len(glyphs)
    else:
        value = int(n_of or n_stars or bare)
        if scale is not None and int(scale) != hi:
            raise RangeError(f"{value} out of {scale} is not a rating out of {hi} stars")
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
