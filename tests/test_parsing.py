from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpe.errors import (
    AmbiguityError,
    NoMatchError,
    NoNumberError,
    ParseError,
    RangeError,
    UnknownClassError,
)
from kpe.parsing import (
    category_to_ordinal,
    parse_categorical,
    parse_scalar,
    parse_stars,
)
from kpe.prompting import ResponseSchema, builtin_templates

CAT5 = builtin_templates().get("gemba_classify").schema
CAT3 = builtin_templates().get("gemba_classify_cat3").schema
CATEGORICAL = [
    schema
    for schema in (builtin_templates().get(tid).schema for tid in builtin_templates().ids())
    if schema.kind == "categorical"
]


def test_every_builtin_class_parses_back():
    registry = builtin_templates()
    for template_id in registry.ids():
        schema = registry.get(template_id).schema
        if schema.kind != "categorical":
            continue
        for idx, label in enumerate(schema.classes):
            got = parse_categorical(f"Class: {label}.", schema)
            assert got == idx
            assert schema.classes[got] == label


def test_categorical_is_case_insensitive():
    got = parse_categorical("class: PERFECT TRANSLATION", CAT5)
    assert got == 4


def test_categorical_longest_match_wins():
    # the short and long labels share a prefix; the long one must win
    text = "Some meaning preserved, but not understandable"
    got = parse_categorical(text, CAT5)
    assert got == 1


def test_categorical_reads_after_the_last_class_anchor():
    # an answer that echoes the class list before its verdict
    echoed = (
        'The classes are "No meaning preserved", "Some meaning preserved, but not '
        'understandable", "Some meaning preserved and understandable", "Most meaning '
        'preserved, minor issues", "Perfect translation".\nClass: Perfect translation'
    )
    assert parse_categorical(echoed, CAT5) == 4
    assert parse_categorical("CLASS: no meaning preserved", CAT5) == 0
    assert parse_categorical("class: x. Class: Some meaning preserved and understandable",
                             CAT5) == 2
    with pytest.raises(NoMatchError):
        parse_categorical("Perfect translation. Class: unsure", CAT5)


def test_categorical_skips_a_negated_label():
    # "not a Perfect translation" names the class the answer rules out
    for text in ("Class: not a Perfect translation",
                 "Class: Not a perfect translation, but Good translation",
                 "Class: it isn't the Perfect translation",
                 "Class: far from Perfect translation",
                 "Class: anything but a Perfect translation"):
        with pytest.raises(NoMatchError, match="negated"):
            parse_categorical(text, CAT5)
    assert parse_categorical("Class: Not a perfect translation, but Good translation",
                             CAT3) == 2
    assert parse_categorical("Class: not Perfect translation; Most meaning preserved, "
                             "minor issues", CAT5) == 3
    assert parse_categorical("Class: far from a Perfect translation; Some meaning preserved "
                             "and understandable", CAT5) == 2
    assert parse_categorical("Class: anything but Perfect translation. Most meaning "
                             "preserved, minor issues", CAT5) == 3
    # a negation word inside a label, or before an unrelated word, is not a negation
    assert parse_categorical("Class: No meaning preserved", CAT5) == 0
    assert parse_categorical("Class: Some meaning preserved, but not understandable",
                             CAT5) == 1
    assert parse_categorical("Class: cannot fault it, Perfect translation", CAT5) == 4
    assert parse_categorical("Class: far, far from bad: Perfect translation", CAT5) == 4
    assert parse_categorical("Class: anything but... Good translation", CAT3) == 2



def test_categorical_after_an_anchor_the_first_label_wins():
    fluency = builtin_templates().get("kpe_perplexity").schema
    for text, label in (
        ("Class: Perfectly fluent, although Moderately fluent would be too harsh",
         "Perfectly fluent"),
        ("Class: Mostly fluent (not merely Moderately fluent)", "Mostly fluent"),
    ):
        assert fluency.classes[parse_categorical(text, fluency)] == label
    assert parse_categorical("Class: Perfect translation, although Some meaning preserved "
                             "and understandable would be too harsh", CAT5) == 4
    assert parse_categorical("Class: Perfect translation (not merely Most meaning "
                             "preserved, minor issues)", CAT5) == 4
    # at one start, the longer of two labels that share a prefix still wins
    schema = ResponseSchema(kind="categorical", classes=("aa", "AA bb", "cc"))
    assert schema.classes[parse_categorical("Class: AA bb, not cc", schema)] == "AA bb"
    assert schema.classes[parse_categorical("Class: cc or AA bb", schema)] == "cc"


def test_categorical_earliest_of_equal_lengths():
    schema = ResponseSchema(kind="categorical", classes=("alpha", "gamma"))
    got = parse_categorical("gamma then alpha", schema)
    assert schema.classes[got] == "gamma"


def test_prefix_overlap_resolves_to_longer_label():
    schema = ResponseSchema(kind="categorical", classes=("aa", "AA bb"))
    got = parse_categorical("AA bb", schema)
    assert schema.classes[got] == "AA bb"


def test_categorical_no_match():
    with pytest.raises(NoMatchError):
        parse_categorical("I cannot answer that", CAT5)


def test_ambiguity_only_on_identical_span():
    schema = ResponseSchema(kind="categorical", classes=("ab cd", "cd ef"))
    # both labels occur, equal length, different positions: earliest wins
    assert schema.classes[parse_categorical("ab cd ef", schema)] == "ab cd"
    # case-variant labels are pairwise distinct yet cover the same span
    with pytest.raises(AmbiguityError):
        parse_categorical("xx", ResponseSchema(kind="categorical", classes=("xX", "xx")))


def test_parse_scalar():
    assert parse_scalar("Score: 87") == 87.0
    assert type(parse_scalar("Score: 87")) is float
    assert parse_scalar("87.5 / 100") == 87.5
    assert parse_scalar("about 12, maybe") == 12.0


def test_parse_scalar_reads_after_the_last_score_anchor():
    # an answer that restates the scale before its verdict
    assert parse_scalar("Scores range from 0 to 100. Score: 85", 0, 100) == 85.0
    assert parse_scalar("score: 10. SCORE: 72.5", 0, 100) == 72.5
    with pytest.raises(NoNumberError):
        parse_scalar("From 0 to 100. Score: unsure", 0, 100)
    # without an anchor the whole answer is read, and a range is not a rating
    assert parse_scalar("On a scale from 0 to 100, 85.", 0, 100) == 85.0


def test_an_anchor_starts_a_word_and_follows_no_number():
    # "4 stars:" is a rating followed by a colon, not the Stars: anchor
    assert parse_stars("I would give it 4 stars: fluent and accurate.", 1, 5) == 4
    assert parse_stars("Stars: 4 stars: fluent", 1, 5) == 4
    # "superstars:" and "subclass:" hold an anchor's letters but do not start one
    assert parse_stars("Stars: 3 (5 for the superstars: none)", 1, 5) == 3
    assert parse_categorical("Class: Perfect translation (the subclass: unclear)", CAT5) == 4
    # a number with other text, or a line break, before the anchor leaves the anchor whole
    assert parse_scalar("Scores range from 0 to 100. Score: 85", 0, 100) == 85.0
    assert parse_scalar("Rate it on a scale from 0 to 100\nScore: 85", 0, 100) == 85.0
    assert parse_stars("Rate it from 1 to 5\n  Stars: 4", 1, 5) == 4


def test_only_the_stars_anchor_must_follow_no_number():
    # "4 stars:" is a rating, but a number before "Score:" or "Class:" is the scale
    assert parse_scalar("Scores range from 0 to 100 Score: 85", 0, 100) == 85.0
    assert parse_categorical("From Bad translation to Good translation, 1 to 3 "
                             "Class: Bad translation", CAT3) == 0
    assert parse_stars("I would give it 4 stars: fluent and accurate.", 1, 5) == 4
    assert parse_stars("Stars: 4 stars: fluent", 1, 5) == 4


def test_categorical_skips_a_label_after_hardly_or_no_way():
    with pytest.raises(NoMatchError, match="negated"):
        parse_categorical("Class: hardly a Perfect translation", CAT5)
    with pytest.raises(NoMatchError, match="negated"):
        parse_categorical("Class: no way the Perfect translation", CAT5)
    assert parse_categorical("Class: no way a Perfect translation; Some meaning preserved "
                             "and understandable", CAT5) == 2
    assert parse_categorical("Class: hardly Perfect translation. Most meaning preserved, "
                             "minor issues", CAT5) == 3
    for negation in ("by no means a", "nowhere near a", "never a"):
        assert parse_categorical(f"Class: {negation} Perfect translation; Some meaning "
                                 "preserved and understandable", CAT5) == 2
    # "No meaning preserved" starts with "no" but is a label, not "no way"
    assert parse_categorical("Class: No meaning preserved", CAT5) == 0


def test_parse_scalar_never_clamps():
    with pytest.raises(RangeError):
        parse_scalar("105", 0, 100)
    with pytest.raises(RangeError):
        parse_scalar("-3", 0, 100)
    with pytest.raises(NoNumberError):
        parse_scalar("no digits here")


def test_parse_stars_forms():
    assert parse_stars("★★★") == 3
    assert type(parse_stars("4/5")) is int
    assert parse_stars("4/5") == 4
    assert parse_stars("2 stars") == 2
    assert parse_stars("1 star") == 1
    assert parse_stars("Stars: 5") == 5


def test_parse_stars_range():
    with pytest.raises(RangeError):
        parse_stars("6/5")
    with pytest.raises(RangeError):
        parse_stars("0 stars")
    with pytest.raises(NoMatchError):
        parse_stars("no rating")


def test_parse_stars_reads_the_rating_not_the_scale():
    assert parse_stars("4 out of 5 stars", 1, 5) == 4
    assert parse_stars("Stars: 4 (out of 5 stars)", 1, 5) == 4
    # only the text after the last anchor is read, so an echoed scale is skipped
    assert parse_stars("Rate it from 1 to 5 stars.\nStars: 2", 1, 5) == 2
    # the denominator is the caller's top of scale, not a literal 5
    assert parse_stars("7/10 stars", 1, 10) == 7
    with pytest.raises(RangeError):
        parse_stars("3 out of 10", 1, 5)



def test_parse_stars_reads_the_leftmost_rating_after_the_anchor():
    assert parse_stars("Stars: 3. Not 5 stars.", 1, 5) == 3
    assert parse_stars("Stars: 3 (I considered 5 stars)", 1, 5) == 3
    assert parse_stars("Stars: 2 stars, not ★★★★", 1, 5) == 2
    assert parse_stars("Stars: ★★ rather than 4/5", 1, 5) == 2
    # an "N out of M" consumes its N, and "N stars" outranks a bare N at one start
    assert parse_stars("Stars: 4 out of 5 stars", 1, 5) == 4
    assert parse_stars("Stars: 4 stars", 1, 5) == 4
    with pytest.raises(RangeError):
        parse_stars("Stars: 3 out of 10, or 2 stars", 1, 5)
    # without an anchor the whole answer is read, and a range is not a rating
    assert parse_stars("On a 1-5 scale, 4 stars", 1, 5) == 4


def _parse_cat5(text: str) -> int:
    return parse_categorical(text, CAT5)


# Answers that each read as a wrong score before one rule read every parser:
# after the last anchor, or over the whole answer, the leftmost answer wins.
@pytest.mark.parametrize("parse, text, expected", [
    (parse_stars, "2 of 5 stars", 2),
    (parse_stars, "4.5 stars", RangeError),
    (parse_stars, "Stars: 4.5", RangeError),
    (parse_stars, "Stars: 3.5/5", RangeError),
    (parse_scalar, "Score: 8.5/10", RangeError),
    (parse_scalar, "Score: 1e2", 100.0),
    (parse_scalar, "Score: between 70 and 80", AmbiguityError),
    (parse_scalar, "On a scale from 0 to 100, the score is 85.", 85.0),
    (parse_scalar, "Score: 8-9/10", AmbiguityError),
    (parse_scalar, "Score: 70 to 80", AmbiguityError),
    (parse_stars, "Stars: 3 to 4, say 4", 4),
    *((_parse_cat5, f"Class: {negation} Perfect translation; Some meaning preserved "
                    "and understandable", 2)
      for negation in ("isn't remotely a", "nothing like a", "not even close to a",
                       "rather than a", "instead of a")),
])
def test_the_leftmost_answer_after_the_anchor_wins(parse, text, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            parse(text)
    else:
        got = parse(text)
        assert got == expected and type(got) is type(expected)


def test_star_glyphs_win_over_digits():
    assert parse_stars("★★ (2/5)") == 2
    assert parse_stars("rating ★★★★ out of 5") == 4


# Answer text assembled from parser-relevant pieces and arbitrary text.
_PIECES = st.sampled_from([
    "Class:", "class :", "CLASS", "Stars:", "stars", "Score:", "score", " ", "\n", ".", ",",
    "not ", "n't ", "far from ", "anything but ", "a ", "the ", "★", "★★", "/", "/5",
    " out of ", "5", "4", "-1", "0", "100", "3.5", "1e3", "1e999", "from ", " to ",
    "between ", " and ", " of ", "isn't ", "nothing like ", "rather than ", ";", ":",
    *dict.fromkeys(label for schema in CATEGORICAL for label in schema.classes),
])
_ANSWERS = st.lists(st.one_of(_PIECES, st.text(max_size=6)), max_size=12).map("".join)


@settings(derandomize=True, max_examples=300)
@given(text=_ANSWERS, schema=st.sampled_from(CATEGORICAL))
def test_categorical_returns_a_class_index_or_raises_a_parse_error(text, schema):
    try:
        got = parse_categorical(text, schema)
    except ParseError:
        return
    assert type(got) is int and 0 <= got < len(schema.classes)


@settings(derandomize=True, max_examples=300)
@given(text=_ANSWERS, scale=st.sampled_from([(1, 5), (1, 10), (0, 4)]))
def test_stars_returns_an_in_range_int_or_raises_a_parse_error(text, scale):
    lo, hi = scale
    try:
        got = parse_stars(text, lo, hi)
    except ParseError:
        return
    assert type(got) is int and lo <= got <= hi


@settings(derandomize=True, max_examples=300)
@given(text=_ANSWERS, scale=st.sampled_from([(0.0, 100.0), (0.0, 1.0), (-5.0, 5.0)]))
def test_scalar_returns_an_in_range_float_or_raises_a_parse_error(text, scale):
    lo, hi = scale
    try:
        got = parse_scalar(text, lo, hi)
    except ParseError:
        return
    assert type(got) is float and lo <= got <= hi


@settings(derandomize=True, max_examples=300)
@given(data=st.data(), tail=_ANSWERS.filter(lambda t: "class:" not in t.lower()))
def test_categorical_reads_the_label_right_after_the_only_anchor(data, tail):
    schema = data.draw(st.sampled_from(CATEGORICAL))
    idx = data.draw(st.sampled_from(range(len(schema.classes))))
    assert parse_categorical("Class: " + schema.classes[idx] + tail, schema) == idx


def test_category_to_ordinal():
    assert category_to_ordinal("Perfect translation", CAT5) == 4
    assert category_to_ordinal("  no meaning preserved ", CAT5) == 0
    assert category_to_ordinal("Good translation", CAT3) == 2
    with pytest.raises(UnknownClassError):
        category_to_ordinal("Great translation", CAT5)


def test_non_categorical_schema_rejected():
    scalar = ResponseSchema(kind="scalar", lo=0, hi=1)
    with pytest.raises(ValueError):
        parse_categorical("x", scalar)
    with pytest.raises(ValueError):
        category_to_ordinal("x", scalar)
