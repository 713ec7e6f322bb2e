from __future__ import annotations

import pytest

from kpe.errors import (
    AmbiguityError,
    NoMatchError,
    NoNumberError,
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


def test_star_glyphs_win_over_digits():
    assert parse_stars("★★ (2/5)") == 2
    assert parse_stars("rating ★★★★ out of 5") == 4


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
