from __future__ import annotations

import threading
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpe.alignment import (
    MAX_GRID_CELLS,
    AlignmentMatrix,
    _parse_matrix_text,
    align_pairs,
    greedy_alignment,
    render_heatmap,
    tokenize,
)
from kpe.backend import FileCache, GenParams, MockProvider
from kpe.errors import (
    EmptyInputError,
    InputTooLargeError,
    MatrixShapeError,
    TooManyTokensError,
    TransportError,
    ValueParseError,
)
from kpe.prompting import parse_token_list, render_token_list

GOLDEN = Path(__file__).parent / "data" / "golden_heatmap.svg"
PARAMS = GenParams(model_id="mock-1")


def golden_matrix() -> AlignmentMatrix:
    return AlignmentMatrix(
        src_tokens=("he", "came", "."),
        mt_tokens=("he", "arrived", "home", "."),
        cells=(
            (1.0, 0.02, 0.02, 0.02),
            (0.02, 0.9, 0.31, 0.02),
            (0.02, 0.02, 0.02, 0.95),
        ),
    )


# tokenizer -------------------------------------------------------------------

def test_tokenize_detaches_edge_punctuation():
    assert tokenize("Hello, world!") == ("Hello", ",", "world", "!")


def test_tokenize_splits_cjk_per_character():
    assert tokenize("他 今天 回家") == ("他", "今", "天", "回", "家")
    assert tokenize("abc你好") == ("abc", "你", "好")


def test_tokenize_nested_punctuation():
    assert tokenize("(foo).") == ("(", "foo", ")", ".")


def test_tokenize_keeps_interior_punctuation():
    # only chunk-edge punctuation is detached
    assert tokenize("don't stop") == ("don't", "stop")


def test_tokenize_empty_input():
    with pytest.raises(EmptyInputError):
        tokenize("   ")


# Sentences assembled from tokenizer-relevant pieces and arbitrary text.
_SENTENCE_PIECES = st.sampled_from([
    " ", "  ", "\t", "\n", "\r\n", "\u3000", "\x85", "\u2028", ".", ",", "!", "(", ")", "'",
    "«", "»", "—", "他", "今天", "回家", "abc", "don't", "1.", "2. x", "%",
])
_SENTENCES = st.lists(
    st.one_of(_SENTENCE_PIECES, st.text(max_size=6)), max_size=12
).map("".join).filter(str.strip)


@settings(derandomize=True, max_examples=300)
@given(sentence=_SENTENCES)
def test_tokenize_gives_nonempty_whitespace_free_tokens_that_survive_a_token_list(sentence):
    tokens = tokenize(sentence)
    assert type(tokens) is tuple and tokens
    for token in tokens:
        assert token and not any(c.isspace() for c in token)
    # the mock reads its token lists back from the rendered prompt
    assert tuple(parse_token_list(render_token_list(tokens))) == tokens


# matrix parsing --------------------------------------------------------------

def test_parse_matrix_text_strips_percent_signs():
    cells, clamped = _parse_matrix_text("100, 50%\n0 , 25 %", 2, 2)
    assert cells == ((1.0, 0.5), (0.0, 0.25))
    assert clamped == 0


def test_parse_matrix_text_row_count_mismatch():
    with pytest.raises(MatrixShapeError, match="expected 3 rows, got 2"):
        _parse_matrix_text("1, 2\n3, 4", 3, 2)


def test_parse_matrix_text_column_count_mismatch():
    with pytest.raises(MatrixShapeError, match="row 1"):
        _parse_matrix_text("1, 2\n3, 4, 5", 2, 2)


def test_parse_matrix_text_bad_cell_reports_position():
    with pytest.raises(ValueParseError) as err:
        _parse_matrix_text("10, 20\n30, lots", 2, 2)
    assert (err.value.row, err.value.col) == (1, 1)


def test_parse_matrix_text_clamps_out_of_range():
    cells, clamped = _parse_matrix_text("120, -5\n50, 100", 2, 2)
    assert cells == ((1.0, 0.0), (0.5, 1.0))
    assert clamped == 2


def test_matrix_shape_validation():
    with pytest.raises(ValueError, match="row count"):
        AlignmentMatrix(src_tokens=("a", "b"), mt_tokens=("x",), cells=((0.5,),))
    with pytest.raises(ValueError, match="column count"):
        AlignmentMatrix(src_tokens=("a",), mt_tokens=("x", "y"), cells=((0.5,),))
    with pytest.raises(ValueError, match="outside"):
        AlignmentMatrix(src_tokens=("a",), mt_tokens=("x",), cells=((1.5,),))
    with pytest.raises(ValueError, match="at least one token"):
        AlignmentMatrix(src_tokens=(), mt_tokens=("x",), cells=())
    with pytest.raises(ValueError, match="at least one token"):
        AlignmentMatrix(src_tokens=("a",), mt_tokens=(), cells=((),))


# elicitation -----------------------------------------------------------------

def test_align_one_pair_mock_self_alignment():
    text = "He came home today."
    (matrix,) = align_pairs([(text, text)], MockProvider(), params=PARAMS)
    n = len(tokenize(text))
    for i in range(n):
        for j in range(n):
            if i == j:
                assert matrix.cells[i][j] >= 0.95
            else:
                assert matrix.cells[i][j] == pytest.approx(0.02)


def test_align_one_pair_grid_guard():
    big = " ".join(f"t{i}" for i in range(33))
    assert 33 * 33 > MAX_GRID_CELLS
    provider = MockProvider()
    (result,) = align_pairs([(big, big)], provider, params=PARAMS)
    assert isinstance(result, InputTooLargeError)
    assert provider.calls == 0


class TrackingProvider(MockProvider):
    """Mock alignment answers, slowed down, recording how many calls overlap.

    A source token "down" makes the call raise TransportError; "garble"
    answers one row too few; "junk" answers a cell that is not a number.
    """

    def __init__(self) -> None:
        super().__init__()
        self.active = 0
        self.peak = 0
        self.seen: list[str] = []
        self.raised: list[TransportError] = []
        self._gauge = threading.Lock()

    def complete(self, prompt, params):
        with self._gauge:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self.seen.append(prompt.final_text)
        try:
            time.sleep(0.02)
            source = prompt.bindings["source_seg"]
            if "down" in source:
                self.raised.append(TransportError("connection refused"))
                raise self.raised[-1]
            text = super().complete(prompt, params)
            if "garble" in source:
                return text.split("\n", 1)[1]
            if "junk" in source:
                return text.replace("2", "n/a", 1)
            return text
        finally:
            with self._gauge:
                self.active -= 1


def test_align_pairs_sends_each_unique_prompt_once_within_max_in_flight(tmp_path):
    unique = [(f"he came home {i} .", f"he arrived home {i} .") for i in range(5)]
    pairs = unique + [unique[0], unique[3], unique[0]]
    provider = TrackingProvider()
    results = align_pairs(
        pairs, provider, FileCache(tmp_path / "cache"), params=PARAMS, max_in_flight=2
    )
    assert provider.calls == len(set(provider.seen)) == 5
    assert provider.peak <= 2
    for (src, mt), matrix in zip(pairs, results):
        assert matrix == align_pairs([(src, mt)], MockProvider(), params=PARAMS)[0]


def test_align_pairs_warm_rerun_makes_no_calls(tmp_path):
    pairs = [(f"he came home {i} .", f"he arrived home {i} .") for i in range(4)]
    cold = align_pairs(pairs, MockProvider(), FileCache(tmp_path / "cache"), params=PARAMS)
    provider = MockProvider()
    warm = align_pairs(pairs, provider, FileCache(tmp_path / "cache"), params=PARAMS)
    assert provider.calls == 0
    assert warm == cold


def test_align_pairs_failures_stay_in_their_slots():
    big = " ".join(f"t{i}" for i in range(33))
    clean = [("he came .", "he arrived ."), ("a b", "a c")]
    pairs = [
        clean[0],
        (big, big),
        ("down we go", "down we went"),
        ("   ", "x"),
        ("garble this", "garble that"),
        ("junk here", "junk there"),
        clean[1],
    ]
    provider = TrackingProvider()
    results = align_pairs(pairs, provider, params=PARAMS)
    assert isinstance(results[1], InputTooLargeError)
    assert results[2] is provider.raised[0]
    assert isinstance(results[3], EmptyInputError)
    assert isinstance(results[4], MatrixShapeError)
    assert isinstance(results[5], ValueParseError)
    # the guarded pairs are never sent
    assert len(provider.seen) == 5
    expected = align_pairs(clean, MockProvider(), params=PARAMS)
    assert [results[0], results[6]] == expected


def test_align_pairs_a_non_finite_cell_fails_only_its_pair():
    # float() reads "nan" and "inf"; as cells they are as unparseable as "lots"
    class NonFinite(MockProvider):
        def complete(self, prompt, params):
            source = prompt.bindings["source_seg"]
            for word, cell in (("nan", "nan"), ("inf", "-inf")):
                if word in source:
                    return f"{cell}, 5\n3, 4"
            return super().complete(prompt, params)

    pairs = [("nan here", "nan there"), ("inf here", "inf there"),
             ("he came .", "he arrived .")]
    results = align_pairs(pairs, NonFinite(), params=PARAMS)
    for result in results[:2]:
        assert isinstance(result, ValueParseError)
        assert (result.row, result.col) == (0, 0)
    assert results[2] == align_pairs([pairs[2]], MockProvider(), params=PARAMS)[0]


def test_greedy_alignment_prefers_lowest_source_index_on_tie():
    matrix = AlignmentMatrix(
        src_tokens=("a", "b", "c"),
        mt_tokens=("x", "y"),
        cells=((0.5, 0.2), (0.5, 0.9), (0.1, 0.9)),
    )
    links = greedy_alignment(matrix)
    assert links == [(0, 0, 0.5), (1, 1, 0.9)]


def test_greedy_alignment_one_link_per_column():
    matrix = golden_matrix()
    links = greedy_alignment(matrix)
    assert [j for _, j, _ in links] == [0, 1, 2, 3]
    assert links[0] == (0, 0, 1.0)
    assert links[3] == (2, 3, 0.95)
    # "home" has no counterpart yet still links to its best row
    assert links[2] == (1, 2, 0.31)


# rendering -------------------------------------------------------------------

def test_render_heatmap_is_wellformed_xml():
    svg = render_heatmap(golden_matrix())
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # one background plus one cell per grid position
    assert len(rects) == 1 + 3 * 4


def test_render_heatmap_escapes_markup_tokens():
    matrix = AlignmentMatrix(
        src_tokens=("<s>",), mt_tokens=("&amp",), cells=((0.5,),)
    )
    svg = render_heatmap(matrix)
    assert "&lt;s&gt;" in svg
    assert "&amp;amp" in svg
    ET.fromstring(svg)


def test_render_heatmap_axis_limit():
    tokens = tuple(f"t{i}" for i in range(65))
    matrix = AlignmentMatrix(
        src_tokens=tokens,
        mt_tokens=("x",),
        cells=tuple((0.0,) for _ in tokens),
    )
    with pytest.raises(TooManyTokensError):
        render_heatmap(matrix)


def test_render_heatmap_matches_golden_bytes():
    svg = render_heatmap(golden_matrix())
    assert svg.encode("utf-8") == GOLDEN.read_bytes()


def test_render_heatmap_deterministic():
    assert render_heatmap(golden_matrix()) == render_heatmap(golden_matrix())
