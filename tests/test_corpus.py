from __future__ import annotations

import pytest

from kpe.corpus import (
    EvalDataset,
    RRJudgment,
    Segment,
    SystemOutput,
    dataset_stats,
    load_dataset,
    load_rr_judgments,
    load_segments,
    load_system_outputs,
    save_dataset,
)
from kpe.errors import (
    DuplicateKeyError,
    FormatError,
    ReferentialError,
    SelfComparisonError,
)


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


SEGMENTS_TSV = "de-en\tseg1\tGuten Morgen .\nde-en\tseg2\tWie geht es ?\nzh-en\tseg1\t你好\n"
OUTPUTS_TSV = (
    "de-en\tsysA\tseg1\tGood morning .\n"
    "de-en\tsysB\tseg1\tmorning good\n"
    "de-en\tsysA\tseg2\tHow are you ?\n"
    "de-en\tsysB\tseg2\thow goes\n"
    "zh-en\tsysA\tseg1\tHello\n"
)
JUDGMENTS_TSV = "de-en\tseg1\tsysA\tsysB\nde-en\tseg2\tsysA\tsysB\nde-en\tseg1\tsysA\tsysB\n"


@pytest.fixture()
def corpus_files(tmp_path):
    return (
        _write(tmp_path / "segments.tsv", SEGMENTS_TSV),
        _write(tmp_path / "outputs.tsv", OUTPUTS_TSV),
        _write(tmp_path / "judgments.tsv", JUDGMENTS_TSV),
    )


@pytest.mark.parametrize("bad", ["zhen", "zh-", "-en", "ZH-en", "zh-en-us", "z1-en"])
def test_language_pair_rejects_malformed(tmp_path, bad):
    path = _write(tmp_path / "seg.tsv", f"de-en\tseg1\ta\n{bad}\tseg2\tb\n")
    with pytest.raises(FormatError) as err:
        load_segments(path)
    assert err.value.line_no == 2
    assert str(err.value).startswith(f"{path}:2: ")
    assert repr(bad) in str(err.value)


def test_load_tsv_corpus(corpus_files):
    seg_path, out_path, judg_path = corpus_files
    dataset = load_dataset(seg_path, out_path, judg_path)
    assert len(dataset.segments) == 3
    assert len(dataset.outputs) == 5
    # duplicate judgments carry weight and are preserved
    assert len(dataset.judgments) == 3
    assert dataset.get_segment("de-en", "seg1").src_text == "Guten Morgen ."
    assert dataset.get_output("de-en", "sysB", "seg2").mt_text == "how goes"
    stats = dataset_stats(dataset)
    assert list(stats) == ["de-en", "zh-en"]
    assert stats["de-en"]["n_systems"] == 2


def test_fields_are_trimmed(tmp_path):
    path = _write(tmp_path / "seg.tsv", "de-en\t seg1 \t  padded text  \n")
    (seg,) = load_segments(path)
    assert seg.seg_id == "seg1"
    assert seg.src_text == "padded text"


def test_blank_lines_and_crlf(tmp_path):
    path = _write(tmp_path / "seg.tsv", "de-en\tseg1\ta\r\n\n   \nde-en\tseg2\tb\n")
    segs = load_segments(path)
    assert [s.seg_id for s in segs] == ["seg1", "seg2"]


def test_duplicate_segment_names_first_line(tmp_path):
    path = _write(
        tmp_path / "seg.tsv", "de-en\tseg1\ta\nde-en\tseg2\tb\nde-en\tseg1\tc\n"
    )
    with pytest.raises(DuplicateKeyError) as err:
        load_segments(path)
    assert "line 1" in str(err.value)
    assert err.value.line_no == 3


def test_duplicate_output_rejected(tmp_path):
    path = _write(
        tmp_path / "out.tsv",
        "de-en\tsysA\tseg1\ta\nde-en\tsysA\tseg1\tb\n",
    )
    with pytest.raises(DuplicateKeyError):
        load_system_outputs(path)


def test_empty_src_text_rejected(tmp_path):
    path = _write(tmp_path / "seg.tsv", "de-en\tseg1\t   \n")
    with pytest.raises(FormatError) as err:
        load_segments(path)
    assert "empty src_text" in str(err.value)


def test_wrong_field_count_reports_line(tmp_path):
    path = _write(tmp_path / "seg.tsv", "de-en\tseg1\ta\nde-en\tseg2\n")
    with pytest.raises(FormatError) as err:
        load_segments(path)
    assert err.value.line_no == 2


def test_invalid_utf8_reports_line(tmp_path):
    path = tmp_path / "seg.tsv"
    path.write_bytes(b"de-en\tseg1\tok\nde-en\tseg2\t\xff\xfe\n")
    with pytest.raises(FormatError) as err:
        load_segments(path)
    assert err.value.line_no == 2
    assert "UTF-8" in str(err.value)


def test_self_comparison_rejected(tmp_path):
    path = _write(tmp_path / "judg.tsv", "de-en\tseg1\tsysA\tsysA\n")
    with pytest.raises(SelfComparisonError):
        load_rr_judgments(path)


def test_bad_lp_reports_line(tmp_path):
    path = _write(tmp_path / "seg.tsv", "de-en\tseg1\ta\nDEEN\tseg2\tb\n")
    with pytest.raises(FormatError) as err:
        load_segments(path)
    assert err.value.line_no == 2


def test_output_without_segment_rejected():
    segs = [Segment(lp="de-en", seg_id="seg1", src_text="a")]
    outs = [SystemOutput(lp="de-en", system_id="sysA", seg_id="seg2", mt_text="x")]
    with pytest.raises(ReferentialError):
        EvalDataset.build(segs, outs, [])


def test_judgment_without_output_rejected():
    segs = [Segment(lp="de-en", seg_id="seg1", src_text="a")]
    outs = [SystemOutput(lp="de-en", system_id="sysA", seg_id="seg1", mt_text="x")]
    judgs = [
        RRJudgment(lp="de-en", seg_id="seg1", better_system="sysA", worse_system="sysB")
    ]
    with pytest.raises(ReferentialError) as err:
        EvalDataset.build(segs, outs, judgs)
    assert "sysB" in str(err.value)


def test_jsonl_round_trip(corpus_files, tmp_path):
    dataset = load_dataset(*corpus_files)
    paths = (
        tmp_path / "seg.jsonl",
        tmp_path / "out.jsonl",
        tmp_path / "judg.jsonl",
    )
    save_dataset(dataset, *paths, fmt="jsonl")
    reloaded = load_dataset(*paths, fmt="jsonl")
    assert reloaded.segments == dataset.segments
    assert reloaded.outputs == dataset.outputs
    assert reloaded.judgments == dataset.judgments


def test_tsv_round_trip(corpus_files, tmp_path):
    dataset = load_dataset(*corpus_files)
    paths = (tmp_path / "seg.tsv", tmp_path / "out.tsv", tmp_path / "judg.tsv")
    save_dataset(dataset, *paths)
    reloaded = load_dataset(*paths)
    assert reloaded.segments == dataset.segments
    assert reloaded.outputs == dataset.outputs
    assert reloaded.judgments == dataset.judgments
    # segments and outputs come out sorted, judgments in their own order
    assert paths[0].read_text(encoding="utf-8") == SEGMENTS_TSV
    assert paths[2].read_text(encoding="utf-8") == JUDGMENTS_TSV


@pytest.mark.parametrize("text", ["tab\there", "line\nbreak", "carriage\rreturn"])
def test_save_tsv_rejects_tabs_and_line_breaks(tmp_path, text):
    segment = Segment(lp="de-en", seg_id="seg1", src_text="a")
    output = SystemOutput(lp="de-en", system_id="sysA", seg_id="seg1", mt_text=text)
    dataset = EvalDataset.build([segment], [output], [])
    paths = (tmp_path / "seg.tsv", tmp_path / "out.tsv", tmp_path / "judg.tsv")
    with pytest.raises(ValueError) as err:
        save_dataset(dataset, *paths)
    assert repr(output) in str(err.value)
    assert not any(path.exists() for path in paths)  # nothing half-written
    # JSONL holds such text, and it reads back unchanged
    save_dataset(dataset, *paths, fmt="jsonl")
    assert load_dataset(*paths, fmt="jsonl").outputs == dataset.outputs


def test_save_rejects_unknown_format(tmp_path, corpus_files):
    with pytest.raises(ValueError, match="unknown format"):
        save_dataset(load_dataset(*corpus_files), *(tmp_path / n for n in "abc"), fmt="csv")


def test_jsonl_missing_field(tmp_path):
    path = _write(tmp_path / "seg.jsonl", '{"lp": "de-en", "seg_id": "seg1"}\n')
    with pytest.raises(FormatError) as err:
        load_segments(path, fmt="jsonl")
    assert "src_text" in str(err.value)


def test_stats_counts(corpus_files):
    dataset = load_dataset(*corpus_files)
    assert dataset_stats(dataset) == {
        "de-en": {"n_segments": 2, "n_systems": 2, "n_judgments": 3},
        "zh-en": {"n_segments": 1, "n_systems": 1, "n_judgments": 0},
    }


def test_toy_corpus_matches_manifest(toy):
    stats = dataset_stats(toy.dataset)
    assert sorted(stats) == sorted(toy.manifest["per_lp"])
    for lp, expected in toy.manifest["per_lp"].items():
        assert stats[lp] == expected
