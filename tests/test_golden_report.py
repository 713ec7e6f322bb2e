"""Byte-identity gate for `kpe report`.

Scores the toy corpus in cat5 with all six estimators, then reports it
with a human-scores file in which fi-en ties every system and zh-en names
a single system. report.md (its `generated:` line masked) and report.csv
must equal tests/data/golden_report.md and golden_report.csv, and stderr
must carry exactly the warnings listed here. Regenerate the golden files
only for an intended change of what the report shows.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

from click.testing import CliRunner

from kpe.cli import main
from kpe.toydata import write_toy_corpus

DATA = Path(__file__).parent / "data"
ALL_SIX = "gemba,prompt1_perplexity,prompt2_token,prompt3_sentence,cot1,cot2"

HUMAN = {
    "de-en": {"sysA": 3, "sysB": 4, "sysC": 2, "sysD": 1},
    "fi-en": {"sysA": 2, "sysB": 2, "sysC": 2, "sysD": 2},
    "zh-en": {"sysA": 1},
}

WARNINGS = [
    f"warning: {name}/{warning}"
    for name in ALL_SIX.split(",")
    for warning in (
        "fi-en: every system pair is human-tied",
        "zh-en: need at least 2 shared systems, have 1",
    )
]

_GENERATED = re.compile(r"^- generated: \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$", re.M)


def test_report_matches_golden_files(tmp_path):
    toy = tmp_path / "toy"
    write_toy_corpus(toy)
    runner = CliRunner()
    scored = runner.invoke(main, [
        "score",
        "--segments", str(toy / "segments.tsv"),
        "--outputs", str(toy / "outputs.tsv"),
        "--mock-fixtures", str(toy / "fixtures.json"),
        "--out", str(tmp_path / "scores"),
        "--estimators", ALL_SIX,
        "--mode", "cat5",
    ])
    assert scored.exit_code == 0, scored.stderr
    human = tmp_path / "human.json"
    human.write_text(json.dumps(HUMAN), encoding="utf-8")
    result = runner.invoke(main, [
        "report",
        "--scores", str(tmp_path / "scores"),
        "--judgments", str(toy / "judgments.tsv"),
        "--human-scores", str(human),
        "--out", str(tmp_path / "report"),
    ])
    assert result.exit_code == 0, result.stderr
    markdown = (tmp_path / "report" / "report.md").read_text(encoding="utf-8")
    assert len(_GENERATED.findall(markdown)) == 1
    masked = _GENERATED.sub("- generated: (masked)", markdown)
    assert masked == (DATA / "golden_report.md").read_text(encoding="utf-8")
    assert (tmp_path / "report" / "report.csv").read_bytes() == (
        DATA / "golden_report.csv"
    ).read_bytes()
    lines = result.stderr.splitlines()
    assert lines[:-1] == WARNINGS
    assert lines[-1].startswith("wrote ")
