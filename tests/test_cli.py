from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import kpe
from kpe.cli import build_run_config, main, parse_max_age
from kpe.errors import ConfigError

REF_S1 = "der hund laeuft schnell heute"
REF_S2 = "die katze schlaeft gerne hier"


def write_tiny_corpus(root: Path, *, refs_for: tuple[str, ...] = ("s1", "s2")) -> dict:
    """Two segments, two systems: sysA echoes the reference, sysB never does."""
    refs = {"s1": REF_S1, "s2": REF_S2}
    bad = {"s1": "zzz one qqq", "s2": "yyy two kkk"}
    (root / "segments.tsv").write_text(
        "de-en\ts1\tquelle eins\nde-en\ts2\tquelle zwei\n", encoding="utf-8"
    )
    out_lines = []
    for seg in ("s1", "s2"):
        out_lines.append(f"de-en\tsysA\t{seg}\t{refs[seg]}")
        out_lines.append(f"de-en\tsysB\t{seg}\t{bad[seg]}")
    (root / "outputs.tsv").write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    (root / "judgments.tsv").write_text(
        "de-en\ts1\tsysA\tsysB\nde-en\ts2\tsysA\tsysB\n", encoding="utf-8"
    )
    fixtures = {
        "refs": [
            {"lp": "de-en", "seg_id": seg, "text": refs[seg]} for seg in refs_for
        ],
        "aspect_refs": {},
    }
    (root / "fixtures.json").write_text(
        json.dumps(fixtures, indent=2), encoding="utf-8"
    )
    return {
        "segments": str(root / "segments.tsv"),
        "outputs": str(root / "outputs.tsv"),
        "judgments": str(root / "judgments.tsv"),
        "provider": "mock",
        "mock_fixtures": str(root / "fixtures.json"),
        "out": str(root / "out"),
    }


def write_config(root: Path, cfg: dict) -> str:
    path = root / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return str(path)


# config plumbing -------------------------------------------------------------

def test_parse_max_age_units():
    assert parse_max_age("3600") == 3600.0
    assert parse_max_age("90m") == 5400.0
    assert parse_max_age("24h") == 86400.0
    assert parse_max_age("7d") == 604800.0
    assert parse_max_age("0s") == 0.0


@pytest.mark.parametrize("text", ["", "5w", "-3", "3.5h", "h", "12 h"])
def test_parse_max_age_rejects_garbage(text):
    with pytest.raises(ConfigError):
        parse_max_age(text)


def test_flags_override_config_file(tmp_path):
    path = write_config(
        tmp_path, {"segments": "a.tsv", "outputs": "b.tsv", "model_id": "from-file"}
    )
    cfg = build_run_config(path, {"model_id": "from-flag", "out": None})
    assert cfg.model_id == "from-flag"
    assert cfg.segments == "a.tsv"
    # None flags do not mask file values
    cfg = build_run_config(path, {"model_id": None})
    assert cfg.model_id == "from-file"


def test_unknown_config_key_rejected(tmp_path):
    path = write_config(tmp_path, {"segments": "a.tsv", "treshold": 2})
    with pytest.raises(ConfigError, match="treshold"):
        build_run_config(path, {})


def test_unknown_estimator_rejected(tmp_path):
    path = write_config(tmp_path, {"estimators": ["gemba", "prompt9_vibes"]})
    with pytest.raises(ConfigError, match="prompt9_vibes"):
        build_run_config(path, {})


def test_cli_import_leaves_requests_unloaded():
    # only the http provider needs requests; every other command skips its import cost
    src = str(Path(kpe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, kpe.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "False"


def test_version_flag():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "kpe" in result.output


# templates --------------------------------------------------------------------

def test_templates_listing_is_stable():
    runner = CliRunner()
    first = runner.invoke(main, ["templates", "--json"])
    second = runner.invoke(main, ["templates", "--json"])
    assert first.exit_code == 0
    assert first.output == second.output
    listed = json.loads(first.output)
    assert {t["template_id"] for t in listed} >= {
        "gemba_classify",
        "kpe_perplexity",
        "kpe_cot1_combine",
        "kpe_token_align",
    }
    for entry in listed:
        assert set(entry) >= {"template_id", "version", "schema", "placeholders"}


# score ------------------------------------------------------------------------

def test_score_missing_segments_file_exits_1(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    cfg["segments"] = str(tmp_path / "missing.tsv")
    result = CliRunner().invoke(main, ["score", "--config", write_config(tmp_path, cfg)])
    assert result.exit_code == 1
    assert "missing.tsv" in result.stderr


def test_score_clean_run_exits_0(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, ["score", "--config", path, "--estimators", "gemba"])
    assert result.exit_code == 0, result.stderr
    scores = [
        json.loads(line)
        for line in (tmp_path / "out" / "scores_gemba.jsonl").read_text().splitlines()
        if line.strip()
    ]
    rows = [r for r in scores if "ordinal" in r]
    by_key = {(r["system_id"], r["seg_id"]): r["ordinal"] for r in rows}
    assert by_key == {
        ("sysA", "s1"): 4,
        ("sysA", "s2"): 4,
        ("sysB", "s1"): 0,
        ("sysB", "s2"): 0,
    }
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["estimators"]["gemba"]["errored"] == 0
    assert summary["provider_calls"] == 4


def test_score_error_rate_gate(tmp_path):
    cfg = write_tiny_corpus(tmp_path, refs_for=("s1",))
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, ["score", "--config", path, "--estimators", "gemba"])
    assert result.exit_code == 2
    assert "error rate 50.0% exceeds threshold 1.0%" in result.stderr

    relaxed = CliRunner().invoke(
        main,
        ["score", "--config", path, "--estimators", "gemba",
         "--error-rate-threshold", "0.99", "--out", str(tmp_path / "out2")],
    )
    assert relaxed.exit_code == 0
    summary = json.loads((tmp_path / "out2" / "run_summary.json").read_text())
    assert summary["estimators"]["gemba"]["errored"] == 2


def test_score_rerun_hits_cache(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    cfg["cache_dir"] = str(tmp_path / "cache")
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0
    first = (tmp_path / "out" / "scores_gemba.jsonl").read_bytes()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["provider_calls"] == 0
    assert summary["cache"]["hits"] == 4
    assert (tmp_path / "out" / "scores_gemba.jsonl").read_bytes() == first


# report -------------------------------------------------------------------------

def run_score_then_report(tmp_path, *, extra_judgments: str = "", human: dict | None = None):
    cfg = write_tiny_corpus(tmp_path)
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0
    # report may use a wider judgments file than the scored dataset
    judgments = tmp_path / "judgments.tsv"
    if extra_judgments:
        judgments = tmp_path / "judgments_report.tsv"
        judgments.write_text(
            (tmp_path / "judgments.tsv").read_text(encoding="utf-8") + extra_judgments,
            encoding="utf-8",
        )
    args = [
        "report",
        "--scores", str(tmp_path / "out"),
        "--judgments", str(judgments),
        "--out", str(tmp_path / "out"),
    ]
    if human is not None:
        human_path = tmp_path / "human.json"
        human_path.write_text(json.dumps(human), encoding="utf-8")
        args += ["--human-scores", str(human_path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.stderr
    return result, (tmp_path / "out" / "report.md").read_text(encoding="utf-8")


def test_report_single_lp_avg_equals_lp_tau(tmp_path):
    _, markdown = run_score_then_report(tmp_path)
    row = next(line for line in markdown.splitlines() if line.startswith("| gemba "))
    assert row == "| gemba | 100.0% | 100.0% |"
    csv_text = (tmp_path / "out" / "report.csv").read_text(encoding="utf-8")
    assert "gemba,de-en,1.0,2,0,0" in csv_text
    # avg rows carry the mean tau only, no judgment counts
    assert "gemba,avg,1.0,,," in csv_text


def test_report_missing_lp_renders_dash_and_warns(tmp_path):
    result, markdown = run_score_then_report(
        tmp_path, extra_judgments="fi-en\ts1\tsysA\tsysB\n"
    )
    row = next(line for line in markdown.splitlines() if line.startswith("| gemba "))
    # columns are sorted lps then avg; fi-en has no scores at all
    assert row == "| gemba | 100.0% | — | 100.0% |"
    assert "no usable judgments for fi-en" in result.stderr


def test_report_pairwise_accuracy_section(tmp_path):
    _, markdown = run_score_then_report(
        tmp_path, human={"de-en": {"sysA": 2.0, "sysB": 1.0}}
    )
    assert "## System-level pairwise accuracy" in markdown
    assert "| gemba | de-en | 100.0% |" in markdown


def test_report_fraction_rendering(tmp_path):
    # one discordant judgment drags tau to 0.2912-ish only in spirit; pin the
    # actual fraction rendering with a mixed outcome instead
    cfg = write_tiny_corpus(tmp_path)
    with open(tmp_path / "judgments.tsv", "a", encoding="utf-8") as fh:
        fh.write("de-en\ts1\tsysB\tsysA\n")
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0
    result = runner.invoke(
        main,
        ["report", "--scores", str(tmp_path / "out"),
         "--judgments", str(tmp_path / "judgments.tsv"),
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.stderr
    markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    row = next(line for line in markdown.splitlines() if line.startswith("| gemba "))
    # (2 - 1) / 3 rendered at one decimal
    assert row == "| gemba | 33.3% | 33.3% |"


# align ---------------------------------------------------------------------------

def test_align_writes_svg_and_sidecar(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(
        main,
        ["align", "--config", path, "--lp", "de-en", "--system", "sysA", "--seg", "s1"],
    )
    assert result.exit_code == 0, result.stderr
    svg = (tmp_path / "out" / "de-en_sysA_s1.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ")
    sidecar = json.loads((tmp_path / "out" / "de-en_sysA_s1.json").read_text())
    assert sidecar["src_tokens"] == ["quelle", "eins"]
    assert sidecar["mt_tokens"] == REF_S1.split()
    assert len(sidecar["cells"]) == 2


def test_align_unknown_segment_exits_1(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(
        main,
        ["align", "--config", path, "--lp", "de-en", "--system", "sysA",
         "--seg", "s1", "--seg", "s9"],
    )
    assert result.exit_code == 1
    assert "de-en/sysA/s9" in result.stderr
    # nothing is written when validation fails up front
    assert not (tmp_path / "out" / "de-en_sysA_s1.svg").exists()


# cache gc -------------------------------------------------------------------------

def test_cache_gc_reports_removals(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    cfg["cache_dir"] = str(tmp_path / "cache")
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0

    fresh = runner.invoke(
        main, ["cache", "gc", "--cache-dir", cfg["cache_dir"], "--max-age", "7d"]
    )
    assert fresh.exit_code == 0
    assert "removed 0 entries" in fresh.output

    stale = runner.invoke(
        main, ["cache", "gc", "--cache-dir", cfg["cache_dir"], "--max-age", "0s"]
    )
    assert stale.exit_code == 0
    assert "removed 4 entries" in stale.output


def test_cache_gc_missing_dir_exits_1(tmp_path):
    result = CliRunner().invoke(
        main, ["cache", "gc", "--cache-dir", str(tmp_path / "nope"), "--max-age", "1d"]
    )
    assert result.exit_code == 1
    assert "does not exist" in result.stderr
