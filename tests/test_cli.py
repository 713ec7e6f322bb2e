from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import kpe
import kpe.alignment
import kpe.cli
from kpe.backend import MockProvider
from kpe.cli import RunConfig, build_run_config, main, parse_max_age
from kpe.corpus import load_dataset, save_dataset
from kpe.errors import ConfigError, TransportError
from kpe.toydata import write_toy_corpus

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


def log_lines(cache_dir: Path) -> list[bytes]:
    """Every complete line of every cache log in cache_dir, without its newline."""
    return [line for log in sorted(cache_dir.glob("*.log"))
            for line in log.read_bytes().split(b"\n")[:-1]]


def to_legacy_layout(cache_dir: Path) -> list[Path]:
    """Rewrite a cache as the one-file-per-entry layout that the logs replaced."""
    paths = []
    for log in sorted(cache_dir.glob("*.log")):
        for line in log.read_bytes().split(b"\n")[:-1]:
            digest = line[:64].decode("ascii")
            path = cache_dir / digest[:2] / f"{digest}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_bytes(line[65:])
            paths.append(path)
        log.unlink()
    return sorted(paths)


def write_config(root: Path, cfg: dict) -> str:
    path = root / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return str(path)


# config plumbing -------------------------------------------------------------

@pytest.mark.parametrize("command", ["score", "align"])
@pytest.mark.parametrize("url", [
    "htp://api.example.test/v1", "http:///v1", "ftp://host/",
    "http://api.example.test:abc/v1", "http://api.example.test:99999/v1",
])
def test_malformed_endpoint_url_is_a_config_error(tmp_path, monkeypatch, command, url):
    built = []
    monkeypatch.setattr(kpe.cli, "HttpProvider", lambda **kwargs: built.append(kwargs))
    cfg = write_tiny_corpus(tmp_path)
    cfg.update(provider="http", endpoint_url=url, model_id="model-x")
    args = [command, "--config", write_config(tmp_path, cfg)]
    if command == "align":
        args += ["--lp", "de-en", "--system", "sysA", "--seg", "s1"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert "endpoint_url" in result.stderr
    assert built == []


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


def command_flags(command: str) -> list[argparse.Action]:
    """The actions of a command's flags, --help aside, as kpe's argparse parser holds them."""
    parser = kpe.cli._parser("kpe")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a for a in commands.choices[command]._actions if a.dest != "help"]


def test_run_config_fields_are_the_setting_flags():
    # one declaration per setting: each score flag stores into the field it sets
    names = {f.name for f in dataclasses.fields(RunConfig)}
    score_dests = {a.dest for a in command_flags("score")} - {"config_path"}
    assert score_dests == names
    align_dests = {a.dest for a in command_flags("align")} - {
        "config_path", "lp", "system_id", "seg_ids"
    }
    assert align_dests <= names


# Every flag of the two run commands, with the name of its value type or its choices.
RUN_FLAGS = {
    "--config": "text",
    "--segments": "text",
    "--outputs": "text",
    "--judgments": "text",
    "--format": ("tsv", "jsonl"),
    "--provider": ("http", "mock"),
    "--mock-fixtures": "text",
    "--endpoint-url": "text",
    "--model-id": "text",
    "--out": "text",
    "--cache-dir": "text",
    "--max-in-flight": "integer",
    "--temperature": "float",
    "--max-tokens": "integer",
}
SCORE_FLAGS = {
    **RUN_FLAGS,
    "--estimators": "text",
    "--mode": ("cat5", "cat3", "stars", "scalar"),
    "--step-failure": ("abort_pair", "substitute_middle"),
    "--error-rate-threshold": "float",
}
ALIGN_FLAGS = {**RUN_FLAGS, "--lp": "text", "--system": "text", "--seg": "text"}


@pytest.mark.parametrize("command, expected", [("score", SCORE_FLAGS), ("align", ALIGN_FLAGS)])
def test_run_command_flags_and_their_types(command, expected):
    type_names = {None: "text", str: "text", int: "integer", float: "float"}
    got = {
        opt: tuple(a.choices) if a.choices is not None else type_names[a.type]
        for a in command_flags(command)
        for opt in a.option_strings
    }
    assert got == expected


@pytest.mark.parametrize(
    "key, value",
    [
        ("judgments", 5),
        ("mock_fixtures", ["a"]),
        ("cache_dir", 7),
        ("out", None),
        ("segments", None),
        ("max_in_flight", True),
        ("max_in_flight", 2.7),
        ("max_in_flight", "4"),
        ("temperature", "hot"),
        ("scoring_mode", "cat7"),
        ("drop_policy", "drop"),
        ("max_tokens", 0),
        ("max_tokens", -5),
        ("error_rate_threshold", -1),
        ("error_rate_threshold", 1.5),
        ("temperature", -3),
        ("temperature", float("nan")),
        ("error_rate_threshold", float("nan")),
    ],
)
def test_score_rejects_bad_config_value(tmp_path, monkeypatch, key, value):
    monkeypatch.chdir(tmp_path)
    cfg = write_tiny_corpus(tmp_path)
    cfg[key] = value
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, ["score", "--config", path, "--estimators", "gemba"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert key in result.stderr
    assert not (tmp_path / "None").exists()


def test_cli_import_leaves_requests_unloaded():
    # kpe depends on neither requests nor click, and escapes SVG text with html.escape:
    # importing the CLI must load neither requests nor xml.sax (which loads
    # urllib.request); http.client (and the email package it pulls in) loads
    # only when the http provider is built
    src = str(Path(kpe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules = ["requests", "xml.sax", "urllib.request", "http.client", "email", "click"]
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, kpe.cli; print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_cli_import_leaves_openssl_and_logging_unloaded():
    # the cache digest is the interpreter's built-in SHA-256, and logging (which
    # concurrent.futures loads too) waits for a corrupt entry or a batch with a
    # miss, so a fully cached run maps neither OpenSSL nor logging
    src = str(Path(kpe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules = ["_hashlib", "logging"]
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, kpe.cli; print([m for m in {modules!r} if m in sys.modules])"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_only_what_score_runs():
    # alignment (and the html module it escapes SVG text with) loads only
    # when `kpe align` runs, toydata never; every public name of the package
    # still resolves, from its module, on first use
    src = str(Path(kpe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    modules = ["kpe.alignment", "kpe.toydata", "html"]
    code = (
        f"import sys, kpe.cli; print([m for m in {modules!r} if m in sys.modules]); "
        "import kpe; print([n for n in kpe.__all__ if getattr(kpe, n, None) is None])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.splitlines() == ["[]", "[]"]


def test_benchmark_only_names_are_module_attributes_not_exports():
    import kpe.backend
    import kpe.chains

    assert {"cached_complete", "score_dataset"}.isdisjoint(kpe.__all__)
    assert callable(kpe.backend.cached_complete) and callable(kpe.chains.score_dataset)


def test_version_flag():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "kpe" in result.output


@pytest.mark.parametrize("args, named", [
    (["score", "--mode", "cat7"], ["--mode", "cat7"]),
    (["score", "--max-in-flight", "two"], ["--max-in-flight", "two"]),
    (["report"], ["--scores"]),
    (["align", "--lp", "de-en"], ["--system"]),
    (["frob"], ["frob"]),
    ([], ["COMMAND"]),
    (["cache"], ["cache", "COMMAND"]),
], ids=["bad-choice", "bad-integer", "report-without-scores", "align-without-system",
        "unknown-command", "no-command", "bare-cache"])
def test_usage_error_exits_2_and_names_what_was_wrong(tmp_path, monkeypatch, args, named):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "usage" in result.stderr.lower()
    for word in named:
        assert word in result.stderr
    assert list(tmp_path.iterdir()) == []


def test_a_closed_output_pipe_exits_1_without_a_traceback():
    # as `kpe templates --json | true` does when the reader exits first
    src = str(Path(kpe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "kpe.cli", "templates", "--json"],
                                stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (1, b"")


# Runs kpe's console entry point in a child whose `import click` fails.
WITHOUT_CLICK = (
    "import sys; sys.modules['click'] = None; import kpe.cli; "
    "kpe.cli.main.main(args=sys.argv[1:], prog_name='kpe', standalone_mode=False)"
)


def test_kpe_runs_without_click(tmp_path):
    src = str(Path(kpe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", WITHOUT_CLICK, *args],
                              capture_output=True, text=True, env=env, timeout=120)

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, f"kpe, version {kpe.__version__}\n")
    listing = run("templates", "--json")
    assert listing.returncode == 0, listing.stderr
    assert len(json.loads(listing.stdout)) == 21
    write_toy_corpus(tmp_path)
    cfg = {
        "segments": str(tmp_path / "segments.tsv"),
        "outputs": str(tmp_path / "outputs.tsv"),
        "provider": "mock",
        "mock_fixtures": str(tmp_path / "fixtures.json"),
        "max_in_flight": 2,
    }
    path = write_config(tmp_path, cfg)
    scored = run("score", "--config", path, "--out", str(tmp_path / "no_click"))
    assert scored.returncode == 0, scored.stderr
    normal = CliRunner().invoke(main, ["score", "--config", path, "--out", str(tmp_path / "normal")])
    assert normal.exit_code == 0, normal.stderr
    assert scored.stderr == normal.stderr.replace("normal", "no_click")
    expected = sorted((tmp_path / "normal").glob("scores_*.jsonl"))
    assert len(expected) == 5
    for file in expected:
        assert (tmp_path / "no_click" / file.name).read_bytes() == file.read_bytes()


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
        assert set(entry) == {"template_id", "version", "schema", "placeholders"}


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


@pytest.mark.parametrize("command", ["score", "align", "report"])
def test_out_naming_an_existing_file_is_one_error_line(tmp_path, command):
    cfg = write_tiny_corpus(tmp_path)
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    afile = tmp_path / "afile"
    afile.write_text("keep\n", encoding="utf-8")
    if command == "score":
        args = ["score", "--config", path, "--estimators", "gemba"]
    elif command == "align":
        args = ["align", "--config", path, "--lp", "de-en", "--system", "sysA", "--seg", "s1"]
    else:
        score = ["score", "--config", path, "--estimators", "gemba"]
        assert runner.invoke(main, score).exit_code == 0
        args = ["report", "--scores", cfg["out"], "--judgments", cfg["judgments"]]
    result = runner.invoke(main, args + ["--out", str(afile)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert "afile" in result.stderr
    assert afile.read_text(encoding="utf-8") == "keep\n"


def test_score_mode_an_estimator_cannot_answer_in_fails_before_any_output(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    cfg["scoring_mode"] = "stars"
    path = write_config(tmp_path, cfg)
    # the default estimators include cot1, whose combiner answers in cat5 or cat3 only
    result = CliRunner().invoke(main, ["score", "--config", path])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "error: cot1 scores in cat5, cat3, not 'stars'\n"
    assert not (tmp_path / "out").exists()
    # align scores nothing, so the same config aligns
    aligned = CliRunner().invoke(
        main, ["align", "--config", path, "--lp", "de-en", "--system", "sysA", "--seg", "s1"]
    )
    assert aligned.exit_code == 0, aligned.stderr
    assert (tmp_path / "out" / "de-en_sysA_s1.svg").exists()


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


@pytest.mark.parametrize("answer, code, message", [
    (None, 1, "error: provider unreachable: no pair scored; see score files for details\n"),
    # the answer quotes an error type, but the pair failed to parse, not to reach the provider
    ("Class: : TransportError: I cannot rate this.", 2, "error rate 100.0% exceeds threshold"),
], ids=["transport-error", "answer-quoting-an-error-type"])
def test_score_exits_1_only_when_the_provider_failed_every_pair(
    tmp_path, monkeypatch, answer, code, message
):
    write_toy_corpus(tmp_path)
    if answer is None:
        _provider_down(monkeypatch)
    else:
        monkeypatch.setattr(MockProvider, "complete", lambda self, prompt, params: answer)
    cfg = {
        "segments": str(tmp_path / "segments.tsv"),
        "outputs": str(tmp_path / "outputs.tsv"),
        "provider": "mock",
        "mock_fixtures": str(tmp_path / "fixtures.json"),
        "out": str(tmp_path / "out"),
    }
    result = CliRunner().invoke(
        main, ["score", "--config", write_config(tmp_path, cfg), "--estimators", "gemba"]
    )
    assert result.exit_code == code
    assert message in result.stderr
    if answer is not None:
        assert "provider unreachable" not in result.stderr


def test_score_an_http_answer_that_is_not_utf8_is_a_recorded_provider_error(
    tmp_path, monkeypatch
):
    # JSON can carry a lone surrogate, which is a str but no UTF-8 text: each
    # such answer is its pair's ProviderError, not a crash of the whole run
    class Session:
        def post(self, url, body, headers, timeout):
            prompt = json.loads(body)["messages"][0]["content"]
            text = "Class: \\ud800" if "zzz" in prompt else "Class: Perfect translation"
            return 200, b'{"choices": [{"message": {"content": "%s"}}]}' % text.encode()

    build = kpe.cli.HttpProvider
    monkeypatch.setattr(kpe.cli, "HttpProvider", lambda **kw: build(**kw, session=Session()))
    cfg = write_tiny_corpus(tmp_path)
    cfg.update(provider="http", endpoint_url="http://api.example.test/v1", model_id="model-x",
               cache_dir=str(tmp_path / "cache"))
    result = CliRunner().invoke(
        main, ["score", "--config", write_config(tmp_path, cfg), "--estimators", "gemba"]
    )
    assert result.exit_code == 2, result.stderr
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.endswith("\nerror rate 25.0% exceeds threshold 1.0%\n")
    scores = {(r["system_id"], r["seg_id"]): r for r in map(
        json.loads, (tmp_path / "out" / "scores_gemba.jsonl").read_text().splitlines())}
    failed = scores.pop(("sysB", "s1"))
    assert failed["ordinal"] is None
    assert failed["error"].startswith("step1:gemba_classify: ProviderError: provider answer is "
                                      "not UTF-8 text")
    assert [r["ordinal"] for r in scores.values()] == [4, 4, 4]
    assert len(log_lines(tmp_path / "cache")) == 3


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


def test_score_rerun_after_an_interrupt_matches_an_uninterrupted_run(tmp_path, monkeypatch):
    write_toy_corpus(tmp_path)
    cfg = {
        "segments": str(tmp_path / "segments.tsv"),
        "outputs": str(tmp_path / "outputs.tsv"),
        "judgments": str(tmp_path / "judgments.tsv"),
        "provider": "mock",
        "mock_fixtures": str(tmp_path / "fixtures.json"),
        "max_in_flight": 2,
    }
    path = write_config(tmp_path, cfg)
    runner = CliRunner()

    def score(name: str):
        return runner.invoke(main, ["score", "--config", path, "--out", str(tmp_path / name),
                                    "--cache-dir", str(tmp_path / f"cache_{name}")])

    assert score("clean").exit_code == 0
    complete, calls = MockProvider.complete, []

    def interrupted(self, prompt, params):
        calls.append(prompt)
        if len(calls) == 15:
            raise KeyboardInterrupt
        return complete(self, prompt, params)

    monkeypatch.setattr(MockProvider, "complete", interrupted)
    assert score("resumed").exit_code == 1  # click reports "Aborted!"
    assert list((tmp_path / "resumed").glob("scores_*.jsonl")) == []
    written = len(log_lines(tmp_path / "cache_resumed"))
    assert written >= 14
    monkeypatch.undo()
    assert score("resumed").exit_code == 0
    summary = json.loads((tmp_path / "resumed" / "run_summary.json").read_text())
    assert summary["cache"]["hits"] == written
    assert summary["provider_calls"] == 1200 - written
    clean = sorted((tmp_path / "clean").glob("scores_*.jsonl"))
    assert len(clean) == 5
    for file in clean:
        assert (tmp_path / "resumed" / file.name).read_bytes() == file.read_bytes()


def _answer_not_text(raw: bytes) -> bytes:
    obj = json.loads(raw)
    obj["completion_text"] = 5
    return json.dumps(obj).encode("utf-8")


@pytest.mark.parametrize("corrupt", [lambda raw: raw + b"\xff", _answer_not_text],
                         ids=["bad-utf8", "answer-not-text"])
def test_score_rerun_asks_again_for_a_corrupt_entry(tmp_path, corrupt):
    cfg = write_tiny_corpus(tmp_path)
    cfg["cache_dir"] = str(tmp_path / "cache")
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0
    first = (tmp_path / "out" / "scores_gemba.jsonl").read_bytes()
    log = sorted((tmp_path / "cache").glob("*.log"))[0]
    line, *rest = log.read_bytes().split(b"\n")
    log.write_bytes(b"\n".join([line[:65] + corrupt(line[65:]), *rest]))
    result = runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"])
    assert result.exit_code == 0, result.stderr
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["cache"]["corruptions"] == 1
    assert summary["provider_calls"] == 1
    # the answer asked again is the log's last line, equal to the one first written
    again = log.read_bytes().split(b"\n")[-2]
    assert again[:65] == line[:65]
    assert json.loads(again[65:])["completion_text"] == json.loads(line[65:])["completion_text"]
    assert (tmp_path / "out" / "scores_gemba.jsonl").read_bytes() == first


@pytest.mark.parametrize("corrupt", [lambda raw: raw + b"\xff", _answer_not_text],
                         ids=["bad-utf8", "answer-not-text"])
def test_score_rerun_asks_again_for_a_corrupt_legacy_entry(tmp_path, corrupt):
    cfg = write_tiny_corpus(tmp_path)
    cfg["cache_dir"] = str(tmp_path / "cache")
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0
    first = (tmp_path / "out" / "scores_gemba.jsonl").read_bytes()
    entry = to_legacy_layout(tmp_path / "cache")[0]
    entry.write_bytes(corrupt(entry.read_bytes()))
    result = runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"])
    assert result.exit_code == 0, result.stderr
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["cache"] == {"hits": 3, "misses": 1, "writes": 1, "corruptions": 1}
    assert summary["provider_calls"] == 1
    assert entry.with_suffix(".json.corrupt").exists()
    assert len(log_lines(tmp_path / "cache")) == 1
    assert (tmp_path / "out" / "scores_gemba.jsonl").read_bytes() == first


def test_score_rerun_over_a_legacy_cache_makes_no_provider_call(tmp_path):
    # a cache written one file per entry keeps serving hits, and is never written
    cfg = write_tiny_corpus(tmp_path)
    cfg["cache_dir"] = str(tmp_path / "cache")
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path]).exit_code == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").glob("scores_*.jsonl")}
    legacy = to_legacy_layout(tmp_path / "cache")
    assert len(legacy) == 20  # 4 outputs x (3 step prompts + 2 combiners)
    snapshot = {p: p.read_bytes() for p in legacy}
    assert runner.invoke(main, ["score", "--config", path]).exit_code == 0
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["provider_calls"] == 0
    assert summary["cache"] == {"hits": 20, "misses": 0, "writes": 0, "corruptions": 0}
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").glob("scores_*.jsonl")} == first
    assert sorted(p for p in (tmp_path / "cache").rglob("*") if p.is_file()) == legacy
    assert {p: p.read_bytes() for p in legacy} == snapshot


def test_score_cold_run_creates_at_most_16_files(tmp_path):
    write_toy_corpus(tmp_path)
    cache = tmp_path / "cache"
    result = CliRunner().invoke(main, [
        "score", "--segments", str(tmp_path / "segments.tsv"),
        "--outputs", str(tmp_path / "outputs.tsv"), "--provider", "mock",
        "--mock-fixtures", str(tmp_path / "fixtures.json"), "--out", str(tmp_path / "out"),
        "--cache-dir", str(cache),
    ])
    assert result.exit_code == 0, result.stderr
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    assert summary["provider_calls"] == summary["cache"]["writes"] == 1200
    assert sorted(p.name for p in cache.iterdir()) == [f"{h}.log" for h in "0123456789abcdef"]
    assert all(p.is_file() for p in cache.iterdir())
    assert len(log_lines(cache)) == 1200


@pytest.mark.parametrize("fixtures", [
    {},
    [1],
    {"refs": [{"lp": "de-en", "text": REF_S1}]},
    {"refs": [{"lp": "de-en", "seg_id": "s1", "text": 5}]},
    {"refs": [], "aspect_refs": []},
    "{not json",
], ids=["empty-object", "list", "ref-without-seg_id", "non-text-ref", "aspect_refs-list",
        "not-json"])
def test_score_malformed_fixtures_is_a_config_error(tmp_path, fixtures):
    cfg = write_tiny_corpus(tmp_path)
    text = fixtures if isinstance(fixtures, str) else json.dumps(fixtures)
    (tmp_path / "fixtures.json").write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["score", "--config", write_config(tmp_path, cfg)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: mock fixtures {cfg['mock_fixtures']}: ")
    assert len(result.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_score_format_flag_reads_jsonl(tmp_path):
    cfg = write_tiny_corpus(tmp_path)
    dataset = load_dataset(cfg["segments"], cfg["outputs"], cfg["judgments"])
    for key in ("segments", "outputs", "judgments"):
        cfg[key] = str(tmp_path / f"{key}.jsonl")
    save_dataset(dataset, cfg["segments"], cfg["outputs"], cfg["judgments"], fmt="jsonl")
    cfg["format"] = "tsv"  # the flag wins over the file
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(
        main, ["score", "--config", path, "--estimators", "gemba", "--format", "jsonl"]
    )
    assert result.exit_code == 0, result.stderr
    summary = json.loads((tmp_path / "out" / "run_summary.json").read_text())
    gemba = summary["estimators"]["gemba"]
    assert (gemba["total"], gemba["parsed"], gemba["errored"]) == (4, 4, 0)


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


@pytest.mark.parametrize("value", ["high", True])
def test_report_rejects_non_numeric_human_scores(tmp_path, value):
    cfg = write_tiny_corpus(tmp_path)
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["score", "--config", path, "--estimators", "gemba"]).exit_code == 0
    human_path = tmp_path / "human.json"
    human_path.write_text(json.dumps({"de-en": {"sysA": value, "sysB": 1.0}}), encoding="utf-8")
    result = runner.invoke(
        main,
        ["report", "--scores", str(tmp_path / "out"),
         "--judgments", cfg["judgments"], "--human-scores", str(human_path)],
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "human scores must be {lp: {system: number}}" in result.stderr


def _without_template_id(record: dict) -> dict:
    del record["steps"][0]["template_id"]
    return record


@pytest.mark.parametrize("edit", [
    lambda record: {},
    lambda record: [1],
    _without_template_id,
    lambda record: {**record, "ordinal": "high"},
    lambda record: b"\xff",
], ids=["empty-object", "list", "step-without-template_id", "text-ordinal", "invalid-utf8"])
def test_report_malformed_score_file_is_a_format_error(tmp_path, edit):
    cfg = write_tiny_corpus(tmp_path)
    runner = CliRunner()
    score = ["score", "--config", write_config(tmp_path, cfg), "--estimators", "gemba"]
    assert runner.invoke(main, score).exit_code == 0
    path = tmp_path / "out" / "scores_gemba.jsonl"
    lines = path.read_bytes().splitlines()
    edited = edit(json.loads(lines[1]))
    lines[1] = edited if isinstance(edited, bytes) else json.dumps(edited).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    result = runner.invoke(
        main, ["report", "--scores", str(tmp_path / "out"), "--judgments", cfg["judgments"]]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {path}:2: ")
    assert len(result.stderr.splitlines()) == 1
    assert not (tmp_path / "out" / "report.md").exists()


@pytest.mark.parametrize("summary", ["[]", '"mock-1"', "{}", "{"])
def test_report_model_is_unknown_without_a_run_summary_object(tmp_path, summary):
    run_score_then_report(tmp_path)
    (tmp_path / "out" / "run_summary.json").write_text(summary, encoding="utf-8")
    result = CliRunner().invoke(main, [
        "report", "--scores", str(tmp_path / "out"), "--judgments", str(tmp_path / "judgments.tsv"),
    ])
    assert result.exit_code == 0, result.stderr
    markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
    assert "- model: (unknown)" in markdown.splitlines()


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


def _align(cfg: dict, root: Path, *segs: str, flags: tuple[str, ...] = ()):
    args = ["align", "--config", write_config(root, cfg), "--lp", "de-en", "--system", "sysA"]
    for seg in segs:
        args += ["--seg", seg]
    return CliRunner().invoke(main, args + list(flags))


def _provider_down(monkeypatch, source_word: str | None = None) -> None:
    """Make the mock provider raise TransportError (only for sources holding source_word)."""
    original = MockProvider.complete

    def complete(self, prompt, params):
        if source_word is None or source_word in prompt.bindings["source_seg"]:
            raise TransportError("connection refused")
        return original(self, prompt, params)

    monkeypatch.setattr(MockProvider, "complete", complete)


def test_align_sends_every_segment_in_one_bounded_batch(tmp_path, monkeypatch):
    batches = []
    original = kpe.alignment.run_batch

    def recording(provider, cache, prompts, params, max_in_flight=4):
        results = original(provider, cache, prompts, params, max_in_flight)
        batches.append((len(prompts), max_in_flight, [r.from_cache for r in results]))
        return results

    monkeypatch.setattr(kpe.alignment, "run_batch", recording)
    cfg = write_tiny_corpus(tmp_path)
    result = _align(cfg, tmp_path, "s1", "s2", "s1", flags=("--max-in-flight", "3"))
    assert result.exit_code == 0, result.stderr
    # the repeated segment's prompt is coalesced with the first one
    assert batches == [(3, 3, [False, False, True])]


@pytest.mark.parametrize("failure, message", [
    ("provider", "connection refused"),
    ("empty_mt", "cannot tokenize an empty sentence"),
    ("long_mt", "axis limit is 64 tokens, got 1 x 65"),
])
def test_align_failed_segment_leaves_the_others_written(tmp_path, monkeypatch, failure, message):
    cfg = write_tiny_corpus(tmp_path)
    single = _align(dict(cfg, out=str(tmp_path / "single")), tmp_path, "s1")
    assert single.exit_code == 0, single.stderr

    sent = []
    if failure == "provider":
        _provider_down(monkeypatch, "zwei")
    else:
        # s3 fails before its prompt is rendered, so only s1 reaches the provider
        mt, src = ("", "quelle drei") if failure == "empty_mt" else (
            " ".join(f"w{i}" for i in range(65)), "drei"
        )
        with open(cfg["outputs"], "a", encoding="utf-8") as fh:
            fh.write(f"de-en\tsysA\ts3\t{mt}\n")
        with open(cfg["segments"], "a", encoding="utf-8") as fh:
            fh.write(f"de-en\ts3\t{src}\n")
        original = MockProvider.complete

        def recording(self, prompt, params):
            sent.append(prompt.bindings["source_seg"])
            return original(self, prompt, params)

        monkeypatch.setattr(MockProvider, "complete", recording)
    failing = "s2" if failure == "provider" else "s3"
    result = _align(cfg, tmp_path, "s1", failing)
    assert result.exit_code == 2
    assert [line for line in result.stderr.splitlines() if line.startswith("error: ")] == [
        f"error: de-en/sysA/{failing}: {message}"
    ]
    if failure != "provider":
        assert len(sent) == 1 and "eins" in sent[0]
    for suffix in (".svg", ".json"):
        name = f"de-en_sysA_s1{suffix}"
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()
        assert not (tmp_path / "out" / f"de-en_sysA_{failing}{suffix}").exists()


def test_align_provider_unreachable_exits_1(tmp_path, monkeypatch):
    _provider_down(monkeypatch)
    result = _align(write_tiny_corpus(tmp_path), tmp_path, "s1", "s2")
    assert result.exit_code == 1
    errors = [line for line in result.stderr.splitlines() if line.startswith("error: ")]
    assert errors == [
        "error: de-en/sysA/s1: connection refused",
        "error: de-en/sysA/s2: connection refused",
        "error: provider unreachable: no heatmap written",
    ]
    assert list((tmp_path / "out").glob("*.svg")) == []


@pytest.mark.parametrize("flag", ["--system", "--seg"])
def test_align_refuses_an_id_holding_a_path_separator(tmp_path, monkeypatch, flag):
    cfg = write_tiny_corpus(tmp_path)
    bad = f"team{os.sep}x"
    system, seg = (bad, "s1") if flag == "--system" else ("sysA", bad)
    with open(cfg["outputs"], "a", encoding="utf-8") as fh:
        fh.write(f"de-en\t{system}\t{seg}\tthe dog runs\n")
    with open(cfg["segments"], "a", encoding="utf-8") as fh:
        fh.write(f"de-en\t{bad}\tder hund\n")
    sent = []
    monkeypatch.setattr(MockProvider, "complete", lambda self, prompt, params: sent.append(prompt))
    result = CliRunner().invoke(main, [
        "align", "--config", write_config(tmp_path, cfg),
        "--lp", "de-en", "--system", system, "--seg", seg,
    ])
    assert sent == []
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and repr(bad) in lines[0]
    assert not (tmp_path / "out").exists()


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
    assert log_lines(Path(cfg["cache_dir"])) == []


def test_cache_gc_removes_orphaned_temp_files(tmp_path):
    # a put killed between mkstemp and os.replace leaves a .tmp in its shard; gc
    # ages it out with the entries beside it and keeps a fresh one (a put in progress)
    shard = tmp_path / "cache" / "ab"
    shard.mkdir(parents=True)
    for name in ("x.tmp", "x.json", "x.json.corrupt", "fresh.tmp"):
        (shard / name).write_text("{", encoding="utf-8")
    for name in ("x.tmp", "x.json", "x.json.corrupt"):
        os.utime(shard / name, (1577836800, 1577836800))  # 2020-01-01
    result = CliRunner().invoke(
        main, ["cache", "gc", "--cache-dir", str(tmp_path / "cache"), "--max-age", "1d"]
    )
    assert result.exit_code == 0
    assert "removed 3 entries" in result.output
    assert [p.name for p in shard.iterdir()] == ["fresh.tmp"]


def test_cache_gc_missing_dir_exits_1(tmp_path):
    result = CliRunner().invoke(
        main, ["cache", "gc", "--cache-dir", str(tmp_path / "nope"), "--max-age", "1d"]
    )
    assert result.exit_code == 1
    assert "does not exist" in result.stderr
