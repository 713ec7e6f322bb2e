"""Self-tests for the benchmark; not part of the repository's test suite.

Run from the root of a checkout:

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tiles  # noqa: E402
from kpe.backend import GenParams, HttpProvider  # noqa: E402
from kpe.cli import main as kpe_main  # noqa: E402
from kpe.errors import ProviderError  # noqa: E402
from kpe.prompting import RenderedPrompt  # noqa: E402
from stub import Stub, StubProcess  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """A two-tile corpus scored through the library, plus its report.

    Returns (corpus, scores dir, {final_text: answer}).
    """
    base = tmp_path_factory.mktemp("scored")
    corpus = tiles.build_corpus(base / "in", seed=7, n_tiles=2)
    out = base / "out"
    answers = tiles.score_with_mock(corpus, out, "mock-1", max_in_flight=2)
    kpe_main.main(args=["report", "--scores", str(out), "--judgments", str(corpus.judgments)],
                  prog_name="kpe", standalone_mode=False)
    return corpus, out, answers


def test_tiles_keep_the_toy_oracle(scored):
    corpus, out, answers = scored
    assert tiles.check_scores(corpus, out) == (corpus.n_scores, 0)
    tiles.check_report(corpus, out / "report.csv")
    assert len(answers) == corpus.n_unique_prompts


def test_seed_changes_texts_but_not_ids(tmp_path):
    a = tiles.build_corpus(tmp_path / "a", seed=1, n_tiles=2)
    b = tiles.build_corpus(tmp_path / "b", seed=2, n_tiles=2)
    again = tiles.build_corpus(tmp_path / "c", seed=1, n_tiles=2)
    assert a.outputs.read_bytes() == again.outputs.read_bytes()
    assert a.outputs.read_bytes() != b.outputs.read_bytes()
    ids = lambda c: [line.split("\t")[:3] for line in c.outputs.read_text().splitlines()]
    assert ids(a) == ids(b)


def test_tampered_ordinal_fails_the_oracle(scored, tmp_path):
    corpus, out, _ = scored
    bad = Path(shutil.copytree(out, tmp_path / "bad"))
    path = bad / "scores_cot1.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(lines[5])
    obj["ordinal"] = (obj["ordinal"] + 1) % 5
    lines[5] = json.dumps(obj) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(tiles.OracleError, match="ordinal"):
        tiles.check_scores(corpus, bad)


def test_dropped_score_line_fails_the_oracle(scored, tmp_path):
    corpus, out, _ = scored
    bad = Path(shutil.copytree(out, tmp_path / "bad"))
    path = bad / "scores_prompt2_token.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")
    with pytest.raises(tiles.OracleError, match="scores, expected"):
        tiles.check_scores(corpus, bad)


def test_wrong_tau_fails_the_report_check(scored, tmp_path):
    corpus, out, _ = scored
    bad = Path(shutil.copytree(out, tmp_path / "bad"))
    path = bad / "report.csv"
    rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = rows[1].split(",")
    cells[2] = repr(float(cells[2]) / 2)
    rows[1] = ",".join(cells)
    path.write_text("".join(rows), encoding="utf-8")
    with pytest.raises(tiles.OracleError, match="tau"):
        tiles.check_report(corpus, path)


def test_stub_round_trip(scored):
    _corpus, _out, answers = scored
    prompt_text, answer = next(iter(answers.items()))
    stub = Stub(answers, delay_s=0.001)
    url = stub.start()
    try:
        provider = HttpProvider(endpoint_url=url, max_attempts=1)
        params = GenParams(model_id="mock-1")
        known = RenderedPrompt("kpe_perplexity", 1, prompt_text, {})
        assert provider.complete(known, params) == answer
        with pytest.raises(ProviderError):
            provider.complete(RenderedPrompt("kpe_perplexity", 1, "not a prompt", {}), params)
        assert provider.complete(known, params) == answer
        provider.session.close()
    finally:
        stub.stop()
    assert (stub.requests, stub.unknown, stub.connections) == (3, 1, 1)
    assert stub.busy_s > 0


def test_stub_process_round_trip(scored, tmp_path):
    _corpus, _out, answers = scored
    prompt_text, answer = next(iter(answers.items()))
    answers_json = tmp_path / "answers.json"
    answers_json.write_text(json.dumps(answers), encoding="utf-8")
    stub = StubProcess(answers_json, delay_s=0.001)
    url = stub.start()
    try:
        provider = HttpProvider(endpoint_url=url, max_attempts=1)
        params = GenParams(model_id="mock-1")
        assert provider.complete(RenderedPrompt("kpe_perplexity", 1, prompt_text, {}),
                                 params) == answer
        provider.session.close()
        assert (stub.requests, stub.unknown, stub.connections) == (1, 0, 1)
        stub.reset()
        assert stub.requests == 0
        proc = stub._proc
    finally:
        stub.stop()
    assert proc.returncode == 0


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert f"  {m['name']} " in proc.stdout


def test_refuses_a_directory_without_kpe_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", BENCHMARK["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
