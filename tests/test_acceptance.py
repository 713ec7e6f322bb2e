"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
"CRITERION nn PASS/FAIL" line; run with -s to see the verdicts inline.
"""
from __future__ import annotations

import contextlib
import json
import os
import random
import time
import xml.etree.ElementTree as ET
from itertools import combinations
from pathlib import Path

import pytest
from click.testing import CliRunner

from kpe.alignment import (
    AlignmentMatrix,
    align_pairs,
    greedy_alignment,
    render_heatmap,
    tokenize,
)
from kpe.backend import GenParams, MockProvider, request_digest
from kpe.chains import EstimatorKind, QualityScore, ScoreTable, score_estimators
from kpe.cli import main
from kpe.corpus import RRJudgment, dataset_stats, load_rr_judgments
from kpe.metrics import kendall_tau_rr, pairwise_accuracy, score_distribution
from kpe.parsing import parse_categorical
from kpe.prompting import ESTIMATORS, builtin_templates, render_template
from kpe.toydata import generate_toy_corpus, write_toy_corpus

PARAMS = GenParams(model_id="mock-1")

WMT18_JUDGMENT_COUNTS = {
    "cs-en": 5110,
    "de-en": 77811,
    "et-en": 56712,
    "fi-en": 15648,
    "ru-en": 10404,
    "tr-en": 5525,
    "zh-en": 33357,
}


@contextlib.contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\nCRITERION {num:2d} FAIL: {desc}")
        raise
    print(f"\nCRITERION {num:2d} PASS: {desc}")


def make_table(
    ordinals: dict[tuple[str, str, str], int | None],
    mode: str = "cat5",
) -> ScoreTable:
    table = ScoreTable(
        estimator=EstimatorKind(name="gemba", scoring_mode=mode),
    )
    for (lp, system_id, seg_id), ordinal in ordinals.items():
        table.scores[(lp, system_id, seg_id)] = QualityScore(
            lp=lp,
            system_id=system_id,
            seg_id=seg_id,
            estimator="gemba",
            mode=mode,
            ordinal=ordinal,
            error=None if ordinal is not None else "step1: NoMatchError: synthetic",
            steps=(),
        )
    return table


def brute_force_counts(ordinals, judgments):
    tallies: dict[str, list[int]] = {}
    for j in judgments:
        c, d, x = tallies.setdefault(j.lp, [0, 0, 0])
        better = ordinals.get((j.lp, j.better_system, j.seg_id))
        worse = ordinals.get((j.lp, j.worse_system, j.seg_id))
        if better is None or worse is None:
            tallies[j.lp] = [c, d, x + 1]
        elif better > worse:
            tallies[j.lp] = [c + 1, d, x]
        else:
            tallies[j.lp] = [c, d + 1, x]
    return {lp: tuple(t) for lp, t in tallies.items()}


def toy_config(root: Path) -> str:
    write_toy_corpus(root)
    cfg = {
        "segments": str(root / "segments.tsv"),
        "outputs": str(root / "outputs.tsv"),
        "judgments": str(root / "judgments.tsv"),
        "provider": "mock",
        "mock_fixtures": str(root / "fixtures.json"),
        "out": str(root / "out"),
        "cache_dir": str(root / "cache"),
    }
    path = root / "config.json"
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return str(path)


def test_criterion_01_kendall_matches_brute_force():
    with criterion(1, "Kendall counts equal a brute-force recount on 1000 random runs"):
        rng = random.Random(20180901)
        start = time.perf_counter()
        for _ in range(1000):
            n_systems = rng.randint(2, 6)
            n_segs = rng.randint(1, 10)
            systems = [f"sys{k}" for k in range(n_systems)]
            lps = ["aa-en", "bb-en"][: rng.randint(1, 2)]
            ordinals: dict[tuple[str, str, str], int | None] = {}
            for lp in lps:
                for seg in range(n_segs):
                    for system in systems:
                        score = None if rng.random() < 0.1 else rng.randint(0, 4)
                        ordinals[(lp, system, f"s{seg}")] = score
            judgments = []
            for _ in range(rng.randint(1, 50)):
                a, b = rng.sample(systems, 2)
                judgments.append(
                    RRJudgment(
                        lp=rng.choice(lps),
                        seg_id=f"s{rng.randrange(n_segs)}",
                        better_system=a,
                        worse_system=b,
                    )
                )
            got = kendall_tau_rr(make_table(ordinals), judgments)
            want = brute_force_counts(ordinals, judgments)
            assert set(got) == set(want)
            for lp, (c, d, x) in want.items():
                summary = got[lp]
                assert (summary.concordant, summary.discordant, summary.excluded) == (
                    c, d, x,
                )
                if c + d:
                    assert summary.tau == (c - d) / (c + d)
                else:
                    assert summary.tau is None
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"oracle loop took {elapsed:.2f}s"


def test_criterion_02_metric_tie_counts_against():
    with criterion(2, "all-tied metric scores yield tau of exactly -1.0"):
        ordinals = {}
        judgments = []
        for seg in range(10):
            ordinals[("de-en", "sysA", f"s{seg}")] = 2
            ordinals[("de-en", "sysB", f"s{seg}")] = 2
            judgments.append(
                RRJudgment(
                    lp="de-en",
                    seg_id=f"s{seg}",
                    better_system="sysA",
                    worse_system="sysB",
                )
            )
        summary = kendall_tau_rr(make_table(ordinals), judgments)["de-en"]
        assert summary.tau == -1.0
        assert summary.discordant == 10
        assert summary.concordant == 0


def test_criterion_03_pairwise_accuracy_oracle():
    with criterion(3, "pairwise accuracy equals pair enumeration on 500 random vectors"):
        rng = random.Random(52)
        for _ in range(500):
            n = rng.randint(3, 10)
            systems = [f"sys{k}" for k in range(n)]
            metric = {s: float(rng.randint(0, 5)) for s in systems}
            human = {s: float(rng.randint(0, 5)) for s in systems}
            agree = counted = 0
            for a, b in combinations(systems, 2):
                if human[a] == human[b]:
                    continue
                counted += 1
                if (metric[a] - metric[b]) * (human[a] - human[b]) > 0:
                    agree += 1
            if counted == 0:
                with pytest.raises(Exception):
                    pairwise_accuracy(metric, human)
                continue
            assert pairwise_accuracy(metric, human) == agree / counted
        ranking = {f"sys{k}": float(k) for k in range(6)}
        reversed_ranking = {f"sys{k}": float(-k) for k in range(6)}
        assert pairwise_accuracy(ranking, ranking) == 1.0
        assert pairwise_accuracy(reversed_ranking, ranking) == 0.0


def test_criterion_04_ingestion_counts(toy):
    wmt_dir = os.environ.get("KPE_WMT18_DIR")
    if wmt_dir:
        desc = "WMT18 per-lp judgment counts match the published totals"
        with criterion(4, desc):
            for lp, expected in sorted(WMT18_JUDGMENT_COUNTS.items()):
                path = Path(wmt_dir) / f"{lp}.tsv"
                assert path.is_file(), f"missing {path}"
                judgments = load_rr_judgments(path, "tsv")
                assert len(judgments) == expected, (
                    f"{lp}: {len(judgments)} judgments, expected {expected}"
                )
    else:
        desc = "toy corpus counts match its construction manifest"
        with criterion(4, desc):
            stats = dataset_stats(toy.dataset)
            assert sorted(stats) == toy.manifest["lps"]
            for lp, entry in toy.manifest["per_lp"].items():
                assert stats[lp] == entry
                assert entry == {
                    "n_segments": toy.manifest["segments_per_lp"],
                    "n_systems": toy.manifest["systems_per_lp"],
                    "n_judgments": toy.manifest["judgments_per_lp"],
                }


def parse_avg_column(markdown: str) -> dict[str, float]:
    rows = {}
    in_tau = False
    for line in markdown.splitlines():
        if line.startswith("## "):
            in_tau = line == "## Segment-level Kendall tau"
            continue
        if in_tau and line.startswith("|") and "---" not in line:
            cells = [c.strip() for c in line.strip("|").split("|")]
            if cells[0] == "estimator":
                continue
            rows[cells[0]] = float(cells[-1].rstrip("%"))
    return rows


def test_criterion_05_composite_outranks_single_steps(tmp_path):
    with criterion(5, "cot1 avg tau beats every one-step row in the emitted report"):
        start = time.perf_counter()
        config = toy_config(tmp_path)
        runner = CliRunner()
        scored = runner.invoke(main, ["score", "--config", config])
        assert scored.exit_code == 0, scored.stderr
        reported = runner.invoke(
            main,
            ["report", "--scores", str(tmp_path / "out"),
             "--judgments", str(tmp_path / "judgments.tsv"),
             "--out", str(tmp_path / "out")],
        )
        assert reported.exit_code == 0, reported.stderr
        markdown = (tmp_path / "out" / "report.md").read_text(encoding="utf-8")
        avg = parse_avg_column(markdown)
        for one_step in ("prompt1_perplexity", "prompt2_token", "prompt3_sentence"):
            assert avg["cot1"] > avg[one_step], (
                f"cot1 {avg['cot1']} not above {one_step} {avg[one_step]}"
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"toy run took {elapsed:.2f}s"


def test_criterion_06_parser_round_trip():
    with criterion(6, "all 5 quality classes survive 6 textual perturbations (30/30)"):
        schema = builtin_templates().get("gemba_classify").schema
        perturbations = [
            lambda s: s,
            str.lower,
            str.upper,
            lambda s: f'"{s}"',
            lambda s: f"Class: {s}",
            lambda s: f"{s}.",
        ]
        passed = 0
        for index, label in enumerate(schema.classes):
            for perturb in perturbations:
                got = parse_categorical(perturb(label), schema)
                assert got == index, f"{perturb(label)!r} parsed to {got}"
                passed += 1
        assert passed == 30


def test_criterion_07_cache_idempotence(tmp_path):
    with criterion(7, "warm-cache rerun makes 0 provider calls, identical score files"):
        config = toy_config(tmp_path)
        runner = CliRunner()
        assert runner.invoke(main, ["score", "--config", config]).exit_code == 0
        out = tmp_path / "out"
        first = {
            p.name: p.read_bytes() for p in sorted(out.glob("scores_*.jsonl"))
        }
        assert len(first) == 5
        assert runner.invoke(main, ["score", "--config", config]).exit_code == 0
        summary = json.loads((out / "run_summary.json").read_text(encoding="utf-8"))
        assert summary["provider_calls"] == 0
        assert summary["cache"]["misses"] == 0
        second = {
            p.name: p.read_bytes() for p in sorted(out.glob("scores_*.jsonl"))
        }
        assert second == first


def test_criterion_08_chain_structure(toy):
    with criterion(8, "cot1/cot2 step counts are 3/4 and every digest re-derives"):
        mt_texts = {(o.lp, o.system_id, o.seg_id): o.mt_text for o in toy.dataset.outputs}
        checked_steps = 0
        for name, n_rounds in (("cot1", 3), ("cot2", 4)):
            kind = EstimatorKind(name=name)
            table = score_estimators(
                [kind],
                toy.dataset,
                MockProvider(fixtures=toy.fixtures),
                None,
                params=PARAMS,
            )[kind.name]
            assert table.n_errored == 0
            assert len(table.scores) == 240
            templates = [step.template for step in kind.steps] + [kind.template]
            for (lp, system_id, seg_id), score in table.scores.items():
                assert len(score.steps) == n_rounds
                # the pair's texts and the class each step is built to answer
                values = {
                    "source_seg": toy.dataset.get_segment(lp, seg_id).src_text,
                    "target_seg": mt_texts[(lp, system_id, seg_id)],
                }
                for step in kind.steps:
                    ordinal = toy.expected_ordinals[(step.name, lp, system_id, seg_id)]
                    values[ESTIMATORS[step.name].answer] = step.template.schema.classes[ordinal]
                for template, step in zip(templates, score.steps):
                    bindings = {k: values[k] for k in template.placeholders}
                    prompt = render_template(template, bindings)
                    assert request_digest(prompt, PARAMS) == step.digest
                    checked_steps += 1
        assert checked_steps == 240 * 3 + 240 * 4


def test_criterion_09_alignment_invariants():
    with criterion(9, "self-alignment peaks on the diagonal; SVG is stable XML"):
        tokens = tokenize("He came home today.")
        (matrix,) = align_pairs([(tokens, tokens)], MockProvider(), params=PARAMS)
        for row in matrix.cells:
            for value in row:
                assert 0.0 <= value <= 1.0
        links = greedy_alignment(matrix)
        assert [(i, j) for i, j, _ in links] == [(k, k) for k in range(len(tokens))]
        svg = render_heatmap(matrix)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert render_heatmap(matrix) == svg
        pinned = AlignmentMatrix(
            src_tokens=("he", "came", "."),
            mt_tokens=("he", "arrived", "home", "."),
            cells=(
                (1.0, 0.02, 0.02, 0.02),
                (0.02, 0.9, 0.31, 0.02),
                (0.02, 0.02, 0.02, 0.95),
            ),
        )
        golden = Path(__file__).parent / "data" / "golden_heatmap.svg"
        assert render_heatmap(pinned).encode("utf-8") == golden.read_bytes()


def test_criterion_10_neutral_fraction():
    with criterion(10, "a 31/100 middle-class table reports neutral fraction 0.31"):
        ordinals: dict[tuple[str, str, str], int | None] = {}
        pattern = [0] * 35 + [1] * 31 + [2] * 34
        for i, bucket in enumerate(pattern):
            ordinals[("de-en", "sysA", f"s{i:03d}")] = bucket
        dist = score_distribution(make_table(ordinals, mode="cat3"))
        assert dist.n_parsed == 100
        assert dist.counts == (35, 31, 34)
        assert dist.neutral_fraction == 0.31
