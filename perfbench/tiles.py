"""Seeded synthetic corpora, the oracle that checks runs, and mock answers.

A corpus is ``n_tiles`` copies of ``kpe.toydata.generate_toy_corpus()``.
Each tile gets fresh segment ids and its own seeded bijective permutation
of the letters a-z, applied alike to upper and lower case, to every text
in it: sources, translations and pseudo-references. The mock provider
grades by character-trigram overlap of lowercased texts, and a letter
permutation that commutes with lowercasing maps trigram sets one to one,
so every expected ordinal and every predicted Kendall tau of the toy
corpus still holds for every tile. Fresh ids alone would leave the
prompts identical across tiles, and the executor would coalesce them
into no work.
"""

from __future__ import annotations

import csv
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

from kpe.backend import GenParams, MockFixtures, MockProvider
from kpe.chains import EstimatorKind, score_dataset
from kpe.corpus import load_dataset
from kpe.toydata import generate_toy_corpus

ESTIMATORS = ("prompt1_perplexity", "prompt2_token", "prompt3_sentence", "cot1", "cot2")

# Unique prompts per output for ESTIMATORS: the three step prompts, which
# cot1 and cot2 reuse, plus the two combiners.
UNIQUE_PROMPTS_PER_OUTPUT = 5


class OracleError(AssertionError):
    """A run's output disagrees with what the corpus predicts."""


def tile_table(seed: int, tile: int) -> dict[int, int]:
    """The tile's letter permutation as a ``str.translate`` table."""
    letters = list(string.ascii_lowercase)
    random.Random(f"perfbench:{seed}:{tile}").shuffle(letters)
    table = {}
    for src, dst in zip(string.ascii_lowercase, letters):
        table[ord(src)] = dst
        table[ord(src.upper())] = dst.upper()
    return table


def tile_seg_id(tile: int, seg_id: str) -> str:
    return f"t{tile:02d}-{seg_id}"


def split_seg_id(seg_id: str) -> tuple[int, str]:
    head, _, orig = seg_id.partition("-")
    return int(head[1:]), orig


@dataclass
class Corpus:
    """Paths of the generated input files plus what the oracle needs."""

    directory: Path
    n_tiles: int
    n_outputs: int
    expected_ordinals: dict[tuple[str, str, str, str], int]
    predicted_tau: dict[str, dict[str, float]]

    @property
    def segments(self) -> Path:
        return self.directory / "segments.tsv"

    @property
    def outputs(self) -> Path:
        return self.directory / "outputs.tsv"

    @property
    def judgments(self) -> Path:
        return self.directory / "judgments.tsv"

    @property
    def fixtures(self) -> Path:
        return self.directory / "fixtures.json"

    @property
    def n_scores(self) -> int:
        return self.n_outputs * len(ESTIMATORS)

    @property
    def n_unique_prompts(self) -> int:
        return self.n_outputs * UNIQUE_PROMPTS_PER_OUTPUT


def build_corpus(directory: Path, seed: int, n_tiles: int) -> Corpus:
    """Write segments, outputs, judgments and mock fixtures for ``n_tiles`` tiles."""
    toy = generate_toy_corpus()
    directory.mkdir(parents=True, exist_ok=True)
    segments, outputs, judgments = [], [], []
    refs: list[dict] = []
    aspect_refs: dict[str, list[dict]] = {a: [] for a in toy.fixtures.aspect_refs}
    for tile in range(n_tiles):
        table = tile_table(seed, tile)
        for s in sorted(toy.dataset.segments):
            segments.append((s.lp, tile_seg_id(tile, s.seg_id), s.src_text.translate(table)))
        for o in sorted(toy.dataset.outputs):
            outputs.append(
                (o.lp, o.system_id, tile_seg_id(tile, o.seg_id), o.mt_text.translate(table))
            )
        for j in toy.dataset.judgments:
            judgments.append((j.lp, tile_seg_id(tile, j.seg_id), j.better_system, j.worse_system))
        for (lp, seg_id), text in sorted(toy.fixtures.refs.items()):
            refs.append({"lp": lp, "seg_id": tile_seg_id(tile, seg_id), "text": text.translate(table)})
        for aspect, mapping in toy.fixtures.aspect_refs.items():
            for (lp, seg_id), text in sorted(mapping.items()):
                aspect_refs[aspect].append(
                    {"lp": lp, "seg_id": tile_seg_id(tile, seg_id), "text": text.translate(table)}
                )

    translations = [row[3] for row in outputs]
    if len(set(translations)) != len(translations):
        raise RuntimeError(f"seed {seed}: two tiles produced the same translation")

    for name, rows in (("segments", segments), ("outputs", outputs), ("judgments", judgments)):
        with open(directory / f"{name}.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for row in rows:
                fh.write("\t".join(row) + "\n")
    with open(directory / "fixtures.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"refs": refs, "aspect_refs": aspect_refs}, fh, ensure_ascii=False)
    return Corpus(
        directory=directory,
        n_tiles=n_tiles,
        n_outputs=len(outputs),
        expected_ordinals=toy.expected_ordinals,
        predicted_tau=toy.manifest["predicted_tau"],
    )


def check_scores(corpus: Corpus, scores_dir: Path) -> tuple[int, int]:
    """Check every score file against the toy oracle.

    Returns (scores checked, scores errored). Raises OracleError when a
    file is missing, a line is missing or extra, or an ordinal differs
    from the one its source tile predicts.
    """
    checked = errored = 0
    for name in ESTIMATORS:
        path = scores_dir / f"scores_{name}.jsonl"
        if not path.exists():
            raise OracleError(f"missing {path.name}")
        seen = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                key = (obj["lp"], obj["system_id"], obj["seg_id"])
                if key in seen:
                    raise OracleError(f"{path.name}: duplicate score for {key}")
                seen.add(key)
                if obj["error"] is not None:
                    errored += 1
                    continue
                tile, orig = split_seg_id(obj["seg_id"])
                if not 0 <= tile < corpus.n_tiles:
                    raise OracleError(f"{path.name}: unknown tile in {obj['seg_id']}")
                want = corpus.expected_ordinals[(name, obj["lp"], obj["system_id"], orig)]
                if obj["ordinal"] != want:
                    raise OracleError(
                        f"{path.name}: {key} ordinal {obj['ordinal']!r}, expected {want}"
                    )
        if len(seen) != corpus.n_outputs:
            raise OracleError(f"{path.name}: {len(seen)} scores, expected {corpus.n_outputs}")
        checked += len(seen)
    return checked, errored


def check_report(corpus: Corpus, report_csv: Path) -> None:
    """Every estimator's per-lp tau in report.csv equals the predicted tau."""
    found = {}
    with open(report_csv, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["lp"] != "avg":
                found[(row["estimator"], row["lp"])] = row["tau"]
    for name in ESTIMATORS:
        for lp, tau in corpus.predicted_tau[name].items():
            cell = found.get((name, lp))
            if cell is None or cell == "" or float(cell) != tau:
                raise OracleError(f"report.csv: {name}/{lp} tau {cell!r}, predicted {tau!r}")


def score_with_mock(corpus: Corpus, out_dir: Path, model_id: str,
                    max_in_flight: int) -> dict[str, str]:
    """Score the corpus through the library with MockProvider and no cache.

    Writes the score files to ``out_dir`` and returns every prompt's answer
    as ``{final_text: text}``.
    """
    dataset = load_dataset(corpus.segments, corpus.outputs, corpus.judgments)
    mock = MockProvider(fixtures=MockFixtures.from_json_file(corpus.fixtures, dataset))
    answers: dict[str, str] = {}

    class Recorder:
        provider_id = mock.provider_id

        def complete(self, prompt, params):
            answers[prompt.final_text] = mock.complete(prompt, params)
            return answers[prompt.final_text]

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ESTIMATORS:
        table = score_dataset(EstimatorKind(name=name), dataset, Recorder(), None,
                              params=GenParams(model_id=model_id), max_in_flight=max_in_flight)
        table.write_jsonl(out_dir / f"scores_{name}.jsonl")
    return answers
