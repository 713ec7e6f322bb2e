"""Deterministic toy corpus and mock fixtures.

Builds a small evaluation set (3 language pairs x 4 systems x 20 segments,
50 judgments per lp) whose mock grading has a known shape:

* True quality is sysA > sysB > sysC > sysD (ordinals 4..1); judgments
  always follow true quality.
* Each one-step aspect gets its own pseudo-reference per segment. On six
  segments per lp (sets rotated across lps) the fluency reference drops
  sysA by one bucket, the token reference drops sysB, and the sentence
  reference drops sysC; the base reference drops sysA on two segments.
* The mock combiner averages step answers, and a single -1 error on one
  step of a pair rounds back to the true ordinal, so the two-step chain
  scores the truth everywhere while every one-step estimator keeps some
  discordant judgments. That gives the chain a strictly higher tau.

Texts are built from per-segment pools of 6-letter words with pairwise
disjoint character trigrams, so the overlap between a translation and a
reference is dialed by how many words they share. The generator verifies
every (translation, reference) pair lands in its intended bucket and
retries with a new salt if boundary trigrams ever spoil one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .backend import MockFixtures, overlap_bucket, trigram_overlap
from .corpus import (
    EvalDataset,
    RRJudgment,
    Segment,
    SystemOutput,
    dataset_stats,
    save_dataset,
)
from .prompting import ESTIMATORS

LPS = ("de-en", "fi-en", "zh-en")
SYSTEMS = ("sysA", "sysB", "sysC", "sysD")
N_SEGMENTS = 20
N_JUDGMENTS = 50
TRUE_ORDINAL = {"sysA": 4, "sysB": 3, "sysC": 2, "sysD": 1}

_PAIRS = (
    ("sysA", "sysB"),
    ("sysB", "sysC"),
    ("sysC", "sysD"),
    ("sysA", "sysC"),
    ("sysA", "sysD"),
    ("sysB", "sysD"),
)

# shared words needed to land an overlap in each of the five buckets
_N_FOR_BUCKET = {0: 0, 1: 3, 2: 5, 3: 7, 4: 10}

_HANZI = (
    "的一是在不了有大人这中上为个国我以要他时来用们生到作地于出就分对成会可主发年动"
)


@dataclass(frozen=True)
class ToyCorpus:
    dataset: EvalDataset
    fixtures: MockFixtures
    manifest: dict
    expected_ordinals: dict[tuple[str, str, str, str], int]


def _error_sets(lp_index: int) -> dict[str, set[int]]:
    """Segment sets where one system's aspect reference drops a bucket."""
    shift = 7 * lp_index
    rot = lambda lo, hi: {(s + shift) % N_SEGMENTS for s in range(lo, hi)}
    return {
        "fluency": rot(0, 6),
        "token": rot(6, 12),
        "sentence": rot(12, 18),
        "base": rot(18, 20),
    }


_ERROR_SYSTEM = {"fluency": "sysA", "token": "sysB", "sentence": "sysC", "base": "sysA"}

# Each one-step estimator's grading aspect gets its own reference.
_ASPECTS = tuple(spec.aspect for spec in ESTIMATORS.values() if spec.aspect)


def _target_bucket(aspect: str, system: str, seg: int, errors: dict[str, set[int]]) -> int:
    q = TRUE_ORDINAL[system]
    if system == _ERROR_SYSTEM[aspect] and seg in errors[aspect]:
        return q - 1
    return q


def _fresh_word(rng: random.Random, used: set[str]) -> str:
    while True:
        word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))
        grams = {word[i : i + 3] for i in range(4)}
        if len(grams) == 4 and not grams & used:
            used.update(grams)
            return word


def _segment_texts(
    lp: str, seg: int, errors: dict[str, set[int]], salt: int
) -> tuple[dict[str, str], dict[str, str]] | None:
    """Build (mt per system, ref per aspect) or None if a bucket missed."""
    rng = random.Random(f"{lp}:{seg}:{salt}")
    used: set[str] = set()
    seg_word = _fresh_word(rng, used)
    groups = {sys: [_fresh_word(rng, used) for _ in range(10)] for sys in SYSTEMS}
    filler = [_fresh_word(rng, used) for _ in range(10)]

    mts = {sys: " ".join([seg_word] + groups[sys]) for sys in SYSTEMS}
    refs: dict[str, str] = {}
    for aspect in _ASPECTS:
        words = [seg_word]
        for sys in SYSTEMS:
            n = _N_FOR_BUCKET[_target_bucket(aspect, sys, seg, errors)]
            words.extend(groups[sys][:n])
        while len(words) < 12:
            words.append(filler[len(words) % len(filler)])
        refs[aspect] = " ".join(words)
        for sys in SYSTEMS:
            o = trigram_overlap(mts[sys], refs[aspect])
            if overlap_bucket(o, 5) != _target_bucket(aspect, sys, seg, errors):
                return None
    return mts, refs


def _src_text(lp: str, lp_index: int, seg: int, seg_word: str) -> str:
    if lp.startswith("zh"):
        return "".join(
            _HANZI[(seg * 7 + k * 3 + lp_index * 5) % len(_HANZI)] for k in range(8)
        )
    return f"source {lp} {seg:02d} {seg_word}"


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def generate_toy_corpus() -> ToyCorpus:
    """Build the corpus, fixtures, and the ordinal every estimator should emit."""
    segments: list[Segment] = []
    outputs: list[SystemOutput] = []
    judgments: list[RRJudgment] = []
    refs: dict[tuple[str, str], str] = {}
    aspect_refs: dict[str, dict[tuple[str, str], str]] = {}
    expected: dict[tuple[str, str, str, str], int] = {}

    for lp_index, lp in enumerate(LPS):
        errors = _error_sets(lp_index)
        for seg in range(N_SEGMENTS):
            texts = None
            for salt in range(50):
                texts = _segment_texts(lp, seg, errors, salt)
                if texts is not None:
                    break
            if texts is None:
                raise RuntimeError(f"could not build {lp} segment {seg}")
            mts, seg_refs = texts
            seg_id = f"seg{seg:02d}"
            seg_word = mts["sysA"].split()[0]
            segments.append(
                Segment(lp=lp, seg_id=seg_id, src_text=_src_text(lp, lp_index, seg, seg_word))
            )
            for sys in SYSTEMS:
                outputs.append(
                    SystemOutput(lp=lp, system_id=sys, seg_id=seg_id, mt_text=mts[sys])
                )
            refs[(lp, seg_id)] = seg_refs.pop("base")
            for aspect, ref in seg_refs.items():
                aspect_refs.setdefault(aspect, {})[(lp, seg_id)] = ref

            for sys in SYSTEMS:
                for name, spec in ESTIMATORS.items():  # steps come before chains
                    if spec.steps:
                        steps = [expected[(step, lp, sys, seg_id)] for step in spec.steps]
                        value = _round_half_up(sum(steps) / len(steps))
                    else:
                        value = _target_bucket(spec.aspect, sys, seg, errors)
                    expected[(name, lp, sys, seg_id)] = value

        for j in range(N_JUDGMENTS):
            seg_id = f"seg{j % N_SEGMENTS:02d}"
            better, worse = _PAIRS[j % len(_PAIRS)]
            judgments.append(
                RRJudgment(lp=lp, seg_id=seg_id, better_system=better, worse_system=worse)
            )

    dataset = EvalDataset.build(segments, outputs, judgments)
    mt_texts = [o.mt_text for o in outputs]
    if len(set(mt_texts)) != len(mt_texts):
        raise RuntimeError("mt texts are not globally unique")
    fixtures = MockFixtures.from_dataset(dataset, refs, aspect_refs)

    predicted_tau: dict[str, dict[str, float]] = {}
    for name in ESTIMATORS:
        predicted_tau[name] = {}
        for lp in LPS:
            concordant = discordant = 0
            for j in judgments:
                if j.lp != lp:
                    continue
                vb = expected[(name, lp, j.better_system, j.seg_id)]
                vw = expected[(name, lp, j.worse_system, j.seg_id)]
                if vb > vw:
                    concordant += 1
                else:
                    discordant += 1
            predicted_tau[name][lp] = (concordant - discordant) / (concordant + discordant)

    for one_step in ("prompt1_perplexity", "prompt2_token", "prompt3_sentence"):
        for lp in LPS:
            if not predicted_tau["cot1"][lp] > predicted_tau[one_step][lp]:
                raise RuntimeError(f"fixture lost its margin: cot1 vs {one_step} on {lp}")

    manifest = {
        "lps": list(LPS),
        "systems_per_lp": len(SYSTEMS),
        "segments_per_lp": N_SEGMENTS,
        "outputs_per_lp": len(SYSTEMS) * N_SEGMENTS,
        "judgments_per_lp": N_JUDGMENTS,
        "per_lp": dataset_stats(dataset),
        "predicted_tau": predicted_tau,
    }
    return ToyCorpus(
        dataset=dataset, fixtures=fixtures, manifest=manifest, expected_ordinals=expected
    )


def write_toy_corpus(out_dir: str | Path) -> ToyCorpus:
    """Generate and write the TSV corpus, fixtures JSON and manifest JSON."""
    toy = generate_toy_corpus()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(toy.dataset, out / "segments.tsv", out / "outputs.tsv", out / "judgments.tsv")
    with open(out / "fixtures.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(toy.fixtures.to_json_obj(), fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(toy.manifest, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    return toy
