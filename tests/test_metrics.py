from __future__ import annotations

import itertools
import random

import pytest

from kpe.backend import GenParams
from kpe.chains import EstimatorKind, QualityScore, ScoreTable
from kpe.corpus import RRJudgment
from kpe.errors import EmptySystemError, InsufficientSystemsError
from kpe.metrics import (
    kendall_tau_rr,
    pairwise_accuracy,
    score_distribution,
    system_score,
)

PARAMS = GenParams(model_id="test")


def make_table(
    ordinals: dict[tuple[str, str, str], int | float | None],
    name: str = "gemba",
    mode: str = "cat5",
) -> ScoreTable:
    """Build a ScoreTable directly from (lp, system, seg) -> ordinal."""
    table = ScoreTable(
        estimator=EstimatorKind(name=name, scoring_mode=mode),
    )
    for (lp, system_id, seg_id), ordinal in ordinals.items():
        table.scores[(lp, system_id, seg_id)] = QualityScore(
            lp=lp,
            system_id=system_id,
            seg_id=seg_id,
            estimator=name,
            mode=mode,
            ordinal=ordinal,
            error=None if ordinal is not None else "step1: NoMatchError: synthetic",
            steps=(),
        )
    return table


def oracle_recount(ordinals, judgments, middle=None):
    """Independent per-lp (concordant, discordant, excluded) tally."""
    tallies: dict[str, list[int]] = {}
    for j in judgments:
        c, d, x = tallies.setdefault(j.lp, [0, 0, 0])
        better = ordinals.get((j.lp, j.better_system, j.seg_id))
        worse = ordinals.get((j.lp, j.worse_system, j.seg_id))
        if middle is not None:
            better = middle if better is None else better
            worse = middle if worse is None else worse
        if better is None or worse is None:
            tallies[j.lp] = [c, d, x + 1]
        elif better > worse:
            tallies[j.lp] = [c + 1, d, x]
        else:
            tallies[j.lp] = [c, d + 1, x]
    return {lp: tuple(t) for lp, t in tallies.items()}


def oracle_pairwise(metric: dict[str, float], human: dict[str, float]) -> float | None:
    agree = counted = 0
    for a, b in itertools.combinations(sorted(set(metric) & set(human)), 2):
        if human[a] == human[b]:
            continue
        counted += 1
        if (metric[a] - metric[b]) * (human[a] - human[b]) > 0:
            agree += 1
    return agree / counted if counted else None


# kendall ------------------------------------------------------------------

def test_kendall_hand_case():
    ordinals = {
        ("de-en", "sysA", "s1"): 4,
        ("de-en", "sysB", "s1"): 2,
        ("de-en", "sysA", "s2"): 3,
        ("de-en", "sysB", "s2"): 3,
        ("de-en", "sysA", "s3"): None,
        ("de-en", "sysB", "s3"): 1,
    }
    judgments = [
        RRJudgment(lp="de-en", seg_id="s1", better_system="sysA", worse_system="sysB"),
        RRJudgment(lp="de-en", seg_id="s2", better_system="sysA", worse_system="sysB"),
        RRJudgment(lp="de-en", seg_id="s3", better_system="sysA", worse_system="sysB"),
    ]
    summary = kendall_tau_rr(make_table(ordinals), judgments)["de-en"]
    # s1 concordant, s2 metric tie counts as discordant, s3 excluded
    assert (summary.concordant, summary.discordant, summary.excluded) == (1, 1, 1)
    assert summary.tau == 0.0


def test_kendall_metric_tie_is_discordant():
    ordinals = {("de-en", "sysA", "s1"): 2, ("de-en", "sysB", "s1"): 2}
    judgments = [
        RRJudgment(lp="de-en", seg_id="s1", better_system="sysA", worse_system="sysB")
    ]
    summary = kendall_tau_rr(make_table(ordinals), judgments)["de-en"]
    assert summary.discordant == 1
    assert summary.tau == -1.0


def test_kendall_lower_better_score_is_discordant():
    ordinals = {("de-en", "sysA", "s1"): 1, ("de-en", "sysB", "s1"): 3}
    judgments = [
        RRJudgment(lp="de-en", seg_id="s1", better_system="sysA", worse_system="sysB")
    ]
    assert kendall_tau_rr(make_table(ordinals), judgments)["de-en"].tau == -1.0


def test_kendall_all_excluded_has_null_tau():
    ordinals = {("de-en", "sysA", "s1"): None, ("de-en", "sysB", "s1"): 1}
    judgments = [
        RRJudgment(lp="de-en", seg_id="s1", better_system="sysA", worse_system="sysB")
    ]
    summary = kendall_tau_rr(make_table(ordinals), judgments)["de-en"]
    assert summary.excluded == 1
    assert summary.tau is None


def test_kendall_middle_policy_scores_missing_pairs():
    ordinals = {("de-en", "sysA", "s1"): None, ("de-en", "sysB", "s1"): 1}
    judgments = [
        RRJudgment(lp="de-en", seg_id="s1", better_system="sysA", worse_system="sysB")
    ]
    summary = kendall_tau_rr(make_table(ordinals), judgments, drop_policy="middle")[
        "de-en"
    ]
    # missing better-side becomes the cat5 middle (2), 2 > 1 is concordant
    assert (summary.concordant, summary.discordant, summary.excluded) == (1, 0, 0)


def test_kendall_unknown_policy():
    with pytest.raises(Exception):
        kendall_tau_rr(make_table({}), [], drop_policy="optimism")


def test_kendall_totals_invariant_random():
    rng = random.Random(421)
    for _ in range(200):
        n_systems = rng.randint(2, 6)
        n_segs = rng.randint(1, 8)
        systems = [f"sys{k}" for k in range(n_systems)]
        ordinals = {}
        for seg in range(n_segs):
            for system in systems:
                value = rng.choice([None, 0, 1, 2, 3, 4])
                ordinals[("xx-en", system, f"s{seg}")] = value
        judgments = []
        for _ in range(rng.randint(0, 40)):
            a, b = rng.sample(systems, 2)
            judgments.append(
                RRJudgment(
                    lp="xx-en",
                    seg_id=f"s{rng.randrange(n_segs)}",
                    better_system=a,
                    worse_system=b,
                )
            )
        got = kendall_tau_rr(make_table(ordinals), judgments)
        want = oracle_recount(ordinals, judgments)
        for lp, (c, d, x) in want.items():
            summary = got[lp]
            assert (summary.concordant, summary.discordant, summary.excluded) == (c, d, x)
            assert c + d + x == sum(1 for j in judgments if j.lp == lp)


# system scores and pairwise accuracy ---------------------------------------

def test_system_score_means():
    ordinals = {
        ("de-en", "sysA", "s1"): 4,
        ("de-en", "sysA", "s2"): 2,
        ("de-en", "sysB", "s1"): 1,
        ("de-en", "sysB", "s2"): None,
    }
    rows = system_score(make_table(ordinals))
    by_system = {(r.lp, r.system_id): r for r in rows}
    assert by_system[("de-en", "sysA")].mean_ordinal == 3.0
    assert by_system[("de-en", "sysA")].n_segments == 2
    # unparsed scores are dropped from the mean, not zeroed
    assert by_system[("de-en", "sysB")].mean_ordinal == 1.0
    assert by_system[("de-en", "sysB")].n_segments == 1


def test_system_score_empty_system():
    ordinals = {("de-en", "sysA", "s1"): None}
    with pytest.raises(EmptySystemError):
        system_score(make_table(ordinals))


def test_pairwise_accuracy_hand_case():
    metric = {"a": 3.0, "b": 2.0, "c": 2.0, "d": 1.0}
    human = {"a": 4.0, "b": 3.0, "c": 2.0, "d": 1.0}
    # six pairs, one metric tie on a humanly decided pair counts against
    assert pairwise_accuracy(metric, human) == pytest.approx(5 / 6)


def test_pairwise_accuracy_human_ties_excluded():
    metric = {"a": 3.0, "b": 2.0, "c": 1.0}
    human = {"a": 2.0, "b": 2.0, "c": 1.0}
    # the (a, b) pair is humanly tied and skipped; both others agree
    assert pairwise_accuracy(metric, human) == 1.0


def test_pairwise_accuracy_needs_shared_systems():
    with pytest.raises(InsufficientSystemsError):
        pairwise_accuracy({"a": 1.0}, {"a": 1.0, "b": 2.0})
    with pytest.raises(InsufficientSystemsError):
        pairwise_accuracy({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 1.0})


def test_pairwise_accuracy_random_oracle():
    rng = random.Random(97)
    checked = 0
    while checked < 300:
        n = rng.randint(3, 10)
        systems = [f"sys{k}" for k in range(n)]
        metric = {s: float(rng.randint(0, 3)) for s in systems}
        human = {s: float(rng.randint(0, 3)) for s in systems}
        want = oracle_pairwise(metric, human)
        if want is None:
            with pytest.raises(InsufficientSystemsError):
                pairwise_accuracy(metric, human)
            continue
        assert pairwise_accuracy(metric, human) == pytest.approx(want)
        checked += 1


# distributions ---------------------------------------------------------------

def test_distribution_counts_and_neutral():
    ordinals = {}
    for i in range(10):
        ordinals[("de-en", "sysA", f"s{i}")] = [0, 1, 1, 1, 2, 2, 0, 1, 2, None][i]
    table = make_table(ordinals, name="gemba", mode="cat3")
    dist = score_distribution(table)
    assert dist.counts == (2, 4, 3)
    assert dist.n_parsed == 9
    assert dist.neutral_fraction == pytest.approx(4 / 9)


def test_distribution_stars_offset():
    ordinals = {("de-en", "sysA", f"s{i}"): stars for i, stars in enumerate([1, 3, 5, 5])}
    table = make_table(ordinals, name="gemba", mode="stars")
    dist = score_distribution(table)
    assert dist.counts == (1, 0, 1, 0, 2)
    assert dist.neutral_fraction == pytest.approx(1 / 4)


def test_distribution_empty_table():
    table = make_table({}, mode="cat3")
    dist = score_distribution(table)
    assert dist.counts == (0, 0, 0)
    assert dist.neutral_fraction is None


def test_distribution_rejects_scalar_and_bad_ordinals():
    with pytest.raises(ValueError):
        score_distribution(make_table({}, mode="scalar"))
    table = make_table({("de-en", "sysA", "s1"): 9}, mode="cat5")
    with pytest.raises(ValueError):
        score_distribution(table)
