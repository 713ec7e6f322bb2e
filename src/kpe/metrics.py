"""Meta-evaluation: how well estimator scores agree with human judgments.

Segment level: Kendall-style tau over relative-ranking triplets,
tau = (concordant - discordant) / (concordant + discordant). For a
judgment "better beat worse": the pair is concordant when the estimator
scores better strictly higher, discordant when lower, and an estimator
tie is counted discordant (the metric failed to separate a pair humans
separated). Human ties cannot occur: a triplet always names a winner.

System level: pairwise accuracy, the fraction of unordered system pairs
whose metric score delta has the same strict sign as the human score
delta; human-tied pairs are excluded, a metric tie on a human-decided
pair counts as disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chains import ScoreTable
from .corpus import RRJudgment
from .errors import EmptySystemError, InsufficientSystemsError
from .prompting import ResponseSchema, builtin_templates

# What kendall_tau_rr does with a judgment whose score is missing or errored.
DROP_POLICIES = ("drop", "middle")


@dataclass(frozen=True)
class KendallSummary:
    lp: str
    concordant: int
    discordant: int
    excluded: int

    @property
    def tau(self) -> float | None:
        compared = self.concordant + self.discordant
        if compared == 0:
            return None
        return (self.concordant - self.discordant) / compared


def kendall_tau_rr(
    table: ScoreTable,
    judgments: list[RRJudgment],
    drop_policy: str = "drop",
) -> dict[str, KendallSummary]:
    """Count concordant/discordant pairs per language pair.

    Judgments whose scores are missing or errored are excluded under the
    "drop" policy or scored as the middle of the estimator's template
    schema under "middle".
    concordant + discordant + excluded always equals the number of
    judgments seen for that lp.
    """
    if drop_policy not in DROP_POLICIES:
        raise ValueError(f"unknown drop policy {drop_policy!r}")
    middle = _schema(table).middle
    tallies: dict[str, list[int]] = {}  # lp -> [concordant, discordant, excluded]

    def value_of(lp: str, system_id: str, seg_id: str) -> int | float | None:
        score = table.get(lp, system_id, seg_id)
        if score is None or score.ordinal is None:
            return middle if drop_policy == "middle" else None
        return score.ordinal

    for j in judgments:
        tally = tallies.setdefault(j.lp, [0, 0, 0])
        better = value_of(j.lp, j.better_system, j.seg_id)
        worse = value_of(j.lp, j.worse_system, j.seg_id)
        if better is None or worse is None:
            tally[2] += 1
        elif better > worse:
            tally[0] += 1
        else:
            tally[1] += 1
    return {
        lp: KendallSummary(
            lp=lp,
            concordant=t[0],
            discordant=t[1],
            excluded=t[2],
        )
        for lp, t in sorted(tallies.items())
    }


def system_score(table: ScoreTable) -> dict[str, dict[str, float]]:
    """Mean parsed ordinal per system: {lp: {system_id: mean}}. A system with
    no parsed scores cannot be averaged and raises EmptySystemError."""
    sums: dict[tuple[str, str], list[float]] = {}
    seen: set[tuple[str, str]] = set()
    for (lp, system_id, _seg), score in table.scores.items():
        seen.add((lp, system_id))
        if score.ordinal is not None:
            sums.setdefault((lp, system_id), []).append(float(score.ordinal))
    empty = sorted(seen - set(sums))
    if empty:
        lp, system_id = empty[0]
        raise EmptySystemError(f"no parsed scores for {lp}/{system_id}")
    means: dict[str, dict[str, float]] = {}
    for (lp, system_id), values in sorted(sums.items()):
        means.setdefault(lp, {})[system_id] = sum(values) / len(values)
    return means


def pairwise_accuracy(
    metric_scores: dict[str, float], human_scores: dict[str, float]
) -> float:
    """Sign agreement over unordered pairs of the shared system set."""
    systems = sorted(set(metric_scores) & set(human_scores))
    if len(systems) < 2:
        raise InsufficientSystemsError(
            f"need at least 2 shared systems, have {len(systems)}"
        )
    agree = 0
    counted = 0
    for a, b in combinations(systems, 2):
        human_delta = human_scores[a] - human_scores[b]
        if human_delta == 0:
            continue
        counted += 1
        metric_delta = metric_scores[a] - metric_scores[b]
        if (metric_delta > 0 and human_delta > 0) or (
            metric_delta < 0 and human_delta < 0
        ):
            agree += 1
    if counted == 0:
        raise InsufficientSystemsError("every system pair is human-tied")
    return agree / counted


@dataclass(frozen=True)
class DistributionStats:
    counts: tuple[int, ...]
    n_parsed: int

    @property
    def neutral_fraction(self) -> float | None:
        """Share of the middle class; None when empty or no middle exists."""
        if self.n_parsed == 0 or len(self.counts) % 2 == 0:
            return None
        return self.counts[(len(self.counts) - 1) // 2] / self.n_parsed


def score_distribution(table: ScoreTable) -> DistributionStats:
    """Histogram of parsed scores over the classes or stars of the estimator's schema."""
    mode = table.estimator.scoring_mode
    schema = _schema(table)
    if schema.kind == "categorical":
        n_bins, offset = len(schema.classes), 0
    elif schema.kind == "stars":
        n_bins, offset = int(schema.hi - schema.lo) + 1, int(schema.lo)
    else:
        raise ValueError(f"no class distribution for mode {mode!r}")
    counts = [0] * n_bins
    parsed = 0
    for score in table.scores.values():
        if score.ordinal is None:
            continue
        idx = int(score.ordinal) - offset
        if not 0 <= idx < n_bins:
            raise ValueError(f"ordinal {score.ordinal} out of range for {mode}")
        counts[idx] += 1
        parsed += 1
    return DistributionStats(counts=tuple(counts), n_parsed=parsed)


def _schema(table: ScoreTable) -> ResponseSchema:
    """The answer schema of the estimator's template (a chain's combiner)."""
    return builtin_templates().get(table.estimator.template_id).schema
