"""Quality estimators: one-step prompts and two chain-of-thought composites.

Estimator names:

    gemba               single quality-classification prompt
    prompt1_perplexity  fluency of the translation alone
    prompt2_token       word-level source/translation similarity
    prompt3_sentence    sentence-level source/translation similarity
    cot1                prompt1 + prompt2, then a combining prompt
    cot2                prompt1 + prompt2 + prompt3, then a combining prompt

prompting.ESTIMATORS describes each one. score_estimators is the one way
to score; a single pair is scored as a one-output EvalDataset. All
requested estimators are scored by one plan in two stages: every step
prompt any estimator needs completes (one run_batch call) before any
combiner prompt is sent (a second call), so a prompt that several
estimators share is sent and parsed once. Combiner prompts are bound to
the parsed class labels of earlier steps (not raw responses). A failure
is recorded on its pair, never raised: a provider failure on any step
aborts that pair; a parse failure follows the step_failure policy
("abort_pair" or "substitute_middle", which binds the step schema's
middle class and flags the step record). A pair whose earlier step
failed records no later steps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# perfbench/tracing.py wraps run_batch, render_template and parse_categorical as
# attributes of this module, so the plan must look them up here.
from .backend import (
    CompletionFailure,
    CompletionResult,
    FileCache,
    GenParams,
    run_batch,
)
from .corpus import EvalDataset, SystemOutput
from .errors import FormatError, InputError, ParseError
from .parsing import parse_categorical, parse_scalar, parse_stars
from .prompting import (
    ESTIMATORS,
    PromptTemplate,
    RenderedPrompt,
    builtin_templates,
    render_template,
)

ONE_STEP_KINDS = tuple(name for name, spec in ESTIMATORS.items() if not spec.steps)
COT_KINDS = tuple(name for name, spec in ESTIMATORS.items() if spec.steps)
ESTIMATOR_NAMES = ONE_STEP_KINDS + COT_KINDS
SCORING_MODES = tuple(dict.fromkeys(m for spec in ESTIMATORS.values() for m in spec.templates))
STEP_FAILURES = ("abort_pair", "substitute_middle")


@dataclass(frozen=True)
class EstimatorKind:
    """An estimator plus the scoring mode its templates answer in."""

    name: str
    scoring_mode: str = "cat5"

    def __post_init__(self) -> None:
        if self.name not in ESTIMATOR_NAMES:
            raise InputError(
                f"unknown estimator {self.name!r}; known: {', '.join(ESTIMATOR_NAMES)}"
            )
        modes = ESTIMATORS[self.name].templates
        if self.scoring_mode not in modes:
            raise InputError(
                f"{self.name} scores in {', '.join(modes)}, not {self.scoring_mode!r}"
            )

    @property
    def is_cot(self) -> bool:
        return self.name in COT_KINDS

    @property
    def template_id(self) -> str:
        """The estimator's template in its mode; for a chain, the combiner."""
        return ESTIMATORS[self.name].templates[self.scoring_mode]

    @property
    def steps(self) -> tuple["EstimatorKind", ...]:
        """A chain's step estimators in stage order; empty for one-step kinds."""
        return tuple(EstimatorKind(s, self.scoring_mode) for s in ESTIMATORS[self.name].steps)


@dataclass(frozen=True)
class StepRecord:
    """Full trace of one prompt round for one (system, segment) pair.

    bindings are kept in memory so the digest can be re-derived by
    re-rendering; the persisted form keeps only (template_id, version,
    digest, parsed) and raw responses stay in the cache, addressed by
    digest.
    """

    template_id: str
    version: int
    digest: str
    bindings: dict[str, str] = field(compare=False)
    response_text: str | None = None
    parsed_ordinal: int | float | None = None
    parsed_class: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class QualityScore:
    lp: str
    system_id: str
    seg_id: str
    estimator: str
    mode: str
    ordinal: int | float | None
    error: str | None
    steps: tuple[StepRecord, ...]


@dataclass
class ScoreTable:
    """All QualityScores of one estimator over one dataset run."""

    estimator: EstimatorKind
    scores: dict[tuple[str, str, str], QualityScore] = field(default_factory=dict)

    def get(self, lp: str, system_id: str, seg_id: str) -> QualityScore | None:
        return self.scores.get((lp, system_id, seg_id))

    @property
    def total(self) -> int:
        return len(self.scores)

    @property
    def n_parsed(self) -> int:
        return sum(1 for s in self.scores.values() if s.ordinal is not None)

    @property
    def n_errored(self) -> int:
        return sum(1 for s in self.scores.values() if s.error is not None)

    def write_jsonl(self, path: str | Path) -> None:
        """One object per score, sorted by key; deterministic bytes."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key in sorted(self.scores):
                score = self.scores[key]
                obj = {
                    "lp": score.lp,
                    "system_id": score.system_id,
                    "seg_id": score.seg_id,
                    "estimator": score.estimator,
                    "mode": score.mode,
                    "ordinal": score.ordinal,
                    "error": score.error,
                    "steps": [
                        {
                            "template_id": step.template_id,
                            "version": step.version,
                            "digest": step.digest,
                            "parsed": step.parsed_ordinal,
                        }
                        for step in score.steps
                    ],
                }
                fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True))
                fh.write("\n")


def _field(obj: dict, name: str, types: type | tuple[type, ...]):
    value = obj[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise TypeError(f"field {name!r} is {value!r}")
    return value


def load_score_file(path: str | Path) -> ScoreTable:
    """Rebuild a ScoreTable from its JSONL form (traces lose bindings/raw text).

    A line that is not a score record as write_jsonl writes it is a
    FormatError naming the path and line.
    """
    scores: dict[tuple[str, str, str], QualityScore] = {}
    estimator: EstimatorKind | None = None
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                kind = EstimatorKind(_field(obj, "estimator", str), _field(obj, "mode", str))
                steps = tuple(
                    StepRecord(
                        template_id=_field(s, "template_id", str),
                        version=_field(s, "version", int),
                        digest=_field(s, "digest", str),
                        bindings={},
                        parsed_ordinal=_field(s, "parsed", (int, float, type(None))),
                    )
                    for s in _field(obj, "steps", list)
                )
                score = QualityScore(
                    lp=_field(obj, "lp", str),
                    system_id=_field(obj, "system_id", str),
                    seg_id=_field(obj, "seg_id", str),
                    estimator=kind.name,
                    mode=kind.scoring_mode,
                    ordinal=_field(obj, "ordinal", (int, float, type(None))),
                    error=_field(obj, "error", (str, type(None))),
                    steps=steps,
                )
            except KeyError as exc:
                raise FormatError(str(path), line_no, f"missing field {exc}") from exc
            except (TypeError, ValueError, InputError) as exc:
                raise FormatError(str(path), line_no, f"not a score record: {exc}") from exc
            if estimator is None:
                estimator = kind
            elif estimator != kind:
                raise InputError(f"{path}: mixed estimators in one score file")
            scores[(score.lp, score.system_id, score.seg_id)] = score
    if estimator is None:
        raise InputError(f"{path}: empty score file")
    return ScoreTable(estimator=estimator, scores=scores)


@dataclass(slots=True)
class _Answer:
    """One completed prompt, parsed once for every estimator that asked it."""

    template: PromptTemplate
    prompt: RenderedPrompt
    outcome: CompletionResult | CompletionFailure
    ordinal: int | float | None = None
    class_string: str | None = None
    parse_error: ParseError | None = None

    def __post_init__(self) -> None:
        if isinstance(self.outcome, CompletionFailure):
            return
        text, schema = self.outcome.text, self.template.schema
        try:
            if schema.kind == "categorical":
                self.ordinal = parse_categorical(text, schema)
                self.class_string = schema.classes[self.ordinal]
            elif schema.kind == "stars":
                self.ordinal = parse_stars(text, int(schema.lo), int(schema.hi))
            else:
                self.ordinal = parse_scalar(text, schema.lo, schema.hi)
        except ParseError as exc:
            self.parse_error = exc


@dataclass(slots=True)
class _PairState:
    """One estimator's progress on one (system, segment) pair."""

    steps: list[StepRecord] = field(default_factory=list)
    answers: dict[str, str] = field(default_factory=dict)  # combiner placeholder -> class
    error: str | None = None
    ordinal: int | float | None = None

    def fail(self, stage: str, exc: Exception) -> str:
        self.error = f"{stage}: {type(exc).__name__}: {exc}"
        return self.error

    def take(self, answer: _Answer, stage: str, *, final: bool, step_failure: str,
             placeholder: str | None = None) -> None:
        """Record one round's answer under the step-failure policy."""
        outcome = answer.outcome
        record = dict(
            template_id=answer.template.template_id,
            version=answer.template.version,
            digest=outcome.request_digest,
            bindings=answer.prompt.bindings,
        )
        if isinstance(outcome, CompletionFailure):
            error = f"{outcome.error_kind}: {outcome.message}"
            self.steps.append(StepRecord(**record, error=error))
            self.fail(stage, outcome.exception)
            return
        record["response_text"] = outcome.text
        exc = answer.parse_error
        if exc is None:
            self.steps.append(StepRecord(
                **record, parsed_ordinal=answer.ordinal, parsed_class=answer.class_string
            ))
            if final:
                self.ordinal = answer.ordinal
            else:
                self.answers[placeholder] = answer.class_string
        elif final or step_failure == "abort_pair":
            self.steps.append(StepRecord(**record, error=self.fail(stage, exc)))
        else:
            middle = answer.template.schema.middle_class
            note = f"{stage}: {type(exc).__name__}: {exc} (substituted middle class)"
            self.steps.append(StepRecord(**record, parsed_class=middle, error=note))
            self.answers[placeholder] = middle


def _ask(batch, provider, cache, params, max_in_flight) -> list[_Answer]:
    """Complete a batch of (template, output, source text, step answers) in one run_batch.

    Each template is bound to the pair's texts and answers it declares.
    """
    prompts = []
    for template, output, src_text, answers in batch:
        values = {"source_seg": src_text, "target_seg": output.mt_text, **answers}
        bindings = {name: values[name] for name in template.placeholders if name in values}
        prompts.append(render_template(template, bindings))
    outcomes = run_batch(provider, cache, prompts, params, max_in_flight=max_in_flight)
    return [
        _Answer(item[0], prompt, outcome)
        for item, prompt, outcome in zip(batch, prompts, outcomes)
    ]


def _run_plan(
    kinds: list[EstimatorKind],
    dataset: EvalDataset,
    outputs: list[SystemOutput],
    provider,
    cache: FileCache | None,
    *,
    params: GenParams,
    max_in_flight: int = 4,
    step_failure: str = "abort_pair",
) -> dict[str, list[_PairState]]:
    """Score outputs with every estimator in two batches; states per estimator name."""
    if step_failure not in STEP_FAILURES:
        raise InputError(f"unknown step_failure policy {step_failure!r}")
    registry = builtin_templates()
    sources = [dataset.get_segment(out.lp, out.seg_id).src_text for out in outputs]
    states = {kind.name: [_PairState() for _ in outputs] for kind in kinds}
    live = []
    for i, output in enumerate(outputs):
        if output.mt_text.strip():
            live.append(i)
            continue
        for by_pair in states.values():
            by_pair[i].fail("input", InputError("empty mt_text"))

    # Stage 1: every one-step template any estimator needs, once per live pair.
    step_templates = {
        step.template_id: registry.get(step.template_id)
        for kind in kinds
        for step in (kind.steps or (kind,))
    }
    keys = [(template_id, i) for template_id in step_templates for i in live]
    answers = dict(zip(keys, _ask(
        [(step_templates[tid], outputs[i], sources[i], {}) for tid, i in keys],
        provider, cache, params, max_in_flight,
    )))
    for kind in kinds:
        rounds = [
            (step.template_id, f"step{n}:{step.template_id}", ESTIMATORS[step.name].answer)
            for n, step in enumerate(kind.steps or (kind,), start=1)
        ]
        for i in live:
            state = states[kind.name][i]
            for template_id, stage, placeholder in rounds:
                if state.error is not None:
                    break  # a failed step ends the chain for this pair
                state.take(answers[(template_id, i)], stage, final=not kind.is_cot,
                           step_failure=step_failure, placeholder=placeholder)

    # Stage 2: every chain's combiner, bound to its steps' parsed classes.
    pending = [
        (registry.get(kind.template_id), states[kind.name][i], i)
        for kind in kinds
        if kind.is_cot
        for i in live
        if states[kind.name][i].error is None
    ]
    combined = _ask(
        [(template, outputs[i], sources[i], state.answers) for template, state, i in pending],
        provider, cache, params, max_in_flight,
    )
    for (template, state, _), answer in zip(pending, combined):
        state.take(answer, f"combine:{template.template_id}", final=True,
                   step_failure=step_failure)
    return states


def _quality_score(kind: EstimatorKind, output: SystemOutput, state: _PairState) -> QualityScore:
    return QualityScore(
        lp=output.lp,
        system_id=output.system_id,
        seg_id=output.seg_id,
        estimator=kind.name,
        mode=kind.scoring_mode,
        ordinal=state.ordinal,
        error=state.error,
        steps=tuple(state.steps),
    )


def score_estimators(
    kinds: list[EstimatorKind],
    dataset: EvalDataset,
    provider,
    cache: FileCache | None,
    *,
    params: GenParams,
    max_in_flight: int = 4,
    step_failure: str = "abort_pair",
) -> dict[str, ScoreTable]:
    """Score every system output with every estimator; one table per estimator name.

    All step prompts go out in one batch and all combiner prompts in a
    second, so a prompt that several estimators share is sent and parsed once.
    """
    kinds = list(dict.fromkeys(kinds))
    if len({kind.name for kind in kinds}) != len(kinds):
        raise InputError("each estimator may be requested in one scoring mode only")
    outputs = sorted(dataset.outputs)
    states = _run_plan(
        kinds, dataset, outputs, provider, cache, params=params,
        max_in_flight=max_in_flight, step_failure=step_failure,
    )
    return {
        kind.name: ScoreTable(
            estimator=kind,
            scores={
                (output.lp, output.system_id, output.seg_id): _quality_score(kind, output, state)
                for output, state in zip(outputs, states[kind.name])
            },
        )
        for kind in kinds
    }


# Kept only because perfbench/tiles.py imports it; kpe itself calls score_estimators.
def score_dataset(estimator: EstimatorKind, dataset: EvalDataset, provider,
                  cache: FileCache | None, **kwargs) -> ScoreTable:
    """Score every system output in the dataset with one estimator."""
    return score_estimators([estimator], dataset, provider, cache, **kwargs)[estimator.name]
