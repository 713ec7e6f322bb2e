"""Quality estimators: one-step prompts and two chain-of-thought composites.

prompting.ESTIMATORS states each one's templates, steps, combiner
placeholder and mock aspect. score_estimators is the one way
to score; a single pair is scored as a one-output EvalDataset. All
requested estimators are scored by one plan in two stages: every step
prompt any estimator needs completes (one run_batch call) before any
combiner prompt is sent (a second call), so a prompt that several
estimators share is sent and parsed once. run_batch reads a stage's
prompts from a sequence that renders each one when it is read, so no
rendered prompt outlives its lookup or its send, and an answer keeps its
digest and its parsed record or failure, not its text. Combiner prompts
are bound to the parsed class labels of earlier steps (not raw
responses). A failure is recorded on its pair, never raised: a provider
failure on any step aborts that pair; a parse failure follows the
step_failure policy ("abort_pair" or "substitute_middle", which binds the
step schema's middle class and flags the step record). A pair whose
earlier step failed records no later steps. A parsed answer's
StepRecord is built once and shared by every estimator that asked its
prompt; a failed answer gets a record per estimator.

A score file holds one JSON object per QualityScore, with the fields and
JSON types that _FIELDS lists for it and for each of its steps; each key
is the name of the record's own attribute. write_jsonl's writer is made
from that table once, and load_score_file reads it for every line.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
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
from .errors import FormatError, InputError, KpeError, ParseError
from .parsing import parse_categorical, parse_scalar, parse_stars
from .prompting import (
    ESTIMATORS,
    PromptTemplate,
    RenderedPrompt,
    ResponseSchema,
    builtin_templates,
    render_template,
)

ESTIMATOR_NAMES = tuple(ESTIMATORS)
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
        return bool(ESTIMATORS[self.name].steps)

    @property
    def template_id(self) -> str:
        """The estimator's template in its mode; for a chain, the combiner."""
        return ESTIMATORS[self.name].templates[self.scoring_mode]

    @property
    def template(self) -> PromptTemplate:
        """The built-in template that template_id names."""
        return builtin_templates().get(self.template_id)

    @property
    def steps(self) -> tuple["EstimatorKind", ...]:
        """A chain's step estimators in stage order; empty for one-step kinds."""
        return tuple(EstimatorKind(s, self.scoring_mode) for s in ESTIMATORS[self.name].steps)


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One prompt round for one (system, segment) pair.

    digest names the cache entry whose final_text re-derives it and whose
    completion_text is the answer. A score file keeps the fields _FIELDS
    lists; parsed_class and error are kept in memory only.
    """

    template_id: str
    version: int
    digest: str
    parsed: int | float | None = None
    parsed_class: str | None = None
    error: str | None = None


@dataclass(frozen=True, slots=True)
class QualityScore:
    lp: str
    system_id: str
    seg_id: str
    estimator: str
    mode: str
    ordinal: int | float | None
    error: str | None
    steps: tuple[StepRecord, ...]


# The JSON fields of each persisted record, with their types; a field typed
# with a record class holds a list of those records.
_FIELDS: dict[type, dict[str, type | tuple[type, ...]]] = {
    QualityScore: {
        "lp": str,
        "system_id": str,
        "seg_id": str,
        "estimator": str,
        "mode": str,
        "ordinal": (int, float, type(None)),
        "error": (str, type(None)),
        "steps": StepRecord,
    },
    StepRecord: {
        "template_id": str,
        "version": int,
        "digest": str,
        "parsed": (int, float, type(None)),
    },
}


def _writer(cls: type):
    """A function from a cls record to its persisted fields as a JSON object.

    It is made once from _FIELDS as a single dict display, which writes a
    score about 3.5 us faster than reading the table for every record.
    Every name in the source it evaluates comes from _FIELDS.
    """
    namespace, items = {}, []
    for name, kind in _FIELDS[cls].items():
        if kind in _FIELDS:
            namespace[f"write_{name}"] = _writer(kind)
            items.append(f"{name!r}: [write_{name}(item) for item in record.{name}]")
        else:
            items.append(f"{name!r}: record.{name}")
    return eval(f"lambda record: {{{', '.join(items)}}}", namespace)


_to_json = _writer(QualityScore)


def _field(obj: dict, name: str, types: type | tuple[type, ...]):
    value = obj[name]
    if not isinstance(value, types) or isinstance(value, bool):
        raise TypeError(f"field {name!r} is {value!r}")
    return value


def _from_json(obj: dict, cls: type):
    """Inverse of _to_json; a missing field is a KeyError, a mistyped one a TypeError."""
    values = {}
    for name, kind in _FIELDS[cls].items():
        if kind in _FIELDS:
            values[name] = tuple(_from_json(item, kind) for item in _field(obj, name, list))
        else:
            values[name] = _field(obj, name, kind)
    return cls(**values)


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
        encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key in sorted(self.scores):
                fh.write(encode(_to_json(self.scores[key])))
                fh.write("\n")


def _is_answer(value: int | float | None, schema: ResponseSchema) -> bool:
    """Whether value is no score or one that schema's parser can return."""
    if value is None:
        return True
    if schema.kind == "categorical":
        return type(value) is int and 0 <= value < len(schema.classes)
    return schema.lo <= value <= schema.hi and (schema.kind == "scalar" or type(value) is int)


def load_score_file(path: str | Path) -> ScoreTable:
    """Rebuild a ScoreTable from its JSONL form (steps lose parsed_class and error).

    Each line must be a score record as write_jsonl writes it: scored (an
    ordinal and no error) or failed (an error and no ordinal), its ordinal
    an answer the estimator's parser returns (a class index, a whole star
    or a finite scalar in range), and each step naming a built-in template
    and holding no answer or one that template's parser returns. The steps
    name the estimator's step templates in its mode and then, for a chain,
    its combiner: all of them when scored, a prefix when failed. Any other
    line is a FormatError naming the path and line. The first line names
    the file's estimator and mode; a later line that names others is an
    InputError.
    """
    scores: dict[tuple[str, str, str], QualityScore] = {}
    estimator: EstimatorKind | None = None
    templates = builtin_templates()
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                score = _from_json(json.loads(line.decode("utf-8")), QualityScore)
                if estimator is None:
                    estimator = EstimatorKind(score.estimator, score.mode)
                    schema = estimator.template.schema
                    run_steps = [s.template_id for s in estimator.steps] + [estimator.template_id]
            except KeyError as exc:
                raise FormatError(str(path), line_no, f"missing field {exc}") from exc
            except (TypeError, ValueError, InputError) as exc:
                raise FormatError(str(path), line_no, f"not a score record: {exc}") from exc
            if (score.estimator, score.mode) != (estimator.name, estimator.scoring_mode):
                raise InputError(f"{path}: mixed estimators in one score file")
            if (score.ordinal is None) == (score.error is None):
                which = "neither an ordinal nor" if score.error is None else "both an ordinal and"
                raise FormatError(str(path), line_no, f"record has {which} an error")
            if not _is_answer(score.ordinal, schema):
                raise FormatError(str(path), line_no,
                                  f"ordinal {score.ordinal!r} is not a {score.mode} answer")
            for step in score.steps:
                if step.template_id not in templates:
                    raise FormatError(str(path), line_no,
                                      f"step names no built-in template: {step.template_id!r}")
                if not _is_answer(step.parsed, templates.get(step.template_id).schema):
                    raise FormatError(str(path), line_no, f"step value {step.parsed!r} is "
                                      f"not a {step.template_id} answer")
            step_ids = [step.template_id for step in score.steps]
            if step_ids != (run_steps if score.ordinal is not None else run_steps[:len(step_ids)]):
                raise FormatError(str(path), line_no, f"steps {step_ids} are not what a "
                                  f"{score.mode} {score.estimator} run writes: {run_steps}")
            scores[(score.lp, score.system_id, score.seg_id)] = score
    if estimator is None:
        raise InputError(f"{path}: empty score file")
    return ScoreTable(estimator=estimator, scores=scores)


@dataclass(slots=True)
class _Answer:
    """One completed prompt, parsed and (if it parses) recorded once for every estimator.

    It keeps the digest and the record or the failure, not the answer text.
    """

    template: PromptTemplate
    outcome: InitVar[CompletionResult | CompletionFailure]
    digest: str = field(init=False)
    record: StepRecord | None = None  # set when the answer parses
    failure: KpeError | None = None  # the provider's error, when there is no answer
    parse_error: ParseError | None = None

    def __post_init__(self, outcome: CompletionResult | CompletionFailure) -> None:
        self.digest = outcome.request_digest
        if isinstance(outcome, CompletionFailure):
            self.failure = outcome.exception
            return
        text, schema = outcome.text, self.template.schema
        class_string = None
        try:
            if schema.kind == "categorical":
                ordinal = parse_categorical(text, schema)
                class_string = schema.classes[ordinal]
            elif schema.kind == "stars":
                ordinal = parse_stars(text, int(schema.lo), int(schema.hi))
            else:
                ordinal = parse_scalar(text, schema.lo, schema.hi)
        except ParseError as exc:
            self.parse_error = exc
            return
        self.record = self.new_record(parsed=ordinal, parsed_class=class_string)

    def new_record(self, **fields) -> StepRecord:
        return StepRecord(
            template_id=self.template.template_id,
            version=self.template.version,
            digest=self.digest,
            **fields,
        )


@dataclass(slots=True)
class _PairState:
    """One estimator's progress on one (system, segment) pair.

    While a chain waits for its combiner, steps holds one record per step
    in stage order, each with the class the combiner binds.
    """

    steps: list[StepRecord] = field(default_factory=list)
    error: str | None = None
    ordinal: int | float | None = None

    def fail(self, stage: str, exc: Exception) -> str:
        self.error = f"{stage}: {type(exc).__name__}: {exc}"
        return self.error

    def take(self, answer: _Answer, stage: str, *, final: bool, step_failure: str) -> None:
        """Record one round's answer under the step-failure policy."""
        record = answer.record
        if record is not None:
            self.steps.append(record)
            if final:
                self.ordinal = record.parsed
        elif answer.failure is not None:
            self.steps.append(answer.new_record(error=self.fail(stage, answer.failure)))
        elif final or step_failure == "abort_pair":
            self.steps.append(answer.new_record(error=self.fail(stage, answer.parse_error)))
        else:
            exc = answer.parse_error
            note = f"{stage}: {type(exc).__name__}: {exc} (substituted middle class)"
            self.steps.append(answer.new_record(
                parsed_class=answer.template.schema.middle_class, error=note))


class _Prompts:
    """A batch's prompts, each rendered when run_batch reads it.

    Items are (template, output, source text, step answers); each template
    is bound to the pair's texts and answers it declares.
    """

    __slots__ = ("batch",)

    def __init__(self, batch: list) -> None:
        self.batch = batch

    def __len__(self) -> int:
        return len(self.batch)

    def __getitem__(self, i: int) -> RenderedPrompt:
        template, output, src_text, answers = self.batch[i]
        values = {"source_seg": src_text, "target_seg": output.mt_text, **answers}
        bindings = {name: values[name] for name in template.placeholders if name in values}
        return render_template(template, bindings)


def _ask(batch, provider, cache, params, max_in_flight) -> list[_Answer]:
    """Complete a batch of (template, output, source text, step answers) in one run_batch."""
    outcomes = run_batch(provider, cache, _Prompts(batch), params, max_in_flight=max_in_flight)
    return [_Answer(item[0], outcome) for item, outcome in zip(batch, outcomes)]


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
    sources = [dataset.get_segment(out.lp, out.seg_id).src_text for out in outputs]
    states = {kind.name: [_PairState() for _ in outputs] for kind in kinds}
    live = []
    for i, output in enumerate(outputs):
        if not output.mt_text.strip():
            blank = "mt_text"
        elif not sources[i].strip():
            blank = "src_text"
        else:
            live.append(i)
            continue
        for by_pair in states.values():
            by_pair[i].fail("input", InputError(f"empty {blank}"))

    # Stage 1: every one-step template any estimator needs, once per live pair.
    step_templates = {
        step.template_id: step.template
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
            (step.template_id, f"step{n}:{step.template_id}")
            for n, step in enumerate(kind.steps or (kind,), start=1)
        ]
        for i in live:
            state = states[kind.name][i]
            for template_id, stage in rounds:
                if state.error is not None:
                    break  # a failed step ends the chain for this pair
                state.take(answers[(template_id, i)], stage, final=not kind.is_cot,
                           step_failure=step_failure)
    del answers  # the states hold every record stage 2 needs

    # Stage 2: every chain's combiner, bound to its steps' parsed classes.
    pending = []
    for kind in kinds:
        if not kind.is_cot:
            continue
        names = [ESTIMATORS[step].answer for step in ESTIMATORS[kind.name].steps]
        for i in live:
            state = states[kind.name][i]
            if state.error is None:
                classes = {name: step.parsed_class for name, step in zip(names, state.steps)}
                pending.append((kind.template, state, i, classes))
    combined = _ask(
        [(template, outputs[i], sources[i], classes) for template, _, i, classes in pending],
        provider, cache, params, max_in_flight,
    )
    for (template, state, _, _), answer in zip(pending, combined):
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
