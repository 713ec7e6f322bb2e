from __future__ import annotations

import json
import threading
import weakref

import pytest

import kpe.chains
from kpe.backend import FileCache, GenParams, MockFixtures, MockProvider, request_digest
from kpe.chains import (
    EstimatorKind,
    QualityScore,
    StepRecord,
    load_score_file,
    score_estimators,
)
from kpe.corpus import EvalDataset, Segment, SystemOutput
from kpe.errors import FormatError, InputError, TransportError
from kpe.prompting import ESTIMATORS, RenderedPrompt, builtin_templates, render_template

PARAMS = GenParams(model_id="mock-1")


def _pair_fixtures(mt_by_seg: dict[str, str], refs_by_seg: dict[str, str]):
    segments = [
        Segment(lp="de-en", seg_id=seg, src_text=f"quelle {seg}") for seg in mt_by_seg
    ]
    outputs = [
        SystemOutput(lp="de-en", system_id="sysA", seg_id=seg, mt_text=mt)
        for seg, mt in mt_by_seg.items()
    ]
    dataset = EvalDataset.build(segments, outputs, [])
    refs = {("de-en", seg): ref for seg, ref in refs_by_seg.items()}
    return dataset, MockFixtures.from_dataset(dataset, refs)


IDENTICAL = "the very same translation text."


@pytest.fixture()
def identical_pair():
    dataset, fixtures = _pair_fixtures({"s1": IDENTICAL}, {"s1": IDENTICAL})
    return dataset, MockProvider(fixtures=fixtures)


def _score_one(kind, dataset, provider, cache=None, **kwargs):
    """Score a one-output dataset with one estimator and return that output's score."""
    (output,) = dataset.outputs
    table = score_estimators([kind], dataset, provider, cache, params=PARAMS, **kwargs)[kind.name]
    return table.get(output.lp, output.system_id, output.seg_id)


# estimator kinds ---------------------------------------------------------

def test_estimator_kind_validation():
    assert len(EstimatorKind(name="cot1").steps) == 2
    assert len(EstimatorKind(name="cot2").steps) == 3
    assert EstimatorKind(name="gemba").steps == ()
    with pytest.raises(InputError):
        EstimatorKind(name="cot3")
    with pytest.raises(InputError):
        EstimatorKind(name="gemba", scoring_mode="cat7")
    with pytest.raises(InputError):
        EstimatorKind(name="cot1", scoring_mode="scalar")
    with pytest.raises(InputError):
        EstimatorKind(name="cot2", scoring_mode="stars")


def test_template_routing():
    def template_id(name, mode):
        return ESTIMATORS[name].templates[mode]

    assert template_id("gemba", "cat5") == "gemba_classify"
    assert template_id("gemba", "cat3") == "gemba_classify_cat3"
    assert template_id("gemba", "stars") == "gemba_stars"
    assert template_id("gemba", "scalar") == "gemba_scalar"
    assert template_id("prompt1_perplexity", "cat5") == "kpe_perplexity"
    assert template_id("prompt2_token", "cat3") == "kpe_token_sim_cat3"
    assert template_id("prompt3_sentence", "stars") == "kpe_sent_sim_stars"
    assert template_id("cot1", "cat5") == "kpe_cot1_combine"
    assert template_id("cot2", "cat3") == "kpe_cot2_combine_cat3"
    assert EstimatorKind("cot2", "cat3").template_id == "kpe_cot2_combine_cat3"
    registry = builtin_templates()
    for spec in ESTIMATORS.values():
        for mode, tid in spec.templates.items():
            assert tid in registry, (mode, tid)


# single-pair estimation ----------------------------------------------------

def _digest(template_id, **bindings):
    """The request digest of a built-in template bound to these texts."""
    prompt = render_template(builtin_templates().get(template_id), bindings)
    return request_digest(prompt, PARAMS)


# The identical pair's texts and the class each step answers for it.
PAIR_TEXTS = {"source_seg": "quelle s1", "target_seg": IDENTICAL}
STEP_CLASSES = {
    "perplexity_answer": "Perfectly fluent",
    "token_answer": "All words preserved",
    "sentence_answer": "Identical meaning",
}


def test_one_step_trace(identical_pair, tmp_path):
    cache = FileCache(tmp_path / "cache")
    score = _score_one(EstimatorKind(name="gemba"), *identical_pair, cache)
    assert score.ordinal == 4
    assert len(score.steps) == 1
    step = score.steps[0]
    assert step.template_id == "gemba_classify"
    assert step.parsed_class == "Perfect translation"
    # the raw answer is the cache entry that the step's digest names
    assert step.digest == _digest("gemba_classify", **PAIR_TEXTS)
    entry = cache.cache_dir / step.digest[:2] / f"{step.digest}.json"
    assert json.loads(entry.read_text(encoding="utf-8"))["completion_text"] == (
        "Class: Perfect translation"
    )


def test_perplexity_binds_translation_only(identical_pair):
    score = _score_one(EstimatorKind(name="prompt1_perplexity"), *identical_pair)
    assert score.steps[0].digest == _digest("kpe_perplexity", target_seg=IDENTICAL)


def test_cot1_trace_structure(identical_pair):
    score = _score_one(EstimatorKind(name="cot1"), *identical_pair)
    assert score.ordinal == 4
    assert [s.template_id for s in score.steps] == [
        "kpe_perplexity",
        "kpe_token_sim",
        "kpe_cot1_combine",
    ]
    # the combiner receives the parsed class labels of the earlier steps
    bindings = dict(PAIR_TEXTS, perplexity_answer="Perfectly fluent",
                    token_answer="All words preserved")
    assert score.steps[-1].digest == _digest("kpe_cot1_combine", **bindings)
    template = builtin_templates().get("kpe_cot1_combine")
    assert "Perfectly fluent" in render_template(template, bindings).final_text


def test_cot2_trace_structure(identical_pair):
    score = _score_one(EstimatorKind(name="cot2"), *identical_pair)
    assert score.ordinal == 4
    assert len(score.steps) == 4
    assert score.steps[-1].digest == _digest("kpe_cot2_combine", **PAIR_TEXTS, **STEP_CLASSES)


def test_step_digests_rederivable(identical_pair):
    score = _score_one(EstimatorKind(name="cot2"), *identical_pair)
    assert [step.digest for step in score.steps] == [
        _digest("kpe_perplexity", target_seg=IDENTICAL),
        _digest("kpe_token_sim", **PAIR_TEXTS),
        _digest("kpe_sent_sim", **PAIR_TEXTS),
        _digest("kpe_cot2_combine", **PAIR_TEXTS, **STEP_CLASSES),
    ]


def test_one_pair_corrupt_cache_entry_is_asked_again(identical_pair, tmp_path):
    # one corrupt file in a one-item batch is not a corruption storm
    dataset, provider = identical_pair
    cache = FileCache(tmp_path / "cache")
    kind = EstimatorKind(name="gemba")
    first = _score_one(kind, dataset, provider, cache)
    assert first.ordinal == 4
    (path,) = cache.cache_dir.glob("*/*.json")
    path.write_text("garbage", encoding="utf-8")
    calls = provider.calls
    score = _score_one(kind, dataset, provider, cache)
    assert score.ordinal == 4
    assert provider.calls == calls + 1
    assert path.with_suffix(".json.corrupt").exists()


def test_empty_mt_rejected():
    dataset, fixtures = _pair_fixtures({"s1": "   "}, {"s1": IDENTICAL})
    provider = MockProvider(fixtures=fixtures)
    score = _score_one(EstimatorKind(name="gemba"), dataset, provider)
    assert score.ordinal is None
    assert score.error == "input: InputError: empty mt_text"
    assert provider.calls == 0


# parse-failure policies ----------------------------------------------------

class GarblingProvider:
    """Wraps the mock but answers chosen templates with unparseable text."""

    def __init__(self, inner, garbled_template_ids):
        self.inner = inner
        self.garbled = set(garbled_template_ids)
        self.calls = 0

    def complete(self, prompt, params):
        self.calls += 1
        if prompt.template_id in self.garbled:
            return "I would rather not say."
        return self.inner.complete(prompt, params)


def test_step_parse_failure_aborts_pair_by_default(identical_pair):
    dataset, mock = identical_pair
    provider = GarblingProvider(mock, {"kpe_perplexity"})
    score = _score_one(EstimatorKind(name="cot1"), dataset, provider)
    assert score.ordinal is None
    assert score.error.startswith("step1:kpe_perplexity: NoMatchError")


def test_step_parse_failure_substitutes_middle(identical_pair):
    dataset, mock = identical_pair
    provider = GarblingProvider(mock, {"kpe_perplexity"})
    score = _score_one(
        EstimatorKind(name="cot1"), dataset, provider, step_failure="substitute_middle"
    )
    first = score.steps[0]
    assert first.parsed_class == "Moderately fluent"
    assert "substituted middle class" in first.error
    # middle (2) and top (4) average to 3
    assert score.ordinal == 3


def test_final_parse_failure_never_substituted(identical_pair):
    dataset, mock = identical_pair
    provider = GarblingProvider(mock, {"kpe_cot1_combine"})
    score = _score_one(
        EstimatorKind(name="cot1"), dataset, provider, step_failure="substitute_middle"
    )
    assert score.ordinal is None
    assert score.error.startswith("combine:kpe_cot1_combine: NoMatchError")


# dataset scoring -----------------------------------------------------------

def test_score_dataset_marks_failures_without_aborting():
    dataset, fixtures = _pair_fixtures(
        {"s1": IDENTICAL, "s2": "different text entirely."},
        {"s1": IDENTICAL},  # s2 has no pseudo-reference
    )
    provider = MockProvider(fixtures=fixtures)
    table = score_estimators(
        [EstimatorKind(name="gemba")], dataset, provider, None, params=PARAMS
    )["gemba"]
    ok = table.get("de-en", "sysA", "s1")
    bad = table.get("de-en", "sysA", "s2")
    assert ok.ordinal == 4 and ok.error is None
    assert bad.ordinal is None
    assert "MissingFixtureError" in bad.error
    assert table.n_errored == 1 and table.n_parsed == 1


def test_score_dataset_empty_mt_skips_provider():
    segments = [Segment(lp="de-en", seg_id="s1", src_text="quelle")]
    outputs = [SystemOutput(lp="de-en", system_id="sysA", seg_id="s1", mt_text="")]
    dataset = EvalDataset.build(segments, outputs, [])
    fixtures = MockFixtures.from_dataset(dataset, {("de-en", "s1"): "ref"})
    provider = MockProvider(fixtures=fixtures)
    table = score_estimators(
        [EstimatorKind(name="gemba")], dataset, provider, None, params=PARAMS
    )["gemba"]
    score = table.get("de-en", "sysA", "s1")
    assert provider.calls == 0
    assert score.steps == ()
    assert "empty mt_text" in score.error


def test_blank_source_is_recorded_on_its_pair():
    # load_segments refuses a blank source, but a library caller can build one
    dataset, fixtures = _pair_fixtures(
        {"s1": IDENTICAL, "s2": "different text entirely."},
        {"s1": IDENTICAL, "s2": IDENTICAL},
    )
    blank = EvalDataset.build(
        [Segment(lp="de-en", seg_id="s1", src_text="   "), dataset.get_segment("de-en", "s2")],
        list(dataset.outputs), [],
    )
    kinds = [EstimatorKind(name="prompt1_perplexity"), EstimatorKind(name="prompt2_token")]
    provider = MockProvider(fixtures=fixtures)
    tables = score_estimators(kinds, blank, provider, None, params=PARAMS)
    assert provider.calls == 2  # one prompt per estimator, none for the blank pair
    full = score_estimators(kinds, dataset, MockProvider(fixtures=fixtures), None,
                            params=PARAMS)
    for kind in kinds:
        score = tables[kind.name].get("de-en", "sysA", "s1")
        assert score.ordinal is None and score.steps == ()
        assert score.error == "input: InputError: empty src_text"
        assert tables[kind.name].get("de-en", "sysA", "s2") == full[kind.name].get(
            "de-en", "sysA", "s2")


def test_score_dataset_is_score_estimators_of_one_kind(toy):
    # score_dataset stays only for the benchmark; it must score as kpe does
    for name in ESTIMATORS:
        kind = EstimatorKind(name=name)
        fork = kpe.chains.score_dataset(kind, toy.dataset, MockProvider(fixtures=toy.fixtures),
                                        None, params=PARAMS)
        table = score_estimators([kind], toy.dataset, MockProvider(fixtures=toy.fixtures),
                                 None, params=PARAMS)[name]
        assert fork.estimator == table.estimator
        assert fork.scores == table.scores


def test_chain_failure_skips_later_stages(identical_pair):
    dataset, _ = identical_pair
    mock = MockProvider(
        fixtures=MockFixtures.from_dataset(dataset, {("de-en", "s1"): IDENTICAL})
    )
    provider = GarblingProvider(mock, {"kpe_token_sim"})
    table = score_estimators(
        [EstimatorKind(name="cot1")], dataset, provider, None, params=PARAMS
    )["cot1"]
    score = table.get("de-en", "sysA", "s1")
    assert score.ordinal is None
    assert len(score.steps) == 2  # perplexity ok, token failed, no combine
    assert score.steps[1].error is not None


class StageOrderProvider:
    """Logs when each prompt is sent and when its answer comes back."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.events = []
        self.texts = []
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls += 1
            self.texts.append(prompt.final_text)
            self.events.append(("sent", prompt.template_id))
        text = self.inner.complete(prompt, params)
        with self._lock:
            self.events.append(("answered", prompt.template_id))
        return text


def test_chain_stages_are_synchronous():
    mts = {f"s{i}": f"translation number {i} with words." for i in range(6)}
    dataset, fixtures = _pair_fixtures(mts, {seg: mt for seg, mt in mts.items()})
    provider = StageOrderProvider(MockProvider(fixtures=fixtures))
    kinds = [EstimatorKind(name) for name in ("prompt1_perplexity", "cot1", "cot2")]
    tables = score_estimators(kinds, dataset, provider, None, params=PARAMS, max_in_flight=3)
    assert all(t.n_parsed == 6 for t in tables.values())
    combiners = {"kpe_cot1_combine", "kpe_cot2_combine"}
    first_combiner_sent = min(
        n for n, (event, tid) in enumerate(provider.events)
        if event == "sent" and tid in combiners
    )
    last_step_answered = max(
        n for n, (event, tid) in enumerate(provider.events)
        if event == "answered" and tid not in combiners
    )
    # no combiner prompt goes out before every step prompt has been answered
    assert last_step_answered < first_combiner_sent
    # 3 step prompts and 2 combiners per pair, each sent exactly once
    assert provider.calls == len(set(provider.texts)) == 6 * 5


def test_default_estimators_share_step_prompts(toy):
    provider = MockProvider(fixtures=toy.fixtures)
    names = ("prompt1_perplexity", "prompt2_token", "prompt3_sentence", "cot1", "cot2")
    tables = score_estimators(
        [EstimatorKind(name) for name in names], toy.dataset, provider, None, params=PARAMS
    )
    # 240 pairs x (3 step prompts + 2 combiners), with no cache to share through
    assert provider.calls == 1200
    assert all(tables[name].n_parsed == 240 for name in names)


DEFAULT_ESTIMATORS = ("prompt1_perplexity", "prompt2_token", "prompt3_sentence", "cot1", "cot2")


def _tiles(toy, n: int):
    """n copies of the toy corpus with fresh segment ids and texts, so no prompt repeats."""
    def seg(k, seg_id):
        return f"t{k}-{seg_id}"

    def text(k, value):
        return f"{value} ~{k}"

    segments = [Segment(s.lp, seg(k, s.seg_id), text(k, s.src_text))
                for k in range(n) for s in toy.dataset.segments]
    outputs = [SystemOutput(o.lp, o.system_id, seg(k, o.seg_id), text(k, o.mt_text))
               for k in range(n) for o in toy.dataset.outputs]
    dataset = EvalDataset.build(segments, outputs, [])

    def refs(mapping):
        return {(lp, seg(k, seg_id)): text(k, ref)
                for k in range(n) for (lp, seg_id), ref in mapping.items()}

    aspect_refs = {aspect: refs(m) for aspect, m in toy.fixtures.aspect_refs.items()}
    return dataset, MockFixtures.from_dataset(dataset, refs(toy.fixtures.refs), aspect_refs)


class _WeakPrompt(RenderedPrompt):
    """A rendered prompt a weak reference can follow: the subclass has no __slots__."""


class _LivePrompts:
    """Counts the plan's renders and the most rendered prompts alive at once."""

    def __init__(self, monkeypatch) -> None:
        self.renders = self.peak = 0
        self._live = weakref.WeakSet()
        self._lock = threading.Lock()
        monkeypatch.setattr(kpe.chains, "render_template", self.render)

    def render(self, template, bindings):
        p = render_template(template, bindings)
        prompt = _WeakPrompt(p.template_id, p.version, p.final_text, p.bindings)
        with self._lock:
            self.renders += 1
            self._live.add(prompt)
            self.peak = max(self.peak, len(self._live))
        return prompt


@pytest.mark.parametrize("tiles", [1, 4])
def test_a_stage_holds_few_rendered_prompts(toy, tmp_path, monkeypatch, tiles):
    # a prompt is rendered when run_batch reads it and dropped after its
    # lookup, or after its send and cache write, so the number alive at once
    # does not grow with the stage (720 step prompts per tile)
    dataset, fixtures = _tiles(toy, tiles)
    kinds = [EstimatorKind(name) for name in DEFAULT_ESTIMATORS]
    provider, cache = MockProvider(fixtures=fixtures), FileCache(tmp_path / "cache")
    cold = _LivePrompts(monkeypatch)
    tables = score_estimators(kinds, dataset, provider, cache, params=PARAMS, max_in_flight=2)
    assert all(table.n_parsed == 240 * tiles for table in tables.values())
    # every item is read once and every miss once more; no prompt repeats
    assert provider.calls == 1200 * tiles
    assert cold.renders == 2 * provider.calls
    assert cold.peak < 10
    warm = _LivePrompts(monkeypatch)
    score_estimators(kinds, dataset, provider, cache, params=PARAMS, max_in_flight=2)
    assert provider.calls == 1200 * tiles
    assert warm.renders == 1200 * tiles
    # the item being looked up, and the one before it until the loop rebinds
    assert warm.peak <= 2


def test_a_parsed_answer_has_one_step_record(toy):
    # every estimator that asked a prompt appends the same record of its answer
    names = ("prompt1_perplexity", "prompt2_token", "cot1", "cot2")
    tables = score_estimators([EstimatorKind(name) for name in names], toy.dataset,
                              MockProvider(fixtures=toy.fixtures), None, params=PARAMS)
    for key, p1 in tables["prompt1_perplexity"].scores.items():
        (step1,), (step2,) = p1.steps, tables["prompt2_token"].scores[key].steps
        for chain in ("cot1", "cot2"):
            steps = tables[chain].scores[key].steps
            assert all(record.error is None for record in steps)
            assert steps[0] is step1 and steps[1] is step2


def test_single_pair_records_the_provider_error(identical_pair):
    dataset, mock = identical_pair
    error = TransportError("connection refused")

    class Refusing:
        def complete(self, prompt, params):
            if prompt.template_id == "kpe_token_sim":
                raise error
            return mock.complete(prompt, params)

    score = _score_one(EstimatorKind(name="cot2"), dataset, Refusing())
    assert score.ordinal is None
    assert score.error == "step2:kpe_token_sim: TransportError: connection refused"


def test_chain_reuses_cached_step_responses(tmp_path, identical_pair):
    dataset, provider = identical_pair
    cache = FileCache(tmp_path / "cache")
    score_estimators(
        [EstimatorKind(name="prompt1_perplexity")], dataset, provider, cache, params=PARAMS
    )
    calls_before = provider.calls
    table = score_estimators(
        [EstimatorKind(name="cot1")], dataset, provider, cache, params=PARAMS
    )["cot1"]
    # the chain's first step is the same prompt the one-step run already cached
    assert provider.calls == calls_before + 2  # token_sim + combine only
    assert table.get("de-en", "sysA", "s1").ordinal == 4


# persistence ----------------------------------------------------------------

def test_score_file_round_trip(tmp_path, identical_pair):
    dataset, provider = identical_pair
    table = score_estimators(
        [EstimatorKind(name="cot1")], dataset, provider, None, params=PARAMS
    )["cot1"]
    path = tmp_path / "scores_cot1.jsonl"
    table.write_jsonl(path)
    loaded = load_score_file(path)
    assert loaded.estimator == table.estimator
    assert loaded.total == table.total
    original = table.get("de-en", "sysA", "s1")
    reloaded = loaded.get("de-en", "sysA", "s1")
    assert reloaded.ordinal == original.ordinal
    assert [s.digest for s in reloaded.steps] == [s.digest for s in original.steps]
    assert [s.parsed for s in reloaded.steps] == [
        s.parsed for s in original.steps
    ]


def test_records_round_trip_through_pickle_and_copy(identical_pair):
    # the records are slotted frozen dataclasses: no __dict__, same equality and repr
    import copy
    import dataclasses
    import pickle

    from kpe.backend import CompletionResult

    dataset, provider = identical_pair
    score = _score_one(EstimatorKind(name="cot1"), dataset, provider)
    template = builtin_templates().get("kpe_perplexity")
    prompt = render_template(template, {"target_seg": IDENTICAL})
    result = CompletionResult("Class: Perfect translation", False, 3, "ab" * 32)
    for record in (score, score.steps[0], prompt, result):
        assert not hasattr(record, "__dict__")
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                      copy.deepcopy(record)):
            assert clone == record and repr(clone) == repr(record)
            assert hash(clone) == hash(record)
    assert dataclasses.replace(result, from_cache=True).from_cache
    with pytest.raises(dataclasses.FrozenInstanceError):
        score.ordinal = 0


def test_each_answer_fact_has_one_field():
    # A step record persists the fields _FIELDS lists and keeps two more in
    # memory; the prompt and the answer live in the cache entry its digest
    # names, and a failure's error name and message in its exception. A field
    # added to either class must be added here on purpose.
    import dataclasses

    from kpe.backend import CompletionFailure
    from kpe.chains import _FIELDS

    step_fields = {f.name for f in dataclasses.fields(StepRecord)}
    assert step_fields - set(_FIELDS[StepRecord]) == {"parsed_class", "error"}
    assert {f.name for f in dataclasses.fields(CompletionFailure)} == {
        "request_digest", "exception"}


def test_score_file_rejects_mixed_estimators(tmp_path):
    path = tmp_path / "scores.jsonl"
    row1 = (
        '{"lp": "de-en", "system_id": "a", "seg_id": "s", "estimator": "gemba",'
        ' "mode": "cat5", "ordinal": 4, "error": null, "steps": [{"digest": "aa",'
        ' "parsed": 4, "template_id": "gemba_classify", "version": 1}]}'
    )
    row2 = row1.replace('"gemba"', '"cot1"')
    path.write_text(row1 + "\n" + row2 + "\n", encoding="utf-8")
    with pytest.raises(InputError, match="mixed"):
        load_score_file(path)


# Two records as the previous release wrote them: a scored pair, and a pair
# whose second step failed to parse (its step keeps a null "parsed").
EARLIER_SCORE_FILE = (
    '{"error": null, "estimator": "cot1", "lp": "de-en", "mode": "cat5", "ordinal": 4, '
    '"seg_id": "seg00", "steps": [{"digest": "aa", "parsed": 3, "template_id": '
    '"kpe_perplexity", "version": 1}, {"digest": "bb", "parsed": 4, "template_id": '
    '"kpe_token_sim", "version": 1}, {"digest": "cc", "parsed": 4, "template_id": '
    '"kpe_cot1_combine", "version": 1}], "system_id": "sysA"}\n'
    '{"error": "step2:kpe_token_sim: NoMatchError: no class label", "estimator": "cot1", '
    '"lp": "de-en", "mode": "cat5", "ordinal": null, "seg_id": "seg01", "steps": '
    '[{"digest": "dd", "parsed": 2, "template_id": "kpe_perplexity", "version": 1}, '
    '{"digest": "ee", "parsed": null, "template_id": "kpe_token_sim", "version": 1}], '
    '"system_id": "sysB"}\n'
)


def test_score_file_written_earlier_loads_as_before(tmp_path):
    path = tmp_path / "scores_cot1.jsonl"
    path.write_text(EARLIER_SCORE_FILE, encoding="utf-8")
    table = load_score_file(path)
    assert table.estimator == EstimatorKind("cot1", "cat5")
    assert table.scores == {
        ("de-en", "sysA", "seg00"): QualityScore(
            "de-en", "sysA", "seg00", "cot1", "cat5", 4, None, (
                StepRecord("kpe_perplexity", 1, "aa", parsed=3),
                StepRecord("kpe_token_sim", 1, "bb", parsed=4),
                StepRecord("kpe_cot1_combine", 1, "cc", parsed=4),
            ),
        ),
        ("de-en", "sysB", "seg01"): QualityScore(
            "de-en", "sysB", "seg01", "cot1", "cat5", None,
            "step2:kpe_token_sim: NoMatchError: no class label", (
                StepRecord("kpe_perplexity", 1, "dd", parsed=2),
                StepRecord("kpe_token_sim", 1, "ee", parsed=None),
            ),
        ),
    }
    # and it is written back byte for byte
    table.write_jsonl(tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_text(encoding="utf-8") == EARLIER_SCORE_FILE


@pytest.mark.parametrize("mode, ordinal", [
    ("cat5", "7"), ("cat5", "NaN"), ("cat5", "2.0"), ("cat5", "-1"), ("cat3", "3"),
    ("stars", "4.5"), ("stars", "0"), ("stars", "6"),
    ("scalar", "100.5"), ("scalar", "NaN"), ("scalar", "-Infinity"),
])
def test_score_file_rejects_an_ordinal_no_parser_returns(tmp_path, mode, ordinal):
    # the first line holds the top answer of the mode, the second one outside
    # it; each has its one step, which answers as the record does
    top = {"cat5": "4", "cat3": "2", "stars": "5", "scalar": "100.0"}[mode]
    line = ('{"error": null, "estimator": "gemba", "lp": "de-en", "mode": "%s", '
            '"ordinal": %s, "seg_id": "%s", "steps": [{"digest": "aa", "parsed": %s, '
            '"template_id": "%s", "version": 1}], "system_id": "sysA"}\n')
    template_id = EstimatorKind("gemba", mode).template_id
    path = tmp_path / "scores_gemba.jsonl"
    path.write_text(line % (mode, top, "s1", top, template_id)
                    + line % (mode, ordinal, "s2", ordinal, template_id), encoding="utf-8")
    with pytest.raises(FormatError, match="not a .* answer") as err:
        load_score_file(path)
    assert (err.value.path, err.value.line_no) == (str(path), 2)
    path.write_text(line % (mode, top, "s1", top, template_id), encoding="utf-8")
    assert load_score_file(path).get("de-en", "sysA", "s1").ordinal == json.loads(top)


@pytest.mark.parametrize("field, value, message", [
    ("ordinal", None, "neither an ordinal nor an error"),
    ("error", "combine:kpe_cot1_combine: NoMatchError: no class label",
     "both an ordinal and an error"),
    ("template_id", "kpe_cot1_combine_cat5", "no built-in template"),
    ("parsed", 99, "not a kpe_cot1_combine answer"),
    ("parsed", 2.0, "not a kpe_cot1_combine answer"),
])
def test_score_file_rejects_a_record_no_run_writes(tmp_path, field, value, message):
    # a score is either scored or failed, and each step names a built-in
    # template and holds no answer or one that template's parser returns
    scored = EARLIER_SCORE_FILE.splitlines()[0]
    record = json.loads(scored)
    target = record["steps"][2] if field in ("template_id", "parsed") else record
    target[field] = value
    path = tmp_path / "scores_cot1.jsonl"
    path.write_text(f"{scored}\n{json.dumps(record)}\n", encoding="utf-8")
    with pytest.raises(FormatError, match=message) as err:
        load_score_file(path)
    assert (err.value.path, err.value.line_no) == (str(path), 2)


def _step(template_id: str, parsed: int) -> dict:
    return {"digest": "aa", "parsed": parsed, "template_id": template_id, "version": 1}


@pytest.mark.parametrize("estimator, ordinal, steps", [
    ("cot1", 4, [_step("gemba_stars", 4)]),
    ("cot1", 4, []),
    ("prompt1_perplexity", 4, [_step("kpe_token_sim", 4)]),
    ("gemba", 4, []),
    ("cot2", 4, [_step("kpe_perplexity", 4), _step("kpe_token_sim", 4),
                 _step("kpe_sent_sim", 4)]),
    ("gemba", None, [_step("gemba_classify", 4), _step("gemba_classify", 4)]),
], ids=["chain-with-another-estimators-step", "scored-chain-without-steps",
        "one-step-with-another-template", "scored-one-step-without-its-step",
        "scored-chain-without-its-combiner", "failed-with-a-step-too-many"])
def test_score_file_rejects_steps_no_run_writes(tmp_path, estimator, ordinal, steps):
    # a record's steps are a prefix of its estimator's step templates in its
    # mode, then for a chain its combiner; a scored record holds all of them
    error = None if ordinal is not None else "step2:gemba_classify: NoMatchError: no class label"
    record = {"error": error, "estimator": estimator, "lp": "de-en", "mode": "cat5",
              "ordinal": ordinal, "seg_id": "seg00", "steps": steps, "system_id": "sysA"}
    path = tmp_path / f"scores_{estimator}.jsonl"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(FormatError, match="steps") as err:
        load_score_file(path)
    assert (err.value.path, err.value.line_no) == (str(path), 1)


def test_score_file_rejects_empty(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="empty"):
        load_score_file(path)


def test_unknown_step_failure_policy(identical_pair):
    dataset, provider = identical_pair
    with pytest.raises(InputError):
        score_estimators(
            [EstimatorKind(name="gemba")], dataset, provider, None,
            params=PARAMS, step_failure="wing_it",
        )
