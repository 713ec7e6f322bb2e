from __future__ import annotations

import threading

import pytest

from kpe.backend import FileCache, GenParams, MockFixtures, MockProvider, request_digest
from kpe.chains import (
    EstimatorKind,
    load_score_file,
    score_dataset,
    score_estimators,
)
from kpe.corpus import EvalDataset, Segment, SystemOutput
from kpe.errors import InputError, TransportError
from kpe.prompting import ESTIMATORS, builtin_templates, render_template

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

def test_one_step_trace(identical_pair):
    score = _score_one(EstimatorKind(name="gemba"), *identical_pair)
    assert score.ordinal == 4
    assert len(score.steps) == 1
    step = score.steps[0]
    assert step.template_id == "gemba_classify"
    assert step.parsed_class == "Perfect translation"
    assert step.response_text == "Class: Perfect translation"


def test_perplexity_binds_translation_only(identical_pair):
    score = _score_one(EstimatorKind(name="prompt1_perplexity"), *identical_pair)
    assert set(score.steps[0].bindings) == {"target_seg"}


def test_cot1_trace_structure(identical_pair):
    score = _score_one(EstimatorKind(name="cot1"), *identical_pair)
    assert score.ordinal == 4
    assert [s.template_id for s in score.steps] == [
        "kpe_perplexity",
        "kpe_token_sim",
        "kpe_cot1_combine",
    ]
    combine = score.steps[-1]
    # the combiner receives the parsed class labels of the earlier steps
    assert combine.bindings["perplexity_answer"] == "Perfectly fluent"
    assert combine.bindings["token_answer"] == "All words preserved"
    assert "Perfectly fluent" in _rerender(combine).final_text


def test_cot2_trace_structure(identical_pair):
    score = _score_one(EstimatorKind(name="cot2"), *identical_pair)
    assert score.ordinal == 4
    assert len(score.steps) == 4
    assert score.steps[-1].bindings["sentence_answer"] == "Identical meaning"


def _rerender(step):
    template = builtin_templates().get(step.template_id)
    return render_template(template, step.bindings)


def test_step_digests_rederivable(identical_pair):
    score = _score_one(EstimatorKind(name="cot2"), *identical_pair)
    for step in score.steps:
        assert request_digest(_rerender(step), PARAMS) == step.digest


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
        self.provider_id = "garbling"
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
    table = score_dataset(
        EstimatorKind(name="gemba"), dataset, provider, None, params=PARAMS
    )
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
    table = score_dataset(
        EstimatorKind(name="gemba"), dataset, provider, None, params=PARAMS
    )
    score = table.get("de-en", "sysA", "s1")
    assert provider.calls == 0
    assert score.steps == ()
    assert "empty mt_text" in score.error


def test_chain_failure_skips_later_stages(identical_pair):
    dataset, _ = identical_pair
    mock = MockProvider(
        fixtures=MockFixtures.from_dataset(dataset, {("de-en", "s1"): IDENTICAL})
    )
    provider = GarblingProvider(mock, {"kpe_token_sim"})
    table = score_dataset(
        EstimatorKind(name="cot1"), dataset, provider, None, params=PARAMS
    )
    score = table.get("de-en", "sysA", "s1")
    assert score.ordinal is None
    assert len(score.steps) == 2  # perplexity ok, token failed, no combine
    assert score.steps[1].error is not None


class StageOrderProvider:
    """Logs when each prompt is sent and when its answer comes back."""

    def __init__(self, inner):
        self.inner = inner
        self.provider_id = "ordered"
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


def test_single_pair_records_the_provider_error(identical_pair):
    dataset, mock = identical_pair
    error = TransportError("connection refused")

    class Refusing:
        provider_id = "refusing"

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
    score_dataset(
        EstimatorKind(name="prompt1_perplexity"), dataset, provider, cache, params=PARAMS
    )
    calls_before = provider.calls
    table = score_dataset(
        EstimatorKind(name="cot1"), dataset, provider, cache, params=PARAMS
    )
    # the chain's first step is the same prompt the one-step run already cached
    assert provider.calls == calls_before + 2  # token_sim + combine only
    assert table.get("de-en", "sysA", "s1").ordinal == 4


# persistence ----------------------------------------------------------------

def test_score_file_round_trip(tmp_path, identical_pair):
    dataset, provider = identical_pair
    table = score_dataset(
        EstimatorKind(name="cot1"), dataset, provider, None, params=PARAMS
    )
    path = tmp_path / "scores_cot1.jsonl"
    table.write_jsonl(path)
    loaded = load_score_file(path)
    assert loaded.estimator == table.estimator
    assert loaded.total == table.total
    original = table.get("de-en", "sysA", "s1")
    reloaded = loaded.get("de-en", "sysA", "s1")
    assert reloaded.ordinal == original.ordinal
    assert [s.digest for s in reloaded.steps] == [s.digest for s in original.steps]
    assert [s.parsed_ordinal for s in reloaded.steps] == [
        s.parsed_ordinal for s in original.steps
    ]


def test_score_file_rejects_mixed_estimators(tmp_path):
    path = tmp_path / "scores.jsonl"
    row1 = (
        '{"lp": "de-en", "system_id": "a", "seg_id": "s", "estimator": "gemba",'
        ' "mode": "cat5", "ordinal": 4, "error": null, "steps": []}'
    )
    row2 = row1.replace('"gemba"', '"cot1"')
    path.write_text(row1 + "\n" + row2 + "\n", encoding="utf-8")
    with pytest.raises(InputError, match="mixed"):
        load_score_file(path)


def test_score_file_rejects_empty(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(InputError, match="empty"):
        load_score_file(path)


def test_unknown_step_failure_policy(identical_pair):
    dataset, provider = identical_pair
    with pytest.raises(InputError):
        score_dataset(
            EstimatorKind(name="gemba"), dataset, provider, None,
            params=PARAMS, step_failure="wing_it",
        )
