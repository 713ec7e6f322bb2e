"""Score the toy corpus in memory with every estimator.

The mock provider grades a translation by character-trigram overlap with
a per-segment pseudo-reference, so the whole pipeline runs offline and
deterministically. All estimators are scored together: the step prompts
the chains share with the one-step estimators are sent once. Each chain
score keeps the full step trace.
"""
from kpe import EstimatorKind, MockProvider, generate_toy_corpus, score_estimators
from kpe.backend import GenParams

toy = generate_toy_corpus()
provider = MockProvider(fixtures=toy.fixtures)
params = GenParams(model_id="mock-1")

names = ("gemba", "prompt1_perplexity", "prompt2_token", "cot1", "cot2")
tables = score_estimators(
    [EstimatorKind(name=name) for name in names], toy.dataset, provider, None, params=params
)
for name, table in tables.items():
    ordinals = [s.ordinal for s in table.scores.values() if s.ordinal is not None]
    mean = sum(ordinals) / len(ordinals)
    print(
        f"{name:20s} {table.n_parsed}/{table.total} parsed, "
        f"mean ordinal {mean:.2f}"
    )
print(f"{provider.calls} provider calls for {sum(t.total for t in tables.values())} scores")

print("\ntrace of one cot1 score:")
score = next(iter(tables["cot1"].scores.values()))
print(f"  {score.lp} / {score.system_id} / {score.seg_id} -> ordinal {score.ordinal}")
for step in score.steps:
    print(f"    {step.template_id:22s} -> {step.parsed_class!r}")
