"""Prompt-based machine translation quality estimation.

Scores system outputs with one-step quality prompts or multi-step chains,
correlates the results against human relative-ranking judgments with
segment-level Kendall tau and system-level pairwise accuracy, and renders
token-alignment heatmaps. Ships a deterministic mock provider so the whole
pipeline runs offline.

Each public name is imported from its module on first use, so `import kpe`
loads none of them and `kpe.cli` loads only what its commands import.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "alignment": "AlignmentMatrix align_pairs greedy_alignment render_heatmap tokenize",
    "backend": "CompletionFailure CompletionResult FileCache GenParams HttpProvider "
               "MockFixtures MockProvider cache_key overlap_bucket request_digest run_batch "
               "trigram_overlap",
    "chains": "ESTIMATOR_NAMES SCORING_MODES EstimatorKind QualityScore ScoreTable "
              "StepRecord load_score_file score_estimators",
    "corpus": "EvalDataset RRJudgment Segment SystemOutput dataset_stats load_dataset "
              "load_rr_judgments load_segments load_system_outputs save_dataset",
    "errors": "KpeError",
    "metrics": "DistributionStats KendallSummary kendall_tau_rr pairwise_accuracy "
               "score_distribution system_score",
    "parsing": "category_to_ordinal parse_categorical parse_scalar parse_stars",
    "prompting": "PromptTemplate RenderedPrompt ResponseSchema TemplateRegistry "
                 "builtin_templates render_template",
    "toydata": "ToyCorpus generate_toy_corpus write_toy_corpus",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
