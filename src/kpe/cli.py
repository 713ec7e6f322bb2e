"""Command-line surface: score, report, align, templates, cache gc.

Run settings come from an optional JSON file (--config) and from flags,
and a flag beats the file. Each setting is one RunConfig field: its name
is the config key and the flag's destination, and it declares the
setting's default, JSON type and allowed values, against which
build_run_config checks every value. The provider API key is read from
the KPE_API_KEY environment variable only, never from config or flags.

`kpe templates --json` prints a JSON list with one object per builtin
template: template_id, version, placeholders (sorted), and schema, an
object of kind, classes (null unless categorical), lo and hi.

Exit codes: 0 success; 1 config or IO errors, or provider unreachable
(nothing scored or aligned, and a provider error among the failures);
2 finished but the scoring error rate exceeded the threshold, or some
segment failed to align.
"""

from __future__ import annotations

import csv
import json
import os
import re
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn, get_args, get_type_hints

import click

from . import __version__
from .backend import FileCache, GenParams, HttpProvider, MockFixtures, MockProvider
# perfbench/tracing.py wraps _build_provider, score_dataset, the corpus loaders,
# load_score_file and kendall_tau_rr as attributes of this module: keep them here.
from .chains import (
    ESTIMATOR_NAMES,
    SCORING_MODES,
    STEP_FAILURES,
    EstimatorKind,
    ScoreTable,
    load_score_file,
    score_dataset,  # noqa: F401  (unused here; see above)
    score_estimators,
)
from .corpus import (
    FORMATS,
    EvalDataset,
    load_rr_judgments,
    load_segments,
    load_system_outputs,
)
from .errors import ConfigError, InsufficientSystemsError, KpeError
from .metrics import (
    DROP_POLICIES,
    kendall_tau_rr,
    pairwise_accuracy,
    score_distribution,
    system_score,
)
from .prompting import builtin_templates

PROVIDERS = ("http", "mock")

# A run that produced nothing and failed with one of these errors exits 1.
_PROVIDER_UNREACHABLE = ("TransportError", "AuthError", "RateLimitError")


@dataclass
class RunConfig:
    """Settings of a scoring or alignment run, one field per setting.

    A field's name is its config-file key and the destination of its flag.
    Its annotation is the JSON type a config value must have (a float
    field also takes an integer), and a ``choices`` entry in its metadata
    is the tuple of allowed values that the flag's click.Choice shares.
    """

    segments: str = ""
    outputs: str = ""
    judgments: str | None = None
    format: str = field(default="tsv", metadata={"choices": FORMATS})
    provider: str = field(default="mock", metadata={"choices": PROVIDERS})
    mock_fixtures: str | None = None
    endpoint_url: str | None = None
    model_id: str | None = None
    out: str = "kpe_out"
    cache_dir: str | None = None
    max_in_flight: int = 4
    scoring_mode: str = field(default="cat5", metadata={"choices": SCORING_MODES})
    # a list or a comma-separated string in a config file
    estimators: tuple[str, ...] = (
        "prompt1_perplexity", "prompt2_token", "prompt3_sentence", "cot1", "cot2"
    )
    step_failure: str = field(default="abort_pair", metadata={"choices": STEP_FAILURES})
    error_rate_threshold: float = 0.01
    temperature: float = 0.0
    max_tokens: int = 256

    def validate(self) -> None:
        """Check the rules that tie settings together or reach the file system."""
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.provider == "http" and not self.endpoint_url:
            raise ConfigError("http provider needs endpoint_url")
        if self.provider == "http":
            from urllib.parse import urlsplit

            url = urlsplit(self.endpoint_url)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ConfigError(
                    f"endpoint_url must be an http(s) URL with a host, got {self.endpoint_url!r}"
                )
            try:
                url.port
            except ValueError as exc:  # a port that is not a number in 0..65535
                raise ConfigError(f"endpoint_url {self.endpoint_url!r}: {exc}") from exc
        if self.provider == "http" and not self.model_id:
            raise ConfigError("http provider needs model_id")
        if self.provider == "mock" and not self.mock_fixtures:
            raise ConfigError("mock provider needs mock_fixtures")
        paths = [("segments", self.segments), ("outputs", self.outputs)]
        if self.judgments is not None:
            paths.append(("judgments", self.judgments))
        if self.mock_fixtures is not None and self.provider == "mock":
            paths.append(("mock_fixtures", self.mock_fixtures))
        for name, path in paths:
            if not path:
                raise ConfigError(f"missing required path: {name}")
            if not Path(path).exists():
                raise ConfigError(f"{name} file does not exist: {path}")

    def effective_cache_dir(self) -> str:
        if self.cache_dir:
            return self.cache_dir
        return str(Path(self.out) / "cache")

    def gen_params(self) -> GenParams:
        return GenParams(
            model_id=self.model_id or "mock-1",
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )


_SETTINGS = {f.name: f for f in fields(RunConfig)}
_SETTING_TYPES = get_type_hints(RunConfig)
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", type(None): "null"}


def _parse_estimators(value) -> tuple[str, ...]:
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    elif isinstance(value, (list, tuple)):
        names = [str(part).strip() for part in value]
    else:
        raise ConfigError(f"estimators must be a list or comma string, got {value!r}")
    if not names:
        raise ConfigError("estimators list is empty")
    for name in names:
        if name not in ESTIMATOR_NAMES:
            raise ConfigError(
                f"unknown estimator {name!r}; known: {', '.join(ESTIMATOR_NAMES)}"
            )
    return tuple(names)


def _check_setting(key: str, value):
    """Return value as the type of RunConfig field key, or raise ConfigError naming it."""
    if key == "estimators":
        return _parse_estimators(value)
    types = get_args(_SETTING_TYPES[key]) or (_SETTING_TYPES[key],)
    accepted = types + (int,) if float in types else types
    if isinstance(value, bool) or not isinstance(value, accepted):
        expected = " or ".join(_TYPE_NAMES[t] for t in types)
        got = json.dumps(value, default=repr)  # as the config file spells it
        raise ConfigError(f"config key {key!r} must be {expected}, got {got}")
    choices = _SETTINGS[key].metadata.get("choices")
    if choices is not None and value not in choices:
        raise ConfigError(f"unknown {key} {value!r}; choose from {', '.join(choices)}")
    return float(value) if float in types else value


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    for key in obj:
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
    return obj


def build_run_config(config_path: str | None, overrides: dict) -> RunConfig:
    """Merge file values and flag overrides (flags win) into a checked RunConfig."""
    merged = _load_config_file(config_path)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return RunConfig(**{key: _check_setting(key, value) for key, value in merged.items()})


def _load_dataset_from(cfg: RunConfig) -> EvalDataset:
    segments = load_segments(cfg.segments, cfg.format)
    outputs = load_system_outputs(cfg.outputs, cfg.format)
    judgments = load_rr_judgments(cfg.judgments, cfg.format) if cfg.judgments else []
    return EvalDataset.build(segments, outputs, judgments)


def _build_provider(cfg: RunConfig, dataset: EvalDataset):
    if cfg.provider == "mock":
        fixtures = MockFixtures.from_json_file(cfg.mock_fixtures, dataset)
        return MockProvider(fixtures=fixtures)
    api_key = os.environ.get("KPE_API_KEY")
    return HttpProvider(endpoint_url=cfg.endpoint_url, api_key=api_key)


def _fail(message: str, code: int = 1) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@click.group()
@click.version_option(version=__version__, prog_name="kpe")
def main() -> None:
    """Prompt-based machine translation quality estimation harness."""


# templates -------------------------------------------------------------------

@main.command()
@click.option("--json", "as_json", is_flag=True, help="Machine-readable listing.")
def templates(as_json: bool) -> None:
    """List the builtin prompt templates."""
    registry = builtin_templates()
    rows = []
    for template_id in registry.ids():
        t = registry.get(template_id)
        rows.append(t)
    if as_json:
        objs = []
        for t in rows:
            schema = {
                "kind": t.schema.kind,
                "classes": list(t.schema.classes) if t.schema.classes else None,
                "lo": t.schema.lo,
                "hi": t.schema.hi,
            }
            objs.append(
                {
                    "template_id": t.template_id,
                    "version": t.version,
                    "schema": schema,
                    "placeholders": sorted(t.placeholders),
                }
            )
        click.echo(json.dumps(objs, ensure_ascii=False, indent=2, sort_keys=True))
        return
    for t in rows:
        if t.schema.kind == "categorical":
            shape = f"categorical({len(t.schema.classes)})"
        else:
            shape = f"{t.schema.kind}[{t.schema.lo:g},{t.schema.hi:g}]"
        placeholders = ",".join(sorted(t.placeholders))
        click.echo(f"{t.template_id} v{t.version} {shape} placeholders: {placeholders}")


# score -----------------------------------------------------------------------

def _score_options(fn):
    fn = click.option("--config", "config_path", type=str, default=None,
                      help="JSON config file; flags override its keys.")(fn)
    fn = click.option("--segments", type=str, default=None)(fn)
    fn = click.option("--outputs", type=str, default=None)(fn)
    fn = click.option("--judgments", type=str, default=None)(fn)
    fn = click.option("--format", type=click.Choice(FORMATS), default=None)(fn)
    fn = click.option("--provider", type=click.Choice(PROVIDERS), default=None)(fn)
    fn = click.option("--mock-fixtures", type=str, default=None)(fn)
    fn = click.option("--endpoint-url", type=str, default=None)(fn)
    fn = click.option("--model-id", type=str, default=None)(fn)
    fn = click.option("--out", type=str, default=None)(fn)
    fn = click.option("--cache-dir", type=str, default=None)(fn)
    fn = click.option("--max-in-flight", type=int, default=None)(fn)
    fn = click.option("--temperature", type=float, default=None)(fn)
    fn = click.option("--max-tokens", type=int, default=None)(fn)
    return fn


@main.command()
@_score_options
@click.option("--estimators", type=str, default=None,
              help="Comma-separated estimator names.")
@click.option("--mode", "scoring_mode", type=click.Choice(SCORING_MODES), default=None)
@click.option("--step-failure", type=click.Choice(STEP_FAILURES), default=None)
@click.option("--error-rate-threshold", type=float, default=None)
def score(config_path, **flags) -> None:
    """Score every system output with the configured estimators."""
    try:
        cfg = build_run_config(config_path, flags)
        cfg.validate()
        dataset = _load_dataset_from(cfg)
        provider = _build_provider(cfg, dataset)
    except (KpeError, OSError, ValueError) as exc:
        _fail(str(exc))

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = FileCache(cfg.effective_cache_dir())
    params = cfg.gen_params()

    try:
        kinds = [EstimatorKind(name, cfg.scoring_mode) for name in cfg.estimators]
        click.echo(f"scoring {', '.join(cfg.estimators)} ({cfg.scoring_mode})...", err=True)
        tables = score_estimators(
            kinds,
            dataset,
            provider,
            cache,
            params=params,
            max_in_flight=cfg.max_in_flight,
            step_failure=cfg.step_failure,
        )
        for name, table in tables.items():
            path = out_dir / f"scores_{name}.jsonl"
            table.write_jsonl(path)
            click.echo(
                f"  {name}: {table.total} pairs, {table.n_parsed} parsed, "
                f"{table.n_errored} errors -> {path}",
                err=True,
            )
    except (KpeError, OSError) as exc:
        _fail(str(exc))
    total = sum(t.total for t in tables.values())
    errored = sum(t.n_errored for t in tables.values())

    summary = {
        "provider": cfg.provider,
        "model_id": params.model_id,
        "scoring_mode": cfg.scoring_mode,
        "provider_calls": provider.calls,
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "writes": cache.writes,
            "corruptions": cache.corruptions,
        },
        "estimators": {
            name: {
                "total": t.total,
                "parsed": t.n_parsed,
                "errored": t.n_errored,
                "file": f"scores_{name}.jsonl",
            }
            for name, t in tables.items()
        },
        "template_versions": _template_versions(tables.values()),
    }
    with open(out_dir / "run_summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")

    if total and not any(t.n_parsed for t in tables.values()):
        notes = [s.error or "" for t in tables.values() for s in t.scores.values()]
        if any(f": {kind}: " in note for note in notes for kind in _PROVIDER_UNREACHABLE):
            _fail("provider unreachable: no pair scored; see score files for details")
    rate = (errored / total) if total else 0.0
    if rate > cfg.error_rate_threshold:
        click.echo(
            f"error rate {rate:.1%} exceeds threshold "
            f"{cfg.error_rate_threshold:.1%}",
            err=True,
        )
        sys.exit(2)


def _template_versions(tables) -> dict[str, int]:
    versions: dict[str, int] = {}
    for table in tables:
        for score_obj in table.scores.values():
            for step in score_obj.steps:
                versions[step.template_id] = step.version
    return dict(sorted(versions.items()))


# report ----------------------------------------------------------------------

def _fmt_tau(tau: float | None) -> str:
    return "—" if tau is None else f"{tau * 100:.1f}%"


@dataclass
class _ReportData:
    tables: list[ScoreTable]
    lps: list[str]
    kendall: dict[str, dict]
    averages: dict[str, float | None]
    warnings: list[str] = field(default_factory=list)


def _collect_report(tables: list[ScoreTable], judgments, drop_policy: str) -> _ReportData:
    lps = sorted({j.lp for j in judgments})
    kendall: dict[str, dict] = {}
    averages: dict[str, float | None] = {}
    warnings: list[str] = []
    for table in tables:
        name = table.estimator.name
        summaries = kendall_tau_rr(table, judgments, drop_policy=drop_policy)
        kendall[name] = summaries
        taus = []
        for lp in lps:
            summary = summaries.get(lp)
            tau = summary.tau if summary is not None else None
            if tau is None:
                warnings.append(f"{name}: no usable judgments for {lp}")
            else:
                taus.append(tau)
        averages[name] = sum(taus) / len(taus) if taus else None
    return _ReportData(
        tables=tables, lps=lps, kendall=kendall, averages=averages, warnings=warnings
    )


def _report_markdown(data: _ReportData, meta: dict, human_rows: list[tuple]) -> str:
    lines: list[str] = []
    lines.append("# Translation quality estimation report")
    lines.append("")
    lines.append(f"- model: {meta['model_id']}")
    versions = ", ".join(f"{tid} v{v}" for tid, v in meta["template_versions"].items())
    lines.append(f"- templates: {versions if versions else '(none recorded)'}")
    lines.append(f"- generated: {meta['timestamp']}")
    lines.append("")
    lines.append("## Segment-level Kendall tau")
    lines.append("")
    header = ["estimator"] + data.lps + ["avg"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for table in data.tables:
        name = table.estimator.name
        cells = [name]
        for lp in data.lps:
            summary = data.kendall[name].get(lp)
            cells.append(_fmt_tau(summary.tau if summary else None))
        cells.append(_fmt_tau(data.averages[name]))
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    lines.append("## Judgment usage")
    lines.append("")
    lines.append("| estimator | lp | concordant | discordant | excluded |")
    lines.append("|---|---|---|---|---|")
    for table in data.tables:
        name = table.estimator.name
        for lp in data.lps:
            summary = data.kendall[name].get(lp)
            if summary is None:
                continue
            lines.append(
                f"| {name} | {lp} | {summary.concordant} "
                f"| {summary.discordant} | {summary.excluded} |"
            )
    lines.append("")
    lines.append("## Score distribution")
    lines.append("")
    lines.append("| estimator | counts | neutral share |")
    lines.append("|---|---|---|")
    for table in data.tables:
        name = table.estimator.name
        try:
            dist = score_distribution(table)
        except ValueError:
            lines.append(f"| {name} | (scalar mode, no classes) | — |")
            continue
        counts = ", ".join(str(c) for c in dist.counts)
        neutral = dist.neutral_fraction
        neutral_text = "—" if neutral is None else f"{neutral * 100:.1f}%"
        lines.append(f"| {name} | {counts} | {neutral_text} |")
    if human_rows:
        lines.append("")
        lines.append("## System-level pairwise accuracy")
        lines.append("")
        lines.append("| estimator | lp | accuracy |")
        lines.append("|---|---|---|")
        for name, lp, acc in human_rows:
            text = "—" if acc is None else f"{acc * 100:.1f}%"
            lines.append(f"| {name} | {lp} | {text} |")
    lines.append("")
    return "\n".join(lines)


def _report_csv(data: _ReportData, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["estimator", "lp", "tau", "concordant", "discordant", "excluded"])
        for table in data.tables:
            name = table.estimator.name
            for lp in data.lps:
                summary = data.kendall[name].get(lp)
                if summary is None:
                    writer.writerow([name, lp, "", "", "", ""])
                    continue
                tau = summary.tau
                writer.writerow(
                    [
                        name,
                        lp,
                        "" if tau is None else repr(tau),
                        summary.concordant,
                        summary.discordant,
                        summary.excluded,
                    ]
                )
            avg = data.averages[name]
            writer.writerow([name, "avg", "" if avg is None else repr(avg), "", "", ""])


def _human_accuracy_rows(tables, human_scores, warnings) -> list[tuple]:
    rows: list[tuple] = []
    for table in tables:
        name = table.estimator.name
        try:
            by_lp = system_score(table)
        except KpeError as exc:
            warnings.append(f"{name}: {exc}")
            continue
        for lp in sorted(human_scores):
            if lp not in by_lp:
                continue
            try:
                acc = pairwise_accuracy(by_lp[lp], human_scores[lp])
            except InsufficientSystemsError as exc:
                warnings.append(f"{name}/{lp}: {exc}")
                rows.append((name, lp, None))
                continue
            rows.append((name, lp, acc))
    return rows


@main.command()
@click.option("--scores", "scores_dir", type=str, required=True,
              help="Directory holding scores_<estimator>.jsonl files.")
@click.option("--judgments", type=str, required=True)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="tsv")
@click.option("--human-scores", type=str, default=None,
              help="JSON file {lp: {system: score}} for pairwise accuracy.")
@click.option("--drop-policy", type=click.Choice(DROP_POLICIES), default="drop")
@click.option("--out", type=str, default=None,
              help="Output directory (default: the scores directory).")
def report(scores_dir, judgments, fmt, human_scores, drop_policy, out) -> None:
    """Render Kendall tau tables from score files as Markdown and CSV."""
    try:
        score_paths = sorted(Path(scores_dir).glob("scores_*.jsonl"))
        if not score_paths:
            raise ConfigError(f"no scores_*.jsonl files in {scores_dir}")
        tables = [load_score_file(p) for p in score_paths]
        order = {name: i for i, name in enumerate(ESTIMATOR_NAMES)}
        tables.sort(key=lambda t: order.get(t.estimator.name, len(order)))
        judgment_rows = load_rr_judgments(judgments, fmt)
        human = None
        if human_scores is not None:
            human = json.loads(Path(human_scores).read_text(encoding="utf-8"))
            if not isinstance(human, dict) or not all(
                isinstance(by_system, dict)
                and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in by_system.values()
                )
                for by_system in human.values()
            ):
                raise ConfigError("human scores must be {lp: {system: number}}")
    except (KpeError, OSError, ValueError) as exc:
        _fail(str(exc))

    data = _collect_report(tables, judgment_rows, drop_policy)
    human_rows = (
        _human_accuracy_rows(tables, human, data.warnings) if human is not None else []
    )

    meta = {
        "model_id": _run_model_id(scores_dir),
        "template_versions": _template_versions(tables),
        "timestamp": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }
    out_dir = Path(out) if out else Path(scores_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    markdown = _report_markdown(data, meta, human_rows)
    with open(out_dir / "report.md", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(markdown)
    _report_csv(data, out_dir / "report.csv")
    for warning in data.warnings:
        click.echo(f"warning: {warning}", err=True)
    click.echo(f"wrote {out_dir / 'report.md'} and {out_dir / 'report.csv'}", err=True)


def _run_model_id(scores_dir: str) -> str:
    summary_path = Path(scores_dir) / "run_summary.json"
    if summary_path.exists():
        try:
            return json.loads(summary_path.read_text(encoding="utf-8"))["model_id"]
        except (OSError, ValueError, KeyError):
            pass
    return "(unknown)"


# align -----------------------------------------------------------------------

@main.command()
@_score_options
@click.option("--lp", type=str, required=True)
@click.option("--system", "system_id", type=str, required=True)
@click.option("--seg", "seg_ids", type=str, multiple=True, required=True)
def align(config_path, lp, system_id, seg_ids, **flags) -> None:
    """Render token-alignment heatmaps for chosen (system, segment) pairs."""
    from .alignment import align_pairs, render_heatmap, tokenize

    try:
        cfg = build_run_config(config_path, flags)
        cfg.validate()
        dataset = _load_dataset_from(cfg)
        provider = _build_provider(cfg, dataset)
        for seg_id in seg_ids:
            if not dataset.has_output(lp, system_id, seg_id):
                raise ConfigError(f"no output for {lp}/{system_id}/{seg_id}")
    except (KpeError, OSError, ValueError) as exc:
        _fail(str(exc))

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tokens = []  # per --seg: (source, translation) tokens, or the error tokenizing them
    for seg_id in seg_ids:
        segment = dataset.get_segment(lp, seg_id)
        output = dataset.get_output(lp, system_id, seg_id)
        try:
            tokens.append((tokenize(segment.src_text), tokenize(output.mt_text)))
        except KpeError as exc:
            tokens.append(exc)
    try:
        aligned = iter(align_pairs(
            [pair for pair in tokens if not isinstance(pair, KpeError)],
            provider,
            FileCache(cfg.effective_cache_dir()),
            params=cfg.gen_params(),
            max_in_flight=cfg.max_in_flight,
        ))
    except (KpeError, OSError) as exc:
        _fail(str(exc))
    failures = []
    for seg_id, pair in zip(seg_ids, tokens):
        matrix = pair if isinstance(pair, KpeError) else next(aligned)
        if isinstance(matrix, KpeError):
            click.echo(f"error: {lp}/{system_id}/{seg_id}: {matrix}", err=True)
            failures.append(type(matrix).__name__)
            continue
        base = out_dir / f"{lp}_{system_id}_{seg_id}"
        with open(f"{base}.svg", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_heatmap(matrix))
        sidecar = {
            "lp": lp,
            "system_id": system_id,
            "seg_id": seg_id,
            "src_tokens": list(matrix.src_tokens),
            "mt_tokens": list(matrix.mt_tokens),
            "cells": [list(row) for row in matrix.cells],
            "clamped": matrix.clamped,
        }
        with open(f"{base}.json", "w", encoding="utf-8", newline="\n") as fh:
            json.dump(sidecar, fh, ensure_ascii=False, indent=2, sort_keys=True)
            fh.write("\n")
        click.echo(f"wrote {base}.svg", err=True)
    if len(failures) == len(seg_ids) and any(kind in _PROVIDER_UNREACHABLE for kind in failures):
        _fail("provider unreachable: no heatmap written")
    if failures:
        sys.exit(2)


# cache gc --------------------------------------------------------------------

_AGE_RE = re.compile(r"^(\d+)([smhd]?)$")
_AGE_UNIT_S = {"": 1, "s": 1, "m": 60, "h": 3600, "d": 86400}


def parse_max_age(text: str) -> float:
    match = _AGE_RE.match(text.strip())
    if not match:
        raise ConfigError(f"bad max-age {text!r}; use forms like 3600, 90m, 24h, 7d")
    return int(match.group(1)) * _AGE_UNIT_S[match.group(2)]


@main.group()
def cache() -> None:
    """Response cache maintenance."""


@cache.command("gc")
@click.option("--cache-dir", type=str, required=True)
@click.option("--max-age", type=str, required=True, help="e.g. 3600, 90m, 24h, 7d")
def cache_gc(cache_dir, max_age) -> None:
    """Delete cache entries older than --max-age."""
    try:
        age_s = parse_max_age(max_age)
        if not Path(cache_dir).is_dir():
            raise ConfigError(f"cache dir does not exist: {cache_dir}")
        removed = FileCache(cache_dir).gc(age_s)
    except (KpeError, OSError) as exc:
        _fail(str(exc))
    click.echo(f"removed {removed} entries")


if __name__ == "__main__":
    main()
