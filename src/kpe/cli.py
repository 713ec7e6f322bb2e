"""Command-line surface: score, report, align, templates, cache gc.

The front end is the standard library's argparse, so kpe has no runtime
dependency. Flags match exactly (an abbreviation such as --mod is a usage
error), and each command takes --help. `main` is the console script; its
main(args, prog_name, standalone_mode) method runs one command line in
process.

Run settings come from an optional JSON file (--config) and from flags,
and a flag beats the file. Each setting is one RunConfig field: its name
is the config key and the flag's destination, and it declares the
setting's default, JSON type and allowed values, against which
build_run_config checks every value. The flags of `score` and `align`
are generated from these fields, so a setting is declared in one place.
The provider API key is read from the KPE_API_KEY environment variable
only, never from config or flags.

`kpe templates --json` prints a JSON list with one object per builtin
template: template_id, version, placeholders (sorted), and schema, an
object of kind, classes (null unless categorical), lo and hi.

Exit codes: 0 success; 1 config or IO errors (one `error: ...` line on
stderr), provider unreachable (nothing scored or aligned, and a provider
error among the failures), or an interrupt (`Aborted!`); 2 a usage error
(an unknown command or flag, a flag value of the wrong type or choice, or
a missing command or required flag), reported on stderr before anything
runs, or finished but the scoring error rate exceeded the threshold, or
some segment failed to align.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn, get_args, get_type_hints

from . import __version__
from .backend import (
    FileCache,
    GenParams,
    HttpProvider,
    MockFixtures,
    MockProvider,
    check_endpoint,
)
# perfbench/tracing.py wraps _build_provider, score_dataset, the corpus loaders,
# load_score_file and kendall_tau_rr as attributes of this module: keep them here.
from .chains import (
    ESTIMATOR_NAMES,
    SCORING_MODES,
    STEP_FAILURES,
    EstimatorKind,
    load_score_file,
    score_dataset,  # noqa: F401  unused by kpe; the benchmark's --trace 1 wraps it here
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

    A field's name is its config-file key and the destination of its flag,
    which is --field-name unless a ``flag`` metadata entry names it. Its
    annotation is the JSON type a config value must have (a float field
    also takes an integer) and the type the flag converts its value to; a
    ``choices`` entry in its metadata is the tuple of allowed values that
    the flag shares, and a ``help`` entry is the flag's help. Fields marked
    ``score_only`` get no `align` flag.
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
    scoring_mode: str = field(
        default="cat5",
        metadata={"choices": SCORING_MODES, "flag": "--mode", "score_only": True},
    )
    # a list or a comma-separated string in a config file
    estimators: tuple[str, ...] = field(
        default=("prompt1_perplexity", "prompt2_token", "prompt3_sentence", "cot1", "cot2"),
        metadata={"help": "Comma-separated estimator names.", "score_only": True},
    )
    step_failure: str = field(
        default="abort_pair", metadata={"choices": STEP_FAILURES, "score_only": True}
    )
    error_rate_threshold: float = field(default=0.01, metadata={"score_only": True})
    temperature: float = 0.0
    max_tokens: int = 256

    def validate(self) -> None:
        """Check the rules that tie settings together or reach the file system."""
        if self.max_in_flight < 1:
            raise ConfigError("max_in_flight must be >= 1")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        # written so that NaN fails too
        if not 0 <= self.error_rate_threshold <= 1:
            raise ConfigError("error_rate_threshold must be between 0 and 1")
        if not self.temperature >= 0:
            raise ConfigError("temperature must be >= 0")
        if self.provider == "http":
            if not self.endpoint_url:
                raise ConfigError("http provider needs endpoint_url")
            check_endpoint(self.endpoint_url)  # before a run loads the dataset
            if not self.model_id:
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

    def gen_params(self) -> GenParams:
        return GenParams(
            model_id=self.model_id or "mock-1",
            temperature=self.temperature,
            max_tokens=self.max_tokens,
        )


_SETTINGS = {f.name: f for f in fields(RunConfig)}
# each setting's annotation as a tuple of types, e.g. (str, NoneType) for str | None
_SETTING_TYPES = {n: get_args(h) or (h,) for n, h in get_type_hints(RunConfig).items()}
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
    types = _SETTING_TYPES[key]
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
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _run_options(parser: argparse.ArgumentParser, *, scoring: bool) -> None:
    """Add --config and one flag per RunConfig field; score_only fields only when scoring.

    Every flag defaults to None, so a config-file value stands unless the flag is given.
    """
    parser.add_argument("--config", dest="config_path",
                        help="JSON config file; flags override its keys.")
    for setting in fields(RunConfig):
        meta = setting.metadata
        if meta.get("score_only") and not scoring:
            continue
        parser.add_argument(
            meta.get("flag", "--" + setting.name.replace("_", "-")),
            dest=setting.name,
            type=next((t for t in _SETTING_TYPES[setting.name] if t in (int, float)), str),
            choices=meta.get("choices"),
            help=meta.get("help"),
        )


def _start_run(config_path: str | None, flags: dict, *, scoring: bool):
    """Check all settings, estimator modes included, then build the dataset, provider and cache."""
    try:
        cfg = build_run_config(config_path, flags)
        cfg.validate()
        estimators = cfg.estimators if scoring else ()
        kinds = [EstimatorKind(name, cfg.scoring_mode) for name in estimators]
        dataset = _load_dataset_from(cfg)
        provider = _build_provider(cfg, dataset)
    except (KpeError, OSError, ValueError) as exc:
        _fail(str(exc))
    return cfg, kinds, dataset, provider, FileCache(cfg.cache_dir or Path(cfg.out) / "cache")


def _out_dir(path: str) -> Path:
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        _fail(f"cannot create output directory {path}: {exc.strerror or exc}")
    return Path(path)


def _write_json(path: Path | str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")


# templates -------------------------------------------------------------------

def templates(as_json: bool) -> None:
    """List the builtin prompt templates."""
    registry = builtin_templates()
    rows = [registry.get(template_id) for template_id in registry.ids()]
    if as_json:
        objs = [
            {
                "template_id": t.template_id,
                "version": t.version,
                "schema": {
                    "kind": t.schema.kind,
                    "classes": list(t.schema.classes) if t.schema.classes else None,
                    "lo": t.schema.lo,
                    "hi": t.schema.hi,
                },
                "placeholders": sorted(t.placeholders),
            }
            for t in rows
        ]
        print(json.dumps(objs, ensure_ascii=False, indent=2, sort_keys=True))
        return
    for t in rows:
        if t.schema.kind == "categorical":
            shape = f"categorical({len(t.schema.classes)})"
        else:
            shape = f"{t.schema.kind}[{t.schema.lo:g},{t.schema.hi:g}]"
        placeholders = ",".join(sorted(t.placeholders))
        print(f"{t.template_id} v{t.version} {shape} placeholders: {placeholders}")


# score -----------------------------------------------------------------------

def score(config_path, **flags) -> None:
    """Score every system output with the configured estimators."""
    cfg, kinds, dataset, provider, cache = _start_run(config_path, flags, scoring=True)
    out_dir = _out_dir(cfg.out)
    params = cfg.gen_params()

    try:
        print(f"scoring {', '.join(cfg.estimators)} ({cfg.scoring_mode})...", file=sys.stderr)
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
            print(
                f"  {name}: {table.total} pairs, {table.n_parsed} parsed, "
                f"{table.n_errored} errors -> {path}",
                file=sys.stderr,
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
    _write_json(out_dir / "run_summary.json", summary)

    if total and not any(t.n_parsed for t in tables.values()):
        notes = [s.error or "" for t in tables.values() for s in t.scores.values()]
        if any(f": {kind}: " in note for note in notes for kind in _PROVIDER_UNREACHABLE):
            _fail("provider unreachable: no pair scored; see score files for details")
    rate = (errored / total) if total else 0.0
    if rate > cfg.error_rate_threshold:
        print(
            f"error rate {rate:.1%} exceeds threshold "
            f"{cfg.error_rate_threshold:.1%}",
            file=sys.stderr,
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

def _percent(share: float | None) -> str:
    return "—" if share is None else f"{share * 100:.1f}%"


def _md_table(header: list[str], rows: list[list]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(cell) for cell in row) + " |" for row in rows]
    return lines


def _human_accuracy_rows(tables, human_scores, warnings) -> list[list]:
    rows: list[list] = []
    for table in tables:
        name = table.estimator.name
        try:
            by_lp = system_score(table)
        except KpeError as exc:
            warnings.append(f"{name}: {exc}")
            continue
        for lp in sorted(human_scores.keys() & by_lp.keys()):
            try:
                acc = pairwise_accuracy(by_lp[lp], human_scores[lp])
            except InsufficientSystemsError as exc:
                warnings.append(f"{name}/{lp}: {exc}")
                acc = None
            rows.append([name, lp, _percent(acc)])
    return rows


def report(scores_dir, judgments, fmt, human_scores, drop_policy, out) -> None:
    """Render Kendall tau tables from score files as Markdown and CSV."""
    try:
        score_paths = sorted(Path(scores_dir).glob("scores_*.jsonl"))
        if not score_paths:
            raise ConfigError(f"no scores_*.jsonl files in {scores_dir}")
        tables = [load_score_file(p) for p in score_paths]
        tables.sort(key=lambda t: ESTIMATOR_NAMES.index(t.estimator.name))
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

    # one pass over the estimators fills every table of the report
    lps = sorted({j.lp for j in judgment_rows})
    warnings: list[str] = []
    tau_rows, usage_rows, distribution_rows = [], [], []
    csv_rows = [["estimator", "lp", "tau", "concordant", "discordant", "excluded"]]
    for table in tables:
        name = table.estimator.name
        summaries = kendall_tau_rr(table, judgment_rows, drop_policy=drop_policy)
        cells, taus = [name], []
        for lp in lps:
            summary = summaries.get(lp)
            if summary is None:
                tau, counts = None, ["", "", ""]
            else:
                tau = summary.tau
                counts = [summary.concordant, summary.discordant, summary.excluded]
                usage_rows.append([name, lp, *counts])
            cells.append(_percent(tau))
            if tau is None:
                warnings.append(f"{name}: no usable judgments for {lp}")
            else:
                taus.append(tau)
            csv_rows.append([name, lp, "" if tau is None else repr(tau), *counts])
        avg = sum(taus) / len(taus) if taus else None
        tau_rows.append([*cells, _percent(avg)])
        csv_rows.append([name, "avg", "" if avg is None else repr(avg), "", "", ""])
        try:
            dist = score_distribution(table)
        except ValueError:
            distribution_rows.append([name, "(scalar mode, no classes)", "—"])
            continue
        counts_text = ", ".join(str(c) for c in dist.counts)
        distribution_rows.append([name, counts_text, _percent(dist.neutral_fraction)])
    human_rows = _human_accuracy_rows(tables, human, warnings) if human is not None else []

    versions = ", ".join(f"{tid} v{v}" for tid, v in _template_versions(tables).items())
    timestamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    sections = [
        ("Segment-level Kendall tau", ["estimator", *lps, "avg"], tau_rows),
        ("Judgment usage", ["estimator", "lp", "concordant", "discordant", "excluded"], usage_rows),
        ("Score distribution", ["estimator", "counts", "neutral share"], distribution_rows),
    ]
    if human_rows:
        accuracy = ("System-level pairwise accuracy", ["estimator", "lp", "accuracy"], human_rows)
        sections.append(accuracy)
    lines = [
        "# Translation quality estimation report",
        "",
        f"- model: {_run_model_id(scores_dir)}",
        f"- templates: {versions if versions else '(none recorded)'}",
        f"- generated: {timestamp}",
    ]
    for title, header, rows in sections:
        lines += ["", f"## {title}", "", *_md_table(header, rows)]
    out_dir = _out_dir(out or scores_dir)
    with open(out_dir / "report.md", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(out_dir / "report.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(csv_rows)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {out_dir / 'report.md'} and {out_dir / 'report.csv'}", file=sys.stderr)


def _run_model_id(scores_dir: str) -> str:
    summary_path = Path(scores_dir) / "run_summary.json"
    try:
        return json.loads(summary_path.read_text(encoding="utf-8"))["model_id"]
    except (OSError, ValueError, KeyError, TypeError):  # TypeError: not a JSON object
        return "(unknown)"


# align -----------------------------------------------------------------------

def align(config_path, lp, system_id, seg_ids, **flags) -> None:
    """Render token-alignment heatmaps for chosen (system, segment) pairs."""
    from .alignment import align_pairs, render_heatmap, tokenize

    cfg, _, dataset, provider, cache = _start_run(config_path, flags, scoring=False)
    for seg_id in seg_ids:
        if not dataset.has_output(lp, system_id, seg_id):
            _fail(f"no output for {lp}/{system_id}/{seg_id}")

    out_dir = _out_dir(cfg.out)
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
            cache,
            params=cfg.gen_params(),
            max_in_flight=cfg.max_in_flight,
        ))
    except (KpeError, OSError) as exc:
        _fail(str(exc))
    failures = []
    for seg_id, pair in zip(seg_ids, tokens):
        matrix = pair if isinstance(pair, KpeError) else next(aligned)
        if isinstance(matrix, KpeError):
            print(f"error: {lp}/{system_id}/{seg_id}: {matrix}", file=sys.stderr)
            failures.append(type(matrix).__name__)
            continue
        base = out_dir / f"{lp}_{system_id}_{seg_id}"
        with open(f"{base}.svg", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_heatmap(matrix))
        _write_json(f"{base}.json", {
            "lp": lp,
            "system_id": system_id,
            "seg_id": seg_id,
            "src_tokens": list(matrix.src_tokens),
            "mt_tokens": list(matrix.mt_tokens),
            "cells": [list(row) for row in matrix.cells],
            "clamped": matrix.clamped,
        })
        print(f"wrote {base}.svg", file=sys.stderr)
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


def cache_gc(cache_dir, max_age) -> None:
    """Delete cache entries, quarantined files and orphaned temp files older than --max-age."""
    try:
        age_s = parse_max_age(max_age)
        if not Path(cache_dir).is_dir():
            raise ConfigError(f"cache dir does not exist: {cache_dir}")
        removed = FileCache(cache_dir).gc(age_s)
    except (KpeError, OSError) as exc:
        _fail(str(exc))
    print(f"removed {removed} entries")


# command line ----------------------------------------------------------------

def _command(commands, name: str, run=None, doc: str | None = None) -> argparse.ArgumentParser:
    """Add a subcommand that takes --help and no abbreviated flag; it calls run if given."""
    doc = doc or run.__doc__
    parser = commands.add_parser(name, help=doc, description=doc, add_help=False,
                                 allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    if run is not None:
        parser.set_defaults(run=run)
    return parser


def _parser(prog: str) -> argparse.ArgumentParser:
    """The whole command line; each command's flags are stored under its function's parameters."""
    parser = argparse.ArgumentParser(
        prog=prog, description="Prompt-based machine translation quality estimation harness.",
        add_help=False, allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.add_argument("--version", action="version", version=f"kpe, version {__version__}",
                        help="Show the version and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    _command(commands, "templates", templates).add_argument(
        "--json", dest="as_json", action="store_true", help="Machine-readable listing.")

    _run_options(_command(commands, "score", score), scoring=True)

    sub = _command(commands, "report", report)
    sub.add_argument("--scores", dest="scores_dir", required=True,
                     help="Directory holding scores_<estimator>.jsonl files.")
    sub.add_argument("--judgments", required=True)
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default="tsv")
    sub.add_argument("--human-scores",
                     help="JSON file {lp: {system: score}} for pairwise accuracy.")
    sub.add_argument("--drop-policy", choices=DROP_POLICIES, default="drop")
    sub.add_argument("--out", help="Output directory (default: the scores directory).")

    sub = _command(commands, "align", align)
    _run_options(sub, scoring=False)
    sub.add_argument("--lp", required=True)
    sub.add_argument("--system", dest="system_id", required=True)
    sub.add_argument("--seg", dest="seg_ids", action="append", required=True)

    cache = _command(commands, "cache", doc="Response cache maintenance.")
    sub = _command(cache.add_subparsers(metavar="COMMAND", required=True), "gc", cache_gc)
    sub.add_argument("--cache-dir", required=True)
    sub.add_argument("--max-age", required=True, help="e.g. 3600, 90m, 24h, 7d")
    return parser


class _Main:
    """The kpe command: the console script, with the name and main() that in-process callers use.

    click's CliRunner needs only these two, so the tests drive kpe through it.
    """

    name = "kpe"

    def __call__(self) -> None:
        self.main()

    def main(self, args=None, prog_name: str | None = None, standalone_mode: bool = True):
        """Run one command line (sys.argv[1:] when args is None).

        A usage error prints the usage and the error on stderr and exits 2.
        An interrupt prints Aborted! and exits 1; without standalone_mode it
        propagates to the caller. A reader that closes the output pipe early
        ends the run with exit 1 and no traceback.
        """
        options = vars(_parser(prog_name or self.name).parse_args(args))
        run = options.pop("run")
        try:
            run(**options)
            sys.stdout.flush()
        except KeyboardInterrupt:
            if not standalone_mode:
                raise
            print("\nAborted!", file=sys.stderr)
            sys.exit(1)
        except BrokenPipeError:  # as in `kpe templates | true`
            # stdout goes to /dev/null, so that the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)


main = _Main()


if __name__ == "__main__":
    main()
