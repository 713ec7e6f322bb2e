"""Prompt templates and rendering.

Templates live as text assets under kpe/templates/. Each file is a small
header, a `---` separator line, then the body verbatim:

    template_id: gemba_classify
    version: 1
    schema: categorical
    placeholders: source_seg, target_seg
    class: No meaning preserved
    ...
    ---
    <body with {placeholder} slots>

Schema lines are one of `categorical` (with >=2 `class:` lines, worst to
best), `stars <lo> <hi>`, or `scalar <lo> <hi>`. Any edit to a body must
bump the version; cache keys include (template_id, version), so a bump
invalidates exactly that template's cached responses.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import (
    EmptyValueError,
    MissingBindingError,
    TemplateNotFoundError,
    UnknownBindingError,
)

_PLACEHOLDER_RE = re.compile(r"\{([a-z][a-z0-9_]*)\}")


@dataclass(frozen=True)
class ResponseSchema:
    """What shape of answer a template asks for.

    kind: "categorical" (classes ordered worst to best), "stars", "scalar".
    classes is empty unless categorical; lo/hi are unset unless numeric.
    """

    kind: str
    classes: tuple[str, ...] = ()
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "categorical":
            if len(self.classes) < 2:
                raise ValueError("categorical schema needs at least 2 classes")
            if len(set(self.classes)) != len(self.classes):
                raise ValueError("class labels must be pairwise distinct")
        elif self.kind in ("stars", "scalar"):
            if not self.lo < self.hi:
                raise ValueError(f"bad {self.kind} range: {self.lo}..{self.hi}")
        else:
            raise ValueError(f"unknown schema kind: {self.kind!r}")

    @property
    def middle_class(self) -> str:
        """Middle label of an odd-length class list (substitution policies)."""
        if self.kind != "categorical":
            raise ValueError("middle_class is only defined for categorical schemas")
        return self.classes[(len(self.classes) - 1) // 2]


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    version: int
    body: str
    placeholders: tuple[str, ...]
    optional: tuple[str, ...] = ()
    schema: ResponseSchema = field(default_factory=lambda: ResponseSchema("scalar", (), 0, 1))

    def __post_init__(self) -> None:
        declared = set(self.placeholders)
        used = set(_PLACEHOLDER_RE.findall(self.body))
        if used - declared:
            raise ValueError(
                f"{self.template_id}: body uses undeclared placeholders "
                f"{sorted(used - declared)}"
            )
        if declared - used:
            raise ValueError(
                f"{self.template_id}: declared placeholders never used "
                f"{sorted(declared - used)}"
            )
        if not set(self.optional) <= declared:
            raise ValueError(f"{self.template_id}: optional names must be placeholders")


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully bound prompt: the exact text sent to a provider."""

    template_id: str
    version: int
    final_text: str
    bindings: dict[str, str] = field(compare=False)


def render_template(template: PromptTemplate, bindings: dict[str, str]) -> RenderedPrompt:
    """Substitute bindings into the template body.

    Single-pass substitution: placeholder-like text inside a bound value is
    left alone, never expanded. Required placeholders must be present and
    non-empty after trimming; unknown binding names are rejected.
    """
    declared = set(template.placeholders)
    given = set(bindings)
    unknown = given - declared
    if unknown:
        raise UnknownBindingError(sorted(unknown))
    required = declared - set(template.optional)
    missing = required - given
    if missing:
        raise MissingBindingError(sorted(missing))
    for name in sorted(required):
        if not bindings[name].strip():
            raise EmptyValueError(f"placeholder {name!r} bound to empty value")

    def _sub(match: re.Match) -> str:
        name = match.group(1)
        return bindings.get(name, "")

    final_text = _PLACEHOLDER_RE.sub(_sub, template.body)
    return RenderedPrompt(
        template_id=template.template_id,
        version=template.version,
        final_text=final_text,
        bindings=dict(bindings),
    )


def parse_template_text(text: str, origin: str = "<string>") -> PromptTemplate:
    """Parse the on-disk template format (header, ---, body)."""
    lines = text.split("\n")
    try:
        sep = lines.index("---")
    except ValueError:
        raise ValueError(f"{origin}: missing --- separator") from None
    header: dict[str, str] = {}
    classes: list[str] = []
    for raw in lines[:sep]:
        if not raw.strip():
            continue
        if ":" not in raw:
            raise ValueError(f"{origin}: bad header line {raw!r}")
        key, _, value = raw.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "class":
            classes.append(value)
        else:
            header[key] = value
    for need in ("template_id", "version", "schema", "placeholders"):
        if need not in header:
            raise ValueError(f"{origin}: missing header key {need!r}")

    schema_parts = header["schema"].split()
    kind = schema_parts[0]
    if kind == "categorical":
        schema = ResponseSchema(kind="categorical", classes=tuple(classes))
    else:
        if len(schema_parts) != 3:
            raise ValueError(f"{origin}: {kind} schema needs lo and hi")
        schema = ResponseSchema(
            kind=kind, lo=float(schema_parts[1]), hi=float(schema_parts[2])
        )

    names: list[str] = []
    optional: list[str] = []
    for item in header["placeholders"].split(","):
        item = item.strip()
        if not item:
            continue
        if item.endswith("?"):
            item = item[:-1]
            optional.append(item)
        names.append(item)

    body = "\n".join(lines[sep + 1:])
    if body.endswith("\n"):
        body = body[:-1]
    return PromptTemplate(
        template_id=header["template_id"],
        version=int(header["version"]),
        body=body,
        placeholders=tuple(names),
        optional=tuple(optional),
        schema=schema,
    )


class TemplateRegistry:
    """Immutable id -> template mapping."""

    def __init__(self, templates: dict[str, PromptTemplate]) -> None:
        self._templates = dict(templates)

    def get(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise TemplateNotFoundError(
                f"no template {template_id!r}; known: {', '.join(self.ids())}"
            ) from None

    def ids(self) -> list[str]:
        return sorted(self._templates)

    def __contains__(self, template_id: str) -> bool:
        return template_id in self._templates

    def __len__(self) -> int:
        return len(self._templates)


_BUILTIN: TemplateRegistry | None = None


def builtin_templates() -> TemplateRegistry:
    """Load (once) the templates shipped inside the package."""
    global _BUILTIN
    if _BUILTIN is None:
        templates: dict[str, PromptTemplate] = {}
        root = resources.files("kpe").joinpath("templates")
        for entry in sorted(root.iterdir(), key=lambda e: e.name):
            if not entry.name.endswith(".txt"):
                continue
            tpl = parse_template_text(entry.read_text(encoding="utf-8"), origin=entry.name)
            if tpl.template_id in templates:
                raise ValueError(f"duplicate template id {tpl.template_id}")
            templates[tpl.template_id] = tpl
        _BUILTIN = TemplateRegistry(templates)
    return _BUILTIN


def load_template_file(path: str | Path) -> PromptTemplate:
    p = Path(path)
    return parse_template_text(p.read_text(encoding="utf-8"), origin=str(p))


@dataclass(frozen=True)
class EstimatorSpec:
    """How one estimator prompts.

    templates maps each scoring mode the estimator supports to its template
    id; for a chain that template is the combiner, and steps names the step
    estimators it runs first, in stage order. answer is the combiner
    placeholder a step estimator's parsed class is bound to.
    """

    templates: dict[str, str]
    steps: tuple[str, ...] = ()
    answer: str | None = None


# Every estimator, one-step kinds first. The chain runner and the mock
# provider both read this table.
ESTIMATORS: dict[str, EstimatorSpec] = {
    "gemba": EstimatorSpec({
        "cat5": "gemba_classify",
        "cat3": "gemba_classify_cat3",
        "stars": "gemba_stars",
        "scalar": "gemba_scalar",
    }),
    "prompt1_perplexity": EstimatorSpec({
        "cat5": "kpe_perplexity",
        "cat3": "kpe_perplexity_cat3",
        "stars": "kpe_perplexity_stars",
        "scalar": "kpe_perplexity_scalar",
    }, answer="perplexity_answer"),
    "prompt2_token": EstimatorSpec({
        "cat5": "kpe_token_sim",
        "cat3": "kpe_token_sim_cat3",
        "stars": "kpe_token_sim_stars",
        "scalar": "kpe_token_sim_scalar",
    }, answer="token_answer"),
    "prompt3_sentence": EstimatorSpec({
        "cat5": "kpe_sent_sim",
        "cat3": "kpe_sent_sim_cat3",
        "stars": "kpe_sent_sim_stars",
        "scalar": "kpe_sent_sim_scalar",
    }, answer="sentence_answer"),
    "cot1": EstimatorSpec({
        "cat5": "kpe_cot1_combine",
        "cat3": "kpe_cot1_combine_cat3",
    }, steps=("prompt1_perplexity", "prompt2_token")),
    "cot2": EstimatorSpec({
        "cat5": "kpe_cot2_combine",
        "cat3": "kpe_cot2_combine_cat3",
    }, steps=("prompt1_perplexity", "prompt2_token", "prompt3_sentence")),
}


# Numbered token-list payloads for the alignment template ------------------

def render_token_list(tokens: tuple[str, ...] | list[str]) -> str:
    """Format tokens as a numbered list, one `N. token` per line."""
    return "\n".join(f"{i}. {tok}" for i, tok in enumerate(tokens, start=1))


_TOKEN_LINE_RE = re.compile(r"^\s*(\d+)\.\s(.*)$")


def parse_token_list(text: str) -> list[str]:
    """Invert render_token_list. Raises ValueError on malformed lines."""
    tokens: list[str] = []
    for line in text.split("\n"):
        if not line.strip():
            continue
        m = _TOKEN_LINE_RE.match(line)
        if not m:
            raise ValueError(f"bad token list line: {line!r}")
        if int(m.group(1)) != len(tokens) + 1:
            raise ValueError(f"token list numbering jumps at: {line!r}")
        tokens.append(m.group(2))
    return tokens
