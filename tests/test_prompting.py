from __future__ import annotations

import pytest

from kpe.errors import (
    EmptyValueError,
    MissingBindingError,
    TemplateNotFoundError,
    UnknownBindingError,
)
from kpe.prompting import (
    ESTIMATORS,
    PromptTemplate,
    ResponseSchema,
    builtin_templates,
    parse_template_text,
    parse_token_list,
    render_template,
    render_token_list,
)

EXPECTED_TEMPLATE_IDS = [
    "gemba_classify",
    "gemba_classify_cat3",
    "gemba_scalar",
    "gemba_stars",
    "kpe_cot1_combine",
    "kpe_cot1_combine_cat3",
    "kpe_cot2_combine",
    "kpe_cot2_combine_cat3",
    "kpe_perplexity",
    "kpe_perplexity_cat3",
    "kpe_perplexity_scalar",
    "kpe_perplexity_stars",
    "kpe_sent_sim",
    "kpe_sent_sim_cat3",
    "kpe_sent_sim_scalar",
    "kpe_sent_sim_stars",
    "kpe_token_align",
    "kpe_token_sim",
    "kpe_token_sim_cat3",
    "kpe_token_sim_scalar",
    "kpe_token_sim_stars",
]

GEMBA_CLASSES = (
    "No meaning preserved",
    "Some meaning preserved, but not understandable",
    "Some meaning preserved and understandable",
    "Most meaning preserved, minor issues",
    "Perfect translation",
)


def test_builtin_registry_ids():
    registry = builtin_templates()
    assert registry.ids() == EXPECTED_TEMPLATE_IDS
    assert len(registry) == 21
    assert "gemba_classify" in registry


def test_unknown_template_id():
    with pytest.raises(TemplateNotFoundError):
        builtin_templates().get("nope")


def test_gemba_classify_prompt_text_exact():
    template = builtin_templates().get("gemba_classify")
    prompt = render_template(
        template, {"source_seg": "Guten Morgen.", "target_seg": "Good morning."}
    )
    expected = (
        "Classify the quality of machine translation into one of following classes: "
        '"No meaning preserved", '
        '"Some meaning preserved, but not understandable", '
        '"Some meaning preserved and understandable", '
        '"Most meaning preserved, minor issues", '
        '"Perfect translation".\n'
        'source: "Guten Morgen."\n'
        'machine translation: "Good morning."\n'
        "Class:"
    )
    assert prompt.final_text == expected


def test_gemba_schema_classes_ordered_worst_to_best():
    schema = builtin_templates().get("gemba_classify").schema
    assert schema.classes == GEMBA_CLASSES
    assert schema.middle_class == "Some meaning preserved and understandable"


def test_perplexity_template_binds_translation_only():
    template = builtin_templates().get("kpe_perplexity")
    assert template.placeholders == ("target_seg",)
    prompt = render_template(template, {"target_seg": "Every word flows."})
    assert "Every word flows." in prompt.final_text


def test_combiners_declare_answer_placeholders():
    registry = builtin_templates()
    combiners = {
        "kpe_cot1_combine": ("kpe_perplexity", "kpe_token_sim"),
        "kpe_cot1_combine_cat3": ("kpe_perplexity_cat3", "kpe_token_sim_cat3"),
        "kpe_cot2_combine": ("kpe_perplexity", "kpe_token_sim", "kpe_sent_sim"),
        "kpe_cot2_combine_cat3": (
            "kpe_perplexity_cat3", "kpe_token_sim_cat3", "kpe_sent_sim_cat3",
        ),
    }
    seen = {}
    for chain in ESTIMATORS.values():
        for mode, combiner_id in chain.templates.items() if chain.steps else ():
            template = registry.get(combiner_id)
            assert template.schema.kind == "categorical"
            steps = [ESTIMATORS[step] for step in chain.steps]
            for step in steps:
                assert step.answer in template.placeholders
                assert registry.get(step.templates[mode]).schema.kind == "categorical"
            seen[combiner_id] = tuple(step.templates[mode] for step in steps)
    assert seen == combiners


def _tiny_template(body="hello {name}", placeholders=("name",), optional=()):
    return PromptTemplate(
        template_id="t",
        version=1,
        body=body,
        placeholders=placeholders,
        optional=optional,
        schema=ResponseSchema(kind="scalar", lo=0, hi=1),
    )


def test_render_missing_binding():
    with pytest.raises(MissingBindingError) as err:
        render_template(_tiny_template(), {})
    assert "name" in str(err.value)


def test_render_unknown_binding():
    with pytest.raises(UnknownBindingError):
        render_template(_tiny_template(), {"name": "x", "extra": "y"})


def test_render_empty_value():
    with pytest.raises(EmptyValueError):
        render_template(_tiny_template(), {"name": "   "})


def test_render_is_single_pass():
    # a bound value that looks like a placeholder must not be expanded
    template = _tiny_template(
        body="{a} and {b}", placeholders=("a", "b"), optional=()
    )
    prompt = render_template(template, {"a": "{b}", "b": "two"})
    assert prompt.final_text == "{b} and two"


def test_optional_placeholder_may_be_absent():
    template = _tiny_template(
        body="hi {name}{suffix}", placeholders=("name", "suffix"), optional=("suffix",)
    )
    assert render_template(template, {"name": "x"}).final_text == "hi x"
    assert (
        render_template(template, {"name": "x", "suffix": "!"}).final_text == "hi x!"
    )


def test_template_body_placeholder_cross_check():
    with pytest.raises(ValueError, match="undeclared"):
        _tiny_template(body="hello {other}", placeholders=("name",))
    with pytest.raises(ValueError, match="never used"):
        _tiny_template(body="hello", placeholders=("name",))


def test_parse_template_text_round_trip():
    text = (
        "template_id: demo\n"
        "version: 3\n"
        "schema: categorical\n"
        "placeholders: target_seg, note?\n"
        "class: Bad\n"
        "class: Fine\n"
        "class: Good\n"
        "---\n"
        "rate {target_seg}{note}\n"
        "Answer:\n"
    )
    template = parse_template_text(text)
    assert template.template_id == "demo"
    assert template.version == 3
    assert template.placeholders == ("target_seg", "note")
    assert template.optional == ("note",)
    assert template.schema.classes == ("Bad", "Fine", "Good")
    # exactly one trailing newline is stripped; interior newlines survive
    assert template.body == "rate {target_seg}{note}\nAnswer:"


def test_parse_template_text_errors():
    with pytest.raises(ValueError, match="separator"):
        parse_template_text("template_id: x\nversion: 1\n")
    with pytest.raises(ValueError, match="missing header key"):
        parse_template_text("template_id: x\n---\nbody\n")
    with pytest.raises(ValueError, match="at least 2"):
        parse_template_text(
            "template_id: x\nversion: 1\nschema: categorical\n"
            "placeholders: a\nclass: only\n---\n{a}\n"
        )


def test_schema_validation():
    with pytest.raises(ValueError):
        ResponseSchema(kind="stars", lo=5, hi=1)
    with pytest.raises(ValueError):
        ResponseSchema(kind="categorical", classes=("same", "same"))
    with pytest.raises(ValueError):
        ResponseSchema(kind="wat")
    with pytest.raises(ValueError):
        ResponseSchema(kind="scalar", lo=0, hi=1).middle_class


def test_token_list_round_trip():
    tokens = ["Guten", "Morgen", ".", "3.", "a b"]
    text = render_token_list(tokens)
    assert text.startswith("1. Guten\n2. Morgen\n3. .")
    assert parse_token_list(text) == tokens


def test_token_list_rejects_bad_numbering():
    with pytest.raises(ValueError, match="jumps"):
        parse_token_list("1. a\n3. b")
    with pytest.raises(ValueError, match="bad token list"):
        parse_token_list("a line without numbering")
