"""Show the builtin prompt templates and how responses are parsed.

Every estimator is a pure function of its rendered prompt text, so the
prompts themselves are the best documentation of what each one asks.
"""
from kpe import builtin_templates, parse_categorical, parse_stars, render_template

registry = builtin_templates()
print("builtin templates:")
for template_id in sorted(registry.ids()):
    template = registry.get(template_id)
    kind = template.schema.kind
    print(f"  {template_id:28s} v{template.version}  {kind}")

print("\n--- rendered one-step prompt " + "-" * 30)
template = registry.get("kpe_sent_sim")
prompt = render_template(
    template,
    {
        "source_seg": "Er kam heute nach Hause.",
        "target_seg": "He came home today.",
    },
)
print(prompt.final_text)

print("--- parsing a noisy response " + "-" * 30)
for response in (
    "Identical meaning",
    'I would say: "mostly similar meaning".',
    "Class: Partially similar meaning (some loss).",
):
    got = parse_categorical(response, template.schema)
    print(f"  {response!r}\n    -> class {got.index}: {got.class_string}")

print("\nstars mode accepts glyphs, fractions, and bare integers:")
for response in ("★★★★", "4/5", "I give it 4 stars"):
    print(f"  {response!r} -> {parse_stars(response).stars} stars")
