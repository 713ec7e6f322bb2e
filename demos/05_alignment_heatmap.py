"""Render a token-alignment heatmap for one translation pair.

One prompt elicits the full source x translation similarity grid; the
greedy per-column argmax gives a word alignment, and the SVG heatmap
makes mistranslated or dropped tokens visible at a glance.
"""
from pathlib import Path

from kpe import MockProvider, align_pairs, greedy_alignment, render_heatmap, tokenize
from kpe.backend import GenParams

# a reordered paraphrase, so the grid has structure off the diagonal
src = tokenize("He came home today.")
mt = tokenize("Today, he came home.")
(matrix,) = align_pairs([(src, mt)], MockProvider(), params=GenParams(model_id="mock-1"))

print("greedy alignment (source <- translation):")
for i, j, score in greedy_alignment(matrix):
    print(f"  {matrix.src_tokens[i]:8s} <- {matrix.mt_tokens[j]:8s} ({score:.2f})")

out = Path(__file__).parent / "out"
out.mkdir(parents=True, exist_ok=True)
path = out / "alignment.svg"
path.write_text(render_heatmap(matrix), encoding="utf-8")
print(f"\nwrote {path} ({path.stat().st_size} bytes)")
