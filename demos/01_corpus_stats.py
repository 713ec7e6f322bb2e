"""Build the bundled toy corpus on disk and read it back.

The toy corpus is three language pairs with four systems of known
relative quality, so every downstream number in the other demos can be
predicted by hand.
"""
from pathlib import Path

from kpe import (
    EvalDataset,
    dataset_stats,
    load_rr_judgments,
    load_segments,
    load_system_outputs,
    write_toy_corpus,
)

out = Path(__file__).parent / "out" / "toy"
write_toy_corpus(out)
print(f"wrote corpus files to {out}/")
for name in ("segments.tsv", "outputs.tsv", "judgments.tsv", "fixtures.json"):
    size = (out / name).stat().st_size
    print(f"  {name:14s} {size:7d} bytes")

dataset = EvalDataset.build(
    load_segments(out / "segments.tsv"),
    load_system_outputs(out / "outputs.tsv"),
    load_rr_judgments(out / "judgments.tsv"),
)
stats = dataset_stats(dataset)
print("\nper language pair:")
for lp, row in stats.items():
    print(
        f"  {lp}: {row['n_segments']} segments x {row['n_systems']} systems, "
        f"{row['n_judgments']} ranking judgments"
    )
