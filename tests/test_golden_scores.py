"""Byte-identity gate for score files.

Runs `kpe score` on the toy corpus from an empty cache and compares the
sha256 of every `scores_*.jsonl` it writes against digests recorded from
a known-good build. Any change to what a score file holds (ordinals,
step traces, digests, error notes, key order) shows up here. Regenerate
the digests only for an intended change of the file format or content.
"""
from __future__ import annotations

import hashlib

import pytest
from click.testing import CliRunner

import kpe.cli
from kpe.cli import main
from kpe.errors import TransportError
from kpe.toydata import write_toy_corpus

ALL_SIX = "gemba,prompt1_perplexity,prompt2_token,prompt3_sentence,cot1,cot2"


class FaultyProvider:
    """Wraps the mock; one template id gets an unparseable answer or a transport error."""

    def __init__(self, inner, template_id: str, fault: str) -> None:
        self.inner = inner
        self.template_id = template_id
        self.fault = fault
        self.provider_id = inner.provider_id

    @property
    def calls(self) -> int:
        return self.inner.calls

    def complete(self, prompt, params):
        if prompt.template_id == self.template_id:
            if self.fault == "garble":
                return "I would rather not say."
            raise TransportError("connection refused")
        return self.inner.complete(prompt, params)


# Digests of the fault-free cat5 run; the fault cases list only the files that differ.
CAT5 = {
    "scores_cot1.jsonl":
        "b896b9fe6cac39cac59c2e9307cd163e43b9d1b2ff08d0482ce7d2dc891dce51",
    "scores_cot2.jsonl":
        "ff05734dec330db9ebb88b68824c9b3a1d1deaf4dd2729b817aaac47a35a5e0f",
    "scores_gemba.jsonl":
        "eff887a382c9f8d58cc0a1bf460e11f35a8701de2c071415de546d1defaef4d8",
    "scores_prompt1_perplexity.jsonl":
        "fb76031173d4955aeb81d054226ba98eea125b1fc7e665b445d4fda248528eab",
    "scores_prompt2_token.jsonl":
        "5df73940cba9a84e328f281ec03f77cbf63e16dcfa2fb02985036a5861447ed8",
    "scores_prompt3_sentence.jsonl":
        "89215861fdfb5e8eabe9498fc81c776e6a08a85b416f7a2b57db701cb15fa9b4",
}

# case -> (mode, step_failure, fault or None, expected exit code, {file: sha256})
CASES = {
    "cat5": ("cat5", "abort_pair", None, 0, CAT5),
    "cat3": ("cat3", "abort_pair", None, 0, {
        "scores_cot1.jsonl":
            "30f82b1d2efba36c953c4d5504323c51e28aff83a9d9431acb50c342f39fc2c7",
        "scores_cot2.jsonl":
            "5b8257bb961fee9210c7dabd7b04f7670226ea7998d90f09f916ec74bfb19b0d",
        "scores_gemba.jsonl":
            "aef8b2922a1c5c13050e02191450c5d0c9c16115a1273b8b20da336efb464177",
        "scores_prompt1_perplexity.jsonl":
            "45c309b58fdbb13be7b55193d8e5b79aaa9515bc76cd2f9b4c9e8dfd9b910816",
        "scores_prompt2_token.jsonl":
            "7ff70250a1c6cc452a1c01ee0cd8fc44ade537ba4b407764278b294124fb342d",
        "scores_prompt3_sentence.jsonl":
            "ac9463cd69bc536b1cd14abf02d2310d24d48fa995254af1c168d946ef6008c8",
    }),
    "step_garbled_abort": (
        "cat5", "abort_pair", ("kpe_perplexity", "garble"), 2, {
            **CAT5,
            "scores_cot1.jsonl":
                "1f821bc6953aa0e870d12cb1ad018d99fc247bc2d9a74d9a90578edf49443d93",
            "scores_cot2.jsonl":
                "713be8b2c12144ea39ca215953ce32c4272834cb177be51fe9e4138cddf5aed6",
            "scores_prompt1_perplexity.jsonl":
                "73323a54324721df87f29db608d4a0ed86e2de03aeb52755d1774df78e46a147",
        },
    ),
    "step_garbled_substitute": (
        "cat5", "substitute_middle", ("kpe_perplexity", "garble"), 2, {
            **CAT5,
            "scores_cot1.jsonl":
                "ca253b638552b3377890467f8b1ed34f0178fd12dbe50f95ffb811c36a99ba9a",
            "scores_cot2.jsonl":
                "3ef69818c68fd8ed4289340fd9b42787d1843eee44bfad5eb8295415a922e83f",
            "scores_prompt1_perplexity.jsonl":
                "73323a54324721df87f29db608d4a0ed86e2de03aeb52755d1774df78e46a147",
        },
    ),
    "combine_garbled_abort": (
        "cat5", "abort_pair", ("kpe_cot1_combine", "garble"), 2, {
            **CAT5,
            "scores_cot1.jsonl":
                "0cf088d6557483729e64fd0661c58f131766d15455af640659f12d1d6eb8a5b9",
        },
    ),
    "combine_garbled_substitute": (
        "cat5", "substitute_middle", ("kpe_cot1_combine", "garble"), 2, {
            **CAT5,
            "scores_cot1.jsonl":
                "0cf088d6557483729e64fd0661c58f131766d15455af640659f12d1d6eb8a5b9",
        },
    ),
    "transport_error": (
        "cat5", "abort_pair", ("kpe_token_sim", "raise"), 2, {
            **CAT5,
            "scores_cot1.jsonl":
                "b22180cb2d0e6b650a7b99e72fd15de17001661c33ce9a5587c531841b8fe71f",
            "scores_cot2.jsonl":
                "c333d77f196f55d19ac68d2d9582957a6a7c31ddf99d4af1206008f17cba57a5",
            "scores_prompt2_token.jsonl":
                "7fa272f42fc16722f710cb89a5115fef864c8d540d44c2bd366564849141277e",
        },
    ),
}


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_toy")
    write_toy_corpus(root)
    return root


@pytest.mark.parametrize("case", sorted(CASES))
def test_score_files_match_golden_digests(case, toy_dir, tmp_path, monkeypatch):
    mode, step_failure, fault, exit_code, expected = CASES[case]
    if fault is not None:
        build = kpe.cli._build_provider
        monkeypatch.setattr(
            kpe.cli,
            "_build_provider",
            lambda cfg, dataset: FaultyProvider(build(cfg, dataset), *fault),
        )
    result = CliRunner().invoke(main, [
        "score",
        "--segments", str(toy_dir / "segments.tsv"),
        "--outputs", str(toy_dir / "outputs.tsv"),
        "--provider", "mock",
        "--mock-fixtures", str(toy_dir / "fixtures.json"),
        "--out", str(tmp_path / "out"),
        "--cache-dir", str(tmp_path / "cache"),
        "--estimators", ALL_SIX,
        "--mode", mode,
        "--step-failure", step_failure,
    ])
    assert result.exit_code == exit_code, result.stderr
    got = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "out").glob("scores_*.jsonl"))
    }
    assert got == expected
