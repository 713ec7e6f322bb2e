from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import kpe.backend
from kpe.backend import (
    CompletionFailure,
    CompletionResult,
    FileCache,
    GenParams,
    HttpProvider,
    MockFixtures,
    MockProvider,
    cache_key,
    cached_complete,
    char_trigrams,
    overlap_bucket,
    request_digest,
    run_batch,
    trigram_overlap,
)
from kpe.corpus import EvalDataset, Segment, SystemOutput
from kpe.errors import (
    AuthError,
    CacheCorruptionError,
    MissingFixtureError,
    ProviderError,
    RateLimitError,
    TransportError,
)
from kpe.prompting import RenderedPrompt, builtin_templates, render_template

PARAMS = GenParams(model_id="model-x", temperature=0.0, max_tokens=256)


def _prompt(text: str, template_id: str = "gemba_classify") -> RenderedPrompt:
    return RenderedPrompt(
        template_id=template_id, version=1, final_text=text, bindings={}
    )


# digests ----------------------------------------------------------------

def test_cache_key_golden():
    # frozen digest: any canonicalization change must be caught deliberately
    assert (
        cache_key("model-x", "gemba_classify", 1, "final text", PARAMS)
        == "4cdfae56f644733df991f864439c97e76e94293c4601e1934a49e8db03c257f1"
    )
    stop_params = GenParams(
        model_id="model-x", temperature=0.0, max_tokens=256, stop=("a", "b")
    )
    assert (
        cache_key("model-x", "gemba_classify", 1, "final text", stop_params)
        == "6b44e6b7371f1869ae92f84b2ff146363185bf46e63472cc44dfd18f69a90014"
    )


def test_cache_key_field_boundaries():
    # length prefixes mean shifting a character across fields changes the key
    a = cache_key("m", "ab", 1, "c", PARAMS)
    b = cache_key("m", "a", 1, "bc", PARAMS)
    assert a != b


def test_cache_key_sensitivity():
    base = cache_key("m", "t", 1, "text", PARAMS)
    assert base != cache_key("m", "t", 2, "text", PARAMS)
    assert base != cache_key("m2", "t", 1, "text", PARAMS)
    hot = GenParams(model_id="m", temperature=0.7, max_tokens=256)
    assert base != cache_key("m", "t", 1, "text", hot)
    empty_stop = GenParams(model_id="m", temperature=0.0, max_tokens=256, stop=())
    assert base != cache_key("m", "t", 1, "text", empty_stop)


def test_cache_key_integer_temperature_normalized():
    as_int = GenParams(model_id="m", temperature=0, max_tokens=256)
    as_float = GenParams(model_id="m", temperature=0.0, max_tokens=256)
    assert cache_key("m", "t", 1, "x", as_int) == cache_key("m", "t", 1, "x", as_float)


# file cache -------------------------------------------------------------

ANSWER = "Class: Perfect translation"


def _entry(digest_text: str = "hello") -> tuple[str, RenderedPrompt]:
    """A request as the cache addresses it: its digest and its prompt."""
    prompt = _prompt(digest_text)
    return request_digest(prompt, PARAMS), prompt


def _log_path(cache: FileCache, digest: str) -> Path:
    return cache.cache_dir / f"{digest[0]}.log"


def _log_lines(cache_dir: Path) -> list[bytes]:
    """Every complete line of every log in cache_dir, without its newline."""
    return [line for log in sorted(Path(cache_dir).glob("*.log"))
            for line in log.read_bytes().split(b"\n")[:-1]]


def _edit_entry(cache: FileCache, digest: str, edit) -> None:
    """Rewrite the JSON of digest's log line through edit(raw bytes)."""
    path = _log_path(cache, digest)
    key = digest.encode("ascii")
    lines = [key + b" " + edit(line[65:]) if line[:64] == key else line
             for line in path.read_bytes().split(b"\n")[:-1]]
    path.write_bytes(b"".join(line + b"\n" for line in lines))


def _entry_json(digest: str, prompt: RenderedPrompt, text: str = ANSWER,
                created_at: float = 1000.0) -> bytes:
    """An entry's JSON, as put writes it."""
    entry = {**FileCache._request_fields(digest, prompt, PARAMS),
             "completion_text": text, "created_at": created_at}
    return json.dumps(entry, ensure_ascii=False, sort_keys=True).encode("utf-8")


def _legacy_path(cache: FileCache, digest: str) -> Path:
    return cache.cache_dir / digest[:2] / f"{digest}.json"


def _write_legacy(cache: FileCache, digest: str, data: bytes) -> Path:
    """Write an entry in the one-file-per-entry layout that the logs replaced."""
    path = _legacy_path(cache, digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _entries_starting(prefix: str, n: int) -> list[tuple[str, RenderedPrompt]]:
    """n requests whose digests start with prefix; a one-digit prefix puts them in one log."""
    found = []
    for i in itertools.count():
        digest, prompt = _entry(f"q{i}")
        if digest.startswith(prefix):
            found.append((digest, prompt))
            if len(found) == n:
                return found


def test_cache_put_get_round_trip(tmp_path, monkeypatch):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    monkeypatch.setattr(time, "time", lambda: 1000.0)
    cache.put(digest, prompt, PARAMS, ANSWER)
    assert cache.get(digest, prompt, PARAMS) == ANSWER
    assert (cache.hits, cache.misses, cache.writes) == (1, 0, 1)
    key, entry = _log_path(cache, digest).read_bytes().split(b" ", 1)
    assert key == digest.encode("ascii")
    assert entry.endswith(b"}\n") and entry.count(b"\n") == 1
    assert json.loads(entry) == {
        "request_digest": digest,
        "model_id": PARAMS.model_id,
        "template_id": prompt.template_id,
        "template_version": prompt.version,
        "final_text": prompt.final_text,
        "temperature": PARAMS.temperature,
        "max_tokens": PARAMS.max_tokens,
        "stop": None,
        "completion_text": ANSWER,
        "created_at": 1000.0,
    }


def test_cache_put_recreates_a_removed_shard(tmp_path):
    # the log, and the cache dir holding it, removed while the cache holds the log open
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    cache.put(digest, prompt, PARAMS, "first")
    shutil.rmtree(cache.cache_dir)
    cache.put(digest, prompt, PARAMS, ANSWER)
    assert cache.get(digest, prompt, PARAMS) == ANSWER
    assert [p.name for p in cache.cache_dir.iterdir()] == [f"{digest[0]}.log"]
    assert len(_log_lines(cache.cache_dir)) == 1
    assert cache.writes == 2


def test_cache_last_line_for_a_digest_wins(tmp_path):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    cache.put(digest, prompt, PARAMS, "first")
    cache.put(digest, prompt, PARAMS, ANSWER)
    assert FileCache(cache.cache_dir).get(digest, prompt, PARAMS) == ANSWER
    assert len(_log_lines(cache.cache_dir)) == 2


# written by the previous cache code, which re-hashed the stored fields on read
PARENT_CACHE = Path(__file__).parent / "data" / "cache"
PARENT_DIGEST = "d0fdb54b82126519b1acb585c53f45625710bbf128c8d1fae80f5d54f4ea076e"
PARENT_PARAMS = GenParams(model_id="model-x", temperature=0.7, max_tokens=64, stop=("\n", "Class:"))
PARENT_PROMPT = RenderedPrompt(
    template_id="kpe_sent_sim",
    version=1,
    final_text='source: "Grüße aus 北京"\nmachine translation: "greetings from Beijing"\nClass:',
    bindings={},
)


def test_cache_reads_and_rewrites_existing_entries_unchanged(tmp_path, monkeypatch):
    # an entry in the per-entry layout is a hit; a put writes its bytes as a log line
    assert request_digest(PARENT_PROMPT, PARENT_PARAMS) == PARENT_DIGEST
    stored = _legacy_path(FileCache(PARENT_CACHE), PARENT_DIGEST).read_bytes()
    old = FileCache(tmp_path / "old")
    _write_legacy(old, PARENT_DIGEST, stored)
    got = old.get(PARENT_DIGEST, PARENT_PROMPT, PARENT_PARAMS)
    assert got == "Class: Mostly similar meaning"
    assert (old.hits, old.corruptions) == (1, 0)

    new = FileCache(tmp_path / "new")
    monkeypatch.setattr(time, "time", lambda: 1786928612.027714)
    new.put(PARENT_DIGEST, PARENT_PROMPT, PARENT_PARAMS, got)
    assert _log_path(new, PARENT_DIGEST).read_bytes() == (
        PARENT_DIGEST.encode("ascii") + b" " + stored + b"\n"
    )


def test_cache_serves_the_checked_in_legacy_cache_and_writes_no_legacy_file(tmp_path):
    cache_dir = tmp_path / "cache"
    shutil.copytree(PARENT_CACHE, cache_dir)
    before = sorted(p.relative_to(cache_dir) for p in cache_dir.rglob("*"))
    cache = FileCache(cache_dir)
    assert cache.get(PARENT_DIGEST, PARENT_PROMPT, PARENT_PARAMS) == (
        "Class: Mostly similar meaning"
    )
    # a request of the same shard goes to its log, not to the shard's directory
    ((digest, prompt),) = _entries_starting(PARENT_DIGEST[:2], 1)
    assert cache.get(digest, prompt, PARAMS) is None
    cache.put(digest, prompt, PARAMS, ANSWER)
    assert cache.get(digest, prompt, PARAMS) == ANSWER
    assert (cache.hits, cache.misses, cache.corruptions) == (2, 1, 0)
    after = sorted(p.relative_to(cache_dir) for p in cache_dir.rglob("*"))
    assert after == sorted([*before, Path(f"{digest[0]}.log")])


def test_digest_falls_back_to_hashlib_without_builtin_sha256():
    # an interpreter built without its own SHA-256 module digests through hashlib
    src = str(Path(kpe.backend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from kpe.backend import GenParams, request_digest\n"
        "from kpe.prompting import RenderedPrompt\n"
        f"print(request_digest({PARENT_PROMPT!r}, {PARENT_PARAMS!r}), 'hashlib' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == [PARENT_DIGEST, "True"]


def test_cache_miss_counts(tmp_path):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    assert cache.get(digest, prompt, PARAMS) is None
    assert cache.misses == 1


def test_cache_sharded_layout(tmp_path):
    # one log per first hex digit of the digest, and nothing else
    cache = FileCache(tmp_path / "cache")
    entries = [_entry(f"q{i}") for i in range(100)]
    assert {digest[0] for digest, _ in entries} == set("0123456789abcdef")
    for digest, prompt in entries:
        cache.put(digest, prompt, PARAMS, ANSWER)
    assert sorted(p.name for p in cache.cache_dir.iterdir()) == [
        f"{h}.log" for h in "0123456789abcdef"
    ]
    assert all(p.is_file() for p in cache.cache_dir.iterdir())
    for log in cache.cache_dir.iterdir():
        assert {line[:1] for line in log.read_bytes().split(b"\n")[:-1]} == {log.name[0].encode()}
    assert len(_log_lines(cache.cache_dir)) == 100


def _set(key, value):
    def edit(raw: bytes) -> bytes:
        obj = json.loads(raw)
        obj[key] = value
        return json.dumps(obj).encode("utf-8")

    return edit


CORRUPTIONS = pytest.mark.parametrize("corrupt", [
    lambda raw: b"{ not json",
    lambda raw: raw.replace(b"Perfect", b"Perf\xffect"),  # invalid UTF-8
    lambda raw: b"[" + raw + b"]",  # a JSON list, not an object
    _set("completion_text", 5),  # digest and fields intact, the answer not text
    _set("request_digest", "0" * 64),
], ids=["not-json", "bad-utf8", "list", "answer-not-text", "digest-edited"])


@CORRUPTIONS
def test_corrupt_entry_quarantined(tmp_path, corrupt):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    cache.put(digest, prompt, PARAMS, ANSWER)
    _edit_entry(cache, digest, corrupt)
    assert cache.get(digest, prompt, PARAMS) is None
    assert (cache.hits, cache.misses, cache.corruptions) == (0, 1, 1)
    # the line left the index: asking again is a plain miss
    assert cache.get(digest, prompt, PARAMS) is None
    assert (cache.hits, cache.misses, cache.corruptions) == (0, 2, 1)
    # the answer asked again is appended, and as the last line it wins
    cache.put(digest, prompt, PARAMS, ANSWER)
    assert cache.get(digest, prompt, PARAMS) == ANSWER
    assert FileCache(cache.cache_dir).get(digest, prompt, PARAMS) == ANSWER


@CORRUPTIONS
def test_corrupt_legacy_entry_quarantined(tmp_path, corrupt):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    path = _write_legacy(cache, digest, corrupt(_entry_json(digest, prompt)))
    assert cache.get(digest, prompt, PARAMS) is None
    assert (cache.hits, cache.misses, cache.corruptions) == (0, 1, 1)
    assert path.with_suffix(".json.corrupt").exists()
    assert not path.exists()


def test_tampered_entry_fails_digest_check(tmp_path):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    cache.put(digest, prompt, PARAMS, ANSWER)
    _edit_entry(cache, digest, _set("final_text", "tampered"))
    assert cache.get(digest, prompt, PARAMS) is None
    assert cache.corruptions == 1


def test_entry_for_another_request_is_not_a_hit(tmp_path):
    # an entry is checked against the request asking, not only against itself
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    cache.put(digest, prompt, PARAMS, ANSWER)
    hot = GenParams(model_id=PARAMS.model_id, temperature=0.7, max_tokens=PARAMS.max_tokens)
    assert cache.get(digest, prompt, hot) is None
    assert cache.corruptions == 1


def test_cache_entry_removed_mid_read_is_a_miss(tmp_path, monkeypatch):
    # a concurrent gc or quarantine can unlink a legacy entry while get reads it
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    _write_legacy(cache, digest, _entry_json(digest, prompt))

    def open_after_unlink(path, *args, **kwargs):
        os.unlink(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(kpe.backend, "open", open_after_unlink, raising=False)
    assert cache.get(digest, prompt, PARAMS) is None
    assert (cache.hits, cache.misses, cache.corruptions) == (0, 1, 0)


def test_cache_log_removed_after_indexing_still_reads(tmp_path):
    # a gc replaces a log, or a user removes it: a cache that indexed it keeps
    # reading what it indexed, and one that did not finds a miss; neither is a
    # corruption
    cache = FileCache(tmp_path / "cache")
    (a, a_prompt), (b, b_prompt) = _entries_starting("0", 2)
    cache.put(a, a_prompt, PARAMS, ANSWER)
    cache.put(b, b_prompt, PARAMS, ANSWER)
    assert cache.get(a, a_prompt, PARAMS) == ANSWER
    _log_path(cache, a).unlink()
    assert cache.get(b, b_prompt, PARAMS) == ANSWER
    fresh = FileCache(cache.cache_dir)
    assert fresh.get(b, b_prompt, PARAMS) is None
    assert (cache.hits, cache.corruptions, fresh.misses, fresh.corruptions) == (2, 0, 1, 0)


def test_cache_get_other_os_errors_raise(tmp_path, monkeypatch):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    cache.put(digest, prompt, PARAMS, ANSWER)

    def denied(*args, **kwargs):
        raise PermissionError("pread")

    monkeypatch.setattr(os, "pread", denied)
    with pytest.raises(PermissionError):
        cache.get(digest, prompt, PARAMS)


def test_cache_get_other_os_errors_on_a_legacy_entry_raise(tmp_path, monkeypatch):
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    _write_legacy(cache, digest, _entry_json(digest, prompt))

    def denied(path, *args, **kwargs):
        raise PermissionError(str(path))

    monkeypatch.setattr(kpe.backend, "open", denied, raising=False)
    with pytest.raises(PermissionError):
        cache.get(digest, prompt, PARAMS)


def test_cache_log_cut_mid_line_is_a_miss_not_a_corruption(tmp_path):
    # a writer killed mid-line leaves a torn tail; the next writer ends it
    # first, so the torn line swallows no entry
    cache = FileCache(tmp_path / "cache")
    (a, a_prompt), (b, b_prompt) = _entries_starting("0", 2)
    cache.put(a, a_prompt, PARAMS, ANSWER)
    cache.put(b, b_prompt, PARAMS, ANSWER)
    log = _log_path(cache, a)
    data = log.read_bytes()
    log.write_bytes(data[: len(data) - 40])
    cache.close()
    reader = FileCache(cache.cache_dir)
    assert reader.get(b, b_prompt, PARAMS) is None
    assert reader.get(a, a_prompt, PARAMS) == ANSWER
    assert (reader.hits, reader.misses, reader.corruptions) == (1, 1, 0)
    writer = FileCache(cache.cache_dir)
    writer.put(b, b_prompt, PARAMS, "again")
    assert reader.get(b, b_prompt, PARAMS) == "again"
    assert FileCache(cache.cache_dir).get(b, b_prompt, PARAMS) == "again"
    assert FileCache(cache.cache_dir).get(a, a_prompt, PARAMS) == ANSWER
    assert reader.corruptions == 0


def test_cache_unterminated_tail_is_not_indexed(tmp_path):
    # a line without its newline is a write still in progress
    cache = FileCache(tmp_path / "cache")
    digest, prompt = _entry()
    log = _log_path(cache, digest)
    log.parent.mkdir()
    log.write_bytes(digest.encode("ascii") + b" " + _entry_json(digest, prompt))
    assert cache.get(digest, prompt, PARAMS) is None
    assert (cache.misses, cache.corruptions) == (1, 0)
    with open(log, "ab") as fh:
        fh.write(b"\n")
    assert cache.get(digest, prompt, PARAMS) == ANSWER
    assert cache.corruptions == 0


_PUTTER = """
import sys, time
from pathlib import Path
from kpe.backend import FileCache, GenParams, request_digest
from kpe.prompting import RenderedPrompt

cache_dir, who, go = sys.argv[1], sys.argv[2], Path(sys.argv[3])
params = GenParams(model_id="model-x", temperature=0.0, max_tokens=256)
cache = FileCache(cache_dir)
deadline = time.monotonic() + 30
while not go.exists() and time.monotonic() < deadline:
    time.sleep(0.001)
for i in range(200):
    prompt = RenderedPrompt(template_id="gemba_classify", version=1,
                            final_text=f"{who}-{i} " + "x" * (i * 37 % 3000), bindings={})
    cache.put(request_digest(prompt, params), prompt, params, f"echo {who}-{i}")
"""


def test_cache_two_processes_appending_at_once_lose_no_entry(tmp_path):
    src = str(Path(kpe.backend.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cache_dir, go = tmp_path / "cache", tmp_path / "go"
    putters = [subprocess.Popen([sys.executable, "-c", _PUTTER, str(cache_dir), who, str(go)],
                                env=env) for who in ("a", "b")]
    try:
        time.sleep(0.3)  # both interpreters start before either writes
        go.touch()
        assert [p.wait(timeout=60) for p in putters] == [0, 0]
    finally:
        for p in putters:
            p.kill()
            p.wait()
    reader = FileCache(cache_dir)
    for who in ("a", "b"):
        for i in range(200):
            prompt = _prompt(f"{who}-{i} " + "x" * (i * 37 % 3000))
            assert reader.get(request_digest(prompt, PARAMS), prompt, PARAMS) == f"echo {who}-{i}"
    assert (reader.hits, reader.misses, reader.corruptions) == (400, 0, 0)
    assert len(_log_lines(cache_dir)) == 400


def test_cache_close_releases_its_descriptors(tmp_path):
    fd_dir = Path("/proc/self/fd")
    if not fd_dir.is_dir():
        pytest.skip("needs /proc/self/fd")
    gc.collect()  # earlier tests' caches close their logs now, not during the count
    before = len(list(fd_dir.iterdir()))
    cache = FileCache(tmp_path / "cache")
    entries = [_entry(f"q{i}") for i in range(20)]
    for digest, prompt in entries:
        cache.put(digest, prompt, PARAMS, ANSWER)
        assert cache.get(digest, prompt, PARAMS) == ANSWER
    assert len(list(fd_dir.iterdir())) > before
    cache.close()
    assert len(list(fd_dir.iterdir())) == before
    # a closed cache opens its logs again; a collected one closes them itself
    assert all(cache.get(d, p, PARAMS) == ANSWER for d, p in entries)
    del cache
    assert len(list(fd_dir.iterdir())) == before


def test_cache_gc_by_age(tmp_path, monkeypatch):
    cache = FileCache(tmp_path / "cache")
    entries = [_entry(f"q{i}") for i in range(40)]
    for i, (digest, prompt) in enumerate(entries):
        monkeypatch.setattr(time, "time", lambda: 1000.0 if i % 2 else 1e9)
        cache.put(digest, prompt, PARAMS, ANSWER)
    # lines that no read would serve go too: one that is no entry, two whose
    # stored request or answer fails the check, and a torn tail
    digest, prompt = entries[0]
    key, stored = digest.encode("ascii"), _entry_json(digest, prompt, created_at=1e9)
    with open(_log_path(cache, digest), "ab") as fh:
        fh.write(b"not an entry\n")
        for edit in (_set("final_text", "tampered"), _set("completion_text", 5)):
            fh.write(key + b" " + edit(stored) + b"\n")
        fh.write(key + b' {"created_')
    monkeypatch.undo()
    removed = cache.gc(max_age_s=3600, now=1e9 + 10)
    assert removed == 20 + 4
    fresh = FileCache(cache.cache_dir)
    assert [fresh.get(d, p, PARAMS) for d, p in entries] == [
        None if i % 2 else ANSWER for i in range(len(entries))
    ]
    assert fresh.corruptions == 0
    assert len(_log_lines(cache.cache_dir)) == 20
    assert sorted(p.suffix for p in cache.cache_dir.iterdir()) == [".log"] * len(
        {d[0] for d, _ in entries}
    )
    assert cache.gc(max_age_s=3600, now=1e9 + 10) == 0


def test_cache_gc_clears_the_lines_a_corruption_storm_left(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    prompts = [_prompt(f"q{i}") for i in range(4)]
    run_batch(provider, cache, prompts, PARAMS)
    for prompt in prompts[:3]:
        _edit_entry(cache, request_digest(prompt, PARAMS), _set("request_digest", "0" * 64))
    for _ in range(2):  # the corrupt lines stay in their logs, so a rerun stops again
        with pytest.raises(CacheCorruptionError):
            run_batch(provider, FileCache(cache.cache_dir), prompts, PARAMS)
    assert FileCache(cache.cache_dir).gc(max_age_s=3600) == 3
    rerun = FileCache(cache.cache_dir)
    results = run_batch(provider, rerun, prompts, PARAMS)
    assert [r.text for r in results] == [f"echo q{i}" for i in range(4)]
    assert (provider.calls, rerun.hits, rerun.corruptions) == (4 + 3, 1, 0)


def test_cache_gc_ages_legacy_files_by_mtime(tmp_path):
    cache = FileCache(tmp_path / "cache")
    (fresh, fresh_prompt), (aged, aged_prompt) = _entry("fresh"), _entry("aged")
    _write_legacy(cache, fresh, _entry_json(fresh, fresh_prompt))
    aged_path = _write_legacy(cache, aged, _entry_json(aged, aged_prompt))
    os.utime(aged_path, (1000, 1000))
    removed = cache.gc(max_age_s=3600, now=time.time())
    assert removed == 1
    assert cache.get(fresh, fresh_prompt, PARAMS) is not None
    assert not aged_path.exists()


def test_cache_gc_during_a_warm_batch_gives_hits_or_misses(tmp_path, monkeypatch):
    # gc replaces half the logs after this cache indexed them and before it
    # reads the rest: every lookup is a hit or a miss, never a corruption
    entries = [_entry(f"q{i}") for i in range(64)]
    filler = FileCache(tmp_path / "cache")
    for i, (digest, prompt) in enumerate(entries):
        monkeypatch.setattr(time, "time", lambda: 1000.0 if i % 2 else 1e9)
        filler.put(digest, prompt, PARAMS, f"echo {prompt.final_text}")
    monkeypatch.undo()
    filler.close()
    by_log = sorted(entries, key=lambda entry: entry[0][0])
    collected = []

    class CollectingCache(FileCache):
        def get(self, digest, prompt, params):
            if digest[0] == "8" and not collected:
                collected.append(FileCache(self.cache_dir).gc(max_age_s=3600, now=1e9 + 10))
            return super().get(digest, prompt, params)

    cache, provider = CollectingCache(tmp_path / "cache"), CountingProvider()
    prompts = [prompt for _, prompt in by_log]
    results = run_batch(provider, cache, prompts, PARAMS, max_in_flight=2)
    assert collected == [32]
    assert [r.text for r in results] == [f"echo {p.final_text}" for p in prompts]
    assert cache.corruptions == 0
    before = [i for i, (digest, _) in enumerate(by_log) if digest[0] < "8"]
    aged_after = [i for i, (digest, p) in enumerate(by_log)
                  if digest[0] >= "8" and int(p.final_text[1:]) % 2]
    assert all(results[i].from_cache for i in before)
    assert sorted(provider.seen) == sorted(by_log[i][1].final_text for i in aged_after)
    assert (cache.hits, cache.misses) == (64 - len(aged_after), len(aged_after))


# http provider ----------------------------------------------------------

class FakeSession:
    def __init__(self, script):
        # script items: a (status, body bytes) reply or an exception to raise
        self.script = list(script)
        self.requests = []

    def post(self, url, body, headers, timeout):
        self.requests.append({"url": url, "json": json.loads(body), "headers": headers})
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _reply(obj) -> tuple[int, bytes]:
    return 200, json.dumps(obj).encode("utf-8")


def _ok(text: str) -> tuple[int, bytes]:
    return _reply({"choices": [{"message": {"content": text}}]})


def _provider(script, **kwargs) -> tuple[HttpProvider, FakeSession, list]:
    session = FakeSession(script)
    sleeps: list[float] = []
    provider = HttpProvider(
        "https://api.example.test/v1/chat/completions",
        api_key="sk-test",
        session=session,
        sleep=sleeps.append,
        max_attempts=5,
        **kwargs,
    )
    return provider, session, sleeps


def test_http_success_payload_and_auth_header():
    provider, session, _ = _provider([_ok("hi")])
    text = provider.complete(_prompt("ping"), PARAMS)
    assert text == "hi"
    req = session.requests[0]
    assert req["json"]["model"] == "model-x"
    assert req["json"]["messages"] == [{"role": "user", "content": "ping"}]
    assert req["headers"]["Authorization"] == "Bearer sk-test"


def test_http_retries_5xx_with_backoff():
    provider, _, sleeps = _provider([(500, b""), (503, b""), _ok("ok")])
    assert provider.complete(_prompt("x"), PARAMS) == "ok"
    assert sleeps == [1.0, 2.0]
    assert provider.attempts == 3


def test_http_rate_limit_exhausts_attempts():
    provider, _, sleeps = _provider([(429, b"")] * 5)
    with pytest.raises(RateLimitError):
        provider.complete(_prompt("x"), PARAMS)
    assert sleeps == [1.0, 2.0, 4.0, 8.0]


def test_http_transport_errors_retried():
    provider, _, _ = _provider(
        [ConnectionError("boom"), (408, b""), _ok("ok")]
    )
    assert provider.complete(_prompt("x"), PARAMS) == "ok"


def test_http_auth_error_not_retried():
    provider, session, sleeps = _provider([(401, b"")])
    with pytest.raises(AuthError):
        provider.complete(_prompt("x"), PARAMS)
    assert sleeps == []
    assert len(session.requests) == 1


def test_http_client_error_not_retried():
    provider, _, _ = _provider([(404, b"")])
    with pytest.raises(ProviderError) as err:
        provider.complete(_prompt("x"), PARAMS)
    assert not isinstance(err.value, (AuthError, RateLimitError, TransportError))


def test_http_malformed_body_is_provider_error():
    provider, _, _ = _provider([(200, b"<html>busy</html>")])
    with pytest.raises(ProviderError):
        provider.complete(_prompt("x"), PARAMS)
    provider2, _, _ = _provider([_reply({"choices": []})])
    with pytest.raises(ProviderError):
        provider2.complete(_prompt("x"), PARAMS)


def test_http_truncated_answer_is_a_provider_error_not_retried(tmp_path):
    def answer(finish_reason):
        choice = {"message": {"content": "Class: Perf"}, "finish_reason": finish_reason}
        return _reply({"choices": [choice]})

    provider, session, sleeps = _provider([answer("length")])
    with pytest.raises(ProviderError, match="cut off at max_tokens=256"):
        provider.complete(_prompt("x"), PARAMS)
    assert sleeps == [] and len(session.requests) == 1
    # in a batch it is the prompt's recorded failure, and nothing is cached
    provider, _, _ = _provider([answer("length")])
    cache = FileCache(tmp_path / "cache")
    (outcome,) = run_batch(provider, cache, [_prompt("x")], PARAMS)
    assert isinstance(outcome, CompletionFailure)
    assert type(outcome.exception) is ProviderError
    assert "cut off" in str(outcome.exception)
    assert _log_lines(cache.cache_dir) == []
    assert not cache.cache_dir.exists()
    provider, _, _ = _provider([answer("stop")])
    assert provider.complete(_prompt("x"), PARAMS) == "Class: Perf"


# trigram grading --------------------------------------------------------

def test_char_trigrams():
    assert char_trigrams("abcd") == {"abc", "bcd"}
    assert char_trigrams("ab") == set()


def test_trigram_overlap_hand_case():
    # 12 distinct trigrams each; 9 shared -> 0.75
    assert trigram_overlap("he came today.", "he come today.") == 0.75


def test_trigram_overlap_edges():
    assert trigram_overlap("same text", "same text") == 1.0
    assert trigram_overlap("abcdef", "uvwxyz") == 0.0
    assert trigram_overlap("ab", "ab") == 1.0
    assert trigram_overlap("ab", "cd") == 0.0
    assert trigram_overlap("ab", "abc") == 0.0


def test_overlap_bucket_edges():
    assert [overlap_bucket(o, 5) for o in (0.0, 0.19, 0.2, 0.4, 0.6, 0.8, 1.0)] == [
        0, 0, 1, 2, 3, 4, 4,
    ]
    assert overlap_bucket(0.5, 3) == 1
    assert overlap_bucket(1.0, 3) == 2


# mock provider ----------------------------------------------------------

def _tiny_fixtures() -> MockFixtures:
    segments = [
        Segment(lp="de-en", seg_id="s1", src_text="er kam heute."),
        Segment(lp="de-en", seg_id="s2", src_text="guten morgen."),
    ]
    outputs = [
        SystemOutput(lp="de-en", system_id="sysA", seg_id="s1", mt_text="he came today."),
        SystemOutput(lp="de-en", system_id="sysB", seg_id="s1", mt_text="he come today."),
        SystemOutput(lp="de-en", system_id="sysA", seg_id="s2", mt_text="qqqq zzzz"),
    ]
    dataset = EvalDataset.build(segments, outputs, [])
    refs = {("de-en", "s1"): "he came today.", ("de-en", "s2"): "good morning."}
    return MockFixtures.from_dataset(dataset, refs)


def _quality_prompt(mt: str, src: str = "er kam heute.") -> RenderedPrompt:
    template = builtin_templates().get("gemba_classify")
    return render_template(template, {"source_seg": src, "target_seg": mt})


def test_mock_identical_pair_top_class():
    provider = MockProvider(fixtures=_tiny_fixtures())
    text = provider.complete(_quality_prompt("he came today."), PARAMS)
    assert text == "Class: Perfect translation"


def test_mock_hand_overlap_case():
    provider = MockProvider(fixtures=_tiny_fixtures())
    # overlap 0.75 buckets to class 3 of 5
    text = provider.complete(_quality_prompt("he come today."), PARAMS)
    assert text == "Class: Most meaning preserved, minor issues"


def test_mock_disjoint_pair_bottom_class():
    provider = MockProvider(fixtures=_tiny_fixtures())
    text = provider.complete(_quality_prompt("qqqq zzzz", "guten morgen."), PARAMS)
    assert text == "Class: No meaning preserved"


def test_mock_stars_and_scalar_modes():
    fixtures = _tiny_fixtures()
    provider = MockProvider(fixtures=fixtures)
    registry = builtin_templates()
    stars_prompt = render_template(
        registry.get("gemba_stars"),
        {"source_seg": "er kam heute.", "target_seg": "he came today."},
    )
    assert provider.complete(stars_prompt, PARAMS) == "Stars: 5"
    scalar_prompt = render_template(
        registry.get("gemba_scalar"),
        {"source_seg": "er kam heute.", "target_seg": "he come today."},
    )
    assert provider.complete(scalar_prompt, PARAMS) == "Score: 75"


def test_mock_locate_falls_back_to_source_index():
    provider = MockProvider(fixtures=_tiny_fixtures())
    # unknown translation, known source: grade against that segment's ref
    text = provider.complete(_quality_prompt("he came today!", "er kam heute."), PARAMS)
    assert text.startswith("Class: ")


def test_mock_unknown_text_raises():
    provider = MockProvider(fixtures=_tiny_fixtures())
    with pytest.raises(MissingFixtureError):
        provider.complete(
            _quality_prompt("never seen before", "unbekannte quelle"), PARAMS
        )


def test_mock_combiner_rounds_half_up():
    provider = MockProvider(fixtures=_tiny_fixtures())
    template = builtin_templates().get("kpe_cot1_combine")
    prompt = render_template(
        template,
        {
            "source_seg": "er kam heute.",
            "target_seg": "he come today.",
            "perplexity_answer": "Moderately fluent",  # index 2
            "token_answer": "Most words preserved",  # index 3
        },
    )
    # mean 2.5 rounds half up to 3
    text = provider.complete(prompt, PARAMS)
    assert text == "Class: Most meaning preserved, minor issues"


def test_mock_alignment_cells():
    provider = MockProvider(fixtures=_tiny_fixtures())
    template = builtin_templates().get("kpe_token_align")
    prompt = render_template(
        template,
        {
            "source_seg": "1. He\n2. came\n3. .",
            "target_seg": "1. he\n2. went\n3. .",
        },
    )
    text = provider.complete(prompt, PARAMS)
    assert text.split("\n") == ["100, 2, 2", "2, 2, 2", "2, 2, 95"]


def test_fixtures_json_round_trip(tmp_path, toy):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(toy.fixtures.to_json_obj()), encoding="utf-8")
    reloaded = MockFixtures.from_json_file(path, toy.dataset)
    assert reloaded.refs == toy.fixtures.refs
    assert reloaded.aspect_refs == toy.fixtures.aspect_refs


# cached completion and batching ------------------------------------------

class CountingProvider:
    """Deterministic provider that records call order and can fail or stall."""

    def __init__(self, fail_texts=(), delay_texts=()):
        self.calls = 0
        self.seen = []
        self.fail_texts = set(fail_texts)
        self.delay_texts = set(delay_texts)
        self._lock = threading.Lock()

    def complete(self, prompt, params):
        with self._lock:
            self.calls += 1
            self.seen.append(prompt.final_text)
        if prompt.final_text in self.delay_texts:
            time.sleep(0.05)
        if prompt.final_text in self.fail_texts:
            raise ProviderError(f"refused {prompt.final_text!r}")
        return f"echo {prompt.final_text}"


def test_run_batch_cache_hit_and_miss(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    (first,) = run_batch(provider, cache, [_prompt("q")], PARAMS)
    (second,) = run_batch(provider, cache, [_prompt("q")], PARAMS)
    assert first.from_cache is False
    assert second.from_cache is True
    assert second.text == first.text == "echo q"
    assert second.latency_ms == 0
    assert provider.calls == 1


def test_a_provider_is_only_its_complete_method(tmp_path):
    provider = SimpleNamespace(complete=lambda prompt, params: f"echo {prompt.final_text}")
    cache = FileCache(tmp_path / "cache")
    (miss,) = run_batch(provider, cache, [_prompt("q")], PARAMS)
    (hit,) = run_batch(provider, cache, [_prompt("q")], PARAMS)
    assert (miss.text, miss.from_cache) == ("echo q", False)
    assert (hit.text, hit.from_cache) == ("echo q", True)


def test_cached_complete_reraises_the_provider_error(tmp_path):
    error = TransportError("connection refused")

    class DownProvider:
        def complete(self, prompt, params):
            raise error

    with pytest.raises(TransportError) as info:
        cached_complete(DownProvider(), FileCache(tmp_path / "cache"), _prompt("q"), PARAMS)
    assert info.value is error
    assert not (tmp_path / "cache").exists()


def test_run_batch_coalesces_duplicates(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    prompts = [_prompt(f"q{i % 40}") for i in range(100)]
    results = run_batch(provider, cache, prompts, PARAMS, max_in_flight=8)
    assert provider.calls == 40
    assert sum(1 for r in results if r.from_cache) == 60
    for prompt, result in zip(prompts, results):
        assert isinstance(result, CompletionResult)
        assert result.text == f"echo {prompt.final_text}"


class InterruptedProvider(CountingProvider):
    """Raises KeyboardInterrupt on the prompt `q<at>`.

    Prompts take 10 ms, and those after `q<at>` take 200 ms, which leaves
    the caller ample time to cancel what is still pending. Keying on the
    prompt rather than the call count keeps the outcome independent of
    the order in which two workers number their calls.
    """

    def __init__(self, at):
        super().__init__()
        self.at = at

    def complete(self, prompt, params):
        with self._lock:
            self.calls += 1
        item = int(prompt.final_text[1:])
        time.sleep(0.01 if item <= self.at else 0.2)
        if item == self.at:
            raise KeyboardInterrupt
        return f"echo {prompt.final_text}"


def test_run_batch_interrupt_cancels_pending_prompts_and_a_rerun_sends_the_rest(tmp_path):
    prompts = [_prompt(f"q{i}") for i in range(200)]
    provider = InterruptedProvider(at=14)  # the 15th prompt
    with pytest.raises(KeyboardInterrupt):
        run_batch(provider, FileCache(tmp_path / "cache"), prompts, PARAMS, max_in_flight=2)
    # pending prompts are cancelled; only the two workers' next calls may still start
    assert 15 <= provider.calls <= 15 + 2
    written = len(_log_lines(tmp_path / "cache"))
    assert written == provider.calls - 1  # every answered call, none of the interrupted one
    rerun, cache = CountingProvider(), FileCache(tmp_path / "cache")
    results = run_batch(rerun, cache, prompts, PARAMS, max_in_flight=2)
    assert (cache.hits, rerun.calls) == (written, 200 - written)
    assert [r.text for r in results] == [f"echo q{i}" for i in range(200)]


def test_run_batch_preserves_input_order(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider(delay_texts={"q0", "q3"})
    prompts = [_prompt(f"q{i}") for i in range(8)]
    results = run_batch(provider, cache, prompts, PARAMS, max_in_flight=4)
    for prompt, result in zip(prompts, results):
        assert result.request_digest == request_digest(prompt, PARAMS)
        assert result.text == f"echo {prompt.final_text}"


def test_run_batch_captures_item_failures(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider(fail_texts={"q2"})
    prompts = [_prompt(f"q{i}") for i in range(4)]
    results = run_batch(provider, cache, prompts, PARAMS)
    assert isinstance(results[2], CompletionFailure)
    assert type(results[2].exception) is ProviderError
    assert all(isinstance(r, CompletionResult) for i, r in enumerate(results) if i != 2)


@pytest.mark.parametrize("with_cache", [True, False], ids=["cache", "no-cache"])
@pytest.mark.parametrize("answer, message", [
    (None, "provider answer is NoneType, not text"),
    ("Class: \ud800", "provider answer is not UTF-8 text"),
], ids=["none", "lone-surrogate"])
def test_run_batch_an_answer_that_is_not_utf8_text_fails_its_item(
    tmp_path, answer, message, with_cache
):
    # the provider's answer to q2 is that item's ProviderError: it is not
    # cached, and the other items complete and are cached as usual
    class OddProvider(CountingProvider):
        def complete(self, prompt, params):
            text = super().complete(prompt, params)
            return answer if prompt.final_text == "q2" else text

    cache = FileCache(tmp_path / "cache") if with_cache else None
    prompts = [_prompt(f"q{i}") for i in range(4)]
    results = run_batch(OddProvider(), cache, prompts, PARAMS)
    assert isinstance(results[2], CompletionFailure)
    assert type(results[2].exception) is ProviderError
    assert message in str(results[2].exception)
    others = [results[i] for i in (0, 1, 3)]
    assert [r.text for r in others] == ["echo q0", "echo q1", "echo q3"]
    if with_cache:
        assert cache.writes == 3
        assert sorted(line[:64].decode() for line in _log_lines(cache.cache_dir)) == sorted(
            r.request_digest for r in others)


def test_run_batch_cache_write_failure_stops_the_batch(tmp_path):
    # a failed put is not a per-item failure: it ends the batch, and the
    # misses not yet started are never sent
    class FailingCache(FileCache):
        def put(self, digest, prompt, params, text):
            raise OSError("disk full")

    provider = CountingProvider()
    prompts = [_prompt(f"q{i}") for i in range(50)]
    with pytest.raises(OSError, match="disk full"):
        run_batch(provider, FailingCache(tmp_path / "cache"), prompts, PARAMS, max_in_flight=2)
    assert 1 <= provider.calls <= 2 + 1



def test_run_batch_sends_the_next_request_while_an_answer_is_written(tmp_path):
    # a slot is held for the provider call only, so with one slot the second
    # request goes out while the first answer is still being written
    second_call = threading.Event()
    waited = []

    class SignallingProvider(CountingProvider):
        def complete(self, prompt, params):
            text = super().complete(prompt, params)
            if self.calls >= 2:
                second_call.set()
            return text

    class WaitingCache(FileCache):
        def put(self, digest, prompt, params, text):
            waited.append(second_call.wait(timeout=2))
            super().put(digest, prompt, params, text)

    provider = SignallingProvider()
    prompts = [_prompt(f"q{i}") for i in range(3)]
    results = run_batch(provider, WaitingCache(tmp_path / "cache"), prompts, PARAMS,
                        max_in_flight=1)
    assert [r.text for r in results] == ["echo q0", "echo q1", "echo q2"]
    assert waited == [True, True, True]


@pytest.mark.parametrize("max_in_flight", [1, 2, 4])
def test_run_batch_slow_writes_keep_provider_calls_within_max_in_flight(tmp_path,
                                                                        max_in_flight):
    class PeakProvider(CountingProvider):
        active = peak = 0

        def complete(self, prompt, params):
            with self._lock:
                self.active += 1
                self.peak = max(self.peak, self.active)
            try:
                time.sleep(0.002)
                return super().complete(prompt, params)
            finally:
                with self._lock:
                    self.active -= 1

    class SlowCache(FileCache):
        def put(self, digest, prompt, params, text):
            time.sleep(0.005)
            super().put(digest, prompt, params, text)

    provider, cache = PeakProvider(), SlowCache(tmp_path / "cache")
    prompts = [_prompt(f"q{i}") for i in range(40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        results = run_batch(provider, cache, prompts, PARAMS, max_in_flight=max_in_flight)
    finally:
        sys.setswitchinterval(interval)
    assert [r.text for r in results] == [f"echo q{i}" for i in range(40)]
    assert 1 <= provider.peak <= max_in_flight
    assert (provider.calls, cache.writes) == (40, 40)


def test_run_batch_without_cache():
    provider = CountingProvider()
    prompts = [_prompt("a"), _prompt("a"), _prompt("b")]
    results = run_batch(provider, None, prompts, PARAMS)
    assert provider.calls == 2
    assert [r.text for r in results] == ["echo a", "echo a", "echo b"]


def _corrupt(cache, prompt):
    """Append a garbled line for the prompt's digest; as the last line, it wins."""
    digest = request_digest(prompt, PARAMS)
    cache.cache_dir.mkdir(parents=True, exist_ok=True)
    with open(_log_path(cache, digest), "ab") as fh:
        fh.write(digest.encode("ascii") + b" garbage\n")


def _corrupt_legacy(cache, prompt):
    return _write_legacy(cache, request_digest(prompt, PARAMS), b"garbage")


def test_run_batch_corruption_storm_aborts(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    prompts = [_prompt(f"q{i}") for i in range(4)]
    run_batch(provider, cache, prompts, PARAMS)
    for prompt in prompts[:3]:
        _edit_entry(cache, request_digest(prompt, PARAMS), lambda raw: b"garbage")
    with pytest.raises(CacheCorruptionError):
        run_batch(provider, cache, prompts, PARAMS, max_in_flight=1)
    assert cache.corruptions >= 3
    assert provider.calls == 4  # the filling batch's, none after the storm


def test_run_batch_corruption_storm_aborts_on_legacy_entries(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    prompts = [_prompt(f"q{i}") for i in range(4)]
    for prompt in prompts[:3]:
        _corrupt_legacy(cache, prompt)
    with pytest.raises(CacheCorruptionError):
        run_batch(provider, cache, prompts, PARAMS, max_in_flight=1)
    assert cache.corruptions >= 3


def test_run_batch_storm_checked_before_any_provider_call(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    prompts = [_prompt(f"q{i}") for i in range(4)]
    for prompt in prompts[:3]:
        _corrupt(cache, prompt)
    with pytest.raises(CacheCorruptionError):
        run_batch(provider, cache, prompts, PARAMS, max_in_flight=4)
    assert provider.calls == 0


def test_run_batch_small_batch_corruption_is_a_miss(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    _corrupt(cache, _prompt("q"))
    (result,) = run_batch(provider, cache, [_prompt("q")], PARAMS)
    assert result.text == "echo q"
    assert result.from_cache is False
    assert provider.calls == 1
    assert cache.corruptions == 1
    # the answer asked again is the log's last line
    key, entry = _log_lines(cache.cache_dir)[-1].split(b" ", 1)
    assert key == result.request_digest.encode("ascii")
    assert json.loads(entry)["completion_text"] == "echo q"
    assert cache.get(result.request_digest, _prompt("q"), PARAMS) == "echo q"
    assert FileCache(cache.cache_dir).get(result.request_digest, _prompt("q"), PARAMS) == "echo q"


def test_run_batch_small_batch_corrupt_legacy_entry_is_a_miss(tmp_path):
    cache = FileCache(tmp_path / "cache")
    provider = CountingProvider()
    path = _corrupt_legacy(cache, _prompt("q"))
    (result,) = run_batch(provider, cache, [_prompt("q")], PARAMS)
    assert result.text == "echo q"
    assert result.from_cache is False
    assert provider.calls == 1
    assert cache.corruptions == 1
    assert path.with_suffix(".json.corrupt").exists()
    assert cache.get(result.request_digest, _prompt("q"), PARAMS) == "echo q"


def test_run_batch_all_cached_opens_no_pool(tmp_path, monkeypatch):
    cache = FileCache(tmp_path / "cache")
    prompts = [_prompt(f"q{i % 3}") for i in range(6)]
    run_batch(CountingProvider(), cache, prompts, PARAMS)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a fully cached batch must not open a pool")

    monkeypatch.setattr(kpe.backend, "ThreadPoolExecutor", NoPool)
    provider = CountingProvider()
    results = run_batch(provider, cache, prompts, PARAMS)
    assert provider.calls == 0
    assert [r.text for r in results] == [f"echo {p.final_text}" for p in prompts]
    assert all(r.from_cache and r.latency_ms == 0 for r in results)


def test_run_batch_submits_one_pool_task_per_worker(tmp_path, monkeypatch):
    # each task sends misses until none are left, so the pool's bookkeeping
    # grows with its workers, not with the batch
    from concurrent.futures import ThreadPoolExecutor

    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            submitted.append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(kpe.backend, "ThreadPoolExecutor", CountingPool)
    provider = CountingProvider()
    prompts = [_prompt(f"q{i}") for i in range(200)]
    results = run_batch(provider, FileCache(tmp_path / "a"), prompts, PARAMS, max_in_flight=2)
    assert len(submitted) == 3
    assert provider.calls == 200
    assert [r.text for r in results] == [f"echo q{i}" for i in range(200)]
    submitted.clear()
    results = run_batch(CountingProvider(), FileCache(tmp_path / "b"), [_prompt("only")],
                        PARAMS, max_in_flight=2)
    assert len(submitted) == 1
    assert [r.text for r in results] == ["echo only"]


def test_warm_run_batch_hashes_each_prompt_once(tmp_path, monkeypatch):
    # a hit is verified against the request's fields, not by hashing the entry again
    cache = FileCache(tmp_path / "cache")
    prompts = [_prompt(f"q{i}") for i in range(10)]
    run_batch(CountingProvider(), cache, prompts, PARAMS)
    hashed = []
    original = kpe.backend.cache_key

    def counting(*args):
        hashed.append(args)
        return original(*args)

    monkeypatch.setattr(kpe.backend, "cache_key", counting)
    provider = CountingProvider()
    results = run_batch(provider, cache, prompts, PARAMS)
    assert [r.text for r in results] == [f"echo {p.final_text}" for p in prompts]
    assert (provider.calls, cache.hits) == (0, len(prompts))
    assert len(hashed) == len(prompts)


def test_run_batch_mixed_hits_misses_and_duplicates(tmp_path):
    cache = FileCache(tmp_path / "cache")
    run_batch(CountingProvider(), cache, [_prompt("hit0"), _prompt("hit1")], PARAMS)
    provider = CountingProvider(delay_texts={"miss0"})
    texts = ["miss0", "hit0", "miss1", "miss0", "hit1", "hit0", "miss1", "miss2"]
    results = run_batch(provider, cache, [_prompt(t) for t in texts], PARAMS)
    assert sorted(provider.seen) == ["miss0", "miss1", "miss2"]
    assert [r.text for r in results] == [f"echo {t}" for t in texts]
    assert [r.request_digest for r in results] == [
        request_digest(_prompt(t), PARAMS) for t in texts
    ]
    # a hit, or a later member of any duplicate group, is served from cache
    assert [r.from_cache for r in results] == [
        False, True, False, True, True, True, True, False,
    ]
    for i in (1, 3, 4, 5, 6):
        assert results[i].latency_ms == 0
    assert results[0].latency_ms >= 40


class _ReadCounting:
    """A prompt sequence that counts how often each item is read."""

    def __init__(self, texts):
        self.texts = texts
        self.reads = [0] * len(texts)

    def __len__(self):
        return len(self.texts)

    def __getitem__(self, i):
        prompt = _prompt(self.texts[i])
        self.reads[i] += 1
        return prompt


def test_run_batch_reads_each_item_once_and_each_miss_again(tmp_path):
    # one pass reads, digests and looks up each item; a group is looked up
    # once, by its first member, even when that entry is corrupt, and a
    # duplicate that follows a hit settles as a hit; the worker that sends a
    # miss reads it again
    looked_up = []

    class RecordingCache(FileCache):
        def get(self, digest, prompt, params):
            looked_up.append(prompt.final_text)
            return super().get(digest, prompt, params)

    cache = RecordingCache(tmp_path / "cache")
    run_batch(CountingProvider(), cache, [_prompt("hit")], PARAMS)
    _corrupt(cache, _prompt("bad"))
    looked_up.clear()
    provider = CountingProvider()
    prompts = _ReadCounting(["hit", "bad", "hit", "bad", "new", "hit"])
    results = run_batch(provider, cache, prompts, PARAMS, max_in_flight=2)
    assert looked_up == ["hit", "bad", "new"]
    assert cache.corruptions == 1
    assert sorted(provider.seen) == ["bad", "new"]
    assert prompts.reads == [1, 2, 1, 1, 2, 1]
    assert [r.text for r in results] == [f"echo {t}" for t in prompts.texts]
    assert [r.from_cache for r in results] == [True, False, True, True, False, True]
    assert all(results[i].latency_ms == 0 for i in (0, 2, 3, 5))


def test_run_batch_digests_each_prompt_once(tmp_path, monkeypatch):
    calls = []
    original = kpe.backend.request_digest

    def counting(prompt, params):
        calls.append(prompt.final_text)
        return original(prompt, params)

    monkeypatch.setattr(kpe.backend, "request_digest", counting)
    cache = FileCache(tmp_path / "cache")
    prompts = [_prompt(f"q{i % 5}") for i in range(12)]
    run_batch(CountingProvider(), cache, prompts, PARAMS)
    assert len(calls) == 12
    calls.clear()
    run_batch(CountingProvider(), cache, prompts, PARAMS)
    assert len(calls) == 12


def test_run_batch_rejects_bad_concurrency():
    with pytest.raises(ValueError):
        run_batch(CountingProvider(), None, [], PARAMS, max_in_flight=0)


def test_run_batch_empty():
    assert run_batch(CountingProvider(), None, [], PARAMS) == []
