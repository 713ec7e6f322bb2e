"""Completion providers, response cache, and the bounded batch executor.

A provider is one method, `complete(prompt, params)`, returning the answer
text. The HTTP provider owns the chat-completions request: it checks its
endpoint when built (`check_endpoint`), encodes the JSON payload and decodes
the (status, body) that the byte pipe in `kpe.transport` returns. The mock
provider grades deterministically from pseudo-reference fixtures so the
whole harness runs offline; it reads which estimator asked a prompt, and the
aspect that estimator is graded on, from `kpe.prompting.ESTIMATORS`.
`run_batch` is the one caller of a provider and of the cache, and
`cached_complete` is its one-prompt case. The cache keys responses by a
content digest over (model, template id, template version, final prompt
text, generation parameters), a SHA-256 from the interpreter's built-in
module, so no run loads OpenSSL for it. Cache entries are plain JSON
files, written atomically in one binary write, that store the request's
own fields next to the answer; a read is a hit only if the stored digest
and fields equal the request's, and anything that fails the check is
quarantined and treated as a miss. A fully cached run loads neither
concurrent.futures nor logging: the thread pool is imported for the first
batch with a miss, logging for the first quarantine.

`run_batch` reads its prompts by index from any sequence, so a caller can
render each prompt when it is read and no batch holds every prompt text at
once. One pass reads each item, digests it, coalesces it with its
duplicates and looks it up in the cache while it is alive; the worker that
sends a miss reads that item once more. Misses go out in input order from
at most max_in_flight + 1 worker threads. The pool holds one task per
worker, and each worker sends misses until none are left. A worker holds
one of max_in_flight slots only while the provider call runs. It writes
the answer to the cache after letting its slot go, so another worker's
request goes out during the write, while the provider never sees more
than max_in_flight requests (or, over the keep-alive transport,
connections) at once. Once a worker raises, or the caller leaves the
batch, no worker sends another request.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import urlsplit

# The built-in SHA-256, as random.py takes it: hashlib would map OpenSSL for it.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from .corpus import EvalDataset
from .errors import (
    AuthError,
    CacheCorruptionError,
    ConfigError,
    KpeError,
    MissingFixtureError,
    ProviderError,
    RateLimitError,
    TransportError,
)
from .parsing import category_to_ordinal
from .prompting import (
    ANSWER_ANCHORS,
    ESTIMATORS,
    RenderedPrompt,
    ResponseSchema,
    builtin_templates,
    parse_token_list,
)

# Imported by run_batch for its first pool; perfbench/tracing.py replaces
# kpe.backend.ThreadPoolExecutor to time pool tasks.
ThreadPoolExecutor = None


@dataclass(frozen=True)
class GenParams:
    model_id: str
    temperature: float = 0.0
    max_tokens: int = 256
    stop: tuple[str, ...] | None = None


@dataclass(frozen=True, slots=True)
class CompletionResult:
    text: str
    from_cache: bool
    latency_ms: int
    request_digest: str


@dataclass(frozen=True)
class CompletionFailure:
    """Per-item error captured by run_batch instead of raising.

    exception is the provider's error itself, so a caller can re-raise it.
    """

    request_digest: str
    exception: KpeError


# digests -------------------------------------------------------------------

def _encode_part(part: str) -> bytes:
    data = part.encode("utf-8")
    return b"%d:%s" % (len(data), data)


def cache_key(
    model_id: str,
    template_id: str,
    template_version: int,
    final_text: str,
    params: GenParams,
) -> str:
    """64-hex digest over a canonical, length-prefixed field serialization.

    Field order is fixed; every field is length-prefixed, so no separator
    collision can make two different requests collide. Stable across
    platforms and processes.
    """
    parts = [
        model_id,
        template_id,
        str(int(template_version)),
        final_text,
        repr(float(params.temperature)),
        str(int(params.max_tokens)),
    ]
    if params.stop is None:
        parts.append("stop:none")
    else:
        parts.append(f"stop:{len(params.stop)}")
        parts.extend(params.stop)
    return sha256(b"".join(_encode_part(part) for part in parts)).hexdigest()


def request_digest(prompt: RenderedPrompt, params: GenParams) -> str:
    return cache_key(
        params.model_id, prompt.template_id, prompt.version, prompt.final_text, params
    )


# cache ---------------------------------------------------------------------

class FileCache:
    """Content-addressed response cache: <dir>/<digest[:2]>/<digest>.json."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self._root = str(self.cache_dir)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corruptions = 0

    def _path(self, digest: str) -> str:
        return f"{self._root}/{digest[:2]}/{digest}.json"

    @staticmethod
    def _request_fields(digest: str, prompt: RenderedPrompt, params: GenParams) -> dict:
        """The stored request as JSON values: its digest and the fields hashed into it."""
        return {
            "request_digest": digest,
            "model_id": params.model_id,
            "template_id": prompt.template_id,
            "template_version": prompt.version,
            "final_text": prompt.final_text,
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
            "stop": list(params.stop) if params.stop is not None else None,
        }

    def get(self, digest: str, prompt: RenderedPrompt, params: GenParams) -> str | None:
        """Return the cached answer, or None. Corrupt entries are quarantined.

        A hit is a JSON object that holds this request's digest and fields,
        and a string completion_text.
        """
        path = self._path(digest)
        try:
            # An entry can vanish at any moment (a concurrent `cache gc`, or
            # another run's quarantine), so a missing file is a miss however
            # late it went missing. Other OSErrors still raise.
            with open(path, "rb", buffering=0) as fh:  # unbuffered: read() takes the whole file
                raw = fh.read()
            obj = json.loads(raw.decode("utf-8"))  # json.loads(bytes) would take UTF-16 too
            valid = isinstance(obj["completion_text"], str) and all(
                obj[k] == v for k, v in self._request_fields(digest, prompt, params).items()
            )
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (ValueError, KeyError, TypeError):  # bad UTF-8 or JSON, no object, no field
            valid = False
        if not valid:
            self._quarantine(path)
            return None
        with self._lock:
            self.hits += 1
        return obj["completion_text"]

    def _quarantine(self, path: str) -> None:
        import logging  # here, so that a run without corrupt entries never loads it

        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass
        with self._lock:
            self.corruptions += 1
            self.misses += 1
        logging.getLogger(__name__).warning(
            "quarantined corrupt cache entry %s", os.path.basename(path)
        )

    def put(self, digest: str, prompt: RenderedPrompt, params: GenParams, text: str) -> None:
        """Atomic write of the request and its answer as one JSON object: temp file, then rename."""
        entry = self._request_fields(digest, prompt, params)
        entry.update(completion_text=text, created_at=time.time())
        data = json.dumps(entry, ensure_ascii=False, sort_keys=True).encode("utf-8")
        path = self._path(digest)
        shard = os.path.dirname(path)
        try:
            fd, tmp_name = tempfile.mkstemp(dir=shard, suffix=".tmp")
        except FileNotFoundError:  # the shard's first entry, or a shard removed since
            os.makedirs(shard, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with open(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        with self._lock:
            self.writes += 1

    def gc(self, max_age_s: float, now: float | None = None) -> int:
        """Delete entries, quarantined files and orphaned temp files older than max_age_s.

        Age is by mtime. A temp file is left behind when a put is killed
        before its rename; a younger one may be a put still in progress.
        """
        if now is None:
            now = time.time()
        cutoff = now - max_age_s
        removed = 0
        if not self.cache_dir.exists():
            return 0
        for path in sorted(self.cache_dir.glob("*/*")):
            if path.suffix not in (".json", ".corrupt", ".tmp"):
                continue
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                continue
        return removed


# http provider --------------------------------------------------------------

_RETRYABLE_STATUS = {408, 429}
_RETRY_BASE_S = 1.0


def check_endpoint(url: str) -> None:
    """Raise ConfigError unless url is http(s) with a host and a port in 0-65535."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"endpoint_url is not an http(s) URL with a host: {url!r}")
    try:
        parts.port
    except ValueError as exc:  # a port that is not a number in 0..65535
        raise ConfigError(f"endpoint_url {url!r}: {exc}") from exc


class HttpProvider:
    """Chat-completions client with exponential backoff.

    The endpoint is checked when the provider is built: a malformed URL is a
    ConfigError before any request. Retries transport failures, 408, 429
    and 5xx up to max_attempts, the delay doubling from _RETRY_BASE_S (1 s,
    2 s, 4 s, ...). 401/403 raise AuthError immediately; other 4xx, a body
    that is not the chat-completions JSON, and an answer cut off at
    max_tokens (finish_reason "length") raise ProviderError. The sleep
    function and the session are injectable for tests: a session is any
    object with post(url, body, headers, timeout) that sends the body bytes
    and returns the response's (status, body bytes). The default is
    kpe.transport.KeepAliveTransport, which holds at most one connection per
    request in flight and reuses it across batches; close it with
    provider.session.close(). OSError and http.client.HTTPException from the
    session are transport failures.
    """

    def __init__(
        self,
        endpoint_url: str,
        api_key: str | None = None,
        session=None,
        sleep=time.sleep,
        max_attempts: int = 5,
        timeout_s: float = 60.0,
    ) -> None:
        check_endpoint(endpoint_url)
        self.endpoint_url = endpoint_url
        self.api_key = api_key
        if session is None:
            # imported here, so that runs without this provider never load it
            from .transport import KeepAliveTransport

            session = KeepAliveTransport()
        self.session = session
        self.sleep = sleep
        self.max_attempts = max_attempts
        self.timeout_s = timeout_s
        self.provider_id = "http"
        self._lock = threading.Lock()
        self.calls = 0
        self.attempts = 0

    def complete(self, prompt: RenderedPrompt, params: GenParams) -> str:
        import http.client  # here, so that importing kpe.backend never loads it

        with self._lock:
            self.calls += 1
        payload = {
            "model": params.model_id,
            "messages": [{"role": "user", "content": prompt.final_text}],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }
        if params.stop is not None:
            payload["stop"] = list(params.stop)
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error: KpeError | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                self.sleep(_RETRY_BASE_S * (2 ** (attempt - 1)))
            with self._lock:
                self.attempts += 1
            try:
                status, data = self.session.post(self.endpoint_url, body, headers,
                                                 self.timeout_s)
            except (OSError, http.client.HTTPException) as exc:
                last_error = TransportError(f"transport failure: {exc}")
                continue
            if status in (401, 403):
                raise AuthError(f"authentication rejected (HTTP {status})", status=status)
            if status in _RETRYABLE_STATUS or status >= 500:
                kind = RateLimitError if status == 429 else TransportError
                last_error = kind(f"HTTP {status} from provider", status=status)
                continue
            if status != 200:
                raise ProviderError(f"HTTP {status} from provider", status=status)
            try:
                choice = json.loads(data)["choices"][0]
                text = choice["message"]["content"]
                finish_reason = choice.get("finish_reason")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ProviderError(f"malformed provider response: {exc}") from exc
            if not isinstance(text, str):
                raise ProviderError("provider response content is not text")
            if finish_reason == "length":
                raise ProviderError(
                    f"answer cut off at max_tokens={params.max_tokens} (finish_reason 'length')"
                )
            return text
        assert last_error is not None
        raise last_error


# mock provider ---------------------------------------------------------------

def char_trigrams(text: str) -> set[str]:
    """All distinct length-3 substrings (spaces and punctuation included)."""
    return {text[i : i + 3] for i in range(len(text) - 2)}


def trigram_overlap(a: str, b: str) -> float:
    """Overlap coefficient |A & B| / min(|A|, |B|) of character trigram sets.

    Strings shorter than 3 characters have no trigrams; two such strings
    overlap fully when equal and not at all otherwise.
    """
    ta, tb = char_trigrams(a), char_trigrams(b)
    if not ta or not tb:
        return 1.0 if a == b else 0.0
    return len(ta & tb) / min(len(ta), len(tb))


def overlap_bucket(o: float, n_classes: int) -> int:
    """Map an overlap in [0, 1] to one of n evenly spaced class indexes.

    For five classes the edges are 0.2/0.4/0.6/0.8: below 0.2 is class 0,
    0.8 and above is class 4.
    """
    return min(n_classes - 1, int(o * n_classes))


def _is_punct_token(token: str) -> bool:
    return bool(token) and all(
        unicodedata.category(ch).startswith("P") for ch in token
    )


_FIXTURE_KEYS = ("lp", "seg_id", "text")


@dataclass
class MockFixtures:
    """Pseudo-references keyed by (lp, seg_id), plus reverse text indexes.

    refs is the base mapping; aspect_refs may override it per grading
    aspect (EstimatorSpec.aspect: "fluency", "token", "sentence") so the
    one-step prompts can be given different error patterns. Prompts carry
    only bound texts, so the provider finds the segment through the mt (or
    source) reverse index.
    """

    refs: dict[tuple[str, str], str]
    aspect_refs: dict[str, dict[tuple[str, str], str]] = field(default_factory=dict)
    _mt_index: dict[str, list[tuple[str, str]]] = field(default_factory=dict, repr=False)
    _src_index: dict[str, list[tuple[str, str]]] = field(default_factory=dict, repr=False)

    @classmethod
    def from_dataset(
        cls,
        dataset: EvalDataset,
        refs: dict[tuple[str, str], str],
        aspect_refs: dict[str, dict[tuple[str, str], str]] | None = None,
    ) -> "MockFixtures":
        fixtures = cls(refs=dict(refs), aspect_refs=dict(aspect_refs or {}))
        for output in sorted(dataset.outputs):
            fixtures._mt_index.setdefault(output.mt_text, [])
            key = (output.lp, output.seg_id)
            if key not in fixtures._mt_index[output.mt_text]:
                fixtures._mt_index[output.mt_text].append(key)
        for segment in sorted(dataset.segments):
            fixtures._src_index.setdefault(segment.src_text, [])
            fixtures._src_index[segment.src_text].append((segment.lp, segment.seg_id))
        return fixtures

    @classmethod
    def from_json_file(cls, path: str | Path, dataset: EvalDataset) -> "MockFixtures":
        """Read the to_json_obj form; a file of any other shape is a ConfigError."""
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"mock fixtures {path}: {exc}") from exc

        def refs(rows, where: str) -> dict[tuple[str, str], str]:
            if not isinstance(rows, list) or not all(
                isinstance(r, dict) and all(isinstance(r.get(k), str) for k in _FIXTURE_KEYS)
                for r in rows
            ):
                raise ConfigError(f"mock fixtures {path}: {where} must be a list of "
                                  f"objects with string {', '.join(_FIXTURE_KEYS)}")
            return {(r["lp"], r["seg_id"]): r["text"] for r in rows}

        if not isinstance(obj, dict) or not isinstance(obj.get("aspect_refs", {}), dict):
            raise ConfigError(f"mock fixtures {path}: expected an object with "
                              "refs and an optional aspect_refs object")
        aspect_refs = {
            aspect: refs(rows, f"aspect_refs.{aspect}")
            for aspect, rows in obj.get("aspect_refs", {}).items()
        }
        return cls.from_dataset(dataset, refs(obj.get("refs"), "refs"), aspect_refs)

    def to_json_obj(self) -> dict:
        def rows(mapping: dict[tuple[str, str], str]) -> list[dict]:
            return [
                {"lp": lp, "seg_id": seg_id, "text": text}
                for (lp, seg_id), text in sorted(mapping.items())
            ]

        return {
            "refs": rows(self.refs),
            "aspect_refs": {a: rows(m) for a, m in sorted(self.aspect_refs.items())},
        }

    def locate(self, mt_text: str, src_text: str | None = None) -> tuple[str, str]:
        mt_cands = self._mt_index.get(mt_text, [])
        src_cands = self._src_index.get(src_text, []) if src_text is not None else []
        if mt_cands and src_cands:
            for key in mt_cands:
                if key in src_cands:
                    return key
        if mt_cands:
            return sorted(mt_cands)[0]
        if src_cands:
            return sorted(src_cands)[0]
        raise MissingFixtureError(f"no fixture for mt {mt_text[:60]!r}")

    def ref(self, aspect: str, key: tuple[str, str]) -> str:
        override = self.aspect_refs.get(aspect, {})
        if key in override:
            return override[key]
        if key in self.refs:
            return self.refs[key]
        raise MissingFixtureError(f"no pseudo-reference for {key}")


# Every quality template id -> (estimator spec, scoring mode) that asks it.
_TEMPLATE_USE = {
    template_id: (spec, mode)
    for name, spec in ESTIMATORS.items()
    for mode, template_id in spec.templates.items()
}


class MockProvider:
    """Deterministic offline provider.

    Quality prompts are graded by the character-trigram overlap between the
    translation and the segment's pseudo-reference (both lowercased),
    bucketed into the prompt's classes. Combiner prompts answer with the
    class at the rounded mean of the step answers bound into the prompt.
    Both answer as `<anchor> <value>`, with the schema's answer anchor.
    Alignment prompts get a percentage matrix: 95 for identical punctuation
    tokens, 100 for case-insensitively equal tokens, 2 otherwise. Responses
    are a pure function of (rendered prompt, fixtures).
    """

    def __init__(self, fixtures: MockFixtures | None = None) -> None:
        self.fixtures = fixtures
        self.provider_id = "mock"
        self._lock = threading.Lock()
        self.calls = 0

    def complete(self, prompt: RenderedPrompt, params: GenParams) -> str:
        with self._lock:
            self.calls += 1
        if prompt.template_id == "kpe_token_align":
            return self._align_response(prompt)
        schema = builtin_templates().get(prompt.template_id).schema
        spec, mode = _TEMPLATE_USE[prompt.template_id]
        if spec.steps:
            answer = self._combine_answer(prompt, spec.steps, mode, schema)
        else:
            answer = self._quality_answer(prompt, spec.aspect, schema)
        return f"{ANSWER_ANCHORS[schema.kind]} {answer}"

    def _align_response(self, prompt: RenderedPrompt) -> str:
        src_tokens = parse_token_list(prompt.bindings["source_seg"])
        mt_tokens = parse_token_list(prompt.bindings["target_seg"])
        lines = []
        for s in src_tokens:
            cells = []
            for t in mt_tokens:
                if _is_punct_token(s) and _is_punct_token(t) and s == t:
                    cells.append("95")
                elif s.lower() == t.lower():
                    cells.append("100")
                else:
                    cells.append("2")
            lines.append(", ".join(cells))
        return "\n".join(lines)

    def _combine_answer(self, prompt: RenderedPrompt, steps: tuple[str, ...], mode: str,
                        schema: ResponseSchema) -> str:
        indexes = []
        for step in steps:
            spec = ESTIMATORS[step]
            step_schema = builtin_templates().get(spec.templates[mode]).schema
            indexes.append(category_to_ordinal(prompt.bindings[spec.answer], step_schema))
        return schema.classes[int(sum(indexes) / len(indexes) + 0.5)]  # round half up

    def _quality_answer(self, prompt: RenderedPrompt, aspect: str,
                        schema: ResponseSchema) -> str | int:
        if self.fixtures is None:
            raise MissingFixtureError("mock provider was built without fixtures")
        mt_text = prompt.bindings["target_seg"]
        src_text = prompt.bindings.get("source_seg")
        key = self.fixtures.locate(mt_text, src_text)
        ref = self.fixtures.ref(aspect, key)
        o = trigram_overlap(mt_text.lower(), ref.lower())
        if schema.kind == "categorical":
            return schema.classes[overlap_bucket(o, len(schema.classes))]
        if schema.kind == "stars":
            span = int(schema.hi) - int(schema.lo) + 1
            return int(schema.lo) + overlap_bucket(o, span)
        return round(schema.lo + o * (schema.hi - schema.lo))


# cached completion and batching ----------------------------------------------

# Smallest batch the corruption-storm rule applies to. In a smaller batch (a
# single-pair estimate, say) one corrupt file would already be "more than
# half", so there corrupt entries are only quarantined and asked again.
STORM_MIN_BATCH = 4


class _Slots:
    """n request slots that hand out a batch's misses in input order.

    take() waits for a free slot and returns the index of the next miss to
    send; once every miss has been handed out, or after stop(), it returns
    None. Misses go with slots, not with pool tasks, so whichever worker is
    free first sends (handing each slot to one sleeping worker cost a
    wake-up per request on a busy host), and an interrupted batch has sent
    a prefix of its misses.
    """

    def __init__(self, n: int, misses: int) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._free = n
        self._next = 0
        self._misses = misses
        self._stopped = False

    def take(self) -> int | None:
        with self._cond:
            self._cond.wait_for(
                lambda: self._stopped or self._next == self._misses or self._free > 0
            )
            if self._stopped or self._next == self._misses:
                return None
            self._free -= 1
            self._next += 1
            return self._next - 1

    def give_back(self) -> None:
        with self._cond:
            self._free += 1
            self._cond.notify()

    def stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()


def run_batch(
    provider,
    cache: FileCache | None,
    prompts: Sequence[RenderedPrompt],
    params: GenParams,
    max_in_flight: int = 4,
) -> list[CompletionResult | CompletionFailure]:
    """Complete many prompts; results come back in input order.

    prompts needs only len() and indexing, so a caller can render each
    prompt when it is read. Each item is read once in input order, digested
    and looked up while it is alive; a miss is read once more by the worker
    that sends it. Identical requests are coalesced: the first of a
    duplicate group is looked up or sent, the rest are reported as cache
    hits with latency 0. Cache lookups run inline in the calling thread, so
    a fully cached batch never opens a thread pool; only misses go to the
    provider, through a pool that holds one task per worker, at most
    max_in_flight + 1 of them. Each worker sends misses until none are
    left. It holds one of max_in_flight slots for the provider call only
    and writes the answer to the cache after releasing it, so at most
    max_in_flight requests are in flight while writes run in parallel
    with them.

    Item failures are captured per slot as CompletionFailure. The only
    batch-level failure is a cache corruption storm: in a batch of at least
    STORM_MIN_BATCH items, more than half the items hitting corrupt entries
    raises CacheCorruptionError. It is checked after all lookups and before
    any provider call. Smaller batches quarantine corrupt entries and treat
    them as misses. Anything else a worker raises (a failed cache write, an
    interrupt) ends the batch: no worker sends a request after it, and the
    caller raises it once the workers are done.
    """
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    n = len(prompts)
    if n == 0:
        return []
    results: list[CompletionResult | CompletionFailure | None] = [None] * n

    def settle(members: list[int], outcome: CompletionResult | CompletionFailure) -> None:
        results[members[0]] = outcome
        if len(members) == 1:
            return
        if isinstance(outcome, CompletionResult):
            outcome = replace(outcome, from_cache=True, latency_ms=0)
        for extra in members[1:]:
            results[extra] = outcome

    # One pass: each prompt is read, digested and looked up while it is alive.
    # Hits are settled after the pass, since a later duplicate can still join
    # a group.
    groups: dict[str, list[int]] = {}
    hits: list[tuple[str, list[int], str]] = []
    misses: list[tuple[str, list[int]]] = []
    corruption_base = cache.corruptions if cache is not None else 0
    for i in range(n):
        prompt = prompts[i]
        digest = request_digest(prompt, params)
        members = groups.get(digest)
        if members is not None:
            members.append(i)
            continue
        groups[digest] = members = [i]
        text = cache.get(digest, prompt, params) if cache is not None else None
        if text is None:
            misses.append((digest, members))
        else:
            hits.append((digest, members, text))
    if cache is not None and n >= STORM_MIN_BATCH:
        if (cache.corruptions - corruption_base) * 2 > n:
            raise CacheCorruptionError(
                f"cache corruption storm: more than half of {n} items hit corrupt entries"
            )
    for digest, members, text in hits:
        settle(members, CompletionResult(
            text=text,
            from_cache=True,
            latency_ms=0,
            request_digest=digest,
        ))
    if not misses:
        return results  # type: ignore[return-value]

    slots = _Slots(max_in_flight, len(misses))

    def send() -> None:
        """Send the misses the slots hand out, and settle each, until none are left."""
        while (i := slots.take()) is not None:
            digest, members = misses[i]
            prompt = prompts[members[0]]
            started = time.monotonic()
            try:
                text = provider.complete(prompt, params)
                latency_ms = int((time.monotonic() - started) * 1000)
            except KpeError as exc:
                settle(members, CompletionFailure(digest, exc))
                continue
            except BaseException:
                slots.stop()  # before the slot goes back, so no waiting worker sends
                raise
            finally:
                slots.give_back()
            if cache is not None:
                try:
                    cache.put(digest, prompt, params, text)
                except BaseException:
                    slots.stop()
                    raise
            settle(members, CompletionResult(
                text=text,
                from_cache=False,
                latency_ms=latency_ms,
                request_digest=digest,
            ))

    global ThreadPoolExecutor
    if ThreadPoolExecutor is None:
        from concurrent.futures import ThreadPoolExecutor
    # One worker more than slots: it sends the next request while another
    # worker writes its answer to the cache.
    workers = min(max_in_flight + 1, len(misses))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for task in [pool.submit(send) for _ in range(workers)]:
                task.result()
        finally:
            slots.stop()
    return results  # type: ignore[return-value]


# Unused by kpe; kept because perfbench/tracing.py wraps it by name for --trace 1.
def cached_complete(
    provider,
    cache: FileCache | None,
    prompt: RenderedPrompt,
    params: GenParams,
) -> CompletionResult:
    """run_batch on one prompt; a provider failure is raised as the provider's own error."""
    outcome = run_batch(provider, cache, [prompt], params, max_in_flight=1)[0]
    if isinstance(outcome, CompletionFailure):
        raise outcome.exception
    return outcome
