"""Spans around kpe's public calls, recorded from outside the program.

``Tracer.install()`` replaces each traced function in the namespace the
caller looks it up in (``kpe.chains.run_batch``, ``FileCache.get`` and so
on) with a wrapper that records a span: id, parent id, thread, name,
start, end and a small note (a cache hit, a batch size, a record count).
Spans stay in memory until ``write()``. A worker-thread span's parent is
the span that submitted it to the executor, so spans of one batch form
one tree; self time subtracts only same-thread children, so work done by
the pool workers is never counted twice.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import kpe.backend
import kpe.chains
import kpe.cli


def _unique_prompts(args, kwargs, result):
    prompts = args[2]
    return len(prompts), len({(p.template_id, p.version, p.final_text) for p in prompts})


# (span name, owner, attribute, note(args, kwargs, result) or None); the note
# is kept in the span: a record count, a cache hit, a batch's prompt counts.
_TARGETS = (
    ("cli.build_provider", kpe.cli, "_build_provider", lambda a, k, r: r),
    ("corpus.load", kpe.cli, "load_segments", lambda a, k, r: len(r)),
    ("corpus.load", kpe.cli, "load_system_outputs", lambda a, k, r: len(r)),
    ("corpus.load", kpe.cli, "load_rr_judgments", lambda a, k, r: len(r)),
    ("chains.score_dataset", kpe.cli, "score_dataset", lambda a, k, r: a[0].name),
    ("metrics.load_scores", kpe.cli, "load_score_file", None),
    ("metrics.kendall", kpe.cli, "kendall_tau_rr", None),
    ("chains.write_jsonl", kpe.chains.ScoreTable, "write_jsonl", None),
    ("backend.batch", kpe.chains, "run_batch", _unique_prompts),
    ("prompting.render", kpe.chains, "render_template", None),
    ("parsing.parse", kpe.chains, "parse_categorical", None),
    ("backend.cached_complete", kpe.backend, "cached_complete", None),
    ("backend.digest", kpe.backend, "request_digest", None),
    ("backend.cache_get", kpe.backend.FileCache, "get", lambda a, k, r: r is not None),
    ("backend.cache_put", kpe.backend.FileCache, "put", None),
    ("backend.provider", kpe.backend.MockProvider, "complete", None),
    ("backend.provider", kpe.backend.HttpProvider, "complete", None),
)


class Tracer:
    def __init__(self) -> None:
        # span: (id, parent id, thread id, name, start, end, note, raised)
        self.spans: list[tuple] = []
        # executor task: (enqueued, started, ended); pool: (workers, opened, closed)
        self.tasks: list[tuple[float, float, float]] = []
        self.pools: list[tuple[int, float, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def wrap(self, name: str, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current()
            span_id = next(tracer._ids)
            stack = tracer._stack()
            stack.append(span_id)
            result = None
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = note(args, kwargs, result) if note is not None and not raised else None
                tracer.spans.append(
                    (span_id, parent, threading.get_ident(), name, start, end, info, raised)
                )

        return traced

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs) -> None:
                super().__init__(max_workers, *args, **kwargs)
                self._opened = time.perf_counter()

            def submit(self, fn, /, *args, **kwargs):
                enqueued = time.perf_counter()
                parent = tracer.current()

                def task():
                    started = time.perf_counter()
                    tracer._local.base = parent
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._local.base = None
                        tracer.tasks.append((enqueued, started, time.perf_counter()))

                return super().submit(task)

            def shutdown(self, wait=True, **kwargs) -> None:
                super().shutdown(wait, **kwargs)
                tracer.pools.append((self._max_workers, self._opened, time.perf_counter()))

        return TracedPool

    def install(self) -> None:
        for name, owner, attr, note in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, note))
        self._saved.append((kpe.backend, "ThreadPoolExecutor", kpe.backend.ThreadPoolExecutor))
        kpe.backend.ThreadPoolExecutor = self._pool_class()

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def providers(self) -> list:
        """The provider objects the CLI built while traced."""
        return [s[6] for s in self.spans if s[3] == "cli.build_provider" and s[6] is not None]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the same-thread children's durations."""
        by_id = {s[0]: s for s in self.spans}
        own = {s[0]: s[5] - s[4] for s in self.spans}
        for span_id, parent, thread, _name, start, end, _info, _raised in self.spans:
            up = by_id.get(parent)
            if up is not None and up[2] == thread:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        """One JSON line per span, then one line per name with its totals."""
        own = self.self_times()
        totals: dict[str, list[float]] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, thread, name, start, end, info, raised in self.spans:
                fh.write(json.dumps([span_id, parent, thread, name, start, end, info, raised],
                                    default=lambda obj: type(obj).__name__))
                fh.write("\n")
                row = totals.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += end - start
                row[2] += own[span_id]
            for name, (calls, inclusive, self_s) in sorted(totals.items()):
                fh.write(json.dumps({"name": name, "calls": calls,
                                     "inclusive_s": inclusive, "self_s": self_s}))
                fh.write("\n")

    def layer_metrics(self, estimators) -> dict[str, float]:
        """Per-layer counts and self times (summed over threads)."""
        own = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for span in self.spans:
            calls[span[3]] = calls.get(span[3], 0) + 1
            self_s[span[3]] = self_s.get(span[3], 0.0) + own[span[0]]

        def named(name):
            return [s for s in self.spans if s[3] == name]

        gets = named("backend.cache_get")
        hits = sum(1 for s in gets if s[6])
        provider_ms = [(s[5] - s[4]) * 1000 for s in named("backend.provider")]
        batches = named("backend.batch")
        batch_sizes = [s[6] for s in batches if s[6] is not None]
        capacity = sum(workers * (closed - opened) for workers, opened, closed in self.pools)
        busy = sum(ended - started for _e, started, ended in self.tasks)
        out = {
            "cli.build_provider_s": self_s.get("cli.build_provider", 0.0),
            "corpus.load_s": self_s.get("corpus.load", 0.0),
            "corpus.records": sum(s[6] or 0 for s in named("corpus.load")),
            "prompting.render_calls": calls.get("prompting.render", 0),
            "prompting.render_s": self_s.get("prompting.render", 0.0),
            "backend.digest_calls": calls.get("backend.digest", 0),
            "backend.digest_s": self_s.get("backend.digest", 0.0),
            "backend.cache_get_calls": len(gets),
            "backend.cache_get_s": self_s.get("backend.cache_get", 0.0),
            "backend.cache_hits": hits,
            "backend.cache_misses": len(gets) - hits,
            "backend.cache_hit_ratio": hits / len(gets) if gets else 0.0,
            "backend.cache_put_calls": calls.get("backend.cache_put", 0),
            "backend.cache_put_s": self_s.get("backend.cache_put", 0.0),
            "backend.provider_calls": len(provider_ms),
            "backend.provider_s": self_s.get("backend.provider", 0.0),
            "backend.provider_p50_ms": _percentile(provider_ms, 50),
            "backend.provider_p99_ms": _percentile(provider_ms, 99),
            "backend.http_attempts": sum(getattr(p, "attempts", 0) for p in self.providers),
            "backend.batch_calls": len(batches),
            "backend.batch_s": sum(s[5] - s[4] for s in batches),
            "backend.batch_prompts": sum(n for n, _ in batch_sizes),
            "backend.coalesced": sum(n - unique for n, unique in batch_sizes),
            "backend.queue_wait_s": sum(started - enq for enq, started, _e in self.tasks),
            "backend.worker_busy_share": busy / capacity if capacity else 0.0,
            "chains.write_jsonl_s": self_s.get("chains.write_jsonl", 0.0),
            "parsing.parse_calls": calls.get("parsing.parse", 0),
            "parsing.parse_s": self_s.get("parsing.parse", 0.0),
            "parsing.parse_failures": sum(1 for s in named("parsing.parse") if s[7]),
            "metrics.load_scores_s": self_s.get("metrics.load_scores", 0.0),
            "metrics.kendall_s": self_s.get("metrics.kendall", 0.0),
            "trace.spans": len(self.spans),
        }
        per_estimator = {name: 0.0 for name in estimators}
        for s in named("chains.score_dataset"):
            per_estimator[s[6]] = per_estimator.get(s[6], 0.0) + (s[5] - s[4])
        for name, seconds in per_estimator.items():
            out[f"chains.score_dataset_s.{name}"] = seconds
        return out


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
