"""Span tracing for the traced run, and the self-time arithmetic.

The server process calls :func:`install` before it builds the service:
it wraps the public functions of each layer (gateway front end,
admission, cache, store, executor, stage cache, retrieval, NLP, OpenIE,
graph, canonicalize, ingest, search) in timing wrappers. ``src/`` is
not changed. Spans are kept in memory and written out as JSON when the
server stops.

A span records its name, start, end, its parent span and the request
id (the envelope's ``client_id``). The current span travels in a
``contextvars`` variable. Where a thread hop loses the context (the
serving layer's executors), the first span opened in the new thread
finds its request through the request's cache-key signature
``(normalized query, source, k)``, registered when the request entered
the front end.

High-frequency leaf functions (the NLP annotators, ClausIE) are not
spans: they add to per-name call counts and total seconds. Pure counts
(edge-weight calls, index adds) are counters. Counters and timers are
kept per request class, the first letter of the request id, so the
measured traffic (``m``) and the probe (``x``) are told apart from
prefill and warm-up.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)

#: Root spans: one per request entering the async front end.
ROOTS = ("root.query", "root.search", "root.ingest")
#: Counters also kept per request id (per-ingest traffic assertions).
PER_REQUEST_COUNTS = ("ingest.index_add", "ingest.invalidated")


class Tracer:
    """In-memory span, timer and counter store of one server process."""

    def __init__(self) -> None:
        # (name, start, end, span_id, parent_id, rid)
        self.spans: List[Tuple[str, float, float, int, int, Optional[str]]] = []
        self.timers: Dict[str, List[float]] = {}  # "name@cls" -> [calls, s]
        self.counts: Dict[str, int] = {}  # "name@cls" -> count
        self.request_counts: Dict[str, int] = {}  # "name@rid" -> count
        self.values: Dict[str, List[float]] = {}  # "name@cls" -> samples
        self.links: Dict[Tuple[str, str, int], str] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # ---- recording ---------------------------------------------------------

    @staticmethod
    def request_class() -> Optional[str]:
        current = _current.get()
        rid = current[1] if current else None
        return rid[0] if rid else None

    def count(self, name: str, amount: int = 1) -> None:
        current = _current.get()
        rid = current[1] if current else None
        if not rid:
            return
        key = f"{name}@{rid[0]}"
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount
            if name in PER_REQUEST_COUNTS:
                key = f"{name}@{rid}"
                self.request_counts[key] = (
                    self.request_counts.get(key, 0) + amount
                )

    def value(self, name: str, sample: float,
              cls: Optional[str] = None) -> None:
        cls = cls or self.request_class()
        if cls is None:
            return
        with self._lock:
            self.values.setdefault(f"{name}@{cls}", []).append(sample)

    def _timer(self, name: str, seconds: float, cls: str) -> None:
        key = f"{name}@{cls}"
        with self._lock:
            entry = self.timers.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += seconds

    def note_queue_wait(self, wait: float) -> None:
        """The executor reported a queue wait on this worker thread; the
        next span this thread opens for a request claims it."""
        now = time.perf_counter()
        self._local.pending_wait = (now - wait, now)

    def _open(self, rid: Optional[str],
              link: Optional[Tuple[str, str, int]]):
        parent = _current.get()
        if rid is None and parent is not None:
            rid = parent[1]
        if rid is None and parent is None and link is not None:
            rid = self.links.get(link)
            pending = getattr(self._local, "pending_wait", None)
            if pending is not None and rid is not None:
                self._local.pending_wait = None
                self.spans.append(("executor.wait", pending[0], pending[1],
                                   next(self._ids), 0, rid))
                self.value("executor.queue_wait", pending[1] - pending[0],
                           cls=rid[0])
        span_id = next(self._ids)
        token = _current.set((span_id, rid))
        return token, span_id, parent[0] if parent else 0, rid

    # ---- wrapping ----------------------------------------------------------

    def span(self, owner: Any, attr: str, name: str,
             rid_of: Optional[Callable] = None,
             link_of: Optional[Callable] = None,
             observe: Optional[Callable] = None) -> None:
        """Make ``owner.attr`` record a span named ``name``.

        ``rid_of(args, kwargs)`` names the request (roots and
        thread-hop entries that carry an envelope);
        ``link_of(args, kwargs)`` gives the
        cache-key signature; a root (``rid_of`` and ``link_of``)
        registers it, any other span uses it to find its request when
        it opens without a context. ``observe(tracer, result, args)``
        runs after a successful call under the span's context.
        """
        original = getattr(owner, attr)
        tracer = self

        def enter(args, kwargs):
            rid = rid_of(args, kwargs) if rid_of is not None else None
            link = link_of(args, kwargs) if link_of is not None else None
            if rid is not None and link is not None:
                tracer.links[link] = rid
            return tracer._open(rid, link)

        def leave(state, start):
            token, span_id, parent_id, rid = state
            end = time.perf_counter()
            _current.reset(token)
            tracer.spans.append((name, start, end, span_id, parent_id, rid))

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                    if observe is not None:
                        observe(tracer, result, args)
                    return result
                finally:
                    leave(state, start)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                state = enter(args, kwargs)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                    if observe is not None:
                        observe(tracer, result, args)
                    return result
                finally:
                    leave(state, start)
        setattr(owner, attr, wrapper)

    def timer(self, owner: Any, attr: str, name: str) -> None:
        """Make ``owner.attr`` add to the call count and total seconds
        of ``name`` (no span: for functions called per sentence)."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            cls = tracer.request_class()
            if cls is None:
                return original(*args, **kwargs)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._timer(name, time.perf_counter() - start, cls)

        setattr(owner, attr, wrapper)

    def counter(self, owner: Any, attr: str, name: str) -> None:
        """Make ``owner.attr`` count its calls under ``name``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    # ---- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "timers": self.timers,
                       "counts": self.counts, "values": self.values,
                       "request_counts": self.request_counts}, handle)


def install() -> Tracer:
    """Wrap every traced layer of the serving stack; returns the tracer.

    Must run before the service is built: the executor captures its
    run function, and the NLP pipeline its annotators, at construction.
    """
    from repro.core import qkbfly
    from repro.core.canonicalize import Canonicalizer
    from repro.corpus.retrieval import Bm25Index, SearchEngine
    from repro.graph.builder import GraphBuilder
    from repro.graph.weights import EdgeWeights
    from repro.nlp import pipeline as nlp_pipeline
    from repro.nlp.dependency import EisnerChartParser, GreedyTransitionParser
    from repro.nlp.ner import NerTagger
    from repro.openie.clausie import ClausIE
    from repro.service import service as service_module
    from repro.service.admission import AdmissionController, QueueWaitWindow
    from repro.service.async_service import AsyncQKBflyService
    from repro.service.cache import QueryCache, normalize_query
    from repro.service.executor import BatchExecutor
    from repro.service.kb_store import KbStore
    from repro.service.stage_cache import StageCache

    tracer = Tracer()

    def request_rid(args, kwargs):
        return args[1].client_id

    def request_link(args, kwargs):
        request = args[1]
        return (normalize_query(request.query), request.source,
                request.num_documents)

    def key_link(args, kwargs):
        key = args[1]
        return (key.query, key.source, key.num_documents)

    def store_link(args, kwargs):
        return (args[1], kwargs["source"], kwargs["num_documents"])

    def build_link(args, kwargs):
        source = args[2] if len(args) > 2 else kwargs.get("source", "wikipedia")
        k = args[3] if len(args) > 3 else kwargs.get("num_documents", 1)
        return (normalize_query(args[1]), source, k)

    # Front end: one root span per request.
    tracer.span(AsyncQKBflyService, "serve", "root.query",
                rid_of=request_rid, link_of=request_link)
    tracer.span(AsyncQKBflyService, "search_facts", "root.search",
                rid_of=request_rid)
    tracer.span(AsyncQKBflyService, "ingest", "root.ingest",
                rid_of=request_rid)

    # Admission.
    tracer.span(AdmissionController, "admit", "admission.admit")
    tracer.span(AdmissionController, "check_queue", "admission.check_queue")
    tracer.counter(AdmissionController, "count_overloaded",
                   "admission.refused")
    tracer.counter(AdmissionController, "count_deadline_rejected",
                   "admission.refused")

    # Query cache.
    def cache_observe(t, result, args):
        t.count("cache.hit" if result is not None else "cache.miss")

    def invalidated_observe(t, result, args):
        t.count("cache.invalidated", int(result or 0))

    tracer.span(QueryCache, "get", "cache.get", link_of=key_link,
                observe=cache_observe)
    tracer.span(QueryCache, "invalidate_entities", "cache.invalidate",
                observe=invalidated_observe)

    # KB store (the default single-file store; the service reaches it
    # from the loop with try_load and from executor threads with load).
    def load_observe(t, result, args):
        t.count("store.hit" if result is not None else "store.miss")

    def try_load_observe(t, result, args):
        attempted, kb = result
        if attempted:
            load_observe(t, kb, args)
        else:
            t.count("store.busy")

    tracer.span(KbStore, "load", "store.load", link_of=store_link,
                observe=load_observe)
    tracer.span(KbStore, "try_load", "store.load", link_of=store_link,
                observe=try_load_observe)
    tracer.span(KbStore, "save", "store.save", link_of=store_link)

    # Executor: queue wait reported by its hook, dedup joins.
    original_record = QueueWaitWindow.record

    @functools.wraps(original_record)
    def record(self, wait_seconds):
        tracer.note_queue_wait(wait_seconds)
        return original_record(self, wait_seconds)

    QueueWaitWindow.record = record
    tracer.counter(BatchExecutor, "count_dedup", "executor.dedup")
    original_submit = BatchExecutor.submit

    @functools.wraps(original_submit)
    def submit(self, key, request):
        before = self.deduplicated
        future = original_submit(self, key, request)
        if self.deduplicated != before:
            tracer.count("executor.dedup")
        return future

    BatchExecutor.submit = submit

    # Stage cache hit ratios per stage.
    def stage_observe(t, result, args):
        t.count(f"stage_cache.{args[1]}."
                + ("hit" if result is not None else "miss"))

    tracer.span(StageCache, "get", "stage_cache.get", observe=stage_observe)

    # The pipeline: build_kb is the thread-hop entry of a cold flight.
    tracer.span(qkbfly.QKBfly, "build_kb", "pipeline", link_of=build_link)
    tracer.span(SearchEngine, "search", "retrieval")
    tracer.span(nlp_pipeline.NlpPipeline, "annotate_text", "nlp")
    tracer.counter(nlp_pipeline.NlpPipeline, "annotate_sentence",
                   "nlp.sentences")
    for attr, name in (("tag_sentence", "nlp.pos"), ("tag_times", "nlp.time"),
                       ("chunk_sentence", "nlp.chunk")):
        tracer.timer(nlp_pipeline, attr, name)
    tracer.timer(NerTagger, "tag", "nlp.ner")
    tracer.timer(GreedyTransitionParser, "parse", "nlp.parse")
    tracer.timer(EisnerChartParser, "parse", "nlp.parse")
    tracer.timer(ClausIE, "extract", "openie.extract")
    tracer.span(GraphBuilder, "build", "graph.build")
    # process_document runs build, weights + densify, canonicalize: its
    # self time is the weights and densify work.
    tracer.span(qkbfly.QKBfly, "process_document", "graph.densify")
    tracer.counter(EdgeWeights, "pair_weight", "graph.pair_weight")
    tracer.counter(EdgeWeights, "relation_weight", "graph.relation_weight")
    tracer.span(Canonicalizer, "canonicalize", "canonicalize")

    # Ingest and search (sync halves run on dispatch threads).
    def ingest_observe(t, result, args):
        invalidated = result.invalidated or {}
        t.count("ingest.invalidated",
                int(invalidated.get("cache", 0))
                + int(invalidated.get("store", 0)))

    tracer.span(service_module.QKBflyService, "ingest", "ingest",
                rid_of=request_rid, observe=ingest_observe)
    tracer.counter(Bm25Index, "add", "ingest.index_add")

    def page_observe(t, result, args):
        t.value("search.rows", float(len(result.results)))

    tracer.span(service_module.QKBflyService, "search_facts", "search",
                rid_of=request_rid, observe=page_observe)
    return tracer


# ---- analysis (benchmark side) ---------------------------------------------


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans: Sequence[Sequence[Any]]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of it that
    its child spans cover (overlapping children count once).

    A span's children are the spans naming it as parent, and, for a
    root span, the parentless non-root spans of the same request (the
    work its request did on other threads).
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    root_of: Dict[str, int] = {}
    for name, start, end, span_id, parent_id, rid in spans:
        if name in ROOTS and rid is not None:
            root_of[rid] = span_id
    for name, start, end, span_id, parent_id, rid in spans:
        if parent_id:
            children.setdefault(parent_id, []).append((start, end))
        elif name not in ROOTS and rid in root_of:
            children.setdefault(root_of[rid], []).append((start, end))
    out: Dict[int, float] = {}
    for name, start, end, span_id, parent_id, rid in spans:
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(span_id, ())
            if min(end, e) > max(start, s)
        ]
        out[span_id] = (end - start) - union_length(clipped)
    return out
