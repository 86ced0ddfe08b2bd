"""Per-layer metrics of a traced run, and the traffic assertions.

Input: the server's trace (``tracer.Tracer.dump``), the load
generator's ops of the traced phase, and the untraced phase's query
median. Output: every per-layer metric of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

from loadgen import percentile
from tracer import ROOTS, self_times
from workloads import Op

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("gateway.self_ms_p50", "ms"),
    ("admission.admit_calls", "count"),
    ("admission.refused", "count"),
    ("admission.self_us_p50", "us"),
    ("cache.get_calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_us_p50", "us"),
    ("cache.invalidated", "count"),
    ("store.load_calls", "count"),
    ("store.hit_ratio", "ratio"),
    ("store.load_ms_p50", "ms"),
    ("store.save_calls", "count"),
    ("store.save_ms_p50", "ms"),
    ("store.read_share", "ratio"),
    ("executor.queue_wait_ms_p50", "ms"),
    ("executor.queue_wait_ms_p95", "ms"),
    ("executor.dedup", "count"),
    ("stage_cache.retrieval.hit_ratio", "ratio"),
    ("stage_cache.nlp.hit_ratio", "ratio"),
    ("stage_cache.extract.hit_ratio", "ratio"),
    ("retrieval.search_calls", "count"),
    ("retrieval.search_ms_p50", "ms"),
    ("nlp.docs", "count"),
    ("nlp.sentences", "count"),
    ("nlp.annotate_ms_per_doc_p50", "ms"),
    ("nlp.pos.share", "ratio"),
    ("nlp.ner.share", "ratio"),
    ("nlp.time.share", "ratio"),
    ("nlp.chunk.share", "ratio"),
    ("nlp.parse.share", "ratio"),
    ("openie.extract_calls", "count"),
    ("openie.extract_ms_total", "ms"),
    ("graph.build_ms_p50", "ms"),
    ("graph.densify_ms_p50", "ms"),
    ("graph.pair_weight_calls_per_doc", "count"),
    ("graph.relation_weight_calls_per_doc", "count"),
    ("canonicalize.ms_p50", "ms"),
    ("ingest.ms_p50", "ms"),
    ("ingest.docs_indexed_per_ingest", "count"),
    ("ingest.entries_invalidated_per_ingest", "count"),
    ("search.ms_p50", "ms"),
    ("search.rows_per_page", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.sent", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
)

#: Request classes (first letter of the request id): the measured
#: traffic, and the epilogue probe of ingests and searches.
TRAFFIC = ("m",)
TRAFFIC_AND_PROBE = ("m", "x")


def _p50(values: Sequence[float], scale: float = 1.0) -> float:
    return percentile(values, 50.0) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Trace:
    """A loaded trace, with lookups restricted to request classes."""

    def __init__(self, data: Dict[str, Any]) -> None:
        self.spans = [tuple(s) for s in data["spans"]]
        self.timers = data["timers"]
        self.counts = data["counts"]
        self.values = data["values"]
        self.request_counts = data["request_counts"]
        self.self_time = self_times(self.spans)

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def count(self, name: str, classes=TRAFFIC) -> int:
        return sum(self.counts.get(f"{name}@{c}", 0) for c in classes)

    def timer(self, name: str, classes=TRAFFIC) -> Tuple[int, float]:
        calls, seconds = 0, 0.0
        for c in classes:
            entry = self.timers.get(f"{name}@{c}")
            if entry:
                calls += entry[0]
                seconds += entry[1]
        return calls, seconds

    def values_of(self, name: str, classes=TRAFFIC) -> List[float]:
        out: List[float] = []
        for c in classes:
            out.extend(self.values.get(f"{name}@{c}", ()))
        return out

    def durations(self, name: str, classes=TRAFFIC) -> List[float]:
        return [end - start for n, start, end, _, _, rid in self.spans
                if n == name and rid and rid[0] in classes]

    def selfs(self, name: str, classes=TRAFFIC) -> List[float]:
        return [self.self_time[sid] for n, _, _, sid, _, rid in self.spans
                if n == name and rid and rid[0] in classes]

    def roots(self) -> Dict[str, Tuple[float, int]]:
        """rid -> (root duration, root span id)."""
        return {rid: (end - start, sid)
                for n, start, end, sid, _, rid in self.spans
                if n in ROOTS and rid}


def layer_metrics(trace: Trace, ops: Sequence[Op], late: Sequence[float],
                  untraced_query_p50: float,
                  traced_query_p50: float) -> Dict[str, float]:
    """Every per-layer metric (see :data:`PER_LAYER`)."""
    m: Dict[str, float] = {}
    roots = trace.roots()
    measured = [op for op in ops if op.rid[0] in TRAFFIC
                and op.status == 200 and op.rid in roots]

    gateway = [(op.done - op.sent) - roots[op.rid][0] for op in measured]
    m["gateway.self_ms_p50"] = _p50(gateway, 1e3)
    covered = sum((op.done - op.sent) - trace.self_time[roots[op.rid][1]]
                  for op in measured)
    m["trace.coverage"] = _ratio(covered,
                                 sum(op.done - op.sent for op in measured))

    m["admission.admit_calls"] = float(
        len(trace.durations("admission.admit")))
    m["admission.refused"] = float(trace.count("admission.refused"))
    m["admission.self_us_p50"] = _p50(
        trace.selfs("admission.admit") + trace.selfs("admission.check_queue"),
        1e6)

    hits, misses = trace.count("cache.hit"), trace.count("cache.miss")
    m["cache.get_calls"] = float(len(trace.durations("cache.get")))
    m["cache.hit_ratio"] = _ratio(hits, hits + misses)
    m["cache.get_us_p50"] = _p50(trace.durations("cache.get"), 1e6)
    m["cache.invalidated"] = float(
        trace.count("cache.invalidated", TRAFFIC_AND_PROBE)
    )

    hits, misses = trace.count("store.hit"), trace.count("store.miss")
    m["store.load_calls"] = float(len(trace.durations("store.load")))
    m["store.hit_ratio"] = _ratio(hits, hits + misses)
    m["store.load_ms_p50"] = _p50(trace.durations("store.load"), 1e3)
    m["store.save_calls"] = float(len(trace.durations("store.save")))
    m["store.save_ms_p50"] = _p50(trace.durations("store.save"), 1e3)
    m["store.read_share"] = store_read_share(ops)

    waits = trace.values_of("executor.queue_wait")
    m["executor.queue_wait_ms_p50"] = _p50(waits, 1e3)
    m["executor.queue_wait_ms_p95"] = (
        percentile(waits, 95.0) * 1e3 if waits else 0.0
    )
    m["executor.dedup"] = float(trace.count("executor.dedup"))

    for stage in ("retrieval", "nlp", "extract"):
        hits = trace.count(f"stage_cache.{stage}.hit")
        misses = trace.count(f"stage_cache.{stage}.miss")
        m[f"stage_cache.{stage}.hit_ratio"] = _ratio(hits, hits + misses)

    m["retrieval.search_calls"] = float(len(trace.durations("retrieval")))
    m["retrieval.search_ms_p50"] = _p50(trace.durations("retrieval"), 1e3)

    annotate = trace.durations("nlp")
    m["nlp.docs"] = float(len(annotate))
    m["nlp.sentences"] = float(trace.count("nlp.sentences"))
    m["nlp.annotate_ms_per_doc_p50"] = _p50(annotate, 1e3)
    for part in ("pos", "ner", "time", "chunk", "parse"):
        m[f"nlp.{part}.share"] = _ratio(trace.timer(f"nlp.{part}")[1],
                                        sum(annotate))

    calls, seconds = trace.timer("openie.extract")
    m["openie.extract_calls"] = float(calls)
    m["openie.extract_ms_total"] = seconds * 1e3

    documents = len(trace.durations("graph.densify"))
    m["graph.build_ms_p50"] = _p50(trace.durations("graph.build"), 1e3)
    m["graph.densify_ms_p50"] = _p50(trace.selfs("graph.densify"), 1e3)
    m["graph.pair_weight_calls_per_doc"] = _ratio(
        trace.count("graph.pair_weight"), documents)
    m["graph.relation_weight_calls_per_doc"] = _ratio(
        trace.count("graph.relation_weight"), documents)
    m["canonicalize.ms_p50"] = _p50(trace.durations("canonicalize"), 1e3)

    ingests = trace.durations("ingest", TRAFFIC_AND_PROBE)
    m["ingest.ms_p50"] = _p50(ingests, 1e3)
    m["ingest.docs_indexed_per_ingest"] = _ratio(
        trace.count("ingest.index_add", TRAFFIC_AND_PROBE), len(ingests))
    m["ingest.entries_invalidated_per_ingest"] = _ratio(
        trace.count("ingest.invalidated", TRAFFIC_AND_PROBE), len(ingests))

    m["search.ms_p50"] = _p50(trace.durations("search", TRAFFIC_AND_PROBE),
                              1e3)
    m["search.rows_per_page"] = _p50(
        trace.values_of("search.rows", TRAFFIC_AND_PROBE))

    m["loadgen.late_ms_p99"] = percentile(late, 99.0) * 1e3 if late else 0.0
    m["loadgen.sent"] = float(sum(1 for op in ops if op.rid[0] in TRAFFIC))
    m["trace.overhead_frac"] = traced_query_p50 / untraced_query_p50 - 1.0
    return m


def store_read_share(ops: Sequence[Op]) -> float:
    """Share of measured query responses the store served."""
    served = [json.loads(op.body).get("served_from") for op in ops
              if op.kind == "query" and op.measured and op.status == 200]
    return _ratio(sum(1 for s in served if s == "store"), len(served))


def layer_shares(trace: Trace, ops: Sequence[Op]) -> Dict[str, float]:
    """Self time per layer over the measured requests, as shares of
    their client latency; ``gateway`` is client latency minus the root
    span, ``other`` the root spans' uncovered time."""
    roots = trace.roots()
    measured = [op for op in ops if op.rid[0] in TRAFFIC
                and op.status == 200 and op.rid in roots]
    total = sum(op.done - op.sent for op in measured)
    wanted = {op.rid for op in measured}
    shares: Dict[str, float] = {
        "gateway": sum((op.done - op.sent) - roots[op.rid][0]
                       for op in measured),
    }
    for name, _, _, sid, _, rid in trace.spans:
        if rid in wanted:
            layer = "other" if name in ROOTS else name
            shares[layer] = shares.get(layer, 0.0) + trace.self_time[sid]
    return {layer: _ratio(v, total) for layer, v in sorted(shares.items())}


def traffic_assertions(workload: str, trace: Trace, ops: Sequence[Op],
                       metrics: Dict[str, float]) -> List[str]:
    """What each workload claims about its traffic, checked against the
    traced run's counts; returns the violated claims."""
    failed = []
    if workload == "hot-mix" and metrics["nlp.docs"] != 0:
        failed.append("hot-mix ran the NLP stage on measured requests")
    if workload == "cold-build" and metrics["cache.hit_ratio"] != 0:
        failed.append("cold-build hit the query cache on measured requests")
    for op in ops:
        if op.kind != "ingest":
            continue
        claims = [("ingest.index_add", "indexed no document")]
        if workload == "live-corpus" and op.rid[0] in TRAFFIC:
            claims.append(("ingest.invalidated", "invalidated no entry"))
        for name, claim in claims:
            if trace.request_counts.get(f"{name}@{op.rid}", 0) < 1:
                failed.append(f"{workload} ingest {op.rid} {claim}")
    return failed
