"""Tests of the benchmark's own logic (fast; no server process).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import pytest  # noqa: E402

import loadgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ---- the tail-percentile rule -----------------------------------------------


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(count, expected):
    assert loadgen.tail_percentile(count) == expected


def test_tail_value_and_fallback():
    values = [float(i) for i in range(1, 101)]  # 100 samples -> p90
    value, pct, count = loadgen.tail(values)
    assert (pct, count) == (90.0, 100)
    assert value == pytest.approx(loadgen.percentile(values, 90.0))
    assert sum(1 for v in values if v > value) >= 10
    assert loadgen.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# ---- open loop: due-time latency and lateness -------------------------------


async def _slow_server(delay: float):
    """HTTP server answering every request after ``delay`` seconds."""

    async def handle(reader, writer):
        while True:
            line = await reader.readline()
            if not line:
                break
            while (await reader.readline()) not in (b"\r\n", b""):
                pass
            await asyncio.sleep(delay)
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
            await writer.drain()
        writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_open_loop_charges_queueing_from_the_due_time():
    delay = 0.05

    async def scenario():
        server = await _slow_server(delay)
        port = server.sockets[0].getsockname()[1]
        ops = [
            workloads.Op("search", f"m-{i}", b"GET / HTTP/1.1\r\n\r\n",
                         due=0.01 * i)
            for i in range(4)
        ]
        try:
            origin = await loadgen.open_loop("127.0.0.1", port, ops, 1)
        finally:
            server.close()
            await server.wait_closed()
        return origin, ops

    origin, ops = asyncio.run(scenario())
    assert all(op.status == 200 for op in ops)
    # One connection: the i-th request waits for the i before it, and
    # its latency from the due time counts that wait.
    for i, op in enumerate(ops):
        expected = (i + 1) * delay - 0.01 * i
        assert op.latency_from_due(origin) >= expected - 0.005
        assert op.latency_from_due(origin) > op.done - op.sent - 1e-9
    # The dispatcher itself kept its schedule.
    assert max(loadgen.lateness(ops, origin)) < 0.04


def test_lateness_is_release_time_behind_due_time():
    ops = [workloads.Op("query", "m-0", b"", due=1.0),
           workloads.Op("query", "m-1", b"", due=2.0)]
    ops[0].queued, ops[1].queued = 11.25, 11.5  # origin 10
    assert loadgen.lateness(ops, 10.0) == pytest.approx([0.25, 0.0])


# ---- self time from overlapping spans ---------------------------------------


def test_self_time_counts_overlapping_children_once():
    spans = [
        # name, start, end, span_id, parent_id, rid
        ("root.query", 0.0, 10.0, 1, 0, "m-1"),
        ("cache.get", 1.0, 4.0, 2, 1, "m-1"),
        ("store.load", 3.0, 6.0, 3, 1, "m-1"),  # overlaps cache.get
        ("nlp", 2.0, 3.0, 4, 2, "m-1"),
        # Work of the same request on another thread (no parent).
        ("pipeline", 7.0, 9.0, 5, 0, "m-1"),
        ("retrieval", 9.5, 12.0, 6, 5, "m-1"),  # sticks out of its parent
        ("root.query", 0.0, 1.0, 7, 0, "m-2"),
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(2.0)
    assert selfs[7] == pytest.approx(1.0)


def test_union_length():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_spans_follow_a_request_across_a_thread_hop():
    trace = tracer.Tracer()

    class Front:
        def serve(self, request):
            result = []
            worker = threading.Thread(
                target=lambda: result.append(Back().build(request.query))
            )
            worker.start()
            worker.join(5)
            assert not worker.is_alive()
            return result[0]

    class Back:
        def build(self, query):
            return Leaf().step()

    class Leaf:
        def step(self):
            return 42

    class Request:
        query, client_id = "q", "m-7"

    trace.span(Front, "serve", "root.query",
               rid_of=lambda a, k: a[1].client_id,
               link_of=lambda a, k: (a[1].query,))
    trace.span(Back, "build", "pipeline", link_of=lambda a, k: (a[1],))
    trace.span(Leaf, "step", "nlp")
    assert Front().serve(Request()) == 42
    by_name = {s[0]: s for s in trace.spans}
    assert {s[5] for s in trace.spans} == {"m-7"}
    assert by_name["pipeline"][4] == 0  # context lost: linked by key
    assert by_name["nlp"][4] == by_name["pipeline"][3]


# ---- seeded inputs ----------------------------------------------------------


def _signature(plan):
    return [(op.raw, op.due, op.measured)
            for op in plan.prefill + plan.ops + plan.probe]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_other_seed_other_requests(workload):
    first = workloads.make_plan(workload, 3, 1.0)
    again = workloads.make_plan(workload, 3, 1.0)
    other = workloads.make_plan(workload, 4, 1.0)
    assert _signature(first) == _signature(again)
    assert _signature(first) != _signature(other)
    assert len({op.rid for op in first.prefill + first.ops + first.probe}) \
        == len(first.prefill) + len(first.ops) + len(first.probe)


def test_generators_on_a_tiny_world():
    from repro.corpus.world import WorldConfig, build_world

    world = build_world(seed=5, config=WorldConfig.tiny())
    keys = workloads.cold_keys(world, random.Random(1))
    normalized = [(" ".join(q.lower().split()), s, k) for q, s, k in keys]
    assert len(set(normalized)) == len(keys)
    assert keys == workloads.cold_keys(world, random.Random(1))
    population = workloads.read_population(world, random.Random(1), 20)
    assert len(set(population)) == 20
    docs = workloads.breaking_documents(world, 5, 3, population)
    assert len({d["doc_id"] for d in docs}) == 3
    times = workloads.poisson_times(100.0, 0.0, 2.0, random.Random(2))
    assert times == sorted(times) and 150 < len(times) < 250
    zipf = workloads.Zipf(50, 1.0, random.Random(3))
    draws = [zipf.sample() for _ in range(2000)]
    assert draws.count(0) > draws.count(10) > 0


# ---- output checks ----------------------------------------------------------


def _op(kind, sent, done, body):
    op = workloads.Op(kind, f"m-{sent}", b"")
    op.sent, op.done, op.status = sent, done, 200
    op.body = __import__("json").dumps(body).encode()
    return op


def test_stale_reads_after_an_ack_are_caught():
    ack = _op("ingest", 1.0, 2.0, {"entity_versions": {"ada": 2, "x": 1}})
    before = _op("query", 1.5, 3.0, {"entity_versions": {"ada": 1}})
    fresh = _op("query", 2.5, 3.0, {"entity_versions": {"ada": 2}})
    stale = _op("query", 2.6, 3.0, {"entity_versions": {"ada": 1}})
    untouched = _op("query", 2.7, 3.0, {"entity_versions": {"bob": 0}})
    found, touched = run.stale_reads([ack, before, fresh, stale, untouched])
    assert found == [stale]
    assert touched == 2


@pytest.mark.parametrize("page, ok", [
    ({"results": [], "has_more": False, "next_cursor": None}, True),
    ({"results": [{}], "has_more": True, "next_cursor": "12|40"}, True),
    ({"results": [{}], "has_more": True, "next_cursor": "-3.5e-06|7"}, True),
    ({"results": [{}], "has_more": True, "next_cursor": None}, False),
    ({"results": [{}], "has_more": True, "next_cursor": "abc|7"}, False),
    ({"results": [{}], "has_more": True, "next_cursor": "12"}, False),
    ({"has_more": False}, False),
])
def test_search_page_check(page, ok):
    assert (run.search_page_problem(page) is None) == ok


# ---- host speed and the probe rounds ----------------------------------------


def test_chunk_median_takes_the_interval_or_the_nearest_chunks():
    samples = [(float(t), 0.001 * (1 + t % 3)) for t in range(30)]
    # [10, 20] holds 11 chunks: times 10..20, chunk times cycle 2,3,1 ms.
    assert run.chunk_median(samples, 10.0, 20.0) == pytest.approx(0.002)
    # [5, 5.5] holds one chunk: the 9 nearest to 5.25 are times 1..9.
    nearest = sorted(0.001 * (1 + t % 3) for t in range(1, 10))
    assert run.chunk_median(samples, 5.0, 5.5) == pytest.approx(nearest[4])
    with pytest.raises(RuntimeError):
        run.chunk_median([], 0.0, 1.0)


def test_host_speed_scales_to_the_reference_chunk():
    speed = run.HostSpeed()
    speed.samples = [(float(t), run.REFERENCE_CHUNK_S * 2) for t in range(20)]
    assert speed.scale(0.0, 19.0) == pytest.approx(0.5)
    with run.HostSpeed() as live:
        deadline = time.monotonic() + 10.0
        while len(live.samples) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert len(live.samples) >= 2
    assert all(cpu > 0 for _, cpu in live.samples)
    assert not live._thread.is_alive()


def test_probe_rounds_split_each_kind_in_order_searches_first():
    rounds_per_kind = workloads.PROBE_ROUNDS
    ops = ([workloads.Op("ingest", f"xi-{i}", b"")
            for i in range(rounds_per_kind + 2)]
           + [workloads.Op("search", f"xs-{i}", b"")
              for i in range(2 * rounds_per_kind + 3)])
    rounds = run.probe_rounds(ops)
    assert [kind for kind, _ in rounds] == (
        ["search"] * workloads.PROBE_ROUNDS + ["ingest"] * workloads.PROBE_ROUNDS)
    for kind in ("ingest", "search"):
        flat = [op for k, chunk in rounds if k == kind for op in chunk]
        assert flat == [op for op in ops if op.kind == kind]
    assert all(chunk for _, chunk in rounds)
    assert run.probe_rounds([]) == []
    # Fewer ops than rounds: one op a round, no empty rounds.
    assert len(run.probe_rounds(ops[:2])) == 2


def test_windowed_cpu_ms_interpolates_and_scales_each_part():
    speed = run.HostSpeed()
    # Chunks run twice as slow in the second half: its CPU is halved.
    speed.samples = ([(t / 10, run.REFERENCE_CHUNK_S) for t in range(50)]
                     + [(t / 10, 2 * run.REFERENCE_CHUNK_S)
                        for t in range(50, 100)])
    marks = [(0.0, 0.0), (5.0, 1.0), (10.0, 3.0)]  # CPU seconds
    done = [i / 10 + 0.05 for i in range(100)]  # ten requests a second
    values = run.windowed_cpu_ms(marks, done, speed, windows=2)
    assert values == pytest.approx([20.0, 20.0])
    # Interpolation: the first quarter used 0.5 CPU s over 25 requests.
    quarters = run.windowed_cpu_ms(marks, done, speed, windows=4)
    assert quarters[0] == pytest.approx(20.0)
    assert run.windowed_cpu_ms(marks, [1.0], speed, windows=2) \
        == pytest.approx([1000.0])
