"""Load generation over loopback HTTP, and the latency statistics.

A minimal HTTP/1.1 keep-alive client on asyncio streams drives the
server with at most ``nproc`` connections. Two loops:

- closed: each connection sends its next request only after the
  previous one completed; latency runs from send to completion;
- open: a dispatcher releases each request at its due time whatever
  the server does, and free connections pick released requests up in
  order; latency runs from the due time, so a stall also charges the
  wait it imposes on later requests. How late the dispatcher itself
  released requests is recorded as its lateness.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from workloads import Op

#: A request unanswered for this long counts as failed (timeout).
REQUEST_TIMEOUT = 30.0
#: The standard percentiles a tail is chosen from (see :func:`tail`).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, raw: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )
        reader, writer = self._reader, self._writer
        writer.write(raw)
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length, keep_alive = 0, True
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep_alive = value.strip().lower() != "close"
        body = await reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, body

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass


async def _send(conn: Connection, op: Op) -> None:
    op.sent = time.perf_counter()
    try:
        op.status, op.body = await asyncio.wait_for(
            conn.request(op.raw), REQUEST_TIMEOUT
        )
    except (asyncio.TimeoutError, ConnectionError, OSError, ValueError,
            asyncio.IncompleteReadError):
        op.status, op.body = 0, b""
        await conn.close()
    op.done = time.perf_counter()


async def closed_loop(host: str, port: int, ops: Iterable[Op],
                      connections: int,
                      measure_seconds: Optional[float] = None) -> List[Op]:
    """Send ``ops`` in order over ``connections`` closed-loop clients.

    Unmeasured ops are sent first as they come; once the first measured
    op is taken, sending stops ``measure_seconds`` later (None: send
    all). Returns the ops actually sent.
    """
    source = iter(ops)
    sent: List[Op] = []
    deadline: List[float] = []

    async def client() -> None:
        conn = Connection(host, port)
        try:
            while True:
                if deadline and time.perf_counter() >= deadline[0]:
                    return
                op = next(source, None)
                if op is None:
                    return
                if op.measured and not deadline and measure_seconds is not None:
                    deadline.append(time.perf_counter() + measure_seconds)
                sent.append(op)
                await _send(conn, op)
        finally:
            await conn.close()

    await asyncio.gather(*(client() for _ in range(connections)))
    return sent


async def open_loop(host: str, port: int, ops: Sequence[Op],
                    connections: int) -> float:
    """Release ``ops`` at their due offsets; returns the schedule origin
    (``perf_counter`` time of offset 0)."""
    queue: asyncio.Queue = asyncio.Queue()
    origin = time.perf_counter() + 0.05

    async def dispatcher() -> None:
        for op in ops:
            delay = origin + op.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            op.queued = time.perf_counter()
            queue.put_nowait(op)
        for _ in range(connections):
            queue.put_nowait(None)

    async def client() -> None:
        conn = Connection(host, port)
        try:
            while True:
                op = await queue.get()
                if op is None:
                    return
                await _send(conn, op)
        finally:
            await conn.close()

    await asyncio.gather(dispatcher(), *(client() for _ in range(connections)))
    return origin


# ---- statistics -------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least
    :data:`TAIL_MIN_BEYOND` of ``count`` samples beyond it (None when
    even the median has fewer)."""
    best = None
    for pct in TAIL_LADDER:
        if count * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND - 1e-9:
            best = pct
    return best


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, sample count) of the tail of ``values``; the
    maximum (percentile 100) when too few samples for the ladder."""
    pct = tail_percentile(len(values))
    if pct is None:
        pct = 100.0
    return percentile(values, pct), pct, len(values)


#: A tail is the median over up to this many consecutive windows of
#: the run (see :func:`windowed_tail`).
TAIL_WINDOWS = 3


def windowed_tail(samples: Sequence[Tuple[float, float]]
                  ) -> Tuple[float, float, int, int]:
    """(value, percentile, sample count, windows) of the tail of
    ``samples``, a sequence of (time, latency).

    The samples are cut, in time order, into the most consecutive
    windows (at most :data:`TAIL_WINDOWS`) of equal count in which the
    run's own tail percentile (:func:`tail_percentile` of all samples)
    still has at least :data:`TAIL_MIN_BEYOND` samples beyond it; the
    value is the median of the windows' tails. A burst of interference
    from outside the benchmark then moves one window, not the result.
    """
    ordered = [latency for _, latency in sorted(samples)]
    pct = tail_percentile(len(ordered))
    windows = 1
    if pct is not None:
        for count in range(TAIL_WINDOWS, 1, -1):
            if tail_percentile(len(ordered) // count) == pct:
                windows = count
                break
    size = len(ordered) / windows
    tails = [
        tail(ordered[round(i * size):round((i + 1) * size)])[0]
        for i in range(windows)
    ]
    return (percentile(tails, 50.0), pct if pct is not None else 100.0,
            len(ordered), windows)


def lateness(ops: Sequence[Op], origin: float) -> List[float]:
    """Seconds each released op was behind its due time."""
    return [max(0.0, op.queued - (origin + op.due)) for op in ops]


def summarize(samples: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Median and tail of the latencies in ``samples`` (time, latency),
    with the tail's percentile, sample count and window count."""
    value, pct, count, windows = windowed_tail(samples)
    return {"p50": percentile([lat for _, lat in samples], 50.0),
            "tail": value, "tail_pct": pct, "n": count, "windows": windows}
