"""The repository benchmark: QKBfly served over loopback HTTP.

One server process (``server.py``: ``HttpGateway`` over
``AsyncQKBflyService``, default ``ServiceConfig`` plus a KB store and a
queue-depth admission limit) runs on the benchmark's fixed world.
This process drives it with at most two connections (fewer if the
host has fewer CPUs), checks every output, and prints the metrics.

    python3 perfbench/run.py --workload cold-build --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` runs the workload untraced and then traced, and prints
the per-layer metrics. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when an output check failed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import http.client
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Load-generator connections: at most nproc, and at most two, so the
#: workload is the same on bigger hosts.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Server starts per untraced run; ``setup_s`` is the median of their
#: set-up CPU times.
SETUP_REPEATS = 5
SERVER_START_TIMEOUT = 120.0
SERVER_STOP_TIMEOUT = 60.0
#: Reference-builder processes for the output checks.
REFERENCE_PROCESSES = max(1, min(2, os.cpu_count() or 1))

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cpu_ms_per_op", "ms"),
    ("ingest_cpu_ms", "ms"),
    ("search_cpu_ms", "ms"),
    ("server_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

_CURSOR = re.compile(r"^(?P<key>[^|]+)\|(?P<id>-?\d+)$")

#: Median CPU time of one :func:`calibration_chunk` on the host the
#: benchmark was built on (2 vCPUs, Python 3.11). The CPU metrics are
#: scaled to this speed; see :class:`HostSpeed`.
REFERENCE_CHUNK_S = 0.0019
#: How often the host-speed sampler runs a chunk.
SPEED_PERIOD_S = 0.03
#: The fewest chunks one interval's scale is taken from.
SPEED_MIN_SAMPLES = 9
#: ``cpu_ms_per_op`` is the mean over this many equal parts of the
#: traffic, each scaled by the chunks run during it.
TRAFFIC_WINDOWS = 10
_WORDS = tuple(f"w{i:03d}" for i in range(257))


# ---- host speed -------------------------------------------------------------


def calibration_chunk() -> None:
    """A fixed piece of interpreter work (dict updates on string keys,
    a sort), like the server's own, that takes about 2 ms."""
    counts: Dict[str, int] = {}
    for i in range(10_000):
        word = _WORDS[i % len(_WORDS)]
        counts[word] = counts.get(word, 0) + i
    sorted(counts.items(), key=lambda item: item[1])


class HostSpeed:
    """How fast the host runs a fixed piece of Python while the
    benchmark measures.

    On a shared host the CPU time of fixed work moves with the load the
    neighbours put on caches and cores: a calibration chunk's CPU time
    varied by 40% (interquartile range over median) within one minute
    on the 2-vCPU build host. A thread of the benchmark process runs
    :func:`calibration_chunk` every :data:`SPEED_PERIOD_S` and records
    its CPU time; :meth:`scale` turns the chunks run during an interval
    into the factor that brings server CPU time measured then to the
    reference speed.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (time, chunk CPU s)
        #: (time, CPU seconds) of the watched server, one per chunk.
        self.server_cpu: List[Tuple[float, float]] = []
        self._watched: Optional[Callable[[], float]] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="host-speed")

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def watch(self, cpu_seconds: Optional[Callable[[], float]]) -> None:
        """Read ``cpu_seconds()``, a server's CPU time, after every
        chunk into :attr:`server_cpu`, until called with None."""
        self._watched = cpu_seconds

    def _run(self) -> None:
        while not self._stop.is_set():
            started = time.thread_time()
            calibration_chunk()
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - started))
            watched = self._watched
            if watched is not None:
                try:
                    self.server_cpu.append((time.perf_counter(), watched()))
                except OSError:
                    pass  # the server has exited
            self._stop.wait(SPEED_PERIOD_S)

    def scale(self, start: float, end: float) -> float:
        """Reference chunk time over the median chunk time of the
        interval [start, end]; widened to the nearest
        :data:`SPEED_MIN_SAMPLES` chunks when it holds fewer."""
        return REFERENCE_CHUNK_S / chunk_median(self.samples, start, end)


def windowed_cpu_ms(marks: Sequence[Tuple[float, float]],
                    done: Sequence[float], speed: HostSpeed,
                    windows: int = TRAFFIC_WINDOWS) -> List[float]:
    """Server CPU milliseconds per request in each of ``windows`` equal
    parts of the span of ``marks``, scaled to the reference speed.

    ``marks`` are (time, server CPU seconds) in time order, the first
    and last at the span's ends; CPU time between marks is interpolated.
    ``done`` are the completion times of the requests; a part without
    any is skipped.
    """
    times = [t for t, _ in marks]
    cpus = [c for _, c in marks]

    def cpu_at(t: float) -> float:
        index = min(max(bisect.bisect_left(times, t), 1), len(times) - 1)
        t0, t1 = times[index - 1], times[index]
        c0, c1 = cpus[index - 1], cpus[index]
        return c0 + (c1 - c0) * ((t - t0) / (t1 - t0) if t1 > t0 else 1.0)

    start, end = times[0], times[-1]
    size = (end - start) / windows
    out = []
    for index in range(windows):
        last = index == windows - 1
        w0 = start + index * size
        w1 = end if last else w0 + size
        count = sum(1 for t in done if w0 <= t < w1 or (last and t == w1))
        if count:
            out.append((cpu_at(w1) - cpu_at(w0)) * 1e3 / count
                       * speed.scale(w0, w1))
    return out


def chunk_median(samples: Sequence[Tuple[float, float]], start: float,
                 end: float) -> float:
    """Median chunk time of the ``samples`` (time, chunk time) taken
    in [start, end], or of the :data:`SPEED_MIN_SAMPLES` nearest to
    the interval's middle when it holds fewer."""
    from loadgen import percentile

    inside = [cpu for t, cpu in samples if start <= t <= end]
    if len(inside) < SPEED_MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
        inside = [cpu for _, cpu in nearest[:SPEED_MIN_SAMPLES]]
    if not inside:
        raise RuntimeError("the host-speed sampler took no samples")
    return percentile(inside, 50.0)


# ---- the server process -----------------------------------------------------


def progress(message: str) -> None:
    """One timing line on standard error (standard output holds the
    result)."""
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {message}",
          file=sys.stderr, flush=True)


def child_env() -> Dict[str, str]:
    """Environment of the server and reference processes: ``src`` on
    the path, and one fixed string-hash seed.

    The pipeline's float sums iterate sets of strings, so a KB's
    confidences can differ in the last digit between processes with
    different hash seeds. The output check compares the served KB with
    a direct build bit for bit, which needs both built under the same
    hash seed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    return env


class Server:
    """One benchmark server process. Its set-up ends at the first
    successful ``/v1/healthz``: ``setup_wall_s`` is the time from
    process start to then, ``setup_cpu_s`` the CPU time the server
    used until then."""

    def __init__(self, run_dir: str, name: str,
                 trace_out: Optional[str] = None,
                 store: Optional[str] = None) -> None:
        self.store = store or os.path.join(run_dir, f"{name}.sqlite")
        self.log_path = os.path.join(run_dir, f"{name}.log")
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--store", self.store]
        if trace_out:
            command += ["--trace-out", trace_out]
        env = child_env()
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, cwd=ROOT,
                env=env,
            )
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before binding:\n"
                                   + self.log_tail())
            self.host, self.port = "127.0.0.1", json.loads(line)["port"]
            self._wait_healthy(started)
        except BaseException:
            self.stop()
            raise
        self.healthy_at = time.perf_counter()
        self.started_at = started
        self.setup_wall_s = self.healthy_at - started
        self.setup_cpu_s = self.thread_cpu_seconds()

    def _wait_healthy(self, started: float) -> None:
        while time.perf_counter() - started < SERVER_START_TIMEOUT:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.002)
        raise RuntimeError("server never became healthy")

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def thread_cpu(self) -> Tuple[float, frozenset]:
        """CPU time of the server's live threads, to the nanosecond
        (``/proc/<pid>/task/*/schedstat``), and their ids. Unlike
        :meth:`cpu_seconds` it misses threads that have exited, so a
        difference of two readings holds only if the ids are equal."""
        total, tasks = 0, set()
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(f"{task_dir}/{task}/schedstat",
                          encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
                tasks.add(task)
            except FileNotFoundError:
                pass  # the thread exited meanwhile
        return total / 1e9, frozenset(tasks)

    def thread_cpu_seconds(self) -> float:
        return self.thread_cpu()[0]

    def cpu_since(self, reading: Tuple[float, float, frozenset]) -> float:
        """CPU seconds since ``reading`` (from :meth:`cpu_reading`): to
        the nanosecond if no thread came or went, else in clock ticks."""
        ticks, (threads, tasks) = self.cpu_seconds(), self.thread_cpu()
        if tasks == reading[2]:
            return threads - reading[1]
        return ticks - reading[0]

    def cpu_reading(self) -> Tuple[float, float, frozenset]:
        """(process CPU seconds, live threads' CPU seconds, thread ids)."""
        return (self.cpu_seconds(),) + self.thread_cpu()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def log_tail(self, lines: int = 20) -> str:
        with open(self.log_path, encoding="utf-8", errors="replace") as handle:
            return "".join(handle.readlines()[-lines:])

    def stop(self) -> None:
        """SIGTERM, wait for a clean exit (the traced server writes its
        trace then); kill if it does not come."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


# ---- one phase: prefill, traffic, probe -------------------------------------


class Phase:
    """The ops one server saw, with its CPU time over the traffic
    (sampled by ``speed`` when given) and over each round of the
    probe."""

    def __init__(self, plan, server: Server, seconds: float,
                 probe: bool = True,
                 before_traffic: Optional[Callable[[], None]] = None,
                 speed: Optional[HostSpeed] = None) -> None:
        from loadgen import closed_loop, open_loop

        host, port = server.host, server.port
        self.plan = plan
        self.prefill = plan.prefill
        if plan.prefill:
            started = time.perf_counter()
            asyncio.run(closed_loop(host, port, plan.prefill, CONNECTIONS))
            progress(f"prefill: {len(plan.prefill)} keys in "
                     f"{time.perf_counter() - started:.1f} s")
        if before_traffic is not None:
            before_traffic()
        if speed is not None:
            speed.watch(server.cpu_seconds)
        started, cpu_before = time.perf_counter(), server.cpu_seconds()
        if plan.loop == "closed":
            self.traffic = asyncio.run(
                closed_loop(host, port, plan.ops, CONNECTIONS, seconds)
            )
            self.origin: Optional[float] = None
        else:
            self.origin = asyncio.run(
                open_loop(host, port, plan.ops, CONNECTIONS)
            )
            self.traffic = list(plan.ops)
        ended, cpu_after = time.perf_counter(), server.cpu_seconds()
        if speed is not None:
            speed.watch(None)
        self.cpu_seconds = cpu_after - cpu_before
        #: (time, server CPU seconds) over the traffic, ends included.
        self.cpu_marks = [(started, cpu_before)] + [
            mark for mark in (speed.server_cpu if speed else ())
            if started < mark[0] < ended
        ] + [(ended, cpu_after)]
        progress(f"traffic: {len(self.traffic)} requests")
        self.probe = Probe(server, [], plan.probe if probe else [])
        self.peak_rss_mb = server.peak_rss_mb()

    @property
    def measured(self) -> List:
        return [op for op in self.traffic if op.measured]

    def checked(self) -> List:
        """Every op whose outcome counts: prefill, measured, probe."""
        return (list(self.prefill) + self.measured + self.probe.prefill
                + self.probe.ops)

    def latency(self, op) -> float:
        """Open loop: from the due time; closed loop: from the send."""
        if self.origin is None or not op.measured or op.rid[0] == "x":
            return op.done - op.sent
        return op.latency_from_due(self.origin)

    def samples(self, kind: str) -> List[Tuple[float, float]]:
        """(send time, latency) of the successful ``kind`` requests of
        the measured traffic, or of the probe when the traffic has none
        of that kind."""
        ops = [op for op in self.measured if op.kind == kind]
        if not ops:
            ops = [op for op in self.probe.ops if op.kind == kind]
        return [(op.sent, self.latency(op)) for op in ops if op.status == 200]

    def query_p50(self) -> float:
        from loadgen import percentile

        return percentile([lat for _, lat in self.samples("query")], 50.0)


class Probe:
    """The probe on ``server``: ``prefill`` built first, then ``ops``
    sent one at a time in :func:`probe_rounds`."""

    def __init__(self, server: Server, prefill: Sequence,
                 ops: Sequence) -> None:
        from loadgen import closed_loop

        host, port = server.host, server.port
        self.prefill, self.ops = list(prefill), list(ops)
        started = time.perf_counter()
        if self.prefill:
            asyncio.run(closed_loop(host, port, self.prefill, CONNECTIONS))
        #: kind -> per round: (server CPU seconds per request, window)
        self.rounds: Dict[str, List[Tuple[float, Tuple[float, float]]]] = {}
        for kind, chunk in probe_rounds(self.ops):
            begin, reading = time.perf_counter(), server.cpu_reading()
            asyncio.run(closed_loop(host, port, chunk, 1))
            self.rounds.setdefault(kind, []).append((
                server.cpu_since(reading) / len(chunk),
                (begin, time.perf_counter()),
            ))
        if self.ops:
            progress(f"probe: {len(self.prefill)} keys built, "
                     f"{len(self.ops)} requests in "
                     f"{time.perf_counter() - started:.1f} s")

    def cpu_ms(self, kind: str, speed: HostSpeed) -> float:
        """Mean over the rounds of the server CPU milliseconds per
        ``kind`` request, each round scaled to the reference speed by
        the chunks run during it."""
        scaled = [cpu * 1e3 * speed.scale(*window)
                  for cpu, window in self.rounds[kind]]
        return sum(scaled) / len(scaled)


def probe_rounds(probe: Sequence) -> List[Tuple[str, List]]:
    """The probe as (kind, ops) rounds: the searches in
    :data:`~workloads.PROBE_ROUNDS` rounds, then the ingests in as
    many, each in probe order. Searches go first, so every search round
    sees the store the prefill built."""
    from workloads import PROBE_ROUNDS

    rounds: List[Tuple[str, List]] = []
    for kind in ("search", "ingest"):
        ops = [op for op in probe if op.kind == kind]
        size = len(ops) / PROBE_ROUNDS
        for index in range(PROBE_ROUNDS):
            chunk = ops[round(index * size):round((index + 1) * size)]
            if chunk:
                rounds.append((kind, chunk))
    return rounds


def end_to_end(phase: Phase, setup_cpu: Sequence[float], speed: HostSpeed,
               failed: int, attempted: int) -> Tuple[Dict[str, float], Dict]:
    """The end-to-end metrics of an untraced phase, and the figures
    reported beside them: the CPU times before scaling to the reference
    speed, the scaled traffic windows, and the wall-clock figures (see
    README: not gated). ``setup_cpu`` is already scaled."""
    from loadgen import percentile, summarize
    from workloads import WARM_SECONDS

    traffic_cpu_ms = phase.cpu_seconds * 1e3 / len(phase.traffic)
    windows = windowed_cpu_ms(phase.cpu_marks,
                              [op.done for op in phase.traffic], speed)
    metrics: Dict[str, float] = {
        "setup_s": percentile(setup_cpu, 50.0),
        "cpu_ms_per_op": sum(windows) / len(windows),
        "ingest_cpu_ms": phase.probe.cpu_ms("ingest", speed),
        "search_cpu_ms": phase.probe.cpu_ms("search", speed),
        "server_rss_mb": phase.peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    wall: Dict[str, object] = {}
    for kind in ("query", "ingest", "search"):
        summary = summarize(phase.samples(kind))
        wall[f"{kind}_p50_ms"] = summary["p50"] * 1e3
        wall[f"{kind}_tail_ms"] = summary["tail"] * 1e3
        wall[f"{kind}_tail"] = {k: summary[k] for k in
                                ("tail_pct", "n", "windows")}
    served = [op for op in phase.measured
              if op.kind == "query" and op.status == 200]
    start = (min(op.sent for op in phase.measured) if phase.origin is None
             else phase.origin + WARM_SECONDS)
    window = max(op.done for op in phase.measured) - start
    wall["kbs_per_s"] = len(served) / window
    wall["window_s"] = window
    unscaled: Dict[str, object] = {"cpu_ms_per_op": traffic_cpu_ms}
    for kind in ("ingest", "search"):
        unscaled[f"{kind}_cpu_ms_rounds"] = [
            cpu * 1e3 for cpu, _ in phase.probe.rounds[kind]]
    return metrics, {"wall_clock": wall, "cpu_unscaled": unscaled,
                     "cpu_ms_per_op_windows": windows}


# ---- output checks ----------------------------------------------------------


def _body(op) -> Dict:
    return json.loads(op.body) if op.body else {}


def check_outputs(workload: str, phase: Phase,
                  reference: Dict[str, str]) -> Tuple[Set[str], List[str],
                                                      Dict]:
    """Check every counted op against ``reference`` (KB digests of
    direct builds); returns (failed request ids, problems, facts). A
    non-200 response, a timeout, or a failed check fails an op."""
    failed: Set[str] = set()
    problems: List[str] = []
    facts: Dict[str, object] = {}

    def fail(op, why: str) -> None:
        if op.rid not in failed:
            failed.add(op.rid)
            if len(problems) < 20:
                problems.append(f"{op.rid}: {why}")

    ops = phase.checked()
    for op in ops:
        if op.status != 200:
            fail(op, f"HTTP status {op.status}")
        elif op.kind == "search":
            why = search_page_problem(_body(op))
            if why:
                fail(op, why)

    queries = [op for op in phase.measured
               if op.kind == "query" and op.status == 200]
    expected = {"cold-build": ("executor",), "hot-mix": ("cache", "store")}
    if workload in expected:
        for op in queries:
            served_from = _body(op).get("served_from")
            if served_from not in expected[workload]:
                fail(op, f"served from {served_from}, expected "
                         f"{' or '.join(expected[workload])}")
        for op in kb_mismatches(queries, reference):
            fail(op, "KB differs from a direct QKBfly.build_kb")
        facts["kbs_checked"] = len({op.key for op in queries})
    if workload == "live-corpus":
        stale, touched = stale_reads(phase.measured)
        for op in stale:
            fail(op, "read older than an acknowledged ingest")
        facts["touched_reads_checked"] = touched
        if touched == 0:
            problems.append("no read of a touched query followed an ingest")
    return failed, problems, facts


def search_page_problem(page: Dict) -> Optional[str]:
    """Why a search page is malformed, or None."""
    if not isinstance(page.get("results"), list):
        return "search page without a results list"
    cursor = page.get("next_cursor")
    if page.get("has_more") and cursor is None:
        return "has_more without a next_cursor"
    if cursor is not None:
        match = _CURSOR.match(str(cursor))
        if match is None:
            return f"malformed cursor {cursor!r}"
        try:
            float(match.group("key"))
        except ValueError:
            return f"malformed cursor {cursor!r}"
    return None


def kb_mismatches(queries: Sequence, reference: Dict[str, str]) -> List:
    """Served query ops whose KB differs from the direct build."""
    from reference import kb_digest, key_id

    return [op for op in queries
            if reference.get(key_id(op.key)) != kb_digest(_body(op)["kb"])]


class References:
    """Direct builds of ``keys`` (``reference.py``), split over
    ``processes`` processes started at once."""

    def __init__(self, keys: Sequence, run_dir: str, processes: int) -> None:
        self.started = time.perf_counter()
        self.count = len(keys)
        self._jobs = []
        self._digests: Optional[Dict[str, str]] = None
        env = child_env()
        for index in range(processes):
            chunk = list(keys[index::processes])
            if not chunk:
                continue
            keys_path = os.path.join(run_dir, f"ref-{index}-keys.json")
            out_path = os.path.join(run_dir, f"ref-{index}-out.json")
            with open(keys_path, "w", encoding="utf-8") as handle:
                json.dump(chunk, handle)
            self._jobs.append((subprocess.Popen(
                [sys.executable, os.path.join(HERE, "reference.py"),
                 "--keys", keys_path, "--out", out_path],
                cwd=ROOT, env=env,
            ), out_path))

    def digests(self) -> Dict[str, str]:
        """Wait for every builder; key id -> KB digest."""
        if self._digests is None:
            digests: Dict[str, str] = {}
            for proc, out_path in self._jobs:
                if proc.wait() != 0:
                    raise RuntimeError("reference builder failed")
                with open(out_path, encoding="utf-8") as handle:
                    digests.update(json.load(handle))
            self._digests = digests
            progress(f"reference: {self.count} KBs in "
                     f"{time.perf_counter() - self.started:.1f} s")
        return self._digests

    def close(self) -> None:
        for proc, _ in self._jobs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def stale_reads(ops: Sequence) -> Tuple[List, int]:
    """Reads sent after an ingest ack whose entity versions are older
    than that ack's; and how many reads of touched queries followed an
    ack at all."""
    acks = sorted(
        (op.done, _body(op).get("entity_versions") or {})
        for op in ops if op.kind == "ingest" and op.status == 200
    )
    stale, touched = [], 0
    for op in ops:
        if op.kind != "query" or op.status != 200:
            continue
        versions = _body(op).get("entity_versions") or {}
        overlap = False
        for acked_at, acked in acks:
            if acked_at >= op.sent:
                break
            for entity, version in acked.items():
                if entity in versions:
                    overlap = True
                    if versions[entity] < version:
                        stale.append(op)
                        break
            else:
                continue
            break
        touched += overlap
    return stale, touched


# ---- the run ----------------------------------------------------------------


def host_facts() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_commit": git_commit(), "connections": CONNECTIONS}


def git_commit() -> str:
    """The checkout's commit from ``.git`` if there is one (the
    benchmark may run from an export that is not a repository)."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="ascii") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]),
                      encoding="ascii") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def run_phase(args, run_dir: str, world, server: Server,
              speed: Optional[HostSpeed] = None, probe: bool = True
              ) -> Tuple[Phase, Dict[str, str]]:
    """One phase of the workload on ``server``, with the reference KB
    digests its output checks need.

    hot-mix knows its measured keys in advance: one builder runs beside
    the prefill (the server's builds hold one CPU) and must finish before
    the traffic starts. cold-build learns its keys from the traffic, so
    its builders run after it.
    """
    from workloads import make_plan

    plan = make_plan(args.workload, args.seed, args.seconds, world)
    references = None
    try:
        if args.workload == "hot-mix":
            keys = sorted({op.key for op in plan.ops if op.measured})
            references = References(keys, run_dir, 1)
            phase = Phase(plan, server, args.seconds, probe,
                          before_traffic=references.digests, speed=speed)
        else:
            phase = Phase(plan, server, args.seconds, probe, speed=speed)
        server.stop()
        if args.workload == "cold-build":
            keys = sorted({op.key for op in phase.measured if op.status == 200})
            references = References(keys, run_dir, REFERENCE_PROCESSES)
        return phase, references.digests() if references else {}
    finally:
        server.stop()
        if references is not None:
            references.close()


def run_untraced(args, run_dir: str, world) -> Dict:
    """The end-to-end metrics: the first server started runs the probe
    on its own prefill, the last one runs the workload."""
    from workloads import probe_plan

    setup_cpu: List[float] = []
    setup_scaled: List[float] = []
    setup_wall: List[float] = []
    with HostSpeed() as speed:
        for index in range(SETUP_REPEATS):
            server = Server(run_dir, f"setup-{index}")
            setup_cpu.append(server.setup_cpu_s)
            setup_scaled.append(server.setup_cpu_s * speed.scale(
                server.started_at, server.healthy_at))
            setup_wall.append(server.setup_wall_s)
            if index == 0:
                try:
                    probe = Probe(server, *probe_plan(world))
                finally:
                    server.stop()
            elif index < SETUP_REPEATS - 1:
                server.stop()
        phase, reference = run_phase(args, run_dir, world, server, speed,
                                     probe=False)
        phase.probe = probe
    failed, problems, facts = check_outputs(args.workload, phase, reference)
    attempted = len(phase.checked())
    metrics, details = end_to_end(phase, setup_scaled, speed, len(failed),
                                  attempted)
    return {"metrics": metrics, "units": dict(END_TO_END),
            "attempted": attempted, "failed": len(failed),
            "problems": problems,
            "details": {**details, **facts, "setup_cpu_s": setup_cpu,
                        "setup_wall_s": setup_wall,
                        "speed_chunks": len(speed.samples)},
            "plan": phase.plan}


def run_traced(args, run_dir: str, world) -> Dict:
    from layers import (PER_LAYER, Trace, layer_metrics, layer_shares,
                        traffic_assertions)
    from loadgen import lateness
    from workloads import make_plan

    server = Server(run_dir, "untraced")
    try:
        untraced = Phase(
            make_plan(args.workload, args.seed, args.seconds, world), server,
            args.seconds, probe=False,
        )
    finally:
        server.stop()
    # Hot-mix never writes the corpus, so its store can serve the traced
    # server too; the other workloads need a fresh one.
    store = server.store if args.workload == "hot-mix" else None
    trace_path = os.path.join(run_dir, "trace.json")
    server = Server(run_dir, "traced", trace_out=trace_path,
                    store=store)
    traced, reference = run_phase(args, run_dir, world, server)
    failed, problems, facts = check_outputs(args.workload, traced, reference)
    for op in untraced.checked():
        if op.status != 200:
            failed.add(op.rid)
    trace = Trace.load(trace_path)
    ops = traced.traffic + traced.probe.ops
    late = (lateness(traced.traffic, traced.origin)
            if traced.origin is not None else [])
    metrics = layer_metrics(trace, ops, late, untraced.query_p50(),
                            traced.query_p50())
    problems += traffic_assertions(args.workload, trace, ops, metrics)
    return {"metrics": metrics, "units": dict(PER_LAYER),
            "attempted": len(traced.checked()) + len(untraced.checked()),
            "failed": len(failed), "problems": problems,
            "details": {**facts, "layer_self_shares": layer_shares(trace, ops)},
            "plan": traced.plan}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="QKBfly serving benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", required=True,
                        choices=("cold-build", "hot-mix", "live-corpus"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: {SRC} has no repro package; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import build_bench_world, world_facts

    # A terminated benchmark still stops its server and reference
    # processes: SystemExit unwinds through their finally blocks.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    scratch = os.path.join(ROOT, ".perfbench")
    run_dir = os.path.join(scratch, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        world = build_bench_world()
        runner = run_traced if args.trace else run_untraced
        result = runner(args, run_dir, world)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is using it

    correct = result["failed"] == 0 and not result["problems"]
    record = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "world": world_facts(),
        "rates_per_s": result["plan"].rates, "loop": result["plan"].loop,
        "host": host_facts(), "details": result["details"],
        "problems": result["problems"],
    }
    print(json.dumps({"record": record}, default=str))
    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:14.4f} {result['units'][name]}")
    for name, value in result["details"].get("wall_clock", {}).items():
        if isinstance(value, float):
            print(f"{'(wall) ' + name:40s} {value:14.4f}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": result["units"][name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
