"""Seeded inputs of the benchmark: the world, the request population
and the per-workload traffic schedules.

Everything here is a pure function of the workload seed, so the same
seed gives the same world and the same request sequence. The server
process only ever receives the generated requests.
"""

from __future__ import annotations

import dataclasses
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

#: Person counts and ``num_events`` are scaled by this factor over the
#: default ``WorldConfig``. Four times is as far as the name pools go:
#: ~435 entity pages and 200 news articles, so ingest's dependence on
#: corpus size shows.
WORLD_SCALE = 4
#: The world is a fixed input of the benchmark (the repository's default
#: world seed); the workload seed varies the requests sent to it. Worlds
#: of other seeds differ in document lengths, which would make one
#: workload's figures spread with the seed.
WORLD_SEED = 7
_SCALED_FIELDS = (
    "num_actors", "num_musicians", "num_footballers", "num_politicians",
    "num_scientists", "num_businesspeople", "num_journalists",
    "num_coaches", "num_writers", "num_models", "num_events",
)

#: Admission limit on distinct in-flight cold builds: overload shows as
#: 503 refusals instead of an unbounded queue.
MAX_QUEUE_DEPTH = 8

#: Keys of the hot-mix population: two and a half times the 256-entry
#: ``QueryCache``, so the Zipf head is served by the cache and the tail
#: by the store.
HOT_POPULATION = 640
#: Keys of the live-corpus read population (smaller: its prefill is
#: set-up cost of the run, not of the server).
LIVE_POPULATION = 500
ZIPF_EXPONENT = 1.0
#: The popularity order of a read population is seeded apart from the
#: workload seed, so every seed has the same hot keys. Which keys are
#: hot decides how much KB JSON the responses carry, so an order drawn
#: from the workload seed would move the CPU figures with the seed.
#: The workload seed varies the arrival times and the Zipf draws.
POPULATION_SEED = "read-population"

#: Open-loop rates in requests per second.
HOT_QUERY_RATE = 150.0
LIVE_QUERY_RATE = 30.0
LIVE_SEARCH_RATE = 12.0
#: Ingests arrive at a fixed interval, so every run of a given length
#: has the same number of them (the tail percentile depends on it).
LIVE_INGEST_INTERVAL = 0.75
SEARCH_PAGE_LIMIT = 20

#: Unmeasured traffic before the measured window: lets the cache take
#: the Zipf head and lazy set-up finish.
WARM_SECONDS = 2.0
COLD_WARM_REQUESTS = 24

#: The probe: this many ingests and searches are sent one at a time, so
#: every workload reports the server CPU time of each kind on its own.
#: Each kind goes in rounds, and each round's CPU time is scaled to the
#: reference speed by the host-speed chunks run during it.
PROBE_INGESTS = 56
PROBE_SEARCHES = 2100
PROBE_ROUNDS = 14
#: The probe's requests are the same for every workload seed: they
#: measure a fixed amount of work, so their figures do not spread with
#: the articles and searches a seed would pick.
PROBE_SEED = 0
#: Keys the probe's server builds before the probe, so the store it
#: searches and invalidates is the same in every run. (The server of a
#: cold-build run holds as many KBs as its traffic built, more on a
#: faster host or a faster pipeline.)
PROBE_POPULATION = 300

Key = Tuple[str, str, int]  # (query text, source, num_documents)


def world_config():
    """The benchmark's world size (``WorldConfig`` scaled up)."""
    from repro.corpus.world import WorldConfig

    base = WorldConfig()
    return dataclasses.replace(
        base,
        **{name: getattr(base, name) * WORLD_SCALE for name in _SCALED_FIELDS},
    )


def build_bench_world():
    """The world the server and the reference builder both use."""
    from repro.corpus.world import build_world

    return build_world(seed=WORLD_SEED, config=world_config())


def world_facts() -> Dict[str, object]:
    """The world config recorded with each result."""
    return {"seed": WORLD_SEED, **dataclasses.asdict(world_config())}


@dataclasses.dataclass
class Op:
    """One request of a schedule, with what the load generator saw.

    ``due`` is the offset (seconds) from the start of the schedule at
    which an open loop must send it; closed loops ignore it.
    """

    kind: str  # "query" | "search" | "ingest"
    rid: str  # request id, sent as the envelope's client_id
    raw: bytes  # the full HTTP request
    key: Optional[Key] = None  # query ops
    due: float = 0.0
    measured: bool = True
    # Filled by the load generator (perf_counter seconds).
    queued: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""

    def latency_from_due(self, origin: float) -> float:
        return self.done - (origin + self.due)


def _http(method: str, target: str, body: bytes = b"") -> bytes:
    head = f"{method} {target} HTTP/1.1\r\nHost: bench\r\n"
    if method == "POST":
        head += (
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
    return (head + "\r\n").encode("latin-1") + body


def query_op(key: Key, rid: str, due: float = 0.0, measured: bool = True) -> Op:
    query, source, k = key
    body = json.dumps(
        {"query": query, "source": source, "num_documents": k,
         "client_id": rid}
    ).encode("utf-8")
    return Op("query", rid, _http("POST", "/v1/query", body), key, due, measured)


def search_op(params: Dict[str, object], rid: str, due: float = 0.0,
              measured: bool = True) -> Op:
    from urllib.parse import urlencode

    target = "/v1/facts?" + urlencode({**params, "client_id": rid})
    return Op("search", rid, _http("GET", target), None, due, measured)


def ingest_op(doc: Dict[str, str], rid: str, due: float = 0.0,
              measured: bool = True) -> Op:
    body = json.dumps({**doc, "source": "news", "client_id": rid}).encode(
        "utf-8"
    )
    return Op("ingest", rid, _http("POST", "/v1/ingest", body), None, due,
              measured)


def healthz_request() -> bytes:
    return _http("GET", "/v1/healthz")


# ---- query families ---------------------------------------------------------


def _distinct(texts) -> List[str]:
    """``texts`` without repeats under the serving layer's query
    normalization (case and whitespace), first spelling kept."""
    seen, out = set(), []
    for text in texts:
        normalized = " ".join(text.lower().split())
        if normalized not in seen:
            seen.add(normalized)
            out.append(text)
    return out


def entity_names(world) -> List[str]:
    return _distinct(
        sorted(e.name for e in world.entities.values() if e.in_repository)
    )


def question_texts(world) -> List[str]:
    from repro.datasets.trends_questions import build_trends_questions

    return _distinct(q.question for q in build_trends_questions(world))


def cold_keys(world, rng: random.Random) -> List[Key]:
    """Every distinct key cold-build may send, in seeded order.

    The two families the workload is about (names on ``wikipedia``
    with k=1, trends questions on ``news`` with k=3) come first and
    are interleaved; further families with other (source, k) pairs
    follow, so a faster server never runs out of never-seen keys.
    """
    names, questions = entity_names(world), question_texts(world)
    primary = [(n, "wikipedia", 1) for n in names] + [
        (q, "news", 3) for q in questions
    ]
    extra = (
        [(n, "news", 3) for n in names]
        + [(q, "wikipedia", 1) for q in questions]
        + [(n, "wikipedia", 2) for n in names]
        + [(q, "news", 2) for q in questions]
    )
    rng.shuffle(primary)
    rng.shuffle(extra)
    return primary + extra


def read_population(world, rng: random.Random, size: int) -> List[Key]:
    """``size`` distinct keys, in seeded Zipf-rank order.

    News-channel keys (k=3) come first: trends questions, then entity
    names with trend-event participants first. Their documents overlap,
    so the prefill that builds them is a few seconds, and live-corpus
    ingests, realized from those events, touch them.
    """
    participants = {
        world.entities[e].name
        for event in world.events
        for e in event.main_entities
        if e in world.entities
    }
    names = entity_names(world)
    names = [n for n in names if n in participants] + [
        n for n in names if n not in participants
    ]
    keys: List[Key] = [(q, "news", 3) for q in question_texts(world)]
    keys += [(n, "news", 3) for n in names]
    keys += [(n, "wikipedia", 1) for n in names]
    if len(keys) < size:
        raise ValueError(f"world has only {len(keys)} keys, need {size}")
    population = keys[:size]
    rng.shuffle(population)
    return population


class Zipf:
    """Seeded Zipf sampler over ranks 0..n-1."""

    def __init__(self, n: int, exponent: float, rng: random.Random) -> None:
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        total = sum(weights)
        self._cum: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cum.append(acc)
        self._rng = rng

    def sample(self) -> int:
        import bisect

        return min(bisect.bisect_left(self._cum, self._rng.random()),
                   len(self._cum) - 1)


def poisson_times(rate: float, start: float, end: float,
                  rng: random.Random) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate`` on [start, end)."""
    out, t = [], start
    while True:
        t += rng.expovariate(rate)
        if t >= end:
            return out
        out.append(t)


def breaking_documents(world, seed: int, count: int,
                       population: Sequence[Key],
                       prefix: str = "breaking") -> List[Dict[str, str]]:
    """``count`` breaking-news articles realized from world events.

    A realizer seeded apart from the corpus's own writes a fresh
    article for each event whose participants are in the read
    population, under a new doc id.
    """
    from repro.corpus.realizer import Realizer

    queries = [query.lower() for query, _, _ in population]
    events = [
        event for event in world.events
        if any(
            e in world.entities
            and any(world.entities[e].name.lower() in q for q in queries)
            for e in event.main_entities
        )
    ]
    if not events:
        raise ValueError("no event touches the read population")
    realizer = Realizer(world, seed=seed * 7 + 1_000_003)
    docs = []
    for index in range(count):
        article = realizer.news_article(events[index % len(events)])
        docs.append({
            "doc_id": f"{prefix}-{seed}-{index}",
            "title": article.title,
            "text": article.text,
        })
    return docs


def search_params(world, rng: random.Random) -> Dict[str, object]:
    """A ranked full-text search or an entity-filtered one, 50/50."""
    name = rng.choice(entity_names(world))
    if rng.random() < 0.5:
        return {"q": name.split()[-1], "sort": "rank",
                "limit": SEARCH_PAGE_LIMIT}
    return {"entity": name, "limit": SEARCH_PAGE_LIMIT}


# ---- workload plans ---------------------------------------------------------


@dataclasses.dataclass
class Plan:
    """What one workload run sends.

    ``prefill`` is built (closed loop, unmeasured) before traffic
    starts; ``ops`` is the traffic: closed-loop ops are sent in order
    until the measured time is up, open-loop ops at their ``due``
    offsets. ``probe`` runs one at a time after the traffic.
    """

    workload: str
    loop: str  # "closed" | "open"
    prefill: List[Op]
    ops: List[Op]
    probe: List[Op]
    rates: Dict[str, float]


def make_plan(workload: str, seed: int, seconds: float, world=None) -> Plan:
    """The seeded request plan of one workload run."""
    world = world if world is not None else build_bench_world()
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cold-build":
        keys = cold_keys(world, rng)
        ops = [
            query_op(key, f"{'w' if i < COLD_WARM_REQUESTS else 'm'}-{i}",
                     measured=i >= COLD_WARM_REQUESTS)
            for i, key in enumerate(keys)
        ]
        return Plan(workload, "closed", [], ops, _probe(world), {})
    if workload == "hot-mix":
        population = read_population(
            world, random.Random(POPULATION_SEED), HOT_POPULATION)
        ops = _reads(population, rng, HOT_QUERY_RATE, seconds)
        return Plan(workload, "open", _prefill(population), ops,
                    _probe(world), {"query": HOT_QUERY_RATE})
    if workload == "live-corpus":
        population = read_population(
            world, random.Random(POPULATION_SEED), LIVE_POPULATION)
        ops = _reads(population, rng, LIVE_QUERY_RATE, seconds)
        end = WARM_SECONDS + seconds
        for i, due in enumerate(poisson_times(LIVE_SEARCH_RATE, 0.0, end, rng)):
            ops.append(search_op(search_params(world, rng), _rid("s", i, due),
                                 due, due >= WARM_SECONDS))
        ingest_dues = []
        due = WARM_SECONDS + LIVE_INGEST_INTERVAL / 2
        while due < end:
            ingest_dues.append(due)
            due += LIVE_INGEST_INTERVAL
        docs = breaking_documents(world, seed, len(ingest_dues), population)
        for i, (due, doc) in enumerate(zip(ingest_dues, docs)):
            ops.append(ingest_op(doc, f"mi-{i}", due))
        ops.sort(key=lambda op: op.due)
        return Plan(workload, "open", _prefill(population), ops,
                    _probe(world),
                    {"query": LIVE_QUERY_RATE, "search": LIVE_SEARCH_RATE,
                     "ingest": 1.0 / LIVE_INGEST_INTERVAL})
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cold-build", "hot-mix", "live-corpus")


def _rid(prefix: str, index: int, due: float) -> str:
    return f"{'m' if due >= WARM_SECONDS else 'w'}{prefix}-{index}"


def _reads(population: Sequence[Key], rng: random.Random, rate: float,
           seconds: float) -> List[Op]:
    zipf = Zipf(len(population), ZIPF_EXPONENT, rng)
    return [
        query_op(population[zipf.sample()], _rid("q", i, due), due,
                 due >= WARM_SECONDS)
        for i, due in enumerate(
            poisson_times(rate, 0.0, WARM_SECONDS + seconds, rng)
        )
    ]


def _prefill(population: Sequence[Key]) -> List[Op]:
    return [query_op(key, f"p-{i}", measured=False)
            for i, key in enumerate(population)]


def probe_plan(world) -> Tuple[List[Op], List[Op]]:
    """The probe's prefill (a fixed population of keys) and its
    requests: ingests of new doc ids, then searches."""
    rng = random.Random(f"probe:{PROBE_SEED}")
    population = read_population(world, rng, PROBE_POPULATION)
    docs = breaking_documents(world, PROBE_SEED, PROBE_INGESTS, population,
                              prefix="probe")
    prefill = [query_op(key, f"pp-{i}", measured=False)
               for i, key in enumerate(population)]
    return prefill, [ingest_op(doc, f"xi-{i}") for i, doc in enumerate(docs)] + [
        search_op(search_params(world, rng), f"xs-{i}")
        for i in range(PROBE_SEARCHES)
    ]


def _probe(world) -> List[Op]:
    return probe_plan(world)[1]
