"""The five ladder workloads: seeded inputs, oracles, and timed windows.

Everything the program sees is generated here from ``--seed``; the program
(``repro``) is only ever called through its public functions.  A workload is
an :class:`Inputs` record — relations, textual queries, an engine budget, an
operation schedule and the answers to check against — run either in-process
through one warm ``Session`` or over HTTP against a ``ReproServer``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.reference import naive_natural_join, naive_project
from repro.algebra.relation import Relation
from repro.algebra.schema import RelationScheme
from repro.api import Session
from repro.expressions.ast import Projection
from repro.reductions.rg import RGConstruction
from repro.sat.cnf import CNFFormula
from repro.sat.counting import count_models
from repro.sat.literals import Clause, Literal
from repro.server import ReproServer
from repro.workloads import (
    growing_construction_family,
    serving_queries,
    serving_relations,
)

IN_PROCESS = ("rg_blowup", "join_100k", "spill_tight")
SERVED = ("serve_mixed", "serve_zipf_mutate")
NAMES = IN_PROCESS + SERVED

#: Operations per second of ``--seconds``, calibrated on the 2-core box the
#: baseline was taken on so the window lasts about ``--seconds``.  The count,
#: not the time, is what is fixed: it is the same on both sides of a comparison.
OPS_PER_SECOND = {
    "rg_blowup": 15.0,
    "join_100k": 6.0,
    "spill_tight": 4.0,
    "serve_mixed": 90.0,
    "serve_zipf_mutate": 350.0,
}
#: p90 needs ten samples beyond it, so no window is shorter than this.
MIN_OPS = 100
SMOKE_OPS = {name: 10 for name in IN_PROCESS}
SMOKE_OPS.update({"serve_mixed": 40, "serve_zipf_mutate": 120})

CLIENTS = 2
POOL_SIZE = 2
WARMUP_EXECUTES = 3
SPILL_BUDGET = 64
ZIPF_SKEW = 1.2
MUTATE_EVERY = 40
MUTATE = -1  # schedule entry: POST /mutate instead of a read
SEGMENTS = 5  # throughput is the median rate over this many window segments
JOIN_ROWS = 100_000
JOIN_SLICE = 2_000
RG_CLAUSES = 12
RG_BASE_SEED = 13
JSON_HEADERS = {"Content-Type": "application/json"}


def op_count(name: str, seconds: float, smoke: bool = False) -> int:
    """How many operations ``name`` runs in a ``--seconds`` window."""
    if smoke:
        return SMOKE_OPS[name]
    return max(MIN_OPS, round(OPS_PER_SECOND[name] * seconds))


@dataclass
class Inputs:
    """One workload's generated inputs and expected answers."""

    name: str
    relations: Dict[str, Relation]
    queries: List[str]
    schedule: List[int]
    budget: Optional[int] = None
    #: In-process: builds the expected result of each query.  Called once,
    #: after that query's warm-up, and the result dropped straight away so
    #: oracle rows never sit in ``peak_rss_mb``.
    oracles: List[Callable[[], Relation]] = field(default_factory=list)
    #: One-off setup checks run through the warm session.
    checks: List[Callable[[Session], bool]] = field(default_factory=list)
    #: Served: ``R``'s rows per generation parity, and the expected
    #: ``rowcount`` of every query under each.
    variants: List[list] = field(default_factory=list)
    counts: List[List[int]] = field(default_factory=list)
    cache: bool = False

    @property
    def served(self) -> bool:
        """Whether the window runs over HTTP."""
        return self.name in SERVED

    def query_mix(self) -> List[float]:
        """Each query's share of the schedule's reads."""
        reads = [index for index in self.schedule if index != MUTATE]
        return [reads.count(q) / len(reads) for q in range(len(self.queries))]


# -- rg_blowup / spill_tight -------------------------------------------------


def rg_formula(seed: int, clauses: int = RG_CLAUSES) -> CNFFormula:
    """A seeded isomorphic copy of the repo's canonical ``m``-clause formula.

    The seed renames variables, flips the polarity of a random subset and
    shuffles literals inside clauses: ``R_G``'s rows and the satisfying
    assignments change, while ``#SAT`` and the join graph — hence the cost —
    do not.  Clause *order* is left alone on purpose: the planner breaks
    cost ties by position, and reordering clauses moves the same formula's
    execute time by up to 4x (see README, "What the seed varies").
    """
    base = growing_construction_family(
        clause_counts=(clauses,), seed=RG_BASE_SEED
    )[0].formula
    rng = random.Random(seed)
    names = list(base.variables)
    shuffled = names[:]
    rng.shuffle(shuffled)
    rename = dict(zip(names, shuffled))
    flipped = {name for name in names if rng.random() < 0.5}
    renamed = []
    for clause in base.clauses:
        literals = [
            Literal(rename[lit.variable], lit.positive != (lit.variable in flipped))
            for lit in clause.literals
        ]
        rng.shuffle(literals)
        renamed.append(Clause(literals))
    return CNFFormula(renamed)


def rg_inputs(
    name: str, seed: int, ops: int, budget: Optional[int], clauses: int = RG_CLAUSES
) -> Inputs:
    """``project[S](phi_G)`` over ``R_G``, checked against Lemma 1 and #SAT."""
    construction = RGConstruction(rg_formula(seed, clauses))
    s_column = construction.s_attribute
    phi = construction.expression
    query = Projection(RelationScheme([s_column]), phi).to_text()
    # Lemma 1 gives phi_G(R_G) without evaluating it; the reference algebra
    # projects that onto S.
    oracle = naive_project(construction.expected_result(), [s_column])
    # Theorems 2-3: |phi_G(R_G)| = 7m + 1 + #SAT(G).
    predicted = 7 * clauses + 1 + count_models(construction.formula)

    def cardinality_identity(session: Session) -> bool:
        return len(session.execute(phi.to_text())) == predicted

    return Inputs(
        name=name,
        relations={"R": construction.relation},
        queries=[query],
        schedule=[0] * ops,
        budget=budget,
        oracles=[lambda: oracle],
        checks=[cardinality_identity],
    )


# -- join_100k ---------------------------------------------------------------

JOIN_QUERIES = [
    "project[G, K](R * S * T)",
    "project[O, G](R * S)",
    "project[C, K](R * T)",
]


def join_rows(seed: int) -> Tuple[list, Dict[int, int], Dict[int, int]]:
    """Seeded ``R(O,C,P)`` rows plus the ``S: C->G`` and ``T: P->K`` maps.

    About 5 % of ``R``'s ``C`` and ``P`` values have no partner, so both
    joins filter as well as extend.
    """
    rng = random.Random(seed)
    rows = set()
    while len(rows) < JOIN_ROWS:
        rows.add((rng.randrange(20_000), rng.randrange(5_250), rng.randrange(2_100)))
    s_map = {c: rng.randrange(50) for c in range(5_000)}
    t_map = {p: rng.randrange(40) for p in range(2_000)}
    return sorted(rows), s_map, t_map


def join_inputs(seed: int, ops: int) -> Inputs:
    """Three joins over 10^5 seeded rows, round-robin."""
    rows, s_map, t_map = join_rows(seed)
    relations = {
        "R": Relation.from_rows("O C P", rows, name="R"),
        "S": Relation.from_rows("C G", sorted(s_map.items()), name="S"),
        "T": Relation.from_rows("P K", sorted(t_map.items()), name="T"),
    }
    # Full-size oracle: plain dict lookups (the reference algebra needs ~6 s
    # and ~100 MB for these, which would dominate setup_s and peak_rss_mb).
    oracles = [
        lambda: Relation.from_rows(
            "G K",
            {(s_map[c], t_map[p]) for _, c, p in rows if c in s_map and p in t_map},
        ),
        lambda: Relation.from_rows(
            "O G", {(o, s_map[c]) for o, c, _ in rows if c in s_map}
        ),
        lambda: Relation.from_rows(
            "C K", {(c, t_map[p]) for _, c, p in rows if p in t_map}
        ),
    ]
    # The reference algebra checks the same pinned plans on a slice of R.
    small = Relation.from_rows("O C P", rows[:JOIN_SLICE], name="R")
    r_s = naive_natural_join(small, relations["S"])
    references = [
        naive_project(naive_natural_join(r_s, relations["T"]), "G K"),
        naive_project(r_s, "O G"),
        naive_project(naive_natural_join(small, relations["T"]), "C K"),
    ]

    def reference_slice(session: Session) -> bool:
        return all(
            session.prepare(query).execute(R=small).set_equal(reference)
            for query, reference in zip(JOIN_QUERIES, references)
        )

    return Inputs(
        name="join_100k",
        relations=relations,
        queries=list(JOIN_QUERIES),
        schedule=[index % len(JOIN_QUERIES) for index in range(ops)],
        oracles=oracles,
        checks=[reference_slice],
    )


# -- served workloads --------------------------------------------------------


def zipf_mutate_schedule(seed: int, ops: int, queries: int) -> List[int]:
    """Zipf(1.2) reads over query ranks with one mutate per 40-op block.

    Rank ``k`` is always query ``k`` (the mix's cost would otherwise depend
    on which query the seed made hot); the seed draws the reads and places
    each block's mutate in the block's middle half, so two mutates are
    never adjacent.
    """
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** ZIPF_SKEW for rank in range(queries)]
    schedule = rng.choices(range(queries), weights=weights, k=ops)
    for block in range(0, ops - MUTATE_EVERY + 1, MUTATE_EVERY):
        offset = rng.randrange(MUTATE_EVERY // 4, 3 * MUTATE_EVERY // 4)
        schedule[block + offset] = MUTATE
    return schedule


def served_inputs(name: str, seed: int, ops: int) -> Inputs:
    """``serving_relations()`` behind a 2-worker server, cache off or on."""
    relations = serving_relations()
    queries = serving_queries()
    rng = random.Random(seed)
    variants = [[list(row) for row in relations["R"].sorted_rows()]]
    if name == "serve_mixed":
        order = list(range(len(queries)))
        rng.shuffle(order)
        schedule = [order[index % len(order)] for index in range(ops)]
    else:
        shift = rng.randrange(1, 17)
        variants.append([[i % 37, (i + shift) % 17] for i in range(600)])
        schedule = zipf_mutate_schedule(seed, ops, len(queries))
    counts = []
    for rows in variants:
        database = dict(relations)
        database["R"] = Relation.from_rows("A B", [tuple(r) for r in rows], name="R")
        with Session(database) as session:
            counts.append([len(session.execute(query)) for query in queries])
    return Inputs(
        name=name,
        relations=relations,
        queries=queries,
        schedule=schedule,
        variants=variants,
        counts=counts,
        cache=name == "serve_zipf_mutate",
    )


def build(name: str, seed: int, ops: int) -> Inputs:
    """Generate workload ``name``'s inputs from ``seed``."""
    if name == "rg_blowup":
        return rg_inputs(name, seed, ops, budget=None)
    if name == "spill_tight":
        return rg_inputs(name, seed, ops, budget=SPILL_BUDGET)
    if name == "join_100k":
        return join_inputs(seed, ops)
    if name in SERVED:
        return served_inputs(name, seed, ops)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


# -- windows -----------------------------------------------------------------


@dataclass
class Window:
    """What one timed window observed, operation by operation."""

    begin: float = 0.0
    #: Per attempted operation, in schedule order: wall time, the clock when
    #: it (and its check) finished, whether its answer was right, and what
    #: kind of operation it was — the query's index, for a served read paired
    #: with whether the cache answered it, or ``MUTATE``.
    latencies: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    good: List[bool] = field(default_factory=list)
    kinds: List[object] = field(default_factory=list)
    first_error: str = ""
    #: Served windows: per-read (latency, cached, worker elapsed_ms) and
    #: per-mutate latency, for the per-layer split.
    reads: List[Tuple[float, bool, float]] = field(default_factory=list)
    mutates: List[float] = field(default_factory=list)
    #: Tripwire sums over every answered operation.
    spill_overflows: int = 0
    serial_fallbacks: int = 0
    replans: int = 0

    @property
    def failed(self) -> int:
        """Operations that raised, were refused, or answered wrongly."""
        return self.good.count(False)

    def note(self, kind: object, latency: float, good: bool, error: str = "") -> None:
        """Record one attempted operation, finished now."""
        self.kinds.append(kind)
        self.latencies.append(latency)
        self.ends.append(perf_counter())
        self.good.append(good)
        if not good:
            self.first_error = self.first_error or error

    def quiet_latency(self) -> float:
        """Mean operation latency with every kind at its undisturbed speed.

        Each kind of operation counts with the fastest time it was seen to
        take, weighted by how often the kind ran.  On a shared host the same
        operation takes 20-50 % longer for stretches of a tenth of a second
        to minutes, and never less: the median moves with those stretches,
        the minimum does not while the window holds one quiet moment per
        kind (of everything tried, the lower the percentile the better it
        repeated; see README, "Noise").  A failed operation cannot be the
        fastest of its kind, or failing fast would read as a gain.
        """
        fastest: Dict[object, float] = {}
        for kind, latency, good in zip(self.kinds, self.latencies, self.good):
            if good:
                fastest[kind] = min(latency, fastest.get(kind, latency))
        never_right: Dict[object, float] = {}
        for kind, latency in zip(self.kinds, self.latencies):
            if kind not in fastest:  # counts at its slowest attempt
                never_right[kind] = max(latency, never_right.get(kind, latency))
        fastest.update(never_right)
        return sum(fastest[kind] for kind in self.kinds) / len(self.kinds)

    def throughput(self) -> float:
        """Correct operations per second: the median over equal segments.

        A burst from a noisy neighbour slows the segments it overlaps; the
        median of ``SEGMENTS`` segment rates ignores it unless it covers
        half the window.
        """
        rates = []
        previous = self.begin
        total = len(self.ends)
        for k in range(SEGMENTS):
            low, high = k * total // SEGMENTS, (k + 1) * total // SEGMENTS
            last = max(self.ends[low:high])
            rates.append(self.good[low:high].count(True) / (last - previous))
            previous = last
        return median(rates)


def digest(result) -> Tuple[int, int]:
    """A result's row count and order-independent row-set hash."""
    rows = result.relation.rows
    return len(rows), hash(rows)


def open_in_process(inputs: Inputs, problems: List[str]):
    """Warm one session: prepare, execute, check against the oracles."""
    session = Session(inputs.relations, budget=inputs.budget)
    prepared = [session.prepare(query) for query in inputs.queries]
    expected = []
    for text, query, oracle in zip(inputs.queries, prepared, inputs.oracles):
        for _ in range(WARMUP_EXECUTES):
            result = query.execute()
        if not result.set_equal(oracle()):
            problems.append(f"warm-up answer differs from the oracle: {text[:60]}")
        expected.append(digest(result))
    for check in inputs.checks:
        if not check(session):
            problems.append(f"setup check failed: {check.__name__}")
    inputs.oracles.clear()
    return session, prepared, expected


def run_in_process(prepared, expected, schedule: Sequence[int]) -> Window:
    """One caller, closed loop: execute, then check, operation by operation."""
    window = Window(begin=perf_counter())
    for index in schedule:
        start = perf_counter()
        try:
            result = prepared[index].execute()
        except Exception as error:  # a failed operation, counted not raised
            window.note(index, perf_counter() - start, False, repr(error))
            continue
        latency = perf_counter() - start
        window.note(index, latency, digest(result) == expected[index], "wrong answer")
        trace = result.trace
        window.spill_overflows += trace.counters.get("spill_overflows", 0)
        window.serial_fallbacks += trace.serial_fallbacks
        window.replans += trace.replans
    return window


def post(connection: http.client.HTTPConnection, path: str, body: bytes):
    """One keep-alive POST; returns ``(status, decoded JSON body)``."""
    connection.request("POST", path, body=body, headers=JSON_HEADERS)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def query_body(text: str, **extra) -> bytes:
    """The encoded ``POST /query`` body for ``text`` (``count_only``)."""
    return json.dumps({"query": text, "count_only": True, **extra}).encode()


def open_served(inputs: Inputs, problems: List[str]) -> ReproServer:
    """Boot the server and warm every query on both workers.

    With the cache on, warm-up reads carry ``"trace": true`` — traced
    requests bypass the cache, so each of the four sequential reads per
    query reaches a worker (the pool alternates idle workers) — and one
    plain read per query then fills the cache.
    """
    options = {} if inputs.cache else {"result_cache_size": 0}
    server = ReproServer(
        inputs.relations, pool_size=POOL_SIZE, session_budget=inputs.budget, **options
    ).start()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        for index, text in enumerate(inputs.queries):
            warm = query_body(text, trace=True) if inputs.cache else query_body(text)
            bodies = [warm] * (2 * POOL_SIZE) + ([query_body(text)] if inputs.cache else [])
            for body in bodies:
                status, payload = post(connection, "/query", body)
                if status != 200 or payload.get("rowcount") != inputs.counts[0][index]:
                    problems.append(f"warm-up read failed ({status}): {text[:60]}")
    finally:
        connection.close()
    return server


def server_health(stats: dict) -> Dict[str, int]:
    """The serving tier's failure counters out of ``server.stats()``."""
    front, budget = stats["front"], stats["budget"]
    return {
        "server.rejected": front["shed_overload"]
        + front["shed_budget"]
        + budget["rejections"],
        "server.errors": front["server_errors"] + front["client_errors"],
        "server.worker_restarts": stats["pool"]["worker_restarts"],
        "server.budget_waits": budget["waits"],
    }


def worker_session_totals(stats: dict) -> Dict[str, int]:
    """``session.stats()`` counters summed over every worker's sessions."""
    totals = {"executes": 0, "plan_builds": 0, "plan_cache_hits": 0}
    for worker in stats["pool"]["workers"]:
        for session in worker["sessions"].values():
            for key in totals:
                totals[key] += session[key]
    return totals


def final_reads_agree(server: ReproServer, inputs: Inputs) -> bool:
    """After the window every query must answer from the final generation."""
    final = inputs.counts[inputs.schedule.count(MUTATE) % len(inputs.counts)]
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        return all(
            post(connection, "/query", query_body(text))[1].get("rowcount") == count
            for text, count in zip(inputs.queries, final)
        )
    finally:
        connection.close()


def run_served(server: ReproServer, inputs: Inputs) -> Window:
    """Two keep-alive clients pull one schedule, closed loop.

    A read is correct when its ``rowcount`` matches a generation of ``R``
    that was current at some point while the read was in flight: ``lo`` is
    the last mutate *acknowledged* before the read was sent, ``hi`` the last
    one *started* before its answer arrived.  Mutates are serialised by a
    client-side lock so generations are totally ordered.
    """
    queries = [query_body(text) for text in inputs.queries]
    variants = [
        json.dumps({"name": "R", "rows": rows}).encode() for rows in inputs.variants
    ]
    schedule = inputs.schedule
    # (route, latency, end clock, correct, response payload) per position.
    outcomes: List[tuple] = [("x", 0.0, 0.0, False, {})] * len(schedule)
    cursor = iter(range(len(schedule)))
    cursor_lock = threading.Lock()
    mutate_lock = threading.Lock()
    started = [0]
    done = [0]

    def mutate(connection) -> tuple:
        with mutate_lock:
            started[0] += 1
            generation = started[0]
            begin = perf_counter()
            status, payload = post(connection, "/mutate", variants[generation % 2])
            latency = perf_counter() - begin
            done[0] = generation
        good = (
            status == 200
            and payload.get("ok") is True
            and payload.get("workers_updated") == POOL_SIZE
        )
        return "m", latency, perf_counter(), good, payload

    def read(connection, index: int) -> tuple:
        lo = done[0]
        begin = perf_counter()
        status, payload = post(connection, "/query", queries[index])
        latency = perf_counter() - begin
        allowed = {
            inputs.counts[generation % len(inputs.counts)][index]
            for generation in range(lo, started[0] + 1)
        }
        good = status == 200 and payload.get("rowcount") in allowed
        return "q", latency, perf_counter(), good, payload

    def client() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            while True:
                with cursor_lock:
                    position = next(cursor, None)
                if position is None:
                    return
                index = schedule[position]
                begin = perf_counter()
                try:
                    if index == MUTATE:
                        outcomes[position] = mutate(connection)
                    else:
                        outcomes[position] = read(connection, index)
                except (http.client.HTTPException, OSError, ValueError) as error:
                    now = perf_counter()
                    outcomes[position] = ("x", now - begin, now, False, repr(error))
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", server.port, timeout=60
                    )
        finally:
            connection.close()

    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    window = Window(begin=perf_counter())
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for index, (route, latency, end, good, payload) in zip(schedule, outcomes):
        cached = route == "q" and bool(payload.get("cached"))
        window.kinds.append(MUTATE if index == MUTATE else (index, cached))
        window.latencies.append(latency)
        window.ends.append(end)
        window.good.append(good)
        if not good:
            window.first_error = window.first_error or str(payload)[:160]
        elif route == "m":
            window.mutates.append(latency)
        else:
            window.reads.append(
                (latency, bool(payload.get("cached")), payload["elapsed_ms"])
            )
            window.spill_overflows += payload.get("spill_overflows", 0)
            window.serial_fallbacks += payload.get("serial_fallbacks", 0)
            window.replans += payload.get("replans", 0)
    return window
