"""Mutation-under-traffic differential fuzz for the serving tier.

The server-facing counterpart of ``tests/test_engine_differential.py``:
instead of comparing engine backends against the reference evaluator,
this harness compares *served responses* — in-order workers, budget
leases, and the front's content-keyed result cache all in the path —
against fresh uncached :class:`~repro.api.Session` results computed for
every relation **generation** the traffic can observe.

The scenario is the result cache's hardest case.  A mutator thread
walks ``R`` through a seeded sequence of generations via ``POST
/mutate`` while client threads hammer a Zipf-skewed query mix (the
fuzz grid adds the per-request budget axis ``{None, 64}``, so spilling
and non-spilling executes interleave).  The contract checked:

* **No torn results.**  Every in-flight response is set-equal to some
  *whole* generation's expected rows — a response mixing two
  generations of ``R``, or a cache hit filed under the wrong content,
  has no matching generation and fails loudly.
* **Convergence.**  Once traffic quiesces, every query at every budget
  answers exactly the final generation — a fill that raced a mutate
  cannot have been filed under the content that mutate installed.
* **The bookkeeping check stays silent.**  ``cache_stale_served``
  (exported as ``repro_server_cache_stale_served_total``) reads zero,
  and the run actually exercised the cache (nonzero hits).  That counter
  only compares a hit's slot with the versions its response reports;
  the two row checks above are what catch a stale answer.

Seeded by ``--fuzz-seed`` like the engine harness, so CI matrix legs
explore different generation sequences while any failure replays.  The
``hypothesis`` interleaving test draws mutate sequences over three
contents of ``R`` — identical re-posts and returns to a content the
cache already answered included — against concurrent readers.
"""

import http.client
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.server import ReproServer
from repro.server.loadgen import zipf_schedule
from repro.workloads import serving_relations

#: Queries the clients draw from (Zipf rank order: first is hottest).
#: The first three read the mutated relation ``R``; the last reads only
#: ``S`` and ``T`` — its answer must never change across generations.
QUERIES = (
    "project[A](R * S)",
    "R * S",
    "project[A, D]((R * S) * T)",
    "project[B, D](S * T)",
)

#: The per-request engine-budget fuzz axis: unbudgeted and a 64-row
#: squeeze that forces the spilling path on the join queries.
BUDGET_GRID = (None, 64)

ROWS = 120
CLIENTS = 4
REQUESTS_PER_CLIENT = 30
GENERATIONS = 3  # mutations applied during traffic (plus the seed data)


def _generation_rows(rng, count):
    """Fresh ``R`` rows in the workload's value domains (A mod 40, B mod 17)."""
    rows = {(rng.randrange(40), rng.randrange(17)) for _ in range(count)}
    return sorted(rows)


def _expected_by_generation(base_relations, generations):
    """``{query: [sorted rows per generation]}`` from fresh, uncached sessions."""
    from repro.algebra.relation import Relation

    expected = {query: [] for query in QUERIES}
    for rows in generations:
        relations = dict(base_relations)
        relations["R"] = Relation.from_rows(
            base_relations["R"].scheme, [tuple(row) for row in rows], name="R"
        )
        with Session(relations) as session:
            for query in QUERIES:
                result = session.execute(query)
                expected[query].append(
                    [list(row) for row in result.relation.sorted_rows()]
                )
    return expected


def _post(conn, path, body):
    conn.request(
        "POST",
        path,
        body=json.dumps(body),
        headers={"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def test_mutation_under_traffic_matches_some_whole_generation(fuzz_seed):
    rng = random.Random(fuzz_seed)
    base_relations = serving_relations(rows=ROWS)
    generations = [
        [list(row) for row in base_relations["R"].sorted_rows()]
    ]
    for _ in range(GENERATIONS):
        generations.append(
            [list(row) for row in _generation_rows(rng, ROWS)]
        )
    expected = _expected_by_generation(base_relations, generations)
    # Sanity: the generations must actually differ, or the test is vacuous.
    first_query_answers = {
        json.dumps(answers) for answers in expected[QUERIES[0]]
    }
    assert len(first_query_answers) > 1, "seeded generations collided"

    with ReproServer(
        base_relations,
        pool_size=2,
        total_budget_rows=50_000,
        session_budget=10_000,
    ) as server:
        failures = []
        lock = threading.Lock()
        start_barrier = threading.Barrier(CLIENTS + 2)
        traffic_done = threading.Barrier(CLIENTS + 2)
        hot = threading.Event()  # set once clients are mid-run

        def client(offset):
            schedule = zipf_schedule(
                len(QUERIES), REQUESTS_PER_CLIENT, s=1.1,
                seed=fuzz_seed + offset,
            )
            budget_rng = random.Random(fuzz_seed * 31 + offset)
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            try:
                start_barrier.wait(timeout=30)
                for index, rank in enumerate(schedule):
                    if index == REQUESTS_PER_CLIENT // 4:
                        hot.set()
                    query = QUERIES[rank]
                    payload = {"query": query}
                    budget = budget_rng.choice(BUDGET_GRID)
                    if budget is not None:
                        payload["budget"] = budget
                    status, body = _post(conn, "/query", payload)
                    if status != 200:
                        with lock:
                            failures.append((query, budget, status, body))
                        continue
                    if body["rows"] not in expected[query]:
                        with lock:
                            failures.append(
                                (query, budget, "torn-or-stale", body["rows"])
                            )
            finally:
                conn.close()
                traffic_done.wait(timeout=120)

        def mutator():
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            try:
                start_barrier.wait(timeout=30)
                hot.wait(timeout=60)
                for rows in generations[1:]:
                    status, body = _post(
                        conn, "/mutate", {"name": "R", "rows": rows}
                    )
                    if status != 200:
                        with lock:
                            failures.append(("mutate", None, status, body))
            finally:
                conn.close()
                traffic_done.wait(timeout=120)

        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(CLIENTS)
        ]
        threads.append(threading.Thread(target=mutator))
        for thread in threads:
            thread.start()
        start_barrier.wait(timeout=30)
        traffic_done.wait(timeout=120)
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == [], failures[:5]

        # Convergence: with traffic quiesced, every (query, budget) grid
        # point answers exactly the final generation — compared against
        # a fresh uncached Session, which is what `expected[...][-1]` is.
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            for query in QUERIES:
                for budget in BUDGET_GRID:
                    payload = {"query": query}
                    if budget is not None:
                        payload["budget"] = budget
                    status, body = _post(conn, "/query", payload)
                    assert status == 200, (query, budget, body)
                    assert body["rows"] == expected[query][-1], (
                        query,
                        budget,
                        "served rows diverge from a fresh session on the "
                        "final generation",
                    )
            # The immutable query never moved.
            assert all(
                answer == expected[QUERIES[-1]][0]
                for answer in expected[QUERIES[-1]]
            )
        finally:
            conn.close()

        stats = server.stats()
        cache = stats["cache"]
        assert cache["cache_stale_served"] == 0, cache
        assert cache["cache_invalidations"] == GENERATIONS
        assert cache["cache_hits"] > 0, (
            "the run must actually exercise the cache; got %r" % (cache,)
        )
        assert stats["front"]["mutations"] == GENERATIONS
        # The Prometheus exposition agrees with /stats on the tripwire.
        exposition = server.render_metrics()
        tripwire = [
            line
            for line in exposition.splitlines()
            if line.startswith("repro_server_cache_stale_served_total ")
        ]
        assert tripwire == ["repro_server_cache_stale_served_total 0"]


#: Reader threads and the size of one drawn interleaving.
READERS = 3
MAX_READS = 8
MAX_MUTATES = 4


def test_interleaved_reads_and_mutates_match_a_current_content(fuzz_seed):
    """Random interleavings of reads and mutates over three contents of R.

    Hypothesis draws one mutate sequence (a content index per mutate, so
    identical re-posts and returns to an answered content are common) and
    a read sequence per reader thread; the mutator and the readers then
    run concurrently against one server that lives across examples.  A
    read must answer from a content of ``R`` that was current at some
    point while it was in flight — between the last mutate acknowledged
    before it was sent and the last one started before it was answered —
    as an in-process ``Session`` computes it, and the tripwire stays 0.
    """
    rng = random.Random(fuzz_seed)
    base_relations = serving_relations(rows=ROWS)
    contents = [[list(row) for row in base_relations["R"].sorted_rows()]]
    # Redrawn until the first query tells the three contents apart.
    while True:
        contents[1:] = [
            [list(row) for row in _generation_rows(rng, ROWS)] for _ in range(2)
        ]
        expected = _expected_by_generation(base_relations, contents)
        if len({json.dumps(rows) for rows in expected[QUERIES[0]]}) == 3:
            break

    with ReproServer(
        base_relations,
        pool_size=2,
        session_budget=10_000,
        # Fewer entries than (query, budget, content) triples: evictions
        # keep misses, and so fills racing mutates, coming in every example.
        result_cache_size=6,
    ) as server:
        #: The content of R per mutate generation, across examples, and
        #: the last generation the server acknowledged.
        history = [0]
        acked = [0]

        def mutator(sequence, failures):
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            try:
                for content in sequence:
                    history.append(content)
                    status, body = _post(
                        conn, "/mutate", {"name": "R", "rows": contents[content]}
                    )
                    acked[0] = len(history) - 1
                    if status != 200 or not body["ok"]:
                        failures.append(("mutate", status, body))
            finally:
                conn.close()

        def reader(sequence, failures):
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            try:
                for index, budget in sequence:
                    payload = {"query": QUERIES[index]}
                    if budget is not None:
                        payload["budget"] = budget
                    low = acked[0]
                    status, body = _post(conn, "/query", payload)
                    allowed = [
                        expected[QUERIES[index]][history[generation]]
                        for generation in range(low, len(history))
                    ]
                    if status != 200 or body["rows"] not in allowed:
                        failures.append((QUERIES[index], status, body.get("rows")))
                    elif body["rowcount"] != len(body["rows"]):
                        failures.append((QUERIES[index], "rowcount", body["rowcount"]))
            finally:
                conn.close()

        @settings(max_examples=60, deadline=None, database=None)
        @given(
            mutates=st.lists(st.integers(0, 2), min_size=1, max_size=MAX_MUTATES),
            reads=st.lists(
                st.lists(
                    st.tuples(
                        st.integers(0, len(QUERIES) - 1), st.sampled_from(BUDGET_GRID)
                    ),
                    min_size=1,
                    max_size=MAX_READS,
                ),
                min_size=READERS,
                max_size=READERS,
            ),
        )
        def interleaving(mutates, reads):
            failures = []
            threads = [threading.Thread(target=mutator, args=(mutates, failures))]
            threads += [
                threading.Thread(target=reader, args=(sequence, failures))
                for sequence in reads
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == [], failures[:3]
            # Quiesced: every query answers the last content posted.
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
            try:
                for query in QUERIES:
                    body = _post(conn, "/query", {"query": query})[1]
                    assert body["rows"] == expected[query][history[-1]], query
            finally:
                conn.close()
            assert server.stats()["cache"]["cache_stale_served"] == 0

        # The front's threads switch far more often than by default, so
        # fills, lookups and switches interleave at finer grain.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            interleaving()
        finally:
            sys.setswitchinterval(interval)
        cache = server.stats()["cache"]
        assert cache["cache_stale_served"] == 0, cache
        assert cache["cache_hits"] > 0, cache


@pytest.mark.parametrize("budget", BUDGET_GRID)
def test_post_mutation_grid_point_matches_fresh_session(fuzz_seed, budget):
    """One grid point end to end: mutate once, then every query agrees
    with a fresh uncached session bound to the post-mutation rows."""
    rng = random.Random(fuzz_seed + 7)
    base_relations = serving_relations(rows=ROWS)
    new_rows = [list(row) for row in _generation_rows(rng, ROWS)]
    expected = _expected_by_generation(base_relations, [new_rows])

    with ReproServer(
        base_relations, pool_size=1, session_budget=10_000
    ) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            # Warm the cache on pre-mutation data first so the test
            # proves the switch of versions, not just a cold read.
            for query in QUERIES:
                payload = {"query": query}
                if budget is not None:
                    payload["budget"] = budget
                status, _body = _post(conn, "/query", payload)
                assert status == 200
            status, ack = _post(conn, "/mutate", {"name": "R", "rows": new_rows})
            assert status == 200 and ack["ok"], ack
            for query in QUERIES:
                payload = {"query": query}
                if budget is not None:
                    payload["budget"] = budget
                status, body = _post(conn, "/query", payload)
                assert status == 200, (query, body)
                assert body["rows"] == expected[query][0], (query, budget)
        finally:
            conn.close()
