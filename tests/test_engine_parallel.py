"""Tests for the parallel probe stage and engine thread-safety.

Three layers:

* **MemoryMeter** — the lock regression.  The pre-lock meter used plain
  ``current += rows`` read-modify-write increments; with several threads
  sharing one meter those lose updates on any interpreter that can preempt
  inside the sequence (CPython 3.9 checks the eval breaker between
  bytecodes; free-threaded builds drop the GIL entirely), leaving
  ``current`` nonzero after balanced acquire/release traffic.  The exactness
  assertions here fail for that implementation wherever preemption is fine
  enough — and always pass for the locked one.

* **Partitioned probe scan** — the slices are a partition of the relation,
  and executing one pinned plan per slice in a pool of forked workers
  unions to the serial result; where the platform cannot fork, ``workers``
  runs serially.

* **Concurrency stress** — one pinned plan evaluated from 8 threads
  concurrently must produce the serial result every time, and the engine's
  locked counters (probes, spills) must account exactly: 24 concurrent
  evaluations add exactly 24 serial deltas.
"""

import random
import sys
import threading

import pytest

from repro.algebra import Relation, RelationScheme
from repro.api import Session
from repro.engine import (
    EngineEvaluator,
    ForkProbePool,
    MemoryBudget,
    MemoryMeter,
    PartitionedScan,
)
from repro.engine import parallel
from repro.engine.parallel import fork_available, operators_in_order
from repro.expressions import Projection, evaluate
from repro.expressions.ast import Operand
from repro.perf import kernel_counters
from repro.workloads import random_instance

ENGINE_COUNTERS = (
    "join_probes",
    "join_spills",
    "spill_partitions",
    "spill_rows",
    "spill_recursions",
    "spill_overflows",
)


def _contend(meter, threads=4, rounds=25_000, amount=3):
    """Balanced acquire/release traffic from several threads at once."""
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(rounds):
                meter.acquire(amount)
                meter.release(amount)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    finally:
        sys.setswitchinterval(switch)


class TestMemoryMeterThreadSafety:
    def test_balanced_traffic_accounts_exactly_under_contention(self):
        meter = MemoryMeter()
        _contend(meter)
        assert meter.current == 0
        # Peak must be a value some interleaving could produce: at least one
        # thread's worth, at most all threads at once.
        assert 3 <= meter.peak <= 4 * 3

    def test_concurrent_acquires_never_lose_rows(self):
        meter = MemoryMeter()
        rounds = 10_000

        def work():
            for _ in range(rounds):
                meter.acquire(1)

        pool = [threading.Thread(target=work) for _ in range(4)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert meter.current == 4 * rounds
        assert meter.peak == 4 * rounds

    def test_budget_reads_are_consistent_under_contention(self):
        meter = MemoryMeter(budget=100)
        problems = []
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                meter.acquire(10)
                meter.release(10)

        def watch():
            for _ in range(2_000):
                headroom = meter.headroom()
                if headroom is None or not 0 <= headroom <= 100:
                    problems.append(headroom)

        churner = threading.Thread(target=churn)
        watcher = threading.Thread(target=watch)
        churner.start()
        watcher.start()
        watcher.join()
        stop.set()
        churner.join()
        assert problems == []


class TestPartitionedScan:
    def test_slices_partition_the_relation(self):
        relation = Relation.from_rows("A B", [(i, i % 3) for i in range(50)])
        meter = MemoryMeter()
        seen = []
        for index in range(4):
            scan = PartitionedScan(relation, meter, index, 4)
            seen.append([row for block in scan.blocks() for row in block])
        flattened = [row for slice_rows in seen for row in slice_rows]
        assert len(flattened) == len(relation)  # disjoint
        assert set(flattened) == set(relation.rows)  # complete
        assert all(scan.rows_out == len(seen[-1]) for scan in [scan])

    def test_rejects_out_of_range_index(self):
        relation = Relation.from_rows("A", [(1,)])
        with pytest.raises(ValueError):
            PartitionedScan(relation, MemoryMeter(), 4, 4)


def _instance(seed=5):
    relation, query = random_instance(
        num_attributes=5, num_tuples=24, domain_size=3, num_factors=3, seed=seed
    )
    bound = {name: relation for name in query.operand_names()}
    return query, bound


def _evaluate(query, bound, **options):
    """One evaluation on a fresh evaluator, its pools closed afterwards."""
    evaluator = EngineEvaluator(**options)
    try:
        return evaluator.evaluate(query, bound)
    finally:
        evaluator.close()


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)


class TestParallelExecution:
    @needs_fork
    def test_worker_union_matches_serial(self):
        query, bound = _instance()
        serial, serial_trace = EngineEvaluator().evaluate(query, bound)
        pooled, trace = _evaluate(query, bound, workers=4)
        assert pooled == serial
        assert trace.result_cardinality == serial_trace.result_cardinality
        # Step cardinalities are summed across workers.  Dedup state is per
        # worker, so the streamed totals can only match or exceed the serial
        # counts (the output is set-equal; the stream is not row-identical).
        assert trace.steps[-1].cardinality >= serial_trace.steps[-1].cardinality

    @needs_fork
    def test_fork_pool_reports_summed_steps(self):
        query, bound = _instance(seed=11)
        evaluator = EngineEvaluator()
        plan = evaluator.plan_for(query, bound)
        serial_root = plan.executor(bound, MemoryMeter())
        serial_rows = set()
        for block in serial_root.blocks():
            serial_rows.update(block)
        pool = ForkProbePool(plan, bound, 4, None)
        try:
            outcome = pool.run()
        finally:
            pool.close()
        assert outcome.rows == serial_rows
        assert outcome.workers == 4 and len(outcome.worker_step_rows) == 4
        # Summed across workers; per-worker dedup means >= the serial count.
        assert outcome.step_rows[-1] >= serial_root.rows_out
        assert len(outcome.step_rows) == len(operators_in_order(serial_root))

    @needs_fork
    def test_build_side_steps_are_not_multiplied_by_workers(self):
        # Every worker re-streams the build side in full; the trace must
        # report it once (serial-comparable), not summed across the pool.
        left = Relation.from_rows("A B", [(i, i % 4) for i in range(8)])
        right = Relation.from_rows("B C", [(i, -i) for i in range(4)])
        query = Projection(
            ["A"], Operand("R", left.scheme).join(Operand("S", right.scheme))
        )
        bound = {"R": left, "S": right}
        _, serial_trace = EngineEvaluator().evaluate(query, bound)
        _, trace = _evaluate(query, bound, workers=4)
        serial_by_label = {s.description: s.cardinality for s in serial_trace.steps}
        parallel_by_label = {s.description: s.cardinality for s in trace.steps}
        assert parallel_by_label["scan S"] == serial_by_label["scan S"]
        # The driving scan is sliced: its per-worker counts partition the
        # relation, so the summed trace equals the serial scan count.
        assert parallel_by_label["scan R [partitioned x4]"] == serial_by_label["scan R"]

    def test_a_platform_without_fork_runs_workers_serially(self, monkeypatch):
        """Where the platform cannot fork, ``workers > 1`` runs serially the
        way a plan too small to slice does: the same rows, no pool started,
        and no serial fallback counted (nothing failed)."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a probe pool was started")

        monkeypatch.setattr(parallel, "fork_available", lambda: False)
        monkeypatch.setattr(ForkProbePool, "__init__", no_pool)
        query, bound = _instance()
        serial, _ = EngineEvaluator().evaluate(query, bound)
        counters = kernel_counters()
        before = counters.snapshot()
        with Session(bound, workers=2) as session:
            result = session.prepare(query).execute()
            assert result.set_equal(serial)
            assert session._engine.open_pools == 0
            assert session.stats()["serial_fallbacks"] == 0
        assert result.trace.serial_fallbacks == 0
        assert not any("partitioned" in step.description for step in result.trace.steps)
        assert counters.delta_since(before)["serial_fallbacks"] == 0

    def test_small_inputs_degrade_to_serial(self):
        left = Relation.from_rows("A B", [(1, 2), (3, 4)])
        right = Relation.from_rows("B C", [(2, "x"), (4, "y")])
        query = Operand("R", left.scheme).join(Operand("S", right.scheme))
        bound = {"R": left, "S": right}
        result, _ = _evaluate(query, bound, workers=16)
        assert result == evaluate(query, bound)

    def test_empty_driving_relation_is_fine(self):
        left = Relation.empty("A B")
        right = Relation.from_rows("B C", [(2, "x")])
        query = Operand("R", left.scheme).join(Operand("S", right.scheme))
        result, _ = _evaluate(query, {"R": left, "S": right}, workers=4)
        assert result == evaluate(query, {"R": left, "S": right})

    @needs_fork
    def test_fork_backend_merges_worker_counters(self, tmp_path):
        # Seed 2's query keeps all three joins after minimization (seed 3's,
        # used before, minimizes to one scan and spills nothing).
        query, bound = _instance(seed=2)
        budget = MemoryBudget(
            rows=4, spill_fanout=2, spill_dir=str(tmp_path)
        )
        serial, _ = EngineEvaluator().evaluate(query, bound)
        counters = kernel_counters()
        before = counters.snapshot()
        result, trace = _evaluate(query, bound, budget=budget, workers=4)
        delta = counters.delta_since(before)
        assert result == serial
        # The spilling happened in the forked children, but the deltas were
        # folded back into this process (and the trace).
        assert delta["join_spills"] > 0
        assert trace.counters["join_spills"] > 0
        assert not any(tmp_path.iterdir())


class TestPinnedPlanConcurrencyStress:
    def test_one_pinned_plan_from_eight_threads_matches_serial_counters(self):
        """8 threads x 3 evaluations of one pinned, budgeted plan: every
        result equals the serial one and the engine's locked counters add up
        to exactly 24 serial deltas (lost updates would break equality)."""
        query, bound = _instance(seed=17)
        evaluator = EngineEvaluator(budget=6)
        counters = kernel_counters()
        # Pin the plan, then measure one serial evaluation's counter delta.
        serial, _ = evaluator.evaluate(query, bound)
        before = counters.snapshot()
        serial_again, _ = evaluator.evaluate(query, bound)
        per_evaluation = counters.delta_since(before)
        assert serial_again == serial
        assert per_evaluation["join_probes"] > 0
        assert per_evaluation["join_spills"] > 0  # the budget forces spills

        results = []
        errors = []
        rounds = 3

        def work():
            try:
                for _ in range(rounds):
                    result, trace = evaluator.evaluate(query, bound)
                    results.append((result, trace.peak_live_rows))
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        before = counters.snapshot()
        pool = [threading.Thread(target=work) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        delta = counters.delta_since(before)
        assert errors == []
        assert len(results) == 8 * rounds
        assert all(result == serial for result, _ in results)
        assert all(peak > 0 for _, peak in results)
        for name in ENGINE_COUNTERS:
            assert delta[name] == 8 * rounds * per_evaluation[name], name

    def test_concurrent_first_use_pins_exactly_one_plan(self):
        query, bound = _instance(seed=23)
        evaluator = EngineEvaluator()
        plans = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            plans.append(evaluator.plan_for(query, bound))

        pool = [threading.Thread(target=work) for _ in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert len(plans) == 8
        assert all(plan is plans[0] for plan in plans)


class TestForkProbePoolLRU:
    """The multi-plan pool cache: keyed per bound plan, LRU-capped, closeable.

    Before the serving facade, the evaluator kept exactly one warm pool
    pinned to the most recent bound plan, so mixed query traffic re-forked
    on every plan switch (and long-lived evaluators leaked the previous
    pool's children on churn until GC).  These tests pin the new contract:
    distinct bound plans keep distinct warm pools up to ``max_pools``, the
    coldest pool is closed (not leaked) on eviction, and ``close()`` tears
    everything down.
    """

    @staticmethod
    def _queries(count, rows=8):
        """``count`` distinct (query, bindings) pairs large enough to pool."""
        cases = []
        for index in range(count):
            relation = Relation.from_rows(
                "A B", [(i % 3, (i + index) % 4) for i in range(rows)]
            )
            other = Relation.from_rows(
                "B C", [((i + index) % 4, i) for i in range(rows)]
            )
            query = Projection(
                ["A"], Operand("R", relation.scheme).join(Operand("S", other.scheme))
            )
            cases.append((query, {"R": relation, "S": other}))
        return cases

    @staticmethod
    def _pool_processes(evaluator):
        return [
            process
            for entry in evaluator._pools.values()
            for process in entry[-1]._processes
        ]

    @needs_fork
    def test_distinct_bound_plans_keep_distinct_warm_pools(self):
        evaluator = EngineEvaluator(workers=2, max_pools=4)
        try:
            cases = self._queries(3)
            expected = [evaluate(query, bound) for query, bound in cases]
            for _ in range(2):  # the second sweep must reuse every pool
                for (query, bound), reference in zip(cases, expected):
                    result, _ = evaluator.evaluate(query, bound)
                    assert result == reference
            assert evaluator.open_pools == 3
            processes = self._pool_processes(evaluator)
            assert len(processes) == 3 * 2
            assert all(process.is_alive() for process in processes)
        finally:
            evaluator.close()
        assert evaluator.open_pools == 0
        for process in processes:
            process.join(timeout=5.0)
        assert not any(process.is_alive() for process in processes)

    @needs_fork
    def test_eviction_closes_the_coldest_pool(self):
        evaluator = EngineEvaluator(workers=2, max_pools=2)
        try:
            cases = self._queries(3)
            evaluator.evaluate(*cases[0])
            first = self._pool_processes(evaluator)
            evaluator.evaluate(*cases[1])
            # Touch case 0 so case 1 is now the coldest.
            evaluator.evaluate(*cases[0])
            evaluator.evaluate(*cases[2])
            assert evaluator.open_pools == 2
            # Case 0's pool survived the eviction (case 1's was closed).
            assert all(process.is_alive() for process in first)
            result, _ = evaluator.evaluate(*cases[0])
            assert result == evaluate(*cases[0])
        finally:
            evaluator.close()

    @needs_fork
    def test_rebinding_a_relation_forks_a_fresh_pool(self):
        evaluator = EngineEvaluator(workers=2, max_pools=4)
        try:
            query, bound = self._queries(1)[0]
            evaluator.evaluate(query, bound)
            assert evaluator.open_pools == 1
            # An equal-but-distinct relation object must not reuse the pool:
            # the forked children's inherited copies are the *old* objects.
            rebound = {
                name: Relation.from_rows(rel.scheme, list(rel.rows))
                for name, rel in bound.items()
            }
            result, _ = evaluator.evaluate(query, rebound)
            assert evaluator.open_pools == 2
            assert result == evaluate(query, bound)
        finally:
            evaluator.close()
