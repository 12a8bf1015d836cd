"""Direct tests for :mod:`repro.perf.counters`.

The counters are a process-global measurement aid: ``snapshot`` /
``delta_since`` / ``reset`` must behave like value semantics over the live
singleton, and the singleton itself must be safe to *read and share* across
threads (the documented contract — increments are deliberately unlocked, so
only structural safety is promised for concurrent access, not lossless
counting).
"""

import threading

from repro.perf import kernel_counters, reset_kernel_counters
from repro.perf.counters import KernelCounters


class TestSnapshotSemantics:
    def test_snapshot_lists_every_counter_field(self):
        counters = KernelCounters()
        snapshot = counters.snapshot()
        assert set(snapshot) == {
            "join_plan_hits",
            "join_plan_misses",
            "project_plan_hits",
            "project_plan_misses",
            "trusted_tuples_built",
            "join_probes",
            "join_spills",
            "spill_partitions",
            "spill_rows",
            "spill_recursions",
            "spill_overflows",
            "join_chunk_passes",
            "dedup_spills",
            "spill_retries",
            "fault_injected",
            "sample_builds",
            "sample_joins",
        }
        assert all(value == 0 for value in snapshot.values())

    def test_snapshot_is_a_value_copy(self):
        counters = KernelCounters()
        snapshot = counters.snapshot()
        counters.join_probes += 5
        assert snapshot["join_probes"] == 0
        assert counters.snapshot()["join_probes"] == 5

    def test_delta_since_reports_per_counter_increase(self):
        counters = KernelCounters()
        counters.join_plan_hits = 2
        before = counters.snapshot()
        counters.join_plan_hits += 3
        counters.trusted_tuples_built += 7
        delta = counters.delta_since(before)
        assert delta["join_plan_hits"] == 3
        assert delta["trusted_tuples_built"] == 7
        assert delta["join_probes"] == 0

    def test_delta_since_treats_missing_keys_as_zero(self):
        counters = KernelCounters()
        counters.join_probes = 4
        delta = counters.delta_since({})
        assert delta["join_probes"] == 4

    def test_delta_since_drops_keys_unknown_to_the_dataclass(self):
        """A stale snapshot from another counter generation must not leak.

        Snapshots can outlive the code that took them (persisted BENCH
        sections, traces from an older build).  ``delta_since`` must
        neither crash on nor propagate counter names this dataclass does
        not define: the result's keys are exactly the current fields.
        """
        counters = KernelCounters()
        counters.join_probes = 4
        stale = {"join_probes": 1, "retired_counter_from_v0": 99}
        delta = counters.delta_since(stale)
        assert delta["join_probes"] == 3
        assert "retired_counter_from_v0" not in delta
        assert set(delta) == set(counters.snapshot())

    def test_reset_zeroes_every_counter(self):
        counters = KernelCounters()
        counters.join_plan_misses = 9
        counters.join_probes = 11
        counters.reset()
        assert all(value == 0 for value in counters.snapshot().values())


class TestModuleSingleton:
    def test_kernel_counters_returns_one_object(self):
        assert kernel_counters() is kernel_counters()

    def test_reset_kernel_counters_resets_the_singleton(self):
        counters = kernel_counters()
        counters.join_probes += 1
        reset_kernel_counters()
        assert counters.join_probes == 0

    def test_kernel_activity_flows_through_the_singleton(self):
        from repro.algebra import Relation

        counters = kernel_counters()
        before = counters.snapshot()
        left = Relation.from_rows("A B", [(1, 2), (3, 4)])
        right = Relation.from_rows("B C", [(2, 5)])
        left.natural_join(right)
        delta = counters.delta_since(before)
        assert delta["join_probes"] > 0
        assert delta["join_plan_hits"] + delta["join_plan_misses"] >= 1


class TestLockedAdd:
    def test_add_increments_named_counters(self):
        counters = KernelCounters()
        counters.add(join_spills=2, spill_rows=100)
        counters.add(spill_rows=28)
        assert counters.join_spills == 2
        assert counters.spill_rows == 128
        assert counters.join_probes == 0

    def test_add_is_lossless_under_contention(self):
        """The engine's update path must not lose increments across threads.

        The raw ``+=`` path documented for the materialising kernel *does*
        lose updates under contention (a read-modify-write race); ``add``
        holds a lock, so eight hammering threads must account exactly.
        """
        counters = KernelCounters()
        rounds = 5_000

        def hammer():
            for _ in range(rounds):
                counters.add(spill_rows=1)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters.spill_rows == 8 * rounds


class TestThreadSafety:
    def test_singleton_identity_across_threads(self):
        seen = []

        def record():
            seen.append(kernel_counters())

        threads = [threading.Thread(target=record) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(counters is seen[0] for counters in seen)

    def test_concurrent_snapshots_stay_structurally_sound(self):
        """Readers racing an incrementing writer always see well-formed ints.

        The documented contract is that counters are *not* locked (the hot
        path must not pay for it); what must hold under concurrency is that
        snapshot/delta never raise and never yield torn, non-integer, or
        negative-delta values.
        """
        counters = KernelCounters()
        stop = threading.Event()
        problems = []

        def writer():
            while not stop.is_set():
                counters.join_probes += 1
                counters.trusted_tuples_built += 2

        def reader():
            baseline = counters.snapshot()
            for _ in range(500):
                snapshot = counters.snapshot()
                delta = counters.delta_since(baseline)
                if not all(isinstance(v, int) for v in snapshot.values()):
                    problems.append(("non-int", snapshot))
                if any(v < 0 for v in delta.values()):
                    problems.append(("negative-delta", delta))
                baseline = snapshot

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread.start()
        for thread in reader_threads:
            thread.start()
        for thread in reader_threads:
            thread.join()
        stop.set()
        writer_thread.join()
        assert problems == []

    def test_monotonic_growth_observed_by_a_racing_reader(self):
        counters = KernelCounters()
        done = threading.Event()
        observed = []

        def writer():
            for _ in range(10_000):
                counters.join_probes += 1
            done.set()

        def reader():
            last = -1
            while not done.is_set():
                current = counters.snapshot()["join_probes"]
                observed.append(current >= last)
                last = current

        writer_thread = threading.Thread(target=writer)
        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        writer_thread.start()
        writer_thread.join()
        reader_thread.join()
        assert all(observed)
