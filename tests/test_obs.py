"""Tests for :mod:`repro.obs`: tracer, metrics, events, exporters, wiring.

Covers the observability contracts end to end — span nesting and stream
timing semantics, the span cap, the disabled tracer's no-op guarantee,
exact-total thread-safety of the metrics registry, parent propagation
into the process registry, the event log's JSONL mirroring, Prometheus
rendering, and the ``Session``/``PreparedQuery`` integration
(``EvaluationTrace.spans``, ``explain_analyze()``, ``Session.metrics()``,
``Session.events()``), plus the ``peak_memory_rows`` backend-dispatch
regression.
"""

import json
import threading
from unittest import mock

import pytest

import repro
from repro import BackendConfig, ObserveConfig
from repro.algebra import Relation
from repro.api import EvaluationTrace
from repro.obs import (
    NULL_TRACER,
    EventLog,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Span,
    Tracer,
    events_to_jsonl,
    explain_report,
    process_metrics,
    render_prometheus,
    span_tree,
)


def _database():
    r = Relation.from_rows("A B", [(i, i % 7) for i in range(80)], name="R")
    s = Relation.from_rows("B C", [(i % 7, i) for i in range(80)], name="S")
    return {"R": r, "S": s}


QUERY = "project[A, C](R * S)"


class TestTracerSpans:
    def test_with_span_records_kind_label_and_duration(self):
        tracer = Tracer()
        with tracer.span("plan", "plan_for") as handle:
            handle.rows = 3
        (span,) = tracer.finish()
        assert span.kind == "plan"
        assert span.label == "plan_for"
        assert span.rows == 3
        assert span.seconds >= 0.0
        assert span.parent_id is None

    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("execute", "outer"):
            with tracer.span("plan", "inner"):
                pass
        spans = tracer.finish()
        by_label = {span.label: span for span in spans}
        assert by_label["inner"].parent_id == by_label["outer"].span_id
        assert by_label["outer"].parent_id is None

    def test_stream_opens_lazily_inside_the_pulling_span(self):
        tracer = Tracer()

        def blocks():
            yield [1]
            yield [2]

        wrapped = tracer.stream("spill-read", "part-0", blocks())
        assert tracer.finish() == []  # nothing opened until the first pull
        with tracer.span("materialize", "drain"):
            assert list(wrapped) == [[1], [2]]
        spans = {span.label: span for span in tracer.finish()}
        assert spans["part-0"].parent_id == spans["drain"].span_id

    def test_stream_counts_only_time_inside_the_generator(self):
        import time

        tracer = Tracer()

        def fast_blocks():
            yield [1]
            yield [2]

        wrapped = tracer.stream("operator", "fast", fast_blocks())
        for _ in wrapped:
            time.sleep(0.02)  # consumer-held time must NOT be charged
        (span,) = tracer.finish()
        assert span.seconds < 0.02

    def test_stream_close_cascade_closes_children_before_parents(self):
        # Mirrors how operators actually chain: the inner traced stream is
        # owned by the outer generator's frame, exactly like
        # ``child.blocks()`` inside a parent operator's ``_blocks()``.
        tracer = Tracer()

        def inner():
            yield [1]
            yield [2]

        def outer(source):
            for block in source:
                yield block

        wrapped_outer = tracer.stream(
            "operator", "outer", outer(tracer.stream("operator", "inner", inner()))
        )
        next(wrapped_outer)
        wrapped_outer.close()  # early exit: both spans must still close
        spans = {span.label: span for span in tracer.finish()}
        assert set(spans) == {"inner", "outer"}
        assert spans["inner"].parent_id == spans["outer"].span_id

    def test_span_counters_record_only_nonzero_deltas(self):
        from repro.perf import kernel_counters

        tracer = Tracer()
        with tracer.span("operator", "worker"):
            kernel_counters().add(join_probes=5)
        (span,) = tracer.finish()
        assert span.counters["join_probes"] == 5
        assert all(value != 0 for value in span.counters.values())

    def test_span_cap_drops_and_counts_excess(self, monkeypatch):
        import repro.obs.tracer as tracer_module

        monkeypatch.setattr(tracer_module, "MAX_SPANS", 3)
        tracer = Tracer()
        for index in range(5):
            with tracer.span("operator", f"op-{index}"):
                pass
        assert len(tracer.finish()) == 3
        assert tracer.dropped == 2

    def test_finish_orders_spans_by_start_time(self):
        tracer = Tracer()
        with tracer.span("execute", "first"):
            pass
        with tracer.span("execute", "second"):
            pass
        labels = [span.label for span in tracer.finish()]
        assert labels == ["first", "second"]

    def test_span_summary_is_json_serialisable(self):
        tracer = Tracer()
        with tracer.span("plan", "p"):
            pass
        (span,) = tracer.finish()
        assert json.loads(json.dumps(span.summary()))["kind"] == "plan"


class TestNullTracer:
    def test_stream_returns_the_iterator_untouched(self):
        def blocks():
            yield [1]

        iterator = blocks()
        assert NULL_TRACER.stream("operator", "x", iterator) is iterator
        assert NULL_TRACER.operator_stream(object(), iterator) is iterator

    def test_span_is_a_noop_context_manager(self):
        with NULL_TRACER.span("execute", "e") as handle:
            handle.rows = 99  # silently ignored
        assert NULL_TRACER.finish() == []
        assert NullTracer.enabled is False
        assert Tracer.enabled is True


class TestSpanTree:
    def test_roots_and_children_reassemble_the_hierarchy(self):
        spans = [
            Span(span_id=1, parent_id=None, kind="execute", label="e", start=0.0, seconds=1.0),
            Span(span_id=2, parent_id=1, kind="operator", label="join", start=0.1, seconds=0.5),
            Span(span_id=3, parent_id=2, kind="operator", label="scan", start=0.2, seconds=0.1),
        ]
        roots, children = span_tree(spans)
        assert [span.span_id for span in roots] == [1]
        assert [span.span_id for span in children[1]] == [2]
        assert [span.span_id for span in children[2]] == [3]

    def test_orphaned_spans_are_promoted_to_roots(self):
        spans = [
            Span(span_id=7, parent_id=99, kind="operator", label="lost", start=0.0, seconds=0.1)
        ]
        roots, _ = span_tree(spans)
        assert [span.label for span in roots] == ["lost"]


class TestExplainReport:
    def _spans(self):
        return [
            Span(span_id=1, parent_id=None, kind="operator", label="join", start=0.0,
                 seconds=0.8, rows=10),
            Span(span_id=2, parent_id=1, kind="operator", label="scan", start=0.01,
                 seconds=0.3, rows=100),
            Span(span_id=3, parent_id=None, kind="plan", label="plan_for", start=0.0,
                 seconds=0.05),
        ]

    def test_inclusive_self_and_attribution(self):
        report = explain_report(self._spans(), total_seconds=1.0, result_rows=10)
        join, scan = report.operators
        assert join.seconds == pytest.approx(0.8)
        assert join.self_seconds == pytest.approx(0.5)
        assert scan.depth == join.depth + 1
        assert report.attributed_seconds == pytest.approx(0.8)
        assert report.attributed_fraction == pytest.approx(0.8)
        assert report.others["plan"]["count"] == 1

    def test_attribution_recurses_through_non_operator_roots(self):
        spans = [
            Span(span_id=1, parent_id=None, kind="materialize", label="drain",
                 start=0.0, seconds=0.9),
            Span(span_id=2, parent_id=1, kind="operator", label="join", start=0.0,
                 seconds=0.7, rows=5),
        ]
        report = explain_report(spans, total_seconds=1.0)
        assert report.attributed_seconds == pytest.approx(0.7)

    def test_str_renders_the_tree_and_headline(self):
        text = str(explain_report(self._spans(), total_seconds=1.0, result_rows=10))
        assert "EXPLAIN ANALYZE (engine)" in text
        assert "join" in text and "scan" in text
        assert "80.0% attributed" in text

    def test_empty_spans_attribute_nothing(self):
        report = explain_report([], total_seconds=0.5)
        assert report.attributed_fraction == 0.0
        assert report.operators == []
        assert str(report).startswith("EXPLAIN ANALYZE (engine)")


class TestMetrics:
    def test_counter_monotonic_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(7.0)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_exact_count_sum_max(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 3.0, 10.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(15.0)
        assert summary["max"] == pytest.approx(10.0)

    def test_histogram_percentiles_are_bucket_upper_bounds(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 0.6, 0.7, 1.5):
            histogram.observe(value)
        assert histogram.percentile(0.50) == 1.0
        assert histogram.percentile(0.95) == 2.0
        histogram.observe(100.0)
        assert histogram.percentile(0.99) == float("inf")

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_summary_since_reports_only_the_window(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 5.0))
        histogram.observe(0.5)
        snapshot = histogram.snapshot()
        histogram.observe(1.5)
        histogram.observe(1.7)
        window = histogram.summary_since(snapshot)
        assert window["count"] == 2
        assert window["sum"] == pytest.approx(3.2)
        assert window["p50"] == 2.0  # bucket-resolution
        assert window["max"] == 2.0  # upper bound of the hottest new bucket

    def test_registry_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_registry_rejects_bucket_redefinition(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_child_observations_propagate_to_the_parent(self):
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        child.counter("hits").inc(3)
        child.histogram("lat", buckets=(1.0,)).observe(0.5)
        child.gauge("level").set(9.0)
        assert parent.counter("hits").value == 3
        assert parent.histogram("lat", buckets=(1.0,)).count == 1
        assert parent.gauge("level").value == 9.0

    def test_looking_up_an_existing_instrument_leaves_the_parent_alone(self):
        """The parent chain is walked when a name is created, never again."""
        calls = []

        class CountingParent(MetricsRegistry):
            def counter(self, name, help=""):
                calls.append(("counter", name))
                return super().counter(name, help)

            def gauge(self, name, help=""):
                calls.append(("gauge", name))
                return super().gauge(name, help)

            def histogram(self, name, *args, **kwargs):
                calls.append(("histogram", name))
                return super().histogram(name, *args, **kwargs)

        parent = CountingParent()
        child = MetricsRegistry(parent=parent)
        created = (
            child.counter("hits"),
            child.gauge("level"),
            child.histogram("lat", buckets=(1.0,)),
        )
        assert calls == [("counter", "hits"), ("gauge", "level"), ("histogram", "lat")]
        for _ in range(3):
            again = (
                child.counter("hits"),
                child.gauge("level"),
                child.histogram("lat", buckets=(1.0,)),
            )
            assert all(a is b for a, b in zip(again, created))
        assert len(calls) == 3, calls
        # Same objects, same mismatch errors, still without a parent call.
        with pytest.raises(ValueError):
            child.gauge("hits")
        with pytest.raises(ValueError):
            child.histogram("lat", buckets=(2.0,))
        assert len(calls) == 3, calls
        # ... and increments still reach the parent's instrument.
        child.counter("hits").inc(2)
        assert parent._instruments["hits"].value == 2

    def test_eight_threads_of_histogram_observes_account_exactly(self):
        """Concurrent observes must never lose an update (satellite 3)."""
        parent = MetricsRegistry()
        child = MetricsRegistry(parent=parent)
        histogram = child.histogram("h", buckets=(0.25, 0.5, 1.0))
        rounds = 2_000

        def hammer(offset):
            for index in range(rounds):
                histogram.observe(((index + offset) % 4) * 0.25)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = 8 * rounds
        assert histogram.count == total
        assert sum(histogram.bucket_counts) == total
        expected_sum = 8 * sum(((i + 0) % 4) * 0.25 for i in range(rounds))
        assert histogram.sum == pytest.approx(expected_sum)
        # The parent saw every observation exactly once too.
        assert parent.histogram("h", buckets=(0.25, 0.5, 1.0)).count == total

    def test_process_registry_is_a_stable_singleton(self):
        assert process_metrics() is process_metrics()


class TestEventLog:
    def test_emit_assigns_sequence_and_timestamp(self):
        log = EventLog(clock=lambda: 123.0)
        first = log.emit("spill", operator="dedup", rows=10)
        second = log.emit("replan")
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["ts"] == 123.0
        assert first["operator"] == "dedup"

    def test_filtering_counts_and_clear(self):
        log = EventLog()
        log.emit("spill")
        log.emit("fault", site="spill-write")
        log.emit("spill")
        assert len(log) == 3
        assert [event["kind"] for event in log.events("fault")] == ["fault"]
        assert log.counts() == {"spill": 2, "fault": 1}
        log.clear()
        assert len(log) == 0

    def test_jsonl_mirroring_appends_one_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path))
        log.emit("spill", rows=5)
        log.emit("replan", trigger="guard")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "spill"
        assert json.loads(lines[1])["trigger"] == "guard"

    def test_events_to_jsonl_round_trips(self):
        log = EventLog(clock=lambda: 1.0)
        log.emit("fault", site="spill-read")
        text = events_to_jsonl(log.events())
        assert json.loads(text.strip())["site"] == "spill-read"

    def test_concurrent_emitters_mirror_in_seq_order(self, tmp_path):
        # Regression: the JSONL write used to happen outside the mutation
        # lock, so two threads could assign seq 1 and 2 but reach open()
        # in the other order (and interleave partial lines under enough
        # contention).  The mirror must be a line-atomic replica of the
        # in-memory sequence.
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path))
        emits_per_thread = 200
        threads = [
            threading.Thread(
                target=lambda worker=worker: [
                    log.emit("spill", worker=worker, i=i)
                    for i in range(emits_per_thread)
                ]
            )
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 8 * emits_per_thread
        seqs = [json.loads(line)["seq"] for line in lines]
        assert seqs == list(range(1, 8 * emits_per_thread + 1))


class TestRenderPrometheus:
    def test_counter_gauge_and_histogram_series(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", help="served requests").inc(3)
        registry.gauge("level").set(1.5)
        histogram = registry.histogram("lat", buckets=(0.1, 1.0), help="latency")
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        text = render_prometheus(registry)
        assert "# HELP requests_total served requests" in text
        assert "# TYPE requests_total counter" in text
        assert "requests_total 3" in text
        assert "level 1.5" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text  # cumulative
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_gauge_extremes_render_valid_exposition(self):
        # Regression: only +inf was special-cased — -inf rendered as
        # "-inf" and NaN as "nan", both invalid in the text exposition
        # format (Prometheus requires "-Inf" / "NaN").
        registry = MetricsRegistry()
        registry.gauge("pos_edge").set(float("inf"))
        registry.gauge("neg_edge").set(float("-inf"))
        registry.gauge("nan_edge").set(float("nan"))
        text = render_prometheus(registry)
        assert "pos_edge +Inf" in text
        assert "neg_edge -Inf" in text
        assert "nan_edge NaN" in text
        values = [
            line.split()[-1]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert set(values) == {"+Inf", "-Inf", "NaN"}  # never -inf / nan / inf

    def test_gauge_extremes_round_trip_through_merge(self):
        registry = MetricsRegistry()
        registry.gauge("edge", help="extreme values").set(float("-inf"))
        merged = repro.obs.merge_collected([registry.collect()])
        assert "edge -Inf" in render_prometheus(merged)

    def test_help_text_is_escaped_per_exposition_spec(self):
        # Regression: HELP text was emitted raw, so a newline in a help
        # string injected a bogus exposition line and a backslash made
        # scrapers un-escape garbage.
        registry = MetricsRegistry()
        registry.counter(
            "tricky_total", help="line one\nline two with a \\ backslash"
        ).inc()
        text = render_prometheus(registry)
        assert (
            "# HELP tricky_total line one\\nline two with a \\\\ backslash" in text
        )
        # One logical line: the raw newline must not survive.
        help_lines = [line for line in text.splitlines() if line.startswith("# HELP")]
        assert len(help_lines) == 1

    def test_render_accepts_a_collected_mapping(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="c").inc(2)
        assert render_prometheus(registry.collect()) == render_prometheus(registry)


class TestMergeCollected:
    def _snapshot(self, executes, latency):
        registry = MetricsRegistry()
        registry.counter("requests_total", help="requests").inc(executes)
        registry.gauge("last_peak").set(latency * 10)
        histogram = registry.histogram("lat", buckets=(0.1, 1.0), help="latency")
        histogram.observe(latency)
        return registry.collect()

    def test_counters_and_histograms_sum_across_workers(self):
        merged = repro.obs.merge_collected(
            [self._snapshot(3, 0.05), self._snapshot(4, 5.0)]
        )
        assert merged["requests_total"]["value"] == 7
        assert merged["lat"]["count"] == 2
        assert merged["lat"]["bucket_counts"][0] == 1  # the 0.05 observation
        assert merged["lat"]["bucket_counts"][-1] == 1  # the 5.0 tail
        assert merged["lat"]["max"] == 5.0
        assert merged["last_peak"]["value"] == 50.0  # last snapshot wins

    def test_merge_does_not_mutate_the_input_snapshots(self):
        first = self._snapshot(1, 0.05)
        before = [tuple(first["lat"]["bucket_counts"]), first["requests_total"]["value"]]
        repro.obs.merge_collected([first, self._snapshot(2, 0.5)])
        assert [tuple(first["lat"]["bucket_counts"]), first["requests_total"]["value"]] == before

    def test_type_conflicts_raise(self):
        counter_side = MetricsRegistry()
        counter_side.counter("x").inc()
        gauge_side = MetricsRegistry()
        gauge_side.gauge("x").set(1)
        with pytest.raises(ValueError):
            repro.obs.merge_collected([counter_side.collect(), gauge_side.collect()])

    def test_bucket_conflicts_raise(self):
        one = MetricsRegistry()
        one.histogram("h", buckets=(0.1, 1.0)).observe(0.2)
        two = MetricsRegistry()
        two.histogram("h", buckets=(0.5,)).observe(0.2)
        with pytest.raises(ValueError):
            repro.obs.merge_collected([one.collect(), two.collect()])


class TestSessionObservability:
    def test_trace_spans_populated_when_tracing_is_on(self):
        config = BackendConfig(observe=ObserveConfig(trace=True))
        with repro.connect(_database(), config=config) as session:
            trace = session.prepare(QUERY).trace()
        assert trace.spans, "tracing on but no spans recorded"
        kinds = {span.kind for span in trace.spans}
        assert "operator" in kinds and "plan" in kinds
        roots, children = span_tree(trace.spans)
        assert roots and children

    def test_trace_spans_empty_when_observability_is_off(self):
        with repro.connect(_database()) as session:
            trace = session.prepare(QUERY).trace()
        assert trace.spans == []

    def test_explain_analyze_reports_per_operator_runtime(self):
        with repro.connect(_database()) as session:
            query = session.prepare(QUERY)
            expected_rows = len(query.execute())
            report = query.explain_analyze()
            assert str(report).startswith("EXPLAIN ANALYZE (engine)")
            assert report.operators, "engine run must emit operator spans"
            assert report.result_rows == expected_rows
            assert 0.0 < report.attributed_fraction <= 1.0
            assert query.last_trace().spans  # traced run is the last trace

    @staticmethod
    def _blowup_attributed_fractions(clauses, runs=3):
        """Proposition 1's ``π_Y(φ_G)``: its tableau keeps every row, so it
        runs the joins ``project[S](φ_G)`` ran before the planner minimized
        that query to one scan."""
        from repro.reductions import RGConstruction
        from repro.workloads import growing_construction_family

        (case,) = growing_construction_family(clause_counts=(clauses,))
        construction = RGConstruction(case.formula)
        query = construction.pair_projection_expression()
        with repro.connect(construction.relation) as session:
            prepared = session.prepare(query)
            prepared.execute()  # pin the plan off the clock
            return [
                prepared.explain_analyze().attributed_fraction for _ in range(runs)
            ]

    def test_explain_analyze_attributes_the_wall_time_at_m12(self):
        """What the operator spans leave unexplained at m = 12 is a fixed
        part per execute (building the operator tree, the drain's own
        statements, wrapping the result, recording the trace), and this
        gates *that*, as a share so that it reads the same on a slow host.
        It said >= 95 % of a ~11.5 ms run (0.575 ms allowed), then >= 93 %
        of ~7.5 ms (0.53 ms).  With the join chain fused the traced run is
        ~4.3 ms, and with trace labels cached on the plan the fixed part is
        ~0.21-0.25 ms (reads 0.944-0.949): >= 93 % now allows ~0.3 ms.
        Since the planner minimizes ``project[S](φ_G)`` to one scan the
        query is ``π_Y(φ_G)``, the same twelve joins: ~6-7 ms traced, a
        median share of 0.952 over 15 runs at the parent of that change and
        0.953 with it (the bound is unchanged).
        Median of three to ride out a scheduling hiccup."""
        from statistics import median

        fractions = self._blowup_attributed_fractions(12)
        assert median(fractions) >= 0.93, fractions

    def test_explain_analyze_attributes_the_wall_time_at_m14(self):
        """The share that scales with the work: at m = 14 (~13 ms) the fixed
        part is ~2.5 % and the spans must explain >= 95 % (reads 0.974).  On
        ``π_Y(φ_G)`` (see the m = 12 test) the run is ~21-28 ms and reads
        0.978 at the parent of minimization, 0.979 with it."""
        from statistics import median

        fractions = self._blowup_attributed_fractions(14)
        assert median(fractions) >= 0.95, fractions

    def test_spill_events_recorded_on_budgeted_run(self):
        config = BackendConfig(observe=True, budget=16)
        with repro.connect(_database(), config=config) as session:
            session.prepare(QUERY).execute()
            events = session.events()
            assert events is not None
            assert events.events("spill"), "budgeted run must log spill events"

    @pytest.mark.parametrize(
        "budget, how, event_fields",
        [
            (64, "build re-read x1", {"mode": "re-read", "build_rereads": 1}),
            (16, "partitioned x16", {"mode": "partitioned", "fanout": 16}),
        ],
    )
    def test_a_spilled_join_says_which_way_it_went(self, budget, how, event_fields):
        # An 80-row build: re-read per probe slice under budget=64 (one
        # 80-row probe block, one re-read), partitioned under budget=16.
        config = BackendConfig(observe=True, budget=budget)
        with repro.connect(_database(), config=config) as session:
            report = session.prepare(QUERY).explain_analyze()
            (event,) = session.events().events("spill")
        # "-> [A, C]": the projection above was folded into the join.
        line = (
            f"grace hash join [build=right, budget={budget}] on (B) -> [A, C] "
            f"[spilled: {how}]"
        )
        assert line in [timing.label for timing in report.operators]
        assert f"    {line}" in str(report).splitlines()[4]
        assert event["label"] == line and event["rows"] == 80
        assert event_fields.items() <= event.items()

    def test_a_planner_pushed_projection_is_marked_everywhere(self):
        # The reader must be able to tell a projection the planner placed
        # from one the query wrote: plan explain, operator label (hence
        # explain_analyze and the spans) and the trace steps all say so.
        from repro.workloads import serving_relations

        with repro.connect(serving_relations()) as session:
            query = session.prepare("project[A, C, D](R * S * T)")
            plan_lines = query.explain().splitlines()
            report = query.explain_analyze()
            steps = [step.description for step in query.last_trace().steps]
        assert "    project[A, C] (pushed)  [est_rows=920.0 cost=30893.0]" in plan_lines
        label = "project[A, C](hash join [build=right] on (B) -> [A, C]) (pushed)"
        assert label in [timing.label for timing in report.operators]
        assert label in steps
        assert f"      {label} " in str(report)
        assert sum("pushed" in line for line in plan_lines) == 1

    def test_session_metrics_observe_executions(self):
        with repro.connect(_database()) as session:
            query = session.prepare(QUERY)
            result = query.execute()
            query.execute()
            metrics = session.metrics()
        assert metrics.counter("repro_executes_total").value == 2
        assert metrics.counter("repro_rows_total").value == 2 * len(result)
        assert metrics.histogram("repro_query_seconds").count == 2

    def test_an_execute_after_the_first_looks_no_instrument_up(self):
        # The four instruments every execute feeds are resolved by the
        # first; the conditional counters still appear with their first
        # nonzero count, so the exposition names what it always named.
        every_execute = [
            "repro_executes_total",
            "repro_last_peak_memory_rows",
            "repro_query_seconds",
            "repro_rows_total",
        ]
        with repro.connect(_database(), budget=16) as session:
            metrics = session.metrics()
            query = session.prepare(QUERY)
            assert metrics.names() == []
            result = query.execute()
            assert metrics.names() == sorted(every_execute + ["repro_spill_rows_total"])
            before = session.stats()
            with mock.patch.object(
                MetricsRegistry,
                "_get_or_create",
                autospec=True,
                side_effect=MetricsRegistry._get_or_create,
            ) as lookups:
                query.execute()
            assert lookups.call_count == 1  # the spill counter, nothing else
            assert lookups.call_args.args[2] == "repro_spill_rows_total"
        assert session.stats() == dict(
            before,
            executes=before["executes"] + 1,
            plan_cache_hits=before["plan_cache_hits"] + 1,
        )
        assert metrics.counter("repro_executes_total").value == 2
        assert metrics.counter("repro_rows_total").value == 2 * len(result)
        assert metrics.histogram("repro_query_seconds").count == 2
        exposition = render_prometheus(metrics)
        assert [
            line.split()[2] for line in exposition.splitlines() if line.startswith("# TYPE")
        ] == sorted(every_execute + ["repro_spill_rows_total"])
        with repro.connect(_database()) as session:
            query = session.prepare(QUERY)
            query.execute()
            with mock.patch.object(
                MetricsRegistry, "_get_or_create", side_effect=AssertionError
            ):
                query.execute()
            assert session.metrics().names() == every_execute

    def test_events_none_without_observe_config(self):
        with repro.connect(_database()) as session:
            assert session.events() is None


class TestPeakMemoryRowsDispatch:
    """``peak_memory_rows`` branches on the backend, not on truthiness."""

    def test_engine_zero_residency_stays_zero(self):
        # Regression: an engine trace with peak_live_rows == 0 used to fall
        # through to the streamed step cardinalities (throughput, not
        # residency) and report a bogus nonzero peak.
        from repro.expressions.evaluator import TraceStep

        trace = EvaluationTrace(
            backend="engine",
            steps=[
                TraceStep(
                    description="scan",
                    node_kind="operand",
                    cardinality=500,
                    scheme_width=2,
                    cell_count=1000,
                )
            ],
            peak_live_rows=0,
        )
        assert trace.peak_memory_rows == 0

    def test_engine_reports_live_rows(self):
        trace = EvaluationTrace(backend="engine", peak_live_rows=42)
        assert trace.peak_memory_rows == 42

    def test_materialising_backends_report_largest_step(self):
        from repro.expressions.evaluator import TraceStep

        trace = EvaluationTrace(
            backend="instrumented",
            steps=[
                TraceStep(
                    description="join",
                    node_kind="join",
                    cardinality=900,
                    scheme_width=3,
                    cell_count=2700,
                ),
                TraceStep(
                    description="project",
                    node_kind="projection",
                    cardinality=30,
                    scheme_width=1,
                    cell_count=30,
                ),
            ],
        )
        assert trace.peak_memory_rows == 900

    def test_live_engine_trace_still_reports_positive_peak(self):
        with repro.connect(_database()) as session:
            trace = session.prepare(QUERY).trace()
        assert trace.backend == "engine"
        assert trace.peak_memory_rows == trace.peak_live_rows > 0
