"""Tests of the ladder benchmark itself (run by explicit path).

``python -m pytest benchmarks/ladder/test_ladder.py -q`` — ``conftest.py``
keeps this file out of a bare ``pytest`` run, so tier-1 never collects it.
The smoke tests start the real benchmark in subprocesses and take about a
minute and a half.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import workloads  # noqa: E402
from stats import percentile, quartile_spread  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
END_TO_END = {entry["name"]: entry for entry in CONTRACT["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in CONTRACT["per_layer"]}


def run(*arguments: str) -> subprocess.CompletedProcess:
    """Run ``run.py`` from the repo root, as the contract's command does."""
    return subprocess.run(
        [*CONTRACT["command"], *arguments],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=False,
    )


# -- order statistics --------------------------------------------------------


def test_percentile_is_nearest_rank():
    assert percentile([7.0], 50) == 7.0
    assert percentile([7.0], 100) == 7.0
    assert percentile([4, 1, 3, 2], 50) == 2
    assert percentile(range(1, 11), 90) == 9
    assert percentile(range(1, 101), 90) == 90
    assert percentile(range(1, 101), 99) == 99
    assert percentile(range(1, 101), 100) == 100
    assert percentile([1, 2, 3], 1) == 1
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_quartile_spread_matches_the_acceptance_rule():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4) gives 11.75 and 17.25; the median is 14.5.
    assert quartile_spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert quartile_spread([5.0]) == 0.0
    assert quartile_spread([3.0, 3.0, 3.0]) == 0.0


# -- the contract file -------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert CONTRACT["paths"] == ["benchmarks/ladder"]
    assert CONTRACT["command"][-1].startswith(CONTRACT["paths"][0] + "/")
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.NAMES)
    for entry in CONTRACT["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    for entry in CONTRACT["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in CONTRACT["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert END_TO_END["setup_s"]["unit"] == "s" and END_TO_END["setup_s"]["better"] == "lower"
    assert END_TO_END["setup_s"]["bound"] == max(e["bound"] for e in END_TO_END.values())
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_quiet_latency_weights_each_kind_by_its_fastest_time():
    window = workloads.Window()
    # Kind 0: twenty operations of 1..20 s; kind 1: ten of 100..109 s.
    for value in range(1, 21):
        window.note(0, float(value), True)
    for value in range(100, 110):
        window.note(1, float(value), True)
    assert window.quiet_latency() == pytest.approx((20 * 1.0 + 10 * 100.0) / 30)
    slowed = workloads.Window()
    for value in range(1, 21):
        slowed.note(0, float(value) * (3.0 if value > 1 else 1.0), True)
    for value in range(100, 110):
        slowed.note(1, float(value), True)
    # A host that slows most operations down leaves the metric where it was.
    assert slowed.quiet_latency() == window.quiet_latency()
    # Failing fast is not a gain: a failed operation is never its kind's
    # fastest, and a kind that never succeeds counts at its slowest attempt.
    slowed.note(0, 0.001, False, "refused")
    assert slowed.quiet_latency() == pytest.approx((21 * 1.0 + 10 * 100.0) / 31)
    slowed.note(2, 0.001, False, "refused")
    slowed.note(2, 5.0, False, "refused")
    assert slowed.quiet_latency() == pytest.approx((21 * 1.0 + 10 * 100.0 + 2 * 5.0) / 33)


# -- seeded inputs -----------------------------------------------------------


def test_zipf_mutate_schedule_is_seeded():
    first = workloads.zipf_mutate_schedule(3, 400, 8)
    assert first == workloads.zipf_mutate_schedule(3, 400, 8)
    other = workloads.zipf_mutate_schedule(4, 400, 8)
    assert first != other
    positions = [i for i, index in enumerate(first) if index == workloads.MUTATE]
    assert positions != [i for i, index in enumerate(other) if index == workloads.MUTATE]
    # One mutate per 40-op block, never adjacent to the next block's.
    assert [p // workloads.MUTATE_EVERY for p in positions] == list(range(10))
    assert min(b - a for a, b in zip(positions, positions[1:])) >= workloads.MUTATE_EVERY // 2
    reads = [index for index in first if index != workloads.MUTATE]
    assert reads.count(0) > reads.count(7)  # rank 0 is the hot query


def test_join_rows_are_seeded():
    rows, s_map, t_map = workloads.join_rows(5)
    again, s_again, t_again = workloads.join_rows(5)
    assert (rows, s_map, t_map) == (again, s_again, t_again)
    assert len(rows) == workloads.JOIN_ROWS == len(set(rows))
    assert len(s_map) == 5_000 and len(t_map) == 2_000
    other, _, _ = workloads.join_rows(6)
    assert rows != other


def test_rg_formula_is_a_seeded_isomorphic_copy():
    from repro.sat.counting import count_models

    first, again, other = (workloads.rg_formula(seed) for seed in (1, 1, 2))
    assert first == again and first != other
    assert first.num_clauses == other.num_clauses == workloads.RG_CLAUSES
    assert count_models(first) == count_models(other)


def test_served_inputs_expect_both_generations():
    inputs = workloads.build("serve_zipf_mutate", 9, 120)
    assert inputs.cache and len(inputs.variants) == len(inputs.counts) == 2
    assert inputs.counts[0] != inputs.counts[1]
    assert inputs.schedule == workloads.build("serve_zipf_mutate", 9, 120).schedule
    assert abs(sum(inputs.query_mix()) - 1.0) < 1e-9


# -- compare.py --------------------------------------------------------------


def test_verdicts():
    assert compare.verdict(100.0, 105.0, "lower", 0.10, 0.02) == "same"
    assert compare.verdict(100.0, 111.0, "lower", 0.10, 0.02) == "worse"
    assert compare.verdict(100.0, 89.0, "lower", 0.10, None) == "better"
    assert compare.verdict(100.0, 89.0, "higher", 0.10, 0.02) == "worse"
    assert compare.verdict(100.0, 111.0, "higher", 0.10, 0.02) == "better"
    assert compare.verdict(100.0, 150.0, "lower", 0.10, 0.12) == "unresolved"


def document(quiet: float, failed: int = 0, sets: int = 3) -> dict:
    """A minimal ladder document with one bounded metric."""
    cell = {"median": quiet, "spread": 0.01, "unit": "ms", "values": [quiet] * sets}
    return {"workloads": {"rg_blowup": {
        "attempted": 100, "failed": failed, "end_to_end": {"latency_quiet_ms": cell},
    }}}


def test_compare_exit_codes(tmp_path, capsys):
    paths = {}
    bound = END_TO_END["latency_quiet_ms"]["bound"]
    for name, doc in {
        "a": document(60.0), "same": document(60.0 * (1 + bound / 2)),
        "slow": document(60.0 * (1 + bound * 1.2)), "failing": document(60.0, failed=1),
    }.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert compare.main([str(paths["a"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["a"]), str(paths["slow"])]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(paths["a"]), str(paths["failing"])]) == 1


# -- the benchmark, end to end (smoke) ---------------------------------------


def check_result_line(done: subprocess.CompletedProcess, table: dict) -> dict:
    """Pin the contract's one-line result; returns its metrics."""
    assert done.returncode == 0, done.stdout[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 10
    assert list(result["metrics"]) == list(table)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == table[name]["unit"]
        assert isinstance(metric["value"], (int, float)) and not isinstance(metric["value"], bool)
    return result["metrics"]


def test_smoke_set_finishes_fast_with_the_pinned_schema(tmp_path):
    import time

    out = tmp_path / "smoke.json"
    began = time.time()
    done = run("--smoke", "--seed", "21", "--out", str(out))
    assert done.returncode == 0, done.stdout[-2000:]
    assert time.time() - began < 20
    doc = json.loads(out.read_text())
    for key in ("commit", "cpu_count", "python", "seeds", "seconds", "wall_total_s"):
        assert key in doc
    assert list(doc["workloads"]) == list(workloads.NAMES)
    for name, entry in doc["workloads"].items():
        assert NAME.fullmatch(name) and entry["problems"] == [] and entry["failed"] == 0
        assert entry["ops"] >= 10 and entry["attempted"] >= entry["ops"]
        assert list(entry["end_to_end"]) == list(END_TO_END)
        for metric, cell in entry["end_to_end"].items():
            assert NAME.fullmatch(metric) and cell["unit"] == END_TO_END[metric]["unit"]
            assert cell["median"] > 0 and len(cell["values"]) == 1
    history = (HERE / "out" / "history.jsonl").read_text().splitlines()
    last = json.loads(history[-1])
    assert last["seeds"] == [21] and set(last["ops"]) == set(workloads.NAMES)
    assert last["cpu_count"] == doc["cpu_count"]


@pytest.mark.parametrize("workload", workloads.IN_PROCESS)
def test_single_caller_counts_repeat_exactly(workload):
    runs = [
        check_result_line(
            run("--workload", workload, "--seed", "21", "--smoke", "--trace", "1"),
            PER_LAYER,
        )
        for _ in range(2)
    ]
    counts = [name for name, entry in PER_LAYER.items() if entry["unit"] == "count"]
    assert len(counts) >= 20
    for name in counts:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    for name in ("engine.spill_overflows", "engine.serial_fallbacks", "engine.replans",
                 "server.cache_stale_served", "server.errors", "server.rejected"):
        assert runs[0][name]["value"] == 0
    spilled = runs[0]["engine.spill_rows"]["value"]
    assert (spilled > 0) == (workload == "spill_tight")


def test_untraced_result_line():
    metrics = check_result_line(
        run("--workload", "serve_zipf_mutate", "--seed", "22", "--smoke", "--trace", "0"),
        END_TO_END,
    )
    assert all(metric["value"] > 0 for metric in metrics.values())
