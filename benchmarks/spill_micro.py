"""Spill micro-harness: the budgeted join's spill path, timed cell by cell.

Not part of the repo's benchmark (``benchmarks/ladder``): no ladder
workload spills since 6.1.0, so a change to the spill path is timed here.
Two kinds of cell, each a median of ``--repeat`` warm runs in ms:

* ``B/budget`` — one ``GraceHashJoin`` over two ``TableScan`` s: a
  ``B``-row build with unique keys, 20,000 probe rows of which half match,
  under a ``budget``-row meter; ``B/mem`` is the same join unbudgeted.
  Six cells from one row over the budget to four times it, then every
  cell of ``docs/PERFORMANCE.md``'s re-read crossover table.
* ``phi12`` / ``phi14`` — ``π_Y(φ_G)`` (the pair projection of the R_G
  construction) over the seed-13 formula at m = 12 / 14 under
  ``EngineEvaluator(budget=64)``, warm (plan pinned), median of at least 9.

One side::

    PYTHONPATH=src python benchmarks/spill_micro.py            # JSON of medians

Ten interleaved pairs against another checkout's ``src`` (each run its own
process, the first side swapped every pair), summarised per cell — medians, the parent's
interquartile range and how often the change was faster::

    python benchmarks/spill_micro.py --against ../parent/src --pairs 10
"""

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time

PROBE_ROWS = 20_000

#: ``(build rows, budget rows)``: the six cells, then the crossover table's.
CELLS = (
    (17, 16), (128, 64), (256, 200), (1025, 1024), (1500, 1024), (4096, 1024),
    (28, 16), (44, 16), (60, 16), (92, 16), (124, 16), (188, 16),
    (65, 64), (112, 64), (176, 64), (240, 64), (368, 64), (496, 64), (752, 64),
    (257, 256), (448, 256), (704, 256), (960, 256), (1472, 256),
    (1792, 1024), (3840, 1024), (12032, 1024),
)

#: Builds also timed unbudgeted: the six cells' and those one row over their budget.
IN_MEMORY = {17, 128, 256, 1025, 1500, 4096, 65, 257}


def _one_side(repeat):
    """Time every cell in this process; return ``{cell: median ms}``."""
    from repro.algebra import Relation
    from repro.algebra.relation import _join_plan
    from repro.engine import EngineEvaluator, GraceHashJoin, MemoryBudget, MemoryMeter, TableScan
    from repro.perf.plancache import make_chain_kernel
    from repro.reductions import RGConstruction
    from repro.workloads import growing_construction_family

    def join(build, probe, budget_rows):
        budget = MemoryBudget(rows=budget_rows)
        meter = MemoryMeter(budget.rows)
        plan = _join_plan(build.scheme, probe.scheme)
        operator = GraceHashJoin(
            TableScan(build, meter), TableScan(probe, meter), plan, meter, budget, build_side="left"
        )
        operator.fuse(make_chain_kernel([(True, plan)]))
        rows = set()
        for block in operator.blocks():
            rows.update(block)

    def median_ms(run, times):
        samples = []
        run()
        for _ in range(times):
            gc.collect()
            start = time.perf_counter()
            run()
            samples.append((time.perf_counter() - start) * 1e3)
        return statistics.median(samples)

    medians = {}
    for rows, budget in CELLS:
        build = Relation.from_rows("K A", [(i, i) for i in range(rows)])
        probe = Relation.from_rows("K B", [(i % (2 * rows), -i) for i in range(PROBE_ROWS)])
        medians[f"{rows}/{budget}"] = median_ms(lambda: join(build, probe, budget), repeat)
        if rows in IN_MEMORY and f"{rows}/mem" not in medians:
            medians[f"{rows}/mem"] = median_ms(lambda: join(build, probe, 10**9), repeat)
    for m in (12, 14):
        family = growing_construction_family(clause_counts=(m,), seed=13)
        construction = RGConstruction(family[0].formula)
        query = construction.pair_projection_expression()
        bound = {name: construction.relation for name in query.operand_names()}
        evaluator = EngineEvaluator(budget=64)
        medians[f"phi{m}"] = median_ms(lambda: evaluator.evaluate(query, bound), max(repeat, 9))
    return medians


def _side_in_process(src, repeat):
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, os.path.abspath(__file__), "--repeat", str(repeat)]
    return json.loads(subprocess.run(command, env=env, check=True, capture_output=True).stdout)


def _pairs(parent_src, change_src, pairs, repeat):
    """Interleave the two sides ``pairs`` times and print one table row per cell."""
    parent, change = [], []
    for pair in range(pairs):
        sides = [(parent, parent_src), (change, change_src)]
        for runs, src in sides[:: 1 if pair % 2 == 0 else -1]:
            runs.append(_side_in_process(src, repeat))
    print("| cell | parent ms | change ms | change / parent | parent IQR | change faster |")
    print("|---|---:|---:|---:|---:|---:|")
    for cell in parent[0]:
        before = [side[cell] for side in parent]
        after = [side[cell] for side in change]
        quartiles = statistics.quantiles(before, n=4)
        faster = sum(b < a for a, b in zip(before, after))
        low, high = statistics.median(before), statistics.median(after)
        print(
            f"| {cell} | {low:.1f} | {high:.1f} | {high / low:.2f} | "
            f"{quartiles[2] - quartiles[0]:.1f} | {faster} of {pairs} |"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timed runs per cell")
    parser.add_argument("--against", help="the other side's src directory (runs pairs)")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    if args.against:
        here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        _pairs(os.path.abspath(args.against), here, args.pairs, args.repeat)
    else:
        print(json.dumps(_one_side(args.repeat)))


if __name__ == "__main__":
    main()
