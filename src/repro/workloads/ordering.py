"""Join-ordering quality instrumentation.

The estimate-quality suite (``tests/test_engine_stats_quality.py``, which
carries the ordering gate at m = 4..14) compares the planner's join
ordering — a two-wide beam over measured estimates — against the
*actual-size greedy oracle*: at every step pick the operand whose real
(streamed, capped) join cardinality with the accumulated chain is smallest.
The oracle and the helpers that read an order back out of a pinned plan
live here.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..algebra.relation import Relation, _join_plan
from ..engine.evaluator import EngineEvaluator
from ..engine.physical import HashJoin, TableScan
from ..engine.spill import MemoryMeter
from ..expressions.ast import Join
from ..expressions.ast import Projection as ProjectionNode
from ..expressions.evaluator import evaluate
from ..perf.plancache import make_chain_kernel

__all__ = [
    "actual_greedy_order",
    "capped_join_size",
    "chain_sizes",
    "join_parts",
    "planner_join_order",
]

#: Default streamed-count cap: candidate joins larger than this can never be
#: the greedy minimum on the R_G instances, so counting is cut off there.
DEFAULT_SIZE_CAP = 120_000


def capped_join_size(left: Relation, right: Relation, cap: int = DEFAULT_SIZE_CAP) -> int:
    """The real join cardinality, streamed (never materialised), capped."""
    meter = MemoryMeter()
    plan = _join_plan(left.scheme, right.scheme)
    build_left = len(left) <= len(right)
    operator = HashJoin(
        TableScan(left, meter),
        TableScan(right, meter),
        plan,
        meter,
        build_side="left" if build_left else "right",
    )
    operator.fuse(make_chain_kernel([(build_left, plan)]))
    count = 0
    generator = operator.blocks()
    for block in generator:
        count += len(block)
        if count >= cap:
            generator.close()
            return cap
    return count


def join_parts(query, relation: Relation) -> List[Relation]:
    """The materialised operands of the query's n-ary join."""
    node = query
    while isinstance(node, ProjectionNode):
        node = node.child
    assert isinstance(node, Join)
    return [
        evaluate(part, {name: relation for name in part.operand_names()})
        for part in node.parts
    ]


def chain_sizes(part_relations: List[Relation], order: List[int]) -> List[int]:
    """The real cardinality of every join along one left-deep join order."""
    accumulated = part_relations[order[0]].natural_join(part_relations[order[1]])
    sizes = [len(accumulated)]
    for index in order[2:]:
        accumulated = accumulated.natural_join(part_relations[index])
        sizes.append(len(accumulated))
    return sizes


def actual_greedy_order(
    part_relations: List[Relation], cap: int = DEFAULT_SIZE_CAP
) -> List[int]:
    """The oracle: greedy ordering by *actual* (streamed, capped) join sizes."""
    count = len(part_relations)
    best, best_pair = None, None
    for i, j in itertools.combinations(range(count), 2):
        size = capped_join_size(part_relations[i], part_relations[j], cap)
        if best is None or size < best:
            best, best_pair = size, (i, j)
    order = list(best_pair)
    accumulated = part_relations[best_pair[0]].natural_join(part_relations[best_pair[1]])
    remaining = [i for i in range(count) if i not in best_pair]
    while remaining:
        sizes = {
            i: capped_join_size(accumulated, part_relations[i], cap) for i in remaining
        }
        nxt = min(sizes, key=sizes.get)
        order.append(nxt)
        accumulated = accumulated.natural_join(part_relations[nxt])
        remaining.remove(nxt)
    return order


def planner_join_order(
    query,
    relation: Relation,
    part_relations: List[Relation],
    evaluator: Optional[EngineEvaluator] = None,
) -> List[int]:
    """The planner's join order, read off its pinned plan's chain.

    ``evaluator`` defaults to a fresh
    :class:`~repro.engine.evaluator.EngineEvaluator`.  The chain is read
    *through* the planner's pushed projections; each leaf is the operand
    whose scheme holds its columns (a pushed projection may have narrowed
    the leaf itself).
    """
    evaluator = evaluator or EngineEvaluator()
    bound = {name: relation for name in query.operand_names()}
    plan = evaluator.plan_for(query, bound)
    node = plan.root
    while node.kind == "project":
        node = node.children[0]
    schemes = [rel.scheme.name_set for rel in part_relations]

    def descend(chain_node):
        join = chain_node.chain_join()
        if join is None:
            return [chain_node]
        probe = join.children[join.probe_child_index()]
        build = join.children[1 - join.probe_child_index()]
        return descend(probe) + [build]

    def operand_index(leaf) -> int:
        holders = [i for i, names in enumerate(schemes) if leaf.scheme.name_set <= names]
        return min(holders, key=lambda i: len(schemes[i]))

    order = [operand_index(leaf) for leaf in descend(node)]
    # A leaf narrowed to columns two parts share would resolve to the wrong one.
    assert sorted(order) == list(range(len(part_relations))), order
    return order
