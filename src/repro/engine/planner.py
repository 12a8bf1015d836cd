"""Cost-based lowering of projection-join expressions into physical plans.

The planner turns an :mod:`repro.expressions.ast` tree into a tree of
:class:`PlanNode` descriptors, resolving every scheme-level artifact once —
compiled :class:`~repro.perf.plancache.JoinPlan` / projection pick lists are
looked up (and thereby compiled) at *planning* time and stored in the nodes,
so repeated executions of a pinned plan never touch the process-global LRU
caches again (see :class:`~repro.engine.evaluator.EngineEvaluator`, which
pins one plan per expression).

Before anything is lowered the query is minimized
(:func:`~repro.tableaux.minimize_expression`): join operands its minimal
tableau does not need are dropped, certified equivalent on every database,
so ``project[S](φ_G)`` plans as one scan.

Decisions are driven by the statistics catalog (:mod:`repro.engine.stats`):

* **Join ordering** — an n-ary join becomes a left-deep chain found by a
  :data:`BEAM_WIDTH`-wide beam over estimated cardinalities: composite and
  skewed join keys are *measured* on row samples, the rest keep the exact
  per-column formula, and cost ties break on what the operands are, never on
  where the query listed them (see :meth:`Planner._order_joins`).
* **Build side** — each hash join builds its table on the side with the
  smaller estimated cardinality and streams the other.
* **Live columns** — columns nothing above a node reads are pruned by a
  pushed, deduplicating ``project`` wherever the catalog proves the pruned
  stream collapses, and the ordering scores candidates by that pruned
  cardinality (see :meth:`Planner._order_joins`).
* **Distinct roots** — an unbudgeted plan whose rows are distinct by
  construction (:func:`_distinct_root`) is marked, so its result is built
  from no set and its count from no row.

Hash join is the only join: relations are sets, so no operator produces or
needs a row order, and a plan is ``scan | project | hash-join`` and nothing
else.

The cost model is deliberately coarse — unit cost per row scanned, built,
probed, or emitted — because its only job is to rank alternatives whose
cardinalities differ by orders of magnitude (the paper's blow-up regime).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..algebra.relation import Relation, _join_plan
from ..algebra.tuples import _project_plan
from ..expressions.ast import Expression, ExpressionError, Join, Operand, Projection
from ..perf.plancache import ChainKernel, ProjectPlan, make_chain_kernel
from ..tableaux import minimize_expression
from .physical import GraceHashJoin, HashJoin, PhysicalOperator, StreamingProject, TableScan
from .spill import MemoryBudget, MemoryMeter
from .stats import (
    RelationStats,
    estimate_join_cardinality,
    estimate_partition_count,
    join_estimate_provenance,
    join_stats,
    project_stats,
)

__all__ = [
    "PlanNode",
    "PhysicalPlan",
    "Planner",
    "fold_projection",
    "fuse_chains",
    "plan_expression",
]

#: A pushed projection is placed only where its seen-set bound (the product
#: of the kept columns' distinct counts) is at most this share of the pruned
#: node's *estimated* rows — below that it does not pay for its pick ...
PUSH_MAX_ESTIMATE_SHARE = 0.5
#: ... and at most this multiple of the *exact* row count of the base
#: relations scanned beneath the node: a join estimate is a formula's guess
#: (~10^12 too high on R_G's composite keys before they were measured) or a
#: measurement on 256 rows, so only catalog numbers that are exact may promise
#: that the seen-set stays input-bounded.
PUSH_MAX_INPUT_MULTIPLE = 1

#: How many partial join chains the ordering keeps alive at every step.
#: Greedy (width 1) is myopic even on exact sizes — on R_G at m = 12 it stops
#: at 22,950 streamed rows where width 2 finds 11,625; width 3 buys little
#: more for half as much planning again (``docs/PERFORMANCE.md``, "Where the
#: two constants come from").  Like the sample size beside which it was
#: measured (:data:`repro.engine.sampling.SAMPLE_ROWS`), not a knob.
BEAM_WIDTH = 2

#: What the catalog knows exactly beneath a node: the rows of the base
#: relations it scans and, per column, the smallest distinct count any of
#: those scans holds (a join or projection can only drop values).
InputBounds = Tuple[int, Dict[str, int]]


def _input_bounds(node: "PlanNode") -> InputBounds:
    if node.kind == "scan":
        stats = node.stats
        distinct = {name: stats.distinct(name) for name in node.scheme.names}
        return stats.cardinality, distinct
    rows, distinct = _input_bounds(node.children[0])
    if node.kind == "project":
        # A column projected away beneath says nothing about a same-named
        # column that joins in from elsewhere.
        return rows, {name: distinct[name] for name in node.scheme.names}
    return _merge_bounds((rows, distinct), _input_bounds(node.children[1]))


def _merge_bounds(left: InputBounds, right: InputBounds) -> InputBounds:
    distinct = dict(left[1])
    for name, count in right[1].items():
        distinct[name] = min(count, distinct.get(name, count))
    return left[0] + right[0], distinct


def _pushed_bound(
    kept: Sequence[str], est_rows: float, *bounds: InputBounds
) -> Optional[int]:
    """The row bound of a pushed ``project[kept]`` over a node (or a join of
    two) with these ``bounds``, or ``None`` where the placement rule — both
    ``PUSH_MAX_*`` conditions — says not to place it."""
    if not kept:
        return None
    limit = min(
        PUSH_MAX_ESTIMATE_SHARE * est_rows,
        PUSH_MAX_INPUT_MULTIPLE * sum(rows for rows, _ in bounds),
    )
    bound = 1
    for name in kept:
        bound *= max(min(d[name] for _, d in bounds if name in d), 1)
        if bound > limit:
            return None
    return bound


@dataclass
class PlanNode:
    """One physical operator choice, with estimates, ready to instantiate."""

    kind: str  # "scan" | "project" | "hash-join"
    scheme: object
    stats: RelationStats
    cost: float
    children: Tuple["PlanNode", ...] = ()
    # kind-specific payloads:
    operand_name: Optional[str] = None
    pick: Optional[Callable] = None
    dedup: bool = True
    #: A projection the planner placed because nothing above reads the
    #: dropped columns, not one the query wrote: its dedup is an
    #: optimisation, so under a budget it never spills (see StreamingProject).
    pushed: bool = False
    join_plan: Optional[object] = None
    build_side: str = "right"
    #: Set by :func:`fold_projection` on a hash join directly under a projection:
    #: what it emits (``scheme`` stays the joined one).
    emit_scheme: Optional[object] = None
    #: Set by :func:`fuse_chains` on every join that heads a run, a lone one
    #: included: the kernel that executes the run (see
    #: :meth:`~repro.engine.physical.HashJoin.fuse`).  Inner members hold none.
    chain: Optional[ChainKernel] = None
    #: Set by :func:`fuse_chains` on the run a distinct plan's root streams:
    #: the same run compiled to emit the empty row, which a count executes.
    count_chain: Optional[ChainKernel] = None
    #: Set on the root of a plan whose rows are distinct by construction
    #: (:func:`_distinct_root`): a root projection then keeps no dedup.
    distinct: bool = False
    #: Set on a root deduplicating projection of one picked column over
    #: anything but a folded join: its drain deduplicates the bare values,
    #: not 1-tuples (see :class:`~repro.engine.physical.StreamingProject`).
    bare: bool = False
    #: Where a join's estimate came from, recorded when it was planned (see
    #: :func:`~repro.engine.stats.join_estimate_provenance`): the samples
    #: that could re-derive it are gone by the time the plan is pinned.
    provenance: Optional[str] = None
    #: Memory budget for hash joins and dedup projections (None =
    #: unbudgeted in-memory state).
    budget: Optional[MemoryBudget] = None
    #: Grace spill fan-out hint when the estimated build side overflows.
    est_fanout: int = 1

    @property
    def est_rows(self) -> float:
        """The estimated output cardinality."""
        return float(self.stats.cardinality)

    def describe(self) -> str:
        """The node's one-line explain label (without estimates)."""
        if self.kind == "scan":
            return f"scan {self.operand_name}"
        if self.kind == "project":
            dedup = "" if self.dedup else ", no dedup"
            pushed = " (pushed)" if self.pushed else ""
            return f"project[{', '.join(self.scheme.names)}]{dedup}{pushed}"
        if self.kind == "hash-join":
            on = ", ".join(self.join_plan.common_names) or "x (product)"
            if self.budget is not None:
                spill = (
                    f", est_partitions={self.est_fanout}" if self.est_fanout > 1 else ""
                )
                return (
                    f"grace hash join on ({on}) "
                    f"[build={self.build_side}, budget={self.budget.rows}{spill}]"
                )
            return f"hash join on ({on}) [build={self.build_side}]"
        return self.kind

    def probe_child_index(self) -> Optional[int]:
        """Index of the child the streamed (probe) rows flow through: the
        non-build side of a hash join, the only child of a projection.
        ``None`` for leaves."""
        if self.kind == "project":
            return 0
        if self.kind == "hash-join":
            return 1 if self.build_side == "left" else 0
        return None

    def chain_join(self) -> Optional["PlanNode"]:
        """The hash join this node streams: itself, or the join under a
        planner-pushed projection, else ``None``.

        The one place that says a pushed projection is transparent to a join
        chain (build-side choice, order read-back).  A
        projection the query wrote never is: it bounds a scope, and a column
        it drops may reappear in an operand outside it.
        """
        node = self.children[0] if self.pushed else self
        return node if node.kind == "hash-join" else None

    def scan_order(self) -> Tuple[str, ...]:
        """Operand names scanned beneath this node, in plan (reading) order."""
        if self.kind == "scan":
            return (self.operand_name,)
        return tuple(name for child in self.children for name in child.scan_order())

    def instantiate(
        self,
        bindings: Mapping[str, Relation],
        meter: MemoryMeter,
        out: List[PhysicalOperator],
        count: bool = False,
    ) -> PhysicalOperator:
        """Build the executable operator tree for one evaluation.

        Every operator built is appended to ``out``, children first — the
        order traces record steps in — and the subtree's root is returned.
        ``count`` says only the subtree's rows are counted: a run with a
        ``count_chain`` then executes it.
        """
        if self.kind == "scan":
            operator: PhysicalOperator = TableScan(
                bindings[self.operand_name], meter, name=self.operand_name
            )
            scheme = operator.scheme
            if scheme is not self.scheme and scheme.names != self.scheme.names:
                # The plan compiled against a different presentation order of
                # the same scheme: realign rows with a (dedup-free) pick.  (A
                # query parsed against the relation holds its very scheme.)
                out.append(operator)
                realign = _project_plan(scheme, self.scheme)
                operator = StreamingProject(
                    operator, realign.pick, self.scheme, meter, dedup=False
                )
        elif self.kind == "project":
            child = self.children[0].instantiate(bindings, meter, out, count)
            operator = StreamingProject(
                child,
                self.pick,
                self.scheme,
                meter,
                dedup=self.dedup and not self.distinct,
                budget=self.budget,
                pushed=self.pushed,
            )
            operator.bare = self.bare
        elif self.kind == "hash-join":
            left = self.children[0].instantiate(bindings, meter, out)
            right = self.children[1].instantiate(bindings, meter, out)
            if self.budget is not None:
                operator = GraceHashJoin(
                    left,
                    right,
                    self.join_plan,
                    meter,
                    self.budget,
                    build_side=self.build_side,
                    fanout_hint=self.est_fanout if self.est_fanout > 1 else None,
                )
            else:
                operator = HashJoin(
                    left, right, self.join_plan, meter, build_side=self.build_side
                )
            if self.chain is not None:
                kernel = self.count_chain if count and self.count_chain else self.chain
                operator.fuse(kernel, self.emit_scheme)
        else:  # pragma: no cover - defensive
            raise ExpressionError(f"unknown plan node kind {self.kind!r}")
        operator.est_rows = float(self.stats.cardinality)
        operator.est_cost = self.cost
        out.append(operator)
        return operator


def fold_projection(
    child: PlanNode, plan: ProjectPlan
) -> Tuple[PlanNode, Optional[Callable]]:
    """How a projection compiled as ``plan`` executes over ``child``: the
    child to run and the pick left to the projection, as ``(child, pick)``.

    Over a hash join the pick moves into the join: it builds each output row
    once, in the projection's columns and order (``emit_scheme``), and the
    projection keeps only its dedup (``pick`` is ``None``).  Inner run
    members get no list: the run the folded join heads executes as one
    comprehension that builds no row until the top emits this list
    (:func:`fuse_chains`), and a join below that is no member of the run
    emits ``left + extra`` (``docs/ENGINE.md``, "Live columns").
    """
    if child.kind != "hash-join":
        return child, plan.pick
    return replace(child, emit_scheme=plan.target_scheme), None


def fuse_chains(
    node: PlanNode, deduplicated: bool = False, counted: bool = False
) -> PlanNode:
    """Compile a kernel for every run of hash joins under ``node``, in place.

    A run is a maximal chain of hash joins in which each join's probe child
    is the next one: nothing between two members reads a joined row, so the
    run's top gets one kernel (``PlanNode.chain``,
    :func:`~repro.perf.plancache.make_chain_kernel`) that executes all of
    it and emits what the top emits.  A projection, written or pushed,
    bounds a run (it reads the rows, and a folded join can only be a run's
    top), and a budgeted join is a run of one: its spill path probes per
    partition.  Every join heads a run or is inside one; a lone join is a
    run of one.  ``deduplicated`` says ``node``'s parent is a deduplicating
    projection: only then may a lone join emit a block grouped
    (:class:`~repro.perf.plancache.GroupedEmission`), as nothing else reads
    how often a row arrives.  ``counted`` says ``node`` is a distinct plan's
    root (:func:`_distinct_root`): the run its stream comes from also gets a
    ``count_chain`` that emits the empty row, so a count builds no row.
    """
    members: List[PlanNode] = []
    below = node
    while below.kind == "hash-join" and (
        below is node
        or (node.budget is None and below.budget is None and below.emit_scheme is None)
    ):
        members.append(below)
        below = below.children[below.probe_child_index()]
    if members:
        emit = None
        if node.emit_scheme is not None:
            emit = tuple(node.scheme.names.index(name) for name in node.emit_scheme.names)
        levels = [(member.build_side == "left", member.join_plan) for member in members]
        node.chain = make_chain_kernel(levels[::-1], emit, grouping=deduplicated)
        if counted:
            node.count_chain = make_chain_kernel(levels[::-1], ())
    rest = [below] if members else list(node.children)
    for member in members:
        rest.append(member.children[1 - member.probe_child_index()])
    for child in rest:
        # A distinct root keeps no dedup, so it licenses no grouping; only
        # its child is still the counted stream.
        fuse_chains(
            child,
            node.kind == "project" and node.dedup and not node.distinct,
            counted and node.kind == "project",
        )
    return node


def _kept_key(
    key: Optional[FrozenSet[str]], names: FrozenSet[str]
) -> Optional[FrozenSet[str]]:
    """A no-dedup projection onto ``names`` keeps its child's ``key`` only
    if it keeps every column of it."""
    return key if key is not None and key <= names else None


def _key(node: PlanNode) -> Optional[FrozenSet[str]]:
    """Columns no two rows of ``node``'s unbudgeted stream agree on, so the
    stream holds no duplicate row; ``None`` when none are known.

    The uniqueness inference of Paulley and Larson ("Exploiting uniqueness
    in query optimization", ICDE 1994) over the plan's three operators:
    a scan's full scheme is a key (a relation is a set); a deduplicating
    projection's kept columns are; a no-dedup projection keeps its child's
    (:func:`_kept_key`); and a hash join's key is its probe side's plus the
    build side's columns, because each bucket is a *set* of build entries.
    A budget breaks the last two: a pushed budgeted projection passes rows
    through unremembered, and a chunked Grace build can hold one entry in
    two chunks.
    """
    if node.kind == "scan":
        return node.scheme.name_set
    if node.kind == "project":
        if node.dedup:
            return node.scheme.name_set
        return _kept_key(_key(node.children[0]), node.scheme.name_set)
    probe = node.probe_child_index()
    key = _key(node.children[probe])
    if key is None:
        return None
    return key | node.children[1 - probe].scheme.name_set


def _distinct_root(root: PlanNode) -> bool:
    """Whether an unbudgeted plan's ``root`` streams distinct rows without a
    dedup of its own: its input's key lies inside the columns it emits."""
    if root.kind == "project":
        return _kept_key(_key(root.children[0]), root.scheme.name_set) is not None
    return _key(root) is not None


def _state_bound(root: PlanNode, budget_rows: int) -> int:
    """The operator state a budgeted plan may hold (``docs/ENGINE.md``, "The
    memory bound"): the budget, plus a budget's worth per spilling dedup
    (a partition of at most the budget replays resident whatever else is
    held) and one build entry per Grace join (the chunk loader's entry
    when the meter has no headroom).  A root projection dedups into the
    drain's result set and holds no seen-set of its own."""
    dedups = joins = 0
    stack = [(root, True)]
    while stack:
        node, is_root = stack.pop()
        if node.kind == "hash-join":
            joins += 1
        elif node.kind == "project" and node.dedup and not node.pushed and not is_root:
            dedups += 1
        stack.extend((child, False) for child in node.children)
    return budget_rows * (1 + dedups) + joins


def _drop_samples(node: PlanNode) -> PlanNode:
    """Leave ``node``'s subtree holding bare numbers, in place.

    While a join is being ordered every node's ``stats`` is the full catalog
    entry — row sample included — because that is what the next
    estimate is measured on.  None of it may outlive the ordering: a pinned
    plan would otherwise hold a sample per join for as long as it is pinned,
    and a scan node the row set of a relation since replaced.
    """
    node.stats = node.stats.bare()
    for child in node.children:
        _drop_samples(child)
    return node


def _content_key(node: PlanNode) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """What a join operand *is*, whatever position the query wrote it in:
    its sorted attribute names, then the sorted operand names it scans."""
    return tuple(sorted(node.scheme.names)), tuple(sorted(node.scan_order()))


@dataclass
class _Chain:
    """One partial left-deep chain of the ordering beam: everything a step
    reads or changes, so extending a chain never disturbs its rival."""

    #: The (pruned) join of the members so far; a lone operand at the start.
    node: PlanNode
    #: Operand indices in the order they were joined.
    members: Tuple[int, ...]
    #: The same members as content ranks (first pair sorted): the tie-break.
    ranks: Tuple[int, ...]
    #: Accumulated per-step scores — the (pruned) cardinality of every join.
    score: float
    #: How many chain members (remaining operands, or ``node``) read each
    #: column, and what the catalog knows exactly beneath ``node``.
    readers: Counter
    bounds: Optional[InputBounds]


@dataclass
class PhysicalPlan:
    """A pinned physical plan: the node tree plus the planner's estimates."""

    root: PlanNode
    expression: Expression
    #: The smaller equivalent expression the planner lowered instead of
    #: ``expression`` (see :func:`~repro.tableaux.minimize_expression`), or
    #: ``None`` when it lowered ``expression`` as written.
    minimized: Optional[Expression] = None
    #: At most how many rows of operator state a budgeted execute may hold
    #: beside its result (:func:`_state_bound`); ``None`` when unbudgeted.
    #: An execute past it counts a ``spill_overflows``.
    state_bound: Optional[int] = None
    #: What traces record of each operator that never changes between
    #: executions — label, kind, width — keyed by the executing tree's shape
    #: (see :meth:`~repro.engine.evaluator.EngineEvaluator._tree`).
    step_meta: Dict[tuple, list] = field(default_factory=dict, repr=False, compare=False)
    #: Operator trees a finished drain left, free for the next execute of
    #: the same pinned binding and verb, keyed ``(binding, counts)``:
    #: ``counts`` is whether the tree runs a distinct root's count kernels
    #: (see :meth:`~repro.engine.evaluator.EngineEvaluator._execute`).  They go
    #: with the plan when it is forgotten or replaced.
    trees: Dict[tuple, list] = field(default_factory=dict, repr=False, compare=False)

    @property
    def est_rows(self) -> float:
        """Estimated result cardinality."""
        return self.root.est_rows

    @property
    def est_cost(self) -> float:
        """Estimated total cost (unit-per-row model)."""
        return self.root.cost

    @property
    def distinct(self) -> bool:
        """Whether the root's rows are distinct by construction, so the
        result needs no dedup (:func:`_distinct_root`; never under a budget)."""
        return self.root.distinct

    def executor(
        self,
        bindings: Mapping[str, Relation],
        meter: MemoryMeter,
        operators: Optional[List[PhysicalOperator]] = None,
        count: bool = False,
    ) -> PhysicalOperator:
        """Instantiate the operator tree against one set of bound relations.

        ``operators``, when given, receives every operator children first
        (the root last): the order traces record steps in, read without
        walking the tree again.  ``count`` builds the tree a count drains:
        a distinct root's run emits empty rows.
        """
        out = [] if operators is None else operators
        return self.root.instantiate(bindings, meter, out, count)

    def explain(self) -> str:
        """Render the plan as an indented tree with per-node estimates,
        under a ``minimized: N → K operands`` line when it lowered fewer
        join operands than the query wrote."""
        lines: List[str] = []
        if self.minimized is not None:
            lines.append(
                f"minimized: {_operand_count(self.expression)} → "
                f"{_operand_count(self.minimized)} operands"
            )

        def render(node: PlanNode, depth: int) -> None:
            indent = "  " * depth
            lines.append(
                f"{indent}{node.describe()}"
                f"  [est_rows={node.est_rows:.1f} cost={node.cost:.1f}]"
                + ("  [distinct: no dedup]" if node.distinct else "")
            )
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        return "\n".join(lines)


def _operand_count(expression: Expression) -> int:
    return sum(isinstance(node, Operand) for node in expression.walk())


class Planner:
    """Lower expressions into :class:`PhysicalPlan` trees using catalog stats.

    ``budget`` caps the rows resident in engine state: hash joins lower to
    budget-aware :class:`~repro.engine.physical.GraceHashJoin` nodes (with a
    fan-out hint from :func:`~repro.engine.stats.estimate_partition_count`)
    that spill when the build side would overflow, and written dedup
    projections spill their seen-set.  ``None`` plans unbudgeted in-memory
    state.
    """

    def __init__(self, budget: Optional[MemoryBudget] = None):
        self.budget = budget

    def plan(
        self, expression: Expression, stats: Mapping[str, RelationStats]
    ) -> PhysicalPlan:
        """Plan ``expression`` given one catalog entry per operand name."""
        missing = sorted(expression.operand_names() - set(stats))
        if missing:
            raise ExpressionError(f"no statistics provided for operands {missing}")
        # Minimization keeps at least one occurrence of every operand name,
        # so the bindings and catalog entries are the written query's.
        planned = minimize_expression(expression)
        root = _drop_samples(self._lower(planned, stats))
        budget = self.budget
        # The final projection keeps dedup=True, but when the evaluator drains
        # the plan it holds no seen-set of its own: it dedups straight into
        # the drain's result set (see StreamingProject), and its rows_out —
        # that set's growth — is still the true result cardinality for
        # traces.  A distinct root needs not even that.
        root.distinct = budget is None and _distinct_root(root)
        root.bare = (
            root.kind == "project"
            and root.dedup
            and not root.distinct
            and getattr(root.pick, "single", None) is not None
        )
        return PhysicalPlan(
            root=fuse_chains(root, counted=root.distinct),
            expression=expression,
            minimized=None if planned is expression else planned,
            state_bound=None if budget is None else _state_bound(root, budget.rows),
        )

    # -- lowering ------------------------------------------------------

    def _lower(
        self,
        node: Expression,
        stats: Mapping[str, RelationStats],
        needed: Optional[FrozenSet[str]] = None,
    ) -> PlanNode:
        """Lower ``node``; ``needed`` names the columns the projection above
        it reads (``None`` = all of them) and only a join acts on it."""
        if isinstance(node, Operand):
            entry = stats[node.name]
            return PlanNode(
                kind="scan",
                scheme=node.scheme,
                stats=entry,
                cost=float(entry.cardinality),
                operand_name=node.name,
            )
        if isinstance(node, Projection):
            child = self._lower(node.child, stats, frozenset(node.target.names))
            return self._project(child, node.target)
        if isinstance(node, Join):
            # Joins are flattened, so no part is a join: none takes ``needed``.
            parts = [self._lower(part, stats) for part in node.parts]
            return self._order_joins(parts, needed)
        raise ExpressionError(f"unknown expression node {node!r}")

    def _project(self, child: PlanNode, target, pushed: bool = False) -> PlanNode:
        """A deduplicating projection of ``child`` onto ``target``."""
        if child.kind == "project":
            # pi_X . pi_Y = pi_X: a plan never holds two adjacent projections.
            # A written projection absorbed here stays a scope boundary, so
            # only pushed-over-pushed is still pushed (see chain_join).
            pushed = pushed and child.pushed
            child = child.children[0]
        plan = _project_plan(child.scheme, target)
        out_stats = project_stats(child.stats, plan.target_scheme.names)
        cost = child.cost + child.est_rows + out_stats.cardinality
        child, pick = fold_projection(child, plan)
        budget = self.budget
        if budget is not None and not pushed and out_stats.cardinality > budget.rows:
            # Spilling dedup: every distinct row is written and read
            # back once during the partition replay.
            cost += 2.0 * out_stats.cardinality
        return PlanNode(
            kind="project",
            scheme=plan.target_scheme,
            stats=out_stats,
            cost=cost,
            children=(child,),
            pick=pick,
            budget=budget,
            pushed=pushed,
        )

    # -- join ordering -------------------------------------------------

    def _order_joins(
        self, parts: List[PlanNode], needed: Optional[FrozenSet[str]] = None
    ) -> PlanNode:
        """Order an n-ary join into a pipelined left-deep chain, by beam search.

        Every pair of operands starts a chain, and every step extends each
        surviving chain with each operand it has not joined; the
        :data:`BEAM_WIDTH` cheapest extensions survive, ranked by the sum of
        their joins' estimated cardinalities so far (chains that joined the
        same operands in a different order are one candidate: the cheaper
        is kept).  Greedy is width 1 of this loop.  A left-deep chain keeps
        the (potentially exponential) accumulated intermediate on the
        streaming probe side of every hash join — only base operands ever
        become resident build tables, which is what bounds the engine's peak
        live rows by the inputs on the paper's blow-up constructions.

        **Estimates.**  :func:`~repro.engine.stats.estimate_join_cardinality`
        over the members' catalog entries: a key of two or more columns, or
        one column with a heavy hitter, is measured on row samples — a
        *count* for every candidate; only a surviving chain's joined sample
        is ever built, lazily, and only its live columns — and any other
        single-column key keeps the exact formula.  The
        samples ride on ``PlanNode.stats`` while the ordering runs and are
        dropped before it returns (:func:`_drop_samples`).

        **Ties** break on content: equal scores are ordered by the operands'
        :func:`_content_key` ranks, so the chain is a function of what is
        joined, not of the order the query listed it in.  (Which operand of
        the *first* pair is written left still follows the query — a
        presentation choice: the pair, the estimates and every later step
        are the same.)

        **Live columns.**  ``needed`` names the columns read above the join
        (``None`` = all).  At every operand and after every step but the
        last — there the enclosing projection is the prune — the columns
        still *live* are ``needed`` plus those of the operands not yet
        joined; where the rest can go under the placement rule
        (:func:`_pushed_bound`) the node is wrapped in a pushed ``project``,
        and each candidate is scored by that pruned cardinality, not the
        raw join estimate: the order that makes a wide intermediate
        collapsible beats the one with the smaller first join.
        """
        operands: List[PlanNode] = list(parts)
        count = len(operands)
        pruning = needed is not None
        read_above = needed if pruning else frozenset()

        def live(
            readers: Counter, node: PlanNode, other: Optional[PlanNode] = None
        ) -> List[str]:
            """The columns of ``node`` (joined with ``other``) that
            ``needed`` or a chain member besides those two still reads."""
            if other is None:
                return [
                    name
                    for name in node.scheme.names
                    if name in read_above or readers[name] > 1
                ]
            mine, theirs = node.scheme.name_set, other.scheme.name_set
            return [
                name
                for name in node.scheme.names
                if name in read_above or readers[name] > 1 + (name in theirs)
            ] + [
                name
                for name in other.scheme.names
                if name not in mine and (name in read_above or readers[name] > 1)
            ]

        def pruned(node: PlanNode, kept: List[str], bounds: InputBounds) -> PlanNode:
            if (
                len(kept) == len(node.scheme.names)
                or _pushed_bound(kept, node.est_rows, bounds) is None
            ):
                return node
            return self._project(node, node.scheme.restrict(kept), pushed=True)

        def score(chain: _Chain, index: int) -> Tuple[float, float]:
            """What the step ``chain * operands[index]`` costs — the join's
            (pruned) estimated cardinality — and the raw estimate itself."""
            left, right = chain.node, operands[index]
            common = [
                name for name in left.scheme.names if name in right.scheme.name_set
            ]
            estimate = estimate_join_cardinality(left.stats, right.stats, common)
            if not pruning:
                return estimate, estimate
            kept = live(chain.readers, left, right)
            if len(kept) == len(left.scheme) + len(right.scheme) - len(common):
                return estimate, estimate
            bound = _pushed_bound(kept, estimate, chain.bounds, bounds[index])
            return (estimate if bound is None else float(bound)), estimate

        def extend(
            chain: _Chain, index: int, ranks: Tuple[int, ...], total: float, estimate: float
        ) -> _Chain:
            """``chain`` joined with ``operands[index]`` (``estimate`` rows,
            as :func:`score` counted them), as a new chain."""
            left, right = chain.node, operands[index]
            members = chain.members + (index,)
            # What is still read of the join: all its sample needs to carry,
            # and (when pruning) all a pushed projection would keep.
            kept = live(chain.readers, left, right)
            joined = self._join_pair(left, right, kept, estimate)
            readers = chain.readers.copy()
            readers.subtract(left.scheme.names)
            readers.subtract(right.scheme.names)
            readers.update(joined.scheme.names)
            merged = None
            if pruning:
                merged = _merge_bounds(chain.bounds, bounds[index])
                if len(members) < count:  # after the last join the enclosing projection prunes
                    joined = pruned(joined, kept, merged)
            return _Chain(joined, members, ranks, total, readers, merged)

        readers: Counter = Counter(
            name for node in operands for name in node.scheme.names
        )
        bounds: List[Optional[InputBounds]] = [None] * count
        if pruning:
            bounds = [_input_bounds(node) for node in operands]
            operands = [
                pruned(node, live(readers, node), bound)
                for node, bound in zip(operands, bounds)
            ]
        order = sorted(range(count), key=lambda index: _content_key(operands[index]))
        rank = {index: position for position, index in enumerate(order)}
        beam = [
            _Chain(node, (index,), (rank[index],), 0.0, readers, bounds[index])
            for index, node in enumerate(operands)
        ]
        for step in range(count - 1):
            candidates = []
            for chain in beam:
                # Each first pair once: a lone operand pairs with later ones.
                start = chain.members[0] + 1 if step == 0 else 0
                for index in range(start, count):
                    if index in chain.members:
                        continue
                    ranks = chain.ranks + (rank[index],)
                    if step == 0:
                        ranks = tuple(sorted(ranks))
                    cost, estimate = score(chain, index)
                    candidates.append(
                        (chain.score + cost, ranks, chain, index, estimate)
                    )
            candidates.sort(key=itemgetter(0, 1))
            beam, joined_sets = [], set()
            for total, ranks, chain, index, estimate in candidates:
                joined_set = frozenset(chain.members + (index,))
                if joined_set not in joined_sets:
                    joined_sets.add(joined_set)
                    beam.append(extend(chain, index, ranks, total, estimate))
                    if len(beam) == BEAM_WIDTH:
                        break
        return beam[0].node

    def _join_pair(
        self, left: PlanNode, right: PlanNode, live_names: Sequence[str], estimate: float
    ) -> PlanNode:
        """The hash join of two chain members, ``estimate`` rows; ``live_names``
        are the output columns something still reads (all the joined sample
        need carry)."""
        plan = _join_plan(left.scheme, right.scheme)
        common = plan.common_names
        out_stats = join_stats(
            left.stats, right.stats, plan.joined_scheme.names, common, live_names, estimate
        )

        # Build-side choice: smaller estimated side, except that a join
        # child (pruned by a pushed projection or not) never becomes the
        # build table while a non-join sibling is available — building on a
        # join output would materialise exactly the intermediate the
        # streaming pipeline exists to avoid, and the estimate that would
        # justify it is the least reliable one in the model (compounded
        # independence assumptions).  A pruned join output also cannot shed
        # its seen-set into a build that spills under a budget.
        left_is_join = left.chain_join() is not None
        right_is_join = right.chain_join() is not None
        if left_is_join != right_is_join:
            build_side = "right" if left_is_join else "left"
        elif left.est_rows != right.est_rows:
            build_side = "left" if left.est_rows < right.est_rows else "right"
        else:
            # A tie breaks on content like every other: which operand the
            # query wrote first must not decide which one is resident.
            build_side = "left" if _content_key(left) > _content_key(right) else "right"
        build, probe = (left, right) if build_side == "left" else (right, left)
        if build.kind == "project" and build.dedup:
            # The build table's per-key row sets deduplicate for free; drop
            # the projection's own seen-set so its output streams stateless.
            build = replace(
                build, cost=build.cost - build.est_rows, dedup=False, budget=None
            )
            if build_side == "left":
                left = build
            else:
                right = build
        cost = (
            left.cost
            + right.cost
            + 2.0 * build.est_rows  # build: insert every row into the table
            + probe.est_rows  # probe: one lookup per streamed row
            + out_stats.cardinality
        )
        budget = self.budget
        est_fanout = 1
        if budget is not None:
            # Fan-out hint for the spill path; the operator self-corrects an
            # under-estimate by re-partitioning recursively at run time.
            est_fanout = max(
                estimate_partition_count(build.est_rows, budget.rows),
                budget.spill_fanout if build.est_rows > budget.rows else 1,
            )
        return PlanNode(
            kind="hash-join",
            scheme=plan.joined_scheme,
            stats=out_stats,
            cost=cost,
            children=(left, right),
            join_plan=plan,
            build_side=build_side,
            provenance=join_estimate_provenance(left.stats, right.stats, common),
            budget=budget,
            est_fanout=est_fanout,
        )


def plan_expression(
    expression: Expression,
    stats: Mapping[str, RelationStats],
    budget: Optional[MemoryBudget] = None,
) -> PhysicalPlan:
    """Convenience wrapper: plan ``expression`` with the given catalog entries."""
    return Planner(budget).plan(expression, stats)
