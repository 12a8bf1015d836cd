"""Tuple membership: is ``t ∈ φ(R)``?  (Proposition 2 — the problem is in NP.)

Three deciders are provided and cross-checked by the test-suite:

* :func:`tuple_in_result` — evaluate the expression and test membership
  (simple, exponential space in the worst case);
* :class:`CertificateMembershipDecider` — Proposition 2's NP certificate: search
  for a valuation of the expression's tableau that produces ``t`` (polynomial
  space, exponential time in the worst case);
* :class:`SatBackedMembershipDecider` — encode the valuation search as a CNF
  formula and run the DPLL solver, demonstrating the NP-membership direction
  of the paper's results as an executable reduction *into* SAT;
* :class:`EngineMembershipDecider` — stream the expression through the
  query-execution engine (:mod:`repro.engine`) and short-circuit on the
  first occurrence of the candidate, so neither the result nor any
  intermediate is ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple, Union

from ..algebra.relation import Relation
from ..algebra.tuples import RelationTuple
from ..expressions.ast import Expression
from ..expressions.evaluator import ArgumentLike, bind_arguments, evaluate
from ..sat.cnf import CNFFormula
from ..sat.literals import Clause, Literal
from ..sat.solver import DPLLSolver
from ..tableaux.tableau import Tableau, TableauCell, tableau_of_expression

__all__ = [
    "tuple_in_result",
    "MembershipWitness",
    "CertificateMembershipDecider",
    "SatBackedMembershipDecider",
    "EngineMembershipDecider",
]


def tuple_in_result(
    candidate: RelationTuple, expression: Expression, arguments: ArgumentLike
) -> bool:
    """Decide ``candidate ∈ expression(arguments)`` by full evaluation."""
    return candidate in evaluate(expression, arguments)


class EngineMembershipDecider:
    """Decide membership by streaming evaluation with early exit.

    The streaming engine yields result rows incrementally, so the decider
    can stop at the candidate's first occurrence — on satisfiable blow-up
    instances this touches a fraction of the result and never materialises
    any intermediate.  Plans are pinned on the wrapped
    :class:`~repro.engine.evaluator.EngineEvaluator`, so deciding many
    tuples against one expression re-plans nothing.
    """

    def __init__(self, evaluator=None):
        if evaluator is None:
            from ..engine.evaluator import EngineEvaluator

            evaluator = EngineEvaluator()
        self._evaluator = evaluator

    def decide(
        self,
        candidate: RelationTuple,
        expression: Expression,
        arguments: ArgumentLike,
    ) -> bool:
        """Return whether ``candidate ∈ expression(arguments)``, streaming."""
        from ..algebra.errors import TupleSchemeMismatch
        from ..algebra.tuples import as_tuple
        from ..engine.spill import MemoryMeter
        from ..perf.counters import KernelCounters, fold_counts

        bound = bind_arguments(expression, arguments)
        plan = self._evaluator.plan_for(expression, bound)
        # Honour the evaluator's configured budget: a budgeted evaluator's
        # membership probes must spill exactly like its full evaluations
        # instead of building unbounded hash tables.
        budget = self._evaluator.budget
        meter = MemoryMeter(budget.rows if budget is not None else None)
        # Counted as an execute counts: on its own, folded in at the end.
        meter.counts = KernelCounters()
        root = plan.executor(bound, meter)
        try:
            # Interpret the candidate against the *expression's* result
            # scheme (the order every other decider uses — a plain value
            # sequence means that order), then realign to the physical
            # plan's output order, which follows the greedy join order.
            canonical = as_tuple(expression.target_scheme(), candidate)
            target = as_tuple(root.scheme, canonical)._values
        except TupleSchemeMismatch:
            return False
        blocks = root.blocks()
        try:
            for block in blocks:
                if target in block:
                    return True
            return False
        finally:
            blocks.close()
            fold_counts(meter.counts)


@dataclass(frozen=True)
class MembershipWitness:
    """An NP certificate for ``t ∈ φ(R)``: a valuation of the tableau variables.

    ``row_sources`` records, for each tableau row, which input tuple the row
    was mapped onto — together with the valuation this is checkable in
    polynomial time, which is the content of Proposition 2.
    """

    valuation: Mapping[TableauCell, Hashable]
    row_sources: Tuple[RelationTuple, ...]


class CertificateMembershipDecider:
    """Decide membership by searching for a Proposition 2 certificate."""

    def decide(
        self,
        candidate: RelationTuple,
        expression: Expression,
        arguments: ArgumentLike,
    ) -> Optional[MembershipWitness]:
        """Return a witness when ``candidate ∈ expression(arguments)``, else ``None``."""
        tableau = tableau_of_expression(expression)
        bound = bind_arguments(expression, arguments)
        valuation = tableau.produces_tuple(candidate, bound)
        if valuation is None:
            return None
        row_sources = self._row_sources(tableau, valuation, bound)
        return MembershipWitness(valuation=valuation, row_sources=row_sources)

    def verify(
        self,
        candidate: RelationTuple,
        expression: Expression,
        arguments: ArgumentLike,
        witness: MembershipWitness,
    ) -> bool:
        """Check a claimed witness in polynomial time (no search)."""
        tableau = tableau_of_expression(expression)
        bound = bind_arguments(expression, arguments)
        if len(witness.row_sources) != len(tableau.rows):
            return False
        # Every row's cells, under the valuation, must match the claimed source
        # tuple, and that tuple must belong to the row's operand relation.
        for row, source in zip(tableau.rows, witness.row_sources):
            if source not in bound[row.operand]:
                return False
            for attribute, cell in row.cells:
                expected = (
                    cell.value
                    if hasattr(cell, "value")
                    else witness.valuation.get(cell)
                )
                if expected is None or source[attribute] != expected:
                    return False
        # The summary, under the valuation, must spell out the candidate tuple.
        for attribute in tableau.target_scheme.names:
            cell = tableau.summary[attribute]
            expected = (
                cell.value if hasattr(cell, "value") else witness.valuation.get(cell)
            )
            if candidate[attribute] != expected:
                return False
        return True

    @staticmethod
    def _row_sources(
        tableau: Tableau,
        valuation: Mapping[TableauCell, Hashable],
        bound: Mapping[str, Relation],
    ) -> Tuple[RelationTuple, ...]:
        sources: List[RelationTuple] = []
        for row in tableau.rows:
            values: Dict[str, Hashable] = {}
            for attribute, cell in row.cells:
                values[attribute] = (
                    cell.value if hasattr(cell, "value") else valuation[cell]
                )
            relation = bound[row.operand]
            sources.append(RelationTuple(relation.scheme, values))
        return tuple(sources)


class SatBackedMembershipDecider:
    """Decide membership by reducing the certificate search to SAT.

    For every tableau row a block of selector variables ``row_r_chooses_t`` is
    introduced (one per tuple of the row's operand relation); clauses state
    that each row chooses at least one tuple and that choices of any two rows agree
    on every shared tableau variable (and match the candidate on summary
    cells).  The resulting CNF is satisfiable iff ``t ∈ φ(R)``.
    """

    def __init__(self) -> None:
        self._solver = DPLLSolver()

    def encode(
        self,
        candidate: RelationTuple,
        expression: Expression,
        arguments: ArgumentLike,
    ) -> CNFFormula:
        """Build the CNF encoding of the membership question."""
        tableau = tableau_of_expression(expression)
        bound = bind_arguments(expression, arguments)

        clauses: List[Clause] = []
        # Selector variable names and the value each selection implies for each
        # tableau cell touched by the row.
        selections: List[List[Tuple[str, Dict[TableauCell, Hashable]]]] = []
        pinned: Dict[TableauCell, Hashable] = {}
        for attribute in tableau.target_scheme.names:
            cell = tableau.summary[attribute]
            if hasattr(cell, "value"):
                if cell.value != candidate[attribute]:
                    # Constant summary cell conflicts with the candidate: the
                    # formula is trivially unsatisfiable.
                    return CNFFormula(
                        [Clause([Literal("unsat_marker")]), Clause([Literal("unsat_marker", False)])]
                    )
            else:
                if cell in pinned and pinned[cell] != candidate[attribute]:
                    return CNFFormula(
                        [Clause([Literal("unsat_marker")]), Clause([Literal("unsat_marker", False)])]
                    )
                pinned[cell] = candidate[attribute]

        for row_index, row in enumerate(tableau.rows):
            relation = bound[row.operand]
            options: List[Tuple[str, Dict[TableauCell, Hashable]]] = []
            for tuple_index, tup in enumerate(relation.sorted_rows()):
                tup_obj = RelationTuple.from_values(relation.scheme, tup)
                implied: Dict[TableauCell, Hashable] = {}
                consistent = True
                for attribute, cell in row.cells:
                    value = tup_obj[attribute]
                    if hasattr(cell, "value"):
                        if cell.value != value:
                            consistent = False
                            break
                    else:
                        if cell in pinned and pinned[cell] != value:
                            consistent = False
                            break
                        if cell in implied and implied[cell] != value:
                            consistent = False
                            break
                        implied[cell] = value
                if consistent:
                    options.append((f"sel_{row_index}_{tuple_index}", implied))
            if not options:
                return CNFFormula(
                    [Clause([Literal("unsat_marker")]), Clause([Literal("unsat_marker", False)])]
                )
            selections.append(options)
            clauses.append(Clause([Literal(name) for name, _ in options]))

        # Mutual consistency: two selections that disagree on a shared cell
        # cannot both be chosen.
        for first_index in range(len(selections)):
            for second_index in range(first_index + 1, len(selections)):
                for first_name, first_implied in selections[first_index]:
                    for second_name, second_implied in selections[second_index]:
                        shared = set(first_implied) & set(second_implied)
                        if any(
                            first_implied[cell] != second_implied[cell] for cell in shared
                        ):
                            clauses.append(
                                Clause(
                                    [Literal(first_name, False), Literal(second_name, False)]
                                )
                            )
        return CNFFormula(clauses)

    def decide(
        self,
        candidate: RelationTuple,
        expression: Expression,
        arguments: ArgumentLike,
    ) -> bool:
        """Decide membership by solving the CNF encoding."""
        formula = self.encode(candidate, expression, arguments)
        return self._solver.solve(formula).satisfiable
