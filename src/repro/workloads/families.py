"""Formula and instance families swept by the benchmark harness.

Each family is a deterministic function of its parameters (seeds are fixed per
index), so benchmark runs are reproducible and the ``benchmarks/results/E*.txt``
tables can be regenerated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..qbf.generators import planted_false_q3sat, planted_true_q3sat
from ..qbf.instances import QThreeSatInstance
from ..sat.cnf import CNFFormula
from ..sat.generators import (
    forced_unsatisfiable,
    planted_satisfiable,
    random_three_cnf,
)
from ..reductions.theorem1 import SatUnsatPair

__all__ = [
    "FormulaCase",
    "satisfiable_family",
    "unsatisfiable_family",
    "mixed_family",
    "sat_unsat_pairs",
    "qbf_family",
    "growing_construction_family",
]


@dataclass(frozen=True)
class FormulaCase:
    """One formula of a family, with the metadata benchmarks report."""

    label: str
    formula: CNFFormula
    satisfiable_by_construction: "bool | None"

    @property
    def num_clauses(self) -> int:
        """Number of clauses (``m``)."""
        return self.formula.num_clauses

    @property
    def num_variables(self) -> int:
        """Number of variables (``n``)."""
        return self.formula.num_variables


def satisfiable_family(
    clause_counts: Sequence[int] = (3, 4, 5, 6), num_variables: int = 6, seed: int = 11
) -> List[FormulaCase]:
    """Planted-satisfiable 3CNF formulas with growing clause counts."""
    cases: List[FormulaCase] = []
    for index, clauses in enumerate(clause_counts):
        formula, _ = planted_satisfiable(num_variables, clauses, seed=seed + index)
        cases.append(
            FormulaCase(
                label=f"sat(m={clauses},n={num_variables})",
                formula=formula,
                satisfiable_by_construction=True,
            )
        )
    return cases


def unsatisfiable_family(
    extra_clause_counts: Sequence[int] = (0, 1, 2, 3),
    num_variables: int = 6,
    seed: int = 23,
) -> List[FormulaCase]:
    """Forced-unsatisfiable 3CNF formulas (contradiction block plus padding)."""
    cases: List[FormulaCase] = []
    for index, extra in enumerate(extra_clause_counts):
        formula = forced_unsatisfiable(
            num_variables, extra_random_clauses=extra, seed=seed + index
        )
        cases.append(
            FormulaCase(
                label=f"unsat(m={formula.num_clauses},n={num_variables})",
                formula=formula,
                satisfiable_by_construction=False,
            )
        )
    return cases


def mixed_family(
    count: int = 8, num_variables: int = 6, clause_ratio: float = 4.3, seed: int = 37
) -> List[FormulaCase]:
    """Random 3CNF near the satisfiability threshold (unknown truth value)."""
    clauses = max(3, int(round(clause_ratio * num_variables)))
    cases: List[FormulaCase] = []
    for index in range(count):
        formula = random_three_cnf(num_variables, clauses, seed=seed + index)
        cases.append(
            FormulaCase(
                label=f"random(m={clauses},n={num_variables},#{index})",
                formula=formula,
                satisfiable_by_construction=None,
            )
        )
    return cases


def sat_unsat_pairs(seed: int = 5, num_variables: int = 5) -> List[Tuple[str, SatUnsatPair]]:
    """The four SAT/UNSAT combinations used by the Theorem 1 / 2 benchmarks."""
    satisfiable, _ = planted_satisfiable(num_variables, 4, seed=seed)
    unsatisfiable = forced_unsatisfiable(num_variables, extra_random_clauses=0, seed=seed)
    return [
        ("sat+unsat (yes)", SatUnsatPair(satisfiable, unsatisfiable)),
        ("sat+sat (no)", SatUnsatPair(satisfiable, satisfiable)),
        ("unsat+unsat (no)", SatUnsatPair(unsatisfiable, unsatisfiable)),
        ("unsat+sat (no)", SatUnsatPair(unsatisfiable, satisfiable)),
    ]


def qbf_family(
    universal_counts: Sequence[int] = (3, 4, 5), seed: int = 7
) -> List[Tuple[str, QThreeSatInstance, bool]]:
    """Planted true and false Q-3SAT instances for the Theorem 4 / 5 benchmarks.

    Returns (label, instance, planted truth value) triples.
    """
    cases: List[Tuple[str, QThreeSatInstance, bool]] = []
    for index, universal in enumerate(universal_counts):
        true_instance = planted_true_q3sat(universal, seed=seed + index)
        false_instance = planted_false_q3sat(max(universal, 3), seed=seed + index)
        cases.append((f"true(|X|={len(true_instance.universal)})", true_instance, True))
        cases.append((f"false(|X|={len(false_instance.universal)})", false_instance, False))
    return cases


def growing_construction_family(
    clause_counts: Sequence[int] = (3, 4, 5, 6, 8, 10), seed: int = 13
) -> List[FormulaCase]:
    """Satisfiable formulas with steadily growing clause counts.

    Used by the construction-scaling and blow-up experiments (E9, E10), where
    only the construction's size matters, not the precise truth value — using
    planted-satisfiable formulas keeps the result non-trivial at every size.
    """
    cases: List[FormulaCase] = []
    for index, clauses in enumerate(clause_counts):
        num_variables = max(4, min(3 * clauses, 9))
        formula, _ = planted_satisfiable(num_variables, clauses, seed=seed + index)
        cases.append(
            FormulaCase(
                label=f"grow(m={clauses},n={num_variables})",
                formula=formula,
                satisfiable_by_construction=True,
            )
        )
    return cases
