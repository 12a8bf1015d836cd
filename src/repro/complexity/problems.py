"""The decision and counting problems studied by the paper, as a registry.

Each :class:`Problem` records the statement, the exact complexity the paper
establishes, where the hardness reduction and the decision procedure live in
this repository, and which experiment (E1–E10, ``benchmarks/results/E*.txt``)
exercises it.  The registry is what the documentation examples and the
`problem_catalog` benchmark print.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .classes import class_named

__all__ = ["Problem", "PROBLEMS", "problem_named"]


@dataclass(frozen=True)
class Problem:
    """A problem studied by the paper.

    Attributes
    ----------
    name:
        Short identifier, e.g. ``"query-result-equality"``.
    statement:
        The informal statement, in the paper's notation.
    completeness:
        The class the paper proves the problem complete (or hard) for.
    hardness_source:
        The satisfiability problem the hardness reduction starts from.
    reduction_module:
        Where the executable reduction lives in this repository.
    decider_module:
        Where the decision procedure lives.
    experiment_id:
        The experiment (``benchmarks/results/E*.txt``) that exercises it.
    paper_reference:
        Theorem / proposition number in the paper.
    """

    name: str
    statement: str
    completeness: str
    hardness_source: str
    reduction_module: str
    decider_module: str
    experiment_id: str
    paper_reference: str

    def complexity_class(self):
        """The :class:`~repro.complexity.classes.ComplexityClass` object."""
        return class_named(self.completeness)


PROBLEMS: Dict[str, Problem] = {
    problem.name: problem
    for problem in [
        Problem(
            name="tuple-membership",
            statement="Given R, a PJ expression φ, and a tuple t, is t ∈ φ(R)?",
            completeness="NP",
            hardness_source="3SAT",
            reduction_module="repro.reductions.membership.MembershipReduction",
            decider_module="repro.decision.membership",
            experiment_id="E8",
            paper_reference="Proposition 2 + Yannakakis (1981) re-proof",
        ),
        Problem(
            name="project-join-fixpoint",
            statement="Given R and schemes Y_i, is *_i π_{Y_i}(R) = R?",
            completeness="co-NP",
            hardness_source="3UNSAT",
            reduction_module="repro.reductions.membership.FixpointReduction",
            decider_module="repro.decision.fixpoint",
            experiment_id="E8",
            paper_reference="Lemma 1 + Maier-Sagiv-Yannakakis (1981) re-proof",
        ),
        Problem(
            name="query-result-equality",
            statement="Given R, a PJ expression φ, and a relation r, is φ(R) = r?",
            completeness="DP",
            hardness_source="3SAT-3UNSAT",
            reduction_module="repro.reductions.theorem1.Theorem1Reduction",
            decider_module="repro.decision.equality",
            experiment_id="E3",
            paper_reference="Theorem 1",
        ),
        Problem(
            name="cardinality-window",
            statement="Given R, φ, and unary d1, d2, is d1 <= |φ(R)| <= d2?",
            completeness="DP",
            hardness_source="3SAT-3UNSAT",
            reduction_module="repro.reductions.theorem2.Theorem2TwoSidedReduction",
            decider_module="repro.decision.cardinality",
            experiment_id="E4",
            paper_reference="Theorem 2",
        ),
        Problem(
            name="cardinality-lower-bound",
            statement="Given R, φ, and unary d1, is d1 <= |φ(R)|?",
            completeness="NP",
            hardness_source="3SAT",
            reduction_module="repro.reductions.theorem2.Theorem2LowerBoundReduction",
            decider_module="repro.decision.cardinality",
            experiment_id="E4",
            paper_reference="Theorem 2",
        ),
        Problem(
            name="cardinality-upper-bound",
            statement="Given R, φ, and unary d2, is |φ(R)| <= d2?",
            completeness="co-NP",
            hardness_source="3UNSAT",
            reduction_module="repro.reductions.theorem2.Theorem2UpperBoundReduction",
            decider_module="repro.decision.cardinality",
            experiment_id="E4",
            paper_reference="Theorem 2",
        ),
        Problem(
            name="tuple-counting",
            statement="Given R and φ, how many tuples does φ(R) have?",
            completeness="#P",
            hardness_source="#3SAT",
            reduction_module="repro.reductions.theorem3.Theorem3Reduction",
            decider_module="repro.decision.counting",
            experiment_id="E5",
            paper_reference="Theorem 3 and its corollary",
        ),
        Problem(
            name="fixed-relation-containment",
            statement="Given R and PJ expressions φ1, φ2, is φ1(R) ⊆ φ2(R)?",
            completeness="Pi2P",
            hardness_source="Q-3SAT",
            reduction_module="repro.reductions.theorem4.Theorem4Reduction",
            decider_module="repro.decision.containment",
            experiment_id="E6",
            paper_reference="Theorem 4",
        ),
        Problem(
            name="fixed-relation-equivalence",
            statement="Given R and PJ expressions φ1, φ2, is φ1(R) = φ2(R)?",
            completeness="Pi2P",
            hardness_source="Q-3SAT",
            reduction_module="repro.reductions.theorem4.Theorem4Reduction",
            decider_module="repro.decision.containment",
            experiment_id="E6",
            paper_reference="Theorem 4",
        ),
        Problem(
            name="fixed-query-containment",
            statement="Given relations R1, R2 and a PJ expression φ, is φ(R1) ⊆ φ(R2)?",
            completeness="Pi2P",
            hardness_source="Q-3SAT",
            reduction_module="repro.reductions.theorem5.Theorem5Reduction",
            decider_module="repro.decision.containment",
            experiment_id="E7",
            paper_reference="Theorem 5",
        ),
        Problem(
            name="fixed-query-equivalence",
            statement="Given relations R1, R2 and a PJ expression φ, is φ(R1) = φ(R2)?",
            completeness="Pi2P",
            hardness_source="Q-3SAT",
            reduction_module="repro.reductions.theorem5.Theorem5Reduction",
            decider_module="repro.decision.containment",
            experiment_id="E7",
            paper_reference="Theorem 5",
        ),
    ]
}


def problem_named(name: str) -> Problem:
    """Look up a problem by name (raises ``KeyError`` listing the known names)."""
    try:
        return PROBLEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; known problems: {sorted(PROBLEMS)}"
        ) from None
