"""Tableaux for projection-join expressions and Chandra–Merlin containment.

Implements the certificate machinery behind Proposition 2 (tuple membership is
in NP) and the query-containment-over-all-databases test that contrasts with
the paper's fixed-database Π₂ᵖ-complete containment problems, and the
rewrite the engine's planner applies first: :func:`minimize_expression`
drops the join operands an expression's minimal tableau does not need.
"""

from .homomorphism import (
    find_homomorphism,
    minimize_expression,
    minimize_tableau,
    query_contained_in,
    query_equivalent,
)
from .tableau import (
    Constant,
    DistinguishedVariable,
    NondistinguishedVariable,
    Tableau,
    TableauCell,
    TableauRow,
    tableau_of_expression,
)

__all__ = [
    "Tableau",
    "TableauRow",
    "TableauCell",
    "DistinguishedVariable",
    "NondistinguishedVariable",
    "Constant",
    "tableau_of_expression",
    "find_homomorphism",
    "query_contained_in",
    "query_equivalent",
    "minimize_tableau",
    "minimize_expression",
]
