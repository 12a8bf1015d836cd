"""The unified result of one prepared-query execution.

A prepared query's execution returns the result :class:`Relation` and the
engine's own :class:`~repro.expressions.evaluator.EvaluationTrace`.  The
wrapper behaves like the
relation for the common read paths (length, iteration, membership, equality
against relations or other results), so callers migrating from
``evaluate(...) -> Relation`` rarely need to touch ``.relation`` at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..algebra.relation import Relation
from ..algebra.schema import RelationScheme
from ..expressions.evaluator import EvaluationTrace

__all__ = ["QueryResult"]


@dataclass(frozen=True, eq=False, repr=False)
class QueryResult:
    """One execution's outcome: relation + trace."""

    relation: Relation
    trace: EvaluationTrace

    @property
    def scheme(self) -> RelationScheme:
        """The result relation's scheme."""
        return self.relation.scheme

    def __len__(self) -> int:
        return len(self.relation)

    def __iter__(self) -> Iterator:
        return iter(self.relation)

    def __contains__(self, item) -> bool:
        return item in self.relation

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QueryResult):
            return self.relation == other.relation
        if isinstance(other, Relation):
            return self.relation == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.relation)

    def set_equal(self, other) -> bool:
        """Set-equality against a relation or result, tolerating a reordered
        column presentation (the engine's output order follows its plan)."""
        reference = other.relation if isinstance(other, QueryResult) else other
        if self.relation.scheme.name_set != reference.scheme.name_set:
            return False
        aligned = (
            self.relation
            if self.relation.scheme.names == reference.scheme.names
            else self.relation.project(reference.scheme.names)
        )
        return aligned == reference

    def to_table(self, max_rows: int = 60) -> str:
        """The result rendered as a text table (delegates to the relation)."""
        return self.relation.to_table(max_rows=max_rows)

    def __repr__(self) -> str:
        return (
            f"QueryResult({len(self.relation)} tuples over "
            f"{', '.join(self.scheme.names)})"
        )
