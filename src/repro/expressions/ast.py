"""Abstract syntax of relational expressions over projection and join.

A relational expression (paper, Section 2.1) has relation schemes as operands
and projection and natural join as operations.  The AST mirrors that
definition:

* :class:`Operand` — a named argument position, carrying the relation scheme
  the argument must conform to;
* :class:`Projection` — ``π_Y(e)``;
* :class:`Join` — ``e1 * e2 * ... * ek`` (n-ary, since natural join is
  associative and the paper freely writes multi-way joins).

Every node knows its *target relation scheme* (``trs(φ)`` in the paper),
computed structurally, and the set of operand names it mentions.  Nodes are
immutable, so each computes its hash once, when it is built (a pickled node
is rebuilt, so the hash is recomputed in the process that loads it).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..algebra.schema import RelationScheme, SchemeLike, as_scheme

__all__ = ["Expression", "Operand", "Projection", "Join", "ExpressionError"]


class ExpressionError(Exception):
    """Raised when an expression is ill-formed (e.g. projecting onto absent attributes)."""


class Expression:
    """Base class of all expression nodes."""

    def target_scheme(self) -> RelationScheme:
        """The relation scheme of the expression's result (``trs(φ)``)."""
        raise NotImplementedError

    def operand_names(self) -> FrozenSet[str]:
        """The names of the operand relation schemes mentioned by the expression."""
        raise NotImplementedError

    def operand_schemes(self) -> Dict[str, RelationScheme]:
        """Mapping from operand name to the scheme it must be a relation over.

        Raises :class:`ExpressionError` if the same operand name appears with
        two different schemes.
        """
        raise NotImplementedError

    def children(self) -> Tuple["Expression", ...]:
        """The immediate sub-expressions."""
        raise NotImplementedError

    # -- structural helpers ---------------------------------------------

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def size(self) -> int:
        """The number of AST nodes (a syntactic size measure)."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """The height of the AST."""
        children = self.children()
        if not children:
            return 1
        return 1 + max(child.depth() for child in children)

    def count_joins(self) -> int:
        """Number of Join nodes in the expression."""
        return sum(1 for node in self.walk() if isinstance(node, Join))

    def count_projections(self) -> int:
        """Number of Projection nodes in the expression."""
        return sum(1 for node in self.walk() if isinstance(node, Projection))

    # -- fluent construction ---------------------------------------------

    def project(self, target: SchemeLike) -> "Projection":
        """Fluent ``π_Y(self)``."""
        return Projection(as_scheme(target), self)

    def join(self, *others: "Expression") -> "Join":
        """Fluent ``self * other * ...``."""
        return Join((self,) + tuple(others))

    def __mul__(self, other: "Expression") -> "Join":
        if not isinstance(other, Expression):
            return NotImplemented
        return Join((self, other))

    # -- display -----------------------------------------------------------

    def to_text(self) -> str:
        """A parseable textual rendering (see :mod:`repro.expressions.parser`)."""
        raise NotImplementedError

    def __str__(self) -> str:
        return self.to_text()


class Operand(Expression):
    """A named operand: an argument position over a fixed relation scheme."""

    __slots__ = ("_name", "_scheme", "_hash")

    def __init__(self, name: str, scheme: SchemeLike):
        if not name:
            raise ExpressionError("operand name must be non-empty")
        self._name = name
        self._scheme = as_scheme(scheme)
        self._hash = hash((self._name, self._scheme))

    @property
    def name(self) -> str:
        """The operand (argument) name, e.g. ``"R"``."""
        return self._name

    @property
    def scheme(self) -> RelationScheme:
        """The relation scheme the argument relation must be over."""
        return self._scheme

    def target_scheme(self) -> RelationScheme:
        return self._scheme

    def operand_names(self) -> FrozenSet[str]:
        return frozenset({self._name})

    def operand_schemes(self) -> Dict[str, RelationScheme]:
        return {self._name: self._scheme}

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def to_text(self) -> str:
        return self._name

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Operand):
            return self._name == other._name and self._scheme == other._scheme
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Operand, (self._name, self._scheme)

    def __repr__(self) -> str:
        return f"Operand({self._name!r}, {self._scheme})"


class Projection(Expression):
    """Projection node ``π_Y(child)``."""

    __slots__ = ("_target", "_child", "_hash")

    def __init__(self, target: SchemeLike, child: Expression):
        target_scheme = as_scheme(target)
        if not isinstance(child, Expression):
            raise ExpressionError(f"projection child must be an Expression, got {child!r}")
        child_scheme = child.target_scheme()
        if not target_scheme.is_subscheme_of(child_scheme):
            missing = sorted(target_scheme.name_set - child_scheme.name_set)
            raise ExpressionError(
                f"projection onto {target_scheme} is not a subset of the child "
                f"scheme {child_scheme}; missing attributes {missing}"
            )
        self._target = child_scheme.restrict(target_scheme.names)
        self._child = child
        self._hash = hash(("project", self._target, child))

    @property
    def target(self) -> RelationScheme:
        """The projection scheme ``Y``."""
        return self._target

    @property
    def child(self) -> Expression:
        """The sub-expression being projected."""
        return self._child

    def target_scheme(self) -> RelationScheme:
        return self._target

    def operand_names(self) -> FrozenSet[str]:
        return self._child.operand_names()

    def operand_schemes(self) -> Dict[str, RelationScheme]:
        return self._child.operand_schemes()

    def children(self) -> Tuple[Expression, ...]:
        return (self._child,)

    def to_text(self) -> str:
        return f"project[{', '.join(self._target.names)}]({self._child.to_text()})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Projection):
            return self._target == other._target and self._child == other._child
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Projection, (self._target, self._child)

    def __repr__(self) -> str:
        return f"Projection({self._target}, {self._child!r})"


class Join(Expression):
    """n-ary natural join node ``e1 * e2 * ... * ek`` with ``k >= 2``."""

    __slots__ = ("_parts", "_schemes", "_hash")

    def __init__(self, parts: Sequence[Expression]):
        flattened: List[Expression] = []
        for part in parts:
            if not isinstance(part, Expression):
                raise ExpressionError(f"join operand must be an Expression, got {part!r}")
            if isinstance(part, Join):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if len(flattened) < 2:
            raise ExpressionError("a join needs at least two operands")
        self._parts: Tuple[Expression, ...] = tuple(flattened)
        # Validate operand scheme consistency eagerly so errors surface at
        # construction time rather than at evaluation time; every binding
        # reads the result, so it is kept.
        merged: Dict[str, RelationScheme] = {}
        for part in self._parts:
            for name, scheme in part.operand_schemes().items():
                if name in merged and merged[name] != scheme:
                    raise ExpressionError(
                        f"operand {name!r} used with two different schemes: "
                        f"{merged[name]} and {scheme}"
                    )
                merged[name] = scheme
        self._schemes = merged
        self._hash = hash(("join", self._parts))

    @property
    def parts(self) -> Tuple[Expression, ...]:
        """The joined sub-expressions (already flattened)."""
        return self._parts

    def target_scheme(self) -> RelationScheme:
        scheme = self._parts[0].target_scheme()
        for part in self._parts[1:]:
            scheme = scheme.union(part.target_scheme())
        return scheme

    def operand_names(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for part in self._parts:
            names |= part.operand_names()
        return names

    def operand_schemes(self) -> Dict[str, RelationScheme]:
        return dict(self._schemes)

    def children(self) -> Tuple[Expression, ...]:
        return self._parts

    def to_text(self) -> str:
        rendered = []
        for part in self._parts:
            text = part.to_text()
            rendered.append(f"({text})" if isinstance(part, Join) else text)
        return " * ".join(rendered)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Join):
            return self._parts == other._parts
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Join, (self._parts,)

    def __repr__(self) -> str:
        return f"Join({list(self._parts)!r})"
