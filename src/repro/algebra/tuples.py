"""Tuples of the relational model.

An ``X``-tuple is a mapping from the attributes of a scheme ``X`` to values
(paper, Section 2.1).  :class:`RelationTuple` is an immutable, hashable mapping
whose keys are exactly the attribute names of its scheme.  Projection of a
tuple onto a sub-scheme (``t[Y]`` in the paper) is :meth:`RelationTuple.project`.

Storage is *positional*: values live in a plain tuple aligned with the
scheme's presentation order, attribute access goes through the scheme's
cached name -> position index in O(1), and the hash is precomputed once from
the values listed in sorted-name order, so tuples over differently-ordered
presentations of the same scheme hash (and compare) equal.

Two construction paths exist:

* the public constructors (``__init__``, :meth:`from_values`, :func:`as_tuple`)
  validate the value set against the scheme and any attribute domains;
* the trusted constructor :meth:`RelationTuple._from_trusted` skips all
  validation.  It is reserved for values produced *by* algebra operations out
  of already-validated tuples (join, project, rename, ...), where the scheme
  alignment is guaranteed by the compiled plan that produced the values.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple, Union

from ..perf.counters import kernel_counters
from ..perf.plancache import ProjectPlan, project_plan_cache
from .attributes import Attribute
from .errors import ProjectionError, TupleSchemeMismatch
from .schema import RelationScheme, SchemeLike, as_scheme

__all__ = ["RelationTuple", "as_tuple"]

AttributeLike = Union[str, Attribute]

_COUNTERS = kernel_counters()


def _project_plan(scheme: RelationScheme, target: RelationScheme) -> ProjectPlan:
    """Return (compiling on miss) the pick-list plan projecting ``scheme`` onto ``target``.

    The caller must already have verified ``target.is_subscheme_of(scheme)``.
    The plan's ``target_scheme`` preserves the *source* scheme's attribute
    objects (with their domains), restricted to the target's names in the
    target's order — the same scheme :meth:`RelationScheme.restrict` builds.
    """
    cache = project_plan_cache()
    key = (scheme.fingerprint, target.names)
    plan = cache.get(key)
    if plan is not None:
        _COUNTERS.project_plan_hits += 1
        return plan
    _COUNTERS.project_plan_misses += 1
    restricted = scheme.restrict(target.names)
    index = scheme.index
    picks = tuple(index[name] for name in restricted.names)
    plan = ProjectPlan(target_scheme=restricted, picks=picks)
    cache.put(key, plan)
    return plan


def _checked_values(scheme: RelationScheme, values: Iterable[Hashable]) -> Tuple[Hashable, ...]:
    """``values`` (in ``scheme``'s presentation order) frozen into a tuple.

    Raises :class:`TupleSchemeMismatch` for the wrong arity and the
    attribute's error for a value outside its domain.  The one row check of
    :meth:`RelationTuple.from_values` and :meth:`Relation.from_rows`.
    """
    ordered = tuple(values)
    if len(ordered) != len(scheme):
        raise TupleSchemeMismatch(
            f"expected {len(scheme)} values for scheme {scheme}, got {len(ordered)}"
        )
    for position, attr in scheme._domain_attributes:
        attr.check_value(ordered[position])
    return ordered


class RelationTuple(Mapping[str, Hashable]):
    """An immutable tuple over a relation scheme.

    The tuple behaves as a read-only mapping from attribute name to value and
    is hashable, so relations can store tuples in plain Python sets.  Values
    are stored positionally in the scheme's presentation order with a
    precomputed order-independent hash.
    """

    __slots__ = ("_scheme", "_values", "_hash")

    def __init__(self, scheme: SchemeLike, values: Mapping[str, Hashable]):
        scheme = as_scheme(scheme)
        if len(values) != len(scheme.names) or set(values) != scheme.name_set:
            provided = set(values)
            expected = set(scheme.name_set)
            missing = sorted(expected - provided)
            extra = sorted(provided - expected)
            raise TupleSchemeMismatch(
                f"tuple values do not match scheme {scheme}: "
                f"missing={missing} extra={extra}"
            )
        ordered = tuple(values[name] for name in scheme.names)
        for position, attr in scheme._domain_attributes:
            attr.check_value(ordered[position])
        self._scheme = scheme
        self._values: Tuple[Hashable, ...] = ordered
        self._hash = hash((scheme.name_set, scheme.canonical_pick(ordered)))

    # -- constructors -------------------------------------------------

    @classmethod
    def from_values(cls, scheme: SchemeLike, values: Iterable[Hashable]) -> "RelationTuple":
        """Build a tuple from values listed in the scheme's presentation order."""
        scheme = as_scheme(scheme)
        return cls._from_trusted(scheme, _checked_values(scheme, values))

    @classmethod
    def _from_trusted(
        cls, scheme: RelationScheme, values: Tuple[Hashable, ...]
    ) -> "RelationTuple":
        """Build a tuple without validation (kernel-internal fast path).

        ``scheme`` must already be a :class:`RelationScheme` and ``values``
        a tuple aligned with ``scheme.names``; domain validation is skipped.
        Only algebra operations whose inputs are themselves valid tuples may
        call this — see docs/PERFORMANCE.md for the invariants.
        """
        self = object.__new__(cls)
        self._scheme = scheme
        self._values = values
        self._hash = hash((scheme.name_set, scheme.canonical_pick(values)))
        return self

    # -- mapping protocol ---------------------------------------------

    @property
    def scheme(self) -> RelationScheme:
        """The relation scheme this tuple is defined over."""
        return self._scheme

    def __getitem__(self, key: AttributeLike) -> Hashable:
        name = key.name if isinstance(key, Attribute) else key
        index = self._scheme.index.get(name)
        if index is None:
            raise KeyError(name)
        return self._values[index]

    def __iter__(self) -> Iterator[str]:
        return iter(self._scheme.names)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: object) -> bool:
        name = key.name if isinstance(key, Attribute) else key
        return name in self._scheme

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RelationTuple):
            my_scheme, other_scheme = self._scheme, other._scheme
            if my_scheme is other_scheme or my_scheme.names == other_scheme.names:
                return self._values == other._values
            if my_scheme.name_set != other_scheme.name_set:
                return False
            return my_scheme.canonical_pick(self._values) == other_scheme.canonical_pick(
                other._values
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{n}={v!r}" for n, v in zip(self._scheme.names, self._values)
        )
        return f"RelationTuple({inner})"

    # -- relational operations ----------------------------------------

    def as_dict(self) -> Dict[str, Hashable]:
        """Return a plain mutable dict copy of the tuple."""
        return dict(zip(self._scheme.names, self._values))

    def values_in_order(self, names: Optional[Iterable[str]] = None) -> Tuple[Hashable, ...]:
        """Return values in the order of ``names`` (default: scheme order)."""
        if names is None:
            return self._values
        values = self._values
        index = self._scheme.index
        return tuple(values[index[name]] for name in names)

    def project(self, target: SchemeLike) -> "RelationTuple":
        """Project (restrict) this tuple onto the sub-scheme ``target``.

        This is ``t[Y]`` in the paper's notation.  Raises
        :class:`ProjectionError` if ``target`` is not a subset of the tuple's
        scheme.
        """
        target_scheme = as_scheme(target)
        scheme = self._scheme
        if not target_scheme.is_subscheme_of(scheme):
            missing = sorted(target_scheme.name_set - scheme.name_set)
            raise ProjectionError(
                f"cannot project tuple over {scheme} onto {target_scheme}: "
                f"missing attributes {missing}"
            )
        plan = _project_plan(scheme, target_scheme)
        return RelationTuple._from_trusted(plan.target_scheme, plan.pick(self._values))

    def joins_with(self, other: "RelationTuple") -> bool:
        """Return whether this tuple agrees with ``other`` on common attributes."""
        my_index = self._scheme.index
        other_index = other._scheme.index
        mine = self._values
        theirs = other._values
        for name, position in my_index.items():
            other_position = other_index.get(name)
            if other_position is not None and mine[position] != theirs[other_position]:
                return False
        return True

    def joined(self, other: "RelationTuple") -> "RelationTuple":
        """Return the natural join of two joinable tuples.

        Raises :class:`TupleSchemeMismatch` if the tuples disagree on a common
        attribute.
        """
        if not self.joins_with(other):
            raise TupleSchemeMismatch(
                f"tuples disagree on common attributes: {self!r} vs {other!r}"
            )
        joined_scheme = self._scheme.union(other._scheme)
        other_index = other._scheme.index
        theirs = other._values
        extra = tuple(
            theirs[other_index[name]]
            for name in joined_scheme.names[len(self._values):]
        )
        return RelationTuple._from_trusted(joined_scheme, self._values + extra)

    def extended(self, extra: Mapping[str, Hashable]) -> "RelationTuple":
        """Return a new tuple with additional attribute/value pairs appended."""
        overlapping = set(extra) & set(self._scheme.name_set)
        if overlapping:
            raise TupleSchemeMismatch(
                f"cannot extend tuple with already-present attributes {sorted(overlapping)}"
            )
        new_scheme = self._scheme.union(RelationScheme(extra.keys()))
        appended = tuple(extra[name] for name in new_scheme.names[len(self._values):])
        return RelationTuple._from_trusted(new_scheme, self._values + appended)

    def renamed(self, mapping: Dict[str, str]) -> "RelationTuple":
        """Return a tuple over the renamed scheme with the same values."""
        new_scheme = self._scheme.renamed(mapping)
        return RelationTuple._from_trusted(new_scheme, self._values)


def as_tuple(scheme: SchemeLike, value: Union[RelationTuple, Mapping[str, Hashable], Iterable[Hashable]]) -> RelationTuple:
    """Coerce mappings or value sequences into a :class:`RelationTuple`.

    An existing :class:`RelationTuple` over a differently-*ordered*
    presentation of the same scheme is realigned to ``scheme``'s column order,
    so relations can rely on every stored tuple sharing their positional
    layout (the kernel invariant — see docs/PERFORMANCE.md).
    """
    scheme = as_scheme(scheme)
    if isinstance(value, RelationTuple):
        if value.scheme != scheme:
            raise TupleSchemeMismatch(
                f"tuple over {value.scheme} used where scheme {scheme} expected"
            )
        if value.scheme.names == scheme.names:
            return value
        return RelationTuple._from_trusted(scheme, value.values_in_order(scheme.names))
    if isinstance(value, Mapping):
        return RelationTuple(scheme, value)
    return RelationTuple.from_values(scheme, value)
