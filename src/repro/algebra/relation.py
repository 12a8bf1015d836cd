"""Relations: finite sets of tuples over a relation scheme.

:class:`Relation` is the central data structure of the substrate.  It is an
immutable set of :class:`~repro.algebra.tuples.RelationTuple` objects, all over
the same scheme, with the relational operations exposed both as methods and as
free functions in :mod:`repro.algebra.operations`.

Internally the relation runs on a *positional kernel*: tuples are stored as a
frozen set of plain value tuples aligned with the scheme's column order, and
``natural_join`` / ``project`` compile a per-scheme-pair plan (integer pick
lists plus the pre-built output scheme, cached in :mod:`repro.perf.plancache`)
whose per-tuple inner loop is pure tuple indexing and set insertion — no
Python-level objects, dicts, or attribute-name lookups.  The rich
:class:`RelationTuple` view of the rows is materialised lazily, only when
something actually iterates the relation, and cached.  The paper's whole
point is that intermediate relations blow up exponentially, so these
per-tuple constant factors dominate every benchmark's wall-clock.
"""

from __future__ import annotations

from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..perf.counters import kernel_counters
from ..perf.plancache import JoinPlan, join_plan_cache
from .errors import (
    JoinError,
    ProjectionError,
    SelectionError,
    TupleSchemeMismatch,
    UnionCompatibilityError,
)
from .schema import RelationScheme, SchemeLike, as_scheme
from .tuples import RelationTuple, _checked_values, _project_plan, as_tuple

__all__ = ["Relation"]

TupleLike = Union[RelationTuple, Mapping[str, Hashable], Iterable[Hashable]]
Row = Tuple[Hashable, ...]

_COUNTERS = kernel_counters()


def _join_plan(left: RelationScheme, right: RelationScheme) -> JoinPlan:
    """Return (compiling on miss) the join plan for an ordered scheme pair.

    The plan fixes the output layout as ``left ++ (right - left)`` — the order
    :meth:`RelationScheme.union` produces — so output values are always the
    left value tuple followed by the picked right extras, regardless of which
    side the hash table is built on.
    """
    cache = join_plan_cache()
    key = (left.fingerprint, right.fingerprint)
    plan = cache.get(key)
    if plan is not None:
        _COUNTERS.join_plan_hits += 1
        return plan
    _COUNTERS.join_plan_misses += 1
    right_names = right.name_set
    common = tuple(name for name in left.names if name in right_names)
    joined_scheme = left.union(right)
    left_index = left.index
    right_index = right.index
    plan = JoinPlan(
        joined_scheme=joined_scheme,
        common_names=common,
        left_key=tuple(left_index[name] for name in common),
        right_key=tuple(right_index[name] for name in common),
        right_extra=tuple(
            right_index[name] for name in joined_scheme.names[len(left.names):]
        ),
    )
    cache.put(key, plan)
    return plan


def sort_rows(rows: Collection[Row]) -> List[Row]:
    """Value rows in a deterministic order (see :meth:`Relation.sorted_rows`).

    A function of the rows alone, so a holder of a relation's row set (the
    statistics catalog's sample handle) can order them without holding the
    relation.
    """
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=lambda row: tuple(map(repr, row)))


class Relation:
    """A finite relation over a relation scheme.

    Relations are immutable; every operation returns a new relation.  Tuples
    can be supplied as :class:`RelationTuple` objects, as mappings from
    attribute name to value, or as plain value sequences in scheme order.
    """

    __slots__ = ("_scheme", "_rows", "_name", "_materialized", "_hash", "_stats", "_scan")

    def __init__(
        self,
        scheme: SchemeLike,
        tuples: Iterable[TupleLike] = (),
        name: Optional[str] = None,
    ):
        self._scheme = as_scheme(scheme)
        # ``as_tuple`` validates and realigns each input to this scheme's
        # column order, so the raw rows all share one positional layout.
        self._rows: FrozenSet[Row] = frozenset(
            as_tuple(self._scheme, t)._values for t in tuples
        )
        self._name = name
        self._materialized: Optional[FrozenSet[RelationTuple]] = None
        self._hash: Optional[int] = None
        self._stats = None
        self._scan: Optional[Tuple[Row, ...]] = None

    # -- constructors -------------------------------------------------

    @classmethod
    def empty(cls, scheme: SchemeLike, name: Optional[str] = None) -> "Relation":
        """Return the empty relation over ``scheme``."""
        return cls(scheme, (), name=name)

    @classmethod
    def from_rows(
        cls,
        scheme: SchemeLike,
        rows: Iterable[Sequence[Hashable]],
        name: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from value rows listed in scheme order.

        One pass over ``rows``: each is checked and frozen into a value
        tuple as :meth:`RelationTuple.from_values` checks it (the same
        errors), and no tuple object is built.
        """
        scheme = as_scheme(scheme)
        rows = frozenset(_checked_values(scheme, row) for row in rows)
        return cls._from_trusted(scheme, rows, name)

    @classmethod
    def single(cls, scheme: SchemeLike, values: TupleLike, name: Optional[str] = None) -> "Relation":
        """Build a relation holding a single tuple."""
        return cls(scheme, [values], name=name)

    @classmethod
    def _from_trusted(
        cls,
        scheme: RelationScheme,
        rows: FrozenSet[Row],
        name: Optional[str] = None,
    ) -> "Relation":
        """Wrap an already-validated frozen set of raw value rows.

        Kernel-internal: every row must be a plain value tuple aligned with
        ``scheme``'s column order, with values drawn from already-validated
        tuples — see docs/PERFORMANCE.md for the invariants.
        """
        relation = cls.__new__(cls)
        relation._scheme = scheme
        relation._rows = rows
        relation._name = name
        relation._materialized = None
        relation._hash = None
        relation._stats = None
        relation._scan = None
        return relation

    # -- basic protocol -----------------------------------------------

    @property
    def scheme(self) -> RelationScheme:
        """The relation scheme of this relation."""
        return self._scheme

    @property
    def name(self) -> Optional[str]:
        """An optional display name (used by pretty-printing and databases)."""
        return self._name

    @property
    def tuples(self) -> FrozenSet[RelationTuple]:
        """The rows as a frozen set of :class:`RelationTuple` objects.

        Materialised lazily from the raw positional rows on first access and
        cached; algebra operations never pay for it.
        """
        cached = self._materialized
        if cached is None:
            scheme = self._scheme
            from_trusted = RelationTuple._from_trusted
            cached = frozenset(from_trusted(scheme, row) for row in self._rows)
            self._materialized = cached
        return cached

    @property
    def rows(self) -> FrozenSet[Row]:
        """The raw positional value rows, aligned with ``scheme.names``."""
        return self._rows

    def with_name(self, name: str) -> "Relation":
        """Return the same relation carrying a display name."""
        relation = Relation._from_trusted(self._scheme, self._rows, name)
        relation._materialized = self._materialized
        relation._hash = self._hash
        relation._stats = self._stats
        relation._scan = self._scan
        return relation

    def __getstate__(self) -> Tuple[RelationScheme, FrozenSet[Row], Optional[str]]:
        # Scheme, rows and name only: the cached slots are derived, the
        # statistics entry may hold an undrawn sample recipe (a closure),
        # the hash is of this process's string-hash seed, and the scan
        # order is of this process's addresses.
        return self._scheme, self._rows, self._name

    def __setstate__(self, state: Tuple[RelationScheme, FrozenSet[Row], Optional[str]]) -> None:
        self._scheme, self._rows, self._name = state
        self._materialized = None
        self._hash = None
        self._stats = None
        self._scan = None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[RelationTuple]:
        return iter(self.tuples)

    def __contains__(self, item: TupleLike) -> bool:
        try:
            candidate = as_tuple(self._scheme, item)
        except TupleSchemeMismatch:
            return False
        return candidate._values in self._rows

    def _aligned_rows(self, other: "Relation") -> FrozenSet[Row]:
        """Return ``other``'s raw rows realigned to this relation's column order.

        Both relations must already have equal schemes (set-wise); when the
        presentation orders also agree this is free.
        """
        if other._scheme.names == self._scheme.names:
            return other._rows
        plan = _project_plan(other._scheme, self._scheme)
        return frozenset(map(plan.pick, other._rows))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Relation):
            if self._scheme != other._scheme:
                return False
            return self._rows == self._aligned_rows(other)
        return NotImplemented

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            # Hash must agree for equal relations over differently-ordered
            # presentations of one scheme, so hash rows in sorted-name order.
            canon = self._scheme.canonical_positions
            if canon == tuple(range(len(canon))):
                canonical_rows = self._rows
            else:
                canonical_rows = frozenset(map(self._scheme.canonical_pick, self._rows))
            cached = hash((self._scheme, canonical_rows))
            self._hash = cached
        return cached

    def __repr__(self) -> str:
        label = self._name or "Relation"
        return f"<{label} over {self._scheme} with {len(self)} tuples>"

    def is_empty(self) -> bool:
        """Return whether the relation has no tuples."""
        return not self._rows

    def cardinality(self) -> int:
        """Return the number of tuples (``|R|`` in the paper)."""
        return len(self._rows)

    def stats(self):
        """The relation's statistics catalog entry, computed lazily and cached.

        Returns a :class:`repro.engine.stats.RelationStats` with the
        cardinality plus per-column distinct counts and min/max bounds.
        Relations are immutable, so the entry is computed at most once —
        every operation returns a fresh relation whose slot starts empty
        (construction *is* invalidation).  The cost-based planner and
        :func:`~repro.algebra.operations.estimate_join_size` read from here.
        """
        cached = self._stats
        if cached is None:
            from ..engine.stats import RelationStats

            cached = self._stats = RelationStats.from_relation(self)
        return cached

    def _scan_order(self) -> Tuple[Row, ...]:
        """The row objects of :attr:`rows` in address order, built once.

        What the engine's table scans iterate.  A frozen set yields its rows
        in hash order, so a scan of a large relation visits its row tuples
        (and the values they hold) scattered across the heap, one cache miss
        each; on CPython an object's ``id`` is its address, which follows
        allocation order, so this order walks them almost sequentially.  The
        rows are the same objects, not copies.  Cached like :meth:`stats`:
        fixed for this object's lifetime, never pickled.
        """
        order = self._scan
        if order is None:
            order = self._scan = tuple(sorted(self._rows, key=id))
        return order

    def sorted_rows(self, names: Optional[Sequence[str]] = None) -> List[Row]:
        """Return rows as value tuples, deterministically sorted.

        Homogeneous value rows sort natively; rows mixing incomparable types
        fall back to sorting by per-cell ``repr``.  Useful for printing and
        for comparing relations in tests without depending on set iteration
        order.
        """
        if names is None or tuple(names) == self._scheme.names:
            rows = self._rows
        else:
            index = self._scheme.index
            picks = [index[name] for name in names]
            rows = [tuple(row[i] for i in picks) for row in self._rows]
        return sort_rows(rows)

    def to_table(self, max_rows: Optional[int] = None) -> str:
        """Render the relation as an aligned text table."""
        names = self._scheme.names
        rows = self.sorted_rows()
        if max_rows is not None and len(rows) > max_rows:
            shown = rows[:max_rows]
            truncated = len(rows) - max_rows
        else:
            shown = rows
            truncated = 0
        cells = [[str(n) for n in names]] + [[str(v) for v in row] for row in shown]
        widths = [max(len(row[i]) for row in cells) for i in range(len(names))]
        lines = []
        header = "  ".join(cell.ljust(width) for cell, width in zip(cells[0], widths))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in cells[1:]:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if truncated:
            lines.append(f"... ({truncated} more tuples)")
        return "\n".join(lines)

    # -- relational algebra -------------------------------------------

    def project(self, target: SchemeLike) -> "Relation":
        """Projection ``π_Y(R)``: restrict every tuple to the attributes in ``target``."""
        target_scheme = as_scheme(target)
        if not target_scheme.is_subscheme_of(self._scheme):
            missing = sorted(target_scheme.name_set - self._scheme.name_set)
            raise ProjectionError(
                f"cannot project relation over {self._scheme} onto {target_scheme}: "
                f"missing attributes {missing}"
            )
        plan = _project_plan(self._scheme, target_scheme)
        out_scheme = plan.target_scheme
        if out_scheme is self._scheme:
            return Relation._from_trusted(self._scheme, self._rows)
        projected = frozenset(map(plan.pick, self._rows))
        _COUNTERS.trusted_tuples_built += len(projected)
        return Relation._from_trusted(out_scheme, projected)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join ``R1 * R2`` via a plan-compiled hash join.

        The result scheme is the union of the operand schemes; a result tuple
        restricts to a tuple of each operand (paper, Section 2.1).  When the
        operand schemes are disjoint this degenerates to a cartesian product.
        The scheme-level work (key positions, output permutation, output
        scheme) comes from the cached :class:`~repro.perf.plancache.JoinPlan`;
        the hash table is built on the smaller operand to bound memory, and
        the inner loop touches only plain value tuples.
        """
        if not isinstance(other, Relation):
            raise JoinError(f"cannot join a relation with {type(other).__name__}")
        plan = _join_plan(self._scheme, other._scheme)
        joined_scheme = plan.joined_scheme
        extra_of = plan.right_extra_of
        left_rows = self._rows
        right_rows = other._rows
        result: set = set()
        add = result.add

        if plan.is_product:
            _COUNTERS.join_probes += len(left_rows)
            extras = [extra_of(right_values) for right_values in right_rows]
            for left_values in left_rows:
                for extra in extras:
                    add(left_values + extra)
        elif len(left_rows) <= len(right_rows):
            # Build on the left operand, probe with the right.
            left_key_of = plan.left_key_of
            buckets: Dict[Hashable, List[Row]] = {}
            for left_values in left_rows:
                key = left_key_of(left_values)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [left_values]
                else:
                    bucket.append(left_values)
            right_key_of = plan.right_key_of
            buckets_get = buckets.get
            _COUNTERS.join_probes += len(right_rows)
            for right_values in right_rows:
                bucket = buckets_get(right_key_of(right_values))
                if bucket is not None:
                    extra = extra_of(right_values)
                    for left_values in bucket:
                        add(left_values + extra)
        else:
            # Build on the right operand (pre-picking its output extras),
            # probe with the left.
            right_key_of = plan.right_key_of
            extra_buckets: Dict[Hashable, List[Row]] = {}
            for right_values in right_rows:
                key = right_key_of(right_values)
                extra = extra_of(right_values)
                bucket = extra_buckets.get(key)
                if bucket is None:
                    extra_buckets[key] = [extra]
                else:
                    bucket.append(extra)
            left_key_of = plan.left_key_of
            extra_buckets_get = extra_buckets.get
            _COUNTERS.join_probes += len(left_rows)
            for left_values in left_rows:
                bucket = extra_buckets_get(left_key_of(left_values))
                if bucket is not None:
                    for extra in bucket:
                        add(left_values + extra)
        _COUNTERS.trusted_tuples_built += len(result)
        return Relation._from_trusted(joined_scheme, frozenset(result))

    def select(self, predicate: Callable[[RelationTuple], bool]) -> "Relation":
        """Selection ``σ_p(R)`` with an arbitrary tuple predicate."""
        try:
            kept = frozenset(t._values for t in self.tuples if predicate(t))
        except KeyError as exc:
            raise SelectionError(f"selection predicate referenced missing attribute {exc}") from exc
        return Relation._from_trusted(self._scheme, kept)

    def select_eq(self, **conditions: Hashable) -> "Relation":
        """Selection on attribute = constant conditions, e.g. ``r.select_eq(S="a")``."""
        missing = [name for name in conditions if name not in self._scheme]
        if missing:
            raise SelectionError(
                f"selection referenced attributes {missing} not in scheme {self._scheme}"
            )
        index = self._scheme.index
        tests = [(index[name], value) for name, value in conditions.items()]
        kept = frozenset(
            row
            for row in self._rows
            if all(row[position] == value for position, value in tests)
        )
        return Relation._from_trusted(self._scheme, kept)

    def _check_compatible(self, other: "Relation", operation: str) -> None:
        if not isinstance(other, Relation):
            raise UnionCompatibilityError(
                f"{operation} requires a relation operand, got {type(other).__name__}"
            )
        if self._scheme != other._scheme:
            raise UnionCompatibilityError(
                f"{operation} requires identical schemes: {self._scheme} vs {other._scheme}"
            )

    def union(self, other: "Relation") -> "Relation":
        """Set union of two relations over the same scheme."""
        self._check_compatible(other, "union")
        return Relation._from_trusted(self._scheme, self._rows | self._aligned_rows(other))

    def difference(self, other: "Relation") -> "Relation":
        """Set difference of two relations over the same scheme."""
        self._check_compatible(other, "difference")
        return Relation._from_trusted(self._scheme, self._rows - self._aligned_rows(other))

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection of two relations over the same scheme."""
        self._check_compatible(other, "intersection")
        return Relation._from_trusted(self._scheme, self._rows & self._aligned_rows(other))

    def rename(self, mapping: Dict[str, str]) -> "Relation":
        """Rename attributes according to ``mapping`` (old name -> new name)."""
        renamed_scheme = self._scheme.renamed(mapping)
        return Relation._from_trusted(renamed_scheme, self._rows)

    def add_constant_column(self, attribute: str, value: Hashable) -> "Relation":
        """Return the relation extended with a constant-valued column."""
        if attribute in self._scheme:
            raise TupleSchemeMismatch(
                f"cannot extend tuple with already-present attributes [{attribute!r}]"
            )
        new_scheme = self._scheme.union(RelationScheme([attribute]))
        extended = frozenset(row + (value,) for row in self._rows)
        return Relation._from_trusted(new_scheme, extended)

    def insert(self, *rows: TupleLike) -> "Relation":
        """Return a new relation with the given tuples added."""
        added = {as_tuple(self._scheme, row)._values for row in rows}
        return Relation._from_trusted(self._scheme, self._rows | added, self._name)

    def remove(self, *rows: TupleLike) -> "Relation":
        """Return a new relation with the given tuples removed (if present)."""
        to_remove = {as_tuple(self._scheme, row)._values for row in rows}
        return Relation._from_trusted(self._scheme, self._rows - to_remove, self._name)

    # -- containment helpers ------------------------------------------

    def is_subset_of(self, other: "Relation") -> bool:
        """Return whether every tuple of this relation occurs in ``other``."""
        self._check_compatible(other, "subset test")
        return self._rows <= self._aligned_rows(other)

    def is_proper_subset_of(self, other: "Relation") -> bool:
        """Return whether this relation is strictly contained in ``other``."""
        self._check_compatible(other, "subset test")
        return self._rows < self._aligned_rows(other)

    def active_domain(self) -> FrozenSet[Hashable]:
        """Return the set of all values occurring anywhere in the relation."""
        values: set = set()
        for row in self._rows:
            values.update(row)
        return frozenset(values)

    def column_values(self, attribute: str) -> FrozenSet[Hashable]:
        """Return the set of values occurring in one column."""
        if attribute not in self._scheme:
            raise ProjectionError(f"attribute {attribute!r} not in scheme {self._scheme}")
        position = self._scheme.index_of(attribute)
        return frozenset(row[position] for row in self._rows)
