"""Naive reference implementations of the core relational operations.

These functions reimplement ``project``, ``natural_join``, and ``rename``
exactly the way the pre-kernel (seed) code did: dict-based tuple merging,
name-keyed attribute access, and the fully validating
:class:`~repro.algebra.tuples.RelationTuple` constructor for every produced
tuple.  They exist as the oracle:

* the randomized property tests assert that the positional kernel's results
  are set-equal to these references on arbitrary schemes and relations;
* the benchmark ladder (``benchmarks/ladder/workloads.py``) answer-checks
  its workloads against them.

They are deliberately slow; do not use them on hot paths.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from .errors import JoinError, ProjectionError
from .relation import Relation
from .schema import SchemeLike, as_scheme
from .tuples import RelationTuple

__all__ = ["naive_project", "naive_natural_join", "naive_rename"]


def naive_project(relation: Relation, target: SchemeLike) -> Relation:
    """Projection via per-tuple dict rebuilds (the seed implementation)."""
    target_scheme = as_scheme(target)
    if not target_scheme.is_subscheme_of(relation.scheme):
        missing = sorted(target_scheme.name_set - relation.scheme.name_set)
        raise ProjectionError(
            f"cannot project relation over {relation.scheme} onto {target_scheme}: "
            f"missing attributes {missing}"
        )
    projected_scheme = relation.scheme.restrict(target_scheme.names)
    return Relation(
        projected_scheme,
        (
            RelationTuple(projected_scheme, {n: t[n] for n in projected_scheme.names})
            for t in relation
        ),
    )


def naive_natural_join(left: Relation, right: Relation) -> Relation:
    """Hash join with dict-merged, fully re-validated tuples (the seed implementation)."""
    if not isinstance(right, Relation):
        raise JoinError(f"cannot join a relation with {type(right).__name__}")
    common = tuple(
        name for name in left.scheme.names if name in right.scheme.name_set
    )
    joined_scheme = left.scheme.union(right.scheme)

    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    buckets: Dict[Tuple[Hashable, ...], List[RelationTuple]] = {}
    for tup in build:
        key = tuple(tup[name] for name in common)
        buckets.setdefault(key, []).append(tup)

    result: List[RelationTuple] = []
    for tup in probe:
        key = tuple(tup[name] for name in common)
        for match in buckets.get(key, ()):
            merged = match.as_dict()
            merged.update(tup.as_dict())
            result.append(RelationTuple(joined_scheme, merged))
    return Relation(joined_scheme, result)


def naive_rename(relation: Relation, mapping: Dict[str, str]) -> Relation:
    """Renaming via per-tuple dict rebuilds (the seed implementation)."""
    renamed_scheme = relation.scheme.renamed(mapping)
    renamed_tuples = []
    for tup in relation:
        values = {}
        for attr in relation.scheme:
            new_name = mapping.get(attr.name, attr.name)
            values[new_name] = tup[attr.name]
        renamed_tuples.append(RelationTuple(renamed_scheme, values))
    return Relation(renamed_scheme, renamed_tuples)
