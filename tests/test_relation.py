"""Unit tests for repro.algebra.relation."""

import pickle

import pytest

from repro.algebra import (
    JoinError,
    ProjectionError,
    Relation,
    RelationScheme,
    RelationTuple,
    SelectionError,
    UnionCompatibilityError,
)
from repro.api import Session
from repro.workloads import serving_relations

SCHEME = RelationScheme.of("A", "B", "C")


def sample():
    return Relation.from_rows(SCHEME, [(1, 2, 3), (1, 2, 4), (2, 2, 3)], name="R")


class TestConstruction:
    def test_from_rows_and_len(self):
        assert len(sample()) == 3

    def test_duplicates_collapse(self):
        relation = Relation.from_rows(SCHEME, [(1, 2, 3), (1, 2, 3)])
        assert len(relation) == 1

    def test_empty(self):
        empty = Relation.empty(SCHEME)
        assert empty.is_empty() and len(empty) == 0

    def test_single(self):
        assert len(Relation.single(SCHEME, (1, 1, 1))) == 1

    def test_mixed_tuple_inputs(self):
        relation = Relation(SCHEME, [{"A": 1, "B": 2, "C": 3}, (4, 5, 6)])
        assert len(relation) == 2

    def test_with_name(self):
        named = sample().with_name("Fancy")
        assert named.name == "Fancy"
        assert named == sample()


class TestPickling:
    def test_round_trip_after_an_execute_planned_over_it(self):
        # Planning caches statistics on the relation, and the statistics
        # hold an undrawn sample whose recipe is a closure: pickling keeps
        # scheme, rows and name only, and the copy re-derives the rest.
        relations = serving_relations()
        with Session(relations) as session:
            session.execute("project[A, C](R * S)")
        relation = relations["R"]
        assert relation._stats is not None
        for original in (relation, relation.with_name("Q")):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and copy.name == original.name
            assert copy.scheme == original.scheme
            assert hash(copy) == hash(original)
            assert copy._stats is None and copy._materialized is None
            assert len(copy.tuples) == len(original)


class TestContainerProtocol:
    def test_contains_accepts_mapping_sequence_and_tuple(self):
        relation = sample()
        assert (1, 2, 3) in relation
        assert {"A": 1, "B": 2, "C": 4} in relation
        assert RelationTuple(SCHEME, {"A": 2, "B": 2, "C": 3}) in relation
        assert (9, 9, 9) not in relation

    def test_contains_wrong_scheme_is_false(self):
        other = RelationTuple(RelationScheme.of("A", "B"), {"A": 1, "B": 2})
        assert other not in sample()

    def test_equality_and_hash(self):
        assert sample() == sample()
        assert hash(sample()) == hash(sample())
        assert sample() != sample().insert((9, 9, 9))

    def test_cardinality(self):
        assert sample().cardinality() == 3

    def test_sorted_rows_deterministic(self):
        rows = sample().sorted_rows()
        assert rows == sorted(rows, key=lambda r: tuple(map(repr, r)))

    def test_to_table_contains_header_and_truncation(self):
        table = sample().to_table()
        assert "A" in table and "B" in table
        truncated = sample().to_table(max_rows=1)
        assert "more tuples" in truncated


class TestProjection:
    def test_project_removes_duplicates(self):
        projected = sample().project("A B")
        assert len(projected) == 2

    def test_project_full_scheme_is_identity(self):
        assert sample().project("A B C") == sample()

    def test_project_missing_attribute_rejected(self):
        with pytest.raises(ProjectionError):
            sample().project("Z")


class TestJoin:
    def test_join_on_common_attribute(self):
        left = Relation.from_rows("A B", [(1, 10), (2, 20)])
        right = Relation.from_rows("B C", [(10, "x"), (10, "y"), (30, "z")])
        joined = left.natural_join(right)
        assert joined.scheme == RelationScheme.of("A", "B", "C")
        assert len(joined) == 2
        assert (1, 10, "x") in joined and (1, 10, "y") in joined

    def test_join_disjoint_schemes_is_product(self):
        left = Relation.from_rows("A", [(1,), (2,)])
        right = Relation.from_rows("B", [(10,), (20,), (30,)])
        assert len(left.natural_join(right)) == 6

    def test_join_same_scheme_is_intersection(self):
        left = Relation.from_rows("A B", [(1, 2), (3, 4)])
        right = Relation.from_rows("A B", [(1, 2), (5, 6)])
        assert left.natural_join(right) == Relation.from_rows("A B", [(1, 2)])

    def test_join_with_empty_is_empty(self):
        left = Relation.from_rows("A B", [(1, 2)])
        right = Relation.empty(RelationScheme.of("B", "C"))
        assert left.natural_join(right).is_empty()

    def test_join_is_commutative(self):
        left = Relation.from_rows("A B", [(1, 10), (2, 20)])
        right = Relation.from_rows("B C", [(10, "x"), (20, "y")])
        assert left.natural_join(right) == right.natural_join(left)

    def test_join_non_relation_rejected(self):
        with pytest.raises(JoinError):
            sample().natural_join("not a relation")

    def test_tuple_restrictions_belong_to_operands(self):
        left = Relation.from_rows("A B", [(1, 10), (2, 20)])
        right = Relation.from_rows("B C", [(10, "x"), (20, "y")])
        joined = left.natural_join(right)
        for tup in joined:
            assert tup.project("A B") in left
            assert tup.project("B C") in right


class TestSelection:
    def test_select_predicate(self):
        assert len(sample().select(lambda t: t["C"] == 3)) == 2

    def test_select_eq(self):
        assert len(sample().select_eq(A=1, C=4)) == 1

    def test_select_eq_missing_attribute_rejected(self):
        with pytest.raises(SelectionError):
            sample().select_eq(Z=1)


class TestSetOperations:
    def test_union_difference_intersection(self):
        left = Relation.from_rows("A B", [(1, 2), (3, 4)])
        right = Relation.from_rows("A B", [(3, 4), (5, 6)])
        assert len(left.union(right)) == 3
        assert left.difference(right) == Relation.from_rows("A B", [(1, 2)])
        assert left.intersection(right) == Relation.from_rows("A B", [(3, 4)])

    def test_incompatible_schemes_rejected(self):
        left = Relation.from_rows("A B", [(1, 2)])
        right = Relation.from_rows("A C", [(1, 2)])
        with pytest.raises(UnionCompatibilityError):
            left.union(right)

    def test_subset_checks(self):
        small = Relation.from_rows("A B", [(1, 2)])
        big = Relation.from_rows("A B", [(1, 2), (3, 4)])
        assert small.is_subset_of(big)
        assert small.is_proper_subset_of(big)
        assert not big.is_subset_of(small)
        assert not big.is_proper_subset_of(big)


class TestModification:
    def test_insert_and_remove(self):
        grown = sample().insert((7, 7, 7))
        assert len(grown) == 4
        assert len(grown.remove((7, 7, 7))) == 3

    def test_rename(self):
        renamed = sample().rename({"A": "Z"})
        assert "Z" in renamed.scheme and "A" not in renamed.scheme
        assert len(renamed) == len(sample())

    def test_add_constant_column(self):
        extended = sample().add_constant_column("Tag", "t")
        assert extended.column_values("Tag") == frozenset({"t"})
        assert len(extended) == len(sample())

    def test_active_domain_and_column_values(self):
        assert sample().column_values("A") == frozenset({1, 2})
        assert 4 in sample().active_domain()
        with pytest.raises(ProjectionError):
            sample().column_values("Z")
