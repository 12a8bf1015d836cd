"""The scan-order contract (``Relation._scan_order``, ``engine/physical.py``).

A :class:`TableScan` streams a stored relation's rows in address order: the
very row objects of ``relation.rows``, sorted by ``id`` once per relation
object and cached on it.  These tests pin what that order may and may not
be: a permutation of the rows (each once, never a copy), built once and
reused, never shipped to another process, and shared by ``with_name``.
What the order must not change — answers and counted work — is
``tests/test_scan_order_invariance.py``.
"""

import pickle
from unittest import mock

import repro.algebra.relation as relation_module
from repro.algebra import Relation
from repro.engine import BLOCK_ROWS, MemoryMeter, TableScan


def _relation(rows=2 * BLOCK_ROWS + 17):
    """An int relation spanning several scan blocks, built out of value order."""
    return Relation.from_rows(
        "A B C",
        [(index * 7919 % rows, index % 13, -index) for index in range(rows)],
        name="R",
    )


def _scanned(scan):
    return [row for block in scan.blocks() for row in block]


def test_a_scan_yields_every_row_object_once_in_address_order():
    relation = _relation()
    rows = _scanned(TableScan(relation, MemoryMeter()))
    assert len(rows) == len(relation.rows)
    assert set(rows) == relation.rows
    assert set(map(id, rows)) == set(map(id, relation.rows))  # no copies
    assert [id(row) for row in rows] == sorted(map(id, rows))


def test_the_order_is_built_once_per_relation_object():
    relation = _relation()
    assert relation._scan is None  # nothing builds it before a scan
    relation.stats()
    assert relation._scan is None
    with mock.patch.object(relation_module, "sorted", wraps=sorted, create=True) as spy:
        _scanned(TableScan(relation, MemoryMeter()))
        order = relation._scan
        _scanned(TableScan(relation, MemoryMeter()))
    assert spy.call_count == 1
    assert relation._scan is order and relation._scan_order() is order


def test_derived_relations_start_without_an_order():
    relation = _relation()
    relation._scan_order()
    derived = (
        relation.project("A B C"),
        relation.union(relation),
        relation.insert((1, 2, 3)),
        relation.rename({"A": "X"}),
    )
    assert all(other._scan is None for other in derived)


def test_pickling_carries_no_order():
    relation = _relation()
    order = relation._scan_order()
    state = relation.__getstate__()
    assert len(state) == 3 and all(part is not order for part in state)
    copy = pickle.loads(pickle.dumps(relation))
    assert copy == relation and copy._scan is None
    assert sorted(_scanned(TableScan(copy, MemoryMeter()))) == sorted(relation.rows)


def test_with_name_shares_the_order():
    relation = _relation()
    order = relation._scan_order()
    named = relation.with_name("Q")
    assert named._scan_order() is order
    assert _scanned(TableScan(named, MemoryMeter())) == list(order)
