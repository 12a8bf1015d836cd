"""Workload generators for tests, examples, and the benchmark harness."""

from .families import (
    FormulaCase,
    growing_construction_family,
    mixed_family,
    qbf_family,
    sat_unsat_pairs,
    satisfiable_family,
    unsatisfiable_family,
)
from .paper_example import (
    PAPER_EXAMPLE_EXPRESSION_TEXT,
    PAPER_EXAMPLE_ROWS,
    paper_example_construction,
    paper_example_formula,
    paper_example_relation,
    paper_example_scheme,
)
from .ordering import (
    actual_greedy_order,
    capped_join_size,
    chain_sizes,
    join_parts,
    planner_join_order,
)
from .relations import random_instance, random_project_join_query, random_relation
from .serving import serving_queries, serving_relations

__all__ = [
    "FormulaCase",
    "satisfiable_family",
    "unsatisfiable_family",
    "mixed_family",
    "sat_unsat_pairs",
    "qbf_family",
    "growing_construction_family",
    "paper_example_formula",
    "paper_example_construction",
    "paper_example_relation",
    "paper_example_scheme",
    "PAPER_EXAMPLE_ROWS",
    "PAPER_EXAMPLE_EXPRESSION_TEXT",
    "random_relation",
    "random_project_join_query",
    "random_instance",
    "actual_greedy_order",
    "capped_join_size",
    "chain_sizes",
    "join_parts",
    "planner_join_order",
    "serving_queries",
    "serving_relations",
]
