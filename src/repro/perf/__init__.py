"""Performance infrastructure for the relational algebra kernel.

The algebra's hot path (:meth:`repro.algebra.relation.Relation.natural_join`
and ``.project``) compiles scheme-level *plans* — integer pick lists plus a
pre-built output scheme — and caches them here, keyed by scheme fingerprints.
The per-tuple inner loop then reduces to tuple indexing.  This package holds
the plan caches, the kernel activity counters, and nothing algebra-specific,
so it can be imported from anywhere without cycles.

See ``docs/PERFORMANCE.md`` for the architecture and invariants.
"""

from .counters import KernelCounters, kernel_counters, reset_kernel_counters
from .plancache import (
    JoinPlan,
    LRUPlanCache,
    ProjectPlan,
    join_plan_cache,
    project_plan_cache,
)

__all__ = [
    "KernelCounters",
    "kernel_counters",
    "reset_kernel_counters",
    "JoinPlan",
    "ProjectPlan",
    "LRUPlanCache",
    "join_plan_cache",
    "project_plan_cache",
]
