"""Tests of the public API surface: exports, docstrings, and __all__ hygiene."""

import dataclasses
import importlib
import inspect
import pathlib
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.api",
    "repro.algebra",
    "repro.expressions",
    "repro.engine",
    "repro.obs",
    "repro.tableaux",
    "repro.sat",
    "repro.qbf",
    "repro.reductions",
    "repro.decision",
    "repro.complexity",
    "repro.analysis",
    "repro.workloads",
    "repro.server",
]

#: The documented export surface of the facade.  These are *snapshots*: a
#: missing name is a compatibility break, an extra name is an undocumented
#: API — either way the change must be deliberate (update the snapshot and
#: docs/API.md together).
REPRO_EXPORTS = [
    "__version__",
    "BackendConfig",
    "ObserveConfig",
    "Session",
    "connect",
    "PreparedQuery",
    "QueryResult",
    "EvaluationTrace",
    "SessionError",
    "SessionClosedError",
]

REPRO_API_EXPORTS = [
    "BackendConfig",
    "ObserveConfig",
    "Session",
    "connect",
    "PreparedQuery",
    "QueryResult",
    "EvaluationTrace",
    "SessionError",
    "SessionClosedError",
]


#: The knob ledger: every independently settable value of the config
#: objects and the engine evaluator, by name.  Adding or removing a knob is a
#: deliberate edit of this snapshot (and of docs/API.md's release notes).
KNOBS = {
    "repro.engine.MemoryBudget": [
        "rows",
        "spill_fanout",
        "spill_dir",
    ],
    "repro.api.BackendConfig": [
        "budget",
        "faults",
        "observe",
    ],
    "repro.api.ObserveConfig": ["trace", "events", "events_path"],
    "repro.engine.FaultPlan": [
        "seed",
        "fail_spill_write_at",
        "fail_spill_read_at",
        "spill_failures",
        "persistent",
    ],
    "repro.server.ServerConfig": [
        "host",
        "port",
        "pool_size",
        "max_inflight",
        "total_budget_rows",
        "default_request_rows",
        "session_budget",
        "events_dir",
        "trace",
        "result_cache_size",
        "request_timeout_seconds",
    ],
}

ENGINE_EVALUATOR_PARAMETERS = [
    "budget",
    "faults",
    "observe",
]

#: A physical plan is scan | project | hash-join.
ENGINE_OPERATOR_EXPORTS = [
    "GraceHashJoin",
    "HashJoin",
    "PhysicalOperator",
    "StreamingProject",
    "TableScan",
]


class TestKnobLedger:
    @pytest.mark.parametrize("path", sorted(KNOBS))
    def test_config_fields_are_exactly_the_snapshot(self, path):
        module, _, name = path.rpartition(".")
        config = getattr(importlib.import_module(module), name)
        assert [field.name for field in dataclasses.fields(config)] == KNOBS[path]

    def test_engine_evaluator_parameters_are_exactly_the_snapshot(self):
        from repro.engine import EngineEvaluator

        parameters = list(inspect.signature(EngineEvaluator.__init__).parameters)
        assert parameters == ["self"] + ENGINE_EVALUATOR_PARAMETERS

    def test_engine_exports_exactly_the_operators_a_plan_can_hold(self):
        from repro import engine

        operators = sorted(
            name
            for name in engine.__all__
            if inspect.isclass(getattr(engine, name))
            and issubclass(getattr(engine, name), engine.PhysicalOperator)
        )
        assert operators == ENGINE_OPERATOR_EXPORTS


class TestPackageStructure:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_setup_reads_the_packages_version(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        reported = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert reported.stdout.strip().splitlines()[-1] == repro.__version__

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_subpackages_import(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__") and module.__all__
        for exported in module.__all__:
            assert hasattr(module, exported), f"{name}.{exported} missing"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_no_duplicate_exports(self, name):
        module = importlib.import_module(name)
        assert len(set(module.__all__)) == len(module.__all__)

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_public_classes_and_functions_have_docstrings(self, name):
        module = importlib.import_module(name)
        for exported in module.__all__:
            obj = getattr(module, exported)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{name}.{exported} lacks a docstring"

    def test_public_classes_have_documented_public_methods(self):
        # Spot-check the central classes: every public method carries a docstring.
        from repro.algebra import Relation, RelationScheme, RelationTuple
        from repro.expressions import Expression
        from repro.reductions import RGConstruction

        for cls in (Relation, RelationScheme, RelationTuple, Expression, RGConstruction):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name} lacks a docstring"


class TestFacadeExportSnapshot:
    """The repro / repro.api export surface, pinned exactly."""

    def test_repro_export_surface_is_exactly_the_snapshot(self):
        assert sorted(repro.__all__) == sorted(REPRO_EXPORTS)
        for name in REPRO_EXPORTS:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_repro_api_export_surface_is_exactly_the_snapshot(self):
        api = importlib.import_module("repro.api")
        assert sorted(api.__all__) == sorted(REPRO_API_EXPORTS)
        for name in REPRO_API_EXPORTS:
            assert hasattr(api, name), f"repro.api.{name} missing"

    def test_package_root_reexports_the_facade_objects(self):
        api = importlib.import_module("repro.api")
        for name in REPRO_API_EXPORTS:
            assert getattr(repro, name) is getattr(api, name), name
