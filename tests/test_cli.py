"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


SAT_FORMULA = "(x1 | x2 | x3) & (~x1 | x2 | ~x3) & (x1 | ~x2 | x3)"
UNSAT_FORMULA = (
    "(p | q | r) & (p | q | ~r) & (p | ~q | r) & (p | ~q | ~r) & "
    "(~p | q | r) & (~p | q | ~r) & (~p | ~q | r) & (~p | ~q | ~r)"
)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for argv in (
            ["example"],
            ["sat", SAT_FORMULA],
            ["count", SAT_FORMULA],
            ["construct", SAT_FORMULA, "--show-relation"],
            ["blowup", "--clauses", "3", "4"],
            ["engine-explain", "project[A](R * S)", "--scheme", "R=A B"],
            ["engine-explain", "--paper"],
        ):
            arguments = parser.parse_args(argv)
            assert callable(arguments.handler)

    def test_removed_planning_knobs_do_not_parse(self, capsys):
        parser = build_parser()
        for argv in (
            ["plans"],
            ["engine-explain", "--paper", "--adaptive"],
            ["trace", "--adaptive"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["blowup", "--clauses", "3"],
            ["engine-explain", "--paper"],
            ["trace"],
        ],
        ids=["blowup", "engine-explain", "trace"],
    )
    def test_the_removed_workers_flag_does_not_parse(self, argv, capsys):
        """Every execution runs in one process: ``--workers`` is an
        unrecognised argument, not a silently ignored one."""
        parser = build_parser()
        assert callable(parser.parse_args(argv).handler)
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args(argv + ["--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCommands:
    def test_example_prints_the_table(self, capsys):
        assert main(["example"]) == 0
        output = capsys.readouterr().out
        assert "phi_G" in output
        assert "|phi_G(R_G)| = 42" in output

    def test_sat_command_on_satisfiable_formula(self, capsys):
        assert main(["sat", SAT_FORMULA]) == 0
        output = capsys.readouterr().out
        assert output.count("SAT") >= 2
        assert "UNSAT" not in output.replace("UNSAT", "", 0) or "SAT" in output

    def test_sat_command_on_unsatisfiable_formula(self, capsys):
        assert main(["sat", UNSAT_FORMULA]) == 0
        output = capsys.readouterr().out
        assert "UNSAT" in output

    def test_count_command_matches_both_counters(self, capsys):
        assert main(["count", SAT_FORMULA]) == 0
        output = capsys.readouterr().out
        assert "#SAT via Theorem 3 identity" in output
        assert "#SAT via DPLL counter" in output

    def test_construct_command_reports_dimensions(self, capsys):
        assert main(["construct", SAT_FORMULA]) == 0
        output = capsys.readouterr().out
        assert "tuples" in output and "phi_G:" in output

    def test_construct_command_can_print_relation(self, capsys):
        assert main(["construct", SAT_FORMULA, "--show-relation", "--max-rows", "5"]) == 0
        output = capsys.readouterr().out
        assert "more tuples" in output

    def test_blowup_command_prints_table(self, capsys):
        assert main(["blowup", "--clauses", "3"]) == 0
        output = capsys.readouterr().out
        assert "naive_peak" in output
        assert "engine_peak_live" in output

    def test_blowup_command_can_skip_the_engine(self, capsys):
        assert main(["blowup", "--clauses", "3", "--no-engine"]) == 0
        output = capsys.readouterr().out
        assert "naive_peak" in output
        assert "engine_peak_live" not in output

    def test_engine_explain_prints_the_physical_plan(self, capsys):
        assert (
            main(
                [
                    "engine-explain",
                    "project[A](R * S)",
                    "--scheme",
                    "R=A B",
                    "--scheme",
                    "S=B C",
                    "--cardinality",
                    "R=1000",
                    "--cardinality",
                    "S=10",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "hash join" in output
        assert "scan R" in output and "scan S" in output
        assert "est_rows=" in output and "cost=" in output

    @staticmethod
    def _provenance(output):
        """The bracketed tag of every ``join on (...)`` provenance line."""
        lines = [
            line.strip() for line in output.split("per-join estimate provenance:")[1].splitlines()
            if line.strip().startswith("join on")
        ]
        assert len(lines) == 3  # the worked example joins four operands
        return [line[line.rindex("[") + 1 : -1] for line in lines]

    def test_engine_explain_paper_mode_executes(self, capsys):
        assert main(["engine-explain", "--paper"]) == 0
        output = capsys.readouterr().out
        assert "peak live rows" in output
        assert "scan R" in output
        # Every key of phi_G is composite, so the default planner measured
        # every join — and the pinned plan says so without holding a sample.
        assert self._provenance(output) == ["sampled"] * 3

    def test_engine_explain_memory_budget_plans_grace_joins(self, capsys):
        assert (
            main(
                [
                    "engine-explain",
                    "project[A](R * S)",
                    "--scheme",
                    "R=A B",
                    "--scheme",
                    "S=B C",
                    "--cardinality",
                    "R=10000",
                    "--memory-budget",
                    "64",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "grace hash join" in output
        assert "budget=64" in output
        assert "est_partitions=" in output

    def test_engine_explain_paper_reports_budget(self, capsys):
        assert main(["engine-explain", "--paper", "--memory-budget", "40"]) == 0
        output = capsys.readouterr().out
        assert "budget 40 rows" in output
        assert "peak build rows" in output

    def test_engine_explain_rejects_bad_budget(self):
        with pytest.raises(SystemExit, match="memory-budget"):
            main(["engine-explain", "--paper", "--memory-budget", "0"])

    def test_blowup_memory_budget_reports_spill_delta(self, capsys):
        # The summary must be a per-invocation delta, not cumulative process
        # totals.  The table's query, project[S](phi_G), plans as one scan of
        # R (the planner minimizes it), so at m=10 under a 96-row budget it
        # spills nothing; a spilling run of pi_Y(phi_G) just before each
        # invocation, in this process, must not show up in its report.
        import re

        from repro.engine import EngineEvaluator
        from repro.perf import kernel_counters
        from repro.reductions import RGConstruction
        from repro.workloads import growing_construction_family

        construction = RGConstruction(
            growing_construction_family(clause_counts=(10,))[0].formula
        )

        def spill_first():
            before = kernel_counters().snapshot()
            EngineEvaluator(budget=96).evaluate(
                construction.pair_projection_expression(), construction.relation
            )
            assert kernel_counters().delta_since(before)["spill_rows"] > 0

        def spilled_rows(output):
            return int(re.search(r"(\d+) row\(s\) spilled", output).group(1))

        argv = ["blowup", "--clauses", "10", "--memory-budget", "96"]
        spill_first()
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "engine ran budgeted at 96 rows:" in first
        assert spilled_rows(first) == 0
        spill_first()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert spilled_rows(second) == spilled_rows(first)

    def test_blowup_rejects_bad_budget(self):
        with pytest.raises(SystemExit, match="memory-budget"):
            main(["blowup", "--clauses", "3", "--memory-budget", "-5"])

    def test_engine_explain_requires_an_expression_or_paper(self):
        with pytest.raises(SystemExit):
            main(["engine-explain"])

    def test_engine_explain_paper_conflicts_with_stats_options(self):
        with pytest.raises(SystemExit):
            main(["engine-explain", "R * S", "--scheme", "R=A B", "--paper"])

    def test_engine_explain_rejects_malformed_scheme_option(self):
        with pytest.raises(SystemExit):
            main(["engine-explain", "R * S", "--scheme", "R:A B"])

    def test_engine_explain_rejects_non_integer_cardinality(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "engine-explain",
                    "R * S",
                    "--scheme",
                    "R=A B",
                    "--scheme",
                    "S=B C",
                    "--cardinality",
                    "R=abc",
                ]
            )

    def test_engine_explain_rejects_absurd_cardinality(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "engine-explain",
                    "R * S",
                    "--scheme",
                    "R=A B",
                    "--scheme",
                    "S=B C",
                    "--cardinality",
                    "R=" + "9" * 40,
                ]
            )

    def test_engine_explain_rejects_unknown_cardinality_name(self):
        # A typo'd operand name must not silently fall back to the default.
        with pytest.raises(SystemExit):
            main(
                [
                    "engine-explain",
                    "R * S",
                    "--scheme",
                    "R=A B",
                    "--scheme",
                    "S=B C",
                    "--cardinality",
                    "r=1000000",
                ]
            )

    def test_short_formula_is_normalised_not_rejected(self, capsys):
        # A 2-literal clause and fewer than 3 clauses: the CLI normalises via
        # the strict-3CNF conversion and minimum-clause padding.
        assert main(["count", "(a | b)"]) == 0
        output = capsys.readouterr().out
        assert "#SAT" in output
