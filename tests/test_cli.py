import csv
import dataclasses
import json

import numpy as np
import pytest

from asmd import cli, problems
from asmd.cli import main, run_benchmark
from asmd.fixtures import LINEAR_N2, QUADRATIC_N3, fixture_path, load_fixture
from asmd.oracle import MaxLinearConstraint, QuadraticObjective
from asmd.problems import (
    InstanceValidationError,
    ProblemInstance,
    generate_instance,
    load_problem,
    reference_optimum,
    save_problem,
    uniform_subgradient_bound,
)
from asmd.solver import (
    ADAPTIVE,
    FIXED,
    SolverConfig,
    solve_adaptive,
    solve_fixed,
    worst_case_iterations,
)

from conftest import BAD_PACKED, REMOVED_FORMS, dense_text_json, packed_objective


def run_cli(*args):
    return main([str(a) for a in args])


class TestGen:
    def test_generates_loadable_file(self, tmp_path):
        out = tmp_path / "a.json"
        assert run_cli("gen", "--n", 50, "--m", 10, "--seed", 7, "--out", out) == 0
        problem = load_problem(out)
        assert problem.dimension == 50
        assert problem.constraint.count == 10

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--n", 20, "--seed", 3, "--out", a)
        run_cli("gen", "--n", 20, "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_n_floor_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("gen", "--n", 1, "--out", tmp_path / "x.json")
        assert err.value.code == 2
        assert "--n" in capsys.readouterr().err

    def test_memory_error_is_an_error_exit(self, tmp_path, monkeypatch, capsys):
        # raised, never allocated: an overcommitting host could grant it; a
        # bare MemoryError has no message, so its name stands in
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "generate_instance", refuse)
        out = tmp_path / "huge.json"
        assert run_cli("gen", "--n", 1_000_000, "--out", out) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()


class TestSolve:
    def test_linear_fixture(self, tmp_path):
        result_path = tmp_path / "result.json"
        trace_path = tmp_path / "trace.csv"
        code = run_cli(
            "solve",
            "--problem", fixture_path(LINEAR_N2),
            "--epsilon", 0.05,
            "--result-out", result_path,
            "--trace-out", trace_path,
            "--no-timestamp",
        )
        assert code == 0
        doc = json.loads(result_path.read_text())
        assert doc["stop_reason"] == "criterion_met"
        assert doc["g_value"] <= 0.05
        assert doc["f_value"] <= 0.05
        assert len(doc["x_bar_digest"]) == 8
        with open(trace_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "productive", "M_k", "h_k", "g_value", "f_value"]
        assert len(rows) - 1 == doc["N"]
        assert sum(int(r[1]) for r in rows[1:]) == doc["N_I"]

    def test_result_matches_library_run(self, tmp_path):
        result_path = tmp_path / "result.json"
        run_cli(
            "solve",
            "--problem", fixture_path(QUADRATIC_N3),
            "--epsilon", 0.05,
            "--seed", 5,
            "--result-out", result_path,
            "--no-timestamp",
        )
        doc = json.loads(result_path.read_text())
        lib = solve_adaptive(load_fixture(QUADRATIC_N3), SolverConfig(epsilon=0.05, seed=5))
        assert doc["N"] == lib.N
        assert doc["N_I"] == lib.N_I
        np.testing.assert_array_equal(np.array(doc["x_bar"]), lib.x_bar)

    def test_byte_identical_reruns(self, tmp_path):
        # a run without --trace-out records no trace and writes the same result
        paths = []
        for tag in ("one", "two", "untraced"):
            result_path = tmp_path / f"{tag}.json"
            trace_path = tmp_path / f"{tag}.csv"
            trace_args = [] if tag == "untraced" else ["--trace-out", trace_path]
            run_cli(
                "solve",
                "--problem", fixture_path(QUADRATIC_N3),
                "--epsilon", 0.05,
                "--seed", 11,
                "--result-out", result_path,
                *trace_args,
                "--no-timestamp",
            )
            paths.append((result_path, trace_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes() == paths[2][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
        assert not paths[2][1].exists()

    def test_timestamp_toggle(self, tmp_path):
        with_ts = tmp_path / "ts.json"
        without_ts = tmp_path / "nots.json"
        run_cli("solve", "--problem", fixture_path(LINEAR_N2), "--epsilon", 0.1,
                "--result-out", with_ts)
        run_cli("solve", "--problem", fixture_path(LINEAR_N2), "--epsilon", 0.1,
                "--result-out", without_ts, "--no-timestamp")
        assert "timestamp" in json.loads(with_ts.read_text())
        assert "timestamp" not in json.loads(without_ts.read_text())

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = run_cli("solve", "--problem", tmp_path / "absent.json", "--epsilon", 0.1)
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param({"indices": [0.7, 1]}, "'constraints.sparse[0].indices'",
                         id="real-index"),
            pytest.param({"indices": [True, 1]}, "'constraints.sparse[0].indices'",
                         id="bool-index"),
            pytest.param({"indices": 5}, "'constraints.sparse[0].indices'", id="int-indices"),
            pytest.param({"indices": None}, "'constraints.sparse[0].indices'",
                         id="null-indices"),
            pytest.param({"sparse": 5}, "'constraints.sparse'", id="int-sparse"),
            pytest.param({"n": True}, "'n'", id="bool-n"),
        ],
    )
    def test_non_integer_index_is_rejected(self, edit, field, tmp_path, capsys):
        # a cast would read 0.7 or true as index 0 or 1, a different problem
        doc = json.loads(fixture_path(LINEAR_N2).read_text(encoding="utf-8"))
        if "indices" in edit:
            doc["constraints"]["sparse"][0] = {"indices": edit["indices"], "values": [1.0, 1.0]}
        elif "sparse" in edit:
            doc["constraints"]["sparse"] = edit["sparse"]
        else:
            doc.update(edit)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("solve", "--problem", bad, "--epsilon", 0.1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err

    @pytest.mark.parametrize("objective", REMOVED_FORMS)
    def test_removed_matrix_forms_are_refused(self, objective, tmp_path, capsys):
        doc = json.loads(fixture_path(LINEAR_N2).read_text(encoding="utf-8"))
        doc["objective"] = objective
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("solve", "--problem", bad, "--epsilon", 0.1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "needs 'packed' or 'A'" in err

    @pytest.mark.parametrize("edits, error, key", BAD_PACKED)
    def test_bad_packed_matrix_is_rejected(self, edits, error, key, tmp_path, capsys):
        doc = json.loads(fixture_path(LINEAR_N2).read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        doc["objective"] = packed_objective()
        bad.write_text(json.dumps(doc))
        assert run_cli("solve", "--problem", bad, "--epsilon", 0.1) == 0
        doc["objective"] = packed_objective(**edits)
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("solve", "--problem", bad, "--epsilon", 0.1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'objective.packed.{key}'" in err

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_text_and_packed_files_solve_alike(self, seed, tmp_path):
        # the same bytes out whichever form the matrix was read from; the dense
        # text holds the matrix the packed file loads to, whose zeros are +0.0
        for problem in (load_fixture(QUADRATIC_N3), generate_instance(30, seed=4)):
            text, packed = tmp_path / "text.json", tmp_path / "packed.json"
            save_problem(problem, packed)
            text.write_text(dense_text_json(load_problem(packed)), encoding="utf-8")
            outputs = []
            for inst in (text, packed):
                result, trace = (tmp_path / f"{inst.stem}{ext}" for ext in ("-result.json", ".csv"))
                code = run_cli("solve", "--problem", inst, "--epsilon", 0.05, "--seed", seed,
                               "--trace-out", trace, "--result-out", result, "--no-timestamp")
                outputs.append((code, result.read_bytes(), trace.read_bytes()))
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0

    def test_non_reals_are_rejected(self, tmp_path, capsys):
        # read as reals, these would solve as c = [1.0, 1.5] with margin 1.0
        doc = json.loads(fixture_path(LINEAR_N2).read_text(encoding="utf-8"))
        for edit, field in (({"objective": {"type": "linear", "c": [True, "1.5"]}}, "objective.c"),
                            ({"margin": "1"}, "margin")):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(dict(doc, **edit)))
            assert run_cli("solve", "--problem", bad, "--epsilon", 0.1) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and f"'{field}'" in err

    def test_entropy_n1_file_rejected_at_load(self, tmp_path, capsys):
        doc = {"name": "n1", "n": 1, "objective": {"type": "linear", "c": [0.5]},
               "constraints": {"sparse": [{"indices": [], "values": []}], "offsets": [1.0]},
               "geometry": "entropy", "oracle": "exact", "witness": [1.0], "margin": 1.0}
        inst = tmp_path / "n1.json"
        inst.write_text(json.dumps(doc))
        assert run_cli("solve", "--problem", inst, "--epsilon", 0.1) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n >= 2" in err
        # the same file with the Euclidean setup solves
        inst.write_text(json.dumps(dict(doc, geometry="euclidean")))
        assert run_cli("solve", "--problem", inst, "--epsilon", 0.1) == 0

    def test_fixed_without_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("solve", "--problem", fixture_path(LINEAR_N2), "--epsilon", 0.1,
                    "--variant", "fixed")
        assert err.value.code == 2
        assert "--fixed-M" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, setting, variant",
        [
            (["--variant", "fixed", "--fixed-M", 1, "--max-iterations", 5],
             "max_iterations", "fixed"),
            (["--fixed-M", 3], "fixed_M", "adaptive"),
        ],
        ids=["max-iterations-fixed", "fixed-M-adaptive"],
    )
    def test_setting_of_the_other_variant_is_refused(self, args, setting, variant, capsys):
        code = run_cli("solve", "--problem", fixture_path(QUADRATIC_N3), "--epsilon", 0.1, *args)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert setting in captured.err and f"{variant} variant" in captured.err

    def test_memory_error_is_an_error_exit(self, monkeypatch, capsys):
        # raised, never allocated: an overcommitting host could grant it
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(problems, "_upper_matrix", refuse)
        assert run_cli("solve", "--problem", fixture_path(QUADRATIC_N3), "--epsilon", 0.1) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 7.28 TiB\n"

    def test_cap_reached_exit_code(self, tmp_path):
        code = run_cli(
            "solve",
            "--problem", fixture_path(LINEAR_N2),
            "--epsilon", 0.001,
            "--max-iterations", 10,
        )
        assert code == 2

    def test_no_partial_file_on_failure(self, tmp_path):
        target = tmp_path / "result.json"
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code = run_cli("solve", "--problem", bad, "--epsilon", 0.1, "--result-out", target)
        assert code == 1
        assert not target.exists()
        assert not list(tmp_path.glob("*.part"))

    def test_huge_euclidean_step(self, tmp_path, capsys):
        # h = 5e18 sends the prox input past 2**53, where the projection
        # needs its max shift
        inst = tmp_path / "inst.json"
        assert run_cli("gen", "--n", 5, "--seed", 1, "--geometry", "euclidean", "--out", inst) == 0
        code = run_cli(
            "solve", "--problem", inst, "--variant", "fixed", "--fixed-M", 1e-10,
            "--epsilon", 0.05,
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("criterion_met:")


class TestDegenerateNumbers:
    @pytest.mark.parametrize(
        "args",
        [
            ["--epsilon", 1e-200],
            ["--epsilon", 1e-200, "--variant", "fixed", "--fixed-M", 1e-200],
            ["--epsilon", 1e-200, "--variant", "fixed", "--fixed-M", 1e200],
            ["--epsilon", 1e-200, "--variant", "fixed", "--fixed-M", "inf"],
            ["--epsilon", 0.05, "--variant", "fixed", "--fixed-M", 1e-200],
            ["--epsilon", "inf", "--variant", "fixed", "--fixed-M", 1.0],
        ],
    )
    def test_solve_exits_with_error(self, args, capsys):
        assert run_cli("solve", "--problem", fixture_path(QUADRATIC_N3), *args) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fixed_m", [1e-200, 1e200, "inf"])
    def test_benchmark_keeps_adaptive_rows(self, fixed_m, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "benchmark",
            "--problem", fixture_path(QUADRATIC_N3),
            "--epsilon", 0.05,
            "--seeds", 2,
            "--oracle-modes", "exact,column",
            "--fixed-M", fixed_m,
            "--out", out,
        )
        assert code == 1
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["variant"], r["status"] == "ok") for r in rows] == [
            ("adaptive", True), ("adaptive", True), ("fixed", False), ("fixed", False)
        ]
        assert all(r["status"].startswith("error: ") for r in rows[2:])
        assert "error: " in capsys.readouterr().out

    def test_error_rows_are_blank(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        run_cli(
            "benchmark",
            "--problem", fixture_path(QUADRATIC_N3),
            "--epsilon", 0.05,
            "--seeds", 3,
            "--oracle-modes", "exact,column",
            "--fixed-M", 1e-200,
            "--out", out,
        )
        capsys.readouterr()
        with open(out) as fh:
            rows = [r for r in csv.DictReader(fh) if r["status"] != "ok"]
        assert len(rows) == 2
        kept = {"variant", "oracle_mode", "status", "seeds_run"}
        for row in rows:
            assert row["seeds_run"] == "0"
            assert all(row[name] == "" for name in row if name not in kept)


class TestBenchmark:
    def test_single_seed_matches_solve(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "benchmark",
            "--problem", fixture_path(QUADRATIC_N3),
            "--epsilon", 0.05,
            "--seeds", 1,
            "--variants", "adaptive",
            "--out", out,
        )
        assert code == 0
        lib = solve_adaptive(load_fixture(QUADRATIC_N3), SolverConfig(epsilon=0.05, seed=0))
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["variant"] == "adaptive"
        assert float(row["mean_N"]) == lib.N
        assert float(row["mean_N_I"]) == lib.N_I
        assert row["status"] == "ok"
        assert row["within_bound"] == "1"
        capsys.readouterr()

    def test_variant_and_oracle_sweep(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "benchmark",
            "--problem", fixture_path(QUADRATIC_N3),
            "--epsilon", 0.05,
            "--seeds", 3,
            "--variants", "adaptive,fixed",
            "--oracle-modes", "exact,column",
            "--jobs", 2,
            "--out", out,
        )
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {(r["variant"], r["oracle_mode"]) for r in rows} == {
            ("adaptive", "exact"),
            ("adaptive", "column"),
            ("fixed", "exact"),
            ("fixed", "column"),
        }
        for row in rows:
            assert row["status"] == "ok"
            assert row["mean_f_gap"] != ""
            if row["variant"] == "adaptive":
                assert row["within_bound"] == "1"
                assert float(row["mean_N"]) <= int(row["worst_case_N"])
        with open(out) as fh:
            header = next(csv.reader(fh))
        assert header == [
            "variant", "oracle_mode", "seeds_run", "mean_N", "mean_N_I", "mean_M_bar",
            "mean_f_gap", "stderr_f_gap", "mean_g_value", "worst_case_N", "within_bound",
            "status",
        ]
        table = capsys.readouterr().out
        assert table.split()[: len(header)] == header

    def test_hundred_seed_column_statistics(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = run_cli(
            "benchmark",
            "--problem", fixture_path(QUADRATIC_N3),
            "--epsilon", 0.05,
            "--seeds", 100,
            "--variants", "adaptive",
            "--oracle-modes", "column",
            "--out", out,
        )
        assert code == 0
        with open(out) as fh:
            row = next(csv.DictReader(fh))
        assert row["seeds_run"] == "100"
        mean_gap = float(row["mean_f_gap"])
        stderr = float(row["stderr_f_gap"])
        assert mean_gap <= 0.05 + 3 * stderr
        assert float(row["mean_g_value"]) <= 0.05
        capsys.readouterr()

    def test_deterministic_given_seed_list(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            run_cli(
                "benchmark",
                "--problem", fixture_path(QUADRATIC_N3),
                "--epsilon", 0.05,
                "--seeds", 2,
                "--seed", 9,
                "--oracle-modes", "column",
                "--variants", "adaptive",
                "--out", out,
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()

    def test_exact_cell_solves_once(self, monkeypatch):
        # only a column draw reads a solve's stream, so an exact cell is one run
        calls = []
        for name in ("solve_adaptive", "solve_fixed"):
            solve = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda problem, config, solve=solve: (
                calls.append((config.variant, problem.oracle_mode)) or solve(problem, config)))
        seeds = 3
        rows = run_benchmark(
            load_fixture(QUADRATIC_N3), 0.05, seeds, [ADAPTIVE, FIXED], ["exact", "column"])
        assert [row.seeds_run for row in rows] == [seeds] * 4
        assert sorted(calls) == sorted(
            [(ADAPTIVE, "exact"), (FIXED, "exact")] + [(ADAPTIVE, "column"), (FIXED, "column")] * seeds
        )

    def test_exact_cell_table_matches_separate_solves(self, monkeypatch, tmp_path, capsys):
        def separate_solves(problem, variant, mode, epsilon, seeds, base_seed, fixed_m, jobs):
            cell = dataclasses.replace(problem, oracle_mode=mode)
            return [
                cli._solve_dispatch(cell, SolverConfig(
                    epsilon=epsilon,
                    seed=base_seed + i,
                    variant=variant,
                    fixed_M=fixed_m if variant == FIXED else None,
                    record_trace=False,
                ))
                for i in range(seeds)
            ]

        outs = []
        for cell_runs in (cli._benchmark_cell_runs, separate_solves):
            monkeypatch.setattr(cli, "_benchmark_cell_runs", cell_runs)
            out = tmp_path / f"{len(outs)}.csv"
            assert run_cli(
                "benchmark", "--problem", fixture_path(QUADRATIC_N3), "--epsilon", 0.05,
                "--seeds", 3, "--oracle-modes", "exact,column", "--out", out,
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        capsys.readouterr()

    def test_grid_that_misses_the_feasible_set_leaves_gaps_blank(self, tmp_path, capsys):
        # x_0 must lie within 0.002 of 1/3, so the grid's 0.33 and 0.34 both miss
        band = ProblemInstance(
            name="band",
            dimension=4,
            objective=QuadraticObjective(np.eye(4)),
            constraint=MaxLinearConstraint(
                [([0], [1.0]), ([0], [-1.0])], [1 / 3 + 0.002, -1 / 3 + 0.002], 4),
            geometry_kind="entropy",
            oracle_mode="exact",
            feasible_witness=[1 / 3, 2 / 9, 2 / 9, 2 / 9],
            margin=0.002,
        )
        with pytest.raises(InstanceValidationError, match="no feasible grid point"):
            reference_optimum(band)
        path, out = tmp_path / "band.json", tmp_path / "bench.csv"
        save_problem(band, path)
        assert run_cli("benchmark", "--problem", path, "--epsilon", 0.05, "--seeds", 2,
                       "--out", out) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["variant"] for row in rows] == [ADAPTIVE, FIXED]
        for row in rows:
            assert row["status"] == "ok"
            assert row["mean_f_gap"] == row["stderr_f_gap"] == ""
            blank = {"mean_f_gap", "stderr_f_gap"}
            if row["variant"] == FIXED:
                blank.add("within_bound")  # the fixed variant has no bound to meet
            assert all(row[name] != "" for name in row if name not in blank)
        lib = solve_adaptive(band, SolverConfig(epsilon=0.05, seed=0))
        assert float(rows[0]["mean_N"]) == lib.N == 288

    def test_sweep_runs_untraced(self, monkeypatch):
        # n > 4 has no reference gaps, so an untraced sweep never evaluates f;
        # its worst-case N must still come from the largest sample norm M_k
        problem = generate_instance(6, m_count=10, density=0.1, seed=7)
        epsilon, seeds, base_seed = 0.1, 3, 4
        calls = []
        value = QuadraticObjective.value
        monkeypatch.setattr(
            QuadraticObjective, "value", lambda self, x: calls.append(1) or value(self, x)
        )
        rows = run_benchmark(
            problem, epsilon, seeds, [ADAPTIVE, FIXED], ["exact", "column"], base_seed=base_seed
        )
        assert calls == []
        fixed_m = uniform_subgradient_bound(problem)
        radius = problem.geometry().radius
        for row in rows:
            cell = dataclasses.replace(problem, oracle_mode=row.oracle_mode)
            solve = solve_adaptive if row.variant == ADAPTIVE else solve_fixed
            traced = [
                solve(cell, SolverConfig(
                    epsilon=epsilon,
                    seed=base_seed + i,
                    variant=row.variant,
                    fixed_M=fixed_m if row.variant == FIXED else None,
                ))
                for i in range(seeds)
            ]
            m_hat = max(max(rec.M_k for rec in r.trace) for r in traced)
            assert row.status == "ok"
            assert row.mean_N == np.mean([r.N for r in traced])
            assert row.worst_case_N == worst_case_iterations(m_hat, radius, epsilon, row.variant)
            if row.variant == ADAPTIVE:
                assert row.within_bound == all(r.N <= row.worst_case_N for r in traced)

    @pytest.mark.parametrize(
        "flag, text",
        [
            ("--variants", ","),
            ("--variants", ""),
            ("--variants", "adaptive,nope"),
            ("--oracle-modes", ","),
            ("--oracle-modes", ""),
            ("--oracle-modes", "exact,nope"),
        ],
    )
    def test_bad_choice_list_is_usage_error(self, flag, text, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "benchmark", "--problem", fixture_path(QUADRATIC_N3), "--epsilon", 0.05,
                flag, text,
            )
        assert err.value.code == 2
        assert "choose from" in capsys.readouterr().err


class TestValidate:
    def test_default_suites_pass(self, capsys):
        code = run_cli("validate", "--samples", 20000)
        out = capsys.readouterr().out
        assert code == 0
        for name in ("unbiasedness", "stepsum", "step-residual", "telescoping"):
            assert f"PASS {name}" in out

    def test_suite_selection(self, capsys):
        code = run_cli("validate", "--suites", "stepsum")
        out = capsys.readouterr().out
        assert code == 0
        assert "stepsum" in out
        assert "unbiasedness" not in out

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("validate", "--suites", "everything")
        assert err.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("text", [",", ""])
    def test_empty_suite_list_is_usage_error(self, text, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("validate", "--suites", text)
        assert err.value.code == 2
        assert "choose from" in capsys.readouterr().err


class TestFixtures:
    def test_quadratic_fixture_shape(self):
        problem = load_fixture(QUADRATIC_N3)
        assert problem.dimension == 3
        assert problem.constraint.count == 3
        assert problem.geometry_kind == "entropy"
        # convexity: the quadratic matrix must be positive semidefinite
        assert np.linalg.eigvalsh(problem.objective.matrix).min() >= 0

    def test_linear_fixture_constraint_constant(self):
        problem = load_fixture(LINEAR_N2)
        rng = np.random.default_rng(2)
        for x in rng.dirichlet(np.ones(2), size=20):
            assert problem.constraint_value(x) == -1.0

    def test_unknown_fixture(self):
        for reader in (fixture_path, load_fixture):
            with pytest.raises(FileNotFoundError, match="no bundled fixture"):
                reader("nonexistent.json")
