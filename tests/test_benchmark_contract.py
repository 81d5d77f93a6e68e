"""The library and CLI calls that ``perfbench/workloads.py`` makes, scaled down to n = 6.

The benchmark calls ``solver.solve_adaptive`` and ``cli.run_benchmark``
directly, and runs ``asmd gen`` and ``asmd solve`` through ``cli.main``.
If one of them changed its signature or behaviour, the benchmark would
only report failed solves, so the same calls are made here.
"""

import csv
import dataclasses
import json

import pytest

from asmd import cli, problems, solver
from asmd.geometry import on_simplex

EPSILON = 0.1


@pytest.mark.parametrize("geometry", ["entropy", "euclidean"])
@pytest.mark.parametrize("mode", ["exact", "column"])
def test_solve_adaptive_calls(geometry, mode):
    problem = problems.generate_instance(
        n=6, m_count=10, density=0.1, seed=7, geometry=geometry, oracle=mode)
    for seed in (0, 1):
        config = solver.SolverConfig(epsilon=EPSILON, seed=seed, record_trace=False)
        result = solver.solve_adaptive(problem, config)
        assert result.stop_reason == solver.CRITERION_MET
        assert result.trace == []
        assert on_simplex(result.x_bar)
        assert problem.constraint_value(result.x_bar) <= EPSILON
    warm_up = solver.SolverConfig(
        epsilon=EPSILON, seed=0, max_iterations=100, record_trace=False)
    assert solver.solve_adaptive(problem, warm_up).N <= 100


def test_run_benchmark_call():
    base = problems.generate_instance(n=6, m_count=10, density=0.1, seed=7)
    for problem in (base, dataclasses.replace(base, oracle_mode="column")):
        rows = cli.run_benchmark(
            problem, EPSILON, 1, ["adaptive", "fixed"], ["exact", "column"],
            base_seed=3, jobs=1)
        assert len(rows) == 4
        for row in rows:
            assert row.status == "ok"
            assert row.seeds_run == 1
            assert row.within_bound is not False
            assert row.mean_g_value <= EPSILON


def test_cli_gen_and_solve_calls(tmp_path, capsys):
    instance, trace, result = (str(tmp_path / name) for name in
                               ("instance.json", "trace.csv", "result.json"))
    assert cli.main(["gen", "--n", "6", "--m", "10", "--density", "0.1", "--seed", "7",
                     "--oracle", "column", "--out", instance]) == 0
    lengths = []
    for seed in ("5", "0"):
        assert cli.main(["solve", "--problem", instance, "--epsilon", repr(EPSILON), "--seed", seed,
                         "--trace-out", trace, "--result-out", result, "--no-timestamp"]) == 0
        capsys.readouterr()
        with open(result, encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(trace, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert doc["stop_reason"] == solver.CRITERION_MET
        assert len(rows) == doc["N"] + 1
        assert rows[0][-1] == "f_value"
        assert all(row[-1] != "" for row in rows[1:])
        lengths.append(doc["N"])
    # seed 5 draws a zero column first and stops at step 1; seed 0 runs
    # several blocks of trace f-values, the last one partial
    assert lengths[0] == 1
    assert lengths[1] > solver.TRACE_BLOCK and lengths[1] % solver.TRACE_BLOCK != 0
