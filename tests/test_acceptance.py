"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with the measured margin (run with ``pytest -s`` to see
them). The solves feeding several criteria are shared through module-scoped
fixtures so the suite stays fast."""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from asmd.checks import min_step_residual, stepsum_gap, telescoping_bound_check, unbiasedness_report
from asmd.cli import main as cli_main
from asmd.fixtures import QUADRATIC_N3, fixture_path
from asmd.oracle import RngStream
from asmd.problems import (
    generate_instance,
    reference_optimum,
    save_problem,
    uniform_subgradient_bound,
)
from asmd.solver import (
    CRITERION_MET,
    FIXED,
    SolverConfig,
    solve_adaptive,
    solve_fixed,
    worst_case_iterations,
)

EPS_DETERMINISTIC = 0.01
EPS_STOCHASTIC = 0.05
STOCHASTIC_SEEDS = 100


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def det_quad_run(quad_problem):
    config = SolverConfig(epsilon=EPS_DETERMINISTIC, seed=0)
    start = time.perf_counter()
    result = solve_adaptive(quad_problem, config)
    elapsed = time.perf_counter() - start
    return config, result, elapsed


@pytest.fixture(scope="module")
def det_linear_run(linear_problem):
    config = SolverConfig(epsilon=EPS_STOCHASTIC, seed=0)
    return config, solve_adaptive(linear_problem, config)


@pytest.fixture(scope="module")
def fixed_quad_run(quad_problem):
    bound = uniform_subgradient_bound(quad_problem)
    config = SolverConfig(epsilon=EPS_STOCHASTIC, variant=FIXED, fixed_M=bound, seed=0)
    return config, solve_fixed(quad_problem, config)


@pytest.fixture(scope="module")
def stochastic_runs(quad_problem):
    problem = dataclasses.replace(quad_problem, oracle_mode="column")
    configs, results = [], []
    start = time.perf_counter()
    for i in range(STOCHASTIC_SEEDS):
        config = SolverConfig(epsilon=EPS_STOCHASTIC, seed=3000 + i)
        configs.append(config)
        results.append(solve_adaptive(problem, config))
    elapsed = time.perf_counter() - start
    return problem, configs, results, elapsed


@pytest.fixture(scope="module")
def adaptive_runs(det_quad_run, det_linear_run, stochastic_runs, quad_problem, linear_problem):
    """Every adaptive run the acceptance suite performs, for the sweeping
    bound and feasibility criteria."""
    runs = [
        ("det-quad", quad_problem, det_quad_run[0], det_quad_run[1]),
        ("det-linear", linear_problem, det_linear_run[0], det_linear_run[1]),
    ]
    problem, configs, results, _ = stochastic_runs
    runs += [
        (f"column-{cfg.seed}", problem, cfg, res) for cfg, res in zip(configs, results)
    ]
    return runs


def test_criterion_01_deterministic_accuracy(quad_problem, quad_reference, det_quad_run):
    config, result, elapsed = det_quad_run
    gap = quad_problem.objective_value(result.x_bar) - quad_reference.f_star
    g_value = quad_problem.constraint_value(result.x_bar)
    ok = (
        result.stop_reason == CRITERION_MET
        and gap <= EPS_DETERMINISTIC + 2e-3
        and g_value <= EPS_DETERMINISTIC
        and elapsed < 5.0
    )
    report(
        "criterion-01 deterministic-accuracy",
        ok,
        f"stop={result.stop_reason} f_gap={gap:.6f} (<= {EPS_DETERMINISTIC + 2e-3}) "
        f"g={g_value:.6f} (<= {EPS_DETERMINISTIC}) runtime={elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_iteration_bound(adaptive_runs):
    worst_ratio = 0.0
    checked = 0
    for label, problem, config, result in adaptive_runs:
        if result.stop_reason != CRITERION_MET:
            continue
        m_hat = max(rec.M_k for rec in result.trace)
        if m_hat == 0.0:
            continue
        bound = worst_case_iterations(m_hat, problem.geometry().radius, config.epsilon)
        checked += 1
        worst_ratio = max(worst_ratio, result.N / bound)
        if result.N > bound:
            report("criterion-02 iteration-bound", False, f"{label}: N={result.N} > {bound}")
    report(
        "criterion-02 iteration-bound",
        checked > 0,
        f"{checked} runs, worst N / ceil(4 M^2 R^2 / eps^2) = {worst_ratio:.3f}",
    )


def test_criterion_03_per_run_feasibility(adaptive_runs, fixed_quad_run):
    worst = -math.inf
    runs = list(adaptive_runs) + [("fixed-quad", adaptive_runs[0][1], *fixed_quad_run)]
    for label, problem, config, result in runs:
        g_value = problem.constraint_value(result.x_bar)
        worst = max(worst, g_value - config.epsilon)
        if g_value > config.epsilon:
            report(
                "criterion-03 per-run-feasibility",
                False,
                f"{label}: g(x_bar)={g_value} > eps={config.epsilon}",
            )
    report(
        "criterion-03 per-run-feasibility",
        True,
        f"{len(runs)} runs, worst g(x_bar) - eps = {worst:.3e} (<= 0)",
    )


def test_criterion_04_stochastic_mean_accuracy(quad_reference, stochastic_runs):
    problem, configs, results, elapsed = stochastic_runs
    gaps = np.array(
        [problem.objective_value(r.x_bar) - quad_reference.f_star for r in results]
    )
    stderr = float(np.std(gaps, ddof=1) / math.sqrt(len(gaps)))
    mean_gap = float(gaps.mean())
    ok = mean_gap <= EPS_STOCHASTIC + 3 * stderr and elapsed < 60.0
    report(
        "criterion-04 stochastic-mean-accuracy",
        ok,
        f"{len(results)} seeds: mean f_gap={mean_gap:.5f} "
        f"(<= {EPS_STOCHASTIC} + 3*{stderr:.5f}) runtime={elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_oracle_unbiasedness():
    start = time.perf_counter()
    problem = generate_instance(20, m_count=5, density=0.3, margin=0.05, seed=414)
    point_rng = np.random.default_rng(415)
    worst = 0.0
    for i in range(5):
        x = point_rng.dirichlet(np.ones(20))
        rep = unbiasedness_report(problem.objective, x, 100_000, RngStream(500 + i))
        dev = np.abs(rep.empirical_mean - rep.reference)
        for d, s in zip(dev, rep.stderr):
            if s == 0.0:
                if d != 0.0:
                    report("criterion-05 oracle-unbiasedness", False,
                           f"zero-variance component deviated by {d:.2e}")
            else:
                worst = max(worst, d / s)
    elapsed = time.perf_counter() - start
    ok = worst <= 4.0 and elapsed < 5.0
    report(
        "criterion-05 oracle-unbiasedness",
        ok,
        f"20x20 instance, 5 points x 1e5 samples: max |dev|/stderr={worst:.3f} (<= 4) "
        f"runtime={elapsed:.2f}s (< 5s)",
    )


def test_criterion_06_stepsum_inequality():
    rng = np.random.default_rng(606)
    worst = math.inf
    count = 10_000
    for _ in range(count):
        length = int(rng.integers(1, 101))
        alpha = 10.0 ** rng.uniform(-6.0, 6.0, size=length)
        if rng.random() < 0.05:
            alpha[rng.random(length) < 0.5] = 0.0
        worst = min(worst, stepsum_gap(alpha))
    report(
        "criterion-06 stepsum-inequality",
        worst >= -1e-10,
        f"{count} sequences (lengths 1-100, magnitudes 1e-6..1e6): "
        f"min gap={worst:.3e} (>= -1e-10)",
    )


def test_criterion_07_step_residual(
    quad_problem, linear_problem, det_quad_run, det_linear_run, fixed_quad_run
):
    rng = np.random.default_rng(707)
    worst = math.inf
    cases = [
        ("det-quad", quad_problem, det_quad_run[0]),
        ("det-linear", linear_problem, det_linear_run[0]),
        ("fixed-quad", quad_problem, fixed_quad_run[0]),
    ]
    for label, problem, config in cases:
        refs = rng.dirichlet(np.ones(problem.dimension), size=10)
        worst = min(worst, min_step_residual(problem, config, refs))
    report(
        "criterion-07 step-residual",
        worst >= -1e-8,
        f"{len(cases)} deterministic runs x 10 reference points: "
        f"min residual={worst:.3e} (>= -1e-8)",
    )


def test_criterion_08_telescoping_bound(
    quad_problem,
    linear_problem,
    quad_reference,
    det_quad_run,
    det_linear_run,
    fixed_quad_run,
):
    linear_reference = reference_optimum(linear_problem, 1e-3)
    cases = [
        ("det-quad", quad_problem, det_quad_run[1], quad_reference.x_star),
        ("det-linear", linear_problem, det_linear_run[1], linear_reference.x_star),
        ("fixed-quad", quad_problem, fixed_quad_run[1], quad_reference.x_star),
    ]
    worst = -math.inf
    for label, problem, result, ref in cases:
        rep = telescoping_bound_check(result.trace, problem.geometry(), problem, ref)
        worst = max(worst, rep.lhs - rep.rhs)
        if not rep.holds:
            report("criterion-08 telescoping-bound", False,
                   f"{label}: lhs={rep.lhs:.6e} > rhs={rep.rhs:.6e}")
    report(
        "criterion-08 telescoping-bound",
        True,
        f"{len(cases)} deterministic runs vs grid reference: "
        f"max lhs - rhs = {worst:.3e} (<= 1e-8)",
    )


def test_criterion_09_fixed_baseline(quad_problem, quad_reference, linear_problem, fixed_quad_run):
    euclidean = dataclasses.replace(linear_problem, geometry_kind="euclidean")
    unit = solve_fixed(euclidean, SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=1.0))
    config, result = fixed_quad_run
    gap = quad_problem.objective_value(result.x_bar) - quad_reference.f_star
    observed = max(rec.M_k for rec in result.trace)
    ok = unit.N == 200 and gap <= config.epsilon and observed <= config.fixed_M
    report(
        "criterion-09 fixed-baseline",
        ok,
        f"M=1 R=1 eps=0.1 ran N={unit.N} (= 200); measured bound M={config.fixed_M}: "
        f"f_gap={gap:.5f} (<= {config.epsilon}), max observed M_k={observed:.4f}",
    )


def test_criterion_10_benchmark_report(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = cli_main(
        [
            "benchmark",
            "--problem", str(fixture_path(QUADRATIC_N3)),
            "--epsilon", "0.05",
            "--seeds", "3",
            "--variants", "adaptive,fixed",
            "--out", str(out),
        ]
    )
    capsys.readouterr()
    with open(out) as fh:
        rows = {r["variant"]: r for r in csv.DictReader(fh)}
    ok = (
        code == 0
        and "adaptive" in rows
        and "fixed" in rows
        and rows["adaptive"]["within_bound"] == "1"
        and float(rows["adaptive"]["mean_N"]) <= int(rows["adaptive"]["worst_case_N"])
        and rows["fixed"]["mean_N"] != ""
    )
    report(
        "criterion-10 benchmark-report",
        ok,
        f"adaptive mean_N={rows['adaptive']['mean_N']} <= "
        f"bound {rows['adaptive']['worst_case_N']}; "
        f"fixed count={rows['fixed']['mean_N']} reported alongside",
    )


def test_criterion_11_reproducibility(tmp_path, quad_problem, capsys):
    column_path = tmp_path / "column.json"
    save_problem(dataclasses.replace(quad_problem, oracle_mode="column"), column_path)
    jobs = [
        ("det", str(fixture_path(QUADRATIC_N3))),
        ("column", str(column_path)),
    ]
    identical = True
    for label, problem_path in jobs:
        traces = []
        for attempt in ("a", "b"):
            trace_path = tmp_path / f"{label}-{attempt}.csv"
            cli_main(
                [
                    "solve",
                    "--problem", problem_path,
                    "--epsilon", "0.05",
                    "--seed", "21",
                    "--trace-out", str(trace_path),
                    "--no-timestamp",
                ]
            )
            traces.append(trace_path.read_bytes())
        identical &= traces[0] == traces[1]
    capsys.readouterr()
    report(
        "criterion-11 reproducibility",
        identical,
        "deterministic and column-sampling reruns produced byte-identical trace CSVs",
    )
