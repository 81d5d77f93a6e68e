"""The library and CLI calls that ``perfbench/workloads.py`` makes, scaled down to n = 6.

The benchmark calls ``solver.solve_adaptive`` and ``cli.run_benchmark``
directly, and runs ``asmd gen`` and ``asmd solve`` through ``cli.main``.
If one of them changed its signature or behaviour, the benchmark would
only report failed solves, so the same calls are made here. Its traced
run also patches names inside the package (``perfbench/tracing.py``); the
last two tests run those patches and look each target up, so a renamed
target fails here too.
"""

import csv
import dataclasses
import json
from pathlib import Path

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


def test_gen_writes_constraints_and_witness_as_plain_lists(tmp_path):
    # the benchmark checks each written witness against the constraints it
    # reads with json.load alone, so these fields must stay lists of numbers
    instance = str(tmp_path / "instance.json")
    assert cli.main(["gen", "--n", "6", "--m", "10", "--density", "0.1", "--seed", "7",
                     "--oracle", "column", "--out", instance]) == 0
    with open(instance, encoding="utf-8") as fh:
        doc = json.load(fh)

    def numbers(values, kind):
        return isinstance(values, list) and all(
            isinstance(v, kind) and not isinstance(v, bool) for v in values)

    sparse = doc["constraints"]["sparse"]
    assert len(sparse) == 10
    assert any(term["indices"] for term in sparse)
    for term in sparse:
        assert numbers(term["indices"], int)
        assert numbers(term["values"], float)
        assert len(term["indices"]) == len(term["values"])
    offsets = doc["constraints"]["offsets"]
    assert numbers(offsets, float) and len(offsets) == 10
    assert numbers(doc["witness"], float) and len(doc["witness"]) == 6


def test_traced_run_patches(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    with tracer.patched():
        problem = problems.generate_instance(
            n=6, m_count=10, density=0.1, seed=7, oracle="column")
        config = solver.SolverConfig(epsilon=EPSILON, seed=0, record_trace=False)
        result = solver.solve_adaptive(problem, config)
        rows = cli.run_benchmark(
            problem, EPSILON, 1, ["adaptive"], ["column"], base_seed=3, jobs=1)
    assert result.stop_reason == solver.CRITERION_MET
    assert [row.status for row in rows] == ["ok"]
    assert tracer.counts["problems.instances"] == 1
    assert tracer.counts["problems.instance_bytes"] == tracing.instance_nbytes(problem) > 0
    solves = 1 + rows[0].seeds_run
    metrics, min_self = tracer.layer_metrics(solves, result.N, result.N_I)
    assert metrics["oracle.rng.draws"][0] > 0
    assert metrics["oracle.objective_sample.calls"][0] > 0
    assert metrics["cli.run_benchmark.calls"][0] > 0
    assert min_self >= 0


# the tracer skips a PATCH_SITES target that its owner no longer defines;
# these six are gone already (ROADMAP item 1), and no other may go
STRANDED_SITES = {
    "asmd.solver.prox_map",
    "asmd.solver.dual_norm",
    "ProblemInstance.constraint_sample",
    "ProblemInstance.constraint_sparse_subgradient",
    "asmd.problems.canonical_json",
    "asmd.problems.atomic_write_text",
}


def test_no_further_tracer_site_is_stranded(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    missing = {
        f"{owner.__name__}.{attr}"
        for _, owner, attr in tracing.PATCH_SITES
        if owner.__dict__.get(attr) is None
    }
    assert missing <= STRANDED_SITES
