"""The benchmark's four workloads and the checks every solve must pass.

A workload runs in rounds, and every round solves the same pinned pool of
instances. Iteration counts differ several-fold between random instances of
one family, so a pool drawn from the seed would make the per-solve figures
of one run mostly a property of its instances; pinning the pool leaves the
seed to choose the sampling streams (the column oracle's draws and the
seeds of ``run_benchmark``), which every round draws afresh. Exact-oracle
solves are deterministic, so each round must repeat them bit for bit.

All calls go through the public functions of the package, looked up on
their modules at call time so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import time

import numpy as np

from asmd import cli, problems, solver

SIMPLEX_TOL = 1e-8
# g is convex and every averaged iterate has g <= eps, so g(x_bar) <= eps up
# to the rounding of the average
G_TOL = 1e-12

clock = time.perf_counter


def solver_seed(seed: int, r: int, i: int) -> int:
    """Seed of the i-th sampling stream of round r."""
    return int(np.random.SeedSequence([seed, r, i]).generate_state(1)[0])


@dataclasses.dataclass
class Round:
    """Timings, counts and check results of one round."""

    gen_s: float = 0.0  # summed over the round's instances
    solve_s: float = 0.0  # summed over the round's solves
    instances: int = 0
    wall_s: float = 0.0
    solves: int = 0
    iters: int = 0
    productive: int = 0
    failed: int = 0
    # (label, values, solves) per result; a label seen again must repeat its values
    keys: list = dataclasses.field(default_factory=list)
    notes: list = dataclasses.field(default_factory=list)

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)

    def check_repeats(self, seen: dict) -> None:
        """Fail results whose label was seen before with other values."""
        for label, values, solves in self.keys:
            if seen.setdefault(label, values) != values:
                self.fail(solves, f"{label}: rerun of the same inputs differs")


def on_simplex(x) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(
        x.ndim == 1
        and np.isfinite(x).all()
        and abs(float(x.sum()) - 1.0) <= SIMPLEX_TOL
        and float(x.min()) >= -SIMPLEX_TOL
    )


def constraint_at(terms, offsets, x) -> float:
    """max_m <c_m, x> - b_m from the raw sparse terms, independent of the oracle."""
    x = np.asarray(x, dtype=float)
    return max(
        float(np.dot(np.asarray(val, dtype=float), x[np.asarray(idx, dtype=np.int64)])) - float(b)
        for (idx, val), b in zip(terms, offsets)
    )


def digest(x) -> str:
    return hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes()).hexdigest()[:16]


def check_point(rnd: Round, label: str, x, terms, offsets, epsilon: float) -> None:
    if not on_simplex(x):
        rnd.fail(1, f"{label}: x_bar is off the simplex")
        return
    g = constraint_at(terms, offsets, x)
    if not g <= epsilon + G_TOL:
        rnd.fail(1, f"{label}: g(x_bar) = {g!r} > epsilon = {epsilon!r}")


class InProcessSolves:
    """Shared by the workloads that call ``solver.solve_adaptive`` directly."""

    epsilon: float
    pool: tuple  # pinned instance seeds, passed to ``instance``
    modes: tuple

    def solve(self, rnd: Round, problem, seed: int, label: str) -> None:
        config = solver.SolverConfig(epsilon=self.epsilon, seed=seed, record_trace=False)
        rnd.solves += 1
        t0 = clock()
        try:
            result = solver.solve_adaptive(problem, config)
        except Exception as exc:  # a raising solve is a failed solve; the run goes on
            rnd.fail(1, f"{label}: raised {type(exc).__name__}: {exc}")
            return
        finally:
            rnd.solve_s += clock() - t0
        rnd.iters += result.N
        rnd.productive += result.N_I
        rnd.keys.append((label, (result.N, result.N_I, digest(result.x_bar)), 1))
        if result.stop_reason != solver.CRITERION_MET:
            rnd.fail(1, f"{label}: stop_reason {result.stop_reason}")
            return
        c = problem.constraint
        check_point(rnd, label, result.x_bar, c.terms, c.offsets, self.epsilon)

    def warm_up(self) -> None:
        problem = self.instance(self.pool[0])
        config = solver.SolverConfig(
            epsilon=self.epsilon, seed=0, max_iterations=100, record_trace=False)
        solver.solve_adaptive(problem, config)

    def run_round(self, seed: int, r: int) -> Round:
        rnd = Round()
        t0 = clock()
        for i, instance_seed in enumerate(self.pool):
            t1 = clock()
            base = self.instance(instance_seed)
            rnd.gen_s += clock() - t1
            rnd.instances += 1
            for mode in self.modes:
                problem = base if mode == base.oracle_mode else dataclasses.replace(base, oracle_mode=mode)
                # exact solves ignore the stream, so their label repeats every round
                label = f"instance {instance_seed} {mode}" + ("" if mode == "exact" else f" round {r}")
                self.solve(rnd, problem, solver_seed(seed, r, i), label)
        rnd.wall_s = clock() - t0
        return rnd


class ConstraintM200(InProcessSolves):
    name = "constraint-m200"
    epsilon = 0.1
    pool = (7,)
    modes = ("exact", "column")

    def instance(self, instance_seed: int):
        return problems.generate_instance(
            n=500, m_count=200, density=0.1, seed=instance_seed, geometry="euclidean")


class ColumnN2000(InProcessSolves):
    name = "column-n2000"
    epsilon = 0.4
    pool = (7, 8, 9)
    modes = ("column",)

    def instance(self, instance_seed: int):
        return problems.generate_instance(
            n=2000, m_count=10, density=0.1, seed=instance_seed, geometry="entropy",
            oracle="column")


class SweepN50:
    name = "sweep-n50"
    epsilon = 0.1
    pool = (7, 8, 9, 10)
    seeds_per_cell = 1
    variants = ("adaptive", "fixed")
    modes = ("exact", "column")

    def instance(self, instance_seed: int):
        return problems.generate_instance(n=50, m_count=10, density=0.1, seed=instance_seed)

    def warm_up(self) -> None:
        cli.run_benchmark(self.instance(self.pool[0]), self.epsilon, 1, ["adaptive"], ["exact"])

    def run_round(self, seed: int, r: int) -> Round:
        rnd = Round()
        t0 = clock()
        for i, instance_seed in enumerate(self.pool):
            t1 = clock()
            problem = self.instance(instance_seed)
            t2 = clock()
            rnd.gen_s += t2 - t1
            rnd.instances += 1
            self._sweep(rnd, problem, instance_seed, solver_seed(seed, r, i), r)
            rnd.solve_s += clock() - t2
        rnd.wall_s = clock() - t0
        return rnd

    def _sweep(self, rnd: Round, problem, instance_seed: int, base_seed: int, r: int) -> None:
        k = self.seeds_per_cell
        cells = len(self.variants) * len(self.modes)
        rnd.solves += cells * k
        try:
            rows = cli.run_benchmark(
                problem, self.epsilon, k, list(self.variants), list(self.modes),
                base_seed=base_seed, jobs=1)
        except Exception as exc:  # every solve of the call counts as failed
            rnd.fail(cells * k, f"instance {instance_seed}: run_benchmark raised "
                                f"{type(exc).__name__}: {exc}")
            return
        if len(rows) != cells:
            rnd.fail(cells * k, f"instance {instance_seed}: {len(rows)} rows for {cells} cells")
            return
        for row in rows:
            label = f"instance {instance_seed} {row.variant}/{row.oracle_mode}"
            if row.oracle_mode != "exact":
                label += f" round {r}"
            rnd.iters += round(row.mean_N * row.seeds_run)
            rnd.productive += round(row.mean_N_I * row.seeds_run)
            rnd.keys.append(
                (label, (row.mean_N, row.mean_N_I, row.mean_M_bar, row.mean_g_value), k))
            if row.status != "ok" or row.seeds_run != k:
                rnd.fail(k, f"{label}: status {row.status!r}, {row.seeds_run} of {k} seeds")
            elif row.within_bound is False:
                rnd.fail(k, f"{label}: N above the worst-case bound")
            elif not row.mean_g_value <= self.epsilon + G_TOL:
                rnd.fail(k, f"{label}: mean g(x_bar) = {row.mean_g_value!r} > epsilon")


class CliN2000:
    """``asmd gen`` then ``asmd solve`` in-process, on files in a work directory."""

    name = "cli-n2000"
    epsilon = 0.5
    instance_seed = 7
    solves_per_round = 6

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _clean(self) -> None:
        for name in ("instance.json", "trace.csv", "result.json"):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self._path(name))

    @staticmethod
    def _main(argv) -> tuple[int, str]:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
        except Exception as exc:  # a raising command is a failed command; the run goes on
            return -1, f"raised {type(exc).__name__}: {exc}"
        return code, out.getvalue()

    def _gen_argv(self, n: int) -> list[str]:
        return ["gen", "--n", str(n), "--m", "10", "--density", "0.1",
                "--seed", str(self.instance_seed), "--oracle", "column",
                "--out", self._path("instance.json")]

    def _solve_argv(self, seed: int) -> list[str]:
        return ["solve", "--problem", self._path("instance.json"), "--epsilon", repr(self.epsilon),
                "--seed", str(seed), "--trace-out", self._path("trace.csv"),
                "--result-out", self._path("result.json"), "--no-timestamp"]

    def warm_up(self) -> None:
        self._main(self._gen_argv(50))
        self._main(self._solve_argv(0))
        self._clean()

    def run_round(self, seed: int, r: int) -> Round:
        rnd = Round(instances=1)
        t0 = clock()
        code, out = self._main(self._gen_argv(2000))
        rnd.gen_s = clock() - t0
        try:
            terms, offsets = self._read_instance(code, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rnd.solves = self.solves_per_round
            rnd.fail(rnd.solves, f"round {r}: gen failed: {exc}")
        else:
            for j in range(self.solves_per_round):
                rnd.solves += 1
                t1 = clock()
                code, out = self._main(self._solve_argv(solver_seed(seed, r, j)))
                rnd.solve_s += clock() - t1
                self._check_solve(rnd, f"round {r} solve {j}", code, out, terms, offsets)
        rnd.wall_s = clock() - t0
        self._clean()
        return rnd

    def _read_instance(self, code: int, out: str):
        """Constraint data of the written instance, after checking its witness."""
        if code != 0:
            raise ValueError(f"exit code {code}: {out.strip()}")
        with open(self._path("instance.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        terms = [(t["indices"], t["values"]) for t in doc["constraints"]["sparse"]]
        offsets = doc["constraints"]["offsets"]
        witness = doc["witness"]
        if not on_simplex(witness) or constraint_at(terms, offsets, witness) > 0:
            raise ValueError("the stored witness is not a feasible simplex point")
        return terms, offsets

    def _check_solve(self, rnd: Round, label: str, code: int, out: str, terms, offsets) -> None:
        if code != 0:
            rnd.fail(1, f"{label}: exit code {code}: {out.strip()}")
            return
        try:
            with open(self._path("result.json"), encoding="utf-8") as fh:
                result = json.load(fh)
            with open(self._path("trace.csv"), encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            n_iter, n_productive = int(result["N"]), int(result["N_I"])
            x = np.asarray(result["x_bar"], dtype=float)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rnd.fail(1, f"{label}: unreadable output: {exc!r}")
            return
        rnd.iters += n_iter
        rnd.productive += n_productive
        rnd.keys.append((label, (n_iter, n_productive, digest(x)), 1))
        if result["stop_reason"] != solver.CRITERION_MET:
            rnd.fail(1, f"{label}: stop_reason {result['stop_reason']}")
        elif len(rows) != n_iter + 1 or any(row[-1] == "" for row in rows[1:]):
            rnd.fail(1, f"{label}: trace has {len(rows) - 1} rows for N = {n_iter}")
        else:
            check_point(rnd, label, x, terms, offsets, self.epsilon)
