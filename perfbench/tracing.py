"""In-memory spans around calls into asmd, for the traced run.

Every wrapped name is patched where its caller looks it up (the solver
imported ``prox_map`` by name, so the patch goes on ``asmd.solver``), which
leaves the package itself unchanged. A span is (name, start, end, parent);
spans are kept in flat arrays while the run lasts and written out once at
the end. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import collections
import contextlib
import time
from array import array

import numpy as np

import asmd.cli
import asmd.oracle
import asmd.problems
import asmd.serialize
import asmd.solver
from asmd.problems import ProblemInstance

# Per-layer names reported with calls, us_per_call and share, in report order.
LAYER_CALLS = (
    "geometry.prox_map",
    "geometry.dual_norm",
    "oracle.constraint_value",
    "oracle.constraint_sample",
    "oracle.constraint_sparse_subgradient",
    "oracle.objective_sample",
    "oracle.objective_value",
    "problems.generate_instance",
    "problems.save_problem",
    "problems.load_problem",
    "problems.uniform_subgradient_bound",
    "serialize.canonical_json",
    "serialize.atomic_write_text",
    "cli.run_benchmark",
    "cli.write_trace_csv",
)

SOLVE_SPANS = ("solver.solve_adaptive", "solver.solve_fixed")
COMMAND_SPANS = ("cli.main", "cli.run_benchmark")
ROUND_SPAN = "bench.round"
# A call's share is taken of the nearest enclosing solve, command or round.
UNIT_SPANS = SOLVE_SPANS + COMMAND_SPANS + (ROUND_SPAN,)
CLI_SPANS = ("cli.main", "cli.run_benchmark", "cli.write_trace_csv")

# (span name, owner, attribute): each site where a caller looks the name up.
PATCH_SITES = (
    ("geometry.prox_map", asmd.solver, "prox_map"),
    ("geometry.dual_norm", asmd.solver, "dual_norm"),
    ("oracle.constraint_value", ProblemInstance, "constraint_value"),
    ("oracle.constraint_sample", ProblemInstance, "constraint_sample"),
    ("oracle.constraint_sparse_subgradient", ProblemInstance, "constraint_sparse_subgradient"),
    ("oracle.objective_sample", ProblemInstance, "objective_sample"),
    ("oracle.objective_value", ProblemInstance, "objective_value"),
    ("problems.generate_instance", asmd.problems, "generate_instance"),
    ("problems.generate_instance", asmd.cli, "generate_instance"),
    ("problems.save_problem", asmd.cli, "save_problem"),
    ("problems.load_problem", asmd.cli, "load_problem"),
    ("problems.uniform_subgradient_bound", asmd.cli, "uniform_subgradient_bound"),
    ("serialize.canonical_json", asmd.serialize, "canonical_json"),
    ("serialize.canonical_json", asmd.problems, "canonical_json"),
    ("serialize.canonical_json", asmd.cli, "canonical_json"),
    ("serialize.atomic_write_text", asmd.problems, "atomic_write_text"),
    ("serialize.atomic_write_text", asmd.cli, "atomic_write_text"),
    ("cli.run_benchmark", asmd.cli, "run_benchmark"),
    ("cli.write_trace_csv", asmd.cli, "write_trace_csv"),
    ("cli.main", asmd.cli, "main"),
    ("solver.solve_adaptive", asmd.solver, "solve_adaptive"),
    ("solver.solve_adaptive", asmd.cli, "solve_adaptive"),
    ("solver.solve_fixed", asmd.cli, "solve_fixed"),
)


def instance_nbytes(problem: ProblemInstance) -> int:
    """Bytes held by an instance's data arrays."""
    objective = problem.objective
    data = objective.matrix if hasattr(objective, "matrix") else objective.coefficients
    terms = sum(idx.nbytes + val.nbytes for idx, val in problem.constraint.terms)
    return data.nbytes + terms + problem.constraint.offsets.nbytes + problem.feasible_witness.nbytes


def _count_instance(counts, args, result):
    counts["problems.instances"] += 1
    counts["problems.instance_bytes"] += instance_nbytes(result)


def _count_written(counts, args, result):
    counts["serialize.bytes_written"] += len(args[1].encode("utf-8"))


def _count_objective_sample(counts, args, result):
    # computed, not measured: the column oracle reads one column (8n bytes),
    # the exact oracle the whole matrix (8n^2 bytes)
    problem = args[0]
    n = problem.dimension
    counts["oracle.objective_sample.computed_bytes"] += 8 * n if problem.oracle_mode == "column" else 8 * n * n


def _count_objective_value(counts, args, result):
    counts["oracle.objective_value.computed_bytes"] += 8 * args[0].dimension ** 2


ON_RETURN = {
    "problems.generate_instance": _count_instance,
    "problems.load_problem": _count_instance,
    "serialize.atomic_write_text": _count_written,
    "oracle.objective_sample": _count_objective_sample,
    "oracle.objective_value": _count_objective_value,
}


class Tracer:
    """Span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counts: collections.Counter = collections.Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        counts = self.counts
        on_return = ON_RETURN.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, result)
            return result

        return traced

    def round(self, fn, *args):
        """Run ``fn(*args)`` inside a root round span."""
        return self.wrap(ROUND_SPAN, fn)(*args)

    @contextlib.contextmanager
    def patched(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in PATCH_SITES:
                original = owner.__dict__.get(attr)
                if original is None:
                    continue  # the name is gone from this version; it reports no calls
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            rng_uniform = asmd.oracle.RngStream.uniform
            saved.append((asmd.oracle.RngStream, "uniform", rng_uniform))
            counts = self.counts

            def counted_uniform(rng, size=None):
                counts["oracle.rng.draws"] += 1 if size is None else int(size)
                return rng_uniform(rng, size)

            asmd.oracle.RngStream.uniform = counted_uniform
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.start, dtype=np.int64),
            np.array(self.end, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
        )

    def save(self, path) -> None:
        name_id, start, end, parent = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start_ns=start, end_ns=end, parent=parent)

    def layer_metrics(self, solves: int, iters: int, productive: int) -> tuple[dict, int]:
        """Per-layer figures for the traced phase, and the smallest self time
        (ns) over all spans, which must not be negative."""
        name_id, start, end, parent = self.arrays()
        total = len(start)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=total)
        self_ns = dur - child
        is_unit = np.array([n in UNIT_SPANS for n in self.names], dtype=bool)
        unit_of = np.full(total, -2, dtype=np.int64)
        unit_of[~has_parent] = -1
        direct = has_parent & is_unit[name_id[np.maximum(parent, 0)]]
        unit_of[direct] = parent[direct]
        pending = unit_of == -2
        while pending.any():
            unit_of[pending] = unit_of[parent[pending]]
            pending = unit_of == -2

        def select(names):
            ids = [self._ids[n] for n in names if n in self._ids]
            return np.isin(name_id, ids)

        out = {}
        for name in LAYER_CALLS:
            mask = select([name])
            calls = int(mask.sum())
            spent = float(dur[mask].sum())
            units = np.unique(unit_of[mask])
            units = units[units >= 0]
            enclosing = float(dur[units].sum())
            out[f"{name}.calls"] = (calls / solves, "1/solve")
            out[f"{name}.us_per_call"] = (spent / calls / 1e3 if calls else 0.0, "us")
            out[f"{name}.share"] = (spent / enclosing if enclosing else 0.0, "frac")
        c = self.counts
        for name in ("oracle.objective_value", "oracle.objective_sample"):
            calls = int(select([name]).sum())
            value = c[f"{name}.computed_bytes"] / calls if calls else 0.0
            out[f"{name}.computed_bytes_per_call"] = (value, "B")
        solve_self = float(self_ns[select(SOLVE_SPANS)].sum())
        out["solver.iters"] = (iters / solves, "count")
        out["solver.productive_frac"] = (productive / iters, "frac")
        out["solver.self_us_per_iter"] = (solve_self / iters / 1e3, "us")
        commands = int(select(COMMAND_SPANS).sum())
        cli_self = float(self_ns[select(CLI_SPANS)].sum())
        out["cli.self_s"] = (cli_self / commands / 1e9 if commands else 0.0, "s")
        out["oracle.rng.draws"] = (c["oracle.rng.draws"] / solves, "1/solve")
        instances = c["problems.instances"]
        out["problems.instance_bytes"] = (
            c["problems.instance_bytes"] / instances if instances else 0.0, "B")
        out["serialize.bytes_written"] = (c["serialize.bytes_written"] / solves, "B/solve")
        min_self = int(self_ns.min()) if total else 0
        return out, min_self
