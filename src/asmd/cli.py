"""Command line front end.

Subcommands: ``gen`` writes a random instance file, ``solve`` runs a single
solve and writes a result JSON plus an optional CSV trace, ``benchmark``
sweeps variants / oracle modes / seeds and writes a summary CSV, and
``validate`` runs the statistical and analytic property suites of
``checks.SUITES`` against the bundled fixtures.

Exit codes: 0 success (for ``solve``: the stopping rule fired), 1 I/O or
validation failure, 2 a solve hit the iteration cap (and usage errors, per
argparse convention), 3 a ``validate`` property failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import io
import math
import operator
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .checks import SUITES
from .geometry import GEOMETRY_KINDS
from .problems import (
    ORACLE_MODES,
    InstanceValidationError,
    ProblemInstance,
    generate_instance,
    load_problem,
    reference_optimum,
    save_problem,
    uniform_subgradient_bound,
)
from .serialize import atomic_write_text, canonical_json, format_real, vector_digest
from .solver import (
    ADAPTIVE,
    CRITERION_MET,
    FIXED,
    VARIANTS,
    InfeasibleRunError,
    IterationRecord,
    RunResult,
    SolverConfig,
    solve_adaptive,
    solve_fixed,
    worst_case_iterations,
)


def _num(x: float) -> str:
    """CSV/table cell for a float; stepsizes may legitimately be inf."""
    if math.isinf(x):
        return "inf"
    return format_real(x)


def _cell(value) -> str:
    """The one cell rule of every table: ``None`` is blank, a flag is 1/0."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _num(value)
    return str(value)


def _table(record_type, records) -> list[list[str]]:
    """Header plus one row of cells per record; the columns are the record
    type's fields, in order."""
    names = [field.name for field in dataclasses.fields(record_type)]
    values = operator.attrgetter(*names)
    return [names] + [[_cell(v) for v in values(rec)] for rec in records]


def _csv_text(table: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def write_trace_csv(trace: list[IterationRecord]) -> str:
    return _csv_text(_table(IterationRecord, trace))


def _solve_dispatch(problem: ProblemInstance, config: SolverConfig) -> RunResult:
    if config.variant == FIXED:
        return solve_fixed(problem, config)
    return solve_adaptive(problem, config)


# -- gen ---------------------------------------------------------------------


def cmd_gen(args, parser) -> int:
    if args.n < 2:
        parser.error("--n must be at least 2")
    if args.m < 1:
        parser.error("--m must be at least 1")
    problem = generate_instance(
        n=args.n,
        m_count=args.m,
        density=args.density,
        margin=args.margin,
        seed=args.seed,
        geometry=args.geometry,
        oracle=args.oracle,
    )
    save_problem(problem, args.out)
    nnz = sum(idx.size for idx, _ in problem.constraint.terms)
    print(f"wrote {args.out}")
    print(
        f"  name={problem.name} n={problem.dimension} m={problem.constraint.count} "
        f"geometry={problem.geometry_kind} oracle={problem.oracle_mode}"
    )
    print(
        f"  constraint nonzeros={nnz} witness slack={_num(problem.margin)} "
        f"subgradient bound={_num(uniform_subgradient_bound(problem))}"
    )
    return 0


# -- solve --------------------------------------------------------------------


def cmd_solve(args, parser) -> int:
    if args.variant == FIXED and args.fixed_M is None:
        parser.error("--variant fixed requires --fixed-M")
    problem = load_problem(args.problem)
    config = SolverConfig(
        epsilon=args.epsilon,
        max_iterations=args.max_iterations,
        seed=args.seed,
        variant=args.variant,
        fixed_M=args.fixed_M,
        record_trace=bool(args.trace_out),
    )
    result = _solve_dispatch(problem, config)
    doc = {
        "problem": problem.name,
        "variant": args.variant,
        "epsilon": args.epsilon,
        "seed": args.seed,
        "stop_reason": result.stop_reason,
        "N": result.N,
        "N_I": result.N_I,
        "M_bar": result.M_bar,
        "g_value": problem.constraint_value(result.x_bar),
        "f_value": problem.objective_value(result.x_bar),
        "x_bar_digest": vector_digest(result.x_bar),
        "x_bar": result.x_bar,
    }
    if not args.no_timestamp:
        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if args.result_out:
        atomic_write_text(args.result_out, canonical_json(doc))
    if args.trace_out:
        atomic_write_text(args.trace_out, write_trace_csv(result.trace))
    print(
        f"{result.stop_reason}: N={result.N} N_I={result.N_I} "
        f"M_bar={_num(result.M_bar)} g={_num(doc['g_value'])} f={_num(doc['f_value'])} "
        f"digest={doc['x_bar_digest']}"
    )
    return 0 if result.stop_reason == CRITERION_MET else 2


# -- benchmark ------------------------------------------------------------------

@dataclasses.dataclass
class BenchmarkRow:
    """One summary row of ``run_benchmark``; the fields are the table's
    columns, in order. A value the cell did not produce is ``None``."""

    variant: str
    oracle_mode: str
    seeds_run: int = 0
    mean_N: float | None = None
    mean_N_I: float | None = None
    mean_M_bar: float | None = None
    mean_f_gap: float | None = None
    stderr_f_gap: float | None = None
    mean_g_value: float | None = None
    worst_case_N: int | None = None
    within_bound: bool | None = None
    status: str = "ok"


def _benchmark_cell_runs(problem, variant, mode, epsilon, seeds, base_seed, fixed_m, jobs):
    """All runs of one (variant, oracle mode) cell; seeds are base + index.

    Only a column draw reads the solve's random stream, so the runs of an
    exact cell are one run: it is solved once and counted ``seeds`` times.
    """
    cell_problem = dataclasses.replace(problem, oracle_mode=mode)

    def run(i: int) -> RunResult:
        config = SolverConfig(
            epsilon=epsilon,
            seed=base_seed + i,
            variant=variant,
            fixed_M=fixed_m if variant == FIXED else None,
            record_trace=False,
        )
        return _solve_dispatch(cell_problem, config)

    if mode == "exact":
        return [run(0)] * seeds
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, range(seeds)))
    return [run(i) for i in range(seeds)]


def run_benchmark(
    problem: ProblemInstance,
    epsilon: float,
    seeds: int,
    variants: list[str],
    oracle_modes: list[str],
    base_seed: int = 0,
    fixed_m: float | None = None,
    jobs: int = 1,
) -> list[BenchmarkRow]:
    """One summary row per (variant, oracle mode) over a common seed list.

    The f-gap columns need the grid reference, so they stay blank for
    n > 4, and when the grid misses the feasible set.
    """
    geom = problem.geometry()
    reference = None
    if problem.dimension <= 4:
        try:
            reference = reference_optimum(problem)
        except InstanceValidationError:
            pass
    if fixed_m is None:
        fixed_m = uniform_subgradient_bound(problem)
    rows = []
    for variant in variants:
        for mode in oracle_modes:
            row = BenchmarkRow(variant=variant, oracle_mode=mode)
            try:
                results = _benchmark_cell_runs(
                    problem, variant, mode, epsilon, seeds, base_seed, fixed_m, jobs
                )
            except (InfeasibleRunError, ValueError) as exc:
                row.status = f"error: {exc}"
                rows.append(row)
                continue
            row.seeds_run = len(results)
            row.mean_N = float(np.mean([r.N for r in results]))
            row.mean_N_I = float(np.mean([r.N_I for r in results]))
            row.mean_M_bar = float(np.mean([r.M_bar for r in results]))
            g_values = [problem.constraint_value(r.x_bar) for r in results]
            row.mean_g_value = float(np.mean(g_values))
            if reference is not None:
                gaps = [problem.objective_value(r.x_bar) - reference.f_star for r in results]
                row.mean_f_gap = float(np.mean(gaps))
                row.stderr_f_gap = (
                    float(np.std(gaps, ddof=1) / math.sqrt(len(gaps))) if len(gaps) > 1 else 0.0
                )
            m_hat = max(r.M_max for r in results)
            if m_hat > 0:
                row.worst_case_N = worst_case_iterations(m_hat, geom.radius, epsilon, variant)
                if variant == ADAPTIVE:
                    row.within_bound = all(r.N <= row.worst_case_N for r in results)
            rows.append(row)
    return rows


def _print_table(table: list[list[str]]) -> None:
    widths = [max(len(cell) for cell in column) for column in zip(*table)]
    for line in table:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())


def _choice_list(parser, text: str, choices, what: str) -> list[str]:
    """A comma list of choices; an unknown choice or an empty list is a
    usage error."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        parser.error(f"empty {what} list (choose from {', '.join(choices)})")
    for item in items:
        if item not in choices:
            parser.error(f"unknown {what} {item!r} (choose from {', '.join(choices)})")
    return items


def cmd_benchmark(args, parser) -> int:
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    variants = _choice_list(parser, args.variants, VARIANTS, "variant")
    problem = load_problem(args.problem)
    if args.oracle_modes is None:
        modes = [problem.oracle_mode]
    else:
        modes = _choice_list(parser, args.oracle_modes, ORACLE_MODES, "oracle mode")
    rows = run_benchmark(
        problem,
        epsilon=args.epsilon,
        seeds=args.seeds,
        variants=variants,
        oracle_modes=modes,
        base_seed=args.seed,
        fixed_m=args.fixed_M,
        jobs=args.jobs,
    )
    table = _table(BenchmarkRow, rows)
    _print_table(table)
    if args.out:
        atomic_write_text(args.out, _csv_text(table))
        print(f"wrote {args.out}")
    failed = [row for row in rows if row.status != "ok"]
    return 1 if failed else 0


# -- validate -------------------------------------------------------------------

def cmd_validate(args, parser) -> int:
    if args.suites is None:
        suites = list(SUITES)
    else:
        suites = _choice_list(parser, args.suites, SUITES, "suite")
    all_ok = True
    for name in suites:
        ok, detail = SUITES[name](args.samples, args.seed)
        all_ok &= ok
        print(f"{'PASS' if ok else 'FAIL'} {name:<14} {detail}")
    return 0 if all_ok else 3


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmd",
        description="Adaptive stochastic mirror descent for constrained problems on the simplex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--n", type=int, required=True, help="dimension (at least 2)")
    gen.add_argument("--m", type=int, default=10, help="number of constraint terms")
    gen.add_argument("--density", type=float, default=0.1, help="sparsity density in (0, 1]")
    gen.add_argument("--margin", type=float, default=0.05, help="witness feasibility slack")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--geometry", choices=GEOMETRY_KINDS, default="entropy")
    gen.add_argument("--oracle", choices=ORACLE_MODES, default="exact")
    gen.add_argument("--out", required=True, help="output instance path")
    gen.set_defaults(func=cmd_gen)

    solve = sub.add_parser("solve", help="run one solve and write result/trace files")
    solve.add_argument("--problem", required=True, help="instance file path")
    solve.add_argument("--epsilon", type=float, required=True)
    solve.add_argument("--variant", choices=VARIANTS, default=ADAPTIVE)
    solve.add_argument("--fixed-M", type=float, default=None, dest="fixed_M")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--max-iterations", type=int, default=None)
    solve.add_argument("--trace-out", default=None, help="CSV trace path")
    solve.add_argument("--result-out", default=None, help="result JSON path")
    solve.add_argument("--no-timestamp", action="store_true")
    solve.set_defaults(func=cmd_solve)

    bench = sub.add_parser("benchmark", help="multi-seed variant/oracle comparison")
    bench.add_argument("--problem", required=True)
    bench.add_argument("--epsilon", type=float, required=True)
    bench.add_argument("--seeds", type=int, default=10, help="number of seeds per cell")
    bench.add_argument("--seed", type=int, default=0, help="base seed; run i uses base + i")
    bench.add_argument("--variants", default=",".join(VARIANTS))
    bench.add_argument("--oracle-modes", default=None, help="default: the instance's mode")
    bench.add_argument("--fixed-M", type=float, default=None, dest="fixed_M",
                       help="default: computed uniform subgradient bound")
    bench.add_argument("--jobs", type=int, default=1)
    bench.add_argument("--out", default=None, help="summary CSV path")
    bench.set_defaults(func=cmd_benchmark)

    val = sub.add_parser("validate", help="statistical and analytic property suites")
    val.add_argument("--suites", default=None, help=f"comma list from: {', '.join(SUITES)}")
    val.add_argument("--samples", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the instance errors are ValueErrors; a MemoryError is an n x n matrix
    # too large for this host, as a file may state any n
    try:
        return args.func(args, parser)
    except (OSError, ValueError, InfeasibleRunError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
