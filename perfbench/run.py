"""Benchmark for asmd: time to epsilon, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else. One process, one solve at a
time (a closed loop with a single client), BLAS pinned to one thread.

``--trace 0`` times rounds until ``--seconds`` have passed and reports the
end-to-end metrics. ``--trace 1`` times rounds untraced for half the time,
replays the same rounds with spans around the package's public functions,
and reports per-layer metrics plus the tracing overhead (traced minus
untraced wall time of the same rounds). The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Metric names,
units and bounds are in BENCHMARK.json; perfbench/METRICS.md defines each
metric, the checks and why each workload is there.
"""

import os

# Pinned before numpy loads: with two BLAS threads the same n = 2000 solve
# varied by almost 2x between back-to-back processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-n50", "constraint-m200", "column-n2000", "cli-n2000")
SETUP_REPEATS = 3
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s": "s",
    "us_per_iter": "us",
    "iters_per_s": "1/s",
    "solves_per_s": "1/s",
    "iters": "count",
    "gen_s": "s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import asmd from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "asmd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {src / 'asmd'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import asmd

    if Path(asmd.__file__).resolve().parent != src / "asmd":
        sys.exit(f"perfbench: imported asmd from {asmd.__file__}, not from {src}")


def blas_threads() -> int:
    """Threads the loaded OpenBLAS reports, or -1 when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return -1


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def make_workload(name: str, workdir: str):
    import workloads

    if name == "cli-n2000":
        return workloads.CliN2000(workdir)
    classes = {w.name: w for w in (workloads.SweepN50, workloads.ConstraintM200, workloads.ColumnN2000)}
    return classes[name]()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_rounds(workload, seed: int, seconds: float) -> tuple[list, float]:
    """Closed loop: the next round starts only after the previous one ended,
    and none starts when less than half a round is left. Also returns the
    peak resident set after the first round: later rounds only add heap
    fragmentation, which would make a faster program, running more rounds,
    look bigger."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + rounds[-1].wall_s / 2 < deadline:
        rounds.append(workload.run_round(seed, len(rounds)))
        if len(rounds) == 1:
            first_round_rss = peak_rss_mb()
    return rounds, first_round_rss


def end_to_end(rounds, setup_s: float, rss_mb: float) -> dict:
    """Medians over rounds, so that a burst of interference from other
    processes on the machine moves few samples."""
    def median(per_round):
        return statistics.median(per_round(r) for r in rounds)

    values = {
        "setup_s": setup_s,
        "wall_s": median(lambda r: r.wall_s),
        "solve_s": median(lambda r: r.solve_s / r.solves),
        "us_per_iter": median(lambda r: 1e6 * r.solve_s / r.iters),
        "iters_per_s": median(lambda r: r.iters / r.solve_s),
        "solves_per_s": median(lambda r: r.solves / r.solve_s),
        "iters": sum(r.iters for r in rounds) / sum(r.solves for r in rounds),
        "gen_s": median(lambda r: r.gen_s / r.instances),
        "peak_rss_mb": rss_mb,
    }
    return {name: (value, E2E_UNITS[name]) for name, value in values.items()}


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the package."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import asmd.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_one(args) -> int:
    import_package()
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, make_workload(args.workload, str(workdir)), out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, out_dir: Path) -> int:
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.warm_up()
        setups.append(time.perf_counter() - t0)

    notes = []
    if args.trace:
        import tracing

        untraced, _ = timed_rounds(workload, args.seed, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.patched():
            traced = [tracer.round(workload.run_round, args.seed, r) for r in range(len(untraced))]
        counted = untraced + traced
        metrics, min_self_ns = tracer.layer_metrics(
            sum(r.solves for r in traced), sum(r.iters for r in traced),
            sum(r.productive for r in traced))
        wall_a = sum(r.wall_s for r in untraced)
        wall_b = sum(r.wall_s for r in traced)
        metrics["trace.overhead_s"] = (wall_b - wall_a, "s")
        metrics["trace.overhead_frac"] = (wall_b / wall_a - 1.0, "frac")
        spans_path = out_dir / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        print(f"spans {len(tracer.start)} written to {spans_path}")
        if min_self_ns < 0:
            notes.append(f"a span has negative self time ({min_self_ns} ns)")
    else:
        setup_s = import_seconds() + statistics.median(setups)
        counted, rss_mb = timed_rounds(workload, args.seed, args.seconds)
        metrics = end_to_end(counted, setup_s, rss_mb)

    # exact solves repeat every round, and a traced replay repeats every solve
    seen = {}
    for rnd in counted:
        rnd.check_repeats(seen)
    attempted = sum(r.solves for r in counted)
    failed = min(attempted, sum(r.failed for r in counted))
    for note in [n for r in counted for n in r.notes] + notes:
        print(f"FAILED {note}", file=sys.stderr)
    print(f"rounds {len(counted)}  failed_frac {failed / attempted!r} "
          f"({failed} of {attempted} solves)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
