"""The stateid benchmark: one command per workload, every metric by name and unit.

    python3 bench/run.py --workload mc-2x2 --seed 7 --seconds 30 --trace 0

Run from a checkout that holds src/stateid; exits 2 without a result if it
does not.  Workloads (see bench/README.md):

    mc-2x2  seeded LOCC batches at (2,2) plus a global batch at d=4
    mc-3x3  seeded LOCC batches at (3,3)
    verify  verify-all, the six tree flattens, and the edge-prior CLI calls

Traffic is a closed loop: this driver starts one unit (bench/unit.py, a fresh
interpreter that imports stateid, sets up and does the workload's work) and
waits for it before starting the next, until --seconds have passed.  With
--trace 0 it reports the medians over units of the end-to-end metrics; with
--trace 1 it runs one untraced and one traced unit (plus, on mc-2x2, the
worker-count probes) and reports the per-layer metrics.  Every output is
checked; a wrong one makes the run incorrect and the exit code 1.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
UNIT = BENCH / "unit.py"
WORKLOADS = ("mc-2x2", "mc-3x3", "verify")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread per process.  With the default pool in each batch worker the
# cores are oversubscribed and the time measures the scheduler; in the single
# verify process a two-thread pool spins on whichever core the host has taken
# back, which makes its CPU time unsteady (see bench/README.md).
BLAS_THREADS = 1
DEADLINE_S = 170.0
UNIT_TIMEOUT_S = 150.0


class UnitError(RuntimeError):
    """A unit process crashed or printed no result."""


def workers_for(nproc: int, workload: str) -> int:
    """Monte Carlo batches fork one worker per core; verify runs in one process."""
    return nproc if workload.startswith("mc-") else 1


def unit_env(blas_threads: int | None) -> dict:
    """The environment of a unit: BLAS pools pinned, or left at their default (None)."""
    env = dict(os.environ)
    for var in BLAS_VARS:
        if blas_threads is None:
            env.pop(var, None)
        else:
            env[var] = str(blas_threads)
    return env


def run_unit(args: list[str], blas_threads: int | None, deadline: float) -> dict:
    """Run one unit process to completion and time it."""
    t0 = time.monotonic()
    timeout = max(1.0, min(UNIT_TIMEOUT_S, deadline - t0))
    try:
        proc = subprocess.run([sys.executable, str(UNIT), *args], cwd=ROOT,
                              env=unit_env(blas_threads), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise UnitError(f"unit {args} ran over {timeout:.0f} s") from exc
    t1 = time.monotonic()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise UnitError(f"unit {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = t1 - t0
    return result


def provenance(env: dict, nproc: int, workers: int, seed: int, units: int) -> dict:
    return {
        "nproc": nproc,
        "blas": {**env.get("blas", {}), "threads": BLAS_THREADS},
        "workers": workers,
        "numpy": env.get("numpy"),
        "python": env.get("python"),
        "seed": seed,
        "rng_contract": "trial i of a batch draws from numpy default_rng((seed, i))",
        "units": units,
        "traffic": "closed loop, one driver waiting for each unit",
    }


def median_of(units: list, key: str) -> float:
    return statistics.median(u[key] for u in units)


def timed_run(workload: str, seed: int, seconds: float, workers: int,
              deadline: float) -> tuple[dict, list]:
    start = time.monotonic()
    units = []
    # stop early rather than let one more unit run past the deadline
    while not units or (time.monotonic() - start < seconds
                        and time.monotonic() + units[-1]["wall_s"] < deadline):
        units.append(run_unit(["--workload", workload, "--seed", str(seed),
                               "--workers", str(workers)], BLAS_THREADS, deadline))
    metrics = {
        "setup_s": (median_of(units, "setup_cpu_s"), "s"),
        "ops_per_cpu_s": (statistics.median(u["attempted"] / (u["unit_cpu_s"] - u["setup_cpu_s"])
                                            for u in units), "1/s"),
        "peak_rss_mb": (median_of(units, "peak_rss_mb"), "MB"),
    }
    return metrics, units


def traced_run(workload: str, seed: int, workers: int, deadline: float,
               nproc: int) -> tuple[dict, list]:
    base = ["--workload", workload, "--seed", str(seed), "--workers", str(workers)]
    plain = run_unit(base, BLAS_THREADS, deadline)
    traced = run_unit(base + ["--trace"], BLAS_THREADS, deadline)
    layers = dict(traced["per_layer"])
    layers["trace.overhead_s"] = traced["unit_cpu_s"] - plain["unit_cpu_s"]
    units = [plain, traced]
    speedup = default_x = 0.0
    if workload == "mc-2x2":
        probe = ["--probe", "--seed", str(seed), "--workers"]
        one = run_unit(probe + ["1"], BLAS_THREADS, deadline)
        pinned = run_unit(probe + [str(nproc)], BLAS_THREADS, deadline)
        default = run_unit(probe + [str(nproc)], None, deadline)
        speedup = one["batch_s"] / pinned["batch_s"]
        default_x = default["batch_s"] / pinned["batch_s"]
        units += [one, pinned, default]
    layers["simulate.parallel_speedup"] = speedup
    layers["simulate.default_blas_x"] = default_x
    declared = declared_units("per_layer")
    return {name: (value, declared[name]) for name, value in layers.items()}, units


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "stateid" / "__init__.py").is_file():
        print(f"no stateid sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    nproc = len(os.sched_getaffinity(0))
    workers = workers_for(nproc, args.workload)
    try:
        if args.trace:
            metrics, units = traced_run(args.workload, args.seed, workers, deadline, nproc)
        else:
            metrics, units = timed_run(args.workload, args.seed, args.seconds, workers,
                                       deadline)
    except UnitError as exc:
        print(f"unit failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    problems = [p for u in units for p in u["problems"]]
    if not args.trace:
        metrics["ok_share"] = ((attempted - failed) / attempted, "share")
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if {name: unit for name, (_, unit) in metrics.items()} != declared:
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    print("provenance: " + json.dumps(provenance(units[0]["env"], nproc, workers, args.seed,
                                                 len(units))))
    for problem in problems:
        print(f"WRONG OUTPUT: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        trials = [u["trials"] / u["work_s"] for u in units if u["trials"]]
        if trials:
            print(f"trials_per_s = {statistics.median(trials):.6g} 1/s")
        print(f"wall_s = {median_of(units, 'wall_s'):.6g} s")
        print(f"cpu_s = {median_of(units, 'unit_cpu_s'):.6g} s")
        print(f"failed_share = {failed / attempted:.6g} share ({failed} of {attempted} "
              f"operations; edge-prior failures: {units[0]['extra'].get('edge_failures', [])})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
