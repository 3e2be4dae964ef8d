"""Run the benchmark on a base revision and the working tree in interleaved pairs.

    python3 tools/bench_pairs.py --base REV --out BENCH.json

The base revision is exported with `git archive` into a temporary directory;
the head side is the working tree that holds this script.  For each seed in
SEEDS, each of PAIRS pairs and each workload of BENCHMARK.json it runs
`bench/run.py --workload W --seed S --seconds SECONDS` on both sides, one
right after the other, so that both see the same state of the host; the side
that runs first alternates from pair to pair.  For each seed, workload and
end-to-end metric it records both sides' median, quartiles and interquartile
range over the pairs, and how many pairs the head side won.

It then times `simulate.run_batch` of the head side at workers 1 and 2,
BATCH_REPS times each, in wall time and CPU time (the caller's and its
reaped workers'), at each of BATCH_SIZES trials of the seeded (2,2) and
(3,3) min-error LOCC batches and of the d = 4 min-error global batch, with 1
BLAS thread, at the first seed, one batch per fresh interpreter.  Batches
below 2 * simulate.MIN_FORK_CHUNK trials run in the caller at either worker
count, so the sizes fall on both sides of the fork floor.  The JSON file also
records the CPU count, the BLAS threads and the workers of every run, and
whether its units compiled stateid from source (compiles_from_source).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10
SECONDS = 30.0
SEEDS = (7, 23)
BATCH_REPS = 5
# 4000 is a benchmark batch; 7000 and 9000 lie on both sides of
# 2 * MIN_FORK_CHUNK = 8000
BATCH_SIZES = (200, 1000, 2000, 4000, 7000, 9000, 10_000, 100_000)
# (name, (d_a, d_b) of an LOCC batch or (d,) of a global one, eta1) of the
# timed run_batch calls: the benchmark's min-error batches
BATCHES = (("minerr-locc-2x2", (2, 2), 0.5), ("minerr-locc-3x3", (3, 3), 0.7),
           ("minerr-global-d4", (4,), 0.5))

# Times run_batch in a fresh interpreter: argv is the batch's eta1, n,
# workers, seed and dimensions; prints {"wall_s", "cpu_s", "counts"}.
TIME_BATCH = """
import json, resource, sys, time
from stateid import minerr, simulate
eta1, n, workers, seed, *dims = sys.argv[1:]
priors = minerr.Priors.from_eta1(float(eta1))
if len(dims) == 1:
    d = int(dims[0])
    spec = simulate.GlobalTrialSpec(minerr.optimal_global_povm(d, priors), d, priors)
else:
    spec = simulate.LoccTrialSpec(minerr.locc_protocol(*map(int, dims), priors), priors)
def cpu():
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)
c0, t0 = cpu(), time.perf_counter()
stats = simulate.run_batch(spec, int(n), int(seed), int(workers))
wall, used = time.perf_counter() - t0, cpu() - c0
print(json.dumps({"wall_s": wall, "cpu_s": used,
                  "counts": [stats.successes, stats.errors, stats.inconclusive]}))
"""


def export(rev: str, into: Path) -> Path:
    """The files of a git revision, unpacked under into/rev."""
    target = into / rev
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def compiles_from_source(checkout: Path) -> bool:
    """Whether a unit started now in the checkout compiles stateid from source:
    some module has no bytecode cached for this interpreter that is newer than
    it.  With PYTHONDONTWRITEBYTECODE set none is ever written, so every unit
    recompiles the whole package, about 2000 lines; cli, checks and simulate
    are first imported in verify's work phase, so a change of line count
    moves setup_s and verify's ops_per_cpu_s by itself."""
    for source in (checkout / "src" / "stateid").glob("*.py"):
        cached = Path(importlib.util.cache_from_source(str(source)))
        if not (cached.is_file() and cached.stat().st_mtime >= source.stat().st_mtime):
            return True
    return False


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line and the provenance of one bench/run.py run in a checkout,
    and whether its units compiled stateid from source."""
    from_source = compiles_from_source(checkout)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench/run.py in {checkout} printed nothing: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["compiled_from_source"] = from_source
    for line in lines:
        if line.startswith("provenance: "):
            result["provenance"] = json.loads(line[len("provenance: "):])
    return result


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def compare(base: list[dict], head: list[dict], declared: dict) -> dict:
    """Per end-to-end metric: both sides' summaries and the pairs the head won."""
    out = {}
    for name, spec in declared.items():
        pairs = [(b["metrics"][name]["value"], h["metrics"][name]["value"])
                 for b, h in zip(base, head)]
        higher = spec["better"] == "higher"
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": summary([b for b, _ in pairs]),
            "head": summary([h for _, h in pairs]),
            "head_won_pairs": sum((h > b) if higher else (h < b) for b, h in pairs),
        }
    return out


def time_batches(checkout: Path, seed: int, reps: int) -> dict:
    """run_batch at workers 1 and 2, interleaved, per batch and size."""
    env = {**os.environ, **dict.fromkeys(BLAS_VARS, "1"),
           "PYTHONPATH": str(checkout / "src")}
    out = {}
    for name, dims, eta1 in BATCHES:
        for n in BATCH_SIZES:
            runs: dict[int, list] = {1: [], 2: []}
            for _ in range(reps):
                for workers in runs:
                    argv = [str(eta1), str(n), str(workers), str(seed), *map(str, dims)]
                    proc = subprocess.run([sys.executable, "-c", TIME_BATCH, *argv], env=env,
                                          capture_output=True, text=True, check=True)
                    runs[workers].append(json.loads(proc.stdout))
            out[f"{name} n={n}"] = {
                f"workers={workers}": {
                    "wall_s": summary([r["wall_s"] for r in results]),
                    "cpu_s": summary([r["cpu_s"] for r in results]),
                    "counts": results[0]["counts"],
                } for workers, results in runs.items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    declared = {m["name"]: m for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        base = export(args.base, workdir)
        runs = {(seed, w): {"base": [], "head": []} for seed in SEEDS for w in workloads}
        for seed in SEEDS:
            for pair in range(PAIRS):
                for workload in workloads:
                    sides = (("base", base), ("head", ROOT))
                    for side, checkout in sides[::-1] if pair % 2 else sides:
                        result = bench(checkout, workload, seed, SECONDS)
                        runs[seed, workload][side].append(result)
                        print(f"seed {seed} pair {pair + 1}/{PAIRS} {workload} {side}: "
                              + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                              file=sys.stderr, flush=True)
        record = {
            "about": __doc__.split("\n\n")[0],
            "base": args.base,
            "head": "working tree",
            "pairs": PAIRS,
            "seconds_per_run": SECONDS,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "seeds": {str(seed): {} for seed in SEEDS},
            "run_batch": time_batches(ROOT, SEEDS[0], BATCH_REPS),
        }
        for (seed, workload), sides in runs.items():
            provenance = sides["head"][0].get("provenance", {})
            record["seeds"][str(seed)][workload] = {
                "nproc": provenance.get("nproc"),
                "blas_threads": provenance.get("blas", {}).get("threads"),
                "workers": provenance.get("workers"),
                "numpy": provenance.get("numpy"),
                "python": provenance.get("python"),
                "correct": {side: [r["correct"] for r in results]
                            for side, results in sides.items()},
                "compiled_from_source": {side: [r["compiled_from_source"] for r in results]
                                         for side, results in sides.items()},
                "metrics": compare(sides["base"], sides["head"], declared),
            }
        record["run_batch_env"] = {"nproc": len(os.sched_getaffinity(0)), "blas_threads": 1,
                                   "workers": [1, 2], "reps": BATCH_REPS, "seed": SEEDS[0]}
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0

if __name__ == "__main__":
    sys.exit(main())
