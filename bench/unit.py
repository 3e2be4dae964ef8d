"""One unit of a benchmark workload, run in a fresh interpreter by run.py.

    python3 bench/unit.py --workload mc-2x2 --seed 7 [--trace]
    python3 bench/unit.py --probe --workers 2 --seed 7

A unit imports stateid from the checkout's src/, sets up (toolkits,
protocols, POVMs), then does the workload's work: seeded Monte Carlo batches
through simulate.run_batch, or the verification suite.  It checks every
output and prints one JSON line: the CPU time of set-up (from process start)
and of the whole unit with its workers, the wall time of the work phase,
operations attempted and failed, the problems found (any problem makes the
run incorrect), and peak memory.  With
--trace it also records spans (spans.py) and reports the per-layer figures,
including a single-worker sample of trials taken after the batches.
--probe times one (2,2) min-error batch at the given worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 7
# Monte Carlo gate: |p_hat - target| <= SIGMA_GATE * sqrt(target (1 - target) / n),
# the stderr taken from the target so that exact results cannot fail it.
SIGMA_GATE = 4.0
FLATTEN_ATOL = 1e-9
FLATTEN_SPLITS = ((2, 2), (2, 3), (3, 3))
# Single-worker trial sample of a traced unit, per batch; drawn at the fixed
# default seed so that its counts repeat exactly.
SAMPLE_TRIALS = {"mc-2x2": 400, "mc-3x3": 120}
SAMPLE_METRICS = ("simulate.trial_us_p50", "simulate.trial_us_p99", "simulate.trial_samples",
                  "simulate.seed_us", "simulate.haar_us", "simulate.walk_us",
                  "simulate.steps_per_trial")
PROBE_TRIALS = 2000
EDGE_TRIALS = "2000"

# (name, task, (d_a, d_b) or d, eta1, trials) per Monte Carlo workload
BATCHES = {
    "mc-2x2": (
        ("minerr-locc-2x2", "minerr", (2, 2), 0.5, 4000),
        ("unamb-locc-2x2", "unamb", (2, 2), 0.5, 4000),
        ("minerr-global-d4", "minerr", 4, 0.5, 4000),
    ),
    "mc-3x3": (
        ("minerr-locc-3x3", "minerr", (3, 3), 0.7, 200),
        ("unamb-locc-3x3", "unamb", (3, 3), 0.5, 200),
    ),
}

# CLI invocations at degenerate and near-degenerate priors.  Each should give
# a right answer (exit 0, every check passed) or a clean usage error (exit 2).
EDGE_ARGV = (
    ("minerr", "--d", "2", "--eta1", "nan"),
    ("minerr", "--d", "2", "--eta1", "1e-9"),
    ("minerr", "--da", "2", "--db", "2", "--eta1", "0", "--locc"),
    ("minerr", "--da", "2", "--db", "2", "--eta1", "1e-9", "--locc"),
    ("minerr", "--d", "2", "--eta1", "1", "--simulate", "--n", EDGE_TRIALS),
    ("minerr", "--da", "2", "--db", "2", "--eta1", "1", "--locc", "--simulate",
     "--n", EDGE_TRIALS),
)


def import_stateid():
    """Import stateid from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import stateid
    if Path(stateid.__file__).resolve().parent != (src / "stateid").resolve():
        raise ImportError(f"stateid imported from {stateid.__file__}, not {src}")
    return stateid


def load_expected() -> dict:
    with open(BENCH / "expected_counts.json") as handle:
        return json.load(handle)["batches"]


def make_spec(task, dims, eta1):
    """Trial spec and closed-form target of one batch, as the CLI builds them."""
    from stateid import minerr, simulate, unambiguous

    priors = minerr.Priors.from_eta1(eta1)
    if isinstance(dims, int):
        povm = minerr.optimal_global_povm(dims, priors)
        return simulate.GlobalTrialSpec(povm, dims, priors), minerr.max_success_global(dims, priors)
    d_a, d_b = dims
    if task == "minerr":
        proto = minerr.locc_protocol(d_a, d_b, priors)
        target = minerr.max_success_global(d_a * d_b, priors)
    else:
        proto = unambiguous.locc_protocol(d_a, d_b)
        target = unambiguous.max_success_separable(d_a, d_b)
    return simulate.LoccTrialSpec(proto, priors), target


def gate_batch(name, task, counts, n, target, recorded=None) -> list[str]:
    """Problems with one batch's (successes, errors, inconclusive) counts.

    recorded is the entry of expected_counts.json that the counts must match
    exactly (at the default seed), or None.
    """
    problems = []
    successes, errors, inconclusive = counts
    if successes + errors + inconclusive != n:
        problems.append(f"{name}: counts {counts} do not add up to {n}")
    if recorded is not None and (recorded["n"] != n or list(counts) != recorded["counts"]):
        problems.append(f"{name}: counts {list(counts)} at n={n} differ from the "
                        f"recorded {recorded['counts']} at n={recorded['n']}")
    p_hat = successes / n
    limit = SIGMA_GATE * math.sqrt(target * (1.0 - target) / n)
    if abs(p_hat - target) > limit:
        problems.append(f"{name}: p_hat {p_hat:.5f} is {abs(p_hat - target):.5f} from "
                        f"{target:.5f}, over the {SIGMA_GATE:g}-sigma limit {limit:.5f}")
    if task == "unamb" and errors:
        problems.append(f"{name}: {errors} errors in an unambiguous batch")
    return problems


def tree_nodes(proto) -> int:
    """Distinct measurement steps of a protocol tree."""
    seen, todo = set(), [proto.root]
    while todo:
        node = todo.pop()
        children = getattr(node, "children", None)
        if children is None or id(node) in seen:
            continue
        seen.add(id(node))
        todo.extend(children.values())
    return len(seen)


class Unit:
    def __init__(self, workload: str, seed: int, workers: int) -> None:
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self.problems: list[str] = []
        self.extra: dict = {}

    # --- Monte Carlo workloads -------------------------------------------

    def setup_mc(self) -> None:
        self.batches = []
        for name, task, dims, eta1, n in BATCHES[self.workload]:
            spec, target = make_spec(task, dims, eta1)
            self.batches.append((name, task, spec, target, n))

    def work_mc(self) -> None:
        from stateid import simulate

        expected = load_expected() if self.seed == DEFAULT_SEED else {}
        for name, task, spec, target, n in self.batches:
            self.attempted += n
            try:
                stats = simulate.run_batch(spec, n, self.seed, self.workers, target=target)
            except Exception as exc:  # a trial abort or crash loses the whole batch
                self.failed += n
                self.problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            self.trials += n
            counts = (stats.successes, stats.errors, stats.inconclusive)
            if self.seed == DEFAULT_SEED and name not in expected:
                self.problems.append(f"{name}: no counts recorded at seed {DEFAULT_SEED}")
            self.problems += gate_batch(name, task, counts, n, target, expected.get(name))

    # --- verification workload -------------------------------------------

    def setup_verify(self) -> None:
        import numpy as np
        from stateid import minerr, symmetry, unambiguous

        for d in (2, 3, 4, 5, 6, 9):
            symmetry.build_toolkit(d)
        # the min-error trees are flattened at a prior drawn from the seed
        eta1 = round(0.1 + 0.3 * np.random.default_rng(self.seed).random(), 6)
        self.priors = minerr.Priors.from_eta1(eta1)
        self.trees = []
        for d_a, d_b in FLATTEN_SPLITS:
            symmetry.bipartite_toolkit(d_a, d_b)
            self.trees.append(("minerr", d_a, d_b, minerr.locc_protocol(d_a, d_b, self.priors)))
            self.trees.append(("unamb", d_a, d_b, unambiguous.locc_protocol(d_a, d_b)))

    def work_verify(self) -> None:
        import numpy as np
        from stateid import cli, minerr, protocol, unambiguous

        t0 = time.perf_counter()
        rc, out = self.call_cli(cli, ("verify-all", "--json", "--seed", str(self.seed)))
        self.extra["verify_all_s"] = time.perf_counter() - t0
        checks = json.loads(out)["checks"] if rc in (0, 1) else []
        if not checks:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"verify-all gave exit {rc} and no checks")
        for row in checks:
            self.attempted += 1
            if not row["pass"]:
                self.failed += 1
                self.problems.append(f"verify-all check {row['name']} failed: {row}")

        for task, d_a, d_b, proto in self.trees:
            self.attempted += 1
            eff = protocol.effective_povm(proto)
            if task == "minerr":
                ref = minerr.locc_povm_element(d_a, d_b, self.priors)
                pairs = [(eff.element(k), ref.element(k)) for k in (1, 2)]
            else:
                ref = unambiguous.separable_unamb_povm(
                    d_a, d_b, unambiguous.SeparableCoeffs.optimal())
                pairs = [(eff.element(1), ref.e1), (eff.element(2), ref.e2),
                         (eff.element(0), ref.e0)]
            defect = max(float(np.abs(a - b).max()) for a, b in pairs)
            if defect > FLATTEN_ATOL:
                self.failed += 1
                self.problems.append(f"flattened {task} tree at ({d_a},{d_b}) is "
                                     f"{defect:.3e} from its closed form")

        edge_failures = []
        for argv in EDGE_ARGV:
            self.attempted += 1
            if "--simulate" in argv:
                argv += ("--seed", str(self.seed))
            rc, _ = self.call_cli(cli, argv)
            if rc not in (0, 2):
                edge_failures.append(f"{' '.join(argv)}: {rc}")
        self.failed += len(edge_failures)
        self.extra["edge_failures"] = edge_failures

    @staticmethod
    def call_cli(cli, argv) -> tuple[object, str]:
        """Exit code (or the exception's name) and stdout of one CLI call."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the edge instances report what escaped
            rc = type(exc).__name__
        return rc, out.getvalue()

    # --- single-worker trial sample (traced units) ------------------------

    def sample(self, tracer) -> dict:
        """Time trials one by one as _run_chunk runs them, after a warm-up pass.

        Both passes draw the same trials, so the second finds every lazily
        built operator on its path already cached.
        """
        import numpy as np
        from stateid import simulate

        per_batch = SAMPLE_TRIALS[self.workload]
        trial_us, seed_us = [], []
        steps = locc_trials = aborts = 0
        for timed in (False, True):
            tracer.reset()
            for _name, _task, spec, _target, _n in self.batches:
                for i in range(per_batch):
                    t0 = time.perf_counter()
                    rng = np.random.default_rng((DEFAULT_SEED, i))
                    t1 = time.perf_counter()
                    try:
                        record = spec.run(rng, i)
                    except simulate.TrialAbort:
                        if timed:
                            aborts += 1
                        continue
                    t2 = time.perf_counter()
                    if timed:
                        trial_us.append((t2 - t0) * 1e6)
                        seed_us.append((t1 - t0) * 1e6)
                        if isinstance(spec, simulate.LoccTrialSpec):
                            steps += len(record.transcript)
                            locc_trials += 1
        n = len(trial_us)
        trial_us.sort()
        layers = tracer.layers
        return {
            "simulate.trial_us_p50": trial_us[n // 2],
            "simulate.trial_us_p99": trial_us[min(n - 1, math.ceil(0.99 * n) - 1)],
            "simulate.trial_samples": n,
            "simulate.seed_us": sum(seed_us) / n,
            "simulate.haar_us": layer_total(layers, "simulate.haar") * 1e6 / n,
            "simulate.walk_us": (layers["simulate.trial"].self_s * 1e6 / n
                                 if "simulate.trial" in layers else 0.0),
            "simulate.steps_per_trial": steps / max(locc_trials, 1),
            "sample_aborts": aborts,
        }


def layer_total(layers, name) -> float:
    return layers[name].total_s if name in layers else 0.0


def layer_calls(layers, name) -> int:
    return layers[name].calls if name in layers else 0


def per_layer(layers, unit: Unit) -> dict:
    """Per-layer figures of the unit phase, by the metric names of BENCHMARK.json."""
    flat = {name[len("protocol.flatten_"):]: s for name, s in layers.items()
            if name.startswith("protocol.flatten_")}
    small = [s for split, s in flat.items() if split != "3x3"]
    trees = [proto for *_, proto in getattr(unit, "trees", ())] + [
        spec.protocol for _n, _t, spec, _g, _k in getattr(unit, "batches", ())
        if hasattr(spec, "protocol")]
    aborts = layers["simulate.trial"].errors.get("TrialAbort", 0) if "simulate.trial" in layers else 0
    return {
        "symmetry.toolkit_s": layer_total(layers, "symmetry.toolkit"),
        "symmetry.regroup_calls": layer_calls(layers, "symmetry.regroup"),
        "symmetry.regroup_s": layer_total(layers, "symmetry.regroup"),
        "linalg.eig_calls": layer_calls(layers, "linalg.eig"),
        "linalg.eig_s": layer_total(layers, "linalg.eig"),
        "linalg.eig_dim_max": layers["linalg.eig"].max_dim if "linalg.eig" in layers else 0,
        "povm.validate_calls": layer_calls(layers, "povm.validate"),
        "povm.validate_s": layer_total(layers, "povm.validate"),
        "protocol.nodes": sum(map(tree_nodes, trees)) / max(len(trees), 1),
        "protocol.lift_calls": layer_calls(layers, "protocol.lift"),
        "protocol.lift_s": layer_total(layers, "protocol.lift"),
        "protocol.lifted_mb": (layers["protocol.lift"].nbytes / 1e6
                               if "protocol.lift" in layers else 0.0),
        "protocol.flatten_s": (sum(s.total_s for s in small) / sum(s.calls for s in small)
                               if small else 0.0),
        "protocol.flatten_3x3_s": (flat["3x3"].total_s / flat["3x3"].calls
                                   if "3x3" in flat else 0.0),
        "minerr.protocol_build_s": layer_total(layers, "minerr.protocol_build"),
        "unambiguous.protocol_build_s": layer_total(layers, "unambiguous.protocol_build"),
        "minerr.locc_element_s": layer_total(layers, "minerr.locc_element"),
        "unambiguous.separable_povm_s": layer_total(layers, "unambiguous.separable_povm"),
        "minerr.eigen_route_s": layer_total(layers, "minerr.eigen_route"),
        "simulate.aborts": aborts,
        "cli.verify_all_s": unit.extra.get("verify_all_s", 0.0),
        "cli.edge_failures": len(unit.extra.get("edge_failures", ())),
        # filled in from the trial sample on the Monte Carlo workloads
        **dict.fromkeys(SAMPLE_METRICS, 0),
    }


def environment(stateid) -> dict:
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    return {"numpy": np.__version__, "python": platform.python_version(),
            "blas": blas, "stateid": getattr(stateid, "__version__", None)}


def peak_rss_mb(workers: int) -> float:
    """This process's peak plus, per worker, the largest reaped child's peak (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if child else 0)) / 1024.0


def run_probe(seed: int, workers: int) -> dict:
    stateid = import_stateid()
    from stateid import simulate

    name, task, dims, eta1, _ = BATCHES["mc-2x2"][0]
    spec, target = make_spec(task, dims, eta1)
    t0 = time.perf_counter()
    stats = simulate.run_batch(spec, PROBE_TRIALS, seed, workers, target=target)
    batch_s = time.perf_counter() - t0
    counts = (stats.successes, stats.errors, stats.inconclusive)
    return {"batch_s": batch_s, "attempted": PROBE_TRIALS, "failed": 0,
            "env": environment(stateid),
            "problems": gate_batch(name, task, counts, PROBE_TRIALS, target)}


def run_unit(workload: str, seed: int, workers: int, trace: bool) -> dict:
    stateid = import_stateid()
    tracer = None
    if trace:
        import spans
        tracer = spans.activate()
    unit = Unit(workload, seed, workers)
    mc = workload in BATCHES
    (unit.setup_mc if mc else unit.setup_verify)()
    setup_cpu_s = time.process_time()
    work_start = time.perf_counter()
    (unit.work_mc if mc else unit.work_verify)()
    work_s = time.perf_counter() - work_start
    workers_usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = {
        "setup_cpu_s": setup_cpu_s,
        "unit_cpu_s": time.process_time() + workers_usage.ru_utime + workers_usage.ru_stime,
        "work_s": work_s,
        "attempted": unit.attempted,
        "failed": unit.failed,
        "trials": unit.trials,
        "problems": unit.problems,
        "extra": unit.extra,
        "peak_rss_mb": peak_rss_mb(workers if mc else 0),
        "env": environment(stateid),
    }
    if tracer is not None:
        layers = per_layer(tracer.layers, unit)
        if mc:
            sample = unit.sample(tracer)
            layers["simulate.aborts"] += sample.pop("sample_aborts")
            layers.update(sample)
        result["per_layer"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BATCHES) + ["verify"])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.probe:
        result = run_probe(args.seed, args.workers)
    else:
        result = run_unit(args.workload, args.seed, args.workers, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
