"""Command-line front end: build the measurement schemes, verify every closed
form against its independent numerical oracle, and run Monte Carlo batches.

Subcommands

    dims        subspace dimension tables and the split-dimension identity
    minerr      minimum-error identification (global optimum, LOCC check,
                optional simulation)
    unamb       unambiguous identification at equal priors (global + separable
                optima, gap, optional simulation)
    verify-all  the full invariant suite over the standard grids

Reports carry one row per check with the analytic value, the oracle value,
their absolute difference and a pass flag; exit code 0 means every check
passed, 1 means some check failed, 2 means a usage error (a bad flag, a
report that cannot be written to --out or stdout, or a simulation that does
not fit in memory).  The CLI checks only which flags go together, --seed
and --out; a value out of range is refused by the library's rule for it
(symmetry.check_dims, minerr.Priors, simulate.check_batch) before any work.
Each of these is one stderr line, `stateid: error: <text>`; only a flag
argparse cannot parse gets argparse's own usage message.  Every oracle reads
spectra and traces on the irreps of S3 (linalg), every mean success is
povm.mean_success and every sampled <psi| E |psi> reads simulate.invariants,
so no command forms a dense operator, at any dimension.
Reports are deterministic for a fixed seed and config (independent of
--workers).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io
import json
import os
import sys

from . import checks, minerr, unambiguous
from .linalg import spectrum
from .minerr import Priors
from .povm import mean_success
from .simulate import MIN_FORK_CHUNK, GlobalTrialSpec, LoccTrialSpec, check_batch, run_batch
from .symmetry import check_dims, dimension_table

MC_SIGMA_GATE = 4.0


def _fmt(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return float(f"{float(value):.12g}")


def _format_report(report: dict) -> dict:
    def walk(obj):
        if isinstance(obj, dict):
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [walk(v) for v in obj]
        return _fmt(obj)

    return walk(report)


def _render(report: dict, args) -> str:
    report = _format_report(report)
    if args.json:
        return json.dumps(report, indent=2) + "\n"
    if args.csv:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "analytic", "oracle", "diff", "pass"])
        for row in report["checks"]:
            writer.writerow([row["name"], row["analytic"], row["oracle"],
                             row["diff"], row["pass"]])
        return buf.getvalue()
    lines = [f"command: {report['command']}"]
    for key, value in report["config"].items():
        lines.append(f"  {key} = {value}")
    if report["values"]:
        lines.append("values:")
        for key, value in report["values"].items():
            lines.append(f"  {key} = {value}")
    if report.get("monte_carlo"):
        lines.append("monte carlo:")
        for key, value in report["monte_carlo"].items():
            lines.append(f"  {key} = {value}")
    lines.append("checks:")
    for row in report["checks"]:
        status = "PASS" if row["pass"] else "FAIL"
        lines.append(f"  [{status}] {row['name']}: analytic={row['analytic']} "
                     f"oracle={row['oracle']} diff={row['diff']}")
    failed = [row["name"] for row in report["checks"] if not row["pass"]]
    lines.append("result: " + ("all checks passed" if not failed
                               else "FAILED: " + ", ".join(failed)))
    return "\n".join(lines) + "\n"


def _usage_error(message: str) -> int:
    """Report a usage error on one stderr line; returns exit code 2."""
    sys.stderr.write(f"stateid: error: {message}\n")
    return 2


def _emit(report: dict, args) -> int:
    report["passed"] = all(row["pass"] for row in report["checks"])
    text = _render(report, args)
    try:
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # where the caller sends it: a usage error, not a failed check
        if args.out:
            return _usage_error(f"cannot write --out {args.out}: {exc.strerror}")
        # drop what stdout still buffers, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _usage_error(f"cannot write the report to stdout: {exc.strerror}")
    return 0 if report["passed"] else 1


def cmd_dims(args) -> int:
    report = {"command": "dims", "config": _config_echo(args), "values": {}, "checks": []}
    dims = [args.d] if args.d else dict.fromkeys([args.da, args.db, args.da * args.db])
    for d in dims:
        t = dimension_table(d)
        for key in ("d", "sym2", "sym3", "antisym3", "mixed3", "total"):
            report["values"][f"d{d}_{key}"] = getattr(t, key)
        report["checks"].append(checks.row(
            f"subspace_dims_sum_d{d}", t.total, t.sym3 + t.antisym3 + t.mixed3, tol=0))
    if args.da:
        split = checks.instance_row(checks.split_identity, args.da, args.db)
        report["values"]["split_identity_lhs"] = split["analytic"]
        report["values"]["split_identity_rhs"] = split["oracle"]
        report["checks"].append(split)
    return _emit(report, args)


def cmd_minerr(args) -> int:
    priors = Priors.from_eta1(args.eta1)
    d = args.d if args.d else args.da * args.db
    report = {"command": "minerr", "config": _config_echo(args),
              "values": {}, "checks": [], "monte_carlo": None}

    dual_route = checks.instance_row(checks.minerr_dual_route, d, args.eta1)
    closed = dual_route["analytic"]
    lam_plus, lam_minus = minerr.gain_eigenvalues_mixed(priors)
    report["values"].update({
        "d": d, "eta1": priors.eta1, "eta2": priors.eta2,
        "lambda_plus": lam_plus, "lambda_minus": lam_minus, "p_max": closed,
    })
    if args.baseline:
        report["values"]["baseline_no_measurement"] = max(priors.eta1, priors.eta2)

    report["checks"].append(dual_route)
    global_povm = minerr.optimal_global_povm(d, priors)
    report["checks"].append(checks.row(
        "pmax_closed_vs_povm_trace", closed,
        mean_success(global_povm, priors), tol=1e-9))

    if args.locc:
        locc = checks.instance_row(checks.minerr_locc, args.da, args.db, args.eta1)
        report["values"]["locc_overlap"] = locc["oracle"]
        report["checks"].append(locc)

    if args.simulate:
        if args.locc:
            spec = LoccTrialSpec(minerr.locc_protocol(args.da, args.db, priors), priors)
        else:
            spec = GlobalTrialSpec(global_povm, d, priors)
        stats = run_batch(spec, args.n, args.seed, args.workers, target=closed)
        report["monte_carlo"] = dataclasses.asdict(stats)
        report["checks"].append(_within_sigma_check(stats))
    return _emit(report, args)


def cmd_unamb(args) -> int:
    d = args.d if args.d else args.da * args.db
    report = {"command": "unamb", "config": _config_echo(args),
              "values": {}, "checks": [], "monte_carlo": None}

    global_row = checks.instance_row(checks.unamb_global, d)
    report["values"].update({"d": d, "p_max_global": global_row["analytic"]})
    if args.baseline:
        report["values"]["baseline_no_measurement"] = 0.0
    report["checks"].append(global_row)

    if args.da:
        separable = checks.instance_row(checks.unamb_separable, args.da, args.db)
        gap = checks.instance_row(checks.gap, args.da, args.db)
        report["values"].update({"p_max_locc": separable["analytic"], "gap": gap["oracle"]})
        report["checks"].append(separable)
        report["checks"].append(checks.row(
            "feasibility_boundary_gamma", 1.0,
            float(spectrum(unambiguous.mixed_block_table(0.5, 0.5), (args.da, args.db))[0].max()),
            tol=1e-9))
        report["checks"].append(gap)

    if args.simulate:
        priors = minerr.EQUAL_PRIORS
        if args.da:
            spec = LoccTrialSpec(unambiguous.locc_protocol(args.da, args.db), priors)
            target = separable["analytic"]
        else:
            spec = GlobalTrialSpec(unambiguous.optimal_global_povm(d), d, priors)
            target = global_row["analytic"]
        stats = run_batch(spec, args.n, args.seed, args.workers, target=target)
        report["monte_carlo"] = dataclasses.asdict(stats)
        report["checks"].append(checks.row(
            "monte_carlo_zero_errors", 0, stats.errors, stats.errors == 0))
        report["checks"].append(_within_sigma_check(stats))
    return _emit(report, args)


def _within_sigma_check(stats) -> dict:
    # the stderr is taken at the target, so an exact p_hat of 0 or 1 cannot fail
    return checks.row(
        "monte_carlo_within_4_sigma", stats.target, stats.p_hat,
        abs(stats.p_hat - stats.target) <= MC_SIGMA_GATE * stats.target_stderr)


def cmd_verify_all(args) -> int:
    rows = {check: checks.grid_row(check, args.seed) for check in checks.CHECKS}
    report = {"command": "verify-all", "config": _config_echo(args),
              "values": {"min_global_local_gap": rows[checks.gap]["oracle"]},
              "checks": list(rows.values())}
    return _emit(report, args)


def _config_echo(args) -> dict:
    echo = {"command": args.command}
    for key in ("d", "da", "db", "eta1", "locc", "simulate", "n", "seed",
                "workers", "baseline"):
        if hasattr(args, key):
            echo[key] = getattr(args, key)
    return echo


def _add_output_flags(sub) -> None:
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit a JSON report")
    fmt.add_argument("--csv", action="store_true", help="emit one CSV row per check")
    sub.add_argument("--out", metavar="PATH", help="write the report to PATH")


def _add_dim_flags(sub) -> None:
    sub.add_argument("--d", type=int, help="local dimension (unsplit systems)")
    sub.add_argument("--da", type=int, help="Alice's local dimension")
    sub.add_argument("--db", type=int, help="Bob's local dimension")


def _add_sim_flags(sub) -> None:
    sub.add_argument("--simulate", action="store_true", help="run a Monte Carlo batch")
    sub.add_argument("--n", type=int, default=10000, help="number of trials")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--workers", type=int, default=1,
                     help="parallel worker count, at most the usable CPU count; a batch "
                          f"forks only when each chunk holds at least {MIN_FORK_CHUNK} trials "
                          "(simulate.MIN_FORK_CHUNK, the fewest that repay a fork) and "
                          "otherwise runs in one process")
    sub.add_argument("--baseline", action="store_true",
                     help="include the no-reference-copy baseline value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stateid",
        description="Optimal global and LOCC schemes for two-reference pure-state identification.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_dims = subs.add_parser("dims", help="subspace dimension tables")
    _add_dim_flags(p_dims)
    _add_output_flags(p_dims)

    p_min = subs.add_parser("minerr", help="minimum-error identification")
    _add_dim_flags(p_min)
    p_min.add_argument("--eta1", type=float, default=0.5,
                       help="prior probability of reference 1")
    p_min.add_argument("--locc", action="store_true",
                       help="also build and check the separable optimum")
    _add_sim_flags(p_min)
    _add_output_flags(p_min)

    p_un = subs.add_parser("unamb", help="unambiguous identification (equal priors)")
    _add_dim_flags(p_un)
    _add_sim_flags(p_un)
    _add_output_flags(p_un)

    p_all = subs.add_parser("verify-all", help="full invariant suite on the standard grids")
    p_all.add_argument("--seed", type=int, default=0, help="seed for the sampled checks")
    _add_output_flags(p_all)

    return parser


def _out_problem(path: str) -> str | None:
    """Why the report could not be written to path, or None; creates no file."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if os.path.exists(path):
        return None if os.access(path, os.W_OK) else os.strerror(errno.EACCES)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOENT)
    return None if os.access(parent, os.W_OK | os.X_OK) else os.strerror(errno.EACCES)


def _validate(args) -> str | None:
    """Check the flags before any work.  A bad flag combination, a negative
    --seed, an --out path that cannot be written, or a value the library's
    rules refuse (symmetry.check_dims, minerr.Priors, simulate.check_batch,
    in the rule's own text) is returned as a one-line message, which main
    reports as a usage error."""
    if getattr(args, "seed", 0) < 0:
        return f"--seed must be >= 0, got {args.seed}"
    if args.out and (problem := _out_problem(args.out)):
        return f"cannot write --out {args.out}: {problem}"
    if args.command == "verify-all":
        return None
    has_d = args.d is not None
    has_split = args.da is not None or args.db is not None
    if has_d == has_split:
        return "give either --d or both --da and --db"
    if has_split and (args.da is None or args.db is None):
        return "--da and --db must be given together"
    if getattr(args, "locc", False) and not has_split:
        return "--locc needs --da and --db"
    try:
        check_dims((args.d,) if has_d else (args.da, args.db))
        if hasattr(args, "eta1"):
            Priors.from_eta1(args.eta1)
        if getattr(args, "simulate", False):
            check_batch(args.n, args.workers)
    except ValueError as exc:
        return str(exc)
    return None


_COMMANDS = {
    "dims": cmd_dims,
    "minerr": cmd_minerr,
    "unamb": cmd_unamb,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _validate(args)
    if problem:
        return _usage_error(problem)
    try:
        return _COMMANDS[args.command](args)
    except MemoryError:   # a simulation's blocks still grow with d: a huge --d or --da
        return _usage_error("not enough memory for a simulation at these dimensions")


if __name__ == "__main__":
    sys.exit(main())
