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
passed, 1 means some check failed, 2 means a usage error.  Reports are
deterministic for a fixed seed and config (independent of --workers).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys

import numpy as np

from . import minerr, unambiguous
from .linalg import positive_part_projector
from .minerr import Priors
from .simulate import GlobalTrialSpec, LoccTrialSpec, run_batch
from .symmetry import build_toolkit, check_dim_relation, dimension_table

MC_SIGMA_GATE = 4.0
GAP_THRESHOLD = 1e-3


def _check(name: str, analytic: float, oracle: float, tol: float) -> dict:
    diff = abs(analytic - oracle)
    return {"name": name, "analytic": analytic, "oracle": oracle,
            "diff": diff, "pass": bool(diff <= tol)}


def _flag_check(name: str, analytic: float, oracle: float, passed: bool) -> dict:
    return {"name": name, "analytic": analytic, "oracle": oracle,
            "diff": abs(analytic - oracle), "pass": bool(passed)}


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
    text = _render(report, args)
    if args.out:
        try:
            handle = open(args.out, "w")
        except OSError as exc:  # a path the caller gave: a usage error, not a failed check
            return _usage_error(f"cannot write --out {args.out}: {exc.strerror}")
        with handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


def _finish(report: dict) -> None:
    report["passed"] = all(row["pass"] for row in report["checks"])


def _dims_values(d: int) -> dict:
    t = dimension_table(d)
    return {"d": t.d, "sym2": t.sym2, "sym3": t.sym3,
            "antisym3": t.antisym3, "mixed3": t.mixed3, "total": t.total}


def cmd_dims(args) -> int:
    report = {"command": "dims", "config": _config_echo(args), "values": {}, "checks": []}
    dims = [args.d] if args.d else [args.da, args.db, args.da * args.db]
    for d in dims:
        for key, value in _dims_values(d).items():
            report["values"][f"d{d}_{key}"] = value
        t = dimension_table(d)
        report["checks"].append(_check(
            f"subspace_dims_sum_d{d}", t.total, t.sym3 + t.antisym3 + t.mixed3, 0))
    if args.da:
        rel = check_dim_relation(args.da, args.db)
        report["values"]["split_identity_lhs"] = rel.lhs
        report["values"]["split_identity_rhs"] = rel.rhs
        report["checks"].append(_check("split_dimension_identity", rel.lhs, rel.rhs, 0))
    _finish(report)
    return _emit(report, args)


def _locc_overlaps(d_a: int, d_b: int, priors: Priors) -> tuple[float, float]:
    """tr[E1*G] of the global positive-part projector and of the separable
    element, for priors with eta1 <= eta2."""
    gain = minerr.gain_operator(d_a * d_b, priors)
    overlap_global = float(np.einsum("ij,ji->", positive_part_projector(gain), gain).real)
    overlap_locc = float(np.einsum(
        "ij,ji->", minerr.locc_povm_element(d_a, d_b, priors).element(1), gain).real)
    return overlap_global, overlap_locc


def cmd_minerr(args) -> int:
    priors = Priors.from_eta1(args.eta1)
    d = args.d if args.d else args.da * args.db
    report = {"command": "minerr", "config": _config_echo(args),
              "values": {}, "checks": [], "monte_carlo": None}

    lam_plus, lam_minus = minerr.gain_eigenvalues_mixed(priors)
    closed = minerr.max_success_global(d, priors)
    report["values"].update({
        "d": d, "eta1": priors.eta1, "eta2": priors.eta2,
        "lambda_plus": lam_plus, "lambda_minus": lam_minus, "p_max": closed,
    })
    if args.baseline:
        report["values"]["baseline_no_measurement"] = max(priors.eta1, priors.eta2)

    report["checks"].append(_check(
        "pmax_closed_vs_eigensum", closed,
        minerr.max_success_eigenvalue_route(d, priors), 1e-9))
    global_povm = minerr.optimal_global_povm(d, priors)
    report["checks"].append(_check(
        "pmax_closed_vs_povm_trace", closed,
        minerr.mean_success(global_povm, d, priors), 1e-9))

    if args.locc:
        # separable construction follows the eta1 <= eta2 convention
        ordered = priors if priors.eta1 <= priors.eta2 else priors.swapped()
        overlap_global, overlap_locc = _locc_overlaps(args.da, args.db, ordered)
        report["values"]["locc_overlap"] = overlap_locc
        report["checks"].append(_check(
            "locc_overlap_vs_global_overlap", overlap_global, overlap_locc, 1e-9))

    if args.simulate:
        if args.locc:
            spec = LoccTrialSpec(minerr.locc_protocol(args.da, args.db, priors), priors)
        else:
            spec = GlobalTrialSpec(global_povm, d, priors)
        stats = run_batch(spec, args.n, args.seed, args.workers, target=closed)
        report["monte_carlo"] = _mc_block(stats)
        report["checks"].append(_within_sigma_check(stats))
    _finish(report)
    return _emit(report, args)


def cmd_unamb(args) -> int:
    d = args.d if args.d else args.da * args.db
    report = {"command": "unamb", "config": _config_echo(args),
              "values": {}, "checks": [], "monte_carlo": None}

    p_global = unambiguous.max_success_global(d)
    report["values"].update({"d": d, "p_max_global": p_global})
    if args.baseline:
        report["values"]["baseline_no_measurement"] = 0.0
    global_povm = unambiguous.global_unamb_povm(d)
    report["checks"].append(_check(
        "global_success_vs_closed", p_global,
        unambiguous.success_probability(global_povm, d), 1e-10))

    if args.da:
        p_locc = unambiguous.max_success_separable(args.da, args.db)
        gap = p_global - p_locc
        report["values"].update({"p_max_locc": p_locc, "gap": gap})
        separable = unambiguous.separable_unamb_povm(
            args.da, args.db, unambiguous.SeparableCoeffs.optimal())
        report["checks"].append(_check(
            "separable_success_vs_closed", p_locc,
            unambiguous.success_probability(separable, d), 1e-10))
        report["checks"].append(_check(
            "feasibility_boundary_gamma", 1.0,
            float(np.linalg.eigvalsh(
                unambiguous.mixed_block_operator(args.da, args.db, 0.5, 0.5)).max()),
            1e-9))
        report["checks"].append(_flag_check(
            "gap_exceeds_threshold", GAP_THRESHOLD, gap, gap > GAP_THRESHOLD))

    if args.simulate:
        priors = minerr.EQUAL_PRIORS
        if args.da:
            spec = LoccTrialSpec(unambiguous.locc_protocol(args.da, args.db), priors)
            target = unambiguous.max_success_separable(args.da, args.db)
        else:
            spec = GlobalTrialSpec(global_povm.as_povm(), d, priors)
            target = p_global
        stats = run_batch(spec, args.n, args.seed, args.workers, target=target)
        report["monte_carlo"] = _mc_block(stats)
        report["checks"].append(_flag_check(
            "monte_carlo_zero_errors", 0, stats.errors, stats.errors == 0))
        report["checks"].append(_within_sigma_check(stats))
    _finish(report)
    return _emit(report, args)


def _within_sigma_check(stats) -> dict:
    # the stderr is taken at the target, so an exact p_hat of 0 or 1 cannot fail
    return _flag_check(
        "monte_carlo_within_4_sigma", stats.target, stats.p_hat,
        abs(stats.p_hat - stats.target) <= MC_SIGMA_GATE * stats.target_stderr)


def _mc_block(stats) -> dict:
    return {
        "n_trials": stats.n_trials,
        "successes": stats.successes,
        "errors": stats.errors,
        "inconclusive": stats.inconclusive,
        "p_hat": stats.p_hat,
        "stderr": stats.stderr,
        "target": stats.target,
    }


def _toolkit_defect(d: int) -> float:
    tk = build_toolkit(d)
    eye = np.eye(d**3)
    vm = tk.dims.mixed3
    pieces = [
        tk.swap_diff @ tk.swap_diff - 0.75 * tk.mixed3,
        tk.swap_diff @ tk.swap_sum + tk.swap_sum @ tk.swap_diff,
        tk.swap_sum @ tk.swap_sum - (eye - tk.swap_diff @ tk.swap_diff),
        tk.sym3 + tk.antisym3 + tk.mixed3 - eye,
        tk.sym3 @ tk.sym3 - tk.sym3,
        tk.antisym3 @ tk.antisym3 - tk.antisym3,
        tk.mixed3 @ tk.mixed3 - tk.mixed3,
        tk.mixed3 @ tk.swap01 - tk.swap01 @ tk.mixed3,
        tk.mixed3 @ tk.swap02 - tk.swap02 @ tk.mixed3,
        tk.mixed3 @ tk.swap12 - tk.swap12 @ tk.mixed3,
    ]
    defect = max(float(np.abs(p).max()) for p in pieces)
    traces = [
        np.trace(tk.sym3) - tk.dims.sym3,
        np.trace(tk.antisym3) - tk.dims.antisym3,
        np.trace(tk.mixed3) - vm,
        np.trace(tk.mixed3 @ tk.antisym02 @ tk.sym01) - 3 * vm / 8,
        np.trace(tk.mixed3 @ tk.sym02 @ tk.antisym01) - 3 * vm / 8,
        np.trace(tk.mixed3 @ tk.sym02 @ tk.sym01) - vm / 8,
        np.trace(tk.mixed3 @ tk.antisym02 @ tk.antisym01) - vm / 8,
        np.trace(tk.mixed3 @ tk.swap01),
        np.trace(tk.mixed3 @ tk.swap02),
    ]
    return max(defect, max(abs(float(t)) for t in traces))


def _no_error_defect(seed: int, n_pairs: int = 1000) -> float:
    """Largest wrong-label acceptance over n_pairs Haar reference pairs per scheme.

    One generator serves the schemes in turn (global d=2, global d=3,
    separable (2,2)); each scheme draws its pairs as one standard_normal
    block of shape (n_pairs, 2, 2, d), indexed [pair, reference, re/im].
    Generator normals carry no state between calls, so this is the same
    stream, in the same order, as two haar_state calls per pair (phi1 real,
    phi1 imag, phi2 real, phi2 imag).  The label-2 state phi2 phi1 phi2 is
    scored against e1 and the label-1 state phi1 phi1 phi2 against e2, each
    built by one outer product in kron's association.
    """
    rng = np.random.default_rng(seed)
    probes = []
    for d in (2, 3):
        povm = unambiguous.global_unamb_povm(d)
        probes.append((d, povm.e1, povm.e2))
    sep = unambiguous.separable_unamb_povm(2, 2, unambiguous.SeparableCoeffs.optimal())
    probes.append((4, sep.e1, sep.e2))
    worst = 0.0
    for d, e1, e2 in probes:
        z = rng.standard_normal((n_pairs, 2, 2, d))
        refs = z[:, :, 0] + 1j * z[:, :, 1]
        refs /= np.linalg.norm(refs, axis=-1, keepdims=True)
        phi1, phi2 = refs[:, 0], refs[:, 1]
        for first, e in ((phi2, e1), (phi1, e2)):   # true label 2, then 1
            s = ((first[:, :, None] * phi1[:, None, :])[:, :, :, None]
                 * phi2[:, None, None, :]).reshape(n_pairs, d**3)
            accept = np.einsum("ni,ni->n", s.conj(), s @ e.T).real
            worst = max(worst, float(accept.max()))
    return worst


def cmd_verify_all(args) -> int:
    report = {"command": "verify-all", "config": _config_echo(args),
              "values": {}, "checks": []}

    defect = max(_toolkit_defect(d) for d in range(2, 7))
    report["checks"].append(_check("toolkit_identities_d2_to_d6", 0.0, defect, 1e-9))

    residual = max(abs(check_dim_relation(da, db).residual)
                   for da in range(2, 6) for db in range(2, 6))
    report["checks"].append(_check("split_dimension_identity_grid", 0, residual, 0))

    dual = max(
        abs(minerr.max_success_global(d, Priors.from_eta1(round(0.1 * k, 1)))
            - minerr.max_success_eigenvalue_route(d, Priors.from_eta1(round(0.1 * k, 1))))
        for d in range(2, 7) for k in range(1, 10))
    report["checks"].append(_check("minerr_dual_route_grid", 0.0, dual, 1e-9))

    locc_gap = 0.0
    for da, db in ((2, 2), (2, 3), (3, 3)):
        for eta1 in (0.1, 0.3, 0.5):
            t_global, t_locc = _locc_overlaps(da, db, Priors.from_eta1(eta1))
            locc_gap = max(locc_gap, abs(t_global - t_locc))
    report["checks"].append(_check("minerr_locc_equality_grid", 0.0, locc_gap, 1e-9))

    unamb_dev = max(
        abs(unambiguous.success_probability(unambiguous.global_unamb_povm(d), d)
            - unambiguous.max_success_global(d))
        for d in range(2, 7))
    report["checks"].append(_check("unamb_global_grid", 0.0, unamb_dev, 1e-10))

    sep_dev = max(
        abs(unambiguous.success_probability(
            unambiguous.separable_unamb_povm(da, db, unambiguous.SeparableCoeffs.optimal()),
            da * db) - unambiguous.max_success_separable(da, db))
        for da, db in ((2, 2), (2, 3), (3, 3)))
    report["checks"].append(_check("unamb_separable_grid", 0.0, sep_dev, 1e-10))

    report["checks"].append(_check(
        "no_error_acceptance", 0.0, _no_error_defect(args.seed), 1e-10))

    min_gap = min(
        unambiguous.max_success_global(da * db) - unambiguous.max_success_separable(da, db)
        for da in range(2, 6) for db in range(2, 6))
    report["values"]["min_global_local_gap"] = min_gap
    report["checks"].append(_flag_check(
        "gap_strict_grid", GAP_THRESHOLD, min_gap, min_gap > GAP_THRESHOLD))

    _finish(report)
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
    sub.add_argument("--workers", type=int, default=1, help="parallel worker count")
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


def _validate(parser: argparse.ArgumentParser, args) -> str | None:
    """Check the flags before any work.

    A bad flag combination or range exits through parser.error.  A negative
    --seed or an --out path that cannot be written is returned as a one-line
    message, which main reports as a usage error.
    """
    if getattr(args, "seed", 0) < 0:
        return f"--seed must be >= 0, got {args.seed}"
    if args.out and (problem := _out_problem(args.out)):
        return f"cannot write --out {args.out}: {problem}"
    if args.command == "verify-all":
        return None
    has_d = args.d is not None
    has_split = args.da is not None or args.db is not None
    if has_d == has_split:
        parser.error("give either --d or both --da and --db")
    if has_split and (args.da is None or args.db is None):
        parser.error("--da and --db must be given together")
    if has_d and args.d < 2:
        parser.error(f"--d must be >= 2, got {args.d}")
    if has_split and (args.da < 2 or args.db < 2):
        parser.error(f"--da/--db must be >= 2, got ({args.da}, {args.db})")
    if not 0.0 <= getattr(args, "eta1", 0.5) <= 1.0:  # also rejects nan
        parser.error(f"--eta1 must be a number in [0, 1], got {args.eta1}")
    if getattr(args, "locc", False) and not has_split:
        parser.error("--locc needs --da and --db")
    if getattr(args, "simulate", False):
        if args.n < 1:
            parser.error(f"--n must be >= 1, got {args.n}")
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
    return None


_COMMANDS = {
    "dims": cmd_dims,
    "minerr": cmd_minerr,
    "unamb": cmd_unamb,
    "verify-all": cmd_verify_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _validate(parser, args)
    if problem:
        return _usage_error(problem)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
