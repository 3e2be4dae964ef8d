"""Acceptance suite: every criterion at its stated tolerance, one line each.

Criteria 1, 2, 7 and 10, and the halves of 3, 4, 5 and 6 that compare a
closed form with its oracle over a grid, are the grid rows of the check
registry (stateid.checks), the same rows `stateid verify-all` reports;
test_registry_criterion runs each one by name, the sampled one at seed 7.
The criterion tests below check what the registry does not: the exact
values 1/4 and 19/80, the monotone approach to 1/3 and 11/36, the gain
spectrum, the Monte Carlo batches, the flattened trees and determinism.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines; the Monte Carlo criteria (8 and 9) take 1–3.5 s each on
two cores.
"""

import json

import numpy as np
import pytest

from dense_reference import gain_operator
from stateid import checks, unambiguous
from stateid.cli import main as cli_main
from stateid.minerr import (
    EQUAL_PRIORS,
    Priors,
    gain_eigenvalues_mixed,
    locc_povm_element,
    locc_protocol,
)
from stateid.protocol import effective_povm
from stateid.simulate import LoccTrialSpec, run_batch
from stateid.symmetry import dimension_table

MC_TRIALS = 100_000
MC_SEED = 7

SEP_22 = 0.2375          # 19/80
GAP_22 = 0.0125          # 1/80
MINERR_22_TARGET = 0.7165063509461097


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


REGISTRY_CRITERIA = [
    (1, "minerr_dual_route_grid"),
    (2, "minerr_locc_equality_grid"),
    (3, "unamb_global_grid"),
    (4, "unamb_separable_grid"),
    (5, "gap_strict_grid"),
    (6, "toolkit_identities_d2_to_d6"),
    (7, "split_dimension_identity_grid"),
    (10, "no_error_acceptance"),
]


@pytest.mark.parametrize("criterion, name", REGISTRY_CRITERIA,
                         ids=[name for _, name in REGISTRY_CRITERIA])
def test_registry_criterion(criterion, name):
    check = next(c for c in checks.CHECKS if c.grid_name == name)
    row = checks.grid_row(check, MC_SEED)
    report(criterion, row["pass"],
           f"{name}: target {row['analytic']}, value {row['oracle']:.4g}")


def test_criterion_03_unamb_global():
    report(3, unambiguous.max_success_global(4) == 0.25, "d=4 value is exactly 1/4")


def test_criterion_04_unamb_locc():
    p22 = unambiguous.max_success_separable(2, 2)
    gap22 = unambiguous.max_success_global(4) - p22
    exact = abs(p22 - SEP_22) < 1e-10 and abs(gap22 - GAP_22) < 1e-10
    report(4, exact, "(2,2) = 19/80 with gap 1/80")


def test_criterion_05_strict_gap_and_asymptotics():
    global_seq = [unambiguous.max_success_global(k * k) for k in range(2, 7)]
    local_seq = [unambiguous.max_success_separable(k, k) for k in range(2, 7)]
    monotone = (all(b > a for a, b in zip(global_seq, global_seq[1:]))
                and all(b > a for a, b in zip(local_seq, local_seq[1:])))
    below = all(v < 1 / 3 for v in global_seq) and all(v < 11 / 36 for v in local_seq)
    report(5, monotone and below,
           "both sequences approach 1/3 and 11/36 monotonically")


def test_criterion_06_operator_algebra():
    worst = 0.0
    for d in range(2, 7):
        table = dimension_table(d)
        for eta1 in (0.2, 0.5, 0.7):
            priors = Priors.from_eta1(eta1)
            lam_plus, lam_minus = gain_eigenvalues_mixed(priors)
            expected = np.sort(np.concatenate([
                np.full(table.sym3, priors.diff),
                np.zeros(table.antisym3),
                np.full(table.mixed3 // 2, lam_plus),
                np.full(table.mixed3 // 2, lam_minus),
            ]))
            actual = np.sort(np.linalg.eigvalsh(gain_operator(d, priors)))
            worst = max(worst, float(np.abs(actual - expected).max()))
    report(6, worst < 1e-9, f"max gain spectrum defect {worst:.3e} over d=2..6")


def test_criterion_08_monte_carlo_minerr():
    spec = LoccTrialSpec(locc_protocol(2, 2, EQUAL_PRIORS), EQUAL_PRIORS)
    stats = run_batch(spec, MC_TRIALS, MC_SEED, workers=2, target=MINERR_22_TARGET)
    dev = abs(stats.p_hat - MINERR_22_TARGET)
    report(8, dev <= 3 * stats.stderr,
           f"p_hat {stats.p_hat:.5f} vs {MINERR_22_TARGET:.7f}, "
           f"|dev| {dev:.5f} <= 3*stderr {3 * stats.stderr:.5f}")


def test_criterion_09_monte_carlo_unambiguous():
    spec = LoccTrialSpec(unambiguous.locc_protocol(2, 2), EQUAL_PRIORS)
    stats = run_batch(spec, MC_TRIALS, MC_SEED, workers=2, target=SEP_22)
    dev = abs(stats.p_hat - SEP_22)
    report(9, stats.errors == 0 and dev <= 3 * stats.stderr,
           f"errors {stats.errors}, p_hat {stats.p_hat:.5f} vs 0.2375, "
           f"|dev| {dev:.5f} <= 3*stderr {3 * stats.stderr:.5f}")


def test_criterion_11_protocol_povm_equivalence():
    worst = 0.0
    for d_a, d_b in ((2, 2), (2, 3)):
        priors = Priors.from_eta1(0.3)
        eff = effective_povm(locc_protocol(d_a, d_b, priors))
        ref = locc_povm_element(d_a, d_b, priors)
        for label in (1, 2):
            worst = max(worst, float(np.abs(eff.element(label) - ref.element(label)).max()))
        ueff = effective_povm(unambiguous.locc_protocol(d_a, d_b))
        uref = unambiguous.separable_unamb_povm(d_a, d_b, unambiguous.SeparableCoeffs.optimal())
        for label, ref_op in ((1, uref.e1), (2, uref.e2), (0, uref.e0)):
            worst = max(worst, float(np.abs(ueff.element(label) - ref_op).max()))
    report(11, worst < 1e-9,
           f"max per-element flatten defect {worst:.3e} at (2,2) and (2,3)")


def test_criterion_12_determinism_across_workers(capsys, forked):
    argv = ["minerr", "--da", "2", "--db", "2", "--eta1", "0.5", "--locc",
            "--simulate", "--n", "3000", "--seed", str(MC_SEED), "--json"]
    assert cli_main(argv + ["--workers", "1"]) == 0
    out1 = capsys.readouterr().out
    assert cli_main(argv + ["--workers", "4"]) == 0
    out4 = capsys.readouterr().out
    r1, r4 = json.loads(out1), json.loads(out4)
    r1["config"].pop("workers"), r4["config"].pop("workers")
    same_cli = r1 == r4

    spec = LoccTrialSpec(unambiguous.locc_protocol(2, 2), EQUAL_PRIORS)
    same_lib = run_batch(spec, 3000, MC_SEED, workers=1) == run_batch(
        spec, 3000, MC_SEED, workers=4)
    with capsys.disabled():
        report(12, same_cli and same_lib,
               "identical reports and batch statistics for worker counts 1 and 4")
    assert forked, "the workers=4 batches started no process"
