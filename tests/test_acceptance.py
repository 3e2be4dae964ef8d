"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines; the Monte Carlo criteria (8 and 9) take 1–3.5 s each on
two cores.
"""

import json

import numpy as np

from stateid.cli import main as cli_main
from stateid.linalg import kron, positive_part_projector
from stateid.minerr import (
    EQUAL_PRIORS,
    Priors,
    gain_eigenvalues_mixed,
    gain_operator,
    locc_povm_element,
    locc_protocol,
    max_success_eigenvalue_route,
    max_success_global,
)
from stateid.protocol import effective_povm
from stateid.simulate import LoccTrialSpec, haar_state, run_batch
from stateid.symmetry import build_toolkit, check_dim_relation, dimension_table
from stateid import unambiguous

MC_TRIALS = 100_000
MC_SEED = 7

SEP_22 = 0.2375          # 19/80
GAP_22 = 0.0125          # 1/80
MINERR_22_TARGET = 0.7165063509461097


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_minerr_dual_route():
    worst = 0.0
    for d in range(2, 7):
        for k in range(1, 10):
            priors = Priors.from_eta1(round(0.1 * k, 1))
            closed = max_success_global(d, priors)
            oracle = max_success_eigenvalue_route(d, priors)
            worst = max(worst, abs(closed - oracle))
    report(1, worst < 1e-9, f"max closed-vs-eigensum diff {worst:.3e} over d=2..6 x 9 priors")


def test_criterion_02_locc_attains_global_minerr():
    worst = 0.0
    for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
        for eta1 in (0.1, 0.3, 0.5):
            priors = Priors.from_eta1(eta1)
            gain = gain_operator(d_a * d_b, priors)
            t_locc = float(np.trace(locc_povm_element(d_a, d_b, priors).element(1) @ gain).real)
            t_global = float(np.trace(positive_part_projector(gain) @ gain).real)
            worst = max(worst, abs(t_locc - t_global))
    report(2, worst < 1e-9, f"max LOCC-vs-global overlap diff {worst:.3e}")


def test_criterion_03_unamb_global():
    worst = 0.0
    for d in range(2, 7):
        povm = unambiguous.global_unamb_povm(d)
        worst = max(worst, abs(unambiguous.success_probability(povm, d)
                               - unambiguous.max_success_global(d)))
    exact_quarter = unambiguous.max_success_global(4) == 0.25
    report(3, worst < 1e-10 and exact_quarter,
           f"max trace-vs-closed diff {worst:.3e}; d=4 value is exactly 1/4")


def test_criterion_04_unamb_locc():
    worst = 0.0
    for d_a, d_b in ((2, 2), (2, 3), (3, 3)):
        povm = unambiguous.separable_unamb_povm(d_a, d_b, unambiguous.SeparableCoeffs.optimal())
        worst = max(worst, abs(unambiguous.success_probability(povm, d_a * d_b)
                               - unambiguous.max_success_separable(d_a, d_b)))
    p22 = unambiguous.max_success_separable(2, 2)
    gap22 = unambiguous.max_success_global(4) - p22
    exact = abs(p22 - SEP_22) < 1e-10 and abs(gap22 - GAP_22) < 1e-10
    report(4, worst < 1e-10 and exact,
           f"max separable diff {worst:.3e}; (2,2) = 19/80 with gap 1/80")


def test_criterion_05_strict_gap_and_asymptotics():
    min_gap = min(
        unambiguous.max_success_global(d_a * d_b) - unambiguous.max_success_separable(d_a, d_b)
        for d_a, d_b in ((2, 2), (2, 3), (3, 3)))
    global_seq = [unambiguous.max_success_global(k * k) for k in range(2, 7)]
    local_seq = [unambiguous.max_success_separable(k, k) for k in range(2, 7)]
    monotone = (all(b > a for a, b in zip(global_seq, global_seq[1:]))
                and all(b > a for a, b in zip(local_seq, local_seq[1:])))
    below = all(v < 1 / 3 for v in global_seq) and all(v < 11 / 36 for v in local_seq)
    report(5, min_gap > 1e-3 and monotone and below,
           f"min gap {min_gap:.4f}; both sequences approach 1/3 and 11/36 monotonically")


def test_criterion_06_operator_algebra():
    worst = 0.0
    for d in range(2, 7):
        tk = build_toolkit(d)
        eye = np.eye(d**3)
        dd = tk.swap_diff @ tk.swap_diff
        worst = max(
            worst,
            float(np.abs(dd - 0.75 * tk.mixed3).max()),
            float(np.abs(tk.swap_diff @ tk.swap_sum + tk.swap_sum @ tk.swap_diff).max()),
            float(np.abs(tk.swap_sum @ tk.swap_sum - (eye - dd)).max()),
        )
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
    report(6, worst < 1e-9, f"max algebra/spectrum defect {worst:.3e} over d=2..6")


def test_criterion_07_dimension_identity():
    residuals = [check_dim_relation(d_a, d_b).residual
                 for d_a in range(2, 6) for d_b in range(2, 6)]
    exact = all(r == 0 for r in residuals)
    report(7, exact, "split-dimension identity residual is integer zero on the 2..5 grid")


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


def test_criterion_10_no_error_exactness():
    rng = np.random.default_rng(MC_SEED)
    probes = []
    for d in (2, 3):
        povm = unambiguous.global_unamb_povm(d)
        probes.append((d, povm.e1, povm.e2))
    sep = unambiguous.separable_unamb_povm(2, 2, unambiguous.SeparableCoeffs.optimal())
    probes.append((4, sep.e1, sep.e2))
    worst = 0.0
    for d, e1, e2 in probes:
        for _ in range(1000):
            phi1, phi2 = haar_state(d, rng), haar_state(d, rng)
            wrong1 = kron(phi2, phi1, phi2)   # true label 2 measured against e1
            wrong2 = kron(phi1, phi1, phi2)   # true label 1 measured against e2
            worst = max(worst,
                        float((wrong1.conj() @ e1 @ wrong1).real),
                        float((wrong2.conj() @ e2 @ wrong2).real))
    report(10, worst <= 1e-10,
           f"max wrong-label acceptance {worst:.3e} over 1000 Haar pairs per scheme")


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


def test_criterion_12_determinism_across_workers(capsys):
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
