"""The check registry: each invariant that compares a closed form with its
numerical oracle, written once as a function of one grid point.  The dims,
minerr and unamb subcommands report instance rows (one point); verify-all and
the acceptance tests report grid rows (the entry's whole standard grid).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import minerr, unambiguous
from .linalg import largest_image, trace
from .minerr import Priors
from .povm import mean_success
from .simulate import haar_refs, invariants
from .symmetry import S3, check_dim_relation, dimension_table, s3_product

GAP_THRESHOLD = 1e-3
SPLITS = ((2, 2), (2, 3), (3, 3))
SPLIT_GRID = tuple((d_a, d_b) for d_a in range(2, 6) for d_b in range(2, 6))
DIMS = tuple((d,) for d in range(2, 7))


def row(name: str, analytic, oracle, passed=None, tol=None) -> dict:
    """A report row; it passes when |analytic - oracle| <= tol, or, without tol, if passed."""
    diff = abs(analytic - oracle)
    return {"name": name, "analytic": analytic, "oracle": oracle,
            "diff": diff, "pass": bool(passed if tol is None else diff <= tol)}


class Check(NamedTuple):
    name: str | None    # instance row; None for a check made only on its grid
    grid_name: str
    evaluate: Callable  # one grid point -> (analytic, oracle) or (threshold, value, passed)
    grid: tuple | None  # grid points; None: the one point is the run's seed
    tol: float | None   # None marks a flag check


CHECKS: list[Check] = []  # in verify-all's report order


def _register(name, grid_name, grid, tol):
    def wrap(evaluate):
        CHECKS.append(Check(name, grid_name, evaluate, grid, tol))
        return CHECKS[-1]
    return wrap


def instance_row(check: Check, *point) -> dict:
    return row(check.name, *check.evaluate(*point), tol=check.tol)


def grid_row(check: Check, seed: int) -> dict:
    """The largest difference over the grid, or a flag check's point of least value."""
    results = [check.evaluate(*point) for point in (check.grid or ((seed,),))]
    if check.tol is None:
        return row(check.grid_name, *min(results, key=lambda r: r[1]))
    worst = max(abs(analytic - oracle) for analytic, oracle in results)
    # the target keeps the type of the residual, so exact integer checks report 0
    return row(check.grid_name, type(worst)(0), worst, tol=check.tol)


@_register(None, "toolkit_identities_d2_to_d6", DIMS, 1e-9)
def toolkit_identities(d: int) -> tuple[float, float]:
    """The algebra of the symmetry toolkit and its traces, on the irreps of S3."""
    dims, table = (d,), dimension_table(d)

    def mul(*ops):
        return functools.reduce(s3_product, ops)

    pieces = [
        mul(S3.swap_diff, S3.swap_diff) - 0.75 * S3.mixed3,
        mul(S3.swap_diff, S3.swap_sum) + mul(S3.swap_sum, S3.swap_diff),
        mul(S3.swap_sum, S3.swap_sum) - (S3.identity - mul(S3.swap_diff, S3.swap_diff)),
        S3.sym3 + S3.antisym3 + S3.mixed3 - S3.identity,
        mul(S3.sym3, S3.sym3) - S3.sym3,
        mul(S3.antisym3, S3.antisym3) - S3.antisym3,
        mul(S3.mixed3, S3.mixed3) - S3.mixed3,
        mul(S3.mixed3, S3.swap01) - mul(S3.swap01, S3.mixed3),
        mul(S3.mixed3, S3.swap02) - mul(S3.swap02, S3.mixed3),
        mul(S3.mixed3, S3.swap12) - mul(S3.swap12, S3.mixed3),
    ]
    defect = max(largest_image(p, dims) for p in pieces)
    vm = table.mixed3
    traces = [
        trace(S3.sym3, dims) - table.sym3,
        trace(S3.antisym3, dims) - table.antisym3,
        trace(S3.mixed3, dims) - vm,
        trace(mul(S3.mixed3, S3.antisym02, S3.sym01), dims) - 3 * vm / 8,
        trace(mul(S3.mixed3, S3.sym02, S3.antisym01), dims) - 3 * vm / 8,
        trace(mul(S3.mixed3, S3.sym02, S3.sym01), dims) - vm / 8,
        trace(mul(S3.mixed3, S3.antisym02, S3.antisym01), dims) - vm / 8,
        trace(mul(S3.mixed3, S3.swap01), dims),
        trace(mul(S3.mixed3, S3.swap02), dims),
    ]
    return 0.0, max(defect, max(map(abs, traces)))


split_identity = _register("split_dimension_identity", "split_dimension_identity_grid",
                           SPLIT_GRID, 0)(check_dim_relation)


@_register("pmax_closed_vs_eigensum", "minerr_dual_route_grid",
           tuple((d, round(0.1 * k, 1)) for d in range(2, 7) for k in range(1, 10)), 1e-9)
def minerr_dual_route(d: int, eta1: float) -> tuple[float, float]:
    priors = Priors.from_eta1(eta1)
    return (minerr.max_success_global(d, priors),
            minerr.max_success_eigenvalue_route(d, priors))


@_register("locc_overlap_vs_global_overlap", "minerr_locc_equality_grid",
           tuple(s + (eta1,) for s in SPLITS for eta1 in (0.1, 0.3, 0.5)), 1e-9)
def minerr_locc(d_a: int, d_b: int, eta1: float) -> tuple[float, float]:
    """The success probability of the global positive-part projector, from the
    sum of G's positive eigenvalues, and that of the separable element."""
    priors = Priors.from_eta1(eta1)
    separable = mean_success(minerr.locc_povm_element(d_a, d_b, priors), priors)
    return minerr.max_success_eigenvalue_route(d_a * d_b, priors), separable


@_register("global_success_vs_closed", "unamb_global_grid", DIMS, 1e-10)
def unamb_global(d: int) -> tuple[float, float]:
    return (unambiguous.max_success_global(d),
            unambiguous.success_probability(unambiguous.optimal_global_povm(d)))


@_register("separable_success_vs_closed", "unamb_separable_grid", SPLITS, 1e-10)
def unamb_separable(d_a: int, d_b: int) -> tuple[float, float]:
    povm = unambiguous.separable_unamb_povm(d_a, d_b, unambiguous.SeparableCoeffs.optimal())
    return (unambiguous.max_success_separable(d_a, d_b),
            unambiguous.success_probability(povm))


@_register(None, "no_error_acceptance", None, 1e-10)
def no_error(seed: int, n_pairs: int = 1000) -> tuple[float, float]:
    """Largest wrong-label acceptance <psi_L| E_wrong |psi_L> over n_pairs Haar
    reference pairs per scheme (global d=2 and d=3, separable (2,2)), from the
    invariants a trial reads (simulate.invariants).  One generator draws each
    scheme's pairs as one standard_normal block indexed [pair, reference,
    re/im], made unit references by simulate.haar_refs."""
    rng = np.random.default_rng(seed)
    schemes = [unambiguous.optimal_global_povm(d) for d in (2, 3)]
    schemes.append(unambiguous.separable_unamb_povm(2, 2, unambiguous.SeparableCoeffs.optimal()))
    worst = 0.0
    for povm in schemes:
        refs = haar_refs(rng.standard_normal((n_pairs, 2, 2, math.prod(povm.dims))))
        for label, wrong in ((2, 1), (1, 2)):
            f = invariants(np.full(n_pairs, label), refs, povm.dims)
            worst = max(worst, float((povm.elements[wrong].ravel() @ f).max()))
    return 0.0, worst


@_register("gap_exceeds_threshold", "gap_strict_grid", SPLIT_GRID, None)
def gap(d_a: int, d_b: int) -> tuple[float, float, bool]:
    separable = unambiguous.max_success_separable(d_a, d_b)
    value = unambiguous.max_success_global(d_a * d_b) - separable
    return GAP_THRESHOLD, value, value > GAP_THRESHOLD
