"""Minimum-error identification of an input with one of two unknown reference
states (one copy each, priors eta1/eta2).

Averaging over the unitary-invariant reference distribution reduces the
problem to dense operator algebra on the triple space: the mean success
probability of a two-outcome POVM {E1, E2} is

    p = eta2 + tr[E1 * G] / (d1 * d2),      G = eta1*sym01 - eta2*sym02,

with d1 = d and d2 = d(d+1)/2 the one- and two-copy symmetric dimensions.
The global optimum projects onto the positive part of the gain operator G and
has the closed form

    p_max = 1/2 + (d+2)/(6d) |eta1-eta2| + (d-1)/(3d) sqrt(1 - eta1*eta2).

For a bipartite split d = d_a*d_b the same optimum is reachable by local
operations and classical communication; this module also builds the separable
POVM element that attains it and the executable protocol tree.  The separable
construction follows the convention eta1 <= eta2 (labels are swapped and
swapped back otherwise, which locc_protocol does automatically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import CLASSIFY_TOL, hermitian_eig, kron, positive_part_projector
from .povm import Povm, povm_from_dict
from .protocol import ALICE, BOB, Leaf, LoccProtocol, MeasurementStep, step
from .symmetry import SymmetryToolkit, bipartite_toolkit, build_toolkit, dimension_table

PRIOR_ATOL = 1e-12


@dataclass(frozen=True)
class Priors:
    """Prior occurrence probabilities of the two reference states."""

    eta1: float
    eta2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta1) and math.isfinite(self.eta2)):
            raise ValueError(f"priors must be finite, got ({self.eta1}, {self.eta2})")
        if self.eta1 < 0 or self.eta2 < 0:
            raise ValueError(f"priors must be nonnegative, got ({self.eta1}, {self.eta2})")
        if abs(self.eta1 + self.eta2 - 1.0) > PRIOR_ATOL:
            raise ValueError(f"priors must sum to 1, got {self.eta1 + self.eta2}")

    @classmethod
    def from_eta1(cls, eta1: float) -> "Priors":
        return cls(eta1, 1.0 - eta1)

    @property
    def diff(self) -> float:
        return self.eta1 - self.eta2

    def swapped(self) -> "Priors":
        return Priors(self.eta2, self.eta1)


EQUAL_PRIORS = Priors(0.5, 0.5)


def gain_operator(d: int, priors: Priors) -> np.ndarray:
    """The operator whose positive part the optimal measurement projects onto."""
    tk = build_toolkit(d)
    return priors.eta1 * tk.sym01 - priors.eta2 * tk.sym02


def gain_eigenvalues_mixed(priors: Priors) -> tuple[float, float]:
    """The two gain-operator eigenvalues on the mixed-symmetry subspace.

    Closed form (diff +- sqrt(1 - eta1*eta2)) / 2; the first is >= 0 and the
    second <= 0 for any valid priors.
    """
    root = math.sqrt(1.0 - priors.eta1 * priors.eta2)
    return (priors.diff + root) / 2, (priors.diff - root) / 2


def max_success_global(d: int, priors: Priors) -> float:
    """Closed-form optimal mean success probability of the global scheme."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return (
        0.5
        + (d + 2) / (6 * d) * abs(priors.diff)
        + (d - 1) / (3 * d) * math.sqrt(1.0 - priors.eta1 * priors.eta2)
    )


def max_success_eigenvalue_route(d: int, priors: Priors) -> float:
    """Oracle route: eta2 + (sum of positive gain eigenvalues) / (d1*d2)."""
    w = hermitian_eig(gain_operator(d, priors)).eigenvalues
    table = dimension_table(d)
    return priors.eta2 + float(w[w > 0].sum()) / (d * table.sym2)


def mean_success(povm: Povm, d: int, priors: Priors) -> float:
    """Mean success probability of a two-outcome identification POVM."""
    if set(povm.labels) != {1, 2}:
        raise ValueError(f"min-error POVM must carry labels {{1, 2}}, got {povm.labels}")
    table = dimension_table(d)
    overlap = np.trace(povm.element(1) @ gain_operator(d, priors))
    return priors.eta2 + float(overlap.real) / (d * table.sym2)


def optimal_global_povm(d: int, priors: Priors, tol: float = CLASSIFY_TOL) -> Povm:
    """The optimal global POVM {E1, E2}.

    For interior priors E1 is the positive-part projector of the gain
    operator; degenerate priors (eta1 in {0, 1}) reduce to always guessing the
    more likely label.
    """
    n = d**3
    if priors.eta1 == 0.0:
        e1 = np.zeros((n, n))
    elif priors.eta2 == 0.0:
        e1 = np.eye(n)
    else:
        e1 = positive_part_projector(gain_operator(d, priors), tol)
    return povm_from_dict({1: e1, 2: np.eye(n) - e1})


@dataclass(frozen=True)
class MinErrSolution:
    """Bundle of the global solution for one (d, priors) instance."""

    priors: Priors
    d: int
    gain: np.ndarray
    lambda_plus: float
    lambda_minus: float
    p_max: float
    povm: Povm


def solve_global(d: int, priors: Priors) -> MinErrSolution:
    lp, lm = gain_eigenvalues_mixed(priors)
    return MinErrSolution(
        priors=priors,
        d=d,
        gain=gain_operator(d, priors),
        lambda_plus=lp,
        lambda_minus=lm,
        p_max=max_success_global(d, priors),
        povm=optimal_global_povm(d, priors),
    )


def _is_degenerate(priors: Priors) -> bool:
    """One label is certain (eta1 in {0, 1}): guessing it needs no measurement."""
    return min(priors.eta1, priors.eta2) == 0.0


def _mixed_gain_projectors(tk: SymmetryToolkit, priors: Priors,
                           tol: float = CLASSIFY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative eigenprojectors of the local gain operator inside the
    mixed-symmetry subspace."""
    gain = priors.eta1 * tk.sym01 - priors.eta2 * tk.sym02
    restricted = tk.mixed3 @ gain @ tk.mixed3
    return positive_part_projector(restricted, tol), positive_part_projector(-restricted, tol)


def _rotation_angle(priors: Priors) -> float:
    scale = 2.0 * math.sqrt(1.0 - priors.eta1 * priors.eta2)
    return math.atan2(math.sqrt(3.0) / scale, priors.diff / scale) / 2.0


def _rotated_involution_projectors(tk: SymmetryToolkit, priors: Priors,
                                   tol: float = CLASSIFY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenprojectors (+1 / -1) of the rotated swap involution on the mixed subspace.

    The involutions x1 = (2/sqrt(3)) swap_diff and x2 = 2 swap_sum anticommute
    and square to one there; the rotation angle is chosen so that the gain
    operator becomes diagonal in the rotated pair.
    """
    theta = _rotation_angle(priors)
    x1 = (2.0 / math.sqrt(3.0)) * tk.swap_diff
    x2 = 2.0 * tk.swap_sum
    y2 = -math.sin(theta) * x1 + math.cos(theta) * x2
    restricted = tk.mixed3 @ y2 @ tk.mixed3
    return positive_part_projector(restricted, tol), positive_part_projector(-restricted, tol)


def locc_povm_element(d_a: int, d_b: int, priors: Priors) -> Povm:
    """The separable POVM {E1, E2} attaining the global min-error optimum.

    E1 combines, block by block of the local symmetry types, the local
    projectors that pick up every positive eigenvalue of the joint gain
    operator; its overlap tr[E1*G] matches the global projector's exactly.
    Requires eta1 <= eta2 (raises otherwise), except for degenerate priors,
    where the optimum is the trivial {E1 = 0 or 1, E2 = 1 - E1} of the global
    scheme, separable as it stands.  Elements are returned in the system-major
    basis.
    """
    if _is_degenerate(priors):
        return optimal_global_povm(d_a * d_b, priors)
    if priors.eta1 > priors.eta2:
        raise ValueError(
            "separable construction assumes eta1 <= eta2; swap labels first "
            "(locc_protocol does this automatically)"
        )
    bt = bipartite_toolkit(d_a, d_b)
    tka, tkb = bt.alice, bt.bob
    pp_a, pm_a = _mixed_gain_projectors(tka, priors)
    pp_b, pm_b = _mixed_gain_projectors(tkb, priors)
    qp_a, qm_a = _rotated_involution_projectors(tka, priors)
    qp_b, qm_b = _rotated_involution_projectors(tkb, priors)
    e1_party = (
        kron(tka.sym3, pp_b)
        + kron(tka.antisym3, pm_b)
        + kron(pp_a, tkb.sym3)
        + kron(pm_a, tkb.antisym3)
        + kron(qp_a, qm_b)
        + kron(qm_a, qp_b)
    )
    e1 = bt.to_system_major(e1_party)
    return povm_from_dict({1: e1, 2: np.eye(e1.shape[0]) - e1})


def locc_protocol(d_a: int, d_b: int, priors: Priors) -> LoccProtocol:
    """Executable LOCC tree implementing the separable min-error optimum.

    Both parties first resolve their local permutation symmetry.  If one side
    is totally (anti)symmetric and the other mixed, the mixed party measures
    the signed local-gain projectors and the answer is 1 on (symmetric, +) or
    (antisymmetric, -).  If both are mixed, each measures the rotated-involution
    projectors and the answer is 1 exactly when the outcomes differ.  All
    remaining combinations answer 2.

    Accepts any priors: for eta1 > eta2 the tree is built under the swapped
    convention and relabeled back.  Relabeling exchanges the two reference
    states, which also exchanges the systems holding them, so besides swapping
    the leaf labels every local operator is conjugated with the local
    system-1/2 swap (the symmetry-type projectors are invariant under it; the
    signed projectors are not).  Degenerate priors give the one-leaf tree that
    answers the certain label without measuring.
    """
    if _is_degenerate(priors):
        return LoccProtocol(d_a=d_a, d_b=d_b, root=Leaf(1 if priors.eta2 == 0.0 else 2))
    swap = priors.eta1 > priors.eta2
    p = priors.swapped() if swap else priors
    one, two = (Leaf(2), Leaf(1)) if swap else (Leaf(1), Leaf(2))

    bt = bipartite_toolkit(d_a, d_b)
    tka, tkb = bt.alice, bt.bob
    pp_a, pm_a = _mixed_gain_projectors(tka, p)
    pp_b, pm_b = _mixed_gain_projectors(tkb, p)
    qp_a, qm_a = _rotated_involution_projectors(tka, p)
    qp_b, qm_b = _rotated_involution_projectors(tkb, p)
    if swap:
        pp_a, pm_a, qp_a, qm_a = (tka.swap12 @ op @ tka.swap12
                                  for op in (pp_a, pm_a, qp_a, qm_a))
        pp_b, pm_b, qp_b, qm_b = (tkb.swap12 @ op @ tkb.swap12
                                  for op in (pp_b, pm_b, qp_b, qm_b))

    def signed_step(party, pos, neg, support, answer_on):
        # answer_on: which sign concludes "reference 1"
        children = {"+": one if answer_on == "+" else two,
                    "-": one if answer_on == "-" else two}
        return step(party, {"+": pos, "-": neg}, children, support)

    bob_q = {
        a_sign: step(BOB, {"+": qp_b, "-": qm_b},
                     {"+": one if a_sign == "-" else two,
                      "-": one if a_sign == "+" else two},
                     tkb.mixed3)
        for a_sign in ("+", "-")
    }
    alice_q = step(ALICE, {"+": qp_a, "-": qm_a}, bob_q, tka.mixed3)

    def bob_layer(alice_outcome: str) -> MeasurementStep:
        children: dict[str, MeasurementStep | Leaf] = {}
        for b_outcome in ("sym", "antisym", "mixed"):
            if alice_outcome in ("sym", "antisym") and b_outcome == "mixed":
                children[b_outcome] = signed_step(
                    BOB, pp_b, pm_b, tkb.mixed3,
                    answer_on="+" if alice_outcome == "sym" else "-")
            elif alice_outcome == "mixed" and b_outcome in ("sym", "antisym"):
                children[b_outcome] = signed_step(
                    ALICE, pp_a, pm_a, tka.mixed3,
                    answer_on="+" if b_outcome == "sym" else "-")
            elif alice_outcome == "mixed" and b_outcome == "mixed":
                children[b_outcome] = alice_q
            else:
                children[b_outcome] = two
        return step(BOB, {"sym": tkb.sym3, "antisym": tkb.antisym3, "mixed": tkb.mixed3},
                    children)

    root = step(ALICE, {"sym": tka.sym3, "antisym": tka.antisym3, "mixed": tka.mixed3},
                {outcome: bob_layer(outcome) for outcome in ("sym", "antisym", "mixed")})
    return LoccProtocol(d_a=d_a, d_b=d_b, root=root)
