"""Minimum-error identification of an input with one of two unknown reference
states (one copy each, priors eta1/eta2).

Averaging over the unitary-invariant reference distribution reduces the
problem to operator algebra on the triple space: the mean success
probability of a two-outcome POVM {E1, E2} is

    p = eta2 + tr[E1 * G] / (d1 * d2),      G = eta1*sym01 - eta2*sym02,

with d1 = d and d2 = d(d+1)/2 the one- and two-copy symmetric dimensions.
The global optimum projects onto the positive part of the gain operator G and
has the closed form

    p_max = 1/2 + (d+2)/(6d) |eta1-eta2| + (d-1)/(3d) sqrt(1 - eta1*eta2).

For a bipartite split d = d_a*d_b the same optimum is reachable by local
operations and classical communication; this module also builds the separable
POVM element that attains it, a 6 x 6 table (locc_table), and the executable
protocol tree.  The separable construction follows the convention eta1 <=
eta2 (labels are swapped and swapped back otherwise, as locc_protocol does).

No measurement here needs an eigensolve: in R[S3] = R + R + M2(R) (Fulton &
Harris, section 1.3) G is diff on sym3, 0 on antisym3 and has only the
eigenvalues lambda+- on the mixed subspace, so every projector is a closed
form in the coordinates of symmetry.S3 (_local_projectors).  Only the oracle
route (positive_gain) solves for G's eigenvalues, on the irreps of S3
(linalg.spectrum), and traces are read there too (gain_overlap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import spectrum, trace
from .povm import Povm
from .protocol import ALICE, BOB, Leaf, LoccProtocol, MeasurementStep, step
from .symmetry import S3, dimension_table, joint, relabel, s3_product

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


def gain(priors: Priors) -> np.ndarray:
    """Coordinates of the operator whose positive part the optimal measurement
    projects onto: G = eta1*sym01 - eta2*sym02."""
    return priors.eta1 * S3.sym01 - priors.eta2 * S3.sym02


def gain_overlap(x: np.ndarray, dims: tuple[int, ...], priors: Priors) -> float:
    """tr[X*G] for X given by its coordinates on (C^d)^x3, dims = (d,), or by
    its table on a split, dims = (d_a, d_b); read on the irreps of S3."""
    return trace(s3_product(x, joint(gain(priors), dims)), dims)


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


def positive_gain(d: int, priors: Priors) -> float:
    """tr[P+ G] for the projector P+ onto G's positive part: the sum of the
    gain operator's positive eigenvalues, with their multiplicities, solved
    on the irreps of S3."""
    w, m = spectrum(gain(priors), (d,))
    return float(m[w > 0] @ w[w > 0])


def max_success_eigenvalue_route(d: int, priors: Priors) -> float:
    """Oracle route: eta2 + (sum of positive gain eigenvalues) / (d1*d2)."""
    return priors.eta2 + positive_gain(d, priors) / (d * dimension_table(d).sym2)


def mean_success(povm: Povm, priors: Priors) -> float:
    """Mean success probability of a two-outcome identification POVM, at the
    dimensions it is made for, read from E1's coordinates or table."""
    if set(povm.labels) != {1, 2}:
        raise ValueError(f"min-error POVM must carry labels {{1, 2}}, got {povm.labels}")
    d = math.prod(povm.dims)
    overlap = gain_overlap(povm.elements[1], povm.dims, priors)
    return priors.eta2 + overlap / (d * dimension_table(d).sym2)


def optimal_global_povm(d: int, priors: Priors) -> Povm:
    """The optimal global POVM {E1, E2 = 1 - E1}, in coordinates.

    For interior priors E1 is the projector onto the gain operator's positive
    part, in closed form: G is diff on sym3, 0 on antisym3 and lambda+- on the
    mixed subspace, so E1 is pp of _local_projectors, plus sym3 when eta1 >
    eta2.  Degenerate priors (eta1 in {0, 1}) reduce to always guessing the
    more likely label: E1 is 0 or the identity.
    """
    if priors.eta1 == 0.0:
        c = np.zeros(6)
    elif priors.eta2 == 0.0:
        c = S3.identity
    else:
        pp = _local_projectors(priors)[0]
        c = pp + S3.sym3 if priors.eta1 > priors.eta2 else pp
    return Povm((d,), {1: c, 2: S3.identity - c})


def _is_degenerate(priors: Priors) -> bool:
    """One label is certain (eta1 in {0, 1}): guessing it needs no measurement."""
    return min(priors.eta1, priors.eta2) == 0.0


def _rotation_angle(priors: Priors) -> float:
    scale = 2.0 * math.sqrt(1.0 - priors.eta1 * priors.eta2)
    return math.atan2(math.sqrt(3.0) / scale, priors.diff / scale) / 2.0


def _local_projectors(priors: Priors, swap: bool = False) -> tuple[np.ndarray, ...]:
    """Coordinates of the signed projectors (pp, pm, qp, qm) on the mixed-symmetry
    subspace, the same for every local dimension.

    pp/pm project onto the eigenspaces of the gain operator G there, whose
    only eigenvalues are lambda+ >= 0 >= lambda-: pp = mixed3 (G -
    lambda-)/(lambda+ - lambda-) and pm = -mixed3 (G - lambda+)/(lambda+ -
    lambda-).  qp/qm = mixed3 (1 +- y2)/2 are the eigenprojectors of the
    rotated swap involution y2: x1 = (2/sqrt(3)) swap_diff and x2 = 2
    swap_sum anticommute and square to one on the mixed subspace, and the
    rotation angle is chosen so that the gain operator becomes diagonal in
    the rotated pair.  swap exchanges the two reference systems in all four
    (symmetry.relabel).
    """
    lam_plus, lam_minus = gain_eigenvalues_mixed(priors)
    g = gain(priors)
    theta = _rotation_angle(priors)
    y2 = 2.0 * (-math.sin(theta) / math.sqrt(3.0) * S3.swap_diff + math.cos(theta) * S3.swap_sum)
    ops = [(g - lam_minus * S3.identity) / (lam_plus - lam_minus),
           (lam_plus * S3.identity - g) / (lam_plus - lam_minus),
           (S3.identity + y2) / 2, (S3.identity - y2) / 2]
    return tuple(relabel(s3_product(S3.mixed3, op)) if swap else s3_product(S3.mixed3, op)
                 for op in ops)


def locc_table(priors: Priors) -> np.ndarray:
    """The table W of the separable E1 = sum W[k, l] P_k^A (x) P_l^B that
    attains the global optimum: for eta1 <= eta2, the local projectors that
    pick up every positive eigenvalue of the joint gain operator, [sym3,
    antisym3, pp, pm, qp, qm]^T [pp, pm, sym3, antisym3, qm, qp]; otherwise
    the 1<->2 relabel of 1 - E1 at the swapped priors, as locc_protocol
    builds it.  Degenerate priors give E1 = 0 or the identity."""
    unit = np.outer(S3.identity, S3.identity)
    if priors.eta1 == 0.0:
        return np.zeros((6, 6))
    if priors.eta2 == 0.0:
        return unit
    if priors.eta1 > priors.eta2:
        return relabel(unit - locc_table(priors.swapped()))
    pp, pm, qp, qm = _local_projectors(priors)
    return (np.array([S3.sym3, S3.antisym3, pp, pm, qp, qm]).T
            @ np.array([pp, pm, S3.sym3, S3.antisym3, qm, qp]))


def locc_povm_element(d_a: int, d_b: int, priors: Priors) -> Povm:
    """The separable POVM {E1, E2 = 1 - E1} of locc_table, whose tr[E1*G]
    matches the global projector's exactly.  Raises for eta1 > eta2 unless
    one prior is 0, where E1 = 0 or 1 is the global optimum, separable as it
    stands."""
    if priors.eta1 > priors.eta2 and not _is_degenerate(priors):
        raise ValueError(
            "separable construction assumes eta1 <= eta2; swap labels first "
            "(locc_protocol does this automatically)"
        )
    w = locc_table(priors)
    return Povm((d_a, d_b), {1: w, 2: np.outer(S3.identity, S3.identity) - w})


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

    dims = {ALICE: d_a, BOB: d_b}
    pp, pm, qp, qm = _local_projectors(p, swap)

    def signed_step(party, answer_on):
        # answer_on: which sign concludes "reference 1"
        children = {"+": one if answer_on == "+" else two,
                    "-": one if answer_on == "-" else two}
        return step(party, dims[party], {"+": pp, "-": pm}, children, S3.mixed3)

    bob_q = {
        a_sign: step(BOB, d_b, {"+": qp, "-": qm},
                     {"+": one if a_sign == "-" else two,
                      "-": one if a_sign == "+" else two},
                     S3.mixed3)
        for a_sign in ("+", "-")
    }
    alice_q = step(ALICE, d_a, {"+": qp, "-": qm}, bob_q, S3.mixed3)
    types = {"sym": S3.sym3, "antisym": S3.antisym3, "mixed": S3.mixed3}

    def bob_layer(alice_outcome: str) -> MeasurementStep:
        children: dict[str, MeasurementStep | Leaf] = {}
        for b_outcome in ("sym", "antisym", "mixed"):
            if alice_outcome in ("sym", "antisym") and b_outcome == "mixed":
                children[b_outcome] = signed_step(
                    BOB, answer_on="+" if alice_outcome == "sym" else "-")
            elif alice_outcome == "mixed" and b_outcome in ("sym", "antisym"):
                children[b_outcome] = signed_step(
                    ALICE, answer_on="+" if b_outcome == "sym" else "-")
            elif alice_outcome == "mixed" and b_outcome == "mixed":
                children[b_outcome] = alice_q
            else:
                children[b_outcome] = two
        return step(BOB, d_b, types, children)

    root = step(ALICE, d_a, types, {outcome: bob_layer(outcome) for outcome in types})
    return LoccProtocol(d_a=d_a, d_b=d_b, root=root)
