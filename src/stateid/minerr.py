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
protocol tree, at any priors: each is written for eta1 <= eta2, and at
eta1 > eta2 is the 1<->2 relabel of its construction at the swapped priors.

No measurement here needs an eigensolve: in R[S3] = R + R + M2(R) (Fulton &
Harris, section 1.3) G is diff on sym3, 0 on antisym3 and has only the
eigenvalues lambda+- on the mixed subspace, so every projector is a closed
form in the coordinates of symmetry.S3 (_local_projectors).  Only the oracle
route (max_success_eigenvalue_route) solves for G's eigenvalues, on the
irreps of S3 (linalg.spectrum); a POVM's mean success is povm.mean_success.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import spectrum
from .povm import Povm
from .protocol import Leaf, LoccProtocol, MeasurementStep, alice_then_bob, step, type_tree
from .symmetry import S3, check_dims, dimension_table, relabel, s3_product

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

    @property
    def certain(self) -> int | None:
        """The label a zero prior makes certain (2 when eta1 = 0, 1 when eta2 =
        0), which is guessed without a measurement; None for interior priors."""
        return 2 if self.eta1 == 0.0 else 1 if self.eta2 == 0.0 else None


EQUAL_PRIORS = Priors(0.5, 0.5)


def gain(priors: Priors) -> np.ndarray:
    """Coordinates of the operator whose positive part the optimal measurement
    projects onto: G = eta1*sym01 - eta2*sym02."""
    return priors.eta1 * S3.sym01 - priors.eta2 * S3.sym02


def gain_eigenvalues_mixed(priors: Priors) -> tuple[float, float]:
    """The two gain-operator eigenvalues on the mixed-symmetry subspace.

    Closed form (diff +- sqrt(1 - eta1*eta2)) / 2; the first is >= 0 and the
    second <= 0 for any valid priors.
    """
    root = math.sqrt(1.0 - priors.eta1 * priors.eta2)
    return (priors.diff + root) / 2, (priors.diff - root) / 2


def max_success_global(d: int, priors: Priors) -> float:
    """Closed-form optimal mean success probability of the global scheme."""
    check_dims((d,))
    return (
        0.5
        + (d + 2) / (6 * d) * abs(priors.diff)
        + (d - 1) / (3 * d) * math.sqrt(1.0 - priors.eta1 * priors.eta2)
    )


def max_success_eigenvalue_route(d: int, priors: Priors) -> float:
    """Oracle route: eta2 + tr[P+ G] / (d1*d2) for the projector P+ onto G's
    positive part, tr[P+ G] the sum of G's positive eigenvalues, with their
    multiplicities, solved on the irreps of S3."""
    w, m = spectrum(gain(priors), (d,))
    return priors.eta2 + float(m[w > 0] @ w[w > 0]) / (d * dimension_table(d).sym2)


def optimal_global_povm(d: int, priors: Priors) -> Povm:
    """The optimal global POVM {E1, E2 = 1 - E1}, in coordinates.

    For interior priors E1 is the projector onto the gain operator's positive
    part, in closed form: G is diff on sym3, 0 on antisym3 and lambda+- on the
    mixed subspace, so E1 is pp of _local_projectors, plus sym3 when eta1 >
    eta2.  Degenerate priors (eta1 in {0, 1}) reduce to always guessing the
    more likely label: E1 is 0 or the identity.
    """
    if priors.certain:
        c = S3.identity if priors.certain == 1 else np.zeros(6)
    else:
        pp = _local_projectors(priors)[0]
        c = pp + S3.sym3 if priors.eta1 > priors.eta2 else pp
    return Povm((d,), {1: c, 2: S3.identity - c})


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
    if priors.certain:
        return unit if priors.certain == 1 else np.zeros((6, 6))
    if priors.eta1 > priors.eta2:
        return relabel(unit - locc_table(priors.swapped()))
    pp, pm, qp, qm = _local_projectors(priors)
    return (np.array([S3.sym3, S3.antisym3, pp, pm, qp, qm]).T
            @ np.array([pp, pm, S3.sym3, S3.antisym3, qm, qp]))


def locc_povm_element(d_a: int, d_b: int, priors: Priors) -> Povm:
    """The separable POVM {E1, E2 = 1 - E1} of locc_table, whose tr[E1*G]
    matches the global projector's exactly, at any priors."""
    w = locc_table(priors)
    return Povm((d_a, d_b), {1: w, 2: np.outer(S3.identity, S3.identity) - w})


def locc_protocol(d_a: int, d_b: int, priors: Priors) -> LoccProtocol:
    """Executable LOCC tree implementing the separable min-error optimum, a
    protocol.type_tree.

    Both parties first measure their local symmetry type.  If one side is
    totally (anti)symmetric and the other mixed, the mixed party measures the
    signed local-gain projectors (pp, pm) and the answer is 1 on (symmetric,
    +) or (antisymmetric, -).  If both are mixed, Alice then Bob measure the
    rotated-involution projectors (qp, qm) and the answer is 1 exactly when
    the outcomes differ.  Neither mixed answers 2.

    Accepts any priors: for eta1 > eta2 the tree is built under the swapped
    convention and relabeled back.  Relabeling exchanges the two reference
    states, which also exchanges the systems holding them, so besides swapping
    the leaf labels every local operator is conjugated with the local
    system-1/2 swap (the symmetry-type projectors are invariant under it; the
    signed projectors are not).  Degenerate priors give the one-leaf tree that
    answers the certain label without measuring.
    """
    if priors.certain:
        return LoccProtocol(d_a=d_a, d_b=d_b, root=Leaf(priors.certain))
    swap = priors.eta1 > priors.eta2
    one, two = (Leaf(2), Leaf(1)) if swap else (Leaf(1), Leaf(2))
    pp, pm, qp, qm = _local_projectors(priors.swapped() if swap else priors, swap)

    def signed(party: str, d: int, other: str) -> MeasurementStep:
        answer = "+" if other == "sym" else "-"
        return step(party, d, {"+": pp, "-": pm},
                    {s: one if s == answer else two for s in "+-"}, S3.mixed3)

    q = {"+": qp, "-": qm}
    both = alice_then_bob(d_a, d_b, q, lambda a: q, lambda a, b: one if a != b else two,
                          S3.mixed3)
    return LoccProtocol(d_a=d_a, d_b=d_b, root=type_tree(d_a, d_b, signed, both, two))
