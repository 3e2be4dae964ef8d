"""Unambiguous identification at equal priors: wrong answers are forbidden,
an inconclusive outcome (label 0) is allowed instead.

The no-error requirement forces the conclusive elements off the pairwise
symmetric subspaces: E1 must annihilate sym02 and E2 must annihilate sym01.
Together with exchange symmetry between the two reference systems and
invariance under collective unitaries, the optimal global POVM is

    E1 = (2/3) mixed3 * antisym02,   E2 = (2/3) mixed3 * antisym01,

with success probability (d-1)/(3d).  For a bipartite split the same
symmetries restrict any separable POVM to a six-term family whose
coefficients obey a feasibility bound; the best separable scheme reaches

    p = (11 da^2 db^2 + da^2 + db^2 - 13) / (36 da db (da db + 1)),

strictly below the global optimum, and is implementable by the LOCC tree
built here.

Every POVM here is built as a povm.Povm in the coordinates of symmetry.S3,
or on a split in 6 x 6 tables, the same at every dimension; the LOCC steps
never become dense.  Only the oracles' UnambPovm is dense, with the dims of
its space: E2 is written first and E1 taken as its 1<->2 reference swap, so
that _conclusive_pair leaves both no-error products exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import max_abs
from .povm import Povm, validate_dense
from .protocol import ALICE, BOB, Leaf, LoccProtocol, step
from .symmetry import (RELABEL, S3, S3_PERMUTATIONS, dimension_table, permutation_columns,
                       reference_swap_view, s3_product, split_sum, swap_references,
                       symmetrizer_traces)

NO_ERROR_ATOL = 1e-10
COEFF_ATOL = 1e-12
ALPHA_MAX = 2.0 / 3.0
# separable POVMs kept per process; a (3,3) entry holds three 729x729 elements
SEPARABLE_CACHE_SIZE = 8


# mixed3 times each pair (anti)symmetrizer: with sym3 and antisym3, the
# projectors every POVM and step of this module is built from
MIXED_SYM01, MIXED_ANTISYM01, MIXED_SYM02, MIXED_ANTISYM02 = (
    s3_product(S3.mixed3, op) for op in (S3.sym01, S3.antisym01, S3.sym02, S3.antisym02))
for _op in (MIXED_SYM01, MIXED_ANTISYM01, MIXED_SYM02, MIXED_ANTISYM02):
    _op.flags.writeable = False


def _no_error_leaks(e1: np.ndarray, e2: np.ndarray) -> tuple[float, float]:
    """Largest entries of E1 sym02 and of E2 sym01.

    op @ (1 + T)/2 for a swap T is (op + op with T applied to its column
    factors)/2, and that is a transposed view of op's columns: no dense
    product, no gathered copy, and the same floats as the product.
    """
    d = round(e1.shape[0] ** (1 / 3))
    return tuple(max_abs(cube + cube.transpose(axes)) / 2
                 for cube, axes in ((e1.reshape(-1, d, d, d), (0, 3, 2, 1)),    # T02
                                    (e2.reshape(-1, d, d, d), (0, 2, 1, 3))))   # T01


@dataclass(frozen=True)
class UnambPovm:
    """Three-outcome POVM {conclusive 1, conclusive 2, inconclusive 0}, dense, on dims."""

    dims: tuple[int, ...]
    e1: np.ndarray
    e2: np.ndarray
    e0: np.ndarray

    def validate(self) -> None:
        """PSD elements summing to identity, exact no-error, exchange symmetry."""
        validate_dense({1: self.e1, 2: self.e2, 0: self.e0}, self.dims)
        for name, leak in zip(("e1", "e2"), _no_error_leaks(self.e1, self.e2)):
            if leak > NO_ERROR_ATOL:
                raise ValueError(f"{name} violates the no-error condition (leak {leak:.3e})")
        for name, lhs, rhs in (("e2", self.e2, self.e1), ("e0", self.e0, self.e0)):
            swapped = reference_swap_view(rhs)
            defect = max_abs(lhs.reshape(swapped.shape) - swapped)
            if defect > NO_ERROR_ATOL:
                raise ValueError(f"{name} breaks 1<->2 exchange symmetry (defect {defect:.3e})")


def success_probability(povm: UnambPovm, d: int) -> float:
    """Mean unambiguous success probability at equal priors.

    (tr[E1*sym01] + tr[E2*sym02]) / (2*d1*d2); refuses POVMs whose no-error
    leak exceeds NO_ERROR_ATOL, as UnambPovm.validate does, since the value
    is meaningless for them.
    """
    leak = max(_no_error_leaks(povm.e1, povm.e2))
    if leak > NO_ERROR_ATOL:
        raise ValueError(f"POVM violates the no-error condition (leak {leak:.3e})")
    table = dimension_table(d)
    overlap = symmetrizer_traces(povm.e1)[0] + symmetrizer_traces(povm.e2)[1]
    return overlap / (2 * d * table.sym2)


def max_success_global(d: int) -> float:
    """Closed-form optimum of the global unambiguous scheme."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return (d - 1) / (3 * d)


def _conclusive_pair(d: int, e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E1, E2) on (C^d)^x3 for E2 <- (E2 - E2 T01)/2 through T01's index map,
    so that E2 sym01 = 0 whatever the writer's rounding, and E1 its 1<->2
    reference swap, so that E1 sym02 = 0; both exactly."""
    t01 = permutation_columns(d)[S3_PERMUTATIONS.index((1, 0, 2))]
    e2 = (e2 - e2[:, t01]) / 2
    return swap_references(e2), e2


def optimal_global_povm(d: int) -> Povm:
    """The optimal global POVM in coordinates, the same at every d:
    E2 = (2/3) mixed3 antisym01, E1 its relabel and E0 the rest, in the
    order {1: E1, 2: E2, 0: E0} in which a trial samples them."""
    e2 = ALPHA_MAX * MIXED_ANTISYM01
    e0 = s3_product(S3.mixed3, S3.identity + 2.0 * S3.swap_sum) / 3.0 + S3.sym3 + S3.antisym3
    return Povm((d,), {1: e2[RELABEL], 2: e2, 0: e0})


def global_unamb_povm(d: int) -> UnambPovm:
    """optimal_global_povm written dense, E1 and E2 by _conclusive_pair from E2."""
    povm = optimal_global_povm(d)
    e1, e2 = _conclusive_pair(d, povm.element(2))
    return UnambPovm(dims=(d,), e1=e1, e2=e2, e0=povm.element(0))


def gamma_plus(beta1: float, beta2: float) -> float:
    """Largest eigenvalue of the mixed-mixed block of E1+E2 in the separable family."""
    beta = (beta1 + beta2) / 2
    delta = (beta1 - beta2) / 2
    return 1.25 * beta + math.sqrt(0.5625 * beta**2 + delta**2)


def mixed_block_table(beta1: float, beta2: float) -> np.ndarray:
    """The 6 x 6 table of the mixed-mixed block of E1+E2 in the separable family."""
    alice = [beta1 * MIXED_SYM02, beta1 * MIXED_SYM01,
             beta2 * MIXED_ANTISYM02, beta2 * MIXED_ANTISYM01]
    bob = [MIXED_ANTISYM02, MIXED_ANTISYM01, MIXED_SYM02, MIXED_SYM01]
    return np.array(alice).T @ np.array(bob)


def mixed_block_operator(d_a: int, d_b: int, beta1: float, beta2: float) -> np.ndarray:
    """Explicit mixed-mixed block of E1+E2 on the joint space, system-major.

    Oracle for gamma_plus: its largest eigenvalue is the closed form.
    """
    return split_sum(d_a, d_b, mixed_block_table(beta1, beta2))


@dataclass(frozen=True)
class SeparableCoeffs:
    """Coefficients of the six-term separable conclusive element.

    alpha1..alpha4 weigh the blocks where one party is totally (anti)symmetric;
    beta1/beta2 weigh the mixed-mixed blocks.  Feasibility: each alpha at most
    2/3 and gamma_plus(beta1, beta2) at most 1.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    beta1: float
    beta2: float

    def __post_init__(self) -> None:
        for name in ("alpha1", "alpha2", "alpha3", "alpha4", "beta1", "beta2"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        for name in ("alpha1", "alpha2", "alpha3", "alpha4"):
            value = getattr(self, name)
            if value > ALPHA_MAX + COEFF_ATOL:
                raise ValueError(
                    f"infeasible coefficients: {name}={value} exceeds 2/3 "
                    f"by {value - ALPHA_MAX:.3e}"
                )
        g = gamma_plus(self.beta1, self.beta2)
        if g > 1.0 + COEFF_ATOL:
            raise ValueError(
                f"infeasible coefficients: gamma_plus(beta1={self.beta1}, "
                f"beta2={self.beta2}) = {g:.6f} exceeds 1 by {g - 1.0:.3e}"
            )

    @classmethod
    def optimal(cls) -> "SeparableCoeffs":
        return cls(ALPHA_MAX, ALPHA_MAX, ALPHA_MAX, ALPHA_MAX, 0.5, 0.5)


def separable_table(coeffs: SeparableCoeffs) -> np.ndarray:
    """The 6 x 6 table of the separable family's E2: E1's six terms with each
    pair symmetrizer on systems 0,2 moved to 0,1."""
    alice = [coeffs.alpha1 * S3.sym3, coeffs.alpha2 * S3.antisym3,
             coeffs.alpha3 * MIXED_SYM01, coeffs.alpha4 * MIXED_ANTISYM01,
             coeffs.beta1 * MIXED_SYM01, coeffs.beta2 * MIXED_ANTISYM01]
    bob = [MIXED_ANTISYM01, MIXED_SYM01, S3.antisym3, S3.sym3, MIXED_ANTISYM01, MIXED_SYM01]
    return np.array(alice).T @ np.array(bob)


@lru_cache(maxsize=SEPARABLE_CACHE_SIZE)
def separable_unamb_povm(d_a: int, d_b: int, coeffs: SeparableCoeffs) -> UnambPovm:
    """The separable family member of separable_table, validated once, when
    it is built: E0's positivity by its eigenvalues, on orbit blocks of at
    most 36 indices (the feasibility bound states the same fact, so this
    catches assembly bugs).  Cached per (d_a, d_b, coeffs), up to
    SEPARABLE_CACHE_SIZE entries, with read-only elements."""
    e1, e2 = _conclusive_pair(d_a * d_b, split_sum(d_a, d_b, separable_table(coeffs)))
    # e1 + e2 is exchange-symmetric as a sum, so e0 is too, to the last bit
    povm = UnambPovm(dims=(d_a, d_b), e1=e1, e2=e2, e0=np.eye(len(e1)) - (e1 + e2))
    povm.validate()
    for op in (e1, e2, povm.e0):
        op.flags.writeable = False
    return povm


def max_success_separable(d_a: int, d_b: int) -> float:
    """Closed-form optimum over separable (hence over LOCC) schemes."""
    if d_a < 2 or d_b < 2:
        raise ValueError(f"both local dimensions must be >= 2, got ({d_a}, {d_b})")
    da2, db2 = d_a * d_a, d_b * d_b
    d = d_a * d_b
    return (11 * da2 * db2 + da2 + db2 - 13) / (36 * d * (d + 1))


def locc_protocol(d_a: int, d_b: int) -> LoccProtocol:
    """LOCC tree implementing the optimal separable unambiguous scheme.

    Both parties resolve their local permutation symmetry.  Equal outcomes
    (sym, sym) or (antisym, antisym) are inconclusive.  When exactly one party
    is mixed, that party finishes with a local three-outcome POVM whose
    conclusive elements are scaled pair-(anti)symmetrizers.  When both are
    mixed, Alice applies a four-outcome POVM (a1, a2), Bob measures one of
    two projective pairs selected by a1, and the answer is a1 when a2 agrees
    with it, else inconclusive.  Every Kraus operator is sqrt(w) times a
    projector in the group algebra, for w = 1, 2/3 or 1/2.

    The combinations (sym, antisym) and (antisym, sym) never occur on valid
    inputs; the tree still carries them (as inconclusive leaves) so the
    flattened POVM is complete.
    """
    dims = {ALICE: d_a, BOB: d_b}

    def conclusive_step(party: str, other_symmetric: bool):
        """Local POVM for the mixed party when the other side is (anti)symmetric."""
        sign = 1.0 if other_symmetric else -1.0
        root = math.sqrt(ALPHA_MAX)
        kraus = {
            1: root * (MIXED_ANTISYM02 if other_symmetric else MIXED_SYM02),
            2: root * (MIXED_ANTISYM01 if other_symmetric else MIXED_SYM01),
            0: root * s3_product(S3.mixed3, (S3.identity + sign * 2.0 * S3.swap_sum) / 2),
        }
        return step(party, dims[party], kraus, {1: Leaf(1), 2: Leaf(2), 0: Leaf(0)}, S3.mixed3)

    # both mixed: Alice's four-outcome POVM, then Bob's pair selected by a1
    half = math.sqrt(0.5)
    four = {
        (1, 1): half * MIXED_ANTISYM02,
        (1, 2): half * MIXED_SYM02,
        (2, 1): half * MIXED_ANTISYM01,
        (2, 2): half * MIXED_SYM01,
    }
    bob_pairs = {}
    for (a1, a2) in four:
        pair = (MIXED_SYM02, MIXED_ANTISYM02) if a1 == 1 else (MIXED_SYM01, MIXED_ANTISYM01)
        bob_pairs[(a1, a2)] = step(BOB, d_b, {1: pair[0], 2: pair[1]},
                                   {1: Leaf(a1 if a2 == 1 else 0), 2: Leaf(a1 if a2 == 2 else 0)},
                                   S3.mixed3)
    mixed_mixed = step(ALICE, d_a, four, bob_pairs, S3.mixed3)

    types = {"sym": S3.sym3, "antisym": S3.antisym3, "mixed": S3.mixed3}

    def bob_layer(alice_outcome: str):
        children = {}
        for b_outcome in types:
            pair = {alice_outcome, b_outcome}
            if pair in ({"sym"}, {"antisym"}, {"sym", "antisym"}):
                children[b_outcome] = Leaf(0)
            elif pair == {"sym", "mixed"}:
                mixed_party = BOB if b_outcome == "mixed" else ALICE
                children[b_outcome] = conclusive_step(mixed_party, other_symmetric=True)
            elif pair == {"antisym", "mixed"}:
                mixed_party = BOB if b_outcome == "mixed" else ALICE
                children[b_outcome] = conclusive_step(mixed_party, other_symmetric=False)
            else:
                children[b_outcome] = mixed_mixed
        return step(BOB, d_b, types, children)

    root = step(ALICE, d_a, types, {outcome: bob_layer(outcome) for outcome in types})
    return LoccProtocol(d_a=d_a, d_b=d_b, root=root)
