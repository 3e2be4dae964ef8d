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
or on a split in 6 x 6 tables, the same at every dimension, E1 as the 1<->2
relabel of E2; the LOCC steps never become dense.  An UnambPovm is checked
on the irreps of S3 (linalg): positivity by its elements' spectra, the
no-error conditions by the products E1 sym02 and E2 sym01 of coordinates or
tables, exactly, at every dimension.  Its success is povm.mean_success at
equal priors.  Its dense elements (e1, e2, e0) are the tests' and the
benchmark's reference; no command reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import PSD_EIG_FLOOR, largest_image, spectrum
from .minerr import EQUAL_PRIORS
from .povm import Povm, mean_success
from .protocol import Leaf, LoccProtocol, MeasurementStep, alice_then_bob, step, type_tree
from .symmetry import S3, check_dims, joint, relabel, s3_product

NO_ERROR_ATOL = 1e-10
COEFF_ATOL = 1e-12
ALPHA_MAX = 2.0 / 3.0
# separable POVMs kept per process, each validated once
SEPARABLE_CACHE_SIZE = 8


# mixed3 times each pair (anti)symmetrizer: with sym3 and antisym3, the
# projectors every POVM and step of this module is built from
MIXED_SYM01, MIXED_ANTISYM01, MIXED_SYM02, MIXED_ANTISYM02 = (
    s3_product(S3.mixed3, op) for op in (S3.sym01, S3.antisym01, S3.sym02, S3.antisym02))
for _op in (MIXED_SYM01, MIXED_ANTISYM01, MIXED_SYM02, MIXED_ANTISYM02):
    _op.flags.writeable = False


@dataclass(frozen=True)
class UnambPovm(Povm):
    """Three-outcome POVM {conclusive 1, conclusive 2, inconclusive 0}, in
    that order, held as a Povm is; e1, e2 and e0 write an element dense."""

    e1 = property(lambda self: self.element(1))
    e2 = property(lambda self: self.element(2))
    e0 = property(lambda self: self.element(0))

    def no_error_leaks(self) -> tuple[float, float]:
        """The largest entries of the images of E1 sym02 and of E2 sym01."""
        return tuple(largest_image(s3_product(self.elements[label], joint(sym, self.dims)),
                                   self.dims)
                     for label, sym in ((1, S3.sym02), (2, S3.sym01)))

    def validate(self) -> None:
        """PSD elements (complete when made), exact no-error, exchange symmetry,
        on the irreps of S3."""
        for label, x in self.elements.items():
            low = spectrum(x, self.dims)[0].min()
            if not low >= PSD_EIG_FLOOR:
                raise ValueError(f"element {label!r} is not PSD (min eigenvalue {low:.3e})")
        for name, leak in zip(("e1", "e2"), self.no_error_leaks()):
            if not leak <= NO_ERROR_ATOL:
                raise ValueError(f"{name} violates the no-error condition (leak {leak:.3e})")
        for name, lhs, rhs in (("e2", 2, 1), ("e0", 0, 0)):
            defect = largest_image(self.elements[lhs] - relabel(self.elements[rhs]), self.dims)
            if not defect <= NO_ERROR_ATOL:
                raise ValueError(f"{name} breaks 1<->2 exchange symmetry (defect {defect:.3e})")


def success_probability(povm: UnambPovm) -> float:
    """Mean unambiguous success probability at equal priors: povm.mean_success,
    after refusing a POVM whose no-error leak exceeds NO_ERROR_ATOL, as
    UnambPovm.validate does, since the value is meaningless for it."""
    leak = max(povm.no_error_leaks())
    if not leak <= NO_ERROR_ATOL:
        raise ValueError(f"POVM violates the no-error condition (leak {leak:.3e})")
    return mean_success(povm, EQUAL_PRIORS)


def max_success_global(d: int) -> float:
    """Closed-form optimum of the global unambiguous scheme."""
    check_dims((d,))
    return (d - 1) / (3 * d)


def optimal_global_povm(d: int) -> UnambPovm:
    """The optimal global POVM in coordinates, the same at every d:
    E2 = (2/3) mixed3 antisym01, E1 its relabel and E0 the rest, in the
    order {1: E1, 2: E2, 0: E0} in which a trial samples them."""
    e2 = ALPHA_MAX * MIXED_ANTISYM01
    e0 = s3_product(S3.mixed3, S3.identity + 2.0 * S3.swap_sum) / 3.0 + S3.sym3 + S3.antisym3
    return UnambPovm((d,), {1: relabel(e2), 2: e2, 0: e0})


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
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
    it is built: E0's positivity by its spectrum (the feasibility bound
    states the same fact, so this catches assembly bugs).  Cached per (d_a,
    d_b, coeffs), up to SEPARABLE_CACHE_SIZE entries, with read-only tables."""
    e2 = separable_table(coeffs)
    e1 = relabel(e2)
    # e1 + e2 is exchange-symmetric as a sum, so e0 is too, to the last bit
    e0 = np.outer(S3.identity, S3.identity) - (e1 + e2)
    for table in (e1, e2, e0):
        table.flags.writeable = False
    povm = UnambPovm((d_a, d_b), {1: e1, 2: e2, 0: e0})
    povm.validate()
    return povm


def max_success_separable(d_a: int, d_b: int) -> float:
    """Closed-form optimum over separable (hence over LOCC) schemes."""
    check_dims((d_a, d_b))
    da2, db2 = d_a * d_a, d_b * d_b
    d = d_a * d_b
    return (11 * da2 * db2 + da2 + db2 - 13) / (36 * d * (d + 1))


def locc_protocol(d_a: int, d_b: int) -> LoccProtocol:
    """LOCC tree implementing the optimal separable unambiguous scheme, a
    protocol.type_tree.

    Both parties first measure their local symmetry type.  When exactly one
    party is mixed, that party finishes with a local three-outcome POVM whose
    conclusive elements are scaled pair-(anti)symmetrizers.  When both are
    mixed, Alice applies a four-outcome POVM (a1, a2), Bob measures one of
    two projective pairs selected by a1, and the answer is a1 when Bob's
    outcome agrees with a2, else inconclusive.  Neither mixed is
    inconclusive.  Every Kraus operator is sqrt(w) times a projector in the
    group algebra, for w = 1, 2/3 or 1/2.

    The combinations (sym, antisym) and (antisym, sym) never occur on valid
    inputs; the tree still carries them (as inconclusive leaves) so the
    flattened POVM is complete.
    """
    root, half = math.sqrt(ALPHA_MAX), math.sqrt(0.5)

    def conclusive_step(party: str, d: int, other: str) -> MeasurementStep:
        """The mixed party's local POVM when the other side is (anti)symmetric."""
        sym = other == "sym"
        rest = (S3.identity + (2.0 if sym else -2.0) * S3.swap_sum) / 2
        kraus = {1: root * (MIXED_ANTISYM02 if sym else MIXED_SYM02),
                 2: root * (MIXED_ANTISYM01 if sym else MIXED_SYM01),
                 0: root * s3_product(S3.mixed3, rest)}
        return step(party, d, kraus, {1: Leaf(1), 2: Leaf(2), 0: Leaf(0)}, S3.mixed3)

    # pairs[a1]: Bob's (sym, antisym) pair on systems 0 and 3 - a1; Alice's
    # outcome (a1, a2) is, at weight 1/2, the opposite of Bob's outcome a2
    pairs = {1: {1: MIXED_SYM02, 2: MIXED_ANTISYM02}, 2: {1: MIXED_SYM01, 2: MIXED_ANTISYM01}}
    four = {(a1, a2): half * pairs[a1][3 - a2] for a1 in pairs for a2 in (1, 2)}
    both = alice_then_bob(d_a, d_b, four, lambda a: pairs[a[0]],
                          lambda a, b: Leaf(a[0] if a[1] == b else 0), S3.mixed3)
    return LoccProtocol(d_a=d_a, d_b=d_b, root=type_tree(d_a, d_b, conclusive_step, both, Leaf(0)))
