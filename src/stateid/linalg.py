"""Dense complex linear algebra primitives: tensor products, Hermitian
eigendecomposition, spectral projectors, PSD square roots, and tensor-factor
permutations (as index maps, and as dense 0/1 operators for the symmetry
toolkit and for tests).

The global basis convention used everywhere in this package: the index of a
basis vector of a tensor-product space is the mixed-radix number over the
factors in declared order, most significant first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

HERMITIAN_RTOL = 1e-12
PSD_EIG_FLOOR = -1e-10
CLASSIFY_TOL = 1e-9


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def hermiticity_defect(h: np.ndarray) -> float:
    """Max entrywise |H - H^dag| relative to the largest entry magnitude."""
    scale = np.abs(h).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(h - dagger(h)).max() / scale)


def assert_hermitian(h: np.ndarray) -> None:
    defect = hermiticity_defect(h)
    if defect > HERMITIAN_RTOL:
        raise ValueError(f"matrix is not hermitian (relative defect {defect:.3e})")


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, leftmost most significant."""
    out = np.asarray(ops[0])
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian operator.

    eigenvalues are real and sorted descending; eigenvectors[:, k] is the
    orthonormal eigenvector paired with eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending."""
    assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return Spectrum(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def positive_part_projector(h: np.ndarray, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue > tol.

    Raises if any eigenvalue falls in the ambiguous band [tol/10, tol]: the
    caller must then pick a tolerance that cleanly separates the spectrum.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    spec = hermitian_eig(h)
    w = spec.eigenvalues
    in_band = (w >= tol / 10) & (w <= tol)
    if in_band.any():
        raise ValueError(
            f"eigenvalues {w[in_band]} fall in the classification band "
            f"[{tol / 10:.1e}, {tol:.1e}]; adjust tol"
        )
    cols = spec.eigenvectors[:, w > tol]
    p = cols @ dagger(cols)
    return (p + dagger(p)) / 2


def psd_sqrt(e: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything below raises.
    """
    spec = hermitian_eig(e)
    w = spec.eigenvalues
    if w.min(initial=0.0) < PSD_EIG_FLOOR:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    v = spec.eigenvectors
    k = (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
    return (k + dagger(k)) / 2


def permutation_operator(dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Unitary 0/1 matrix reordering tensor factors.

    Maps |i_0,...,i_{k-1}> to |j_0,...,j_{k-1}> with j_p = i_{perm[p]}:
    output factor p carries what input factor perm[p] held.  The output
    factor dims are the permuted ones; the total dimension is unchanged.
    """
    dims = tuple(int(d) for d in dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"perm {perm} is not a bijection on {len(dims)} factors")
    n = math.prod(dims)
    source = np.transpose(np.arange(n).reshape(dims), perm).reshape(n)
    op = np.zeros((n, n))
    op[np.arange(n), source] = 1.0
    return op


def permute_factors(a: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a vector or a square operator by an index map.

    Equals permutation_operator(dims, perm) @ a for a vector and P @ a @ P.T
    for an operator, without forming P: a is viewed as one axis per factor
    (two per factor for an operator) and those axes are transposed.
    """
    k = len(dims)
    if a.ndim == 1:
        shape, axes = tuple(dims), tuple(perm)
    else:
        shape, axes = tuple(dims) * 2, tuple(perm) + tuple(k + p for p in perm)
    return np.transpose(a.reshape(shape), axes).reshape(a.shape)


# system-major (0a,0b,1a,1b,2a,2b) -> party-major (0a,1a,2a,0b,1b,2b), and back
PARTY_MAJOR_PERM = (0, 2, 4, 1, 3, 5)
SYSTEM_MAJOR_PERM = (0, 3, 1, 4, 2, 5)


def regroup_operator(d_a: int, d_b: int) -> np.ndarray:
    """Dense unitary mapping the system-major split basis to the party-major one.

    The reference form of the regrouping; the package itself regroups with
    permute_factors (see symmetry.BipartiteToolkit).
    """
    return permutation_operator((d_a, d_b) * 3, PARTY_MAJOR_PERM)
