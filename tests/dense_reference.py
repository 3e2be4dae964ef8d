"""Dense reference recipes for the tests.

Spectral functions of a Hermitian matrix from one np.linalg.eigh call: the
recipe the package used for its local projectors and Kraus operators before
they became closed forms in the permutation coordinates (symmetry.S3).  The
tests check those closed forms against these recipes, and the recipes run
the package's own finiteness and hermiticity checks first.
"""

import functools
from typing import NamedTuple

import numpy as np

from stateid import linalg

# eigenvalues above CLASSIFY_TOL count as positive; one in [CLASSIFY_TOL/10,
# CLASSIFY_TOL] cannot be classified
CLASSIFY_TOL = 1e-9


def kron(*ops):
    """Kronecker product of one or more operators, leftmost most significant."""
    return functools.reduce(np.kron, ops)


class Spectrum(NamedTuple):
    """Eigenvalues descending, eigenvectors[:, k] paired with eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> Spectrum:
    linalg.assert_hermitian(h)
    w, v = np.linalg.eigh(h)
    return Spectrum(w[::-1], v[:, ::-1])


def _hermitian_outer(v: np.ndarray, weighted: np.ndarray) -> np.ndarray:
    out = weighted @ v.conj().T
    return (out + out.conj().T) / 2


def positive_part_projector(h: np.ndarray, tol: float = CLASSIFY_TOL) -> np.ndarray:
    """Projector onto the eigenvectors of eigenvalue > tol; raises for an
    eigenvalue in the classification band [tol/10, tol]."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    w, v = hermitian_eig(h)
    in_band = (w >= tol / 10) & (w <= tol)
    if in_band.any():
        raise ValueError(f"eigenvalues {w[in_band]} fall in the classification band "
                         f"[{tol / 10:.1e}, {tol:.1e}]; adjust tol")
    above = v[:, w > tol]
    return _hermitian_outer(above, above)


def psd_sqrt(e: np.ndarray) -> np.ndarray:
    """Principal square root; eigenvalues in [PSD_EIG_FLOOR, 0) count as 0."""
    w, v = hermitian_eig(e)
    if not w.min() >= linalg.PSD_EIG_FLOOR:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    return _hermitian_outer(v, v * np.sqrt(np.clip(w, 0.0, None)))
