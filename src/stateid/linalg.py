"""Spectra and traces of the operators of the schemes, read on the irreps of S3,
for the numerical oracles and the POVM positivity checks.

Every operator here is given by its six coordinates on the P_pi of
(C^d)^x3, or by its 6 x 6 table on the P_pi^A (x) P_sigma^B of a split
(symmetry.S3).  By Schur-Weyl duality its spectrum is the union of those of
its images rho(x) under the irreps of S3, or of S3 x S3, each eigenvalue
repeated as often as its irrep (symmetry.irreps); its trace is sum m tr
rho(x) (A. Harrow, arXiv:quant-ph/0512255; Fulton & Harris, Representation
Theory, sections 4 and 6).  The images are at most 2 x 2 on a party and 4 x 4
on a split, at every dimension, so nothing dense is formed and nothing is
approximated.  At d = 2 the sign irrep is absent: an operator that differs
from another by a multiple of sum_k sgn(k) P_k has the same images.
"""

from __future__ import annotations

import numpy as np

from .symmetry import irreps, s3_adjoint

HERMITIAN_RTOL = 1e-12
PSD_EIG_FLOOR = -1e-10


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; a real array is read twice and no |a| is formed."""
    if np.iscomplexobj(a):
        return float(np.abs(a).max())
    return float(max(a.max(), -a.min()))   # both NaN when a holds a NaN


def irrep_images(x, dims: tuple[int, ...]) -> list[tuple[np.ndarray, int]]:
    """(rho(x), m) for each irrep (rho, m) of symmetry.irreps(*dims), for the
    coordinates x (6,) on a party, dims = (d,), or the table x (6, 6) on a
    split, dims = (d_a, d_b)."""
    return [(np.tensordot(x, rho, len(dims)), m) for rho, m in irreps(*dims)]


def largest_image(x, dims: tuple[int, ...]) -> float:
    """The largest entry of the images of x: 0 exactly when x is the zero operator."""
    return max(max_abs(image) for image, _ in irrep_images(x, dims))


def spectrum(x, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(w, m): the eigenvalues w of the hermitian operator x, as in
    irrep_images, one per eigenvalue of an image, and their multiplicities m
    on the whole space, as floats.

    Raises unless x is finite and hermitian: its real coordinates, or table,
    equal to their adjoint's (symmetry.s3_adjoint) within HERMITIAN_RTOL
    times its largest entry; at d = 2 too, where two coordinates of one
    operator differ along the signs, which the adjoint leaves as they are.
    """
    x = np.asarray(x, float)
    if not np.isfinite(x).all():
        raise ValueError("matrix has non-finite entries")
    defect, scale = max_abs(x - s3_adjoint(x)), max_abs(x)
    if not defect <= HERMITIAN_RTOL * scale:
        raise ValueError(f"matrix is not hermitian (relative defect {defect / scale:.3e})")
    images = irrep_images(x, dims)
    w = np.concatenate([np.linalg.eigvalsh(image) for image, _ in images])
    m = np.concatenate([np.full(len(image), float(m)) for image, m in images])
    return w, m


def trace(x, dims: tuple[int, ...]) -> float:
    """tr x = sum m tr rho(x) over the images of x, as in irrep_images."""
    return float(sum(m * np.trace(image) for image, m in irrep_images(x, dims)))
