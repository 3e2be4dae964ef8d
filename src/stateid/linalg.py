"""Dense complex linear algebra primitives: Hermitian eigenvalues, for the
numerical oracles and the POVM positivity checks.  No spectral function is
formed here, and no permutation operator: every local operator of the
package is a closed form in the permutation coordinates of symmetry.S3, and
every tensor-factor permutation an index map.

Every eigensolve runs on the orbit blocks of its matrix's space
(symmetry.orbit_blocks): the orbits of the basis indices under the
tensor-factor permutations of a party, or of both parties of a split,
grouped by size, one batched LAPACK eigvalsh call per group.  Every operator
of the schemes commutes with those permutations, so it is zero outside the
blocks and its spectrum is the union of theirs; nothing is approximated.  The
blocks have at most 6 indices on (C^d)^x3 and at most 36 on a split (one S3
orbit of each party's indices; Schur-Weyl duality, A. Harrow,
arXiv:quant-ph/0512255).  A matrix with a nonzero entry outside them is
refused, so the oracle is exact for any matrix it is given.

The global basis convention used everywhere in this package: the index of a
basis vector of a tensor-product space is the mixed-radix number over the
factors in declared order, most significant first.  A split's joint space is
system-major, (0a, 0b, 1a, 1b, 2a, 2b), and only symmetry.permutation_columns
reads that layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .symmetry import orbit_blocks

HERMITIAN_RTOL = 1e-12
PSD_EIG_FLOOR = -1e-10


def _adjoint(blocks: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return blocks.conj().swapaxes(-1, -2)


def _check_hermitian(stacks: Sequence[np.ndarray]) -> None:
    """Raise unless each matrix is finite and hermitian.

    stacks hold the blocks of each matrix on their last three axes, after the
    matrices' own leading axes.  A matrix passes when its max entrywise
    |H - H^dag| is at most HERMITIAN_RTOL times its largest entry magnitude.
    """
    if not all(np.isfinite(s).all() for s in stacks):
        raise ValueError("matrix has non-finite entries")
    defect = max(np.abs(s - _adjoint(s)).max() for s in stacks)
    if defect == 0.0:   # exactly hermitian, whatever the scale
        return
    if stacks[0].ndim > 3:   # each matrix of a stack against its own scale
        for matrix in np.ndindex(stacks[0].shape[:-3]):
            _check_hermitian([s[matrix] for s in stacks])
        return
    scale = max(np.abs(s).max() for s in stacks)
    if not defect <= HERMITIAN_RTOL * scale:
        raise ValueError(f"matrix is not hermitian (relative defect {defect / scale:.3e})")


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude; a real array is read twice and no |a| is formed."""
    if np.iscomplexobj(a):
        return float(np.abs(a).max())
    return float(max(a.max(), -a.min()))   # both NaN when a holds a NaN


def _submatrices(h, rows, cols) -> np.ndarray:
    """h[..., rows, cols]; for a sequence of matrices, their stack of these."""
    if isinstance(h, np.ndarray):
        return h[..., rows, cols]
    return np.stack([matrix[rows, cols] for matrix in h])


def hermitian_eigenvalues(h, dims: tuple[int, ...]) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix on the space of dims, (d,) or (d_a, d_b),
    or of each of a stack (..., n, n) or of a sequence of n x n matrices,
    descending; no eigenvectors are formed.

    Each size group of symmetry.orbit_blocks(*dims) is one batched eigvalsh
    call, whose results carry the stack's leading axes.  Raises for a matrix
    with a nonzero entry outside the blocks, counted without a copy, and so
    for a non-finite or non-hermitian one by its blocks alone.
    """
    stacks = [_submatrices(h, index[:, :, None], index[:, None, :])
              for index in orbit_blocks(*dims)]
    total = sum(map(np.count_nonzero, [h] if isinstance(h, np.ndarray) else h))
    outside = total - sum(map(np.count_nonzero, stacks))
    if outside:
        raise ValueError(f"matrix has {outside} nonzero or non-finite entries outside "
                         f"the orbit blocks of {dims}")
    _check_hermitian(stacks)
    w = np.concatenate([np.linalg.eigvalsh(s).reshape(*s.shape[:-3], -1) for s in stacks], axis=-1)
    return np.sort(w, axis=-1)[..., ::-1]
