"""Dense complex linear algebra primitives: Hermitian eigenvalues, for the
numerical oracles and the POVM positivity checks.  No spectral function is
formed here, and no permutation operator: every local operator of the
package is a closed form in the permutation coordinates of symmetry.S3, and
every tensor-factor permutation an index map.

Every eigensolve runs on the exact invariant blocks of its matrix: the
connected components of the matrix's symmetrized nonzero pattern, grouped by
size, one batched LAPACK eigvalsh call per group.  A matrix whose entries
outside the blocks are exactly zero is the direct sum of its blocks, so its
spectrum is the union of theirs; nothing is approximated.  The operators of
this package are sums of products of tensor-factor permutations, which keep
exact zeros, so their blocks are small: at most 6 indices for the gain
operator on (C^d)^x3 and at most 36 for an element of a bipartite split (one
S3 orbit of each party's indices; Schur-Weyl duality, A. Harrow,
arXiv:quant-ph/0512255).  Below BLOCK_MIN_DIM the whole matrix is the one
block.

The global basis convention used everywhere in this package: the index of a
basis vector of a tensor-product space is the mixed-radix number over the
factors in declared order, most significant first.  A split's joint space is
system-major, (0a, 0b, 1a, 1b, 2a, 2b), and only symmetry.permutation_columns
reads that layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

HERMITIAN_RTOL = 1e-12
PSD_EIG_FLOOR = -1e-10
# Below this dimension a matrix is solved as one block, without the component
# search.  On 2 vCPUs with 1 BLAS thread the search costs 55-100 us at
# n = 8..64, about as much as a dense eigvalsh at n = 64 (130-170 us) and
# several times one at n = 8 (10 us) or 27 (35 us).  At n = 64 the blocked
# positive-part projector already wins (325 against 397 us) and blocked
# eigenvalues tie (217 against 188 us); at n = 125 both win by 2.4-3.6x.
BLOCK_MIN_DIM = 64


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


def _dim(h) -> int:
    """The order n of a matrix, of a stack (..., n, n) or of a sequence of n x n matrices."""
    return h.shape[-1] if isinstance(h, np.ndarray) else h[0].shape[-1]


def _submatrices(h, rows, cols) -> np.ndarray:
    """h[..., rows, cols]; for a sequence of matrices, their stack of these."""
    if isinstance(h, np.ndarray):
        return h[..., rows, cols]
    return np.stack([matrix[rows, cols] for matrix in h])


def invariant_blocks(h: np.ndarray) -> list[np.ndarray]:
    """The connected components of h's symmetrized nonzero pattern, by size.

    One (components, size) index array per component size; indices ascend
    within a component, and components by their least index.  h is zero
    outside these blocks, so it is the direct sum of its submatrices on them.
    A stack (..., n, n), or a sequence of n x n matrices, has the union of
    its matrices' patterns.  Below BLOCK_MIN_DIM the whole index range is the
    one block.
    """
    n = _dim(h)
    if n < BLOCK_MIN_DIM:
        return [np.arange(n)[None]]
    pattern = np.zeros((n, n), dtype=bool)
    for matrix in (h.reshape(-1, n, n) if isinstance(h, np.ndarray) else h):
        pattern |= matrix != 0
    pattern |= pattern.T
    np.fill_diagonal(pattern, True)
    rows, cols = np.divmod(np.flatnonzero(pattern), n)   # np.nonzero, 8x faster at n = 729
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    # every index takes the least label of its neighbours, then that label's
    # own label; labels only fall, and stop at each component's least index
    label = np.arange(n)
    while True:
        lower = np.minimum.reduceat(label[cols], starts)
        lower = lower[lower]
        if (lower == label).all():
            break
        label = lower
    order = np.argsort(label, kind="stable")
    size = np.bincount(label, minlength=n)[label[order]]
    return [order[size == s].reshape(-1, s) for s in np.flatnonzero(np.bincount(size))]


def hermitian_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, or of each of a stack (..., n, n) or
    of a sequence of n x n matrices, descending; no eigenvectors are formed.

    Each group of equal-size invariant blocks is one batched eigvalsh call,
    whose results carry the stack's leading axes.  Raises for a non-finite or
    non-hermitian matrix: the blocks hold every nonzero entry of h and of
    h^dag, so their defect is the whole matrix's.
    """
    groups = invariant_blocks(h)
    if groups[0].shape == (1, _dim(h)):   # one block: the whole of h, in order
        stacks = [_submatrices(h, slice(None), slice(None))[..., None, :, :]]
    else:
        stacks = [_submatrices(h, index[:, :, None], index[:, None, :]) for index in groups]
    _check_hermitian(stacks)
    w = np.concatenate([np.linalg.eigvalsh(s).reshape(*s.shape[:-3], -1) for s in stacks], axis=-1)
    return np.sort(w, axis=-1)[..., ::-1]

