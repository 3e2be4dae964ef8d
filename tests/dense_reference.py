"""Dense reference recipes for the tests.

Spectral functions of a Hermitian matrix from one np.linalg.eigh call: the
recipe the package used for its local projectors and Kraus operators before
they became closed forms in the permutation coordinates (symmetry.S3).  The
tests check those closed forms against these recipes, and the recipes run
the package's own finiteness and hermiticity checks first.

The dense oracle route the package used before it read spectra and traces on
the irreps of S3 (linalg.spectrum, linalg.trace): eigenvalues solved on the
orbit blocks of the basis under the tensor-factor permutations
(hermitian_eigenvalues, orbit_blocks), the dense POVM check
(validate_dense), the unambiguous elements written dense with exact no-error
products (conclusive_pair, no_error_leaks), the gain operator and the
mixed-mixed block written dense, and traces read through the permutations'
index maps.  The tests compare the irreps readers against it.

Tensor-factor permutations as dense 0/1 matrices, the regrouping of a split
between its system-major and party-major bases, sums of Kronecker products
regrouped into the system-major basis, the symmetry toolkit and the
unambiguous POVMs as products of them, and a Haar unitary: the dense forms
of what the package writes from index maps, coordinates and tables.  Also
the Haar state, the hermiticity assertion, the feasibility flag of the
separable coefficients, the mask of the orbit blocks and the dense check of
a Povm, which only the tests use.

The one-shot global sampler that GlobalTrialSpec ran before a global POVM
became the one-step tree of the trial walker (global_block): each element's
probability on each label as a + b s, sampled with no dead-branch guard.
And the walk the block body makes, one trial at a time in Python scalars
(tree_walk): the reference for the level walk of simulate._run_block on
trees of any shape.
"""

import functools
import itertools
import math
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from stateid.linalg import HERMITIAN_RTOL, PSD_EIG_FLOOR, max_abs
from stateid.minerr import gain
from stateid import simulate
from stateid.povm import COMPLETENESS_ATOL
from stateid.symmetry import (S3_PERMUTATIONS, _freeze, _scatter, permutation_columns,
                              permutation_sum)
from stateid.unambiguous import COEFF_ATOL, gamma_plus, mixed_block_table

# eigenvalues above CLASSIFY_TOL count as positive; one in [CLASSIFY_TOL/10,
# CLASSIFY_TOL] cannot be classified
CLASSIFY_TOL = 1e-9
# system-major (0a,0b,1a,1b,2a,2b) -> party-major (0a,1a,2a,0b,1b,2b): factor p
# of the result is factor PARTY_MAJOR_PERM[p] of the source
PARTY_MAJOR_PERM = (0, 2, 4, 1, 3, 5)


def kron(*ops):
    """Kronecker product of one or more operators, leftmost most significant."""
    return functools.reduce(np.kron, ops)


class Spectrum(NamedTuple):
    """Eigenvalues descending, eigenvectors[:, k] paired with eigenvalues[k]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def assert_hermitian(h: np.ndarray) -> None:
    """Raise unless h (or each matrix of a stack) is finite and hermitian,
    by the package's relative tolerance."""
    _check_hermitian([h[..., None, :, :]])


def hermitian_eig(h: np.ndarray) -> Spectrum:
    assert_hermitian(h)
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
    if not w.min() >= PSD_EIG_FLOOR:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    return _hermitian_outer(v, v * np.sqrt(np.clip(w, 0.0, None)))


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


def regroup_operator(d_a: int, d_b: int) -> np.ndarray:
    """Dense unitary mapping the system-major split basis to the party-major one."""
    return permutation_operator((d_a, d_b) * 3, PARTY_MAJOR_PERM)


def kron_sum(d_a: int, d_b: int, alice, bob) -> np.ndarray:
    """sum_k kron(alice[k], bob[k]) regrouped into the system-major basis,
    R^T (sum_k kron(A_k, B_k)) R for the dense regrouping R."""
    r = regroup_operator(d_a, d_b)
    return r.T @ sum(np.kron(a, b) for a, b in zip(alice, bob)) @ r


def split_sum_dense(d_a: int, d_b: int, table) -> np.ndarray:
    """sum_{k,l} W[k, l] kron(P_k, P_l) regrouped into the system-major basis,
    for dense 0/1 permutation operators P_k of each party."""
    alice = [permutation_operator((d_a,) * 3, perm) for perm in S3_PERMUTATIONS]
    bob = np.array([permutation_operator((d_b,) * 3, perm) for perm in S3_PERMUTATIONS])
    return kron_sum(d_a, d_b, alice, np.tensordot(table, bob, 1))


def state_matrix(d_a: int, d_b: int, state: np.ndarray) -> np.ndarray:
    """A system-major joint vector as its party-major (d_a^3, d_b^3) matrix."""
    return (regroup_operator(d_a, d_b) @ state).reshape(d_a**3, d_b**3)


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector drawn uniformly from the pure-state space of C^d: the
    normalized standard complex Gaussian vector, real parts drawn first, as
    the trial blocks build their references from stacked normals."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


@functools.lru_cache(maxsize=None)
def dense_toolkit(d: int) -> SimpleNamespace:
    """The symmetry toolkit's operators as sums and products of dense 0/1 swaps."""
    swaps = [permutation_operator((d, d, d), perm) for perm in S3_PERMUTATIONS]
    signs = (1, -1, -1, -1, 1, 1)
    eye = np.eye(d**3)
    t01, t02, t12 = swaps[1:4]
    sym3 = sum(swaps) / 6
    antisym3 = sum(sign * p for sign, p in zip(signs, swaps)) / 6
    return SimpleNamespace(
        swap01=t01, swap02=t02, swap12=t12, sym01=(eye + t01) / 2, sym02=(eye + t02) / 2,
        antisym01=(eye - t01) / 2, antisym02=(eye - t02) / 2, sym3=sym3, antisym3=antisym3,
        mixed3=eye - sym3 - antisym3, swap_diff=(t01 - t02) / 2, swap_sum=(t01 + t02) / 2)


def global_unamb_elements(d: int) -> tuple:
    """(E1, E2, E0) of the optimal global unambiguous POVM as dense products."""
    tk = dense_toolkit(d)
    e1 = 2 / 3 * tk.mixed3 @ tk.antisym02
    e2 = 2 / 3 * tk.mixed3 @ tk.antisym01
    e0 = tk.mixed3 @ (np.eye(d**3) + 2.0 * tk.swap_sum) / 3.0 + tk.sym3 + tk.antisym3
    return e1, e2, e0


def separable_unamb_elements(d_a: int, d_b: int, coeffs) -> tuple:
    """(E1, E2, E0) of a separable family member as dense products."""
    tka, tkb = dense_toolkit(d_a), dense_toolkit(d_b)
    e1 = kron_sum(
        d_a, d_b,
        [coeffs.alpha1 * tka.sym3, coeffs.alpha2 * tka.antisym3,
         coeffs.alpha3 * tka.mixed3 @ tka.sym02, coeffs.alpha4 * tka.mixed3 @ tka.antisym02,
         coeffs.beta1 * tka.mixed3 @ tka.sym02, coeffs.beta2 * tka.mixed3 @ tka.antisym02],
        [tkb.mixed3 @ tkb.antisym02, tkb.mixed3 @ tkb.sym02, tkb.antisym3, tkb.sym3,
         tkb.mixed3 @ tkb.antisym02, tkb.mixed3 @ tkb.sym02])
    t12 = permutation_operator((d_a * d_b,) * 3, (0, 2, 1))
    e2 = t12 @ e1 @ t12
    return e1, e2, np.eye(len(e1)) - e1 - e2


def mixed_block_dense(d_a: int, d_b: int, beta1: float, beta2: float) -> np.ndarray:
    """The mixed-mixed block of E1+E2 as dense products."""
    tka, tkb = dense_toolkit(d_a), dense_toolkit(d_b)
    return kron_sum(
        d_a, d_b,
        [beta1 * tka.mixed3 @ tka.sym02, beta1 * tka.mixed3 @ tka.sym01,
         beta2 * tka.mixed3 @ tka.antisym02, beta2 * tka.mixed3 @ tka.antisym01],
        [tkb.mixed3 @ tkb.antisym02, tkb.mixed3 @ tkb.antisym01,
         tkb.mixed3 @ tkb.sym02, tkb.mixed3 @ tkb.sym01])


def beta_feasibility(beta1: float, beta2: float) -> tuple[float, bool]:
    """gamma_plus and whether the pair keeps the inconclusive element PSD."""
    if beta1 < 0 or beta2 < 0:
        raise ValueError("beta coefficients must be nonnegative")
    g = gamma_plus(beta1, beta2)
    return g, g <= 1.0 + COEFF_ATOL


def orbit_mask(*dims: int) -> np.ndarray:
    """The (n, n) mask of symmetry.orbit_blocks(*dims): True where the row's
    and the column's indices lie in one orbit."""
    label = np.empty(math.prod(dims) ** 3, int)
    for index in orbit_blocks(*dims):
        label[index] = index[:, :1]
    return label[:, None] == label


def validate_povm(povm) -> None:
    """The dense oracle (validate_dense) on every element of a Povm written dense."""
    validate_dense({label: povm.element(label) for label in povm.elements}, povm.dims)


@functools.lru_cache(maxsize=None)
def orbit_blocks(*dims: int) -> tuple[np.ndarray, ...]:
    """The orbits {columns[k][i]} of the basis indices under the maps of
    permutation_columns(*dims), grouped as (orbits, size) read-only index
    arrays by ascending size, ordered by least member, each ascending: the
    blocks outside which an operator commuting with the maps is zero."""
    columns = permutation_columns(*dims).reshape(-1, math.prod(dims) ** 3)
    label = columns.min(axis=0)
    size = 1 + np.count_nonzero(np.diff(np.sort(columns, axis=0), axis=0), axis=0)
    order = np.argsort(label, kind="stable")
    blocks = tuple(order[size[order] == s].reshape(-1, s) for s in np.unique(size))
    _freeze(*blocks)
    return blocks


def _submatrices(h, rows, cols) -> np.ndarray:
    """h[..., rows, cols]; for a sequence of matrices, their stack of these."""
    if isinstance(h, np.ndarray):
        return h[..., rows, cols]
    return np.stack([matrix[rows, cols] for matrix in h])


def hermitian_eigenvalues(h, dims: tuple[int, ...]) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix on the space of dims, (d,) or (d_a, d_b),
    or of each of a stack (..., n, n) or of a sequence of n x n matrices,
    descending; no eigenvectors are formed.

    Each size group of orbit_blocks(*dims) is one batched eigvalsh call, whose
    results carry the stack's leading axes.  Raises for a matrix with a
    nonzero entry outside the blocks, counted without a copy, and so for a
    non-finite or non-hermitian one by its blocks alone.
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


def validate_dense(elements: dict, dims: tuple[int, ...]) -> None:
    """The dense oracle: each element on the space of dims hermitian and
    positive by its eigenvalues, and their sum the identity within
    COMPLETENESS_ATOL.  Every guard is written so that a NaN fails it."""
    ops = list(elements.values())
    for label, low in zip(elements, hermitian_eigenvalues(ops, dims)[:, -1]):
        if not low >= PSD_EIG_FLOOR:
            raise ValueError(f"element {label!r} is not PSD (min eigenvalue {low:.3e})")
    missing = np.eye(len(ops[0]), dtype=np.result_type(float, *ops))
    for op in ops:
        missing -= op
    defect = max_abs(missing)
    if not defect <= COMPLETENESS_ATOL:
        raise ValueError(f"elements do not sum to the identity (max defect {defect:.3e})")


def split_sum(d_a: int, d_b: int, table) -> np.ndarray:
    """The dense sum_{k,l} W[k, l] P_k^A (x) P_l^B of a 6 x 6 table W, or of
    each of a stack (..., 6, 6), on the joint space of a d_a*d_b split."""
    return _scatter(permutation_columns(d_a, d_b), table)


def gain_operator(d: int, priors) -> np.ndarray:
    """The gain operator G = eta1*sym01 - eta2*sym02 written dense."""
    return permutation_sum(d, gain(priors))


def mixed_block_operator(d_a: int, d_b: int, beta1: float, beta2: float) -> np.ndarray:
    """The mixed-mixed block of E1+E2 written dense from its table."""
    return split_sum(d_a, d_b, mixed_block_table(beta1, beta2))


def permutation_traces(op: np.ndarray) -> np.ndarray:
    """Re tr(P_k^T op) for the six P_k on (C^d)^x3, each the sum of the d^3
    entries of op that P_k's index map picks out; no P_k is formed.  For the
    identity and the swaps P_k^T = P_k, so these are Re tr(op P_k)."""
    d = round(op.shape[0] ** (1 / 3))
    return op.real[np.arange(d**3), permutation_columns(d)].sum(axis=1)


def symmetrizer_traces(op: np.ndarray) -> tuple[float, float]:
    """Re tr(op sym01) and Re tr(op sym02), from the identity's and the two
    swaps' index maps."""
    traces = permutation_traces(op)
    return float(traces[0] + traces[1]) / 2, float(traces[0] + traces[2]) / 2


def reference_swap_view(op: np.ndarray) -> np.ndarray:
    """swap12 @ op @ swap12 on (C^d)^x3 as a strided view with the six
    tensor-factor axes (d,)*6 of op's rows and columns: nothing is copied."""
    d = round(op.shape[0] ** (1 / 3))
    return op.reshape((d,) * 6).transpose(0, 2, 1, 3, 5, 4)


def swap_references(op: np.ndarray) -> np.ndarray:
    """swap12 @ op @ swap12 on (C^d)^x3, as an index map rather than a 0/1 matmul."""
    return reference_swap_view(op).reshape(op.shape)


def no_error_leaks(e1: np.ndarray, e2: np.ndarray) -> tuple[float, float]:
    """Largest entries of the dense E1 sym02 and E2 sym01, from transposed
    views of the elements' column factors."""
    d = round(e1.shape[0] ** (1 / 3))
    return tuple(max_abs(cube + cube.transpose(axes)) / 2
                 for cube, axes in ((e1.reshape(-1, d, d, d), (0, 3, 2, 1)),    # T02
                                    (e2.reshape(-1, d, d, d), (0, 2, 1, 3))))   # T01


def conclusive_pair(d: int, e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E1, E2) on (C^d)^x3 for E2 <- (E2 - E2 T01)/2 through T01's index map,
    so that E2 sym01 = 0 whatever the writer's rounding, and E1 its 1<->2
    reference swap, so that E1 sym02 = 0; both exactly."""
    t01 = permutation_columns(d)[S3_PERMUTATIONS.index((1, 0, 2))]
    e2 = (e2 - e2[:, t01]) / 2
    return swap_references(e2), e2



def draw(rngs, priors, d: int, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeding contract's numbers of trials, each drawn from its own
    generator in rngs, a call per kind of number: true labels (n,), unit
    references (n, 2, d) and step uniforms (n, depth).  The reference for
    the bulk draws of simulate._bulk_draws."""
    n = len(rngs)
    label_u, normals, step_u = np.empty(n), np.empty((n, 2, 2, d)), np.empty((n, depth))
    for j, rng in enumerate(rngs):
        label_u[j] = rng.random()
        rng.standard_normal(out=normals[j])
        rng.random(out=step_u[j])
    return np.where(label_u < priors.eta1, 1, 2), simulate.haar_refs(normals), step_u


def global_block(povm, d: int, priors, rngs, first_index: int = 0) -> simulate.Block:
    """Trials first_index, first_index + 1, ... of a global POVM on (C^d)^x3
    from their generators rngs, drawn by draw: element e has probability
    a[e, L - 1] + b[e, L - 1] s on a label-L trial, for s = |<phi_1|phi_2>|^2,
    read from its coordinates c, as systems 0 and L hold phi_L and their swap
    S3_PERMUTATIONS[L] and the identity read 1, the other four s.  Inverse
    CDF over the elements in order; a sum that misses one by more than
    PROB_SUM_ATOL raises TrialAbort, and no branch is too small to declare."""
    c = np.array(list(povm.elements.values()), float)
    a = c[:, :1] + c[:, 1:3]
    b = c.sum(axis=1)[:, None] - a
    labels, refs, step_u = draw(rngs, priors, d, 1)
    overlap = np.vecdot(refs[:, 0], refs[:, 1])
    probs = a[:, labels - 1] + b[:, labels - 1] * (overlap.real**2 + overlap.imag**2)
    cum = probs.cumsum(axis=0)
    bad = ~(np.abs(cum[-1] - 1.0) <= simulate.PROB_SUM_ATOL)
    if bad.any():
        j = np.flatnonzero(bad)[0]
        raise simulate.TrialAbort(f"trial {first_index + j}: outcome probabilities sum to "
                                  f"{cum[-1, j]!r}")
    idx = np.minimum((cum <= step_u[:, 0]).sum(axis=0), len(probs) - 1)
    declared = np.array([int(label) for label in povm.labels])[idx]
    return simulate.Block(labels, declared, idx[:, None])


class Walk(NamedTuple):
    """One trial's walk: its declared label and the element index sampled at
    each step, or, where it aborts, abort = (level, check, text), check 0
    for the outcome sum and 1 for the sampled branch, and text the abort's
    words after "trial i"."""

    declared: int | None
    path: list
    abort: tuple | None = None


def tree_walk(nodes: Sequence, probs: Sequence[float], sizes: Sequence[float],
              step_u: Sequence[float]) -> Walk:
    """The walk of one trial down a tree of simulate's nodes, from its prefix
    probabilities and their term sizes (a value per node) and its step
    uniforms: at each step, the ratios P(child)/P(step), their running sums,
    the sum check within PROB_SUM_ATOL times the size of P(step)'s terms,
    inverse CDF over the running sums clipped to the last child, and the
    BRANCH_PROB_FLOOR check on the sampled ratio."""
    k, path = 0, []
    while isinstance(nodes[k], tuple):
        party, _, children = nodes[k]
        ratios = [float(probs[child]) / float(probs[k]) for child in children]
        cum = list(itertools.accumulate(ratios))
        if not abs(cum[-1] - 1.0) <= simulate.PROB_SUM_ATOL * float(sizes[k]) / float(probs[k]):
            return Walk(None, path, (len(path), 0,
                                     f" at {party}: outcome probabilities sum to {cum[-1]}"))
        i = min(sum(c <= step_u[len(path)] for c in cum), len(cum) - 1)
        if not ratios[i] >= simulate.BRANCH_PROB_FLOOR:
            return Walk(None, path, (len(path), 1,
                                     f": sampled branch with probability {ratios[i]}"))
        path.append(i)
        k = children[i]
    return Walk(nodes[k], path)
