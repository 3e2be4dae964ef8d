import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (
    CLASSIFY_TOL,
    assert_hermitian,
    gain_operator,
    hermitian_eig,
    hermitian_eigenvalues,
    kron,
    orbit_blocks,
    orbit_mask,
    permutation_operator,
    positive_part_projector,
    psd_sqrt,
    regroup_operator,
    split_sum,
    validate_dense,
)
from stateid import linalg, minerr, unambiguous
from stateid.linalg import spectrum, trace
from stateid.symmetry import _INVERSE, irreps, permutation_sum, s3_product

RNG = np.random.default_rng(20260810)

SQRT3_4 = 0.4330127018922193  # sqrt(3)/4
SQRT3_2 = 0.8660254037844386  # sqrt(3)/2


def rand_complex(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(n, rng=RNG):
    m = rand_complex(n, rng)
    return (m + m.conj().T) / 2


def swap_ops(d):
    """Pairwise swaps on (C^d)^x3, assembled directly from permutations."""
    dims = (d, d, d)
    return (
        permutation_operator(dims, (1, 0, 2)),
        permutation_operator(dims, (2, 1, 0)),
        permutation_operator(dims, (0, 2, 1)),
    )


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diag_projectors(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_double_swap_is_involution(self):
        t2 = permutation_operator((2, 2), (1, 0))
        big = kron(t2, t2)
        assert big.shape == (16, 16)
        assert np.abs(big @ big - np.eye(16)).max() == 0.0

    @pytest.mark.parametrize("trial", range(3))
    def test_associative(self, trial):
        a, b, c = (rand_complex(2) for _ in range(3))
        assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() < 1e-12

    def test_bilinear(self):
        a, b, c = (rand_complex(3) for _ in range(3))
        x, y = 0.7, -1.3 + 0.2j
        lhs = kron(x * a + y * b, c)
        rhs = x * kron(a, c) + y * kron(b, c)
        assert np.abs(lhs - rhs).max() < 1e-12


# hermitian_eig, positive_part_projector and psd_sqrt are the tests' dense
# reference recipes (dense_reference.py), which the closed forms are checked
# against; hermitian_eigenvalues is the dense oracle's eigensolver on orbit
# blocks, which the irreps readers are checked against.

class TestHermitianEig:
    def test_diagonal_sorted_descending(self):
        spec = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(spec.eigenvalues, [3.0, 2.0, 1.0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_orthonormality(self):
        h = rand_hermitian(8)
        spec = hermitian_eig(h)
        v, w = spec.eigenvectors, spec.eigenvalues
        norm = np.abs(w).max()
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-9 * norm
        assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-10
        # residual per eigenpair
        assert np.abs(h @ v - v * w).max() < 1e-10 * norm

    def test_gain_operator_spectrum_qubits(self):
        # eta1 = eta2 = 1/2, d = 2: eigenvalues +-sqrt(3)/4 twice each, 0 four times
        t01, t02, _ = swap_ops(2)
        delta = 0.5 * (np.eye(8) + t01) / 2 - 0.5 * (np.eye(8) + t02) / 2
        w = hermitian_eig(delta).eigenvalues
        expected = [SQRT3_4, SQRT3_4, 0, 0, 0, 0, -SQRT3_4, -SQRT3_4]
        assert np.abs(w - expected).max() < 1e-12

    def test_swap_difference_spectrum_qutrits(self):
        # (T01 - T02)/2 at d = 3: +-sqrt(3)/2 with multiplicity 8, zero with 11
        t01, t02, _ = swap_ops(3)
        w = hermitian_eig((t01 - t02) / 2).eigenvalues
        assert np.sum(np.abs(w - SQRT3_2) < 1e-10) == 8
        assert np.sum(np.abs(w + SQRT3_2) < 1e-10) == 8
        assert np.sum(np.abs(w) < 1e-10) == 11


class TestPositivePartProjector:
    def test_simple_diagonal(self):
        assert np.allclose(positive_part_projector(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_zero_matrix(self):
        assert np.array_equal(positive_part_projector(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_classification_band_raises(self):
        with pytest.raises(ValueError, match="classification band"):
            positive_part_projector(np.diag([1.0, 5e-10]), tol=1e-9)

    def test_gain_positive_part_qubits(self):
        t01, t02, _ = swap_ops(2)
        delta = 0.5 * (t01 - t02) / 2
        p = positive_part_projector(delta)
        assert np.abs(p @ p - p).max() < 1e-10
        assert round(np.trace(p).real) == 2
        assert abs(np.trace(p @ delta).real - SQRT3_2) < 1e-12

    def test_commutes_with_input(self):
        h = rand_hermitian(6)
        p = positive_part_projector(h)
        assert np.abs(p @ h - h @ p).max() < 1e-9


class TestPsdSqrt:
    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_scaled_projector(self):
        p = np.diag([1.0, 1.0, 0.0])
        assert np.abs(psd_sqrt(p / 2) - p / math.sqrt(2)).max() < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(np.diag([1.0, -1e-6]))

    def test_mixed_antisym_element(self):
        # (1/2) mixed3 antisym02 on 3 qubits: sqrt is the same operator / sqrt(2)
        t01, t02, t12 = swap_ops(2)
        eye = np.eye(8)
        sym3 = (eye + t01 + t02 + t12 + t01 @ t02 + t02 @ t01) / 6
        antisym3 = (eye - t01 - t02 - t12 + t01 @ t02 + t02 @ t01) / 6
        mixed3 = eye - sym3 - antisym3
        e11 = 0.5 * mixed3 @ (eye - t02) / 2
        k = psd_sqrt(e11)
        assert np.abs(k @ k - e11).max() < 1e-10
        assert np.abs(k - math.sqrt(2) * e11).max() < 1e-10


class TestPermutationOperator:
    def test_identity(self):
        assert np.array_equal(permutation_operator((2, 3), (0, 1)), np.eye(6))

    def test_qubit_swap_matrix_element(self):
        t = permutation_operator((2, 2), (1, 0))
        # <ji|T|ij> = 1
        for i in range(2):
            for j in range(2):
                assert t[2 * j + i, 2 * i + j] == 1.0

    def test_unitary_exactly(self):
        op = permutation_operator((2, 3, 2), (2, 0, 1))
        assert np.array_equal(op @ op.T, np.eye(12))

    def test_composition_exact(self):
        dims = (2, 2, 3)
        sigma, tau = (1, 2, 0), (0, 2, 1)
        combined = tuple(tau[s] for s in sigma)
        lhs = permutation_operator(dims, sigma) @ permutation_operator(dims, tau)
        assert np.array_equal(lhs, permutation_operator(dims, combined))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            permutation_operator((2, 2), (0, 0))


class TestRegrouping:
    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3)])
    def test_swap_factorizes(self, da, db):
        # joint swap of systems 0,1 at d = da*db equals the product of the
        # local swaps once regrouped party-major
        d = da * db
        r = regroup_operator(da, db)
        joint = permutation_operator((d, d, d), (1, 0, 2))
        local_a = permutation_operator((da, da, da), (1, 0, 2))
        local_b = permutation_operator((db, db, db), (1, 0, 2))
        assert np.abs(r @ joint @ r.T - kron(local_a, local_b)).max() == 0.0

    def test_regroup_conjugation_on_random_product(self):
        rng = np.random.default_rng(7)
        xa = rand_complex(8, rng)
        xb = rand_complex(8, rng)
        r = regroup_operator(2, 2)
        regrouped = r.T @ kron(xa, xb) @ r
        # conjugating back must reproduce kron exactly
        assert np.abs(r @ regrouped @ r.T - kron(xa, xb)).max() < 1e-12


BAD_VALUES = (math.nan, math.inf, -math.inf)


def on_orbits(h):
    """h, or each matrix of a stack, set in the corner of the least (C^d)^x3
    that holds it with its finite entries off the orbit blocks zeroed; and
    that space's dims."""
    n = h.shape[-1]
    d = next(d for d in range(2, n + 2) if d**3 >= n)
    big = np.zeros(h.shape[:-2] + (d**3, d**3), h.dtype)
    big[..., :n, :n] = h
    return np.where(orbit_mask(d) | ~np.isfinite(big), big, 0), (d,)


def eigenvalues_on_orbits(h):
    return hermitian_eigenvalues(*on_orbits(h))


def bad_matrix(n, value, where):
    """A real symmetric n x n matrix with one non-finite entry (or a mirrored pair)."""
    h = rand_hermitian(n).real
    i, j = (0, 0) if where == "diagonal" else (0, n - 1)
    h[i, j] = value
    if where == "mirrored":
        h[j, i] = value
    return h


class TestNonFinite:
    @pytest.mark.parametrize("n", [8, 72])
    @pytest.mark.parametrize("where", ["diagonal", "one-sided", "mirrored"])
    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize("fn", [
        assert_hermitian, hermitian_eig,
        pytest.param(eigenvalues_on_orbits, id="hermitian_eigenvalues"),
        positive_part_projector, psd_sqrt])
    def test_rejected(self, fn, value, where, n):
        # on orbit blocks the diagonal entry lies in a block and the others
        # outside: a non-finite entry is refused wherever it is
        with pytest.raises(ValueError, match="non-finite"):
            fn(bad_matrix(n, value, where))

    @pytest.mark.parametrize("value", BAD_VALUES + (complex(0.0, math.inf),))
    def test_complex_entry_rejected(self, value):
        h = rand_hermitian(4)
        h[1, 2] = value   # indices 1 and 2 of (C^2)^x3 share an orbit
        with pytest.raises(ValueError, match="non-finite"):
            eigenvalues_on_orbits(h)

    @pytest.mark.parametrize("n", [8, 72])
    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_povm_validate_rejects(self, value, n):
        h = np.diag(np.linspace(0.0, 1.0, n))
        h[0, 0] = value
        h, dims = on_orbits(h)
        with pytest.raises(ValueError, match="non-finite"):
            validate_dense({1: h, 2: np.eye(len(h)) - h}, dims)


# --- eigensolves on orbit blocks against the dense reference ----------------

SIZES = st.lists(st.integers(1, 9), min_size=1, max_size=14)
DIMS = st.sampled_from([(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 3), (3, 3)])


def scrambled_blocks(seed, sizes, is_complex, spectrum):
    """A hermitian direct sum of random blocks of the given sizes, with its
    indices permuted at random.  spectrum maps a block size and a generator
    to that block's eigenvalues."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    h = np.zeros((n, n), complex if is_complex else float)
    start = 0
    for s in sizes:
        z = rng.standard_normal((s, s))
        if is_complex:
            z = z + 1j * rng.standard_normal((s, s))
        q, _ = np.linalg.qr(z)
        block = (q * spectrum(s, rng)) @ q.conj().T
        h[start:start + s, start:start + s] = (block + block.conj().T) / 2
        start += s
    perm = rng.permutation(n)
    return h[np.ix_(perm, perm)]


def random_on_orbits(seed, dims, is_complex):
    """A random hermitian matrix on the space of dims, zero off its orbit blocks."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims) ** 3
    z = rng.standard_normal((n, n))
    if is_complex:
        z = z + 1j * rng.standard_normal((n, n))
    return np.where(orbit_mask(*dims), (z + z.conj().T) / 2, 0)


def assert_spectra_match(h, dims):
    ref = np.linalg.eigvalsh(h)[..., ::-1]
    scale = max(1.0, np.abs(ref).max())
    assert np.abs(hermitian_eigenvalues(h, dims) - ref).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63), dims=DIMS, is_complex=st.booleans())
def test_eigenvalues_match_dense(seed, dims, is_complex):
    assert_spectra_match(random_on_orbits(seed, dims, is_complex), dims)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63), dims=DIMS)
def test_written_operators_match_dense(seed, dims):
    # random coordinates, or tables, for a stack of two operators made
    # symmetric: their spectra are highly degenerate
    c = np.random.default_rng(seed).standard_normal((2,) + (6,) * len(dims))
    ops = permutation_sum(*dims, c) if len(dims) == 1 else split_sum(*dims, c)
    assert_spectra_match((ops + ops.swapaxes(-1, -2)) / 2, dims)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63), sizes=SIZES, is_complex=st.booleans(),
       pick=st.integers(0, 2**32))
def test_band_raised_from_one_block(seed, sizes, is_complex, pick):
    # one block carries an eigenvalue in the classification band, the others are clear of it
    chosen = pick % len(sizes)
    calls = iter(range(len(sizes)))

    def spectrum(s, rng):
        w = rng.choice([-1.0, 1.0], size=s)
        if next(calls) == chosen:
            w[rng.integers(s)] = 5e-10
        return w

    h = scrambled_blocks(seed, sizes, is_complex, spectrum)
    with pytest.raises(ValueError, match="classification band"):
        positive_part_projector(h)


def with_off_block_entry(seed, dims, is_complex, pick, value, mirrored):
    """random_on_orbits with value set at one entry off the blocks, and at its
    mirror image (conjugated) if mirrored."""
    h = random_on_orbits(seed, dims, is_complex)
    off = np.flatnonzero(~orbit_mask(*dims))
    i, j = divmod(int(off[pick % len(off)]), len(h))
    h[i, j] = value
    if mirrored:
        h[j, i] = np.conj(value)
    return h


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63), dims=DIMS, is_complex=st.booleans(),
       pick=st.integers(0, 2**32))
def test_one_sided_off_block_entry_fails(seed, dims, is_complex, pick):
    h = with_off_block_entry(seed, dims, is_complex, pick, 1e-3, mirrored=False)
    with pytest.raises(ValueError, match="1 nonzero or non-finite entries outside"):
        hermitian_eigenvalues(h, dims)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63), dims=DIMS, is_complex=st.booleans(),
       pick=st.integers(0, 2**32), value=st.sampled_from([1e-3, 1e-300, math.nan, math.inf]))
def test_mirrored_or_non_finite_off_block_entries_fail(seed, dims, is_complex, pick, value):
    # a hermitian pair off the blocks, or a non-finite one, is refused as well
    h = with_off_block_entry(seed, dims, is_complex, pick, value, mirrored=True)
    with pytest.raises(ValueError, match="2 nonzero or non-finite entries outside"):
        hermitian_eigenvalues(h, dims)
    h = with_off_block_entry(seed, dims, is_complex, pick, value, mirrored=False)
    with pytest.raises(ValueError, match="outside the orbit blocks"):
        hermitian_eigenvalues(np.stack([np.zeros_like(h), h]), dims)


@pytest.mark.parametrize("n", [5, 80])
def test_zero_matrix(n):
    z = np.zeros((n, n))
    big, dims = on_orbits(z)
    assert np.array_equal(hermitian_eigenvalues(big, dims), np.zeros(len(big)))
    assert np.array_equal(positive_part_projector(z), z)
    assert np.array_equal(psd_sqrt(z), z)


def test_stack_eigenvalues_per_matrix():
    a, b = np.diag([3.0, -1.0, 2.0]), rand_hermitian(3)
    ops, dims = on_orbits(np.stack([a, b]))
    w = hermitian_eigenvalues(ops, dims)
    assert np.array_equal(w[0], [3.0, 2.0, 0, 0, 0, 0, 0, -1.0])
    assert np.abs(w[1] - np.linalg.eigvalsh(ops[1])[::-1]).max() < 1e-12


@pytest.mark.parametrize("n", [3, 80])
def test_sequence_eigenvalues_equal_stack(n):
    # a list is solved as the stack it would make, without forming it
    a, b = np.diag(np.arange(n, dtype=float)), rand_hermitian(n)
    b[:, : n // 2] = b[: n // 2, :] = 0.0
    ops, dims = on_orbits(np.stack([a, b]))
    assert np.array_equal(hermitian_eigenvalues(list(ops), dims), hermitian_eigenvalues(ops, dims))


@pytest.mark.parametrize("is_complex", [False, True])
def test_max_abs(is_complex):
    op = rand_complex(6) if is_complex else rand_complex(6).real
    assert linalg.max_abs(op) == np.abs(op).max()
    op[2, 3] = np.nan
    assert np.isnan(linalg.max_abs(op))


def test_stack_hermiticity_is_per_matrix():
    # a defect tolerable next to the large matrix's scale still fails the
    # small one (indices 1 and 2 of (C^2)^x3 share an orbit)
    big, small = np.eye(8), 1e-6 * np.eye(8)
    small[1, 2] = 1e-16
    hermitian_eigenvalues(np.stack([big, big]), (2,))
    with pytest.raises(ValueError, match="not hermitian"):
        hermitian_eigenvalues(np.stack([big, small]), (2,))


# --- the package's own large operators against the dense reference ----------

class TestDenseReferencePins:
    def test_gain_operator_d9(self):
        # the blocked eigenvalues, and the closed-form global projector, at d = 9
        priors = minerr.Priors.from_eta1(0.3)
        g = gain_operator(9, priors)
        assert max(index.shape[1] for index in orbit_blocks(9)) <= 6
        w, v = np.linalg.eigh(g)
        assert np.abs(hermitian_eigenvalues(g, (9,)) - w[::-1]).max() < 1e-12
        dense = (v * (w > CLASSIFY_TOL)) @ v.T
        assert np.abs(minerr.optimal_global_povm(9, priors).element(1) - dense).max() < 1e-12

    def test_separable_element_3x3(self):
        povm = unambiguous.separable_unamb_povm(3, 3, unambiguous.SeparableCoeffs.optimal())
        assert max(index.shape[1] for index in orbit_blocks(3, 3)) <= 36
        for op in (povm.e1, povm.e0):
            w = np.linalg.eigvalsh(op)
            assert np.abs(hermitian_eigenvalues(op, (3, 3)) - w[::-1]).max() < 1e-12


# --- the irreps readers against the dense reference -------------------------

def hermitian_coordinates(c):
    """Coordinates (6,) or a table (6, 6) made hermitian: X^dag = sum c_k P_k^T,
    and P_k^T = P_INVERSE[k] on each party."""
    return (c + c[np.ix_(*(_INVERSE,) * c.ndim)]) / 2


def dense_of(x, dims):
    return permutation_sum(*dims, x) if len(dims) == 1 else split_sum(*dims, x)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**63), dims=DIMS, scale=st.sampled_from([1e-6, 1.0, 1e3]))
def test_irreps_readers_match_dense(seed, dims, scale):
    # random hermitian coordinates at d = 2..6, tables at splits up to (3,3):
    # the spectrum with its multiplicities and the trace, against the dense
    # operator's eigenvalues on its orbit blocks and its diagonal
    x = hermitian_coordinates(scale * np.random.default_rng(seed).standard_normal((6,) * len(dims)))
    dense = dense_of(x, dims)
    w, m = spectrum(x, dims)
    assert np.array_equal(m, np.round(m)) and m.sum() == len(dense)
    ref = hermitian_eigenvalues(dense, dims)
    assert np.abs(np.sort(np.repeat(w, m.astype(int)))[::-1] - ref).max() <= 1e-12 * scale
    assert abs(trace(x, dims) - np.trace(dense)) <= 1e-12 * scale * len(dense)


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3)],
                         ids=lambda dims: "x".join(map(str, dims)))
def test_irreps_are_the_representation(dims):
    # rho(P_i) rho(P_j) = rho(P_i P_j) for each irrep, and the multiplicities
    # count every dimension: sum m tr rho(P_k) = tr P_k, d^cycles(k) on a party
    unit = np.eye(6) if len(dims) == 1 else np.eye(36).reshape(36, 6, 6)
    flat = unit.reshape(len(unit), -1)
    product = np.array([[np.flatnonzero(s3_product(a, b).ravel() @ flat.T)[0] for b in unit]
                        for a in unit])
    for rho, m in irreps(*dims):
        images = np.tensordot(unit, rho, len(dims))
        assert np.abs(np.einsum("ikl,jlm->ijkm", images, images) - images[product]).max() <= 1e-15
    for x in unit:
        assert abs(trace(x, dims) - np.trace(dense_of(x, dims))) <= 1e-12


def test_sign_irrep_absent_at_d2():
    assert [m for _, m in irreps(2)] == [4, 2]
    assert [m for _, m in irreps(3)] == [10, 1, 8]
    assert len(irreps(2, 3)) == 6 and len(irreps(3, 3)) == 9


@pytest.mark.parametrize("dims", [(2,), (3, 2)])
@pytest.mark.parametrize("value", BAD_VALUES)
def test_spectrum_rejects_non_finite(dims, value):
    x = np.zeros((6,) * len(dims))
    x[(0,) * len(dims)] = value
    with pytest.raises(ValueError, match="non-finite"):
        spectrum(x, dims)


def test_spectrum_rejects_non_hermitian():
    # the cycle P_4 alone is not hermitian: its adjoint is P_5
    with pytest.raises(ValueError, match="not hermitian"):
        spectrum(np.eye(6)[4], (3,))
