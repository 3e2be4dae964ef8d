import math

import numpy as np
import pytest

from stateid.linalg import (
    hermitian_eig,
    kron,
    permutation_operator,
    positive_part_projector,
    psd_sqrt,
    regroup_operator,
)

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
