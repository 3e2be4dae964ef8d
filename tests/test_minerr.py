import math

import numpy as np
import pytest

from stateid.linalg import positive_part_projector
from stateid.minerr import (
    EQUAL_PRIORS,
    Priors,
    gain_eigenvalues_mixed,
    gain_operator,
    locc_povm_element,
    locc_protocol,
    max_success_eigenvalue_route,
    max_success_global,
    mean_success,
    optimal_global_povm,
    solve_global,
)
from stateid.povm import povm_from_dict
from stateid.protocol import Leaf, effective_povm
from stateid.symmetry import build_toolkit, dimension_table

# frozen via the eigenvalue-sum oracle (assemble gain operator, eigensolve,
# sum positive part):
PMAX_D2_HALF = 0.6443375672974064
PMAX_D2_07 = 0.7814699069552598
PMAX_D4_HALF = 0.7165063509461097
LAMBDA_HALF = 0.4330127018922193        # sqrt(3)/4
LAMBDA_03 = (0.2444097208657795, -0.6444097208657794)
LOCC_OVERLAP_22_HALF = 8.660254037844386  # 5*sqrt(3)

ETA_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))


class TestPriors:
    def test_validation(self):
        with pytest.raises(ValueError):
            Priors(0.6, 0.6)
        with pytest.raises(ValueError):
            Priors(-0.1, 1.1)

    @pytest.mark.parametrize("eta1", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite(self, eta1):
        with pytest.raises(ValueError):
            Priors.from_eta1(eta1)
        with pytest.raises(ValueError):
            Priors(eta1, 0.5)

    def test_from_eta1(self):
        p = Priors.from_eta1(0.3)
        assert (p.eta1, p.eta2) == (0.3, 0.7)
        assert p.swapped() == Priors(0.7, 0.3)


class TestGainOperator:
    @pytest.mark.parametrize("d", (2, 3))
    @pytest.mark.parametrize("eta1", (0.2, 0.5, 0.9))
    def test_swap_combination_form(self, d, eta1):
        # eta1*sym01 - eta2*sym02 == (diff + swap_diff + diff*swap_sum) / 2
        p = Priors.from_eta1(eta1)
        tk = build_toolkit(d)
        eye = np.eye(d**3)
        alt = 0.5 * (p.diff * eye + tk.swap_diff + p.diff * tk.swap_sum)
        assert np.abs(gain_operator(d, p) - alt).max() < 1e-10

    def test_certain_prior_reduces_to_symmetrizer(self):
        tk = build_toolkit(3)
        assert np.abs(gain_operator(3, Priors(1.0, 0.0)) - tk.sym01).max() == 0.0

    def test_acts_as_scalar_on_symmetric_subspace(self):
        # restricted to the totally symmetric subspace the gain is diff * identity
        p = Priors.from_eta1(0.7)
        tk = build_toolkit(3)
        g = gain_operator(3, p)
        assert np.abs(tk.sym3 @ g @ tk.sym3 - 0.4 * tk.sym3).max() < 1e-10


class TestMixedEigenvalues:
    def test_equal_priors(self):
        lp, lm = gain_eigenvalues_mixed(EQUAL_PRIORS)
        assert abs(lp - LAMBDA_HALF) < 1e-15
        assert abs(lm + LAMBDA_HALF) < 1e-15

    def test_certain_prior(self):
        assert gain_eigenvalues_mixed(Priors(1.0, 0.0)) == (1.0, 0.0)

    def test_skewed(self):
        lp, lm = gain_eigenvalues_mixed(Priors.from_eta1(0.3))
        assert abs(lp - LAMBDA_03[0]) < 1e-14
        assert abs(lm - LAMBDA_03[1]) < 1e-14

    @pytest.mark.parametrize("eta1", (0.2, 0.5, 0.8))
    def test_matches_eigensolver_on_mixed_block(self, eta1):
        p = Priors.from_eta1(eta1)
        tk = build_toolkit(3)
        restricted = tk.mixed3 @ gain_operator(3, p) @ tk.mixed3
        w = np.linalg.eigvalsh(restricted)
        lp, lm = gain_eigenvalues_mixed(p)
        assert abs(w.max() - lp) < 1e-9
        assert abs(w.min() - lm) < 1e-9

    @pytest.mark.parametrize("eta1", ETA_GRID)
    def test_sign_ordering(self, eta1):
        lp, lm = gain_eigenvalues_mixed(Priors.from_eta1(eta1))
        assert lp >= 0.0 >= lm


class TestMaxSuccessGlobal:
    def test_frozen_values(self):
        assert abs(max_success_global(2, EQUAL_PRIORS) - PMAX_D2_HALF) < 1e-12
        assert abs(max_success_global(2, Priors.from_eta1(0.7)) - PMAX_D2_07) < 1e-12
        assert abs(max_success_global(4, EQUAL_PRIORS) - PMAX_D4_HALF) < 1e-12

    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
    @pytest.mark.parametrize("eta1", ETA_GRID)
    def test_dual_route(self, d, eta1):
        p = Priors.from_eta1(eta1)
        assert abs(max_success_global(d, p) - max_success_eigenvalue_route(d, p)) < 1e-9

    @pytest.mark.parametrize("eta1", ETA_GRID)
    def test_label_swap_symmetry(self, eta1):
        p = Priors.from_eta1(eta1)
        assert max_success_global(3, p) == max_success_global(3, p.swapped())

    @pytest.mark.parametrize("eta1", (0.1, 0.5, 0.8))
    def test_monotone_in_dimension(self, eta1):
        p = Priors.from_eta1(eta1)
        values = [max_success_global(d, p) for d in (2, 3, 4, 5, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_large_d_limit(self):
        # 1/2 + sqrt(3)/6 in the limit; d=200 is within 2e-3
        assert abs(max_success_global(200, EQUAL_PRIORS) - 0.7886751345948129) < 2e-3

    def test_bounds(self):
        for eta1 in (0.0, 0.3, 1.0):
            p = Priors.from_eta1(eta1)
            sol = solve_global(3, p)
            assert max(p.eta1, p.eta2) <= sol.p_max <= 1.0 + 1e-12
            assert sol.lambda_plus >= 0.0 >= sol.lambda_minus


class TestGlobalPovm:
    @pytest.mark.parametrize("d,rank", [(2, 2), (3, 8)])
    def test_equal_priors_rank(self, d, rank):
        povm = optimal_global_povm(d, EQUAL_PRIORS)
        povm.validate()
        assert round(np.trace(povm.element(1)).real) == rank  # mixed3 / 2

    def test_certain_prior_accepts_all_symmetric(self):
        tk = build_toolkit(2)
        povm = optimal_global_povm(2, Priors(1.0, 0.0))
        assert abs(np.trace(povm.element(1) @ tk.sym01) - np.trace(tk.sym01)) < 1e-9

    @pytest.mark.parametrize("eta1", (0.3, 0.5, 0.8))
    def test_attains_closed_form(self, eta1):
        p = Priors.from_eta1(eta1)
        povm = optimal_global_povm(3, p)
        assert abs(mean_success(povm, 3, p) - max_success_global(3, p)) < 1e-9


class TestMeanSuccess:
    def test_never_answer_one(self):
        n = 8
        povm = povm_from_dict({1: np.zeros((n, n)), 2: np.eye(n)})
        p = Priors.from_eta1(0.3)
        assert mean_success(povm, 2, p) == p.eta2

    def test_always_answer_one(self):
        n = 8
        povm = povm_from_dict({1: np.eye(n), 2: np.zeros((n, n))})
        assert abs(mean_success(povm, 2, EQUAL_PRIORS) - 0.5) < 1e-12

    def test_rejects_unexpected_labels(self):
        povm = povm_from_dict({1: np.eye(8) / 2, 0: np.eye(8) / 2})
        with pytest.raises(ValueError, match="labels"):
            mean_success(povm, 2, EQUAL_PRIORS)


class TestLoccPovmElement:
    def test_equal_priors_two_qubits(self):
        povm = locc_povm_element(2, 2, EQUAL_PRIORS)
        povm.validate()
        g = gain_operator(4, EQUAL_PRIORS)
        overlap = np.trace(povm.element(1) @ g).real
        assert abs(overlap - LOCC_OVERLAP_22_HALF) < 1e-9
        assert abs(mean_success(povm, 4, EQUAL_PRIORS) - PMAX_D4_HALF) < 1e-9

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("eta1", (0.1, 0.3, 0.5))
    def test_matches_global_overlap(self, da, db, eta1):
        p = Priors.from_eta1(eta1)
        g = gain_operator(da * db, p)
        t_locc = np.trace(locc_povm_element(da, db, p).element(1) @ g).real
        t_global = np.trace(positive_part_projector(g) @ g).real
        assert abs(t_locc - t_global) < 1e-9

    def test_overlap_closed_form(self):
        # (lambda_plus / 2) * mixed3 when eta1 <= eta2
        p = Priors.from_eta1(0.3)
        g = gain_operator(4, p)
        overlap = np.trace(locc_povm_element(2, 2, p).element(1) @ g).real
        lp, _ = gain_eigenvalues_mixed(p)
        assert abs(overlap - lp / 2 * dimension_table(4).mixed3) < 1e-9

    def test_rejects_reversed_priors(self):
        with pytest.raises(ValueError, match="eta1 <= eta2"):
            locc_povm_element(2, 2, Priors.from_eta1(0.7))

    @pytest.mark.parametrize("eta1,e1", [(0.0, 0.0), (1.0, 1.0)])
    def test_degenerate_priors_give_trivial_element(self, eta1, e1):
        povm = locc_povm_element(2, 2, Priors.from_eta1(eta1))
        assert np.array_equal(povm.element(1), e1 * np.eye(64))
        assert np.array_equal(povm.element(2), (1.0 - e1) * np.eye(64))


class TestLoccProtocol:
    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("eta1", (0.3, 0.5))
    def test_flattens_to_separable_element(self, da, db, eta1):
        p = Priors.from_eta1(eta1)
        eff = effective_povm(locc_protocol(da, db, p))
        ref = locc_povm_element(da, db, p)
        assert np.abs(eff.element(1) - ref.element(1)).max() < 1e-9
        assert np.abs(eff.element(2) - ref.element(2)).max() < 1e-9

    @pytest.mark.parametrize("eta1,label", [(0.0, 2), (1.0, 1)])
    def test_degenerate_priors_give_one_leaf(self, eta1, label):
        proto = locc_protocol(2, 3, Priors.from_eta1(eta1))
        assert proto.root == Leaf(label)
        eff = effective_povm(proto)
        assert eff.labels == (label,)
        assert np.array_equal(eff.element(label), np.eye(216))

    def test_swapped_priors_relabel(self):
        p = Priors.from_eta1(0.7)
        eff = effective_povm(locc_protocol(2, 2, p))
        ref = locc_povm_element(2, 2, p.swapped())
        # label 2 of the protocol is label 1 of the swapped construction with
        # the reference systems exchanged
        t12 = build_toolkit(4).swap12
        assert np.abs(eff.element(2) - t12 @ ref.element(1) @ t12).max() < 1e-9
        assert abs(mean_success(eff, 4, p) - max_success_global(4, p)) < 1e-9

    @pytest.mark.parametrize("eta1", (0.6, 0.9))
    def test_swapped_priors_attain_optimum(self, eta1):
        p = Priors.from_eta1(eta1)
        eff = effective_povm(locc_protocol(2, 2, p))
        assert abs(mean_success(eff, 4, p) - max_success_global(4, p)) < 1e-9

    def test_party_symmetry(self):
        p = Priors.from_eta1(0.3)
        p32 = mean_success(effective_povm(locc_protocol(3, 2, p)), 6, p)
        p23 = mean_success(effective_povm(locc_protocol(2, 3, p)), 6, p)
        assert abs(p32 - p23) < 1e-9
        assert abs(p32 - max_success_global(6, p)) < 1e-9

    def test_tolerates_zero_probability_branches(self):
        # no totally antisymmetric triple of qubits: that branch has weight 0
        assert np.abs(build_toolkit(2).antisym3).max() == 0.0
        proto = locc_protocol(2, 2, EQUAL_PRIORS)
        eff = effective_povm(proto)  # completeness asserted inside
        assert set(eff.labels) == {1, 2}

    def test_angle_at_equal_priors(self):
        # cos(2 theta) = 0 at eta1 = eta2, so the rotated projectors split the
        # mixed block evenly
        from stateid.minerr import _rotation_angle
        assert abs(_rotation_angle(EQUAL_PRIORS) - math.pi / 4) < 1e-12
