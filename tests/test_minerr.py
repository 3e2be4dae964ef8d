import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import gain_operator, positive_part_projector, swap_references, validate_povm
from stateid.minerr import (
    EQUAL_PRIORS,
    Priors,
    _local_projectors,
    _rotation_angle,
    gain_eigenvalues_mixed,
    locc_povm_element,
    locc_protocol,
    max_success_eigenvalue_route,
    max_success_global,
    optimal_global_povm,
)
from stateid import unambiguous
from stateid.povm import Povm, mean_success
from stateid.protocol import Leaf, effective_povm
from stateid.symmetry import S3, build_toolkit, dimension_table, permutation_sum

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

    @pytest.mark.parametrize("eta1, label", [
        (0.0, 2), (1.0, 1), (1e-320, None), (1e-9, None), (0.5, None), (1 - 1e-16, None)])
    def test_certain_label(self, eta1, label):
        # only a prior of exactly 0 makes the other label certain
        assert Priors.from_eta1(eta1).certain == label


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

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(2, 9), eta1=st.sampled_from((0.0, 1e-12, 1.0)) | st.floats(0.0, 1.0))
    def test_index_maps_equal_dense_symmetrizers(self, d, eta1):
        # eta1*sym01 - eta2*sym02 of the dense toolkit within one ulp of 1:
        # the scatter adds the coordinates of the identity and of a swap where
        # their maps meet, where the toolkit scales their sum
        p = Priors.from_eta1(eta1)
        tk = build_toolkit(d)
        dense = p.eta1 * tk.sym01 - p.eta2 * tk.sym02
        assert np.abs(gain_operator(d, p) - dense).max() <= np.finfo(float).eps

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
            lambda_plus, lambda_minus = gain_eigenvalues_mixed(p)
            assert max(p.eta1, p.eta2) <= max_success_global(3, p) <= 1.0 + 1e-12
            assert lambda_plus >= 0.0 >= lambda_minus


class TestGlobalPovm:
    @pytest.mark.parametrize("d,rank", [(2, 2), (3, 8)])
    def test_equal_priors_rank(self, d, rank):
        povm = optimal_global_povm(d, EQUAL_PRIORS)
        validate_povm(povm)
        assert round(np.trace(povm.element(1)).real) == rank  # mixed3 / 2

    def test_certain_prior_accepts_all_symmetric(self):
        tk = build_toolkit(2)
        povm = optimal_global_povm(2, Priors(1.0, 0.0))
        assert abs(np.trace(povm.element(1) @ tk.sym01) - np.trace(tk.sym01)) < 1e-9

    @pytest.mark.parametrize("eta1", (0.3, 0.5, 0.8))
    def test_attains_closed_form(self, eta1):
        p = Priors.from_eta1(eta1)
        povm = optimal_global_povm(3, p)
        assert abs(mean_success(povm, p) - max_success_global(3, p)) < 1e-9


class TestMeanSuccess:
    def test_never_answer_one(self):
        povm = Povm((2,), {1: np.zeros(6), 2: S3.identity})
        p = Priors.from_eta1(0.3)
        # eta2 tr[sym02] / (d1*d2), to rounding: not eta2 plus an exact 0
        assert abs(mean_success(povm, p) - p.eta2) <= 1e-15

    def test_always_answer_one(self):
        povm = Povm((2,), {1: S3.identity, 2: np.zeros(6)})
        assert abs(mean_success(povm, EQUAL_PRIORS) - 0.5) < 1e-12

    @pytest.mark.parametrize("eta1", (0.3, 0.5))
    def test_reads_the_dimensions_of_the_povm(self, eta1):
        # the same coordinates at d = 2 and d = 3 succeed at each one's optimum
        p = Priors.from_eta1(eta1)
        for d in (2, 3, 40):
            assert abs(mean_success(optimal_global_povm(d, p), p) - max_success_global(d, p)) < 1e-12

    def test_rejects_unexpected_labels(self):
        povm = Povm((2,), {1: S3.identity / 2, 0: S3.identity / 2})
        with pytest.raises(ValueError, match="labels"):
            mean_success(povm, EQUAL_PRIORS)


class TestLoccPovmElement:
    def test_equal_priors_two_qubits(self):
        povm = locc_povm_element(2, 2, EQUAL_PRIORS)
        validate_povm(povm)
        g = gain_operator(4, EQUAL_PRIORS)
        overlap = np.trace(povm.element(1) @ g).real
        assert abs(overlap - LOCC_OVERLAP_22_HALF) < 1e-9
        assert abs(mean_success(povm, EQUAL_PRIORS) - PMAX_D4_HALF) < 1e-9

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

    @settings(max_examples=60, deadline=None)
    @given(eta1=st.floats(0.0, 1.0), da=st.integers(2, 5), db=st.integers(2, 5))
    def test_any_priors_attain_the_global_optimum(self, eta1, da, db):
        # eta1 > eta2 included: the element is the relabel of 1 - E1 at the
        # swapped priors, as the protocol's
        p = Priors.from_eta1(eta1)
        povm = locc_povm_element(da, db, p)
        assert abs(mean_success(povm, p) - max_success_global(da * db, p)) <= 1e-12

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    def test_swapped_local_projectors_match_dense_swap(self, da, db):
        p = Priors.from_eta1(0.3)
        for d in (da, db):
            swapped = [permutation_sum(d, c) for c in _local_projectors(p, swap=True)]
            t12 = build_toolkit(d).swap12
            dense = [t12 @ permutation_sum(d, c) @ t12 for c in _local_projectors(p)]
            # the same up to rounding: each entry adds the same coordinates in another order
            assert all(np.abs(a - b).max() <= 1e-15 for a, b in zip(swapped, dense, strict=True))

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
        assert abs(mean_success(eff, p) - max_success_global(4, p)) < 1e-9

    @pytest.mark.parametrize("eta1", (0.6, 0.9))
    def test_swapped_priors_attain_optimum(self, eta1):
        p = Priors.from_eta1(eta1)
        eff = effective_povm(locc_protocol(2, 2, p))
        assert abs(mean_success(eff, p) - max_success_global(4, p)) < 1e-9

    def test_party_symmetry(self):
        p = Priors.from_eta1(0.3)
        p32 = mean_success(effective_povm(locc_protocol(3, 2, p)), p)
        p23 = mean_success(effective_povm(locc_protocol(2, 3, p)), p)
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
        assert abs(_rotation_angle(EQUAL_PRIORS) - math.pi / 4) < 1e-12


def dense_local_projectors(d: int, priors: Priors, swap: bool) -> list:
    """(pp, pm, qp, qm) by the dense recipe: the positive and negative parts of
    the gain operator and of the rotated involution y2 on the mixed subspace,
    each from an eigensolve of the restricted dense operator."""
    tk = build_toolkit(d)
    theta = _rotation_angle(priors)
    y2 = 2.0 * (-math.sin(theta) / math.sqrt(3.0) * tk.swap_diff + math.cos(theta) * tk.swap_sum)
    ops = []
    for h in (gain_operator(d, priors), y2):
        restricted = tk.mixed3 @ h @ tk.mixed3
        ops += [positive_part_projector(restricted), positive_part_projector(-restricted)]
    return [swap_references(op) for op in ops] if swap else ops


@settings(max_examples=30, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), eta1=st.floats(1e-3, 1 - 1e-3), swap=st.booleans())
def test_closed_form_projectors_match_dense_recipe(d, eta1, swap):
    # an eigensolve resolves the eigenvectors of eigenvalue lambda+ only to
    # about 1e-16 / gap from the kernel of the restricted operator, its
    # eigenvalue 0 (2.7e-13 at d = 4, eta1 = 1e-3); the closed forms lie in
    # the mixed subspace to the last bit
    priors = Priors.from_eta1(eta1)
    gap = min(abs(lam) for lam in gain_eigenvalues_mixed(priors))
    closed = [permutation_sum(d, c) for c in _local_projectors(priors, swap)]
    outside = build_toolkit(d).sym3 + build_toolkit(d).antisym3
    for got, ref in zip(closed, dense_local_projectors(d, priors, swap), strict=True):
        assert np.abs(got - ref).max() <= 1e-13 + 1e-15 / gap
        assert np.abs(got @ outside).max() <= 1e-15


def test_eigh_is_never_called(monkeypatch):
    # the trees, the closed-form elements and the global POVMs need no eigensolve
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for da, db in ((2, 2), (2, 3), (3, 3)):
        for eta1 in (0.3, 0.7):
            locc_protocol(da, db, Priors.from_eta1(eta1))
        unambiguous.locc_protocol(da, db)
        validate_povm(locc_povm_element(da, db, Priors.from_eta1(0.3)))
        unambiguous.separable_unamb_povm.__wrapped__(da, db, unambiguous.SeparableCoeffs.optimal())
    validate_povm(optimal_global_povm(9, Priors.from_eta1(0.3)))
    unambiguous.optimal_global_povm(3).validate()
    with pytest.raises(AssertionError, match="eigh called"):
        np.linalg.eigh(np.eye(2))
