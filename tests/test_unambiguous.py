import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import (
    beta_feasibility,
    conclusive_pair,
    global_unamb_elements,
    haar_state,
    haar_unitary,
    kron_sum,
    mixed_block_dense,
    mixed_block_operator,
    no_error_leaks,
    separable_unamb_elements,
    state_matrix,
    swap_references,
)
from stateid import checks, unambiguous
from stateid.linalg import spectrum
from stateid.protocol import effective_povm
from stateid.symmetry import S3, build_toolkit, relabel
from stateid.unambiguous import (
    SEPARABLE_CACHE_SIZE,
    SeparableCoeffs,
    UnambPovm,
    gamma_plus,
    locc_protocol,
    max_success_global,
    max_success_separable,
    mixed_block_table,
    optimal_global_povm,
    separable_unamb_povm,
    success_probability,
)

P_SEP_22 = 0.2375                 # 19/80
P_SEP_23 = 0.2619047619047619     # 11/42
P_SEP_33 = 0.2765432098765432     # 112/405
GAP_22 = 0.0125                   # 1/80

RNG = np.random.default_rng(101)


def kron(*ops):
    """Kronecker product of one or more operators, leftmost most significant."""
    return functools.reduce(np.kron, ops)


class TestGlobalPovm:
    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
    def test_valid_and_attains_closed_form(self, d):
        povm = optimal_global_povm(d)
        povm.validate()
        assert abs(success_probability(povm) - max_success_global(d)) < 1e-10

    def test_quarter_at_d4(self):
        assert max_success_global(4) == 0.25
        assert abs(success_probability(optimal_global_povm(4)) - 0.25) < 1e-10

    def test_success_at_the_dimensions_of_the_povm(self):
        # the coordinates are the same at every d: the success reader takes d
        # from the POVM, and a separate d can no longer be passed
        for d in (2, 3, 40, 900):
            assert abs(success_probability(optimal_global_povm(d)) - (d - 1) / (3 * d)) < 1e-12
        with pytest.raises(TypeError):
            success_probability(optimal_global_povm(2), 3)

    def test_large_d_limit(self):
        assert abs(max_success_global(300) - 1 / 3) < 2e-3

    def test_inconclusive_element_spectrum(self):
        # (1/3)(1 + 2 swap_sum) restricted to the mixed subspace: {2/3, 0}
        tk = build_toolkit(3)
        block = tk.mixed3 @ (np.eye(27) + 2 * tk.swap_sum) / 3
        w = np.linalg.eigvalsh(block)
        vm = tk.dims.mixed3
        assert np.sum(np.abs(w - 2 / 3) < 1e-10) == vm // 2
        assert np.sum(np.abs(w) < 1e-10) == 27 - vm // 2

    @pytest.mark.parametrize("d", (2, 3))
    def test_unitary_scalar(self, d):
        povm = optimal_global_povm(d)
        for _ in range(20):
            u = haar_unitary(d, RNG)
            u3 = kron(u, u, u)
            for op in (povm.e1, povm.e2, povm.e0):
                assert np.abs(op @ u3 - u3 @ op).max() < 1e-9

    def test_no_error_on_haar_pairs(self):
        povm = optimal_global_povm(2)
        worst = 0.0
        for _ in range(200):
            phi1, phi2 = haar_state(2, RNG), haar_state(2, RNG)
            s2 = kron(phi2, phi1, phi2)
            s1 = kron(phi1, phi1, phi2)
            worst = max(worst,
                        (s2.conj() @ povm.e1 @ s2).real,
                        (s1.conj() @ povm.e2 @ s1).real)
        assert worst < 1e-10


def swapped(povm):
    """The POVM with its conclusive elements exchanged."""
    e = povm.elements
    return UnambPovm(povm.dims, {1: e[2], 2: e[1], 0: e[0]})


def per_pair_no_error_defect(seed, n_pairs):
    """The per-pair haar_state/kron loop that checks.no_error does in bulk."""
    rng = np.random.default_rng(seed)
    probes = [(d, unambiguous.optimal_global_povm(d)) for d in (2, 3)]
    probes.append((4, unambiguous.separable_unamb_povm(2, 2, SeparableCoeffs.optimal())))
    worst = 0.0
    for d, povm in probes:
        e1, e2 = povm.e1, povm.e2   # each read writes the element dense
        for _ in range(n_pairs):
            phi1, phi2 = haar_state(d, rng), haar_state(d, rng)
            s2 = np.kron(np.kron(phi2, phi1), phi2)
            s1 = np.kron(np.kron(phi1, phi1), phi2)
            worst = max(worst,
                        float((s2.conj() @ (e1 @ s2)).real),
                        float((s1.conj() @ (e2 @ s1)).real))
    return worst


class TestNoErrorProbe:
    @settings(max_examples=5, deadline=None)
    @example(seed=0, n_pairs=1000)
    @example(seed=7, n_pairs=1000)
    @example(seed=23, n_pairs=1000)
    @given(seed=st.integers(0, 2**63), n_pairs=st.integers(1, 200))
    def test_bulk_probe_matches_per_pair_loop(self, seed, n_pairs):
        bulk = checks.no_error.evaluate(seed, n_pairs)[1]
        assert abs(bulk - per_pair_no_error_defect(seed, n_pairs)) <= 1e-15
        assert bulk <= 1e-10

    def test_bulk_probe_detects_swapped_elements(self, monkeypatch):
        glob, sep = unambiguous.optimal_global_povm, unambiguous.separable_unamb_povm
        monkeypatch.setattr(unambiguous, "optimal_global_povm", lambda d: swapped(glob(d)))
        monkeypatch.setattr(unambiguous, "separable_unamb_povm",
                            lambda *args: swapped(sep(*args)))
        for seed in (0, 7, 23):
            bulk = checks.no_error.evaluate(seed, 1000)[1]
            loop = per_pair_no_error_defect(seed, 1000)
            assert loop > 0.1
            assert abs(bulk - loop) <= 1e-12 * loop


class TestSuccessProbability:
    def test_zero_conclusive_elements(self):
        povm = UnambPovm((2,), {1: np.zeros(6), 2: np.zeros(6), 0: S3.identity})
        assert success_probability(povm) == 0.0

    def test_rejects_no_error_violation(self):
        with pytest.raises(ValueError, match="no-error"):
            success_probability(swapped(optimal_global_povm(2)))

    def test_validate_flags_broken_exchange_symmetry(self):
        e = optimal_global_povm(2).elements
        tweaked = UnambPovm((2,), {1: e[1] / 2, 2: e[2], 0: e[0] + e[1] / 2})
        with pytest.raises(ValueError, match="exchange symmetry"):
            tweaked.validate()

    @pytest.mark.parametrize("d", (2, 3))
    def test_validate_flags_a_small_leak(self, d):
        # moving 1e-9 sym3 from E0 into both conclusive elements keeps them
        # PSD, complete and exchange-symmetric; only E1 sym02 = 1e-9 sym3 and
        # E2 sym01 = 1e-9 sym3 break, by 1e-9 on the trivial irrep;
        # success_probability refuses the same leak
        e = optimal_global_povm(d).elements
        leaky = UnambPovm((d,), {1: e[1] + 1e-9 * S3.sym3, 2: e[2] + 1e-9 * S3.sym3,
                                 0: e[0] - 2e-9 * S3.sym3})
        with pytest.raises(ValueError, match=r"^e1 violates the no-error condition \(leak 1\.000e-09\)"):
            leaky.validate()
        with pytest.raises(ValueError, match=r"no-error condition \(leak 1\.000e-09\)"):
            success_probability(leaky)

    @pytest.mark.parametrize("d", (2, 3))
    def test_validate_flags_a_negative_element(self, d):
        # 1e-9 mixed3 moved from E0 into E2 alone: E0 loses positivity on the
        # mixed subspace, where its least eigenvalue is 0
        e = optimal_global_povm(d).elements
        bent = UnambPovm((d,), {1: e[1], 2: e[2] + 1e-9 * S3.mixed3, 0: e[0] - 1e-9 * S3.mixed3})
        with pytest.raises(ValueError, match=r"^element 0 is not PSD"):
            bent.validate()


class TestFeasibility:
    def test_boundary(self):
        g, ok = beta_feasibility(0.5, 0.5)
        assert g == 1.0 and ok

    def test_origin(self):
        assert beta_feasibility(0.0, 0.0) == (0.0, True)

    def test_symmetric_overshoot(self):
        g, ok = beta_feasibility(0.6, 0.6)
        assert abs(g - 1.2) < 1e-12 and not ok

    def test_asymmetric_overshoot(self):
        # beta = delta = 1/2: 5/8 + sqrt(25/64) = 5/4
        g, ok = beta_feasibility(1.0, 0.0)
        assert abs(g - 1.25) < 1e-12 and not ok

    @pytest.mark.parametrize("b1,b2", [(0.5, 0.5), (0.3, 0.2), (0.4, 0.0), (0.1, 0.55)])
    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3)])
    def test_gamma_matches_assembled_block(self, b1, b2, da, db):
        top = np.linalg.eigvalsh(mixed_block_operator(da, db, b1, b2)).max()
        assert abs(gamma_plus(b1, b2) - top) < 1e-9
        assert abs(spectrum(mixed_block_table(b1, b2), (da, db))[0].max() - top) < 1e-12


class TestSeparableCoeffs:
    def test_optimal(self):
        c = SeparableCoeffs.optimal()
        assert (c.alpha1, c.alpha2, c.alpha3, c.alpha4) == (2 / 3,) * 4
        assert (c.beta1, c.beta2) == (0.5, 0.5) and gamma_plus(c.beta1, c.beta2) == 1.0

    def test_rejects_alpha_overshoot(self):
        with pytest.raises(ValueError, match="alpha1.*exceeds 2/3"):
            SeparableCoeffs(0.7, 2 / 3, 2 / 3, 2 / 3, 0.5, 0.5)

    def test_rejects_infeasible_betas(self):
        with pytest.raises(ValueError, match="gamma_plus.*exceeds 1"):
            SeparableCoeffs(2 / 3, 2 / 3, 2 / 3, 2 / 3, 1.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SeparableCoeffs(-0.1, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SeparableCoeffs)])
    def test_rejects_non_finite(self, name, value):
        # every comparison with NaN is false, so no bound alone refuses it
        zeros = {f.name: 0.0 for f in dataclasses.fields(SeparableCoeffs)}
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value}$"):
            SeparableCoeffs(**{**zeros, name: value})


class TestSeparablePovm:
    def test_optimal_two_qubits(self):
        povm = separable_unamb_povm(2, 2, SeparableCoeffs.optimal())
        povm.validate()
        assert np.linalg.eigvalsh(povm.e0).min() > -1e-10
        assert abs(success_probability(povm) - P_SEP_22) < 1e-10

    def test_zero_coefficients(self):
        povm = separable_unamb_povm(2, 2, SeparableCoeffs(0, 0, 0, 0, 0, 0))
        assert np.abs(povm.e1).max() == 0.0
        assert np.abs(povm.e0 - np.eye(64)).max() < 1e-12
        assert success_probability(povm) == 0.0

    def test_cached_and_read_only(self):
        povm = separable_unamb_povm(2, 2, SeparableCoeffs.optimal())
        assert separable_unamb_povm(2, 2, SeparableCoeffs.optimal()) is povm
        assert separable_unamb_povm.cache_info().maxsize == SEPARABLE_CACHE_SIZE
        for table in povm.elements.values():
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_coefficients_key_the_cache(self):
        optimal = separable_unamb_povm(2, 2, SeparableCoeffs.optimal())
        zero = separable_unamb_povm(2, 2, SeparableCoeffs(0, 0, 0, 0, 0, 0))
        assert zero is not optimal
        assert np.array_equal(zero.e0, np.eye(64))
        assert not np.array_equal(optimal.e0, np.eye(64))

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    def test_index_map_swap_equals_dense(self, da, db):
        # exact in the tables; the dense elements each write within rounding
        povm = separable_unamb_povm(da, db, SeparableCoeffs.optimal())
        assert np.array_equal(povm.elements[2], relabel(povm.elements[1]))
        assert np.array_equal(povm.elements[0], relabel(povm.elements[0]))
        t12 = build_toolkit(da * db).swap12
        assert np.abs(povm.e2 - t12 @ povm.e1 @ t12).max() <= 1e-15
        assert np.abs(povm.e0 - t12 @ povm.e0 @ t12).max() <= 1e-15

    @settings(max_examples=15, deadline=None)
    @given(split=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
           alphas=st.lists(st.floats(0.0, 2 / 3), min_size=4, max_size=4),
           betas=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(
               lambda b: gamma_plus(*b) <= 1.0))
    def test_exchange_symmetry_is_exact(self, split, alphas, betas):
        # e2 is e1's relabel, and e0 = 1 - (e1 + e2) invariant under it, to
        # the last bit in the tables; the dense elements within rounding
        da, db = split
        povm = separable_unamb_povm.__wrapped__(da, db, SeparableCoeffs(*alphas, *betas))
        e = povm.elements
        assert np.array_equal(e[2], relabel(e[1])) and np.array_equal(e[0], relabel(e[0]))
        assert povm.no_error_leaks() == (0.0, 0.0)
        t12 = build_toolkit(da * db).swap12 if da * db < 9 else None
        for lhs, op in ((povm.e2, povm.e1), (povm.e0, povm.e0)):
            moved = t12 @ op @ t12 if t12 is not None else swap_references(op)
            assert np.abs(lhs - moved).max() <= 1e-15

    def test_unitary_scalar_separable(self):
        povm = separable_unamb_povm(2, 2, SeparableCoeffs.optimal())
        for _ in range(20):
            u = haar_unitary(2, RNG)
            v = haar_unitary(2, RNG)
            w = kron_sum(2, 2, [kron(u, u, u)], [kron(v, v, v)])
            for op in (povm.e1, povm.e2, povm.e0):
                assert np.abs(op @ w - w @ op).max() < 1e-9

    @pytest.mark.parametrize("da,db,expected", [
        (2, 2, P_SEP_22), (2, 3, P_SEP_23), (3, 3, P_SEP_33),
    ])
    def test_attains_closed_form(self, da, db, expected):
        povm = separable_unamb_povm(da, db, SeparableCoeffs.optimal())
        assert abs(success_probability(povm) - expected) < 1e-10
        assert abs(max_success_separable(da, db) - expected) < 1e-12


class TestSeparableOptimum:
    @pytest.mark.parametrize("da", (2, 3, 4, 5))
    @pytest.mark.parametrize("db", (2, 3, 4, 5))
    def test_strictly_below_global(self, da, db):
        gap = max_success_global(da * db) - max_success_separable(da, db)
        assert gap > 1e-3

    def test_asymptotics_monotone(self):
        global_seq = [max_success_global(k * k) for k in range(2, 7)]
        local_seq = [max_success_separable(k, k) for k in range(2, 7)]
        assert all(b > a for a, b in zip(global_seq, global_seq[1:]))
        assert all(b > a for a, b in zip(local_seq, local_seq[1:]))
        assert all(v < 1 / 3 for v in global_seq)
        assert all(v < 11 / 36 for v in local_seq)
        assert abs(local_seq[-1] - 11 / 36) < 2e-2

    def test_trace_bookkeeping(self):
        # five-term dimensional expression for the conclusive overlap
        for da, db in ((2, 2), (2, 3), (3, 3)):
            ta = build_toolkit(da).dims
            tb = build_toolkit(db).dims
            expected = 0.25 * (
                ta.sym3 * tb.mixed3 + ta.antisym3 * tb.mixed3
                + ta.mixed3 * tb.antisym3 + ta.mixed3 * tb.sym3
                + 0.375 * ta.mixed3 * tb.mixed3
            )
            povm = separable_unamb_povm(da, db, SeparableCoeffs.optimal())
            joint = build_toolkit(da * db)
            overlap = np.trace(povm.e1 @ joint.sym01).real
            assert abs(overlap - expected) < 1e-8


SPLITS = ((2, 2), (2, 3), (3, 2), (3, 3))
INTERIOR = SeparableCoeffs(0.3, 0.5, 0.1, 0.6, 0.4, 0.2)


def assert_dense_route_agrees(povm):
    """The dense route's conclusive pair, E2 antisymmetrized through T01's
    index map and E1 its reference swap, has exactly zero no-error products
    and lies within rounding of the elements written from the POVM."""
    e1, e2 = conclusive_pair(math.prod(povm.dims), povm.e2)
    assert no_error_leaks(e1, e2) == (0.0, 0.0)
    assert max(np.abs(e1 - povm.e1).max(), np.abs(e2 - povm.e2).max()) <= 1e-15


class TestCoordinatesMatchDenseProducts:
    """The elements written from S3 coordinates against the dense toolkit
    products they replace, and their exact no-error products on the irreps."""

    @pytest.mark.parametrize("d", (2, 3, 4, 5, 6))
    def test_global(self, d):
        povm = optimal_global_povm(d)
        assert povm.no_error_leaks() == (0.0, 0.0)
        assert_dense_route_agrees(povm)
        for got, ref in zip((povm.e1, povm.e2, povm.e0), global_unamb_elements(d), strict=True):
            assert np.abs(got - ref).max() <= 1e-15

    @pytest.mark.parametrize("coeffs", [SeparableCoeffs.optimal(), INTERIOR], ids=["optimal", "interior"])
    @pytest.mark.parametrize("da,db", SPLITS)
    def test_separable(self, da, db, coeffs):
        povm = separable_unamb_povm.__wrapped__(da, db, coeffs)
        assert povm.no_error_leaks() == (0.0, 0.0)
        assert_dense_route_agrees(povm)
        for got, ref in zip((povm.e1, povm.e2, povm.e0), separable_unamb_elements(da, db, coeffs),
                            strict=True):
            assert np.abs(got - ref).max() <= 1e-15

    @pytest.mark.parametrize("da,db", SPLITS)
    def test_mixed_block(self, da, db):
        for b1, b2 in ((0.5, 0.5), (0.4, 0.2)):
            ref = mixed_block_dense(da, db, b1, b2)
            assert np.abs(mixed_block_operator(da, db, b1, b2) - ref).max() <= 1e-15


class TestLoccProtocol:
    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    def test_flattens_to_separable_optimum(self, da, db):
        eff = effective_povm(locc_protocol(da, db))
        ref = separable_unamb_povm(da, db, SeparableCoeffs.optimal())
        assert np.abs(eff.element(1) - ref.e1).max() < 1e-9
        assert np.abs(eff.element(2) - ref.e2).max() < 1e-9
        assert np.abs(eff.element(0) - ref.e0).max() < 1e-9

    def test_local_povm_completeness(self):
        # the three-outcome sets the mixed party uses resolve its mixed projector
        tk = build_toolkit(2)
        eye = np.eye(8)
        for sign in (+1, -1):
            total = (2 / 3) * tk.mixed3 @ (tk.antisym02 if sign > 0 else tk.sym02) \
                + (2 / 3) * tk.mixed3 @ (tk.antisym01 if sign > 0 else tk.sym01) \
                + tk.mixed3 @ (eye + sign * 2 * tk.swap_sum) / 3
            assert np.abs(total - tk.mixed3).max() < 1e-10

    def test_mismatched_symmetry_branches_never_occur(self):
        # totally symmetric on one side + totally antisymmetric on the other
        # would make the whole state totally antisymmetric: zero weight on any
        # valid input
        tk = build_toolkit(2)
        block_sa = kron(tk.sym3, tk.antisym3)
        block_as = kron(tk.antisym3, tk.sym3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            phi1, phi2 = haar_state(4, rng), haar_state(4, rng)
            for state in (kron(phi1, phi1, phi2), kron(phi2, phi1, phi2)):
                party = state_matrix(2, 2, state).ravel()
                assert (party.conj() @ block_sa @ party).real < 1e-12
                assert (party.conj() @ block_as @ party).real < 1e-12
