"""The headline claims as identities in (d_a, d_b), read from the production
6 x 6 tables of the joint operators (minerr.locc_table and
unambiguous.separable_table) with no dense operator: a table W stands for
sum W[k, l] P_k^A (x) P_l^B, and tr(P_pi) = d^c(pi) on (C^d)^x3 for the c(pi)
cycles of pi (Collins & Sniady, CMP 264, 773 (2006)), so every trace of a
product of tables is a polynomial in (d_a, d_b).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import split_sum, symmetrizer_traces
from stateid import minerr, unambiguous
from stateid.minerr import Priors
from stateid.protocol import effective_povm
from stateid.symmetry import S3_PERMUTATIONS, s3_product
from stateid.unambiguous import SeparableCoeffs, gamma_plus

DIMS = np.arange(2, 41)
ETA1_GRID = (0.05, 0.2, 0.3, 0.5)
# P_i P_j = P_PRODUCT[i, j], from the algebra's own multiplication
PRODUCT = np.array([[np.flatnonzero(s3_product(a, b))[0] for b in np.eye(6)] for a in np.eye(6)])
CYCLES = np.array([len({frozenset((p, perm[p], perm[perm[p]])) for p in range(3)})
                   for perm in S3_PERMUTATIONS])
T01 = S3_PERMUTATIONS.index((1, 0, 2))
T02 = S3_PERMUTATIONS.index((2, 1, 0))


def unit_table(*terms):
    """The table of sum w P_k (x) P_k over the (w, k) of terms: the joint P_k."""
    table = np.zeros((6, 6))
    for w, k in terms:
        table[k, k] += w
    return table


def joint_sym0(k):
    """The table of the joint (1 + T0k)/2."""
    return unit_table((0.5, 0), (0.5, k))


def product_trace(w, v, d_a, d_b):
    """tr(W V) for tables W and V, at every (d_a, d_b) of the two arrays:
    sum W[k, l] V[m, n] d_a^c(km) d_b^c(ln)."""
    power_a = np.asarray(d_a, float)[:, None, None] ** CYCLES[PRODUCT]
    power_b = np.asarray(d_b, float)[:, None, None] ** CYCLES[PRODUCT]
    return np.einsum("kl,mn,akm,bln->ab", w, v, power_a, power_b)


def gain_table(priors):
    return priors.eta1 * joint_sym0(T01) - priors.eta2 * joint_sym0(T02)


def pmax_overlap(priors, d_a, d_b):
    """(p_max - eta2) * D * D(D+1)/2 at D = d_a*d_b, the overlap tr(E1 G) of the
    global optimum, for each pair of d_a and d_b; and its scale D * D(D+1)/2."""
    d = np.multiply.outer(d_a, d_b).astype(float)
    scale = d * d * (d + 1) / 2
    pmax = np.vectorize(lambda x: minerr.max_success_global(int(x), priors))(d)
    return (pmax - priors.eta2) * scale, scale


@pytest.mark.parametrize("eta1", ETA1_GRID)
def test_locc_overlap_is_the_global_optimum_at_every_split(eta1):
    # tr(E1 G) of the separable element equals the global optimum's, 39^2 splits a prior
    priors = Priors.from_eta1(eta1)
    lhs = product_trace(minerr.locc_table(priors), gain_table(priors), DIMS, DIMS)
    rhs, scale = pmax_overlap(priors, DIMS, DIMS)
    # in units of tr(sym01) = D * D(D+1)/2, the scale of its terms
    assert (np.abs(lhs - rhs) <= 1e-14 * scale).all()


@settings(max_examples=40, deadline=None)
@given(eta1=st.floats(0.0, 1.0), d_a=st.integers(2, 40), d_b=st.integers(2, 40))
@example(eta1=0.0, d_a=2, d_b=2)
@example(eta1=1.0, d_a=40, d_b=40)
@example(eta1=5e-324, d_a=3, d_b=2)
def test_locc_overlap_over_the_prior_domain(eta1, d_a, d_b):
    # on both sides of eta1 = 1/2 (swapped labels) and at both edges, where E1 is 0 or 1
    priors = Priors.from_eta1(eta1)
    table = minerr.locc_table(priors)
    if eta1 in (0.0, 1.0):
        assert np.array_equal(table, eta1 * unit_table((1.0, 0)))
    lhs = product_trace(table, gain_table(priors), [d_a], [d_b])
    rhs, scale = pmax_overlap(priors, [d_a], [d_b])
    assert (np.abs(lhs - rhs) <= 1e-14 * scale).all()


@pytest.mark.parametrize("eta1", [0.7, 0.95])
def test_swapped_table_is_the_flattened_tree(eta1):
    # for eta1 > eta2 the table is the one the relabeled tree implements
    priors = Priors.from_eta1(eta1)
    element = effective_povm(minerr.locc_protocol(2, 3, priors)).element(1)
    assert np.abs(element - split_sum(2, 3, minerr.locc_table(priors))).max() <= 1e-13


def separable_success(coeffs, d_a, d_b):
    """(tr[E1 sym01] + tr[E2 sym02]) / (2 D d2) = tr[E2 sym02] / (D d2), from E2's table."""
    d = np.multiply.outer(d_a, d_b).astype(float)
    table = unambiguous.separable_table(coeffs)
    return product_trace(table, joint_sym0(T02), d_a, d_b) / (d * d * (d + 1) / 2)


def test_separable_success_at_every_split():
    closed = np.array([[unambiguous.max_success_separable(int(a), int(b)) for b in DIMS]
                       for a in DIMS])
    success = separable_success(SeparableCoeffs.optimal(), DIMS, DIMS)
    assert np.abs(success - closed).max() <= 1e-14
    # strictly below the global optimum (d - 1)/(3d)
    d = np.multiply.outer(DIMS, DIMS)
    assert (success < (d - 1) / (3 * d)).all()


FEASIBLE = st.tuples(
    st.lists(st.floats(0.0, 2 / 3), min_size=4, max_size=4),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda b: gamma_plus(*b) <= 1.0))


@settings(max_examples=30, deadline=None)
@given(coeffs=FEASIBLE)
@example(coeffs=([2 / 3] * 4, (0.5, 0.5)))
def test_separable_table_changes_sign_under_t01(coeffs):
    # E2 (T01 (x) T01) = -E2, so E2 sym01 = 0: the no-error condition, exactly,
    # in the table: P_k T01 (x) P_l T01 = P_PRODUCT[k, T01] (x) P_PRODUCT[l, T01]
    alphas, betas = coeffs
    table = unambiguous.separable_table(SeparableCoeffs(*alphas, *betas))
    moved = PRODUCT[:, T01]
    assert np.array_equal(table[np.ix_(moved, moved)], -table)


def test_tables_match_the_dense_elements_at_3x3():
    # the same traces from the dense elements that the tables write, read
    # through the permutations' index maps, and from the irreps of S3
    for eta1 in ETA1_GRID:
        priors = Priors.from_eta1(eta1)
        povm = minerr.locc_povm_element(3, 3, priors)
        s01, s02 = symmetrizer_traces(povm.element(1))
        from_table = product_trace(minerr.locc_table(priors), gain_table(priors), [3], [3])[0, 0]
        assert abs(priors.eta1 * s01 - priors.eta2 * s02 - from_table) <= 1e-12
        assert abs(minerr.gain_overlap(povm.elements[1], (3, 3), priors) - from_table) <= 1e-12
    povm = unambiguous.separable_unamb_povm(3, 3, SeparableCoeffs.optimal())
    dense = (symmetrizer_traces(povm.e1)[0] + symmetrizer_traces(povm.e2)[1]) / (2 * 9 * 45)
    expected = separable_success(SeparableCoeffs.optimal(), [3], [3])[0, 0]
    assert abs(dense - expected) <= 1e-14
    assert abs(unambiguous.success_probability(povm) - expected) <= 1e-14
