"""POVMs in S3 coordinates: the coordinate completeness rule a Povm checks
when it is made, against the dense rule on its elements written dense."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stateid import minerr, unambiguous
from stateid.linalg import max_abs
from stateid.minerr import Priors
from stateid.povm import COMPLETENESS_ATOL, Povm
from stateid.protocol import effective_povm
from stateid.symmetry import S3, _scatter, permutation_columns

SIGNS = 6 * S3.antisym3
PRIORS = Priors.from_eta1(0.3)
SPLITS = ((2, 2), (2, 3), (3, 3))
# every production POVM, as (kind, dims): the global ones at d = 2..5, the
# separable min-error element and the six flattened trees
CASES = ([("minerr", (d,)) for d in range(2, 6)] + [("unamb", (d,)) for d in range(2, 6)]
         + [(kind, split) for kind in ("locc", "minerr-tree", "unamb-tree") for split in SPLITS])


def production_povm(kind: str, dims: tuple, eta1: float) -> Povm:
    priors = Priors.from_eta1(eta1)
    if kind == "minerr":
        return minerr.optimal_global_povm(*dims, priors)
    if kind == "unamb":
        return unambiguous.optimal_global_povm(*dims)
    if kind == "locc":
        # the separable element follows eta1 <= eta2, or is 0 or 1 at the edges
        ordered = priors if priors.eta1 <= priors.eta2 or priors.eta2 == 0.0 else priors.swapped()
        return minerr.locc_povm_element(*dims, ordered)
    if kind == "minerr-tree":
        return effective_povm(minerr.locc_protocol(*dims, priors))
    return effective_povm(unambiguous.locc_protocol(*dims))


def unit(dims: tuple) -> np.ndarray:
    """The identity's coordinates, or its table on a split."""
    return S3.identity if len(dims) == 1 else np.outer(S3.identity, S3.identity)


def dense_defect(dims: tuple, elements: dict) -> float:
    """Largest entry of the identity less the elements' sum written dense."""
    dense = _scatter(permutation_columns(*dims), sum(elements.values()))
    return max_abs(np.eye(len(dense)) - dense)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(case=("minerr", (2,)), eta1=0.0, eps=0.0, seed=0)
@example(case=("minerr", (5,)), eta1=1.0, eps=0.0, seed=0)
@example(case=("locc", (3, 3)), eta1=1.0, eps=0.0, seed=0)
@example(case=("minerr-tree", (2, 3)), eta1=0.0, eps=1e-6, seed=0)
@example(case=("minerr-tree", (3, 3)), eta1=1.0, eps=1e-6, seed=0)
@given(case=st.sampled_from(CASES), eta1=st.floats(0.0, 1.0), eps=st.sampled_from([0.0, 1e-6]),
       seed=st.integers(0, 2**32 - 1))
def test_coordinate_rule_agrees_with_the_dense_one(case, eta1, eps, seed):
    # each production POVM passed the coordinate rule when it was made, and
    # its elements written dense sum to the identity within
    # COMPLETENESS_ATOL; with one element moved by eps in a random
    # direction, it fails both rules
    povm = production_povm(*case, eta1)
    dense = sum(povm.element(label) for label in povm.labels)
    assert max_abs(np.eye(len(dense)) - dense) <= COMPLETENESS_ATOL
    if eps:
        label = povm.labels[0]
        moved = dict(povm.elements)
        moved[label] = moved[label] + eps * np.random.default_rng(seed).standard_normal(
            moved[label].shape)
        with pytest.raises(ValueError, match=r"^elements do not sum to the identity"):
            Povm(povm.dims, moved)
        assert dense_defect(povm.dims, moved) > COMPLETENESS_ATOL


@pytest.mark.parametrize("dims, defect", [((2,), "8.333e-10"), ((3,), "1.000e-09"),
                                          ((2, 2), "6.944e-10"), ((2, 3), "8.333e-10"),
                                          ((3, 3), "1.000e-09")],
                         ids=["d2", "d3", "2x2", "2x3", "3x3"])
def test_a_tiny_defect_off_the_signs_is_rejected(dims, defect):
    # 1e-9 more of the identity in E1 is off the sign direction: it keeps
    # 5/6 of itself at each d = 2 party, and is a real defect of 1e-9 dense
    povm = (minerr.optimal_global_povm(*dims, PRIORS) if len(dims) == 1
            else minerr.locc_povm_element(*dims, PRIORS))
    moved = dict(povm.elements)
    moved[1] = moved[1] + 1e-9 * unit(dims)
    with pytest.raises(ValueError, match=rf"^elements do not sum to the identity "
                                         rf"\(max defect {defect}\)$"):
        Povm(dims, moved)
    assert dense_defect(dims, moved) > COMPLETENESS_ATOL


@pytest.mark.parametrize("t", [0.5, -2.0, 10.0])
def test_signs_at_a_d2_party_are_accepted(t):
    # at d = 2, sum_k sgn(k) P_k = 0: signs added at a d = 2 party leave the
    # operator as it was, and the POVM complete; at a d = 3 party they do not
    povm = minerr.optimal_global_povm(2, PRIORS)
    moved = Povm((2,), {1: povm.elements[1] + t * SIGNS, 2: povm.elements[2]})
    assert np.abs(moved.element(1) - povm.element(1)).max() <= 1e-14 * abs(t)
    with pytest.raises(ValueError, match="do not sum"):
        Povm((3,), {1: povm.elements[1] + t * SIGNS, 2: povm.elements[2]})
    x = np.random.default_rng(0).standard_normal(6)
    at_alice, at_bob = np.outer(SIGNS, x), np.outer(x, SIGNS)
    for dims, extra, accepted in (((2, 3), at_alice, True), ((3, 2), at_bob, True),
                                  ((2, 3), at_bob, False), ((3, 2), at_alice, False)):
        povm = minerr.locc_povm_element(*dims, PRIORS)
        moved = {1: povm.elements[1] + t * extra, 2: povm.elements[2]}
        if accepted:
            written = Povm(dims, moved).element(1)
            assert np.abs(written - povm.element(1)).max() <= 1e-14 * abs(t) * np.abs(x).sum()
        else:
            with pytest.raises(ValueError, match="do not sum"):
                Povm(dims, moved)


def test_element_shapes_are_checked():
    with pytest.raises(ValueError, match=r"^element 2 has shape \(6,\), not \(6, 6\)$"):
        Povm((2, 2), {1: unit((2, 2)), 2: np.zeros(6)})
    with pytest.raises(ValueError, match="do not sum to the identity"):
        Povm((2,), {})
