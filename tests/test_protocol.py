"""Protocol steps checked in the coordinates of symmetry.S3, and the trees
built without a dense local operator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stateid import minerr, povm, protocol, simulate, symmetry, unambiguous
from stateid.linalg import max_abs
from stateid.minerr import Priors, _local_projectors
from stateid.povm import COMPLETENESS_ATOL, validate_dense
from stateid.protocol import ALICE, BOB, Leaf, gram, step
from stateid.symmetry import S3, permutation_sum, s3_product

SIGNS = 6 * S3.antisym3
# the three type projectors: a complete step at every d
TYPES = {"sym": S3.sym3, "antisym": S3.antisym3, "mixed": S3.mixed3}
# a basis of the mixed block, in which it is the algebra of real 2 x 2
# matrices: mixed3 <-> 1, x1 <-> diag(1, -1), x2 <-> [[0, 1], [1, 0]]
X1 = 2 / math.sqrt(3) * S3.swap_diff
X2 = 2 * s3_product(S3.mixed3, S3.swap_sum)
X1X2 = s3_product(X1, X2)


def mixed_coordinates(m: np.ndarray) -> np.ndarray:
    """Coordinates of the real 2 x 2 matrix m in the mixed block; the adjoint
    is the transpose."""
    (p, q), (r, s) = m
    return (p + s) / 2 * S3.mixed3 + (p - s) / 2 * X1 + (q + r) / 2 * X2 + (q - r) / 2 * X1X2


def random_kraus(rng: np.random.Generator, outcomes: int, mixed_only: bool) -> np.ndarray:
    """Kraus coordinates whose K^dag K sum to the identity, or to mixed3:
    unit columns on sym3 and antisym3, and 2 x 2 blocks with orthonormal
    columns stacked on the mixed block."""
    a, b = (rng.standard_normal(outcomes) for _ in range(2))
    a, b = (np.zeros(outcomes) if mixed_only else v / np.linalg.norm(v) for v in (a, b))
    q, _ = np.linalg.qr(rng.standard_normal((2 * outcomes, 2)))
    return np.array([a[i] * S3.sym3 + b[i] * S3.antisym3 + mixed_coordinates(q[2 * i:2 * i + 2])
                     for i in range(outcomes)])


def dense_accepts(d: int, kraus: np.ndarray, support: np.ndarray) -> bool:
    """Whether the dense POVM {K^dag K} together with 1 - support validates:
    the dense form of the step check."""
    elements = dict(enumerate(permutation_sum(d, np.array([gram(k) for k in kraus]))))
    elements["rest"] = np.eye(d**3) - permutation_sum(d, support)
    try:
        validate_dense(elements, (d,))
    except ValueError:
        return False
    return True


def accepts(d: int, kraus: np.ndarray, support: np.ndarray) -> bool:
    children = {i: Leaf(0) for i in range(len(kraus))}
    try:
        step(ALICE, d, dict(enumerate(kraus)), children, support)
    except ValueError:
        return False
    return True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3, 4]), outcomes=st.integers(1, 4), mixed_only=st.booleans(),
       eps=st.sampled_from([0.0, 1e-6, 1e-2]), seed=st.integers(0, 2**32 - 1))
def test_step_check_agrees_with_the_dense_povm(d, outcomes, mixed_only, eps, seed):
    # away from COMPLETENESS_ATOL; test_step_bound_is_on_coordinates pins the
    # two checks near it
    rng = np.random.default_rng(seed)
    kraus = random_kraus(rng, outcomes, mixed_only) + eps * rng.standard_normal((outcomes, 6))
    support = S3.mixed3 if mixed_only else S3.identity
    verdict = accepts(d, kraus, support)
    assert verdict == dense_accepts(d, kraus, support)
    assert verdict == (eps == 0.0)


@pytest.mark.parametrize("spread, dense_ratio", [(S3.identity, 1), (np.ones(6), 6)],
                         ids=["one coordinate", "all six"])
@pytest.mark.parametrize("scale", [0.5, 2.0])
def test_step_bound_is_on_coordinates(spread, dense_ratio, scale):
    # the elements exceed the support by delta in one coordinate or in all six:
    # the step reads the largest coordinate defect, delta, and the dense POVM
    # its largest entry, delta or (on |aaa><aaa|) 6 delta
    delta = scale * COMPLETENESS_ATOL
    kraus, support = np.array(list(TYPES.values())), S3.identity - delta * spread
    assert max_abs(permutation_sum(3, delta * spread)) == pytest.approx(dense_ratio * delta)
    assert accepts(3, kraus, support) == (scale < 1)
    assert dense_accepts(3, kraus, support) == (dense_ratio * scale < 1)


def incomplete_steps():
    # a signed step of the min-error tree with its "-" outcome dropped, and a
    # complete step with a NaN in its support or in one Kraus coordinate
    pp = _local_projectors(Priors.from_eta1(0.3))[0]
    nan_at_0 = np.where(np.arange(6) == 0, np.nan, 0.0)
    return {"dropped outcome": ({"+": pp}, S3.mixed3, r"\d\.\d{3}e[+-]\d\d"),
            "nan support": (TYPES, S3.identity + nan_at_0, "nan"),
            "nan kraus": (dict(TYPES, mixed=S3.mixed3 + nan_at_0), S3.identity, "nan")}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", list(incomplete_steps()))
def test_incomplete_step_raises(d, case):
    kraus, support, defect = incomplete_steps()[case]
    with pytest.raises(ValueError, match=rf"^elements do not sum to the support "
                                         rf"\(max defect {defect}\)$"):
        step(BOB, d, kraus, {outcome: Leaf(1) for outcome in kraus}, support)


@pytest.mark.parametrize("t", [0.5, -2.0, 10.0])
def test_d2_support_modulo_the_signs(t):
    # at d = 2, sum_k sgn(k) P_k = 0: identity + t sgn is the identity there
    leaves = {name: Leaf(0) for name in TYPES}
    support = S3.identity + t * SIGNS
    step(ALICE, 2, TYPES, leaves, support)
    with pytest.raises(ValueError, match="do not sum"):
        step(ALICE, 3, TYPES, leaves, support)


def test_no_step_is_dense(monkeypatch):
    # trees, their flattened POVMs, the closed-form POVMs and a seeded batch
    # at (30,30), where one dense local operator of Alice's root step would
    # take 27000^2 doubles, never call the dense writer, neither a party's
    # permutation_sum nor a split's split_sum; only a POVM's element() does
    def refuse(*args, **kwargs):
        raise AssertionError("dense writer called")

    for module in (symmetry, povm):
        monkeypatch.setattr(module, "_scatter", refuse)
    monkeypatch.setattr(symmetry, "permutation_sum", refuse)
    for module in (symmetry, unambiguous):
        monkeypatch.setattr(module, "split_sum", refuse)
    priors = Priors.from_eta1(0.7)
    for split in ((2, 2), (3, 3), (30, 30)):
        tree = minerr.locc_protocol(*split, priors)
        protocol.effective_povm(tree)
    for split in ((2, 2), (3, 3), (5, 5)):
        protocol.effective_povm(unambiguous.locc_protocol(*split))
    minerr.locc_povm_element(30, 30, priors.swapped())
    minerr.optimal_global_povm(900, priors)
    unambiguous.optimal_global_povm(900)
    stats = simulate.run_batch(simulate.LoccTrialSpec(tree, priors), 200, 7,
                               target=minerr.max_success_global(900, priors))
    assert stats.n_trials == 200 and stats.inconclusive == 0
    assert abs(stats.p_hat - stats.target) <= 4 * stats.target_stderr
    with pytest.raises(AssertionError, match="dense writer called"):
        protocol.effective_povm(minerr.locc_protocol(2, 2, priors)).element(1)
