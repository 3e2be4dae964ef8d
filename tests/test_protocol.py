"""Protocol steps checked in the coordinates of symmetry.S3, and the trees
built without a dense local operator."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dense_reference import validate_dense
from stateid import checks, minerr, povm, protocol, simulate, symmetry, unambiguous
from stateid.linalg import largest_image, max_abs, spectrum
from stateid.minerr import Priors, _local_projectors
from stateid.povm import COMPLETENESS_ATOL
from stateid.protocol import ALICE, BOB, TYPES, Leaf, gram, step
from stateid.symmetry import S3, permutation_sum, s3_product

SIGNS = 6 * S3.antisym3
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
    # trees, their flattened POVMs, the closed-form POVMs, their validation,
    # every oracle row of the check registry and a seeded batch at (30,30),
    # where one dense local operator of Alice's root step would take 27000^2
    # doubles, never call the dense writer; only a POVM's element() does
    def refuse(*args, **kwargs):
        raise AssertionError("dense writer called")

    for module in (symmetry, povm):
        monkeypatch.setattr(module, "_scatter", refuse)
    monkeypatch.setattr(symmetry, "permutation_sum", refuse)
    priors = Priors.from_eta1(0.7)
    checks.toolkit_identities.evaluate(40)
    checks.minerr_dual_route.evaluate(900, 0.3)
    checks.minerr_locc.evaluate(30, 30, 0.3)
    checks.unamb_global.evaluate(900)
    checks.unamb_separable.evaluate(30, 30)
    unambiguous.separable_unamb_povm.__wrapped__(30, 30, unambiguous.SeparableCoeffs.optimal())
    unambiguous.optimal_global_povm(900).validate()
    spectrum(unambiguous.mixed_block_table(0.5, 0.5), (30, 30))
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


# --- every step and POVM on the irreps: two cases per party ------------------

# Positivity, completeness and the no-error products of an operator given by
# coordinates or a table depend on d only through which irreps of S3 are
# present: all three at every d >= 3, and no sign irrep at d = 2.  So these
# checks at d = 2 and d = 3 on each party hold at every dimension.
PARTY_CASES = (2, 3)
EXACT_ATOL = 1e-14


def test_irreps_present_are_two_cases_per_party():
    assert len(symmetry.irreps(2)) == 2
    assert all(len(symmetry.irreps(d)) == 3 for d in range(3, 200))


def steps_of(tree) -> list:
    """Every measurement step of a tree, once each."""
    seen, todo = {}, [tree.root]
    while todo:
        node = todo.pop()
        if not isinstance(node, Leaf) and id(node) not in seen:
            seen[id(node)] = node
            todo.extend(node.successors)
    return list(seen.values())


def assert_positive_and_complete(elements, dims, whole):
    """Each element's least eigenvalue at least -EXACT_ATOL, and the elements
    summing to whole on every irrep within EXACT_ATOL."""
    for x in elements:
        assert spectrum(x, dims)[0].min() >= -EXACT_ATOL
    assert largest_image(whole - sum(elements), dims) <= EXACT_ATOL


def trees_at(d_a, d_b):
    return [minerr.locc_protocol(d_a, d_b, Priors.from_eta1(eta1)) for eta1 in (0.2, 0.5, 0.8)] + [
        unambiguous.locc_protocol(d_a, d_b)]


@pytest.mark.parametrize("d_b", PARTY_CASES)
@pytest.mark.parametrize("d_a", PARTY_CASES)
def test_steps_and_flattened_trees_on_the_irreps(d_a, d_b):
    unit = np.outer(S3.identity, S3.identity)
    for tree in trees_at(d_a, d_b):
        for node in steps_of(tree):
            d = d_a if node.party == ALICE else d_b
            grams = [gram(k) for k in node.kraus]
            # a step resolves the identity, or the mixed projector it follows
            support = S3.identity if largest_image(sum(grams) - S3.identity, (d,)) <= EXACT_ATOL \
                else S3.mixed3
            assert_positive_and_complete(grams, (d,), support)
        eff = protocol.effective_povm(tree)
        assert_positive_and_complete(list(eff.elements.values()), (d_a, d_b), unit)


SPLITS = st.integers(2, 5)


@settings(max_examples=60, deadline=None)
@given(eta1=st.floats(0.0, 1.0), d_a=SPLITS, d_b=SPLITS)
@example(eta1=0.0, d_a=2, d_b=2)
@example(eta1=5e-324, d_a=2, d_b=3)
@example(eta1=1e-9, d_a=3, d_b=3)
@example(eta1=0.5, d_a=5, d_b=5)
@example(eta1=0.7, d_a=2, d_b=5)
@example(eta1=1 - 1e-16, d_a=4, d_b=2)
@example(eta1=1.0, d_a=5, d_b=3)
def test_trees_flatten_to_their_closed_forms(eta1, d_a, d_b):
    # label by label, a label missing from one side is 0 there; compared as
    # operators, on the irreps: at a d = 2 party two tables of one operator
    # differ along the signs
    p = Priors.from_eta1(eta1)
    sep = unambiguous.separable_unamb_povm(d_a, d_b, unambiguous.SeparableCoeffs.optimal())
    for tree, ref in ((minerr.locc_protocol(d_a, d_b, p), minerr.locc_povm_element(d_a, d_b, p)),
                      (unambiguous.locc_protocol(d_a, d_b), sep)):
        eff = protocol.effective_povm(tree)
        for label in set(eff.labels) | set(ref.labels):
            diff = eff.elements.get(label, 0.0) - ref.elements.get(label, 0.0)
            assert largest_image(diff, (d_a, d_b)) <= 1e-12, label


@pytest.mark.parametrize("d_b", PARTY_CASES)
@pytest.mark.parametrize("d_a", PARTY_CASES)
def test_closed_form_povms_on_the_irreps(d_a, d_b):
    unit = np.outer(S3.identity, S3.identity)
    for eta1 in (0.0, 0.2, 0.5, 1.0):
        p = Priors.from_eta1(eta1)
        ordered = p if p.eta1 <= p.eta2 else p.swapped()
        element = minerr.locc_povm_element(d_a, d_b, ordered)
        assert_positive_and_complete(list(element.elements.values()), (d_a, d_b), unit)
        for d in (d_a, d_a * d_b):
            glob = minerr.optimal_global_povm(d, p)
            assert_positive_and_complete(list(glob.elements.values()), (d,), S3.identity)
    sep = unambiguous.separable_unamb_povm(d_a, d_b, unambiguous.SeparableCoeffs.optimal())
    for povm, dims, whole in ((sep, (d_a, d_b), unit),
                              (unambiguous.optimal_global_povm(d_a), (d_a,), S3.identity)):
        assert_positive_and_complete(list(povm.elements.values()), dims, whole)
        # the no-error products E1 sym02 and E2 sym01 are zero to the last bit
        assert povm.no_error_leaks() == (0.0, 0.0)
        povm.validate()
