import functools
import math
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence

import dense_reference
from dense_reference import (global_block, haar_state, haar_unitary, regroup_operator,
                             state_matrix)
from stateid import simulate, unambiguous
from stateid.minerr import (EQUAL_PRIORS, Priors, locc_povm_element, locc_protocol,
                            max_success_global, optimal_global_povm)
from stateid.povm import Povm
from stateid.protocol import ALICE, BOB, Leaf, LoccProtocol, gram, step
from stateid.simulate import (
    BRANCH_PROB_FLOOR,
    MIN_FORK_CHUNK,
    PROB_SUM_ATOL,
    BatchStats,
    GlobalTrialSpec,
    LoccTrialSpec,
    TrialAbort,
    TrialRecord,
    _run_chunk,
    chunk_bounds,
    run_batch,
)
from stateid.symmetry import S3, permutation_sum, s3_product

PMAX_D2_HALF = 0.6443375672974064


def kron(*ops):
    """Kronecker product of one or more operators, leftmost most significant."""
    return functools.reduce(np.kron, ops)


class TestHaarState:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5):
            v = haar_state(d, rng)
            assert v.shape == (d,)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_single_dimension_is_a_phase(self):
        rng = np.random.default_rng(1)
        v = haar_state(1, rng)
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_deterministic_given_seed(self):
        a = haar_state(3, np.random.default_rng(42))
        b = haar_state(3, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_first_component_moment_qubit(self):
        # |c0|^2 is uniform on [0,1] for d=2: mean 1/2, variance 1/12
        rng = np.random.default_rng(2)
        n = 100_000
        samples = np.fromiter(
            (abs(haar_state(2, rng)[0]) ** 2 for _ in range(n)), dtype=float, count=n)
        sigma = math.sqrt(1 / 12 / n)
        assert abs(samples.mean() - 0.5) < 3 * sigma

    def test_first_component_moment_qutrit(self):
        # |c0|^2 ~ Beta(1, 2) for d=3: mean 1/3, variance 1/18
        rng = np.random.default_rng(3)
        n = 100_000
        samples = np.fromiter(
            (abs(haar_state(3, rng)[0]) ** 2 for _ in range(n)), dtype=float, count=n)
        sigma = math.sqrt(1 / 18 / n)
        assert abs(samples.mean() - 1 / 3) < 3 * sigma


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(4)
    u = haar_unitary(4, rng)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


class TestGlobalTrials:
    def test_always_answer_one(self):
        povm = Povm((2,), {1: S3.identity, 2: np.zeros(6)})
        spec = GlobalTrialSpec(povm, 2, EQUAL_PRIORS)
        for i in range(20):
            rec = spec.run(np.random.default_rng(i), i)
            assert rec.declared_label == 1
            assert rec.transcript == (("global", 1),)

    def test_incomplete_povm_aborts(self):
        # an incomplete POVM fails when it is made; element rows that miss
        # one still abort the batch, naming the first trial they reach
        with pytest.raises(ValueError, match=r"^elements do not sum to the identity"):
            Povm((2,), {1: S3.identity / 2, 2: S3.identity / 4})
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        object.__setattr__(spec, "weights", spec.weights * [[1.0], [0.75], [0.75]])
        with pytest.raises(TrialAbort, match="sum"):
            spec.run(np.random.default_rng(0), 0)
        with pytest.raises(TrialAbort, match=r"^trial 0 at global: outcome probabilities sum "
                                             r"to 0\.75$"):
            run_batch(spec, 300, 0)
        with pytest.raises(TrialAbort, match=r"^trial 37 at global: .*sum"):
            _run_chunk(spec, 0, 37, 50)

    def test_minerr_batch_matches_closed_form(self):
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        stats = run_batch(spec, 20_000, 3, target=PMAX_D2_HALF)
        assert abs(stats.p_hat - PMAX_D2_HALF) <= 3 * stats.stderr
        assert stats.inconclusive == 0

    def test_unambiguous_batch_never_errs(self):
        spec = GlobalTrialSpec(unambiguous.optimal_global_povm(2), 2, EQUAL_PRIORS)
        stats = run_batch(spec, 10_000, 3, target=1 / 6)
        assert stats.errors == 0
        assert abs(stats.p_hat - 1 / 6) <= 3 * stats.stderr

    @settings(max_examples=12, deadline=None)
    @example(d=2, eta1=0.5, seed=0)
    @example(d=4, eta1=0.7, seed=1)
    @given(d=st.integers(2, 4), eta1=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_table_matches_dense_probabilities(self, d, eta1, seed):
        # weights @ invariants, the root's and every element's probability,
        # against <psi|E|psi> for psi = phi_L (x) phi_1 (x) phi_2, on the
        # min-error and unambiguous POVMs
        rng = np.random.default_rng(seed)
        labels = np.array([1, 2, 2, 1, 1, 2])
        refs = np.array([[haar_state(d, rng) for _ in range(2)] for _ in labels])
        for povm in (optimal_global_povm(d, Priors.from_eta1(eta1)),
                     unambiguous.optimal_global_povm(d)):
            spec = GlobalTrialSpec(povm, d, EQUAL_PRIORS)
            probs = spec.weights @ spec.invariants(labels, refs)
            for column, label, (phi1, phi2) in zip(probs.T, labels, refs):
                psi = kron(phi1 if label == 1 else phi2, phi1, phi2)
                dense = [np.vdot(psi, op @ psi).real
                         for op in [np.eye(d**3), *map(povm.element, povm.labels)]]
                assert np.abs(column - dense).max() <= 1e-13

    @settings(max_examples=40, deadline=None)
    @example(d=2, eta1=0.0, minerr=True, seed=0, start=0, n=300)
    @example(d=5, eta1=1.0, minerr=False, seed=2**64 - 1, start=2**32 - 150, n=300)
    @example(d=4, eta1=0.5, minerr=True, seed=7, start=0, n=1)
    @given(d=st.integers(2, 5), eta1=st.sampled_from([0.0, 1.0]) | st.floats(0, 1),
           minerr=st.booleans(), seed=st.integers(0, 2**64 - 1),
           start=st.integers(0, 2**40), n=st.integers(1, 300))
    def test_blocks_match_the_one_shot_sampler(self, d, eta1, minerr, seed, start, n):
        # the one-step tree declares, block by block, what the a + b s
        # sampler of dense_reference declares, and a chunk counts the same
        priors = Priors.from_eta1(eta1)
        povm = optimal_global_povm(d, priors) if minerr else unambiguous.optimal_global_povm(d)
        spec = GlobalTrialSpec(povm, d, priors)
        counts = np.zeros(3, int)
        for lo, states in simulate._block_rngs(seed, start, start + n, spec.block_trials):
            block = spec.run_block(states, lo)
            rngs = [np.random.default_rng((seed, i)) for i in range(lo, lo + len(states))]
            reference = global_block(povm, d, priors, rngs, lo)
            for got, want in zip(block, reference):
                assert np.array_equal(got, want)
            declared, labels = reference.declared, reference.labels
            counts += [np.sum(declared == labels), np.sum((declared != labels) & (declared != 0)),
                       np.sum(declared == 0)]
        assert _run_chunk(spec, seed, start, start + n) == tuple(counts)

    def test_split_povm_is_rejected(self):
        # a table on a split, or coordinates at another d, is no POVM on (C^d)^x3
        for povm, d in ((locc_povm_element(2, 2, EQUAL_PRIORS), 4),
                        (optimal_global_povm(3, EQUAL_PRIORS), 2)):
            with pytest.raises(ValueError, match=rf"^a global trial at d = {d} needs a POVM "
                               rf"with dims \({d},\), got \({povm.dims[0]},"):
                GlobalTrialSpec(povm, d, EQUAL_PRIORS)

    def test_unitary_invariance(self):
        # every element commutes with U x U x U for a Haar unitary U, so a
        # trial's probabilities depend on its references only through s
        for d in (2, 3):
            u3 = kron(*[haar_unitary(d, np.random.default_rng(99))] * 3)
            for povm in (optimal_global_povm(d, Priors.from_eta1(0.3)),
                         unambiguous.optimal_global_povm(d)):
                for label in povm.labels:
                    op = povm.element(label)
                    assert np.abs(u3.conj().T @ op @ u3 - op).max() <= 1e-13


class TestLoccTrials:
    def test_trivial_protocol_all_inconclusive(self):
        proto = LoccProtocol(d_a=2, d_b=2, root=Leaf(0))
        spec = LoccTrialSpec(proto, EQUAL_PRIORS)
        stats = run_batch(spec, 50, 0)
        assert stats.inconclusive == 50
        assert stats.p_hat == 0.0

    def test_transcript_and_reproducibility(self):
        spec = LoccTrialSpec(locc_protocol(2, 2, EQUAL_PRIORS), EQUAL_PRIORS)
        rec1 = spec.run(np.random.default_rng((9, 0)), 0)
        rec2 = spec.run(np.random.default_rng((9, 0)), 0)
        assert rec1 == rec2
        assert rec1.transcript[0][0] == "alice"
        assert rec1.transcript[1][0] == "bob"
        assert rec1.declared_label in (1, 2)

    def test_batch_matches_closed_form(self):
        spec = LoccTrialSpec(locc_protocol(2, 2, EQUAL_PRIORS), EQUAL_PRIORS)
        target = max_success_global(4, EQUAL_PRIORS)
        stats = run_batch(spec, 20_000, 3, target=target)
        assert abs(stats.p_hat - target) <= 3 * stats.stderr

    def test_skewed_priors_batch(self):
        priors = Priors.from_eta1(0.3)
        spec = LoccTrialSpec(locc_protocol(2, 2, priors), priors)
        target = max_success_global(4, priors)
        stats = run_batch(spec, 20_000, 8, target=target)
        assert abs(stats.p_hat - target) <= 3 * stats.stderr


def dense_walk(spec: LoccTrialSpec, rng: np.random.Generator, trial_index: int) -> TrialRecord:
    """Reference walker on the joint space: lifted kron(K, 1) / kron(1, K) matvecs,
    for the dense Kraus operators K that permutation_sum writes from each
    step's coordinates.

    Draws in the order of the per-trial contract (label, both references, one
    uniform per step) and regroups with the dense 0/1 operator.
    """
    proto = spec.protocol
    na, nb = proto.d_a**3, proto.d_b**3
    dims = {ALICE: proto.d_a, BOB: proto.d_b}
    label = 1 if rng.random() < spec.priors.eta1 else 2
    phi1 = haar_state(proto.d_a * proto.d_b, rng)
    phi2 = haar_state(proto.d_a * proto.d_b, rng)
    state = regroup_operator(proto.d_a, proto.d_b) @ kron(phi1 if label == 1 else phi2, phi1, phi2)
    transcript = []
    node = proto.root
    while not isinstance(node, Leaf):
        dense = permutation_sum(dims[node.party], node.kraus)
        lifted = [kron(k, np.eye(nb)) if node.party == ALICE else kron(np.eye(na), k)
                  for k in dense]
        branches = [op @ state for op in lifted]
        probs = np.array([np.vdot(v, v).real for v in branches])
        assert abs(probs.sum() - 1.0) <= PROB_SUM_ATOL
        idx = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")),
                  len(probs) - 1)
        assert probs[idx] >= BRANCH_PROB_FLOOR
        outcome = node.labels[idx]
        state = branches[idx] / math.sqrt(probs[idx])
        transcript.append((node.party, outcome))
        node = node.children[outcome]
    return TrialRecord(label, node.label, tuple(transcript), trial_index)


def make_locc_spec(task: str, da: int, db: int, eta1: float) -> LoccTrialSpec:
    priors = Priors.from_eta1(eta1)
    proto = locc_protocol(da, db, priors) if task == "minerr" else unambiguous.locc_protocol(da, db)
    return LoccTrialSpec(proto, priors)


LOCC_CASES = [("minerr", 0.5), ("minerr", 0.7), ("unamb", 0.5)]


def steps_of(node):
    """Every measurement step of a tree, once per path that reaches it."""
    if isinstance(node, Leaf):
        return []
    return [node] + [step for child in node.successors for step in steps_of(child)]


class TestFactoredEngine:
    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    @pytest.mark.parametrize("task,eta1", LOCC_CASES)
    def test_matches_dense_reference(self, task, eta1, da, db):
        # eta1 = 0.7 runs the label-swapped min-error tree
        spec = make_locc_spec(task, da, db, eta1)
        for i in range(20):
            factored = spec.run(np.random.default_rng((11, i)), i)
            dense = dense_walk(spec, np.random.default_rng((11, i)), i)
            assert factored == dense

    @pytest.mark.parametrize("task,eta1", LOCC_CASES)
    def test_pickled_protocol_runs_the_same_trials(self, task, eta1):
        spec = make_locc_spec(task, 2, 3, eta1)
        copy = LoccTrialSpec(pickle.loads(pickle.dumps(spec.protocol)), spec.priors)
        for i in range(50):
            assert spec.run(np.random.default_rng((5, i)), i) == copy.run(
                np.random.default_rng((5, i)), i)

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    def test_production_stacks_are_real(self, da, db):
        trees = [locc_protocol(da, db, Priors.from_eta1(eta1)) for eta1 in (0.3, 0.5, 0.7)]
        trees.append(unambiguous.locc_protocol(da, db))
        for tree in trees:
            for node in steps_of(tree.root):
                assert node.kraus.dtype == np.float64
                assert not node.kraus.flags.writeable

    @pytest.mark.parametrize("task,eta1,counts", [
        ("minerr", 0.7, (174, 26, 0)),
        ("unamb", 0.5, (60, 0, 140)),
    ])
    def test_seeded_counts_at_3x3(self, task, eta1, counts):
        stats = run_batch(make_locc_spec(task, 3, 3, eta1), 200, 7)
        assert (stats.successes, stats.errors, stats.inconclusive) == counts

    def test_seeded_counts_at_30x30(self):
        # the trace words contract one d_a x d_a product per trial at a time,
        # with no (d_a, d_a, d_a, trials) temporary; the counts are those the
        # broadcast products gave
        stats = run_batch(make_locc_spec("minerr", 30, 30, 0.3), 200, 7)
        assert (stats.successes, stats.errors, stats.inconclusive) == (172, 28, 0)


def prefix_products(node, a: np.ndarray, b: np.ndarray, ca=S3.identity, cb=S3.identity) -> list:
    """(A^dag A, B^dag B) of every path prefix of a tree, the root first and
    then depth first, children in element order, from dense Kraus operators,
    each with its coordinates, from the products ca and cb of the Kraus
    coordinates."""
    products = [(a.conj().T @ a, b.conj().T @ b, gram(ca), gram(cb))]
    if not isinstance(node, Leaf):
        d = round(len(a if node.party == ALICE else b) ** (1 / 3))
        for k, c, child in zip(permutation_sum(d, node.kraus), node.kraus, node.successors):
            if node.party == ALICE:
                products += prefix_products(child, k @ a, b, s3_product(c, ca), cb)
            else:
                products += prefix_products(child, a, k @ b, ca, s3_product(c, cb))
    return products


class TestInvariantRoute:
    @settings(max_examples=16, deadline=None)
    @example(split=(2, 2), eta1=0.5, seed=0)
    @example(split=(3, 3), eta1=0.7, seed=1)
    @given(split=st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]),
           eta1=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_prefix_probabilities_match_dense(self, split, eta1, seed):
        # every prefix of the min-error tree and of the unambiguous tree:
        # the invariant route against <psi| kron(A^dag A, B^dag B) |psi>, and
        # the coordinates against the operator they stand for
        da, db = split
        priors = Priors.from_eta1(eta1)
        trees = [locc_protocol(da, db, priors)]
        trees.append(unambiguous.locc_protocol(da, db))
        rng = np.random.default_rng(seed)
        labels = np.array([1, 2, 2, 1])
        refs = np.array([[haar_state(da * db, rng) for _ in range(2)] for _ in labels])
        states = [state_matrix(da, db, kron(pair[label - 1], pair[0], pair[1])).ravel()
                  for label, pair in zip(labels, refs)]
        for tree in trees:
            probs = LoccTrialSpec(tree, priors).weights @ simulate._invariants(labels, refs, da, db)
            products = prefix_products(tree.root, np.eye(da**3), np.eye(db**3))
            assert len(products) == len(probs)
            for row, (aa, bb, ca, cb) in zip(probs, products):
                joint = kron(aa, bb)
                dense = [np.vdot(psi, joint @ psi).real for psi in states]
                assert np.abs(row - dense).max() <= 1e-13
                for op, c, d in ((aa, ca, da), (bb, cb, db)):
                    assert np.abs(permutation_sum(d, c) - op).max() <= 1e-12


class Scripted:
    """A stand-in generator that hands out given uniforms and normal vectors in turn."""

    def __init__(self, uniforms, normals):
        self.uniforms, self.normals = list(uniforms), list(normals)

    def random(self):
        return self.uniforms.pop(0)

    def standard_normal(self, size):
        return self.normals.pop(0)


def test_tiny_prefix_samples_like_the_dense_walk(monkeypatch):
    # nearly equal references (s = 1 - 1e-9) make alice "sym", bob "mixed" a
    # prefix of probability about 3e-10, whose children sum to it only within
    # about 1e-7 of it; a step uniform that falls in that branch must still
    # sample bob's next step, and declare what the dense walk declares
    spec = make_locc_spec("unamb", 2, 2, 0.5)
    rng = np.random.default_rng(3)
    phi1, chi = haar_state(4, rng), haar_state(4, rng)
    chi -= np.vdot(phi1, chi) * phi1
    phi2 = phi1 + 3.2e-5 * chi / np.linalg.norm(chi)
    phi2 /= np.linalg.norm(phi2)
    assert 1e-10 < 1 - abs(np.vdot(phi1, phi2)) ** 2 < 1e-8
    refs = np.array([[phi1, phi2]])
    probs = spec.weights @ spec.invariants(np.array([1]), refs)[:, 0]
    _, outcomes, (sym, _, _) = spec.nodes[0]
    assert outcomes[0] == "sym"
    _, outcomes, bob = spec.nodes[sym]
    tiny = bob[2]
    assert outcomes[2] == "mixed"
    assert spec.nodes[tiny][0] == BOB and 0 < probs[tiny] < 1e-7
    _, _, last = spec.nodes[tiny]
    # alice's "sym", then the middle of bob's "mixed", then the middle of the
    # widest interval of bob's last step
    widest = np.argmax(probs[last])
    u = [probs[sym] / 2, 1 - probs[tiny] / probs[sym] / 2,
         (probs[last][:widest].sum() + probs[last][widest] / 2) / probs[tiny]]
    u += [0.5] * (spec.depth - len(u))
    monkeypatch.setattr(simulate, "_draw",
                        lambda rngs, priors, d, depth: (np.array([1]), refs, np.array([u])))
    record = spec.run(None, 0)
    assert record.transcript[:2] == ((ALICE, "sym"), (BOB, "mixed"))
    assert record == dense_walk(spec, Scripted([0.0] + u, [phi1.real, phi1.imag,
                                                          phi2.real, phi2.imag]), 0)


def test_sample_aborts_on_a_nan_probability(monkeypatch):
    # a NaN outcome probability must not fall through to the last element:
    # the second trial of a block from trial 10 has a NaN reference
    halves = step(BOB, 2, {0: S3.identity / math.sqrt(2), 1: S3.identity / math.sqrt(2)},
                  {0: Leaf(1), 1: Leaf(2)})
    spec = LoccTrialSpec(LoccProtocol(d_a=2, d_b=2, root=halves), EQUAL_PRIORS)
    refs = np.full((2, 2, 4), 0.5 + 0j)
    refs[1, 0, 0] = np.nan
    monkeypatch.setattr(simulate, "_draw",
                        lambda rngs, priors, d, depth: (np.array([1, 2]), refs,
                                                        np.full((2, depth), 0.3)))
    with pytest.raises(TrialAbort, match=r"^trial 11 at bob: outcome probabilities sum to nan$"):
        spec.run_block([None, None], 10)


def test_global_trial_aborts_on_a_dead_branch(monkeypatch):
    # a step uniform above the first element's 1 - eps samples the second,
    # of probability eps < BRANCH_PROB_FLOOR: the walker's guard aborts the
    # trial, where the one-shot sampler declared label 2
    eps = 1e-14
    povm = Povm((2,), {1: (1 - eps) * S3.identity, 2: eps * S3.identity})
    spec = GlobalTrialSpec(povm, 2, EQUAL_PRIORS)
    refs = np.array([[[1, 0], [0.6, 0.8]]], complex)
    def draw(rngs, priors, d, depth):
        return np.array([1]), refs, np.array([[1 - 1e-15]])

    monkeypatch.setattr(simulate, "_draw", draw)
    monkeypatch.setattr(dense_reference, "draw", draw)
    assert global_block(povm, 2, EQUAL_PRIORS, [None]).declared.tolist() == [2]
    with pytest.raises(TrialAbort, match=r"^trial 0: sampled branch with probability 1e-14$"):
        spec.run(None, 0)


def test_block_abort_names_the_shallowest_failing_level(monkeypatch):
    # the bob steps after alice's "sym" and after her "mixed" both miss their
    # sum by a quarter; trial 1 takes "sym", the first of them in tree order,
    # and trial 0 takes "mixed": the block names trial 0, the lowest trial of
    # the level at which both fail
    spec = make_locc_spec("unamb", 2, 2, 0.5)
    _, outcomes, (sym, antisym, mixed) = spec.nodes[0]
    assert (outcomes[0], outcomes[2]) == ("sym", "mixed")
    assert spec.nodes[sym][0] == spec.nodes[mixed][0] == BOB
    rng = np.random.default_rng(5)
    labels = np.array([1, 2])
    refs = np.array([[haar_state(4, rng) for _ in range(2)] for _ in labels])
    probs = spec.weights @ spec.invariants(labels, refs)
    u = np.full((2, spec.depth), 0.5)
    u[0, 0] = 1 - probs[mixed, 0] / probs[0, 0] / 2
    u[1, 0] = probs[sym, 1] / probs[0, 1] / 2
    monkeypatch.setattr(simulate, "_draw", lambda rngs, priors, d, depth: (labels, refs, u))
    assert spec.run_block([None, None]).path[:, 0].tolist() == [2, 0]
    # the rows below a step follow it in preorder, up to its next sibling
    scale = np.ones((len(spec.nodes), 1))
    scale[sym + 1:antisym] = scale[mixed + 1:] = 0.75
    object.__setattr__(spec, "weights", spec.weights * scale)
    with pytest.raises(TrialAbort, match=r"^trial 0 at bob: outcome probabilities sum to"):
        spec.run_block([None, None])


def test_a_tree_without_a_step_reads_no_state(monkeypatch):
    # at eta1 = 1 the min-error tree is one leaf that declares label 1
    priors = Priors.from_eta1(1.0)
    spec = LoccTrialSpec(locc_protocol(2, 2, priors), priors)
    assert spec.depth == 0 and spec.nodes == (1,)

    def refuse(*args):
        raise AssertionError("a tree without a step computed invariants")

    monkeypatch.setattr(simulate, "invariants", refuse)
    stats = run_batch(spec, 2000, 7)
    assert (stats.successes, stats.errors, stats.inconclusive) == (2000, 0, 0)


PARTIES = (ALICE, BOB)
# values that tie running sums with uniforms, and a ratio below BRANCH_PROB_FLOOR
SIMPLE = st.sampled_from([0.0, 1e-13, 0.25, 0.5, 1.0])


@st.composite
def drawn_trees(draw) -> tuple[list, list, int]:
    """(weights, nodes, depth) of a tree no protocol builds, in preorder: the
    root a step, each step of 1-4 outcomes, leaves at every level down to a
    depth of 1-4, a leaf's row 3 nonnegative coordinates and a step's the sum
    of its children's, now and then times 1 - 3e-9, within PROB_SUM_ATOL, or
    0.75."""
    limit = draw(st.integers(1, 4))
    weights, nodes, leaf_levels = [], [], []

    def grow(level: int) -> np.ndarray:
        k = len(nodes)
        if level == limit or (level and draw(st.booleans())):
            leaf_levels.append(level)
            nodes.append(draw(st.integers(0, 2)))
            coordinate = SIMPLE | st.floats(0, 1, allow_subnormal=False)
            weights.append(np.array(draw(st.lists(coordinate, min_size=3, max_size=3))))
            return weights[-1]
        width = draw(st.integers(1, 4))
        nodes.append((PARTIES[level % 2], tuple(range(width)), []))
        weights.append(0.0)
        for _ in range(width):
            nodes[k][2].append(len(nodes))
            weights[k] = weights[k] + grow(level + 1)
        weights[k] = weights[k] * draw(st.sampled_from([1.0, 1.0, 1 - 3e-9, 0.75]))
        return weights[k]

    grow(0)
    return weights, nodes, max(leaf_levels)


@settings(max_examples=200, deadline=None)
@given(tree=drawn_trees(), data=st.data())
def test_level_walk_matches_the_scalar_walk(tree, data):
    # a block over a drawn tree gives each trial the declared label and path
    # of dense_reference.tree_walk; where trials abort, it names the lowest
    # trial of the shallowest failing level, the sum check before the floor
    weights, nodes, depth = tree
    assume(weights[0].any())   # a root of probability 0 is no tree to walk
    n = data.draw(st.integers(1, 6))
    invariant = st.just(1.0) | st.floats(1e-3, 10)
    f = np.array(data.draw(st.lists(st.lists(invariant, min_size=n, max_size=n),
                                    min_size=3, max_size=3)))
    uniform = (st.sampled_from([0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
               | st.floats(0, 1, exclude_min=True, exclude_max=True))
    u = np.array(data.draw(st.lists(st.lists(uniform, min_size=depth, max_size=depth),
                                    min_size=n, max_size=n))).reshape(n, depth)
    spec = SimpleNamespace(priors=EQUAL_PRIORS, d=1, invariants=lambda labels, refs: f)
    simulate._set_tree(spec, np.array(weights), tuple(nodes), depth)
    probs, sizes = spec.weights @ f, np.abs(spec.weights) @ np.abs(f)
    walks = [dense_reference.tree_walk(spec.nodes, probs[:, j], sizes[:, j], u[j])
             for j in range(n)]
    aborts = [(walk.abort[:2], j, walk.abort[2]) for j, walk in enumerate(walks) if walk.abort]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_draw",
                      lambda rngs, priors, d, depth: (np.ones(n, int), None, u))
        if aborts:
            _, j, text = min(aborts)
            with pytest.raises(TrialAbort, match=f"^{re.escape(f'trial {j}{text}')}$"):
                simulate._run_block(spec, [None] * n)
            return
        block = simulate._run_block(spec, [None] * n)
    assert block.declared.tolist() == [walk.declared for walk in walks]
    assert block.path.tolist() == [walk.path + [-1] * (depth - len(walk.path))
                                   for walk in walks]


@lru_cache(maxsize=None)
def block_spec(case: str):
    """Trial specs for the block-engine properties, built once per session."""
    if case == "global":
        return GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
    if case == "global-unamb":
        return GlobalTrialSpec(unambiguous.optimal_global_povm(3), 3, EQUAL_PRIORS)
    task, eta1, da, db = case.split("-")
    return make_locc_spec(task, int(da), int(db), float(eta1))


BLOCK_CASES = ["global", "global-unamb"] + [
    f"{task}-{eta1}-{da}-{db}" for task, eta1 in LOCC_CASES for da, db in [(2, 2), (2, 3), (3, 3)]]


def counts_of(records) -> tuple[int, int, int]:
    records = list(records)
    return (sum(r.declared_label == r.true_label for r in records),
            sum(r.declared_label not in (0, r.true_label) for r in records),
            sum(r.declared_label == 0 for r in records))


class TestBlockEngine:
    @pytest.mark.parametrize("case", BLOCK_CASES)
    @settings(max_examples=8, deadline=None)
    @example(seed=7, start=37, length=1063)
    @example(seed=7, start=5, length=1)
    @given(seed=st.integers(0, 2**63), start=st.integers(0, 10**6),
           length=st.integers(1, 150))
    def test_chunk_counts_equal_single_trials(self, case, seed, start, length):
        # blocks of a chunk start at `start` and split it wherever the byte
        # budget says; every trial must come out as the block of one does
        spec = block_spec(case)
        stop = start + length
        singles = counts_of(spec.run(np.random.default_rng((seed, i)), i)
                            for i in range(start, stop))
        assert _run_chunk(spec, seed, start, stop) == singles

    def test_counts_at_30x30_do_not_depend_on_block_size(self, monkeypatch):
        # the invariant factors bound a (30,30) block to 18 trials, while the
        # prefix rows alone set the blocks at (2,2) and (3,3); one block of
        # all 60 trials gives the same seeded counts
        for task, blocks in (("minerr", 606), ("unamb", 442)):
            for split in ((2, 2), (3, 3)):
                assert make_locc_spec(task, *split, 0.3).block_trials == blocks
        spec = make_locc_spec("minerr", 30, 30, 0.3)
        assert spec.block_trials == 18
        counts = _run_chunk(spec, 7, 5, 65)
        monkeypatch.setattr(simulate, "INVARIANT_BLOCK_BYTES", 2**40)
        assert spec.block_trials == 606
        assert _run_chunk(spec, 7, 5, 65) == counts

    def test_incomplete_locc_step_aborts_the_batch(self, monkeypatch):
        # one outcome, K = 1/sqrt(2), that resolves only half the identity
        half = step(ALICE, 2, {0: S3.identity / math.sqrt(2)}, {0: Leaf(0)}, S3.identity / 2)
        spec = LoccTrialSpec(LoccProtocol(d_a=2, d_b=2, root=half), EQUAL_PRIORS)
        with pytest.raises(TrialAbort, match=r"^trial 0 at alice: .*sum"):
            run_batch(spec, 300, 0)
        monkeypatch.setattr(simulate, "MIN_FORK_CHUNK", 1)   # 150-trial chunks fork
        with pytest.raises(TrialAbort, match=r"^trial 0 at alice"):
            run_batch(spec, 300, 0, workers=2)   # raised in the caller's chunk
        with pytest.raises(TrialAbort, match=r"^trial 37 at alice: .*sum"):
            _run_chunk(spec, 0, 37, 50)


@dataclass(frozen=True)
class AbortFrom:
    """A trial spec that runs spec's trials but aborts at trial `first` and later."""

    spec: LoccTrialSpec
    first: int

    @property
    def block_trials(self) -> int:
        return self.spec.block_trials

    def run_block(self, rngs, first_index=0):
        block = self.spec.run_block(rngs, first_index)
        if first_index + len(rngs) > self.first:
            raise TrialAbort(f"trial {max(first_index, self.first)}: forced abort")
        return block


@dataclass(frozen=True)
class ExitInWorker:
    """A trial spec whose blocks end the process, unless it is the caller's."""

    spec: LoccTrialSpec
    caller: int

    @property
    def block_trials(self) -> int:
        return self.spec.block_trials

    def run_block(self, rngs, first_index=0):
        if os.getpid() != self.caller:
            os._exit(3)
        return self.spec.run_block(rngs, first_index)


def chunk_draws(seed: int, start: int, stop: int, size: int, d: int, depth: int) -> tuple:
    """The labels, references and step uniforms of trials start, ..., stop -
    1, drawn by simulate._draw from the seed states of blocks of size."""
    draws = [simulate._draw(states, EQUAL_PRIORS, d, depth)
             for _, states in simulate._block_rngs(seed, start, stop, size)]
    return tuple(map(np.concatenate, zip(*draws)))


def assert_draws_equal(seed: int, start: int, stop: int, size: int, d: int, depth: int) -> None:
    """Bulk draws of trials start, ..., stop - 1 in blocks of size are, bit for
    bit, those of default_rng((seed, i)) drawn one trial at a time."""
    got = chunk_draws(seed, start, stop, size, d, depth)
    want = dense_reference.draw([np.random.default_rng((seed, i)) for i in range(start, stop)],
                                EQUAL_PRIORS, d, depth)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def raw_normals(seed: int, i: int, d: int) -> np.ndarray:
    """The outputs that default_rng((seed, i)) reads for its 4 d normals if
    all are on the ziggurat's fast path, from numpy's own PCG64."""
    return PCG64(SeedSequence((seed, i))).random_raw(1 + 4 * d)[1:]


def first_slow_idx(seed: int, i: int, d: int, ki: np.ndarray) -> int | None:
    """The ziggurat layer idx of the first normal of trial i off the fast path
    of the table ki, or None if all its normals are on it."""
    raw = raw_normals(seed, i, d)
    idx = (raw & np.uint64(0xFF)).astype(np.intp)
    slow = np.flatnonzero((raw >> np.uint64(9)) & np.uint64(2**52 - 1) >= ki[idx])
    return int(idx[slow[0]]) if slow.size else None


def ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat tables ki (256,) and wi (256,) recovered from its
    public API, wi[1] as 0.  A PCG64 state 0 with increment r makes r the
    next output, so one standard_normal reads idx = r & 0xff, the sign bit r
    >> 8 & 1 and rabs = r >> 9.  At rabs = 1 and sign 0 the fast path returns
    wi[idx]; the fast path reads one output and leaves the state at r, so
    bisecting rabs on whether the state is still r gives ki[idx], the least
    rabs off the fast path."""
    bits = PCG64(0)
    rng = Generator(bits)

    def one_output(r: int) -> tuple[bool, float]:
        bits.state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": r},
                      "has_uint32": 0, "uinteger": 0}
        value = rng.standard_normal()
        return bits.state["state"]["state"] == r, value

    ki, wi = np.zeros(256, np.uint64), np.zeros(256)
    for idx in range(256):
        fast, value = one_output(idx | 1 << 9)
        if fast:
            wi[idx] = value
        lo, hi = 0, 2**52
        while lo < hi:
            mid = (lo + hi) // 2
            if one_output(idx | mid << 9)[0]:
                lo = mid + 1
            else:
                hi = mid
        ki[idx] = lo
    return ki, wi


# Pinned draws: 40 trials at d = 8 across 2^32, 16 of them drawn again from
# their generators, trial 2^32 + 2 first off the fast path at idx 0 (the
# tail); and 40 trials at d = 4 whose first, the canary, takes the tail.
TAIL_EXAMPLES = ({"seed": 21, "start": 2**32 - 20, "d": 8, "depth": 7, "tail": 2**32 + 2},
                 {"seed": 2**127 + 12345, "start": 80, "d": 4, "depth": 1, "tail": 80})


class TestBulkSeeding:
    @settings(max_examples=60, deadline=None)
    @example(seed=0, start=2**32 - 3)      # a window that straddles 2^32
    @example(seed=2**32, start=0)
    @example(seed=2**64, start=2**32)
    @example(seed=2**128 - 1, start=2**40 - 6)
    @given(seed=st.integers(0, 2**128 - 1), start=st.integers(0, 2**40 - 6))
    def test_chunk_generators_match_default_rng(self, seed, start):
        # seeds of more than 3 words make SeedSequence entropy longer than its pool
        assert_draws_equal(seed, start, start + 6, 4, 2, 1)

    def test_window_ends_at_multiples_of_2_32(self):
        blocks = [(lo, len(states)) for lo, states in
                  simulate._block_rngs(7, 2**32 - 3, 2**32 + 2, 4)]
        assert blocks == [(2**32 - 3, 3), (2**32, 2)]

    def test_canary_catches_a_wrong_hash(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MULT_B", simulate._MULT_B ^ 1)
        with pytest.raises(RuntimeError, match="differ"):
            next(simulate._block_rngs(7, 0, 4, 4))

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint32)])
    def test_state_hands_over_only_four_uint64_words(self, n_words, dtype):
        row = np.arange(4, dtype=np.uint64)
        state = simulate._State(row)
        assert state.generate_state(4, np.uint64) is row
        with pytest.raises(RuntimeError, match=rf"^PCG64 asked for {n_words} words of "
                                               rf"{re.escape(str(dtype))}, not 4 of uint64$"):
            state.generate_state(n_words, dtype)

    def test_negative_seed_keeps_numpy_error(self):
        with pytest.raises(ValueError):
            next(simulate._block_rngs(-1, 0, 4, 4))


class TestBulkDraws:
    def test_ziggurat_tables_match_numpy(self):
        # every ki, and every wi the fast path reads: ki[1] = 0, so never wi[1]
        ki, wi = ziggurat_tables()
        assert ki[1] == 0 and np.array_equal(ki, simulate._KI)
        read = np.arange(256) != 1
        assert np.array_equal(wi[read].view(np.uint64), simulate._WI[read].view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @example(**{k: v for k, v in TAIL_EXAMPLES[0].items() if k != "tail"}, n=40, size=17)
    @example(**{k: v for k, v in TAIL_EXAMPLES[1].items() if k != "tail"}, n=40, size=40)
    @example(seed=7, start=0, d=9, depth=3, n=5, size=5)    # above _BULK_NORMALS
    @given(seed=st.integers(0, 2**128 - 1),
           start=st.integers(0, 2**40) | st.integers(2**32 - 60, 2**32 - 1),
           d=st.integers(2, 16), depth=st.integers(1, 7), n=st.integers(1, 60),
           size=st.integers(1, 64))
    def test_blocks_draw_what_default_rng_draws(self, seed, start, d, depth, n, size):
        # labels, references and step uniforms, bit for bit, in blocks of any
        # size, fast-path, fallback and canary trials alike
        assert_draws_equal(seed, start, start + n, size, d, depth)

    @pytest.mark.parametrize("case", TAIL_EXAMPLES)
    def test_pinned_examples_take_both_slow_paths(self, case):
        # each pinned example holds a trial first off the fast path at idx 0
        # (the tail) and one first off it at idx > 0
        trials = range(case["start"], case["start"] + 40)
        firsts = {i: first_slow_idx(case["seed"], i, case["d"], simulate._KI) for i in trials}
        assert firsts[case["tail"]] == 0
        assert any(idx not in (None, 0) for idx in firsts.values())

    def test_canary_catches_a_wrong_multiplier(self, monkeypatch):
        monkeypatch.setattr(simulate, "_PCG_MULT", simulate._PCG_MULT ^ 2)
        with pytest.raises(RuntimeError, match="^bulk draws differ"):
            chunk_draws(7, 0, 10, 10, 2, 1)

    def test_canary_catches_a_corrupted_ki(self, monkeypatch):
        # trial 0 of seed 6 has one normal off the fast path; with its ki
        # entry raised, the bulk would take that normal as fast
        seed, d = 6, 2
        raw = raw_normals(seed, 0, d)
        idx = (raw & np.uint64(0xFF)).astype(np.intp)
        slow = np.flatnonzero((raw >> np.uint64(9)) & np.uint64(2**52 - 1) >= simulate._KI[idx])
        assert len(slow) == 1
        chunk_draws(seed, 0, 10, 10, d, 1)
        ki = simulate._KI.copy()
        ki[idx[slow[0]]] = 2**52
        monkeypatch.setattr(simulate, "_KI", ki)
        with pytest.raises(RuntimeError, match="^bulk draws differ"):
            chunk_draws(seed, 0, 10, 10, d, 1)

    def test_canary_catches_a_corrupted_wi(self, monkeypatch):
        seed, d = 7, 2
        assert first_slow_idx(seed, 0, d, simulate._KI) is None
        wi = simulate._WI.copy()
        wi[int(raw_normals(seed, 0, d)[0] & np.uint64(0xFF))] *= 1.5
        monkeypatch.setattr(simulate, "_WI", wi)
        with pytest.raises(RuntimeError, match="^bulk draws differ"):
            chunk_draws(seed, 0, 10, 10, d, 1)


def run_python(code: str) -> None:
    """Run code in a fresh interpreter that imports stateid from this checkout."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


class TestRunBatch:
    @settings(max_examples=10, deadline=None)
    @example(n=1, seed=0)
    @example(n=2, seed=7)
    @example(n=4, seed=7)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**63))
    def test_counts_do_not_depend_on_workers(self, n, seed):
        # with a fork floor of one trial the batch forks min(workers, usable
        # CPUs, n) - 1 processes: a chunk per trial when n is the smallest
        spec = block_spec("minerr-0.5-2-2")
        serial = run_batch(spec, n, seed, workers=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "MIN_FORK_CHUNK", 1)
            for workers in (2, 3, 5):
                assert run_batch(spec, n, seed, workers=workers) == serial

    @pytest.mark.parametrize("n,workers,forked", [(1, 4, None), (3, 5, 2), (50, 2, 1)])
    def test_forks_one_process_per_nonempty_chunk_but_the_first(
            self, monkeypatch, n, workers, forked):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(simulate, "MIN_FORK_CHUNK", 1)
        starts = []
        start = multiprocessing.context.ForkProcess.start

        def record(proc):
            starts.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", record)
        run_batch(block_spec("minerr-0.5-2-2"), n, 3, workers=workers)
        assert len(starts) == (0 if forked is None else forked)
        assert not multiprocessing.active_children()

    def test_usable_cpus_without_an_affinity_mask(self, monkeypatch):
        # platforms without sched_getaffinity fall back to the CPU count, or 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert simulate._usable_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert simulate._usable_cpus() == 1

    def test_workers_are_capped_at_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "MIN_FORK_CHUNK", 1)
        starts = []
        start = multiprocessing.context.ForkProcess.start

        def record(proc):
            starts.append(proc)
            assert len(starts) == 1, "run_batch started a second process"
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", record)
        spec = block_spec("minerr-0.5-2-2")
        assert run_batch(spec, 50, 3, workers=100_000) == run_batch(spec, 50, 3, workers=1)
        assert len(starts) == 1
        assert not multiprocessing.active_children()

    def test_abort_in_a_worker_chunk_propagates(self, monkeypatch):
        # chunks are [0, 150) in the caller and [150, 300) in the worker
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "MIN_FORK_CHUNK", 1)
        spec = AbortFrom(block_spec("minerr-0.5-2-2"), 200)
        assert run_batch(spec, 150, 0, workers=1).n_trials == 150
        with pytest.raises(TrialAbort, match=r"^trial 200: forced abort"):
            run_batch(spec, 300, 0, workers=2)

    @pytest.mark.parametrize("workers", [2, 3, 100_000])
    def test_chunks_below_the_floor_start_no_process(self, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 8)

        def refuse(proc):
            raise AssertionError("run_batch started a process")

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse)
        spec = block_spec("minerr-0.5-2-2")
        n = 2 * MIN_FORK_CHUNK - 1
        assert run_batch(spec, n, 3, workers=workers) == run_batch(spec, n, 3, workers=1)

    @pytest.mark.parametrize("n,forked", [(2 * MIN_FORK_CHUNK - 1, 0), (2 * MIN_FORK_CHUNK, 1)],
                             ids=["below", "at"])
    def test_forks_at_the_floor(self, monkeypatch, n, forked):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        starts = []
        start = multiprocessing.context.ForkProcess.start

        def record(proc):
            starts.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", record)
        spec = block_spec("minerr-0.5-2-2")
        parallel = run_batch(spec, n, 5, workers=2)
        assert len(starts) == forked
        assert parallel == run_batch(spec, n, 5, workers=1)
        assert not multiprocessing.active_children()

    @settings(max_examples=200, deadline=None)
    @example(n=1, workers=1, cpus=1)
    @example(n=2 * MIN_FORK_CHUNK - 1, workers=2, cpus=2)
    @example(n=2 * MIN_FORK_CHUNK, workers=2, cpus=2)
    @example(n=10**12 + 7, workers=100_000, cpus=64)
    @given(n=st.integers(1, 10**12), workers=st.integers(1, 100_000), cpus=st.integers(1, 64))
    def test_chunk_bounds_cover_the_batch(self, n, workers, cpus):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_usable_cpus", lambda: cpus)
            bounds = chunk_bounds(n, workers)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == n
        assert len(sizes) == max(1, min(workers, cpus, n // MIN_FORK_CHUNK))
        assert sizes.max() - sizes.min() <= 1
        assert len(sizes) == 1 or sizes.min() >= MIN_FORK_CHUNK

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejects_negative_seed(self, workers):
        with pytest.raises(ValueError):
            run_batch(block_spec("minerr-0.5-2-2"), 10, -1, workers=workers)
        assert not multiprocessing.active_children()

    def test_worker_that_exits_without_a_result_raises(self, monkeypatch):
        monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(simulate, "MIN_FORK_CHUNK", 1)
        caller = os.getpid()
        spec = ExitInWorker(block_spec("minerr-0.5-2-2"), caller)

        def hung(signum, frame):
            raise TimeoutError("run_batch waited for a dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match=r"chunk 1 \(trials 5 to 10\) exited with code 3"):
                run_batch(spec, 10, 0, workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not multiprocessing.active_children()

    def test_import_loads_numpy_random(self):
        # forked batch workers inherit numpy.random instead of importing it
        run_python("import sys, stateid.simulate; assert 'numpy.random' in sys.modules")

    def test_batch_below_the_floor_does_not_load_multiprocessing(self):
        run_python("import sys, stateid.cli\n"
                   "from stateid import minerr, simulate\n"
                   "priors = minerr.EQUAL_PRIORS\n"
                   "spec = simulate.LoccTrialSpec(minerr.locc_protocol(2, 2, priors), priors)\n"
                   "simulate.run_batch(spec, 2 * simulate.MIN_FORK_CHUNK - 1, 7, workers=2)\n"
                   "assert 'multiprocessing' not in sys.modules, 'multiprocessing is loaded'")

    def test_single_trial(self):
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        stats = run_batch(spec, 1, 0)
        assert stats.n_trials == 1
        assert stats.successes + stats.errors + stats.inconclusive == 1

    def test_rejects_empty_batch(self):
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        with pytest.raises(ValueError):
            run_batch(spec, 0, 0)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, monkeypatch, workers):
        starts = []
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", starts.append)
        with pytest.raises(ValueError, match=rf"^a batch needs n >= 1 trials and workers >= 1, "
                           rf"each an integer, and an integer seed >= 0, got n=10, "
                           rf"workers={workers}, seed=7$"):
            run_batch(block_spec("minerr-0.5-2-2"), 10, 7, workers=workers)
        assert starts == []

    def test_worker_count_invariance(self, forked):
        spec = LoccTrialSpec(locc_protocol(2, 2, EQUAL_PRIORS), EQUAL_PRIORS)
        serial = run_batch(spec, 2_000, 17, workers=1)
        parallel = run_batch(spec, 2_000, 17, workers=4)
        assert serial == parallel
        assert forked, "the workers=4 batch started no process"

    def test_counts_are_consistent(self):
        spec = GlobalTrialSpec(optimal_global_povm(3, EQUAL_PRIORS), 3, EQUAL_PRIORS)
        stats = run_batch(spec, 500, 1)
        assert stats.successes + stats.errors + stats.inconclusive == stats.n_trials
        assert stats.p_hat == stats.successes / stats.n_trials
        expected_se = math.sqrt(stats.p_hat * (1 - stats.p_hat) / stats.n_trials)
        assert abs(stats.stderr - expected_se) < 1e-15

    def test_convergence_scaling(self):
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        stats = {}
        for n in (1_000, 10_000, 100_000):
            stats[n] = run_batch(spec, n, 2, target=PMAX_D2_HALF)
            # estimate stays within the shrinking 4-sigma band at every scale
            assert abs(stats[n].p_hat - PMAX_D2_HALF) <= 4 * stats[n].stderr
        assert stats[1_000].stderr > stats[10_000].stderr > stats[100_000].stderr


def test_target_stderr_survives_exact_results():
    stats = BatchStats.from_counts(2000, 2000, 0, 0, target=1.0 - 1e-16)
    assert stats.stderr == 0.0
    assert stats.target_stderr > 0.0
    assert abs(stats.p_hat - stats.target) <= 4 * stats.target_stderr
    half = BatchStats.from_counts(100, 40, 60, 0, target=0.5)
    assert half.target_stderr == 0.05


def test_batch_stats_from_counts():
    stats = BatchStats.from_counts(10, 6, 1, 3, target=0.5)
    assert stats.p_hat == 0.6
    assert stats.target == 0.5
    assert stats.errors == 1 and stats.inconclusive == 3
