import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stateid import simulate, unambiguous
from stateid.linalg import kron, regroup_operator
from stateid.minerr import EQUAL_PRIORS, Priors, locc_protocol, max_success_global, optimal_global_povm
from stateid.povm import povm_from_dict
from stateid.protocol import ALICE, Leaf, LoccProtocol, MeasurementStep
from stateid.simulate import (
    BRANCH_PROB_FLOOR,
    PROB_SUM_ATOL,
    BatchStats,
    GlobalTrialSpec,
    LoccTrialSpec,
    TrialAbort,
    TrialRecord,
    _run_chunk,
    haar_state,
    haar_unitary,
    run_batch,
)
from stateid.unambiguous import global_unamb_povm

PMAX_D2_HALF = 0.6443375672974064


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
        povm = povm_from_dict({1: np.eye(8), 2: np.zeros((8, 8))})
        spec = GlobalTrialSpec(povm, 2, EQUAL_PRIORS)
        for i in range(20):
            rec = spec.run(np.random.default_rng(i), i)
            assert rec.declared_label == 1
            assert rec.transcript == (("global", 1),)

    def test_incomplete_povm_aborts(self):
        povm = povm_from_dict({1: np.eye(8) / 2, 2: np.eye(8) / 4},
                              support=np.eye(8) * 0.75)
        spec = GlobalTrialSpec(povm, 2, EQUAL_PRIORS)
        with pytest.raises(TrialAbort, match="sum"):
            spec.run(np.random.default_rng(0), 0)
        with pytest.raises(TrialAbort, match=r"^trial 0: .*sum"):
            run_batch(spec, 300, 0)
        with pytest.raises(TrialAbort, match=r"^trial 37: .*sum"):
            _run_chunk(spec, 0, 37, 50)

    def test_minerr_batch_matches_closed_form(self):
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        stats = run_batch(spec, 20_000, 3, target=PMAX_D2_HALF)
        assert abs(stats.p_hat - PMAX_D2_HALF) <= 3 * stats.stderr
        assert stats.inconclusive == 0

    def test_unambiguous_batch_never_errs(self):
        povm = global_unamb_povm(2).as_povm()
        spec = GlobalTrialSpec(povm, 2, EQUAL_PRIORS)
        stats = run_batch(spec, 10_000, 3, target=1 / 6)
        assert stats.errors == 0
        assert abs(stats.p_hat - 1 / 6) <= 3 * stats.stderr

    def test_unitary_invariance(self):
        # rotating references and input by a fixed Haar unitary leaves the
        # success statistics unchanged (the POVM commutes with U x U x U)
        povm = optimal_global_povm(2, EQUAL_PRIORS)
        u = haar_unitary(2, np.random.default_rng(99))
        n = 100_000
        plain = run_batch(GlobalTrialSpec(povm, 2, EQUAL_PRIORS), n, 5)
        rotated = run_batch(GlobalTrialSpec(povm, 2, EQUAL_PRIORS, rotation=u), n, 6)
        z = abs(plain.p_hat - rotated.p_hat) / math.hypot(plain.stderr, rotated.stderr)
        assert z < 3.0


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
    """Reference walker on the joint space: lifted kron(K, 1) / kron(1, K) matvecs.

    Draws in the order of the per-trial contract (label, both references, one
    uniform per step) and regroups with the dense 0/1 operator.
    """
    proto = spec.protocol
    na, nb = proto.d_a**3, proto.d_b**3
    label = 1 if rng.random() < spec.priors.eta1 else 2
    phi1 = haar_state(proto.d_a * proto.d_b, rng)
    phi2 = haar_state(proto.d_a * proto.d_b, rng)
    state = regroup_operator(proto.d_a, proto.d_b) @ kron(phi1 if label == 1 else phi2, phi1, phi2)
    transcript = []
    node = proto.root
    while not isinstance(node, Leaf):
        lifted = [kron(k, np.eye(nb)) if node.party == ALICE else kron(np.eye(na), k)
                  for k in node.kraus]
        branches = [op @ state for op in lifted]
        probs = np.array([np.vdot(v, v).real for v in branches])
        assert abs(probs.sum() - 1.0) <= PROB_SUM_ATOL
        idx = min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")),
                  len(probs) - 1)
        assert probs[idx] >= BRANCH_PROB_FLOOR
        outcome = node.measurement.elements[idx][0]
        state = branches[idx] / math.sqrt(probs[idx])
        transcript.append((node.party, outcome))
        node = node.children[outcome]
    return TrialRecord(label, node.label, tuple(transcript), trial_index)


def make_locc_spec(task: str, da: int, db: int, eta1: float) -> LoccTrialSpec:
    priors = Priors.from_eta1(eta1)
    proto = locc_protocol(da, db, priors) if task == "minerr" else unambiguous.locc_protocol(da, db)
    return LoccTrialSpec(proto, priors)


LOCC_CASES = [("minerr", 0.5), ("minerr", 0.7), ("unamb", 0.5)]


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

    @pytest.mark.parametrize("task,eta1,counts", [
        ("minerr", 0.7, (174, 26, 0)),
        ("unamb", 0.5, (60, 0, 140)),
    ])
    def test_seeded_counts_at_3x3(self, task, eta1, counts):
        stats = run_batch(make_locc_spec(task, 3, 3, eta1), 200, 7)
        assert (stats.successes, stats.errors, stats.inconclusive) == counts


@lru_cache(maxsize=None)
def block_spec(case: str):
    """Trial specs for the block-engine properties, built once per session."""
    if case == "global":
        return GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
    if case == "global-rotated":
        u = haar_unitary(3, np.random.default_rng(99))
        return GlobalTrialSpec(global_unamb_povm(3).as_povm(), 3, EQUAL_PRIORS, rotation=u)
    task, eta1, da, db = case.split("-")
    return make_locc_spec(task, int(da), int(db), float(eta1))


BLOCK_CASES = ["global", "global-rotated"] + [
    f"{task}-{eta1}-{da}-{db}" for task, eta1 in LOCC_CASES for da, db in [(2, 2), (2, 3), (3, 3)]]


def counts_of(records) -> tuple[int, int, int]:
    records = list(records)
    return (sum(r.success for r in records), sum(r.error for r in records),
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

    def test_incomplete_locc_step_aborts_the_batch(self):
        half = MeasurementStep(ALICE, povm_from_dict({0: np.eye(8) / 2}, np.eye(8) / 2),
                               {0: Leaf(0)})
        spec = LoccTrialSpec(LoccProtocol(d_a=2, d_b=2, root=half), EQUAL_PRIORS)
        with pytest.raises(TrialAbort, match=r"^trial 0 at alice: .*sum"):
            run_batch(spec, 300, 0)
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
    def dim(self) -> int:
        return self.spec.dim

    def run_block(self, rngs, first_index=0):
        block = self.spec.run_block(rngs, first_index)
        if first_index + len(rngs) > self.first:
            raise TrialAbort(f"trial {max(first_index, self.first)}: forced abort")
        return block


class TestRunBatch:
    @settings(max_examples=10, deadline=None)
    @example(n=1, seed=0)
    @example(n=2, seed=7)
    @example(n=4, seed=7)
    @given(n=st.integers(1, 60), seed=st.integers(0, 2**63))
    def test_counts_do_not_depend_on_workers(self, n, seed):
        # below the worker count every chunk is one trial and fewer processes fork
        spec = block_spec("minerr-0.5-2-2")
        serial = run_batch(spec, n, seed, workers=1)
        for workers in (2, 3, 5):
            assert run_batch(spec, n, seed, workers=workers) == serial

    @pytest.mark.parametrize("n,workers,forked", [(1, 4, None), (3, 5, 2), (50, 2, 1)])
    def test_forks_one_process_per_nonempty_chunk_but_the_first(
            self, monkeypatch, n, workers, forked):
        sizes = []

        class Pool(simulate.ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", Pool)
        run_batch(block_spec("minerr-0.5-2-2"), n, 3, workers=workers)
        assert sizes == ([] if forked is None else [forked])
        assert not multiprocessing.active_children()

    def test_abort_in_a_worker_chunk_propagates(self):
        # chunks are [0, 150) in the caller and [150, 300) in the worker
        spec = AbortFrom(block_spec("minerr-0.5-2-2"), 200)
        assert run_batch(spec, 150, 0, workers=1).n_trials == 150
        with pytest.raises(TrialAbort, match=r"^trial 200: forced abort"):
            run_batch(spec, 300, 0, workers=2)

    def test_import_loads_numpy_random(self):
        # forked batch workers inherit numpy.random instead of importing it
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        code = "import sys, stateid.simulate; assert 'numpy.random' in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_single_trial(self):
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        stats = run_batch(spec, 1, 0)
        assert stats.n_trials == 1
        assert stats.successes + stats.errors + stats.inconclusive == 1

    def test_rejects_empty_batch(self):
        spec = GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
        with pytest.raises(ValueError):
            run_batch(spec, 0, 0)

    def test_worker_count_invariance(self):
        spec = LoccTrialSpec(locc_protocol(2, 2, EQUAL_PRIORS), EQUAL_PRIORS)
        serial = run_batch(spec, 2_000, 17, workers=1)
        parallel = run_batch(spec, 2_000, 17, workers=4)
        assert serial == parallel

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
