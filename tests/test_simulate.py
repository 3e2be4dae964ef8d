import math
import multiprocessing
import os
import pickle
import signal
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
from stateid.protocol import ALICE, BOB, Leaf, LoccProtocol, MeasurementStep
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


def phased(node, phases: dict):
    """The tree with every local element, and support, conjugated as D E D^dag by
    the party's fixed diagonal phase D = diag(phases[party])."""
    if isinstance(node, Leaf):
        return node

    def conjugate(op):
        return phases[node.party][:, None] * op * phases[node.party].conj()

    measurement = povm_from_dict({label: conjugate(op) for label, op in node.measurement.elements},
                                 conjugate(node.measurement.support))
    return MeasurementStep(node.party, measurement,
                           {label: phased(child, phases) for label, child in node.children.items()})


def phased_spec(task: str, da: int, db: int, eta1: float) -> LoccTrialSpec:
    """A production tree turned complex: its Kraus stacks are complex at every step."""
    spec = make_locc_spec(task, da, db, eta1)
    phases = {party: np.exp(1j * np.arange(1, n + 1)) for party, n in ((ALICE, da**3), (BOB, db**3))}
    proto = LoccProtocol(da, db, phased(spec.protocol.root, phases))
    return LoccTrialSpec(proto, spec.priors)


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

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("task,eta1", LOCC_CASES)
    def test_complex_stacks_match_dense_reference(self, task, eta1, da, db):
        # the same walker applies the block form of complex Kraus stacks
        spec = phased_spec(task, da, db, eta1)
        assert all(np.iscomplexobj(node.kraus) for node in steps_of(spec.protocol.root))
        for i in range(20):
            factored = spec.run(np.random.default_rng((11, i)), i)
            dense = dense_walk(spec, np.random.default_rng((11, i)), i)
            assert factored == dense

    @pytest.mark.parametrize("da,db", [(2, 2), (2, 3), (3, 3)])
    def test_production_stacks_are_real(self, da, db):
        # the benchmarked trees run on the real products, not the block form
        trees = [locc_protocol(da, db, Priors.from_eta1(eta1)) for eta1 in (0.3, 0.5, 0.7)]
        trees += [unambiguous.locc_protocol(da, db, first) for first in (ALICE, BOB)]
        for tree in trees:
            for node in steps_of(tree.root):
                assert node.kraus.dtype == np.float64
                assert node.plane_action.dtype == np.float64
                assert not node.kraus.flags.writeable

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
    if case.startswith("phased-"):
        task, eta1, da, db = case.split("-")[1:]
        return phased_spec(task, int(da), int(db), float(eta1))
    if case == "global":
        return GlobalTrialSpec(optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
    if case == "global-rotated":
        u = haar_unitary(3, np.random.default_rng(99))
        return GlobalTrialSpec(global_unamb_povm(3).as_povm(), 3, EQUAL_PRIORS, rotation=u)
    task, eta1, da, db = case.split("-")
    return make_locc_spec(task, int(da), int(db), float(eta1))


BLOCK_CASES = ["global", "global-rotated"] + [
    f"{task}-{eta1}-{da}-{db}" for task, eta1 in LOCC_CASES for da, db in [(2, 2), (2, 3), (3, 3)]]
BLOCK_CASES += [f"phased-{task}-{eta1}-{da}-{db}"
                for task, eta1 in LOCC_CASES for da, db in [(2, 2), (2, 3)]]


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


@dataclass(frozen=True)
class ExitInWorker:
    """A trial spec whose blocks end the process, unless it is the caller's."""

    spec: LoccTrialSpec
    caller: int

    @property
    def dim(self) -> int:
        return self.spec.dim

    def run_block(self, rngs, first_index=0):
        if os.getpid() != self.caller:
            os._exit(3)
        return self.spec.run_block(rngs, first_index)


def first_draws(rngs) -> list:
    return [rng.random(3).tolist() + rng.standard_normal(2).tolist() for rng in rngs]


class TestBulkSeeding:
    @settings(max_examples=60, deadline=None)
    @example(seed=0, start=2**32 - 3)      # a window that straddles 2^32
    @example(seed=2**32, start=0)
    @example(seed=2**64, start=2**32)
    @example(seed=2**128 - 1, start=2**40 - 6)
    @given(seed=st.integers(0, 2**128 - 1), start=st.integers(0, 2**40 - 6))
    def test_chunk_generators_match_default_rng(self, seed, start):
        # seeds of more than 3 words make SeedSequence entropy longer than its pool
        got, trials = [], []
        for lo, rngs in simulate._block_rngs(seed, start, start + 6, 4):
            trials += range(lo, lo + len(rngs))
            got += first_draws(rngs)
        assert trials == list(range(start, start + 6))
        assert got == first_draws(np.random.default_rng((seed, i)) for i in trials)

    def test_window_ends_at_multiples_of_2_32(self):
        blocks = [(lo, len(rngs)) for lo, rngs in
                  simulate._block_rngs(7, 2**32 - 3, 2**32 + 2, 4)]
        assert blocks == [(2**32 - 3, 3), (2**32, 2)]

    def test_canary_catches_a_wrong_hash(self, monkeypatch):
        monkeypatch.setattr(simulate, "_MULT_B", simulate._MULT_B ^ 1)
        with pytest.raises(RuntimeError, match="differ"):
            next(simulate._block_rngs(7, 0, 4, 4))

    def test_negative_seed_keeps_numpy_error(self):
        with pytest.raises(ValueError):
            next(simulate._block_rngs(-1, 0, 4, 4))


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
        starts = []
        start = multiprocessing.context.ForkProcess.start

        def record(proc):
            starts.append(proc)
            start(proc)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", record)
        run_batch(block_spec("minerr-0.5-2-2"), n, 3, workers=workers)
        assert len(starts) == (0 if forked is None else forked)
        assert not multiprocessing.active_children()

    def test_abort_in_a_worker_chunk_propagates(self):
        # chunks are [0, 150) in the caller and [150, 300) in the worker
        spec = AbortFrom(block_spec("minerr-0.5-2-2"), 200)
        assert run_batch(spec, 150, 0, workers=1).n_trials == 150
        with pytest.raises(TrialAbort, match=r"^trial 200: forced abort"):
            run_batch(spec, 300, 0, workers=2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rejects_negative_seed(self, workers):
        with pytest.raises(ValueError):
            run_batch(block_spec("minerr-0.5-2-2"), 10, -1, workers=workers)
        assert not multiprocessing.active_children()

    def test_worker_that_exits_without_a_result_raises(self):
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

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_fewer_than_one_worker(self, monkeypatch, workers):
        starts = []
        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", starts.append)
        with pytest.raises(ValueError, match=rf"worker.*got {workers}$"):
            run_batch(block_spec("minerr-0.5-2-2"), 10, 7, workers=workers)
        assert starts == []

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
