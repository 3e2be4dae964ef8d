"""Haar-random state sampling and Monte Carlo execution of measurement schemes.

A trial draws the true label from the priors, draws both reference states from
the unitary-invariant (Haar) distribution, assembles the product state on the
triple space, and samples measurement outcomes with the exact Born
probabilities: either in one shot for a global POVM, or by walking an LOCC
tree with the square-root (Lueders) state update between steps.

Trials run in blocks.  Each trial of a block draws its own variates; the block
then does the rest on stacked arrays.  For a global POVM the product states
are formed by one broadcast product over the block.  An LOCC tree is walked
once per block on real arithmetic (see _Walker): each trial's party-major
(d_a^3, d_b^3) state matrix psi is held as the real (d_a^3, 2, d_b^3) array
of its real and imaginary planes, assembled straight from the references.
At each step, the trials that reached it go through all the step's outcomes
in one real product with the operators the step stacked at construction
(MeasurementStep.plane_action: Alice's K acting as K @ psi, Bob's as
psi @ K.T), and the outcomes are sampled by a vectorized inverse CDF.  Only
the branches the trials chose are kept.  The walker's arrays are allocated
once per chunk of a batch and serve all its blocks.  A block's stacked states
take at most BLOCK_STATE_BYTES, so blocks on larger spaces hold fewer trials.
A single trial (TrialSpec.run) is a block of one, walked by the same code.

Determinism contract: trial i of a batch uses the generator seeded with
(base_seed, i), so batch results are identical for any worker count and any
block size.  A trial draws, in this order, the label uniform; the 4*d
standard normals of both references (real then imaginary parts of the first,
then of the second); and one uniform per step of the deepest path of the tree
(1 for a global POVM).  Step k of the walk reads the k-th of those uniforms,
and those left over after the leaf are never read.  These are the numbers
that drawing the label, each reference as two calls of d normals, and one
uniform as each step comes would give: a Generator keeps no state between
calls for normals or uniforms, so one call of size n returns what n calls of
size 1 would.  Outcome sampling is inverse-CDF over the ordered element list.

A chunk of a batch builds those generators without hashing each seed on its
own.  For a window of up to 4096 trials (whose states take at most
BLOCK_STATE_BYTES) it computes SeedSequence((seed, i)).generate_state(4,
np.uint64) for every i at once, re-implementing numpy's SeedSequence hash on
a (4, window) uint32 array, a row per pool word, for any number of seed and
index words.  A window ends at each multiple of 2^32, so all its indices have
the same number of words.  Each row is handed to PCG64 through a
numpy.random.bit_generator.ISeedSequence, so numpy's own PCG64 set-seed turns
it into the generator default_rng((seed, i)) would give.  Once per window the first row is compared with numpy's own
SeedSequence, which raises RuntimeError if the hash ever differs and keeps
numpy's ValueError for a negative seed.

A batch on several workers is split into consecutive chunks of trials.  The
caller runs the first chunk itself while workers - 1 processes run the rest,
one chunk each (fewer when there are fewer trials than workers), and send
their counts back through a pipe.  The processes are started with the fork
method whatever the platform's default, so they inherit the trial spec
instead of unpickling it, and numpy.random, which is imported with this
module, instead of importing it again.
"""

from __future__ import annotations

import math
import multiprocessing
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence, Union

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .minerr import Priors
from .povm import Povm
from .protocol import ALICE, Leaf, LoccProtocol

PROB_SUM_ATOL = 1e-8
BRANCH_PROB_FLOOR = 1e-12
# Bytes of one block's stacked states, complex or as real and imaginary
# planes: 128 trials at d = 4, 11 at (3,3).  Larger blocks gain little at
# (2,2) and raise the peak memory of every batch worker; smaller ones slow
# (3,3), where a tree node's share of a block is a few trials.
BLOCK_STATE_BYTES = 128 * 1024


class TrialAbort(RuntimeError):
    """A trial hit a numerical guard (non-unit outcome mass or dead branch)."""


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector drawn uniformly from the pure-state space of C^d.

    Normalized standard complex Gaussian vector — the standard construction of
    the hypersphere-uniform, unitarily invariant measure.  Trial blocks build
    their references the same way from the stacked normals.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


@dataclass(frozen=True)
class TrialRecord:
    true_label: int
    declared_label: int
    transcript: tuple
    trial_index: int

    @property
    def success(self) -> bool:
        return self.declared_label == self.true_label

    @property
    def error(self) -> bool:
        return self.declared_label not in (0, self.true_label)


@dataclass(frozen=True)
class BatchStats:
    """Aggregated identification counts with the binomial standard error."""

    n_trials: int
    successes: int
    errors: int
    inconclusive: int
    p_hat: float
    stderr: float
    target: float | None = None

    @classmethod
    def from_counts(cls, n: int, successes: int, errors: int, inconclusive: int,
                    target: float | None = None) -> "BatchStats":
        p_hat = successes / n
        return cls(
            n_trials=n,
            successes=successes,
            errors=errors,
            inconclusive=inconclusive,
            p_hat=p_hat,
            stderr=math.sqrt(p_hat * (1.0 - p_hat) / n),
            target=target,
        )

    @property
    def target_stderr(self) -> float:
        """Binomial standard error at the target; unlike stderr, nonzero at p_hat 0 or 1."""
        return math.sqrt(max(self.target * (1.0 - self.target), 0.0) / self.n_trials)


class Block(NamedTuple):
    """Outcomes of consecutive trials: true and declared labels, and per trial
    the element index sampled at each step (-1 past the leaf)."""

    labels: np.ndarray
    declared: np.ndarray
    path: np.ndarray


def _draw(rngs: Sequence[np.random.Generator], priors: Priors, d: int,
          depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True labels (n,), unit references (n, 2, d) and step uniforms (n, depth).

    Each trial draws from its own generator in the contract order.
    """
    n = len(rngs)
    label_u = np.empty(n)
    normals = np.empty((n, 2, 2, d))
    step_u = np.empty((n, depth))
    for j, rng in enumerate(rngs):
        label_u[j] = rng.random()
        rng.standard_normal(out=normals[j])
        rng.random(out=step_u[j])
    refs = normals[:, :, 0] + 1j * normals[:, :, 1]
    refs /= np.linalg.norm(refs, axis=-1, keepdims=True)
    return np.where(label_u < priors.eta1, 1, 2), refs, step_u


def _product_states(labels: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """kron(input, phi1, phi2) per trial as (n, d, d, d); the label picks the input."""
    phi1, phi2 = refs[:, 0], refs[:, 1]
    first = np.where((labels == 1)[:, None], phi1, phi2)
    return (first[:, :, None] * phi1[:, None, :])[..., None] * phi2[:, None, None, :]


def _sample(probs: np.ndarray, u: np.ndarray, rows: np.ndarray, first_index: int,
            party: str = "") -> np.ndarray:
    """Inverse-CDF element index per trial; probs is (elements, trials).

    rows are the trials' ascending positions in their block, which starts at
    trial first_index.  Raises TrialAbort, naming the first such trial, when a
    trial's outcome probabilities do not sum to one.
    """
    cum = probs.cumsum(axis=0)
    off = np.abs(cum[-1] - 1.0)
    if off.max() > PROB_SUM_ATOL:
        j = np.flatnonzero(off > PROB_SUM_ATOL)[0]
        where = f" at {party}" if party else ""
        raise TrialAbort(f"trial {first_index + rows[j]}{where}: outcome probabilities sum to "
                         f"{cum[-1, j]!r}")
    # as searchsorted(cum, u, side="right") per trial, clipped to the last element
    return np.minimum((cum <= u).sum(axis=0), len(probs) - 1)


def _overlaps(states: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Re <state|image> over the last axis, read on the float views without a
    conjugate copy."""
    return np.vecdot(states.view(np.float64), images.view(np.float64))


def _depth(node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(_depth(child) for child in node.children.values())


def _widest(node) -> int:
    if isinstance(node, Leaf):
        return 0
    return max(len(node.kraus), *map(_widest, node.children.values()))


@dataclass(frozen=True)
class GlobalTrialSpec:
    """One-shot measurement of a global POVM on the triple space."""

    povm: Povm
    d: int
    priors: Priors

    @property
    def dim(self) -> int:
        return self.d**3

    def run_block(self, rngs: Sequence[np.random.Generator], first_index: int = 0) -> Block:
        """Trials first_index, first_index + 1, ... drawing from rngs in turn."""
        labels, refs, step_u = _draw(rngs, self.priors, self.d, 1)
        states = _product_states(labels, refs).reshape(len(labels), -1)
        probs = np.array([_overlaps(states, states @ op.T) for _, op in self.povm.elements])
        idx = _sample(probs, step_u[:, 0], np.arange(len(labels)), first_index)
        declared = np.array([int(label) for label in self.povm.labels])[idx]
        return Block(labels, declared, idx[:, None])

    def run(self, rng: np.random.Generator, trial_index: int = 0) -> TrialRecord:
        block = self.run_block([rng], trial_index)
        outcome = self.povm.elements[block.path[0, 0]][0]
        return TrialRecord(
            true_label=int(block.labels[0]),
            declared_label=int(outcome),
            transcript=(("global", outcome),),
            trial_index=trial_index,
        )


@dataclass(frozen=True)
class LoccTrialSpec:
    """Sequential execution of an LOCC protocol tree.

    The product states are assembled as real planes in the walker's layout
    and updated with the outcome's local Kraus operator at every step (see
    _Walker).
    """

    protocol: LoccProtocol
    priors: Priors

    @property
    def dim(self) -> int:
        return self.protocol.dim

    @cached_property
    def depth(self) -> int:
        """Steps on the longest path of the tree."""
        return _depth(self.protocol.root)

    @cached_property
    def widest(self) -> int:
        """Most outcomes of a step of the tree."""
        return _widest(self.protocol.root)

    def run_block(self, rngs: Sequence[np.random.Generator], first_index: int = 0) -> Block:
        """Trials first_index, first_index + 1, ... drawing from rngs in turn."""
        return _Walker(self, len(rngs))(rngs, first_index)

    def run(self, rng: np.random.Generator, trial_index: int = 0) -> TrialRecord:
        block = self.run_block([rng], trial_index)
        transcript: list[tuple[str, object]] = []
        node = self.protocol.root
        for i in block.path[0]:
            if isinstance(node, Leaf):
                break
            outcome = node.measurement.elements[i][0]
            transcript.append((node.party, outcome))
            node = node.children[outcome]
        return TrialRecord(
            true_label=int(block.labels[0]),
            declared_label=int(block.declared[0]),
            transcript=tuple(transcript),
            trial_index=trial_index,
        )


class _Walker:
    """Walks blocks of at most `size` trials through an LOCC tree.

    A block's joint states are real planes: trial t's is the (d_a^3, 2,
    d_b^3) array of the real and imaginary parts of its party-major matrix
    psi.  A step applies all its outcomes to the trials at the step with one
    real product, of its plane_action from the left for Alice and from the
    right for Bob, into an element-major (elements, trials, d_a^3, 2, d_b^3)
    array whose rows give the outcome probabilities.  The chosen branches
    are gathered grouped by outcome, in the same layout, and are not
    normalized: each trial carries its squared norm, which divides the next
    step's squared branch norms.

    Two arrays are allocated once, when the walker is made, and reused by
    every block: one for the product of a step, and one for the block's
    states.  A step's trials hold consecutive states, which it reads only to
    form its product, so it overwrites them with the chosen branches; each
    child step then holds a slice of those.
    """

    def __init__(self, spec: LoccTrialSpec, size: int):
        self.spec = spec
        self.states = np.empty(size * 2 * spec.dim)
        self.product = np.empty(max(spec.widest, 1) * self.states.size)

    def _states(self, labels: np.ndarray, refs: np.ndarray) -> np.ndarray:
        """kron(input, phi1, phi2) per trial, as (trials, d_a^3, 2, d_b^3) planes."""
        proto = self.spec.protocol
        a, b = proto.d_a, proto.d_b
        n = len(labels)
        refs = refs.reshape(n, 2, a, b)
        phi1, phi2 = refs[:, 0], refs[:, 1]
        first = np.where((labels == 1)[:, None, None], phi1, phi2)
        pair = first[:, :, None, :, None] * phi1[:, None, :, None, :]
        # (trials, a, a, a, b, b, b), formed in the product buffer
        joint = np.multiply(pair[:, :, :, None, :, :, None], phi2[:, None, None, :, None, None, :],
                            out=self.product[:2 * n * self.spec.dim].view(complex).reshape(
                                (n,) + (a,) * 3 + (b,) * 3))
        joint = joint.reshape(n, a**3, b**3).view(np.float64).reshape(n, a**3, b**3, 2)
        x = self.states[:joint.size].reshape(n, a**3, 2, b**3)
        np.copyto(x, joint.transpose(0, 1, 3, 2))
        return x

    def __call__(self, rngs: Sequence[np.random.Generator], first_index: int) -> Block:
        spec = self.spec
        proto = spec.protocol
        labels, refs, step_u = _draw(rngs, spec.priors, proto.d_a * proto.d_b, spec.depth)
        n = len(labels)
        declared = np.empty(n, dtype=int)
        path = np.full((n, spec.depth), -1)
        if isinstance(proto.root, Leaf):
            declared[:] = proto.root.label
            return Block(labels, declared, path)
        todo = [(proto.root, self._states(labels, refs), np.arange(n), 1.0, 0)]
        while todo:
            node, x, rows, norm2, level = todo.pop()
            op = node.plane_action
            m, r = op.shape[:2]
            t = len(rows)
            # every outcome's branch of every trial: (elements, trials, d_a^3 * 2 * d_b^3)
            out = self.product[:m * x.size]
            if node.party == ALICE:
                flat = np.matmul(op[:, None], x.reshape(t, r, -1), out=out.reshape(m, t, r, -1))
            else:
                flat = np.matmul(x.reshape(-1, r), op, out=out.reshape(m, -1, r))
            flat = flat.reshape(m, t, -1)
            branch_norm2 = np.vecdot(flat, flat)
            probs = branch_norm2 / norm2
            idx = _sample(probs, step_u[rows, level], rows, first_index, node.party)
            path[rows, level] = idx
            # the trials grouped by outcome, ascending within a group
            order = idx.argsort(kind="stable")
            picks = idx[order] * t + order   # the chosen branches' rows of flat
            chosen = probs.take(picks)
            rows = rows[order]
            if chosen.min() < BRANCH_PROB_FLOOR:
                j = np.argmin(np.where(chosen < BRANCH_PROB_FLOOR, rows, n))   # the first such trial
                raise TrialAbort(f"trial {first_index + rows[j]}: sampled branch with probability "
                                 f"{chosen[j]!r}")
            if not all(isinstance(child, Leaf) for child in node.successors):
                # picks are in range: "clip" only skips the buffering of the default mode
                kept = flat.reshape((m * t,) + x.shape[1:]).take(picks, axis=0, mode="clip", out=x)
                norm2 = branch_norm2.take(picks)
            ends = np.bincount(idx, minlength=m).cumsum().tolist()
            for child, lo, hi in zip(node.successors, [0] + ends, ends):
                if hi == lo:
                    continue
                if isinstance(child, Leaf):
                    declared[rows[lo:hi]] = child.label
                else:
                    todo.append((child, kept[lo:hi], rows[lo:hi], norm2[lo:hi], level + 1))
        return Block(labels, declared, path)


TrialSpec = Union[GlobalTrialSpec, LoccTrialSpec]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words, filled and cross-mixed with hashmix, and output words drawn
# from the pool by a second multiplicative hash.  All arithmetic is mod 2^32.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# Trials seeded per window: the window's states, 4 uint64 words per trial,
# take at most BLOCK_STATE_BYTES (4096 trials).
_SEED_WINDOW = BLOCK_STATE_BYTES // (4 * np.dtype(np.uint64).itemsize)


def _words(x: int) -> list[int]:
    """Little-endian uint32 words of x >= 0, as SeedSequence splits it (0 is one word)."""
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiply constants of count successive hash steps, as (count, 1) columns.

    Step k xors with c_k and multiplies by c_(k+1), where c_0 = init and
    c_(k+1) = c_k * mult.
    """
    const = [init]
    for _ in range(count):
        const.append(const[-1] * mult & _MASK32)
    table = np.array(const, np.uint32)[:, None]
    return table[:-1], table[1:]


def _seed_states(seed: int, lo: int, hi: int) -> np.ndarray:
    """SeedSequence((seed, i)).generate_state(4, np.uint64) for i in [lo, hi), as (hi - lo, 4).

    The indices must share their words above the lowest, so that every row
    hashes the same number of entropy words: [lo, hi) lies within one
    multiple of 2^32.  The pool is hashed as one (4, hi - lo) array, a row per
    pool word.  The first row is checked against numpy's own SeedSequence,
    which also rejects a negative seed with its ValueError.
    """
    expected = SeedSequence((seed, lo)).generate_state(4, np.uint64)
    n = hi - lo
    seed_words = _words(seed)
    words = seed_words + [lo & _MASK32] + (_words(lo >> 32) if lo >> 32 else [])
    # a row per entropy word, the trials' indices in the row of their lowest
    # word; a short entropy array fills the pool with hashmix(0)
    entropy = np.zeros((max(len(words), _POOL_SIZE), n), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(seed_words)] += np.arange(n, dtype=np.uint32)
    # hashmix steps: one per pool word, 3 per cross-mixing source, 4 per further word
    xor, mult = _constants(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))

    def hashmix(value: np.ndarray, k: int, count: int) -> np.ndarray:
        """Steps k, ..., k + count - 1, one per row of the result."""
        value = (value ^ xor[k:k + count]) * mult[k:k + count]
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    pool = hashmix(entropy[:_POOL_SIZE], 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], k, _POOL_SIZE - 1))
        k += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = mix(pool, hashmix(word, k, _POOL_SIZE))
        k += _POOL_SIZE
    # 8 output words, drawn from the pool words in turn
    xor, mult = _constants(_INIT_B, _MULT_B, 8)
    out = (np.tile(pool, (2, 1)) ^ xor) * mult
    out ^= out >> _XSHIFT
    # word pairs read little-endian, as generate_state(..., np.uint64) does
    states = np.ascontiguousarray(out.T, "<u4").view("<u8").astype(np.uint64, copy=False)
    if not np.array_equal(states[0], expected):
        raise RuntimeError(f"bulk seed states differ from numpy's SeedSequence at ({seed}, {lo})")
    return states


class _State(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed generate_state(4, np.uint64) row.

    PCG64's own set-seed then runs on it, so the generator is the one that
    default_rng((seed, i)) builds.
    """

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise RuntimeError(f"PCG64 asked for {n_words} words of {dtype}, not 4 of uint64")
        return self.row


def _block_rngs(seed: int, start: int, stop: int,
                size: int) -> Iterator[tuple[int, list[np.random.Generator]]]:
    """(lo, generators of trials lo, lo + 1, ...) for blocks of at most size trials.

    Trial i gets the generator default_rng((seed, i)) would give.  The seed
    states are hashed a window at a time; a window ends at each multiple of
    2^32, and its generators are built one block at a time.
    """
    lo = start
    while lo < stop:
        hi = min(stop, lo + _SEED_WINDOW, ((lo >> 32) + 1) << 32)
        states = _seed_states(seed, lo, hi)
        for a in range(0, hi - lo, size):
            yield lo + a, [Generator(PCG64(_State(row))) for row in states[a:a + size]]
        lo = hi


def _run_chunk(spec: TrialSpec, seed: int, start: int, stop: int) -> tuple[int, int, int]:
    size = max(1, BLOCK_STATE_BYTES // (np.dtype(complex).itemsize * spec.dim))
    # an LOCC walker's arrays serve every block of the chunk and go with it
    run_block = _Walker(spec, size) if isinstance(spec, LoccTrialSpec) else spec.run_block
    successes = errors = inconclusive = 0
    for lo, rngs in _block_rngs(seed, start, stop, size):
        block = run_block(rngs, lo)
        hits = int(np.count_nonzero(block.declared == block.labels))
        blanks = int(np.count_nonzero(block.declared == 0))
        successes += hits
        inconclusive += blanks
        errors += len(rngs) - hits - blanks
    return successes, errors, inconclusive


def _chunk_worker(conn, spec: TrialSpec, seed: int, start: int, stop: int) -> None:
    """Body of a forked batch worker: send (True, counts) or (False, exception)."""
    try:
        result = (True, _run_chunk(spec, seed, start, stop))
    except Exception as exc:  # handed to the caller, which raises it
        result = (False, exc)
    try:
        conn.send(result)
    except BrokenPipeError:
        pass  # the caller stopped listening after an error of its own
    finally:
        conn.close()


def run_batch(spec: TrialSpec, n: int, seed: int, workers: int = 1,
              target: float | None = None) -> BatchStats:
    """Run n independent trials; results do not depend on the worker count.

    The trials are split into min(workers, n) consecutive chunks.  The caller
    runs the first chunk itself while one forked process per remaining chunk
    runs the rest and sends its counts back through a pipe.  The results are
    read in chunk order, a worker's exception is raised in the caller, and
    every pipe is closed and every process reaped before run_batch returns.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    bounds = np.linspace(0, n, min(workers, n) + 1, dtype=int).tolist()
    procs, pipes = [], []
    try:
        if len(bounds) > 2:
            # fork explicitly: the workers inherit the spec and numpy.random
            fork = multiprocessing.get_context("fork")
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                recv, send = fork.Pipe(duplex=False)
                pipes.append(recv)
                procs.append(fork.Process(target=_chunk_worker, args=(send, spec, seed, lo, hi)))
                procs[-1].start()
                send.close()   # the worker holds the only writer, so its exit ends the pipe
        parts = [_run_chunk(spec, seed, 0, bounds[1])]
        for k, (recv, proc) in enumerate(zip(pipes, procs), 1):
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"batch worker for chunk {k} (trials {bounds[k]} to {bounds[k + 1]}) exited "
                    f"with code {proc.exitcode} without a result") from None
            if not ok:
                raise value
            parts.append(value)
    finally:
        for recv in pipes:
            recv.close()
        for proc in procs:
            proc.join()
    successes, errors, inconclusive = map(sum, zip(*parts))
    return BatchStats.from_counts(n, successes, errors, inconclusive, target)
