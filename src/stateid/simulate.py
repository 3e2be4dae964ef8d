"""Haar-random state sampling and Monte Carlo execution of measurement schemes.

A trial draws the true label from the priors and both reference states from
the unitary-invariant (Haar) distribution, and samples outcomes with the exact
Born probabilities of its product state a step at a time down a tree; a global
POVM is the tree of one step.  Trials run in blocks: each trial draws its own
variates, and the block does the rest on stacked arrays.

No block forms a product state.  A trial follows the path to a node (a prefix
of the tree) with probability <psi| E |psi> for an E in the real span of the
permutation operators P_pi, so each spec keeps, from when it is made, a row
of E's coordinates per prefix (weights) and the tree's steps and leaves
(nodes).  One block body (_run_block) computes a block's invariants <psi| P
|psi> (invariants, the one rule for them, which checks.no_error reads too),
every prefix probability in one matrix product, and samples each step from
the ratios P(child)/P(step); one trial body (_run_trial) reads a trial's
transcript from the nodes.  A label-L trial's state psi = phi_L (x) phi_1 (x)
phi_2 has <psi| P_pi |psi> = 1 for the identity and for the swap of the two
systems that hold phi_L, and s = |<phi_1|phi_2>|^2 for the other four P_pi
on (C^d)^x3: a global POVM's rows are its elements' coordinates (povm.Povm),
and a block needs one overlap per trial.  An LOCC prefix's E is A^dag A (x)
B^dag B for Alice's and Bob's Kraus products A and B on the path, its row the
coordinates c (x) e they multiply out to (protocol.path_prefixes), and its
probability sum c_pi e_sigma f(pi, sigma) over the 36 invariants f(pi,
sigma) = <psi| P_pi^A (x) P_sigma^B |psi>.  For a product of systems s with
(d_a, d_b) coefficient matrices M_s, f is the product over the cycles (p,
tau(p), ...) of tau = pi^-1 sigma of tr(X_{p,sigma(p)} X_{tau(p),sigma(tau(p))}
...), with X_{s,q} = conj(M_s) M_q^T (local-unitary invariants as in E.
Rains, arXiv:quant-ph/9704042).

Determinism contract: trial i of a batch uses the generator seeded with
(base_seed, i), so batch results are identical for any worker count and any
block size.  A trial draws, in this order, the label uniform; the 4*d
standard normals of both references (real then imaginary parts of the first,
then of the second); and one uniform per step of the deepest path of the tree
(1 for a global POVM).  A step at level k of the tree reads the k-th of those
uniforms.  These are the numbers that drawing each value as it is needed
would give: a Generator keeps no state between calls for normals or
uniforms.  Outcome sampling is inverse-CDF over the ordered element list.
A chunk of a batch hashes the seeds (seed, i) of a window of trials at once
(_seed_states) and hands each row to numpy's own PCG64 set-seed.

A batch on several workers is split into consecutive chunks (chunk_bounds),
at most one per usable CPU and only as many as hold MIN_FORK_CHUNK trials
each, the fewest that repay a fork (see MIN_FORK_CHUNK for the measurement).
A batch of one chunk runs in the caller, starts no process and does not
import multiprocessing.  Otherwise the caller runs the first chunk while one
forked process per further chunk runs the rest and sends its counts back
through a pipe.  The fork method is named whatever the
platform's default, so the workers inherit the trial spec and numpy.random
instead of unpickling and importing them.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from numbers import Integral
from typing import NamedTuple, Union

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .minerr import Priors
from .povm import Povm
from .protocol import Leaf, LoccProtocol, path_prefixes
from .symmetry import RELABEL, S3, S3_PERMUTATIONS

PROB_SUM_ATOL = 1e-8
BRANCH_PROB_FLOOR = 1e-12
# Bytes of a global block's complex references (1024 trials at d = 4), of
# an LOCC block's prefix probabilities (442 trials for a tree of 37 prefixes),
# and of a window's seed states (4096 trials).  An LOCC block's other arrays
# take a few times its probabilities; whole windows as LOCC blocks raised the
# peak memory of each batch process by about 4 MB at (2,2).
BLOCK_STATE_BYTES = 128 * 1024
# Bytes of an LOCC block's (2, 2, d_a, d_a) complex invariant factors
# (_invariants): 1820 trials at d_a = 3, more than the prefix rows of any
# tree allow, and 18 at d_a = 30, where blocks of 606 trials peaked at 153 MB.
INVARIANT_BLOCK_BYTES = 8 * BLOCK_STATE_BYTES
# Fewest trials per chunk for which run_batch forks: the smallest chunk at
# which two workers beat one in median wall time by more than the spread of
# the runs, at both (2,2) and (3,3), one batch per fresh interpreter (2 CPUs,
# 1 BLAS thread).  Two chunks of 3000 trials won x0.84-1.21 at (2,2), within
# that spread; two of 4000 won x1.09-1.31 at both.  The first fork of a
# process also loads multiprocessing (about 6 ms), and each forked worker cost
# 13-36 ms of CPU in a fresh interpreter, which is what the CLI runs, so one
# floor for every spec has to repay that on the cheapest trials.
MIN_FORK_CHUNK = 4000


class TrialAbort(RuntimeError):
    """A trial hit a numerical guard (non-unit outcome mass or dead branch)."""


@dataclass(frozen=True)
class TrialRecord:
    true_label: int
    declared_label: int
    transcript: tuple
    trial_index: int


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
    """True labels (n,), unit references (n, 2, d) and step uniforms (n,
    depth), each trial from its own generator in the contract order."""
    n = len(rngs)
    label_u = np.empty(n)
    normals = np.empty((n, 2, 2, d))
    step_u = np.empty((n, depth))
    for j, rng in enumerate(rngs):
        label_u[j] = rng.random()
        rng.standard_normal(out=normals[j])
        rng.random(out=step_u[j])
    return np.where(label_u < priors.eta1, 1, 2), haar_refs(normals), step_u


def haar_refs(normals: np.ndarray) -> np.ndarray:
    """Unit references (n, 2, d) from standard normals (n, 2, 2, d) indexed
    [trial, reference, re/im]: each the normalized complex Gaussian vector,
    a Haar-random state."""
    refs = normals[:, :, 0] + 1j * normals[:, :, 1]
    refs /= np.linalg.norm(refs, axis=-1, keepdims=True)
    return refs


def _run_block(spec: TrialSpec, rngs: Sequence[np.random.Generator],
               first_index: int = 0) -> Block:
    """The block body of both specs: trials first_index, ... from rngs in turn."""
    labels, refs, step_u = _draw(rngs, spec.priors, spec.d, spec.depth)
    f = spec.invariants(labels, refs)
    probs = spec.weights @ f
    # each prefix probability sums terms of total size |weights[k]| @ |f|,
    # and carries a rounding error of about 1e-16 times that size
    sizes = np.abs(spec.weights) @ np.abs(f)
    declared = np.empty_like(labels)
    path = np.full((len(labels), spec.depth), -1)
    # (prefix, its trials in ascending order, level), a level at a time
    todo = [(0, np.arange(len(labels)), 0)]
    for k, rows, level in todo:
        if not isinstance(spec.nodes[k], tuple):
            declared[rows] = spec.nodes[k]
            continue
        party, _, children = spec.nodes[k]
        ratios = probs[children][:, rows] / probs[k, rows]
        cum = ratios.cumsum(axis=0)
        # the children must sum to P(step) within PROB_SUM_ATOL times the
        # size of its terms: in units of P(step), for the ratios
        bad = ~(np.abs(cum[-1] - 1.0) <= PROB_SUM_ATOL * sizes[k, rows] / probs[k, rows])
        if bad.any():   # NaN fails it too
            j = np.flatnonzero(bad)[0]
            raise TrialAbort(f"trial {first_index + rows[j]} at {party}: outcome probabilities "
                             f"sum to {float(cum[-1, j])}")
        # inverse CDF: searchsorted(cum, u, side="right") per trial, clipped to the last child
        idx = np.minimum((cum <= step_u[rows, level]).sum(axis=0), len(children) - 1)
        path[rows, level] = idx
        chosen = ratios[idx, np.arange(len(rows))]
        if not chosen.min() >= BRANCH_PROB_FLOOR:   # NaN fails it too
            j = np.flatnonzero(~(chosen >= BRANCH_PROB_FLOOR))[0]
            raise TrialAbort(f"trial {first_index + rows[j]}: sampled branch with probability "
                             f"{float(chosen[j])}")
        for i, child in enumerate(children):
            if (picked := rows[idx == i]).size:
                todo.append((child, picked, level + 1))
    return Block(labels, declared, path)


def _run_trial(spec: TrialSpec, rng: np.random.Generator, trial_index: int = 0) -> TrialRecord:
    """One trial, its transcript read from the nodes: the trial body of both specs."""
    block = spec.run_block([rng], trial_index)
    transcript, k = [], 0
    while isinstance(spec.nodes[k], tuple):
        party, outcomes, children = spec.nodes[k]
        i = block.path[0, len(transcript)]
        transcript.append((party, outcomes[i]))
        k = children[i]
    return TrialRecord(int(block.labels[0]), int(block.declared[0]), tuple(transcript),
                       trial_index)


@dataclass(frozen=True)
class GlobalTrialSpec:
    """A global POVM on the triple space as the tree of one step: weights[0]
    holds the identity's coordinates and weights[e] the e-th element's,
    nodes[0] is the step ("global", the POVM's labels, rows 1, 2, ...) and
    nodes[e] the e-th label.  A POVM on a split (dims not (d,)): ValueError."""

    povm: Povm
    d: int
    priors: Priors
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    nodes: tuple = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.povm.dims != (self.d,):
            raise ValueError(f"a global trial at d = {self.d} needs a POVM with dims "
                             f"({self.d},), got {self.povm.dims}")
        labels = self.povm.labels
        tree = (np.array([S3.identity, *self.povm.elements.values()], float),
                (("global", labels, list(range(1, len(labels) + 1))), *map(int, labels)), 1)
        for name, value in zip(("weights", "nodes", "depth"), tree):
            object.__setattr__(self, name, value)

    @property
    def block_trials(self) -> int:
        """Trials per block: their references take BLOCK_STATE_BYTES."""
        return max(1, BLOCK_STATE_BYTES // (2 * self.d * np.dtype(complex).itemsize))

    def invariants(self, labels: np.ndarray, refs: np.ndarray) -> np.ndarray:
        return invariants(labels, refs, self.povm.dims)

    run_block = _run_block
    run = _run_trial


# System s of a label-1 trial holds reference _HOLDER[s] of its pair (the
# input's reference, the other).
_HOLDER = (0, 0, 1)


def _invariant_words() -> tuple[tuple, tuple, np.ndarray]:
    """The trace words, each a cycle's pairs (r, q) of references whose X_{r,q}
    are multiplied, in its least rotation; the invariants grouped by cycle
    count, as (rows, their words); and the rows of a label-2 trial, whose state
    is P_g (input, input, other) for the swap g of systems 1 and 2."""
    words: dict[tuple, int] = {}
    groups: dict[int, tuple[list, list]] = {}
    for i, pi in enumerate(S3_PERMUTATIONS):
        for j, sigma in enumerate(S3_PERMUTATIONS):
            tau = [pi.index(sigma[p]) for p in range(3)]
            # the cycle of each orbit of tau: (p, tau(p), tau^2(p)) cut to the orbit's size
            orbits = ((p, tau[p], tau[tau[p]]) for p in range(3))
            term = []
            for cycle in {min(orbit): orbit[:len(set(orbit))] for orbit in orbits}.values():
                word = tuple((_HOLDER[p], _HOLDER[sigma[p]]) for p in cycle)
                word = min(word[k:] + word[:k] for k in range(len(word)))
                term.append(words.setdefault(word, len(words)))
            rows, factors = groups.setdefault(len(term), ([], []))
            rows.append(6 * i + j)
            factors.append(term)
    return (tuple(words), tuple((np.array(rows), np.array(factors))
                                for rows, factors in groups.values()),
            (6 * RELABEL[:, None] + RELABEL).ravel())


_WORDS, _TERMS, _RELABEL = _invariant_words()


def invariants(labels: np.ndarray, refs: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """The invariants of the states psi = phi_L (x) phi_1 (x) phi_2 of labels
    (n,) and unit references (n, 2, prod(dims)), a column per trial, so that
    an element of coordinates or table c has <psi| E |psi> = c.ravel() @ f.
    On (C^d)^x3, dims = (d,), <psi| S3_PERMUTATIONS[i] |psi> in row i: 1 for
    the identity and the swap of systems 0 and L, which hold phi_L, and s =
    |<phi_1|phi_2>|^2 for the rest; on a split, dims = (d_a, d_b), the 36 of
    _invariants."""
    if len(dims) == 2:
        return _invariants(labels, refs, *dims)
    overlap = np.vecdot(refs[:, 0], refs[:, 1])
    f = np.repeat((overlap.real**2 + overlap.imag**2)[None], 6, axis=0)
    f[0] = 1.0
    f[labels, np.arange(len(labels))] = 1.0
    return f


def _invariants(labels: np.ndarray, refs: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Re f(S3_PERMUTATIONS[i], S3_PERMUTATIONS[j]) in row 6 i + j, trials on
    the last axis of every intermediate; refs are (trials, 2, d)."""
    n = len(labels)
    first = labels == 1
    refs = refs.reshape(n, 2, d_a, d_b)
    # the pair (the input's reference, the other) as (d_b, 2, d_a, trials)
    pair = np.ascontiguousarray(
        np.where(first[:, None, None, None], refs, refs[:, ::-1]).transpose(3, 1, 2, 0))
    # x[r, q] = conj(M_r) M_q^T as (2, 2, d_a, d_a, trials), a column of M at a time
    x = np.zeros((2, 2, d_a, d_a, n), complex)
    for column in pair:
        x += column.conj()[:, None, :, None] * column[None, :, None, :]
    traces = np.empty((len(_WORDS), n), complex)
    for w, word in enumerate(_WORDS):
        prod = x[word[0]]
        for rq in word[1:-1]:
            prod = np.einsum("ijn,jkn->ikn", prod, x[rq])
        # the trace of prod times the last factor, without forming the product
        traces[w] = np.trace(prod) if len(word) == 1 else (
            prod * x[word[-1]].transpose(1, 0, 2)).sum(axis=(0, 1))
    f = np.empty((len(_RELABEL), n))
    for rows, factors in _TERMS:
        prod = traces[factors[:, 0]]
        for column in factors.T[1:]:
            prod *= traces[column]
        f[rows] = prod.real
    f[:, ~first] = f[_RELABEL][:, ~first]
    return f


def _prefixes(protocol: LoccProtocol) -> tuple[np.ndarray, tuple, int]:
    """The weights, nodes and depth of LoccTrialSpec."""
    weights, nodes, index = [], [], {}
    for k, (node, w, path) in enumerate(path_prefixes(protocol)):
        weights.append(w.ravel())
        nodes.append(node.label if isinstance(node, Leaf) else (node.party, node.labels, []))
        index[path] = k
        if path:
            nodes[index[path[:-1]]][2].append(k)
    return np.array(weights), tuple(nodes), max(map(len, index))


@dataclass(frozen=True)
class LoccTrialSpec:
    """Sequential execution of an LOCC protocol tree, from a row per path prefix
    (protocol.path_prefixes order): weights[k] = c (x) e, the coordinates of
    its A^dag A and B^dag B on the permutation operators, as the tree's own
    coordinates multiply out, and nodes[k], a step's (party, outcome labels,
    children's rows) or a leaf's label.  depth counts the steps of the
    longest path.
    """

    protocol: LoccProtocol
    priors: Priors
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    nodes: tuple = field(init=False, repr=False, compare=False)
    depth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in zip(("weights", "nodes", "depth"), _prefixes(self.protocol)):
            object.__setattr__(self, name, value)

    @property
    def block_trials(self) -> int:
        """Trials per block: their prefix probabilities take at most
        BLOCK_STATE_BYTES, and their invariant factors INVARIANT_BLOCK_BYTES."""
        factor_bytes = 4 * self.protocol.d_a**2 * np.dtype(complex).itemsize
        return max(1, min(BLOCK_STATE_BYTES // (np.dtype(float).itemsize * len(self.nodes)),
                          INVARIANT_BLOCK_BYTES // factor_bytes))

    @property
    def d(self) -> int:
        return self.protocol.d_a * self.protocol.d_b

    def invariants(self, labels: np.ndarray, refs: np.ndarray) -> np.ndarray:
        return invariants(labels, refs, (self.protocol.d_a, self.protocol.d_b))

    run_block = _run_block
    run = _run_trial


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


class _Generators(Sequence):
    """Generators of consecutive trials, each built as it is read from its seed state."""

    def __init__(self, states: np.ndarray):
        self.states = states

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, j: int) -> np.random.Generator:
        return Generator(PCG64(_State(self.states[j])))


def _block_rngs(seed: int, start: int, stop: int,
                size: int) -> Iterator[tuple[int, Sequence[np.random.Generator]]]:
    """(lo, generators of trials lo, lo + 1, ...) for blocks of at most size trials.

    Trial i gets the generator default_rng((seed, i)) would give.  The seed
    states are hashed a window at a time; a window ends at each multiple of
    2^32, and a generator is built when its block reads it.
    """
    lo = start
    while lo < stop:
        hi = min(stop, lo + _SEED_WINDOW, ((lo >> 32) + 1) << 32)
        states = _seed_states(seed, lo, hi)
        for a in range(0, hi - lo, size):
            yield lo + a, _Generators(states[a:a + size])
        lo = hi


def _run_chunk(spec: TrialSpec, seed: int, start: int, stop: int) -> tuple[int, int, int]:
    successes = errors = inconclusive = 0
    for lo, rngs in _block_rngs(seed, start, stop, spec.block_trials):
        block = spec.run_block(rngs, lo)
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def chunk_bounds(n: int, workers: int) -> list[int]:
    """[0, ..., n]: the bounds of the consecutive chunks of an n-trial batch.

    There are max(1, min(workers, usable CPUs, n // MIN_FORK_CHUNK)) chunks,
    of sizes that differ by at most one, so each chunk of a batch of several
    holds at least MIN_FORK_CHUNK trials.
    """
    chunks = max(1, min(workers, _usable_cpus(), n // MIN_FORK_CHUNK))
    return [n * k // chunks for k in range(chunks + 1)]


def check_batch(n: int, workers: int) -> None:
    """The one batch rule: n trials and workers, each an integer >= 1;
    otherwise ValueError, with one text."""
    if not all(isinstance(k, Integral) and k >= 1 for k in (n, workers)):
        raise ValueError(f"a batch needs n >= 1 trials and workers >= 1, each an integer, "
                         f"got n={n!r}, workers={workers!r}")


def run_batch(spec: TrialSpec, n: int, seed: int, workers: int = 1,
              target: float | None = None) -> BatchStats:
    """Run n independent trials; results do not depend on the worker count.

    The trials are split into the consecutive chunks of chunk_bounds: never
    more than the CPUs the batch may run on, and only as many as hold
    MIN_FORK_CHUNK trials each, the fewest that repay a fork.  A
    batch of one chunk runs in the caller, starts no process and imports no
    multiprocessing.  Otherwise the caller runs the first chunk itself while
    one forked process per remaining chunk runs the rest and sends its
    counts back through a pipe.  The results are read in chunk order, a
    worker's exception is raised in the caller, and every pipe is closed and
    every process reaped before run_batch returns.
    """
    check_batch(n, workers)
    bounds = chunk_bounds(n, workers)
    procs, pipes = [], []
    try:
        if len(bounds) > 2:
            # loaded only to fork; fork explicitly: the workers inherit the
            # spec and numpy.random
            import multiprocessing
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
