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
|psi> (invariants, the one rule for them, which checks.no_error reads too)
and every prefix probability in one matrix product, then walks the tree a
level per pass (_set_tree); one trial body (_run_trial) reads a trial's
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

Determinism contract: trial i of a batch uses the numbers of the generator
default_rng((base_seed, i)), so batch results are identical for any worker
count and any block size.  A trial draws, in this order, the label uniform;
the 4*d standard normals of both references (real then imaginary parts of
the first, then of the second); and one uniform per step of the deepest path
of the tree (1 for a global POVM).  A step at level k of the tree reads the
k-th of those uniforms.  These are the numbers that drawing each value as it
is needed would give: a Generator keeps no state between calls for normals
or uniforms.  Outcome sampling is inverse-CDF over the ordered element list.
The contract fixes the numbers, not the calls that make them.  A chunk of a
batch hashes the seeds (seed, i) of a window of trials at once
(_seed_states), and draws the window's numbers at once from those rows
(_bulk_draws): numpy's PCG64 set-seed and outputs on uint64 arrays,
uniforms from the top 53 bits of an output, and normals by numpy's
ziggurat.  Most trials read their normals from consecutive outputs, by its
fast path; the slow trials, with a normal off that path, whose next numbers
numpy takes from further outputs, continue their PCG64 streams and are
resolved together by its slow path (_draw_slow).  Only every trial above d =
8 (_BULK_NORMALS), whose numbers are drawn a block at a time, and the first
trial of each window, the canary that checks all its bulk numbers against
numpy's, are drawn from their own generators, numpy's PCG64 on their rows
(_State).

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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
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
# and of a window's seed states (4096 trials), whose numbers are drawn at once
# up to d = 8 and walked a block at a time.  An LOCC block's other arrays take a few times
# its probabilities; whole windows as LOCC blocks raised the peak memory of
# each batch process by about 4 MB at (2,2).
BLOCK_STATE_BYTES = 128 * 1024
# Bytes of an LOCC block's (2, 2, d_a, d_a) complex invariant factors
# (_invariants): 1820 trials at d_a = 3, more than the prefix rows of any
# tree allow, and 18 at d_a = 30, where blocks of 606 trials peaked at 153 MB.
INVARIANT_BLOCK_BYTES = 8 * BLOCK_STATE_BYTES
# Fewest trials per chunk for which run_batch forks: the smallest chunk at
# which two workers beat one in median wall time by more than the spread of
# the runs, at both (2,2) and (3,3), one batch per fresh interpreter (2 CPUs,
# 1 BLAS thread).  With a generator built for every trial, two chunks of 3000
# trials won x0.84-1.21 at (2,2), within that spread; two of 4000 won
# x1.09-1.31 at both.  The first fork of a process also loads multiprocessing
# (about 6 ms), and each forked worker cost 13-36 ms of CPU in a fresh
# interpreter, which is what the CLI runs, so one floor for every spec has to
# repay that on the cheapest trials.  Since blocks draw in bulk, two chunks
# of 4000 won x0.87-1.08 (median 1.02) at (2,2), within the spread, and
# x0.92-1.34 (1.10) at (3,3), 7 runs each.  Since blocks also walk the tree a
# level at a time, a 4000-trial min-error batch in one process takes a median
# 4.7 us per trial at (2,2) and 8.4 us at (3,3), 9 runs each.  Since a window
# also draws its slow-path trials on arrays, the same batch takes 5.9 us at
# (2,2) and 15.5 us at (3,3), against 8.5 and 16.9 us for the walk alone,
# measured together, 9 runs each, on a host that ran about 1.8 times slower:
# the floor is kept, and at (2,2) a fork repays itself less still.
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


def _draw(draws: tuple, priors: Priors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True labels (n,), unit references (n, 2, d) and step uniforms (n,
    depth) of n trials from their numbers draws, as _generator_draws and
    _bulk_draws give them."""
    label_u, normals, step_u = draws
    return np.where(label_u < priors.eta1, 1, 2), haar_refs(normals), step_u


def _generator_draws(rngs: Iterable, n: int, d: int,
                     depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label uniforms (n,), normals (n, 2, 2, d) and step uniforms (n,
    depth) of n trials, each drawn from its own generator in rngs in the
    contract order."""
    label_u, normals, step_u = np.empty(n), np.empty((n, 2, 2, d)), np.empty((n, depth))
    for j, rng in enumerate(rngs):
        label_u[j] = rng.random()
        rng.standard_normal(out=normals[j])
        rng.random(out=step_u[j])
    return label_u, normals, step_u


def haar_refs(normals: np.ndarray) -> np.ndarray:
    """Unit references (n, 2, d) from standard normals (n, 2, 2, d) indexed
    [trial, reference, re/im]: each the normalized complex Gaussian vector,
    a Haar-random state."""
    refs = normals[:, :, 0] + 1j * normals[:, :, 1]
    refs /= np.linalg.norm(refs, axis=-1, keepdims=True)
    return refs


def _run_block(spec: TrialSpec, rngs: Sequence, first_index: int = 0) -> Block:
    """The block body of both specs: trials first_index, ... of rngs, their
    seed states (n, 4) or their generators, which are walked as one slice.
    Seed states are walked in slices of spec.block_trials (_walk).  Up to
    _BULK_NORMALS normals a trial, a window's numbers are drawn at once, so
    that its slow trials are resolved together (_bulk_draws); above, each
    slice draws its own, so that a block's memory stays bounded at any d."""
    if not isinstance(rngs, np.ndarray):
        return _walk(spec, _generator_draws(rngs, len(rngs), spec.d, spec.depth), first_index)
    size = spec.block_trials
    drawn = len(rngs) if 4 * spec.d <= _BULK_NORMALS else size
    blocks = []
    for b in range(0, len(rngs), drawn):
        draws = _bulk_draws(rngs[b:b + drawn], spec.d, spec.depth)
        blocks += (_walk(spec, tuple(x[a:a + size] for x in draws), first_index + b + a)
                   for a in range(0, len(draws[0]), size))
    return Block(*map(np.concatenate, zip(*blocks)))


def _walk(spec: TrialSpec, draws: tuple, first_index: int) -> Block:
    """Trials first_index, ... of numbers draws (see _draw), a level at a time
    through spec.table, whose padding reads a zero row.  An abort names the
    lowest trial of the shallowest failing level, the sum check first."""
    labels, refs, step_u = _draw(draws, spec.priors)
    children, counts, leaves = spec.table
    node = np.zeros(len(labels), int)
    path = np.full((len(labels), spec.depth), -1)
    if spec.depth:   # a tree without a step reads no state
        f = spec.invariants(labels, refs)
        probs = np.zeros((len(spec.weights) + 1, len(labels)))
        np.matmul(spec.weights, f, out=probs[:-1])
        # each prefix probability sums terms of total size |weights[k]| @ |f|,
        # and carries a rounding error of about 1e-16 times that size
        sizes = np.abs(spec.weights) @ np.abs(f)
    level = 0
    # the trials still at a step, ascending, and their steps' rows
    while (rows := np.flatnonzero(counts[node])).size:
        k = node[rows]
        ratios = probs[children[k].T, rows] / probs[k, rows]
        cum = ratios.cumsum(axis=0)
        # the children must sum to P(step) within PROB_SUM_ATOL times the
        # size of its terms: in units of P(step), for the ratios
        bad = ~(np.abs(cum[-1] - 1.0) <= PROB_SUM_ATOL * sizes[k, rows] / probs[k, rows])
        if bad.any():   # NaN fails it too
            j = np.flatnonzero(bad)[0]
            raise TrialAbort(f"trial {first_index + rows[j]} at {spec.nodes[k[j]][0]}: outcome "
                             f"probabilities sum to {float(cum[-1, j])}")
        # inverse CDF: searchsorted(cum, u, side="right") per trial, clipped
        # to the last child; the padding's cumulative sums, 0, are all <= u
        idx = np.minimum((cum <= step_u[rows, level]).sum(axis=0), len(cum) - 1)
        chosen = ratios[idx, np.arange(len(rows))]
        if not chosen.min() >= BRANCH_PROB_FLOOR:   # NaN fails it too
            j = np.flatnonzero(~(chosen >= BRANCH_PROB_FLOOR))[0]
            raise TrialAbort(f"trial {first_index + rows[j]}: sampled branch with probability "
                             f"{float(chosen[j])}")
        path[rows, level] = idx - len(cum) + counts[k]
        node[rows] = children[k, idx]
        level += 1
    return Block(labels, leaves[node], path)


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


def _set_tree(spec: TrialSpec, weights: np.ndarray, nodes: tuple, depth: int) -> None:
    """Set a spec's tree: weights, a row per prefix; nodes, a step's (party,
    outcome labels, children's rows) or a leaf's label; depth, the steps of
    its longest path; and table, per prefix its children's rows after padding
    len(nodes) (a block's zero row), its count of them and its leaf's label."""
    kids = [node[2] if isinstance(node, tuple) else [] for node in nodes]
    children = np.full((len(nodes), max(map(len, kids))), len(nodes))
    for k, row in enumerate(kids):
        children[k, len(children[k]) - len(row):] = row
    table = (children, np.array(list(map(len, kids))),
             np.array([0 if isinstance(node, tuple) else node for node in nodes]))
    vars(spec).update(weights=weights, nodes=nodes, depth=depth, table=table)


@dataclass(frozen=True)
class GlobalTrialSpec:
    """A global POVM on the triple space as the tree of one step: weights[0]
    holds the identity's coordinates and weights[e] the e-th element's,
    nodes[0] is the step ("global", the POVM's labels, rows 1, 2, ...) and
    nodes[e] the e-th label.  A POVM on a split (dims not (d,)): ValueError."""

    povm: Povm
    d: int
    priors: Priors

    def __post_init__(self) -> None:
        if self.povm.dims != (self.d,):
            raise ValueError(f"a global trial at d = {self.d} needs a POVM with dims "
                             f"({self.d},), got {self.povm.dims}")
        labels = self.povm.labels
        _set_tree(self, np.array([S3.identity, *self.povm.elements.values()], float),
                  (("global", labels, list(range(1, len(labels) + 1))), *map(int, labels)), 1)

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


@dataclass(frozen=True)
class LoccTrialSpec:
    """Sequential execution of an LOCC protocol tree (_set_tree), a row per
    path prefix (protocol.path_prefixes order): weights[k] = c (x) e, the
    coordinates of its A^dag A and B^dag B on the permutation operators, as
    the tree's own coordinates multiply out."""

    protocol: LoccProtocol
    priors: Priors

    def __post_init__(self) -> None:
        weights, nodes, index = [], [], {}
        for k, (node, w, path) in enumerate(path_prefixes(self.protocol)):
            weights.append(w.ravel())
            nodes.append(node.label if isinstance(node, Leaf) else (node.party, node.labels, []))
            index[path] = k
            if path:
                nodes[index[path[:-1]]][2].append(k)
        _set_tree(self, np.array(weights), tuple(nodes), max(map(len, index)))

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
# Trials seeded and drawn per window: the window's states, 4 uint64 words per
# trial, take at most BLOCK_STATE_BYTES (4096 trials).
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
                size: int) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, seed states of trials lo, lo + 1, ...) for blocks of at most size trials.

    Trial i gets the row SeedSequence((seed, i)).generate_state(4,
    np.uint64), from which default_rng((seed, i)) is built.  The rows are
    hashed a window at a time; a window ends at each multiple of 2^32.
    """
    lo = start
    while lo < stop:
        hi = min(stop, lo + _SEED_WINDOW, ((lo >> 32) + 1) << 32)
        states = _seed_states(seed, lo, hi)
        for a in range(0, hi - lo, size):
            yield lo + a, states[a:a + size]
        lo = hi


# numpy's PCG64 (numpy/random/src/pcg64): a 128-bit LCG, state' = state *
# _PCG_MULT + inc mod 2^128, and each output the XSL-RR of the state after a
# step (O'Neill, HMC-CS-2014-0905).  Set-seed from a row (s_hi, s_lo, q_hi,
# q_lo) sets inc = 2 q + 1 and state = (s + inc) * _PCG_MULT + inc.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
# numpy's ziggurat for standard normals (Marsaglia & Tsang, J. Stat. Softw.
# 5(8), 2000; numpy/random/src/distributions): an output r gives idx = r &
# 0xff, a sign bit r >> 8 & 1, rabs = r >> 9 & (2^52 - 1) and x = +-rabs *
# _WI[idx].  The normal is x when rabs < _KI[idx], the fast path.  Otherwise
# it takes the slow path.  At idx > 0, the wedge, it reads one more output u
# as a uniform, and is x if (_FI[idx - 1] - _FI[idx]) u + _FI[idx] < exp(-x
# x / 2).  At idx 0, the tail, it reads pairs of uniforms u1, u2 until yy + yy
# > xx xx, for xx = -_ZIG_INV_R log1p(-u1) and yy = -log1p(-u2), and is
# +-(_ZIG_R + xx), its sign bit rabs >> 8 & 1.  A rejected wedge starts again
# at the next output.  exp and log1p are the C library's, as in numpy, so they
# are called through math: numpy's own exp may differ in the last bit.  The
# tables are numpy's ki_double, wi_double and fi_double; _FI is not derived,
# as exp(-(_WI[i] 2^52)^2 / 2) misses it at i = 0 and 38.  Tests in
# tests/test_simulate.py::TestBulkDraws recover every entry and both constants
# from numpy's own sampler.  The tables are written as strings, which compile
# in a tenth of the time of 768 number literals (every import compiles this
# module when bytecode is not written).
_ZIG_R, _ZIG_INV_R = 3.654152885361009, 0.2736612373297583
_KI = np.array("""
    4208095142473578 0 3387314423973544 3838760076542274 4030768804392682
    4136731738896254 4203757248105145 4249917568205994 4283617341590296 4309289223136604
    4329489775174550 4345795907393188 4359232558744730 4370494503737299 4380069246215646
    4388308869042394 4395473957549321 4401761481783924 4407323076021240 4412277362218204
    4416718463613199 4420722014516422 4424349484777079 4427651345409294 4430669422005229
    4433438668975191 4435988524278344 4438343955930065 4440526279077425 4442553800234660
    4444442329865861 4446205593658138 4447855565093316 4449402736340121 4450856340408624
    4452224534496486 4453514552210512 4454732830656798 4455885117109368 4456976558985043
    4458011780094444 4458994945550386 4459929817254120 4460819801517196 4461667990089170
    4462477195632268 4463249982500384 4463988693531856 4464695473445501 4465372289331869
    4466020948651920 4466643115089764 4467240322552142 4467813987562542 4468365420260672
    4468895834186994 4469406355006040 4469898028300364 4470371826548633 4470828655385770
    4471269359229841 4471694726349190 4472105493433674 4472502349725738 4472885940759935
    4473256871753524 4473615710685532 4473962991097124 4474299214642296 4474624853414418
    4474940352071305 4475246129778808 4475542581990776 4475830082081194 4476108982842610
    4476379617863426 4476642302795321 4476897336520866 4477145002230339 4477385568415884
    4477619289790266 4477846408136804 4478067153096380 4478281742896886 4478490385029917
    4478693276879082 4478890606303906 4479082552182886 4479269284918997 4479450966910588
    4479627752990372 4479799790834988 4479967221347354 4480130179013872 4480288792238368
    4480443183654460 4480593470417939 4480739764480586 4480882172846772 4481020797814010
    4481155737198612 4481287084547452 4481414929336784 4481539357158974 4481660449897960
    4481778285894165 4481892940099539 4482004484223382 4482112986869492 4482218513665204
    4482321127382802 4482420888053758 4482517853076245 4482612077316275 4482703613202871
    4482792510817576 4482878817978627 4482962580320076 4483043841366126 4483122642600925
    4483199023534056 4483273021761922 4483344673025224 4483414011262724 4483481068661428
    4483545875703378 4483608461209170 4483668852378323 4483727074826624 4483783152620564
    4483837108308932 4483888962951686 4483938736146144 4483986446050596 4484032109405372
    4484075741551420 4484117356446452 4484156966678662 4484194583478081 4484230216725550
    4484263874959345 4484295565379450 4484325293849474 4484353064896186 4484378881706674
    4484402746123075 4484424658634833 4484444618368474 4484462623074794 4484478669113436
    4484492751434740 4484504863558830 4484514997551788 4484523143998833 4484529291974394
    4484533429008906 4484535541052219 4484535612433424 4484533625816926 4484529562154580
    4484523400633636 4484515118620291 4484504691598554 4484492093104164 4484477294653230
    4484460265665252 4484440973380154 4484419382768918 4484395456437370 4484369154522621
    4484340434581640 4484309251471359 4484275557219678 4484239300886654 4484200428415112
    4484158882469814 4484114602264271 4484067523374160 4484017577536216 4483964692431365
    4483908791450714 4483849793442887 4483787612441036 4483722157367660 4483653331715198
    4483581033200083 4483505153387764 4483425577285833 4483342182902157 4483254840764470
    4483163413397547 4483067754753536 4482967709590562 4482863112794072 4482753788634692
    4482639549955636 4482520197281720 4482395517841076 4482265284489409 4482129254525304
    4481987168383486 4481838748191074 4481683696169781 4481521692864464 4481352395175570
    4481175434169564 4480990412637506 4480796902367134 4480594441088331 4480382529045225
    4480160625140311 4479928142586662 4479684443993061 4479428835793398 4479160561915451
    4478878796564388 4478582635972392 4478271088936406 4477943065929958 4477597366530538
    4477232664848704 4476847492576192 4476440219183781 4476009028690434 4475551892286424
    4475066535915646 4474550401693506 4474000601739904 4473413862618200 4472786458058295
    4472114126959004 4471391972746494 4470614338917719 4469774653883156 4468865235838896
    4467877045039530 4466799366045354 4465619395558397 4464321701199635 4462887501169282
    4461293691124341 4459511507635972 4457504658253067 4455226650325010 4452616884242348
    4449594783440798 4446050695647666 4441831266659618 4436714892174061 4430368316897338
    4422264825074740 4411517007702132 4396496531309976 4373832704204284 4335125104963628
    4251099761679434
""".split(), np.uint64)
_WI = np.array("""
    8.683627060801306e-16 4.779330175727737e-17 6.354352417405262e-17 7.454870481247696e-17
    8.3293668157931e-17 9.068060405059482e-17 9.714860076567762e-17 1.0294750314241019e-16
    1.0823430288447684e-16 1.131147019610903e-16 1.176635945702292e-16 1.2193617278714363e-16
    1.2597439914637093e-16 1.2981099886264032e-16 1.3347203736824123e-16 1.3697864842571203e-16
    1.4034823001242382e-16 1.4359529452056943e-16 1.4673208742364422e-16 1.4976904668391037e-16
    1.5271515003596198e-16 1.5557818169460764e-16 1.5836494009290885e-16 1.6108140175274928e-16
    1.6373285203969853e-16 1.6632399058420835e-16 1.6885901708676596e-16 1.713417017655966e-16
    1.737754436586486e-16 1.7616331923000996e-16 1.7850812316976727e-16 1.8081240285799152e-16
    1.830784876482675e-16 1.853085138861802e-16 1.8750444639373882e-16 1.896680970077476e-16
    1.918011406483862e-16 1.9390512930625104e-16 1.9598150426628824e-16 1.9803160683128174e-16
    2.000566877627333e-16 2.0205791562071654e-16 2.0403638415480212e-16 2.0599311887403706e-16
    2.079290829041402e-16 2.0984518222370352e-16 2.1174227035760342e-16 2.1362115259449868e-16
    2.1548258978581458e-16 2.1732730177564367e-16 2.191559705042727e-16 2.2096924282235318e-16
    2.2276773304789553e-16 2.2455202529414355e-16 2.263226755928568e-16 2.280802138345017e-16
    2.2982514554424684e-16 2.3155795351040804e-16 2.3327909928004356e-16 2.3498902453470955e-16
    2.3668815235791604e-16 2.3837688840454243e-16 2.4005562198135063e-16 2.4172472704675025e-16
    2.433845631371103e-16 2.4503547622614954e-16 2.466777995232705e-16 2.4831185421610877e-16
    2.4993795016204524e-16 2.515563865329658e-16 2.5316745241713583e-16 2.547714273816944e-16
    2.563685819989397e-16 2.579591783392867e-16 2.5954347043351707e-16 2.6112170470670194e-16
    2.6269412038597256e-16 2.6426094988411895e-16 2.658224191608307e-16 2.6737874806323633e-16
    2.689301506472616e-16 2.704768354811995e-16 2.720190059327732e-16 2.735568604408679e-16
    2.7509059277301666e-16 2.7662039226963903e-16 2.781464440759544e-16 2.79668929362423e-16
    2.8118802553450207e-16 2.827039064324479e-16 2.842167425218406e-16 2.8572670107546015e-16
    2.87233946347098e-16 2.887386397378482e-16 2.9024093995538423e-16 2.9174100316669455e-16
    2.9323898314471816e-16 2.947350314092935e-16 2.9622929736280665e-16 2.977219284209029e-16
    2.992130701386013e-16 3.007028663321331e-16 3.0219145919680615e-16 3.036789894211802e-16
    3.051655962978219e-16 3.0665141783089545e-16 3.081365908408297e-16 3.0962125106629225e-16
    3.111055332636893e-16 3.125895713043999e-16 3.140734982699446e-16 3.1555744654528006e-16
    3.1704154791040285e-16 3.1852593363044065e-16 3.2001073454440114e-16 3.214960811527447e-16
    3.2298210370394156e-16 3.244689322801698e-16 3.2595669688230784e-16 3.2744552751437067e-16
    3.2893555426753697e-16 3.3042690740391284e-16 3.3191971744017523e-16 3.3341411523123725e-16
    3.3491023205407785e-16 3.364081996918765e-16 3.37908150518595e-16 3.394102175841489e-16
    3.409145347003126e-16 3.424212365275018e-16 3.4393045866258313e-16 3.454423377278584e-16
    3.4695701146137835e-16 3.4847461880874137e-16 3.499953000165381e-16 3.5151919672760744e-16
    3.53046452078274e-16 3.5457721079774357e-16 3.5611161930983884e-16 3.5764982583726505e-16
    3.59191980508603e-16 3.6073823546823514e-16 3.6228874498941915e-16 3.6384366559073444e-16
    3.65403156156137e-16 3.669673780588701e-16 3.685364952894914e-16 3.7011067458828983e-16
    3.716900855823823e-16 3.7327490092779435e-16 3.7486529645684887e-16 3.7646145133120287e-16
    3.7806354820089604e-16 3.7967177336979443e-16 3.8128631696783774e-16 3.829073731305243e-16
    3.8453514018609596e-16 3.8616982085091493e-16 3.878116224335587e-16 3.894607570481926e-16
    3.9111744183782054e-16 3.9278189920805415e-16 3.944543570720877e-16 3.9613504910761354e-16
    3.9782421502646826e-16 3.995221008578565e-16 4.012289592460629e-16 4.029450497636328e-16
    4.04670639241075e-16 4.0640600211422504e-16 4.0815142079049387e-16 4.0990718603532664e-16
    4.1167359738030257e-16 4.134509635544236e-16 4.1523960294026883e-16 4.170398440568316e-16
    4.1885202607101123e-16 4.206764993399015e-16 4.2251362598620494e-16 4.243637805093078e-16
    4.262273504347798e-16 4.2810473700531167e-16 4.2999635591638323e-16 4.3190263810026294e-16
    4.338240305622791e-16 4.357609972736849e-16 4.3771402012585875e-16 4.3968359995105214e-16
    4.4167025761542035e-16 4.4367453519065673e-16 4.456969972112043e-16 4.477382320247534e-16
    4.49798853244555e-16 4.518795013130059e-16 4.539808451870034e-16 4.561035841567422e-16
    4.582484498109567e-16 4.604162081631153e-16 4.626076619547846e-16 4.648236531543207e-16
    4.670650656712631e-16 4.693328283093329e-16 4.716279179838351e-16 4.739513632325867e-16
    4.763042480533137e-16 4.786877161048723e-16 4.811029753147417e-16 4.835513029411525e-16
    4.860340511450812e-16 4.885526531353603e-16 4.91108629959527e-16 4.937035980240335e-16
    4.963392774403987e-16 4.990175013091822e-16 5.017402260718089e-16 5.045095430818727e-16
    5.073276915733542e-16 5.101970732341562e-16 5.131202686306784e-16 5.161000557743228e-16
    5.191394311757699e-16 5.222416338000234e-16 5.254101724177597e-16 5.286488569504945e-16
    5.3196183453384e-16 5.353536311816497e-16 5.388292001334053e-16 5.423939782201712e-16
    5.46053951907478e-16 5.498157350892814e-16 5.536866612467876e-16 5.576748932926576e-16
    5.617895553555417e-16 5.660408920082422e-16 5.704404621291389e-16 5.750013768919895e-16
    5.797385945724594e-16 5.846692893455479e-16 5.898133176477899e-16 5.951938149641444e-16
    6.008379696271908e-16 6.067780409333449e-16 6.130527208725282e-16 6.197089894581626e-16
    6.268046963301284e-16 6.344122407127506e-16 6.426239659548055e-16 6.515603317344994e-16
    6.613827885097664e-16 6.723150462505587e-16 6.846803417564259e-16 6.98971833638762e-16
    7.159994934830664e-16 7.372424301798799e-16 7.658936370805573e-16 8.113849337656484e-16
""".split(), float)
_FI = np.array("""
    1.0 0.9771017012676716 0.9598790918001067 0.9451989534422996
    0.9320600759592305 0.919991505039347 0.9087264400521309 0.8980959218983434
    0.8879846607558334 0.8783096558089174 0.869008688036857 0.8600336211963315
    0.851346258458678 0.8429156531122042 0.8347162929868834 0.8267268339462214
    0.8189291916037024 0.8113078743126563 0.8038494831709643 0.796542330422959
    0.7893761435660246 0.7823418326548025 0.7754313049811872 0.7686373157984863
    0.7619533468367954 0.7553735065070961 0.7488924472191568 0.742505296340151
    0.7362075981268627 0.7299952645614762 0.7238645334686302 0.717811932630722
    0.7118342488782484 0.7059285013327543 0.7000919181365116 0.6943219161261167
    0.6886160830046718 0.6829721616449949 0.6773880362187735 0.6718617198970821
    0.6663913439087501 0.6609751477766631 0.6556114705796973 0.6502987431108167
    0.6450354808208223 0.6398202774530566 0.6346517992876236 0.6295287799248367
    0.6244500155470265 0.6194143606058343 0.6144207238889139 0.6094680649257734
    0.6045553906974678 0.5996817526191253 0.5948462437679874 0.590047996332826
    0.5852861792633715 0.5805599961007909 0.5758686829723537 0.5712115067352532
    0.5665877632561644 0.5619967758145243 0.557437893618766 0.5529104904258323
    0.5484139632552658 0.5439477311900263 0.5395112342569521 0.5351039323804576
    0.5307253044036621 0.5263748471716845 0.5220520746723218 0.5177565172297564
    0.513487720747327 0.5092452459957479 0.5050286679434681 0.5008375751261487
    0.4966715690524897 0.49253026364386854 0.48841328470545803 0.4843202694266833
    0.48025086590904675 0.47620473271950586 0.4721815384677302 0.4681809614056936
    0.46420268904817436 0.46024641781284287 0.45631185267871643 0.4523987068618485
    0.44850670150720306 0.4446355653957394 0.440785034665804 0.43695485254798555
    0.43314476911265226 0.4293545410294414 0.42558393133802197 0.4218327092294959
    0.4181006498378482 0.4143875340408911 0.41069314827018816 0.40701728432947337
    0.4033597392211145 0.3997203149801972 0.39609881851583245 0.3924950614593156
    0.3889088600187887 0.3853400348400773 0.38178841087339366 0.3782538172456192
    0.37473608713789114 0.3712350576682395 0.3677505697790326 0.36428246812900406
    0.36083060098964803 0.3573948201457805 0.3539749808000768 0.3505709414814061
    0.34718256395679364 0.3438097131468507 0.34045225704452187 0.33711006663700605
    0.33378301583071845 0.3304709813791636 0.3271738428136014 0.3238914823763911
    0.32062378495690536 0.3173706380299136 0.3141319315963372 0.3109075581262865
    0.30769741250429206 0.30450139197665 0.30131939610080305 0.2981513266966855
    0.2949970877999618 0.2918565856170952 0.2887297284821829 0.28561642681550176
    0.2825165930837076 0.27943014176163794 0.2763569892956683 0.27329705406857707
    0.27025025636587546 0.26721651834356147 0.2641957639972612 0.2611879191327212
    0.25819291133761924 0.25521066995466196 0.2522411260559422 0.24928421241852852
    0.24633986350126383 0.2434080154227503 0.2404886059405006 0.2375815744312381
    0.23468686187233 0.23180441082433872 0.22893416541468034 0.22607607132238028
    0.22323007576391748 0.220396127480152 0.21757417672433113 0.21476417525117358
    0.21196607630703018 0.20917983462112508 0.2064054063978808 0.2036427493103349
    0.2008918224946566 0.19815258654577514 0.1954250035141343 0.19270903690358918
    0.19000465167046499 0.1873118142238003 0.18463049242679927 0.18196065559952251
    0.17930227452284758 0.17665532144373486 0.17401977008183855 0.17139559563750575
    0.1687827748012113 0.1661812857644819 0.16359110823236558 0.161012223437511
    0.15844461415592428 0.1558882647244792 0.15334316106026286 0.15080929068184568
    0.14828664273257455 0.14577520800599403 0.14327497897351346 0.1407859498144447
    0.13830811644855073 0.13584147657125376 0.13338602969166916 0.13094177717364436
    0.12850872227999957 0.1260868702201859 0.12367622820159657 0.1212768054847903
    0.11888861344291006 0.11651166562561087 0.11414597782783849 0.11179156816383809
    0.1094484571468118 0.1071166677746838 0.10479622562248707 0.10248715894193525
    0.10018949876881002 0.09790327903886246 0.095628536713009 0.09336531191269101
    0.09111364806637376 0.08887359206827589 0.08664519445055807 0.08442850957035347
    0.0822235958132029 0.08003051581466307 0.07784933670209612 0.07568013035892718
    0.07352297371398132 0.0713779490588904 0.06924514439700676 0.0671246538277885
    0.0650165779712429 0.06292102443775814 0.06083810834953988 0.05876795292093374
    0.0567106901062029 0.05466646132488892 0.05263541827679219 0.05061772386094778
    0.04861355321586854 0.04662309490193038 0.044646552251294463 0.04268414491647446
    0.04073611065594094 0.03880270740452615 0.036884215688567305 0.034980941461716125
    0.03309321945857858 0.0312214171919203 0.02936593975813336 0.027527235669603113
    0.02570580400854891 0.02390220330579588 0.02211706270730885 0.02035109623004451
    0.018605121275724622 0.016880083152543142 0.01517708830793531 0.013497450601739867
    0.011842757857907879 0.010214971439701459 0.008616582769398726 0.007050875471373222
    0.0055224032992509916 0.0040379725933630236 0.0026090727461021593 0.001260285930498598
""".split(), float)
# Normals per trial above which every trial draws from its own generator.
# With the slow path on arrays no output drawn in bulk is wasted.  Per trial
# of a 4096-trial window (_bulk_draws, in one process, 1 BLAS thread, depth
# 4), bulk against generators: 1.7-2.3 against 7.7-8.1 us at d = 4, 3.5-4.3
# against 8.0-8.5 us at d = 8, 4.2-4.3 against 8.3-8.6 us at d = 9 and
# 5.5-6.6 against 8.0-8.6 us at d = 12, on a host where a generator's trial
# took twice what it took when generators won from d = 11.  The bound is
# kept at d = 8: a (3,3) batch of the benchmark holds 200 trials, and a d =
# 9 prototype read parity there.
_BULK_NORMALS = 32
# Elements of each (outputs, trials) array of the bulk draws: a window is
# drawn in equal parts that keep each within 64 KiB.  Parts of 128 KiB drew
# 41 outputs a trial about 1.7 times slower per output than parts of 64 KiB.
_OUTPUT_ELEMENTS = BLOCK_STATE_BYTES // (2 * np.dtype(np.uint64).itemsize)
# Outputs added at a time to a trial with a normal off the fast path, which
# reads more than 1 + 4 d + depth outputs; with 8, no trial of 120 000 at d =
# 2-8 needed a second round.
_SLOW_MARGIN = 8


def _mulhi(x: np.ndarray, k: int) -> np.ndarray:
    """The high words of the 128-bit products x * k (0 <= k < 2^64), from 32-bit limbs."""
    k0, k1 = np.uint64(k & _MASK32), np.uint64(k >> 32)
    x0, x1 = x & np.uint64(_MASK32), x >> np.uint64(32)
    t = x1 * k0 + ((x0 * k0) >> np.uint64(32))
    w = x0 * k1 + (t & np.uint64(_MASK32))
    return x1 * k1 + (t >> np.uint64(32)) + (w >> np.uint64(32))


def _scan(z: np.ndarray, mult: int) -> np.ndarray:
    """In place, row j becomes the sum over i <= j of mult^(j - i) z[i] mod
    2^64, in ceil(log2(len(z))) doubling rounds: x[j] of the recurrence x[0]
    = z[0], x[j + 1] = mult x[j] + z[j + 1]."""
    k = 1
    while k < len(z):
        z[k:] += np.uint64(pow(mult, k, 1 << 64)) * z[:-k]
        k *= 2
    return z


def _increments(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of inc = 2 q + 1 of seed-state rows (s_hi, s_lo, q_hi, q_lo)."""
    one = np.uint64(1)
    return (states[:, 2] << one) | (states[:, 3] >> np.uint64(63)), (states[:, 3] << one) | one


def _pcg64_steps(hi: np.ndarray, lo: np.ndarray, inc: tuple[np.ndarray, np.ndarray],
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """The states (hi, lo) of count PCG64 steps of each trial from its state
    (hi, lo) and increment inc, as (count + 1, trials) arrays, row 0 the start.

    The low words follow lo' = m_lo lo + inc_lo mod 2^64 on their own; the
    high words follow hi' = m_lo hi + e with e = m_hi lo + mulhi(lo, m_lo) +
    inc_hi + the carry of the low word, a function of the low words.  Both
    recurrences run as scans over the rows.
    """
    m_lo, m_hi = _PCG_MULT & _MASK64, _PCG_MULT >> 64
    inc_hi, inc_lo = inc
    lo_rows = np.empty((count + 1, len(lo)), np.uint64)
    lo_rows[0] = lo
    lo_rows[1:] = inc_lo
    hi_rows = np.empty_like(lo_rows)
    hi_rows[0] = hi
    _scan(lo_rows, m_lo)
    e = hi_rows[1:]
    e[:] = _mulhi(lo_rows[:-1], m_lo)
    e += lo_rows[:-1] * np.uint64(m_hi)
    e += inc_hi
    e += lo_rows[1:] < inc_lo
    return _scan(hi_rows, m_lo), lo_rows


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's outputs of states (hi, lo): the xor of both words, rotated right by the top 6 bits."""
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    return (x >> rot) | (x << (-rot & np.uint64(63)))


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """numpy's doubles in [0, 1): the top 53 bits of each output times 2^-53."""
    return (raw >> np.uint64(11)) * (1.0 / (1 << 53))


def _ziggurat(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per output r: x = +-rabs * _WI[idx], and whether it takes the slow path."""
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    x = rabs * _WI[idx]
    # the products are >= 0: setting the sign bit negates them, -0.0 included
    x.view(np.uint64)[...] |= (r & np.uint64(0x100)) << np.uint64(55)
    return x, rabs >= _KI[idx]


def _bulk_draws(states: np.ndarray, d: int,
                depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label uniforms (n,), normals (n, 2, 2, d) and step uniforms (n,
    depth) of the trials of seed states (n, 4), numpy's numbers bit for bit.

    Up to _BULK_NORMALS normals a trial, every trial is drawn on arrays: a
    trial on the ziggurat's fast path reads 1 + 4 d + depth consecutive
    outputs, and the slow trials, those with a normal off it, are resolved
    together (_draw_slow).  Above, every trial draws from its own generator.
    The canary: the first trial is drawn from its own generator as well, and
    all its bulk numbers must be the generator's, or RuntimeError.
    """
    n, count = len(states), 1 + 4 * d + depth
    if not n or 4 * d > _BULK_NORMALS:
        return _generator_draws((Generator(PCG64(_State(row))) for row in states), n, d, depth)
    label_u, normals, step_u = np.empty(n), np.empty((n, 4 * d)), np.empty((n, depth))

    def fast(a: int) -> tuple:
        """Draw trials a, ..., a + part - 1 by the fast path; return which of
        them are slow, their outputs (k, count), which of their normals'
        outputs take the slow path (k, 4 d) and their last states."""
        inc = _increments(states[a:a + part])
        # set-seed: its first step starts from s + inc
        lo = states[a:a + part, 1] + inc[1]
        hi = states[a:a + part, 0] + inc[0] + (lo < inc[1])
        hi, lo = _pcg64_steps(hi, lo, inc, count + 1)
        raw = _xsl_rr(hi[2:], lo[2:])
        x, off = _ziggurat(raw[1:1 + 4 * d])
        normals[a:a + part] = x.T
        label_u[a:a + part] = _uniforms(raw[0])
        step_u[a:a + part] = _uniforms(raw[1 + 4 * d:]).T
        cols = np.flatnonzero(off.any(axis=0))
        return a + cols, raw[:, cols].T, off[:, cols].T, hi[-1, cols], lo[-1, cols]

    # the fewest equal parts of at most _OUTPUT_ELEMENTS outputs each, the
    # slow trials of all resolved together
    part = -(-n // -(-n * count // _OUTPUT_ELEMENTS))
    _draw_slow(states, map(fast, range(0, n, part)), normals, step_u)
    draws = label_u, normals.reshape(n, 2, 2, d), step_u
    first = _generator_draws([Generator(PCG64(_State(states[0])))], 1, d, depth)
    if not all(np.array_equal(x[:1], y) for x, y in zip(draws, first)):
        raise RuntimeError("bulk draws differ from numpy's PCG64 and ziggurat at the first "
                           "trial of a window")
    return draws


def _draw_slow(states: np.ndarray, parts: Iterable[tuple], normals: np.ndarray,
               step_u: np.ndarray) -> None:
    """Write the normals (n, 4 d) and step uniforms of the slow trials of
    parts, each (trials, outputs (k, count), which of the normals' outputs 1,
    ..., 4 d take the slow path (k, 4 d), last states hi and lo); normals
    holds the fast path's values of those outputs.  Each round continues the
    trials' PCG64 streams by _SLOW_MARGIN outputs and resolves every trial
    that no longer runs short of outputs (_resolve)."""
    rows, raw, off, hi, lo = map(np.concatenate, zip(*parts))
    x = np.concatenate([np.zeros((len(rows), 1)), normals[rows]], axis=1)
    off = np.concatenate([np.zeros((len(rows), 1), bool), off], axis=1)
    while len(rows):
        hi, lo = _pcg64_steps(hi, lo, _increments(states[rows]), _SLOW_MARGIN)
        raw = np.concatenate([raw, _xsl_rr(hi[1:], lo[1:]).T], axis=1)
        hi, lo = hi[-1].copy(), lo[-1].copy()
        x, off = (np.concatenate(pair, axis=1)
                  for pair in zip((x, off), _ziggurat(raw[:, x.shape[1]:])))
        short = _resolve(raw, x, off, rows, normals, step_u)
        rows, raw, x, off, hi, lo = (a[short] for a in (rows, raw, x, off, hi, lo))


def _resolve(raw: np.ndarray, x: np.ndarray, off: np.ndarray, rows: np.ndarray,
             normals: np.ndarray, step_u: np.ndarray) -> np.ndarray:
    """Read the outputs raw (m, count) of trials rows as numpy's sampler
    does, and write their normals and step uniforms; returns which trials
    ran short of outputs (m,), whose rows it leaves.  x and off (m, count)
    are each output's fast-path value and whether it takes the slow path.

    A trial's normals start at output 1.  Each pass moves every unfinished
    trial over its fast normals to its next slow one, an event, and resolves
    the events of all trials at once: a wedge reads 2 outputs and yields x
    or nothing, a tail reads 1 + 2 k and yields its value.  A trial's normals
    are then its outputs from 1 up to its end that no event read as a
    uniform or rejected, and its step uniforms the depth outputs from there.
    """
    m, count = raw.shape
    n_normals, depth = normals.shape[1], step_u.shape[1]
    # the first output at or after each that takes the slow path, count if none
    nxt = np.full((m, count + 1), count, np.int16)
    nxt[:, :-1] = np.where(off, np.arange(count, dtype=np.int16), nxt[:, :-1])
    nxt = np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1]
    take = np.ones((m, count), bool)
    take[:, 0] = False
    pos, got, end = np.ones(m, np.intp), np.zeros(m, np.intp), np.full(m, count)
    short = np.zeros(m, bool)
    live = np.arange(m)
    while live.size:
        p = pos[live]
        q = nxt[live, p].astype(np.intp)
        need = n_normals - got[live]
        done = q - p >= need
        end[live[done]] = (p + need)[done]
        # an event reads at least the output after it
        event = ~done & (q + 1 < count)
        short[live[~done & ~event]] = True
        live, p, q = live[event], p[event], q[event]
        idx = (raw[live, q] & np.uint64(0xFF)).astype(np.intp)
        xq = x[live, q]
        u = _uniforms(raw[live, q + 1])
        kept = (_FI[idx - 1] - _FI[idx]) * u + _FI[idx] < np.fromiter(
            map(math.exp, (-0.5 * xq * xq).tolist()), float, len(xq))
        used = np.full(len(live), 2)
        for k in np.flatnonzero(idx == 0):
            tail = _tail(raw[live[k]], q[k])
            if tail is None:
                short[live[k]] = True
            else:
                x[live[k], q[k]], used[k] = tail
                kept[k] = True
                take[live[k], q[k] + 2:q[k] + used[k]] = False
        # the wedge's uniform, or the tail's first, is no normal; nor is a rejected wedge
        take[live, q + 1] = False
        take[live[~kept], q[~kept]] = False
        got[live] += q - p + kept
        pos[live] = q + used
        live = live[~short[live]]
    short |= end + depth > count
    ok = np.flatnonzero(~short)
    take &= np.arange(count) < end[:, None]
    take[short] = False
    normals[rows[ok]] = x[take].reshape(-1, n_normals)
    step_u[rows[ok]] = _uniforms(raw[ok[:, None], end[ok, None] + np.arange(depth)])
    return short


def _tail(column: np.ndarray, at: int) -> tuple[float, int] | None:
    """The normal of a tail draw at output at of a trial's outputs column,
    and the outputs it reads; None if it runs short of outputs."""
    u = _uniforms(column[at + 1:]).tolist()
    for k in range(0, len(u) - 1, 2):
        xx = -_ZIG_INV_R * math.log1p(-u[k])
        yy = -math.log1p(-u[k + 1])
        if yy + yy > xx * xx:
            # the sign bit of a tail is bit 8 of rabs = column[at] >> 9
            return (-(_ZIG_R + xx) if int(column[at]) >> 17 & 1 else _ZIG_R + xx), k + 3
    return None


def _run_chunk(spec: TrialSpec, seed: int, start: int, stop: int) -> tuple[int, int, int]:
    successes = errors = inconclusive = 0
    for lo, states in _block_rngs(seed, start, stop, _SEED_WINDOW):
        block = spec.run_block(states, lo)
        hits = int(np.count_nonzero(block.declared == block.labels))
        blanks = int(np.count_nonzero(block.declared == 0))
        successes += hits
        inconclusive += blanks
        errors += len(states) - hits - blanks
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


def check_batch(n: int, workers: int, seed: int) -> None:
    """The one batch rule: n trials and workers, each an integer >= 1, and
    a seed, an integer >= 0 (a bool is none of them); otherwise ValueError,
    with one text."""
    if not all(isinstance(k, Integral) and not isinstance(k, bool) and k >= least
               for k, least in ((n, 1), (workers, 1), (seed, 0))):
        raise ValueError(f"a batch needs n >= 1 trials and workers >= 1, each an integer, and "
                         f"an integer seed >= 0, got n={n!r}, workers={workers!r}, seed={seed!r}")


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
    check_batch(n, workers, seed)
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
