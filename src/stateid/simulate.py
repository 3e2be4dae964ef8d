"""Haar-random state sampling and Monte Carlo execution of measurement schemes.

A trial draws the true label from the priors, draws both reference states from
the unitary-invariant (Haar) distribution, assembles the product state on the
triple space, and samples measurement outcomes with the exact Born
probabilities: either in one shot for a global POVM, or by walking an LOCC
tree with the square-root (Lueders) state update between steps.

Trials run in blocks.  Each trial of a block draws its own variates; the block
then does the rest on stacked arrays.  The product states are formed by one
broadcast product over the block, and for an LOCC tree regrouped by one axis
transpose into party-major (d_a^3, d_b^3) matrices psi.  The tree is walked
once per block, carrying at each node the trials that reached it: Alice's
local Kraus operator K acts on the group as K @ psi and Bob's as psi @ K.T,
and the outcomes are sampled by a vectorized inverse CDF.  Only the branches
the trials chose are kept.  A block's stacked states take at most
BLOCK_STATE_BYTES, so blocks on larger spaces hold fewer trials.  A single
trial (TrialSpec.run) is a block of one, walked by the same code.

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

A batch on several workers is split into consecutive chunks of trials.  The
caller runs the first chunk itself while workers - 1 forked processes run the
rest, one chunk each (fewer when there are fewer trials than workers).
numpy.random is imported with this module, so the forked processes inherit
it instead of importing it again.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Sequence, Union

import numpy as np
from numpy.random import default_rng

from .minerr import Priors
from .povm import Povm
from .protocol import ALICE, Leaf, LoccProtocol
from .symmetry import bipartite_toolkit

PROB_SUM_ATOL = 1e-8
BRANCH_PROB_FLOOR = 1e-12
# Bytes of one block's stacked complex states: 128 trials at d = 4, 11 at
# (3,3).  Larger blocks gain little at (2,2) and raise the peak memory of
# every batch worker; smaller ones slow (3,3), where a tree node's share of a
# block is a few trials.
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


def _sample(probs: np.ndarray, u: np.ndarray, trials: np.ndarray, where: str) -> np.ndarray:
    """Inverse-CDF element index per trial; probs is (elements, trials).

    Raises TrialAbort, naming the first such trial, when a trial's outcome
    probabilities do not sum to one.
    """
    cum = np.cumsum(probs, axis=0)
    off = np.abs(cum[-1] - 1.0) > PROB_SUM_ATOL
    if off.any():
        j = np.flatnonzero(off)[0]
        raise TrialAbort(f"trial {trials[j]}{where}: outcome probabilities sum to {cum[-1, j]!r}")
    # as searchsorted(cum, u, side="right") per trial, clipped to the last element
    return np.minimum((cum <= u).sum(axis=0), len(probs) - 1)


def _overlaps(states: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Re <state|image> over the last axis, read on the float views without a
    conjugate copy."""
    return np.einsum("...k,...k->...", states.view(np.float64), images.view(np.float64))


def _depth(node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(_depth(child) for child in node.children.values())


@dataclass(frozen=True)
class GlobalTrialSpec:
    """One-shot measurement of a global POVM on the triple space.

    rotation, when given, applies a fixed unitary to both references (and
    hence the input) before measuring — the handle the unitary-invariance
    test uses.
    """

    povm: Povm
    d: int
    priors: Priors
    rotation: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.d**3

    def run_block(self, rngs: Sequence[np.random.Generator], first_index: int = 0) -> Block:
        """Trials first_index, first_index + 1, ... drawing from rngs in turn."""
        labels, refs, step_u = _draw(rngs, self.priors, self.d, 1)
        if self.rotation is not None:
            refs = refs @ self.rotation.T
        states = _product_states(labels, refs).reshape(len(labels), -1)
        probs = np.array([_overlaps(states, states @ op.T) for _, op in self.povm.elements])
        trials = first_index + np.arange(len(labels))
        idx = _sample(probs, step_u[:, 0], trials, "")
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

    The product states are assembled system-major, regrouped into party-major
    state matrices, and updated with the outcome's local Kraus operator at
    every step.
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

    def run_block(self, rngs: Sequence[np.random.Generator], first_index: int = 0) -> Block:
        """Trials first_index, first_index + 1, ... drawing from rngs in turn."""
        proto = self.protocol
        labels, refs, step_u = _draw(rngs, self.priors, proto.d_a * proto.d_b, self.depth)
        n = len(labels)
        psi = bipartite_toolkit(proto.d_a, proto.d_b).state_matrix(
            _product_states(labels, refs).reshape(n, -1))
        declared = np.empty(n, dtype=int)
        path = np.full((n, self.depth), -1)
        todo = [(proto.root, psi, np.arange(n), 0)]
        while todo:
            node, psi, rows, level = todo.pop()
            if isinstance(node, Leaf):
                declared[rows] = node.label
                continue
            kraus = np.asarray(node.kraus)[:, None]
            # every outcome's branch of every trial: (elements, trials, d_a^3, d_b^3)
            if node.party == ALICE:
                branches = kraus @ psi
            else:
                branches = psi @ kraus.transpose(0, 1, 3, 2)
            del psi  # only the chosen branches are kept below
            flat = branches.reshape(len(kraus), len(rows), -1)
            probs = _overlaps(flat, flat)
            trials = first_index + rows
            idx = _sample(probs, step_u[rows, level], trials, f" at {node.party}")
            chosen = probs[idx, np.arange(len(rows))]
            if (chosen < BRANCH_PROB_FLOOR).any():
                j = np.flatnonzero(chosen < BRANCH_PROB_FLOOR)[0]
                raise TrialAbort(
                    f"trial {trials[j]}: sampled branch with probability {chosen[j]!r}")
            path[rows, level] = idx
            # the chosen branches, normalized and grouped by outcome
            order = np.argsort(idx, kind="stable")
            kept = branches[idx[order], order]
            kept /= np.sqrt(chosen[order])[:, None, None]
            rows = rows[order]
            del branches, flat
            ends = np.cumsum(np.bincount(idx, minlength=len(kraus))).tolist()
            for (outcome, _), lo, hi in zip(node.measurement.elements, [0] + ends, ends):
                if hi > lo:
                    todo.append((node.children[outcome], kept[lo:hi], rows[lo:hi], level + 1))
        return Block(labels, declared, path)

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


TrialSpec = Union[GlobalTrialSpec, LoccTrialSpec]


def _run_chunk(spec: TrialSpec, seed: int, start: int, stop: int) -> tuple[int, int, int]:
    size = max(1, BLOCK_STATE_BYTES // (np.dtype(complex).itemsize * spec.dim))
    successes = errors = inconclusive = 0
    for lo in range(start, stop, size):
        hi = min(lo + size, stop)
        block = spec.run_block([default_rng((seed, i)) for i in range(lo, hi)], lo)
        hits = int(np.count_nonzero(block.declared == block.labels))
        blanks = int(np.count_nonzero(block.declared == 0))
        successes += hits
        inconclusive += blanks
        errors += hi - lo - hits - blanks
    return successes, errors, inconclusive


def run_batch(spec: TrialSpec, n: int, seed: int, workers: int = 1,
              target: float | None = None) -> BatchStats:
    """Run n independent trials; results do not depend on the worker count.

    The trials are split into min(workers, n) consecutive chunks.  The caller
    runs the first chunk itself while one forked process per remaining chunk
    runs the rest; the processes inherit the imported numpy.random, and all of
    them are shut down and reaped before the counts are summed.
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    bounds = np.linspace(0, n, min(workers, n) + 1, dtype=int).tolist()
    if len(bounds) <= 2:
        parts = [_run_chunk(spec, seed, 0, n)]
    else:
        with ProcessPoolExecutor(max_workers=len(bounds) - 2) as pool:
            # submitted first, so the workers run while the caller runs chunk 0
            futures = pool.map(partial(_run_chunk, spec, seed), bounds[1:-1], bounds[2:])
            parts = [_run_chunk(spec, seed, 0, bounds[1]), *futures]
    successes, errors, inconclusive = map(sum, zip(*parts))
    return BatchStats.from_counts(n, successes, errors, inconclusive, target)
