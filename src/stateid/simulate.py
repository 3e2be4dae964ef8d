"""Haar-random state sampling and Monte Carlo execution of measurement schemes.

A trial draws the true label from the priors, draws both reference states from
the unitary-invariant (Haar) distribution, assembles the product state on the
triple space, and samples measurement outcomes with the exact Born
probabilities: either in one shot for a global POVM, or by walking an LOCC
tree with the square-root (Lueders) state update between steps.  The LOCC
walk keeps the state as the party-major (d_a^3, d_b^3) matrix psi, regrouped
from the system-major product vector by an index map, and applies Alice's
local Kraus operator K as K @ psi and Bob's as psi @ K.T.

Determinism contract: trial i of a batch uses the generator seeded with
(base_seed, i), so batch results are identical for any worker count; a trial
draws the label, then the two reference states, then one uniform per
measurement step; outcome sampling is inverse-CDF over the ordered element
list.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Union

import numpy as np

from .minerr import Priors
from .povm import Povm
from .protocol import ALICE, Leaf, LoccProtocol
from .symmetry import bipartite_toolkit

PROB_SUM_ATOL = 1e-8
BRANCH_PROB_FLOOR = 1e-12


class TrialAbort(RuntimeError):
    """A trial hit a numerical guard (non-unit outcome mass or dead branch)."""


def haar_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Unit vector drawn uniformly from the pure-state space of C^d.

    Normalized standard complex Gaussian vector — the standard construction of
    the hypersphere-uniform, unitarily invariant measure.
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


def product_state(first: np.ndarray, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """kron(first, phi1, phi2): the same products, without np.kron's overhead."""
    return np.multiply.outer(np.multiply.outer(first, phi1), phi2).ravel()


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


def _draw_label(priors: Priors, rng: np.random.Generator) -> int:
    return 1 if rng.random() < priors.eta1 else 2


def _sample_outcome(probs: np.ndarray, rng: np.random.Generator, where: str) -> int:
    total = probs.sum()
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise TrialAbort(f"{where}: outcome probabilities sum to {total!r}")
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(idx, len(probs) - 1)


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

    def run(self, rng: np.random.Generator, trial_index: int = 0) -> TrialRecord:
        label = _draw_label(self.priors, rng)
        phi1 = haar_state(self.d, rng)
        phi2 = haar_state(self.d, rng)
        if self.rotation is not None:
            phi1 = self.rotation @ phi1
            phi2 = self.rotation @ phi2
        state = product_state(phi1 if label == 1 else phi2, phi1, phi2)
        probs = np.array([
            (state.conj() @ (op @ state)).real for _, op in self.povm.elements
        ])
        idx = _sample_outcome(probs, rng, f"trial {trial_index}")
        outcome = self.povm.elements[idx][0]
        return TrialRecord(
            true_label=label,
            declared_label=int(outcome),
            transcript=(("global", outcome),),
            trial_index=trial_index,
        )


@dataclass(frozen=True)
class LoccTrialSpec:
    """Sequential execution of an LOCC protocol tree.

    The product state is assembled system-major, regrouped into the
    party-major state matrix, and updated with the outcome's local Kraus
    operator at every step.
    """

    protocol: LoccProtocol
    priors: Priors

    def run(self, rng: np.random.Generator, trial_index: int = 0) -> TrialRecord:
        proto = self.protocol
        d = proto.d_a * proto.d_b
        label = _draw_label(self.priors, rng)
        phi1 = haar_state(d, rng)
        phi2 = haar_state(d, rng)
        state = product_state(phi1 if label == 1 else phi2, phi1, phi2)
        psi = bipartite_toolkit(proto.d_a, proto.d_b).state_matrix(state)

        transcript: list[tuple[str, object]] = []
        node = proto.root
        while not isinstance(node, Leaf):
            if node.party == ALICE:
                branches = [k @ psi for k in node.kraus]
            else:
                branches = [psi @ k.T for k in node.kraus]
            probs = np.array([np.vdot(v, v).real for v in branches])
            idx = _sample_outcome(probs, rng, f"trial {trial_index} at {node.party}")
            if probs[idx] < BRANCH_PROB_FLOOR:
                raise TrialAbort(
                    f"trial {trial_index}: sampled branch with probability {probs[idx]!r}"
                )
            outcome = node.measurement.elements[idx][0]
            psi = branches[idx] / math.sqrt(probs[idx])
            transcript.append((node.party, outcome))
            node = node.children[outcome]
        return TrialRecord(
            true_label=label,
            declared_label=node.label,
            transcript=tuple(transcript),
            trial_index=trial_index,
        )


TrialSpec = Union[GlobalTrialSpec, LoccTrialSpec]


def _run_chunk(spec: TrialSpec, seed: int, start: int, stop: int) -> tuple[int, int, int]:
    successes = errors = inconclusive = 0
    for i in range(start, stop):
        rng = np.random.default_rng((seed, i))
        record = spec.run(rng, i)
        if record.success:
            successes += 1
        elif record.declared_label == 0:
            inconclusive += 1
        else:
            errors += 1
    return successes, errors, inconclusive


def run_batch(spec: TrialSpec, n: int, seed: int, workers: int = 1,
              target: float | None = None) -> BatchStats:
    """Run n independent trials; results do not depend on the worker count."""
    if n < 1:
        raise ValueError(f"need at least one trial, got {n}")
    if workers <= 1:
        successes, errors, inconclusive = _run_chunk(spec, seed, 0, n)
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(
                _run_chunk,
                [spec] * workers,
                [seed] * workers,
                bounds[:-1].tolist(),
                bounds[1:].tolist(),
            ))
        successes = sum(p[0] for p in parts)
        errors = sum(p[1] for p in parts)
        inconclusive = sum(p[2] for p in parts)
    return BatchStats.from_counts(n, successes, errors, inconclusive, target)
