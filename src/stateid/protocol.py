"""Finite trees of local measurements with classical communication.

A protocol node holds one party's local POVM (operators on that party's own
triple space, dimension d_p^3), the local Kraus operators of its outcomes, and
a child per outcome; leaves carry the final label (1 or 2 for the two
identification answers, 0 for inconclusive).

Operators never leave their party's space.  A step stacks its Kraus operators
once, at construction, into one read-only (elements, d_p^3, d_p^3) array.
path_prefixes carries the pair (A, B) of each party's chronological Kraus
product along every path.  Flattening sums kron(A^dag A, B^dag B) over the
leaves of each label into the effective global POVM the protocol implements,
the object the closed-form separable constructions are checked against; it
assembles each element with BipartiteToolkit.kron_sum, the one assembly path
of bipartite operators, straight into the system-major basis.  Simulations
keep each prefix's A^dag A and B^dag B in permutation coordinates.

Kraus convention: each outcome applies the PSD square root of its element
(for projective elements that is the projector itself, kept exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping, Union

import numpy as np

from .linalg import dagger, max_abs, psd_sqrt
from .povm import COMPLETENESS_ATOL, Povm, povm_from_dict
from .symmetry import bipartite_toolkit

ALICE = "alice"
BOB = "bob"

_PROJECTOR_ATOL = 1e-10


def _kraus_of(element: np.ndarray) -> np.ndarray:
    # projective elements keep their exact matrix as the update operator
    if np.abs(element @ element - element).max() <= _PROJECTOR_ATOL:
        return element
    return psd_sqrt(element)


@dataclass(frozen=True)
class Leaf:
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1, 2):
            raise ValueError(f"final label must be 0, 1 or 2, got {self.label}")


@dataclass(frozen=True)
class MeasurementStep:
    """One party's local measurement, with a child node per outcome.

    Built at construction: successors[i] is the child of
    measurement.elements[i], and kraus[i], of a read-only stack, its local
    Kraus operator.
    """

    party: str
    measurement: Povm
    children: Mapping[Hashable, Union["MeasurementStep", Leaf]]
    successors: tuple[Union["MeasurementStep", Leaf], ...] = field(
        init=False, repr=False, compare=False)
    kraus: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.party not in (ALICE, BOB):
            raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {self.party!r}")
        if set(self.children) != set(self.measurement.labels):
            raise ValueError("children keys must match measurement outcome labels")
        object.__setattr__(self, "successors",
                           tuple(self.children[label] for label in self.measurement.labels))
        kraus = np.stack([_kraus_of(op) for _, op in self.measurement.elements])
        kraus.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)


def step(party: str, elements: dict, children: dict,
         support: np.ndarray | None = None) -> MeasurementStep:
    """Build a validated MeasurementStep from outcome->operator dicts."""
    measurement = povm_from_dict(elements, support)
    measurement.validate()
    return MeasurementStep(party=party, measurement=measurement, children=children)


@dataclass(frozen=True)
class LoccProtocol:
    """A measurement tree over the party-major split space (see module doc)."""

    d_a: int
    d_b: int
    root: Union[MeasurementStep, Leaf]

    @property
    def dim(self) -> int:
        return (self.d_a * self.d_b) ** 3


def path_prefixes(protocol: LoccProtocol) -> Iterator[tuple]:
    """(node, A, B, path) for every path from the root, depth first with children
    in element order: the node it reaches, Alice's and Bob's chronological
    Kraus products along it, and the path as (party, outcome) pairs."""
    def walk(node, a: np.ndarray, b: np.ndarray, path: tuple) -> Iterator[tuple]:
        yield node, a, b, path
        if not isinstance(node, Leaf):
            for (outcome, _), k, child in zip(node.measurement.elements, node.kraus,
                                              node.successors):
                after = path + ((node.party, outcome),)
                yield from (walk(child, k @ a, b, after) if node.party == ALICE
                            else walk(child, a, k @ b, after))

    return walk(protocol.root, np.eye(protocol.d_a**3), np.eye(protocol.d_b**3), ())


def effective_povm(protocol: LoccProtocol) -> Povm:
    """Flatten the tree into the global POVM it implements.

    Element for label L = sum over leaves labeled L of
    kron(A^dag A, B^dag B), with A and B the chronological products of
    Alice's and Bob's local Kraus operators along the path, assembled by
    BipartiteToolkit.kron_sum over the stacked leaves: one matrix product and
    one transpose, in the system-major basis (directly comparable with the
    closed-form separable constructions).  Completeness is asserted.
    """
    leaves: dict[int, tuple[list, list]] = {}
    for node, a, b, _ in path_prefixes(protocol):
        if isinstance(node, Leaf):
            alice, bob = leaves.setdefault(node.label, ([], []))
            alice.append(dagger(a) @ a)
            bob.append(dagger(b) @ b)
    bt = bipartite_toolkit(protocol.d_a, protocol.d_b)
    elements = {label: bt.kron_sum(alice, bob) for label, (alice, bob) in sorted(leaves.items())}
    missing = np.eye(protocol.dim, dtype=np.result_type(*elements.values()))
    for op in elements.values():
        missing -= op
    defect = max_abs(missing)
    if defect > COMPLETENESS_ATOL:
        raise ValueError(f"flattened protocol is not complete (max defect {defect:.3e})")
    return povm_from_dict(elements)
