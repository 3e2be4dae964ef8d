"""Finite trees of local measurements with classical communication.

A protocol node holds one party's local POVM (operators on that party's own
triple space, dimension d_p^3), the local Kraus operators of its outcomes, and
a child per outcome; leaves carry the final label (1 or 2 for the two
identification answers, 0 for inconclusive).

Operators never leave their party's space.  A step stacks its Kraus operators
once, at construction, into one read-only (elements, d_p^3, d_p^3) array.  A
joint party-major state is a (d_a^3, d_b^3) matrix psi, on which Alice's
Kraus operator K acts as K @ psi and Bob's as psi @ K.T.  Simulations hold
psi as real planes, the (d_a^3, 2, d_b^3) array of its real and imaginary
parts, and apply each step with the real operators its Kraus stack gives at
construction (see _plane_action).  Flattening a tree carries the pair (A, B) of
each party's chronological Kraus product along every path and sums
kron(A^dag A, B^dag B) over the leaves of each label, which yields the
effective global POVM the protocol implements: the object the closed-form
separable constructions are checked against.

Kraus convention: each outcome applies the PSD square root of its element
(for projective elements that is the projector itself, kept exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Union

import numpy as np

from .linalg import dagger, psd_sqrt
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


def _plane_action(kraus: np.ndarray, party: str) -> np.ndarray:
    """Real operators that apply a Kraus stack to states held as (d_a^3, 2, d_b^3) planes.

    An operator of the result is r x r.  Alice's act from the left on the
    planes reshaped to r rows: K itself on (d_a^3, 2 d_b^3) for a real stack,
    and for a complex one the block form on (2 d_a^3, d_b^3) whose rows (i,
    re) and (i, im) give row i of re(K psi) and im(K psi).  Bob's act from the
    right on the planes reshaped to rows of r: K.T on (2 d_a^3, d_b^3) for a
    real stack, and [[Kr.T, Ki.T], [-Ki.T, Kr.T]] on (d_a^3, 2 d_b^3) for a
    complex one.
    """
    if party == ALICE:
        op = kraus
        if np.iscomplexobj(op):
            # [k, (i, c), (j, c')]: c = 0 takes Kr re - Ki im, c = 1 takes Ki re + Kr im
            op = np.stack([np.stack([op.real, -op.imag], -1), np.stack([op.imag, op.real], -1)], 2)
            op = op.reshape(len(kraus), 2 * kraus.shape[1], -1)
    else:
        op = kraus.transpose(0, 2, 1)
        if np.iscomplexobj(op):
            op = np.block([[op.real, op.imag], [-op.imag, op.real]])
    return np.ascontiguousarray(op)


@dataclass(frozen=True)
class MeasurementStep:
    """One party's local measurement, with a child node per outcome.

    Built at construction: successors[i] is the child of
    measurement.elements[i], kraus[i], of a read-only stack, its local Kraus
    operator, and plane_action[i] the real operator that applies kraus[i] to
    states held as real planes (see _plane_action).
    """

    party: str
    measurement: Povm
    children: Mapping[Hashable, Union["MeasurementStep", Leaf]]
    successors: tuple[Union["MeasurementStep", Leaf], ...] = field(
        init=False, repr=False, compare=False)
    kraus: np.ndarray = field(init=False, repr=False, compare=False)
    plane_action: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.party not in (ALICE, BOB):
            raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {self.party!r}")
        if set(self.children) != set(self.measurement.labels):
            raise ValueError("children keys must match measurement outcome labels")
        object.__setattr__(self, "successors",
                           tuple(self.children[label] for label in self.measurement.labels))
        kraus = np.stack([_kraus_of(op) for _, op in self.measurement.elements])
        plane_action = _plane_action(kraus, self.party)
        kraus.flags.writeable = plane_action.flags.writeable = False
        object.__setattr__(self, "kraus", kraus)
        object.__setattr__(self, "plane_action", plane_action)


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


def effective_povm(protocol: LoccProtocol) -> Povm:
    """Flatten the tree into the global POVM it implements.

    Element for label L = sum over leaves labeled L of
    kron(A^dag A, B^dag B), with A and B the chronological products of
    Alice's and Bob's local Kraus operators along the path.  The sum is one
    matrix product over the stacked leaves, regrouped into the kron layout.
    Returned in the system-major basis (directly comparable with the
    closed-form separable constructions); completeness is asserted.
    """
    leaves: dict[int, tuple[list, list]] = {}

    def walk(node, a: np.ndarray, b: np.ndarray) -> None:
        if isinstance(node, Leaf):
            alice, bob = leaves.setdefault(node.label, ([], []))
            alice.append(dagger(a) @ a)
            bob.append(dagger(b) @ b)
            return
        for k, child in zip(node.kraus, node.successors):
            if node.party == ALICE:
                walk(child, k @ a, b)
            else:
                walk(child, a, k @ b)

    na, nb = protocol.d_a**3, protocol.d_b**3
    walk(protocol.root, np.eye(na), np.eye(nb))
    elements = {}
    for label, (alice, bob) in leaves.items():
        # entry [(i, j), (k, l)]: sum over leaves of (A^dag A)[i, j] (B^dag B)[k, l]
        elements[label] = (
            np.reshape(alice, (len(alice), -1)).T @ np.reshape(bob, (len(bob), -1))
        ).reshape(na, na, nb, nb).transpose(0, 2, 1, 3).reshape(protocol.dim, protocol.dim)
    total = sum(elements.values())
    defect = np.abs(total - np.eye(protocol.dim)).max()
    if defect > COMPLETENESS_ATOL:
        raise ValueError(f"flattened protocol is not complete (max defect {defect:.3e})")
    bt = bipartite_toolkit(protocol.d_a, protocol.d_b)
    for label, op in elements.items():
        elements[label] = bt.to_system_major(op)
    return povm_from_dict(sorted(elements.items()))
