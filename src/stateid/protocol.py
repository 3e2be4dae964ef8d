"""Finite trees of local measurements with classical communication.

A protocol node holds one party's local measurement and a child per outcome;
leaves carry the final label (1 or 2 for the two identification answers, 0
for inconclusive).

Operators never leave their party's space, and each is given by its six
real coordinates on the party's permutation operators P_pi (symmetry.S3): a
step holds its outcomes' Kraus operators K as a read-only (elements, 6)
stack, checked complete in coordinates at construction; no step is ever
dense.  path_prefixes multiplies each party's chronological Kraus product
along every path in the group algebra.  Flattening sums kron(A^dag A, B^dag
B) over the leaves of each label into the effective global POVM the protocol
implements, a povm.Povm of each label's 6 x 6 table, checked complete by the
same coordinate rule as a step; it is written dense only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping, Union

import numpy as np

from .povm import Povm, check_complete
from .symmetry import S3, s3_adjoint, s3_product, s3_reduce

ALICE = "alice"
BOB = "bob"


def gram(c: np.ndarray) -> np.ndarray:
    """Coordinates of K^dag K for the coordinates c of K."""
    return s3_product(s3_adjoint(c), c)


@dataclass(frozen=True)
class Leaf:
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1, 2):
            raise ValueError(f"final label must be 0, 1 or 2, got {self.label}")


@dataclass(frozen=True)
class MeasurementStep:
    """One party's local measurement, with a child node per outcome.

    kraus[i], of a read-only (elements, 6) stack, holds the coordinates of
    the Kraus operator of outcome labels[i], and successors[i] is its child.
    """

    party: str
    labels: tuple[Hashable, ...]
    children: Mapping[Hashable, Union["MeasurementStep", Leaf]]
    kraus: np.ndarray = field(repr=False, compare=False)
    successors: tuple[Union["MeasurementStep", Leaf], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.party not in (ALICE, BOB):
            raise ValueError(f"party must be {ALICE!r} or {BOB!r}, got {self.party!r}")
        if set(self.children) != set(self.labels):
            raise ValueError("children keys must match measurement outcome labels")
        object.__setattr__(self, "successors", tuple(self.children[label] for label in self.labels))


def step(party: str, d: int, kraus: dict, children: dict,
         support: np.ndarray = S3.identity) -> MeasurementStep:
    """A MeasurementStep from outcome->Kraus coordinates on a party of local
    dimension d, whose elements K^dag K must resolve the projector with
    coordinates support, by povm.check_complete.  Each element is c^dag c in
    the group algebra, hermitian and positive as it stands."""
    stack = np.array(list(kraus.values()), float)
    stack.flags.writeable = False
    check_complete((d,), support - sum(gram(k) for k in stack), "support")
    return MeasurementStep(party, tuple(kraus), children, stack)


@dataclass(frozen=True)
class LoccProtocol:
    """A measurement tree over the party-major split space (see module doc)."""

    d_a: int
    d_b: int
    root: Union[MeasurementStep, Leaf]


def path_prefixes(protocol: LoccProtocol) -> Iterator[tuple]:
    """(node, W, path) for every path from the root, depth first with children
    in element order: the node it reaches, the 6 x 6 table W = c (x) e of the
    coordinates c and e of A^dag A and B^dag B, for Alice's and Bob's
    chronological Kraus products A and B along it (each reduced by
    symmetry.s3_reduce at its party's dimension), and the path as (party,
    outcome) pairs."""
    def walk(node, a: np.ndarray, b: np.ndarray, path: tuple) -> Iterator[tuple]:
        yield node, np.outer(s3_reduce(protocol.d_a, gram(a)),
                             s3_reduce(protocol.d_b, gram(b))), path
        if not isinstance(node, Leaf):
            for outcome, k, child in zip(node.labels, node.kraus, node.successors):
                after = path + ((node.party, outcome),)
                yield from (walk(child, s3_product(k, a), b, after) if node.party == ALICE
                            else walk(child, a, s3_product(k, b), after))

    return walk(protocol.root, S3.identity, S3.identity, ())


def effective_povm(protocol: LoccProtocol) -> Povm:
    """Flatten the tree into the global POVM it implements, labels ascending.

    Element for label L = sum over leaves labeled L of kron(A^dag A, B^dag
    B), with A and B the chronological products of Alice's and Bob's local
    Kraus operators along the path: the table sum_{pi, sigma} W[pi, sigma]
    P_pi (x) P_sigma, for W the sum of the leaves' tables (path_prefixes).
    The Povm checks completeness in these tables, and writes an element dense
    in the system-major basis (directly comparable with the closed-form
    separable constructions) only on request.
    """
    tables: dict[int, np.ndarray] = {}
    for node, table, _ in path_prefixes(protocol):
        if isinstance(node, Leaf):
            tables[node.label] = tables.get(node.label, 0.0) + table
    return Povm((protocol.d_a, protocol.d_b), dict(sorted(tables.items())))
