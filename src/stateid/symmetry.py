"""Permutation-symmetry operator algebra on the triple tensor space (C^d)^x3.

The space splits into the totally symmetric subspace (dimension d(d+1)(d+2)/6),
the totally antisymmetric one (d(d-1)(d-2)/6) and the mixed-symmetry remainder
(2d(d^2-1)/3, carrying the two-dimensional irrep of the order-3 symmetric group
with multiplicity half its dimension).  The toolkit materializes the pairwise
swaps and (anti)symmetrizers, the three subspace projectors, and the two
combinations swap_diff = (T01 - T02)/2 and swap_sum = (T01 + T02)/2 whose
algebra drives every measurement construction downstream:

    swap_diff^2 = (3/4) * mixed3
    swap_diff * swap_sum + swap_sum * swap_diff = 0
    swap_sum^2 = 1 - swap_diff^2

Every local operator of the schemes is given by its six real coordinates on
the P_k, the permutations S3_PERMUTATIONS[k] of the three tensor factors, the
same at every d (S3), and multiplied in the group algebra R[S3] (s3_product,
s3_adjoint, RELABEL).  At d = 2, where sum_k sgn(k) P_k = 0, s3_reduce picks
one representative of the coordinates.  No operator is ever fitted back to
coordinates: every scheme is built in them.

A joint operator of a split d = d_a*d_b is its 6 x 6 table W on the
P_k^A (x) P_l^B, the same at every split.  Those permute the six tensor
factors of the joint space, so like the P_k they are index maps
(permutation_columns), and one writer scatters coordinates or a table
through them (_scatter, as permutation_sum and split_sum): the one way an
operator becomes dense, called only by the oracles and by a POVM's element
on request (povm.Povm.element).  The orbits of the basis under the maps are
the blocks of every such operator, which the oracles' eigensolves run on
(orbit_blocks).  Overlaps Re tr(P_pi^T op) are read through the same maps
(permutation_traces), and the 1<->2 reference swap is a transposition of
tensor-factor axes (swap_references).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import product
from math import comb, prod

import numpy as np

# the six permutations of three positions, with their signs
_S3_GROUP = (
    ((0, 1, 2), +1),
    ((1, 0, 2), -1),  # swap systems 0,1
    ((2, 1, 0), -1),  # swap systems 0,2
    ((0, 2, 1), -1),  # swap systems 1,2
    ((1, 2, 0), +1),
    ((2, 0, 1), +1),
)
# the permutations alone, in the same order: the index of P_pi in coordinates.
# P_pi maps |i_0 i_1 i_2> to |i_pi[0] i_pi[1] i_pi[2]>: output factor p
# carries what input factor pi[p] held.
S3_PERMUTATIONS = tuple(perm for perm, _ in _S3_GROUP)
_SIGNS = np.array([sign for _, sign in _S3_GROUP], float)
# P_i P_j = P_k for k = _PRODUCT[i, j], and P_k^dag = P_k^T = P_{_INVERSE[k]}
# (the P_pi compose as P(s) P(t) = P(t[s[p]] for each p))
_PRODUCT = np.array([[S3_PERMUTATIONS.index(tuple(t[s[p]] for p in range(3)))
                      for t in S3_PERMUTATIONS] for s in S3_PERMUTATIONS])
_INVERSE = np.array([S3_PERMUTATIONS.index(tuple(s.index(p) for p in range(3)))
                     for s in S3_PERMUTATIONS])
# the 1<->2 relabel P_3 P_k P_3 = P_{RELABEL[k]}: coordinates c go to c[RELABEL]
RELABEL = _PRODUCT[3, _PRODUCT[:, 3]]


@dataclass(frozen=True)
class DimensionTable:
    """Subspace dimensions of (C^d)^x3 and the n-copy symmetric dimensions.

    sym2/sym3 are the dimensions of the totally symmetric subspaces of 2 and 3
    copies (binomials C(d+1,2) and C(d+2,3)); antisym3 = C(d,3); mixed3 is the
    remainder 2d(d^2-1)/3.  All exact integers.
    """

    d: int
    sym2: int
    sym3: int
    antisym3: int
    mixed3: int

    @property
    def total(self) -> int:
        return self.d**3


def dimension_table(d: int) -> DimensionTable:
    if d < 1:
        raise ValueError(f"local dimension must be >= 1, got {d}")
    sym3 = comb(d + 2, 3)
    antisym3 = comb(d, 3)
    return DimensionTable(
        d=d,
        sym2=comb(d + 1, 2),
        sym3=sym3,
        antisym3=antisym3,
        mixed3=d**3 - sym3 - antisym3,
    )


@dataclass(frozen=True)
class DimRelationReport:
    """Both sides of the mixed-subspace dimension identity for a split d = d_a*d_b."""

    d_a: int
    d_b: int
    lhs: int
    rhs: int

    @property
    def residual(self) -> int:
        return self.lhs - self.rhs


def check_dim_relation(d_a: int, d_b: int) -> DimRelationReport:
    """Mixed-subspace dimension at d_a*d_b vs the five-term sum over local tables.

    The identity: mixed3(d_a*d_b) = sym3_a*mixed3_b + mixed3_a*sym3_b
    + antisym3_a*mixed3_b + mixed3_a*antisym3_b + mixed3_a*mixed3_b/2,
    evaluated in exact integer arithmetic (mixed3 is always even).
    """
    ta, tb = dimension_table(d_a), dimension_table(d_b)
    rhs = (
        ta.sym3 * tb.mixed3
        + ta.mixed3 * tb.sym3
        + ta.antisym3 * tb.mixed3
        + ta.mixed3 * tb.antisym3
        + ta.mixed3 * tb.mixed3 // 2
    )
    return DimRelationReport(d_a=d_a, d_b=d_b, lhs=dimension_table(d_a * d_b).mixed3, rhs=rhs)


@dataclass(frozen=True)
class SymmetryToolkit:
    """The operators of S3 on (C^d)^x3 under their names, as real dense
    matrices written by permutation_sum.

    Arrays are read-only; toolkits are cached per d and shared.
    """

    d: int
    dims: DimensionTable
    swap01: np.ndarray
    swap02: np.ndarray
    swap12: np.ndarray
    sym01: np.ndarray
    sym02: np.ndarray
    antisym01: np.ndarray
    antisym02: np.ndarray
    sym3: np.ndarray
    antisym3: np.ndarray
    mixed3: np.ndarray
    swap_diff: np.ndarray
    swap_sum: np.ndarray


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@lru_cache(maxsize=None)
def permutation_columns(*dims: int) -> np.ndarray:
    """Index map (6, d^3) of a party's P_k, or (6, 6, (d_a*d_b)^3) of a split's
    P_k^A (x) P_l^B: row i holds its one 1 in column [k, i], or [k, l, i].
    For a swap P_k, op @ P_k = op[:, that row].  The one place that knows the
    joint layout, system-major (0a, 0b, 1a, 1b, 2a, 2b)."""
    n = prod(dims) ** 3
    index = np.arange(n).reshape(dims * 3)   # axis len(dims)*s + p: system s of party p
    columns = np.array([
        np.transpose(index, [len(dims) * perm[s] + p for s in range(3)
                             for p, perm in enumerate(perms)]).ravel()
        for perms in product(S3_PERMUTATIONS, repeat=len(dims))])
    columns = columns.reshape((6,) * len(dims) + (n,))
    _freeze(columns)
    return columns


@lru_cache(maxsize=None)
def orbit_blocks(*dims: int) -> tuple[np.ndarray, ...]:
    """The orbits {columns[k][i]} of the basis indices under the maps of
    permutation_columns(*dims), grouped as (orbits, size) read-only index
    arrays by ascending size, ordered by least member, each ascending: the
    blocks outside which an operator commuting with the maps is zero."""
    columns = permutation_columns(*dims).reshape(-1, prod(dims) ** 3)
    label = columns.min(axis=0)
    size = 1 + np.count_nonzero(np.diff(np.sort(columns, axis=0), axis=0), axis=0)
    order = np.argsort(label, kind="stable")
    blocks = tuple(order[size[order] == s].reshape(-1, s) for s in np.unique(size))
    _freeze(*blocks)
    return blocks


_UNIT = np.eye(6)


class S3:
    """Coordinates on the P_k of the operators every scheme is built from, the
    same at every d; the toolkit writes each of them dense under its name."""

    identity = _UNIT[0]
    swap01, swap02, swap12 = _UNIT[1], _UNIT[2], _UNIT[3]
    sym01, antisym01 = (_UNIT[0] + _UNIT[1]) / 2, (_UNIT[0] - _UNIT[1]) / 2
    sym02, antisym02 = (_UNIT[0] + _UNIT[2]) / 2, (_UNIT[0] - _UNIT[2]) / 2
    swap_diff, swap_sum = (_UNIT[1] - _UNIT[2]) / 2, (_UNIT[1] + _UNIT[2]) / 2
    sym3, antisym3 = np.full(6, 1 / 6), _SIGNS / 6
    mixed3 = _UNIT[0] - sym3 - antisym3


_freeze(*(c for c in vars(S3).values() if isinstance(c, np.ndarray)))


def s3_product(a, b) -> np.ndarray:
    """Coordinates of (sum_i a[i] P_i)(sum_j b[j] P_j), from the multiplication table."""
    return np.bincount(_PRODUCT.ravel(), np.outer(a, b).ravel(), minlength=6)


def s3_adjoint(c) -> np.ndarray:
    """Coordinates of the adjoint of sum_k c[k] P_k, for real c."""
    return np.asarray(c)[_INVERSE]


def s3_reduce(d: int, c) -> np.ndarray:
    """The coordinates c (..., 6), or at d = 2, where sum_k sgn(k) P_k = 6
    antisym3 = 0, c less its component along the signs: the least-norm
    coordinates of the same operator."""
    c = np.asarray(c, float)
    return c - (c @ _SIGNS / 6)[..., None] * _SIGNS if d == 2 else c


def _scatter(columns: np.ndarray, c) -> np.ndarray:
    """The dense sum of c[..., k] times the 0/1 matrix of the map columns[k],
    for k over the leading axes of columns; c's leading axes stack results."""
    c = np.asarray(c, float)
    n = columns.shape[-1]
    out = np.empty(c.shape[:c.ndim - columns.ndim + 1] + (n, n))
    out.fill(0.0)   # np.zeros would leave each page to fault in as the scatter first reaches it
    rows = np.arange(n)
    for k in np.ndindex(columns.shape[:-1]):
        out[..., rows, columns[k]] += c[(..., *k, None)]
    return out


def permutation_sum(d: int, c) -> np.ndarray:
    """The dense sum_k c[k] P_k on (C^d)^x3; a stack (..., 6) of coordinates
    gives a stack of matrices."""
    return _scatter(permutation_columns(d), c)


def split_sum(d_a: int, d_b: int, table) -> np.ndarray:
    """The dense sum_{k,l} W[k, l] P_k^A (x) P_l^B of a 6 x 6 table W, or of
    each of a stack (..., 6, 6), on the joint space of a d_a*d_b split."""
    return _scatter(permutation_columns(d_a, d_b), table)


def permutation_traces(op: np.ndarray) -> np.ndarray:
    """Re tr(P_k^T op) for the six P_k on (C^d)^x3, each the sum of the d^3
    entries of op that P_k's index map picks out; no P_k is formed.  For the
    identity and the swaps P_k^T = P_k, so these are Re tr(op P_k)."""
    d = round(op.shape[0] ** (1 / 3))
    return op.real[np.arange(d**3), permutation_columns(d)].sum(axis=1)


def symmetrizer_traces(op: np.ndarray) -> tuple[float, float]:
    """Re tr(op sym01) and Re tr(op sym02), from the identity's and the two
    swaps' index maps."""
    traces = permutation_traces(op)
    return float(traces[0] + traces[1]) / 2, float(traces[0] + traces[2]) / 2


def reference_swap_view(op: np.ndarray) -> np.ndarray:
    """swap12 @ op @ swap12 on (C^d)^x3 as a strided view with the six
    tensor-factor axes (d,)*6 of op's rows and columns: nothing is copied."""
    d = round(op.shape[0] ** (1 / 3))
    return op.reshape((d,) * 6).transpose(0, 2, 1, 3, 5, 4)


def swap_references(op: np.ndarray) -> np.ndarray:
    """swap12 @ op @ swap12 on (C^d)^x3, as an index map rather than a 0/1 matmul.

    Exchanges the two reference systems: the relabeling 1 <-> 2 of both the
    min-error and the unambiguous schemes.
    """
    return reference_swap_view(op).reshape(op.shape)


@lru_cache(maxsize=None)
def _toolkit(d: int) -> SymmetryToolkit:
    names = [f.name for f in fields(SymmetryToolkit)[2:]]
    ops = permutation_sum(d, np.array([getattr(S3, name) for name in names]))
    _freeze(ops)
    return SymmetryToolkit(d, dimension_table(d), *ops)


def build_toolkit(d: int) -> SymmetryToolkit:
    """Cached symmetry toolkit on (C^d)^x3; rejects d < 2."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    return _toolkit(d)


@dataclass(frozen=True)
class BipartiteToolkit:
    """A validated d = d_a*d_b split.  Its joint operators are 6 x 6 tables
    written by split_sum; no regrouping is formed."""

    d_a: int
    d_b: int

    @property
    def d(self) -> int:
        return self.d_a * self.d_b


@lru_cache(maxsize=None)
def bipartite_toolkit(d_a: int, d_b: int) -> BipartiteToolkit:
    """The d_a*d_b split.

    A trivial party with local dimension 1 is allowed as long as the other
    side is at least 2.
    """
    if d_a < 1 or d_b < 1 or d_a * d_b < 2:
        raise ValueError(f"invalid split ({d_a}, {d_b}); need d_a*d_b >= 2")
    return BipartiteToolkit(d_a=d_a, d_b=d_b)
