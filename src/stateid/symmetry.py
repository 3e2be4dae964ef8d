"""Permutation-symmetry operator algebra on the triple tensor space (C^d)^x3.

The space splits into the totally symmetric subspace (dimension d(d+1)(d+2)/6),
the totally antisymmetric one (d(d-1)(d-2)/6) and the mixed-symmetry remainder
(2d(d^2-1)/3, carrying the two-dimensional irrep of the order-3 symmetric group
with multiplicity half its dimension).  The pairwise swaps and
(anti)symmetrizers, the three subspace projectors, and the two combinations
swap_diff = (T01 - T02)/2 and swap_sum = (T01 + T02)/2 drive every
measurement construction downstream:

    swap_diff^2 = (3/4) * mixed3
    swap_diff * swap_sum + swap_sum * swap_diff = 0
    swap_sum^2 = 1 - swap_diff^2

Every local operator of the schemes is given by its six real coordinates on
the P_k, the permutations S3_PERMUTATIONS[k] of the three tensor factors, the
same at every d (S3), and multiplied in the group algebra R[S3] (s3_product,
s3_adjoint, relabel).  At d = 2, where sum_k sgn(k) P_k = 0, s3_reduce picks
one representative of the coordinates.  No operator is ever fitted back to
coordinates: every scheme is built in them.

A joint operator of a split d = d_a*d_b is its 6 x 6 table W on the
P_k^A (x) P_l^B, the same at every split, multiplied party by party
(s3_product).  By Schur-Weyl duality (A. Harrow, arXiv:quant-ph/0512255) the
P_k act on (C^d)^x3 as the trivial, sign and standard irreps of S3, each
repeated sym3, antisym3 and mixed3/2 times, and the P_k^A (x) P_l^B as their
products (irreps): so an operator's spectrum and trace are those of matrices
of at most 4 x 4 (linalg), at every dimension.

The P_k are also index maps of the basis (permutation_columns), through
which one writer scatters coordinates or a table dense (_scatter), for a
POVM's element (povm.Povm.element) and for the toolkit, which writes the
operators of S3 dense under their names.  The dense writers are the tests'
and the benchmark's reference: no command calls them.  The index of a basis
vector is the mixed-radix number over the tensor factors, most significant
first; a split's joint space is system-major, (0a, 0b, 1a, 1b, 2a, 2b), and
only permutation_columns reads that layout.

The schemes are defined for local dimensions of at least 2, and one rule
says so (check_dims): dims is (d,) or (d_a, d_b), each an integer >= 2.
dimension_table, povm.Povm, protocol.LoccProtocol, bipartite_toolkit and
the three closed forms call it, and every other entry point reaches one of
them before any work, so each refuses a bad dimension with its one text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, prod
from numbers import Integral
from types import SimpleNamespace

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
# P_i P_k (x) P_j P_l = P_m (x) P_n for 6 m + n = _SPLIT_PRODUCT[i, j, k, l]
_SPLIT_PRODUCT = 6 * _PRODUCT[:, None, :, None] + _PRODUCT[None, :, None, :]
# The irreps of S3 indexed like the P_k: trivial, sign, and the standard one,
# the 3 x 3 permutation matrices M_k[p, perm[p]] = 1 (which compose by
# _PRODUCT) restricted to an orthonormal basis of the sum-zero plane.
_PLANE = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T / np.sqrt([2.0, 6.0])
_IRREPS = (np.ones((6, 1, 1)), _SIGNS.reshape(6, 1, 1),
           np.array([_PLANE.T @ np.eye(3)[list(perm)] @ _PLANE for perm in S3_PERMUTATIONS]))


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


def check_dims(dims: tuple) -> None:
    """The one dimension rule: dims is (d,) or a split (d_a, d_b), each local
    dimension an integer >= 2; otherwise ValueError, with one text."""
    if not (isinstance(dims, tuple) and len(dims) in (1, 2)
            and all(isinstance(d, Integral) and d >= 2 for d in dims)):
        raise ValueError(f"dimensions must be (d,) or (d_a, d_b), each an integer >= 2, "
                         f"got {dims!r}")


def dimension_table(d: int) -> DimensionTable:
    check_dims((d,))
    sym3 = comb(d + 2, 3)
    antisym3 = comb(d, 3)
    return DimensionTable(
        d=d,
        sym2=comb(d + 1, 2),
        sym3=sym3,
        antisym3=antisym3,
        mixed3=d**3 - sym3 - antisym3,
    )


def check_dim_relation(d_a: int, d_b: int) -> tuple[int, int]:
    """(lhs, rhs): the mixed-subspace dimension at d_a*d_b and the five-term
    sum over local tables.

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
    return dimension_table(d_a * d_b).mixed3, rhs


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
    """Coordinates of (sum_i a[i] P_i)(sum_j b[j] P_j), from the multiplication
    table; for two tables of a split, the table of their product."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    if a.ndim == 1:
        return np.bincount(_PRODUCT.ravel(), np.outer(a, b).ravel(), minlength=6)
    weights = (a[:, :, None, None] * b).ravel()
    return np.bincount(_SPLIT_PRODUCT.ravel(), weights, minlength=36).reshape(6, 6)


def s3_adjoint(x) -> np.ndarray:
    """Coordinates of the adjoint of sum_k x[k] P_k, for real x; or the table
    of the adjoint of a split's table x."""
    x = np.asarray(x)
    return x[np.ix_(*(_INVERSE,) * x.ndim)]


def joint(c, dims: tuple[int, ...]) -> np.ndarray:
    """sum_k c[k] P_k on the whole (C^d)^x3: the coordinates c on a party,
    dims = (d,), or on a split the diagonal table, as P_k = P_k^A (x) P_k^B."""
    return np.asarray(c) if len(dims) == 1 else np.diag(c)


def relabel(x) -> np.ndarray:
    """The 1<->2 reference swap P_3 X P_3 of coordinates, or of a table, whose
    P_3 is P_3^A (x) P_3^B."""
    x = np.asarray(x)
    return x[np.ix_(*(RELABEL,) * x.ndim)]


@lru_cache(maxsize=None)
def irreps(*dims: int) -> tuple[tuple[np.ndarray, int], ...]:
    """(rho, m) for each irrep rho of S3 present on (C^d)^x3, dims = (d,), or of
    S3 x S3 on a split, dims = (d_a, d_b): rho is (6, n, n), or (6, 6, n, n)
    for rho_A (x) rho_B, indexed like coordinates or tables, and m its
    multiplicity, sym3, antisym3 or mixed3/2 of dimension_table, or their
    products; an irrep of multiplicity 0 (the sign at d = 2) is left out."""
    parties = []
    for d in dims:
        t = dimension_table(d)
        parties.append([(rho, m) for rho, m in zip(_IRREPS, (t.sym3, t.antisym3, t.mixed3 // 2))
                        if m])
    out = parties[0]
    if len(dims) == 2:
        out = [(np.einsum("kij,lmn->klimjn", ra, rb).reshape(6, 6, *(ra.shape[1] * rb.shape[1],) * 2),
                ma * mb) for ra, ma in parties[0] for rb, mb in parties[1]]
    _freeze(*(rho for rho, _ in out))
    return tuple(out)


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


@lru_cache(maxsize=None)
def build_toolkit(d: int) -> SimpleNamespace:
    """The operators of S3 on (C^d)^x3 under their names, as read-only real
    dense matrices written by permutation_sum, with d and its
    DimensionTable dims; cached per d and shared.  The identity is left out,
    a d^6 array that no reader needs."""
    dims = dimension_table(d)
    named = {name: c for name, c in vars(S3).items()
             if isinstance(c, np.ndarray) and name != "identity"}
    ops = permutation_sum(d, np.array(list(named.values())))
    _freeze(ops)
    return SimpleNamespace(d=d, dims=dims, **dict(zip(named, ops)))


@dataclass(frozen=True)
class BipartiteToolkit:
    """A validated d = d_a*d_b split.  Its joint operators are 6 x 6 tables;
    no regrouping is formed."""

    d_a: int
    d_b: int

    @property
    def d(self) -> int:
        return self.d_a * self.d_b


@lru_cache(maxsize=None)
def bipartite_toolkit(d_a: int, d_b: int) -> BipartiteToolkit:
    """The d_a*d_b split, by check_dims."""
    check_dims((d_a, d_b))
    return BipartiteToolkit(d_a=d_a, d_b=d_b)
