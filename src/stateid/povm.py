"""Labeled positive-operator-valued measures in the coordinates of symmetry.S3:
the global POVMs and the flattened LOCC trees.

Every measurement of the schemes commutes with U^x3, so each element is a
combination of the permutation operators: six coordinates on the P_pi of
(C^d)^x3, or on a d_a*d_b split a 6 x 6 table on the P_pi^A (x) P_sigma^B.
A Povm holds its elements so, and is checked when it is made: its dims by
symmetry.check_dims, and completeness in its elements, by the rule that
also checks each protocol step (check_complete).
The oracles read the elements as they are held, spectra and traces on the
irreps of S3 (linalg), at every dimension, and mean_success is the one rule
for a POVM's mean success over the reference pairs.  Povm.element writes an
element dense, as the tests' and the benchmark's reference; no command calls
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .linalg import max_abs, trace
from .symmetry import (S3, _scatter, check_dims, dimension_table, joint, permutation_columns,
                       s3_product, s3_reduce)

COMPLETENESS_ATOL = 1e-10


def check_complete(dims: tuple[int, ...], missing: np.ndarray, whole: str) -> None:
    """Raise unless missing, the coordinates (6,) on a party of dimension
    dims[0] or the table (6, 6) on a split dims = (d_a, d_b), stands for 0
    within COMPLETENESS_ATOL: its largest entry, once each axis is reduced by
    symmetry.s3_reduce at its party's dimension, is at most that.  A dense
    entry adds up to six coordinates (|aaa><aaa| adds all six), or 36
    entries of a table.  A NaN fails; the message names the whole they miss."""
    for axis, d in enumerate(dims):
        missing = np.moveaxis(s3_reduce(d, np.moveaxis(missing, axis, -1)), -1, axis)
    defect = max_abs(missing)
    if not defect <= COMPLETENESS_ATOL:
        raise ValueError(f"elements do not sum to the {whole} (max defect {defect:.3e})")


@dataclass(frozen=True)
class Povm:
    """Labeled elements on (C^d)^x3, dims = (d,), each a 6-vector of
    coordinates, or on a split, dims = (d_a, d_b), each a 6 x 6 table; in
    sampling order.  Complete when made (check_complete), so never empty."""

    dims: tuple[int, ...]
    elements: dict[Hashable, np.ndarray]

    def __post_init__(self) -> None:
        check_dims(self.dims)
        shape = (6,) * len(self.dims)
        for label, c in self.elements.items():
            if np.shape(c) != shape:
                raise ValueError(f"element {label!r} has shape {np.shape(c)}, not {shape}")
        unit = np.zeros(shape)
        unit[(0,) * len(shape)] = 1.0
        check_complete(self.dims, unit - sum(self.elements.values()), "identity")

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return tuple(self.elements)

    def element(self, label: Hashable) -> np.ndarray:
        """The element written dense, on the system-major joint space of a split:
        the tests' and the benchmark's reference."""
        return _scatter(permutation_columns(*self.dims), self.elements[label])


def mean_success(povm: Povm, priors) -> float:
    """The mean success sum_L eta_L <psi_L| E_L |psi_L> over Haar reference
    pairs, psi_L = phi_L (x) phi_1 (x) phi_2, of a POVM labeled {1, 2}, or
    {0, 1, 2}, whose inconclusive label 0 answers nothing; priors carries
    eta1 and eta2.  The mean of psi_L's projector is sym0L / (d1*d2), with
    d1 = D and d2 = D(D+1)/2 at D = prod(povm.dims), so this is

        sum_L eta_L tr[E_L sym0L] / (d1*d2),

    read on the irreps of S3, at the dimensions the POVM is made for."""
    if set(povm.labels) not in ({1, 2}, {0, 1, 2}):
        raise ValueError(f"an identification POVM carries labels {{1, 2}} or {{0, 1, 2}}, "
                         f"got {povm.labels}")
    dims = povm.dims
    overlap = trace(priors.eta1 * s3_product(povm.elements[1], joint(S3.sym01, dims))
                    + priors.eta2 * s3_product(povm.elements[2], joint(S3.sym02, dims)), dims)
    d = math.prod(dims)
    return overlap / (d * dimension_table(d).sym2)
