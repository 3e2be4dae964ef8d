"""Labeled positive-operator-valued measures in the coordinates of symmetry.S3:
the global POVMs and the flattened LOCC trees.

Every measurement of the schemes commutes with U^x3, so each element is a
combination of the permutation operators: six coordinates on the P_pi of
(C^d)^x3, or on a d_a*d_b split a 6 x 6 table on the P_pi^A (x) P_sigma^B.
A Povm holds its elements so, and is checked complete in them when it is
made, by the rule that also checks each protocol step (check_complete).
Dense matrices are written only on request (Povm.element); the oracles read
the elements as they are held, spectra and traces on the irreps of S3
(linalg), at every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .linalg import max_abs
from .symmetry import _scatter, permutation_columns, s3_reduce

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
        """The element written dense, on the system-major joint space of a split."""
        return _scatter(permutation_columns(*self.dims), self.elements[label])
