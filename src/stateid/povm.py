"""Labeled positive-operator-valued measures on a joint space, with
completeness validation: the global POVMs and the flattened LOCC trees.
Protocol steps are checked in the coordinates of symmetry.S3 instead
(protocol.step)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

import numpy as np

from .linalg import PSD_EIG_FLOOR, hermitian_eigenvalues, max_abs

COMPLETENESS_ATOL = 1e-10


@dataclass(frozen=True)
class Povm:
    """A labeled set of PSD operators summing to the identity."""

    elements: tuple[tuple[Hashable, np.ndarray], ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        labels = [label for label, _ in self.elements]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels: {labels}")

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return tuple(label for label, _ in self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0][1].shape[0]

    def element(self, label: Hashable) -> np.ndarray:
        for lab, op in self.elements:
            if lab == label:
                return op
        raise KeyError(f"no element labeled {label!r}")

    def validate(self) -> None:
        """Check hermiticity and positivity of each element and completeness.

        The elements' eigenvalues come from one call on them all, and their
        sum is taken from the identity in one buffer of their own dtype; no
        stack of the elements is formed.  Every guard is written so that a
        NaN fails it too.
        """
        ops = [op for _, op in self.elements]
        for label, op in self.elements:
            if op.shape != (self.dim, self.dim):
                raise ValueError(f"element {label!r} has shape {op.shape}")
        for (label, _), low in zip(self.elements, hermitian_eigenvalues(ops)[:, -1]):
            if not low >= PSD_EIG_FLOOR:
                raise ValueError(f"element {label!r} is not PSD (min eigenvalue {low:.3e})")
        missing = np.eye(self.dim, dtype=np.result_type(float, *ops))
        for op in ops:
            missing -= op
        defect = max_abs(missing)
        if not defect <= COMPLETENESS_ATOL:
            raise ValueError(f"elements do not sum to the identity (max defect {defect:.3e})")


def povm_from_dict(elements: dict | Iterable[tuple[Hashable, np.ndarray]]) -> Povm:
    items = elements.items() if isinstance(elements, dict) else elements
    return Povm(tuple((label, op) for label, op in items))
