"""Instance and dataset containers for binary multi-label data.

Labels are stored as +1/-1 (never 0/1); inputs are dense float vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

__all__ = ["Instance", "Dataset", "as_sign_labels"]


def as_sign_labels(y) -> np.ndarray:
    """Validate and return a label array with entries in {+1, -1} as int8."""
    arr = np.asarray(y)
    if arr.size == 0:
        raise DataError("empty label array")
    vals = np.unique(arr)
    if not np.all(np.isin(vals, (-1, 1))):
        raise DataError(f"labels must be +1 or -1, found values {vals.tolist()}")
    return arr.astype(np.int8)


@dataclass(frozen=True)
class Instance:
    """One example: input vector x and label vector y in {+1,-1}^K."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise DataError(f"input must be a vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise DataError("input contains non-finite values")
        y = as_sign_labels(self.y)
        if y.ndim != 1:
            raise DataError(f"labels must be a vector, got shape {y.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


class Dataset:
    """A fixed-size collection of instances stored as dense arrays.

    ``X`` has shape (N, D) float64 and ``Y`` has shape (N, K) int8 with
    entries in {+1, -1}.
    """

    def __init__(self, X, Y) -> None:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise DataError(f"X must be 2-d, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise DataError("X contains non-finite values")
        Y = np.asarray(Y)
        if Y.ndim != 2:
            raise DataError(f"Y must be 2-d, got shape {Y.shape}")
        if Y.shape[0] != X.shape[0]:
            raise DataError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]}")
        if Y.shape[1] < 1:
            raise DataError("Y needs at least one label column")
        self.X = X
        self.Y = as_sign_labels(Y)

    @property
    def n_instances(self) -> int:
        return self.X.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.X.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.Y.shape[1]

    def __len__(self) -> int:
        return self.n_instances

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(self.X[idx], self.Y[idx])
