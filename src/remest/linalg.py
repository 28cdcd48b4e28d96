"""Small dense real-matrix kernel for control-sized problems (n up to ~8).

Covariance matrices, state-transition matrices and Kalman gains in this
package are all small and dense, so everything here is numpy-backed with
explicit validation instead of delegating shape errors to the call site.
"""

from __future__ import annotations

import numpy as np


class Mat:
    """Immutable real matrix with validated construction.

    Entries are stored row-major as float64. Construction rejects NaN/Inf
    and ragged input; the underlying array is marked read-only so values
    can be shared freely across threads.
    """

    def __init__(self, data):
        arr = np.array(data, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"matrix data must be 2-D and non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._a = arr

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(np.eye(n))

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def entries(self):
        """Flat row-major tuple of the entries."""
        return tuple(self._a.ravel())

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view."""
        return self._a

    def __repr__(self):
        return f"Mat({self._a.tolist()!r})"

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self._a.shape == other._a.shape and bool(np.all(self._a == other._a))


def as_array(a) -> np.ndarray:
    """Coerce a Mat or array-like to a validated 2-D float64 ndarray."""
    if isinstance(a, Mat):
        return a.array
    return Mat(a).array


def mat_mul(a, b) -> Mat:
    """Matrix product a @ b. Raises ValueError on inner-dimension mismatch."""
    aa, ba = as_array(a), as_array(b)
    if aa.shape[1] != ba.shape[0]:
        raise ValueError(f"dimension mismatch: ({aa.shape[0]}x{aa.shape[1]}) @ ({ba.shape[0]}x{ba.shape[1]})")
    return Mat(aa @ ba)


def trace(a) -> float:
    """Sum of the diagonal of a square matrix."""
    aa = as_array(a)
    if aa.shape[0] != aa.shape[1]:
        raise ValueError(f"trace requires a square matrix, got {aa.shape}")
    return float(np.trace(aa))


def spectral_radius_sq(a) -> float:
    """Square of the largest eigenvalue magnitude of a square matrix.

    Complex eigenvalues count by their modulus, so a rotating process with
    a complex dominant pair is covered.
    """
    aa = as_array(a)
    if aa.shape[0] != aa.shape[1]:
        raise ValueError(f"spectral radius requires a square matrix, got {aa.shape}")
    return float(np.abs(np.linalg.eigvals(aa)).max() ** 2)


def spd_inverse(a, sym_tol: float = 1e-9) -> Mat:
    """Inverse of a symmetric positive-definite matrix.

    Symmetry is checked up to sym_tol relative to the largest entry;
    positive-definiteness via Cholesky. Raises ValueError when either
    fails (including numerically singular input).
    """
    aa = as_array(a)
    n = aa.shape[0]
    if n != aa.shape[1]:
        raise ValueError(f"spd_inverse requires a square matrix, got {aa.shape}")
    scale = max(1.0, float(np.abs(aa).max()))
    if float(np.abs(aa - aa.T).max()) > sym_tol * scale:
        raise ValueError("matrix is not symmetric")
    try:
        chol = np.linalg.cholesky(aa)
    except np.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive-definite") from exc
    ident = np.eye(n)
    # inv(A) = inv(L)^T @ inv(L) from A = L L^T
    linv = np.linalg.solve(chol, ident)
    inv = linv.T @ linv
    if not np.all(np.isfinite(inv)):
        raise ValueError("matrix is numerically singular")
    return Mat(0.5 * (inv + inv.T))
