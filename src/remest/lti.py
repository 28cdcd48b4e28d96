"""Linear process model, steady-state sensor filter, and the one-step
prediction operator that propagates the receiver's error covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


# the Riccati step's stop is never stricter than this fraction of max |P|, a few float64 ulps
_ROUNDING = 4 * np.finfo(float).eps


class RiccatiError(RuntimeError):
    """Riccati iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last_covariance):
        super().__init__(message)
        self.last_covariance = last_covariance


def _as_matrix(name, data) -> np.ndarray:
    """Validated read-only 2-D float copy of data; ragged input raises ValueError."""
    arr = np.array(data, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be 2-D and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} entries must be finite (no NaN/Inf)")
    arr.flags.writeable = False
    return arr


def spectral_radius_sq(a) -> float:
    """Square of the largest eigenvalue magnitude of a square matrix.

    Complex eigenvalues count by their modulus, so a rotating process with
    a complex dominant pair is covered.
    """
    aa = np.asarray(a, dtype=float)
    if aa.ndim != 2 or aa.shape[0] != aa.shape[1]:
        raise ValueError(f"spectral radius requires a square matrix, got {aa.shape}")
    return float(np.abs(np.linalg.eigvals(aa)).max() ** 2)


def _check_psd(name, m, require_pd=False):
    if float(np.abs(m - m.T).max()) > 1e-9 * max(1.0, float(np.abs(m).max())):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    if require_pd:
        if eigs.min() <= 0.0:
            raise ValueError(f"{name} must be positive-definite")
    elif eigs.min() < -1e-9 * max(1.0, eigs.max()):
        raise ValueError(f"{name} must be positive semi-definite")


class LtiSystem:
    """Discrete LTI process x' = A x + w observed through y = C x + v.

    w and v are zero-mean Gaussian with covariances Q (n x n, PSD) and
    R (m x m, PD). A warning is emitted when the process is not expansive
    (rho^2(A) <= 1): the transmit-or-retransmit tradeoff is only
    interesting for unstable dynamics.
    """

    def __init__(self, A, C, Q, R):
        self.A = _as_matrix("A", A)
        self.C = _as_matrix("C", C)
        self.Q = _as_matrix("Q", Q)
        self.R = _as_matrix("R", R)
        n = self.A.shape[0]
        m = self.C.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        if self.C.shape[1] != n:
            raise ValueError(f"C must have {n} columns to match A")
        if self.Q.shape != (n, n):
            raise ValueError("Q must match the state dimension")
        if self.R.shape != (m, m):
            raise ValueError("R must be square with the measurement dimension")
        _check_psd("Q", self.Q)
        _check_psd("R", self.R, require_pd=True)
        self.n = n
        self.m = m
        self.rho_sq = spectral_radius_sq(self.A)
        if self.rho_sq <= 1.0:
            warnings.warn(
                f"rho^2(A) = {self.rho_sq:.6g} <= 1: process is not expansive, "
                "estimation error stays bounded even without transmissions",
                RuntimeWarning,
                stacklevel=2,
            )

    def unseen_modes(self) -> tuple:
        """Eigenvalues mu of A with |mu| >= 1 that C cannot see, by the PBH
        (Hautus) test rank [A - mu I; C] < n, with a rank tolerance loose enough
        for a repeated eigenvalue computed a few ulps off. Any unseen mode
        leaves the sensor filter without a steady state."""
        scale = max(1.0, float(np.abs(self.A).max()), float(np.abs(self.C).max()))
        unseen = []
        for mu in np.linalg.eigvals(self.A):
            if abs(mu) < 1.0:
                continue
            pbh = np.vstack([self.A - mu * np.eye(self.n), self.C])
            if np.linalg.svd(pbh, compute_uv=False).min() <= 1e-8 * scale:
                unseen.append(float(mu.real) if mu.imag == 0 else complex(mu))
        return tuple(unseen)


@dataclass(frozen=True)
class SteadyKalman:
    """Converged sensor-side filter plus the receiver's staleness cost table.

    cost_table[n] is the trace of the receiver error covariance after the
    newest delivered estimate is n+1 steps old, i.e. trace of the (n+1)-fold
    prediction of p_bar0, exact to float64.
    """

    p_bar0: np.ndarray
    gain: np.ndarray
    cost_table: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.cost_table) - 1


def f_apply(sys: LtiSystem, X) -> np.ndarray:
    """One-step covariance prediction A X A^T + Q, symmetrized."""
    X = np.asarray(X, dtype=float)
    if X.shape != (sys.n, sys.n):
        raise ValueError(f"X must be {sys.n}x{sys.n}, got {X.shape}")
    out = sys.A @ X @ sys.A.T + sys.Q
    return 0.5 * (out + out.T)


def riccati_steady_state(
    sys: LtiSystem,
    tol: float = 1e-9,
    max_iter: int = 100000,
    q_max: int = 20,
) -> SteadyKalman:
    """Iterate the filter recursion to its steady state.

    Starting from the process-noise covariance, alternate prediction and
    measurement update until a step changes the posterior covariance P by
    at most max(tol * min(1, s), 4 eps s) elementwise, where s = max |P|
    after the step and eps is float64's machine epsilon: tol is absolute
    for a covariance of unit size or more, relative to s for a smaller
    one, and never stricter than rounding. With Q = 0 the iterate stays 0
    and the first step stops. The returned cost table has q_max + 5
    entries so that one-step-lookahead policies and the saturating
    boundary of the truncated decision model stay inside it.

    Raises RiccatiError (carrying the last iterate, and naming the
    iterations run and the last step's change relative to s) when the
    recursion diverges to non-finite values or does not settle within
    max_iter, which signals an undetectable or otherwise unstabilizable
    configuration.
    Raises ValueError naming the first q whose staleness cost overflows
    float64; a smaller q_max keeps the table finite.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    ident = np.eye(sys.n)
    P = sys.Q.copy()
    gain = None
    # a diverging iterate overflows on its way to the non-finite check,
    # which reports it as a RiccatiError; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, max_iter + 1):
            P_pred = sys.A @ P @ sys.A.T + sys.Q
            innov = sys.C @ P_pred @ sys.C.T + sys.R
            # K = P_pred C^T S^-1, solved as S^T K^T = (P_pred C^T)^T; S = innov
            # is SPD because R is PD
            gain = np.linalg.solve(innov.T, (P_pred @ sys.C.T).T).T
            # Joseph form: (I - KC) P_pred alone cancels to rounding noise
            # above tol when P_pred >> R; this sum of PSD terms does not
            ikc = ident - gain @ sys.C
            P_new = ikc @ P_pred @ ikc.T + gain @ sys.R @ gain.T
            P_new = 0.5 * (P_new + P_new.T)
            if not np.all(np.isfinite(P_new)):
                raise RiccatiError(
                    f"Riccati iteration diverged to non-finite values at iteration {iterations}", P
                )
            size = float(np.abs(P_new).max())
            step = float(np.abs(P_new - P).max())
            P = P_new
            if step <= max(tol * min(1.0, size), _ROUNDING * size):
                break
        else:
            raise RiccatiError(
                f"Riccati iteration did not converge within {max_iter} iterations: the last "
                f"step changed P by {step / size:.3g} of max |P| = {size:.3g}",
                P,
            )

    n_entries = q_max + 5
    table = np.empty(n_entries)
    X = P
    a, a_t, q = sys.A, sys.A.T, sys.Q
    # an overflowing prediction is reported below; numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_entries):
            out = a @ X @ a_t + q  # f_apply, without its per-call check of X
            X = 0.5 * (out + out.T)
            table[n] = np.trace(X)
    overflow = np.flatnonzero(~np.isfinite(table))
    if overflow.size:
        raise ValueError(
            f"staleness cost at q = {overflow[0]} overflows float64; the table holds "
            f"q_max + 5 entries, so lower mdp.q_max (now {q_max}) to {overflow[0] - 5} or less"
        )
    table.flags.writeable = False
    P.flags.writeable = False
    gain.flags.writeable = False
    return SteadyKalman(p_bar0=P, gain=gain, cost_table=table)

