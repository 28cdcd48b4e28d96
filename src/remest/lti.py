"""Linear process model, steady-state sensor filter, and the one-step
prediction operator that propagates the receiver's error covariance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np


# the doubling's stop is never stricter than this fraction of max |H|, a few float64 ulps
_ROUNDING = 4 * np.finfo(float).eps
# one filter step may change the returned P by this fraction of max |P|, well above rounding
_RESIDUAL = 1e-12


class RiccatiError(RuntimeError):
    """The Riccati doubling diverged or did not settle, or its fixed point
    failed the residual check; carries the last iterate."""

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


def _power_traces(powers: np.ndarray, X: np.ndarray) -> np.ndarray:
    """tr(A^k X A^k^T) for each stacked power A^k. An all-zero X gives zeros
    without touching the powers, whose deep entries may have overflowed."""
    if not X.any():
        return np.zeros(len(powers))
    return np.einsum("kij,jl,kil->k", powers, X, powers)


def _update(sys: LtiSystem, P_pred: np.ndarray) -> tuple:
    """Gain and Joseph-form posterior of a measurement update of the prior P_pred."""
    innov = sys.C @ P_pred @ sys.C.T + sys.R
    # K = P_pred C^T S^-1, solved as S^T K^T = (P_pred C^T)^T; S = innov
    # is SPD because R is PD
    gain = np.linalg.solve(innov.T, (P_pred @ sys.C.T).T).T
    # Joseph form: (I - KC) P_pred alone cancels to rounding noise when
    # P_pred >> R; this sum of PSD terms does not
    ikc = np.eye(sys.n) - gain @ sys.C
    P = ikc @ P_pred @ ikc.T + gain @ sys.R @ gain.T
    return gain, 0.5 * (P + P.T)


def riccati_steady_state(
    sys: LtiSystem,
    tol: float = 1e-9,
    max_iter: int = 100000,
    q_max: int = 20,
) -> SteadyKalman:
    """Solve the filter's Riccati equation for its steady state by doubling.

    The structure-preserving doubling algorithm (Chu, Fan, Lin and Wang,
    Int. J. Control 2004) runs on the prediction form
    M = A M (I + G M)^-1 A^T + Q, G = C^T R^-1 C, from A_0 = A^T, G_0 = G
    and H_0 = Q. Its iterate H_k is the prior covariance after 2^k filter
    steps from a zero posterior, so each doubling step doubles the filter
    steps covered, at the price of one linear solve with I + G_k H_k. A
    step settles when it changes H by at most max(tol * min(1, s), 4 eps s)
    elementwise, where s = max |H| after the step and eps is float64's
    machine epsilon: tol is absolute for a covariance of unit size or
    more, relative to s for a smaller one, and never stricter than
    rounding. With Q = 0 the iterate stays 0 and the first step settles.
    From the settled prior, one measurement update gives the gain and the
    Joseph-form posterior P.

    P is then checked against the equation itself: one filter step
    (prediction and update) from P must change it by at most
    max(tol * min(1, s), 1e-12 s), s = max |P|. The doubling's rounding
    grows with the condition of I + G H, so at a signal-to-noise ratio far
    from 1 its P can miss this bound (by up to 1e-2 relative where Q / R
    passes 1e15); filter steps from P then refine it until one passes the
    check. Where I + G H is singular to working precision, or an unstable
    mode that no noise excites takes A_k past float64, the doubling stops
    and the filter steps carry on from its last prior. max_iter
    caps the doubling steps and, separately, the filter steps. The
    returned cost table has q_max + 5 entries so that one-step-lookahead
    policies and the saturating boundary of the truncated decision model
    stay inside it.

    Raises RiccatiError, carrying the last iterate, when the doubling
    diverges to non-finite values (naming the doubling step), when it does
    not settle within max_iter steps, or when P fails its residual check
    after max_iter filter steps (both naming the last change relative to
    s). These signal an undetectable or otherwise unstabilizable
    configuration.
    Raises ValueError naming the first q whose staleness cost overflows
    float64; a smaller q_max keeps the table finite.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n = sys.n
    ident = np.eye(n)
    a_k = sys.A.T
    g_k = sys.C.T @ np.linalg.solve(sys.R, sys.C)
    h_k = sys.Q
    # a diverging iterate overflows on its way to the non-finite check,
    # which reports it as a RiccatiError; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for steps in range(1, max_iter + 1):
            try:
                # I + G H has eigenvalues >= 1, since G and H are PSD
                solved = np.linalg.solve(ident + g_k @ h_k, np.hstack([a_k, g_k]))
            except np.linalg.LinAlgError:
                break  # singular to working precision: the filter steps below carry on from H
            wa, wg = solved[:, :n], solved[:, n:]
            h_new = h_k + a_k.T @ h_k @ wa
            h_new = 0.5 * (h_new + h_new.T)
            g_k = g_k + a_k @ wg @ a_k.T
            g_k = 0.5 * (g_k + g_k.T)
            a_k = a_k @ wa
            if not np.isfinite(h_new).all():
                raise RiccatiError(
                    f"Riccati doubling diverged to non-finite values at doubling step {steps}", h_k
                )
            size, change = float(np.abs(h_new).max()), float(np.abs(h_new - h_k).max())
            h_k = h_new
            if change <= max(tol * min(1.0, size), _ROUNDING * size):
                break
            # an unstable mode that no noise excites takes A_k past float64 while H stays
            # finite; the filter steps below carry on from H
            if not (np.isfinite(a_k).all() and np.isfinite(g_k).all()):
                break
        else:
            raise RiccatiError(
                f"Riccati doubling did not settle within {max_iter} doubling steps: the last "
                f"step changed the prior M by {change / size:.3g} of max |M| = {size:.3g}",
                h_k,
            )

    gain, P = _update(sys, h_k)
    for _ in range(max_iter):
        next_gain, next_P = _update(sys, sys.A @ P @ sys.A.T + sys.Q)
        size, change = float(np.abs(next_P).max()), float(np.abs(next_P - P).max())
        if change <= max(tol * min(1.0, size), _RESIDUAL * size):
            break
        gain, P = next_gain, next_P
    else:
        raise RiccatiError(
            f"Riccati fixed point failed its residual check after {max_iter} filter steps: the "
            f"last step changed P by {change / size:.3g} of max |P| = {size:.3g}",
            P,
        )

    # powers[k] = A^k for k <= q_max + 5, stacked by doubling: each pass
    # multiplies the powers held so far by the highest one
    n_entries = q_max + 5
    powers = np.empty((n_entries + 1, n, n))
    powers[0] = ident
    powers[1] = sys.A
    held = 1
    # an overflowing power or trace is reported below; numpy's warning would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        while held < n_entries:
            more = min(held, n_entries - held)
            np.matmul(powers[1:more + 1], powers[held], out=powers[held + 1:held + more + 1])
            held += more
        # tr f^(k+1)(P) = tr(A^(k+1) P A^(k+1)^T) + sum_{j <= k} tr(A^j Q A^j^T): every term
        # is the trace of a PSD matrix, so nothing cancels
        table = _power_traces(powers[1:], P) + np.cumsum(_power_traces(powers[:-1], sys.Q))
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

