"""HARQ/ARQ channel model: detection-failure probabilities as a function of
the retransmission count, and the boundedness test for the closed loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    margin: float
    lambda_prime: float
    rho_sq: float
    unseen_modes: tuple  # unstable eigenvalues of A that C cannot see

    def __bool__(self):
        return self.stable


class HarqModel:
    """Detection-failure probability g(r) for r consecutive retransmissions.

    The default parameterization is geometric, g(r) = (1 - lam) * h**r,
    where lam is the success probability of a fresh transmission and
    h in (0, 1] is the combining-gain factor (h = 1 degenerates to plain
    ARQ: retransmissions are no more reliable than new packets). An
    explicit table can be supplied instead for other combining schemes;
    it must satisfy g(0) = 1 - lam and be non-increasing, so that no
    retransmission is less reliable than a new transmission (a constant
    table is the ARQ case).
    """

    def __init__(self, lam: float, h: float, r_cap: int = 20):
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"lambda must be in (0, 1], got {lam}")
        if not 0.0 < h <= 1.0:
            raise ValueError(f"h must be in (0, 1], got {h}")
        if r_cap < 1:
            raise ValueError("r_cap must be a positive integer")
        self._finish((1.0 - lam) * float(h) ** np.arange(int(r_cap) + 1, dtype=float), lam, h)

    @classmethod
    def from_table(cls, g_table) -> "HarqModel":
        """Build a model from an explicit failure-probability table g(0..r_cap)."""
        g = np.asarray(g_table, dtype=float)
        if g.ndim != 1 or len(g) < 2:
            raise ValueError("g_table must be a 1-D sequence with at least two entries")
        if not np.all((g >= 0.0) & (g <= 1.0)):  # NaN fails both comparisons
            raise ValueError("g_table entries must lie in [0, 1]")
        if np.any(np.diff(g) > 0.0):
            raise ValueError("g_table must be non-increasing in r")
        if g[0] >= 1.0:
            raise ValueError("g_table[0] must be < 1 (new transmissions must sometimes succeed)")
        model = cls.__new__(cls)
        model._finish(g.copy(), 1.0 - float(g[0]), None)
        return model

    def _finish(self, g: np.ndarray, lam: float, h: float | None) -> None:
        """Set lam, h and r_cap = len(g) - 1, and make g, read-only, the table g(0..r_cap)."""
        self.lam = float(lam)
        self.h = None if h is None else float(h)
        self.r_cap = len(g) - 1
        g.flags.writeable = False
        self._g = g

    def failure_prob(self, r: int) -> float:
        """g(r), the probability that a transmission with count r is not detected."""
        if r < 0 or r > self.r_cap:
            raise ValueError(f"r={r} outside modeled range 0..{self.r_cap}")
        return float(self._g[r])

    def failure_prob_clamped(self, r):
        """g(min(r, r_cap)), elementwise on an int array of counts; counts beyond r_cap saturate."""
        return self._g[np.minimum(r, self.r_cap)]

    def lambda_prime(self) -> float:
        """Effective success floor of retransmissions: 1 - max_{r>0} g(r)."""
        return 1.0 - float(self._g[1:].max())

    def stability_check(self, rho_sq: float, unseen_modes=()) -> StabilityReport:
        """Whether (1 - lambda') * rho^2 < 1, i.e. retransmission reliability
        outruns the process expansion so the long-term MSE stays bounded,
        and LtiSystem.unseen_modes() found no unstable mode hidden from C.
        rho_sq may be 0 (a zero or nilpotent A); a negative, NaN or infinite one is a ValueError."""
        if not 0.0 <= rho_sq < np.inf:
            raise ValueError(f"rho_sq must be finite and non-negative, got {rho_sq!r}")
        lp = self.lambda_prime()
        margin = (1.0 - lp) * rho_sq
        return StabilityReport(stable=margin < 1.0 and not unseen_modes, margin=margin,
                               lambda_prime=lp, rho_sq=rho_sq, unseen_modes=tuple(unseen_modes))
