"""Stationary decision policies on the truncated (r, q) grid and the
switching-structure verifier.

Action 0 sends a fresh estimate, action 1 retransmits the in-flight one.
States are all pairs with 0 <= r <= q <= q_max; grids serialize in
lexicographic (q, r) order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .harq import HarqModel
from .lti import SteadyKalman


def enumerate_states(q_max: int):
    """All (r, q) with 0 <= r <= q <= q_max, lexicographic in (q, r), as two
    read-only int arrays r, q: the one definition of the state order."""
    q, r = np.tril_indices(q_max + 1)
    r.flags.writeable = q.flags.writeable = False
    return r, q


def state_index(r, q):
    """The position of (r, q) in enumerate_states; elementwise on arrays."""
    return q * (q + 1) // 2 + r


@dataclass(frozen=True)
class SwitchingReport:
    ok: bool
    violations: list

    def __bool__(self):
        return self.ok


class PolicyGrid:
    """Total action map over the truncated state grid.

    Stored as a (q_max+1) x (q_max+1) int8 array indexed [r, q]; entries
    with r > q are unused and forced to zero so two grids compare equal
    exactly when they agree on the valid region. The label is reporting
    metadata only and never takes part in equality.
    """

    def __init__(self, q_max: int, actions, label: str = ""):
        if q_max < 0:
            raise ValueError("q_max must be non-negative")
        arr = np.asarray(actions)
        if arr.shape != (q_max + 1, q_max + 1):
            raise ValueError(f"actions must have shape {(q_max + 1, q_max + 1)}, got {arr.shape}")
        valid = np.triu(np.ones(arr.shape, dtype=bool))  # r <= q with [r, q] indexing
        # checked before the cast, which would wrap 256 to 0 and truncate 0.7 to 0
        if not np.isin(arr[valid], (0, 1)).all():
            raise ValueError("actions must be 0 or 1 on every state with r <= q")
        arr = np.where(valid, arr, 0).astype(np.int8)
        arr.flags.writeable = False
        self.q_max = int(q_max)
        self.actions = arr
        self.label = label

    def action(self, r: int, q: int) -> int:
        if not (0 <= r <= q <= self.q_max):
            raise ValueError(f"state ({r}, {q}) outside grid with q_max={self.q_max}")
        return int(self.actions[r, q])

    def relabeled(self, label: str) -> "PolicyGrid":
        return PolicyGrid(self.q_max, self.actions, label)

    def __eq__(self, other):
        if not isinstance(other, PolicyGrid):
            return NotImplemented
        return self.q_max == other.q_max and bool(np.all(self.actions == other.actions))

    def __repr__(self):
        ones = np.count_nonzero(self.actions)  # entries with r > q are zero
        return f"PolicyGrid(q_max={self.q_max}, label={self.label!r}, retransmit_states={ones})"


def myopic_policy(sk: SteadyKalman, m: HarqModel, q_max: int) -> PolicyGrid:
    """One-step-lookahead policy: retransmit only when the expected
    next-step MSE of retransmitting beats that of sending fresh.

    With ct[n] the staleness cost table, the fresh/retransmit expected
    next-step costs at state (r, q) are
        g(0) * ct[q+1] + (1 - g(0)) * ct[0]
        g(r+1) * ct[q+1] + (1 - g(r+1)) * ct[r+1]
    and fresh wins exactly when
        ct[q+1] <= ((1 - g(r+1)) * ct[r+1] - (1 - g(0)) * ct[0]) / (g(0) - g(r+1)).
    When g(0) == g(r+1) (no combining gain) retransmission can never win
    and the action is 0.
    """
    if sk.n_max < q_max + 1:
        raise ValueError(f"cost table covers q up to {sk.n_max}, need {q_max + 1}")
    ct = sk.cost_table
    r, q = enumerate_states(q_max)
    g0, gr1 = m.failure_prob(0), m.failure_prob_clamped(r + 1)
    gain = g0 != gr1
    threshold = ((1.0 - gr1) * ct[r + 1] - (1.0 - g0) * ct[0]) / np.where(gain, g0 - gr1, 1.0)
    actions = np.zeros((q_max + 1, q_max + 1), dtype=np.int8)
    actions[r, q] = gain & (ct[q + 1] > threshold)
    return PolicyGrid(q_max, actions, label="myopic")


def arq_baseline_policy(q_max: int) -> PolicyGrid:
    """Always send the freshest estimate (optimal without combining gain)."""
    return PolicyGrid(q_max, np.zeros((q_max + 1, q_max + 1), dtype=np.int8), label="arq")


def psi_policy(q_max: int) -> PolicyGrid:
    """Retransmit everywhere except on the diagonal r == q."""
    actions = np.ones((q_max + 1, q_max + 1), dtype=np.int8)
    np.fill_diagonal(actions, 0)
    return PolicyGrid(q_max, actions, label="psi")


def verify_switching(p: PolicyGrid) -> SwitchingReport:
    """Check the two switching monotonicity conditions on every pair of states.

    (i) action 0 at (r, q) forces action 0 at (r+z, q) for every in-grid z;
    (ii) action 1 at (r, q) forces action 1 at (r, q+z) for every in-grid z.
    Violations are reported as (state, state, condition) triples, ordered
    by the first state's q, then its r, then z. States at the q = q_max
    boundary have no (ii)-successors and pass vacuously. The paper proves
    the structure for the geometric channel; on a g_table channel the flag
    is an observation, not a theorem.
    """
    a = p.actions.astype(bool)  # [r, q]; False off the grid, r > q
    a_qr = a.T
    later = np.triu(np.ones_like(a), k=1)  # [x, y]: x < y
    # [q, r, t]: (ii) a 1 at (r, q) and a 0 at (r, t), t > q >= r, so (r, t) is in the grid;
    # (i) a 0 at (r, q) and a 1 at (t, q), t > r, where a 1 is always in the grid
    bad = np.where(a_qr[:, :, None], ~a[None] & later[:, None, :], a_qr[:, None, :] & later[None])
    q, r, t = np.nonzero(bad)
    in_q = a_qr[q, r]
    rows = zip(r.tolist(), q.tolist(), np.where(in_q, r, t).tolist(), np.where(in_q, t, q).tolist(),
               in_q.tolist())
    violations = [((r1, q1), (r2, q2), "monotone-in-q" if cond else "monotone-in-r")
                  for r1, q1, r2, q2, cond in rows]
    return SwitchingReport(ok=not violations, violations=violations)


def save_policy_csv(p: PolicyGrid, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "q", "action"])
        r, q = enumerate_states(p.q_max)
        writer.writerows(zip(r.tolist(), q.tolist(), p.actions[r, q].tolist()))


def load_policy_csv(path, label: str = "") -> PolicyGrid:
    """Read a policy grid back from its CSV form.

    The file must contain exactly one row per state of some complete
    truncated grid; q_max is inferred from the largest q present.
    """
    entries = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["r", "q", "action"]:
            raise ValueError(f"unexpected policy CSV header: {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"malformed policy CSV row: {row}")
            r, q, action = (int(v) for v in row)
            if not 0 <= r <= q:
                raise ValueError(f"invalid state ({r}, {q}) in policy CSV")
            if action not in (0, 1):
                raise ValueError(f"invalid action {action} at state ({r}, {q})")
            if (r, q) in entries:
                raise ValueError(f"duplicate state ({r}, {q}) in policy CSV")
            entries[(r, q)] = action
    if not entries:
        raise ValueError("policy CSV contains no states")
    q_max = max(q for (_, q) in entries)
    # the rows are distinct states with q <= q_max: a count checks totality for any q_max
    if len(entries) < state_index(0, q_max + 1):
        missing = ((r, q) for r in range(q_max + 1) for q in range(r, q_max + 1)
                   if (r, q) not in entries)
        raise ValueError(f"policy CSV is not total: missing states {list(islice(missing, 5))}...")
    actions = np.zeros((q_max + 1, q_max + 1), dtype=np.int8)
    actions[tuple(np.array(list(entries)).T)] = list(entries.values())
    return PolicyGrid(q_max, actions, label=label)
