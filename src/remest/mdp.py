"""Truncated average-cost decision model on the (r, q) grid, its exact
policy evaluation and its policy-iteration solver.

The state is (r, q): r consecutive retransmissions of the in-flight
packet, q the age of the newest estimate the receiver holds. Action 0
sends fresh, action 1 retransmits. Transitions follow the detection
probabilities of the channel model; r and q saturate at q_max so the grid
is closed (a standard approximating construction), and the detection
probability of a retransmission saturates at the channel's r_cap. A
TruncatedMdp holds its states as two index arrays, r and q, in the order
of enumerate_states; state_index(r, q) maps a state back to its position,
and policy.actions[mdp.r, mdp.q] reads a grid's action per state. The
succ_idx, fail_idx and fail_prob arrays of a TruncatedMdp are the one
definition of how the chain moves: _poisson builds from them the chain
that the solver and evaluate_policy use, and both simulators walk them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .harq import HarqModel
from .lti import SteadyKalman
from .policies import PolicyGrid, state_index

COST_KINDS = ("mse", "delay")


class SolverError(RuntimeError):
    """A policy's Poisson equation is singular, or policy iteration did not settle."""


@dataclass(frozen=True)
class TruncatedMdp:
    """The truncated model: state i is (r[i], q[i]), and state_index(r, q) is i.

    r and q are read-only int arrays in the order of enumerate_states
    (q, r = np.tril_indices(q_max + 1)), so state 0 is (0, 0) and the
    last state is the corner (q_max, q_max). The other arrays are indexed
    by state, and by action first where they have two rows.
    """

    q_max: int
    cost_kind: str
    r: np.ndarray  # (S,) retransmission count of each state
    q: np.ndarray  # (S,) age of each state's newest delivered estimate
    cost: np.ndarray
    succ_idx: np.ndarray  # (2, S) next-state index on detection success
    fail_idx: np.ndarray  # (2, S) next-state index on detection failure
    fail_prob: np.ndarray  # (2, S)

    @property
    def n_states(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class MdpSolution:
    gain: float
    bias: np.ndarray
    policy: PolicyGrid
    iterations: int
    span_residual: float
    cost_kind: str


def build_mdp(sk: SteadyKalman | None, m: HarqModel, q_max: int, cost_kind: str = "mse") -> TruncatedMdp:
    """Assemble the truncated decision model.

    Action 0 leads to (0, 0) on success and (0, min(q+1, q_max)) on
    failure, with failure probability g(0). Action 1 leads to (r', r') on
    success and (r', min(q+1, q_max)) on failure with r' = min(r+1, q_max)
    and failure probability g(min(r+1, r_cap)), r_cap being the channel's.
    The stage cost depends on the state only: the staleness MSE
    table at q, or q+1 for the age-minimizing variant.
    """
    if q_max < 1:
        raise ValueError("q_max must be at least 1")
    if cost_kind not in COST_KINDS:
        raise ValueError(f"cost_kind must be one of {COST_KINDS}, got {cost_kind!r}")
    if cost_kind == "mse":
        if sk is None:
            raise ValueError("the MSE cost needs a steady-state filter (sk)")
        if sk.n_max < q_max:
            raise ValueError(f"cost table covers q up to {sk.n_max}, need {q_max}")
    q, r = np.tril_indices(q_max + 1)
    q_next, r_next = np.minimum(q + 1, q_max), np.minimum(r + 1, q_max)
    cost = sk.cost_table[q] if cost_kind == "mse" else q + 1.0
    succ = np.stack([np.zeros_like(q), state_index(r_next, r_next)]).astype(np.int32)
    fail = np.stack([state_index(0, q_next), state_index(r_next, q_next)]).astype(np.int32)
    g_next = np.array([m.failure_prob_clamped(count) for count in range(1, q_max + 2)])  # by r
    pfail = np.stack([np.full(len(q), m.failure_prob(0)), g_next[r]])
    for arr in (r, q, cost, succ, fail, pfail):
        arr.flags.writeable = False
    return TruncatedMdp(
        q_max=q_max, cost_kind=cost_kind, r=r, q=q,
        cost=cost, succ_idx=succ, fail_idx=fail, fail_prob=pfail,
    )


def _reached_by_all(successors: np.ndarray, target: int) -> bool:
    """Whether every state has a path to target; successors is (2, S)."""
    seen = np.zeros(successors.shape[1], dtype=bool)
    seen[target] = True
    while True:
        grow = seen[successors].any(axis=0) & ~seen
        if not grow.any():
            return bool(seen.all())
        seen |= grow


def _poisson(mdp: TruncatedMdp, actions: np.ndarray):
    """Gain and bias of the chain that takes action actions[i] in state i.

    This is the one definition of how the (r, q) chain moves: row i of P
    puts 1 - fail_prob on succ_idx and fail_prob on fail_idx of the chosen
    action. One dense solve of the Poisson equation (I - P) h + g 1 = c
    with h(ref) = 0 gives both: the column of I - P that h(ref) would
    multiply is replaced by the ones that multiply g.

    The equation has a unique solution only when the chain has one
    recurrent class, i.e. some state is reachable from every state. A
    fresh transmission returns to (0, 0) with probability lambda > 0 and a
    retransmission raises r until the corner (q_max, q_max), so if such a
    state exists, (0, 0) or the corner is one. ref is (0, 0) when every
    state reaches it, as under every policy that sends fresh at the
    corner, else the corner. Pinning h at a recurrent state keeps the
    gain exact even when the other states reach it only with
    probabilities below float64 resolution. Raises SolverError when
    neither state qualifies, or when the gain leaves the range of the
    stage costs.
    """
    n = mdp.n_states
    rows = np.arange(n)
    pf = mdp.fail_prob[actions, rows]
    succ = mdp.succ_idx[actions, rows]
    fail = mdp.fail_idx[actions, rows]
    # successors along edges of positive probability
    successors = np.stack([np.where(pf < 1.0, succ, fail), np.where(pf > 0.0, fail, succ)])
    ref = 0  # (0, 0)
    if not _reached_by_all(successors, ref):
        ref = n - 1  # the corner
        if not _reached_by_all(successors, ref):
            raise SolverError("the policy's chain has more than one recurrent class")
    lhs = np.eye(n)
    np.add.at(lhs, (rows, succ), pf - 1.0)
    np.add.at(lhs, (rows, fail), -pf)
    lhs[:, ref] = 1.0
    try:
        h = np.linalg.solve(lhs, mdp.cost)
    except np.linalg.LinAlgError as exc:
        raise SolverError("the policy's Poisson equation is singular") from exc
    gain = float(h[ref])
    # a unichain gain averages the stage costs over the stationary distribution
    if not mdp.cost.min() * (1 - 1e-9) <= gain <= mdp.cost.max() * (1 + 1e-9):
        raise SolverError(f"the policy's Poisson equation gave gain {gain!r}, outside the "
                          "range of the stage costs")
    h[ref] = 0.0
    return gain, h


def solve(mdp: TruncatedMdp, tol: float = 1e-9, max_iter: int = 100000) -> MdpSolution:
    """Average-cost-optimal stationary deterministic policy, by policy iteration.

    Howard's policy iteration (Puterman, Markov Decision Processes, 1994,
    section 8.6): start from all-fresh, evaluate the policy exactly, and
    switch a state's action only when that lowers its Q-value by more
    than tol * max(1, |Q|); stop when no state switches. Each round is
    one dense Poisson solve; every round improves the gain or the bias, so
    no policy repeats, and 2-4 rounds suffice on the models tested.
    span_residual is the span of Bellman(h) - h at the returned bias, zero
    in exact arithmetic.

    Raises SolverError when a policy's chain is not unichain or when
    max_iter rounds do not settle.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    rows = np.arange(mdp.n_states)
    actions = np.zeros(mdp.n_states, dtype=np.intp)
    for iterations in range(1, max_iter + 1):
        gain, h = _poisson(mdp, actions)
        pf = mdp.fail_prob
        q = mdp.cost + (1.0 - pf) * h[mdp.succ_idx] + pf * h[mdp.fail_idx]  # (2, S) Q-values
        current = q[actions, rows]
        switch = q[1 - actions, rows] < current - tol * np.maximum(1.0, np.abs(current))
        if not switch.any():
            break
        actions = np.where(switch, 1 - actions, actions)
    else:
        raise SolverError(f"policy iteration still switched actions after {max_iter} rounds")
    delta = q.min(axis=0) - h
    grid = np.zeros((mdp.q_max + 1, mdp.q_max + 1), dtype=np.int8)
    grid[mdp.r, mdp.q] = actions
    h.flags.writeable = False
    return MdpSolution(
        gain=gain, bias=h, policy=PolicyGrid(mdp.q_max, grid, label=f"optimal-{mdp.cost_kind}"),
        iterations=iterations, span_residual=float(delta.max() - delta.min()),
        cost_kind=mdp.cost_kind,
    )


def evaluate_policy(mdp: TruncatedMdp, policy: PolicyGrid) -> float:
    """Exact long-run average cost of the chain induced by a policy.

    The gain of the policy's Poisson equation; the chain must be unichain
    (one recurrent class), else SolverError is raised.
    """
    if policy.q_max != mdp.q_max:
        raise ValueError(f"policy grid q_max={policy.q_max} does not match model q_max={mdp.q_max}")
    return _poisson(mdp, policy.actions[mdp.r, mdp.q])[0]


def save_bias_csv(solution: MdpSolution, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "q", "bias"])
        for (r, q), value in zip(solution.policy.states(), solution.bias):
            writer.writerow([r, q, f"{value:.17g}"])


def save_solution_json(solution: MdpSolution, path):
    with open(path, "w") as fh:
        json.dump({
            "gain": solution.gain,
            "iterations": solution.iterations,
            "span_residual": solution.span_residual,
            "q_max": solution.policy.q_max,
            "cost_kind": solution.cost_kind,
        }, fh, indent=2)
        fh.write("\n")
