"""Truncated average-cost decision model on the (r, q) grid, its exact
policy evaluation and its policy-iteration solver.

The state is (r, q): r consecutive retransmissions of the in-flight
packet, q the age of the newest estimate the receiver holds. Action 0
sends fresh, action 1 retransmits. Transitions follow the detection
probabilities of the channel model; r and q saturate at q_max so the grid
is closed (a standard approximating construction), and the detection
probability of a retransmission saturates at the channel's r_cap. A
TruncatedMdp holds its states as the two index arrays r and q of
policies.enumerate_states, which defines the state order; state_index(r, q)
maps a state back to its position, and policy.actions[mdp.r, mdp.q] reads
a grid's action per state. The succ_idx, fail_idx and fail_prob arrays
of a TruncatedMdp are the one definition of how the chain moves: _chain
reads from them the chain of a policy, which _stationary solves for its
stationary distribution pi (the exact evaluation, and the solver's
reported gain) and _poisson for the solver's bias, and both simulators
walk them.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .harq import HarqModel
from .lti import SteadyKalman
from .policies import PolicyGrid, enumerate_states, state_index

COST_KINDS = ("mse", "delay")
# the largest dense S x S float64 matrix that solve builds for its Poisson
# equation: 1 GiB holds q_max up to 150 (S = 11476 states)
DENSE_LIMIT_BYTES = 2**30


class SolverError(RuntimeError):
    """A policy's Poisson equation is singular, or policy iteration did not settle."""


@dataclass(frozen=True)
class TruncatedMdp:
    """The truncated model: state i is (r[i], q[i]), and state_index(r, q) is i.

    r and q are the read-only int arrays of policies.enumerate_states, the
    order of the states, so state 0 is (0, 0) and the last state is the
    corner (q_max, q_max). The other arrays are indexed by state, and by
    action first where they have two rows.
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
    r, q = enumerate_states(q_max)
    q_next, r_next = np.minimum(q + 1, q_max), np.minimum(r + 1, q_max)
    cost = sk.cost_table[q] if cost_kind == "mse" else q + 1.0
    succ = np.stack([np.zeros_like(q), state_index(r_next, r_next)]).astype(np.int32)
    fail = np.stack([state_index(0, q_next), state_index(r_next, q_next)]).astype(np.int32)
    pfail = np.stack([np.full(len(q), m.failure_prob(0)), m.failure_prob_clamped(r + 1)])
    for arr in (cost, succ, fail, pfail):
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


def _chain(mdp: TruncatedMdp, actions: np.ndarray):
    """The chain that takes action actions[i] in state i, and its reference state.

    This is the one definition of how the (r, q) chain moves: state i goes
    to targets[0, i] with probability probs[0, i] = 1 - fail_prob and to
    targets[1, i] with probs[1, i] = fail_prob, under the chosen action.

    The chain has a unique stationary distribution only when it has one
    recurrent class, i.e. some state is reachable from every state. A
    fresh transmission returns to (0, 0) with probability lambda > 0 and a
    retransmission raises r until the corner (q_max, q_max), so if such a
    state exists, (0, 0) or the corner is one. ref is (0, 0) when every
    state reaches it, as under every policy that sends fresh at the
    corner, else the corner. Raises SolverError when neither qualifies.
    """
    rows = np.arange(mdp.n_states)
    pf = mdp.fail_prob[actions, rows]
    probs = np.stack([1.0 - pf, pf])
    targets = np.stack([mdp.succ_idx[actions, rows], mdp.fail_idx[actions, rows]])
    # successors along edges of positive probability
    successors = np.where(probs > 0.0, targets, targets[::-1])
    for ref in (0, mdp.n_states - 1):  # (0, 0), then the corner
        if _reached_by_all(successors, ref):
            return probs, targets, ref
    raise SolverError("the policy's chain has more than one recurrent class")


def _gth(p: np.ndarray, first: int) -> np.ndarray:
    """Unnormalised stationary vector of the stochastic matrix p, by GTH.

    Grassmann, Taksar and Heyman (Operations Research 33, 1985): eliminate
    the states one by one, taking each one's escape probability as the sum
    of its row over the states left instead of 1 - p(k, k), so nothing is
    ever subtracted. first is eliminated last; every state must reach it.
    """
    order = np.arange(len(p))
    order[[0, first]] = first, 0
    t = p.T[order][:, order]  # t[j, i] = p[i, j]: a state's inflow is a row
    for k in range(len(t) - 1, 0, -1):
        t[k, :k] /= np.add.reduce(t[:k, k])
        t[:k, :k] += t[:k, k, None] * t[k, :k]
    x = np.zeros(len(t))
    x[0] = 1.0
    for k in range(1, len(t)):
        x[k] = t[k, :k] @ x[:k]
    return x[order]


def _stationary(mdp: TruncatedMdp, actions: np.ndarray) -> np.ndarray:
    """Stationary distribution, by state, of the chain that takes action actions[i] in state i.

    Level elimination. An off-diagonal state (r, q), r < q, is entered
    only by a failed step from level q - 1, or, on the last level q_max,
    from (r - 1, q_max); so every cycle of the chain passes through the
    kept set, the diagonal states and (0, q_max), and a visit to any other
    state is part of an excursion from a kept state that climbs (in q,
    then in r) until it returns to the kept set. The expected visits per
    excursion start, carried level by level with one small matrix product
    per level (and state by state along the last level), give the chain
    watched only on the kept set; GTH solves that chain of q_max + 2
    states, and the visits spread its solution over every state. Nothing
    is ever subtracted, so every entry of pi, however small, keeps full
    relative accuracy.

    Raises SolverError unless the chain has one recurrent class.
    """
    probs, targets, ref = _chain(mdp, actions)
    n, states = mdp.q_max, np.arange(mdp.n_states)
    diag = np.arange(n + 1)
    kept = np.append(state_index(diag, diag), state_index(0, n))
    m = len(kept)
    where = np.full(mdp.n_states, -1)
    where[kept] = np.arange(m)
    into = where[targets]  # (2, S): each edge's target in the kept set, or -1
    out = into >= 0
    exits = np.bincount((states * m + into)[out], probs[out], minlength=mdp.n_states * m)
    exits = exits.reshape(-1, m)  # [s, c]: probability that state s steps to kept state c
    # every other edge climbs from level k - 1 into level k, or steps along level n;
    # the climbs into level k form a (k, k) block [target r, source r], stored flat
    src = np.broadcast_to(states, targets.shape)[~out]
    to, p = targets[~out], probs[~out]
    along = mdp.q[src] == mdp.q[to]
    offset = np.r_[0, np.cumsum(diag ** 2)]  # block k starts at offset[k]
    flat = offset[mdp.q[to]] + mdp.r[to] * mdp.q[to] + mdp.r[src]
    blocks = np.bincount(flat[~along], p[~along], minlength=offset[-1])
    # visits[s, c]: expected visits to state s in an excursion from kept state c
    # until the chain returns to the kept set, 1 at s = c
    visits = np.zeros((mdp.n_states, m))
    visits[kept, np.arange(m)] = 1.0
    for k in range(1, n + 1):  # only excursions from (j, j), j < k, reach level k
        lo = state_index(0, k)
        visits[lo:lo + k, :k] = blocks[offset[k]:offset[k + 1]].reshape(k, k) @ visits[lo - k:lo, :k]
    for s, t, ps in sorted(zip(src[along].tolist(), to[along].tolist(), p[along].tolist())):
        visits[t] += ps * visits[s]  # (r - 1, n) to (r, n), in increasing r
    pi = visits @ _gth(visits.T @ exits, where[ref])
    return pi / pi.sum()


def _poisson(mdp: TruncatedMdp, actions: np.ndarray):
    """Gain and bias of the chain that takes action actions[i] in state i.

    One dense solve of the Poisson equation (I - P) h + g 1 = c with
    h(ref) = 0 gives both: the column of I - P that h(ref) would multiply
    is replaced by the ones that multiply g. Pinning h at a recurrent
    state, ref of _chain, keeps the gain exact even when the other states
    reach it only with probabilities below float64 resolution. Raises
    SolverError when the chain is not unichain, or when the gain leaves
    the range of the stage costs.
    """
    probs, targets, ref = _chain(mdp, actions)
    n = mdp.n_states
    lhs = np.eye(n)
    np.add.at(lhs, (np.arange(n), targets), -probs)
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


def _dense_bytes(q_max: int) -> int:
    """Bytes of the S x S float64 matrix of a Poisson solve at q_max."""
    return 8 * state_index(0, q_max + 1) ** 2


def solve(mdp: TruncatedMdp, tol: float = 1e-9, max_iter: int = 100000) -> MdpSolution:
    """Average-cost-optimal stationary deterministic policy, by policy iteration.

    Howard's policy iteration (Puterman, Markov Decision Processes, 1994,
    section 8.6): start from all-fresh, evaluate the policy exactly, and
    switch a state's action only when that lowers its Q-value by more
    than tol * max(1, |Q|); stop when no state switches. Each round is
    one dense Poisson solve for the bias; every round improves the gain
    or the bias, so no policy repeats, and 2-4 rounds suffice on the
    models tested. The returned gain is pi . cost of the final policy, as
    evaluate_policy computes it, so the two agree bit for bit; the Poisson
    solve's own gain agrees with it to rounding. span_residual is the
    span of Bellman(h) - h at the returned bias, zero in exact arithmetic.

    Raises ValueError before it allocates anything when the dense matrix
    would exceed DENSE_LIMIT_BYTES, and SolverError when a policy's chain
    is not unichain or when max_iter rounds do not settle.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    need = _dense_bytes(mdp.q_max)
    if need > DENSE_LIMIT_BYTES:
        fits = 1
        while _dense_bytes(fits + 1) <= DENSE_LIMIT_BYTES:
            fits += 1
        raise ValueError(f"solving at q_max={mdp.q_max} needs a dense {mdp.n_states} x "
                         f"{mdp.n_states} matrix of {need} bytes ({need / 2**30:.2f} GiB), over "
                         f"the {DENSE_LIMIT_BYTES}-byte limit; the largest q_max that fits is "
                         f"{fits} (evaluating a given policy has no such limit)")
    rows = np.arange(mdp.n_states)
    actions = np.zeros(mdp.n_states, dtype=np.intp)
    for iterations in range(1, max_iter + 1):
        _, h = _poisson(mdp, actions)
        pf = mdp.fail_prob
        q = mdp.cost + (1.0 - pf) * h[mdp.succ_idx] + pf * h[mdp.fail_idx]  # (2, S) Q-values
        current = q[actions, rows]
        switch = q[1 - actions, rows] < current - tol * np.maximum(1.0, np.abs(current))
        if not switch.any():
            break
        actions = np.where(switch, 1 - actions, actions)
    else:
        raise SolverError(f"policy iteration still switched actions after {max_iter} rounds")
    gain = float(_stationary(mdp, actions) @ mdp.cost)
    delta = q.min(axis=0) - h
    grid = np.zeros((mdp.q_max + 1, mdp.q_max + 1), dtype=np.int8)
    grid[mdp.r, mdp.q] = actions
    h.flags.writeable = False
    return MdpSolution(
        gain=gain, bias=h, policy=PolicyGrid(mdp.q_max, grid, label=f"optimal-{mdp.cost_kind}"),
        iterations=iterations, span_residual=float(delta.max() - delta.min()),
        cost_kind=mdp.cost_kind,
    )


def stationary_distribution(mdp: TruncatedMdp, policy: PolicyGrid) -> np.ndarray:
    """The stationary distribution of the chain induced by a policy, by state.

    pi[i] is the long-run share of steps spent in state (mdp.r[i],
    mdp.q[i]), found by level elimination (_stationary). The chain must be
    unichain (one recurrent class), else SolverError is raised.
    """
    if policy.q_max != mdp.q_max:
        raise ValueError(f"policy grid q_max={policy.q_max} does not match model q_max={mdp.q_max}")
    return _stationary(mdp, policy.actions[mdp.r, mdp.q])


def evaluate_policy(mdp: TruncatedMdp, policy: PolicyGrid) -> float:
    """Exact long-run average cost of the chain induced by a policy: pi . cost.

    The chain must be unichain (one recurrent class), else SolverError is
    raised.
    """
    return float(stationary_distribution(mdp, policy) @ mdp.cost)


def save_bias_csv(solution: MdpSolution, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "q", "bias"])
        r, q = enumerate_states(solution.policy.q_max)
        writer.writerows(zip(r.tolist(), q.tolist(), map("{:.17g}".format, solution.bias.tolist())))


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
