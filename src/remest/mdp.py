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
maps a state back to its position, and _actions reads a grid's action per
state for the exact evaluation and both simulators. The model alone says
what a state costs: cost, and age = q + 1, which the delay model takes as
its cost and the walk and compare read. Its succ_idx, fail_idx and
fail_prob arrays are the one definition of how the chain moves: _edges
reads from them the policy chains that _evaluate and both simulators
walk. One level elimination solves that chain with nothing subtracted,
and _evaluate is its one entry point: it keeps the states a success
enters, with (0, 0), (0, q_max) and the corner, walks each excursion from
them, one failure path since every other state is entered only by a
failure, and _gth solves the chain watched on them. The reference state
is the corner when the policy retransmits there and (0, 0) otherwise;
_gth raises SolverError when some closed class misses it. The
elimination gives the stationary distribution pi and the gain pi . cost
(the exact evaluation), and on request the bias, as the cost to go until
the reference state less the gain times the time to go, for each
policy-iteration round of solve.
No S x S matrix is built: memory grows like S + q_max^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .harq import HarqModel
from .lti import SteadyKalman
from .policies import PolicyGrid, enumerate_states, state_index

COST_KINDS = ("mse", "delay")
# what a level elimination holds at once (_elimination_bytes): 1 GiB fits q_max up to 2168 for solve
ELIMINATION_LIMIT_BYTES = 2**30


class SolverError(RuntimeError):
    """A policy's chain has more than one recurrent class, so its Poisson equation is
    singular, or policy iteration did not settle."""


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
    cost: np.ndarray  # (S,) stage cost: Tr f^(q+1)(P_bar) for mse, age for delay
    age: np.ndarray  # (S,) q + 1, the age of information a visit accrues
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
    pi: np.ndarray  # the final round's stationary distribution, by state
    policy: PolicyGrid
    iterations: int
    span_residual: float
    cost_kind: str

    @property
    def span_residual_rel(self) -> float:
        """span_residual over max |bias|: a few float64 ulps when the bias is exact."""
        scale = float(np.abs(self.bias).max())
        return self.span_residual / scale if scale > 0 else self.span_residual


def build_mdp(sk: SteadyKalman | None, m: HarqModel, q_max: int, cost_kind: str = "mse") -> TruncatedMdp:
    """Assemble the truncated decision model.

    Action 0 leads to (0, 0) on success and (0, min(q+1, q_max)) on
    failure, with failure probability g(0). Action 1 leads to (r', r') on
    success and (r', min(q+1, q_max)) on failure with r' = min(r+1, q_max)
    and failure probability g(min(r+1, r_cap)), r_cap being the channel's.
    The stage cost depends on the state only: sk's staleness MSE table
    at q, or for the age-minimizing variant, which reads no sk, the age
    q + 1, which the model holds as age under either cost.
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
    age = q + 1.0
    cost = sk.cost_table[q] if cost_kind == "mse" else age
    succ = np.stack([np.zeros_like(q), state_index(r_next, r_next)]).astype(np.int32)
    fail = np.stack([state_index(0, q_next), state_index(r_next, q_next)]).astype(np.int32)
    pfail = np.stack([np.full(len(q), m.failure_prob(0)), m.failure_prob_clamped(r + 1)])
    for arr in (age, cost, succ, fail, pfail):
        arr.flags.writeable = False
    return TruncatedMdp(
        q_max=q_max, cost_kind=cost_kind, r=r, q=q,
        cost=cost, age=age, succ_idx=succ, fail_idx=fail, fail_prob=pfail,
    )


def _edges(mdp: TruncatedMdp, actions: np.ndarray):
    """fail_prob and targets of the chains that take action actions[..., i] in state i, for (S,)
    or (P, S) action rows: state i fails with probability fail_prob[..., i], and goes to
    targets[0, ..., i] on success and to targets[1, ..., i] on failure."""
    rows = np.arange(mdp.n_states)
    targets = np.stack([mdp.succ_idx[actions, rows], mdp.fail_idx[actions, rows]])
    return mdp.fail_prob[actions, rows], targets


def _gth(p: np.ndarray, first: int, reward: np.ndarray | None = None):
    """Stationary vector of the stochastic matrix p, and reward to go until first, by GTH.

    Grassmann, Taksar and Heyman (Operations Research 33, 1985): eliminate
    the states one by one, taking each one's escape probability as the sum
    of its row over the states left instead of 1 - p(k, k), so nothing is
    ever subtracted. first is eliminated last. Only non-negative numbers
    are added and multiplied, so an escape probability is exactly 0 when
    the states left hold a class that misses first and that is closed:
    exactly, or to working precision, where every way out of it
    underflows float64. Then p has more than one recurrent class, and
    SolverError is raised before that escape divides anything.
    Returns the unnormalised stationary vector x and togo. With reward
    (m, k), paid on each visit to a state, the same multipliers carry it
    onto the states left, and a back-substitution gives togo[i], the
    expected reward paid from state i, its own visit included, until the
    chain enters first (0 at first), again with nothing subtracted; without
    reward, togo is None.
    """
    m = len(p)
    order = np.arange(m)
    order[[0, first]] = first, 0
    t = p.T[order][:, order]  # t[j, i] = p[i, j]: a state's inflow is a row
    escape = np.ones(m)
    for k in range(m - 1, 0, -1):
        escape[k] = np.add.reduce(t[:k, k])
        if escape[k] == 0.0:
            raise SolverError("the policy's chain has more than one recurrent class")
        t[k, :k] /= escape[k]
        t[:k, :k] += t[:k, k, None] * t[k, :k]
    x = np.zeros(m)
    x[0] = 1.0
    for k in range(1, m):
        x[k] = t[k, :k] @ x[:k]
    if reward is None:
        return x[order], None
    # once state k is eliminated, neither its multipliers t[k, :k] nor its row t[:k, k] change
    reward = reward[order]
    for k in range(m - 1, 0, -1):
        reward[:k] += t[k, :k, None] * reward[k]
    togo = np.zeros_like(reward)
    for k in range(1, m):
        togo[k] = (reward[k] + t[:k, k] @ togo[:k]) / escape[k]
    return x[order], togo[order]


def _elimination_bytes(q_max: int, bias: bool) -> int:
    """Bytes a level elimination at q_max holds at once, an upper bound on its peak.

    The bound is the worst case: a policy whose successes enter every
    diagonal state, as psi's do, so that _evaluate keeps m = q_max + 2
    states; a policy that keeps fewer holds less. At its peak _evaluate
    holds 6 words per entry of the m x 2 q_max path table (the table, the
    visits, the flows and their bins), m (m + 1) censored counts and, per
    state, 9 words of edges, kept targets and walk and R =
    bit_length(2 q_max - 1) pointers, counted as 10 + R.
    With bias, solve's Q-values and previous round add 7, counted as 8;
    small arrays, Python objects and numpy's buffers take under 96 KiB.
    """
    n_states, m = state_index(0, q_max + 1), q_max + 2
    per_state = 10 + (2 * q_max - 1).bit_length() + (8 if bias else 0)
    return 8 * (n_states * per_state + 6 * m * 2 * q_max + m * (m + 1)) + 96 * 2**10


def _check_size(q_max: int, bias: bool):
    """Raise ValueError when _elimination_bytes(q_max, bias) passes ELIMINATION_LIMIT_BYTES."""
    need = _elimination_bytes(q_max, bias)
    if need > ELIMINATION_LIMIT_BYTES:
        fits = 1
        while _elimination_bytes(fits + 1, bias) <= ELIMINATION_LIMIT_BYTES:
            fits += 1
        raise ValueError(f"the level elimination at q_max={q_max} needs {need} bytes "
                         f"({need / 2**30:.3f} GiB) for its {state_index(0, q_max + 1)} states, over the "
                         f"{ELIMINATION_LIMIT_BYTES}-byte limit; the largest q_max that fits is {fits}")


def _evaluate(mdp: TruncatedMdp, actions: np.ndarray, bias: bool = False):
    """One level elimination of the chain that takes action actions[i] in state i.

    The kept set holds every state a success enters, all on the diagonal,
    with (0, 0), (0, q_max) and the corner: 3 states under always-fresh,
    q_max + 2 when the successes enter every diagonal state. A state off
    it is entered only by a failure, from level q - 1 or, on level q_max,
    from (r - 1, q_max), and every cycle of failures passes through
    (0, q_max) or the corner. So an excursion from a kept state is one
    failure path, up the levels and along level q_max, that ends at a
    success or back in the kept set, within 2 q_max states. The path
    table holds each kept state's path, built by pointer jumping (Hillis
    and Steele, CACM 29, 1986): each round doubles its length through the
    squared failure pointers. The
    expected visits along a path are the running product of its failure probabilities; one
    bincount of their flows gives the chain watched on the kept states,
    which GTH solves, and another spreads its solution over every state as
    pi, with nothing subtracted, so every entry keeps full relative
    accuracy. The gain is pi . cost.

    ref, the state GTH eliminates last, is set by the corner's action. A
    corner that retransmits absorbs, so it is ref. Otherwise ref is (0, 0),
    which every state then reaches: each state succeeds with probability
    at least lambda, as g(r) <= g(0) = 1 - lambda, so a closed class that
    avoids (0, 0) sends fresh nowhere, and retransmissions climb r to the
    corner, which would then lie in it. A second recurrent class, which
    only a retransmitting corner admits, is one that misses ref; GTH finds
    it as an escape probability of exactly 0 (_gth).

    With bias, GTH also carries each kept state's excursion cost and length
    to C and T, the expected cost paid and steps taken until the chain
    enters ref (0 at ref). Off the kept set they are first-order
    recurrences along the failure paths, which the same pointers solve. The
    bias h = C - g T, h(ref) = 0, solves (I - P) h + g 1 = c with one
    subtraction per state, made last, so h keeps its accuracy where a dense
    LU solve loses it, in states that reach ref only with a tiny
    probability. Without bias, neither the carry nor the recurrence runs.

    Returns pi, gain and h (None without bias). Raises ValueError first when
    the elimination would pass ELIMINATION_LIMIT_BYTES (_elimination_bytes),
    and SolverError unless the chain is unichain with a gain in the range of
    the stage costs.
    """
    _check_size(mdp.q_max, bias)
    pf, targets = _edges(mdp, actions)
    n, end = mdp.q_max, mdp.n_states  # end: a sentinel state past the last one
    ref = end - 1 if actions[-1] else 0  # the corner if it retransmits, else (0, 0)
    # kept: the states a success enters, (0, 0) and the corner, one of which is ref, then
    # (0, n), where a fresh failure loops back
    entered = np.zeros(end, dtype=bool)
    entered[targets[0]] = entered[[0, end - 1]] = True
    kept = np.append(np.flatnonzero(entered), state_index(0, n))
    m = len(kept)
    where = np.full(end + 1, m)  # each state's position in kept, m off the kept set
    where[kept] = np.arange(m)
    # (S + 1, 2), by state then success and failure: each edge's kept target (m off the
    # kept set) and its probability, and at end a self-loop of probability 0
    into = where[np.append(targets, [[end], [end]], axis=1).T]
    p = np.append(np.stack([1.0 - pf, pf]), [[0.0], [0.0]], axis=1).T
    # nxt[s]: where a failure takes s while it stays off the kept set, one level up or one
    # step along level n, else end; walk[s]: the probability of that step
    stays = into[:, 1] == m
    nxt, walk = np.where(stays, np.append(targets[1], end), end), np.where(stays, p[:, 1], 0.0)
    jumps = [nxt]  # jumps[k] takes 2^k failures at once
    while 2 ** len(jumps) < 2 * n:
        jumps.append(jumps[-1][jumps[-1]])
    nodes = kept[:, None]  # nodes[c, j]: the state j failures on from kept state c, or end
    for jump in jumps:
        nodes = np.hstack([nodes, jump[nodes[:, :2 * n - nodes.shape[1]]]])
    w = np.ones(nodes.shape)  # w[c, j]: expected visits to nodes[c, j] per excursion from c
    np.cumprod(walk[nodes[:, :-1]], axis=1, out=w[:, 1:])
    flow = p[nodes]  # (m, 2 n, 2): the success and the failure flow out of each node
    flow *= w[:, :, None]
    bins = into[nodes]
    bins += np.arange(0, m * (m + 1), m + 1)[:, None, None]
    censored = np.bincount(bins.ravel(), flow.ravel(), minlength=m * (m + 1)).reshape(m, m + 1)[:, :m]
    del flow, bins  # the largest arrays, freed before the rest of the elimination
    stage = np.zeros((end + 1, 2))  # paid per visit: cost, one step; nothing at end
    stage[:end, 0], stage[:end, 1] = mdp.cost, 1.0
    reward = np.einsum("cj,cjk->ck", w, stage[nodes]) if bias else None
    x, kept_togo = _gth(censored, where[ref], reward)
    pi = np.bincount(nodes.ravel(), (x[:, None] * w).ravel(), minlength=end + 1)[:end]
    pi /= pi.sum()
    gain = float(pi @ mdp.cost)
    # a unichain gain averages the stage costs over the stationary distribution
    if not mdp.cost.min() * (1 - 1e-9) <= gain <= mdp.cost.max() * (1 + 1e-9):
        raise SolverError(f"the policy's chain gave gain {gain!r}, outside the range of the stage costs")
    if not bias:
        return pi, gain, None
    known = np.append(kept_togo, [[0.0, 0.0]], axis=0)  # by position in kept, 0 off the kept set
    togo = stage + p[:, 0, None] * known[into[:, 0]] + p[:, 1, None] * known[into[:, 1]]
    togo[kept] = kept_togo
    walk[kept] = 0.0
    for jump in jumps:
        togo += walk[:, None] * togo[jump]
        walk *= walk[jump]
    return pi, gain, togo[:end, 0] - gain * togo[:end, 1]


def solve(mdp: TruncatedMdp, tol: float = 1e-9, max_iter: int = 100000) -> MdpSolution:
    """Average-cost-optimal stationary deterministic policy, by policy iteration.

    Howard's policy iteration (Puterman, Markov Decision Processes, 1994,
    section 8.6): start from all-fresh, evaluate the policy exactly, and
    switch a state's action only when that lowers its Q-value by more
    than tol * max(min(1, c_min), |Q|), c_min being the cheapest stage
    cost: relative to |Q|, with a floor that is absolute on a model whose
    costs are all 1 or more and scales with the costs on a cheaper one;
    stop when no state switches. Each round is one level elimination
    (_evaluate), which walks each excursion's failure path, since every
    success lands on the diagonal, and gives pi, the gain and the bias with
    no S x S matrix and no per-level loop; every round improves the gain
    or the bias, so no policy repeats, and 2-4 rounds suffice on the models
    tested. The returned gain and pi are the final round's, which
    evaluate_policy and stationary_distribution give for the returned
    policy bit for bit. span_residual is the span of Bellman(h) - h at the
    returned bias, zero in exact arithmetic.

    Raises ValueError before it allocates anything when the level
    elimination with the bias would pass ELIMINATION_LIMIT_BYTES, and
    SolverError when a policy's chain is not unichain or when max_iter
    rounds do not settle.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    _check_size(mdp.q_max, bias=True)
    rows = np.arange(mdp.n_states)
    floor = min(1.0, float(mdp.cost.min()))
    actions = np.zeros(mdp.n_states, dtype=np.intp)
    for iterations in range(1, max_iter + 1):
        pi, gain, h = _evaluate(mdp, actions, bias=True)
        pf = mdp.fail_prob
        q = mdp.cost + (1.0 - pf) * h[mdp.succ_idx] + pf * h[mdp.fail_idx]  # (2, S) Q-values
        current = q[actions, rows]
        switch = q[1 - actions, rows] < current - tol * np.maximum(floor, np.abs(current))
        if not switch.any():
            break
        actions = np.where(switch, 1 - actions, actions)
    else:
        raise SolverError(f"policy iteration still switched actions after {max_iter} rounds")
    delta = q.min(axis=0) - h
    grid = np.zeros((mdp.q_max + 1, mdp.q_max + 1), dtype=np.int8)
    grid[mdp.r, mdp.q] = actions
    h.flags.writeable = pi.flags.writeable = False
    return MdpSolution(
        gain=gain, bias=h, pi=pi, policy=PolicyGrid(mdp.q_max, grid, label=f"optimal-{mdp.cost_kind}"),
        iterations=iterations, span_residual=float(delta.max() - delta.min()),
        cost_kind=mdp.cost_kind,
    )


def _actions(mdp: TruncatedMdp, policy: PolicyGrid) -> np.ndarray:
    if policy.q_max != mdp.q_max:
        raise ValueError(f"policy grid q_max={policy.q_max} does not match model q_max={mdp.q_max}")
    return policy.actions[mdp.r, mdp.q]


def stationary_distribution(mdp: TruncatedMdp, policy: PolicyGrid) -> np.ndarray:
    """The stationary distribution of the chain induced by a policy, by state.

    pi[i] is the long-run share of steps spent in state (mdp.r[i],
    mdp.q[i]), found by level elimination (_evaluate). The chain must be
    unichain (one recurrent class) with a gain in the range of the stage
    costs, else SolverError is raised.
    """
    return _evaluate(mdp, _actions(mdp, policy))[0]


def evaluate_policy(mdp: TruncatedMdp, policy: PolicyGrid) -> float:
    """Exact long-run average cost of the chain induced by a policy: pi . cost.

    The chain must be unichain (one recurrent class), and its gain must lie
    in the range of the stage costs, else SolverError is raised.
    """
    return _evaluate(mdp, _actions(mdp, policy))[1]
