"""Monte-Carlo evaluation of decision policies.

Two modes: the analytic chain mode walks the (r, q) state only and
accrues the exact per-step MSE from the staleness cost table; the
trajectory mode also draws the process and measurement noise, runs the
sensor filter at its steady state and the receiver's prediction
estimator, and reports the empirical squared error next to the analytic
value for the same realized staleness. It steps the estimation errors,
never the state, so an expansive process loses no precision at any
horizon. Both walk the chain of the truncated decision model
(build_mdp), so r and q saturate at the grid's q_max exactly as in the
exact evaluation. Both draw from counter-based Philox streams split from
the master seed, so results are reproducible, and a run's draws never
depend on the number of runs: the chain mode gives every run its own
stream, and the trajectory mode gives every CHUNK_RUNS-run chunk one
stream (_chunk_streams). The chain mode walks all runs of a fixed-size
chunk under every requested policy together in numpy: the policies'
chains are stacked into one edge table and read the same uniforms, drawn
once. A walk of at most JUMP_LANES runs across its policies moves k
steps per numpy call along a jump table composed from that edge table,
with k as large as a table of JUMP_ENTRIES entries allows; a wider walk
moves one step per call. Each step's own edge is then rebuilt over a
block of BLOCK_ELEMENTS elements at once. The uniforms are drawn in
windows of at most WINDOW per chunk, so memory does not grow with the
horizon. The walk sums in the order of a per-run scalar loop, so each
policy's report reproduces such a loop bit for bit.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .harq import HarqModel
from .lti import LtiSystem, SteadyKalman
from .mdp import TruncatedMdp, _state_rq, build_mdp
from .policies import PolicyGrid, enumerate_states

CHUNK_RUNS = 128  # runs walked together; chunk sums are added in chunk order
BLOCK_ELEMENTS = 2 ** 13  # steps x policies x runs per chain-walk block
JUMP_ENTRIES = 2 ** 17  # most entries of a chain-walk jump table (1 MB of intp)
JUMP_LANES = 64  # widest chain walk (policies x runs) that jumps; a full chunk gains nothing
WINDOW = 2 ** 17  # most uniforms a chunk of the chain walk holds at once (1 MB)


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    runs: int
    seed: int
    initial_q: int = 0
    mode: str = "analytic"

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.initial_q < 0:
            raise ValueError("initial_q must be non-negative")
        if self.mode not in ("analytic", "trajectory"):
            raise ValueError(f"mode must be 'analytic' or 'trajectory', got {self.mode!r}")


@dataclass(frozen=True)
class SimReport:
    label: str
    mode: str
    horizon: int
    runs: int
    seed: int
    avg_mse_vs_k: np.ndarray  # running mean of the per-step MSE, averaged over runs
    avg_aoi_vs_k: np.ndarray
    final_avg_mse: float
    final_avg_aoi: float
    run_final_mse: np.ndarray  # per-run horizon averages, for confidence intervals
    run_final_aoi: np.ndarray
    mse_ci95: float
    aoi_ci95: float
    saturation_events: int = 0


@dataclass(frozen=True)
class TrajectoryReport(SimReport):
    """Chain statistics plus the empirical quantities from the drawn trajectories.

    avg_mse_vs_k / final_avg_mse hold the empirical squared error; the
    analytic_* fields hold the cost-table values for the same realized
    staleness states, and empirical_error_cov averages the receiver error
    outer products over all steps and runs.
    """

    analytic_avg_mse_vs_k: np.ndarray = None
    final_analytic_mse: float = float("nan")
    run_final_analytic_mse: np.ndarray = None
    empirical_error_cov: np.ndarray = None


def _ci95(per_run: np.ndarray) -> float:
    if len(per_run) < 2:
        return 0.0
    return float(1.96 * per_run.std(ddof=1) / np.sqrt(len(per_run)))


@dataclass(frozen=True)
class _ChainTables:
    """Per-edge tables of the decision model's chain under a stack of policies.

    Policy p's copy of model state s is the stacked state p * n_states + s,
    and every transition is read from the model's succ_idx, fail_idx and
    fail_prob arrays, so no edge leaves its policy's copy. Each step's
    uniform u maps to a level, the number of distinct failure
    probabilities at or below u, so the detection draw u < p fails exactly
    when the level is at most the index of p among them. The levels range
    over the union of all the policies' failure probabilities; that union
    refines each policy's own levels, so one level lookup serves every
    policy and every edge stays what that policy's own table would make
    it. An edge e = state * n_levels + level fixes the whole step:
    next_base[e] is the next stacked state times n_levels, and cost[e],
    age[e] (q + 1) and saturated[e] (a failure at q = q_max) are what the
    step accrues. A narrow chain walk also reads jump_base, the same map
    over jump_steps steps at once; it is built on such a walk's first use,
    so wide walks never build it.
    """

    n_policies: int
    n_states: int  # states of one policy's copy of the model
    g_values: np.ndarray   # distinct failure probabilities of all the policies, ascending
    next_base: np.ndarray
    cost: np.ndarray
    age: np.ndarray
    saturated: np.ndarray

    @classmethod
    def build(cls, mdp: TruncatedMdp, actions: np.ndarray):
        """Tables of the chains that take action actions[p, s] in model state s, one per row p."""
        n_policies, n_states = actions.shape
        rows = np.arange(n_states)
        pf = mdp.fail_prob[actions, rows]
        g_values = np.array(sorted(set(pf.ravel().tolist())))  # np.unique would import numpy.ma
        n_levels = len(g_values) + 1
        failed = np.arange(n_levels) <= np.searchsorted(g_values, pf)[..., None]
        next_state = np.where(failed, mdp.fail_idx[actions, rows][..., None],
                              mdp.succ_idx[actions, rows][..., None])
        next_state += (np.arange(n_policies) * n_states)[:, None, None]
        q = _state_rq(mdp)[1]
        return cls(
            n_policies=n_policies,
            n_states=n_states,
            g_values=g_values,
            next_base=(next_state * n_levels).astype(np.intp).ravel(),
            cost=np.tile(np.repeat(mdp.cost, n_levels), n_policies),
            age=np.tile(np.repeat(q + 1, n_levels), n_policies),
            saturated=(failed & (q == mdp.q_max)[:, None]).ravel(),
        )

    @property
    def n_levels(self) -> int:
        return len(self.g_values) + 1

    def levels(self, uniforms: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.g_values, uniforms, side="right")

    @cached_property
    def jump_steps(self) -> int:
        """k, the most steps whose jump table has at most JUMP_ENTRIES entries; at least 1."""
        k, entries = 1, len(self.next_base) * self.n_levels
        while entries <= JUMP_ENTRIES:
            k, entries = k + 1, entries * self.n_levels
        return k

    @cached_property
    def jump_base(self) -> np.ndarray:
        """The stacked state k = jump_steps steps on, times n_levels**k, per k-step edge.

        A k-step edge is state * n_levels**k + c, where the k steps'
        levels are the base-n_levels digits of c, the first step's the
        most significant. With k = 1 this is next_base.
        """
        n_levels, k = self.n_levels, self.jump_steps
        after = self.next_base.reshape(-1, n_levels)
        for _ in range(k - 1):
            after = self.next_base[after[..., None] + np.arange(n_levels)].reshape(len(after), -1)
        return after.ravel() * n_levels ** (k - 1)

    def walk_steps(self, n_runs: int) -> int:
        """Steps per numpy call of a walk of n_runs runs: jump_steps up to JUMP_LANES lanes, else 1.

        Per-call overhead bounds a narrow walk, so jumping pays there; on a
        full chunk the extra passes that rebuild each step's edge cost as
        much as the calls they save.
        """
        return self.jump_steps if self.n_policies * n_runs <= JUMP_LANES else 1

    def block_steps(self, n_runs: int) -> int:
        """Steps per block of a walk of n_runs runs: BLOCK_ELEMENTS elements, a multiple of walk_steps."""
        k = self.walk_steps(n_runs)
        return max(1, BLOCK_ELEMENTS // (self.n_policies * n_runs) // k) * k

    def window_steps(self, n_runs: int) -> int:
        """Steps per window of drawn uniforms: as many whole blocks as WINDOW uniforms hold."""
        block = self.block_steps(n_runs)
        return max(1, WINDOW // (n_runs * block)) * block

    def _block_edges(self, levels, base, k):
        """Each step's edge over a block of levels (steps x runs), moving base on past the block.

        base holds every policy's runs' states times n_levels**k. The runs
        move k steps per numpy call along jump_base (next_base if k = 1),
        on k-step edges whose digits are the levels of k steps; each step's
        edge is then rebuilt for the whole block, the first of a group from
        its k-step edge and the next from next_base. A last partial group
        is padded with level 0; its padded steps are dropped from the
        edges, but base moves past them.
        """
        n_levels, steps = self.n_levels, len(levels)
        jump_base = self.jump_base if k > 1 else self.next_base
        if steps % k:
            levels = np.concatenate([levels, np.zeros((-steps % k, levels.shape[1]), levels.dtype)])
        if self.n_policies > 1:
            levels = np.tile(levels, self.n_policies)
        combos = levels[::k]
        for j in range(1, k):
            combos = combos * n_levels + levels[j::k]
        kedges = np.empty(combos.shape, dtype=np.intp)
        for combo, kedge in zip(combos, kedges):
            np.add(base, combo, out=kedge)
            # edges are always in range; mode="raise" would buffer out
            jump_base.take(kedge, out=base, mode="wrap")
        if k == 1:
            return kedges
        edges = np.empty(levels.shape, dtype=np.intp)
        np.floor_divide(kedges, n_levels ** (k - 1), out=edges[::k])
        for j in range(1, k):
            np.add(self.next_base[edges[j - 1::k]], levels[j::k], out=edges[j::k])
        return edges[:steps]

    def walk(self, generators, start, step_mse, step_aoi, run_mse, run_aoi):
        """Advance every run of a chunk under every policy together from model state start.

        Run i draws its uniforms from generators[i], and all policies read
        the same uniforms per run. Per step: accrue the cost and age of
        the current state, then move along the edge the step's uniform
        selects. Writes each policy's per-step sums over runs into its row
        of step_mse/step_aoi (n_policies x horizon) and its per-run horizon
        averages into its row of run_mse/run_aoi (n_policies x runs), and
        returns each policy's number of steps at which q saturated at
        q_max.

        The uniforms are drawn window by window (window_steps) into one
        reused buffer, each window is walked block by block (block_steps),
        k = walk_steps steps per numpy call (_block_edges), and each
        block's edges are reduced. Windows and blocks hold whole groups of
        k steps, so only the horizon's last group can be partial. Float
        sums run over a policy's runs in order and over time in order,
        exactly as a per-run scalar loop adds them, whatever k and the
        block and window lengths.
        """
        n_runs, horizon = len(generators), step_mse.shape[1]
        n_policies = self.n_policies
        k, block, window = self.walk_steps(n_runs), self.block_steps(n_runs), self.window_steps(n_runs)
        uniforms = np.empty((n_runs, min(window, horizon)))
        # run i of policy p sits at p * n_runs + i
        base = np.repeat((np.arange(n_policies) * self.n_states + start) * self.n_levels ** k, n_runs)
        total_cost = np.zeros(n_policies * n_runs)
        total_age = np.zeros(n_policies * n_runs, dtype=np.int64)
        saturated = np.zeros(n_policies, dtype=np.int64)
        for w0 in range(0, horizon, window):
            drawn = uniforms[:, :min(window, horizon - w0)]
            for row, generator in zip(drawn, generators):
                generator.random(out=row)
            for b0 in range(0, drawn.shape[1], block):
                edges = self._block_edges(self.levels(drawn[:, b0:b0 + block].T), base, k)
                k0, k1 = w0 + b0, w0 + b0 + len(edges)
                by_policy = (k1 - k0, n_policies, n_runs)
                cost = self.cost[edges]
                # accumulate is sequential; sum() would pair terms up on some shapes
                step_mse[:, k0:k1] = np.add.accumulate(cost.reshape(by_policy), axis=2)[..., -1].T
                cost[0] += total_cost
                total_cost = np.add.accumulate(cost, axis=0)[-1]
                age = self.age[edges]
                step_aoi[:, k0:k1] = age.reshape(by_policy).sum(axis=2).T
                total_age += age.sum(axis=0)
                saturated += np.count_nonzero(self.saturated[edges].reshape(by_policy), axis=(0, 2))
        run_mse[:] = (total_cost / horizon).reshape(n_policies, n_runs)
        run_aoi[:] = (total_age / horizon).reshape(n_policies, n_runs)
        return saturated


def _policy_chains(policies: Sequence[PolicyGrid], m: HarqModel, sk: SteadyKalman, initial_q: int):
    """The MSE decision model's chains under a stack of policies, and the start state (0, initial_q)."""
    if not policies:
        raise ValueError("no policies to simulate")
    q_max = policies[0].q_max
    if any(policy.q_max != q_max for policy in policies):
        raise ValueError("the policies' grids have different q_max: "
                         f"{[policy.q_max for policy in policies]}")
    if initial_q > q_max:
        raise ValueError(f"initial_q={initial_q} outside the grid's q range 0..{q_max}")
    mdp = build_mdp(sk, m, q_max, "mse")
    rq = _state_rq(mdp)
    actions = np.stack([policy.actions[rq] for policy in policies])
    return _ChainTables.build(mdp, actions), mdp.index[(0, initial_q)]


def _warn_saturation(reports, q_max: int):
    """One warning per report whose q saturated; stacklevel names the public function's caller."""
    for report in reports:
        if report.saturation_events:
            warnings.warn(
                f"policy {report.label!r}: q reached the grid's q_max={q_max} and saturated there "
                f"in {report.saturation_events} steps, as in the truncated decision model",
                RuntimeWarning,
                stacklevel=3,
            )


def _chunk_streams(seed: int, runs: int, parts: int):
    """One counter-based Philox stream per CHUNK_RUNS-run chunk, split from seed.

    Chunk c holds runs c * CHUNK_RUNS up to CHUNK_RUNS more, and its
    stream is keyed by the c-th child of SeedSequence(seed), whatever runs
    is. The stream's counter space is cut into parts segments, segment j
    starting at counter j * 2**128 (the draws of Philox(child).jumped(j),
    built directly from the child's key). The caller fills one array per
    segment, run by run in run order, so run i's draws are rows
    i % CHUNK_RUNS of its chunk's arrays and depend only on the seed, i and
    the row shapes, never on runs. Yields (start, stop, generators), one
    generator per segment.
    """
    children = np.random.SeedSequence(seed).spawn(-(-runs // CHUNK_RUNS))
    for c, child in enumerate(children):
        key = child.generate_state(2, np.uint64)
        start = c * CHUNK_RUNS
        yield (start, min(start + CHUNK_RUNS, runs),
               [np.random.Generator(np.random.Philox(key=key, counter=j << 128)) for j in range(parts)])


def _chain_reports(policies: Sequence[PolicyGrid], m: HarqModel, sk: SteadyKalman,
                   cfg: SimConfig) -> list[SimReport]:
    """simulate_chains without the saturation warnings."""
    if cfg.mode != "analytic":
        raise ValueError("the chain simulation requires mode='analytic'")
    tables, initial_state = _policy_chains(policies, m, sk, cfg.initial_q)

    horizon, runs, n_policies = cfg.horizon, cfg.runs, len(policies)
    children = np.random.SeedSequence(cfg.seed).spawn(runs)
    run_mse = np.zeros((n_policies, runs))
    run_aoi = np.zeros((n_policies, runs))
    step_mse = np.zeros((n_policies, horizon))
    step_aoi = np.zeros((n_policies, horizon))
    part_mse = np.empty((n_policies, horizon))
    part_aoi = np.empty((n_policies, horizon))
    saturation = np.zeros(n_policies, dtype=np.int64)
    for start in range(0, runs, CHUNK_RUNS):
        stop = min(start + CHUNK_RUNS, runs)
        # one Philox stream per run; the walk draws from it window by window
        generators = [np.random.Generator(np.random.Philox(child)) for child in children[start:stop]]
        saturation += tables.walk(generators, initial_state,
                                  part_mse, part_aoi, run_mse[:, start:stop], run_aoi[:, start:stop])
        step_mse += part_mse  # per-chunk sums, added in chunk order
        step_aoi += part_aoi
    steps = np.arange(1, horizon + 1)
    reports = []
    for p, policy in enumerate(policies):
        avg_mse = np.cumsum(step_mse[p] / runs) / steps
        avg_aoi = np.cumsum(step_aoi[p] / runs) / steps
        reports.append(SimReport(
            label=policy.label, mode="analytic", horizon=horizon, runs=runs, seed=cfg.seed,
            avg_mse_vs_k=avg_mse, avg_aoi_vs_k=avg_aoi,
            final_avg_mse=float(avg_mse[-1]), final_avg_aoi=float(avg_aoi[-1]),
            run_final_mse=run_mse[p], run_final_aoi=run_aoi[p],
            mse_ci95=_ci95(run_mse[p]), aoi_ci95=_ci95(run_aoi[p]),
            saturation_events=int(saturation[p]),
        ))
    return reports


def simulate_chains(policies: Sequence[PolicyGrid], m: HarqModel, sk: SteadyKalman,
                    cfg: SimConfig) -> list[SimReport]:
    """Analytic-mode Monte Carlo of the (r, q) chain under each of several policies.

    The chain is the MSE decision model's (build_mdp at the grids' common
    q_max): per step the accrued MSE is the cost-table entry for the
    current q and the accrued age is q+1; then the policy acts, detection
    is drawn with probability 1 - g(r), and the state advances. q
    saturates at q_max as in the model, with one warning per policy that
    counts the failed steps taken there. Every policy walks the same
    uniforms (common random numbers), drawn once, so each report is
    bit-identical to a one-policy call and the differences between
    policies are paired run by run. Returns one SimReport per grid, in
    order. An empty sequence, grids with different q_max, a cost table
    shorter than q_max or an initial_q above it raise ValueError.
    Identical seed and config give bit-identical reports.
    """
    reports = _chain_reports(policies, m, sk, cfg)
    _warn_saturation(reports, policies[0].q_max)
    return reports


def simulate_chain(policy: PolicyGrid, m: HarqModel, sk: SteadyKalman, cfg: SimConfig) -> SimReport:
    """simulate_chains for one policy."""
    report, = _chain_reports([policy], m, sk, cfg)
    _warn_saturation([report], policy.q_max)
    return report


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """F with F @ F.T = m for symmetric PSD m (eigen-based, tolerant of
    zero eigenvalues)."""
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def simulate_trajectory(policy: PolicyGrid, sys: LtiSystem, m: HarqModel, sk: SteadyKalman,
                        cfg: SimConfig) -> TrajectoryReport:
    """Trajectory-mode Monte Carlo: draw the physical process and compare
    empirical receiver error against the analytic staleness cost.

    Per run: the sensor error starts at x0 ~ N(0, p_bar0) (the sensor
    estimate starts at zero, so in steady state), process and measurement
    noise are drawn each step, the sensor runs the converged-gain filter,
    and the receiver predicts from the newest delivered estimate, which is
    q+1 steps old. The (r, q) chain is the decision model's, and its edges
    come from the chain walk's own _block_edges.

    The simulation runs in error coordinates, so it never forms the state,
    which an expansive process grows without bound, and any horizon keeps
    full precision. Write E(k, a) = x_k - A^a xs_(k-a) for the error at
    step k of the sensor estimate generated a steps earlier, predicted
    forward. The receiver's error is E(k, q+1) and the in-flight packet's
    E(k, r+1), so at q = r the receiver's error is the packet's. With es
    the sensor error and w_k the process noise, E(k, 1) = A es_(k-1) + w_k,
    and an error whose age grew by one is A E(k-1, a-1) + w_k. At the
    saturated age q_max + 1 the chain can hold r or q, so the age need not
    have grown; that error is formed afresh as A^(q_max+1) es_(k-q_max-1)
    plus the noise since, from a ring of the last q_max + 1 sensor errors,
    at q_max + 1 products for each run at that age. (A recursion for it,
    with A as its homogeneous part, would grow its own rounding like the
    state and lose all precision within 60 steps of an expansive process.)
    Every per-run quantity is stored component-major, (n, runs).
    """
    if cfg.mode != "trajectory":
        raise ValueError("simulate_trajectory requires mode='trajectory'")
    if cfg.initial_q != 0:
        raise ValueError("trajectory mode starts from a just-delivered estimate (initial_q=0)")
    horizon, runs, n = cfg.horizon, cfg.runs, sys.n
    tables, initial_state = _policy_chains([policy], m, sk, cfg.initial_q)
    oldest = policy.q_max + 1  # the saturated age

    a = sys.A
    l0, lq, lr = (_psd_factor(cov) for cov in (sk.p_bar0, sys.Q, sys.R))
    # es_k = (I - KC) E(k, 1) - K v_k, one product with E(k, 1) stacked on zv_k
    filter_step = np.hstack([np.eye(n) - sk.gain @ sys.C, -sk.gain @ lr])
    # the draws, component-major: step k's standard normals are zw[k - 1] and zv[k - 1]
    es_ring = np.empty((oldest, n, runs))  # sensor error es_j in slot j % oldest; es_0 = x_0
    zw = np.empty((horizon, n, runs))
    zv = np.empty((horizon, sys.m, runs))
    uniforms = np.empty((horizon, runs))
    for start, stop, (g0, gw, gv, gu) in _chunk_streams(cfg.seed, runs, 4):
        rows = stop - start
        es_ring[0, :, start:stop] = l0 @ g0.standard_normal((rows, n)).T
        zw[..., start:stop] = gw.standard_normal((rows, horizon, n)).transpose(1, 2, 0)
        zv[..., start:stop] = gv.standard_normal((rows, horizon, sys.m)).transpose(1, 2, 0)
        uniforms[:, start:stop] = gu.random((rows, horizon)).T

    # what the state of each edge tells the errors: r = 0 restarts the packet's
    # error, q = r hands it to the receiver, and q_max saturates either age (r <= q)
    r, q = np.array(enumerate_states(policy.q_max)).T
    restarts, delivered, r_oldest, q_oldest = (
        np.repeat(flags, tables.n_levels)
        for flags in (r == 0, q == r, r == policy.q_max, q == policy.q_max))

    noise = np.empty((n, runs))  # w_k
    filter_in = np.empty((n + sys.m, runs))
    fresh = filter_in[:n]  # E(k, 1)
    packet = np.zeros((n, runs))  # both become E(1, 1) at step 1: the start state has r = q = 0
    error = np.zeros((n, runs))  # the receiver's
    aged = np.empty((n, runs))
    sq = np.empty(runs)
    step_emp = np.zeros(horizon)
    step_ana = np.zeros(horizon)
    step_aoi = np.zeros(horizon)
    run_emp = np.zeros(runs)
    run_ana = np.zeros(runs)
    run_aoi = np.zeros(runs)
    err_cov = np.zeros((n, n))
    saturation = 0

    k_walk, block = tables.walk_steps(runs), tables.block_steps(runs)
    base = np.full(runs, initial_state * tables.n_levels ** k_walk, dtype=np.intp)
    for b0 in range(0, horizon, block):
        edges = tables._block_edges(tables.levels(uniforms[b0:b0 + block]), base, k_walk)
        for k, edge in enumerate(edges, b0 + 1):
            np.matmul(lq, zw[k - 1], out=noise)
            np.matmul(a, es_ring[(k - 1) % oldest], out=fresh)
            fresh += noise
            np.matmul(a, packet, out=aged)
            np.add(aged, noise, out=packet)
            np.copyto(packet, fresh, where=restarts[edge])
            np.matmul(a, error, out=aged)
            np.add(aged, noise, out=error)
            np.copyto(error, packet, where=delivered[edge])
            cols = np.flatnonzero(q_oldest[edge])
            if len(cols):
                # E(k, oldest) from es_(k - oldest), before slot k % oldest is overwritten
                lagged = es_ring[k % oldest][:, cols]
                for j in range(k - oldest, k):
                    lagged = a @ lagged + lq @ zw[j][:, cols]
                error[:, cols] = lagged
                # else a packet held at r = q_max would grow like the state
                np.copyto(packet, error, where=r_oldest[edge])
            filter_in[n:] = zv[k - 1]
            np.matmul(filter_step, filter_in, out=es_ring[k % oldest])

            np.einsum("ir,ir->r", error, error, out=sq)
            err_cov += error @ error.T
            ana = tables.cost[edge]
            aoi = tables.age[edge]
            step_emp[k - 1] = sq.sum()
            step_ana[k - 1] = ana.sum()
            step_aoi[k - 1] = aoi.sum()
            run_emp += sq
            run_ana += ana
            run_aoi += aoi
            saturation += int(np.count_nonzero(tables.saturated[edge]))

    steps = np.arange(1, horizon + 1)
    avg_emp = np.cumsum(step_emp / runs) / steps
    avg_ana = np.cumsum(step_ana / runs) / steps
    avg_aoi = np.cumsum(step_aoi / runs) / steps
    run_emp /= horizon
    run_ana /= horizon
    run_aoi /= horizon
    report = TrajectoryReport(
        label=policy.label, mode="trajectory", horizon=horizon, runs=runs, seed=cfg.seed,
        avg_mse_vs_k=avg_emp, avg_aoi_vs_k=avg_aoi,
        final_avg_mse=float(avg_emp[-1]), final_avg_aoi=float(avg_aoi[-1]),
        run_final_mse=run_emp, run_final_aoi=run_aoi,
        mse_ci95=_ci95(run_emp), aoi_ci95=_ci95(run_aoi),
        saturation_events=int(saturation),
        analytic_avg_mse_vs_k=avg_ana,
        final_analytic_mse=float(avg_ana[-1]),
        run_final_analytic_mse=run_ana,
        empirical_error_cov=err_cov / (runs * horizon),
    )
    _warn_saturation([report], policy.q_max)
    return report


def write_report_csv(report: SimReport, path):
    """Plot-ready per-step running averages, one row per time step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "avg_mse", "avg_aoi"])
        for k in range(report.horizon):
            writer.writerow([k + 1, f"{report.avg_mse_vs_k[k]:.6g}", f"{report.avg_aoi_vs_k[k]:.6g}"])


def write_report_json(report: SimReport, path):
    out = {
        "label": report.label,
        "mode": report.mode,
        "horizon": report.horizon,
        "runs": report.runs,
        "seed": report.seed,
        "final_avg_mse": report.final_avg_mse,
        "final_avg_aoi": report.final_avg_aoi,
        "mse_ci95_halfwidth": report.mse_ci95,
        "aoi_ci95_halfwidth": report.aoi_ci95,
        "saturation_events": report.saturation_events,
    }
    if isinstance(report, TrajectoryReport):
        out["final_analytic_mse"] = report.final_analytic_mse
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
        fh.write("\n")
