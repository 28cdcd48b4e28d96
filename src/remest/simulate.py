"""Monte-Carlo evaluation of decision policies.

Two modes: the analytic chain mode walks the (r, q) state only and accrues
the exact per-step MSE from the staleness cost table; the trajectory mode
also draws the physical process, runs the sensor filter at its steady
state, applies the receiver's prediction estimator, and reports the
empirical squared error next to the analytic value for the same realized
staleness. Both walk the chain of the truncated decision model
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
from .policies import PolicyGrid

CHUNK_RUNS = 128  # runs walked together; chunk sums are added in chunk order
BLOCK_ELEMENTS = 2 ** 13  # steps x policies x runs per chain-walk block
JUMP_ENTRIES = 2 ** 17  # most entries of a chain-walk jump table (1 MB of intp)
JUMP_LANES = 64  # widest chain walk (policies x runs) that jumps; a full chunk gains nothing
WINDOW = 2 ** 17  # most uniforms a chunk of the chain walk holds at once (1 MB)
STATE_CAP = 1e14  # trajectory-mode bound on any state magnitude, well inside float64


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
    so the trajectory mode, which steps one at a time, and wide walks never
    build it.
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
    starting at counter j * 2**128 (Philox.jumped(j)). The caller fills one
    array per segment, run by run in run order, so run i's draws are rows
    i % CHUNK_RUNS of its chunk's arrays and depend only on the seed, i and
    the row shapes, never on runs. Yields (start, stop, generators), one
    generator per segment.
    """
    children = np.random.SeedSequence(seed).spawn(-(-runs // CHUNK_RUNS))
    for c, child in enumerate(children):
        stream = np.random.Philox(child)
        start = c * CHUNK_RUNS
        yield (start, min(start + CHUNK_RUNS, runs),
               [np.random.Generator(stream.jumped(j)) for j in range(parts)])


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

    Per run: x0 ~ N(0, p_bar0) with the sensor estimate starting at zero
    (so the sensor error starts in steady state), process/measurement
    noise drawn each step, the sensor running the converged-gain filter,
    and the receiver predicting from the newest delivered estimate, which
    is q+1 steps old. The (r, q) chain is the decision model's, walked
    exactly as simulate_chain walks it.

    With an expansive process the raw state grows geometrically, so long
    horizons overflow float64 (and lose precision well before); the run
    aborts with ValueError naming the step once any state magnitude
    exceeds STATE_CAP. Keep horizon * log(rho(A)) comfortably under
    log(STATE_CAP).
    """
    if cfg.mode != "trajectory":
        raise ValueError("simulate_trajectory requires mode='trajectory'")
    if cfg.initial_q != 0:
        raise ValueError("trajectory mode starts from a just-delivered estimate (initial_q=0)")
    horizon, runs = cfg.horizon, cfg.runs
    n, m_dim = sys.n, sys.m
    tables, initial_state = _policy_chains([policy], m, sk, cfg.initial_q)

    z0 = np.empty((runs, n))
    zw = np.empty((runs, horizon, n))
    zv = np.empty((runs, horizon, m_dim))
    uniforms = np.empty((runs, horizon))
    for start, stop, (g0, gw, gv, gu) in _chunk_streams(cfg.seed, runs, 4):
        g0.standard_normal(out=z0[start:stop])
        gw.standard_normal(out=zw[start:stop])
        gv.standard_normal(out=zv[start:stop])
        gu.random(out=uniforms[start:stop])

    l0 = _psd_factor(sk.p_bar0)
    lq = _psd_factor(sys.Q)
    lr = _psd_factor(sys.R)
    depth = policy.q_max + 2  # ages run from 1 to q_max + 1
    a_pows = np.empty((depth, n, n))
    a_pows[0] = np.eye(n)
    for p in range(1, depth):
        a_pows[p] = sys.A @ a_pows[p - 1]

    x = z0 @ l0.T               # true state; sensor estimate starts at 0
    hist = np.zeros((runs, depth, n))  # ring buffer of sensor estimates
    xs = np.zeros((runs, n))
    hist[:, 0] = xs
    base = np.full(runs, initial_state * tables.n_levels, dtype=np.intp)

    step_emp = np.zeros(horizon)
    step_ana = np.zeros(horizon)
    step_aoi = np.zeros(horizon)
    run_emp = np.zeros(runs)
    run_ana = np.zeros(runs)
    run_aoi = np.zeros(runs)
    err_cov = np.zeros((n, n))
    saturation = 0
    run_idx = np.arange(runs)

    for k in range(1, horizon + 1):
        w = zw[:, k - 1] @ lq.T
        x = x @ sys.A.T + w
        if float(np.abs(x).max()) > STATE_CAP:
            raise ValueError(
                f"state magnitude exceeded {STATE_CAP:g} at step {k}; "
                f"shorten the horizon (sim.K in a config) to under {k} steps"
            )
        v = zv[:, k - 1] @ lr.T
        y = x @ sys.C.T + v
        pred = xs @ sys.A.T
        xs = pred + (y - pred @ sys.C.T) @ sk.gain.T

        edge = base + tables.levels(uniforms[:, k - 1])
        # receiver predicts from the estimate generated q+1 steps ago
        aoi = tables.age[edge]
        src = hist[run_idx, (k - aoi) % depth]
        xhat = np.einsum("rij,rj->ri", a_pows[aoi], src)
        err = x - xhat
        sq = np.einsum("ri,ri->r", err, err)
        err_cov += err.T @ err
        ana = tables.cost[edge]

        step_emp[k - 1] = sq.sum()
        step_ana[k - 1] = ana.sum()
        step_aoi[k - 1] = aoi.sum()
        run_emp += sq
        run_ana += ana
        run_aoi += aoi
        saturation += int(np.count_nonzero(tables.saturated[edge]))

        hist[:, k % depth] = xs
        tables.next_base.take(edge, out=base)

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
