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
stream (_chunk_streams).

Both modes take their edges from one walk (_ChainTables.walk), which
moves many runs under one or more policies together in numpy: the
policies' chains are stacked into one table of two-outcome edges and read
the same uniforms. In the chain mode, policies that act alike where their
runs go share lanes (_ChainTables.walk_stack): each policy after the
first has a leader, the earlier policy whose steps differ from its own at
the fewest states, and over a chunk's window it is not walked when its
runs start in its leader's states and its leader's path visits no state
where the two step differently; its counts are then copies of its
leader's. The walk moves its lanes (policies x runs) in blocks
of BLOCK_ELEMENTS lane-steps, and the chain mode walks the horizon in
windows of as many whole blocks as BLOCK_ELEMENTS uniforms of a
CHUNK_RUNS-run chunk hold, every chunk in turn, so the uniforms and the
per-step counts take no more memory at a longer horizon. A block of fewer
than LANES lanes, such as a few long runs, is cut into time segments
walked side by side and then stitched exactly where their paths meet, so
every numpy call moves about LANES lanes. The walk counts each policy's
visits, per step and per run, as integers in bins: q, or q_max + 1 for a
failed step at q = q_max (a saturation event). The MSE and the AoI are
the counts times each bin's staleness cost and age q + 1. Integer counts
are exact, so no statistic depends on the walk's order, on the block,
segment and window lengths, or on which policies were walked and which
copied.

The trajectory mode draws, walks and steps its runs one group of
GROUP_CHUNKS whole chunks at a time, each over the whole horizon, so a
call holds one group's draws and sensor-error ring, about
(group runs) x (horizon x (n + m + 1) + (q_max + 1) x n) x 8 bytes,
whatever the number of runs. The draws cannot be cut into time windows
instead, as standard_normal rejects some samples, so where a later
step's draws start in the stream is not known until the earlier steps
are drawn. A run's values depend on its own draws and counts only, so no
per-run or counted value depends on the grouping. The per-step sums of
the squared errors, and the error covariance, sum each chunk's runs and
then add the chunks' sums in chunk order, so they depend on CHUNK_RUNS
only.
"""

from __future__ import annotations

import itertools
import json
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .harq import HarqModel
from .lti import LtiSystem, SteadyKalman
from .mdp import TruncatedMdp, build_mdp
from .policies import PolicyGrid, state_index

CHUNK_RUNS = 128  # runs of a chain-walk chunk, and of a trajectory-mode stream
BLOCK_ELEMENTS = 2 ** 16  # steps x lanes (policies x runs) per chain-walk block
LANES = 2 ** 11  # a block of fewer lanes walks its time segments side by side, to about this width
# chunks a trajectory-mode group draws and steps at a time, 4096 runs: at 16 a step's Python
# overhead showed (about 10% slower a call), and 64 were no faster while holding twice the draws
GROUP_CHUNKS = 2 * LANES // CHUNK_RUNS


@dataclass(frozen=True)
class SimConfig:
    horizon: int
    runs: int
    seed: int
    initial_q: int = 0
    mode: str = "analytic"

    def __post_init__(self):
        for name in ("horizon", "runs", "seed", "initial_q"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))  # a numpy integer becomes a plain int
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
    """What a walk measured: per-step running means and per-run horizon averages.

    horizon, runs, final_avg_mse, final_avg_aoi, mse_ci95 and aoi_ci95 are
    derived from these fields, as read-only properties.
    """

    label: str
    mode: str
    seed: int
    avg_mse_vs_k: np.ndarray  # running mean of the per-step MSE, averaged over runs
    avg_aoi_vs_k: np.ndarray
    run_final_mse: np.ndarray  # per-run horizon averages, for confidence intervals
    run_final_aoi: np.ndarray
    saturation_events: int

    horizon = property(lambda self: len(self.avg_mse_vs_k))
    runs = property(lambda self: len(self.run_final_mse))
    final_avg_mse = property(lambda self: float(self.avg_mse_vs_k[-1]))
    final_avg_aoi = property(lambda self: float(self.avg_aoi_vs_k[-1]))
    mse_ci95 = property(lambda self: _ci95(self.run_final_mse))
    aoi_ci95 = property(lambda self: _ci95(self.run_final_aoi))


@dataclass(frozen=True)
class TrajectoryReport(SimReport):
    """Chain statistics plus the empirical quantities from the drawn trajectories.

    avg_mse_vs_k / final_avg_mse hold the empirical squared error; the
    analytic_* fields and final_analytic_mse hold the cost-table values for
    the same realized staleness states, and empirical_error_cov averages
    the receiver error outer products over all steps and runs.
    """

    analytic_avg_mse_vs_k: np.ndarray
    run_final_analytic_mse: np.ndarray
    empirical_error_cov: np.ndarray
    final_analytic_mse = property(lambda self: float(self.analytic_avg_mse_vs_k[-1]))


def _ci95(per_run: np.ndarray) -> float:
    if len(per_run) < 2:
        return 0.0
    return float(1.96 * per_run.std(ddof=1) / np.sqrt(len(per_run)))


def _running_mean(step_totals: np.ndarray, runs: int) -> np.ndarray:
    """Entry k - 1 is the mean over steps 1..k of step_totals / runs, the per-step run average."""
    return np.cumsum(step_totals / runs) / np.arange(1, len(step_totals) + 1)


@dataclass(frozen=True)
class _ChainTables:
    """Per-edge tables of the decision model's chain under a stack of policies.

    Policy p's copy of model state s is the stacked state p * n_states + s,
    and every transition is read from the model's succ_idx, fail_idx and
    fail_prob arrays, so no edge leaves its policy's copy. A step has two
    outcomes, and its edge 2 * state + failed fixes it: failed is whether
    the step's uniform u is below fail_prob[2 * state], the state's failure
    probability (fail_prob holds it for both of the state's edges), which
    is the reference rule u < g. next_base[e] is 2 times the next stacked
    state, and bins[e] is the stacked bin p * n_bins + b that counts the
    step's visit. Bin b is the state's q, or q_max + 1 for a failed step at
    q = q_max (a saturation event); a visit to it accrues bin_cost[b], the
    staleness cost of its q, and bin_age[b] = q + 1.

    A walk's lanes are its policies x runs, the runs of each policy in a
    row, for the whole stack or for the subset of it that walk_stack
    moves. It moves them in blocks of BLOCK_ELEMENTS lane-steps. A block
    of fewer than LANES lanes is cut into time segments walked side
    by side, the first from the lanes' true states and every other from
    state (0, 0) of its lane's policy, and then stitched exactly: under
    common uniforms, copies of the chain started in different states soon
    meet and move together from then on (the coalescence behind coupling
    from the past; Propp and Wilson, Random Structures & Algorithms 9,
    1996), so a segment whose start differs from its left neighbour's end
    is re-walked from that end only until it meets its stored path. A
    block in which some lane never meets it is walked again in time order
    as one segment, so even a chain whose copies never meet, such as a
    cycle, takes three passes over each block: side by side, the stitch,
    and in time order.
    """

    n_policies: int
    n_states: int  # states of one policy's copy of the model
    fail_prob: np.ndarray  # per edge, its state's failure probability
    next_base: np.ndarray
    bins: np.ndarray
    bin_cost: np.ndarray  # per bin of one policy's copy
    bin_age: np.ndarray
    leaders: tuple  # per policy, the earlier one whose steps differ from its own at the fewest states
    diverges: np.ndarray  # policies x stacked edges: where a policy's step differs from its leader's
    # a walk's block arrays, kept from block to block: fresh ones of this size would be
    # mapped and unmapped by malloc block after block, tens of thousands of page faults a call;
    # a trajectory call keeps its group's draws here too, from group to group
    buffers: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, mdp: TruncatedMdp, actions: np.ndarray):
        """Tables of the chains that take action actions[p, s] in model state s, one per row p."""
        n_policies, n_states = actions.shape
        rows = np.arange(n_states)
        offset = (np.arange(n_policies) * n_states)[:, None, None]
        next_state = np.stack([mdp.succ_idx[actions, rows], mdp.fail_idx[actions, rows]], axis=-1)
        fail_prob = mdp.fail_prob[actions, rows]
        bin_q = np.minimum(np.arange(mdp.q_max + 2), mdp.q_max)
        failed = np.array([False, True])
        bins = np.where(failed & (mdp.q == mdp.q_max)[:, None], mdp.q_max + 1, mdp.q[:, None])
        # the edges of a state where two policies' steps differ: the failure probability
        # differs, or the edge's next state; each later policy's mask against its leader is
        # tiled over the policies' copies, so it reads the edges of whichever copy it is given
        leaders, diverges = [0], np.zeros((n_policies, n_policies * 2 * n_states), dtype=bool)
        for p in range(1, n_policies):
            differ = (next_state[:p] != next_state[p]) | (fail_prob[:p] != fail_prob[p])[..., None]
            leaders.append(int(differ.any(axis=-1).sum(axis=-1).argmin()))
            diverges[p] = np.tile(differ[leaders[-1]].ravel(), n_policies)
        return cls(
            n_policies=n_policies,
            n_states=n_states,
            fail_prob=np.repeat(fail_prob.ravel(), 2),
            next_base=(2 * (next_state + offset)).astype(np.intp).ravel(),
            bins=(bins + (np.arange(n_policies) * len(bin_q))[:, None, None]).astype(np.intp).ravel(),
            bin_cost=mdp.cost[state_index(0, bin_q)],
            bin_age=bin_q + 1.0,
            leaders=tuple(leaders),
            diverges=diverges,
        )

    def start(self, state: int, n_runs: int) -> np.ndarray:
        """A walk's base with every lane at model state state: 2 x its stacked state, per lane."""
        return np.repeat(2 * (np.arange(self.n_policies) * self.n_states + state), n_runs)

    def block_steps(self, n_runs: int, n_policies: int | None = None) -> int:
        """Steps per block of a walk of n_runs runs under n_policies of the stack (all by default):
        BLOCK_ELEMENTS lane-steps."""
        return max(1, BLOCK_ELEMENTS // ((n_policies or self.n_policies) * n_runs))

    def segment_steps(self, n_runs: int, n_policies: int | None = None) -> int:
        """Steps per time segment: a block cut into as many segments as LANES lanes hold, at least one."""
        lanes = (n_policies or self.n_policies) * n_runs
        return -(-self.block_steps(n_runs, n_policies) // max(1, LANES // lanes))

    def window_steps(self, n_runs: int) -> int:
        """Steps per window: as many whole blocks as BLOCK_ELEMENTS uniforms of n_runs runs hold."""
        block = self.block_steps(n_runs)
        return max(1, BLOCK_ELEMENTS // (n_runs * block)) * block

    def _buffer(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """An uninitialised array of shape in buffers[name], which grows as a walk needs."""
        size = int(np.prod(shape))
        flat = self.buffers.get(name)
        if flat is None or len(flat) < size:
            flat = self.buffers[name] = np.empty(size, dtype)
        return flat[:size].reshape(shape)

    def _segments(self, uniforms, base, seg):
        """Edges of a block of uniforms (steps x runs) whose time is cut into segments of seg steps.

        The segments are walked side by side, segment 0 from base and every
        other from (0, 0); the last is padded past the block. Returns the
        edges and the uniforms as the walk read them, by step within a
        segment: seg x segments x lanes and seg x segments x runs.
        """
        steps, n_runs = uniforms.shape
        n_seg, full = -(-steps // seg), steps // seg
        by_step = self._buffer("uniforms", (seg, n_seg, n_runs), float)
        by_time = by_step.transpose(1, 0, 2)  # step j * seg + t of the block is by_time[j, t]
        by_time[:full] = uniforms[:full * seg].reshape(full, seg, n_runs)
        if full < n_seg:
            by_time[full, :steps - full * seg] = uniforms[full * seg:]
            by_time[full, steps - full * seg:] = 1.0  # padding, which never fails
        edges = self._buffer("edges", (seg, n_seg, len(base)), np.intp)
        state = np.empty((n_seg, len(base)), dtype=np.intp)
        state[0], state[1:] = base, base - base % (2 * self.n_states)  # (0, 0) of each lane's policy
        state, pf = state.reshape(-1), np.empty(state.size)
        # every policy's lane of a run reads the run's uniform
        by_policy = pf.reshape(n_seg, -1, n_runs)
        failed = np.empty(by_policy.shape, dtype=bool)
        failed_lanes = failed.reshape(-1)
        for u, edge in zip(by_step[:, :, None], edges.reshape(seg, -1)):
            # indices are always in range; mode="raise" would buffer out
            self.fail_prob.take(state, out=pf, mode="wrap")
            np.less(u, by_policy, out=failed)
            np.add(state, failed_lanes, out=edge)
            self.next_base.take(edge, out=state, mode="wrap")
        return edges, by_step

    def _stitch(self, edges, by_step) -> bool:
        """Re-walk each segment whose start is not its left neighbour's end, in one pass.

        All such lanes move together from their left neighbours' ends and
        stop once every one has met its stored path, as from there the two
        paths agree; True then, and edges holds the block's exact edges.
        False if a lane reaches its segment's end without meeting it.
        """
        seg, n_seg, lanes = edges.shape
        n_runs = by_step.shape[2]
        ends = self.next_base.take(edges[-1, :-1])
        redo = np.flatnonzero(ends % (2 * self.n_states))  # the ends not at (0, 0) of their policy
        state = ends.ravel()[redo]
        at = redo + lanes  # each lane's place in the next segment, in edges[t]
        read = at // lanes * n_runs + at % lanes % n_runs  # and its run's, in by_step[t]
        for u, edge in zip(by_step.reshape(seg, -1), edges.reshape(seg, -1)):
            new = state + (u.take(read) < self.fail_prob.take(state))
            if np.array_equal(new, edge.take(at)):
                return True
            edge[at] = new
            self.next_base.take(new, out=state)
        return False

    def _block_edges(self, uniforms, base):
        """Each step's edge over a block of uniforms (steps x runs), moving base on past the block.

        A walk of fewer than LANES lanes cuts the block into segments,
        walks them side by side and stitches them (_stitch); if a lane
        never meets its stored path, as in a chain that cycles, the block
        is walked again in time order as one segment. Returns the edges as
        _segments does: step j * seg + t of the block is edges[t, j].
        """
        steps, n_runs = uniforms.shape
        seg = self.segment_steps(n_runs, len(base) // n_runs)
        edges, by_step = self._segments(uniforms, base, min(seg, steps))
        if edges.shape[1] > 1 and not self._stitch(edges, by_step):
            edges, _ = self._segments(uniforms, base, steps)
        seg, n_seg, _ = edges.shape
        self.next_base.take(edges[steps - 1 - (n_seg - 1) * seg, -1], out=base, mode="wrap")
        return edges

    @staticmethod
    def _unpadded(edges, steps):
        """A block's edges, laid out as _block_edges returns them, without the padding past its
        steps: the full segments and the last segment's steps."""
        seg, n_seg = edges.shape[:2]
        return edges[:, :-1], edges[:steps - (n_seg - 1) * seg, -1]

    def _count(self, edges, step_visits, run_visits):
        """Count the visits of a block's edges, laid out as _block_edges returns them.

        They add per step into step_visits (steps x stacked bins) and per
        run into run_visits (runs x stacked bins); the padding past the
        block counts in neither.
        """
        seg, n_seg, _ = edges.shape
        steps, width = step_visits.shape
        n_runs = len(run_visits)
        # the keys are made in place, as blocks are large: a step's bin counts at
        # step * width + bin, and a run's at run * width + bin
        keys = self._buffer("keys", edges.shape, np.intp)
        self.bins.take(edges, out=keys, mode="wrap")
        at_step = (np.arange(n_seg) * seg + np.arange(seg)[:, None])[..., None] * width
        keys += at_step
        counts = np.bincount(keys.ravel(), minlength=steps * width)  # the padding counts past its end
        step_visits += counts[:steps * width].reshape(steps, width)
        keys -= at_step
        by_run = keys.reshape(seg, n_seg, -1, n_runs)
        by_run += np.arange(n_runs) * width
        # an int32 one keeps add.at off its slow casting path; a bincount would spend
        # most of a wide walk's short block on the zeros of run_visits, and even a
        # 128-run chunk's is slower than add.at
        for part in self._unpadded(by_run, steps):
            np.add.at(run_visits.reshape(-1), part, np.int32(1))

    def walk(self, uniforms, base, step_visits, run_visits):
        """Advance the lanes in base over uniforms (steps x runs), counting their visits.

        base holds 2 x each lane's stacked state (start), and moves on in
        place, so the next walk continues from where this one stops; its
        lanes are those of one or more policies of the stack, each policy's
        runs in a row, in any order. Every policy reads the same uniforms
        per run. Per step, each lane counts a visit to its edge's bin and
        moves along the edge its uniform selects. A block's visits are
        counted once its edges are final: into step_visits (steps x stacked
        bins), per step over runs, and into run_visits (runs x stacked
        bins), per run. Yields each block's first step, its number of steps
        and its edges, laid out as _block_edges returns them, once they are
        counted; they are overwritten by the next block.
        """
        n_runs = len(run_visits)
        block = self.block_steps(n_runs, len(base) // n_runs)
        for b0 in range(0, len(uniforms), block):
            steps = min(block, len(uniforms) - b0)
            edges = self._block_edges(uniforms[b0:b0 + steps], base)
            self._count(edges, step_visits[b0:b0 + steps], run_visits)
            yield b0, steps, edges

    def walk_stack(self, uniforms, base, step_visits, run_visits, diverged):
        """walk every policy of the stack over uniforms (steps x runs), moving only the lanes
        whose paths can differ.

        base holds every policy's lanes, as start lays them out, and
        step_visits and run_visits take every policy's counts, as in walk.
        Policy p is not walked when each of its runs starts in the model
        state of its leader's run and its leader's path visits no edge
        where the two step differently (diverges): under common uniforms
        its path is then its leader's, so its counts are copies of its
        leader's and its lanes end where its leader's do. Otherwise it is
        walked from its own start, after its leader. diverged holds, per
        policy, whether its last check found such an edge; the caller keeps
        it from walk to walk, and a policy whose check failed is walked
        beside its leader at once and checked again. A one-policy stack is
        walked by walk alone, with no tallies of its own.
        """
        if self.n_policies == 1:
            for _ in self.walk(uniforms, base, step_visits, run_visits):
                pass
            return
        n_runs = len(run_visits)
        lanes = base.reshape(self.n_policies, n_runs)
        at = lanes % (2 * self.n_states)
        # each policy's source is the policy whose lanes carry its path, itself if it is walked;
        # a policy that starts where its leader does is watched on its leader's source's lanes
        source, watched = list(range(self.n_policies)), {}
        for p in range(1, self.n_policies):
            leader = self.leaders[p]
            if np.array_equal(at[p], at[leader]):
                watched[p] = source[leader]
                if not diverged[p]:
                    source[p] = source[leader]
        step_tally = self._buffer("step_tally", step_visits.shape, np.int32)
        run_tally = self._buffer("run_tally", run_visits.shape, np.int32)
        step_tally.fill(0)
        run_tally.fill(0)

        def walk_some(policies, watched):
            """Walk policies from their own starts; returns the watched ones whose source's
            path reached an edge where they step differently."""
            moving, hits = lanes[policies].ravel(), set()
            for _, steps, edges in self.walk(uniforms, moving, step_tally, run_tally):
                for p, src in watched.items():
                    if p not in hits:
                        j = policies.index(src)
                        seen = self.diverges[p].take(edges[..., j * n_runs:(j + 1) * n_runs])
                        if any(part.any() for part in self._unpadded(seen, steps)):
                            hits.add(p)
            lanes[policies] = moving.reshape(-1, n_runs)
            return hits

        hits = walk_some([p for p in range(self.n_policies) if source[p] == p], watched)
        again = []
        for p, src in watched.items():
            diverged[p] = p in hits
            if source[p] == p:
                continue
            # a leader walked again left the path that p was checked on
            if diverged[p] or self.leaders[p] in again:
                again.append(p)
                continue
            for tally in (step_tally, run_tally):
                by_policy = tally.reshape(len(tally), self.n_policies, -1)
                by_policy[:, p] = by_policy[:, src]
            lanes[p] = lanes[src] + 2 * self.n_states * (p - src)
        if again:
            walk_some(again, {})
        step_visits += step_tally
        run_visits += run_tally

    def visits(self, rows: int) -> np.ndarray:
        """A zero tally for walk: rows x stacked bins, int32."""
        return np.zeros((rows, self.n_policies * len(self.bin_cost)), dtype=np.int32)

    def totals(self, visits):
        """What visits (... x stacked bins) accrue per policy: cost, age and saturation events.

        Each is (... x n_policies). Cost and age are the counts times
        bin_cost and bin_age summed in bin order, so they depend on the
        counts alone; the saturation events are the last bin's counts.
        """
        by_bin = visits.reshape(*visits.shape[:-1], self.n_policies, -1)
        cost, age = np.zeros(by_bin.shape[:-1]), np.zeros(by_bin.shape[:-1])
        for count, bin_cost, bin_age in zip(np.moveaxis(by_bin, -1, 0), self.bin_cost, self.bin_age):
            cost += count * bin_cost
            age += count * bin_age
        return cost, age, by_bin[..., -1]


def _policy_chains(policies: Sequence[PolicyGrid], m: HarqModel, sk: SteadyKalman, initial_q: int):
    """The MSE decision model's chains under a stack of policies, the start state (0, initial_q)
    and the model."""
    if not policies:
        raise ValueError("no policies to simulate")
    q_max = policies[0].q_max
    if any(policy.q_max != q_max for policy in policies):
        raise ValueError("the policies' grids have different q_max: "
                         f"{[policy.q_max for policy in policies]}")
    if initial_q > q_max:
        raise ValueError(f"initial_q={initial_q} outside the grid's q range 0..{q_max}")
    mdp = build_mdp(sk, m, q_max, "mse")
    actions = np.stack([policy.actions[mdp.r, mdp.q] for policy in policies])
    return _ChainTables.build(mdp, actions), state_index(0, initial_q), mdp


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
    built directly at that counter). The caller fills one array per
    segment, run by run in run order, so run i's draws are rows
    i % CHUNK_RUNS of its chunk's arrays and depend only on the seed, i and
    the row shapes, never on runs. Yields (start, stop, generators), one
    generator per segment, a chunk at a time: each child is spawned as it
    is reached, the c-th spawn being the c-th child.
    """
    parent = np.random.SeedSequence(seed)
    for start in range(0, runs, CHUNK_RUNS):
        child, = parent.spawn(1)
        # keyed by child.generate_state(2, uint64); a key= argument would also seed a
        # throwaway SeedSequence from OS entropy
        yield (start, min(start + CHUNK_RUNS, runs),
               [np.random.Generator(np.random.Philox(child, counter=j << 128)) for j in range(parts)])


def _chain_reports(policies: Sequence[PolicyGrid], m: HarqModel, sk: SteadyKalman,
                   cfg: SimConfig) -> list[SimReport]:
    """simulate_chains without the saturation warnings.

    The horizon is walked in windows; within a window, every chunk of
    CHUNK_RUNS runs draws its uniforms and walks on from where the last
    window left it, so the window's per-step counts are complete after
    the last chunk and are reduced there to each step's cost, age and
    saturation events.
    """
    if cfg.mode != "analytic":
        raise ValueError("the chain simulation requires mode='analytic'")
    tables, initial_state, _ = _policy_chains(policies, m, sk, cfg.initial_q)
    horizon, runs = cfg.horizon, cfg.runs
    # one Philox stream per run, drawn from window by window; a Generator is made at each
    # draw, as keeping one per run would hold about 250 more bytes a run for the whole call
    streams = [np.random.Philox(child) for child in np.random.SeedSequence(cfg.seed).spawn(runs)]
    chunks = [(start, streams[start:start + CHUNK_RUNS],
               tables.start(initial_state, min(CHUNK_RUNS, runs - start)))
              for start in range(0, runs, CHUNK_RUNS)]
    window = tables.window_steps(min(CHUNK_RUNS, runs))  # the first chunk's, the widest
    uniforms = np.empty((min(CHUNK_RUNS, runs), min(window, horizon)))
    run_visits = tables.visits(runs)
    step_mse, step_aoi = np.empty((horizon, tables.n_policies)), np.empty((horizon, tables.n_policies))
    saturated = np.zeros(tables.n_policies, dtype=np.int64)
    diverged = np.zeros(tables.n_policies, dtype=bool)
    for w0 in range(0, horizon, window):
        steps = min(window, horizon - w0)
        step_visits = tables.visits(steps)
        for start, chunk, base in chunks:
            drawn = uniforms[:len(chunk), :steps]
            for row, stream in zip(drawn, chunk):
                np.random.Generator(stream).random(out=row)
            tables.walk_stack(drawn.T, base, step_visits, run_visits[start:start + len(chunk)], diverged)
        step_mse[w0:w0 + steps], step_aoi[w0:w0 + steps], step_saturated = tables.totals(step_visits)
        saturated += step_saturated.sum(axis=0)
    run_mse, run_aoi, _ = tables.totals(run_visits)
    return [SimReport(label=policy.label, mode="analytic", seed=cfg.seed,
                      avg_mse_vs_k=_running_mean(step_mse[:, p], runs),
                      avg_aoi_vs_k=_running_mean(step_aoi[:, p], runs),
                      run_final_mse=run_mse[:, p] / horizon, run_final_aoi=run_aoi[:, p] / horizon,
                      saturation_events=int(saturated[p]))
            for p, policy in enumerate(policies)]


def simulate_chains(policies: Sequence[PolicyGrid], m: HarqModel, sk: SteadyKalman,
                    cfg: SimConfig) -> list[SimReport]:
    """Analytic-mode Monte Carlo of the (r, q) chain under each of several policies.

    The chain is the MSE decision model's (build_mdp at the grids' common
    q_max): per step the accrued MSE is the cost-table entry for the
    current q and the accrued age is q+1; then the policy acts, detection
    is drawn with probability 1 - g(r), and the state advances. q
    saturates at q_max as in the model, with one warning per policy that
    counts the failed steps taken there. Every policy walks the same
    uniforms (common random numbers), drawn once, so the differences
    between policies are paired run by run. Policies share lanes: a
    policy whose runs start where its leader's do (the earlier policy
    whose steps differ from its own at the fewest states, ties to the
    earliest), and whose leader's path over a chunk's window reaches no
    state where the two step differently, walks that path too, so its
    integer visit counts there are copied from its leader's. Each report
    is therefore bit-identical to a one-policy call. On compare's default
    zoo, myopic and ARQ are copied in most windows; a policy that leaves
    its leader's path in every window is walked beside it, at about the
    cost of walking every policy (README). Returns one SimReport per grid,
    in order. An empty sequence, grids with different q_max, a cost table
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
    q+1 steps old. The (r, q) chain is the decision model's: the chain
    walk moves it, counts its visits, and yields its edges block by block.

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

    The runs are simulated one group of GROUP_CHUNKS chunks at a time,
    each over the whole horizon: the group's chunks draw from their
    streams, the walk moves the group's lanes, adding their visits into
    the call's per-step counts and the group's per-run counts, and the
    errors step the group's runs. A call holds one group's draws and ring,
    about (group runs) x (horizon x (n + m + 1) + (q_max + 1) x n) x 8
    bytes, whatever the number of runs. Every per-run quantity is stored
    component-major, (n, group runs). Each step's squared errors are
    summed per chunk, and each run's error outer products in time order
    and then per chunk; the chunks' sums are added in chunk order, so
    avg_mse_vs_k and empirical_error_cov depend on CHUNK_RUNS but not on
    the group or walk sizes.
    """
    if cfg.mode != "trajectory":
        raise ValueError("simulate_trajectory requires mode='trajectory'")
    if cfg.initial_q != 0:
        raise ValueError("trajectory mode starts from a just-delivered estimate (initial_q=0)")
    horizon, runs, n = cfg.horizon, cfg.runs, sys.n
    tables, initial_state, mdp = _policy_chains([policy], m, sk, cfg.initial_q)
    oldest = policy.q_max + 1  # the saturated age

    a = sys.A
    l0, lq, lr = (_psd_factor(cov) for cov in (sk.p_bar0, sys.Q, sys.R))
    # es_k = (I - KC) E(k, 1) - K v_k, one product with E(k, 1) stacked on zv_k
    filter_step = np.hstack([np.eye(n) - sk.gain @ sys.C, -sk.gain @ lr])
    # what the state of each edge tells the errors: r = 0 restarts the packet's
    # error, q = r hands it to the receiver, and q_max saturates either age (r <= q)
    restarts, delivered, r_oldest, q_oldest = (
        np.repeat(flags, 2)
        for flags in (mdp.r == 0, mdp.q == mdp.r, mdp.r == mdp.q_max, mdp.q == mdp.q_max))

    step_emp = np.zeros(horizon)  # summed chunk by chunk, in chunk order
    run_emp, run_ana, run_aoi = np.zeros(runs), np.empty(runs), np.empty(runs)
    err_cov = np.zeros((n, n))
    step_visits = tables.visits(horizon)
    chunks = _chunk_streams(cfg.seed, runs, 4)
    while group := list(itertools.islice(chunks, GROUP_CHUNKS)):
        begin, end = group[0][0], group[-1][1]
        width = end - begin
        at_chunk = np.arange(0, width, CHUNK_RUNS)  # each chunk's first column
        # the group's draws, component-major: step k's standard normals are zw[k - 1] and zv[k - 1];
        # kept in the walk's buffers, so every group after the first reuses the first one's pages
        es_ring = tables._buffer("es_ring", (oldest, n, width), float)  # es_j in slot j % oldest; es_0 = x_0
        zw = tables._buffer("zw", (horizon, n, width), float)
        zv = tables._buffer("zv", (horizon, sys.m, width), float)
        uniforms = tables._buffer("draws", (horizon, width), float)
        for start, stop, (g0, gw, gv, gu) in group:
            rows, at = stop - start, slice(start - begin, stop - begin)
            es_ring[0, :, at] = l0 @ g0.standard_normal((rows, n)).T
            zw[..., at] = gw.standard_normal((rows, horizon, n)).transpose(1, 2, 0)
            zv[..., at] = gv.standard_normal((rows, horizon, sys.m)).transpose(1, 2, 0)
            uniforms[:, at] = gu.random((rows, horizon)).T

        noise = np.empty((n, width))  # w_k
        filter_in = np.empty((n + sys.m, width))
        fresh = filter_in[:n]  # E(k, 1)
        packet = np.zeros((n, width))  # both become E(1, 1) at step 1: the start state has r = q = 0
        error = np.zeros((n, width))  # the receiver's
        aged = np.empty((n, width))
        sq = np.empty(width)
        outer = np.empty((n, n, width))
        run_cov = np.zeros((n, n, width))  # per run, the error outer products summed in time order
        chunk_emp = np.empty((horizon, len(at_chunk)))  # per step, each chunk's squared errors summed
        group_emp, group_visits = run_emp[begin:end], tables.visits(width)
        walk = tables.walk(uniforms, tables.start(initial_state, width), step_visits, group_visits)
        for b0, steps, edges in walk:
            in_time_order = itertools.chain.from_iterable(edges.transpose(1, 0, 2))
            for k, edge in enumerate(itertools.islice(in_time_order, steps), b0 + 1):
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
                np.multiply(error[:, None], error, out=outer)
                run_cov += outer
                np.add.reduceat(sq, at_chunk, out=chunk_emp[k - 1])
                group_emp += sq
        # chunk sums added in chunk order, so no sum depends on how the chunks are grouped
        for chunk_sums in chunk_emp.T:
            step_emp += chunk_sums
        for chunk_cov in np.moveaxis(np.add.reduceat(run_cov, at_chunk, axis=-1), -1, 0):
            err_cov += chunk_cov
        group_ana, group_aoi, _ = tables.totals(group_visits)
        run_ana[begin:end], run_aoi[begin:end] = group_ana[:, 0], group_aoi[:, 0]

    step_ana, step_aoi, step_saturated = tables.totals(step_visits)
    report = TrajectoryReport(
        label=policy.label, mode="trajectory", seed=cfg.seed,
        avg_mse_vs_k=_running_mean(step_emp, runs), avg_aoi_vs_k=_running_mean(step_aoi[:, 0], runs),
        run_final_mse=run_emp / horizon, run_final_aoi=run_aoi / horizon,
        saturation_events=int(step_saturated.sum()),
        analytic_avg_mse_vs_k=_running_mean(step_ana[:, 0], runs),
        run_final_analytic_mse=run_ana / horizon,
        empirical_error_cov=err_cov / (runs * horizon),
    )
    _warn_saturation([report], policy.q_max)
    return report


def write_report_csv(report: SimReport, path):
    """Plot-ready per-step running averages, one row per time step."""
    rows = zip(range(1, report.horizon + 1), report.avg_mse_vs_k.tolist(), report.avg_aoi_vs_k.tolist())
    with open(path, "w", newline="") as fh:  # the lines and CRLF endings of csv.writer
        fh.writelines(["k,avg_mse,avg_aoi\r\n", *(f"{k},{mse:.6g},{aoi:.6g}\r\n" for k, mse, aoi in rows)])


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
