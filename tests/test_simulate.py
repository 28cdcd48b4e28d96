import json
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from remest import (
    HarqModel,
    LtiSystem,
    PolicyGrid,
    SimConfig,
    arq_baseline_policy,
    build_mdp,
    evaluate_policy,
    myopic_policy,
    psi_policy,
    riccati_steady_state,
    simulate_chain,
    simulate_chains,
    simulate_trajectory,
    solve,
)
from remest.simulate import (
    BLOCK_ELEMENTS,
    CHUNK_RUNS,
    GROUP_CHUNKS,
    LANES,
    _ChainTables,
    _policy_chains,
    _psd_factor,
    write_report_csv,
    write_report_json,
)
from remest.policies import state_index

Q_MAX = 20


def _bin_dot(counts, values):
    """counts times values, summed in bin order from zero, as the simulators sum them."""
    return sum(float(count) * value for count, value in zip(counts, values))


def _bin_values(table, q_max):
    """Each bin's cost and age q + 1; bin q_max + 1 is a step at q = q_max."""
    return list(table[:q_max + 1]) + [table[q_max]], [min(b, q_max) + 1 for b in range(q_max + 2)]


def reference_chain(policy, model, sk, cfg):
    """Slow dictionary-based reference simulator, used as an exact oracle.

    Consumes the same per-run uniform streams as simulate_chain, saturates
    r and q at the grid's q_max as the decision model does, and counts each
    step's visit per bin: bin q, or bin q_max + 1 for a failed step taken
    at q = q_max (a saturation event). The counts, per step over runs and
    per run over steps, times the bins' costs and ages q + 1 summed in bin
    order give the floats. It additionally asserts r <= q at every step.
    """
    q_max = policy.q_max
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.runs)
    step_visits = np.zeros((cfg.horizon, q_max + 2), dtype=np.int64)
    run_visits = np.zeros((cfg.runs, q_max + 2), dtype=np.int64)
    for i in range(cfg.runs):
        u = np.random.Generator(np.random.Philox(children[i])).random(cfg.horizon)
        r, q = 0, cfg.initial_q
        for k in range(cfg.horizon):
            assert r <= q
            r = 0 if policy.actions[r, q] == 0 else min(r + 1, q_max)
            failed = u[k] < model.failure_prob_clamped(r)
            b = q_max + 1 if failed and q == q_max else q
            q = min(q + 1, q_max) if failed else r
            step_visits[k, b] += 1
            run_visits[i, b] += 1
    cost, age = _bin_values(list(sk.cost_table), q_max)
    steps = np.arange(1, cfg.horizon + 1)
    step_mse = np.array([_bin_dot(row, cost) for row in step_visits])
    step_aoi = np.array([_bin_dot(row, age) for row in step_visits])
    return (np.cumsum(step_mse / cfg.runs) / steps,
            np.cumsum(step_aoi / cfg.runs) / steps,
            np.array([_bin_dot(row, cost) for row in run_visits]) / cfg.horizon,
            np.array([_bin_dot(row, age) for row in run_visits]) / cfg.horizon,
            int(step_visits[:, q_max + 1].sum()))


def _trajectory_draws(seed, run, horizon, n, m_dim):
    """Run `run`'s trajectory-mode draws, rebuilt from its chunk's stream at the documented offsets.

    Chunk c = run // CHUNK_RUNS is keyed by the c-th child of
    SeedSequence(seed). z0, zw, zv and the uniforms fill segments 0 to 3
    of its counter space, segment j from counter j * 2**128, run by run
    in run order, so the run's rows are the last of the first
    run % CHUNK_RUNS + 1 rows of each segment.
    """
    c, row = divmod(run, CHUNK_RUNS)
    key = np.random.SeedSequence(seed).spawn(c + 1)[c].generate_state(2, np.uint64)

    def segment(j):
        return np.random.Generator(np.random.Philox(key=key, counter=j << 128))

    return (segment(0).standard_normal((row + 1, n))[row],
            segment(1).standard_normal((row + 1, horizon, n))[row],
            segment(2).standard_normal((row + 1, horizon, m_dim))[row],
            segment(3).random((row + 1, horizon))[row])


def reference_trajectory(policy, system, model, sk, cfg, coordinates="state"):
    """Slow per-run reference for simulate_trajectory, used as an exact oracle.

    Steps one run at a time on its rebuilt draws: the converged-gain
    sensor filter, the receiver's prediction from the estimate generated
    q + 1 steps ago, and the (r, q) chain with the rules of
    reference_chain, whose visit counts give the analytic MSE and the AoI
    as they do there. The empirical squared errors are summed per step over
    all runs with one numpy sum, where the simulator sums each chunk's runs
    and adds the chunks' sums in chunk order, so the two agree to rounding,
    not bit for bit; per run they are summed over time in order, as the
    simulator sums them. Returns the report's fields by name, and
    the number of steps taken at r = q_max.

    coordinates="state" steps the process x and the sensor's estimates xs
    and forms the receiver's error as x_k - A^d xs_(k-d), with d = q + 1.
    As x grows with an expansive process, that difference loses precision
    (about 1e-14 relative at 10 steps of the test process, 1e-6 at 40).
    coordinates="error" steps only the sensor error es and forms the
    receiver's error as A^d es_(k-d) + sum_(j<d) A^j w_(k-j), one vector
    per lag, which keeps full precision at any horizon.
    """
    table = list(sk.cost_table)
    q_max = policy.q_max
    a, c, gain = system.A, system.C, sk.gain
    a_pow = [np.linalg.matrix_power(a, d) for d in range(q_max + 2)]
    l0, lq, lr = (_psd_factor(cov) for cov in (sk.p_bar0, system.Q, system.R))
    horizon, runs = cfg.horizon, cfg.runs
    step_emp = np.zeros((horizon, runs))
    run_emp = np.zeros(runs)
    step_visits = np.zeros((horizon, q_max + 2), dtype=np.int64)
    run_visits = np.zeros((runs, q_max + 2), dtype=np.int64)
    err_cov = np.zeros((system.n, system.n))
    r_at_q_max = 0
    for i in range(runs):
        z0, zw, zv, u = _trajectory_draws(cfg.seed, i, horizon, system.n, system.m)
        x = l0 @ z0
        estimates = [np.zeros(system.n)]  # the sensor's estimate after each step
        sensor_errors = [x]  # es_0 = x_0, as the estimate starts at zero
        noise = [None]  # w_k at index k
        r, q = 0, 0
        for k in range(1, horizon + 1):
            age = q + 1
            if coordinates == "state":
                x = a @ x + lq @ zw[k - 1]
                y = c @ x + lr @ zv[k - 1]
                pred = a @ estimates[-1]
                estimates.append(pred + gain @ (y - c @ pred))
                xhat = estimates[k - age]
                for _ in range(age):
                    xhat = a @ xhat
                err = x - xhat
            else:
                noise.append(lq @ zw[k - 1])
                predicted = a @ sensor_errors[-1] + noise[k]
                sensor_errors.append(predicted - gain @ (c @ predicted + lr @ zv[k - 1]))
                err = a_pow[age] @ sensor_errors[k - age]
                for j in range(age):
                    err = err + a_pow[j] @ noise[k - j]
            err_cov += np.outer(err, err)
            step_emp[k - 1, i] = err @ err
            run_emp[i] += step_emp[k - 1, i]
            r_at_q_max += r == q_max
            r = 0 if policy.actions[r, q] == 0 else min(r + 1, q_max)
            failed = u[k - 1] < model.failure_prob_clamped(r)
            b = q_max + 1 if failed and q == q_max else q
            q = min(q + 1, q_max) if failed else r
            step_visits[k - 1, b] += 1
            run_visits[i, b] += 1
    cost, ages = _bin_values(table, q_max)
    steps = np.arange(1, horizon + 1)

    def running_mean(per_step):
        return np.cumsum(np.array(per_step) / runs) / steps

    return {
        "avg_mse_vs_k": running_mean([row.sum() for row in step_emp]),
        "analytic_avg_mse_vs_k": running_mean([_bin_dot(row, cost) for row in step_visits]),
        "avg_aoi_vs_k": running_mean([_bin_dot(row, ages) for row in step_visits]),
        "run_final_mse": run_emp / horizon,
        "run_final_analytic_mse": np.array([_bin_dot(row, cost) for row in run_visits]) / horizon,
        "run_final_aoi": np.array([_bin_dot(row, ages) for row in run_visits]) / horizon,
        "empirical_error_cov": err_cov / (runs * horizon),
        "saturation_events": int(step_visits[:, q_max + 1].sum()),
        "r_at_q_max": r_at_q_max,
    }


def _short_table(system):
    return riccati_steady_state(system, q_max=2)


def _cycle_policy():
    """Retransmit everywhere but the corner: on a channel that never fails, the chain cycles
    (0, 0), (1, 1), ..., (Q_MAX, Q_MAX), so two copies of it in different states never meet."""
    actions = np.ones((Q_MAX + 1, Q_MAX + 1))
    actions[Q_MAX, Q_MAX] = 0
    return PolicyGrid(Q_MAX, actions, label="cycle")


def _tables(stack, model, sk):
    """The chain walk's tables for a stack of grids, which fix its block, segment and window lengths."""
    return _policy_chains(stack, model, sk, 0)[0]


def _table_channel_case(sk):
    """psi on the table channel over two blocks, whose last segments are padded, and one step."""
    model = HarqModel.from_table([0.2, 0.1, 0.05, 0.025])
    horizon = 2 * _tables([psi_policy(Q_MAX)], model, sk).block_steps(5) + 1
    return psi_policy(Q_MAX), model, sk, SimConfig(horizon=horizon, runs=5, seed=43)


# name -> (policy, channel, cost table, config) built from the session fixtures
EXACT_CASES = {
    "baseline": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk, SimConfig(horizon=80, runs=7, seed=123)),
    "runs_past_chunk": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk, SimConfig(horizon=40, runs=300, seed=11)),
    "single_run": lambda system, sk, channel: (
        arq_baseline_policy(Q_MAX), channel, sk, SimConfig(horizon=90, runs=1, seed=12)),
    # two blocks, whose last segments are padded, and one step of a third
    "partial_time_block": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk,
        SimConfig(horizon=2 * _tables([psi_policy(Q_MAX)], channel, sk).block_steps(9) + 1,
                  runs=9, seed=13)),
    "initial_q": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk, SimConfig(horizon=70, runs=11, seed=14, initial_q=6)),
    # r passes the table's r_cap = 3 at four steps of this seed
    "r_past_r_cap": lambda system, sk, channel: (
        psi_policy(Q_MAX), HarqModel.from_table([0.2, 0.1, 0.05, 0.025]), sk,
        SimConfig(horizon=5000, runs=8, seed=17)),
    "q_at_q_max": lambda system, sk, channel: (
        psi_policy(2), HarqModel(0.1, 1.0, r_cap=2), _short_table(system),
        SimConfig(horizon=150, runs=10, seed=16)),
    # past one block, and not a whole number of segments
    "arq_past_block": lambda system, sk, channel: (
        arq_baseline_policy(Q_MAX), channel, sk,
        SimConfig(horizon=_tables([arq_baseline_policy(Q_MAX)], channel, sk).block_steps(3) + 13,
                  runs=3, seed=41)),
    # one segment of one step
    "horizon_1": lambda system, sk, channel: (
        arq_baseline_policy(Q_MAX), channel, sk, SimConfig(horizon=1, runs=4, seed=42)),
    "table_channel": lambda system, sk, channel: _table_channel_case(sk),
    # a full chunk, 16 segments side by side, whose second window of uniforms starts mid-run
    "window_boundary": lambda system, sk, channel: (
        arq_baseline_policy(Q_MAX), channel, sk,
        SimConfig(horizon=_tables([arq_baseline_policy(Q_MAX)], channel, sk).window_steps(CHUNK_RUNS)
                  + 100, runs=CHUNK_RUNS, seed=44)),
    # half a chunk, 32 segments side by side, whose second window starts mid-run
    "window_boundary_jump": lambda system, sk, channel: (
        arq_baseline_policy(Q_MAX), channel, sk,
        SimConfig(horizon=_tables([arq_baseline_policy(Q_MAX)], channel, sk).window_steps(64)
                  + 100, runs=64, seed=45)),
    # three segments, the last padded past the horizon
    "padded_last_segment": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk,
        SimConfig(horizon=2 * _tables([psi_policy(Q_MAX)], channel, sk).segment_steps(7) + 7,
                  runs=7, seed=46)),
    # the first segment starts at (0, 9) and every other at (0, 0), past a block
    "initial_q_past_block": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk,
        SimConfig(horizon=_tables([psi_policy(Q_MAX)], channel, sk).block_steps(4) + 50, runs=4,
                  seed=47, initial_q=9)),
    # copies of this chain never meet, so every block is walked again as one segment
    "never_merging_cycle": lambda system, sk, channel: (
        _cycle_policy(), HarqModel.from_table([0.0, 0.0]), sk, SimConfig(horizon=2000, runs=3, seed=48)),
}


# name -> (policy, channel, cost table, config) for the trajectory oracle in state coordinates.
# Ten steps keep the raw state of this expansive process near 1e3, where the oracle's receiver
# error x - xhat holds ~1e-14 relative precision; at 40 steps the state nears 1e10 and that falls
# to ~1e-6, so the oracle could no longer agree with the simulator, which never forms x, to 1e-12.
TRAJECTORY_CASES = {
    "single_run": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk, SimConfig(horizon=10, runs=1, seed=31, mode="trajectory")),
    "chunk_boundary": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk,
        SimConfig(horizon=10, runs=CHUNK_RUNS + 1, seed=32, mode="trajectory")),
    "runs_past_chunk": lambda system, sk, channel: (
        arq_baseline_policy(Q_MAX), channel, sk,
        SimConfig(horizon=10, runs=300, seed=33, mode="trajectory")),
    # q reaches q_max = 2 and saturates there, where the receiver's error has the oldest age
    "q_at_q_max": lambda system, sk, channel: (
        arq_baseline_policy(2), HarqModel(0.1, 1.0, r_cap=2), _short_table(system),
        SimConfig(horizon=10, runs=50, seed=34, mode="trajectory")),
}


# name -> (policy, channel, cost table, config) for the trajectory oracle in error coordinates,
# which keeps full precision at any horizon, and the chain events each case must contain
LONG_TRAJECTORY_CASES = {
    "arq": lambda system, sk, channel: (
        arq_baseline_policy(Q_MAX), channel, sk,
        SimConfig(horizon=300, runs=20, seed=35, mode="trajectory")),
    # ten segments side by side, stitched before the errors read the edges in time order
    "psi": lambda system, sk, channel: (
        psi_policy(Q_MAX), channel, sk,
        SimConfig(horizon=300, runs=65, seed=36, mode="trajectory")),
    "arq_q_at_q_max": lambda system, sk, channel: (
        arq_baseline_policy(2), HarqModel(0.1, 1.0, r_cap=2), _short_table(system),
        SimConfig(horizon=300, runs=12, seed=37, mode="trajectory")),
    # r reaches q_max, so the in-flight packet's error has the oldest age
    "psi_r_at_q_max": lambda system, sk, channel: (
        psi_policy(2), HarqModel(0.1, 1.0, r_cap=2), _short_table(system),
        SimConfig(horizon=300, runs=12, seed=38, mode="trajectory")),
    # r and q stay at q_max from step 3 on: a packet retransmitted there keeps the oldest age
    "retransmit_at_q_max": lambda system, sk, channel: (
        PolicyGrid(2, np.ones((3, 3)), label="retransmit"), HarqModel(0.1, 1.0, r_cap=2),
        _short_table(system), SimConfig(horizon=300, runs=12, seed=39, mode="trajectory")),
}


def _table_stack(sk, q_max=Q_MAX, model=None):
    """ARQ, psi and the solved optimal policy; ARQ's failure levels are a strict subset of psi's."""
    model = model or HarqModel.from_table([0.2, 0.1, 0.05, 0.025])
    optimal = solve(build_mdp(sk, model, q_max, "mse")).policy.relabeled("optimal")
    return [arq_baseline_policy(q_max), psi_policy(q_max), optimal], model


def _compare_zoo(sk, channel):
    """The five policies `remest compare` stacks, in its order."""
    optimal, delay = (solve(build_mdp(sk, channel, Q_MAX, cost)).policy.relabeled(label)
                      for cost, label in (("mse", "optimal"), ("delay", "delay")))
    return [optimal, myopic_policy(sk, channel, Q_MAX), delay,
            arq_baseline_policy(Q_MAX), psi_policy(Q_MAX)], channel


# name -> (stack, channel, cost table, config), the EXACT_CASES shapes walked as one stack
STACK_CASES = {
    "table_channel": lambda system, sk, channel: (
        *_table_stack(sk), sk, SimConfig(horizon=400, runs=9, seed=21)),
    "runs_past_chunk": lambda system, sk, channel: (
        *_table_stack(sk), sk, SimConfig(horizon=40, runs=300, seed=11)),
    # two blocks, whose last segments are padded, and one step of a third
    "partial_time_block": lambda system, sk, channel: (
        *_table_stack(sk), sk,
        SimConfig(horizon=2 * _tables(*_table_stack(sk), sk).block_steps(9) + 1, runs=9, seed=13)),
    "initial_q": lambda system, sk, channel: (
        *_table_stack(sk), sk, SimConfig(horizon=70, runs=11, seed=14, initial_q=6)),
    "q_at_q_max": lambda system, sk, channel: (
        *_table_stack(_short_table(system), 2, HarqModel(0.1, 1.0, r_cap=2)), _short_table(system),
        SimConfig(horizon=150, runs=10, seed=16)),
    # compare's walk: full chunks of three segments per block, past a chunk, ending mid-block
    "compare_zoo": lambda system, sk, channel: (
        *_compare_zoo(sk, channel), sk,
        SimConfig(horizon=_tables(*_compare_zoo(sk, channel), sk).block_steps(CHUNK_RUNS) + 30,
                  runs=CHUNK_RUNS + 2, seed=17)),
    # a few runs of the zoo: 61 segments side by side
    "zoo_few_runs": lambda system, sk, channel: (
        *_compare_zoo(sk, channel), sk, SimConfig(horizon=2000, runs=3, seed=18)),
}


def _flipped(grid, r, q):
    """grid with its action at (r, q) turned the other way."""
    actions = grid.actions.copy()
    actions[r, q] = 1 - actions[r, q]
    return PolicyGrid(grid.q_max, actions, label=f"{grid.label} flipped at ({r}, {q})")


def _optimal(sk, channel):
    return solve(build_mdp(sk, channel, Q_MAX, "mse")).policy.relabeled("optimal")


def _leader_chain(sk, channel):
    """Delay, ARQ and ARQ flipped at (0, 5): ARQ's leader is delay, and the third grid's is ARQ."""
    arq = arq_baseline_policy(Q_MAX)
    return [solve(build_mdp(sk, channel, Q_MAX, "delay")).policy.relabeled("delay"), arq, _flipped(arq, 0, 5)]


# name -> (stack, config, BLOCK_ELEMENTS, shared): shared(copied, calls) holds when policy p's
# counts were copied from another's in copied[p] of the walk's calls (chunk-windows)
SHARED_CASES = {
    # optimal's path reaches (0, 1) in every chunk-window
    "diverges_often": lambda sk, channel: (
        [_optimal(sk, channel), _flipped(_optimal(sk, channel), 0, 1)],
        SimConfig(horizon=600, runs=20, seed=61), 2 ** 12, lambda copied, calls: copied[1] == 0),
    "never_diverges": lambda sk, channel: (
        [psi_policy(Q_MAX), psi_policy(Q_MAX).relabeled("psi again")],
        SimConfig(horizon=600, runs=20, seed=62), 2 ** 12, lambda copied, calls: copied[1] == calls),
    # the third grid is checked on delay's lanes while ARQ follows delay
    "chained_leaders": lambda sk, channel: (
        _leader_chain(sk, channel), SimConfig(horizon=600, runs=20, seed=63), 2 ** 12,
        lambda copied, calls: copied[1] == calls and 0 < copied[2] < calls),
    # the follower leaves optimal's path in the first chunk's first window only: copied counts
    # meet walked ones across a chunk and a window boundary
    "window_and_chunk_boundary": lambda sk, channel: (
        [_optimal(sk, channel), _flipped(_optimal(sk, channel), 0, 4)],
        SimConfig(horizon=_tables([_optimal(sk, channel)] * 2, channel, sk).window_steps(CHUNK_RUNS) + 40,
                  runs=CHUNK_RUNS + 5, seed=64), BLOCK_ELEMENTS, lambda copied, calls: 0 < copied[1] < calls),
    # delay and ARQ differ at q >= 9, so ARQ leaves delay's path at once, and the third grid with it
    "initial_q": lambda sk, channel: (
        _leader_chain(sk, channel), SimConfig(horizon=600, runs=20, seed=63, initial_q=9), 2 ** 12,
        lambda copied, calls: 0 < copied[1] < calls and 0 < copied[2] < calls),
}


def _record_walks(monkeypatch):
    """Per walk_stack call, the set of policies of each walk it made."""
    calls = []
    walk, walk_stack = _ChainTables.walk, _ChainTables.walk_stack

    def recorded_walk(self, uniforms, base, *args):
        calls[-1].append(set((base // (2 * self.n_states)).tolist()))
        return walk(self, uniforms, base, *args)

    def recorded_walk_stack(self, *args):
        calls.append([])
        return walk_stack(self, *args)

    monkeypatch.setattr(_ChainTables, "walk", recorded_walk)
    monkeypatch.setattr(_ChainTables, "walk_stack", recorded_walk_stack)
    return calls


def _same_report(a, b):
    return (a.label == b.label
            and np.array_equal(a.avg_mse_vs_k, b.avg_mse_vs_k)
            and np.array_equal(a.avg_aoi_vs_k, b.avg_aoi_vs_k)
            and np.array_equal(a.run_final_mse, b.run_final_mse)
            and np.array_equal(a.run_final_aoi, b.run_final_aoi)
            and a.saturation_events == b.saturation_events)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(horizon=0, runs=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1, runs=0, seed=0)
        with pytest.raises(ValueError):
            SimConfig(horizon=1, runs=1, seed=0, mode="magic")
        with pytest.raises(ValueError):
            SimConfig(horizon=1, runs=1, seed=0, initial_q=-1)
        with pytest.raises(ValueError, match="seed"):
            SimConfig(horizon=1, runs=1, seed=-1)
        # the first bad field is named, before any range check reads it
        with pytest.raises(ValueError, match="horizon must be an integer, got True"):
            SimConfig(horizon=True, runs=2.5, seed=0)

    @pytest.mark.parametrize("name, value", [
        ("horizon", True), ("runs", 2.5), ("seed", 3.0), ("initial_q", "1"), ("runs", np.float64(4)),
        ("seed", None)])
    def test_integer_fields_reject_other_types(self, name, value):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            SimConfig(**{"horizon": 1, "runs": 1, "seed": 0, name: value})

    def test_numpy_integers_accepted_as_ints(self):
        cfg = SimConfig(horizon=np.int64(5), runs=np.int32(2), seed=np.uint64(3), initial_q=np.int8(1))
        values = (cfg.horizon, cfg.runs, cfg.seed, cfg.initial_q)
        assert values == (5, 2, 3, 1) and all(type(value) is int for value in values)


class TestChainSim:
    def test_perfect_channel_pins_base_cost(self, sk):
        channel = HarqModel(1.0, 0.5, r_cap=Q_MAX)
        cfg = SimConfig(horizon=300, runs=20, seed=5)
        report = simulate_chain(psi_policy(Q_MAX), channel, sk, cfg)
        base = sk.cost_table[0]
        assert np.abs(report.avg_mse_vs_k - base).max() < 1e-9
        assert report.final_avg_mse == pytest.approx(9.2, abs=0.02)
        assert np.abs(report.avg_aoi_vs_k - 1.0).max() < 1e-12

    @pytest.mark.parametrize("case", list(EXACT_CASES))
    def test_matches_reference_simulator_exactly(self, case, system, sk, channel):
        grid, model, table, cfg = EXACT_CASES[case](system, sk, channel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = simulate_chain(grid, model, table, cfg)
        ref_mse, ref_aoi, ref_run_mse, ref_run_aoi, ref_sat = reference_chain(grid, model, table, cfg)
        assert np.array_equal(report.avg_mse_vs_k, ref_mse)
        assert np.array_equal(report.avg_aoi_vs_k, ref_aoi)
        assert np.array_equal(report.run_final_mse, ref_run_mse)
        assert np.array_equal(report.run_final_aoi, ref_run_aoi)
        assert report.saturation_events == ref_sat

    def test_run_count_invariance(self, sk, channel):
        # 300 runs end in a partial chunk; run i reads its own stream whatever runs is
        grid = psi_policy(Q_MAX)
        few, more = (simulate_chain(grid, channel, sk, SimConfig(horizon=400, runs=runs, seed=23))
                     for runs in (200, 300))
        for name in ("run_final_mse", "run_final_aoi"):
            assert np.array_equal(getattr(few, name), getattr(more, name)[:200]), name

    def test_edge_probabilities(self, sk):
        runs, horizon, q_max = 9, 64, 6
        mdp = build_mdp(sk, HarqModel(0.6, 0.7, r_cap=q_max), q_max)
        actions = np.zeros((1, mdp.n_states), dtype=np.intp)
        start = state_index(0, 0)

        def walk(fail_prob):  # fresh per-run streams for each walk
            tables = _ChainTables.build(replace(mdp, fail_prob=fail_prob), actions)
            step_visits, run_visits = tables.visits(horizon), tables.visits(runs)
            uniforms = np.stack([np.random.default_rng([0, i]).random(horizon) for i in range(runs)], axis=1)
            for _ in tables.walk(uniforms, tables.start(start, runs), step_visits, run_visits):
                pass
            return tables.totals(step_visits), tables.totals(run_visits)

        # g = 0 everywhere: every transmission lands, q tracks r
        (_, _, sat), (run_cost, _, _) = walk(np.zeros_like(mdp.fail_prob))
        assert sat.sum(axis=0).tolist() == [0]
        np.testing.assert_allclose(run_cost[:, 0] / horizon, sk.cost_table[0], rtol=1e-12)
        # g = 1 everywhere: every transmission fails, q climbs and saturates at q_max
        (step_cost, _, sat), _ = walk(np.ones_like(mdp.fail_prob))
        assert sat.sum(axis=0).tolist() == [runs * (horizon - q_max)]
        expected_first = [sk.cost_table[min(k, q_max)] for k in range(horizon)]
        np.testing.assert_allclose(step_cost[:, 0] / runs, expected_first)

    def test_walk_sizes(self, sk, channel):
        # pinned here because the block, segment and window cases above read their horizons from these
        psi, arq = (_tables([grid(Q_MAX)], channel, sk) for grid in (psi_policy, arq_baseline_policy))
        zoo = _tables(*_compare_zoo(sk, channel), sk)
        # BLOCK_ELEMENTS lane-steps a block, cut into about LANES lanes of segments
        assert [psi.block_steps(runs) for runs in (3, 4, 7, 9, 32, CHUNK_RUNS)] == [
            21845, 16384, 9362, 7281, 2048, 512]
        assert [psi.segment_steps(runs) for runs in (3, 7, 32, CHUNK_RUNS)] == [33, 33, 32, 32]
        assert arq.window_steps(64) == 1024 and arq.window_steps(CHUNK_RUNS) == 512
        # the zoo's full chunk is 640 lanes: three 34-step segments a 102-step block
        assert (zoo.block_steps(CHUNK_RUNS), zoo.segment_steps(CHUNK_RUNS)) == (102, 34)
        # a walk of LANES lanes or more, such as simulate-shapes' trajectories, is one segment a block
        assert psi.segment_steps(LANES) == psi.block_steps(LANES) == BLOCK_ELEMENTS // LANES
        assert psi.segment_steps(20000) == psi.block_steps(20000) == 3

    @pytest.mark.parametrize("case", ["cycle", "short_segments"])
    def test_walks_a_block_again_when_its_segments_do_not_meet(self, case, sk, channel, monkeypatch):
        # the cycle's copies never meet; 5-step segments of psi often end before they meet
        if case == "cycle":
            grid, model, cfg = _cycle_policy(), HarqModel.from_table([0.0, 0.0]), \
                SimConfig(horizon=3000, runs=7, seed=48)
        else:
            monkeypatch.setattr("remest.simulate.BLOCK_ELEMENTS", 2 ** 9)
            monkeypatch.setattr("remest.simulate.LANES", 2 ** 7)
            grid, model, cfg = psi_policy(Q_MAX), channel, SimConfig(horizon=3000, runs=7, seed=49)
            assert _tables([grid], model, sk).segment_steps(7) == 5
        stitched = []
        stitch = _ChainTables._stitch
        monkeypatch.setattr(_ChainTables, "_stitch",
                            lambda self, *args: stitched.append(stitch(self, *args)) or stitched[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = simulate_chain(grid, model, sk, cfg)
        assert False in stitched and (True in stitched) == (case == "short_segments")
        ref_mse, ref_aoi, ref_run_mse, ref_run_aoi, ref_sat = reference_chain(grid, model, sk, cfg)
        assert np.array_equal(report.avg_mse_vs_k, ref_mse)
        assert np.array_equal(report.avg_aoi_vs_k, ref_aoi)
        assert np.array_equal(report.run_final_mse, ref_run_mse)
        assert np.array_equal(report.run_final_aoi, ref_run_aoi)
        assert report.saturation_events == ref_sat

    def test_uniforms_drawn_in_windows(self, sk, channel):
        # the chunk's uniforms would take runs * horizon * 8 bytes if drawn at once
        runs, horizon = CHUNK_RUNS, 30_000
        cfg = SimConfig(horizon=horizon, runs=runs, seed=7)
        tracemalloc.start()
        try:
            simulate_chain(psi_policy(Q_MAX), channel, sk, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < runs * horizon * 8 / 4

    @pytest.mark.parametrize("make_policy", [arq_baseline_policy, psi_policy], ids=["arq", "psi"])
    def test_agrees_with_exact_when_q_saturates(self, system, make_policy):
        # lambda = 0.5 puts mass on q = q_max, where the model saturates q
        q_max = 5
        sk_short = riccati_steady_state(system, q_max=q_max)
        model = HarqModel(0.5, 0.5, r_cap=q_max)
        grid = make_policy(q_max)
        exact_mse = evaluate_policy(build_mdp(sk_short, model, q_max, "mse"), grid)
        exact_aoi = evaluate_policy(build_mdp(None, model, q_max, "delay"), grid)
        for seed in range(1, 6):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                report = simulate_chain(grid, model, sk_short,
                                        SimConfig(horizon=4000, runs=256, seed=seed))
            # q <= q_max bounds the cost, so the MSE tail is light here
            for per_run, exact, rel in ((report.run_final_mse, exact_mse, 0.01),
                                        (report.run_final_aoi, exact_aoi, 0.002)):
                se = per_run.std(ddof=1) / np.sqrt(len(per_run))
                assert abs(per_run.mean() - exact) <= 5 * se + rel * exact, seed

    def test_delivery_past_cost_table_rejected(self, system):
        always_retransmit = PolicyGrid(Q_MAX, np.ones((Q_MAX + 1, Q_MAX + 1)))
        cfg = SimConfig(horizon=100, runs=3, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(ValueError, match="cost table"):
                simulate_chain(always_retransmit, HarqModel(0.9, 1.0, r_cap=2),
                               _short_table(system), cfg)

    def test_initial_q_past_q_max_rejected(self, sk, channel):
        cfg = SimConfig(horizon=5, runs=3, seed=9, initial_q=Q_MAX + 1)
        with pytest.raises(ValueError, match="initial_q"):
            simulate_chain(arq_baseline_policy(Q_MAX), channel, sk, cfg)

    def test_custom_initial_q(self, sk, channel):
        cfg = SimConfig(horizon=5, runs=3, seed=9, initial_q=4)
        report = simulate_chain(arq_baseline_policy(Q_MAX), channel, sk, cfg)
        # first step accrues the staleness cost of q = 4
        assert report.avg_mse_vs_k[0] == pytest.approx(sk.cost_table[4])
        assert report.avg_aoi_vs_k[0] == pytest.approx(5.0)

    def test_determinism(self, sk, channel):
        cfg = SimConfig(horizon=200, runs=40, seed=77)
        grid = arq_baseline_policy(Q_MAX)
        r1 = simulate_chain(grid, channel, sk, cfg)
        r2 = simulate_chain(grid, channel, sk, cfg)
        assert np.array_equal(r1.avg_mse_vs_k, r2.avg_mse_vs_k)
        assert np.array_equal(r1.run_final_mse, r2.run_final_mse)

    def test_mse_floor(self, sk, channel):
        cfg = SimConfig(horizon=500, runs=50, seed=3)
        for grid in (arq_baseline_policy(Q_MAX), psi_policy(Q_MAX)):
            report = simulate_chain(grid, channel, sk, cfg)
            assert report.final_avg_mse >= sk.cost_table[0] - 1e-12
            assert np.all(report.avg_mse_vs_k >= sk.cost_table[0] - 1e-12)

    def test_saturation_warns(self, system):
        sk_small = riccati_steady_state(system, q_max=2)
        channel = HarqModel(0.1, 1.0, r_cap=2)
        cfg = SimConfig(horizon=300, runs=10, seed=1)
        with pytest.warns(RuntimeWarning, match="saturated"):
            report = simulate_chain(arq_baseline_policy(2), channel, sk_small, cfg)
        assert report.saturation_events > 0

    def test_mode_checked(self, sk, channel):
        cfg = SimConfig(horizon=10, runs=2, seed=0, mode="trajectory")
        with pytest.raises(ValueError):
            simulate_chain(arq_baseline_policy(Q_MAX), channel, sk, cfg)

    def test_ci_halfwidth(self, sk, channel):
        cfg = SimConfig(horizon=100, runs=200, seed=8)
        report = simulate_chain(arq_baseline_policy(Q_MAX), channel, sk, cfg)
        expected = 1.96 * report.run_final_mse.std(ddof=1) / np.sqrt(200)
        assert report.mse_ci95 == pytest.approx(expected)


class TestStackedChains:
    @pytest.mark.parametrize("case", list(STACK_CASES))
    def test_every_policy_matches_reference_simulator_exactly(self, case, system, sk, channel):
        stack, model, table, cfg = STACK_CASES[case](system, sk, channel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reports = simulate_chains(stack, model, table, cfg)
        assert [r.label for r in reports] == [g.label for g in stack]
        for grid, report in zip(stack, reports):
            ref_mse, ref_aoi, ref_run_mse, ref_run_aoi, ref_sat = reference_chain(grid, model, table, cfg)
            assert np.array_equal(report.avg_mse_vs_k, ref_mse), grid.label
            assert np.array_equal(report.avg_aoi_vs_k, ref_aoi), grid.label
            assert np.array_equal(report.run_final_mse, ref_run_mse), grid.label
            assert np.array_equal(report.run_final_aoi, ref_run_aoi), grid.label
            assert report.saturation_events == ref_sat, grid.label

    def test_edge_table_matches_build_mdp(self, sk):
        # edge 2 * s + failed of policy p's copy of state s steps within the copy, as the model does
        stack, model = _table_stack(sk)
        mdp = build_mdp(sk, model, Q_MAX)
        actions = np.stack([g.actions[mdp.r, mdp.q] for g in stack])
        tables = _ChainTables.build(mdp, actions)
        states, n_bins = mdp.n_states, Q_MAX + 2
        assert len(tables.next_base) == len(tables.bins) == len(tables.fail_prob) == 2 * len(stack) * states
        for p, row in enumerate(actions):
            for s, action in enumerate(row):
                for failed, target in enumerate((mdp.succ_idx[action, s], mdp.fail_idx[action, s])):
                    edge = 2 * (p * states + s) + failed
                    assert tables.fail_prob[edge] == mdp.fail_prob[action, s]
                    assert tables.next_base[edge] == 2 * (p * states + target)
                    saturated = failed and mdp.q[s] == Q_MAX
                    assert tables.bins[edge] == p * n_bins + (Q_MAX + 1 if saturated else mdp.q[s])
        # the stack's policies step differently, so the stacked cases test more than one table
        by_policy = tables.fail_prob.reshape(len(stack), -1)
        assert all(not np.array_equal(by_policy[0], other) for other in by_policy[1:])

    def test_stack_levels_differ(self, sk):
        # the stack only tests several policies' failure levels if its policies' own levels differ
        stack, model = _table_stack(sk)
        mdp = build_mdp(sk, model, Q_MAX)
        actions = np.stack([g.actions[mdp.r, mdp.q] for g in stack])
        stacked = _ChainTables.build(mdp, actions)
        own = [_ChainTables.build(mdp, row[None]) for row in actions]
        # policy p's block of the stacked table is its own one-policy table
        for tables, block in zip(own, stacked.fail_prob.reshape(len(stack), -1)):
            assert np.array_equal(tables.fail_prob, block)
        levels = [set(tables.fail_prob) for tables in own]
        assert set(stacked.fail_prob) == set.union(*levels)
        assert any(policy_levels != set(stacked.fail_prob) for policy_levels in levels)

    def test_one_policy_stack_is_simulate_chain(self, sk):
        stack, model = _table_stack(sk)
        cfg = SimConfig(horizon=90, runs=5, seed=3)
        for grid in stack:
            assert _same_report(simulate_chains([grid], model, sk, cfg)[0],
                                simulate_chain(grid, model, sk, cfg))

    def test_order_and_labels_kept(self, sk):
        stack, model = _table_stack(sk)
        stack.append(psi_policy(Q_MAX).relabeled("psi again"))
        cfg = SimConfig(horizon=60, runs=4, seed=8)
        forward = simulate_chains(stack, model, sk, cfg)
        backward = simulate_chains(stack[::-1], model, sk, cfg)
        assert [r.label for r in forward] == ["arq", "psi", "optimal", "psi again"]
        assert all(_same_report(a, b) for a, b in zip(forward, backward[::-1]))
        assert np.array_equal(forward[1].run_final_mse, forward[3].run_final_mse)

    def test_reports_do_not_depend_on_walk_sizes(self, system, sk, monkeypatch):
        # visits are counted as integers, so the block, segment and window lengths move no float
        stack, model = _table_stack(sk)
        chain_cfg = SimConfig(horizon=301, runs=CHUNK_RUNS + 5, seed=51)
        trajectory_cfg = SimConfig(horizon=61, runs=40, seed=52, mode="trajectory")

        def simulate_both():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                return (simulate_chains(stack, model, sk, chain_cfg),
                        simulate_trajectory(psi_policy(Q_MAX), system, model, sk, trajectory_cfg))

        chains, trajectory = simulate_both()
        tables = _tables(stack, model, sk)
        sizes = [(tables.block_steps(runs), tables.segment_steps(runs), tables.window_steps(runs))
                 for runs in (CHUNK_RUNS, 5)]
        monkeypatch.setattr("remest.simulate.BLOCK_ELEMENTS", 40)
        monkeypatch.setattr("remest.simulate.LANES", 30)
        # every block and window shrinks, and the last chunk's segments are one step
        assert [(tables.block_steps(runs), tables.segment_steps(runs), tables.window_steps(runs))
                for runs in (CHUNK_RUNS, 5)] == [(1, 1, 1), (2, 1, 8)]
        assert sizes == [(170, 34, 510), (4369, 33, 13107)]
        small_chains, small_trajectory = simulate_both()
        assert all(_same_report(a, b) for a, b in zip(chains, small_chains))
        assert _same_report(trajectory, small_trajectory)
        for name in ("analytic_avg_mse_vs_k", "run_final_analytic_mse", "empirical_error_cov"):
            assert np.array_equal(getattr(trajectory, name), getattr(small_trajectory, name)), name

    @pytest.mark.parametrize("case", list(SHARED_CASES))
    def test_shared_lanes_match_own_walk_and_reference(self, case, sk, channel, monkeypatch):
        stack, cfg, block_elements, shared = SHARED_CASES[case](sk, channel)
        monkeypatch.setattr("remest.simulate.BLOCK_ELEMENTS", block_elements)
        calls = _record_walks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reports = simulate_chains(stack, channel, sk, cfg)
            copied = [sum(p not in set().union(*walks) for walks in calls) for p in range(len(stack))]
            assert len(calls) > 1 and shared(copied, len(calls)), (copied, len(calls))
            for grid, report in zip(stack, reports):
                assert _same_report(report, simulate_chain(grid, channel, sk, cfg)), grid.label
                ref_mse, ref_aoi, ref_run_mse, ref_run_aoi, ref_sat = reference_chain(grid, channel, sk, cfg)
                assert np.array_equal(report.avg_mse_vs_k, ref_mse), grid.label
                assert np.array_equal(report.avg_aoi_vs_k, ref_aoi), grid.label
                assert np.array_equal(report.run_final_mse, ref_run_mse), grid.label
                assert np.array_equal(report.run_final_aoi, ref_run_aoi), grid.label
                assert report.saturation_events == ref_sat, grid.label

    def test_identical_grids_walk_one_lane_per_run(self, sk, channel, monkeypatch):
        # the reports cannot show whether the second grid was walked or copied; the lanes can
        lanes_per_run = []
        segments = _ChainTables._segments
        monkeypatch.setattr(_ChainTables, "_segments", lambda self, uniforms, base, seg: (
            lanes_per_run.append(len(base) / uniforms.shape[1]) or segments(self, uniforms, base, seg)))
        grid = psi_policy(Q_MAX)
        simulate_chains([grid, grid.relabeled("psi again")], channel, sk,
                        SimConfig(horizon=700, runs=CHUNK_RUNS + 3, seed=66))
        assert lanes_per_run and set(lanes_per_run) == {1}

    def test_empty_stack_rejected(self, sk, channel):
        with pytest.raises(ValueError, match="no policies"):
            simulate_chains([], channel, sk, SimConfig(horizon=5, runs=2, seed=0))

    def test_different_q_max_rejected(self, sk, channel):
        with pytest.raises(ValueError, match="q_max"):
            simulate_chains([psi_policy(Q_MAX), arq_baseline_policy(Q_MAX - 1)], channel, sk,
                            SimConfig(horizon=5, runs=2, seed=0))

    def test_saturation_warns_per_policy(self, system):
        sk_small = riccati_steady_state(system, q_max=2)
        channel = HarqModel(0.1, 1.0, r_cap=2)
        cfg = SimConfig(horizon=300, runs=10, seed=1)
        stack = [psi_policy(2), arq_baseline_policy(2)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reports = simulate_chains(stack, channel, sk_small, cfg)
            single = simulate_chain(stack[1], channel, sk_small, cfg)
        assert [r.saturation_events > 0 for r in reports] == [True, True]
        messages = [str(w.message) for w in caught]
        assert len(messages) == 3 and all(w.category is RuntimeWarning for w in caught)
        for message, report in zip(messages, reports + [single]):
            assert f"policy {report.label!r}" in message
            assert f"in {report.saturation_events} steps" in message
        # each warning points at the line that called the public function
        assert {w.filename for w in caught} == {__file__}


class TestTrajectorySim:
    def test_perfect_channel_matches_base_cost(self, system, sk):
        channel = HarqModel(1.0, 0.5, r_cap=Q_MAX)
        cfg = SimConfig(horizon=40, runs=800, seed=17, mode="trajectory")
        report = simulate_trajectory(arq_baseline_policy(Q_MAX), system, channel, sk, cfg)
        base = sk.cost_table[0]
        se = report.run_final_mse.std(ddof=1) / np.sqrt(report.runs)
        assert abs(report.final_avg_mse - base) <= 3 * se
        assert np.abs(report.analytic_avg_mse_vs_k - base).max() < 1e-9

    @pytest.mark.parametrize("case", list(TRAJECTORY_CASES))
    def test_matches_reference_simulator(self, case, system, sk, channel):
        grid, model, table, cfg = TRAJECTORY_CASES[case](system, sk, channel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = simulate_trajectory(grid, system, model, table, cfg)
        ref = reference_trajectory(grid, system, model, table, cfg)
        for name in ("analytic_avg_mse_vs_k", "run_final_analytic_mse", "avg_aoi_vs_k",
                     "run_final_aoi", "saturation_events"):
            assert np.array_equal(getattr(report, name), ref[name]), name
        assert (ref["saturation_events"] > 0) == (case == "q_at_q_max")
        for name in ("avg_mse_vs_k", "run_final_mse", "empirical_error_cov"):
            np.testing.assert_allclose(getattr(report, name), ref[name], rtol=1e-12, err_msg=name)

    @pytest.mark.parametrize("case", list(LONG_TRAJECTORY_CASES))
    def test_matches_error_coordinate_reference(self, case, system, sk, channel):
        grid, model, table, cfg = LONG_TRAJECTORY_CASES[case](system, sk, channel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = simulate_trajectory(grid, system, model, table, cfg)
        ref = reference_trajectory(grid, system, model, table, cfg, coordinates="error")
        for name in ("analytic_avg_mse_vs_k", "run_final_analytic_mse", "avg_aoi_vs_k",
                     "run_final_aoi", "saturation_events"):
            assert np.array_equal(getattr(report, name), ref[name]), name
        assert (ref["saturation_events"] > 0) == (grid.q_max == 2)
        assert (ref["r_at_q_max"] > 0) == (case in ("psi_r_at_q_max", "retransmit_at_q_max"))
        for name in ("avg_mse_vs_k", "run_final_mse", "empirical_error_cov"):
            np.testing.assert_allclose(getattr(report, name), ref[name], rtol=1e-12, err_msg=name)

    def test_retransmission_at_q_max_stays_finite(self, system):
        # r stays at q_max from step 3 on; the packet's error is formed afresh at the oldest
        # age every step, where aging it by A would overflow near step 1160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", message="policy 'retransmit'", category=RuntimeWarning)
            report = simulate_trajectory(PolicyGrid(2, np.ones((3, 3)), label="retransmit"), system,
                                         HarqModel(0.1, 1.0, r_cap=2), _short_table(system),
                                         SimConfig(horizon=1500, runs=4, seed=1, mode="trajectory"))
        assert np.all(np.isfinite(report.run_final_mse))

    def test_run_count_invariance(self, system, sk, channel):
        # 300 runs end in a partial chunk; run i's draws depend on its chunk's stream only
        grid = psi_policy(Q_MAX)
        few, more = (simulate_trajectory(grid, system, channel, sk,
                                         SimConfig(horizon=40, runs=runs, seed=23, mode="trajectory"))
                     for runs in (200, 300))
        for name in ("run_final_mse", "run_final_aoi", "run_final_analytic_mse"):
            assert np.array_equal(getattr(few, name), getattr(more, name)[:200]), name

    def test_reports_do_not_depend_on_group_size(self, system, sk, channel, monkeypatch):
        # 3 chunks and a partial one, walked a chunk at a time, two at a time and as one group:
        # the per-step sums and the covariance add per-chunk sums in chunk order, whatever the group
        grid, cfg = psi_policy(Q_MAX), SimConfig(horizon=30, runs=3 * CHUNK_RUNS + 5, seed=61,
                                                 mode="trajectory")
        reports = {}
        for chunks in (1, 2, 4):
            monkeypatch.setattr("remest.simulate.GROUP_CHUNKS", chunks)
            reports[chunks] = simulate_trajectory(grid, system, channel, sk, cfg)
        fields = ("avg_mse_vs_k", "avg_aoi_vs_k", "run_final_mse", "run_final_aoi", "saturation_events",
                  "analytic_avg_mse_vs_k", "run_final_analytic_mse", "empirical_error_cov")
        for chunks in (1, 2):
            for name in fields:
                assert np.array_equal(getattr(reports[chunks], name), getattr(reports[4], name)), name
        ref = reference_trajectory(grid, system, channel, sk, cfg, coordinates="error")
        for name in ("analytic_avg_mse_vs_k", "run_final_analytic_mse", "avg_aoi_vs_k",
                     "run_final_aoi", "saturation_events"):
            assert np.array_equal(getattr(reports[1], name), ref[name]), name
        for name in ("avg_mse_vs_k", "run_final_mse", "empirical_error_cov"):
            np.testing.assert_allclose(getattr(reports[1], name), ref[name], rtol=1e-12, err_msg=name)

    def test_draws_held_one_group_at_a_time(self, system, sk, channel):
        # 10000 runs are three groups; drawing every run's horizon at once peaked at 39.9 MB
        cfg = SimConfig(horizon=100, runs=10000, seed=5, mode="trajectory")
        tracemalloc.start()
        try:
            simulate_trajectory(arq_baseline_policy(Q_MAX), system, channel, sk, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.runs > 2 * GROUP_CHUNKS * CHUNK_RUNS
        assert peak < 24e6

    def test_noiseless_observable_system_has_zero_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            system = LtiSystem([[1.8, 0.2], [0.2, 0.8]], np.eye(2), np.zeros((2, 2)), 1e-12 * np.eye(2))
            sk = riccati_steady_state(system, q_max=5)
        channel = HarqModel(1.0, 0.5, r_cap=5)
        cfg = SimConfig(horizon=30, runs=50, seed=2, mode="trajectory")
        report = simulate_trajectory(arq_baseline_policy(5), system, channel, sk, cfg)
        assert report.final_avg_mse < 1e-8

    def test_empirical_matches_analytic_cost(self, system, sk, channel):
        grid = solve(build_mdp(sk, channel, Q_MAX, "mse")).policy
        cfg = SimConfig(horizon=40, runs=1500, seed=19, mode="trajectory")
        report = simulate_trajectory(grid, system, channel, sk, cfg)
        se_emp = report.run_final_mse.std(ddof=1) / np.sqrt(report.runs)
        se_ana = report.run_final_analytic_mse.std(ddof=1) / np.sqrt(report.runs)
        se = np.hypot(se_emp, se_ana)
        assert abs(report.final_avg_mse - report.final_analytic_mse) <= 3 * se

    def test_q_saturates_at_q_max(self, system):
        sk_short = riccati_steady_state(system, q_max=2)
        cfg = SimConfig(horizon=40, runs=50, seed=3, mode="trajectory")
        with pytest.warns(RuntimeWarning, match="saturated"):
            report = simulate_trajectory(arq_baseline_policy(2), system, HarqModel(0.1, 1.0, r_cap=2),
                                         sk_short, cfg)
        assert report.analytic_avg_mse_vs_k.max() <= sk_short.cost_table[2]
        assert report.saturation_events > 0

    def test_empirical_covariance_shape_and_trace(self, system, sk, channel):
        cfg = SimConfig(horizon=30, runs=400, seed=4, mode="trajectory")
        report = simulate_trajectory(arq_baseline_policy(Q_MAX), system, channel, sk, cfg)
        cov = report.empirical_error_cov
        assert cov.shape == (2, 2)
        mean_step_mse = report.avg_mse_vs_k[-1]
        # trace of the averaged outer products is the mean squared error
        assert np.trace(cov) == pytest.approx(mean_step_mse, rel=1e-9)

    def test_long_horizon_empirical_matches_analytic(self, system, sk, channel):
        # the state of this expansive process would leave float64 near step 1160; the
        # simulator never forms it, so 2000 steps give finite reports that still agree
        grid = solve(build_mdp(sk, channel, Q_MAX, "mse")).policy
        cfg = SimConfig(horizon=2000, runs=200, seed=31, mode="trajectory")
        report = simulate_trajectory(grid, system, channel, sk, cfg)
        for name in ("avg_mse_vs_k", "run_final_mse", "analytic_avg_mse_vs_k",
                     "run_final_analytic_mse", "empirical_error_cov"):
            assert np.all(np.isfinite(getattr(report, name))), name
        diff = report.run_final_mse - report.run_final_analytic_mse
        se = diff.std(ddof=1) / np.sqrt(report.runs)
        gap = abs(report.final_avg_mse - report.final_analytic_mse)
        assert gap <= 5 * se + 0.02 * report.final_analytic_mse

    def test_determinism(self, system, sk, channel):
        cfg = SimConfig(horizon=25, runs=60, seed=42, mode="trajectory")
        grid = psi_policy(Q_MAX)
        r1 = simulate_trajectory(grid, system, channel, sk, cfg)
        r2 = simulate_trajectory(grid, system, channel, sk, cfg)
        assert np.array_equal(r1.avg_mse_vs_k, r2.avg_mse_vs_k)
        assert np.array_equal(r1.run_final_mse, r2.run_final_mse)

    def test_mode_and_initial_q_checked(self, system, sk, channel):
        with pytest.raises(ValueError):
            simulate_trajectory(arq_baseline_policy(Q_MAX), system, channel, sk,
                                SimConfig(horizon=10, runs=2, seed=0, mode="analytic"))
        with pytest.raises(ValueError):
            simulate_trajectory(arq_baseline_policy(Q_MAX), system, channel, sk,
                                SimConfig(horizon=10, runs=2, seed=0, mode="trajectory", initial_q=1))


class TestReportOutputs:
    def test_csv_format(self, tmp_path, sk, channel):
        cfg = SimConfig(horizon=12, runs=3, seed=0)
        report = simulate_chain(arq_baseline_policy(Q_MAX), channel, sk, cfg)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,avg_mse,avg_aoi"
        assert len(lines) == 13
        assert lines[1].startswith("1,")

    def test_summary_fields(self, tmp_path, sk, channel):
        cfg = SimConfig(horizon=12, runs=3, seed=0)
        report = simulate_chain(arq_baseline_policy(Q_MAX), channel, sk, cfg)
        path = tmp_path / "report.json"
        write_report_json(report, path)
        summary = json.loads(path.read_text())
        assert summary["runs"] == 3
        assert summary["seed"] == 0
        assert "mse_ci95_halfwidth" in summary
