"""End-to-end acceptance checks on the benchmark configuration.

Each test covers one numbered criterion at its stated tolerance and prints
a PASS line with the measured values (visible with ``pytest -s``). The
Monte-Carlo checks run the full 2000 runs x 2000 steps protocol with the
packaged default seed.
"""

import time
import warnings

import numpy as np
import pytest

from remest import (
    HarqModel,
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
    verify_switching,
)
from remest.cli import main as cli_main
from remest.config import default_config
from remest.policies import enumerate_states

Q_MAX = 20
TOL = 1e-9


def note(msg):
    print(f"[acceptance] {msg}")


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def solutions(system, sk, channel):
    out = {}
    out["mse"] = solve(build_mdp(sk, channel, Q_MAX, "mse"), tol=TOL)
    out["delay"] = solve(build_mdp(None, channel, Q_MAX, "delay"), tol=TOL)
    channel85 = HarqModel(0.85, 0.5, r_cap=Q_MAX)
    out["mse85"] = solve(build_mdp(sk, channel85, Q_MAX, "mse"), tol=TOL)
    out["channel85"] = channel85
    return out


@pytest.fixture(scope="module")
def zoo(sk, channel, solutions):
    return {
        "optimal": solutions["mse"].policy.relabeled("optimal"),
        "myopic": myopic_policy(sk, channel, Q_MAX),
        "delay": solutions["delay"].policy.relabeled("delay"),
        "arq": arq_baseline_policy(Q_MAX),
        "psi": psi_policy(Q_MAX),
    }


@pytest.fixture(scope="module")
def big_sims(cfg, sk, channel, solutions, zoo):
    """The full-scale Monte-Carlo protocol with the packaged default seed."""
    sim_cfg = SimConfig(horizon=cfg.horizon, runs=cfg.runs, seed=cfg.seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        reports = dict(zip(zoo, simulate_chains(list(zoo.values()), channel, sk, sim_cfg)))
        pair85 = [solutions["mse85"].policy.relabeled("optimal"), zoo["arq"]]
        reports["optimal85"], reports["arq85"] = simulate_chains(
            pair85, solutions["channel85"], sk, sim_cfg)
    return reports


def test_criterion_1_riccati_reproduction(system):
    t0 = time.perf_counter()
    out = riccati_steady_state(system, q_max=Q_MAX)
    elapsed = time.perf_counter() - t0
    expected = np.array([[2.3579, -1.5419], [-1.5419, 1.5987]])
    np.testing.assert_allclose(out.p_bar0, expected, atol=1e-3)
    assert elapsed < 1.0
    note(f"criterion 1 PASS: steady covariance within 1e-3, {elapsed * 1e3:.1f} ms")


def test_criterion_2_prediction_operator(system, sk):
    from remest import f_apply

    got = f_apply(system, sk.p_bar0)
    expected = np.array([[7.5934, -1.1774], [-1.1774, 1.6241]])
    np.testing.assert_allclose(got, expected, atol=1e-3)
    tr = float(np.trace(got))
    assert tr == pytest.approx(9.2, abs=0.02)
    note(f"criterion 2 PASS: one-step prediction within 1e-3, trace {tr:.4f} = 9.2 +- 0.02")


def test_criterion_3_stability(system, channel):
    assert system.rho_sq == pytest.approx(3.380, abs=1e-3)
    report = channel.stability_check(system.rho_sq)
    assert report.stable
    assert report.margin == pytest.approx(0.338, abs=1e-3)
    note(f"criterion 3 PASS: rho^2 {system.rho_sq:.6f}, margin {report.margin:.6f} < 1")


def test_criterion_4_switching_structure(sk, channel):
    t0 = time.perf_counter()
    optimal = solve(build_mdp(sk, channel, Q_MAX, "mse"), tol=TOL).policy
    myopic = myopic_policy(sk, channel, Q_MAX)
    elapsed = time.perf_counter() - t0
    for name, grid in (("optimal", optimal), ("myopic", myopic)):
        report = verify_switching(grid)
        assert report.ok, f"{name}: {report.violations[:3]}"
        assert report.violations == []
        for q in range(Q_MAX + 1):
            assert grid.action(q, q) == 0, f"{name} retransmits on the diagonal at q={q}"
    assert elapsed < 10.0
    note(f"criterion 4 PASS: both policies switching-type with fresh diagonal, {elapsed:.2f} s")


def test_criterion_5_policy_ordering(sk, channel, solutions, zoo):
    mse_model = build_mdp(sk, channel, Q_MAX, "mse")
    t0 = time.perf_counter()
    gains = {name: evaluate_policy(mse_model, grid) for name, grid in zoo.items()}
    elapsed = time.perf_counter() - t0
    slack = 1e-6  # optimal and myopic coincide on this channel
    assert gains["optimal"] <= gains["myopic"] + slack
    assert gains["myopic"] <= max(gains["delay"], gains["arq"], gains["psi"]) + slack
    margin = gains["arq"] - gains["optimal"]
    assert margin > 0.1
    assert elapsed < 1.0
    note("criterion 5 PASS: exact average MSE "
         + ", ".join(f"{k}={v:.4f}" for k, v in gains.items())
         + f"; optimal beats arq by {margin:.4f}, {elapsed * 1e3:.0f} ms")


def test_criterion_6_monte_carlo_reproduction(sk, big_sims):
    # running averages settle: drift of the mean over the last 800 steps < 1%
    for name in ("optimal", "myopic", "delay", "arq", "psi"):
        curve = big_sims[name].avg_mse_vs_k
        drift = abs(curve[-1] - curve[-801]) / curve[-1]
        assert drift < 0.01, f"{name} drifted {drift:.2%} after step 1200"

    floor = float(sk.cost_table[0])

    def readings(opt, arq):
        raw = 1.0 - opt / arq
        excess = 1.0 - (opt - floor) / (arq - floor)
        return raw, excess

    raw8, excess8 = readings(big_sims["optimal"].final_avg_mse, big_sims["arq"].final_avg_mse)
    raw85, excess85 = readings(big_sims["optimal85"].final_avg_mse, big_sims["arq85"].final_avg_mse)
    in8 = {"raw": 0.24 <= raw8 <= 0.40, "excess": 0.24 <= excess8 <= 0.40}
    in85 = {"raw": 0.05 <= raw85 <= 0.15, "excess": 0.05 <= excess85 <= 0.15}
    assert any(in8.values()), f"no reading in [24%, 40%]: raw {raw8:.1%}, excess {excess8:.1%}"
    assert any(in85.values()), f"no reading in [5%, 15%]: raw {raw85:.1%}, excess {excess85:.1%}"
    matching8 = [k for k, ok in in8.items() if ok]
    matching85 = [k for k, ok in in85.items() if ok]
    note(f"criterion 6 PASS: reduction vs non-retransmission at lambda=0.8: "
         f"raw {raw8:.1%}, excess-over-baseline {excess8:.1%} (matching: {matching8}); "
         f"at lambda=0.85: raw {raw85:.1%}, excess {excess85:.1%} (matching: {matching85}); "
         f"all running means drift < 1% after step 1200")


def test_criterion_7a_arq_geometric_oracle(sk, big_sims):
    lam = 0.8
    oracle = sum(lam * (1 - lam) ** n * sk.cost_table[n] for n in range(Q_MAX))
    oracle += (1 - lam) ** Q_MAX * sk.cost_table[Q_MAX]
    simulated = big_sims["arq"].final_avg_mse
    rel = abs(simulated - oracle) / oracle
    assert rel < 0.02
    note(f"criterion 7a PASS: simulated arq MSE {simulated:.4f} vs closed form {oracle:.4f} "
         f"({rel:.2%} < 2%)")


def test_criterion_7b_trajectory_cross_validation(system, sk, channel, zoo):
    # 40 steps of 3000 runs keep this quick; the trajectory simulator steps
    # the errors, not the state, so it takes any horizon at full precision
    chain_cfg = SimConfig(horizon=40, runs=3000, seed=202)
    traj_cfg = SimConfig(horizon=40, runs=3000, seed=303, mode="trajectory")
    lines = []
    for name, grid in zoo.items():
        chain = simulate_chain(grid, channel, sk, chain_cfg)
        traj = simulate_trajectory(grid, system, channel, sk, traj_cfg)
        se = np.hypot(chain.run_final_mse.std(ddof=1) / np.sqrt(chain.runs),
                      traj.run_final_mse.std(ddof=1) / np.sqrt(traj.runs))
        gap = abs(traj.final_avg_mse - chain.final_avg_mse)
        assert gap <= 3 * se, f"{name}: |{traj.final_avg_mse:.4f} - {chain.final_avg_mse:.4f}| > 3*{se:.4f}"
        lines.append(f"{name} gap {gap:.4f} <= {3 * se:.4f}")
    note("criterion 7b PASS: empirical matches analytic MSE within 3 SE for " + "; ".join(lines))


def test_criterion_7c_gain_consistency(sk, channel, solutions):
    # span_residual is the span of Bellman(h) - h at the returned bias: zero
    # in exact arithmetic, a few float64 ulps of the largest bias in practice
    eps = np.finfo(float).eps
    delay_solution = solutions["delay"]
    delay_model = build_mdp(None, channel, Q_MAX, "delay")
    delay_eval = evaluate_policy(delay_model, delay_solution.policy)
    assert delay_solution.span_residual < TOL
    assert delay_solution.span_residual <= 16 * eps * np.abs(delay_solution.bias).max()
    assert abs(delay_solution.gain - delay_eval) <= 10 * TOL

    # the MSE-cost model carries stage costs up to ~1e11, so its bias spans
    # ~3e11 and the residual sits near 1e-4, well above TOL but still ulps
    mse_solution = solutions["mse"]
    mse_model = build_mdp(sk, channel, Q_MAX, "mse")
    mse_eval = evaluate_policy(mse_model, mse_solution.policy)
    achieved = max(TOL, mse_solution.span_residual)
    ulps = mse_solution.span_residual / (eps * np.abs(mse_solution.bias).max())
    gap = abs(mse_solution.gain - mse_eval)
    assert gap <= 10 * achieved
    assert ulps <= 16
    note(f"criterion 7c PASS: delay gain consistent within 10*tol (gap "
         f"{abs(delay_solution.gain - delay_eval):.2e}); MSE gain gap {gap:.2e} "
         f"<= 10 * span residual {mse_solution.span_residual:.2e} ({ulps:.1f} ulp of max |bias|)")


def test_criterion_8_qualitative_policy_geometry(sk, channel, solutions):
    optimal = solutions["mse"].policy
    delay = solutions["delay"].policy

    def n_fresh(grid):
        return sum(grid.action(*s) == 0 for s in zip(*enumerate_states(grid.q_max)))

    n_opt = n_fresh(optimal)
    n_delay = n_fresh(delay)
    assert n_delay > n_opt

    channel_h09 = HarqModel(0.8, 0.9, r_cap=Q_MAX)
    optimal_h09 = solve(build_mdp(sk, channel_h09, Q_MAX, "mse"), tol=TOL).policy
    n_h09 = n_fresh(optimal_h09)
    assert n_h09 >= n_opt
    note(f"criterion 8 PASS: fresh-transmission states delay {n_delay} > optimal {n_opt}; "
         f"h=0.9 {n_h09} >= h=0.5 {n_opt}")


def test_criterion_9_byte_identical_simulation(tmp_path):
    import json

    config = {
        "system": {"A": [[1.8, 0.2], [0.2, 0.8]], "C": [[1.0, 1.0]],
                   "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
        "channel": {"lambda": 0.8, "h": 0.5},
        "mdp": {"q_max": 20},
        "sim": {"K": 400, "runs": 150, "seed": 31},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert cli_main(["simulate", "--config", str(path), "--policy", "psi"]) == 0
        first = (tmp_path / "out" / "report_psi.csv").read_bytes()
        assert cli_main(["simulate", "--config", str(path), "--policy", "psi"]) == 0
        second = (tmp_path / "out" / "report_psi.csv").read_bytes()
    assert first == second
    note(f"criterion 9 PASS: repeated simulate runs produced byte-identical CSV "
         f"({len(first)} bytes)")

