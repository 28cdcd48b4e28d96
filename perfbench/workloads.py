"""The benchmark workloads.

Each workload builds its inputs from the seed (``prepare``), does the timed
work through remest's public functions only (``run``), and turns the
outputs of one run into operations that passed or failed (``check``). An
operation is a solve, an exact evaluation, a Monte-Carlo (MC) call, a CLI
exit code or an output check. A solve that raises is recorded as a failed
operation, and the evaluation and check that need its policy are not
attempted.

All workloads use the packaged default 2-D process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from remest import cli, config, lti, mdp, policies, simulate
from remest.harq import HarqModel

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative tolerance of the compare-default fingerprints against the
# recorded values: wide enough for a solver change that moves the gain in
# its last digits (RVI's gain is accurate to about its span residual,
# ~1e-7 relative here), narrow enough to catch any change of policy.
FINGERPRINT_RTOL = 1e-6
# A solved gain must match the exact evaluation of its own policy.
# Measured worst case with value iteration: 2.7e-7 relative (q_max=40, h=0.5).
GAIN_RTOL = 1e-5
# MC against exact. The MSE check is one-sided: mc >= exact - (Z * se +
# MSE_REL * exact). Under ARQ, and under any policy that sends fresh
# through a long run of stale states, the per-step MSE has a very heavy
# tail (g(0) * rho^4 = 2.29 on the default channel): the MC mean usually
# falls short of the exact value and, on an unlucky seed, overshoots it by
# far more than its standard error (the delay policy read +6.3% at 2000 x
# 2000). For ARQ the 0.05% quantile of the shortfall is about -5% at 3.2e6
# steps and -9% at 4e5 steps; MSE_REL covers it and the transient from
# q=initial (0.08% for ARQ at 2000 steps). AoI has light tails and is
# checked two-sided.
MC_Z = 4.0
MSE_REL = 0.10
AOI_REL = 0.02
# Trajectory mode: empirical squared error against the analytic cost of the
# same realized staleness, paired per run.
TRAJ_Z = 5.0
TRAJ_REL = 0.02

# Operations that fail because of known defects of the package. They stay
# in the workloads and count as failures; `correct` only turns false when
# some other operation fails.
KNOWN_DEFECTS = frozenset({
    # RVI runs out of sweeps, undamped and damped, on these stable models
    "solve mse l0.8-h0.3-q20",
    "solve mse l0.8-h0.3-q40",
    "solve mse g0.2+0.1x20-q20",
    # the model saturates r at the table's r_cap, the simulator at q_max
    "mc_vs_exact psi g0.2-0.1-0.05-0.025-q20",
})


@dataclass(frozen=True)
class Op:
    name: str
    ok: bool
    detail: str = ""


def grid_sha256(grid) -> str:
    """Hash of a policy grid's actions in (q, r) order, independent of dtype."""
    q_max = grid.q_max
    bits = "".join(str(int(grid.actions[r, q])) for q in range(q_max + 1) for r in range(q + 1))
    return hashlib.sha256(f"{q_max}:{bits}".encode()).hexdigest()


def close(value: float, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def mc_agrees(mse: float, exact_mse: float, mse_se: float,
              aoi: float, exact_aoi: float, aoi_se: float) -> bool:
    """Whether MC means of MSE and AoI are consistent with the exact values."""
    if not (math.isfinite(mse) and math.isfinite(aoi)):
        return False
    return (mse >= exact_mse - (MC_Z * mse_se + MSE_REL * exact_mse)
            and abs(aoi - exact_aoi) <= MC_Z * aoi_se + AOI_REL * exact_aoi)


def attempt(ops: list, name: str, fn, *args, **kwargs):
    """Run one operation; record it in ops and return its result, or None if it raised."""
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failing operation is counted, never fatal
        ops.append(Op(name, False, f"{type(exc).__name__}: {exc}"))
        return None
    ops.append(Op(name, True))
    return result


def _se(per_run: np.ndarray) -> float:
    return float(per_run.std(ddof=1) / math.sqrt(len(per_run))) if len(per_run) > 1 else 0.0


def default_setup():
    cfg = config.default_config()
    system = cfg.make_system()
    sk = lti.riccati_steady_state(system, tol=cfg.tol, max_iter=cfg.max_iter, q_max=cfg.q_max)
    return cfg, system, sk


class CompareDefault:
    """`remest compare --default` in-process: 5 policies x 2000 runs x 2000 steps."""

    name = "compare-default"

    def prepare(self, seed: int, size: str, workdir: Path) -> dict:
        out = workdir / self.name
        argv = ["compare", "--default", "--seed", str(seed), "--out", str(out)]
        if size == "small":
            cfg = config.default_config().to_dict()
            cfg["sim"].update(K=2000, runs=200)
            path = workdir / "compare-small.json"
            path.write_text(json.dumps(cfg))
            argv[1:2] = ["--config", str(path)]
        return {"argv": argv, "out": out}

    def run(self, inputs: dict) -> dict:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(inputs["argv"])
        return {"rc": rc, "ops": []}

    def check(self, inputs: dict, outputs: dict, reference: dict) -> list:
        ops = [Op("cli exit code", outputs["rc"] == 0, f"exit {outputs['rc']}")]
        if outputs["rc"] != 0:
            return ops
        table = json.loads((inputs["out"] / "compare.json").read_text())
        ref = reference[self.name]
        for key in ("gain_mse_optimal", "gain_delay_optimal"):
            ops.append(Op(f"fingerprint {key}", close(table[key], ref[key], FINGERPRINT_RTOL),
                          f"{table[key]!r} vs {ref[key]!r}"))
        cfg, _, sk = default_setup()
        zoo = compare_zoo(cfg, sk)
        for row in table["policies"]:
            label = row["policy"]
            want = ref["policies"][label]
            digest = grid_sha256(zoo[label])
            for key in ("exact_avg_mse", "exact_avg_aoi"):
                ops.append(Op(f"fingerprint {key} {label}",
                              close(row[key], want[key], FINGERPRINT_RTOL),
                              f"{row[key]!r} vs {want[key]!r}"))
            ops.append(Op(f"fingerprint grid {label}", digest == want["grid_sha256"], digest[:12]))
            # compare.json carries no per-run spread, so only the relative terms apply
            ok = mc_agrees(row["sim_final_mse"], row["exact_avg_mse"], 0.0,
                           row["sim_final_aoi"], row["exact_avg_aoi"], 0.0)
            ops.append(Op(f"mc_vs_exact {label}", ok,
                          f"mse {row['sim_final_mse']:.5g} vs {row['exact_avg_mse']:.5g}, "
                          f"aoi {row['sim_final_aoi']:.5g} vs {row['exact_avg_aoi']:.5g}"))
        return ops


def compare_zoo(cfg, sk) -> dict:
    """The five policy grids `remest compare` simulates, built through the library."""
    channel = cfg.make_channel()

    def solve(kind):
        model = mdp.build_mdp(sk if kind == "mse" else None, channel, cfg.q_max, kind)
        return mdp.solve(model, tol=cfg.tol, max_iter=cfg.max_iter).policy

    return {
        "optimal": solve("mse"),
        "myopic": policies.myopic_policy(sk, channel, cfg.q_max),
        "delay": solve("delay"),
        "arq": policies.arq_baseline_policy(cfg.q_max),
        "psi": policies.psi_policy(cfg.q_max),
    }


# (id, lambda, h or None, g_table or None, q_max)
SWEEP_REQUIRED = (
    ("l0.8-h0.9-q20", 0.8, 0.9, None, 20),   # converges only on the damped retry
    ("l0.8-h0.3-q20", 0.8, 0.3, None, 20),   # stable, RVI fails
    ("l0.8-h0.3-q40", 0.8, 0.3, None, 40),   # stable, RVI fails
    ("g0.2+0.1x20-q20", 0.8, None, (0.2,) + (0.1,) * 20, 20),  # stable, RVI fails
    ("g0.2-0.1-0.05-0.025-q20", 0.8, None, (0.2, 0.1, 0.05, 0.025), 20),
    ("l0.8-h0.5-q40", 0.8, 0.5, None, 40),   # dense stationary solves of 861 states
    ("l0.85-h0.6-q40", 0.85, 0.6, None, 40),
)
# Fast models: at lambda = 0.85 undamped RVI converges in under 40 sweeps
# for every h and q_max below (at lambda = 0.8 it fails for several h), so
# the RNG seed changes which fast models run, not how many operations fail.
SWEEP_FILL_H = (0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
SWEEP_FILL_Q = (10, 16, 20)


class SolveSweep:
    """Solve (both costs), exact evaluation and switching check over a channel grid."""

    name = "solve-sweep"
    # RVI sweeps allowed per attempt; the library default of 100000 would make
    # the three failing models alone take ~20 s per repetition.
    max_iter = {"full": 20000, "small": 2000}
    n_fill = {"full": 16, "small": 2}

    def prepare(self, seed: int, size: str, workdir: Path) -> dict:
        rng = np.random.default_rng(seed)
        pool = [(0.85, h, q) for h in SWEEP_FILL_H for q in SWEEP_FILL_Q]
        picks = rng.choice(len(pool), size=self.n_fill[size], replace=False)
        models = list(SWEEP_REQUIRED) + [
            (f"l{lam}-h{h}-q{q}", lam, h, None, q) for lam, h, q in (pool[i] for i in picks)]
        order = rng.permutation(len(models))
        return {"models": [models[i] for i in order], "max_iter": self.max_iter[size],
                "csv": workdir / "sweep_policy.csv"}

    def run(self, inputs: dict) -> dict:
        cfg = config.default_config()
        system = cfg.make_system()
        ops, results = [], []
        for model_id, lam, h, g_table, q_max in inputs["models"]:
            channel = HarqModel.from_table(g_table) if g_table else HarqModel(lam, h, r_cap=q_max)
            sk = lti.riccati_steady_state(system, tol=cfg.tol, max_iter=cfg.max_iter, q_max=q_max)
            for kind in ("mse", "delay"):
                model = mdp.build_mdp(sk if kind == "mse" else None, channel, q_max, kind)
                solution = attempt(ops, f"solve {kind} {model_id}", mdp.solve, model,
                                   tol=cfg.tol, max_iter=inputs["max_iter"])
                if solution is None:
                    continue
                exact = attempt(ops, f"exact {kind} {model_id}", mdp.evaluate_policy, model,
                                solution.policy)
                if exact is None:
                    continue
                switching = bool(policies.verify_switching(solution.policy))
                round_trip = True
                if kind == "mse":
                    policies.save_policy_csv(solution.policy, inputs["csv"])
                    round_trip = policies.load_policy_csv(inputs["csv"]) == solution.policy
                results.append((model_id, kind, solution.gain, exact, switching, round_trip))
        return {"ops": ops, "results": results}

    def check(self, inputs: dict, outputs: dict, reference: dict) -> list:
        ops = []
        for model_id, kind, gain, exact, switching, round_trip in outputs["results"]:
            ok = close(gain, exact, GAIN_RTOL) and switching and round_trip
            ops.append(Op(f"check {kind} {model_id}", ok,
                          f"gain {gain!r} exact {exact!r} switching {switching} csv {round_trip}"))
        return ops


class SimulateShapes:
    """Both simulators in the shapes compare-default does not use.

    simulate_chain with 32 runs (fewer than one 128-run chunk) over 1e5
    steps, where per-step overhead dominates, for optimal, psi and arq on
    the default channel and psi on the table channel, each followed by an
    exact-vs-MC check. simulate_trajectory with many runs over 40 steps
    (the horizon is capped by state_cap on this expansive process) for
    optimal and arq, checked empirical-vs-analytic.
    """

    name = "simulate-shapes"
    chain_horizon = {"full": 100000, "small": 10000}
    trajectory_runs = {"full": 20000, "small": 2000}

    def prepare(self, seed: int, size: str, workdir: Path) -> dict:
        return {
            "chain": simulate.SimConfig(horizon=self.chain_horizon[size], runs=32, seed=seed),
            "trajectory": simulate.SimConfig(horizon=40, runs=self.trajectory_runs[size],
                                             seed=seed, mode="trajectory"),
        }

    def run(self, inputs: dict) -> dict:
        cfg, system, sk = default_setup()
        default_channel = cfg.make_channel()
        table_channel = HarqModel.from_table([0.2, 0.1, 0.05, 0.025])
        ops, chain, trajectory = [], [], []
        solution = attempt(ops, "solve mse default", mdp.solve,
                           mdp.build_mdp(sk, default_channel, cfg.q_max, "mse"),
                           tol=cfg.tol, max_iter=cfg.max_iter)
        optimal = solution.policy if solution else None
        cases = (
            ("optimal default", optimal, default_channel),
            ("psi default", policies.psi_policy(cfg.q_max), default_channel),
            ("arq default", policies.arq_baseline_policy(cfg.q_max), default_channel),
            ("psi g0.2-0.1-0.05-0.025-q20", policies.psi_policy(cfg.q_max), table_channel),
        )
        for case_id, grid, channel in cases:
            if grid is None:
                continue
            report = attempt(ops, f"mc {case_id}", simulate.simulate_chain, grid, channel, sk,
                             inputs["chain"])
            exact_mse = attempt(ops, f"exact mse {case_id}", mdp.evaluate_policy,
                                mdp.build_mdp(sk, channel, cfg.q_max, "mse"), grid)
            exact_aoi = attempt(ops, f"exact aoi {case_id}", mdp.evaluate_policy,
                                mdp.build_mdp(None, channel, cfg.q_max, "delay"), grid)
            if report is None or exact_mse is None or exact_aoi is None:
                continue
            chain.append((case_id, report, exact_mse, exact_aoi))
        for label, grid in (("optimal", optimal), ("arq", policies.arq_baseline_policy(cfg.q_max))):
            if grid is None:
                continue
            report = attempt(ops, f"mc trajectory {label}", simulate.simulate_trajectory,
                             grid, system, default_channel, sk, inputs["trajectory"])
            if report is not None:
                trajectory.append((label, report))
        return {"ops": ops, "chain": chain, "trajectory": trajectory}

    def check(self, inputs: dict, outputs: dict, reference: dict) -> list:
        ops = []
        for case_id, report, exact_mse, exact_aoi in outputs["chain"]:
            ok = mc_agrees(report.final_avg_mse, exact_mse, _se(report.run_final_mse),
                           report.final_avg_aoi, exact_aoi, _se(report.run_final_aoi))
            ops.append(Op(f"mc_vs_exact {case_id}", ok,
                          f"mse {report.final_avg_mse:.5g} vs {exact_mse:.5g}, "
                          f"aoi {report.final_avg_aoi:.5g} vs {exact_aoi:.5g}"))
        for label, report in outputs["trajectory"]:
            diff = report.run_final_mse - report.run_final_analytic_mse
            tol = TRAJ_Z * _se(diff) + TRAJ_REL * report.final_analytic_mse
            ok = abs(report.final_avg_mse - report.final_analytic_mse) <= tol
            ops.append(Op(f"empirical_vs_analytic {label}", ok,
                          f"{report.final_avg_mse:.5g} vs {report.final_analytic_mse:.5g} (tol {tol:.3g})"))
        return ops


WORKLOADS = {w.name: w for w in (CompareDefault(), SolveSweep(), SimulateShapes())}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())
