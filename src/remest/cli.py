"""Command-line front end.

Subcommands: stability, solve, simulate, compare, verify-policy. All take
--config PATH or --default (the packaged example configuration). Exit
codes: 0 success, 1 usage/config error, 2 stability check failed,
3 solver failure. The commands that solve the decision model apply the
stability gate: solve and compare (unless --force), and simulate with
--policy optimal or delay. This module builds every output file: it picks
what each holds, formats it and writes it with _write_json or _write_csv,
except the policy CSV, which policies.save_policy_csv writes because
policies.load_policy_csv reads it back. Every file goes through _write,
which keeps the files whose suffix is in outputs.formats and names each.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

from . import mdp, policies, simulate
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .lti import RiccatiError, riccati_steady_state

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNSTABLE = 2
EXIT_SOLVER = 3

POLICY_SOURCES = ("optimal", "myopic", "delay", "arq", "psi")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _load(args) -> ExperimentConfig:
    if args.default and args.config:
        raise ConfigError("give either --config or --default, not both")
    if args.config:
        return load_config(args.config)
    if args.default:
        return default_config()
    raise ConfigError("a configuration is required: --config PATH or --default")


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        overrides["out_dir"] = args.out
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _stability(cfg: ExperimentConfig):
    system = cfg.make_system()
    return cfg.make_channel().stability_check(system.rho_sq, system.unseen_modes())


def _unseen(report) -> str:
    names = ", ".join(dict.fromkeys(f"{mu:.6g}" for mu in report.unseen_modes))
    return (f"C cannot see the unstable eigenvalue(s) {names} of A (PBH rank test), "
            "so the sensor filter has no steady state")


def _filter(cfg: ExperimentConfig):
    """The process, the channel and the sensor's steady-state filter."""
    system = cfg.make_system()
    channel = cfg.make_channel()
    sk = riccati_steady_state(system, q_max=cfg.q_max)
    return system, channel, sk


def _solve_pipeline(cfg: ExperimentConfig, cost_kind: str, filt):
    """The cost_kind model and its MdpSolution; filt is _filter(cfg)."""
    _, channel, sk = filt
    model = mdp.build_mdp(sk, channel, cfg.q_max, cost_kind)
    return model, mdp.solve(model, tol=cfg.tol, max_iter=cfg.max_iter)


def _write(cfg: ExperimentConfig, artifacts) -> None:
    """Write the (file name, writer) pairs whose suffix is in outputs.formats, in order.

    writer(path) writes one file into the output directory, made first; each is named on stdout.
    """
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, writer in artifacts:
        path = out / name
        if path.suffix[1:] in cfg.formats:
            writer(path)
            print(f"wrote {path}")


def _write_json(data, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def _write_csv(header, rows, path) -> None:
    """One header row, then rows whose float entries the caller has already formatted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _report_csv(report: simulate.SimReport):
    """The writer of a report's per-step running averages, one row per time step."""
    rows = zip(range(1, report.horizon + 1), map(_fmt, report.avg_mse_vs_k.tolist()),
               map(_fmt, report.avg_aoi_vs_k.tolist()))
    return partial(_write_csv, ["k", "avg_mse", "avg_aoi"], rows)


def cmd_stability(args) -> int:
    cfg = _load(args)
    report = _stability(cfg)
    print(f"rho^2(A)      = {_fmt(report.rho_sq)}")
    print(f"lambda'       = {_fmt(report.lambda_prime)}")
    print(f"(1-l')*rho^2  = {_fmt(report.margin)}")
    print(f"stability     : {'PASS' if report.stable else 'FAIL'}")
    if report.unseen_modes:
        print(f"detectability : FAIL: {_unseen(report)}")
    return EXIT_OK if report.stable else EXIT_UNSTABLE


def _gate_stability(cfg: ExperimentConfig, force: bool,
                    hint: str = "use --force to solve the truncated model anyway") -> None:
    report = _stability(cfg)
    if report.stable or force:
        return
    reasons = [f"(1-lambda')*rho^2 = {_fmt(report.margin)} >= 1"] if report.margin >= 1.0 else []
    if report.unseen_modes:
        reasons.append(_unseen(report))
    raise _StabilityGateError(f"stability check failed ({'; '.join(reasons)}); {hint}")


class _StabilityGateError(RuntimeError):
    pass


def cmd_solve(args) -> int:
    cfg = _apply_overrides(_load(args), args)
    _gate_stability(cfg, args.force)
    model, solution = _solve_pipeline(cfg, args.cost, _filter(cfg))
    print(f"gain = {_fmt(solution.gain)}  ({solution.iterations} policy-iteration rounds, "
          f"span residual {solution.span_residual:.3e}, "
          f"{solution.span_residual_rel:.1e} of max |bias|)")
    bias = zip(model.r.tolist(), model.q.tolist(), map("{:.17g}".format, solution.bias.tolist()))
    summary = {"gain": solution.gain, "iterations": solution.iterations,
               "span_residual": solution.span_residual, "span_residual_rel": solution.span_residual_rel,
               "q_max": solution.policy.q_max, "cost_kind": solution.cost_kind}
    _write(cfg, [(f"policy_{args.cost}.csv", partial(policies.save_policy_csv, solution.policy)),
                 (f"bias_{args.cost}.csv", partial(_write_csv, ["r", "q", "bias"], bias)),
                 (f"solve_{args.cost}.json", partial(_write_json, summary))])
    return EXIT_OK


def _resolve_policy(cfg: ExperimentConfig, source: str, filt):
    """Build or load the requested policy grid; filt is _filter(cfg)."""
    if source in ("optimal", "delay"):
        cost_kind = "mse" if source == "optimal" else "delay"
        return _solve_pipeline(cfg, cost_kind, filt)[1].policy.relabeled(source)
    if source == "myopic":
        _, channel, sk = filt
        return policies.myopic_policy(sk, channel, cfg.q_max)
    if source == "arq":
        return policies.arq_baseline_policy(cfg.q_max)
    if source == "psi":
        return policies.psi_policy(cfg.q_max)
    path = Path(source)
    if not path.is_file():
        raise ConfigError(
            f"policy source {source!r} is neither one of {POLICY_SOURCES} nor an existing file"
        )
    try:
        return policies.load_policy_csv(path, label=path.stem)
    except ValueError as exc:
        raise ConfigError(f"cannot load policy file {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(_load(args), args)
    if args.policy in ("optimal", "delay"):
        _gate_stability(cfg, force=False, hint="to simulate the truncated model's policy anyway, "
                        "run remest solve --force and pass the policy CSV it writes to --policy")
    filt = _filter(cfg)
    system, channel, sk = filt
    grid = _resolve_policy(cfg, args.policy, filt)
    sim_cfg = cfg.make_sim_config()
    if sim_cfg.mode == "trajectory":
        report = simulate.simulate_trajectory(grid, system, channel, sk, sim_cfg)
    else:
        report = simulate.simulate_chain(grid, channel, sk, sim_cfg)
    summary = {"label": report.label, "mode": report.mode, "horizon": report.horizon,
               "runs": report.runs, "seed": report.seed, "final_avg_mse": report.final_avg_mse,
               "final_avg_aoi": report.final_avg_aoi, "mse_ci95_halfwidth": report.mse_ci95,
               "aoi_ci95_halfwidth": report.aoi_ci95, "saturation_events": report.saturation_events}
    if isinstance(report, simulate.TrajectoryReport):
        summary["final_analytic_mse"] = report.final_analytic_mse
    label = grid.label or "policy"
    _write(cfg, [(f"report_{label}.csv", _report_csv(report)),
                 (f"report_{label}.json", partial(_write_json, summary))])
    print(f"final average MSE = {_fmt(report.final_avg_mse)}  "
          f"final average AoI = {_fmt(report.final_avg_aoi)}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _apply_overrides(_load(args), args)
    if cfg.mode != "analytic":
        raise ConfigError(f"sim.mode is {cfg.mode!r}, but compare walks the analytic chain; "
                          "set sim.mode to 'analytic'")
    _gate_stability(cfg, args.force)
    filt = _filter(cfg)
    _, channel, sk = filt
    model, optimal = _solve_pipeline(cfg, "mse", filt)
    solved = {"optimal": optimal, "delay": _solve_pipeline(cfg, "delay", filt)[1]}
    zoo = [solved[source].policy.relabeled(source) if source in solved
           else _resolve_policy(cfg, source, filt) for source in POLICY_SOURCES]
    reports = simulate.simulate_chains(zoo, channel, sk, cfg.make_sim_config())

    rows = []
    for source, grid, report in zip(POLICY_SOURCES, zoo, reports):
        # the chain is the same under either cost, so a solved policy's final-round pi gives its row
        pi = solved[source].pi if source in solved else mdp.stationary_distribution(model, grid)
        rows.append({
            "policy": grid.label,
            "exact_avg_mse": float(pi @ model.cost),
            "exact_avg_aoi": float(pi @ model.age),
            "boundary_mass": float(pi[model.q == model.q_max].sum()),
            "sim_final_mse": report.final_avg_mse,
            "sim_final_aoi": report.final_avg_aoi,
            "switching": bool(policies.verify_switching(grid)),
        })
    by_label = {row["policy"]: row for row in rows}
    baseline = by_label["arq"]["sim_final_mse"]
    floor = float(model.cost[0])  # the one-step floor: the MSE cost of state (0, 0)
    for row in rows:
        mse = row["sim_final_mse"]
        row["mse_reduction_vs_arq_raw"] = 1.0 - mse / baseline if baseline > 0 else 0.0
        row["mse_reduction_vs_arq_excess"] = (
            1.0 - (mse - floor) / (baseline - floor) if baseline > floor else 0.0
        )
    # pi . cost of the solver's final round: the solver's gains, bit for bit
    table = {
        "gain_mse_optimal": by_label["optimal"]["exact_avg_mse"],
        "gain_delay_optimal": by_label["delay"]["exact_avg_aoi"],
        "baseline_floor": floor,
        "policies": rows,
    }
    cells = [[_fmt(v) if isinstance(v, float) else v for v in row.values()] for row in rows]
    _write(cfg, [(f"report_{grid.label}.csv", _report_csv(report)) for grid, report in zip(zoo, reports)]
           + [("compare.json", partial(_write_json, table)),
              ("compare.csv", partial(_write_csv, list(rows[0]), cells))])

    print(f"{'policy':>8} {'exact MSE':>12} {'sim MSE':>12} {'sim AoI':>10} {'switching':>9}")
    for row in rows:
        print(f"{row['policy']:>8} {_fmt(row['exact_avg_mse']):>12} "
              f"{_fmt(row['sim_final_mse']):>12} {_fmt(row['sim_final_aoi']):>10} "
              f"{str(row['switching']):>9}")
    return EXIT_OK


def cmd_verify_policy(args) -> int:
    grid = policies.load_policy_csv(args.policy, label=Path(args.policy).stem)
    report = policies.verify_switching(grid)
    print(f"states: {len(policies.enumerate_states(grid.q_max)[0])} (q_max={grid.q_max})")
    print(f"switching-type: {report.ok}")
    for (s1, s2, cond) in report.violations[:20]:
        print(f"  violation [{cond}]: action({s1})={grid.action(*s1)} "
              f"but action({s2})={grid.action(*s2)}")
    if len(report.violations) > 20:
        print(f"  ... {len(report.violations) - 20} more")
    return EXIT_OK


def _add_config_args(parser):
    parser.add_argument("--config", help="path to a JSON experiment configuration")
    parser.add_argument("--default", action="store_true",
                        help="use the packaged example configuration")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="remest",
        description="Solve and evaluate transmit-or-retransmit policies for "
                    "HARQ-based remote state estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="check the boundedness condition")
    _add_config_args(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("solve", help="solve the decision model and export the policy")
    _add_config_args(p)
    p.add_argument("--cost", choices=("mse", "delay"), default="mse")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--force", action="store_true", help="skip the stability gate")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="Monte-Carlo evaluation of one policy")
    _add_config_args(p)
    p.add_argument("--policy", required=True,
                   help=f"one of {', '.join(POLICY_SOURCES)}, or a policy CSV path")
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--seed", type=int, help="seed override")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="solve and simulate the whole policy zoo")
    _add_config_args(p)
    p.add_argument("--out", help="output directory (overrides the config)")
    p.add_argument("--seed", type=int, help="seed override")
    p.add_argument("--force", action="store_true", help="skip the stability gate")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify-policy", help="check a policy CSV for switching structure")
    p.add_argument("--policy", required=True, help="policy CSV path")
    p.set_defaults(func=cmd_verify_policy)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error (code 2) or the help (code 0)
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _StabilityGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (mdp.SolverError, RiccatiError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
