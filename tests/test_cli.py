import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from remest import (HarqModel, load_policy_csv, mdp, psi_policy, riccati_steady_state, simulate_chain,
                    verify_switching)
from remest.cli import main
from remest.config import _LAYOUT, ConfigError, ExperimentConfig, default_config, load_config
from remest.policies import enumerate_states

SMALL_CONFIG = {
    "system": {
        "A": [[1.8, 0.2], [0.2, 0.8]],
        "C": [[1.0, 1.0]],
        "Q": [[1.0, 0.0], [0.0, 1.0]],
        "R": [[1.0]],
    },
    "channel": {"lambda": 0.8, "h": 0.5},
    "mdp": {"q_max": 8, "tol": 1e-9, "max_iter": 100000},
    "sim": {"K": 300, "runs": 120, "seed": 5, "mode": "analytic", "initial_q": 0},
    "outputs": {"directory": "out", "formats": ["csv", "json"]},
}


@pytest.fixture()
def small_config(tmp_path):
    cfg = dict(SMALL_CONFIG)
    cfg["outputs"] = {"directory": str(tmp_path / "out"), "formats": ["csv", "json"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path / "out"


def run_cli(*argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return main(list(argv))


def _wrote(stdout: str) -> list[str]:
    return [line for line in stdout.splitlines() if line.startswith("wrote")]


def _solved(path, cost):
    """The config at path, its filter and the solution of remest solve --cost on it."""
    cfg = load_config(path)
    sk = riccati_steady_state(cfg.make_system(), q_max=cfg.q_max)
    model = mdp.build_mdp(sk if cost == "mse" else None, cfg.make_channel(), cfg.q_max, cost)
    return cfg, sk, mdp.solve(model, tol=cfg.tol, max_iter=cfg.max_iter)


class TestConfig:
    def test_default_config_loads(self):
        cfg = default_config()
        assert cfg.q_max == 20
        assert cfg.horizon == 2000 and cfg.runs == 2000
        assert cfg.lam == 0.8 and cfg.h == 0.5

    def test_round_trip_identity(self, small_config):
        path, _ = small_config
        cfg = load_config(path)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert cfg == again
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_keys_rejected(self):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["extra"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["mdp"]["qmax"] = 3
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_bad_formats_rejected(self):
        # a non-list used to escape as a TypeError traceback
        for formats in (5, ["csv", "xml"]):
            bad = json.loads(json.dumps(SMALL_CONFIG))
            bad["outputs"]["formats"] = formats
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict(bad)

    def test_channel_needs_h_or_table(self):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        del bad["channel"]["h"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)
        bad["channel"]["h"] = 0.5
        bad["channel"]["g_table"] = [0.2, 0.1]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(bad)

    def test_table_channel(self):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        del cfg["channel"]["h"]
        cfg["channel"]["g_table"] = [0.2, 0.05, 0.01]
        loaded = ExperimentConfig.from_dict(cfg)
        model = loaded.make_channel()
        assert model.failure_prob(2) == 0.01

    def test_inconsistent_table_lambda(self):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        del cfg["channel"]["h"]
        cfg["channel"]["g_table"] = [0.3, 0.05]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_invalid_matrix_rejected(self):
        bad = json.loads(json.dumps(SMALL_CONFIG))
        bad["system"]["R"] = [[0.0]]
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(bad)

    def test_max_iter_below_one_is_a_config_error(self, tmp_path, capsys):
        # it used to reach the Riccati step and exit 3
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["mdp"]["max_iter"] = 0
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 1
        assert "mdp.max_iter" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, where):
        # rejected before any model is solved or any file is written
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        argv = ["compare", "--config", str(tmp_path / "s.json")]
        if where == "config":
            cfg["sim"]["seed"] = -1
        else:
            argv += ["--seed", "-1"]
        (tmp_path / "s.json").write_text(json.dumps(cfg))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err and "-1" in err
        assert not (tmp_path / "o").exists()

    def test_non_finite_matrix_is_a_config_error(self, tmp_path, capsys):
        # Python's json reads NaN, so the matrix check must catch it
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"]["A"] = [[1.8, float("nan")], [0.2, 0.8]]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("stability", "--config", str(path)) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("layout", ["h", "g_table", "default"])
    def test_round_trip_every_layout(self, layout):
        if layout == "default":
            cfg = default_config()
        else:
            data = json.loads(json.dumps(SMALL_CONFIG))
            if layout == "g_table":
                del data["channel"]["h"]
                data["channel"]["g_table"] = [0.2, 0.05, 0.01]
            cfg = ExperimentConfig.from_dict(data)
        out = cfg.to_dict()
        assert ExperimentConfig.from_dict(out) == cfg
        assert {name: set(section) for name, section in out.items()} == \
            {name: set(keys) for name, keys in _LAYOUT.items()}

    @pytest.mark.parametrize("section, key, value", [
        ("mdp", "q_max", 20.9), ("mdp", "max_iter", 1000.5), ("sim", "K", 2000.7),
        ("sim", "runs", True), ("sim", "seed", True), ("sim", "initial_q", 0.5),
    ])
    def test_integer_key_takes_only_integers(self, tmp_path, capsys, section, key, value):
        # int() used to truncate a fraction and read a bool as 0 or 1
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg[section][key] = value
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "i.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("channel", "lambda", True), ("channel", "h", True),
        ("channel", "g_table", [0.2, True]), ("system", "A", [[1.8, True], [0.2, 0.8]]),
        ("system", "A", ["12", "34"]),
        ("mdp", "tol", True), ("sim", "mode", 5), ("outputs", "directory", 5),
        ("outputs", "formats", "json"),
    ])
    def test_key_takes_only_its_type(self, tmp_path, capsys, section, key, value):
        # float(), str() and tuple() used to read a bool as 1.0, 5 as "5" and "json" or "12" as
        # its characters
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        if key == "g_table":
            del cfg["channel"]["h"]
        cfg[section][key] = value
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("channel", "lambda", "0.8"), ("channel", "h", "0.5"), ("mdp", "tol", "1e-9"),
        ("sim", "K", "12"), ("mdp", "q_max", "8"), ("sim", "seed", "5"),
        ("channel", "g_table", [0.2, "0.05"]), ("system", "A", [[1.8, "0.2"], [0.2, 0.8]]),
    ])
    def test_numeric_string_is_rejected(self, tmp_path, capsys, section, key, value):
        # float() and int() used to read "0.8" as 0.8 and "12" as 12
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        if key == "g_table":
            del cfg["channel"]["h"]
        cfg[section][key] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 1
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_integral_float_loads_as_int(self):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["sim"]["K"] = 3e2
        horizon = ExperimentConfig.from_dict(cfg).horizon
        assert horizon == 300 and type(horizon) is int

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tol_is_a_config_error(self, tmp_path, capsys, tol):
        # inf stopped the solver after one step with a wrong gain; nan ran max_iter and exited 3
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["mdp"]["tol"] = tol
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 1
        assert "mdp.tol" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("channel", [{"lambda": 0.8, "h": 0.5}, {"lambda": 0.8, "g_table": [0.2, 0.1]}],
                             ids=["geometric", "g_table"])
    @pytest.mark.parametrize("q_max", [0, -3])
    def test_q_max_below_one_is_a_config_error(self, tmp_path, capsys, channel, q_max):
        # the geometric channel, built with r_cap=q_max, used to report it as r_cap
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["channel"] = channel
        cfg["mdp"]["q_max"] = q_max
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "q.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 1
        assert "mdp.q_max" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(mdp=5), "section 'mdp' must be an object"),
        (lambda cfg: cfg.pop("system"), "missing required key 'system' in 'config'"),
        (lambda cfg: cfg["system"].pop("A"), "missing required key 'A' in 'system'"),
    ], ids=["section_not_an_object", "missing_section", "missing_key"])
    def test_malformed_layout_is_a_config_error(self, tmp_path, capsys, edit, message):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        edit(cfg)
        path = tmp_path / "l.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("stability", "--config", str(path)) == 1
        assert message in capsys.readouterr().err

    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys):
        assert run_cli("stability", "--config", str(tmp_path / "absent.json")) == 1
        assert "cannot read config" in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "--default", "--cost", "foo"], ["simulate", "--default"], ["bogus"], [],
    ], ids=["bad_choice", "missing_policy", "unknown_command", "no_command"])
    def test_usage_error_exits_1(self, capsys, argv):
        # argparse exits 2 on its own, the stability-failure code
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: remest" in capsys.readouterr().out


class TestStabilityCommand:
    def test_default_passes(self, capsys):
        assert run_cli("stability", "--default") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "0.338014" in out
        assert len(out.splitlines()) == 4

    def test_bad_channel_fails(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["channel"] = {"lambda": 0.1, "h": 1.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("stability", "--config", str(path)) == 2
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("a, c, name", [
        ([[3.0, 0.0], [0.0, 0.5]], [[0.0, 1.0]], "3"),
        ([[1.5, 0.0], [0.0, 1.5]], [[1.0, 0.0]], "1.5"),  # repeated eigenvalue
    ], ids=["diag3", "repeated"])
    def test_undetectable_mode_fails_the_gate(self, tmp_path, capsys, a, c, name):
        # (1-lambda')*rho^2 < 1 here, but C cannot see an unstable mode
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"].update(A=a, C=c)
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "u.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("stability", "--config", str(path)) == 2
        out = capsys.readouterr().out
        assert "stability     : FAIL" in out
        assert f"eigenvalue(s) {name} of A" in out
        for command in ("solve", "compare"):
            assert run_cli(command, "--config", str(path)) == 2
            err = capsys.readouterr().err
            assert f"eigenvalue(s) {name} of A" in err and "--force" in err
        assert not (tmp_path / "o").exists()

    def test_rotating_process_passes(self, tmp_path, capsys):
        # the dominant modes are the complex pair +-1.2i, both seen by C
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"] = {"A": [[0.0, -1.2, 0.0], [1.2, 0.0, 0.0], [0.0, 0.0, 0.5]],
                         "C": [[1.0, 1.0, 1.0]], "Q": np.eye(3).tolist(), "R": [[1.0]]}
        path = tmp_path / "r.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("stability", "--config", str(path)) == 0
        out = capsys.readouterr().out
        assert "stability     : PASS" in out and "detectability" not in out

    def test_nan_g_table_is_a_config_error(self, tmp_path, capsys):
        # NaN passed the range check and gave lambda' = nan, then exit 2 with no reason
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["channel"] = {"lambda": 0.8, "g_table": [0.2, 0.1, math.nan, 0.05]}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(cfg))
        for command in ("stability", "solve", "compare"):
            assert run_cli(command, "--config", str(path)) == 1
            assert "g_table entries must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("a", [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]],
                             ids=["zero", "nilpotent"])
    def test_zero_spectral_radius(self, tmp_path, capsys, a):
        # rho(A) = 0 meets the boundedness condition with margin 0; every command used to reject it
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"]["A"] = a
        cfg["sim"].update(K=50, runs=20)
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(cfg))
        for argv in (["stability"], ["solve"], ["simulate", "--policy", "optimal"], ["compare"]):
            assert run_cli(*argv, "--config", str(path)) == 0
        assert "(1-l')*rho^2  = 0\n" in capsys.readouterr().out

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli("stability", "--config", str(path)) == 1

    def test_missing_config(self):
        assert run_cli("stability") == 1

    def test_both_sources_rejected(self, small_config):
        path, _ = small_config
        assert run_cli("stability", "--default", "--config", str(path)) == 1


class TestSolveCommand:
    def test_solve_writes_artifacts(self, small_config, capsys):
        path, out = small_config
        assert run_cli("solve", "--config", str(path), "--cost", "mse") == 0
        grid = load_policy_csv(out / "policy_mse.csv")
        assert verify_switching(grid).ok
        bias_lines = (out / "bias_mse.csv").read_text().strip().splitlines()
        assert bias_lines[0] == "r,q,bias"
        summary = json.loads((out / "solve_mse.json").read_text())
        assert set(summary) == {"gain", "iterations", "span_residual", "span_residual_rel", "q_max",
                                "cost_kind"}
        assert "gain" in capsys.readouterr().out

    def test_bias_csv_and_summary(self, small_config):
        path, out = small_config
        assert run_cli("solve", "--config", str(path)) == 0
        _, _, solution = _solved(path, "mse")
        lines = (out / "bias_mse.csv").read_text().strip().splitlines()
        assert lines[0] == "r,q,bias"
        assert len(lines) == 1 + len(list(zip(*enumerate_states(8))))
        # 17 significant digits give back every float64 of the bias
        assert [float(line.split(",")[2]) for line in lines[1:]] == solution.bias.tolist()
        summary = json.loads((out / "solve_mse.json").read_text())
        assert summary["q_max"] == 8
        assert summary["cost_kind"] == "mse"
        assert summary["span_residual"] < 1e-3
        assert summary["span_residual_rel"] == solution.span_residual_rel
        assert solution.span_residual_rel == pytest.approx(
            solution.span_residual / np.abs(solution.bias).max(), rel=1e-15)
        assert summary["gain"] == solution.gain

    def test_delay_policy_differs_with_more_fresh_states(self, small_config):
        path, out = small_config
        assert run_cli("solve", "--config", str(path), "--cost", "mse") == 0
        assert run_cli("solve", "--config", str(path), "--cost", "delay") == 0
        mse_grid = load_policy_csv(out / "policy_mse.csv")
        delay_grid = load_policy_csv(out / "policy_delay.csv")
        assert mse_grid != delay_grid
        fresh = [sum(g.action(*s) == 0 for s in zip(*enumerate_states(g.q_max)))
                 for g in (delay_grid, mse_grid)]
        assert fresh[0] > fresh[1]

    def test_minimal_grid(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["mdp"]["q_max"] = 1
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 0
        grid = load_policy_csv(tmp_path / "o" / "policy_mse.csv")
        assert len(list(zip(*enumerate_states(grid.q_max)))) == 3

    def test_diverging_riccati_is_a_solver_error(self, tmp_path, capsys):
        # the unstable mode 3 is invisible through C, so the filter diverges
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"] = {"A": [[3.0, 0.0], [0.0, 0.5]], "C": [[0.0, 1.0]],
                         "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "d.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path), "--force") == 3
        assert "solver error:" in capsys.readouterr().err

    def test_table_channel_solves(self, tmp_path):
        # value iteration ran out of sweeps on this stable model (exit 3)
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["channel"] = {"lambda": 0.8, "g_table": [0.2] + [0.1] * 20}
        cfg["mdp"]["q_max"] = 20
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 0
        assert verify_switching(load_policy_csv(tmp_path / "o" / "policy_mse.csv")).ok

    def test_stiff_stable_model_solves(self, tmp_path, capsys):
        # P_pred ~ 1e8 >> R; the Riccati iteration ran out of iterations here (exit 3)
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"] = {"A": [[1e4]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
        cfg["channel"] = {"lambda": 0.999999, "h": 0.001}
        cfg["mdp"]["q_max"] = 3
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("stability", "--config", str(path)) == 0
        assert run_cli("solve", "--config", str(path)) == 0
        assert "gain" in capsys.readouterr().out

    def test_reports_only_the_files_it_wrote(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        out = tmp_path / "o"
        cfg["outputs"] = {"directory": str(out), "formats": ["json"]}
        path = tmp_path / "j.json"
        path.write_text(json.dumps(cfg))
        out.mkdir()
        for stale in ("policy_mse.csv", "bias_mse.csv"):
            (out / stale).write_text("")
        assert run_cli("solve", "--config", str(path)) == 0
        assert _wrote(capsys.readouterr().out) == [f"wrote {out / 'solve_mse.json'}"]

    def test_out_overrides_the_config_directory(self, small_config, tmp_path, capsys):
        path, out = small_config
        other = tmp_path / "other"
        assert run_cli("solve", "--config", str(path), "--out", str(other)) == 0
        names = ("policy_mse.csv", "bias_mse.csv", "solve_mse.json")
        assert sorted(p.name for p in other.iterdir()) == sorted(names)
        assert not out.exists()
        assert _wrote(capsys.readouterr().out) == [f"wrote {other / name}" for name in names]

    def test_out_naming_a_file_is_a_config_error(self, small_config, tmp_path, capsys):
        path, _ = small_config
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("solve", "--config", str(path), "--out", str(taken)) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_cost_table_is_a_config_error(self, tmp_path, capsys):
        # Tr f^(q+1)(p_bar0) ~ 1e6^(q+1) overflows at q = 51, inside the q_max + 5 table
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"] = {"A": [[1000.0]], "C": [[1.0]], "Q": [[1.0]], "R": [[1.0]]}
        cfg["mdp"]["q_max"] = 60
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["solve", "--config", str(path), "--force"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: staleness cost at q = 51 overflows")
        assert "gain" not in captured.out
        assert not (tmp_path / "o").exists()

    def test_solves_past_the_old_dense_limit(self, tmp_path, capsys):
        # q_max 151 once needed a 1.08 GB dense Poisson matrix and exited 1
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["mdp"]["q_max"] = 151
        out = tmp_path / "o"
        cfg["outputs"]["directory"] = str(out)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 0
        assert "of max |bias|" in capsys.readouterr().out
        loaded = load_config(path)
        sk = riccati_steady_state(loaded.make_system(), q_max=151)
        model = mdp.build_mdp(sk, loaded.make_channel(), 151, "mse")
        summary = json.loads((out / "solve_mse.json").read_text())
        assert summary["gain"] == mdp.evaluate_policy(model, load_policy_csv(out / "policy_mse.csv"))

    def test_visits_past_the_limit_is_a_config_error(self):
        # past the largest q_max that fits, each call's elimination needs 1.00 GiB: solve's,
        # with the bias and the Q-values, at q_max 2169 (2355535 states), and evaluate_policy's
        # at 2340 (2741311 states); the error comes before anything of that size is allocated
        for q_max, bias, need, fits in ((2169, True, 1074048584, 2168), (2340, False, 1074504856, 2339)):
            model = mdp.build_mdp(None, HarqModel(0.8, 0.5, r_cap=q_max), q_max, "delay")
            grid = psi_policy(q_max)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"the largest q_max that fits is {fits}") as info:
                    mdp.solve(model) if bias else mdp.evaluate_policy(model, grid)
                assert f"{need} bytes" in str(info.value)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**24
            del model, grid  # one model of millions of states at a time

    def test_the_stated_bytes_cover_the_elimination(self):
        # the bytes the limit counts for each call bound what it holds at once; they count the
        # worst case, a policy whose successes enter every diagonal state, as psi's do; the
        # optimal MSE policy's enter 99 of the 101 here, the delay policy's far fewer
        model = mdp.build_mdp(None, HarqModel(0.8, 0.5, r_cap=100), 100, "delay")
        sk = riccati_steady_state(default_config().make_system(), q_max=100)
        mse = mdp.build_mdp(sk, HarqModel(0.8, 0.5, r_cap=100), 100, "mse")
        for bias, call in ((True, lambda: mdp.solve(mse)),
                           (False, lambda: mdp.evaluate_policy(model, psi_policy(100)))):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert 0.9 * mdp._elimination_bytes(100, bias) < peak <= mdp._elimination_bytes(100, bias)

    def test_stability_gate_and_force(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["channel"] = {"lambda": 0.1, "h": 1.0}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 2
        assert run_cli("solve", "--config", str(path), "--force") == 0


def _solve_default(tmp_path, edit):
    """remest solve on the default config after edit(cfg dict): its exit code, gain and policy CSV."""
    cfg = default_config().to_dict()
    edit(cfg)
    out = tmp_path / "o"
    cfg["outputs"]["directory"] = str(out)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    status = run_cli("solve", "--config", str(path))
    if status:
        return status, None, None
    gain = json.loads((out / "solve_mse.json").read_text())["gain"]
    return status, gain, (out / "policy_mse.csv").read_bytes()


@pytest.fixture(scope="module")
def default_solve(tmp_path_factory):
    return _solve_default(tmp_path_factory.mktemp("default"), lambda cfg: None)


class TestSolverKeys:
    """mdp.tol and mdp.max_iter configure policy iteration; a change of units changes no answer."""

    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1e3, 1e10])
    def test_units_of_q_and_r_change_no_answer(self, tmp_path, default_solve, s):
        # the Riccati step's absolute stop gave gain / s 30% low at s = 1e-9 and exit 3 at 1e10
        def scale(cfg):
            for key in ("Q", "R"):
                cfg["system"][key] = [[s * x for x in row] for row in cfg["system"][key]]
        status, gain, policy = _solve_default(tmp_path, scale)
        assert status == 0
        assert gain / s == pytest.approx(default_solve[1], rel=1e-8)
        assert policy == default_solve[2]

    @pytest.mark.parametrize("key, value", [("max_iter", 10), ("tol", 1e-4)])
    def test_solver_keys_leave_the_filter_alone(self, tmp_path, default_solve, key, value):
        # they reached the Riccati step: max_iter 10 exited 3 and tol 1e-4 moved the gain to 17.308488
        status, gain, policy = _solve_default(tmp_path, lambda cfg: cfg["mdp"].update({key: value}))
        assert (status, gain, policy) == default_solve


class TestSimulateCommand:
    def test_named_policies_and_files(self, small_config):
        path, out = small_config
        for source in ("arq", "psi", "myopic"):
            assert run_cli("simulate", "--config", str(path), "--policy", source) == 0
            lines = (out / f"report_{source}.csv").read_text().strip().splitlines()
            assert lines[0] == "k,avg_mse,avg_aoi"
            assert len(lines) == 301
            summary = json.loads((out / f"report_{source}.json").read_text())
            assert summary["runs"] == 120

    def test_report_csv_format(self, small_config):
        path, out = small_config
        assert run_cli("simulate", "--config", str(path), "--policy", "arq") == 0
        lines = (out / "report_arq.csv").read_text().strip().splitlines()
        assert lines[0] == "k,avg_mse,avg_aoi"
        assert len(lines) == 301
        assert lines[1].startswith("1,")

    def test_report_summary_fields(self, small_config, tmp_path):
        path, out = small_config
        assert run_cli("simulate", "--config", str(path), "--policy", "arq") == 0
        summary = json.loads((out / "report_arq.json").read_text())
        assert summary["runs"] == 120
        assert summary["seed"] == 5
        assert "mse_ci95_halfwidth" in summary
        # a trajectory report adds the analytic MSE of its realized staleness
        cfg = json.loads(path.read_text())
        cfg["sim"].update(mode="trajectory", K=30, runs=40)
        out = tmp_path / "o"
        cfg["outputs"]["directory"] = str(out)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path), "--policy", "arq") == 0
        trajectory = json.loads((out / "report_arq.json").read_text())
        assert set(trajectory) == set(summary) | {"final_analytic_mse"}

    @pytest.mark.parametrize("source, cost", [("optimal", "mse"), ("delay", "delay")])
    def test_solved_policy_source(self, small_config, source, cost):
        path, out = small_config
        assert run_cli("simulate", "--config", str(path), "--policy", source) == 0
        assert (out / f"report_{source}.csv").exists()
        summary = json.loads((out / f"report_{source}.json").read_text())
        cfg, sk, solution = _solved(path, cost)
        report = simulate_chain(solution.policy, cfg.make_channel(), sk, cfg.make_sim_config())
        assert summary["label"] == source
        assert summary["final_avg_mse"] == report.final_avg_mse

    def test_policy_from_file(self, small_config):
        path, out = small_config
        assert run_cli("solve", "--config", str(path)) == 0
        policy_file = out / "policy_mse.csv"
        assert run_cli("simulate", "--config", str(path), "--policy", str(policy_file)) == 0
        assert (out / "report_policy_mse.csv").exists()

    def test_missing_policy_file(self, small_config):
        path, _ = small_config
        assert run_cli("simulate", "--config", str(path), "--policy", "nope.csv") == 1

    def test_file_that_is_not_a_policy(self, small_config, tmp_path, capsys):
        path, _ = small_config
        other = tmp_path / "notes.csv"
        other.write_text("a,b\n1,2\n")
        assert run_cli("simulate", "--config", str(path), "--policy", str(other)) == 1
        assert "cannot load policy file" in capsys.readouterr().err

    def test_seed_override_changes_output(self, small_config):
        path, out = small_config
        assert run_cli("simulate", "--config", str(path), "--policy", "arq", "--seed", "5") == 0
        first = (out / "report_arq.csv").read_bytes()
        assert run_cli("simulate", "--config", str(path), "--policy", "arq", "--seed", "6") == 0
        second = (out / "report_arq.csv").read_bytes()
        assert first != second

    def test_byte_identical_reruns(self, small_config):
        path, out = small_config
        assert run_cli("simulate", "--config", str(path), "--policy", "psi") == 0
        first = (out / "report_psi.csv").read_bytes()
        assert run_cli("simulate", "--config", str(path), "--policy", "psi") == 0
        assert (out / "report_psi.csv").read_bytes() == first

    def test_trajectory_mode(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["sim"] = {"K": 30, "runs": 40, "seed": 3, "mode": "trajectory", "initial_q": 0}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path), "--policy", "arq") == 0
        summary = json.loads((tmp_path / "o" / "report_arq.json").read_text())
        assert summary["mode"] == "trajectory"
        assert "final_analytic_mse" in summary

    def test_long_trajectory_run(self, tmp_path):
        # 2000 steps of the default process, whose state would leave float64 near step 1160
        cfg = default_config().to_dict()
        cfg["sim"] = {"K": 2000, "runs": 50, "seed": 3, "mode": "trajectory", "initial_q": 0}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "long.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path), "--policy", "arq") == 0
        summary = json.loads((tmp_path / "o" / "report_arq.json").read_text())
        assert summary["horizon"] == 2000
        assert math.isfinite(summary["final_avg_mse"]) and math.isfinite(summary["final_analytic_mse"])

    def test_solved_policy_passes_the_stability_gate(self, tmp_path, capsys):
        # (1 - lambda') * rho^2 = 2.13: solve and compare exit 2, so simulating their policy does too
        cfg = default_config().to_dict()
        cfg["channel"] = {"lambda": 0.3, "h": 0.9}
        cfg["sim"].update(K=50, runs=10)
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(cfg))
        for source in ("optimal", "delay"):
            assert run_cli("simulate", "--config", str(path), "--policy", source) == 2
            err = capsys.readouterr().err
            assert "stability check failed" in err and "remest solve --force" in err
        assert not (tmp_path / "o").exists()
        # the other sources solve nothing and stay ungated
        assert run_cli("simulate", "--config", str(path), "--policy", "arq") == 0

    @pytest.mark.parametrize("mode, initial_q", [("analytic", 9), ("trajectory", 1)])
    def test_bad_initial_q_is_a_config_error(self, tmp_path, capsys, mode, initial_q):
        # rejected when the config loads, before any model is solved
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["sim"] = {"K": 30, "runs": 4, "seed": 3, "mode": mode, "initial_q": initial_q}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "q.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", str(path), "--policy", "optimal") == 1
        assert "sim.initial_q" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCompareCommand:
    def test_compare_table(self, small_config, capsys):
        path, out = small_config
        assert run_cli("compare", "--config", str(path)) == 0
        table = json.loads((out / "compare.json").read_text())
        rows = {row["policy"]: row for row in table["policies"]}
        assert set(rows) == {"optimal", "myopic", "delay", "arq", "psi"}
        best = min(rows.values(), key=lambda r: r["sim_final_mse"])
        assert best["policy"] == "optimal"
        assert rows["optimal"]["switching"] is True
        assert rows["optimal"]["exact_avg_mse"] <= rows["myopic"]["exact_avg_mse"] + 1e-6
        # the solver's gain is the exact evaluation of its own policy, bit for bit
        assert table["gain_mse_optimal"] == rows["optimal"]["exact_avg_mse"]
        assert table["gain_delay_optimal"] == rows["delay"]["exact_avg_aoi"]
        # per-policy report files back the comparison table
        for name in rows:
            assert (out / f"report_{name}.csv").exists()
        csv_lines = (out / "compare.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 6
        stdout = capsys.readouterr().out
        assert "policy" in stdout
        # every file is named, in the order written
        assert _wrote(stdout) == [f"wrote {out / name}" for name in (
            *(f"report_{label}.csv" for label in ("optimal", "myopic", "delay", "arq", "psi")),
            "compare.json", "compare.csv")]

    def test_gains_are_the_solve_command_gains(self, small_config):
        # compare solves each model as solve does, so the gains match solve_*.json exactly
        path, out = small_config
        assert run_cli("compare", "--config", str(path)) == 0
        table = json.loads((out / "compare.json").read_text())
        for cost in ("mse", "delay"):
            assert run_cli("solve", "--config", str(path), "--cost", cost) == 0
            solved = json.loads((out / f"solve_{cost}.json").read_text())
            assert table[f"gain_{cost}_optimal"] == solved["gain"]

    def test_formats_select_files_by_suffix(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["sim"].update(K=50, runs=20)
        out = tmp_path / "o"
        cfg["outputs"] = {"directory": str(out), "formats": ["json"]}
        path = tmp_path / "j.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("compare", "--config", str(path)) == 0
        assert [p.name for p in out.iterdir()] == ["compare.json"]
        assert _wrote(capsys.readouterr().out) == [f"wrote {out / 'compare.json'}"]

    def test_boundary_mass(self, tmp_path):
        # exact, so a short simulation leaves it unchanged
        cfg = default_config().to_dict()
        cfg["sim"].update(K=50, runs=20)
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "b.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("compare", "--config", str(path)) == 0
        table = json.loads((tmp_path / "o" / "compare.json").read_text())
        rows = {row["policy"]: row for row in table["policies"]}
        assert all(0.0 <= row["boundary_mass"] <= 1.0 for row in rows.values())
        assert rows["optimal"]["boundary_mass"] < 1e-3
        # always-fresh sits at q = q_max after q_max failures in a row: (1 - lambda)^q_max
        assert rows["arq"]["boundary_mass"] == pytest.approx(0.2**20, rel=1e-12)

    def test_zero_process_noise(self, tmp_path):
        # Q = 0 is a valid covariance: every MSE is 0, so there is nothing to reduce against arq
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["system"]["Q"] = [[0.0, 0.0], [0.0, 0.0]]
        cfg["sim"].update(K=50, runs=20)
        out = tmp_path / "o"
        cfg["outputs"]["directory"] = str(out)
        path = tmp_path / "q.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("compare", "--config", str(path)) == 0
        for row in json.loads((out / "compare.json").read_text())["policies"]:
            assert row["exact_avg_mse"] == 0.0
            assert row["mse_reduction_vs_arq_raw"] == 0.0
            assert row["mse_reduction_vs_arq_excess"] == 0.0

    def test_perfect_channel_equalizes(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["channel"] = {"lambda": 1.0, "h": 0.5}
        cfg["sim"] = {"K": 100, "runs": 20, "seed": 0, "mode": "analytic", "initial_q": 0}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("compare", "--config", str(path)) == 0
        table = json.loads((tmp_path / "o" / "compare.json").read_text())
        values = [row["sim_final_mse"] for row in table["policies"]]
        assert np.ptp(values) < 1e-9

    def test_trajectory_mode_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # compare walks the analytic chain only; the mode is rejected before any solve
        cfg = default_config().to_dict()
        cfg["sim"] = {"K": 40, "runs": 20, "seed": 3, "mode": "trajectory", "initial_q": 0}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))

        def no_solve(*args, **kwargs):
            raise AssertionError("compare solved a model before rejecting sim.mode")

        monkeypatch.setattr(mdp, "solve", no_solve)
        assert run_cli("compare", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "sim.mode" in err and "analytic chain" in err
        assert "simulate_chain" not in err
        assert not (tmp_path / "o").exists()


class TestVerifyPolicyCommand:
    def test_verify_exported_policy(self, small_config, capsys):
        path, out = small_config
        assert run_cli("solve", "--config", str(path)) == 0
        assert run_cli("verify-policy", "--policy", str(out / "policy_mse.csv")) == 0
        assert "switching-type: True" in capsys.readouterr().out

    def test_violations_reported(self, tmp_path, capsys):
        rows = ["r,q,action"]
        for q in range(3):
            for r in range(q + 1):
                action = 1 if (r, q) == (0, 1) else 0
                rows.append(f"{r},{q},{action}")
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n")
        assert run_cli("verify-policy", "--policy", str(path)) == 0
        out = capsys.readouterr().out
        assert "switching-type: False" in out
        assert "violation" in out

    def test_many_violations_are_summed_up(self, tmp_path, capsys):
        r, q = enumerate_states(8)
        path = tmp_path / "checker.csv"
        path.write_text("r,q,action\n" + "".join(f"{a},{b},{(a + b) % 2}\n" for a, b in zip(r, q)))
        violations = len(verify_switching(load_policy_csv(path)).violations)
        assert violations > 20
        assert run_cli("verify-policy", "--policy", str(path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum("violation [" in line for line in lines) == 20
        assert lines[-1] == f"  ... {violations - 20} more"

    def test_unreadable_policy(self):
        assert run_cli("verify-policy", "--policy", "missing.csv") == 1


class TestReadme:
    def test_library_example_runs(self, tmp_path):
        # the python block after "Library use mirrors the CLI", run as a script in a fresh interpreter
        root = Path(__file__).resolve().parents[1]
        text = (root / "README.md").read_text()
        block = text[text.index("Library use mirrors the CLI"):].split("```python\n", 1)[1].split("```", 1)[0]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                                      os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        (gain, final_mse), (aoi, final_aoi), (reduction,) = (
            list(map(float, line.split())) for line in done.stdout.splitlines())
        assert gain == pytest.approx(final_mse, rel=0.05)
        assert aoi == pytest.approx(final_aoi, rel=0.05)
        assert 0.0 < reduction < 1.0
        assert not list(tmp_path.iterdir())  # the library writes no files
