import json
import math
import warnings

import numpy as np
import pytest

from remest import load_policy_csv, mdp, verify_switching
from remest.cli import main
from remest.config import ConfigError, ExperimentConfig, default_config, load_config

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
        assert set(summary) == {"gain", "iterations", "span_residual", "q_max", "cost_kind"}
        assert "gain" in capsys.readouterr().out

    def test_delay_policy_differs_with_more_fresh_states(self, small_config):
        path, out = small_config
        assert run_cli("solve", "--config", str(path), "--cost", "mse") == 0
        assert run_cli("solve", "--config", str(path), "--cost", "delay") == 0
        mse_grid = load_policy_csv(out / "policy_mse.csv")
        delay_grid = load_policy_csv(out / "policy_delay.csv")
        assert mse_grid != delay_grid
        fresh = [sum(g.action(*s) == 0 for s in g.states()) for g in (delay_grid, mse_grid)]
        assert fresh[0] > fresh[1]

    def test_minimal_grid(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["mdp"]["q_max"] = 1
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 0
        grid = load_policy_csv(tmp_path / "o" / "policy_mse.csv")
        assert len(grid.states()) == 3

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
        wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
        assert wrote == [f"wrote {out / 'solve_mse.json'}"]

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

    def test_stability_gate_and_force(self, tmp_path):
        cfg = json.loads(json.dumps(SMALL_CONFIG))
        cfg["channel"] = {"lambda": 0.1, "h": 1.0}
        cfg["outputs"]["directory"] = str(tmp_path / "o")
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 2
        assert run_cli("solve", "--config", str(path), "--force") == 0


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

    def test_policy_from_file(self, small_config):
        path, out = small_config
        assert run_cli("solve", "--config", str(path)) == 0
        policy_file = out / "policy_mse.csv"
        assert run_cli("simulate", "--config", str(path), "--policy", str(policy_file)) == 0
        assert (out / "report_policy_mse.csv").exists()

    def test_missing_policy_file(self, small_config):
        path, _ = small_config
        assert run_cli("simulate", "--config", str(path), "--policy", "nope.csv") == 1

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
        assert "policy" in capsys.readouterr().out

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

    def test_unreadable_policy(self):
        assert run_cli("verify-policy", "--policy", "missing.csv") == 1
