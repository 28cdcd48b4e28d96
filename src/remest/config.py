"""Experiment configuration: a single JSON document with strict keys.

Matrices are nested arrays; "lambda" is the fresh-transmission success
probability. Every construction of an ExperimentConfig, loaded or
overridden with dataclasses.replace, validates every invariant through
the constructed objects (LtiSystem, HarqModel, SimConfig), and unknown
keys are rejected at every level so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .harq import HarqModel
from .lti import LtiSystem
from .simulate import SimConfig

_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    pass


def _take(section: dict, name: str, allowed: dict):
    """Pull values out of a config section, rejecting unknown keys.

    allowed maps key -> (required, default).
    """
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    out = {}
    for key, (required, default) in allowed.items():
        if key in section:
            out[key] = section[key]
        elif required:
            raise ConfigError(f"missing required key {key!r} in {name!r}")
        else:
            out[key] = default
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    A: tuple
    C: tuple
    Q: tuple
    R: tuple
    lam: float
    h: float | None
    g_table: tuple | None
    q_max: int
    tol: float
    max_iter: int
    horizon: int
    runs: int
    seed: int
    mode: str
    initial_q: int
    out_dir: str
    formats: tuple = field(default=_FORMATS)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        top = _take(data, "config", {
            "system": (True, None), "channel": (True, None), "mdp": (False, {}),
            "sim": (False, {}), "outputs": (False, {}),
        })
        system = _take(top["system"], "system", {
            "A": (True, None), "C": (True, None), "Q": (True, None), "R": (True, None),
        })
        channel = _take(top["channel"], "channel", {
            "lambda": (True, None), "h": (False, None), "g_table": (False, None),
        })
        mdp = _take(top["mdp"], "mdp", {
            "q_max": (False, 20), "tol": (False, 1e-9), "max_iter": (False, 100000),
        })
        sim = _take(top["sim"], "sim", {
            "K": (False, 2000), "runs": (False, 2000), "seed": (False, 0),
            "mode": (False, "analytic"), "initial_q": (False, 0),
        })
        outputs = _take(top["outputs"], "outputs", {
            "directory": (False, "out"), "formats": (False, list(_FORMATS)),
        })

        def freeze(mat):
            return tuple(tuple(float(v) for v in row) for row in mat)

        try:
            fields = dict(
                A=freeze(system["A"]), C=freeze(system["C"]),
                Q=freeze(system["Q"]), R=freeze(system["R"]),
                lam=float(channel["lambda"]),
                h=None if channel["h"] is None else float(channel["h"]),
                g_table=None if channel["g_table"] is None else tuple(float(v) for v in channel["g_table"]),
                q_max=int(mdp["q_max"]), tol=float(mdp["tol"]), max_iter=int(mdp["max_iter"]),
                horizon=int(sim["K"]), runs=int(sim["runs"]), seed=int(sim["seed"]),
                mode=str(sim["mode"]), initial_q=int(sim["initial_q"]),
                out_dir=str(outputs["directory"]), formats=tuple(outputs["formats"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc
        return cls(**fields)

    def __post_init__(self):
        """Check every invariant, so loaded and replaced configs are validated alike."""
        if self.h is None and self.g_table is None:
            raise ConfigError("channel needs either 'h' or an explicit 'g_table'")
        if self.h is not None and self.g_table is not None:
            raise ConfigError("channel takes 'h' or 'g_table', not both")
        bad = set(self.formats) - set(_FORMATS)
        if bad:
            raise ConfigError(f"unknown output formats: {sorted(bad)}")
        self.make_system()
        self.make_channel()
        self.make_sim_config()
        if self.q_max < 1:
            raise ConfigError("mdp.q_max must be at least 1")
        if self.tol <= 0:
            raise ConfigError("mdp.tol must be positive")
        if self.max_iter < 1:
            raise ConfigError(f"mdp.max_iter must be at least 1, got {self.max_iter}")
        if self.initial_q > self.q_max:
            raise ConfigError(f"sim.initial_q={self.initial_q} exceeds mdp.q_max={self.q_max}")
        if self.mode == "trajectory" and self.initial_q != 0:
            raise ConfigError("sim.mode 'trajectory' starts from a just-delivered estimate; "
                              "sim.initial_q must be 0")

    def to_dict(self) -> dict:
        channel = {"lambda": self.lam, "h": self.h, "g_table": None}
        if self.g_table is not None:
            channel["g_table"] = list(self.g_table)
        return {
            "system": {
                "A": [list(r) for r in self.A], "C": [list(r) for r in self.C],
                "Q": [list(r) for r in self.Q], "R": [list(r) for r in self.R],
            },
            "channel": channel,
            "mdp": {"q_max": self.q_max, "tol": self.tol, "max_iter": self.max_iter},
            "sim": {"K": self.horizon, "runs": self.runs, "seed": self.seed,
                    "mode": self.mode, "initial_q": self.initial_q},
            "outputs": {"directory": self.out_dir, "formats": list(self.formats)},
        }

    def make_system(self) -> LtiSystem:
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return LtiSystem(self.A, self.C, self.Q, self.R)

    def make_channel(self) -> HarqModel:
        if self.g_table is not None:
            model = HarqModel.from_table(self.g_table)
            if abs(model.lam - self.lam) > 1e-12:
                raise ConfigError(f"g_table[0]={self.g_table[0]} inconsistent with lambda={self.lam}")
            return model
        return HarqModel(self.lam, self.h, r_cap=self.q_max)

    def make_sim_config(self) -> SimConfig:
        return SimConfig(horizon=self.horizon, runs=self.runs, seed=self.seed,
                         initial_q=self.initial_q, mode=self.mode)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def default_config() -> ExperimentConfig:
    """The packaged defaults: 2-D expansive process, geometric HARQ model."""
    text = resources.files("remest").joinpath("data/default_config.json").read_text()
    return ExperimentConfig.from_dict(json.loads(text))
