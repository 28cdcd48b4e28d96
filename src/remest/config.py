"""Experiment configuration: a single JSON document with strict keys.

Matrices are nested arrays; "lambda" is the fresh-transmission success
probability. One table, _LAYOUT, declares the layout: each key of each
section maps to the ExperimentConfig field it fills, its default (or
_REQUIRED) and its conversion; from_dict and to_dict both walk it, and a
section is required when one of its keys is. Integer keys take integral
numbers only, number keys numbers only (no booleans, no numeric strings),
and string and list keys (vectors and matrix rows among them) only
strings and lists. Every construction
of an ExperimentConfig, loaded or overridden with dataclasses.replace,
validates every invariant through the constructed objects (LtiSystem,
HarqModel, SimConfig), and unknown keys are rejected at every level so
typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources

from .harq import HarqModel
from .lti import LtiSystem
from .simulate import SimConfig

_FORMATS = ("csv", "json")
_REQUIRED = object()


class ConfigError(ValueError):
    pass


def _real(value) -> float:
    """value as a float; float() would take a bool or a numeric string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _string(value) -> str:
    """value itself; str() would turn any value into a string."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _list(value) -> tuple:
    """value as a tuple; tuple() would split a string into its characters."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    return tuple(value)


def _vector(values):
    return tuple(_real(v) for v in _list(values))


def _matrix(rows):
    return tuple(_vector(row) for row in _list(rows))


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _integer(value) -> int:
    """value as an int; int() would silently truncate a fraction and take a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _plain(value):
    """A field's value as JSON: tuples become lists."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


# section -> key -> (ExperimentConfig field, default or _REQUIRED, conversion)
_LAYOUT = {
    "system": {key: (key, _REQUIRED, _matrix) for key in ("A", "C", "Q", "R")},
    "channel": {"lambda": ("lam", _REQUIRED, _real), "h": ("h", None, _optional(_real)),
                "g_table": ("g_table", None, _optional(_vector))},
    "mdp": {"q_max": ("q_max", 20, _integer), "tol": ("tol", 1e-9, _real),
            "max_iter": ("max_iter", 100000, _integer)},
    "sim": {"K": ("horizon", 2000, _integer), "runs": ("runs", 2000, _integer),
            "seed": ("seed", 0, _integer), "mode": ("mode", "analytic", _string),
            "initial_q": ("initial_q", 0, _integer)},
    "outputs": {"directory": ("out_dir", "out", _string), "formats": ("formats", _FORMATS, _list)},
}


def _check_keys(section, name: str, keys) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")


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
    formats: tuple

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_keys(data, "config", _LAYOUT)
        fields = {}
        for name, keys in _LAYOUT.items():
            if name not in data and any(spec[1] is _REQUIRED for spec in keys.values()):
                raise ConfigError(f"missing required key {name!r} in 'config'")
            section = data.get(name, {})
            _check_keys(section, name, keys)
            for key, (field_name, default, convert) in keys.items():
                if key not in section and default is _REQUIRED:
                    raise ConfigError(f"missing required key {key!r} in {name!r}")
                try:
                    fields[field_name] = convert(section.get(key, default))
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"malformed config value {name}.{key}: {exc}") from exc
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
        # checked first: the geometric channel would report a bad q_max as its r_cap
        if self.q_max < 1:
            raise ConfigError("mdp.q_max must be at least 1")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"mdp.tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"mdp.max_iter must be at least 1, got {self.max_iter}")
        self.make_system()
        self.make_channel()
        self.make_sim_config()
        if self.initial_q > self.q_max:
            raise ConfigError(f"sim.initial_q={self.initial_q} exceeds mdp.q_max={self.q_max}")
        if self.mode == "trajectory" and self.initial_q != 0:
            raise ConfigError("sim.mode 'trajectory' starts from a just-delivered estimate; "
                              "sim.initial_q must be 0")

    def to_dict(self) -> dict:
        return {name: {key: _plain(getattr(self, spec[0])) for key, spec in keys.items()}
                for name, keys in _LAYOUT.items()}

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
