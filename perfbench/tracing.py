"""Outside-in tracing of remest's public functions.

The benchmark never edits the package. For a traced repetition it swaps
each public function listed in TARGETS for a wrapper that records a span
(name, start, end, parent, workload id) and a few counters, in memory,
then puts the originals back. The wrapper replaces the function in every
loaded ``remest`` module that holds it, so calls made through
``from .lti import riccati_steady_state`` in ``remest.cli`` are seen too.
Functions a later version of the package no longer has are skipped.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter


class Tracer:
    """Spans and counters of one traced repetition.

    Calls are recorded from one thread only: remest's own worker threads
    run inside simulate_chain and never call a traced function.
    """

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans = []  # dicts: name, start, end, parent (index or None), workload
        self.counters = Counter()
        self._open = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "workload": self.workload_id})
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open.pop()


def _solve_hook(counters, args, result, exc):
    counters["mdp.solve_calls"] += 1
    if exc is not None:
        counters["mdp.solve_failures"] += 1


def _rvi_hook(counters, args, result, exc):
    counters["mdp.rvi_attempts"] += 1
    # a failed attempt has run every sweep it was allowed
    counters["mdp.rvi_sweeps"] += args["max_iter"] if exc is not None else result.iterations


def _simulate_hook(kind):
    def hook(counters, args, result, exc):
        counters[f"simulate.{kind}_run_steps"] += args["cfg"].runs * args["cfg"].horizon
        if result is not None:
            counters["simulate.saturation_events"] += result.saturation_events
    return hook


def _count(name):
    def hook(counters, args, result, exc):
        counters[name] += 1
    return hook


# (module, function, span name, counter hook)
TARGETS = (
    ("remest.cli", "main", "cli.main", None),
    ("remest.config", "default_config", "config.load", None),
    ("remest.config", "load_config", "config.load", None),
    ("remest.lti", "riccati_steady_state", "lti.riccati", _count("lti.riccati_calls")),
    ("remest.mdp", "build_mdp", "mdp.build", None),
    ("remest.mdp", "solve", "mdp.solve", _solve_hook),
    ("remest.mdp", "relative_value_iteration", "mdp.rvi", _rvi_hook),
    ("remest.mdp", "evaluate_policy", "mdp.evaluate", _count("mdp.evaluate_calls")),
    ("remest.policies", "myopic_policy", "policies.build", None),
    ("remest.policies", "delay_optimal_policy", "policies.build", None),
    ("remest.policies", "arq_baseline_policy", "policies.build", None),
    ("remest.policies", "psi_policy", "policies.build", None),
    ("remest.policies", "verify_switching", "policies.verify", None),
    ("remest.policies", "save_policy_csv", "policies.csv", None),
    ("remest.policies", "load_policy_csv", "policies.csv", None),
    ("remest.simulate", "simulate_chain", "simulate.chain", _simulate_hook("chain")),
    ("remest.simulate", "simulate_trajectory", "simulate.trajectory", _simulate_hook("trajectory")),
    ("remest.simulate", "write_report_csv", "simulate.write", None),
    ("remest.simulate", "write_report_json", "simulate.write", None),
)


def _wrap(tracer: Tracer, fn, span_name: str, hook):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.begin(span_name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as caught:
            exc = caught
            raise
        finally:
            tracer.end(index)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counters, bound.arguments, result, exc)

    return traced


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them again."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "remest" or name.startswith("remest."))]
    undo = []
    for module_name, attr, span_name, hook in TARGETS:
        home = sys.modules.get(module_name)
        original = getattr(home, attr, None) if home is not None else None
        if original is None:
            continue
        wrapper = _wrap(tracer, original, span_name, hook)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))

    def remove():
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)

    return remove


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def inclusive_time(spans, name: str) -> float:
    """Total duration of the spans called `name` (no traced function calls
    another one of the same span name)."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (without units) of one traced repetition."""
    spans, c = tracer.spans, tracer.counters
    chain_s = inclusive_time(spans, "simulate.chain")
    trajectory_s = inclusive_time(spans, "simulate.trajectory")
    selfs = self_times(spans)
    return {
        "simulate.chain_s": chain_s,
        "simulate.chain_run_steps": c["simulate.chain_run_steps"],
        "simulate.chain_steps_per_s": c["simulate.chain_run_steps"] / chain_s if chain_s else 0.0,
        "simulate.trajectory_s": trajectory_s,
        "simulate.trajectory_steps_per_s": (c["simulate.trajectory_run_steps"] / trajectory_s
                                            if trajectory_s else 0.0),
        "simulate.write_s": inclusive_time(spans, "simulate.write"),
        "simulate.saturation_events": c["simulate.saturation_events"],
        "cli.self_s": sum(t for s, t in zip(spans, selfs) if s["name"] == "cli.main"),
        "mdp.solve_s": inclusive_time(spans, "mdp.solve"),
        "mdp.solve_calls": c["mdp.solve_calls"],
        "mdp.rvi_attempts": c["mdp.rvi_attempts"],
        "mdp.rvi_sweeps": c["mdp.rvi_sweeps"],
        "mdp.solve_failures": c["mdp.solve_failures"],
        "mdp.build_ms": 1e3 * inclusive_time(spans, "mdp.build"),
        "mdp.evaluate_s": inclusive_time(spans, "mdp.evaluate"),
        "mdp.evaluate_calls": c["mdp.evaluate_calls"],
        "policies.build_ms": 1e3 * inclusive_time(spans, "policies.build"),
        "policies.verify_ms": 1e3 * inclusive_time(spans, "policies.verify"),
        "policies.csv_ms": 1e3 * inclusive_time(spans, "policies.csv"),
        "lti.riccati_ms": 1e3 * inclusive_time(spans, "lti.riccati"),
        "lti.riccati_calls": c["lti.riccati_calls"],
        "config.load_ms": 1e3 * inclusive_time(spans, "config.load"),
    }
