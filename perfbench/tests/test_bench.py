"""Tests of the benchmark itself, at reduced sizes.

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from remest import config, lti, mdp  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_workload_emits_every_metric(name, trace):
    result = run.measure(name, seed=1, seconds=0, trace=trace, size="small")
    wanted = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == wanted
    ops = result["ops"]
    assert ops
    unexpected = [op for op in ops if not op.ok and op.name not in workloads.KNOWN_DEFECTS]
    assert not unexpected
    if not trace:  # end-to-end metrics are never 0
        assert all(result["metrics"][m] > 0 for m in wanted)


@pytest.fixture(scope="module")
def compare_small(tmp_path_factory):
    workload = workloads.WORKLOADS["compare-default"]
    inputs = workload.prepare(2, "small", tmp_path_factory.mktemp("compare"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return workload, inputs, workload.run(inputs)


def test_compare_fingerprints_match_reference(compare_small):
    workload, inputs, outputs = compare_small
    ops = workload.check(inputs, outputs, workloads.load_reference())
    assert [op for op in ops if not op.ok] == []
    assert sum(op.name.startswith("fingerprint") for op in ops) == 2 + 5 * 3


@pytest.mark.parametrize("path", [
    ("gain_mse_optimal",),
    ("policies", "arq", "exact_avg_mse"),
    ("policies", "delay", "exact_avg_aoi"),
    ("policies", "optimal", "grid_sha256"),
])
def test_perturbed_fingerprint_is_a_failure(compare_small, path):
    workload, inputs, outputs = compare_small
    reference = workloads.load_reference()
    node = reference["compare-default"]
    for key in path[:-1]:
        node = node[key]
    old = node[path[-1]]
    node[path[-1]] = "0" * 64 if isinstance(old, str) else old * (1 + 1e-4)
    failed = [op for op in workload.check(inputs, outputs, reference) if not op.ok]
    assert len(failed) == 1
    assert failed[0].name.startswith("fingerprint")
    assert failed[0].name not in workloads.KNOWN_DEFECTS


@pytest.mark.parametrize("seed", range(1, 11))
def test_exact_vs_mc_checks_pass_on_agreeing_cases(tmp_path, seed):
    workload = workloads.WORKLOADS["simulate-shapes"]
    inputs = workload.prepare(seed, "small", tmp_path)
    ops = workload.check(inputs, workload.run(inputs), {})
    failed = {op.name for op in ops if not op.ok}
    assert failed <= workloads.KNOWN_DEFECTS, failed


def test_mc_check_is_one_sided_in_mse_and_two_sided_in_aoi():
    assert workloads.mc_agrees(30.0, 20.0, 0.1, 1.25, 1.25, 0.0)
    assert not workloads.mc_agrees(15.0, 20.0, 0.1, 1.25, 1.25, 0.0)
    assert not workloads.mc_agrees(20.0, 20.0, 0.1, 1.4, 1.25, 0.0)


def test_speed_meter_samples_while_work_runs_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.SpeedMeter(interval=0.01) as meter:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 5
    assert meter.speed() > 0
    with speed.SpeedMeter(interval=10.0) as short:
        pass
    assert len(short.samples) == 1  # a block shorter than the interval still gets a speed


def test_instrument_records_spans_and_restores_functions():
    originals = (mdp.solve, lti.riccati_steady_state)
    tracer = tracing.Tracer("test")
    remove = tracing.instrument(tracer)
    try:
        cfg = config.default_config()
        sk = lti.riccati_steady_state(cfg.make_system(), q_max=cfg.q_max)
        model = mdp.build_mdp(sk, cfg.make_channel(), cfg.q_max, "mse")
        solution = mdp.solve(model)
    finally:
        remove()
    assert (mdp.solve, lti.riccati_steady_state) == originals
    spans = tracer.spans
    assert [s["name"] for s in spans[:4]] == ["config.load", "lti.riccati", "mdp.build", "mdp.solve"]
    children = spans[4:]
    assert all(s["parent"] == 3 for s in children)
    duration = [s["end"] - s["start"] for s in spans]
    assert tracing.self_times(spans)[3] == pytest.approx(duration[3] - sum(duration[4:]))
    metrics = tracing.layer_metrics(tracer)
    assert metrics["mdp.solve_calls"] == 1
    assert metrics["lti.riccati_calls"] == 1
    if children:  # the solver is value iteration
        assert metrics["mdp.rvi_sweeps"] == solution.iterations


@pytest.mark.skipif(not hasattr(mdp, "relative_value_iteration"), reason="no value iteration")
def test_failed_rvi_attempt_counts_its_sweeps():
    tracer = tracing.Tracer("test")
    cfg = config.default_config()
    model = mdp.build_mdp(None, cfg.make_channel(), 4, "delay")
    remove = tracing.instrument(tracer)
    try:
        with pytest.raises(Exception):
            mdp.relative_value_iteration(model, max_iter=1)
    finally:
        remove()
    assert tracer.counters["mdp.rvi_attempts"] == 1
    assert tracer.counters["mdp.rvi_sweeps"] == 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-shapes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

