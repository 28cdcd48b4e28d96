#!/usr/bin/env python3
"""remest benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload compare-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; remest is imported from ./src.
With --trace 0 the workload is repeated untraced for --seconds and the
end-to-end metrics of BENCHMARK.json are reported: the median wall time of
a repetition, the median set-up time of fresh interpreters, the peak RSS
of this process and the share of operations that passed. Both times are
in reference seconds: each wall time is scaled by the CPU speed sampled
while it ran (see speed.py), so that a shared host's changes of speed do
not read as changes of the program. The raw wall times are printed too.
With --trace 1 untraced and traced repetitions alternate; the traced ones
wrap remest's public functions (see tracing.py) and give the per-layer
metrics, plus the tracing overhead, and their spans are written to
perfbench/.out/trace-<workload>-seed<seed>.json.

Every run checks the outputs of its last repetition. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
`correct` is false when an operation fails that is not a known defect of
the package (workloads.KNOWN_DEFECTS); known defects still count in
`failed`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"
WORKLOAD_NAMES = ("compare-default", "solve-sweep", "simulate-shapes")
SETUP_REPEATS = 9
# A fresh interpreter: import remest, load the packaged config and compute
# the steady-state filter, the set-up every workload starts from.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import remest; "
              "cfg = remest.default_config(); "
              "remest.riccati_steady_state(cfg.make_system(), q_max=cfg.q_max)")


def setup_seconds() -> float:
    """Set-up time of one fresh interpreter, in reference seconds.

    The child runs on its own, so the speed is sampled just before and
    just after it rather than during it.
    """
    before = speed.bracketed_speed()
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-W", "ignore::RuntimeWarning", "-c", SETUP_CODE, str(SRC)],
                   check=True,
                   stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - t0
    return wall * (before + speed.bracketed_speed()) / 2


def environment(seed: int) -> dict:
    import numpy
    import remest

    backend = getattr(remest, "default_backend", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "remest": getattr(remest, "__version__", "unknown"),
        "kernel_backend": backend() if backend else "none",
        "REMEST_THREADS": os.environ.get("REMEST_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "reference_cal_s": speed.REFERENCE_CAL_S,
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload; return its operations, metric values and traced spans."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload.run(workload.prepare(seed, "small", workdir))  # warm-up: lazy imports, caches
        inputs = workload.prepare(seed, size, workdir)
        setup = [] if trace else [setup_seconds() for _ in range(SETUP_REPEATS)]
        walls, traced_walls, raw_walls, layers, traced_reps = [], [], [], [], []
        start = time.perf_counter()
        while True:
            traced = trace and len(traced_walls) < len(walls)
            if traced:
                tracer = tracing.Tracer(f"{name}/seed={seed}/rep={len(walls) + len(traced_walls)}")
                remove = tracing.instrument(tracer)
            try:
                with speed.SpeedMeter() as meter:
                    t0 = time.perf_counter()
                    outputs = workload.run(inputs)
                    elapsed = time.perf_counter() - t0
            finally:
                if traced:
                    remove()
            raw_walls.append(elapsed)
            scaled = elapsed * meter.speed()
            if traced:
                traced_walls.append(scaled)
                layers.append(tracing.layer_metrics(tracer))
                traced_reps.append({"workload": tracer.workload_id, "wall_s": elapsed,
                                    "spans": tracer.spans,
                                    "self_s": tracing.self_times(tracer.spans)})
            else:
                walls.append(scaled)
            # stop before a repetition that would end past the budget
            if time.perf_counter() - start + elapsed > seconds and (traced_walls or not trace):
                break
        ops = outputs["ops"] + workload.check(inputs, outputs, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        metrics = {key: statistics.median(rep[key] for rep in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        failed = sum(not op.ok for op in ops)
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
    return {"ops": ops, "metrics": metrics, "walls": walls, "traced_walls": traced_walls,
            "raw_walls": raw_walls, "setup": setup, "traced_reps": traced_reps}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # The python chain kernel holds the GIL, so worker threads only contend
    # for it: one program thread and one BLAS thread run it fastest and
    # steadiest. Set before numpy is first imported.
    for var in ("REMEST_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        import remest
    except ImportError as exc:
        print(f"error: cannot import remest from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(remest.__file__).resolve().parents:
        print(f"error: remest was imported from {remest.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(args.seed)
    print("env " + json.dumps(env))
    with warnings.catch_warnings():
        # saturation and non-expansive warnings are counted by the trace, not printed
        warnings.simplefilter("ignore", RuntimeWarning)
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    ops = result["ops"]
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if op.name not in workloads.KNOWN_DEFECTS]
    for op in failed:
        tag = "known defect" if op.name in workloads.KNOWN_DEFECTS else "FAILED"
        print(f"op {tag}: {op.name}: {op.detail}")
    print(f"ops attempted={len(ops)} failed={len(failed)} "
          f"fail_ratio={len(failed) / len(ops):.4g} unexpected={len(unexpected)}")
    for key in ("walls", "traced_walls", "raw_walls", "setup"):
        if result[key]:
            print(f"samples {key} = {json.dumps([round(t, 4) for t in result[key]])}")
    metrics = {}
    for m in wanted:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} = {value:.6g} {m['unit']}")
    if args.trace:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"env": env, "reps": result["traced_reps"]}))
        print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not unexpected, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
