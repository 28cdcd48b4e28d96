#!/usr/bin/env python3
"""Write perfbench/reference.json, the compare-default fingerprints the
benchmark checks against: both optimal gains, and per policy its exact
MSE, exact AoI and a hash of its grid.

    python3 perfbench/make_reference.py

The recorded file holds the values of the package at the commit that
defined the benchmark. Regenerate it only together with a change that
declares it alters these results.
"""

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from remest import mdp  # noqa: E402

from workloads import REFERENCE_PATH, compare_zoo, default_setup, grid_sha256  # noqa: E402


def main():
    warnings.simplefilter("ignore", RuntimeWarning)
    cfg, system, sk = default_setup()
    channel = cfg.make_channel()
    models = {kind: mdp.build_mdp(sk if kind == "mse" else None, channel, cfg.q_max, kind)
              for kind in ("mse", "delay")}
    gains = {kind: mdp.solve(model, tol=cfg.tol, max_iter=cfg.max_iter).gain
             for kind, model in models.items()}
    reference = {"compare-default": {
        "gain_mse_optimal": gains["mse"],
        "gain_delay_optimal": gains["delay"],
        "policies": {
            label: {
                "exact_avg_mse": mdp.evaluate_policy(models["mse"], grid),
                "exact_avg_aoi": mdp.evaluate_policy(models["delay"], grid),
                "grid_sha256": grid_sha256(grid),
            }
            for label, grid in compare_zoo(cfg, sk).items()
        },
    }}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
