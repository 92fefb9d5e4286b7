#!/usr/bin/env python3
"""Pin the grids that the benchmark's checks compare against.

    python3 bench/make_reference.py

Runs, with the couplesim package in this checkout's src/, every exact sweep
the workloads are checked against (full and smoke size) and the Monte Carlo
sweeps of mc-sc on the default seed, and writes bench/reference.npz. The
committed file was made from the package as of commit 9410600. Only rerun it
when a change to the outputs is intended, and record the reason.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

import workloads as w

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import couplesim as cs  # noqa: E402

EXACT = (
    [(scenario, res) for scenario in w.SC_SCENARIOS
     for res in (w.SC_RESOLUTION, w.SMOKE_SC_RESOLUTION)]
    + list(w.EXPORT_RUNS) + list(w.SMOKE_EXPORT_RUNS)
    + [(w.MC_SCENARIO, w.MC_SIZE[0]), (w.MC_SCENARIO, w.SMOKE_MC_SIZE[0])]
)


def main() -> None:
    arrays = {}
    for scenario, resolution in EXACT:
        spec = cs.SweepSpec(scenario=cs.Scenario(scenario), resolution=resolution)
        grid = cs.run_sweep(spec)
        arrays[f"fields/{scenario}"] = np.array(spec.field_names)
        for name in spec.field_names:
            arrays[f"exact/{scenario}/{resolution}/{name}"] = grid.fields[name]
    for resolution, runs in (w.MC_SIZE, w.SMOKE_MC_SIZE):
        spec = cs.SweepSpec(
            scenario=cs.Scenario(w.MC_SCENARIO), resolution=resolution, runs_per_cell=runs,
            engine=cs.Engine.MONTE_CARLO, master_seed=w.DEFAULT_SEED,
        )
        grid = cs.run_sweep(spec)
        tag = w.mc_tag(resolution, runs, w.DEFAULT_SEED)
        for name in spec.field_names:
            arrays[f"mc/{tag}/{name}"] = grid.fields[name]
    np.savez_compressed(BENCH / "reference.npz", **arrays)


if __name__ == "__main__":
    main()
