"""Traced pass: wrap couplesim functions from outside and derive layer metrics.

Wrapping replaces the function's name in every couplesim module that holds
it (the defining module and each importing module, e.g. both
`couplesim.markov.evolve` and `couplesim.feedback.evolve`), so calls made
inside the package are seen. Calls made once per cell, run or file are kept
as spans (name, start, end, id, parent); hot inner calls such as `encode`
are only counted and timed. Spans made inside pool worker processes are
not seen, so traced passes run the CLI with --threads 1.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _evolve_steps(args, kwargs, result):
    return {"markov.evolve.steps": _arg(args, kwargs, 2, "steps")}


def _uniform_draws(args, kwargs, result):
    return {"rng.counter_uniform.draws": np.size(result)}


def _trajectory_steps(args, kwargs, result):
    steps = _arg(args, kwargs, 2, "steps")
    ensemble = _arg(args, kwargs, 3, "ensemble_size")
    return {"montecarlo.estimate_distribution.trajectory_steps": steps * ensemble}


def _sweep_cells(args, kwargs, result):
    return {"sweep.cells": _arg(args, kwargs, 0, "spec").resolution ** 2}


def _bytes_written(args, kwargs, result):
    return {"output.bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (defining module, function, metric prefix, kept as spans, work counter)
TARGETS = (
    ("couplesim.cli", "main", "cli.main", True, None),
    ("couplesim.sweep", "run_sweep", "sweep.run_sweep", True, _sweep_cells),
    ("couplesim.feedback", "self_consistent_run", "feedback.self_consistent_run", True, None),
    ("couplesim.montecarlo", "estimate_distribution", "montecarlo.estimate_distribution", True,
     _trajectory_steps),
    ("couplesim.output", "write_matrix_csv", "output.write_matrix_csv", True, _bytes_written),
    ("couplesim.output", "write_long_csv", "output.write_long_csv", True, _bytes_written),
    ("couplesim.output", "write_pgm", "output.write_pgm", True, _bytes_written),
    ("couplesim.output", "write_meta", "output.write_meta", True, _bytes_written),
    ("couplesim.kernels", "build_couple_kernel", "kernels.build_couple_kernel", False, None),
    ("couplesim.markov", "evolve", "markov.evolve", False, _evolve_steps),
    ("couplesim.observables", "model1_basins", "observables", False, None),
    ("couplesim.observables", "model2_observables", "observables", False, None),
    ("couplesim.observables", "gender_violence", "observables", False, None),
    ("couplesim.observables", "violent_marginals", "observables", False, None),
    ("couplesim.states", "encode", "states.encode", False, None),
    ("couplesim.feedback", "f_update", "feedback.update", False, None),
    ("couplesim.feedback", "g_update", "feedback.update", False, None),
    ("couplesim.rng", "derive_seed", "rng.derive_seed", False, None),
    ("couplesim.rng", "counter_uniform", "rng.counter_uniform", False, _uniform_draws),
)


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.work: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, int, int]] = []
        # One frame per open wrapped call: [time covered by wrapped callees, span id].
        self._stack: list[list] = [[0.0, 0]]
        self._next_span = 1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, span: bool, work):
        stack, calls, busy, self_time = self._stack, self.calls, self.busy, self.self_time

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                span_id, self._next_span = self._next_span, self._next_span + 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                calls[name] += 1
                busy[name] += elapsed
                self_time[name] += elapsed - frame[0]
                if span:
                    self.spans.append((name, start, end, span_id, parent[1]))
            if work is not None:
                for key, amount in work(args, kwargs, result).items():
                    self.work[key] += amount
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "couplesim"]
        for module_name, attr, name, span, work in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, span, work)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write_spans(self, path: Path, origin: float) -> None:
        """Spans as JSON lines, times in seconds from `origin`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, span_id, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start - origin, "end": end - origin}) + "\n")


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def layer_metrics(
    tr: Tracer, hit_ratio: float, overhead_ratio: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    c, b, s, w = tr.calls, tr.busy, tr.self_time, tr.work
    steps = w["markov.evolve.steps"]
    sc_durations = [end - start for name, start, end, _, _ in tr.spans
                    if name == "feedback.self_consistent_run"]
    return {
        "kernels.build_couple_kernel.calls": (c["kernels.build_couple_kernel"], "count"),
        "kernels.build_couple_kernel.busy_s": (b["kernels.build_couple_kernel"], "s"),
        "kernels.individual_kernel.hit_ratio": (hit_ratio, "ratio"),
        "markov.evolve.calls": (c["markov.evolve"], "count"),
        "markov.evolve.busy_s": (b["markov.evolve"], "s"),
        "markov.evolve.steps": (steps, "count"),
        # computed, not measured: one 16-vector times 16x16 matrix per step
        "markov.evolve.flops": (steps * 2 * 16 * 16, "flop"),
        "markov.evolve.bytes": (steps * 8 * (16 * 16 + 2 * 16), "B"),
        "observables.calls": (c["observables"], "count"),
        "observables.busy_s": (b["observables"], "s"),
        "states.encode.calls": (c["states.encode"], "count"),
        "feedback.self_consistent_run.calls": (c["feedback.self_consistent_run"], "count"),
        "feedback.self_consistent_run.self_s": (s["feedback.self_consistent_run"], "s"),
        "feedback.self_consistent_run.p50_ms": (_percentile_ms(sc_durations, 50), "ms"),
        "feedback.self_consistent_run.p99_ms": (_percentile_ms(sc_durations, 99), "ms"),
        "feedback.update.calls": (c["feedback.update"], "count"),
        "feedback.update.busy_s": (b["feedback.update"], "s"),
        "rng.derive_seed.calls": (c["rng.derive_seed"], "count"),
        "rng.derive_seed.busy_s": (b["rng.derive_seed"], "s"),
        "rng.derive_seed.useful_ratio": (
            c["montecarlo.estimate_distribution"] / c["rng.derive_seed"]
            if c["rng.derive_seed"] else 0.0,
            "ratio",
        ),
        "rng.counter_uniform.draws": (w["rng.counter_uniform.draws"], "count"),
        "rng.counter_uniform.busy_s": (b["rng.counter_uniform"], "s"),
        "montecarlo.estimate_distribution.calls": (c["montecarlo.estimate_distribution"], "count"),
        "montecarlo.estimate_distribution.self_s": (s["montecarlo.estimate_distribution"], "s"),
        "montecarlo.estimate_distribution.trajectory_steps": (
            w["montecarlo.estimate_distribution.trajectory_steps"], "count"),
        "sweep.run_sweep.calls": (c["sweep.run_sweep"], "count"),
        "sweep.run_sweep.self_s": (s["sweep.run_sweep"], "s"),
        "sweep.cells": (w["sweep.cells"], "count"),
        "output.write_matrix_csv.busy_s": (b["output.write_matrix_csv"], "s"),
        "output.write_long_csv.busy_s": (b["output.write_long_csv"], "s"),
        "output.write_pgm.busy_s": (b["output.write_pgm"], "s"),
        "output.bytes_written": (w["output.bytes_written"], "B"),
        "cli.main.busy_s": (b["cli.main"], "s"),
        "cli.main.self_s": (s["cli.main"], "s"),
        "trace_overhead_ratio": (overhead_ratio, "ratio"),
    }
