"""The benchmark's three workloads: what one pass runs and how it is checked.

Each workload is a fixed-size batch job. `run` is the timed part and calls
only public couplesim functions; `check` compares what the pass produced
with grids pinned in reference.npz (see make_reference.py) and tallies one
operation per grid cell, per written file and per grid-level check.
"""

from __future__ import annotations

import contextlib
import io
import shutil
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
EXACT_TOL = 1e-12
# Grid mean of |MC - exact| per field on mc-sc. The largest field mean was
# 0.0062 at full size over seeds 0..23 and 0.0072 at smoke size over seeds
# 0..39; single cells stray further, so cells are not compared one by one.
MC_MEAN_TOL = 0.03

# Passes are a few seconds long so that a run's median is taken over many
# of them: one long pass per run leaves the host's noise in the result.
SC_SCENARIOS = ("model1-sc-blind", "model1-sc-gender", "model2-sc-blind", "model2-sc-gender")
SC_RESOLUTION = 16
SMOKE_SC_RESOLUTION = 3
# (scenario, resolution) of each `couplesim sweep` call of plain-export.
EXPORT_RUNS = (("model1-plain", 51), ("model2-plain", 101))
SMOKE_EXPORT_RUNS = (("model1-plain", 3), ("model2-plain", 5))
MC_SCENARIO = "model2-sc-gender"
MC_SIZE = (4, 2)  # resolution, runs per cell
SMOKE_MC_SIZE = (3, 2)


def mc_tag(resolution: int, runs: int, seed: int) -> str:
    return f"res{resolution}-runs{runs}-seed{seed}"


class Tally:
    """Counts checked operations and failed ones; reports failures on stderr."""

    def __init__(self, log) -> None:
        self.attempted = 0
        self.failed = 0
        self._log = log

    def add(self, ok, what: str) -> None:
        ok = np.asarray(ok, dtype=bool)
        bad = int(ok.size - ok.sum())
        self.attempted += ok.size
        self.failed += bad
        if bad:
            self._log(f"check failed: {what} ({bad} of {ok.size})")


class Reference:
    """Grids pinned by make_reference.py, looked up by scenario, size and field."""

    def __init__(self, path: Path) -> None:
        self._npz = np.load(path)
        self._cache: dict[str, np.ndarray] = {}

    def _get(self, key: str) -> np.ndarray:
        if key not in self._cache:
            self._cache[key] = self._npz[key]
        return self._cache[key]

    def fields(self, scenario: str) -> list[str]:
        return [str(name) for name in self._get(f"fields/{scenario}")]

    def exact(self, scenario: str, resolution: int, field: str) -> np.ndarray:
        return self._get(f"exact/{scenario}/{resolution}/{field}")

    def monte_carlo(self, tag: str, field: str) -> np.ndarray | None:
        key = f"mc/{tag}/{field}"
        return self._get(key) if key in self._npz.files else None


def _check_exact_grid(grid, scenario: str, ref: Reference, tally: Tally) -> None:
    resolution = grid.spec.resolution
    ok = np.ones((resolution, resolution), dtype=bool)
    for name in ref.fields(scenario):
        values = grid.fields.get(name)
        if values is None or values.shape != ok.shape:
            ok[:] = False
            continue
        ok &= np.abs(values - ref.exact(scenario, resolution, name)) <= EXACT_TOL
    tally.add(ok, f"{scenario} cells within {EXACT_TOL:g} of the pinned grid")


class ExactSC:
    """The four self-consistent phase diagrams, exact engine, in-process."""

    name = "exact-sc"

    def __init__(self, smoke: bool) -> None:
        self.resolution = SMOKE_SC_RESOLUTION if smoke else SC_RESOLUTION
        self.cells = len(SC_SCENARIOS) * self.resolution**2

    def run(self, cs, seed: int):
        return [
            cs.run_sweep(
                cs.SweepSpec(
                    scenario=cs.Scenario(scenario),
                    resolution=self.resolution,
                    master_seed=seed,
                ),
                workers=1,
            )
            for scenario in SC_SCENARIOS
        ]

    def check(self, grids, ref: Reference, tally: Tally, seed: int) -> None:
        for scenario, grid in zip(SC_SCENARIOS, grids):
            _check_exact_grid(grid, scenario, ref, tally)


class MonteCarloSC:
    """model2-sc-gender on the Monte Carlo engine at reduced size."""

    name = "mc-sc"

    def __init__(self, smoke: bool) -> None:
        self.resolution, self.runs = SMOKE_MC_SIZE if smoke else MC_SIZE
        self.cells = self.resolution**2 * self.runs

    def run(self, cs, seed: int):
        return cs.run_sweep(
            cs.SweepSpec(
                scenario=cs.Scenario(MC_SCENARIO),
                resolution=self.resolution,
                runs_per_cell=self.runs,
                engine=cs.Engine.MONTE_CARLO,
                master_seed=seed,
            ),
            workers=1,
        )

    def check(self, grid, ref: Reference, tally: Tally, seed: int) -> None:
        shape = (self.resolution, self.resolution)
        tag = mc_tag(self.resolution, self.runs, seed)
        ok = np.ones(shape, dtype=bool)
        for name in ref.fields(MC_SCENARIO):
            values = grid.fields.get(name)
            if values is None or values.shape != shape:
                ok[:] = False
                tally.add(False, f"{MC_SCENARIO} field {name} missing")
                continue
            ok &= np.isfinite(values) & (np.abs(values) <= 1.0)
            pinned = ref.monte_carlo(tag, name)
            if pinned is not None:  # the documented reproducibility contract
                ok &= values == pinned
            mean_err = float(np.abs(values - ref.exact(MC_SCENARIO, self.resolution, name)).mean())
            tally.add(
                mean_err <= MC_MEAN_TOL,
                f"{MC_SCENARIO} {name}: grid-mean |MC - exact| = {mean_err:.4f} > {MC_MEAN_TOL}",
            )
        tally.add(ok, f"{MC_SCENARIO} cells finite, in [-1, 1], bit-identical where pinned ({tag})")


class PlainExport:
    """Two `couplesim sweep --pgm` calls through the CLI, files checked after."""

    name = "plain-export"

    def __init__(self, smoke: bool, threads: int, workdir: Path) -> None:
        self.runs = SMOKE_EXPORT_RUNS if smoke else EXPORT_RUNS
        self.threads = threads
        self.workdir = workdir
        self.cells = sum(res**2 for _, res in self.runs)

    def run(self, cs, seed: int):
        outputs = []
        for scenario, resolution in self.runs:
            outdir = self.workdir / scenario
            argv = [
                "sweep", "--scenario", scenario, "--resolution", str(resolution),
                "--seed", str(seed), "--threads", str(self.threads), "--pgm",
                "--outdir", str(outdir),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cs.cli.main(argv)
            outputs.append((scenario, resolution, outdir, code))
        return outputs

    def check(self, outputs, ref: Reference, tally: Tally, seed: int) -> None:
        """Check the files, then delete them so each pass writes afresh."""
        try:
            for scenario, resolution, outdir, code in outputs:
                fields = ref.fields(scenario)
                if code != 0:
                    tally.add([False] * (resolution**2 + 2 * len(fields) + 2),
                              f"{scenario}: couplesim sweep exited {code}")
                    continue
                _check_export(scenario, resolution, outdir, fields, ref, tally)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _read_matrix_csv(path: Path, axis: np.ndarray) -> np.ndarray:
    """Parse a sweep matrix CSV; raise ValueError unless it has the documented layout."""
    with open(path, encoding="ascii", newline="") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    n = len(axis)
    if header[0] != "p1" or len(header) != n + 1 or len(rows) != n:
        raise ValueError(f"{path.name}: expected a {n}x{n} matrix with a p1 header")
    table = np.array(rows, dtype=float)  # ragged rows raise ValueError
    if np.abs(np.array(header[1:], dtype=float) - axis).max() > EXACT_TOL:
        raise ValueError(f"{path.name}: p2 header is not the grid axis")
    if np.abs(table[:, 0] - axis).max() > EXACT_TOL:
        raise ValueError(f"{path.name}: p1 column is not the grid axis")
    return table[:, 1:]


def _read_long_csv(path: Path, axis: np.ndarray, fields: list[str]) -> np.ndarray:
    """Parse combined.csv into a (field, p1, p2) array; NaN where a row is missing."""
    n = len(axis)
    index = {name: k for k, name in enumerate(fields)}
    values = np.full((len(fields), n, n), np.nan)
    with open(path, encoding="ascii", newline="") as fh:
        if fh.readline() != "p1,p2,field,value\n":
            raise ValueError("combined.csv: bad header")
        for line in fh:
            p1, p2, name, value = line.rstrip("\n").split(",")
            i, j = round(float(p1) * (n - 1)), round(float(p2) * (n - 1))
            if not (0 <= i < n and 0 <= j < n) or max(
                abs(axis[i] - float(p1)), abs(axis[j] - float(p2))
            ) > EXACT_TOL:
                raise ValueError(f"combined.csv: ({p1}, {p2}) is off the grid")
            k = index[name]  # unknown field raises KeyError
            if not np.isnan(values[k, i, j]):
                raise ValueError(f"combined.csv: duplicate row for ({p1}, {p2}, {name})")
            values[k, i, j] = float(value)
    return values


def _pgm_ok(path: Path, values: np.ndarray) -> bool:
    """Binary P5, maxval 255, column = p1, row = p2 from 1 (top) to 0."""
    data = path.read_bytes()
    n = values.shape[0]
    header = f"P5\n{n} {n}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + n * n:
        return False
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(header)).reshape(n, n)
    expected = np.clip(values, 0.0, 1.0).T[::-1] * 255.0
    return bool((np.abs(pixels - expected) <= 0.5 + 1e-9).all())


def _meta_ok(path: Path, scenario: str, resolution: int) -> bool:
    pairs = dict(
        (part.strip() for part in line.split("=", 1))
        for line in path.read_text(encoding="ascii").splitlines()
        if "=" in line
    )
    return (
        pairs.get("scenario") == scenario
        and pairs.get("resolution") == str(resolution)
        and pairs.get("pgm") == "true"
    )


def _check_export(scenario, resolution, outdir: Path, fields, ref: Reference, tally: Tally):
    axis = np.linspace(0.0, 1.0, resolution)
    cells_ok = np.ones((resolution, resolution), dtype=bool)
    for name in fields:
        expected = ref.exact(scenario, resolution, name)
        try:
            values = _read_matrix_csv(outdir / f"{name}.csv", axis)
        except (OSError, ValueError) as exc:
            tally.add([False, False], f"{scenario}/{name}.csv and .pgm: {exc}")
            cells_ok[:] = False
            continue
        tally.add(True, f"{scenario}/{name}.csv")
        cells_ok &= np.abs(values - expected) <= EXACT_TOL
        try:
            pgm_ok = _pgm_ok(outdir / f"{name}.pgm", expected)
        except OSError:
            pgm_ok = False
        tally.add(pgm_ok, f"{scenario}/{name}.pgm decodes to the pinned grid")
    try:
        long = _read_long_csv(outdir / "combined.csv", axis, fields)
    except (OSError, ValueError, KeyError) as exc:
        tally.add(False, f"{scenario}/combined.csv: {exc}")
        cells_ok[:] = False
    else:
        tally.add(not np.isnan(long).any(), f"{scenario}/combined.csv has every (cell, field) row")
        for k, name in enumerate(fields):
            cells_ok &= np.abs(long[k] - ref.exact(scenario, resolution, name)) <= EXACT_TOL
    try:
        meta_ok = _meta_ok(outdir / "meta.txt", scenario, resolution)
    except (OSError, ValueError):
        meta_ok = False
    tally.add(meta_ok, f"{scenario}/meta.txt echoes scenario, resolution and pgm")
    tally.add(cells_ok, f"{scenario} cells in the CSVs within {EXACT_TOL:g} of the pinned grid")


def make(name: str, smoke: bool, threads: int, workdir: Path):
    """The named workload; `threads` is the CLI's --threads, used by plain-export."""
    if name == ExactSC.name:
        return ExactSC(smoke)
    if name == MonteCarloSC.name:
        return MonteCarloSC(smoke)
    if name == PlainExport.name:
        return PlainExport(smoke, threads, workdir / name)
    raise ValueError(f"unknown workload {name!r}")
