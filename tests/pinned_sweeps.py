"""Write a fixed set of `couplesim` outputs and print their SHA-256 digests.

`python tests/pinned_sweeps.py OUTDIR` runs, through `cli.main`, `sweep` of
the six scenarios on the exact engine and two on the Monte Carlo engine,
each on 1 and on 2 workers, with stack bounds small enough for several
stacks, and `selfconsistent` of both models on both engines. It prints one
JSON object: the OpenBLAS core numpy picked and, for each run, the digest
of every file it wrote but its meta file. `python tests/pinned_sweeps.py
OUTDIR exact` makes the exact runs alone. `tests/test_pinned_bytes.py`
runs it under a fixed `OPENBLAS_CORETYPE`.

`python tests/pinned_sweeps.py` prints numpy's version and the core alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

EXACT_SCENARIOS = (
    "model1-plain", "model1-sc-blind", "model1-sc-gender",
    "model2-plain", "model2-sc-blind", "model2-sc-gender",
)
MONTE_CARLO_SCENARIOS = ("model1-sc-blind", "model2-sc-gender")
WORKERS = (1, 2)
# exact: 81 cells in stacks of 32 (3 stacks); Monte Carlo: 9 cells x 2 runs
# = 18 pairs of 200 trajectories in stacks of 5 pairs (4 stacks)
EXACT_ARGS = ("--resolution", "9", "--plain-steps", "60")
STACK_CELLS = 32
MONTE_CARLO_ARGS = ("--resolution", "3", "--runs-per-cell", "2",
                    "--ensemble-size", "200", "--seed", "5")
STACK_TRAJECTORIES = 1000
SWEEPS = {"exact": (EXACT_SCENARIOS, EXACT_ARGS),
          "monte-carlo": (MONTE_CARLO_SCENARIOS, MONTE_CARLO_ARGS)}
# unequal partners on gender-specific feedback, so v1 and v2 differ
SELFCONSISTENT_MODELS = ("1", "2")
SELFCONSISTENT_ARGS = ("--p1", "0.3", "--p2", "0.7", "--gender-mode", "specific",
                       "--turns", "5", "--ensemble-size", "200", "--seed", "5")


def openblas_core() -> str | None:
    """The kernel numpy's bundled OpenBLAS picked, or None when there is no such library.

    numpy's wheels ship scipy-openblas in numpy.libs, which names its core
    through scipy_openblas_get_corename64_.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir()) if not path.name.endswith("meta.txt")}


def _runs(outdir: Path, engines: tuple[str, ...]):
    """(digest key, output directory, argv) of every run on the given engines."""
    for engine in engines:
        scenarios, args = SWEEPS[engine]
        for scenario in scenarios:
            for workers in WORKERS:
                directory = outdir / f"{engine}-{scenario}-{workers}"
                yield f"{engine} {scenario} {workers}", directory, [
                    "sweep", "--scenario", scenario, *args, "--engine", engine,
                    "--threads", str(workers), "--pgm", "--outdir", str(directory)]
        for model in SELFCONSISTENT_MODELS:
            directory = outdir / f"{engine}-selfconsistent-{model}"
            yield f"{engine} selfconsistent model{model}", directory, [
                "selfconsistent", "--model", model, *SELFCONSISTENT_ARGS, "--engine", engine,
                "--out", str(directory / "trace")]


def main(outdir: Path, engines: tuple[str, ...] = tuple(SWEEPS)) -> dict:
    from couplesim import cli, sweep

    sweep.STACK_CELLS, sweep.STACK_TRAJECTORIES = STACK_CELLS, STACK_TRAJECTORIES
    digests = {}
    for key, directory, argv in _runs(outdir, engines):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"couplesim {' '.join(argv)} exited {code}")
        digests[key] = _digests(directory)
    return {"core": openblas_core(), "digests": digests}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(main(Path(sys.argv[1]), tuple(sys.argv[2:]) or tuple(SWEEPS)), indent=1))
    else:
        print(f"numpy {np.__version__}, OpenBLAS core {openblas_core() or 'unknown'}")
