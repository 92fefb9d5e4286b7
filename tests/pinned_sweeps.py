"""Write a fixed set of `couplesim sweep` outputs and print their SHA-256 digests.

`python tests/pinned_sweeps.py OUTDIR` runs, through `cli.main`, the six
scenarios on the exact engine and two on the Monte Carlo engine, each on 1
and on 2 workers, with stack bounds small enough for several stacks. It
prints one JSON object: the OpenBLAS core numpy picked and, for each run,
the digest of every file it wrote but meta.txt. `tests/test_pinned_bytes.py`
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
MONTE_CARLO_ARGS = ("--engine", "monte-carlo", "--resolution", "3", "--runs-per-cell", "2",
                    "--ensemble-size", "200", "--seed", "5")
STACK_TRAJECTORIES = 1000


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
            for path in sorted(directory.iterdir()) if path.name != "meta.txt"}


def main(outdir: Path) -> dict:
    from couplesim import cli, sweep

    sweep.STACK_CELLS, sweep.STACK_TRAJECTORIES = STACK_CELLS, STACK_TRAJECTORIES
    runs = [("exact", scenario, EXACT_ARGS) for scenario in EXACT_SCENARIOS]
    runs += [("monte-carlo", scenario, MONTE_CARLO_ARGS) for scenario in MONTE_CARLO_SCENARIOS]
    digests = {}
    for engine, scenario, args in runs:
        for workers in WORKERS:
            directory = outdir / f"{engine}-{scenario}-{workers}"
            argv = ["sweep", "--scenario", scenario, *args, "--threads", str(workers),
                    "--pgm", "--outdir", str(directory)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise SystemExit(f"couplesim {' '.join(argv)} exited {code}")
            digests[f"{engine} {scenario} {workers}"] = _digests(directory)
    return {"core": openblas_core(), "digests": digests}


if __name__ == "__main__":
    if len(sys.argv) > 1:
        print(json.dumps(main(Path(sys.argv[1])), indent=1))
    else:
        print(f"numpy {np.__version__}, OpenBLAS core {openblas_core() or 'unknown'}")
