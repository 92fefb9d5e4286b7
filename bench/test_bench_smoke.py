"""Smoke tests of the benchmark: every workload and every check at tiny size."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import couplesim as cs  # noqa: E402
import couplesim.cli  # noqa: E402,F401
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,seed", [(0, workloads.DEFAULT_SEED), (1, 1)])
def test_smoke_run_checks_pass_and_reports_every_metric(workload, trace, seed):
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exact-sc", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tally() -> workloads.Tally:
    return workloads.Tally(lambda message: None)


def test_exact_check_counts_a_cell_off_by_more_than_the_tolerance():
    reference = workloads.Reference(ROOT / "bench" / "reference.npz")
    workload = workloads.make("exact-sc", True, 1, ROOT / ".bench_work")
    grids = workload.run(cs, 0)
    grids[2].fields["recovering"][1, 2] += 1e-10
    tally = _tally()
    workload.check(grids, reference, tally, 0)
    assert (tally.attempted, tally.failed) == (workload.cells, 1)


def test_export_check_counts_a_bad_csv_value_and_a_bad_pgm(tmp_path):
    reference = workloads.Reference(ROOT / "bench" / "reference.npz")
    workload = workloads.make("plain-export", True, 1, tmp_path)
    outputs = workload.run(cs, 0)
    outdir = outputs[1][2]
    matrix = (outdir / "normal.csv").read_text().splitlines()
    cells = matrix[3].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    matrix[3] = ",".join(cells)
    (outdir / "normal.csv").write_text("\n".join(matrix) + "\n")
    pgm = bytearray((outdir / "v1.pgm").read_bytes())
    pgm[-1] ^= 0x80
    (outdir / "v1.pgm").write_bytes(bytes(pgm))
    tally = _tally()
    workload.check(outputs, reference, tally, 0)
    clean = _tally()
    workload.check(workload.run(cs, 0), reference, clean, 0)
    assert clean.failed == 0
    assert tally.attempted == clean.attempted
    assert tally.failed == 2  # one cell, one file
