#!/usr/bin/env python3
"""Run one couplesim benchmark workload, check its output and print its metrics.

    python3 bench/run.py --workload exact-sc --seed 0 --seconds 30 --trace 0

With --trace 0 the workload is repeated until --seconds of timed work have
passed (at least once) and the end-to-end metrics are medians over those
passes. With --trace 1 it runs one untraced and one traced pass and prints
the per-layer metrics of the traced one. --smoke shrinks every workload so
that all checks run in seconds. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
See bench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.npz"
WORKDIR = ROOT / ".bench_work"
SETUP_REPEATS = 9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A fresh interpreter imports the package and builds its first kernel.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import couplesim as cs; "
    "cs.build_couple_kernel(cs.ModelParams(cs.Model.AGGRESSION, 0.3, 0.3))"
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-sc", "plain-export", "mc-sc"))
    parser.add_argument("--seed", type=int, default=0, help="master_seed of every sweep")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of the largest single process: this one or a child (ru_maxrss is KiB).

    Not a sum: a forked pool worker's RSS already counts the pages it shares
    with this process.
    """
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def steal_seconds() -> float | None:
    """Hypervisor steal time summed over all CPUs, from /proc/stat; None if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, np, passes, steal) -> dict:
    import multiprocessing

    digest = hashlib.sha256()
    for path in sorted((SRC / "couplesim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "passes": passes,
        "steal_s": steal,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(), "src_sha256": digest.hexdigest(),
    }


def setup_seconds(repeats: int) -> float:
    """Median wall time of fresh interpreters importing couplesim and building a kernel."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # no timeout: with one, wait() polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                       cwd=ROOT, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def timed_pass(cs, workload, seed: int):
    """One pass with a cold kernel cache, as in a fresh process: (output, wall, cpu)."""
    cs.kernels.individual_kernel.cache_clear()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    output = workload.run(cs, seed)
    wall = time.perf_counter() - start
    return output, wall, cpu_seconds() - cpu0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "couplesim" / "__init__.py").is_file() or not REFERENCE.is_file():
        log(f"error: need the couplesim sources in {SRC} and the pinned {REFERENCE.name}")
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import couplesim as cs
    import couplesim.cli  # noqa: F401 - makes cs.cli available
    import tracer
    import workloads

    if Path(cs.__file__).resolve().parent != SRC / "couplesim":
        log(f"error: imported couplesim from {cs.__file__}, not from {SRC}")
        return 2

    # Pool children cannot be traced, so traced runs use one CLI thread
    # (and so does their untraced reference pass).
    threads = 1 if args.trace else 2
    workload = workloads.make(args.workload, args.smoke, threads, WORKDIR)
    reference = workloads.Reference(REFERENCE)
    tally = workloads.Tally(log)
    if not args.smoke:  # a smoke-size pass for imports, pool start-up, page cache
        warmup = workloads.make(args.workload, True, threads, WORKDIR)
        warmup.check(warmup.run(cs, args.seed), reference, tally, args.seed)

    walls, cpus = [], []
    steal0 = steal_seconds()
    if args.trace:
        output, wall, _ = timed_pass(cs, workload, args.seed)
        workload.check(output, reference, tally, args.seed)
        with tracer.Tracer() as tr:
            origin = time.perf_counter()
            traced_output, traced_wall, _ = timed_pass(cs, workload, args.seed)
        # timed_pass cleared the cache, which also zeroed its counters
        info = cs.kernels.individual_kernel.cache_info()
        workload.check(traced_output, reference, tally, args.seed)
        lookups = info.hits + info.misses
        metrics = tracer.layer_metrics(tr, info.hits / lookups if lookups else 0.0,
                                       traced_wall / wall)
        tr.write_spans(WORKDIR / f"spans-{args.workload}.jsonl", origin)
        walls = [wall, traced_wall]
    else:
        while True:
            output, wall, cpu = timed_pass(cs, workload, args.seed)
            workload.check(output, reference, tally, args.seed)
            walls.append(wall)
            cpus.append(cpu)
            if sum(walls) >= args.seconds:
                break
        peak = peak_rss_mb()
        wall_s = statistics.median(walls)
        metrics = {
            "wall_s": (wall_s, "s"),
            "cells_per_s": (workload.cells / wall_s, "1/s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (setup_seconds(1 if args.smoke else SETUP_REPEATS), "s"),
            "peak_rss_mb": (peak, "MB"),
            "pass_rate": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        }

    steal1 = steal_seconds()
    steal = None if steal0 is None or steal1 is None else steal1 - steal0
    print(json.dumps({"provenance": provenance(args, np, walls, steal)}))
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
