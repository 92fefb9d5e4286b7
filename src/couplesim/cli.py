"""Command-line frontend.

Commands: trajectory, evolve, selfconsistent, sweep, audit-kernel. Every
option can also come from a flat `key = value` config file (--config);
explicit command-line flags win over the file, the file wins over the
defaults, and unknown keys in the file are rejected. Exit codes: 0 on
success, 2 for configuration errors, 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .feedback import Engine, FeedbackConfig, GenderMode, self_consistent_run
from .kernels import build_couple_kernel, iter_couple_entries, iter_individual_entries
from .markov import delta_distribution, evolve_trace
from .montecarlo import format_trajectory, sample_trajectory
from .output import (
    write_csv,
    write_distribution_trace_csv,
    write_feedback_csv,
    write_long_csv,
    write_matrix_csv,
    write_meta,
    write_pgm,
    write_trajectory_csv,
    write_trajectory_text,
)
from .states import Model, ModelParams
from .sweep import Scenario, SweepSpec, run_sweep


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_start(text: str) -> tuple[int, int]:
    try:
        s1, s2 = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"start must look like '1,0', got {text!r}") from exc
    return (s1, s2)


# Option schemas: dest -> (converter, default). The same schema drives both
# the argparse flags and the config-file validation.
_SCHEMAS: dict[str, dict[str, tuple]] = {
    "trajectory": {
        "model": (int, 1),
        "p1": (float, 0.3),
        "p2": (float, 0.3),
        "steps": (int, 20),
        "seed": (int, 0),
        "start": (_parse_start, (1, 0)),
        "out": (str, "trajectory"),
    },
    "evolve": {
        "model": (int, 1),
        "p1": (float, 0.3),
        "p2": (float, 0.3),
        "steps": (int, 20),
        "start": (_parse_start, (1, 0)),
        "out": (str, "evolve"),
    },
    "selfconsistent": {
        "model": (int, 1),
        "p1": (float, 0.5),
        "p2": (float, 0.5),
        "vc": (float, 0.1),
        "inner_steps": (int, 20),
        "turns": (int, 20),
        "gender_mode": (str, "blind"),
        "engine": (str, "exact"),
        "ensemble_size": (int, 1000),
        "seed": (int, 0),
        "start": (_parse_start, (1, 0)),
        "out": (str, "selfconsistent"),
    },
    "sweep": {
        "scenario": (str, "model1-plain"),
        "resolution": (int, 51),
        "runs_per_cell": (int, None),
        "engine": (str, "exact"),
        "ensemble_size": (int, 1000),
        "seed": (int, 0),
        "vc": (float, 0.1),
        "inner_steps": (int, 20),
        "turns": (int, 20),
        "plain_steps": (int, None),
        "start": (_parse_start, (1, 0)),
        "threads": (int, 1),
        "outdir": (str, None),
        "pgm": (_parse_bool, False),
    },
    "audit-kernel": {
        "model": (int, 1),
        "param": (float, 0.5),
        "param2": (float, None),
        "couple": (_parse_bool, False),
        "out": (str, None),
    },
}


def _load_config(path: str, schema: dict[str, tuple]) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        text = text.strip().strip("\"'")
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        converter = schema[key][0]
        try:
            values[key] = converter(text)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    schema = _SCHEMAS[command]
    resolved = {key: default for key, (_, default) in schema.items()}
    if args.config:
        resolved.update(_load_config(args.config, schema))
    for key in schema:
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
    return resolved


def _model(number: int) -> Model:
    try:
        return Model(number)
    except ValueError as exc:
        raise ConfigError(f"model must be 1 or 2, got {number!r}") from exc


def _enum(cls, text: str, what: str):
    try:
        return cls(text)
    except ValueError as exc:
        choices = ", ".join(member.value for member in cls)
        raise ConfigError(f"{what} must be one of: {choices}; got {text!r}") from exc


def _meta(cfg: dict) -> dict:
    return {key: ("" if value is None else value) for key, value in cfg.items()}


def _cmd_trajectory(cfg: dict) -> int:
    params = ModelParams(model=_model(cfg["model"]), p1=cfg["p1"], p2=cfg["p2"])
    trajectory = sample_trajectory(cfg["start"], params, cfg["steps"], cfg["seed"])
    for line in format_trajectory(trajectory):
        print(line)
    prefix = Path(cfg["out"])
    write_trajectory_text(prefix.with_suffix(".txt"), trajectory)
    write_trajectory_csv(prefix.with_suffix(".csv"), trajectory)
    write_meta(Path(str(prefix) + "_meta.txt"), _meta(cfg))
    return 0


def _cmd_evolve(cfg: dict) -> int:
    params = ModelParams(model=_model(cfg["model"]), p1=cfg["p1"], p2=cfg["p2"])
    kernel = build_couple_kernel(params)
    trace = evolve_trace(delta_distribution(cfg["start"]), kernel, cfg["steps"])
    prefix = Path(cfg["out"])
    write_distribution_trace_csv(prefix.with_suffix(".csv"), trace)
    write_meta(Path(str(prefix) + "_meta.txt"), _meta(cfg))
    print(f"wrote {prefix.with_suffix('.csv')}")
    return 0


def _cmd_selfconsistent(cfg: dict) -> int:
    params = ModelParams(model=_model(cfg["model"]), p1=cfg["p1"], p2=cfg["p2"])
    config = FeedbackConfig(
        vc=cfg["vc"],
        inner_steps=cfg["inner_steps"],
        turns=cfg["turns"],
        gender_mode=_enum(GenderMode, cfg["gender_mode"], "gender-mode"),
        engine=_enum(Engine, cfg["engine"], "engine"),
        ensemble_size=cfg["ensemble_size"],
    )
    trace = self_consistent_run(params, config, start=cfg["start"], master_seed=cfg["seed"])
    prefix = Path(cfg["out"])
    write_feedback_csv(prefix.with_suffix(".csv"), trace)
    write_meta(Path(str(prefix) + "_meta.txt"), _meta(cfg))
    last = trace[-1]
    print(f"final p1={last.p1:.6f} p2={last.p2:.6f} v1={last.v1:.6f} v2={last.v2:.6f}")
    print(f"wrote {prefix.with_suffix('.csv')}")
    return 0


def _cmd_sweep(cfg: dict) -> int:
    scenario = _enum(Scenario, cfg["scenario"], "scenario")
    spec = SweepSpec(
        scenario=scenario,
        resolution=cfg["resolution"],
        runs_per_cell=cfg["runs_per_cell"],
        engine=_enum(Engine, cfg["engine"], "engine"),
        ensemble_size=cfg["ensemble_size"],
        master_seed=cfg["seed"],
        vc=cfg["vc"],
        inner_steps=cfg["inner_steps"],
        turns=cfg["turns"],
        plain_steps=cfg["plain_steps"],
        start=cfg["start"],
    )
    grid = run_sweep(spec, workers=cfg["threads"])
    outdir = Path(cfg["outdir"] or f"sweep-{scenario.value}")
    outdir.mkdir(parents=True, exist_ok=True)
    axis = spec.grid
    for name in spec.field_names:
        write_matrix_csv(outdir / f"{name}.csv", grid.fields[name], axis)
        if cfg["pgm"]:
            write_pgm(outdir / f"{name}.pgm", grid.fields[name])
    write_long_csv(outdir / "combined.csv", grid.fields, axis)
    write_meta(outdir / "meta.txt", _meta(cfg))
    print(f"wrote {len(spec.field_names)} field grids to {outdir}")
    return 0


def _cmd_audit_kernel(cfg: dict) -> int:
    model = _model(cfg["model"])
    if cfg["couple"]:
        p2 = cfg["param"] if cfg["param2"] is None else cfg["param2"]
        kernel = build_couple_kernel(ModelParams(model=model, p1=cfg["param"], p2=p2))
        header = ["s1", "s2", "s1_next", "s2_next", "probability"]
        rows = iter_couple_entries(kernel)
    else:
        header = ["s_self", "s_partner", "s_next", "probability"]
        rows = iter_individual_entries(model, cfg["param"])
    if cfg["out"]:
        write_csv(cfg["out"], header, rows)
        print(f"wrote {cfg['out']}")
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return 0


_COMMANDS = {
    "trajectory": _cmd_trajectory,
    "evolve": _cmd_evolve,
    "selfconsistent": _cmd_selfconsistent,
    "sweep": _cmd_sweep,
    "audit-kernel": _cmd_audit_kernel,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplesim",
        description="Two-partner couple dynamics: trajectories, exact evolution, "
        "self-consistent feedback, and phase-diagram sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        return p

    p = add("trajectory", "sample one stochastic trajectory")
    p.add_argument("--model", type=int, choices=(1, 2))
    p.add_argument("--p1", "--a1", "--s1", dest="p1", type=float)
    p.add_argument("--p2", "--a2", "--s2", dest="p2", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--start", type=_parse_start, help="initial couple state, e.g. 1,0")
    p.add_argument("--out", help="output prefix for .txt/.csv files")

    p = add("evolve", "evolve the exact 16-state distribution")
    p.add_argument("--model", type=int, choices=(1, 2))
    p.add_argument("--p1", "--a1", "--s1", dest="p1", type=float)
    p.add_argument("--p2", "--a2", "--s2", dest="p2", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--start", type=_parse_start)
    p.add_argument("--out", help="output prefix for the trace CSV")

    p = add("selfconsistent", "run the mean-field feedback loop")
    p.add_argument("--model", type=int, choices=(1, 2))
    p.add_argument("--p1", "--a1", "--s1", dest="p1", type=float)
    p.add_argument("--p2", "--a2", "--s2", dest="p2", type=float)
    p.add_argument("--vc", type=float)
    p.add_argument("--inner-steps", dest="inner_steps", type=int)
    p.add_argument("--turns", type=int)
    p.add_argument("--gender-mode", dest="gender_mode", choices=("blind", "specific"))
    p.add_argument("--engine", choices=("exact", "monte-carlo"))
    p.add_argument("--ensemble-size", dest="ensemble_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--start", type=_parse_start)
    p.add_argument("--out")

    p = add("sweep", "scan the (p1, p2) parameter plane")
    p.add_argument("--scenario", choices=[s.value for s in Scenario])
    p.add_argument("--resolution", type=int)
    p.add_argument("--runs-per-cell", dest="runs_per_cell", type=int)
    p.add_argument("--engine", choices=("exact", "monte-carlo"))
    p.add_argument("--ensemble-size", dest="ensemble_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--vc", type=float)
    p.add_argument("--inner-steps", dest="inner_steps", type=int)
    p.add_argument("--turns", type=int)
    p.add_argument("--plain-steps", dest="plain_steps", type=int)
    p.add_argument("--start", type=_parse_start)
    p.add_argument("--threads", type=int,
                   help="worker processes sharing Monte Carlo stacks (default 1)")
    p.add_argument("--outdir")
    p.add_argument("--pgm", action="store_true", default=None,
                   help="also write PGM heatmaps")

    p = add("audit-kernel", "dump nonzero kernel entries as CSV")
    p.add_argument("--model", type=int, choices=(1, 2))
    p.add_argument("--param", type=float, help="table parameter (a or s)")
    p.add_argument("--param2", type=float, help="partner 2 parameter for --couple")
    p.add_argument("--couple", action="store_true", default=None,
                   help="dump the 16x16 couple kernel instead of the 4-state table")
    p.add_argument("--out", help="CSV path (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args, args.command)
        return _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
