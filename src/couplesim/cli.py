"""Command-line frontend.

Commands: trajectory, evolve, selfconsistent, sweep, audit-kernel. Every
option can also come from a flat `key = value` config file (--config) whose
keys are the flag names, `-` and `_` alike; `#` starts a comment anywhere on
a line (`out = run#2` means `run`), blank lines are skipped and quotes around
a value are stripped. A flag and its key share one converter, so both reject
the same values. Flags win over the file, the file wins over the defaults,
and unknown keys are rejected. Exit codes: 0 on success, 2 for configuration
errors (a bad value, a malformed or unreadable config file, --threads below
1), 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from enum import Enum
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .feedback import Engine, FeedbackConfig, GenderMode, self_consistent_run
from .kernels import build_couple_kernel, individual_kernel, kernel_entries
from .markov import delta_distribution, evolve_trace
from .montecarlo import format_trajectory, sample_trajectory
from .output import (
    csv_lines,
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
from .states import CANONICAL_START, Model, ModelParams, validate_param
from .sweep import Scenario, SweepSpec, run_sweep


class ConfigError(argparse.ArgumentTypeError, ValueError):
    """A malformed option value or config file; argparse prints the message as is."""


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


class _OneOf:
    """Converter taking only an enum's values, parsed as their type (1, "exact")."""

    def __init__(self, enum: type[Enum]) -> None:
        self.choices = [member.value for member in enum]

    def __call__(self, text: str):
        try:
            value = type(self.choices[0])(text)
        except ValueError:
            value = None
        if value not in self.choices:
            raise ConfigError(f"expected one of {', '.join(map(str, self.choices))}; got {text!r}")
        return value


class _Option(NamedTuple):
    """One option: the flag is `--` plus its key with `_` turned into `-`."""

    convert: Callable[[str], Any]
    default: Any = None
    help: str | None = None
    aliases: tuple[str, ...] = ()


def _partners(default: float) -> dict[str, _Option]:
    """p1 and p2, also spelled --a1/--a2 (aggression) and --s1/--s2 (support)."""
    return {f"p{i}": _Option(float, default, aliases=(f"--a{i}", f"--s{i}")) for i in (1, 2)}


def _field_options(cls, **converters: Callable[[str], Any]) -> dict[str, _Option]:
    """Options named after fields of cls, defaulting to the fields' defaults (an enum's value)."""
    defaults = {name: getattr(cls, name) for name in converters}
    return {name: _Option(convert, getattr(defaults[name], "value", defaults[name]))
            for name, convert in converters.items()}


# The only declaration of each command's options, for flags and config keys
# alike. Key order is the order of the help text and of *_meta.txt. The
# reference setup's defaults are read from FeedbackConfig and SweepSpec.
_SCHEMAS: dict[str, dict[str, _Option]] = {
    "trajectory": {
        "model": _Option(_OneOf(Model), 1),
        **_partners(0.3),
        "steps": _Option(int, 20),
        "seed": _Option(int, 0),
        "start": _Option(_parse_start, CANONICAL_START, "initial couple state, e.g. 1,0"),
        "out": _Option(str, "trajectory", "output prefix for .txt/.csv files"),
    },
    "evolve": {
        "model": _Option(_OneOf(Model), 1),
        **_partners(0.3),
        "steps": _Option(int, 20),
        "start": _Option(_parse_start, CANONICAL_START),
        "out": _Option(str, "evolve", "output prefix for the trace CSV"),
    },
    "selfconsistent": {
        "model": _Option(_OneOf(Model), 1),
        **_partners(0.5),
        **_field_options(FeedbackConfig, vc=float, inner_steps=int, turns=int,
                         gender_mode=_OneOf(GenderMode), engine=_OneOf(Engine), ensemble_size=int),
        "seed": _Option(int, 0),
        "start": _Option(_parse_start, CANONICAL_START),
        "out": _Option(str, "selfconsistent"),
    },
    "sweep": {
        "scenario": _Option(_OneOf(Scenario), "model1-plain"),
        **_field_options(SweepSpec, resolution=int, runs_per_cell=int, engine=_OneOf(Engine),
                         ensemble_size=int),
        "seed": _Option(int, 0),
        **_field_options(SweepSpec, vc=float, inner_steps=int, turns=int, plain_steps=int,
                         start=_parse_start),
        "threads": _Option(int, 1, "worker processes sharing Monte Carlo stacks (default 1)"),
        "outdir": _Option(str),
        "pgm": _Option(_parse_bool, False, "also write PGM heatmaps"),
    },
    "audit-kernel": {
        "model": _Option(_OneOf(Model), 1),
        "param": _Option(float, 0.5, "table parameter (a or s)"),
        "param2": _Option(float, None, "partner 2 parameter for --couple"),
        "couple": _Option(_parse_bool, False,
                          "dump the 16x16 couple kernel instead of the 4-state table"),
        "out": _Option(str, None, "CSV path (default: stdout)"),
    },
}


def _load_config(path: str, schema: dict[str, _Option]) -> dict:
    try:
        content = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(content.splitlines(), start=1):
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
        try:
            values[key] = schema[key].convert(text)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    schema = _SCHEMAS[command]
    resolved = {key: option.default for key, option in schema.items()}
    if args.config:
        resolved.update(_load_config(args.config, schema))
    resolved.update((key, value) for key, value in vars(args).items()
                    if key in schema and value is not None)
    return resolved


def _by_name(cls, values: dict):
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def _out(cfg: dict, *suffixes: str) -> list[Path]:
    """--out plus each suffix (unlike with_suffix, keeps a dot), its directory made.

    A prefix without a file name ("" or ".") or a file where the directory
    should be fails here, before the run.
    """
    out = Path(cfg["out"])
    paths = [out.with_name(out.name + suffix) for suffix in suffixes]
    out.parent.mkdir(parents=True, exist_ok=True)
    return paths


def _cmd_trajectory(cfg: dict) -> int:
    text, csv, meta = _out(cfg, ".txt", ".csv", "_meta.txt")
    params = _by_name(ModelParams, cfg)
    trajectory = sample_trajectory(cfg["start"], params, cfg["steps"], cfg["seed"])
    for line in format_trajectory(trajectory):
        print(line)
    write_trajectory_text(text, trajectory)
    write_trajectory_csv(csv, trajectory)
    write_meta(meta, cfg)
    return 0


def _cmd_evolve(cfg: dict) -> int:
    csv, meta = _out(cfg, ".csv", "_meta.txt")
    kernel = build_couple_kernel(_by_name(ModelParams, cfg))
    trace = evolve_trace(delta_distribution(cfg["start"]), kernel, cfg["steps"])
    write_distribution_trace_csv(csv, trace)
    write_meta(meta, cfg)
    print(f"wrote {csv}")
    return 0


def _cmd_selfconsistent(cfg: dict) -> int:
    csv, meta = _out(cfg, ".csv", "_meta.txt")
    params, config = _by_name(ModelParams, cfg), _by_name(FeedbackConfig, cfg)
    trace = self_consistent_run(params, config, start=cfg["start"], master_seed=cfg["seed"])
    write_feedback_csv(csv, trace)
    write_meta(meta, cfg)
    last = trace[-1]
    print(f"final p1={last.p1:.6f} p2={last.p2:.6f} v1={last.v1:.6f} v2={last.v2:.6f}")
    print(f"wrote {csv}")
    return 0


def _cmd_sweep(cfg: dict) -> int:
    spec = _by_name(SweepSpec, {**cfg, "master_seed": cfg["seed"]})
    if cfg["threads"] < 1:  # as run_sweep would, but before the directory exists
        raise ValueError(f"workers must be at least 1, got {cfg['threads']}")
    outdir = Path(cfg["outdir"] or f"sweep-{spec.scenario.value}")
    outdir.mkdir(parents=True, exist_ok=True)  # a bad outdir fails before the computation
    grid = run_sweep(spec, workers=cfg["threads"])
    axis = spec.grid
    for name in spec.field_names:
        write_matrix_csv(outdir / f"{name}.csv", grid.fields[name], axis)
        if cfg["pgm"]:
            write_pgm(outdir / f"{name}.pgm", grid.fields[name])
    write_long_csv(outdir / "combined.csv", grid.fields, axis)
    write_meta(outdir / "meta.txt", cfg)
    print(f"wrote {len(spec.field_names)} field grids to {outdir}")
    return 0


def _cmd_audit_kernel(cfg: dict) -> int:
    model = Model(cfg["model"])
    if cfg["out"]:  # its directory, made before the table is built
        Path(cfg["out"]).parent.mkdir(parents=True, exist_ok=True)
    p2 = cfg["param"] if cfg["param2"] is None else validate_param(cfg["param2"], "param2")
    if cfg["couple"]:
        table = build_couple_kernel(ModelParams(model, cfg["param"], p2)).reshape(4, 4, 4, 4)
        header = ["s1", "s2", "s1_next", "s2_next", "probability"]
    else:
        table = individual_kernel(model, cfg["param"])
        header = ["s_self", "s_partner", "s_next", "probability"]
    rows = kernel_entries(table)
    if cfg["out"]:
        write_csv(cfg["out"], header, rows)
        print(f"wrote {cfg['out']}")
    else:
        print("\n".join(csv_lines(header, rows)))
    return 0


_COMMANDS = {
    "trajectory": (_cmd_trajectory, "sample one stochastic trajectory"),
    "evolve": (_cmd_evolve, "evolve the exact 16-state distribution"),
    "selfconsistent": (_cmd_selfconsistent, "run the mean-field feedback loop"),
    "sweep": (_cmd_sweep, "scan the (p1, p2) parameter plane"),
    "audit-kernel": (_cmd_audit_kernel, "dump nonzero kernel entries as CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="couplesim",
        description="Two-partner couple dynamics: trajectories, exact evolution, "
        "self-consistent feedback, and phase-diagram sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        for key, option in _SCHEMAS[command].items():
            flags = ("--" + key.replace("_", "-"), *option.aliases)
            kind = (dict(action="store_true") if option.convert is _parse_bool else
                    dict(type=option.convert, choices=getattr(option.convert, "choices", None)))
            p.add_argument(*flags, dest=key, default=None, help=option.help, **kind)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse reads `--key=--` as [] and skips the converter
            parser.error("an option's value cannot be '--'")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args, args.command)
        return _COMMANDS[args.command][0](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
