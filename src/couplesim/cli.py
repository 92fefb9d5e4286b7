"""Command-line frontend.

Commands: trajectory, evolve, selfconsistent, sweep, audit-kernel. Every
option can also come from a flat `key = value` config file (--config) whose
keys are the flag names, `-` and `_` alike; `#` starts a comment anywhere on
a line (`out = run#2` means `run`), blank lines are skipped and one matching
pair of quotes around a value is stripped (an unmatched quote is an error).
A flag and its key share one converter, so both reject the same values.
Flags win over the file, the file wins over the defaults, and unknown or
repeated keys are rejected; --start states are checked as the value is read,
and `--start -1,2` is read as `--start=-1,2` (argparse alone takes a token
starting `-1,` for a flag).

Each command checks every value, then names its files through `_out` (the
--out prefix or sweep's --outdir files: none may be an existing directory,
and their directory is made), then runs and writes. A rejected value
therefore leaves no file or directory behind. Exit codes: 0 on success, 2
for configuration errors (a bad value, a malformed or unreadable config
file, --threads below 1, an --out that names no file, an output file that
would be a directory), 3 for runtime failures.
"""

from __future__ import annotations

import argparse
import os
import re
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
    write_grid_csvs,
    write_lines,
    write_meta,
    write_pgm,
    write_trajectory_csv,
)
from .states import (
    CANONICAL_START, STATES, Model, ModelParams, encode, validate_count, validate_param,
)
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
    """Two comma-separated individual states, each checked by encode as it is read."""
    try:
        s1, s2 = (int(part) for part in text.split(","))
        encode((s1, s2))
    except ValueError as exc:
        raise ConfigError(f"start must look like '1,0', states in {STATES}, got {text!r}") from exc
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
        "threads": _Option(int, 1, "workers sharing the sweep's stacks (default 1): a pool "
                           "of that many threads for exact stacks, as numpy's stacked matmul "
                           "runs without the GIL, or processes for Monte Carlo stacks, as the "
                           "walk's many small numpy calls hold it; results kept by position"),
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
        key, text = key.strip().replace("-", "_"), text.strip()
        if text[:1] in ("'", '"') or text[-1:] in ("'", '"'):
            if len(text) < 2 or text[0] != text[-1]:
                raise ConfigError(f"{path}:{lineno}: unmatched quote in {text!r}")
            text = text[1:-1]
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: {key!r} is given a second time")
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


def _out(option: str, directory: str, *names: str) -> list[Path]:
    """directory/name for each name, the directory made: the only place outputs are named.

    Called once every value is checked and before the run. A name that is an
    existing directory raises ValueError, reported as `option` naming it; a
    file where the directory should be fails as the directory is made.
    """
    paths = [Path(directory, name) for name in names]
    for path in paths:
        if path.is_dir():
            raise ValueError(f"{option} names the directory {str(path)!r}, not a file")
    Path(directory).mkdir(parents=True, exist_ok=True)
    return paths


def _prefixed(cfg: dict, *suffixes: str) -> list[Path]:
    """--out plus each suffix (unlike with_suffix, keeps a dot) through _out.

    A prefix that names no file ("", ".", ".." or one ending in "/") raises
    ValueError.
    """
    directory, name = os.path.split(cfg["out"])
    if name in ("", ".", ".."):
        raise ValueError(f"--out {cfg['out']!r} names no file")
    return _out(f"--out {cfg['out']!r}", directory, *(name + suffix for suffix in suffixes))


def _cmd_trajectory(cfg: dict) -> None:
    params = _by_name(ModelParams, cfg)
    validate_count(cfg["steps"], "steps", 0)
    text, csv, meta = _prefixed(cfg, ".txt", ".csv", "_meta.txt")
    states = sample_trajectory(cfg["start"], params, cfg["steps"], cfg["seed"])
    lines = format_trajectory(states)
    print(*lines, sep="\n")
    write_lines(text, lines)
    write_trajectory_csv(csv, states)
    write_meta(meta, cfg)


def _cmd_evolve(cfg: dict) -> None:
    params = _by_name(ModelParams, cfg)
    validate_count(cfg["steps"], "steps", 0)
    csv, meta = _prefixed(cfg, ".csv", "_meta.txt")
    kernel = build_couple_kernel(params)
    trace = evolve_trace(delta_distribution(cfg["start"]), kernel, cfg["steps"])
    write_distribution_trace_csv(csv, trace)
    write_meta(meta, cfg)
    print(f"wrote {csv}")


def _cmd_selfconsistent(cfg: dict) -> None:
    params, config = _by_name(ModelParams, cfg), _by_name(FeedbackConfig, cfg)
    csv, meta = _prefixed(cfg, ".csv", "_meta.txt")
    trace = self_consistent_run(params, config, start=cfg["start"], master_seed=cfg["seed"])
    write_csv(csv, trace[0], (row.values() for row in trace))
    write_meta(meta, cfg)
    print("final", *(f"{key}={trace[-1][key]:.6f}" for key in ("p1", "p2", "v1", "v2")))
    print(f"wrote {csv}")


def _cmd_sweep(cfg: dict) -> None:
    spec = _by_name(SweepSpec, {**cfg, "master_seed": cfg["seed"]})
    validate_count(cfg["threads"], "threads", 1)  # as run_sweep does, before any file is named
    outdir, names = cfg["outdir"] or f"sweep-{spec.scenario.value}", spec.field_names
    kinds = ("csv", "pgm") if cfg["pgm"] else ("csv",)
    *paths, combined, meta = _out(f"--outdir {outdir!r}", outdir,
                                  *(f"{name}.{kind}" for kind in kinds for name in names),
                                  "combined.csv", "meta.txt")
    grid = run_sweep(spec, workers=cfg["threads"])
    write_grid_csvs(grid.fields, spec.grid, dict(zip(names, paths)), combined)
    for name, path in zip(names, paths[len(names):]):
        write_pgm(path, grid.fields[name])
    write_meta(meta, cfg)
    print(f"wrote {len(names)} field grids to {meta.parent}")


def _cmd_audit_kernel(cfg: dict) -> None:
    model, param = Model(cfg["model"]), validate_param(cfg["param"], "param")
    p2 = param if cfg["param2"] is None else validate_param(cfg["param2"], "param2")
    path = _prefixed(cfg, "")[0] if cfg["out"] else None  # "" writes to stdout
    if cfg["couple"]:
        table = build_couple_kernel(ModelParams(model, param, p2)).reshape(4, 4, 4, 4)
        header = ["s1", "s2", "s1_next", "s2_next", "probability"]
    else:
        table = individual_kernel(model, param)
        header = ["s_self", "s_partner", "s_next", "probability"]
    rows = kernel_entries(table)
    if path:
        write_csv(path, header, rows)
        print(f"wrote {cfg['out']}")
    else:
        print("\n".join(csv_lines(header, rows)))


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
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):  # argparse reads `-1,2` as a flag: join it to --start
        if argv[i] == "--start" and re.fullmatch(r"-?\d+,-?\d+", argv[i + 1]):
            argv[i:i + 2] = [f"--start={argv[i + 1]}"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse reads `--key=--` as [] and skips the converter
            parser.error("an option's value cannot be '--'")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _COMMANDS[args.command][0](_resolve(args, args.command))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
