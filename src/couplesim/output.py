"""File formats: CSV (header row, '.' decimals, LF endings) and binary PGM.

A sweep's grids go to CSV in one pass (write_grid_csvs): each p1 row of
every field is formatted once, with repr, and written both to the field's
matrix CSV and to the long CSV. write_matrix_csv and write_long_csv are that
pass with one kind of file.

Heatmap orientation: column = p1 from 0 (left) to 1 (right), row = p2 from
1 (top) to 0 (bottom), so the image reads like a phase diagram with p2 on
the upward axis. Values are clipped to [0, 1] and mapped 0 -> black,
1 -> white.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .states import COUPLE_STATES, CoupleState


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_lines(path: Path | str, lines: Iterable[str]) -> None:
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def csv_lines(header: Iterable[str], rows: Iterable[Iterable]) -> list[str]:
    """The lines of a CSV file, without line endings."""
    return [",".join(header), *(",".join(_fmt(v) for v in row) for row in rows)]


def write_csv(path: Path | str, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    write_lines(path, csv_lines(header, rows))


def _reprs(values) -> list[str]:
    """_fmt of every value as a float, flattened; tolist() gives Python floats."""
    return [repr(v) for v in np.asarray(values, dtype=float).ravel().tolist()]


def write_grid_csvs(
    fields: Mapping[str, np.ndarray],
    axis: np.ndarray,
    matrix_paths: Mapping[str, Path | str] | None = None,
    long_path: Path | str | None = None,
) -> None:
    """Matrix CSVs (matrix_paths[name] for fields[name]) and the long CSV in one pass.

    Row i of every field is formatted once and written to each open file
    before row i + 1 is read, so only one p1 row of text is held at a time.
    """
    matrix_paths = matrix_paths or {}
    axis_texts = _reprs(axis)
    with ExitStack() as stack:
        matrices = [(name, stack.enter_context(open(path, "wb")))
                    for name, path in matrix_paths.items()]
        long = stack.enter_context(open(long_path, "wb")) if long_path is not None else None
        header = (",".join(["p1", *axis_texts]) + "\n").encode("ascii")
        for _, fh in matrices:
            fh.write(header)
        if long is not None:
            long.write(b"p1,p2,field,value\n")
        for i, p1 in enumerate(axis_texts):
            row = {name: _reprs(values[i]) for name, values in fields.items()}
            for name, fh in matrices:
                fh.write((",".join([p1, *row[name]]) + "\n").encode("ascii"))
            if long is not None:
                lines = (f"{p1},{p2},{name},{texts[j]}\n"
                         for j, p2 in enumerate(axis_texts) for name, texts in row.items())
                long.write("".join(lines).encode("ascii"))


def write_matrix_csv(path: Path | str, values: np.ndarray, axis: np.ndarray) -> None:
    """Matrix over the parameter plane: first column p1, one column per p2."""
    write_grid_csvs({"values": values}, axis, matrix_paths={"values": path})


def write_long_csv(path: Path | str, fields: Mapping[str, np.ndarray], axis: np.ndarray) -> None:
    """Long format: one (p1, p2, field, value) row per cell and field."""
    write_grid_csvs(fields, axis, long_path=path)


def write_pgm(path: Path | str, values: np.ndarray) -> None:
    """Binary P5 heatmap, maxval 255; see module docstring for orientation."""
    clipped = np.clip(values, 0.0, 1.0)
    image = np.rint(clipped.T[::-1] * 255.0).astype(np.uint8)
    height, width = image.shape
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


def write_trajectory_csv(path: Path | str, states: Sequence[CoupleState]) -> None:
    rows = ([t, s1, s2] for t, (s1, s2) in enumerate(states))
    write_csv(path, ["t", "s1", "s2"], rows)


def distribution_columns() -> list[str]:
    return [f"p_{s1}_{s2}" for s1, s2 in COUPLE_STATES]


def write_distribution_trace_csv(path: Path | str, trace: np.ndarray) -> None:
    """Rows (t, 16 probabilities) for a distribution trace."""
    header = ["t"] + distribution_columns()
    rows = ([t] + [float(p) for p in trace[t]] for t in range(trace.shape[0]))
    write_csv(path, header, rows)


def write_meta(path: Path | str, config: Mapping[str, object]) -> None:
    """Echo a resolved configuration as flat `key = value` lines; None is left empty."""
    write_lines(path, (f"{key} = {'' if value is None else _fmt(value)}"
                       for key, value in config.items()))
