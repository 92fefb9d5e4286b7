"""State space shared by every other module.

Each partner occupies one of four states: -1 (passive), 0 (normal),
1 (upset), 2 (violent). A couple state is the ordered pair (s1, s2);
the 16 pairs are indexed 0..15 row-major over (s1 + 1, s2 + 1), which
makes the 16x16 couple kernel a literal tensor product of the two
individual 4-way kernels.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import _u64

STATES = (-1, 0, 1, 2)

CoupleState = tuple[int, int]

# The paper's canonical start: partner 1 upset, partner 2 normal.
CANONICAL_START: CoupleState = (1, 0)


class Model(Enum):
    """Which transition table drives the couple."""

    AGGRESSION = 1  # parameter p is the aggressiveness a
    SUPPORT = 2     # parameter p is the perceived social support s


def validate_param(value, name: str = "param", scalar: bool = False):
    """Return value if every entry lies in [0, 1] (NaN does not), else raise.

    A scalar or 0-d array comes back as a float, any other array as given;
    with scalar=True any other array raises.
    """
    array = np.asarray(value)
    if scalar and array.ndim:
        raise ValueError(f"{name} must be a scalar, got {value!r}")
    if not ((0.0 <= array) & (array <= 1.0)).all():
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return value if array.ndim else float(value)


def validate_count(value, name: str, low: int, high: int | None = None):
    """int(value) if value is an integer, not a bool, from low up to high (if given), else raise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")
    return int(value)


@dataclass(frozen=True)
class ModelParams:
    """A model choice (a Model or its value) plus two control parameters in [0, 1]."""

    model: Model
    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", Model(self.model))
        for name in ("p1", "p2"):
            object.__setattr__(self, name, validate_param(getattr(self, name), name, scalar=True))


def encode(state: CoupleState) -> int:
    """Index of a couple state, a Python int: 4*(s1+1) + (s2+1)."""
    s1, s2 = state
    s1, s2 = validate_count(s1, "s1", -1, 2), validate_count(s2, "s2", -1, 2)
    return 4 * (s1 + 1) + (s2 + 1)


def decode(index: int) -> CoupleState:
    """Inverse of encode; rejects indices outside 0..15."""
    index = validate_count(index, "couple state index", 0, 15)
    return (index // 4 - 1, index % 4 - 1)


COUPLE_STATES: tuple[CoupleState, ...] = tuple(decode(i) for i in range(16))


class Rows(namedtuple("Rows", "p1 p2 vc start seed")):
    """A stack of N runs as a table of five length-N columns, one run a row.

    p1, p2 and vc are the parameters and violence threshold, start the couple
    state index a run starts from and seed its stream (None in an exact
    table, which draws nothing). Every engine runs a stack as such a table,
    and a single run is a table of one row. row_table builds one and checks
    every column once; take slices checked rows and checks nothing.
    """

    def take(self, index) -> "Rows":
        """The rows at index: a slice, a boolean mask or an index array."""
        return Rows(*(None if column is None else column[index] for column in self))


def row_table(p1, p2, vc, start, seed=None) -> Rows:
    """Rows from 1-D columns of one length, checked; no seed makes an exact table.

    p1, p2 and vc must be floats in [0, 1], start couple state indices
    (integers 0..15) and seed integers, taken mod 2**64; a column of
    another length or shape raises ValueError, as does any other value.
    """
    columns = [np.asarray(column) for column in (p1, p2, vc, start, seed) if column is not None]
    if {column.shape for column in columns} != {(columns[0].size,)}:
        raise ValueError(f"columns must be 1-D of one length, got {[c.shape for c in columns]}")
    p1, p2, vc = (validate_param(c.astype(float), n) for c, n in zip(columns, ("p1", "p2", "vc")))
    for index in set(columns[3].tolist()):
        decode(index)  # a couple state index, or ValueError
    return Rows(p1, p2, vc, columns[3].astype(int), seed if seed is None else _u64(seed, "seed"))
