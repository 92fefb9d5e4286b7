"""State space shared by every other module.

Each partner occupies one of four states: -1 (passive), 0 (normal),
1 (upset), 2 (violent). A couple state is the ordered pair (s1, s2);
the 16 pairs are indexed 0..15 row-major over (s1 + 1, s2 + 1), which
makes the 16x16 couple kernel a literal tensor product of the two
individual 4-way kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

STATES = (-1, 0, 1, 2)
STATE_NAMES = {-1: "passive", 0: "normal", 1: "upset", 2: "violent"}

CoupleState = tuple[int, int]

# The paper's canonical start: partner 1 upset, partner 2 normal.
CANONICAL_START: CoupleState = (1, 0)


class Model(Enum):
    """Which transition table drives the couple."""

    AGGRESSION = 1  # parameter p is the aggressiveness a
    SUPPORT = 2     # parameter p is the perceived social support s


def validate_state(value: int) -> int:
    """Return value if it is one of the four individual states, else raise."""
    if value not in STATES:
        raise ValueError(f"individual state must be one of {STATES}, got {value!r}")
    return value


def validate_param(value, name: str = "param"):
    """Return value if it lies in [0, 1], else raise; arrays are checked elementwise."""
    if getattr(value, "ndim", 0):
        if not ((0.0 <= value) & (value <= 1.0)).all():
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
        return value
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ModelParams:
    """A model choice (a Model or its value) plus two control parameters in [0, 1]."""

    model: Model
    p1: float
    p2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", Model(self.model))
        validate_param(self.p1, "p1")
        validate_param(self.p2, "p2")


def encode(state: CoupleState) -> int:
    """Index of a couple state: 4*(s1+1) + (s2+1)."""
    s1, s2 = state
    validate_state(s1)
    validate_state(s2)
    return 4 * (s1 + 1) + (s2 + 1)


def decode(index: int) -> CoupleState:
    """Inverse of encode; rejects indices outside 0..15."""
    if not 0 <= index <= 15:
        raise ValueError(f"couple state index must lie in 0..15, got {index!r}")
    return (index // 4 - 1, index % 4 - 1)


COUPLE_STATES: tuple[CoupleState, ...] = tuple(decode(i) for i in range(16))
