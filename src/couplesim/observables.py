"""Scalar measurements extracted from a couple distribution.

The support model's path weights follow the published formulas verbatim:
the recovering weight R subtracts P(-1,2) + P(2,-1) (mass passing through
the one-sided-violence states on its way back to calm) while the violence
cycle V adds the same two terms. The signed terms therefore cancel in
N + T + R + V + P(2,2), which equals 1 minus exactly that pass-through
mass once the unreachable states (2,1), (1,2) are empty. Likewise M and S
split P(2,2) by support factors and do not add up to it for interior
supports; both are reported as defined, without renormalization.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .states import Model, encode


@dataclass(frozen=True)
class AbsorptionBasins:
    """Mass on the four absorbing states of the aggression model."""

    normal: float
    separation: float
    male_violence: float
    female_violence: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass(frozen=True)
class GenderViolence:
    """Per-partner violence exposure v1, v2."""

    v1: float
    v2: float


@dataclass(frozen=True)
class PathWeights:
    """Support-model path weights; recovering may be negative by design."""

    normal: float
    threshold: float
    recovering: float
    violence_cycle: float
    mutual_violence: float
    separation: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


# Each model's record of observables; the columns of read_fields are its
# fields, then v1 and v2.
RECORDS = {Model.AGGRESSION: AbsorptionBasins, Model.SUPPORT: PathWeights}
FIELD_NAMES = {m: (*(f.name for f in fields(record)), "v1", "v2") for m, record in RECORDS.items()}


def read_fields(model: Model, dist: np.ndarray, p1=0.0, p2=0.0) -> np.ndarray:
    """(N, F) fields of an (N,16) stack of distributions; a (16,) one gives N = 1.

    Columns follow FIELD_NAMES[model]. p1 and p2 (length N, or floats for
    a (16,) dist) are the supports that split P(2,2) into M and S; the
    aggression model ignores them. Every sum runs left to right as written.
    """
    by_state = np.reshape(dist, (-1, 16)).T

    def p(s1: int, s2: int) -> np.ndarray:
        return by_state[encode((s1, s2))]

    if model is Model.AGGRESSION:
        columns = (p(0, 0), p(2, 2), p(2, -1), p(-1, 2), p(2, -1) + p(2, 2), p(-1, 2) + p(2, 2))
    else:
        columns = (
            p(0, 0),
            p(0, 1) + p(1, 0) + p(1, 1),
            p(-1, 0) + p(0, -1) + p(-1, 1) + p(1, -1) + p(-1, -1) - (p(-1, 2) + p(2, -1)),
            p(-1, 2) + p(2, -1) + p(0, 2) + p(2, 0),
            p(2, 2) * (1.0 - p1) * (1.0 - p2),
            p(2, 2) * p1 * p2,
            p(2, -1) + p(2, 0) + p(2, 1) + p(2, 2),
            p(-1, 2) + p(0, 2) + p(1, 2) + p(2, 2),
        )
    return np.array(columns).T


def _row(model: Model, dist: np.ndarray, p1: float = 0.0, p2: float = 0.0) -> list[float]:
    return [float(x) for x in read_fields(model, dist, p1, p2)[0]]


def model1_basins(dist: np.ndarray) -> AbsorptionBasins:
    """Read the four absorbing-state components of a distribution."""
    return AbsorptionBasins(*_row(Model.AGGRESSION, dist)[:4])


def gender_violence(dist: np.ndarray) -> GenderViolence:
    """v1 = P(2,-1) + P(2,2) and v2 = P(-1,2) + P(2,2)."""
    return GenderViolence(*_row(Model.AGGRESSION, dist)[4:])


def violent_marginals(dist: np.ndarray) -> GenderViolence:
    """Probability that each partner is violent: the row/column-2 marginals."""
    return GenderViolence(*_row(Model.SUPPORT, dist)[6:])


def model2_observables(dist: np.ndarray, supp1: float, supp2: float) -> PathWeights:
    """Path weights of the support model at supports (supp1, supp2)."""
    return PathWeights(*_row(Model.SUPPORT, dist, supp1, supp2)[:6])
