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

import numpy as np

from .states import Model

# The only list of each model's field names, in the order of read_fields'
# columns: the observables, then the violence v1, v2 each partner perceives.
FIELD_NAMES = {
    Model.AGGRESSION: ("normal", "separation", "male_violence", "female_violence", "v1", "v2"),
    Model.SUPPORT: ("normal", "threshold", "recovering", "violence_cycle", "mutual_violence",
                    "separation", "v1", "v2"),
}


def read_fields(model: Model, dist: np.ndarray, p1=0.0, p2=0.0) -> np.ndarray:
    """(N, F) fields of an (N,16) stack of distributions; a (16,) one gives N = 1.

    Columns follow FIELD_NAMES[model]. p1 and p2 (length N, or floats for
    a (16,) dist) are the supports that split P(2,2) into M and S; the
    aggression model ignores them. Every sum runs left to right as written.
    """
    grid = np.reshape(dist, (-1, 4, 4))

    def p(s1: int, s2: int) -> np.ndarray:
        return grid[:, s1 + 1, s2 + 1]

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


def _named(model: Model, part: slice, dist: np.ndarray, p1=0.0, p2=0.0) -> dict[str, float]:
    """The fields FIELD_NAMES[model][part] of one distribution, keyed by name."""
    row = read_fields(model, dist, p1, p2)[0].tolist()
    return dict(zip(FIELD_NAMES[model][part], row[part]))


def model1_basins(dist: np.ndarray) -> dict[str, float]:
    """Mass on the four absorbing states: normal, separation, male_violence, female_violence."""
    return _named(Model.AGGRESSION, slice(-2), dist)


def gender_violence(dist: np.ndarray) -> dict[str, float]:
    """v1 = P(2,-1) + P(2,2) and v2 = P(-1,2) + P(2,2)."""
    return _named(Model.AGGRESSION, slice(-2, None), dist)


def violent_marginals(dist: np.ndarray) -> dict[str, float]:
    """v1, v2: the probability that each partner is violent, the row/column-2 marginals."""
    return _named(Model.SUPPORT, slice(-2, None), dist)


def model2_observables(dist: np.ndarray, supp1: float, supp2: float) -> dict[str, float]:
    """Path weights of the support model at supports (supp1, supp2); recovering may be < 0."""
    return _named(Model.SUPPORT, slice(-2), dist, supp1, supp2)
