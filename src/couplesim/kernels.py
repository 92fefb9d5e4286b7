"""Transition kernels for both couple models.

The individual tables give tau(s_next | s_self, s_partner) as an affine
function of the control parameter: every entry is const + slope * p.
That structure is exploited to build kernels as two small constant
tensors plus a scalar multiply, and it guarantees each row sums to 1
for any parameter value.

A couple kernel is the 16x16 product
    M[(s1,s2) -> (s1',s2')] = tau(s1' | s1, s2; p1) * tau(s2' | s2, s1; p2),
i.e. both partners update in parallel from the old pair.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .states import (
    CoupleState,
    Model,
    ModelParams,
    decode,
    validate_param,
    validate_state,
)

# Entries as {(s_self, s_partner): {s_next: (const, slope)}}; rows listed in
# self-state order -1, 0, 1, 2. Missing next-states have probability 0.

# Aggression-driven table (parameter a).
_TAU_AGGRESSION = {
    (-1, -1): {0: (1.0, 0.0)},
    (-1, 0): {0: (1.0, 0.0)},
    (-1, 1): {-1: (1.0, -1.0), 1: (0.0, 1.0)},
    (-1, 2): {-1: (1.0, 0.0)},
    (0, -1): {0: (1.0, 0.0)},
    (0, 0): {0: (1.0, 0.0)},
    (0, 1): {-1: (1.0, -1.0), 1: (0.0, 0.25), 2: (0.0, 0.75)},
    (0, 2): {-1: (1.0, -1.0), 2: (0.0, 1.0)},
    (1, -1): {-1: (1.0, -1.0), 2: (0.0, 1.0)},
    (1, 0): {-1: (1.0, -1.0), 1: (0.0, 0.25), 2: (0.0, 0.75)},
    (1, 1): {-1: (1.0, -1.0), 2: (0.0, 1.0)},
    (1, 2): {-1: (1.0, -1.0), 2: (0.0, 1.0)},
    (2, -1): {2: (1.0, 0.0)},
    (2, 0): {-1: (1.0, -1.0), 2: (0.0, 1.0)},
    (2, 1): {-1: (1.0, -1.0), 2: (0.0, 1.0)},
    (2, 2): {2: (1.0, 0.0)},
}

# Support-driven table (parameter s).
_TAU_SUPPORT = {
    (-1, -1): {0: (1.0, 0.0)},
    (-1, 0): {0: (1.0, 0.0)},
    (-1, 1): {-1: (1.0, 0.0)},
    (-1, 2): {-1: (1.0, 0.0)},
    (0, -1): {0: (1.0, 0.0)},
    (0, 0): {0: (0.0, 1.0), 1: (1.0, -1.0)},
    (0, 1): {0: (0.0, 1.0), 1: (1.0, -1.0)},
    (0, 2): {0: (1.0, 0.0)},
    (1, -1): {-1: (0.5, 0.0), 0: (0.5, 0.0)},
    (1, 0): {-1: (0.0, 1.0), 1: (1.0, -1.0)},
    (1, 1): {-1: (0.0, 1.0), 2: (1.0, -1.0)},
    (1, 2): {1: (1.0, 0.0)},
    (2, -1): {-1: (1.0, 0.0)},
    (2, 0): {0: (1.0, 0.0)},
    (2, 1): {2: (1.0, 0.0)},
    (2, 2): {0: (0.0, 1.0), 2: (1.0, -1.0)},
}

_TABLES = {Model.AGGRESSION: _TAU_AGGRESSION, Model.SUPPORT: _TAU_SUPPORT}


def _affine_tensors(model: Model) -> tuple[np.ndarray, np.ndarray]:
    """Constant and slope tensors, indexed [self+1, partner+1, next+1]."""
    const = np.zeros((4, 4, 4))
    slope = np.zeros((4, 4, 4))
    for (s, sp), row in _TABLES[model].items():
        for nxt, (c, m) in row.items():
            const[s + 1, sp + 1, nxt + 1] = c
            slope[s + 1, sp + 1, nxt + 1] = m
    const.setflags(write=False)
    slope.setflags(write=False)
    return const, slope


_AFFINE = {m: _affine_tensors(m) for m in Model}


def tau(model: Model, s_next: int, s_self: int, s_partner: int, param: float) -> float:
    """Entry tau(s_next | s_self, s_partner; param) of `model`'s individual table."""
    for state in (s_next, s_self, s_partner):  # a negative index would wrap silently
        validate_state(state)
    return float(individual_kernel(model, param)[s_self + 1, s_partner + 1, s_next + 1])


def individual_kernels(model: Model, params, name: str = "param") -> np.ndarray:
    """(N,4,4,4) individual tables of N parameters, one broadcast of const + slope * p."""
    const, slope = _AFFINE[model]
    params = validate_param(np.asarray(params, dtype=float), name)
    return const + slope * params[:, None, None, None]


@lru_cache(maxsize=512)
def individual_kernel(model: Model, param: float) -> np.ndarray:
    """4x4x4 table K[self+1, partner+1, next+1]; rows sum to 1."""
    kernel = individual_kernels(model, [validate_param(param)])[0]
    kernel.setflags(write=False)
    return kernel


def partner_tables(model: Model, p1, p2) -> tuple[np.ndarray, np.ndarray]:
    """Both partners' (N,4,4,4) tables of N cells, indexed [n, s1+1, s2+1, next+1].

    Each partner reads its table at (own state, partner's state): partner 1
    at (s1, s2), partner 2 at (s2, s1), so partner 2's table is a
    transposed view. This is the only place the couple state is swapped.
    """
    k2 = individual_kernels(model, p2, "p2").transpose(0, 2, 1, 3)
    return individual_kernels(model, p1, "p1"), k2


def couple_kernels(model: Model, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Read-only (N,16,16) product kernels of N cells with parameters p1[n], p2[n].

    Both partners update in parallel from the old pair: the outer product
    of the two partner_tables, built from one broadcast of the affine
    const + slope * p tensors.
    """
    k1, k2 = partner_tables(model, p1, p2)
    kernels = (k1[..., :, None] * k2[..., None, :]).reshape(-1, 16, 16)
    kernels.setflags(write=False)
    return kernels


def build_couple_kernel(params: ModelParams) -> np.ndarray:
    """The read-only 16x16 kernel of one cell: couple_kernels with N = 1."""
    return couple_kernels(params.model, [params.p1], [params.p2])[0]


def absorbing_states(kernel: np.ndarray) -> set[CoupleState]:
    """States whose self-transition probability equals 1 (to within 1e-12).

    This reads the matrix literally. The support model's two unreachable
    states (2,1) and (1,2) hold themselves with probability 1 and are
    therefore reported, even though no dynamics started elsewhere can
    ever enter them (see garden_of_eden_states).
    """
    return {decode(i) for i in range(16) if kernel[i, i] >= 1.0 - 1e-12}


def garden_of_eden_states(
    kernel: np.ndarray, exclude_self_loops: bool = False
) -> set[CoupleState]:
    """States with no incoming transition from any other state.

    Such states can only ever appear as initial conditions. Self-loops do
    not count as incoming transitions; with exclude_self_loops the states
    that do hold a self-loop are additionally dropped from the report.
    """
    return {
        decode(j) for j in range(16)
        if not np.delete(kernel[:, j], j).any()
        and not (exclude_self_loops and kernel[j, j] > 0.0)
    }


def kernel_entries(table: np.ndarray) -> Iterator[tuple]:
    """Nonzero (*states, probability) rows of a table indexed by state + 1 on every axis.

    Rows come in row-major order. The (4,4,4) individual table gives
    (s_self, s_partner, s_next, p); a couple kernel viewed as
    M.reshape(4, 4, 4, 4) gives (s1, s2, s1_next, s2_next, p), since encode
    is row-major over (s1 + 1, s2 + 1).
    """
    for index in np.argwhere(table):
        yield (*(index - 1).tolist(), float(table[tuple(index)]))
