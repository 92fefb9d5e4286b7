"""Scalar feedback loop: the independent oracle for self-consistent sweeps.

One cell runs one turn at a time in plain Python: a measure of a table of
one row from start (the package's one exact measurement), v1 and v2 clipped to [0, 1],
their average under gender-blind feedback, and the paper's update written
with Python floats, whose `**` is libm's pow:

  aggression (f): a' = 1 - (1-a)^(1+v-vc) if v > vc, else a^(vc-v+1)
  support (g):    s' = s^(v-vc+1)         if v > vc, else 1 - (1-s)^(1+vc-v)

This file is test code: it shares measure with the package, but not
feedback_turns, f_update or g_update, so it does not test the stacked
update or the skip of settled cells against themselves.
"""

from couplesim import Model, encode
from couplesim.feedback import measure
from couplesim.states import row_table


def paper_update(model: Model, p: float, v: float, vc: float) -> float:
    """f (aggression) or g (support) of the paper on Python floats."""
    if model is Model.AGGRESSION:
        return 1.0 - (1.0 - p) ** (1.0 + v - vc) if v > vc else p ** (vc - v + 1.0)
    return p ** (v - vc + 1.0) if v > vc else 1.0 - (1.0 - p) ** (1.0 + vc - v)


def scalar_feedback_fields(
    model: Model, p1: float, p2: float, blind: bool,
    vc: float = 0.1, inner_steps: int = 20, turns: int = 20, start=(1, 0),
) -> list[float]:
    """The read_fields row of one cell measured after `turns` updates, v clipped."""
    for turn in range(turns + 1):
        rows = row_table([p1], [p2], [vc], [encode(start)])
        *observables, v1, v2 = measure(model, rows, inner_steps, 1)[0].tolist()
        v1, v2 = min(max(v1, 0.0), 1.0), min(max(v2, 0.0), 1.0)
        if turn == turns:
            return [*observables, v1, v2]
        if blind:
            v1 = v2 = (v1 + v2) / 2.0
        p1, p2 = paper_update(model, p1, v1, vc), paper_update(model, p2, v2, vc)
