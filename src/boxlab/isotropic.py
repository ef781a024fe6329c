"""The isotropic family and the randomized local maps acting on it.

An isotropic box mixes the PR box with uniform noise; its single
parameter C fixes the CHSH value at 2C - 1.  It is the unbiased 2222 box
(`bell.unbiased_box`) with correlators (C, C, C, -C).  Membership is
decided exactly: a 2222 box is isotropic when it equals
make_isotropic(C) for its correlator C00, so equal correlators with a
biased marginal do not make a box isotropic.  Depolarization averages
any 2222 box over eight local relabelings (two symmetrizing flips times
four input/output rewirings); the average keeps only the CHSH
combination of the correlators, so it is the unbiased box on the line
(C, C, C, -C) with C = (C00 + C01 + C10 - C11) / 4, the same CHSH value.
Shrinking lets one party trade C for noise: C -> (1 - eps) C.
"""

from __future__ import annotations

from fractions import Fraction

from .bell import correlators, scenario_2222, unbiased_box
from .core import BadParams, Box, BoxlabError, ScenarioMismatch, rat


class NotIsotropic(BoxlabError):
    pass


def make_isotropic(c) -> Box:
    """C * PR + (1 - C) * uniform noise, the unbiased box with
    correlators (C, C, C, -C); C = 1 is the PR box itself."""
    c = rat(c)
    if not 0 <= c <= 1:
        raise BadParams(f"isotropic parameter must be in [0, 1], got {c}")
    return unbiased_box(c, c, c, -c)


def is_isotropic(box: Box) -> bool:
    """Whether the box is make_isotropic(C) for C its correlator C00,
    decided exactly, entry by entry: a box with equal correlators
    (C, C, C, -C) but a biased marginal is not in the family."""
    if box.scenario != scenario_2222():
        return False
    c = correlators(box)[0]
    return 0 <= c <= 1 and box == make_isotropic(c)


def isotropic_parameter(box: Box) -> Fraction:
    if not is_isotropic(box):
        raise NotIsotropic("box is not in the isotropic family")
    return correlators(box)[0]


def depolarize(box: Box) -> Box:
    """Average the box over the eight depolarizing operations: the
    unbiased box with correlators (C, C, C, -C), C = (C00 + C01 + C10 -
    C11) / 4, for any 2222 table, signaling or not.

    The result has exactly the CHSH value of the input.  For boxes below
    CHSH = -1 the line parameter is negative; a sign fix would change
    CHSH, so none is applied here.
    """
    if box.scenario != scenario_2222():
        raise ScenarioMismatch("depolarization is defined for 2222 boxes")
    c00, c01, c10, c11 = correlators(box)
    c = (c00 + c01 + c10 - c11) / 4
    return unbiased_box(c, c, c, -c)


def shrink(box: Box, eps) -> Box:
    """Bob keeps his output with probability 1 - eps, else outputs a fair
    coin; sends isotropic C to isotropic (1 - eps) C."""
    eps = rat(eps)
    if not 0 <= eps <= 1:
        raise BadParams(f"shrink noise must be in [0, 1], got {eps}")
    if not is_isotropic(box):
        raise NotIsotropic("shrink expects an isotropic box")
    return make_isotropic((1 - eps) * correlators(box)[0])
