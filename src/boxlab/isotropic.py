"""The isotropic family and the randomized local maps acting on it.

An isotropic box mixes the PR box with uniform noise; its single
parameter C fixes the CHSH value at 2C - 1.  Depolarization averages any
2222 box over eight local relabelings (two symmetrizing flips times four
input/output rewirings) and lands on the isotropic line C00 = C01 = C10
= -C11 without changing CHSH.  Shrinking lets one party trade C for
noise: C -> (1 - eps) C.
"""

from __future__ import annotations

from fractions import Fraction

from .bell import correlators, pr_box, scenario_2222
from .core import (
    BadParams,
    Box,
    BoxlabError,
    ScenarioMismatch,
    ZERO,
    ensure,
    mix,
    rat,
    relabel,
    uniform_box,
)

_ID2 = (0, 1)
_SW2 = (1, 0)


class NotIsotropic(BoxlabError):
    pass


def make_isotropic(c) -> Box:
    """C * PR + (1 - C) * uniform noise; C = 1 is the PR box itself."""
    c = rat(c)
    if not 0 <= c <= 1:
        raise BadParams(f"isotropic parameter must be in [0, 1], got {c}")
    return mix([pr_box(), uniform_box(scenario_2222())], [c, 1 - c])


def is_isotropic(box: Box) -> bool:
    """Unbiased marginals and correlators (C, C, C, -C) with C >= 0."""
    if box.scenario != scenario_2222():
        return False
    for x in (0, 1):
        for y in (0, 1):
            for a in (0, 1):
                pa = box.prob((a, 0), (x, y)) + box.prob((a, 1), (x, y))
                if pa != Fraction(1, 2):
                    return False
    c = correlators(box)
    return c.c00 == c.c01 == c.c10 == -c.c11 and c.c00 >= 0


def isotropic_parameter(box: Box) -> Fraction:
    if not is_isotropic(box):
        raise NotIsotropic("box is not in the isotropic family")
    return correlators(box).c00


# The eight depolarizing operations as relabel() arguments.  Output flips
# are conditioned on the party's external input; the step-2 rewirings
# compose an input swap with input-conditioned output flips.

_STEP1 = [
    # nothing
    ([_ID2, _ID2], [[_ID2, _ID2], [_ID2, _ID2]]),
    # flip a and b
    ([_ID2, _ID2], [[_SW2, _SW2], [_SW2, _SW2]]),
]

_STEP2 = [
    # nothing
    ([_ID2, _ID2], [[_ID2, _ID2], [_ID2, _ID2]]),
    # flip a when x=1, and flip y
    ([_ID2, _SW2], [[_ID2, _SW2], [_ID2, _ID2]]),
    # flip x, and flip b when y=1
    ([_SW2, _ID2], [[_ID2, _ID2], [_ID2, _SW2]]),
    # flip x, flip a when x=0, flip y, flip b when y=1
    ([_SW2, _SW2], [[_SW2, _ID2], [_ID2, _SW2]]),
]


def depolarize(box: Box) -> Box:
    """Average the box over the eight depolarizing operations.

    The result is on the isotropic line (equal correlators, the last
    negated) with unbiased marginals, and has exactly the CHSH value of
    the input.  For boxes below CHSH = -1 the line parameter is negative;
    a sign fix would change CHSH, so none is applied here.
    """
    if box.scenario != scenario_2222():
        raise ScenarioMismatch("depolarization is defined for 2222 boxes")
    variants = []
    for in1, out1 in _STEP1:
        first = relabel(box, in1, out1)
        for in2, out2 in _STEP2:
            variants.append(relabel(first, in2, out2))
    return mix(variants, [Fraction(1, 8)] * 8)


def shrink(box: Box, eps) -> Box:
    """Bob keeps his output with probability 1 - eps, else outputs a fair
    coin; sends isotropic C to isotropic (1 - eps) C."""
    eps = rat(eps)
    if not 0 <= eps <= 1:
        raise BadParams(f"shrink noise must be in [0, 1], got {eps}")
    if not is_isotropic(box):
        raise NotIsotropic("shrink expects an isotropic box")
    half = Fraction(1, 2)
    table = []
    for xs in box.scenario.input_tuples():
        for outs in box.scenario.output_tuples():
            a, b = outs
            bob_sum = box.prob((a, 0), xs) + box.prob((a, 1), xs)
            table.append((1 - eps) * box.prob(outs, xs) + eps * half * bob_sum)
    out = Box(box.scenario, tuple(table))
    ensure(
        isotropic_parameter(out) == (1 - eps) * isotropic_parameter(box),
        "shrinking did not scale the isotropic parameter by 1 - eps",
    )
    return out


def equalize(box_ab: Box, box_ac: Box) -> tuple[Box, Box]:
    """Shrink the stronger of two isotropic boxes until the parameters match."""
    c1 = isotropic_parameter(box_ab)
    c2 = isotropic_parameter(box_ac)
    if c1 == c2:
        return box_ab, box_ac
    if c1 > c2:
        return shrink(box_ab, 1 - c2 / c1), box_ac
    return box_ab, shrink(box_ac, 1 - c1 / c2)
