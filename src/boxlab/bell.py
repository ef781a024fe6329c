"""Bell functionals: CHSH, the CGLMP family, and maximizer analysis.

Functionals here are affine in the box table and, once normalized, obey
the convention used throughout the package: value <= 0 on every local
box, maximum exactly 1 over the nonsignaling polytope.  Normalization is
computed, not hard-coded: the local bound comes from enumerating
deterministic strategies, the nonsignaling maximum from an exact LP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import lp, polytope
from .core import (
    BadParams,
    Box,
    Scenario,
    ScenarioMismatch,
    ZERO,
    ONE,
    box_from_function,
    ensure,
    relabel,
    uniform_box,
)

CGLMP_DEFAULT_CAP = 4


def scenario_2222() -> Scenario:
    return Scenario((2, 2), (2, 2))


def pr_box() -> Box:
    """The extremal box with a + b mod 2 = xy, uniform on its support."""
    return box_from_function(
        scenario_2222(),
        lambda outs, xs: Fraction(1, 2) if (outs[0] + outs[1]) % 2 == xs[0] * xs[1] else 0,
    )


@dataclass(frozen=True)
class Correlators:
    c00: Fraction
    c01: Fraction
    c10: Fraction
    c11: Fraction

    def as_tuple(self):
        return (self.c00, self.c01, self.c10, self.c11)


def _require_2222(box: Box):
    if box.scenario != scenario_2222():
        raise ScenarioMismatch(
            f"need a 2-party binary-input/output box, got {box.scenario}"
        )


def correlators(box: Box) -> Correlators:
    """C_xy = P(00|xy) + P(11|xy) - P(01|xy) - P(10|xy), exactly."""
    _require_2222(box)
    vals = []
    for x in (0, 1):
        for y in (0, 1):
            c = ZERO
            for a in (0, 1):
                for b in (0, 1):
                    p = box.prob((a, b), (x, y))
                    c += p if a == b else -p
            vals.append(c)
    return Correlators(*vals)


def chsh(box: Box) -> Fraction:
    """CHSH in the normalized convention: (C00+C01+C10-C11)/2 - 1.

    At most 0 on local boxes, exactly 1 at the nonsignaling maximum.
    """
    c = correlators(box)
    return (c.c00 + c.c01 + c.c10 - c.c11) / 2 - 1


@dataclass(frozen=True)
class BellFunctional:
    """Affine functional on boxes: coefficients . table + offset.

    Coefficients are indexed like Box.table.  Normalized functionals have
    local bound 0 and nonsignaling maximum 1; use normalize() to enforce
    that and normalization_bounds() to inspect the raw bounds.
    """

    scenario: Scenario
    coefficients: tuple[Fraction, ...]
    offset: Fraction = ZERO

    def evaluate(self, box: Box) -> Fraction:
        if box.scenario != self.scenario:
            raise ScenarioMismatch("functional and box live on different scenarios")
        total = self.offset
        for c, p in zip(self.coefficients, box.table):
            if c and p:
                total += c * p
        return total


def evaluate(functional: BellFunctional, box: Box) -> Fraction:
    return functional.evaluate(box)


def chsh_functional() -> BellFunctional:
    """CHSH as an explicit coefficient table with offset -1."""
    sc = scenario_2222()
    coeffs = [ZERO] * sc.table_size
    for x in (0, 1):
        for y in (0, 1):
            sign = ONE if (x, y) != (1, 1) else -ONE
            for a in (0, 1):
                for b in (0, 1):
                    val = sign if a == b else -sign
                    coeffs[sc.flat_index((a, b), (x, y))] = val / 2
    return BellFunctional(sc, tuple(coeffs), -ONE)


def normalization_bounds(functional: BellFunctional) -> tuple[Fraction, Fraction]:
    """(local bound, nonsignaling maximum) of the functional, exactly.

    The local bound is the maximum over all deterministic strategy boxes;
    the NS maximum comes from one LP over the nonsignaling polytope.
    """
    local = max(
        functional.evaluate(s.box())
        for s in polytope.deterministic_strategies(functional.scenario)
    )
    out = polytope.max_over_ns(functional.scenario, functional.coefficients)
    ensure(out.status == lp.OPTIMAL, f"NS maximum LP ended {out.status}")
    return local, out.value + functional.offset


def normalize(functional: BellFunctional) -> BellFunctional:
    """Affine rescale to local bound 0 and nonsignaling maximum 1."""
    local, ns_max = normalization_bounds(functional)
    span = ns_max - local
    if span <= 0:
        raise BadParams("functional is not violated by any nonsignaling box")
    coeffs = tuple(c / span for c in functional.coefficients)
    offset = (functional.offset - local) / span
    return BellFunctional(functional.scenario, coeffs, offset)


def cglmp_raw(d: int) -> BellFunctional:
    """CGLMP functional for two inputs and d outputs, in probability form
    (local bound 2), before normalization."""
    if d < 2:
        raise BadParams("CGLMP needs at least two outputs")
    sc = Scenario((2, 2), (d, d))
    coeffs = [ZERO] * sc.table_size

    def add(x, y, rel, weight):
        # rel(a, b) selects the entries P(a,b|x,y) receiving this weight
        for a in range(d):
            for b in range(d):
                if rel(a, b):
                    coeffs[sc.flat_index((a, b), (x, y))] += weight

    for k in range(d // 2):
        w = 1 - Fraction(2 * k, d - 1)
        add(0, 0, lambda a, b, k=k: (a - b) % d == k % d, w)
        add(1, 0, lambda a, b, k=k: (b - a) % d == (k + 1) % d, w)
        add(1, 1, lambda a, b, k=k: (a - b) % d == k % d, w)
        add(0, 1, lambda a, b, k=k: (b - a) % d == k % d, w)
        add(0, 0, lambda a, b, k=k: (a - b) % d == (-k - 1) % d, -w)
        add(1, 0, lambda a, b, k=k: (b - a) % d == (-k) % d, -w)
        add(1, 1, lambda a, b, k=k: (a - b) % d == (-k - 1) % d, -w)
        add(0, 1, lambda a, b, k=k: (b - a) % d == (-k - 1) % d, -w)
    return BellFunctional(sc, tuple(coeffs), ZERO)


def cglmp(d: int, cap: int = CGLMP_DEFAULT_CAP) -> BellFunctional:
    """Normalized CGLMP functional (local bound 0, NS max 1).

    d is capped to keep the normalizing LPs desk-scale; pass a larger cap
    explicitly to go beyond.
    """
    if d > cap:
        raise BadParams(f"d={d} above cap {cap}; raise cap explicitly if intended")
    return normalize(cglmp_raw(d))


def unique_ns_maximizer(functional: BellFunctional):
    """Decide whether the functional's NS maximum is attained at a single box.

    Maximizes the functional, then pins the optimum as an equality and
    computes min and max of every table coordinate on the optimal face.
    Returns (True, Box) when the face is a point, else (False, None).
    """
    sc = functional.scenario
    base = polytope.ns_lp(sc)
    out = polytope.max_over_ns(sc, functional.coefficients)
    ensure(out.status == lp.OPTIMAL, f"NS maximum LP ended {out.status}")
    opt = out.value
    face_eq = (list(functional.coefficients), opt)
    point = []
    for i in range(sc.table_size):
        obj = [ZERO] * sc.table_size
        obj[i] = ONE
        hi = polytope.max_over_ns(sc, obj, extra_eqs=[face_eq])
        obj_m = [ZERO] * sc.table_size
        obj_m[i] = -ONE
        lo = polytope.max_over_ns(sc, obj_m, extra_eqs=[face_eq])
        ensure(
            hi.status == lp.OPTIMAL and lo.status == lp.OPTIMAL,
            f"optimal-face LPs ended {hi.status}, {lo.status}",
        )
        if hi.value != -lo.value:
            return False, None
        point.append(hi.value)
    return True, Box(sc, tuple(point))


def relabelings_2222():
    """All 64 local reversible relabelings of the 2222 scenario, as
    (input_perms, output_perms) argument pairs for core.relabel."""
    perms2 = ((0, 1), (1, 0))
    out = []
    for pin_a in perms2:
        for pout_a in itertools.product(perms2, repeat=2):
            for pin_b in perms2:
                for pout_b in itertools.product(perms2, repeat=2):
                    out.append(
                        (
                            [pin_a, pin_b],
                            [list(pout_a), list(pout_b)],
                        )
                    )
    return out


def canonical_2222(box: Box) -> Box:
    """Deterministic canonical form with C00, C01, C10 >= 0.

    Exhausts the 64 local relabelings and returns the lexicographically
    smallest table among those in the required sign pattern.
    """
    _require_2222(box)
    best = None
    for in_perms, out_perms in relabelings_2222():
        cand = relabel(box, in_perms, out_perms)
        c = correlators(cand)
        if c.c00 >= 0 and c.c01 >= 0 and c.c10 >= 0:
            if best is None or cand.table < best.table:
                best = cand
    ensure(best is not None, "no relabeling reaches the canonical sign pattern")
    return best


def ns_vertices_2222() -> tuple[Box, ...]:
    """The 24 vertices of the 2222 nonsignaling polytope: 16 deterministic
    boxes and the 8 PR-box relabelings a + b = xy + ax + by + g (mod 2)."""
    sc = scenario_2222()
    vertices = [s.box() for s in polytope.deterministic_strategies(sc)]
    for alpha in (0, 1):
        for beta in (0, 1):
            for gamma in (0, 1):
                vertices.append(
                    box_from_function(
                        sc,
                        lambda outs, xs, a=alpha, b=beta, g=gamma: Fraction(1, 2)
                        if (outs[0] + outs[1]) % 2
                        == (xs[0] * xs[1] + a * xs[0] + b * xs[1] + g) % 2
                        else 0,
                    )
                )
    return tuple(vertices)


def uniform_2222() -> Box:
    return uniform_box(scenario_2222())
