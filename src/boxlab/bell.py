"""Bell functionals: CHSH, the CGLMP family, and maximizer analysis.

Functionals here are affine in the box table and, once normalized, obey
the convention used throughout the package: value <= 0 on every local
box, maximum exactly 1 over the nonsignaling polytope.  CHSH and CGLMP
are normalized in closed form, from their known local bounds and
nonsignaling maxima; the tests check both against the LP.

The 2222 family the paper runs on, boxes with unbiased marginals, is
fixed by four correlators C_xy, and its CHSH facets by eight sign
patterns: `unbiased_box` builds the box of four correlators and
`chsh_signs` holds the patterns s_xy = (-1)^(xy + alpha*x + beta*y +
gamma).  The PR box has the correlators of pattern 0, the eight PR
vertices of `ns_vertices_2222` those of each pattern, and the eight
CHSH facets of `chsh_facets` are sum_xy s_xy C_xy / 2 - 1, CHSH
itself (`chsh_functional`) the first.  `lifted_chsh` builds the same
facet on any two inputs of each party of a bipartite scenario, with
the outputs split in two at each input: the CHSH-type rows,
each with local bound 0 and nonsignaling maximum 1, of which the eight
facets are 2222's.  `locality.is_local` certifies a box that violates
one by the row it violates most, with no LP; by Fine's theorem a 2222
box that violates none is local, and `is_local` glues its model in
closed form: no 2222 box solves an LP.  The isotropic family
(`isotropic`) is the same builder on the line (C, C, C, -C).  The box
builder and the correlators walk the 2222 table in its order (input
pairs outermost, outputs (a, b) innermost), and `lifted_chsh` and
`cglmp_raw` place their weights through `core.label_offsets`, the
layout's one table.  `normalize` serves the functionals found at run
time, such as the Farkas vectors of the membership LP that
`locality.is_local` solves for a box that violates no CHSH-type row
outside 2222, for instance one that violates only an I3322- or
CGLMP-type facet, put on the spanning entries of
`polytope.spanning_entries`, less a multiple of the table's zero
entries there, and averaged over the box's stabilizer:
their local bound is the largest sum of the coefficients at the table
entries a deterministic strategy fires (`polytope.strategy_columns`),
taken in integers over the coefficients' common denominator
(`core.numerators`), and their
nonsignaling maximum comes from an exact LP.  The functions that solve
import lp and polytope themselves, so CHSH, CGLMP and the isotropic
family load neither.  `cglmp` builds no
family member past CGLMP_CAP outputs, the largest d at which the tests
check its closed form against the LP.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .core import (
    BadParams,
    Box,
    Frozen,
    Scenario,
    ScenarioMismatch,
    ZERO,
    ONE,
    ensure,
    label_offsets,
    numerators,
)

CGLMP_CAP = 4


def scenario_2222() -> Scenario:
    return Scenario((2, 2), (2, 2))


def unbiased_box(c00, c01, c10, c11) -> Box:
    """The 2222 box with unbiased marginals and correlators (C00, C01,
    C10, C11), each in [-1, 1]: P(ab|xy) = (1 + (-1)^(a+b) C_xy) / 4,
    walked in table order."""
    return Box(scenario_2222(), tuple((ONE + s * c) / 4 for c in (c00, c01, c10, c11) for s in (1, -1, -1, 1)))


@functools.lru_cache(maxsize=1)
def chsh_signs() -> tuple[tuple[int, int, int, int], ...]:
    """The eight sign patterns (s00, s01, s10, s11), s_xy = (-1)^(xy +
    alpha*x + beta*y + gamma), (alpha, beta, gamma) in product order.
    Built once."""
    return tuple(
        tuple((-1) ** (x * y + alpha * x + beta * y + gamma) for x in (0, 1) for y in (0, 1))
        for alpha, beta, gamma in itertools.product((0, 1), repeat=3)
    )


def pr_box() -> Box:
    """The extremal box with a + b mod 2 = xy, uniform on its support:
    correlators (1, 1, 1, -1)."""
    return unbiased_box(1, 1, 1, -1)


def correlators(box: Box) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(C00, C01, C10, C11), exactly, where
    C_xy = P(00|xy) + P(11|xy) - P(01|xy) - P(10|xy)."""
    if box.scenario != scenario_2222():
        raise ScenarioMismatch(f"need a 2-party binary-input/output box, got {box.scenario}")
    # the table in order: one block of (a, b) = 00, 01, 10, 11 per (x, y)
    blocks = zip(*[iter(box.table)] * 4)
    return tuple(p00 - p01 - p10 + p11 for p00, p01, p10, p11 in blocks)


def chsh(box: Box) -> Fraction:
    """CHSH in the normalized convention: (C00+C01+C10-C11)/2 - 1.

    At most 0 on local boxes, exactly 1 at the nonsignaling maximum.
    """
    c00, c01, c10, c11 = correlators(box)
    return (c00 + c01 + c10 - c11) / 2 - 1


class BellFunctional(Frozen):
    """Affine functional on boxes: coefficients . table + offset.

    Coefficients are indexed like Box.table.  Normalized functionals have
    local bound 0 and nonsignaling maximum 1; use normalize() to enforce
    that and normalization_bounds() to inspect the raw bounds.
    """

    def __init__(self, scenario: Scenario, coefficients: tuple, offset: Fraction = ZERO):
        d = self.__dict__
        d["scenario"] = scenario
        d["coefficients"] = coefficients
        d["offset"] = offset

    def evaluate(self, box: Box) -> Fraction:
        if box.scenario != self.scenario:
            raise ScenarioMismatch("functional and box live on different scenarios")
        total = self.offset
        for c, p in zip(self.coefficients, box.table):
            if c and p:
                total += c * p
        return total


def chsh_functional() -> BellFunctional:
    """CHSH as an explicit coefficient table with offset -1: facet 0 of
    chsh_facets, (C00 + C01 + C10 - C11) / 2 - 1."""
    return chsh_facets()[0]


@functools.lru_cache(maxsize=1)
def chsh_facets() -> tuple[BellFunctional, ...]:
    """The eight normalized CHSH facets of the 2222 local polytope, built
    once: per sign pattern s of chsh_signs, sum_xy s_xy C_xy / 2 - 1, the
    rows of lifted_chsh on both inputs of each party with output 0 set
    against output 1, whose coefficient at P(ab|xy) is s_xy (-1)^(a+b) /
    2.  Facet (alpha, beta, gamma) counts a + b = xy + alpha*x + beta*y +
    gamma (mod 2) as CHSH counts a + b = xy, and the PR box of the same
    pattern, vertex 16 + k of ns_vertices_2222, gives facet k its maximum
    1.  By Fine's theorem (PRL 48, 291, 1982) they and positivity are
    every facet of the polytope, so a nonsignaling 2222 box is local
    exactly when it violates none of them."""
    both = ((0, (0,)), (1, (0,)))
    return tuple(lifted_chsh(scenario_2222(), signs, both, both) for signs in chsh_signs())


@functools.lru_cache(maxsize=64)
def lifted_chsh(scenario: Scenario, signs: tuple, alice: tuple, bob: tuple) -> BellFunctional:
    """The normalized CHSH-type row of a bipartite scenario on two inputs
    of each party, output-lifted: alice = ((x0, S0), (x1, S1)) names
    Alice's two inputs and, at each, a tuple S_i of outputs set against
    the rest, bob = ((y0, T0), (y1, T1)) Bob's, and signs = (s00, s01,
    s10, s11) is a pattern of chsh_signs.  With t_i(a) = 1 if a is in S_i
    and -1 otherwise, and u_j(b) likewise, the coefficient at P(ab | x_i
    y_j) is s_ij t_i(a) u_j(b) / 2, each a Fraction of its own, and 0 at
    the other inputs; the offset is -1.  It is the CHSH facet of the box
    coarse-grained to the outputs "a in S_i or not" and "b in T_j or
    not", so its local bound is 0, since a local box coarse-grains into a
    local 2222 box, and its nonsignaling maximum 1, which a PR box on the
    coarse-grained outputs attains when each set and its complement are
    nonempty (Collins & Gisin, J. Phys. A 37, 1775, 2004; Pironio, J.
    Math. Phys. 46, 062112, 2005).  Kept in a small cache, so a row that
    certifies box after box is built once."""
    (A, B), (at_a, at_b) = scenario.outputs, label_offsets(scenario)
    coefficients = [ZERO] * scenario.table_size
    for s, ((x, S), (y, T)) in zip(signs, itertools.product(alice, bob)):
        for a, b in itertools.product(range(A), range(B)):
            sign = s if (a in S) == (b in T) else -s
            coefficients[at_a[x * A + a] + at_b[y * B + b]] = Fraction(sign, 2)
    return BellFunctional(scenario, tuple(coefficients), -ONE)


def local_bound(functional: BellFunctional) -> Fraction:
    """Maximum of the functional over the deterministic strategy boxes,
    exactly: a strategy box holds 1 at the entries of its
    `polytope.strategy_columns` row and 0 elsewhere, so its value is the
    offset plus the coefficients there, summed as integer numerators
    over the coefficients' common denominator."""
    from . import polytope

    den, nums = numerators(functional.coefficients)
    best = max(sum(map(nums.__getitem__, cols)) for cols in polytope.strategy_columns(functional.scenario))
    return functional.offset + Fraction(best, den)


def normalization_bounds(functional: BellFunctional) -> tuple[Fraction, Fraction]:
    """(local bound, nonsignaling maximum) of the functional, exactly.

    The local bound is `local_bound`, the maximum over the deterministic
    strategy boxes read through the scenario's strategy index table; the
    NS maximum comes from one LP over the nonsignaling polytope
    (`polytope.max_over_ns`).
    """
    from . import lp, polytope

    out = polytope.max_over_ns(functional.scenario, enumerate(functional.coefficients))
    ensure(out.status == lp.OPTIMAL, f"NS maximum LP ended {out.status}")
    return local_bound(functional), out.value + functional.offset


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
    (local bound 2, nonsignaling maximum 4), before normalization."""
    if d < 2:
        raise BadParams("CGLMP needs at least two outputs")
    sc = Scenario((2, 2), (d, d))
    coeffs = [ZERO] * sc.table_size
    at_a, at_b = label_offsets(sc)

    def add(x, y, rel, weight):
        # rel(a, b) selects the entries P(a,b|x,y) receiving this weight
        for a in range(d):
            for b in range(d):
                if rel(a, b):
                    coeffs[at_a[x * d + a] + at_b[y * d + b]] += weight

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


def cglmp(d: int) -> BellFunctional:
    """Normalized CGLMP functional (local bound 0, NS max 1), for d up to
    CGLMP_CAP: the raw functional halved, with offset -1.  Its local
    bound is 2 and its nonsignaling maximum 4 for every d (Collins et
    al., PRL 88, 040404, 2002; Barrett et al., PRA 71, 022101, 2005)."""
    if d > CGLMP_CAP:
        raise BadParams(f"d={d} above cap {CGLMP_CAP}")
    raw = cglmp_raw(d)
    return BellFunctional(raw.scenario, tuple(c / 2 for c in raw.coefficients), -ONE)


def unique_ns_maximizer(functional: BellFunctional):
    """Decide whether the functional's NS maximum is attained at a single box.

    Two LPs, by Mangasarian's test (Linear Algebra Appl. 25, 151, 1979).
    The first maximizes the functional over the NS polytope; the simplex
    ends on a vertex x of it.  The second maximizes the sum of the table
    entries where x is 0 over the optimal face: the NS rows plus the row
    f . p = max.  A point p of the face with that sum 0 is zero wherever
    x is, and the columns of x's support are linearly independent, since
    they lie in its basis, so the rows fix p on them: p = x.  So x is the
    only maximizer exactly when the second value is 0.  Returns (True,
    Box of x) then, else (False, None).
    """
    from . import lp, polytope

    sc = functional.scenario
    coefficients = list(enumerate(functional.coefficients))
    top = polytope.max_over_ns(sc, coefficients)
    ensure(top.status == lp.OPTIMAL, f"NS maximum LP ended {top.status}")
    face = polytope.ns_lp(sc, [(i, ONE) for i, p in enumerate(top.primal) if not p])
    face.add_eq(coefficients, top.value)
    off = lp.solve(face)
    ensure(off.status == lp.OPTIMAL, f"optimal-face LP ended {off.status}")
    if off.value:
        return False, None
    return True, Box(sc, top.primal)


def ns_vertices_2222() -> tuple[Box, ...]:
    """The 24 vertices of the 2222 nonsignaling polytope: 16 deterministic
    boxes and the 8 PR boxes, one per sign pattern of chsh_signs, the
    patterns of chsh_facets."""
    from . import polytope

    vertices = [s.box() for s in polytope.deterministic_strategies(scenario_2222())]
    return (*vertices, *(unbiased_box(*signs) for signs in chsh_signs()))
