"""Joint measurability of two observables and how much of a box resists it.

Two inputs of one party are compatible when a joint table reproduces
both conditional slices.  When they are not, the box still splits as
eta * (incompatible nonsignaling part) + (1 - eta) * (compatible part),
and the least such eta measures the incompatibility.  In the all-binary
scenario that minimum is exactly the (clamped) CHSH value, and it lower
bounds the output entropies: H(b) >= h(eta / 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import lp, polytope
from .bell import chsh
from .core import (
    Box,
    BoxlabError,
    Scenario,
    ScenarioMismatch,
    ZERO,
    ONE,
    ensure,
    is_nonsignaling,
    marginal,
    permute_parties,
)

ENTROPY_SLACK = 1e-12


class BadPair(BoxlabError):
    pass


class OutOfScope(BoxlabError):
    pass


@dataclass(frozen=True)
class ObservablePair:
    party: str  # "A" | "B"
    y0: int = 0
    y1: int = 1

    def __post_init__(self):
        if self.party not in ("A", "B"):
            raise BadPair("party must be 'A' or 'B'")
        if self.y0 == self.y1:
            raise BadPair("the two observables must be distinct inputs")


def restrict_to_pair(box: Box, pair: ObservablePair) -> Box:
    """Restrict to the pair's two inputs on Bob's side, swapping parties
    first when the pair sits with Alice.  Result is a 2-Bob-input box with
    y=0 the pair's first observable."""
    if box.scenario.parties != 2:
        raise ScenarioMismatch("observable pairs live on bipartite boxes")
    if not is_nonsignaling(box):
        raise ScenarioMismatch("box must be nonsignaling")
    work = box if pair.party == "B" else permute_parties(box, (1, 0))
    X, Y = work.scenario.inputs
    A, B = work.scenario.outputs
    if not (0 <= pair.y0 < Y and 0 <= pair.y1 < Y):
        raise BadPair(f"inputs {pair.y0},{pair.y1} out of range for {Y} observables")
    sub = Scenario((X, 2), (A, B))
    table = []
    for x in range(X):
        for j, y in enumerate((pair.y0, pair.y1)):
            del j
            for a in range(A):
                for b in range(B):
                    table.append(work.prob((a, b), (x, y)))
    return Box(sub, tuple(table))


def _joint_scenario(restricted: Scenario) -> Scenario:
    X = restricted.inputs[0]
    A, B = restricted.outputs
    return Scenario((X, 1, 1), (A, B, B))


def _joint_marginal_rows(restricted: Scenario):
    """Rows summing the joint table P'(a,b0,b1|x) down to each slice:
    yields (row over joint entries, ('y0'|'y1', a, b, x))."""
    X = restricted.inputs[0]
    A, B = restricted.outputs
    joint = _joint_scenario(restricted)
    for x in range(X):
        for a in range(A):
            for b in range(B):
                row0 = [ZERO] * joint.table_size
                row1 = [ZERO] * joint.table_size
                for other in range(B):
                    # summing over b1 leaves the y0 observable, and vice versa
                    row0[joint.flat_index((a, b, other), (x, 0, 0))] += ONE
                    row1[joint.flat_index((a, other, b), (x, 0, 0))] += ONE
                yield row0, ("y0", a, b, x)
                yield row1, ("y1", a, b, x)


@dataclass(frozen=True)
class CompatibilityWitness:
    compatible: bool
    joint: Box | None = None  # P'(a, b0, b1 | x) as a 3-party box, trivial inputs
    certificate: lp.LpCertificate | None = None


def compatibility_lp(restricted: Box) -> lp.LinearProgram:
    """Marginal equalities alone are satisfiable input by input, so the
    joint table must additionally be nonsignaling (its (b0,b1) marginal
    independent of x); that is what makes this two-shareability restricted
    to the pair, and what the CHSH identity confirms."""
    joint = _joint_scenario(restricted.scenario)
    prog = lp.LinearProgram(joint.table_size)
    for row, (side, a, b, x) in _joint_marginal_rows(restricted.scenario):
        y = 0 if side == "y0" else 1
        prog.add_eq(row, restricted.prob((a, b), (x, y)))
    for coeffs, rhs in polytope.ns_equality_rows(joint):
        prog.add_eq(coeffs, rhs)
    return prog


def is_compatible(box: Box, pair: ObservablePair) -> CompatibilityWitness:
    """Joint-distribution feasibility for the pair: a witness table or an
    exact Farkas certificate that none exists."""
    restricted = restrict_to_pair(box, pair)
    out = lp.solve(compatibility_lp(restricted))
    if out.status == lp.OPTIMAL:
        joint = Box(_joint_scenario(restricted.scenario), tuple(out.primal))
        return CompatibilityWitness(True, joint=joint)
    ensure(out.status == lp.INFEASIBLE, f"compatibility LP ended {out.status}")
    return CompatibilityWitness(False, certificate=out.certificate)


@dataclass(frozen=True)
class IncompatibilityResult:
    """Optimal split of the restricted box into eta * incompatible +
    (1-eta) * compatible, all parts exact and subnormalized as stored."""

    eta: Fraction
    scenario: Scenario  # the restricted (X, 2) bipartite scenario
    incompatible_part: tuple[Fraction, ...]  # mass eta, nonsignaling cone
    compatible_part: tuple[Fraction, ...]  # mass 1 - eta, jointly extendable
    joint_witness: tuple[Fraction, ...]  # extension of the compatible part

    def incompatible_box(self) -> Box | None:
        if self.eta == 0:
            return None
        return Box(self.scenario, tuple(v / self.eta for v in self.incompatible_part))

    def compatible_box(self) -> Box | None:
        if self.eta == 1:
            return None
        return Box(
            self.scenario, tuple(v / (1 - self.eta) for v in self.compatible_part)
        )


def incompatibility_lp_for(restricted: Box) -> lp.LinearProgram:
    """Variables: the joint-extension table W of the compatible part, then
    the subnormalized incompatible box S.  marginals(W) + S matches the
    restricted box entrywise, both blocks sit in their nonsignaling cones,
    and the objective is -eta (eta = S's input-independent total mass)."""
    sc = restricted.scenario
    joint = _joint_scenario(sc)
    nw = joint.table_size
    ns_size = sc.table_size
    prog = lp.LinearProgram(nw + ns_size)
    for row, (side, a, b, x) in _joint_marginal_rows(sc):
        y = 0 if side == "y0" else 1
        full = row + [ZERO] * ns_size
        full[nw + sc.flat_index((a, b), (x, y))] = ONE
        prog.add_eq(full, restricted.prob((a, b), (x, y)))
    for coeffs, rhs in polytope.ns_equality_rows(joint):
        prog.add_eq(coeffs + [ZERO] * ns_size, rhs)
    for coeffs, rhs in polytope.ns_equality_rows(sc):
        prog.add_eq([ZERO] * nw + coeffs, rhs)
    obj = [ZERO] * (nw + ns_size)
    for oi in range(sc.num_output_tuples):
        obj[nw + oi] = -ONE
    prog.set_objective(obj)
    return prog


def incompatibility(box: Box, pair: ObservablePair) -> IncompatibilityResult:
    """Minimize the weight of the nonsignaling part that must be split off
    so the rest admits a joint distribution for the pair."""
    restricted = restrict_to_pair(box, pair)
    sc = restricted.scenario
    nw = _joint_scenario(sc).table_size
    out = lp.solve(incompatibility_lp_for(restricted))
    ensure(out.status == lp.OPTIMAL, f"incompatibility LP ended {out.status}")
    eta = -out.value
    w_part = tuple(out.primal[:nw])
    s_part = tuple(out.primal[nw:])
    com_part = tuple(restricted.table[i] - s_part[i] for i in range(sc.table_size))
    return IncompatibilityResult(eta, sc, s_part, com_part, w_part)


def output_entropy(box: Box, party: int, x: int) -> float:
    """Shannon entropy (bits) of one party's output at one input.

    The only deliberately inexact quantity in the package; everything
    upstream of the log stays rational.
    """
    dist = marginal(box, (party,))
    total = 0.0
    for a in range(box.scenario.outputs[party]):
        p = dist.prob((a,), (x,))
        if p:
            pf = float(p)
            total -= pf * math.log2(pf)
    return total


def binary_entropy(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@dataclass(frozen=True)
class EntropyBoundReport:
    inc: Fraction
    bound: float  # h(inc / 2)
    entropy_y0: float
    entropy_y1: float
    holds_y0: bool
    holds_y1: bool

    @property
    def holds(self) -> bool:
        return self.holds_y0 and self.holds_y1


def entropy_bound_check(box: Box, pair: ObservablePair) -> EntropyBoundReport:
    """Check H(b0) and H(b1) against h(inc/2).

    Stated for binary outputs or binary inputs; anything else is out of
    scope.  inc is exact; the entropy comparison uses a 1e-12 slack.
    """
    work = box if pair.party == "B" else permute_parties(box, (1, 0))
    X, Y = work.scenario.inputs
    A, B = work.scenario.outputs
    if not (A == B == 2 or X == Y == 2):
        raise OutOfScope(
            "entropy bounds are stated for binary outputs or binary inputs"
        )
    inc = incompatibility(box, pair).eta
    bound = binary_entropy(float(inc) / 2)
    h0 = output_entropy(work, 1, pair.y0)
    h1 = output_entropy(work, 1, pair.y1)
    return EntropyBoundReport(
        inc,
        bound,
        h0,
        h1,
        h0 >= bound - ENTROPY_SLACK,
        h1 >= bound - ENTROPY_SLACK,
    )
