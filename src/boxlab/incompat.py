"""Joint measurability of two observables and how much of a box resists it.

Two inputs of one party are compatible when a joint table reproduces
both conditional slices.  When they are not, the box still splits as
eta * (incompatible nonsignaling part) + (1 - eta) * (compatible part),
and the least such eta measures the incompatibility.  One LP answers
both questions: the pair is compatible exactly when eta == 0, and then
IncompatibilityResult.joint_witness is the joint table; when eta > 0,
the LP's dual certificate proves that no joint table exists.  The
result carries the LP outcome it was decided with, so a report can
store the certificate without solving again.  In the all-binary
scenario the minimum is exactly the (clamped) CHSH value, and it lower
bounds the output entropies: H(b) >= h(eta / 2).  `incompatibility` is
the only function that solves for eta; `entropy_bound_check` reads it
from there, for the command line too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import lp, polytope
from .core import (
    Box,
    BoxlabError,
    Frozen,
    Scenario,
    ScenarioMismatch,
    ONE,
    ensure,
    is_nonsignaling,
    label_offsets,
    marginal,
    marginal_indices,
    permute_parties,
    restrict_bob_inputs,
)

ENTROPY_SLACK = 1e-12


class BadPair(BoxlabError):
    pass


class OutOfScope(BoxlabError):
    pass


class ObservablePair(Frozen):
    def __init__(self, party: str, y0: int = 0, y1: int = 1):
        if party not in ("A", "B"):
            raise BadPair("party must be 'A' or 'B'")
        if type(y0) is not int or type(y1) is not int:
            raise BadPair(f"observable inputs must be ints, got {y0!r} and {y1!r}")
        if y0 == y1:
            raise BadPair("the two observables must be distinct inputs")
        d = self.__dict__
        d["party"] = party
        d["y0"] = y0
        d["y1"] = y1


def _pair_at_bob(box: Box, pair: ObservablePair) -> Box:
    """The bipartite box with the pair's party as Bob."""
    if box.scenario.parties != 2:
        raise ScenarioMismatch("observable pairs live on bipartite boxes")
    return box if pair.party == "B" else permute_parties(box, (1, 0))


def restrict_to_pair(box: Box, pair: ObservablePair) -> Box:
    """Restrict to the pair's two inputs on Bob's side, swapping parties
    first when the pair sits with Alice.  Result is a 2-Bob-input box with
    y=0 the pair's first observable."""
    work = _pair_at_bob(box, pair)
    if not is_nonsignaling(work):
        raise ScenarioMismatch("box must be nonsignaling")
    Y = work.scenario.inputs[1]
    if not (0 <= pair.y0 < Y and 0 <= pair.y1 < Y):
        raise BadPair(f"inputs {pair.y0},{pair.y1} out of range for {Y} observables")
    return restrict_bob_inputs(work, (pair.y0, pair.y1))


def _joint_scenario(restricted: Scenario) -> Scenario:
    X = restricted.inputs[0]
    A, B = restricted.outputs
    return Scenario((X, 1, 1), (A, B, B))


def _joint_marginal_rows(restricted: Scenario):
    """Rows summing the joint table P'(a,b0,b1|x) down to each slice of the
    restricted box: the (0, 1) marginal of the joint table is the y=0
    slice, the (0, 2) one the y=1 slice.  Yields ((index, coefficient)
    pairs over joint entries, flat index of the restricted entry
    (a, b | x, y), read off core.label_offsets), the y=0 and y=1 rows of
    each (a, b, x) in turn."""
    joint = _joint_scenario(restricted)
    (A, B), (at_a, at_b) = restricted.outputs, label_offsets(restricted)
    slices = zip(marginal_indices(joint, (0, 1)), marginal_indices(joint, (0, 2)))
    for (((a, b), (x, _)), row0), (_, row1) in slices:
        yield [(i, ONE) for i in row0], at_a[x * A + a] + at_b[b]
        yield [(i, ONE) for i in row1], at_a[x * A + a] + at_b[B + b]


class IncompatibilityResult(Frozen):
    """Optimal split of the restricted box into eta * incompatible +
    (1-eta) * compatible, all parts exact and subnormalized as stored,
    with the LP outcome that decided it: its dual certificate proves eta
    against incompatibility_lp_for."""

    def __init__(
        self, eta: Fraction, scenario: Scenario, incompatible_part, compatible_part, joint_witness,
        outcome,
    ):
        d = self.__dict__
        d["eta"] = eta
        d["scenario"] = scenario  # the restricted (X, 2) bipartite scenario
        d["incompatible_part"] = incompatible_part  # mass eta, nonsignaling cone
        d["compatible_part"] = compatible_part  # mass 1 - eta, jointly extendable
        d["joint_witness"] = joint_witness  # P'(a, b0, b1 | x) of the compatible part
        d["outcome"] = outcome  # optimal, value -eta


def incompatibility_lp_for(restricted: Box) -> lp.LinearProgram:
    """Variables: the joint-extension table W of the compatible part, then
    the subnormalized incompatible box S.  marginals(W) + S matches the
    restricted box entrywise, both blocks sit in their nonsignaling cones,
    and the objective is -eta (eta = S's input-independent total mass).
    W's (b0, b1) marginal must not depend on x, or the slices could be
    matched input by input."""
    sc = restricted.scenario
    joint = _joint_scenario(sc)
    nw = joint.table_size
    ns_size = sc.table_size
    prog = lp.LinearProgram(nw + ns_size, [(nw + oi, -ONE) for oi in range(sc.num_output_tuples)])
    for row, i in _joint_marginal_rows(sc):
        prog.add_eq(row + [(nw + i, ONE)], restricted.table[i])
    for coeffs, rhs in polytope.ns_equality_rows(joint):
        prog.add_eq(coeffs, rhs)
    for coeffs, rhs in polytope.ns_equality_rows(sc):
        prog.add_eq([(nw + i, c) for i, c in coeffs], rhs)
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
    return IncompatibilityResult(eta, sc, s_part, com_part, w_part, out)


def output_entropy(box: Box, party: int, x: int) -> float:
    """Shannon entropy (bits) of one party's output at one input.

    The only deliberately inexact quantity in the package; everything
    upstream of the log stays rational.
    """
    dist = marginal(box, (party,))
    (X,), (A,) = dist.scenario.inputs, dist.scenario.outputs
    if type(x) is not int or not 0 <= x < X:
        raise ScenarioMismatch(f"input {x!r} out of range for {X} inputs")
    total = 0.0
    # its labels at x, label numbers x*A .. x*A + A - 1
    for p in map(dist.table.__getitem__, label_offsets(dist.scenario)[0][x * A:(x + 1) * A]):
        if p:
            pf = float(p)
            total -= pf * math.log2(pf)
    return total


def binary_entropy(p: float) -> float:
    if p <= 0 or p >= 1:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


class EntropyBoundReport(Frozen):
    def __init__(
        self, inc: Fraction, bound: float, entropy_y0: float, entropy_y1: float, holds_y0, holds_y1,
        outcome=None,
    ):
        d = self.__dict__
        d["inc"] = inc
        d["bound"] = bound  # h(inc / 2)
        d["entropy_y0"] = entropy_y0
        d["entropy_y1"] = entropy_y1
        d["holds_y0"] = holds_y0
        d["holds_y1"] = holds_y1
        d["outcome"] = outcome  # the LP outcome that proves inc, when solved here

    @property
    def holds(self) -> bool:
        return self.holds_y0 and self.holds_y1


def entropy_scope(box: Box, pair: ObservablePair) -> Box:
    """The box with the pair's party as Bob; OutOfScope unless the bound
    is stated for it (binary outputs or binary inputs)."""
    work = _pair_at_bob(box, pair)
    X, Y = work.scenario.inputs
    A, B = work.scenario.outputs
    if not (A == B == 2 or X == Y == 2):
        raise OutOfScope(
            "entropy bounds are stated for binary outputs or binary inputs"
        )
    return work


def entropy_bound(
    box: Box, pair: ObservablePair, inc: Fraction, outcome=None
) -> EntropyBoundReport:
    """Check H(b0) and H(b1) against h(inc/2), for inc the pair's
    incompatibility as computed, or certified, elsewhere; `outcome` is
    the LP outcome that proves inc, if any, kept in the report."""
    work = entropy_scope(box, pair)
    bound = binary_entropy(float(inc) / 2)
    h0 = output_entropy(work, 1, pair.y0)
    h1 = output_entropy(work, 1, pair.y1)
    holds = (h0 >= bound - ENTROPY_SLACK, h1 >= bound - ENTROPY_SLACK)
    return EntropyBoundReport(inc, bound, h0, h1, *holds, outcome)


def entropy_bound_check(box: Box, pair: ObservablePair) -> EntropyBoundReport:
    """Check H(b0) and H(b1) against h(inc/2).

    Stated for binary outputs or binary inputs; anything else is out of
    scope, and refused before inc is computed.  inc is exact, and the
    report carries the outcome of incompatibility that proves it; the
    entropy comparison uses a 1e-12 slack.
    """
    entropy_scope(box, pair)
    inc = incompatibility(box, pair)
    return entropy_bound(box, pair, inc.eta, inc.outcome)
