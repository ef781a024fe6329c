"""Deterministic strategies and H-descriptions of the nonsignaling set.

Shared plumbing for the modules that optimize over box polytopes: the
local polytope is the convex hull of deterministic strategy boxes, the
nonsignaling polytope is cut out by normalization plus the single-party
trace equalities.  Constraint rows are indexed to match Box.table order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .core import Box, Scenario, ZERO, ONE
from . import lp


@dataclass(frozen=True)
class DeterministicStrategy:
    """Per party, a response table mapping each input to a fixed output."""

    scenario: Scenario
    tables: tuple[tuple[int, ...], ...]

    def box(self) -> Box:
        sc = self.scenario
        table = []
        for xs in sc.input_tuples():
            expected = tuple(self.tables[k][xs[k]] for k in range(sc.parties))
            for outs in sc.output_tuples():
                table.append(ONE if outs == expected else ZERO)
        return Box(sc, tuple(table))


def strategy_count(scenario: Scenario) -> int:
    n = 1
    for x, a in zip(scenario.inputs, scenario.outputs):
        n *= a**x
    return n


def deterministic_strategies(scenario: Scenario) -> list[DeterministicStrategy]:
    """All strategies in a fixed lexicographic order (party 1 tables vary slowest)."""
    per_party = []
    for x, a in zip(scenario.inputs, scenario.outputs):
        per_party.append([tuple(t) for t in itertools.product(range(a), repeat=x)])
    return [
        DeterministicStrategy(scenario, combo)
        for combo in itertools.product(*per_party)
    ]


def normalization_rows(scenario: Scenario) -> list[tuple[list[tuple[int, Fraction]], Fraction]]:
    n_out = scenario.num_output_tuples
    return [
        ([(xi * n_out + oi, ONE) for oi in range(n_out)], ONE)
        for xi in range(scenario.num_input_tuples)
    ]


def ns_equality_rows(scenario: Scenario) -> list[tuple[list[tuple[int, Fraction]], Fraction]]:
    """Trace conditions: summing out party k's output must not depend on
    x_k.  Consecutive input values are compared; transitivity covers the
    rest.  Right-hand sides are 0, so the rows also cut the NS *cone*."""
    sc = scenario
    rows = []
    for k in range(sc.parties):
        if sc.inputs[k] < 2:
            continue
        other_out = [
            list(range(sc.outputs[i])) for i in range(sc.parties) if i != k
        ]
        other_in = [list(range(sc.inputs[i])) for i in range(sc.parties) if i != k]
        for out_ctx in itertools.product(*other_out):
            for in_ctx in itertools.product(*other_in):
                for x in range(sc.inputs[k] - 1):
                    coeffs = []
                    for ak in range(sc.outputs[k]):
                        outs = out_ctx[:k] + (ak,) + out_ctx[k:]
                        xs_lo = in_ctx[:k] + (x,) + in_ctx[k:]
                        xs_hi = in_ctx[:k] + (x + 1,) + in_ctx[k:]
                        coeffs.append((sc.flat_index(outs, xs_lo), ONE))
                        coeffs.append((sc.flat_index(outs, xs_hi), -ONE))
                    rows.append((coeffs, ZERO))
    return rows


def ns_lp(scenario: Scenario, objective=()) -> lp.LinearProgram:
    """LP whose feasible set is the nonsignaling polytope in table coordinates."""
    prog = lp.LinearProgram(scenario.table_size, objective)
    for coeffs, rhs in normalization_rows(scenario):
        prog.add_eq(coeffs, rhs)
    for coeffs, rhs in ns_equality_rows(scenario):
        prog.add_eq(coeffs, rhs)
    return prog


def max_over_ns(scenario: Scenario, coeffs, extra_eqs=()) -> lp.LpOutcome:
    """Maximize a linear functional of the table, given as (index,
    coefficient) pairs, over the NS polytope."""
    prog = ns_lp(scenario, coeffs)
    for row, rhs in extra_eqs:
        prog.add_eq(row, rhs)
    return lp.solve(prog)

