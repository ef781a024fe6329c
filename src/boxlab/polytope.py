"""Deterministic strategies and H-descriptions of the nonsignaling set.

Shared plumbing for the modules that optimize over box polytopes: the
local polytope is the convex hull of deterministic strategy boxes, the
nonsignaling polytope is cut out by normalization plus the single-party
trace equalities.  Constraint rows are indexed to match Box.table order.

What depends only on the scenario is built once per scenario and held in
a small least-recently-used cache: the table entries each strategy fires
at (`strategy_columns`), and the nonsignaling rows in LinearProgram's
canonical form.  The membership rows of `locality` and the orbit rows
of `shareability` (per scenario, shared party and m) are cached alike:
three row sets built once, to which a box adds only right-hand sides.
All are tuples, so no caller can change them.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .core import Box, Frozen, Scenario, ZERO, ONE, trace_indices
from . import lp


class DeterministicStrategy(Frozen):
    """Per party, a response table mapping each input to a fixed output."""

    def __init__(self, scenario: Scenario, tables: tuple[tuple[int, ...], ...]):
        d = self.__dict__
        d["scenario"] = scenario
        d["tables"] = tables

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


@functools.lru_cache(maxsize=16)
def strategy_columns(scenario: Scenario) -> tuple[tuple[int, ...], ...]:
    """Per strategy, in deterministic_strategies order, the flat table
    index of the entry its box sets to 1 under each input tuple, in
    input-tuple order."""
    n_out = scenario.num_output_tuples
    inputs = list(scenario.input_tuples())
    # per party and response table, its share of the output index under
    # each input tuple: output value times the party's mixed-radix stride
    per_party = []
    stride = n_out
    for k, (x, a) in enumerate(zip(scenario.inputs, scenario.outputs)):
        stride //= a
        per_party.append(
            [tuple(t[xs[k]] * stride for xs in inputs) for t in itertools.product(range(a), repeat=x)]
        )
    base = tuple(xi * n_out for xi in range(len(inputs)))
    return tuple(tuple(map(sum, zip(base, *combo))) for combo in itertools.product(*per_party))


def normalization_rows(scenario: Scenario) -> list[tuple[list[tuple[int, Fraction]], Fraction]]:
    n_out = scenario.num_output_tuples
    return [
        ([(xi * n_out + oi, ONE) for oi in range(n_out)], ONE)
        for xi in range(scenario.num_input_tuples)
    ]


def ns_equality_rows(scenario: Scenario) -> list[tuple[list[tuple[int, Fraction]], Fraction]]:
    """The trace conditions of core.trace_indices as rows: consecutive
    input values are compared; transitivity covers the rest.  Right-hand
    sides are 0, so the rows also cut the NS *cone*."""
    rows = []
    for _, _, _, per_x in trace_indices(scenario):
        for lo, hi in zip(per_x, per_x[1:]):
            rows.append(([c for i, j in zip(lo, hi) for c in ((i, ONE), (j, -ONE))], ZERO))
    return rows


@functools.lru_cache(maxsize=16)
def _ns_rows(scenario: Scenario) -> tuple:
    """Normalization and trace rows as LinearProgram stores them."""
    prog = lp.LinearProgram(scenario.table_size)
    for coeffs, rhs in normalization_rows(scenario) + ns_equality_rows(scenario):
        prog.add_eq(coeffs, rhs)
    return tuple(prog.eqs)


def ns_lp(scenario: Scenario, objective=()) -> lp.LinearProgram:
    """LP whose feasible set is the nonsignaling polytope in table
    coordinates.  Each call returns a new program with its own row lists,
    so a caller may add rows to it."""
    prog = lp.LinearProgram(scenario.table_size, objective)
    prog.eqs.extend(_ns_rows(scenario))
    return prog


def max_over_ns(scenario: Scenario, coeffs, extra_eqs=()) -> lp.LpOutcome:
    """Maximize a linear functional of the table, given as (index,
    coefficient) pairs, over the NS polytope."""
    prog = ns_lp(scenario, coeffs)
    for row, rhs in extra_eqs:
        prog.add_eq(row, rhs)
    return lp.solve(prog)

