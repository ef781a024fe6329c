"""Deterministic strategies and H-descriptions of the nonsignaling set.

Shared plumbing for the modules that optimize over box polytopes: the
local polytope is the convex hull of deterministic strategy boxes, the
nonsignaling polytope is cut out by normalization plus the single-party
trace equalities.  Constraint rows are indexed to match Box.table order.

What depends only on the scenario is built once per scenario and held in
a small least-recently-used cache: the table entries each strategy fires
at (`strategy_columns`), the entries that fix a nonsignaling table
(`spanning_entries`), the nonsignaling rows in LinearProgram's
canonical form, and the nonsignaling LP's phase one (`lp.Start`), from
which `max_over_ns` solves every objective.  The membership rows of
`locality` and the orbit rows of `shareability` (per scenario, shared
party and m) are cached alike: three row sets built once, to which a
box adds only right-hand sides.  The rows are tuples, and `lp.solve`
pivots on a copy of a start, never on the start itself.  A start
for a face of the polytope (`bell.unique_ns_maximizer`,
`shareability.unique_violator_decoupling`) depends on a functional or a
box and lives for one call.

Two builders state a marginal of a larger table, both through
`core.marginal_indices`: `lift` reads a functional of the marginal as
a row (the rows of `shareability.monogamy_lp`), and `marginal_rows`
pins the marginal to a box (the decoupling LP's pin).
`shareability.validate_extension` reads the marginal indices itself,
summing the extension's integer numerators.

Both cached row sets can be folded by a box's stabilizer, the local
relabelings that fix its canonical table: `orbit_classes` merges the
columns each relabeling maps onto each other, and `fold_row` sums a row
per class.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .core import Box, Frozen, Scenario, ZERO, ONE, marginal_indices, trace_indices
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


@functools.lru_cache(maxsize=16)
def spanning_entries(scenario: Scenario) -> tuple[int, ...]:
    """Flat indices, in table order, of the entries (outs, xs) with
    x_k = 0 or a_k < A_k - 1 for every party k, prod_k (X_k(A_k-1)+1) of
    them (Collins and Gisin).  Two nonsignaling tables equal there are
    equal: per party, the last output at an input x > 0 is the sum over
    all outputs at input 0 less the other outputs at x."""
    n_out = scenario.num_output_tuples
    last = [a - 1 for a in scenario.outputs]
    outputs = list(scenario.output_tuples())
    return tuple(
        xi * n_out + oi
        for xi, xs in enumerate(scenario.input_tuples())
        for oi, outs in enumerate(outputs)
        if all(x == 0 or a < top for x, a, top in zip(xs, outs, last))
    )


def orbit_classes(count: int, images) -> list[int]:
    """Class number per item 0..count-1, when each sequence in `images`
    (image[n] an item for every item n) joins every item with its image:
    a union-find, classes numbered in the order of their least items."""
    root = list(range(count))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for image in images:
        for n, m in enumerate(image):
            i, j = find(n), find(m)
            root[max(i, j)] = min(i, j)
    number: dict[int, int] = {}
    return [number.setdefault(find(n), len(number)) for n in range(count)]


def fold_row(coeffs, class_of) -> tuple:
    """A row's (column, coefficient) pairs summed per class of columns
    (class_of[column], as orbit_classes numbers them), as (class,
    coefficient) pairs in class order without zeros."""
    summed: dict[int, int] = {}
    for col, c in coeffs:
        k = class_of[col]
        summed[k] = summed.get(k, 0) + c
    return tuple(sorted((k, c) for k, c in summed.items() if c))


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


def lift(scenario: Scenario, parties, coefficients) -> list[tuple[int, Fraction]]:
    """Coefficients of a functional on the marginal on `parties`, in its
    table order, as nonzero (index, coefficient) pairs on the full table."""
    entries = marginal_indices(scenario, parties)
    return [(i, c) for c, (_, idx) in zip(coefficients, entries) if c for i in idx]


def marginal_rows(scenario: Scenario, parties, box: Box) -> list[tuple[list[tuple[int, Fraction]], Fraction]]:
    """Per entry of the marginal on `parties`, in its table order, the
    equality row (coefficients, rhs) setting it to that entry of `box`."""
    entries = marginal_indices(scenario, parties)
    return [([(i, ONE) for i in idx], p) for (_, idx), p in zip(entries, box.table)]


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


@functools.lru_cache(maxsize=16)
def _ns_start(scenario: Scenario) -> lp.Start:
    """Phase one of the nonsignaling LP, which every objective shares."""
    return lp.Start(ns_lp(scenario))


def max_over_ns(scenario: Scenario, coeffs) -> lp.LpOutcome:
    """Maximize a linear functional of the table, given as (index,
    coefficient) pairs, over the NS polytope, from the scenario's cached
    phase one."""
    return lp.solve(ns_lp(scenario, coeffs), _ns_start(scenario))
