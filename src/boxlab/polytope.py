"""Deterministic strategies and H-descriptions of the nonsignaling set.

Shared plumbing for the modules that optimize over box polytopes: the
local polytope is the convex hull of deterministic strategy boxes, the
nonsignaling polytope is cut out by normalization plus the single-party
trace equalities.  Constraint rows are indexed to match Box.table order.

What depends only on the scenario is built once per scenario and held in
a small least-recently-used cache: the index maps of
`core.trace_indices` and `core.marginal_indices`, what each label adds
to the flat index (`core.label_offsets`, which `strategy_columns` and
`canonical_form` read here; `core` lists every reader of the layout),
the table entries each strategy fires at (`strategy_columns`), the
entries that fix a nonsignaling table (`spanning_entries`, which like
`normalization_rows` walks the table in its order), the cells
`canonical_form` walks with each party's partial relabelings numbered as
the search reaches them (`_Relabelings`, at most `_STATES_CAP` per party
between searches), and the nonsignaling rows in LinearProgram's
canonical form, on which `max_over_ns` solves every objective.  The
membership rows of `locality` (per scenario and stabilizer) and the
orbit rows of `shareability` (per scenario, m and stabilizer, toward B
only, since toward A is toward B on the party-swapped box) are cached
alike: three row sets built once, to which a box adds only right-hand
sides.  The rows are tuples, which `lp.solve` reads into a tableau of its
own.

A functional of the table is known on nonsignaling tables by its
values at the spanning entries: `collins_gisin` moves every coefficient
there by the rule `spanning_entries` states, Alice's first, then Bob's,
in integers through a map built once per scenario, and keeps the value
on every nonsignaling box (Collins and Gisin, J. Phys. A 37, 1775,
2004).  `shareability`'s lift of a Bell functional into the orbit
program reads it there, since that program pins copy-marginals at the
spanning entries only.

Two builders state a marginal of a larger table, both through
`core.marginal_indices`: `lift` reads a functional of the marginal as
a row (the rows of `shareability.monogamy_lp`), and `marginal_rows`
pins the marginal to a box (the decoupling LP's pin).
`shareability.validate_extension` reads the marginal indices itself,
summing the extension's integer numerators.

Both cached row sets are folded by a box's stabilizer, the local
relabelings that fix its canonical table, which for a box's own labels
(`own_labels`, the one builder of that trivial form) is the trivial
group: `orbit_classes` merges the columns each
relabeling maps onto each other, and `fold_row` sums a row per class.
Both pin a table at the spanning entries the same way: `group_entries`
keeps each distinct folded row once with the entries that share it,
and `pin_rows` gives it one right-hand side per distinct table value
over those entries (`pinned_entries`, the one walk that groups them by
value, which `locality` and `shareability`'s lift read too).

The canonical form and its stabilizer come from `canonical_form`, the
one place that picks the frame a box's LPs are stated in, for
`locality.is_local` and `shareability.is_m_shareable` alike: a bipartite
box is searched, with no pre-test before the search, and a box of any
other number of parties, or one whose search gives up, keeps its own
labels.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import prod

from .core import Box, Frozen, Scenario, ZERO, ONE, label_offsets, marginal_indices, numerators, trace_indices
from . import lp

CANONICAL_SEARCH_CAP = 10_000
# partial relabelings a party's table keeps between searches: all 3,201
# of a 2244 party fit, in about 0.7 MB; 2255 has 78,651
_STATES_CAP = 4096


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
    input-tuple order: each response table read once into the offsets of
    the labels it fires (core.label_offsets), then summed per strategy
    over the product of the parties' rows, which runs in input-tuple
    order."""
    per_party = [
        [tuple(offsets[x * A + a] for x, a in enumerate(t)) for t in itertools.product(range(A), repeat=X)]
        for X, A, offsets in zip(scenario.inputs, scenario.outputs, label_offsets(scenario))
    ]
    return tuple(tuple(map(sum, itertools.product(*rows))) for rows in itertools.product(*per_party))


@functools.lru_cache(maxsize=16)
def spanning_entries(scenario: Scenario) -> tuple[int, ...]:
    """Flat indices, in table order, of the entries (outs, xs) with
    x_k = 0 or a_k < A_k - 1 for every party k, prod_k (X_k(A_k-1)+1) of
    them (Collins and Gisin).  Two nonsignaling tables equal there are
    equal: per party, the last output at an input x > 0 is the sum over
    all outputs at input 0 less the other outputs at x."""
    last = [a - 1 for a in scenario.outputs]
    entries = itertools.product(scenario.input_tuples(), list(scenario.output_tuples()))
    return tuple(
        i for i, (xs, outs) in enumerate(entries)
        if all(x == 0 or a < top for x, a, top in zip(xs, outs, last))
    )


@functools.lru_cache(maxsize=16)
def _spanning_terms(scenario: Scenario) -> tuple:
    """Per flat entry, in table order, the (spanning entry, integer)
    pairs in entry order whose sum it is on every nonsignaling table.
    Per party and label number n = x*A + a, the rule of spanning_entries
    gives the label itself when x = 0 or a < A - 1, and otherwise every
    output at input 0 less the party's other outputs at x, as (offset,
    multiplicity) pairs (core.label_offsets).  A party's rule leaves the
    other parties' labels as they are, so an entry's terms are the
    product of its labels' rules, each term a distinct entry."""
    parties = []
    for A, offsets in zip(scenario.outputs, label_offsets(scenario)):
        at_zero = tuple((o, 1) for o in offsets[:A])
        rules = []
        for n, o in enumerate(offsets):
            x, a = divmod(n, A)
            if x == 0 or a < A - 1:
                rules.append((o, ((o, 1),)))
            else:
                rules.append((o, at_zero + tuple((f, -1) for f in offsets[n - a:n])))
        parties.append(rules)
    terms = [()] * scenario.table_size
    for labels in itertools.product(*parties):
        pairs = itertools.product(*(rule for _, rule in labels))
        terms[sum(o for o, _ in labels)] = tuple(sorted(
            (sum(o for o, _ in combo), prod(k for _, k in combo)) for combo in pairs))
    return tuple(terms)


def collins_gisin(scenario: Scenario, coefficients, offset) -> tuple:
    """The functional (coefficients, offset) moved onto spanning_entries,
    as (coefficients, offset): 0 off the spanning entries, and the same
    value on every nonsignaling table (Collins and Gisin, J. Phys. A 37,
    1775, 2004).  Each coefficient goes to the spanning entries whose sum
    its entry is (_spanning_terms, built once per scenario), times their
    integer multiplicities, so integer numerators stay integers and
    Fractions stay Fractions.  The offset comes back as it was: the
    spanning entries hold every output at input 0 of each party, so the
    rule never calls on normalization."""
    out = [c - c for c in coefficients]
    for c, terms in zip(coefficients, _spanning_terms(scenario)):
        if c:
            for e, k in terms:
                out[e] += k * c
    return tuple(out), offset


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


def group_entries(entries, rows) -> tuple:
    """Each distinct row of `rows` (one per entry of `entries`) once, in
    order of its first entry, with the entries that have it: (row,
    entries) pairs."""
    grouped: dict[tuple, list] = {}
    for e, row in zip(entries, rows):
        grouped.setdefault(row, []).append(e)
    return tuple((row, tuple(es)) for row, es in grouped.items())


def pinned_entries(rows, table):
    """Per (coefficients, entries) pair (group_entries), per distinct value
    of table[e] over its entries, in order of first entry: the
    coefficients and the entries at that value, one pin row's worth
    (pin_rows).  Values are told apart by ==, not by hashing, which for a
    Fraction costs several times more."""
    for coeffs, entries in rows:
        values, pinned = [], []
        for e in entries:
            v = table[e]
            # one scan, which finds v itself, appended last, when it is new
            values.append(v)
            k = values.index(v)
            if k < len(pinned):
                values.pop()
                pinned[k].append(e)
            else:
                pinned.append([e])
        for es in pinned:
            yield coeffs, es


def pin_rows(rows, table):
    """The equality rows that pin a table through (coefficients, entries)
    pairs (group_entries): per pair, one (coefficients, rhs) row for each
    distinct value of table[e] over its entries e, in order of first
    entry (pinned_entries)."""
    for coeffs, es in pinned_entries(rows, table):
        yield coeffs, table[es[0]]


@functools.lru_cache(maxsize=16)
def own_labels(scenario: Scenario) -> tuple:
    """A box's own labels as the rest of a canonical form, the trivial
    form: per party the identity map of its label numbers, then the
    trivial group, whose one element is those maps.  canonical_form
    gives it for a box that is not bipartite and when its search gives
    up."""
    maps = tuple(tuple(range(X * A)) for X, A in zip(scenario.inputs, scenario.outputs))
    return (*maps, (maps,))


def canonical_form(box: Box):
    """The frame a box's LPs are stated in: for a box of any number of
    parties but two, its own labels, (table, *own_labels(scenario)).  For
    a bipartite box, its local relabeling with the lexicographically
    greatest table, and that table's stabilizer, as (table, alice, bob,
    group): the relabeled table; for Alice and for Bob a map of label
    numbers (core.label_offsets), a tuple whose entry n is the relabeled
    number of original label n; and the sorted tuple of every (Alice map,
    Bob map) pair on relabeled label numbers that leaves the table
    unchanged.  So core.relabeled_indices applies a group element to a
    table, and reads a table of the relabeled frame back in the box's
    labels through (alice, bob).  Of the relabelings that reach the
    greatest table the maps are those of the least in lexicographic order
    of (Alice's input permutation, her output permutation at each input,
    Bob's likewise): the one that comparing every pair in that order
    keeps, only a strictly greater table replacing the best so far (the
    oracle tests.oracles.brute_canonical_form).

    The search builds the greatest table cell by cell in table order.  A
    frontier holds every partial relabeling that ties the best prefix so
    far; each cell fixes at most one new Alice label and one new Bob label
    (a new input with its first output, or one more output of an input
    already placed), every frontier state is extended every way it can be,
    and only the extensions that read the greatest value there are kept.
    For a lexicographic order that is exact: the greatest table has the
    greatest first cell, then the greatest second cell among those, and so
    on.  The final frontier is every relabeling phi that reaches the
    greatest table, and psi = phi_best^-1 . phi, phi_best the least of
    them, fixes the relabeled table T': T'(psi(c)) = T(phi(c)) =
    T(phi_best(c)) = T'(c), so the group of such psi is its stabilizer,
    which the box's labels do not change.

    A frontier state is a pair of state numbers, one per party, into the
    scenario's tables of partial relabelings (_Relabelings, cached with
    the cells by _canonical_plan).  A state holds what its canonical
    labels add to the flat index, in canonical order, so a cell reads
    ranked[offs_a[i] + offs_b[j]]; its children, numbered when first
    reached; and, once full, its tie-break key.  The table, the maps and
    the group are read off the final states (the oracle
    tests.oracles.walked_canonical_form walks tuples of label numbers
    instead).  A cell adds at most CANONICAL_SEARCH_CAP states to a
    table, and a table that holds more than _STATES_CAP states after a
    search is cleared, so between searches each holds at most that many.
    Only the states' labels, never their numbers, reach the form.

    CANONICAL_SEARCH_CAP bounds the frontier: when a cell would extend it
    to more states than that, the search gives up before building them
    and returns the box's table with own_labels, the identity maps and
    the one-element group.  Distinct extensions belong to distinct
    relabelings, so a box with at most CANONICAL_SEARCH_CAP relabelings
    (X! A!^X Y! B!^Y) is always searched to the end.  Above that, uniform
    noise in 2244 and 2255 and generalized isotropic A=5 at C=1/2 give up
    within their first two blocks, in under 0.1 s, while generalized
    isotropic boxes with 4 outputs per party are searched to their
    16-element stabilizers, their frontier never above 576 states."""
    table, sc = box.table, box.scenario
    if sc.parties != 2:
        return (table, *own_labels(sc))
    cells, alice, bob = _canonical_plan(sc)
    form = _search(table, cells, alice, bob)
    for party in alice, bob:
        if len(party.offs) > _STATES_CAP:
            party.clear()
    return form or (table, *own_labels(sc))


def _search(table, cells, alice, bob):
    """canonical_form's search over the state tables alice and bob; None
    when it gives up."""
    # numerators over a common denominator order the cells as the table does
    ranked = numerators(table)[1]
    offs_a, offs_b = alice.offs, bob.offs
    frontier = [(0, 0)]
    for i, j, grow_a, grow_b in cells:
        # every state of a party holds as many labels as the others, so
        # has as many children; growing Alice, then Bob, at the first cell
        # reaches the same count
        if grow_a:
            if len(frontier) * alice.widths[i] > CANONICAL_SEARCH_CAP:
                return None
            frontier = [(na, sb) for sa, sb in frontier for na in alice[sa]]
        if grow_b:
            if len(frontier) * bob.widths[j] > CANONICAL_SEARCH_CAP:
                return None
            frontier = [(sa, nb) for sa, sb in frontier for nb in bob[sb]]
        if len(frontier) > 1:
            values = [ranked[offs_a[sa][i] + offs_b[sb][j]] for sa, sb in frontier]
            best = max(values)
            if values.count(best) < len(values):
                frontier = [f for f, v in zip(frontier, values) if v == best]
    best_a, best_b = min(frontier, key=lambda f: (alice.key(f[0]), bob.key(f[1])))
    at_a, at_b = offs_a[best_a], offs_b[best_b]
    relabeled = tuple([table[at_a[i] + at_b[j]] for i, j, _, _ in cells])
    # the best state lists each canonical label's original one, by what it
    # adds to the flat index; read back, each original label's canonical one
    to_a = dict(zip(at_a, range(len(at_a)))).__getitem__
    to_b = dict(zip(at_b, range(len(at_b)))).__getitem__
    # psi: canonical label k reads the original label of state[k], which
    # the best relabeling maps to to(state[k])
    group = tuple(sorted((tuple(map(to_a, offs_a[sa])), tuple(map(to_b, offs_b[sb]))) for sa, sb in frontier))
    return relabeled, tuple(map(to_a, alice.offsets)), tuple(map(to_b, bob.offsets)), group


class _Relabelings(dict):
    """One party's partial relabelings in one scenario, numbered as
    canonical_form first reaches them, state 0 the empty one, and mapped
    to their children.  A state lists, per canonical label so far in
    canonical order (input-major, like the table), what its original
    label adds to the flat index (core.label_offsets); its children, as
    a range of state numbers, are numbered when first looked up, and a
    full state's tie-break key when first asked for.  The search grows
    the table in place, so it serves one thread."""

    __slots__ = ("outputs", "offsets", "widths", "blocks", "number", "offs", "keys")

    def __init__(self, inputs: int, outputs: int, offsets: tuple):
        self.outputs, self.offsets = outputs, offsets
        # children per state of k labels: a new input with any output, or
        # one of the outputs its input has left
        self.widths = [(inputs - k // outputs) * outputs if k % outputs == 0 else outputs - k % outputs
                       for k in range(inputs * outputs)]
        self.blocks = [offsets[x * outputs:(x + 1) * outputs] for x in range(inputs)]
        self.number = {o: n for n, o in enumerate(offsets)}
        self.clear()

    def clear(self):
        super().clear()
        self.offs, self.keys = [()], {}

    def __missing__(self, s: int) -> range:
        """State s's children, numbered now: each extension by the next
        canonical label, where a new canonical input takes any original
        input not yet taken, with any output, and a further output of the
        same input any output of that original input not yet taken.  The
        children are numbered before they are named s's, so a search cut
        short leaves the table whole."""
        A, offs = self.outputs, self.offs
        state = offs[s]
        k = len(state) % A
        if k:
            here = state[-k:]
            new = [o for o in self.blocks[self.number[here[0]] // A] if o not in here]
        else:
            taken = {self.number[o] // A for o in state[::A]}
            new = [o for x, block in enumerate(self.blocks) if x not in taken for o in block]
        first = len(offs)
        offs += [state + (o,) for o in new]
        kids = self[s] = range(first, first + len(new))
        return kids

    def key(self, s: int) -> tuple:
        """A full state's tie-break key: the input permutation, then the
        output permutation at each input."""
        key = self.keys.get(s)
        if key is None:
            state, A = [self.number[o] for o in self.offs[s]], self.outputs
            key = self.keys[s] = (tuple(n // A for n in state[::A]), tuple(n % A for n in state))
        return key


@functools.lru_cache(maxsize=16)
def _canonical_plan(scenario: Scenario) -> tuple:
    """What canonical_form reads of a bipartite shape, built once and
    cached: per cell (x, y, a, b) in table order, Alice's label number
    x*A + a, Bob's y*B + b, and whether each shows first there, where
    the frontier grows; then per party its table of partial relabelings
    (_Relabelings)."""
    (X, Y), (A, B) = scenario.inputs, scenario.outputs
    cells = tuple((x * A + a, y * B + b, y == b == 0, x == a == 0)
                  for x, y, a, b in itertools.product(range(X), range(Y), range(A), range(B)))
    return (cells, *map(_Relabelings, scenario.inputs, scenario.outputs, label_offsets(scenario)))


def normalization_rows(scenario: Scenario) -> list[tuple[list[tuple[int, Fraction]], Fraction]]:
    n_out = scenario.num_output_tuples
    return [
        ([(i, ONE) for i in range(start, start + n_out)], ONE)
        for start in range(0, scenario.table_size, n_out)
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


def max_over_ns(scenario: Scenario, coeffs) -> lp.LpOutcome:
    """Maximize a linear functional of the table, given as (index,
    coefficient) pairs, over the NS polytope."""
    return lp.solve(ns_lp(scenario, coeffs))
