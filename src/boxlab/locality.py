"""Local-polytope membership, local models, and the eavesdropper they give.

A box is local when it is a convex mixture of deterministic strategies.
Membership is one exact LP over strategy weights, with one row per
spanning entry (`polytope.spanning_entries`): these entries fix every
nonsignaling table, so weights that match a nonsignaling box there match
all of it.  The program is stated on a canonical form of the box, a
relabeling whose table a group G of local relabelings fixes, and folded
by G: one weight per class of strategies that G maps onto each other.
`polytope.canonical_form` picks the form for every box, with no
pre-test: a bipartite box gets its canonical relabeling and stabilizer,
and a box of any other number of parties, or one whose search gives up,
keeps its own labels (`polytope.own_labels`), the trivial fold, whose
classes are the single strategies and whose rows are the spanning
entries themselves.  The form's maps and the elements
of G name labels by their numbers (`core`), one tuple per party, so
`core.relabeled_indices` applies either to a table.  Only the classes
that fire no zero entry of the table get a weight (membership_lp): in
any model a strategy that fires a zero entry has weight 0 (Andersen &
Andersen, Math. Prog. 71, 1995), so a 3322 mixture of three to eight
strategies keeps a median of 13 of its 64 columns (300 seeded ones).

Before any LP, a bipartite box is checked against the CHSH-type rows
(_violated_facet), in integers off the numerators of its table: CHSH on
each pair of inputs of each party, output-lifted by every binary
coarse-graining of each party's outputs at each input, a set of outputs
against the rest, or by one output against the rest for a party with
more than five outputs (_stars; bell.lifted_chsh; Collins & Gisin,
J. Phys. A 37, 1775, 2004; Pironio, J. Math. Phys. 46, 062112, 2005).
Each has local bound 0 and nonsignaling maximum 1, so a box that
violates one is certified by the row it violates most, a normalized Bell
functional, and solves no LP: every nonlocal box of the CHSH scenario
does, and so do generalized isotropic boxes at C = 3/5 with three, four
and five outputs, the last two by setting two outputs against the rest.
A box that violates only other facets, such as those of I3322 or CGLMP
(generalized isotropic A=3 at C = 27/50, just above its locality
threshold), still solves the membership LP below.
A 2222 box never reaches the LP: both halves of Fine's theorem (PRL 48,
291, 1982) decide it in closed form.  The eight CHSH facets
(bell.chsh_facets), 2222's rows, are all the nontrivial facets of its
local polytope, so a box that violates none is local, and its model is
Fine's gluing over Bob's output pair (b0, b1) (_fine_model): per Alice
input x a joint table T_x(a, b0, b1) with the box's two blocks at x as
marginals, the two sharing Q(b0, b1), and strategy ((a0, a1), (b0, b1))
of weight T_0 T_1 / Q.

The membership LP's feasibility yields an explicit LocalModel, in the
box's own labels.  Infeasibility yields a Farkas vector y of the folded
program over the table's support, which becomes a Bell functional in
four steps.  Each row's multiplier goes on the first spanning entry it
pins, so the functional sums over each class kept to minus y's
combination of that class's column, at most 0, and is positive on the
canonical table.  Less the indicator of the table's zero entries, moved
onto the spanning entries (polytope.collins_gisin), times its largest
value on a strategy that fires a zero entry, it is at most 0 on each
such strategy, which the indicator counts at least 1, and the same on
the table and on every strategy that fires none.  Averaged over G, it
is G-invariant, so its value on each strategy is its class's average,
at most 0, while its value on the table, which G fixes, does not
change.  Read back through the canonical form's maps and normalized, it
is violated by the box.  Secrecy content is this decision: a bipartite box contains
secrecy exactly when it is nonlocal, and for a local box the model's
hidden variable is a message an eavesdropper can hold (eve_extension),
so the command line's `secrecy` analysis is `is_local` with the verdict
read the other way round.  Shareability is this decision too:
`shareability.is_m_shareable` asks `is_local` of its base box, extends
a model to every number of copies, and lifts a certificate's
functional into the paper's proof that the box has no symmetric
extension to |Y| copies.

Enumerating the strategies is the cost: no scenario with more than
STRATEGY_CAP of them is decided or checked.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction

from . import lp, polytope
from .bell import BellFunctional, chsh_signs, lifted_chsh, normalize
from .core import (
    Box,
    BoxlabError,
    Frozen,
    Scenario,
    SignalingBox,
    ZERO,
    count_text,
    _trace_violation,
    ensure,
    label_offsets,
    numerators,
    relabeled_indices,
)
from .polytope import DeterministicStrategy

STRATEGY_CAP = 10_000


class StrategySpaceTooLarge(BoxlabError):
    pass


class ModelMismatch(BoxlabError):
    pass


def check_strategy_space(scenario: Scenario) -> None:
    """Raise StrategySpaceTooLarge when the scenario has more than
    STRATEGY_CAP deterministic strategies."""
    count = polytope.strategy_count(scenario)
    if count > STRATEGY_CAP:
        raise StrategySpaceTooLarge(
            f"{count_text(count)} deterministic strategies exceeds cap {STRATEGY_CAP}"
        )


class LocalModel(Frozen):
    """Convex mixture of deterministic strategies reproducing a box."""

    def __init__(self, scenario: Scenario, strategies: tuple, weights: tuple):
        d = self.__dict__
        d["scenario"] = scenario
        d["strategies"] = strategies
        d["weights"] = weights

    def _summed(self) -> tuple[int, list[int]]:
        """The weights' common denominator and, per flat table entry, the
        sum of their numerators over it at the strategies that fire the
        entry, in integers.  Under each input tuple a strategy fires the
        sum of its parties' offsets there: a party's row holds the offset
        (core.label_offsets) of the label its response table fires at each
        input, worked out once per response table, and the product of the
        rows runs in input-tuple order."""
        w_den, w_nums = numerators(self.weights)
        sc = self.scenario
        table = [0] * sc.table_size
        parties = list(zip(sc.outputs, label_offsets(sc), [{} for _ in sc.outputs]))
        for strat, w in zip(self.strategies, w_nums):
            if w:
                rows = [
                    known.get(t) or known.setdefault(t, [offsets[x * A + a] for x, a in enumerate(t)])
                    for t, (A, offsets, known) in zip(strat.tables, parties)
                ]
                for e in map(sum, itertools.product(*rows)):
                    table[e] += w
        return w_den, table

    def box(self) -> Box:
        """The mixture's table, one Fraction per entry it fires
        (_summed), ZERO elsewhere."""
        den, table = self._summed()
        return Box(self.scenario, tuple(Fraction(t, den) if t else ZERO for t in table))

    def reconstructs(self, box: Box) -> bool:
        """Whether the mixture is the box: the box read into its
        numerators (core.numerators) and compared (_reproduces)."""
        return box.scenario == self.scenario and self._reproduces(*numerators(box.table))

    def _reproduces(self, den: int, nums) -> bool:
        """Whether the mixture is the table of this scenario read into
        numerators `nums` over `den` (core.numerators), compared in
        integers: the summed numerators (_summed) against nums,
        cross-multiplied.  is_local, which holds them, calls it itself."""
        w_den, table = self._summed()
        return all(t * den == p * w_den for t, p in zip(table, nums))

    def adjoin(self, inputs, outputs, tables) -> LocalModel:
        """The model with parties of alphabet sizes `inputs` and `outputs`
        appended, which strategy k answers by the response tables tables[k]."""
        sc = self.scenario
        ext = Scenario(sc.inputs + tuple(inputs), sc.outputs + tuple(outputs))
        pairs = zip(self.strategies, tables)
        strategies = tuple(DeterministicStrategy(ext, s.tables + tuple(t)) for s, t in pairs)
        return LocalModel(ext, strategies, self.weights)


class NonlocalityCertificate(Frozen):
    """Normalized Bell functional separating a box from the local polytope:
    at most 0 on every deterministic strategy, strictly positive on the box."""

    def __init__(self, functional: BellFunctional, violation: Fraction):
        d = self.__dict__
        d["functional"] = functional
        d["violation"] = violation


def _moved(table: tuple, image) -> tuple:
    """The response table that fires the images, under `image` (a map of
    label numbers, image[n] the number that label n goes to), of the
    labels x*A + table[x] that `table` fires."""
    A = len(image) // len(table)
    out = [0] * len(table)
    for x, a in enumerate(table):
        x2, a2 = divmod(image[x * A + a], A)
        out[x2] = a2
    return tuple(out)


@functools.lru_cache(maxsize=16)
def _membership_rows(scenario: Scenario, group: tuple) -> tuple:
    """The membership rows folded by `group`, local relabelings (per
    element, one map of label numbers per party) that fix the table the
    program is stated on, built once per scenario and group and held in
    a small cache.  Returns (members, rows, fires): per class of strategies
    that the group maps onto each other (classes numbered by their least
    strategy, polytope.orbit_classes), its strategies' response tables
    in deterministic_strategies order; per distinct folded spanning
    row (polytope.group_entries) its (class, coefficient) pairs, the
    int coefficient the number of the class's strategies that set the
    entry to 1 (polytope.fold_row, as in shareability._folded_rows),
    with the spanning entries that share it; and per flat table entry
    the classes, ascending, of the strategies that fire it.  Under the
    trivial group every strategy is its own class."""
    alphabets = zip(scenario.inputs, scenario.outputs)
    tables = [list(itertools.product(range(a), repeat=x)) for x, a in alphabets]
    numbers = [{t: n for n, t in enumerate(ts)} for ts in tables]
    images = []
    for element in group:
        # per party its tables moved by its map: the strategy number's next digit
        image = [0]
        for ts, num, labels in zip(tables, numbers, element):
            moved = [num[_moved(t, labels)] for t in ts]
            image = [n * len(ts) + m for n in image for m in moved]
        images.append(image)
    class_of = polytope.orbit_classes(polytope.strategy_count(scenario), images)
    members = [[] for _ in range(max(class_of) + 1)]
    for k, strategy in zip(class_of, itertools.product(*tables)):
        members[k].append(strategy)
    # per entry, each strategy that sets it to 1, with coefficient 1
    fired = [[] for _ in range(scenario.table_size)]
    for s, cols in enumerate(polytope.strategy_columns(scenario)):
        for e in cols:
            fired[e].append(s)
    spanning = polytope.spanning_entries(scenario)
    rows = [polytope.fold_row(zip(fired[e], itertools.repeat(1)), class_of) for e in spanning]
    rows = polytope.group_entries(spanning, rows)
    fires = tuple(tuple(sorted({class_of[s] for s in ss})) for ss in fired)
    return tuple(map(tuple, members)), rows, fires


def _support(scenario: Scenario, group: tuple, table: tuple):
    """The classes of _membership_rows(scenario, group), ascending, that
    fire no zero entry of `table`: a range of all of them when it has
    none."""
    members, _, fires = _membership_rows(scenario, group)
    zero = [f for f, p in zip(fires, table) if not p]
    if not zero:
        return range(len(members))
    dropped = set().union(*zero)
    return [k for k in range(len(members)) if k not in dropped]


def membership_lp(box: Box, canonical) -> tuple:
    """Weights over classes of deterministic strategies that match a
    canonical form of the box on its spanning entries: the program, and
    the classes its columns weigh, in column order.  The form is
    (table, one map of label numbers per party, group), as
    polytope.canonical_form returns it, which picks every box's: a
    bipartite box's canonical relabeling and its stabilizer, or the box's
    own labels (polytope.own_labels), the trivial fold, whose classes are
    the single strategies in deterministic_strategies order and whose
    rows are the spanning entries themselves: prod_k (X_k(A_k-1)+1) rows,
    9 of 16 in 2222, 16 of 36 in 3322.

    That decides a nonsignaling box: the spanning entries fix every
    nonsignaling table, mixtures of strategy boxes included, so weights
    w >= 0 matching the box there reproduce all of it, with total weight
    1 from the entries at input 0.  The group folds the program: one
    weight per class of strategies (_membership_rows), shared by each of
    its strategies, and one row per distinct folded row and distinct
    value of the table over the entries that share it
    (polytope.pin_rows).  The fold is exact: each element of the group
    maps a model of the table onto another one, so averaging over the
    group gives a model constant on the classes.  The rows are built
    once per scenario and group, already in LinearProgram's canonical
    form (ascending classes, int coefficients), and each box adds only
    its table as the right-hand sides.

    Only the classes that fire no zero entry of the table get a column
    (_support), in class order: in every model a strategy that fires a
    zero entry has weight 0 (Andersen & Andersen, Math. Prog. 71, 1995).
    The table is G-invariant, so a class fires a zero entry with all of
    its strategies or with none.  The rows stay one per pin, a row that
    pins a zero entry left with no column, so a Farkas vector still has
    one multiplier per pin; with no class left, the program has no
    column at all."""
    table, *_, group = canonical
    rows = _membership_rows(box.scenario, group)[1]
    support = _support(box.scenario, group, table)
    column = {k: j for j, k in enumerate(support)}
    prog = lp.LinearProgram(len(column))
    prog.eqs.extend((tuple((column[k], c) for k, c in coeffs if k in column), rhs)
                    for coeffs, rhs in polytope.pin_rows(rows, table))
    return prog, support


def _solved_model(box: Box, canonical) -> LocalModel | lp.LpOutcome:
    """The answer of membership_lp(box, canonical), not yet checked to
    reconstruct the box: a LocalModel of the strategies of positive
    weight, or the INFEASIBLE LpOutcome, whose Farkas vector has one
    entry per row of that program.  Each column's weight is spread over
    its class's strategies, which are read back through the form's maps,
    each inverted by sorting its label numbers, into the box's own labels
    and listed in the box's own deterministic_strategies order, so the
    model does not depend on which relabeling was canonical."""
    sc = box.scenario
    prog, support = membership_lp(box, canonical)
    out = lp.solve(prog)
    if out.status == lp.OPTIMAL:
        back = [sorted(range(len(to)), key=to.__getitem__) for to in canonical[1:-1]]
        members = _membership_rows(sc, canonical[-1])[0]
        pairs = sorted((tuple(map(_moved, tables, back)), w)
                       for k, w in zip(support, out.primal) if w
                       for tables in members[k])
        strategies = tuple(DeterministicStrategy(sc, tables) for tables, _ in pairs)
        return LocalModel(sc, strategies, tuple(w for _, w in pairs))
    ensure(out.status == lp.INFEASIBLE, f"membership LP ended {out.status}")
    return out


@functools.lru_cache(maxsize=16)
def _entry_orbits(scenario: Scenario, group: tuple) -> tuple:
    """Per flat table entry, its images under every element of `group`
    (local relabelings as _membership_rows takes them), built once per
    scenario and group and held in a small cache."""
    return tuple(zip(*(relabeled_indices(scenario, element) for element in group)))


def _pinned(scenario: Scenario, table: tuple, group: tuple, farkas) -> tuple:
    """The functional on the spanning entries, as integer numerators over
    a common denominator (den, nums), that a Farkas vector `farkas` of
    the membership LP of `table` folded by `group` gives: each multiplier
    negated on the first spanning entry its row pins
    (polytope.pinned_entries), less the indicator of the table's zero
    entries moved onto the spanning entries (polytope.collins_gisin)
    times the largest value of the first part on a strategy that fires a
    zero entry, when that is positive.  Summed over each class it is at
    most 0, and on each strategy that fires a zero entry too."""
    coefficients = [ZERO] * scenario.table_size
    for (_, es), y in zip(polytope.pinned_entries(_membership_rows(scenario, group)[1], table), farkas):
        coefficients[es[0]] = -y
    den, nums = numerators(coefficients)
    zero = [int(not p) for p in table]
    # the strategies membership_lp left out, each firing a zero entry
    top = max((sum(map(nums.__getitem__, cols)) for cols in polytope.strategy_columns(scenario)
               if any(map(zero.__getitem__, cols))), default=0)
    if top > 0:
        nums = [n - top * z for n, z in zip(nums, polytope.collins_gisin(scenario, zero, 0)[0])]
    return den, nums


def _bell_coefficients(box: Box, canonical, farkas) -> list:
    """The Bell functional, in the box's own labels, that the Farkas
    vector `farkas` of membership_lp(box, canonical) gives, by the first
    steps the module docstring argues for: the functional on the spanning
    entries (_pinned), summed over the images of each entry under the
    group (the average up to the factor |G|), in integer numerators, and
    read back through the form's maps (core.relabeled_indices).  At most
    0 on every deterministic strategy and positive on the box."""
    sc = box.scenario
    table, *maps, group = canonical
    den, nums = _pinned(sc, table, group, farkas)
    summed = [sum(map(nums.__getitem__, orbit)) for orbit in _entry_orbits(sc, group)]
    return [Fraction(summed[c], den) for c in relabeled_indices(sc, maps)]


@functools.lru_cache(maxsize=16)
def _stars(outputs: int) -> tuple:
    """The sets that a CHSH-type row sets against the rest at one input.
    For at most five outputs, every split of the outputs into two
    nonempty sets, up to complement: by size up to half the outputs,
    each size in lexicographic order, a set of exactly half only when it
    holds output 0.  1, 3, 7 and 15 sets for 2, 3, 4 and 5 outputs; for
    two, output 0 alone, since setting output 1 against output 0 only
    flips a sign pattern, and for three, each output alone.  For more,
    each output alone, as many sets as outputs: the splits number
    2^(A-1) - 1, and the layout (_chsh_layout) grows with the square of
    Bob's count of sets times Alice's.  Within STRATEGY_CAP the largest
    layout is then that of two inputs each and 5 and 20 outputs, 12,000
    pairs and 1,200 correlators, where every split of the 20 would give
    524,287 sets."""
    if outputs > 5:
        return tuple((a,) for a in range(outputs))
    return tuple(S for size in range(1, outputs // 2 + 1) for S in itertools.combinations(range(outputs), size)
                 if 2 * size < outputs or S[0] == 0)


@functools.lru_cache(maxsize=16)
def _chsh_layout(sc: Scenario) -> tuple:
    """Where _violated_facet reads a bipartite table with at least two
    inputs and two outputs per party, built once per scenario and held
    in a small cache.

    Correlators are numbered per Alice input x and set S of _stars(A),
    then per Bob input y and set T of _stars(B): the block at (x, y)
    coarse-grained to S against the rest and T against the rest, E =
    sum_ab t(a) u(b) P(ab|xy) with t(a) = 1 if a is in S and -1
    otherwise, and u likewise.  Returns (first, agree, pairs, bob,
    rows, group):
    - an operator.itemgetter of the entries of the block at (0, 0);
    - per correlator, an itemgetter of the flat entries
      (core.label_offsets) of its block where t u = 1, at least two, so
      that it returns a tuple: E is twice their sum less the block's;
    - per Alice input x, per column of Bob's, per S innermost, the
      numbers of the correlators at (x S, y0 T0) and (x S, y1 T1);
    - Bob's columns, per pair of his inputs y0 < y1, per T0, T1 in
      product order: the pairs ((y0, T0), (y1, T1)) that bell.lifted_chsh
      takes;
    - per pair of Alice's inputs x0 < x1, (x0 w, x1 w), w the number of
      Bob's columns: where each input's columns start;
    - the number of Bob's columns per pair of his inputs.
    The CHSH-type rows, in the order _violated_facet ranks them, are per
    pair of Alice's inputs x0 < x1, per pair of Bob's, per S0, S1, T0, T1
    in product order, the eight sign patterns of bell.chsh_signs: 8, 24,
    72, 648 and 19,208 rows in 2222, 2322, 3322, 2233 and 2244, 648
    being Collins and Gisin's count of lifted CHSH facets in 2233.  No
    row is stored."""
    (X, Y), (A, B) = sc.inputs, sc.outputs
    (at_a, at_b), stars_a, stars_b = label_offsets(sc), _stars(A), _stars(B)
    first = operator.itemgetter(*(at_a[a] + at_b[b] for a, b in itertools.product(range(A), range(B))))
    agree = tuple(
        operator.itemgetter(*(at_a[x * A + a] + at_b[y * B + b]
                              for a, b in itertools.product(range(A), range(B)) if (a in S) == (b in T)))
        for x, S, y, T in itertools.product(range(X), stars_a, range(Y), stars_b))
    na, nb = len(stars_a), len(stars_b)
    row = Y * nb
    bob = [(y0, j0, y1, j1) for y0, y1 in itertools.combinations(range(Y), 2) for j0 in range(nb) for j1 in range(nb)]
    pairs = tuple((k + y0 * nb + j0, k + y1 * nb + j1)
                  for x in range(X) for y0, j0, y1, j1 in bob for k in range(x * na * row, (x + 1) * na * row, row))
    bob = tuple(((y0, stars_b[j0]), (y1, stars_b[j1])) for y0, j0, y1, j1 in bob)
    rows = tuple(itertools.combinations(range(0, X * len(bob), len(bob)), 2))
    return first, agree, pairs, bob, rows, nb * nb


def _violated_facet(sc: Scenario, den: int, nums) -> NonlocalityCertificate | None:
    """The certificate of the CHSH-type row (bell.lifted_chsh) that a
    nonsignaling bipartite table, read into its numerators over `den`
    (numerators), violates most, the first in the order of _chsh_layout
    and then of chsh_signs on ties, or None when it violates none or the
    scenario has no such row (a party with one input or one output).

    Everything is in integers.  The correlators, each coarse-grained to
    one set of outputs against the rest per party (_chsh_layout), are
    read as numerators over den; a nonsignaling table sums to the same at
    every input pair, read at (0, 0).  A row of sign pattern s on
    correlators e = (e00, e01, e10, e11) has the value -1 + s.e / (2
    den), so it is violated when s.e > 2 den.  The largest s.e is found
    without listing the rows: with sigma = s00 s01, s.e = +-(e00 + sigma
    e01) +- (e10 - sigma e11), both signs free over the patterns, so the
    largest s.e of a block is |e00 + sigma e01| + |e10 - sigma e11| at
    the better sigma.  The first term depends on Alice's coarse-graining
    at x0 only and the second on hers at x1, so each is maximized over it
    by itself, per pair of Bob's inputs, his coarse-grainings there and
    sigma, and the best is kept per pair of Alice's inputs.  Only when
    it passes 2 den is the row that attains it read off the same sums.
    Its pair of Alice's inputs is the first whose best attains it.  There
    a block attains it when, at its column of Bob's and some sigma, both
    terms are at their best over Alice's sets; so the first block in the
    ranking is the least (pair of Bob's inputs, set at x0, set at x1,
    column) over the columns and sigmas whose best terms add up to it,
    each set the first at its term's best."""
    (X, Y), (A, B) = sc.inputs, sc.outputs
    if min(X, Y, A, B) < 2:
        return None
    first, agree, pairs, bob, rows, group = _chsh_layout(sc)
    total = sum(first(nums))
    corr = [2 * sum(entries(nums)) - total for entries in agree]
    plus = [abs(corr[p] + corr[q]) for p, q in pairs]
    minus = [abs(corr[p] - corr[q]) for p, q in pairs]
    stars, width = _stars(A), len(bob)
    na = len(stars)
    top_plus, top_minus = plus, minus
    if na > 1:
        # the largest over Alice's coarse-grainings at each input, which run innermost
        top_plus = list(map(max, zip(*[iter(plus)] * na)))
        top_minus = list(map(max, zip(*[iter(minus)] * na)))
    tops = [max(*map(operator.add, top_plus[i:i + width], top_minus[j:j + width]),
                *map(operator.add, top_minus[i:i + width], top_plus[j:j + width]))
            for i, j in rows]
    best = max(tops)
    if best <= 2 * den:
        return None
    i, j = rows[tops.index(best)]

    def argbest(values, top, n):
        # the first of Alice's sets whose value at her column n is the best there
        return values.index(top[n], n * na) - n * na

    _, a0, a1, k = min((k // group, argbest(P, top_p, i + k), argbest(M, top_m, j + k), k)
                       for P, M, top_p, top_m in ((plus, minus, top_plus, top_minus), (minus, plus, top_minus, top_plus))
                       for k in range(width) if top_p[i + k] + top_m[j + k] == best)
    (p0, q0), (p1, q1) = pairs[(i + k) * na + a0], pairs[(j + k) * na + a1]
    e00, e01, e10, e11 = corr[p0], corr[q0], corr[p1], corr[q1]
    sums = [s00 * e00 + s01 * e01 + s10 * e10 + s11 * e11 for s00, s01, s10, s11 in chsh_signs()]
    ensure(best in sums, "no sign pattern attains the largest value of its block")
    alice = ((i // width, stars[a0]), (j // width, stars[a1]))
    functional = lifted_chsh(sc, chsh_signs()[sums.index(best)], alice, bob[k])
    return NonlocalityCertificate(functional, Fraction(best - 2 * den, 2 * den))


def _fine_model(sc: Scenario, den: int, nums) -> LocalModel | None:
    """Fine's local model of a 2222 table read into its numerators over
    `den` (numerators), or None when the intervals below do not meet,
    which is when the table is nonlocal.  Per input x and output a, with
    u = P(a, b=0 | x, 0), v = P(a, b=0 | x, 1) and m = P(a | x) over den,
    T_x(a, b0, b1) is t, u - t, v - t, m - u - v + t for b0 b1 = 00, 01,
    10, 11: nonnegative for t in [max(0, u + v - m), min(u, v)].  Both
    x must share q = Q(0, 0) = sum_a t, and Bob's marginals fix the rest
    of Q, so q is the larger of the two lower ends of the sums, split
    over a up to each a's bounds, first a first.  Strategy ((a0, a1),
    (b0, b1)) weighs T_0(a0, b0, b1) T_1(a1, b0, b1) / (Q(b0, b1) den);
    the nonzero weights are kept in deterministic_strategies order.
    Nothing here is checked: is_local checks the model."""
    # per (x, a), the block at (x, y) starting at 8x + 4y and its entry (a, b) 2a + b further
    uvm = [(nums[k], nums[k + 4], nums[k] + nums[k + 1]) for k in (0, 2, 8, 10)]
    low = [max(0, u + v - m) for u, v, m in uvm]
    high = [min(u, v) for u, v, m in uvm]
    q = max(low[0] + low[1], low[2] + low[3])
    if q > min(high[0] + high[1], high[2] + high[3]):
        return None
    T = []  # T[2x + a][2 b0 + b1] = T_x(a, b0, b1) over den
    for k in (0, 2):
        t0 = min(q - low[k + 1], high[k])
        for (u, v, m), t in zip(uvm[k:k + 2], (t0, q - t0)):
            T.append((t, u - t, v - t, m - u - v + t))
    Q = [t0 + t1 for t0, t1 in zip(T[0], T[1])]
    strategies, weights = [], []
    for a0, a1, j in itertools.product((0, 1), (0, 1), range(4)):
        w = T[a0][j] * T[2 + a1][j]
        if w:
            strategies.append(DeterministicStrategy(sc, ((a0, a1), divmod(j, 2))))
            weights.append(Fraction(w, Q[j] * den))
    return LocalModel(sc, tuple(strategies), tuple(weights))


def _membership_verdict(box: Box, den: int, nums) -> tuple:
    """is_local's membership-LP path for a checked box, its table read
    into numerators `nums` over `den`: the LP stated on the form
    polytope.canonical_form picks, its model (_solved_model) checked
    against them to reconstruct the box, or its Farkas vector made into
    a Bell functional (_bell_coefficients) and normalized.  Returns that
    verdict and the form."""
    canonical = polytope.canonical_form(box)
    found = _solved_model(box, canonical)
    if isinstance(found, LocalModel):
        ensure(found._reproduces(den, nums), "local model does not reconstruct the box")
        return found, canonical
    coefficients = _bell_coefficients(box, canonical, found.certificate.y_eq)
    functional = normalize(BellFunctional(box.scenario, tuple(coefficients), ZERO))
    violation = functional.evaluate(box)
    ensure(violation > 0, "Bell functional from the Farkas vector is not violated")
    return NonlocalityCertificate(functional, violation), canonical


def _decided(box: Box) -> tuple:
    """is_local's verdict and the form (polytope.canonical_form) that its
    membership LP was stated on, or None when no membership LP ran, so
    that shareability.is_m_shareable states its orbit program on that
    form without a second search."""
    sc = box.scenario
    # the table read once into numerators, for the NS check, the rows and both models' checks
    den, nums = numerators(box.table)
    w = _trace_violation(sc, den, nums)
    if w is not None:
        raise SignalingBox(w)
    check_strategy_space(sc)
    if sc.parties == 2:
        certificate = _violated_facet(sc, den, nums)
        if certificate is not None:
            return certificate, None
    if sc.inputs == sc.outputs == (2, 2):
        model = _fine_model(sc, den, nums)
        ensure(model is not None, "a 2222 box that violates no CHSH facet has no model, against Fine's theorem")
        ensure(all(w > 0 for w in model.weights), "Fine's model has a weight that is not positive")
        ensure(model._reproduces(den, nums), "Fine's model does not reconstruct the box")
        return model, None
    return _membership_verdict(box, den, nums)


def is_local(box: Box) -> LocalModel | NonlocalityCertificate:
    """Decide local-polytope membership with an explicit witness either
    way: a LocalModel in the box's own labels, or a normalized Bell
    functional that the box violates (_decided).

    A bipartite box that violates a CHSH-type row, on any binary
    coarse-graining of each party's outputs (one output against the rest
    beyond five outputs), is certified by the row it
    violates most (_violated_facet), with no LP.  Any other 2222 box is
    local by Fine's theorem, with the model _fine_model glues, checked
    here to exist, to have positive weights and to reconstruct the box.
    The membership LP (_membership_verdict) decides every other box,
    such as one that violates only an I3322- or CGLMP-type facet, over
    the strategies that fire no zero entry of its table; its model is
    checked against the numerators read here, as Fine's is
    (LocalModel._reproduces).  Every box is decided on the form
    polytope.canonical_form picks, with no pre-test: a bipartite one on
    its canonical form, the LP folded by its stabilizer G, 81 x 25
    becoming 9 x 3 on generalized isotropic boxes with 3 outputs; any
    box of another number of parties, and one whose search gives up, on
    its own labels (polytope.own_labels, the trivial form)."""
    return _decided(box)[0]


def eve_extension(box: Box, model: LocalModel) -> Box:
    """Adjoin an eavesdropper who outputs the hidden variable.

    Eve has a single trivial input; her output is the index of the
    strategy of positive weight that fired: she is adjoined to the model.
    Conditioned on her output the remaining box is that deterministic
    product, so the extension satisfies the no-secrecy condition by
    construction and stays nonsignaling.
    """
    if model.scenario != box.scenario:
        raise ModelMismatch("model and box scenarios differ")
    if not model.reconstructs(box):
        raise ModelMismatch("model does not reproduce the box")
    pairs = [(s, w) for s, w in zip(model.strategies, model.weights) if w]
    live = LocalModel(box.scenario, *zip(*pairs))
    return live.adjoin((1,), (len(pairs),), [((e,),) for e in range(len(pairs))]).box()

