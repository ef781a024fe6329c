"""Shareability, cloning, and monogamy of bipartite boxes.

A box is m-shareable with respect to one party when a symmetric
(m+1)-party nonsignaling extension exists whose every copy-marginal is
the box itself.  A local box is shareable to every m: each copy replays
the shared party's deterministic answer.  So is_m_shareable first asks
locality.is_local, and a model gives the extension with no further LP:
with no LP at all for a 2222 box (Fine's model), and with the one
membership LP is_local solves otherwise.  A nonlocal box is not
m-shareable for any m >= |Y|, Y the shared party's inputs: read copy
y+1 at input y, and the copies' outputs would be a local hidden
variable (the source paper; Terhal, Doherty and Schwab, PRL 90, 157903,
2003).  That proof is a Farkas vector of the orbit LP below, built from
the Bell functional that certifies the box nonlocal (_bell_lift) and
checked by lp.verify_certificate, so such a box solves no LP beyond
is_local's.  Any other box (m < |Y|, or a base over
locality.STRATEGY_CAP strategies, which gets no locality verdict) is
decided by one exact LP, stated on orbit variables: one variable per
class of extension entries that a permutation of the copies maps onto
each other.  Folding is exact, not a relaxation: averaging any
extension over the copy permutations gives a symmetric one with the
same marginals, so an extension exists exactly when a symmetric one
does, and a symmetric table is constant on orbits.  The orbit program
is stated on the table of the box's canonical relabeling
(polytope.canonical_form, which lives next to the folding helpers it
feeds, since locality.is_local runs it too), and the lift reads the
Bell functional in that frame.
The same argument folds the orbits once more, by the box's stabilizer
G: the pairs of local relabelings (one of Alice's, one of Bob's,
applied alike to every copy, each a tuple of label numbers as `core`
names labels) that leave the canonical table unchanged.
Each element of G maps a symmetric nonsignaling extension of the box
onto another one, so averaging over G gives a G-invariant extension,
constant on the classes of orbits that G maps onto each other.  The
rows are cached per scenario, m and stabilizer; a box supplies only
the marginal rows' right-hand sides, from the table of its canonical
relabeling, and a witness is unfolded through the class map, each
entry reading the class of its label numbers' canonical images.  Orbits
are keyed by label numbers too: Alice's, then the copies' sorted.
Toward A is toward B on the swapped box: sharing Alice's side of
P(ab|xy) is sharing Bob's side of P(ba|yx), as Terhal, Doherty and
Schwab (PRL 90, 157903, 2003) state symmetric extensions for one side
only.  So every program and model here is stated toward B, on the
party-swapped base when the problem asks toward A, and an extension
found that way is put back in the problem's slot order once, copies
first and Bob last; a problem toward A and the problem toward B of the
swapped box get one program and one certificate.  Shareable boxes admit
local models on the restricted inputs (the copies' outputs serve as the
hidden variable).  Perfect cloning of Bob's wing into m copies is the
same question, is_m_shareable(ExtensionProblem(box, "B", m)), which is
why nonlocal boxes cannot be cloned; the isotropic family's cloning
ceiling, C = 1/2, is the optimum of the orbit LP, folded by the PR
box's stabilizer, with C as one more column.

Monogamy and the box families live here too.  The monogamy LP lifts
CHSH onto the AB and AC pairs of a tripartite table (polytope.lift),
and the decoupling LP pins the AB marginal to a functional's unique
maximizer (polytope.marginal_rows).  Functions that call bell,
isotropic or locality import them inside, so checking a shareability
report loads none of those modules.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING

from . import lp, polytope
from .core import (
    BadParams,
    Box,
    BoxlabError,
    Frozen,
    Scenario,
    ScenarioMismatch,
    ZERO,
    ONE,
    _trace_violation,
    box_from_function,
    ensure,
    is_nonsignaling,
    label_offsets,
    marginal,
    marginal_indices,
    mix,
    numerators,
    permute_parties,
    rat,
    relabeled_indices,
    restrict_bob_inputs,
    swap_indices,
    validate_box,
)
from .polytope import DeterministicStrategy

if TYPE_CHECKING:
    from .bell import BellFunctional
    from .locality import LocalModel

EXTENSION_SIZE_CAP = 100_000


class ExtensionTooLarge(BoxlabError):
    pass


class NotAnExtension(BoxlabError):
    pass


class NotUniqueMaximizer(BoxlabError):
    pass


class ExtensionProblem(Frozen):
    """Ask for `copies` symmetric clones of one wing of a bipartite box,
    refused before anything is built when the extension table would have
    over EXTENSION_SIZE_CAP entries.  A copy with two or more (input,
    output) pairs at least doubles the table, so m is first held to log2
    of the cap: that keeps the check cheap for any m, and caps copies that
    add no entries."""

    def __init__(self, base: Box, shared_party: str, copies: int):
        if base.scenario.parties != 2:
            raise ScenarioMismatch("extension problems start from bipartite boxes")
        if shared_party not in ("A", "B"):
            raise BadParams("shared_party must be 'A' or 'B'")
        if type(copies) is not int:
            raise BadParams(f"copies must be an int, got {copies!r}")
        if copies < 1:
            raise BadParams("need at least one copy")
        (X, Y), (A, B) = base.scenario.inputs, base.scenario.outputs
        fixed, copy = (X * A, Y * B) if shared_party == "B" else (Y * B, X * A)
        most = EXTENSION_SIZE_CAP.bit_length() - 1
        if copies > most or fixed * copy**copies > EXTENSION_SIZE_CAP:
            cap = f"the cap of {EXTENSION_SIZE_CAP} table entries and {most} copies"
            raise ExtensionTooLarge(f"m={copies}: the extension is over {cap}")
        if not is_nonsignaling(base):
            raise ScenarioMismatch("base box must be nonsignaling")
        d = self.__dict__
        d["base"] = base
        d["shared_party"] = shared_party  # "A" | "B"
        d["copies"] = copies

    def extension_scenario(self) -> Scenario:
        X, Y = self.base.scenario.inputs
        A, B = self.base.scenario.outputs
        m = self.copies
        if self.shared_party == "B":
            return Scenario((X,) + (Y,) * m, (A,) + (B,) * m)
        return Scenario((X,) * m + (Y,), (A,) * m + (B,))

    def copy_slots(self) -> tuple[int, ...]:
        m = self.copies
        return tuple(range(1, m + 1)) if self.shared_party == "B" else tuple(range(m))

    def fixed_slot(self) -> int:
        return 0 if self.shared_party == "B" else self.copies


class ExtensionWitness(Frozen):
    # the certificate belongs to folded_extension_lp; reports carry the
    # flag so a reader knows which program to re-check it against
    folded = True

    def __init__(self, feasible: bool, extension: Box | None = None, certificate=None):
        d = self.__dict__
        d["feasible"] = feasible
        d["extension"] = extension
        d["certificate"] = certificate


def _arrangements(items) -> int:
    """The number of distinct orderings of the multiset `items`."""
    n = math.factorial(len(items))
    for count in Counter(items).values():
        n //= math.factorial(count)
    return n


@functools.lru_cache(maxsize=16)
def _orbit_rows(scenario: Scenario, copies: int):
    """The extension LP's equality rows on orbit variables for one shape
    (base scenario, copies), toward B, built once per shape and held in a
    small least-recently-used cache like polytope._ns_rows.  Returns
    (index, normalization, marginals, traces), all read-only: the orbit
    number per orbit key (Alice's label number, the sorted tuple of the
    copies' label numbers, core.label_offsets' numbering) of an entry of
    the extension; the normalization and trace rows as (coefficients,
    rhs) pairs; and the coefficients alone of each copy-marginal row, one
    per base table entry in table order, whose rhs is that entry of the
    box.  Coefficients are (orbit, integer coefficient) pairs in orbit
    order without zeros.

    Nothing walks the extension table.  An orbit is Alice's label plus a
    multiset of m copy labels of Bob's, so there are A*X*C(B*Y + m - 1, m)
    of them.  Each row is emitted once from representatives:
      - normalization: one row per input orbit (Alice's input and the
        copies' input multiset); an orbit's coefficient counts the
        copy-output assignments that reach it, a multinomial;
      - marginals: the (Alice, first copy) pair only; the other copies
        sit at input 0, and an orbit's coefficient counts their output
        assignments;
      - trace conditions: Alice and the first copy only, one per context
        multiset and consecutive pair of traced inputs.
    The other copies' marginal and trace rows are these rows moved by a
    copy permutation, so they fold onto them.  Distinct representatives
    give distinct rows, so nothing needs deduplicating.

    The numbering and the row order are those of folding every row of the
    full-table LP in table order and dropping repeats (the oracle
    tests.oracles.walked_orbit_rows), because each orbit and context is
    placed by its first member in table order.  An orbit's first member
    has its copy inputs ascending and, within equal inputs, its copy
    outputs ascending, and orbits are numbered by (inputs, outputs) of
    that member.  A trace context's first member has its copy labels
    sorted by (output, input), and contexts come in (outputs, inputs)
    order of that member.  Keeping the walk's order keeps the programs,
    pivots and certificates of the walk."""
    (X, Y), (A, B) = scenario.inputs, scenario.outputs
    m = copies

    def split(labels):
        # a copy label multiset's outputs and inputs, listed in its order
        return tuple(n % B for n in labels), tuple(n // B for n in labels)

    firsts = []
    for alice in range(X * A):
        # sorted label numbers y*B + b: inputs ascending, then outputs
        for labels in itertools.combinations_with_replacement(range(Y * B), m):
            outs, ins = split(labels)
            firsts.append(((alice // A,) + ins, (alice % A,) + outs, (alice, labels)))
    firsts.sort()
    index = {key: n for n, (_, _, key) in enumerate(firsts)}

    normalization = []
    # orderings of an orbit's copy labels over orderings of their inputs:
    # the copy-output strings on one copy-input string that reach it
    for _, group in itertools.groupby(enumerate(firsts), key=lambda f: f[1][0]):
        coeffs = tuple(
            (n, _arrangements(labels) // _arrangements(split(labels)[1]))
            for n, (_, _, (_, labels)) in group
        )
        normalization.append((coeffs, ONE))

    # base flat index (x*Y + y)*A*B + a*B + b is the product order; the
    # other copies' labels at input 0 are their outputs
    marginals = []
    for x, y, a, b in itertools.product(range(X), range(Y), range(A), range(B)):
        marginals.append(tuple(sorted(
            (index[x * A + a, tuple(sorted((y * B + b, *rest)))], _arrangements(rest))
            for rest in itertools.combinations_with_replacement(range(B), m - 1)
        )))

    # contexts come in (outputs, inputs) order of copy labels sorted by
    # (output, input)
    by_output = sorted(range(Y * B), key=lambda n: (n % B, n // B))

    def alice_trace():
        for labels in itertools.combinations_with_replacement(by_output, m):
            key = tuple(sorted(labels))
            yield split(labels), [[index[x * A + a, key] for a in range(A)] for x in range(X)]

    def copy_trace():
        for a, x in itertools.product(range(A), range(X)):
            for rest in itertools.combinations_with_replacement(by_output, m - 1):
                outs, ins = split(rest)
                per_y = [
                    [index[x * A + a, tuple(sorted((*rest, y * B + o)))] for o in range(B)]
                    for y in range(Y)
                ]
                yield ((a,) + outs, (x,) + ins), per_y

    traces = []
    # the traced parties in slot order, as polytope.ns_equality_rows takes them
    for contexts in (alice_trace, copy_trace):
        for _, per_x in sorted(contexts()):
            for lo, hi in zip(per_x, per_x[1:]):
                coeffs = sorted([(i, 1) for i in lo] + [(j, -1) for j in hi])
                traces.append((tuple(coeffs), ZERO))
    return MappingProxyType(index), tuple(normalization), tuple(marginals), tuple(traces)


def _oriented(problem: ExtensionProblem) -> Box:
    """The box whose extension toward B is the problem's extension:
    toward B the base itself, toward A the base with its parties swapped
    (core.permute_parties), since sharing Alice's side of P(ab|xy) is
    sharing Bob's side of P(ba|yx).  Every program and model here is
    stated on this box, so one orientation serves both parties."""
    base = problem.base
    return base if problem.shared_party == "B" else permute_parties(base, (1, 0))


def _in_problem_order(problem: ExtensionProblem, extension: Box) -> Box:
    """An extension of _oriented(problem) toward B, its fixed party first
    and the copies after it, in the problem's slot order: toward A that
    moves the copies to slots 0..m-1 and the fixed party, Bob, last."""
    if problem.shared_party == "B":
        return extension
    return permute_parties(extension, (*range(1, problem.copies + 1), 0))


def _unfold(problem: ExtensionProblem, scenario: Scenario, alice, bob, index, values) -> tuple:
    """The full extension table of `problem` in one pass: each entry of
    the extension toward B of the oriented base (of `scenario`) takes the
    value of the class (index from _folded_rows) of its label numbers read
    through the canonical form's maps, `alice` for the fixed party and
    `bob` for each copy, and the table is then put in the problem's slot
    order (_in_problem_order).  Per party and input, the images of its
    labels are one slice of its map; a product over the parties' slices
    runs over the input tuples, and one over the slices of an input tuple
    over its output tuples, both in table order.  Only a feasible witness
    is unfolded, so an infeasible verdict never walks the extension
    table."""
    (X, Y), (A, B) = scenario.inputs, scenario.outputs
    more = problem.copies - 1
    ext = Scenario(scenario.inputs + (Y,) * more, scenario.outputs + (B,) * more)
    per_x = [alice[x * A:(x + 1) * A] for x in range(X)]
    per_y = [bob[y * B:(y + 1) * B] for y in range(Y)]
    table = tuple(
        values[index[n, tuple(sorted(copies))]]
        for images in itertools.product(per_x, *[per_y] * problem.copies)
        for n, *copies in itertools.product(*images)
    )
    return _in_problem_order(problem, Box(ext, table)).table


@functools.lru_cache(maxsize=16)
def _folded_rows(scenario: Scenario, copies: int, group: tuple):
    """The orbit LP's rows for one shape folded by `group`, a stabilizer
    as polytope.canonical_form returns it, held in a small cache like
    _orbit_rows.  Returns (index, count, normalization, marginals,
    traces): the class number per orbit key, the number of classes, the
    normalization and trace rows as (coefficients, rhs) pairs, and the
    copy-marginal rows at the base's polytope.spanning_entries only, as
    (coefficients, entries) pairs whose rhs is the box's value at each of
    those flat indices.  Both marginals are nonsignaling, so equal at the
    spanning entries they are equal everywhere.

    polytope.orbit_classes merges the orbits each element maps onto each
    other (Alice's map on her label number, Bob's on every copy's);
    classes are numbered by their least orbit, each row's coefficients
    are summed per class (polytope.fold_row), and zero rows and repeats
    go: a trace row up to its sign (_signed), a marginal row when its
    coefficients repeat one of an earlier entry, whose entries it then
    joins (polytope.group_entries)."""
    index, normalization, marginals, traces = _orbit_rows(scenario, copies)
    spanning = polytope.spanning_entries(scenario)
    keys = list(index)

    def image(element):
        f, c = element
        return [index[f[n], tuple(sorted(map(c.__getitem__, copies)))] for n, copies in keys]

    class_of = polytope.orbit_classes(len(keys), map(image, group))

    def fold(coeffs):
        return polytope.fold_row(coeffs, class_of)

    return (
        MappingProxyType(dict(zip(keys, class_of))),
        max(class_of) + 1,
        tuple((coeffs, ONE) for coeffs in dict.fromkeys(fold(c) for c, _ in normalization)),
        polytope.group_entries(spanning, [fold(marginals[e]) for e in spanning]),
        tuple((coeffs, ZERO) for coeffs in dict.fromkeys(_signed(fold(c))[1] for c, _ in traces) if coeffs),
    )


def _signed(coeffs) -> tuple:
    """The sign rule of folded trace rows, whose right-hand sides are 0: a
    row is kept with its first coefficient positive, so that a row and its
    negation fold onto one.  Returns (sign, row times sign)."""
    if coeffs and coeffs[0][1] < 0:
        return -1, tuple((k, -c) for k, c in coeffs)
    return 1, coeffs


@functools.lru_cache(maxsize=16)
def _lift_rows(scenario: Scenario, copies: int, group: tuple):
    """What _bell_lift needs of one shape folded by `group`, everything
    but the functional, built once per scenario, m >= Y and stabilizer
    and held in a small cache like _folded_rows.  Returns (first,
    marginals, chains, alice, columns), with z* the copy inputs (0, 1,
    ..., Y-1, 0, ..., 0):
      - the number of normalization rows, which is the first pin row's
        position, and _folded_rows' marginal rows;
      - per spanning entry (x, y, a, b) of the base, the (trace row,
        coefficient) pairs of the copy trace rows that move each copy but
        the one pinned at (b, y) from input 0 to its input in z*, one copy
        after another and one input at a time, with Alice at (a, x) and
        every output of the copies not pinned;
      - Alice's trace rows, as (trace row, prefix, t, coefficient): row
        (t-1, t) at the copy context (lam, z*), for every output string
        lam of the copies, whose first Y outputs are the prefix-th string
        of product(range(B), repeat=Y);
      - per prefix, per Alice input x and output a, the base flat entries
        (x, y, a, prefix[y]) over Bob's inputs y, which c(a, x, prefix)
        sums.
    Trace rows are numbered among _folded_rows' trace rows.  Each row
    here is a row of the full-table program (_orbit_rows' rows moved by
    a copy permutation), folded through _folded_rows' class index
    (polytope.fold_row) and put on its folded row with the sign that
    _signed, the rule of those rows, gives it; the coefficient adds up the
    rows that land on one folded row, and rows that fold to zero are
    dropped."""
    (X, Y), (A, B) = scenario.inputs, scenario.outputs
    m = copies
    index, _, normalization, marginals, traces = _folded_rows(scenario, m, group)
    position = {coeffs: n for n, (coeffs, _) in enumerate(traces)}

    def place(terms, lo, hi, key=()):
        # the trace row sum(lo) - sum(hi), over orbit keys, onto its folded row
        sign, coeffs = _signed(polytope.fold_row([*((k, 1) for k in lo), *((k, -1) for k in hi)], index))
        if coeffs:
            terms[(position[coeffs], *key)] += sign

    target = [j if j < Y else 0 for j in range(m)]
    chains = []
    # the base cells in table order, as _orbit_rows' marginals walk them
    cells = list(itertools.product(range(X), range(Y), range(A), range(B)))
    for e in polytope.spanning_entries(scenario):
        x, y, a, b = cells[e]
        terms: Counter = Counter()
        inputs = [0] * m
        inputs[y] = y
        for j in range(1, Y):
            if j == y:
                continue
            others = [k for k in range(m) if k not in (j, y)]
            for s in range(j):
                for outs in itertools.product(range(B), repeat=len(others)):
                    rest = [y * B + b, *(inputs[k] * B + o for o, k in zip(outs, others))]
                    lo = [(x * A + a, tuple(sorted([*rest, s * B + o]))) for o in range(B)]
                    hi = [(x * A + a, tuple(sorted([*rest, (s + 1) * B + o]))) for o in range(B)]
                    place(terms, lo, hi)
            inputs[j] = j
        chains.append((e, tuple((n, c) for (n,), c in terms.items() if c)))

    alice: Counter = Counter()
    for outs in itertools.product(range(B), repeat=m):
        labels = tuple(sorted(z * B + o for o, z in zip(outs, target)))
        prefix = functools.reduce(lambda p, o: p * B + o, outs[:Y], 0)
        for t in range(1, X):
            lo = [((t - 1) * A + a, labels) for a in range(A)]
            hi = [(t * A + a, labels) for a in range(A)]
            place(alice, lo, hi, (prefix, t))
    at_a, at_b = label_offsets(scenario)
    columns = tuple(
        tuple(tuple(tuple(i + j for j in bob) for i in at_a[x * A:(x + 1) * A]) for x in range(X))
        for bob in itertools.product(*(at_b[y * B:(y + 1) * B] for y in range(Y)))
    )
    return (
        len(normalization),
        marginals,
        tuple(chains),
        tuple((n, prefix, t, c) for (n, prefix, t), c in alice.items() if c),
        columns,
    )


def _bell_lift(scenario: Scenario, copies: int, canonical, functional: BellFunctional, prog) -> lp.LpCertificate:
    """A Farkas vector of prog, the program folded_extension_lp states
    for `copies` >= Y copies of an oriented base of `scenario` with the
    canonical form `canonical`, made from `functional`, a normalized Bell
    functional in the base's own labels that the base violates (the
    certificate of locality.is_local): the paper's proof that a nonlocal
    box has no symmetric extension to |Y| copies.

    beta is that functional made linear, its offset added to every
    coefficient of the block at (x, y) = (0, 0), which every box sums to
    1, read into the canonical frame through the form's inverted maps
    (core.relabeled_indices, as canonical_form's table reads the box), as
    integer numerators over their common denominator: at most 0 on every
    deterministic strategy and positive on the canonical table T.  It is
    then moved onto the spanning entries (polytope.collins_gisin).  With
    lam the copies' output string at the copy inputs z* = (0, 1, ...,
    Y-1, 0, ..., 0), c(a, x, lam) = sum_y beta(a, lam_{y+1} | x, y) and
    M(x, lam) = max_a c(a, x, lam), the multipliers are
      - -beta on each copy-marginal pin row, with the pinned copy at
        (b, y) and the others at input 0;
      - +beta on the copy trace rows that move the other copies from
        input 0 to z* (_lift_rows), which telescope, so together with
        the pin rows each column (a, lam | x, z*) gets -c(a, x, lam);
      - -sum_{x' >= t} M(x', lam) on Alice's trace row (t-1, t) at copy
        context (lam, z*), which gives that column M(x, lam) at x > 0 and
        -sum_{x' > 0} M(x', lam) at x = 0.
    So a column at x > 0 sums to M - c >= 0, one at x = 0 to at least
    -sum_x M(x, lam) >= 0, the value of beta on the strategy that answers
    argmax_a at each x and lam_{y+1} at y, and every other column to 0,
    while the right-hand sides give -beta(T) < 0.  That is a Farkas vector
    of the full-table program, and multipliers that add up on the rows
    they fold onto are one of the folded program (_lift_rows).  y_lb is
    the column sums, and the vector is divided by its entries' gcd."""
    table, *maps, group = canonical
    linear = list(functional.coefficients)
    for e in range(math.prod(scenario.outputs)):
        linear[e] += functional.offset
    back = [sorted(range(len(to)), key=to.__getitem__) for to in maps]
    moved = numerators([linear[e] for e in relabeled_indices(scenario, back)])[1]
    beta = polytope.collins_gisin(scenario, moved, 0)[0]
    row, marginals, chains, alice, columns = _lift_rows(scenario, copies, group)
    y = [0] * len(prog.eqs)
    # the pin rows, one per distinct value of T over each group's entries
    for _, entries in polytope.pinned_entries(marginals, table):
        y[row] -= sum(map(beta.__getitem__, entries))
        row += 1
    for e, chain in chains:
        if beta[e]:
            for n, c in chain:
                y[row + n] += c * beta[e]
    tails = []
    for per_x in columns:
        best = [max(sum(map(beta.__getitem__, cols)) for cols in per_a) for per_a in per_x]
        tails.append([*itertools.accumulate(reversed(best))][::-1])
    for n, prefix, t, c in alice:
        y[row + n] -= c * tails[prefix][t]
    g = math.gcd(*y)
    y = [u // g for u in y]
    lb = [0] * prog.num_vars
    for (coeffs, _), u in zip(prog.eqs, y):
        if u:
            for k, c in coeffs:
                lb[k] += u * c
    return lp.LpCertificate(
        "farkas", tuple(map(Fraction, y)), (), tuple(map(Fraction, lb)), (ZERO,) * prog.num_vars
    )


def folded_extension_lp(problem: ExtensionProblem, canonical=None):
    """Feasibility LP for a symmetric extension, one variable per class
    of orbits that the oriented base box's stabilizer merges, and
    unfold(values), the full extension table of this problem whose
    entries take the values of their classes; the table size was capped
    when the problem was made.  The program is stated toward B on
    _oriented(problem), so a problem toward A and the problem toward B of
    the party-swapped box get one program.  The rows are the cached
    _folded_rows of the oriented scenario, m and stabilizer, already in
    LinearProgram's stored form (ascending classes, nonzero int
    coefficients), so they go into `eqs` as they come; the marginal rows
    take their right-hand sides from the table of the oriented box's
    canonical relabeling (`canonical`, its polytope.canonical_form, when
    the caller has found it), one row per distinct value over the entries
    of a row (polytope.pin_rows).

    Relabeling every copy alike maps extensions onto extensions, so the
    canonical relabeling keeps the answer, and every relabeling of a box
    gets one program and the same simplex pivots.  What the search buys
    is a cost independent of labels, and fewer pivots in total.  A
    nonlocal base at m >= |Y| is decided by _bell_lift with no solve, so
    the pivots are counted at m < |Y|.  Three nonlocal 3322 boxes
    at m=2 toward B (half a PR-type box on inputs 0 and 1, input 2
    answering like input 0, plus half a four-strategy mixture seeded
    1001-1003), each under its own labels and two seeded relabelings,
    took 145-165 pivots with the search, the same under every labeling,
    1,410 in all; without it 158-192, 1,542 in all (+9%).  It also finds
    the stabilizer that the rows are folded by."""
    base = _oriented(problem)
    table, alice, bob, group = canonical or polytope.canonical_form(base)
    index, count, normalization, marginals, traces = _folded_rows(
        base.scenario, problem.copies, group
    )
    prog = lp.LinearProgram(count)
    prog.eqs.extend([*normalization, *polytope.pin_rows(marginals, table), *traces])
    return prog, functools.partial(_unfold, problem, base.scenario, alice, bob, index)


def validate_extension(problem: ExtensionProblem, extension: Box) -> None:
    """Raise NotAnExtension unless symmetric, nonsignaling, and marginal-exact.
    The table is read once as ints, its numerators over its common
    denominator (core.numerators).  Symmetry compares them with their
    image under core.swap_indices for each adjacent slot pair; signaling
    is checked once, on those numerators (core._trace_violation, the
    check of core.is_nonsignaling); each copy-marginal entry, a sum of
    numerators over core.marginal_indices, is then compared with the base
    box's entry by cross-multiplication."""
    ext = problem.extension_scenario()
    if extension.scenario != ext:
        raise NotAnExtension("extension scenario mismatch")
    slots = problem.copy_slots()
    den, nums = numerators(extension.table)
    for i, j in zip(slots, slots[1:]):
        if any(nums[k] != nums[p] for k, p in enumerate(swap_indices(ext, i, j))):
            raise NotAnExtension(f"not symmetric under swapping slots {i},{j}")
    if _trace_violation(ext, den, nums) is not None:
        raise NotAnExtension("extension is signaling")
    fixed, at = problem.fixed_slot(), nums.__getitem__
    for slot in slots:
        entries = marginal_indices(ext, sorted((fixed, slot)))
        if any(sum(map(at, idx)) * p.denominator != p.numerator * den
               for (_, idx), p in zip(entries, problem.base.table)):
            raise NotAnExtension(f"marginal onto slot {slot} differs from the base")


def is_m_shareable(problem: ExtensionProblem) -> ExtensionWitness:
    """Decide shareability, with a witness validated before return.

    Everything is asked of the oriented base box (_oriented: toward A,
    the party-swapped box, toward B).  A base box within
    locality.STRATEGY_CAP strategies is first decided by
    locality.is_local (locality._decided, which also hands back the
    canonical form its membership LP was stated on, when one ran).  A model gives the extension, every copy replaying
    Bob's table of the oriented box (LocalModel.adjoin).  A nonlocal base
    at m >= Y, Y its second party's inputs, is not shareable by the
    paper's theorem: is_local's Bell functional is lifted into a Farkas
    vector of the program folded_extension_lp states (_bell_lift), which
    lp.verify_certificate checks before it is returned, and no LP is
    solved beyond is_local's.  Otherwise (m < Y, or no locality verdict above the cap) the
    orbit LP of folded_extension_lp decides: a feasible witness is
    unfolded into the full symmetric extension table, and an infeasible
    one carries that LP's Farkas certificate.  Both programs are stated
    on the base's canonical relabeling and folded by its stabilizer, found
    once (polytope.canonical_form), by is_local or here.  Either extension is put in the
    problem's slot order once (_in_problem_order).
    """
    from .locality import STRATEGY_CAP, LocalModel, _decided

    base, m = _oriented(problem), problem.copies
    sc = base.scenario
    verdict, canonical = _decided(base) if polytope.strategy_count(sc) <= STRATEGY_CAP else (None, None)
    if isinstance(verdict, LocalModel):
        tables = [(s.tables[1],) * (m - 1) for s in verdict.strategies]
        ext = verdict.adjoin(sc.inputs[1:] * (m - 1), sc.outputs[1:] * (m - 1), tables).box()
        ext = _in_problem_order(problem, ext)
    else:
        canonical = canonical or polytope.canonical_form(base)
        prog, unfold = folded_extension_lp(problem, canonical)
        if verdict is not None and m >= sc.inputs[1]:
            certificate = _bell_lift(sc, m, canonical, verdict.functional, prog)
            outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=certificate)
            ensure(lp.verify_certificate(prog, outcome), "the lifted Bell certificate fails the orbit LP")
            return ExtensionWitness(False, certificate=certificate)
        out = lp.solve(prog)
        if out.status != lp.OPTIMAL:
            ensure(out.status == lp.INFEASIBLE, f"extension feasibility LP ended {out.status}")
            return ExtensionWitness(False, certificate=out.certificate)
        ext = validate_box(unfold(out.primal), problem.extension_scenario())
    validate_extension(problem, ext)
    return ExtensionWitness(True, extension=ext)


def local_model_from_extension(
    problem: ExtensionProblem, extension: Box, y_values=None
) -> LocalModel:
    """Turn an m-extension into a local model for the base box restricted
    to m input values on the shared side.

    The hidden variable is the copies' output string when copy i is fed
    y_values[i]; the shared party answers deterministically from it, the
    other party answers with the conditional read off the extension,
    refined into deterministic strategies.  Reconstruction of the
    restricted box (inputs sorted(set(y_values))) is exact and checked.
    The model is built toward B on _oriented(problem); toward A the
    extension is first read in that slot order, and the model's parties
    are swapped back at the end.
    """
    from .locality import LocalModel

    validate_extension(problem, extension)
    base, m = _oriented(problem), problem.copies
    if problem.shared_party == "A":
        # the inverse of _in_problem_order: Bob first, then the copies
        extension = permute_parties(extension, (m, *range(m)))
    (X, Y), (A, B) = base.scenario.inputs, base.scenario.outputs
    if y_values is None:
        y_values = tuple(i % Y for i in range(m))
    y_values = tuple(y_values)
    if len(y_values) != m or any(type(y) is not int or not 0 <= y < Y for y in y_values):
        raise BadParams(f"need {m} int inputs of the shared party in 0..{Y - 1}, got {y_values!r}")
    kept = sorted(set(y_values))
    # first copy assigned to each kept input value
    slot_for = {y: y_values.index(y) for y in kept}
    restricted = restrict_bob_inputs(base, kept)

    strategies = []
    weights = []
    alice_functions = list(itertools.product(range(A), repeat=X))
    copies = marginal(extension, range(1, m + 1))
    at_copies = label_offsets(copies.scenario)
    at_alice, *at_ext = label_offsets(extension.scenario)
    for bs in itertools.product(range(B), repeat=m):
        # copy i's label number at (b_i | y_values[i])
        labels = [y * B + b for y, b in zip(y_values, bs)]
        w = copies.table[sum(at[n] for at, n in zip(at_copies, labels))]
        if not w:
            continue
        # Alice's conditional response for each of her inputs
        at_bs = sum(at[n] for at, n in zip(at_ext, labels))
        cond = [[extension.table[at_alice[x * A + a] + at_bs] / w for a in range(A)] for x in range(X)]
        bob_table = tuple(bs[slot_for[y]] for y in kept)
        for f in alice_functions:
            wf = w
            for x in range(X):
                wf *= cond[x][f[x]]
                if not wf:
                    break
            if wf:
                strategies.append(
                    DeterministicStrategy(restricted.scenario, (f, bob_table))
                )
                weights.append(wf)
    model = LocalModel(restricted.scenario, tuple(strategies), tuple(weights))
    ensure(model.reconstructs(restricted), "local model does not reconstruct the box")
    if problem.shared_party == "B":
        return model
    sc = Scenario(restricted.scenario.inputs[::-1], restricted.scenario.outputs[::-1])
    swapped = tuple(DeterministicStrategy(sc, s.tables[::-1]) for s in model.strategies)
    return LocalModel(sc, swapped, model.weights)


# ---------------------------------------------------------------------------
# cloning ceiling for the isotropic family


def _iso_ceiling_lp() -> lp.LinearProgram:
    """max C over 2-extensions toward Bob of isotropic-C, C in [0, 1].

    The isotropic family is affine in C, so C rides along as one more
    column on the rows of the 2222 shape, folded by the PR box's
    stabilizer (_folded_rows), which fixes the uniform noise too and so
    every isotropic box: each marginal row's rhs is the noise entry
    (C = 0), and C's coefficient in it is the noise entry minus the PR
    entry, so the row asks for the isotropic-C entry.

    C needs no upper bound row: at an entry where the PR box is 0 the
    pin reads (orbit terms, all coefficients positive) + C/4 = 1/4, and
    the orbit variables are nonnegative, so the rows alone give C <= 1.
    """
    from .isotropic import make_isotropic

    noise, box = make_isotropic(0).table, make_isotropic(1)
    pr, _, _, group = polytope.canonical_form(box)
    _, n, normalization, marginals, traces = _folded_rows(box.scenario, 2, group)
    prog = lp.LinearProgram(n + 1, [(n, ONE)])
    pins = polytope.pin_rows(marginals, tuple(zip(noise, pr)))
    rows = [(c + ((n, p - q),), p) for c, (p, q) in pins]
    for coeffs, rhs in itertools.chain(normalization, rows, traces):
        prog.add_eq(coeffs, rhs)
    return prog


def isotropic_clone_ceiling() -> Fraction:
    """Largest C for which isotropic-C is 2-shareable toward Bob.

    One exact LP over the orbit variables of the 2-extension plus C
    itself, maximizing C; its dual certificate proves no larger C has a
    symmetric extension, hence (by symmetrization) any extension.
    """
    out = lp.solve(_iso_ceiling_lp())
    ensure(out.status == lp.OPTIMAL, f"clone ceiling LP ended {out.status}")
    return out.value


# ---------------------------------------------------------------------------
# monogamy


def monogamy_lp(beta) -> lp.LinearProgram:
    """Maximize the linear part of CHSH(A,C) over tripartite binary
    nonsignaling boxes with CHSH(A,B) >= beta; add the -1 offset back to
    the optimal value to read off the CHSH tradeoff."""
    from .bell import chsh_functional

    beta = rat(beta)
    if not -1 <= beta <= 1:
        raise BadParams(f"beta must be in [-1, 1], got {beta}")
    sc3 = Scenario((2, 2, 2), (2, 2, 2))
    f = chsh_functional()
    ab = polytope.lift(sc3, (0, 1), f.coefficients)
    prog = polytope.ns_lp(sc3, polytope.lift(sc3, (0, 2), f.coefficients))
    # chsh_AB >= beta, offset -1 folded into the right-hand side
    prog.add_ineq([(k, -v) for k, v in ab], -(beta - f.offset))
    return prog


def monogamy_tradeoff(beta) -> tuple[Fraction, lp.LpOutcome]:
    """Largest CHSH(A,C) over tripartite binary nonsignaling boxes whose
    CHSH(A,B) is at least beta, at most 0 whenever beta is positive, and
    the outcome of monogamy_lp(beta) whose certificate proves it."""
    out = lp.solve(monogamy_lp(beta))
    ensure(out.status == lp.OPTIMAL, f"monogamy LP ended {out.status}")
    return out.value - 1, out


def unique_violator_decoupling(
    f: BellFunctional, g: BellFunctional
) -> tuple[Fraction, Fraction]:
    """(max, min) of g on the Alice-Clare marginal when the Alice-Bob
    marginal is pinned (polytope.marginal_rows) to the box at which f
    attains its nonsignaling maximum, which must be unique; equality
    means Clare decoupled, however f is scaled or shifted."""
    from .bell import unique_ns_maximizer

    if f.scenario.parties != 2 or g.scenario.parties != 2:
        raise ScenarioMismatch("f and g must both be bipartite")
    (fx, fy), (fa, fb) = f.scenario.inputs, f.scenario.outputs
    (gx, gz), (ga, gc) = g.scenario.inputs, g.scenario.outputs
    if (fx, fa) != (gx, ga):
        raise ScenarioMismatch("f and g disagree on Alice's alphabets")
    unique, maximizer = unique_ns_maximizer(f)
    if not unique:
        raise NotUniqueMaximizer("functional has no unique NS maximizer")
    sc3 = Scenario((fx, fy, gz), (fa, fb, gc))
    ac = polytope.lift(sc3, (0, 2), g.coefficients)

    def pinned(objective):
        prog = polytope.ns_lp(sc3, objective)
        for row, rhs in polytope.marginal_rows(sc3, (0, 1), maximizer):
            prog.add_eq(row, rhs)
        return lp.solve(prog)

    hi, lo = pinned(ac), pinned([(k, -v) for k, v in ac])
    ok = hi.status == lo.status == lp.OPTIMAL
    ensure(ok, f"decoupling LPs ended {hi.status}, {lo.status}")
    return hi.value + g.offset, -lo.value + g.offset


# ---------------------------------------------------------------------------
# polygamy example and generalized isotropic boxes


def polygamy_example() -> Box:
    """Symmetric tripartite box whose AB and AC marginals are both nonlocal:
    with probability 1/2, A-B share a PR box on outputs {0,1} while C sees
    noise there; with probability 1/2, A-C share one on {2,3} while B sees
    noise on {2,3}."""
    sc3 = Scenario((2, 2, 2), (4, 4, 4))
    half = Fraction(1, 2)

    def pr_pair(u, v, x, y, lowpair) -> Fraction:
        base = 0 if lowpair else 2
        if u not in (base, base + 1) or v not in (base, base + 1):
            return ZERO
        return half if ((u - base) + (v - base)) % 2 == x * y else ZERO

    def term1(outs, xs):
        a, b, c = outs
        if c not in (0, 1):
            return ZERO
        return pr_pair(a, b, xs[0], xs[1], True) * half

    def term2(outs, xs):
        a, b, c = outs
        if b not in (2, 3):
            return ZERO
        return pr_pair(a, c, xs[0], xs[2], False) * half

    table = []
    for xs in sc3.input_tuples():
        for outs in sc3.output_tuples():
            table.append(half * term1(outs, xs) + half * term2(outs, xs))
    return validate_box(table, sc3)


def generalized_pr(num_outputs: int) -> Box:
    """Two inputs per party, outputs mod-A correlated: a - b = xy (mod A).
    Its 4 A^2 entries are capped like an extension table's, before any is
    built."""
    if num_outputs < 2:
        raise BadParams("need at least two outputs")
    A = num_outputs
    if 4 * A * A > EXTENSION_SIZE_CAP:
        raise BadParams(f"{A} outputs make a table over the cap of {EXTENSION_SIZE_CAP} entries")
    sc = Scenario((2, 2), (A, A))
    return box_from_function(
        sc,
        lambda outs, xs: Fraction(1, A)
        if (outs[0] - outs[1]) % A == (xs[0] * xs[1]) % A
        else 0,
    )


def generalized_isotropic(num_outputs: int, c, dist=None) -> Box:
    """C times the generalized PR box plus (1-C) times noise in which each
    party draws its output, whatever its input, from the single-party
    distribution `dist` (uniform by default)."""
    gpr = generalized_pr(num_outputs)  # checks num_outputs >= 2
    A = num_outputs
    c = rat(c)
    if not 0 <= c <= 1:
        raise BadParams(f"weight must be in [0, 1], got {c}")
    d = [rat(v) for v in dist] if dist is not None else [Fraction(1, A)] * A
    if len(d) != A or any(v < 0 for v in d) or sum(d, ZERO) != 1:
        raise BadParams(f"invalid single-party distribution [{', '.join(map(str, d))}]")
    sc = gpr.scenario
    noise = [d[a] * d[b] for _ in sc.input_tuples() for a, b in sc.output_tuples()]
    return mix([gpr, validate_box(noise, sc)], [c, 1 - c])

