"""Shareability, cloning, and monogamy of bipartite boxes.

A box is m-shareable with respect to one party when a symmetric
(m+1)-party nonsignaling extension exists whose every copy-marginal is
the box itself.  A local box is shareable to every m: each copy replays
the shared party's deterministic answer.  So is_m_shareable first asks
locality.local_model, and a model gives the extension with no further
LP.  Both of its LPs are stated on the table of the box's canonical
relabeling and folded by that table's stabilizer G (below), which one
search per question finds (_canonical_form).  Averaging a local model
over G keeps it a model: each element of G maps a deterministic
strategy onto another one and fixes the table, so it maps a model onto
another model, and the average is a model whose weights are constant on
the classes of strategies G maps onto each other; the membership LP
then needs one weight per class.  Any other box is decided by one exact
LP, stated on orbit variables: one variable per class of extension
entries that a permutation of the copies maps onto each other.  Folding is exact, not
a relaxation: averaging any extension over the copy permutations gives
a symmetric one with the same marginals, so an extension exists exactly
when a symmetric one does, and a symmetric table is constant on orbits.
The same argument folds the orbits once more, by the box's stabilizer
G: the pairs of local relabelings (one of Alice's, one of Bob's,
applied alike to every copy) that leave the canonical table unchanged.
Each element of G maps a symmetric nonsignaling extension of the box
onto another one, so averaging over G gives a G-invariant extension,
constant on the classes of orbits that G maps onto each other.  The
rows depend only on the shape (base scenario, shared party, m) and G,
and are built once per shape and G; a box supplies only the marginal
rows' right-hand sides, from the table of its canonical relabeling,
and a witness is unfolded through the class map and then by reading
each entry's labels through that relabeling.  Shareable boxes admit
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
    box_from_function,
    ensure,
    is_nonsignaling,
    marginal,
    marginal_indices,
    mix,
    numerators,
    permute_parties,
    rat,
    restrict_bob_inputs,
    swap_indices,
    validate_box,
)
from .polytope import DeterministicStrategy

if TYPE_CHECKING:
    from .bell import BellFunctional
    from .locality import LocalModel

EXTENSION_SIZE_CAP = 100_000
CANONICAL_SEARCH_CAP = 10_000


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
def _orbit_rows(scenario: Scenario, shared_party: str, copies: int):
    """The extension LP's equality rows on orbit variables for one shape
    (base scenario, shared party, copies), built once per shape and held
    in a small least-recently-used cache like polytope._ns_rows.  Returns
    (index, normalization, marginals, traces), all read-only: the orbit
    number per orbit key ((outs[fixed], xs[fixed]), the copies' sorted
    (output, input) pairs) of entry (outs, xs); the normalization and
    trace rows as (coefficients, rhs) pairs; and the coefficients alone of
    each copy-marginal row, one per base table entry in table order, whose
    rhs is that entry of the box.  Coefficients are (orbit, integer
    coefficient) pairs in orbit order without zeros.

    Nothing walks the extension table.  An orbit is the fixed party's
    (output, input) plus a multiset of m copy (output, input) pairs, so
    there are F * C(K + m - 1, m) of them, F and K the fixed and the
    copy party's (output, input) pair counts (A*X*C(B*Y + m - 1, m)
    toward B).  Each row is emitted once from representatives:
      - normalization: one row per input orbit (the fixed input and the
        copies' input multiset); an orbit's coefficient counts the
        copy-output assignments that reach it, a multinomial;
      - marginals: the (fixed, first copy) pair only; the other copies
        sit at input 0, and an orbit's coefficient counts their output
        assignments;
      - trace conditions: the fixed party and the first copy only, one
        per context multiset and consecutive pair of traced inputs.
    The other copies' marginal and trace rows are these rows moved by a
    copy permutation, so they fold onto them.  Distinct representatives
    give distinct rows, so nothing needs deduplicating.

    The numbering and the row order are those of folding every row of the
    full-table LP in table order and dropping repeats (the oracle
    tests.oracles.walked_orbit_rows), because each orbit and context is
    placed by its first member in table order.  An orbit's first member
    has its copy inputs ascending and, within equal inputs, its copy
    outputs ascending, and orbits are numbered by (inputs, outputs) of
    that member.  A trace context's first member has its copy pairs
    sorted by (output, input), and contexts come in (outputs, inputs)
    order of that member.  Keeping the walk's order keeps the programs,
    pivots and certificates of the walk."""
    X, Y = scenario.inputs
    A, B = scenario.outputs
    m = copies
    toward_b = shared_party == "B"
    (f_ins, f_outs), (c_ins, c_outs) = ((X, A), (Y, B)) if toward_b else ((Y, B), (X, A))

    def place(fixed, copies):
        # one value per extension slot, in slot order
        return (fixed,) + copies if toward_b else copies + (fixed,)

    def split(pairs):
        return tuple(o for o, _ in pairs), tuple(i for _, i in pairs)

    by_output = [(o, i) for o in range(c_outs) for i in range(c_ins)]
    by_input = sorted(by_output, key=lambda p: (p[1], p[0]))
    firsts = []
    for f_out, f_in in itertools.product(range(f_outs), range(f_ins)):
        for pairs in itertools.combinations_with_replacement(by_input, m):
            outs, ins = split(pairs)
            key = ((f_out, f_in), tuple(sorted(pairs)))
            firsts.append((place(f_in, ins), place(f_out, outs), key))
    firsts.sort()
    index = {key: n for n, (_, _, key) in enumerate(firsts)}

    normalization = []
    # orderings of an orbit's copy pairs over orderings of their inputs:
    # the copy-output strings on one copy-input string that reach it
    for _, group in itertools.groupby(enumerate(firsts), key=lambda f: f[1][0]):
        coeffs = tuple(
            (n, _arrangements(pairs) // _arrangements(split(pairs)[1]))
            for n, (_, _, (_, pairs)) in group
        )
        normalization.append((coeffs, ONE))

    # base flat index (x*Y + y)*A*B + a*B + b is the product order
    marginals = []
    for x, y, a, b in itertools.product(range(X), range(Y), range(A), range(B)):
        fixed, pair = ((a, x), (b, y)) if toward_b else ((b, y), (a, x))
        marginals.append(tuple(sorted(
            (index[fixed, tuple(sorted((pair,) + tuple((o, 0) for o in rest)))],
             _arrangements(rest))
            for rest in itertools.combinations_with_replacement(range(c_outs), m - 1)
        )))

    def fixed_trace():
        for pairs in itertools.combinations_with_replacement(by_output, m):
            yield split(pairs), [[index[(a, x), pairs] for a in range(f_outs)] for x in range(f_ins)]

    def copy_trace():
        for fixed in itertools.product(range(f_outs), range(f_ins)):
            for rest in itertools.combinations_with_replacement(by_output, m - 1):
                outs, ins = split(rest)
                per_y = [
                    [index[fixed, tuple(sorted(rest + ((o, y),)))] for o in range(c_outs)]
                    for y in range(c_ins)
                ]
                yield (place(fixed[0], outs), place(fixed[1], ins)), per_y

    traces = []
    # the traced parties in slot order, as polytope.ns_equality_rows takes them
    for contexts in (fixed_trace, copy_trace) if toward_b else (copy_trace, fixed_trace):
        for _, per_x in sorted(contexts()):
            for lo, hi in zip(per_x, per_x[1:]):
                coeffs = sorted([(i, 1) for i in lo] + [(j, -1) for j in hi])
                traces.append((tuple(coeffs), ZERO))
    return MappingProxyType(index), tuple(normalization), tuple(marginals), tuple(traces)


def _grown(state: tuple, inputs: int, outputs: int) -> list:
    """Every extension of one party's partial relabeling by its next
    canonical label.  `state` holds the original label (numbered input *
    outputs + output) of each canonical label so far, in canonical order
    (input-major, like the table), so a new canonical input takes any
    original input not yet taken, with any output, and a further output of
    the same input any output of that original input not yet taken."""
    k = len(state)
    start = k - k % outputs
    if start == k:
        taken = {n // outputs for n in state}
        return [state + (n,) for n in range(inputs * outputs) if n // outputs not in taken]
    first = state[start] - state[start] % outputs
    taken = set(state[start:])
    return [state + (n,) for n in range(first, first + outputs) if n not in taken]


def _canonical_form(box: Box):
    """The bipartite box's local relabeling with the lexicographically
    greatest table, and that table's stabilizer, as (table, alice, bob,
    group): the relabeled table; for Alice and for Bob a map from each
    original (output, input) label to its relabeled one; and the sorted
    tuple of every (Alice map, Bob map) pair, each as its sorted (label,
    image) pairs on relabeled labels, that leaves the table unchanged.
    Of the relabelings that reach the greatest table the maps are those of
    the least in lexicographic order of (Alice's input permutation, her
    output permutation at each input, Bob's likewise): the one that
    comparing every pair in that order keeps, only a strictly greater
    table replacing the best so far (the oracle
    tests.oracles.brute_canonical_problem).

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

    CANONICAL_SEARCH_CAP bounds the frontier: when a cell would extend it
    to more states than that, the search gives up before building them;
    the table is kept, the maps are the identity, and so is the only
    element of the group.  Distinct extensions belong to distinct
    relabelings, so a box with at most CANONICAL_SEARCH_CAP relabelings
    (X! A!^X Y! B!^Y) is always searched to the end.  Above that, uniform
    noise in 2244 and 2255 and generalized isotropic A=5 at C=1/2 give up
    within their first two blocks, in under 0.1 s, while generalized
    isotropic boxes with 4 outputs per party are searched to their
    16-element stabilizers, their frontier never above 576 states."""
    sc = box.scenario
    (X, Y), (A, B) = sc.inputs, sc.outputs
    table = box.table
    # numerators over a common denominator order the cells as the table does
    ranked = numerators(table)[1]
    # what each original label adds to the flat index (x*Y + y)*A*B + a*B + b
    at_a = [(n // A * Y * A + n % A) * B for n in range(X * A)]
    at_b = [n // B * A * B + n % B for n in range(Y * B)]
    cells = list(itertools.product(range(X), range(Y), range(A), range(B)))
    frontier = [((), ())]
    for x, y, a, b in cells:
        i, j = x * A + a, y * B + b
        # Alice's label (a, x) shows first at y = b = 0, Bob's (b, y) at x = a = 0
        if y == b == 0 or x == a == 0:
            more_a = {fa: _grown(fa, X, A) if y == b == 0 else (fa,) for fa in {fa for fa, _ in frontier}}
            more_b = {fb: _grown(fb, Y, B) if x == a == 0 else (fb,) for fb in {fb for _, fb in frontier}}
            if sum(len(more_a[fa]) * len(more_b[fb]) for fa, fb in frontier) > CANONICAL_SEARCH_CAP:
                frontier = [(tuple(range(X * A)), tuple(range(Y * B)))]
                break
            frontier = [(na, nb) for fa, fb in frontier for na in more_a[fa] for nb in more_b[fb]]
        values = [ranked[at_a[fa[i]] + at_b[fb[j]]] for fa, fb in frontier]
        best = max(values)
        frontier = [f for f, v in zip(frontier, values) if v == best]

    def order(state, outputs):
        # the input permutation, then the output permutation at each input
        return tuple(n // outputs for n in state[::outputs]), tuple(n % outputs for n in state)

    best_a, best_b = min(frontier, key=lambda f: order(f[0], A) + order(f[1], B))
    table = tuple(table[at_a[best_a[x * A + a]] + at_b[best_b[y * B + b]]] for x, y, a, b in cells)

    def label(k, outputs):
        return k % outputs, k // outputs

    def psi(state, place, outputs):
        # canonical label k reads the original label n = state[k], which
        # the best relabeling places at place[n]
        return tuple(sorted((label(k, outputs), label(place[n], outputs)) for k, n in enumerate(state)))

    place_a, place_b = ({n: k for k, n in enumerate(best)} for best in (best_a, best_b))
    group = tuple(sorted((psi(fa, place_a, A), psi(fb, place_b, B)) for fa, fb in frontier))
    alice = {label(n, A): label(k, A) for k, n in enumerate(best_a)}
    bob = {label(n, B): label(k, B) for k, n in enumerate(best_b)}
    return table, alice, bob, group


def _canonical_problem(problem: ExtensionProblem, form=None):
    """_canonical_form of the problem's base box (or `form`, already
    found), with the maps and each group element's pair in (fixed party,
    copy party) order: (table, fixed, copy, group).  Relabeling each copy
    of a party alike maps extensions onto extensions, so the answer is the
    same, and every relabeling of a box gets one program and the same
    simplex pivots.

    What the search buys is a cost independent of labels, and fewer
    pivots in total.  Nine nonlocal 3322 boxes at m=3 toward B (half a
    PR-type box on inputs 0 and 1, input 2 answering like input 0, plus
    half a seeded four-strategy mixture), each under its own labels and
    two seeded relabelings, took 701-4,463 pivots with the search, the
    same under every labeling, 47,415 in all; without it 505-8,388,
    57,798 in all (+22%; Python 3.11, 2 vCPUs).  It also finds the
    stabilizer that folded_extension_lp folds by."""
    table, alice, bob, group = form or _canonical_form(problem.base)
    if problem.shared_party == "A":
        return table, bob, alice, tuple(sorted((pb, pa) for pa, pb in group))
    return table, alice, bob, group


def _unfold(problem: ExtensionProblem, fixed, copy, index, values) -> tuple:
    """The full extension table of `problem` in one pass: each entry
    takes the value of the orbit or class (index from _orbit_rows or
    _folded_rows) of its labels read through _canonical_problem's maps,
    `fixed` for the fixed party and `copy` for each copy.  Only a
    feasible witness is unfolded, so an infeasible verdict never walks
    the extension table."""
    ext = problem.extension_scenario()
    f, slots = problem.fixed_slot(), problem.copy_slots()
    return tuple(
        values[index[fixed[outs[f], xs[f]], tuple(sorted(copy[outs[s], xs[s]] for s in slots))]]
        for xs in ext.input_tuples()
        for outs in ext.output_tuples()
    )


@functools.lru_cache(maxsize=16)
def _folded_rows(scenario: Scenario, shared_party: str, copies: int, group: tuple):
    """The orbit LP's rows for one shape folded by `group`, a stabilizer
    as _canonical_problem returns it, held in a small cache like
    _orbit_rows.  Returns (index, count, normalization, marginals,
    traces): the class number per orbit key, the number of classes, the
    normalization and trace rows as (coefficients, rhs) pairs, and the
    copy-marginal rows at the base's polytope.spanning_entries only, as
    (coefficients, entries) pairs whose rhs is the box's value at each of
    those flat indices.  Both marginals are nonsignaling, so equal at the
    spanning entries they are equal everywhere.

    With a trivial group the rows are _orbit_rows' own tuples.  Otherwise
    polytope.orbit_classes merges the orbits each element maps onto each
    other (the fixed party's map on its label, the copy party's on every
    copy's label); classes are numbered by their least orbit, each row's
    coefficients are summed per class (polytope.fold_row), and zero rows
    and repeats go: a trace row up to its sign, a marginal row when its
    coefficients repeat one of an earlier entry, whose entries it then
    joins."""
    index, normalization, marginals, traces = _orbit_rows(scenario, shared_party, copies)
    spanning = polytope.spanning_entries(scenario)
    if len(group) == 1:
        return index, len(index), normalization, tuple((marginals[e], (e,)) for e in spanning), traces
    keys = list(index)

    def image(element):
        f, c = map(dict, element)
        return [index[f[label], tuple(sorted(c[p] for p in pairs))] for label, pairs in keys]

    class_of = polytope.orbit_classes(len(keys), map(image, group))

    def fold(coeffs):
        return polytope.fold_row(coeffs, class_of)

    def signed(coeffs):
        return tuple((k, -c) for k, c in coeffs) if coeffs and coeffs[0][1] < 0 else coeffs

    folded: dict[tuple, list] = {}
    for e in spanning:
        folded.setdefault(fold(marginals[e]), []).append(e)
    return (
        MappingProxyType(dict(zip(keys, class_of))),
        max(class_of) + 1,
        tuple((coeffs, ONE) for coeffs in dict.fromkeys(fold(c) for c, _ in normalization)),
        tuple((coeffs, tuple(entries)) for coeffs, entries in folded.items()),
        tuple((coeffs, ZERO) for coeffs in dict.fromkeys(signed(fold(c)) for c, _ in traces) if coeffs),
    )


def folded_extension_lp(problem: ExtensionProblem, canonical=None):
    """Feasibility LP for a symmetric extension, one variable per class
    of orbits that the base box's stabilizer merges (per orbit when it
    is trivial), and unfold(values), the full extension table of this
    problem whose entries take the values of their classes; the table
    size was capped when the problem was made.  The rows are the cached
    _folded_rows of the problem's shape and stabilizer, already in
    LinearProgram's stored form (ascending classes, nonzero int
    coefficients), so they go into `eqs` as they come; the marginal rows
    take their right-hand sides from the table of the base box's
    canonical relabeling (_canonical_problem, from `canonical`, the
    base's _canonical_form, when the caller has found it), one row per
    distinct value over the entries of a row."""
    table, fixed, copy, group = _canonical_problem(problem, canonical)
    index, count, normalization, marginals, traces = _folded_rows(
        problem.base.scenario, problem.shared_party, problem.copies, group
    )
    prog = lp.LinearProgram(count)
    prog.eqs.extend(normalization)
    for coeffs, entries in marginals:
        prog.eqs.extend((coeffs, rhs) for rhs in dict.fromkeys(table[e] for e in entries))
    prog.eqs.extend(traces)
    return prog, functools.partial(_unfold, problem, fixed, copy, index)


def validate_extension(problem: ExtensionProblem, extension: Box) -> None:
    """Raise NotAnExtension unless symmetric, nonsignaling, and marginal-exact.
    The table is read once as ints, its numerators over its common
    denominator (core.numerators).  Symmetry compares them with their
    image under core.swap_indices for each adjacent slot pair; signaling
    is checked once; each copy-marginal entry, a sum of numerators over
    core.marginal_indices, is then compared with the base box's entry by
    cross-multiplication."""
    ext = problem.extension_scenario()
    if extension.scenario != ext:
        raise NotAnExtension("extension scenario mismatch")
    slots = problem.copy_slots()
    den, nums = numerators(extension.table)
    for i, j in zip(slots, slots[1:]):
        if any(nums[k] != nums[p] for k, p in enumerate(swap_indices(ext, i, j))):
            raise NotAnExtension(f"not symmetric under swapping slots {i},{j}")
    if not is_nonsignaling(extension):
        raise NotAnExtension("extension is signaling")
    fixed, at = problem.fixed_slot(), nums.__getitem__
    for slot in slots:
        entries = marginal_indices(ext, sorted((fixed, slot)))
        if any(sum(map(at, idx)) * p.denominator != p.numerator * den
               for (_, idx), p in zip(entries, problem.base.table)):
            raise NotAnExtension(f"marginal onto slot {slot} differs from the base")


def is_m_shareable(problem: ExtensionProblem) -> ExtensionWitness:
    """Decide shareability, with a witness validated before return.

    The base box's canonical relabeling and stabilizer are found once
    (_canonical_form) and passed to both LPs.  A base box within
    locality.STRATEGY_CAP strategies goes first to locality.local_model,
    whose membership LP that stabilizer folds.  A model gives the
    extension, every copy replaying the shared party's table
    (LocalModel.adjoin; toward A, core.permute_parties then moves Bob to
    the last slot).  Otherwise the orbit LP of folded_extension_lp,
    folded by the same stabilizer, decides: a feasible witness is
    unfolded into the full symmetric extension table, and an infeasible
    one carries that LP's Farkas certificate.
    """
    from .locality import STRATEGY_CAP, LocalModel, local_model

    sc, m = problem.base.scenario, problem.copies
    canonical = _canonical_form(problem.base)
    model = local_model(problem.base, canonical) if polytope.strategy_count(sc) <= STRATEGY_CAP else None
    if isinstance(model, LocalModel):
        k = 0 if problem.shared_party == "A" else 1
        tables = [(s.tables[k],) * (m - 1) for s in model.strategies]
        ext = model.adjoin((sc.inputs[k],) * (m - 1), (sc.outputs[k],) * (m - 1), tables).box()
        if k == 0:
            ext = permute_parties(ext, (0, *range(2, m + 1), 1))
    else:
        prog, unfold = folded_extension_lp(problem, canonical)
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
    """
    from .locality import LocalModel

    validate_extension(problem, extension)
    if problem.shared_party == "A":
        m = problem.copies
        swapped = ExtensionProblem(permute_parties(problem.base, (1, 0)), "B", m)
        swapped_ext = permute_parties(extension, (m, *range(m)))
        model = local_model_from_extension(swapped, swapped_ext, y_values)
        sc_sw = Scenario(model.scenario.inputs[::-1], model.scenario.outputs[::-1])
        strategies = tuple(DeterministicStrategy(sc_sw, s.tables[::-1]) for s in model.strategies)
        return LocalModel(sc_sw, strategies, model.weights)

    m = problem.copies
    X, Y = problem.base.scenario.inputs
    A, B = problem.base.scenario.outputs
    if y_values is None:
        y_values = tuple(i % Y for i in range(m))
    y_values = tuple(y_values)
    if len(y_values) != m or any(not 0 <= y < Y for y in y_values):
        raise BadParams(f"need {m} valid Bob inputs, got {y_values}")
    kept = sorted(set(y_values))
    # first copy assigned to each kept input value
    slot_for = {y: y_values.index(y) for y in kept}
    restricted = restrict_bob_inputs(problem.base, kept)

    strategies = []
    weights = []
    alice_functions = list(itertools.product(range(A), repeat=X))
    copies = marginal(extension, range(1, m + 1))
    for bs in itertools.product(range(B), repeat=m):
        w = copies.prob(bs, y_values)
        if not w:
            continue
        # Alice's conditional response for each of her inputs
        cond = []
        for x in range(X):
            xs_x = (x,) + y_values
            cond.append([extension.prob((a,) + bs, xs_x) / w for a in range(A)])
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
    return model


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
    """
    from .isotropic import make_isotropic

    noise, box = make_isotropic(0).table, make_isotropic(1)
    pr, _, _, group = _canonical_problem(ExtensionProblem(box, "B", 2))
    _, n, normalization, marginals, traces = _folded_rows(box.scenario, "B", 2, group)
    prog = lp.LinearProgram(n + 1, [(n, ONE)])
    prog.set_upper(n, ONE)
    rows = [
        (c + ((n, p - q),), p)
        for c, entries in marginals
        for p, q in dict.fromkeys((noise[e], pr[e]) for e in entries)
    ]
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
    means Clare decoupled, however f is scaled or shifted.  The max and
    the min share the pinned LP's phase one (`lp.Start`)."""
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
    pinned = polytope.ns_lp(sc3)
    for row, rhs in polytope.marginal_rows(sc3, (0, 1), maximizer):
        pinned.add_eq(row, rhs)
    start = lp.Start(pinned)
    ac = polytope.lift(sc3, (0, 2), g.coefficients)
    hi = lp.solve(pinned.with_objective(ac), start)
    lo = lp.solve(pinned.with_objective([(k, -v) for k, v in ac]), start)
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

