"""Shareability, cloning, and monogamy of bipartite boxes.

A box is m-shareable with respect to one party when a symmetric
(m+1)-party nonsignaling extension exists whose every copy-marginal is
the box itself.  That existence question is one exact LP, stated on
orbit variables: one variable per class of extension entries that a
permutation of the copies maps onto each other.  Folding is exact, not
a relaxation: averaging any extension over the copy permutations gives
a symmetric one with the same marginals, so an extension exists exactly
when a symmetric one does, and a symmetric table is constant on orbits.
The rows depend only on the shape (base scenario, shared party, m) and
are built once per shape; a box supplies only the marginal rows'
right-hand sides, from the table of its canonical relabeling, and a
witness is unfolded by reading each entry's labels through that
relabeling.  Shareable boxes admit local models on the restricted
inputs (the copies' outputs serve as the hidden variable); local boxes
extend to any number of copies, built as one more LocalModel whose
every copy replays Bob's table.  Perfect cloning of Bob's wing into m
copies is the same question, is_m_shareable(ExtensionProblem(box, "B",
m)), which is why nonlocal boxes cannot be cloned; the isotropic
family's cloning ceiling, C = 1/2, is the optimum of the same LP with C
as one more column.

Monogamy and the box families live here too.  Functions that call
bell, isotropic or locality import them inside, so deciding
shareability loads none of those modules.
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
    party_relabelings,
    permute_parties,
    rat,
    relabel,
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
    """Ask for `copies` symmetric clones of one wing of a bipartite box.

    Refused before anything is built when the extension table passes
    EXTENSION_SIZE_CAP entries.  A copy with two or more (input, output)
    pairs at least doubles the table, so m is first held to log2 of the
    cap: that keeps the check cheap for any m, and caps copies that add
    no entries."""

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
        m, most = copies, EXTENSION_SIZE_CAP.bit_length() - 1
        if m > most or fixed * copy**m > EXTENSION_SIZE_CAP:
            cap = f"the cap of {EXTENSION_SIZE_CAP} table entries and {most} copies"
            raise ExtensionTooLarge(f"m={m}: the extension is over {cap}")
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


def _canonical_problem(problem: ExtensionProblem):
    """The base box's local relabeling with the lexicographically greatest
    table, as (table, fixed, copy): the relabeled table, and for the fixed
    and the copy party a map from each original (output, input) label to
    its relabeled one.  Relabeling each copy of a party alike maps
    extensions onto extensions, so the answer is the same, and every
    relabeling of a box gets one program and the same simplex pivots.
    Above CANONICAL_SEARCH_CAP relabelings (core.party_relabelings of both
    parties) the table is kept and the maps are the identity.  Candidates
    are compared with the best so far cell by cell, up to the first
    differing cell, and only a strictly greater one replaces it, so the
    first greatest wins.

    What the search buys is a cost independent of labels, which the
    shareability-ladder benchmark cannot see: its boxes are cheap under
    any labeling (without the search its tasks_per_s rose from 116.0 to
    128.2).  On 3322 at m=3 toward B, four seeded five-strategy local
    mixtures under three labelings each took 1,462-6,024 pivots with the
    search, the same under every labeling of a mixture, and 1,023-14,629
    pivots (up to 233 s) without it (Python 3.11, 2 vCPUs)."""
    sc = problem.base.scenario
    (X, Y), (A, B) = sc.inputs, sc.outputs
    table = problem.base.table
    # each party's identity relabeling, in core.party_relabelings' form
    g, h = (range(X), (range(A),) * X), (range(Y), (range(B),) * Y)
    count = math.factorial(X) * math.factorial(A) ** X * math.factorial(Y) * math.factorial(B) ** Y
    if count <= CANONICAL_SEARCH_CAP:
        rank = {v: i for i, v in enumerate(sorted(set(table)))}
        ranked = [rank[v] for v in table]
        cells = list(itertools.product(range(X), range(Y), range(A), range(B)))
        # flat index (x*Y + y)*A*B + a*B + b is one term per party
        alice = [(ga, [ga[0][x] * Y * A * B + ga[1][x][a] * B for x, _, a, _ in cells])
                 for ga in party_relabelings(X, A)]
        bob = [(hb, [hb[0][y] * A * B + hb[1][y][b] for _, y, _, b in cells])
               for hb in party_relabelings(Y, B)]
        best, best_ranks = None, [-1] * len(cells)
        for ga, ta in alice:
            for hb, tb in bob:
                for i, j, r in zip(ta, tb, best_ranks):
                    if ranked[i + j] != r:
                        if ranked[i + j] > r:
                            best = (ta, tb, ga, hb)
                            best_ranks = [ranked[i + j] for i, j in zip(ta, tb)]
                        break
        ta, tb, g, h = best
        table = tuple(table[i + j] for i, j in zip(ta, tb))
    # relabeled entry (a | x) reads the original (sigma[x][a] | pi[x])
    of_a, of_b = ({(s[a], p): (a, x) for x, (p, s) in enumerate(zip(*r)) for a in range(len(s))}
                  for r in (g, h))
    return (table, of_a, of_b) if problem.shared_party == "B" else (table, of_b, of_a)


def _unfold(problem: ExtensionProblem, fixed, copy, index, values) -> tuple:
    """The full extension table of `problem` in one pass: each entry
    takes the value of the orbit (index from _orbit_rows) of its labels
    read through _canonical_problem's maps, `fixed` for the fixed party
    and `copy` for each copy.  Only a feasible witness is unfolded, so an
    infeasible verdict never walks the extension table."""
    ext = problem.extension_scenario()
    f, slots = problem.fixed_slot(), problem.copy_slots()
    return tuple(
        values[index[fixed[outs[f], xs[f]], tuple(sorted(copy[outs[s], xs[s]] for s in slots))]]
        for xs in ext.input_tuples()
        for outs in ext.output_tuples()
    )


def folded_extension_lp(problem: ExtensionProblem):
    """Feasibility LP for a symmetric extension, one variable per orbit
    (the value every entry of that orbit takes), and unfold(values), the
    full extension table of this problem whose entries take the values
    of their orbits; the table size was capped when the problem was made.
    The rows are the cached _orbit_rows of the problem's shape, already
    in LinearProgram's stored form (ascending orbits, nonzero int
    coefficients), so they go into `eqs` as they come; the marginal rows
    take their right-hand sides from the table of the base box's
    canonical relabeling (_canonical_problem), in table order."""
    table, fixed, copy = _canonical_problem(problem)
    index, normalization, marginals, traces = _orbit_rows(
        problem.base.scenario, problem.shared_party, problem.copies
    )
    prog = lp.LinearProgram(len(index))
    prog.eqs.extend(itertools.chain(normalization, zip(marginals, table), traces))
    return prog, functools.partial(_unfold, problem, fixed, copy, index)


def validate_extension(problem: ExtensionProblem, extension: Box) -> None:
    """Raise NotAnExtension unless symmetric, nonsignaling, and marginal-exact.
    Symmetry compares the table with its image under core.swap_indices for
    each adjacent slot pair; signaling is checked once; each copy-marginal
    is then read through core.marginal_indices."""
    ext = problem.extension_scenario()
    if extension.scenario != ext:
        raise NotAnExtension("extension scenario mismatch")
    slots = problem.copy_slots()
    table = extension.table
    for i, j in zip(slots, slots[1:]):
        if any(table[k] != table[p] for k, p in enumerate(swap_indices(ext, i, j))):
            raise NotAnExtension(f"not symmetric under swapping slots {i},{j}")
    if not is_nonsignaling(extension):
        raise NotAnExtension("extension is signaling")
    fixed = problem.fixed_slot()
    for slot in slots:
        pair = (fixed, slot) if fixed < slot else (slot, fixed)
        entries = marginal_indices(ext, pair)
        if any(sum((table[i] for i in idx), ZERO) != p
               for (_, idx), p in zip(entries, problem.base.table)):
            raise NotAnExtension(f"marginal onto slot {slot} differs from the base")


def is_m_shareable(problem: ExtensionProblem) -> ExtensionWitness:
    """Decide shareability with the orbit LP of folded_extension_lp.

    A feasible witness is unfolded into the full symmetric extension
    table and validated before return; an infeasible one carries the
    Farkas certificate of the orbit LP.  The orbit LP decides the same
    question as the LP over the full table: symmetrizing any extension
    over the copy permutations keeps its marginals.
    """
    prog, unfold = folded_extension_lp(problem)
    out = lp.solve(prog)
    if out.status == lp.OPTIMAL:
        ext = validate_box(unfold(out.primal), problem.extension_scenario())
        validate_extension(problem, ext)
        return ExtensionWitness(True, extension=ext)
    ensure(out.status == lp.INFEASIBLE, f"extension feasibility LP ended {out.status}")
    return ExtensionWitness(False, certificate=out.certificate)


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
        swapped = ExtensionProblem(
            permute_parties(problem.base, (1, 0)), "B", problem.copies
        )
        order = (problem.copies,) + tuple(range(problem.copies))
        model = local_model_from_extension(
            swapped, permute_parties(extension, order), y_values
        )
        sc_sw = Scenario(
            (model.scenario.inputs[1], model.scenario.inputs[0]),
            (model.scenario.outputs[1], model.scenario.outputs[0]),
        )
        return LocalModel(
            sc_sw,
            tuple(
                DeterministicStrategy(sc_sw, (s.tables[1], s.tables[0]))
                for s in model.strategies
            ),
            model.weights,
        )

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


def infinite_shareability_extension(model: LocalModel, m: int) -> Box:
    """Extend a local bipartite box to m copies of Bob by replaying the
    model's Bob response in every copy; valid for every m."""
    from .locality import LocalModel

    if model.scenario.parties != 2:
        raise ScenarioMismatch("need a bipartite local model")
    if m < 1:
        raise BadParams("need at least one copy")
    X, Y = model.scenario.inputs
    A, B = model.scenario.outputs
    ext = Scenario((X,) + (Y,) * m, (A,) + (B,) * m)
    strategies = tuple(
        DeterministicStrategy(ext, (s.tables[0],) + (s.tables[1],) * m) for s in model.strategies
    )
    return LocalModel(ext, strategies, model.weights).box()


# ---------------------------------------------------------------------------
# cloning ceiling for the isotropic family


def _iso_ceiling_lp() -> lp.LinearProgram:
    """max C over 2-extensions toward Bob of isotropic-C, C in [0, 1].

    The isotropic family is affine in C, so C rides along as one more
    column on the orbit rows of the 2222 shape: each marginal row's rhs
    is the noise entry (C = 0), and C's coefficient in it is the noise
    entry minus the PR entry, so the row asks for the isotropic-C entry.
    """
    from .isotropic import make_isotropic

    noise, pr = make_isotropic(0), make_isotropic(1)
    index, normalization, marginals, traces = _orbit_rows(noise.scenario, "B", 2)
    n_orbits = len(index)
    prog = lp.LinearProgram(n_orbits + 1, [(n_orbits, ONE)])
    prog.set_upper(n_orbits, ONE)
    rows = [(c + ((n_orbits, p - q),), p) for c, p, q in zip(marginals, noise.table, pr.table)]
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


def _pair_rows(sc3: Scenario, parties: tuple[int, int], functional: BellFunctional):
    """Lift a bipartite functional's coefficients to (index, coefficient)
    pairs on the tripartite table, through the pair's marginal entries."""
    entries = marginal_indices(sc3, parties)
    return [(i, c) for c, (_, idx) in zip(functional.coefficients, entries) if c for i in idx]


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
    ab = _pair_rows(sc3, (0, 1), f)
    ac = _pair_rows(sc3, (0, 2), f)
    prog = polytope.ns_lp(sc3, ac)
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
    """(max, min) of g on the Alice-Clare marginal when Alice-Bob sit at
    f's unique nonsignaling maximum; equality means Clare decoupled."""
    from .bell import unique_ns_maximizer

    unique, _ = unique_ns_maximizer(f)
    if not unique:
        raise NotUniqueMaximizer("functional has no unique NS maximizer")
    fa, fb = f.scenario.inputs
    ga, gc = g.scenario.inputs
    if (fa, f.scenario.outputs[0]) != (ga, g.scenario.outputs[0]):
        raise ScenarioMismatch("f and g disagree on Alice's alphabets")
    sc3 = Scenario(
        (fa, f.scenario.inputs[1], gc),
        (f.scenario.outputs[0], f.scenario.outputs[1], g.scenario.outputs[1]),
    )
    ab = _pair_rows(sc3, (0, 1), f)
    ac = _pair_rows(sc3, (0, 2), g)
    hi = polytope.max_over_ns(sc3, ac, extra_eqs=[(ab, ONE - f.offset)])
    lo = polytope.max_over_ns(
        sc3, [(k, -v) for k, v in ac], extra_eqs=[(ab, ONE - f.offset)]
    )
    ensure(
        hi.status == lp.OPTIMAL and lo.status == lp.OPTIMAL,
        f"decoupling LPs ended {hi.status}, {lo.status}",
    )
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


def shared_shift_symmetrize(box: Box) -> Box:
    """Average over a shared uniform shift r: both outputs move by r mod A.

    Fixes the generalized PR box, makes single-party marginals uniform,
    and maps any output-product noise to shift-invariant noise (uniform
    over each diagonal a - b = const, not a product in general).
    """
    sc = box.scenario
    if sc.parties != 2 or sc.outputs[0] != sc.outputs[1]:
        raise ScenarioMismatch("need a bipartite box with equal output alphabets")
    A = sc.outputs[0]
    in_perms = [tuple(range(v)) for v in sc.inputs]
    variants = []
    for r in range(A):
        tau = tuple((v + r) % A for v in range(A))
        out_perms = [[tau] * sc.inputs[0], [tau] * sc.inputs[1]]
        variants.append(relabel(box, in_perms, out_perms))
    return mix(variants, [Fraction(1, A)] * A)
