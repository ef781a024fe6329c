"""Shareability, cloning, and monogamy of bipartite boxes.

A box is m-shareable with respect to one party when a symmetric
(m+1)-party nonsignaling extension exists whose every copy-marginal is
the box itself.  That existence question is one exact LP, stated on
orbit variables: one variable per class of extension entries that a
permutation of the copies maps onto each other.  Folding is exact, not
a relaxation: averaging any extension over the copy permutations gives
a symmetric one with the same marginals, so an extension exists exactly
when a symmetric one does, and a symmetric table is constant on orbits.
Shareable boxes admit local models on the restricted inputs (the
copies' outputs serve as the hidden variable); local boxes extend to
any number of copies.  Perfect cloning of one wing is the same
question, which is why nonlocal boxes cannot be cloned; the isotropic
family's cloning ceiling, C = 1/2, is the optimum of the same LP with
C as one more column.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import lp, polytope
from .bell import BellFunctional, chsh_functional, unique_ns_maximizer
from .core import (
    BadParams,
    Box,
    BoxlabError,
    Scenario,
    ScenarioMismatch,
    ZERO,
    ONE,
    box_from_function,
    ensure,
    is_nonsignaling,
    marginal,
    mix,
    permute_parties,
    rat,
    relabel,
    uniform_box,
    validate_box,
)
from .isotropic import make_isotropic
from .locality import LocalModel
from .polytope import DeterministicStrategy

EXTENSION_SIZE_CAP = 100_000
CANONICAL_SEARCH_CAP = 10_000


class ExtensionTooLarge(BoxlabError):
    pass


class NotAnExtension(BoxlabError):
    pass


class NotUniqueMaximizer(BoxlabError):
    pass


@dataclass(frozen=True)
class ExtensionProblem:
    """Ask for `copies` symmetric clones of one wing of a bipartite box."""

    base: Box
    shared_party: str  # "A" | "B"
    copies: int

    def __post_init__(self):
        if self.base.scenario.parties != 2:
            raise ScenarioMismatch("extension problems start from bipartite boxes")
        if self.shared_party not in ("A", "B"):
            raise BadParams("shared_party must be 'A' or 'B'")
        if self.copies < 1:
            raise BadParams("need at least one copy")
        if not is_nonsignaling(self.base):
            raise ScenarioMismatch("base box must be nonsignaling")

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


@dataclass(frozen=True)
class ExtensionWitness:
    feasible: bool
    extension: Box | None = None
    certificate: lp.LpCertificate | None = None
    # the certificate belongs to folded_extension_lp; reports carry the
    # flag so a reader knows which program to re-check it against
    folded = True


def _swap_slots(t: tuple, i: int, j: int) -> tuple:
    out = list(t)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def _marginal_templates(problem: ExtensionProblem):
    """Rows expressing each copy-marginal entry as a sum of extension
    entries, other copies pinned to input 0.  The base's two parties sit
    on the (fixed, copy) slot pair in slot order, as validate_extension
    reads the marginal.  Yields (row, (a, b, x, y))."""
    ext = problem.extension_scenario()
    fixed = problem.fixed_slot()
    slots = problem.copy_slots()
    X, Y = problem.base.scenario.inputs
    A, B = problem.base.scenario.outputs
    for slot in slots:
        first, second = sorted((fixed, slot))
        others = [s for s in slots if s != slot]
        for x in range(X):
            for y in range(Y):
                xs = [0] * ext.parties
                xs[first] = x
                xs[second] = y
                for a in range(A):
                    for b in range(B):
                        row = [ZERO] * ext.table_size
                        for rest in itertools.product(
                            *(range(ext.outputs[s]) for s in others)
                        ):
                            outs = [0] * ext.parties
                            outs[first] = a
                            outs[second] = b
                            for s, v in zip(others, rest):
                                outs[s] = v
                            row[ext.flat_index(outs, xs)] += ONE
                        yield row, (a, b, x, y)


def _orbits(problem: ExtensionProblem):
    """Group table indices by the copy-permutation symmetry: entries whose
    (output, input) pairs on the copy slots agree as multisets share one
    orbit.  Returns (orbit index per flat table index, orbit count)."""
    ext = problem.extension_scenario()
    slots = problem.copy_slots()
    fixed = problem.fixed_slot()
    orbit_of = []
    orbit_index: dict = {}
    for xs in ext.input_tuples():
        for outs in ext.output_tuples():
            key = (
                outs[fixed],
                xs[fixed],
                tuple(sorted((outs[s], xs[s]) for s in slots)),
            )
            if key not in orbit_index:
                orbit_index[key] = len(orbit_index)
            orbit_of.append(orbit_index[key])
    return orbit_of, len(orbit_index)


def _orbit_rows(problem: ExtensionProblem):
    """The extension LP's equality rows on orbit variables: normalization,
    exact copy-marginals and the nonsignaling trace conditions, folded and
    with repeats dropped.  Returns (orbit index per flat table index,
    orbit count, rows); each row is (coefficients, rhs, entry), where
    entry is the base box's ((a, b), (x, y)) whose value a marginal row
    takes as its rhs, and None for the other rows."""
    ext = problem.extension_scenario()
    if ext.table_size > EXTENSION_SIZE_CAP:
        raise ExtensionTooLarge(
            f"extension table has {ext.table_size} entries, cap {EXTENSION_SIZE_CAP}"
        )
    orbit_of, n_orbits = _orbits(problem)
    rows = []
    seen = set()

    def add(coeffs, rhs, entry=None):
        folded = [ZERO] * n_orbits
        for i, c in enumerate(coeffs):
            if c:
                folded[orbit_of[i]] += c
        key = (tuple(folded), rhs, entry)
        if key not in seen:
            seen.add(key)
            rows.append((folded, rhs, entry))

    for coeffs, rhs in polytope.normalization_rows(ext):
        add(coeffs, rhs)
    for row, (a, b, x, y) in _marginal_templates(problem):
        entry = ((a, b), (x, y))
        add(row, problem.base.prob(*entry), entry)
    for coeffs, rhs in polytope.ns_equality_rows(ext):
        add(coeffs, rhs)
    return orbit_of, n_orbits, rows


def _party_relabelings(inputs: int, outputs: int):
    """Every local relabeling of one party as (pi, sigma): the relabeled
    entry (a | x) reads the original entry (sigma[x][a] | pi[x])."""
    perms = list(itertools.permutations(range(outputs)))
    for pi in itertools.permutations(range(inputs)):
        for sigma in itertools.product(perms, repeat=inputs):
            yield pi, sigma


def _canonical_problem(problem: ExtensionProblem):
    """The same question for the base box's local relabeling with the
    lexicographically greatest table, and the index in its extension table
    of every index in this one's.  Relabeling each copy of a party alike
    maps extensions onto extensions, so the answer is the same, and every
    relabeling of a box gets one program and the same simplex pivots.
    Above CANONICAL_SEARCH_CAP relabelings the problem is kept as is."""
    sc = problem.base.scenario
    (X, Y), (A, B) = sc.inputs, sc.outputs
    count = math.factorial(X) * math.factorial(A) ** X * math.factorial(Y) * math.factorial(B) ** Y
    if count > CANONICAL_SEARCH_CAP:
        return problem, range(problem.extension_scenario().table_size)
    table = problem.base.table
    rank = {v: i for i, v in enumerate(sorted(set(table)))}
    ranked = [rank[v] for v in table]
    cells = list(itertools.product(range(X), range(Y), range(A), range(B)))
    # flat index (x*Y + y)*A*B + a*B + b is one term per party
    alice = [(g, [g[0][x] * Y * A * B + g[1][x][a] * B for x, _, a, _ in cells])
             for g in _party_relabelings(X, A)]
    bob = [(h, [h[0][y] * A * B + h[1][y][b] for _, y, _, b in cells])
           for h in _party_relabelings(Y, B)]
    _, ta, tb, g, h = max(
        (([ranked[i + j] for i, j in zip(ta, tb)], ta, tb, g, h) for g, ta in alice for h, tb in bob),
        key=lambda c: c[0],
    )
    canon = ExtensionProblem(
        Box(sc, tuple(table[i + j] for i, j in zip(ta, tb))), problem.shared_party, problem.copies
    )
    ext = problem.extension_scenario()
    m = problem.copies
    per_slot = [g] + [h] * m if problem.shared_party == "B" else [g] * m + [h]
    index_of = [0] * ext.table_size
    for i, (xs, outs) in enumerate(itertools.product(ext.input_tuples(), ext.output_tuples())):
        orig = ext.flat_index([p[1][x][a] for p, x, a in zip(per_slot, xs, outs)],
                              [p[0][x] for p, x in zip(per_slot, xs)])
        index_of[orig] = i
    return canon, index_of


def folded_extension_lp(problem: ExtensionProblem):
    """Feasibility LP for a symmetric extension, one variable per orbit
    (the value every entry of that orbit takes).  The rows are those of
    the base box's canonical relabeling (_canonical_problem).  Returns
    (program, orbit index per flat table index of this problem)."""
    canon, index_of = _canonical_problem(problem)
    orbit_of, n_orbits, rows = _orbit_rows(canon)
    prog = lp.LinearProgram(n_orbits)
    for coeffs, rhs, _ in rows:
        prog.add_eq(coeffs, rhs)
    return prog, [orbit_of[i] for i in index_of]


def validate_extension(problem: ExtensionProblem, extension: Box) -> None:
    """Raise NotAnExtension unless symmetric, nonsignaling, and marginal-exact."""
    ext = problem.extension_scenario()
    if extension.scenario != ext:
        raise NotAnExtension("extension scenario mismatch")
    slots = problem.copy_slots()
    for i, j in zip(slots, slots[1:]):
        for xs in ext.input_tuples():
            for outs in ext.output_tuples():
                if extension.prob(outs, xs) != extension.prob(
                    _swap_slots(outs, i, j), _swap_slots(xs, i, j)
                ):
                    raise NotAnExtension(f"not symmetric under swapping slots {i},{j}")
    if not is_nonsignaling(extension):
        raise NotAnExtension("extension is signaling")
    fixed = problem.fixed_slot()
    for slot in slots:
        pair = (fixed, slot) if fixed < slot else (slot, fixed)
        if marginal(extension, pair) != problem.base:
            raise NotAnExtension(f"marginal onto slot {slot} differs from the base")


def is_m_shareable(problem: ExtensionProblem) -> ExtensionWitness:
    """Decide shareability with the orbit LP of folded_extension_lp.

    A feasible witness is unfolded into the full symmetric extension
    table and validated before return; an infeasible one carries the
    Farkas certificate of the orbit LP.  The orbit LP decides the same
    question as the LP over the full table: symmetrizing any extension
    over the copy permutations keeps its marginals.
    """
    prog, orbit_of = folded_extension_lp(problem)
    out = lp.solve(prog)
    if out.status == lp.OPTIMAL:
        table = [out.primal[o] for o in orbit_of]
        ext = validate_box(table, problem.extension_scenario())
        validate_extension(problem, ext)
        return ExtensionWitness(True, extension=ext)
    ensure(out.status == lp.INFEASIBLE, f"extension feasibility LP ended {out.status}")
    return ExtensionWitness(False, certificate=out.certificate)


def clone_feasibility(box: Box, m: int) -> ExtensionWitness:
    """Perfect cloning of Bob's wing into m copies is exactly m-shareability:
    infeasibility certifies that no perfect cloning machine can act here."""
    return is_m_shareable(ExtensionProblem(box, "B", m))


def restrict_bob_inputs(box: Box, y_values) -> Box:
    """Bipartite box keeping only the listed Bob inputs, re-indexed."""
    X, _ = box.scenario.inputs
    A, B = box.scenario.outputs
    ys = tuple(y_values)
    sub = Scenario((X, len(ys)), (A, B))
    table = []
    for x in range(X):
        for j in range(len(ys)):
            for a in range(A):
                for b in range(B):
                    table.append(box.prob((a, b), (x, ys[j])))
    return Box(sub, tuple(table))


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
    for bs in itertools.product(range(B), repeat=m):
        xs = (0,) + y_values
        w = sum((extension.prob((a,) + bs, xs) for a in range(A)), ZERO)
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
    if model.scenario.parties != 2:
        raise ScenarioMismatch("need a bipartite local model")
    if m < 1:
        raise BadParams("need at least one copy")
    X, Y = model.scenario.inputs
    ext = Scenario((X,) + (Y,) * m, (model.scenario.outputs[0],) + (model.scenario.outputs[1],) * m)
    table = [ZERO] * ext.table_size
    n_out = ext.num_output_tuples
    for strat, w in zip(model.strategies, model.weights):
        if not w:
            continue
        fa, fb = strat.tables
        for xi, xs in enumerate(ext.input_tuples()):
            outs = (fa[xs[0]],) + tuple(fb[y] for y in xs[1:])
            table[xi * n_out + ext.output_index(outs)] += w
    return Box(ext, tuple(table))


# ---------------------------------------------------------------------------
# cloning ceiling for the isotropic family


def _iso_ceiling_lp() -> lp.LinearProgram:
    """max C over 2-extensions toward Bob of isotropic-C, C in [0, 1].

    The orbit rows are those of the noise box (C = 0).  The isotropic
    family is affine in C, so C rides along as one more column: each
    marginal row's rhs moves from the noise entry to the PR entry as C
    goes from 0 to 1.
    """
    pr = make_isotropic(1)
    _, n_orbits, rows = _orbit_rows(ExtensionProblem(make_isotropic(0), "B", 2))
    prog = lp.LinearProgram(n_orbits + 1)
    prog.set_objective([ZERO] * n_orbits + [ONE])
    prog.set_bounds(n_orbits, ZERO, ONE)
    for coeffs, rhs, entry in rows:
        slope = rhs - pr.prob(*entry) if entry else ZERO
        prog.add_eq(coeffs + [slope], rhs)
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


def cloning_shrink_factor(c) -> Fraction:
    """Ratio between the clones' best isotropic parameter and the original:
    1/(2C), the ceiling divided by the starting parameter."""
    c = rat(c)
    if not 0 < c <= 1:
        raise BadParams("shrink factor needs C in (0, 1]")
    ceiling = Fraction(1, 2)
    return min(ONE, ceiling / c)


# ---------------------------------------------------------------------------
# monogamy


def _pair_rows(sc3: Scenario, parties: tuple[int, int], functional: BellFunctional):
    """Lift a bipartite functional's coefficients to the tripartite table:
    marginal entries expand into sums with the absent parties' inputs at 0."""
    coeffs = [ZERO] * sc3.table_size
    i, j = parties
    others = [k for k in range(sc3.parties) if k not in parties]
    sub = functional.scenario
    for xs_sub in sub.input_tuples():
        xs = [0] * sc3.parties
        xs[i], xs[j] = xs_sub
        for outs_sub in sub.output_tuples():
            c = functional.coefficients[sub.flat_index(outs_sub, xs_sub)]
            if not c:
                continue
            for rest in itertools.product(*(range(sc3.outputs[k]) for k in others)):
                outs = [0] * sc3.parties
                outs[i], outs[j] = outs_sub
                for k, v in zip(others, rest):
                    outs[k] = v
                coeffs[sc3.flat_index(outs, xs)] += c
    return coeffs


def monogamy_lp(beta) -> lp.LinearProgram:
    """Maximize the linear part of CHSH(A,C) over tripartite binary
    nonsignaling boxes with CHSH(A,B) >= beta; add the -1 offset back to
    the optimal value to read off the CHSH tradeoff."""
    beta = rat(beta)
    if not -1 <= beta <= 1:
        raise BadParams(f"beta must be in [-1, 1], got {beta}")
    sc3 = Scenario((2, 2, 2), (2, 2, 2))
    f = chsh_functional()
    ab = _pair_rows(sc3, (0, 1), f)
    ac = _pair_rows(sc3, (0, 2), f)
    prog = polytope.ns_lp(sc3, ac)
    # chsh_AB >= beta, offset -1 folded into the right-hand side
    prog.add_ineq([-v for v in ab], -(beta - f.offset))
    return prog


def monogamy_tradeoff(beta) -> Fraction:
    """Largest CHSH(A,C) over tripartite binary nonsignaling boxes whose
    CHSH(A,B) is at least beta; at most 0 whenever beta is positive."""
    out = lp.solve(monogamy_lp(beta))
    ensure(out.status == lp.OPTIMAL, f"monogamy LP ended {out.status}")
    return out.value - 1


def unique_violator_decoupling(
    f: BellFunctional, g: BellFunctional
) -> tuple[Fraction, Fraction]:
    """(max, min) of g on the Alice-Clare marginal when Alice-Bob sit at
    f's unique nonsignaling maximum; equality means Clare decoupled."""
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
        sc3, [-v for v in ac], extra_eqs=[(ab, ONE - f.offset)]
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
    """Two inputs per party, outputs mod-A correlated: a - b = xy (mod A)."""
    if num_outputs < 2:
        raise BadParams("need at least two outputs")
    A = num_outputs
    sc = Scenario((2, 2), (A, A))
    return box_from_function(
        sc,
        lambda outs, xs: Fraction(1, A)
        if (outs[0] - outs[1]) % A == (xs[0] * xs[1]) % A
        else 0,
    )


def _single_party_product(sc: Scenario, dist_a, dist_b) -> Box:
    table = []
    for _ in sc.input_tuples():
        for outs in sc.output_tuples():
            table.append(dist_a[outs[0]] * dist_b[outs[1]])
    return validate_box(table, sc)


def generalized_isotropic(num_outputs: int, c, dist_a=None, dist_b=None) -> Box:
    """C times the generalized PR box plus (1-C) times a product of
    input-independent single-party distributions (uniform by default)."""
    A = num_outputs
    c = rat(c)
    if not 0 <= c <= 1:
        raise BadParams(f"weight must be in [0, 1], got {c}")
    uniform = [Fraction(1, A)] * A
    da = [rat(v) for v in dist_a] if dist_a is not None else uniform
    db = [rat(v) for v in dist_b] if dist_b is not None else da
    for d in (da, db):
        if len(d) != A or any(v < 0 for v in d) or sum(d, ZERO) != 1:
            raise BadParams(f"invalid single-party distribution {d}")
    gpr = generalized_pr(A)
    return mix([gpr, _single_party_product(gpr.scenario, da, db)], [c, 1 - c])


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
