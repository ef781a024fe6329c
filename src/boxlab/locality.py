"""Local-polytope membership, local models, and the eavesdropper they give.

A box is local when it is a convex mixture of deterministic strategies.
Membership is one exact LP over strategy weights, with one row per
spanning entry (`polytope.spanning_entries`): these entries fix every
nonsignaling table, so weights that match a nonsignaling box there match
all of it.  Feasibility yields an explicit LocalModel, infeasibility a
Farkas vector that, after normalization, is a Bell functional violated
by the box.  Secrecy content is this decision: a bipartite box contains
secrecy exactly when it is nonlocal, and for a local box the model's
hidden variable is a message an eavesdropper can hold (eve_extension),
so the command line's `secrecy` analysis is `is_local` with the verdict
read the other way round.

Enumerating the strategies is the cost: no scenario with more than
STRATEGY_CAP of them is decided or checked.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from . import lp, polytope
from .bell import BellFunctional, normalize
from .core import (
    Box,
    BoxlabError,
    Frozen,
    Scenario,
    SignalingBox,
    ZERO,
    ONE,
    count_text,
    ensure,
    is_nonsignaling,
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

    def box(self) -> Box:
        table = [ZERO] * self.scenario.table_size
        n_out = self.scenario.num_output_tuples
        for strat, w in zip(self.strategies, self.weights):
            if not w:
                continue
            for xi, xs in enumerate(self.scenario.input_tuples()):
                outs = tuple(strat.tables[k][xs[k]] for k in range(self.scenario.parties))
                table[xi * n_out + self.scenario.output_index(outs)] += w
        return Box(self.scenario, tuple(table))

    def reconstructs(self, box: Box) -> bool:
        return self.box() == box

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


@functools.lru_cache(maxsize=16)
def _membership_rows(scenario: Scenario) -> tuple:
    """Per spanning entry (`polytope.spanning_entries`), the row summing
    the weights of the strategies that set it to 1, as LinearProgram
    stores it."""
    rows = [[] for _ in range(scenario.table_size)]
    for e, cols in enumerate(polytope.strategy_columns(scenario)):
        term = (e, ONE)
        for k in cols:
            rows[k].append(term)
    return tuple(tuple(rows[k]) for k in polytope.spanning_entries(scenario))


def _moved(table: tuple, image: dict) -> tuple:
    """The response table that fires the images, under `image` (a map of
    (output, input) labels), of the labels (table[x], x) that `table`
    fires."""
    out = [0] * len(table)
    for x, a in enumerate(table):
        a2, x2 = image[a, x]
        out[x2] = a2
    return tuple(out)


@functools.lru_cache(maxsize=16)
def _folded_membership_rows(scenario: Scenario, group: tuple) -> tuple:
    """The membership rows folded by `group`, the stabilizer of a
    canonical table as shareability._canonical_form returns it, held in a
    small cache like _membership_rows.  Returns (members, rows): per
    class of strategies that the group maps onto each other (classes
    numbered by their least strategy, polytope.orbit_classes), its
    strategies' response tables in deterministic_strategies order; and
    per distinct folded spanning row its coefficients (class, number of
    its strategies that set the entry to 1) and the spanning entries that
    share them."""
    alphabets = zip(scenario.inputs, scenario.outputs)
    tables = [list(itertools.product(range(a), repeat=x)) for x, a in alphabets]
    numbers = [{t: n for n, t in enumerate(ts)} for ts in tables]
    images = []
    for element in group:
        # each party's response tables moved by the element's label map
        to_a, to_b = ([num[_moved(t, image)] for t in ts]
                      for ts, num, image in zip(tables, numbers, map(dict, element)))
        images.append([a * len(to_b) + b for a in to_a for b in to_b])
    class_of = polytope.orbit_classes(polytope.strategy_count(scenario), images)
    members = [[] for _ in range(max(class_of) + 1)]
    for k, strategy in zip(class_of, itertools.product(*tables)):
        members[k].append(strategy)
    folded: dict[tuple, list] = {}
    for e, row in zip(polytope.spanning_entries(scenario), _membership_rows(scenario)):
        folded.setdefault(polytope.fold_row(row, class_of), []).append(e)
    rows = tuple((coeffs, tuple(entries)) for coeffs, entries in folded.items())
    return tuple(map(tuple, members)), rows


def membership_lp(box: Box, canonical=None) -> lp.LinearProgram:
    """Weights over the deterministic strategies, in
    deterministic_strategies order, matching the box on its spanning
    entries: prod_k (X_k(A_k-1)+1) rows, 9 of 16 in 2222, 16 of 36 in 3322.

    That decides a nonsignaling box: the spanning entries fix every
    nonsignaling table, mixtures of strategy boxes included, so weights
    w >= 0 matching the box there reproduce all of it, with total weight
    1 from the entries at input 0.  The rows are built once per scenario
    from `polytope.strategy_columns`, already in LinearProgram's
    canonical form (ascending strategy indices, coefficient 1), and each
    box adds only its table at those entries as the right-hand sides.

    With `canonical`, the box's canonical relabeling (table, alice, bob,
    group) as shareability._canonical_form returns it, the program is
    that of the canonical table folded by its stabilizer: one weight per
    class of strategies (_folded_membership_rows), shared by each of its
    strategies, and one row per distinct folded row and distinct value
    of the table over the entries that share it.  The fold is exact:
    each element of the group maps a model of the table onto another
    one, so averaging over the group gives a model constant on the
    classes."""
    sc = box.scenario
    if canonical is None:
        prog = lp.LinearProgram(polytope.strategy_count(sc))
        rhs = [box.table[k] for k in polytope.spanning_entries(sc)]
        prog.eqs.extend(zip(_membership_rows(sc), rhs))
        return prog
    table, _, _, group = canonical
    members, rows = _folded_membership_rows(sc, group)
    prog = lp.LinearProgram(len(members))
    for coeffs, entries in rows:
        prog.eqs.extend((coeffs, rhs) for rhs in dict.fromkeys(table[e] for e in entries))
    return prog


def local_model(box: Box, canonical=None) -> LocalModel | lp.LpOutcome:
    """The membership LP's answer for a nonsignaling box, refused like
    is_local above STRATEGY_CAP strategies: a LocalModel of the strategies
    of positive weight, checked to reconstruct the whole box, or the
    INFEASIBLE LpOutcome, whose Farkas vector is zero off the spanning
    entries.  Nothing here normalizes: is_m_shareable needs only a model.

    With `canonical` (see membership_lp) the program is folded by the
    canonical table's stabilizer: each class weight is spread over its
    strategies, which are read back into the box's labels before the
    model is checked, and an infeasible outcome carries the folded
    program's Farkas vector."""
    sc = box.scenario
    check_strategy_space(sc)
    out = lp.solve(membership_lp(box, canonical))
    if out.status == lp.OPTIMAL:
        if canonical is None:
            pairs = zip(polytope.deterministic_strategies(sc), out.primal)
        else:
            # each class weight on every strategy of the class, whose
            # response tables are read back into the box's own labels
            back = [{v: k for k, v in to.items()} for to in canonical[1:3]]
            members = _folded_membership_rows(sc, canonical[3])[0]
            pairs = [(DeterministicStrategy(sc, tuple(map(_moved, tables, back))), w)
                     for k, w in enumerate(out.primal) if w for tables in members[k]]
        model = LocalModel(sc, *zip(*((s, w) for s, w in pairs if w)))
        ensure(model.reconstructs(box), "local model does not reconstruct the box")
        return model
    ensure(out.status == lp.INFEASIBLE, f"membership LP ended {out.status}")
    return out


def is_local(box: Box) -> LocalModel | NonlocalityCertificate:
    """Decide local-polytope membership with an explicit witness either
    way: local_model's model, or its Farkas vector normalized into a Bell
    functional that the box violates."""
    sc = box.scenario
    ok, w = is_nonsignaling(box, witness=True)
    if not ok:
        raise SignalingBox(w)
    found = local_model(box)
    if isinstance(found, LocalModel):
        return found
    coefficients = [ZERO] * sc.table_size
    for k, y in zip(polytope.spanning_entries(sc), found.certificate.y_eq):
        coefficients[k] = -y
    functional = normalize(BellFunctional(sc, tuple(coefficients), ZERO))
    violation = functional.evaluate(box)
    ensure(violation > 0, "Bell functional from the Farkas vector is not violated")
    return NonlocalityCertificate(functional, violation)


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

