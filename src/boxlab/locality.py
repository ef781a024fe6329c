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


def membership_lp(box: Box) -> lp.LinearProgram:
    """Weights over the deterministic strategies, in
    deterministic_strategies order, matching the box on its spanning
    entries: prod_k (X_k(A_k-1)+1) rows, 9 of 16 in 2222, 16 of 36 in 3322.

    That decides a nonsignaling box: the spanning entries fix every
    nonsignaling table, mixtures of strategy boxes included, so weights
    w >= 0 matching the box there reproduce all of it, with total weight
    1 from the entries at input 0.  The rows are built once per scenario
    from `polytope.strategy_columns`, already in LinearProgram's
    canonical form (ascending strategy indices, coefficient 1), and each
    box adds only its table at those entries as the right-hand sides."""
    sc = box.scenario
    prog = lp.LinearProgram(polytope.strategy_count(sc))
    rhs = [box.table[k] for k in polytope.spanning_entries(sc)]
    prog.eqs.extend(zip(_membership_rows(sc), rhs))
    return prog


def local_model(box: Box) -> LocalModel | lp.LpOutcome:
    """The membership LP's answer for a nonsignaling box, refused like
    is_local above STRATEGY_CAP strategies: a LocalModel of the strategies
    of positive weight, checked to reconstruct the whole box, or the
    INFEASIBLE LpOutcome, whose Farkas vector is zero off the spanning
    entries.  Nothing here normalizes: is_m_shareable needs only a model."""
    sc = box.scenario
    check_strategy_space(sc)
    out = lp.solve(membership_lp(box))
    if out.status == lp.OPTIMAL:
        strategies = polytope.deterministic_strategies(sc)
        pairs = [(s, w) for s, w in zip(strategies, out.primal) if w]
        model = LocalModel(sc, *zip(*pairs))
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

