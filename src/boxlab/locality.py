"""Local-polytope membership, local models, and the secrecy equivalence.

A box is local when it is a convex mixture of deterministic strategies.
Membership is one exact LP over strategy weights; feasibility yields an
explicit LocalModel, infeasibility yields a Farkas vector that, after
normalization, is a Bell functional violated by the box.  Secrecy content
reduces to this decision: a bipartite box contains secrecy exactly when
it is nonlocal, and for local boxes the hidden variable doubles as the
public message an eavesdropper could hold.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from . import lp, polytope
from .bell import BellFunctional, normalize
from .core import (
    BadParams,
    Box,
    BoxlabError,
    Scenario,
    ScenarioMismatch,
    SignalingBox,
    ZERO,
    ONE,
    ensure,
    is_nonsignaling,
)
from .polytope import DeterministicStrategy

DEFAULT_STRATEGY_CAP = 10000
STRATEGY_CAP_ENV = "BOXLAB_STRATEGY_CAP"


class StrategySpaceTooLarge(BoxlabError):
    pass


class ModelMismatch(BoxlabError):
    pass


def strategy_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    text = os.environ.get(STRATEGY_CAP_ENV)
    if text is None:
        return DEFAULT_STRATEGY_CAP
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise BadParams(f"{STRATEGY_CAP_ENV} must be a positive integer, got {text!r}")
    return cap


@dataclass(frozen=True)
class LocalModel:
    """Convex mixture of deterministic strategies reproducing a box."""

    scenario: Scenario
    strategies: tuple[DeterministicStrategy, ...]
    weights: tuple[Fraction, ...]

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


@dataclass(frozen=True)
class NonlocalityCertificate:
    """Normalized Bell functional separating a box from the local polytope:
    at most 0 on every deterministic strategy, strictly positive on the box."""

    functional: BellFunctional
    violation: Fraction


@dataclass(frozen=True)
class SecrecyVerdict:
    contains_secrecy: bool
    local_model: LocalModel | None = None
    certificate: NonlocalityCertificate | None = None


def membership_lp(box: Box, strategies) -> lp.LinearProgram:
    """Weights over deterministic strategies matching every table entry."""
    n = len(strategies)
    size = box.scenario.table_size
    n_out = box.scenario.num_output_tuples
    rows = [[ZERO] * n for _ in range(size)]
    for e, strat in enumerate(strategies):
        for xi, xs in enumerate(box.scenario.input_tuples()):
            outs = tuple(strat.tables[k][xs[k]] for k in range(box.scenario.parties))
            rows[xi * n_out + box.scenario.output_index(outs)][e] = ONE
    prog = lp.LinearProgram(n)
    for i in range(size):
        prog.add_eq(rows[i], box.table[i])
    return prog


def is_local(box: Box, cap: int | None = None) -> LocalModel | NonlocalityCertificate:
    """Decide local-polytope membership with an explicit witness either way."""
    ok, w = is_nonsignaling(box, witness=True)
    if not ok:
        raise SignalingBox(w)
    count = polytope.strategy_count(box.scenario)
    limit = strategy_cap(cap)
    if count > limit:
        raise StrategySpaceTooLarge(
            f"{count} deterministic strategies exceeds cap {limit}"
        )
    strategies = polytope.deterministic_strategies(box.scenario)
    out = lp.solve(membership_lp(box, strategies))
    if out.status == lp.OPTIMAL:
        pairs = [
            (s, w) for s, w in zip(strategies, out.primal) if w
        ]
        model = LocalModel(
            box.scenario,
            tuple(s for s, _ in pairs),
            tuple(w for _, w in pairs),
        )
        ensure(model.reconstructs(box), "local model does not reconstruct the box")
        return model
    ensure(out.status == lp.INFEASIBLE, f"membership LP ended {out.status}")
    raw = BellFunctional(
        box.scenario, tuple(-y for y in out.certificate.y_eq), ZERO
    )
    functional = normalize(raw)
    violation = functional.evaluate(box)
    ensure(violation > 0, "Bell functional from the Farkas vector is not violated")
    return NonlocalityCertificate(functional, violation)


def is_deterministic(box: Box) -> bool:
    """True when every conditional distribution is a point mass."""
    return all(v == 0 or v == 1 for v in box.table)


def deterministic_box_tables(scenario: Scenario):
    """All candidate deterministic tables: one output tuple per input tuple.
    Unlike deterministic strategies these may be signaling."""
    import itertools

    n_out = scenario.num_output_tuples
    for choice in itertools.product(
        range(n_out), repeat=scenario.num_input_tuples
    ):
        table = [ZERO] * scenario.table_size
        for xi, oi in enumerate(choice):
            table[xi * n_out + oi] = ONE
        yield Box(scenario, tuple(table))


def eve_extension(box: Box, model: LocalModel) -> Box:
    """Adjoin an eavesdropper who outputs the hidden variable.

    Eve has a single trivial input; her output is the index of the model
    strategy that fired.  Conditioned on her output the remaining box is
    the corresponding deterministic product, so the extension satisfies
    the no-secrecy condition by construction and stays nonsignaling.
    """
    if model.scenario != box.scenario:
        raise ModelMismatch("model and box scenarios differ")
    if not model.reconstructs(box):
        raise ModelMismatch("model does not reproduce the box")
    pairs = [(s, w) for s, w in zip(model.strategies, model.weights) if w]
    sc = box.scenario
    ext = Scenario(sc.inputs + (1,), sc.outputs + (len(pairs),))
    table = []
    for xs in ext.input_tuples():
        for outs in ext.output_tuples():
            strat, w = pairs[outs[-1]]
            expected = tuple(
                strat.tables[k][xs[k]] for k in range(sc.parties)
            )
            table.append(w if outs[:-1] == expected else ZERO)
    return Box(ext, tuple(table))


def lopc_distribution(box: Box, model: LocalModel) -> dict:
    """Joint no-input distribution over ((a,x), (b,y), e) with uniform
    inputs; the classical object an LOPC protocol would distribute."""
    if box.scenario.parties != 2:
        raise ScenarioMismatch("LOPC materialization is defined for two parties")
    if not model.reconstructs(box):
        raise ModelMismatch("model does not reproduce the box")
    X, Y = box.scenario.inputs
    pairs = [(s, w) for s, w in zip(model.strategies, model.weights) if w]
    dist = {}
    inv_inputs = Fraction(1, X * Y)
    for e, (strat, w) in enumerate(pairs):
        for x in range(X):
            for y in range(Y):
                a = strat.tables[0][x]
                b = strat.tables[1][y]
                key = ((a, x), (b, y), e)
                dist[key] = dist.get(key, ZERO) + w * inv_inputs
    return dist


def secrecy_content(box: Box, cap: int | None = None) -> SecrecyVerdict:
    """Result: a bipartite box contains secrecy iff it is nonlocal.

    Local: the returned model is the eavesdropper's strategy (she learns
    the hidden variable, which renders the conditional box a product).
    Nonlocal: the Bell certificate witnesses that every nonsignaling
    extension leaves Eve short of the conditional-product condition.
    """
    if box.scenario.parties != 2:
        raise ScenarioMismatch("secrecy content is defined for bipartite boxes")
    verdict = is_local(box, cap)
    if isinstance(verdict, LocalModel):
        return SecrecyVerdict(False, local_model=verdict)
    return SecrecyVerdict(True, certificate=verdict)
