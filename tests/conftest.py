import random
from fractions import Fraction

import pytest

from boxlab import bell, lp, shareability
from boxlab.core import Box, Scenario, mix, relabel, uniform_box
from oracles import party_relabelings, verify_certificate_fractions


@pytest.fixture(scope="session")
def ns_vertices():
    return bell.ns_vertices_2222()


@pytest.fixture
def both_verifiers(monkeypatch):
    """Route every lp.verify_certificate call, including the re-check
    inside lp.solve, through the integer check and the Fraction oracle,
    failing the test when they disagree.  Yields the list of verdicts
    compared so far."""
    compared = []
    integer_check = lp.verify_certificate

    def checked(prog, outcome):
        got = integer_check(prog, outcome)
        expected = verify_certificate_fractions(prog, outcome)
        if got != expected:
            raise AssertionError(f"integer check says {got}, Fraction oracle {expected}: {outcome}")
        compared.append(got)
        return got

    monkeypatch.setattr(lp, "verify_certificate", checked)
    yield compared


def tensor(box1: Box, box2: Box) -> Box:
    """Product box on the concatenated scenario (box1's parties first)."""
    s1, s2 = box1.scenario, box2.scenario
    sc = Scenario(s1.inputs + s2.inputs, s1.outputs + s2.outputs)
    n1 = s1.parties
    table = []
    for xs in sc.input_tuples():
        for outs in sc.output_tuples():
            table.append(box1.prob(outs[:n1], xs[:n1]) * box2.prob(outs[n1:], xs[n1:]))
    return Box(sc, tuple(table))


def identity_relabeling(scenario: Scenario):
    """The trivial (do-nothing) relabeling arguments for relabel()."""
    in_perms = [tuple(range(x)) for x in scenario.inputs]
    out_perms = [[tuple(range(a))] * x for x, a in zip(scenario.inputs, scenario.outputs)]
    return in_perms, out_perms


def is_deterministic(box: Box) -> bool:
    """True when every conditional distribution is a point mass."""
    return all(v == 0 or v == 1 for v in box.table)


def random_ns_box(rng: random.Random, vertices, nonlocal_bias=0, interior=False):
    """Rational mixture of the 24 vertices.

    nonlocal_bias is a rough percentage of mass piled on one PR-type
    vertex (high values make the box reliably nonlocal); interior keeps
    every vertex weight positive."""
    low = 1 if interior else 0
    weights = [rng.randrange(low, 8) for _ in vertices]
    if nonlocal_bias:
        others = sum(weights)
        target = max(1, others * nonlocal_bias // max(1, 100 - nonlocal_bias))
        weights[16 + rng.randrange(8)] += target + rng.randrange(target + 1)
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(len(weights))] = 1
        total = 1
    return mix(list(vertices), [Fraction(w, total) for w in weights])


def random_local_box(rng: random.Random, vertices):
    """Mixture of deterministic vertices only."""
    weights = [rng.randrange(0, 8) for _ in range(16)] + [0] * 8
    total = sum(weights)
    if total == 0:
        weights[rng.randrange(16)] = 1
        total = 1
    return mix(list(vertices), [Fraction(w, total) for w in weights])


def asymmetric_giso(c):
    """Isotropic-like 2222 box that swapping A and B changes: C times the
    PR box plus (1 - C) times biased noise on Alice and uniform noise on
    Bob."""
    one = Scenario((2,), (2,))
    alice = Box(one, (Fraction(3, 4), Fraction(1, 4)) * 2)
    return mix([bell.pr_box(), tensor(alice, uniform_box(one))], [c, 1 - c])


def orbit_lp(base: Box, shared_party: str, m: int) -> lp.LinearProgram:
    """The orbit LP with no stabilizer fold, as it stood before one: every
    row of shareability._orbit_rows, a copy-marginal row at every base
    entry, with the base box's own table as their right-hand sides."""
    index, normalization, marginals, traces = shareability._orbit_rows(base.scenario, shared_party, m)
    prog = lp.LinearProgram(len(index))
    prog.eqs.extend([*normalization, *zip(marginals, base.table), *traces])
    return prog


def relabelings_2222():
    """All 64 local reversible relabelings of the 2222 scenario, as
    (input_perms, output_perms) argument pairs for core.relabel.  Every
    permutation of two outputs is its own inverse, so sigma serves as the
    output permutation table directly."""
    per_party = list(party_relabelings(2, 2))
    return [
        ([pi_a, pi_b], [list(sigma_a), list(sigma_b)])
        for pi_a, sigma_a in per_party
        for pi_b, sigma_b in per_party
    ]


def canonical_2222(box):
    """Deterministic canonical form with C00, C01, C10 >= 0.

    Exhausts the 64 local relabelings and returns the lexicographically
    smallest table among those in the required sign pattern.
    """
    best = None
    for in_perms, out_perms in relabelings_2222():
        cand = relabel(box, in_perms, out_perms)
        c00, c01, c10, _ = bell.correlators(cand)
        if c00 >= 0 and c01 >= 0 and c10 >= 0:
            if best is None or cand.table < best.table:
                best = cand
    assert best is not None, "no relabeling reaches the canonical sign pattern"
    return best
