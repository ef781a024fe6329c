import math
import random
from fractions import Fraction as F

import pytest

from boxlab import bell, lp
from boxlab.bell import chsh, pr_box
from boxlab.core import (
    Box,
    Scenario,
    ScenarioMismatch,
    ZERO,
    box_from_function,
    is_nonsignaling,
    mix,
    permute_parties,
)
from boxlab.incompat import (
    BadPair,
    EntropyBoundReport,
    ObservablePair,
    OutOfScope,
    binary_entropy,
    entropy_bound,
    entropy_bound_check,
    incompatibility,
    incompatibility_lp_for,
    output_entropy,
    restrict_to_pair,
)
from boxlab.isotropic import make_isotropic, shrink
from boxlab.polytope import deterministic_strategies, ns_equality_rows
from conftest import canonical_2222, random_ns_box
from boxlab.shareability import generalized_isotropic
from oracles import compatibility_lp, incompatibility_slice_rows_walk, output_entropy_walk, prob, uniform_box
from test_core import seeded_ns_box

# every certificate these tests produce is checked by both verifiers
pytestmark = pytest.mark.usefixtures("both_verifiers")

SC22 = Scenario((2, 2), (2, 2))
PAIR = ObservablePair("B", 0, 1)


def oracle_compatible(box, pair) -> bool:
    """Whether the oracle's joint-table LP is feasible for the pair."""
    return lp.solve(compatibility_lp(restrict_to_pair(box, pair))).status == lp.OPTIMAL


def assert_joint_witness(box, pair):
    """The pair is compatible, and the incompatibility LP's joint_witness
    is a nonsignaling joint table with the two slices as marginals."""
    r = incompatibility(box, pair)
    assert r.eta == 0
    restricted = restrict_to_pair(box, pair)
    X = restricted.scenario.inputs[0]
    A, B = restricted.scenario.outputs
    joint = Box(Scenario((X, 1, 1), (A, B, B)), r.joint_witness)
    assert is_nonsignaling(joint)
    for x in range(X):
        for a in range(A):
            for b in range(B):
                s0 = sum((prob(joint, (a, b, o), (x, 0, 0)) for o in range(B)), ZERO)
                s1 = sum((prob(joint, (a, o, b), (x, 0, 0)) for o in range(B)), ZERO)
                assert s0 == prob(restricted, (a, b), (x, 0))
                assert s1 == prob(restricted, (a, b), (x, 1))


def seeded_boxes():
    """Seeded nonsignaling boxes of several bipartite scenarios, and
    generalized isotropic A=3 at 1/3 and 7/10."""
    rng = random.Random(2707)
    scenarios = [SC22, Scenario((3, 3), (2, 2)), Scenario((2, 3), (3, 2)), Scenario((3, 2), (2, 3))]
    return [seeded_ns_box(rng, sc) for sc in scenarios for _ in range(3)] + [
        generalized_isotropic(3, F(1, 3)), generalized_isotropic(3, F(7, 10))]


@pytest.mark.parametrize("party", ["A", "B"])
def test_slice_rows_match_the_walk(party):
    # the rows tying the joint table and S to the restricted box come first
    for box in seeded_boxes():
        restricted = restrict_to_pair(box, ObservablePair(party, 1, 0))
        prog = incompatibility_lp_for(restricted)
        want = lp.LinearProgram(prog.num_vars)
        for row, rhs in incompatibility_slice_rows_walk(restricted):
            want.add_eq(row, rhs)
        assert prog.eqs[:len(want.eqs)] == want.eqs


class TestIsCompatible:
    """A pair is compatible exactly when its incompatibility is 0; the
    incompatibility LP's joint_witness is then the joint table."""

    def test_pr_incompatible(self):
        assert incompatibility(pr_box(), PAIR).eta == 1
        # no joint table exists, and the oracle LP has a Farkas certificate
        out = lp.solve(compatibility_lp(restrict_to_pair(pr_box(), PAIR)))
        assert out.status == lp.INFEASIBLE
        assert out.certificate.kind == "farkas"

    def test_deterministic_observable_compatible_with_all(self):
        # b0 is a point mass: P(b|y=0) = delta(b=1), b1 unbiased
        box = box_from_function(
            SC22,
            lambda outs, xs: (F(1, 2) if outs[1] == 1 else 0)
            if xs[1] == 0
            else F(1, 4),
        )
        assert is_nonsignaling(box)
        assert_joint_witness(box, PAIR)

    def test_product_box_compatible(self):
        assert_joint_witness(uniform_box(SC22), PAIR)

    def test_alice_side_pair(self):
        pair_a = ObservablePair("A", 0, 1)
        assert incompatibility(pr_box(), pair_a).eta == 1
        assert_joint_witness(uniform_box(SC22), pair_a)

    def test_bad_pair(self):
        with pytest.raises(BadPair):
            ObservablePair("B", 1, 1)
        with pytest.raises(BadPair):
            incompatibility(pr_box(), ObservablePair("B", 0, 5))

    @pytest.mark.parametrize(
        "y0, y1", [(0, True), (False, 1), (0, 1.0), (0.0, 1), ("0", 1), (0, None)], ids=repr
    )
    def test_inputs_must_be_ints(self, y0, y1):
        # no bool taken as 0 or 1, no float or string slicing a table
        with pytest.raises(BadPair, match="must be ints"):
            ObservablePair("B", y0, y1)


class TestIncompatibility:
    def test_pr_is_one(self):
        assert incompatibility(pr_box(), PAIR).eta == 1

    def test_isotropic_half_is_zero(self):
        assert incompatibility(make_isotropic(F(1, 2)), PAIR).eta == 0

    def test_isotropic_line(self):
        for c in (F(0), F(1, 2), F(5, 8), F(9, 10)):
            assert incompatibility(make_isotropic(c), PAIR).eta == max(
                ZERO, 2 * c - 1
            )

    def test_matches_canonical_chsh_on_vertices(self, ns_vertices):
        # incompatibility is invariant under relabeling, so the identity
        # holds against CHSH of the canonically oriented box
        for v in ns_vertices:
            want = max(ZERO, chsh(canonical_2222(v)))
            assert incompatibility(v, PAIR).eta == want

    def test_matches_chsh_on_random_canonical_boxes(self, ns_vertices):
        rng = random.Random(71)
        for i in range(25):
            box = canonical_2222(
                random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 2) * 65)
            )
            assert incompatibility(box, PAIR).eta == max(ZERO, chsh(box))

    def test_zero_iff_compatible(self, ns_vertices):
        rng = random.Random(72)
        for i in range(12):
            box = random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 2) * 65)
            assert (incompatibility(box, PAIR).eta == 0) == oracle_compatible(box, PAIR)

    def test_decomposition_reconstructs(self, ns_vertices):
        rng = random.Random(73)
        box = random_ns_box(rng, ns_vertices, nonlocal_bias=65)
        r = incompatibility(box, PAIR)
        restricted = restrict_to_pair(box, PAIR)
        for i in range(restricted.scenario.table_size):
            assert r.incompatible_part[i] + r.compatible_part[i] == restricted.table[i]
        # the incompatible part stays in the nonsignaling cone
        for coeffs, _ in ns_equality_rows(restricted.scenario):
            assert (
                sum((c * r.incompatible_part[i] for i, c in coeffs), ZERO)
                == 0
            )
        assert 0 < r.eta < 1
        # normalized, the incompatible part is a nonsignaling box and the
        # compatible part a box whose pair is compatible
        incompatible = Box(r.scenario, tuple(v / r.eta for v in r.incompatible_part))
        compatible = Box(r.scenario, tuple(v / (1 - r.eta) for v in r.compatible_part))
        assert is_nonsignaling(incompatible)
        assert oracle_compatible(compatible, PAIR)
        # and the result carries the outcome that proves eta
        assert r.outcome.status == lp.OPTIMAL and -r.outcome.value == r.eta
        assert lp.verify_certificate(incompatibility_lp_for(restricted), r.outcome)

    def test_monotone_under_shrink(self):
        for c in (F(3, 4), F(1)):
            box = make_isotropic(c)
            base = incompatibility(box, PAIR).eta
            for eps in (F(1, 4), F(1, 2)):
                assert incompatibility(shrink(box, eps), PAIR).eta <= base


class TestOutputEntropy:
    def test_pr_bob_is_one_bit(self):
        assert output_entropy(pr_box(), 1, 0) == 1.0

    def test_deterministic_zero(self):
        det = deterministic_strategies(SC22)[0].box()
        assert output_entropy(det, 1, 0) == 0.0
        assert output_entropy(det, 0, 1) == 0.0

    def test_three_quarters_distribution(self):
        # single-party marginal (3/4, 1/4) through a product box
        box = box_from_function(
            SC22, lambda outs, xs: (F(3, 4) if outs[1] == 0 else F(1, 4)) * F(1, 2)
        )
        expect = binary_entropy(0.25)
        assert abs(output_entropy(box, 1, 0) - expect) < 1e-15
        assert abs(expect - 0.8112781244591328) < 1e-12


    def test_matches_the_walk(self):
        for box in seeded_boxes():
            for party in (0, 1):
                for x in range(box.scenario.inputs[party]):
                    assert output_entropy(box, party, x) == output_entropy_walk(box, party, x)

    @pytest.mark.parametrize("x", [2, -1, True, 0.0], ids=repr)
    def test_input_out_of_range(self, x):
        with pytest.raises(ScenarioMismatch, match="out of range"):
            output_entropy(pr_box(), 1, x)


class TestEntropyBounds:
    def test_pr_bound_tight_at_one(self):
        report = entropy_bound_check(pr_box(), PAIR)
        assert report.inc == 1
        assert report.bound == 1.0
        assert report.entropy_y0 == report.entropy_y1 == 1.0
        assert report.holds

    def test_isotropic_strictly_above(self):
        report = entropy_bound_check(make_isotropic(F(3, 4)), PAIR)
        assert report.inc == F(1, 2)
        assert report.entropy_y0 == 1.0 > report.bound
        assert report.holds

    def test_tightness_construction(self):
        # deterministic compatible part mixed with the PR box: the output
        # distribution hits h(inc/2) exactly
        det00 = deterministic_strategies(SC22)[0].box()
        for eta in (F(1, 3), F(1, 2), F(4, 5)):
            box = mix([pr_box(), det00], [eta, 1 - eta])
            report = entropy_bound_check(box, PAIR)
            assert report.inc == eta
            assert abs(report.entropy_y0 - report.bound) < 1e-12
            assert abs(report.entropy_y1 - report.bound) < 1e-12
            assert report.holds

    def test_out_of_scope(self):
        box = uniform_box(Scenario((3, 3), (3, 3)))
        with pytest.raises(OutOfScope):
            entropy_bound_check(box, ObservablePair("B", 0, 1))
        with pytest.raises(OutOfScope):
            entropy_bound(box, ObservablePair("B", 0, 1), F(0))

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_bound_from_a_given_inc(self, party):
        # the check is the bound at the computed inc; a larger inc can break it
        pair = ObservablePair(party, 0, 1)
        box = make_isotropic(F(3, 4))
        result = incompatibility(box, pair)
        assert entropy_bound(box, pair, result.eta, result.outcome) == entropy_bound_check(box, pair)
        # an inc certified elsewhere comes without an outcome
        assert entropy_bound(box, pair, result.eta).outcome is None
        det00 = deterministic_strategies(SC22)[0].box()
        tight = mix([pr_box(), det00], [F(1, 2), F(1, 2)])
        assert entropy_bound(tight, pair, F(1, 2)).holds
        assert not entropy_bound(tight, pair, F(3, 4)).holds

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_report_carries_the_outcome_that_proves_inc(self, party):
        pair = ObservablePair(party, 0, 1)
        for box in (pr_box(), make_isotropic(F(3, 4)), uniform_box(SC22)):
            report = entropy_bound_check(box, pair)
            assert report.outcome.status == lp.OPTIMAL and -report.outcome.value == report.inc
            prog = incompatibility_lp_for(restrict_to_pair(box, pair))
            assert lp.verify_certificate(prog, report.outcome)

    def test_binary_inputs_larger_outputs_in_scope(self, ns_vertices):
        from boxlab.shareability import generalized_isotropic

        box = generalized_isotropic(3, F(2, 3))
        report = entropy_bound_check(box, PAIR)
        assert report.holds

    def test_random_boxes_bound_holds(self, ns_vertices):
        rng = random.Random(74)
        for i in range(15):
            box = random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 3) * 35)
            assert entropy_bound_check(box, PAIR).holds
