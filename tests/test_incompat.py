import math
import random
from fractions import Fraction as F

import pytest

from boxlab import bell
from boxlab.bell import chsh, pr_box
from boxlab.core import (
    Scenario,
    ZERO,
    box_from_function,
    is_nonsignaling,
    mix,
    permute_parties,
    uniform_box,
)
from boxlab.incompat import (
    BadPair,
    CompatibilityWitness,
    EntropyBoundReport,
    ObservablePair,
    OutOfScope,
    binary_entropy,
    entropy_bound,
    entropy_bound_check,
    incompatibility,
    is_compatible,
    output_entropy,
    restrict_to_pair,
)
from boxlab.isotropic import make_isotropic, shrink
from boxlab.polytope import deterministic_strategies, ns_equality_rows
from conftest import canonical_2222, random_ns_box

# every certificate these tests produce is checked by both verifiers
pytestmark = pytest.mark.usefixtures("both_verifiers")

SC22 = Scenario((2, 2), (2, 2))
PAIR = ObservablePair("B", 0, 1)


class TestIsCompatible:
    def test_pr_incompatible(self):
        witness = is_compatible(pr_box(), PAIR)
        assert not witness.compatible
        assert witness.certificate is not None

    def test_deterministic_observable_compatible_with_all(self):
        # b0 is a point mass: P(b|y=0) = delta(b=1), b1 unbiased
        box = box_from_function(
            SC22,
            lambda outs, xs: (F(1, 2) if outs[1] == 1 else 0)
            if xs[1] == 0
            else F(1, 4),
        )
        assert is_nonsignaling(box)
        witness = is_compatible(box, PAIR)
        assert witness.compatible
        # the witness joint really has the two slices as marginals
        joint = witness.joint
        restricted = restrict_to_pair(box, PAIR)
        for x in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    s0 = sum(
                        (joint.prob((a, b, o), (x, 0, 0)) for o in (0, 1)), ZERO
                    )
                    s1 = sum(
                        (joint.prob((a, o, b), (x, 0, 0)) for o in (0, 1)), ZERO
                    )
                    assert s0 == restricted.prob((a, b), (x, 0))
                    assert s1 == restricted.prob((a, b), (x, 1))

    def test_product_box_compatible(self):
        assert is_compatible(uniform_box(SC22), PAIR).compatible

    def test_alice_side_pair(self):
        pair_a = ObservablePair("A", 0, 1)
        assert not is_compatible(pr_box(), pair_a).compatible
        assert is_compatible(uniform_box(SC22), pair_a).compatible

    def test_bad_pair(self):
        with pytest.raises(BadPair):
            ObservablePair("B", 1, 1)
        with pytest.raises(BadPair):
            is_compatible(pr_box(), ObservablePair("B", 0, 5))


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
            r = incompatibility(box, PAIR)
            w = is_compatible(box, PAIR)
            assert (r.eta == 0) == w.compatible

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
        if 0 < r.eta < 1:
            assert is_nonsignaling(r.incompatible_box())
            assert is_compatible(r.compatible_box(), PAIR).compatible

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
        inc = incompatibility(box, pair).eta
        assert entropy_bound(box, pair, inc) == entropy_bound_check(box, pair)
        det00 = deterministic_strategies(SC22)[0].box()
        tight = mix([pr_box(), det00], [F(1, 2), F(1, 2)])
        assert entropy_bound(tight, pair, F(1, 2)).holds
        assert not entropy_bound(tight, pair, F(3, 4)).holds

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
