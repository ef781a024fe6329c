import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from boxlab import bell
from boxlab.bell import chsh, correlators, pr_box
from boxlab.core import BadParams as BadParam
from boxlab.core import (
    Scenario,
    ScenarioMismatch,
    box_from_function,
    is_nonsignaling,
    marginal,
    mix,
    permute_parties,
)
from boxlab.isotropic import (
    NotIsotropic,
    depolarize,
    is_isotropic,
    isotropic_parameter,
    make_isotropic,
    shrink,
)
from boxlab.locality import LocalModel, is_local
from conftest import random_ns_box
from oracles import depolarize_walk, shrink_walk, uniform_box
from test_core import seeded_signaling_box

SC22 = Scenario((2, 2), (2, 2))


def biased_bob_box():
    """A nonsignaling 2222 box with the correlators of make_isotropic(1/2),
    (1/2, 1/2, 1/2, -1/2), whose Bob outputs 0 with probability 3/5:
    P(ab|xy) = (1 + (-1)^b / 5 + (-1)^(a+b) C_xy) / 4."""
    corr = {(0, 0): F(1, 2), (0, 1): F(1, 2), (1, 0): F(1, 2), (1, 1): F(-1, 2)}
    return box_from_function(SC22, lambda outs, xs: (1 + F((-1) ** outs[1], 5) + (-1) ** sum(outs) * corr[xs]) / 4)


def in_family_by_moments(box) -> bool:
    """Isotropic membership from the moments that fix a nonsignaling 2222
    box: both parties' marginals unbiased at each input, and correlators
    (C, C, C, -C) with C >= 0."""
    unbiased = all(v == F(1, 2) for party in (0, 1) for v in marginal(box, (party,)).table)
    c00, c01, c10, c11 = correlators(box)
    return unbiased and c00 == c01 == c10 == -c11 and c00 >= 0


class TestMakeIsotropic:
    def test_c_one_is_pr(self):
        assert make_isotropic(1) == pr_box()

    def test_c_zero_is_noise(self):
        assert make_isotropic(0) == uniform_box(SC22)

    def test_chsh_line(self):
        assert chsh(make_isotropic(F(3, 4))) == F(1, 2)

    def test_unbiased_marginals(self):
        box = make_isotropic(F(2, 5))
        for party in (0, 1):
            assert all(v == F(1, 2) for v in marginal(box, (party,)).table)

    def test_bad_param(self):
        with pytest.raises(BadParam):
            make_isotropic(F(5, 4))
        with pytest.raises(BadParam):
            make_isotropic(F(-1, 10))

    def test_parameter_extraction(self):
        assert isotropic_parameter(make_isotropic(F(2, 7))) == F(2, 7)
        with pytest.raises(NotIsotropic):
            isotropic_parameter(
                mix([pr_box(), bell.ns_vertices_2222()[3]], [F(1, 2), F(1, 2)])
            )


class TestMembership:
    def test_biased_bob_marginal_is_not_isotropic(self):
        box = biased_bob_box()
        assert is_nonsignaling(box)
        assert correlators(box) == correlators(make_isotropic(F(1, 2)))
        assert marginal(box, (1,)).table == (F(3, 5), F(2, 5)) * 2
        assert not is_isotropic(box)
        with pytest.raises(NotIsotropic):
            isotropic_parameter(box)
        with pytest.raises(NotIsotropic):
            shrink(box, F(1, 2))

    def test_biased_alice_marginal_is_not_isotropic(self):
        assert not is_isotropic(permute_parties(biased_bob_box(), (1, 0)))

    def test_below_the_noise_is_not_isotropic(self):
        # on the line at C = -2/3, two thirds of the anti-PR box a + b = xy + 1
        box = depolarize(mix([uniform_box(SC22), bell.ns_vertices_2222()[17]], [F(1, 3), F(2, 3)]))
        assert correlators(box) == (F(-2, 3),) * 3 + (F(2, 3),)
        assert not is_isotropic(box)

    def test_agrees_with_the_moments(self, ns_vertices):
        rng = random.Random(53)
        boxes = [biased_bob_box(), *(make_isotropic(F(c, 7)) for c in range(8))]
        for _ in range(30):
            box = random_ns_box(rng, ns_vertices)
            boxes += [box, depolarize(box)]
        for box in boxes:
            assert is_isotropic(box) == in_family_by_moments(box)


class TestDepolarize:
    def test_pr_fixed_point(self):
        assert depolarize(pr_box()) == pr_box()

    def test_isotropic_fixed_points(self):
        for c in (F(0), F(1, 3), F(4, 5)):
            assert depolarize(make_isotropic(c)) == make_isotropic(c)

    def test_deterministic_box_lands_on_line_keeping_chsh(self):
        det = bell.ns_vertices_2222()[0]  # a = 0, b = 0
        out = depolarize(det)
        assert chsh(out) == chsh(det) == 0
        assert is_isotropic(out)
        assert out == make_isotropic(F(1, 2))

    def test_chsh_invariance_all_vertices(self, ns_vertices):
        for v in ns_vertices:
            out = depolarize(v)
            assert chsh(out) == chsh(v)
            c00, c01, c10, c11 = correlators(out)
            assert c00 == c01 == c10 == -c11

    def test_random_boxes_unbiased_marginals(self, ns_vertices):
        rng = random.Random(51)
        for _ in range(20):
            box = random_ns_box(rng, ns_vertices)
            out = depolarize(box)
            for party in (0, 1):
                assert all(v == F(1, 2) for v in marginal(out, (party,)).table)

    def test_matches_the_eight_relabelings(self, ns_vertices):
        # the correlator formula against the local operations it stands
        # for, on the vertices, seeded NS boxes and seeded signaling tables
        rng = random.Random(55)
        boxes = [*ns_vertices, *(random_ns_box(rng, ns_vertices) for _ in range(40))]
        signaling = [seeded_signaling_box(rng, SC22) for _ in range(40)]
        assert sum(not is_nonsignaling(box) for box in signaling) >= 20
        for box in boxes + signaling:
            assert depolarize(box) == depolarize_walk(box)

    def test_idempotent(self, ns_vertices):
        rng = random.Random(52)
        for _ in range(10):
            out = depolarize(random_ns_box(rng, ns_vertices))
            assert depolarize(out) == out

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            depolarize(uniform_box(Scenario((2, 2), (3, 3))))


class TestShrink:
    def test_pr_to_half(self):
        assert shrink(make_isotropic(1), F(1, 2)) == make_isotropic(F(1, 2))

    def test_zero_noise_identity(self):
        box = make_isotropic(F(2, 3))
        assert shrink(box, 0) == box

    def test_chsh_after_shrink(self):
        c, eps = F(4, 5), F(1, 4)
        assert chsh(shrink(make_isotropic(c), eps)) == 2 * (1 - eps) * c - 1

    def test_composition_law(self):
        box = make_isotropic(F(7, 9))
        e1, e2 = F(1, 3), F(1, 5)
        lhs = shrink(shrink(box, e1), e2)
        rhs = shrink(box, 1 - (1 - e1) * (1 - e2))
        assert lhs == rhs

    def test_rejects_non_isotropic(self):
        with pytest.raises(NotIsotropic):
            shrink(bell.ns_vertices_2222()[5], F(1, 2))

    def test_matches_the_walk(self):
        rng = random.Random(54)
        for _ in range(20):
            box, eps = make_isotropic(F(rng.randint(0, 12), 12)), F(rng.randint(0, 9), 9)
            assert shrink(box, eps) == shrink_walk(box, eps)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(BadParam):
            shrink(make_isotropic(F(1, 2)), F(3, 2))


class TestLocalityThreshold:
    def test_local_iff_c_at_most_half(self):
        for c, expect_local in [
            (F(0), True),
            (F(1, 2), True),
            (F(51, 100), False),
            (F(3, 4), False),
            (F(1), False),
        ]:
            result = is_local(make_isotropic(c))
            assert isinstance(result, LocalModel) == expect_local

    def test_threshold_by_bisection(self):
        lo, hi = F(0), F(1)  # local, nonlocal
        for _ in range(8):
            mid = (lo + hi) / 2
            if isinstance(is_local(make_isotropic(mid)), LocalModel):
                lo = mid
            else:
                hi = mid
        assert lo <= F(1, 2) <= hi
        assert hi - lo <= F(1, 256)


@settings(max_examples=20, deadline=None)
@given(c=st.integers(0, 20), e1=st.integers(0, 10), e2=st.integers(0, 10))
def test_shrink_parameter_algebra(c, e1, e2):
    box = make_isotropic(F(c, 20))
    eps1, eps2 = F(e1, 10), F(e2, 10)
    out = shrink(shrink(box, eps1), eps2)
    assert isotropic_parameter(out) == (1 - eps1) * (1 - eps2) * F(c, 20)
