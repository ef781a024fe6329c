import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from boxlab import bell
from boxlab.core import (
    BadPermutation,
    Box,
    NegativeEntry,
    NormalizationFailure,
    PartySubset,
    Scenario,
    ScenarioMismatch,
    SignalingBox,
    WeightError,
    ZeroProbabilityCondition,
    box_from_function,
    condition,
    identity_relabeling,
    is_nonsignaling,
    marginal,
    mix,
    permute_parties,
    rat,
    relabel,
    tensor,
    uniform_box,
    validate_box,
)

SC22 = Scenario((2, 2), (2, 2))


def product_box(pa, pb):
    """P(a|x) P(b|y) from per-input single-party distributions."""
    sc = Scenario((len(pa), len(pb)), (len(pa[0]), len(pb[0])))
    return box_from_function(sc, lambda outs, xs: pa[xs[0]][outs[0]] * pb[xs[1]][outs[1]])


class TestValidation:
    def test_pr_box_is_valid(self):
        pr = bell.pr_box()
        assert pr.prob((0, 0), (0, 0)) == F(1, 2)
        assert pr.prob((0, 1), (1, 1)) == F(1, 2)
        assert pr.prob((0, 0), (1, 1)) == 0

    def test_uniform_box_valid(self):
        sc = Scenario((2, 3), (2, 4))
        box = uniform_box(sc)
        assert all(v == F(1, 8) for v in box.table)

    def test_negative_entry_rejected(self):
        table = [F(1, 2), F(0), F(0), F(1, 2)] * 4
        table[5] = F(-1, 4)
        table[4] = F(5, 4)
        with pytest.raises(NegativeEntry):
            validate_box(table, SC22)

    def test_normalization_failure(self):
        table = [F(1, 2)] * 16
        with pytest.raises(NormalizationFailure) as err:
            validate_box(table, SC22)
        assert err.value.total == 2

    def test_wrong_size_rejected(self):
        with pytest.raises(ScenarioMismatch):
            validate_box([F(1)] * 5, SC22)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)
        assert rat("0.5") == F(1, 2)
        assert rat("3/4") == F(3, 4)

    @pytest.mark.parametrize("token", ["1e10000000", "2E-3", "1/1e9"])
    def test_exponent_notation_rejected(self, token):
        with pytest.raises(ValueError):
            rat(token)


class TestNonsignaling:
    def test_pr_box(self):
        assert is_nonsignaling(bell.pr_box())

    def test_output_copies_input_is_signaling(self):
        # Bob reports b = x: Alice's input shows up in Bob's marginal
        box = box_from_function(
            SC22, lambda outs, xs: 1 if outs == (0, xs[0]) else 0
        )
        ok, witness = is_nonsignaling(box, witness=True)
        assert not ok
        assert witness[0] == 0  # tracing out Alice's output exposes x

    def test_product_box(self):
        pa = [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]
        pb = [[F(1, 4), F(3, 4)], [F(1), F(0)]]
        assert is_nonsignaling(product_box(pa, pb))


class TestMarginal:
    def test_pr_marginals_uniform(self):
        for party in (0, 1):
            m = marginal(bell.pr_box(), (party,))
            assert all(v == F(1, 2) for v in m.table)

    def test_product_box_marginal_is_factor(self):
        pa = [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]
        pb = [[F(1, 4), F(3, 4)], [F(0), F(1)]]
        box = product_box(pa, pb)
        mb = marginal(box, (1,))
        assert [mb.prob((b,), (y,)) for y in (0, 1) for b in (0, 1)] == [
            F(1, 4),
            F(3, 4),
            F(0),
            F(1),
        ]

    def test_marginal_of_signaling_box_raises(self):
        box = box_from_function(
            SC22, lambda outs, xs: 1 if outs == (0, xs[0]) else 0
        )
        with pytest.raises(SignalingBox):
            marginal(box, (0,))

    def test_party_subset_validation(self):
        with pytest.raises(ScenarioMismatch):
            PartySubset((1, 1))
        with pytest.raises(ScenarioMismatch):
            PartySubset(())


class TestCondition:
    def test_pr_conditioned_pins_bob(self):
        got = condition(bell.pr_box(), 0, 0, 0)
        # b = 0 surely for both y
        assert got.table == (F(1), F(0), F(1), F(0))

    def test_product_box_conditioning_leaves_factor(self):
        pa = [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]]
        pb = [[F(1, 3), F(2, 3)], [F(3, 5), F(2, 5)]]
        box = product_box(pa, pb)
        got = condition(box, 0, 1, 0)
        assert [got.prob((b,), (y,)) for y in (0, 1) for b in (0, 1)] == [
            F(1, 3),
            F(2, 3),
            F(3, 5),
            F(2, 5),
        ]

    def test_isotropic_half_conditioned(self):
        from boxlab.isotropic import make_isotropic

        iso = make_isotropic(F(1, 2))
        got = condition(iso, 0, 1, 1)
        # mixture arithmetic: P(b|y) = (1/2 PR(1,b|1,y) + 1/8) / (1/2)
        expected = []
        pr = bell.pr_box()
        for y in (0, 1):
            for b in (0, 1):
                expected.append(pr.prob((1, b), (1, y)) + F(1, 4))
        assert list(got.table) == expected

    def test_zero_probability_condition(self):
        det = box_from_function(SC22, lambda outs, xs: 1 if outs == (0, 0) else 0)
        with pytest.raises(ZeroProbabilityCondition):
            condition(det, 0, 0, 1)


class TestTensorAndPermute:
    def test_tensor_marginal_roundtrip(self):
        pr = bell.pr_box()
        noise = uniform_box(Scenario((1,), (2,)))
        t = tensor(pr, noise)
        assert marginal(t, (0, 1)) == pr
        assert marginal(t, (2,)) == noise

    def test_uniform_tensor_uniform(self):
        u = uniform_box(Scenario((2,), (2,)))
        t = tensor(u, u)
        assert t == uniform_box(Scenario((2, 2), (2, 2)))

    def test_permute_parties_roundtrip(self):
        box = tensor(bell.pr_box(), uniform_box(Scenario((3,), (2,))))
        shuffled = permute_parties(box, (2, 0, 1))
        back = permute_parties(shuffled, (1, 2, 0))
        assert back == box

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(BadPermutation):
            permute_parties(bell.pr_box(), (0, 0))


class TestRelabel:
    def test_identity_is_noop(self):
        pr = bell.pr_box()
        in_p, out_p = identity_relabeling(SC22)
        assert relabel(pr, in_p, out_p) == pr

    def test_flip_b_at_y1_changes_sign_pattern(self):
        pr = bell.pr_box()
        in_p, out_p = identity_relabeling(SC22)
        out_p = [out_p[0], [(0, 1), (1, 0)]]
        flipped = relabel(pr, in_p, out_p)
        c = bell.correlators(flipped)
        assert c.as_tuple() == (F(1), F(-1), F(1), F(1))

    def test_relabel_preserves_nonsignaling(self, ns_vertices):
        rng = random.Random(3)
        for rl in random.Random(1).sample(bell.relabelings_2222(), 10):
            box = ns_vertices[rng.randrange(24)]
            assert is_nonsignaling(relabel(box, *rl))

    def test_bad_permutation(self):
        pr = bell.pr_box()
        with pytest.raises(BadPermutation):
            relabel(pr, [(0, 0), (0, 1)], identity_relabeling(SC22)[1])


class TestMix:
    def test_isotropic_mixture(self):
        from boxlab.isotropic import make_isotropic

        got = mix([bell.pr_box(), uniform_box(SC22)], [F(3, 4), F(1, 4)])
        assert got == make_isotropic(F(3, 4))

    def test_single_box_identity(self):
        pr = bell.pr_box()
        assert mix([pr], [F(1)]) == pr

    def test_weight_errors(self):
        pr = bell.pr_box()
        with pytest.raises(WeightError):
            mix([pr, pr], [F(1, 2), F(1, 3)])
        with pytest.raises(WeightError):
            mix([pr, pr], [F(3, 2), F(-1, 2)])

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            mix([bell.pr_box(), uniform_box(Scenario((2,), (2,)))], [F(1, 2), F(1, 2)])

    def test_mix_of_local_boxes_is_local(self, ns_vertices):
        from boxlab.locality import LocalModel, is_local

        rng = random.Random(5)
        from conftest import random_local_box

        box = mix(
            [random_local_box(rng, ns_vertices) for _ in range(2)],
            [F(1, 3), F(2, 3)],
        )
        assert isinstance(is_local(box), LocalModel)


# re-mixing the conditionals over party k's outcomes recovers the marginal
def test_condition_remix_recovers_marginal():
    from boxlab.isotropic import make_isotropic

    box = make_isotropic(F(2, 3))
    x_k = 1
    pk = marginal(box, (0,))
    parts = []
    weights = []
    for a_k in (0, 1):
        w = pk.prob((a_k,), (x_k,))
        if w:
            parts.append(condition(box, 0, x_k, a_k))
            weights.append(w)
    assert mix(parts, weights) == marginal(box, (1,))


@st.composite
def small_ns_boxes(draw):
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=6), min_size=24, max_size=24)
    )
    total = sum(weights) or 1
    if sum(weights) == 0:
        weights[0] = 1
    vertices = bell.ns_vertices_2222()
    return mix(list(vertices), [F(w, total) for w in weights])


@settings(max_examples=30, deadline=None)
@given(p=small_ns_boxes(), q=small_ns_boxes())
def test_tensor_marginal_identity(p, q):
    assert marginal(tensor(p, q), (0, 1)) == p


@settings(max_examples=30, deadline=None)
@given(p=small_ns_boxes(), q=small_ns_boxes(), w=st.integers(0, 12))
def test_nonsignaling_closed_under_mixing(p, q, w):
    assert is_nonsignaling(mix([p, q], [F(w, 12), F(12 - w, 12)]))


@settings(max_examples=20, deadline=None)
@given(p=small_ns_boxes(), idx=st.integers(0, 63))
def test_nonsignaling_invariant_under_relabel(p, idx):
    in_p, out_p = bell.relabelings_2222()[idx]
    assert is_nonsignaling(relabel(p, in_p, out_p))
