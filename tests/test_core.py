import itertools
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from boxlab import bell
from boxlab.polytope import lift, marginal_rows, ns_equality_rows
from boxlab.core import (
    BadPermutation,
    Box,
    NegativeEntry,
    NormalizationFailure,
    Scenario,
    ScenarioMismatch,
    SignalingBox,
    WeightError,
    box_from_function,
    is_nonsignaling,
    label_offsets,
    marginal,
    marginal_indices,
    mix,
    permute_parties,
    rat,
    relabel,
    relabeled_indices,
    restrict_bob_inputs,
    swap_indices,
    trace_indices,
    validate_box,
)
from conftest import identity_relabeling, random_relabeling, relabelings_2222, tensor
from oracles import (
    ZeroProbabilityCondition,
    _flat_of,
    condition,
    marginal_dense,
    marginal_lists_by_product,
    permute_parties_walk,
    prob,
    relabel_walk,
    restrict_bob_inputs_walk,
    relabeled_entries_walk,
    trace_groups_by_product,
    trace_violation_dense,
    uniform_box,
)

SC22 = Scenario((2, 2), (2, 2))


def product_box(pa, pb):
    """P(a|x) P(b|y) from per-input single-party distributions."""
    sc = Scenario((len(pa), len(pb)), (len(pa[0]), len(pb[0])))
    return box_from_function(sc, lambda outs, xs: pa[xs[0]][outs[0]] * pb[xs[1]][outs[1]])


class TestValidation:
    def test_pr_box_is_valid(self):
        pr = bell.pr_box()
        assert prob(pr, (0, 0), (0, 0)) == F(1, 2)
        assert prob(pr, (0, 1), (1, 1)) == F(1, 2)
        assert prob(pr, (0, 0), (1, 1)) == 0

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

    @pytest.mark.parametrize("size", [2.7, 2.0, True, False, "3"])
    def test_alphabet_sizes_must_be_ints(self, size):
        # int() would have read these as 2, 2, 1, 0 and 3
        with pytest.raises(ScenarioMismatch, match="ints"):
            Scenario((size, 2), (2, 2))
        with pytest.raises(ScenarioMismatch, match="ints"):
            Scenario((2, 2), (2, size))


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
        assert [prob(mb, (b,), (y,)) for y in (0, 1) for b in (0, 1)] == [
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
        # nonempty, strictly increasing, nonnegative, ints: int() would read
        # (0.7,) as party 0 and (True,) or ("1",) as party 1
        for keep in [(1, 1), (1, 0), (), (-1, 0), (0.7,), (True,), ("1",), (0, 1.0), (F(1),)]:
            with pytest.raises(ScenarioMismatch):
                marginal(bell.pr_box(), keep)

    @pytest.mark.parametrize("keep", [(-1,), (-2, 1), (2,), (0, 2)])
    def test_party_out_of_range(self, keep):
        with pytest.raises(ScenarioMismatch):
            marginal(bell.pr_box(), keep)


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
        assert [prob(got, (b,), (y,)) for y in (0, 1) for b in (0, 1)] == [
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
                expected.append(prob(pr, (1, b), (1, y)) + F(1, 4))
        assert list(got.table) == expected

    @pytest.mark.parametrize("party", [-1, -2, 2])
    def test_party_out_of_range(self, party):
        with pytest.raises(ScenarioMismatch):
            condition(bell.pr_box(), party, 0, 0)

    @pytest.mark.parametrize("party, x_k, a_k", [(0, 2, 0), (0, 0, 2), (1, -1, 0)])
    def test_input_or_output_out_of_range(self, party, x_k, a_k):
        with pytest.raises(ScenarioMismatch):
            condition(bell.pr_box(), party, x_k, a_k)

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

    @pytest.mark.parametrize(
        "inputs, outputs, i, j",
        [((2, 3, 3), (2, 2, 2), 1, 2), ((3, 2, 2, 2), (2, 3, 3, 3), 1, 3), ((2, 2, 2), (3, 3, 3), 0, 2)],
    )
    def test_swap_indices_match_permute_parties(self, inputs, outputs, i, j):
        sc = Scenario(inputs, outputs)
        numbered = Box(sc, tuple(range(sc.table_size)))
        order = list(range(sc.parties))
        order[i], order[j] = j, i
        perm = swap_indices(sc, i, j)
        assert tuple(numbered.table[p] for p in perm) == permute_parties(numbered, order).table

    def test_swap_indices_need_equal_alphabets(self):
        with pytest.raises(ScenarioMismatch):
            swap_indices(Scenario((2, 3), (2, 2)), 0, 1)

    def test_permute_parties_matches_coordinate_walk(self):
        # each party gets its own (inputs, outputs) pair, so a map that
        # confuses two parties changes the scenario or the table; distinct
        # entries make every misplaced one visible
        rng = random.Random(1617)
        pairs = [(x, a) for x in (1, 2, 3) for a in (1, 2, 3)]
        for parties in (1, 2, 3):
            for _ in range(4):
                alphabets = rng.sample(pairs, parties)
                sc = Scenario([x for x, _ in alphabets], [a for _, a in alphabets])
                numbered = Box(sc, tuple(F(i) for i in range(sc.table_size)))
                for order in itertools.permutations(range(parties)):
                    assert permute_parties(numbered, order) == permute_parties_walk(numbered, order)


# 2222, 3322, 2233, 222/222, four binary parties, and a party with one input
LAYOUT_SCENARIOS = [SC22, Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3)), Scenario((2, 2, 2), (2, 2, 2)),
                    Scenario((2,) * 4, (2,) * 4), Scenario((1, 3), (3, 2))]


class TestFlatLayout:
    @pytest.mark.parametrize("sc", LAYOUT_SCENARIOS, ids=str)
    def test_label_offsets_sum_to_the_flat_index(self, sc):
        offsets = label_offsets(sc)
        assert label_offsets(Scenario(sc.inputs, sc.outputs)) is offsets
        assert [len(o) for o in offsets] == [x * a for x, a in zip(sc.inputs, sc.outputs)]
        for xs in itertools.product(*map(range, sc.inputs)):
            for outs in itertools.product(*map(range, sc.outputs)):
                labels = [x * A + a for x, a, A in zip(xs, outs, sc.outputs)]
                assert sum(o[n] for o, n in zip(offsets, labels)) == _flat_of(sc, outs, xs)

    @pytest.mark.parametrize("sc", LAYOUT_SCENARIOS, ids=str)
    def test_relabeled_indices_read_the_images_labels(self, sc):
        # any permutation of each party's labels, not only local relabelings
        rng = random.Random(f"relabeled {sc}")
        for _ in range(5):
            images = [rng.sample(range(x * a), x * a) for x, a in zip(sc.inputs, sc.outputs)]
            assert relabeled_indices(sc, images) == relabeled_entries_walk(sc, images)

    @pytest.mark.parametrize("sc", LAYOUT_SCENARIOS, ids=str)
    def test_relabel_is_the_entry_walk(self, sc):
        rng = random.Random(f"relabel {sc}")
        for _ in range(5):
            box = Box(sc, tuple(F(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(sc.table_size)))
            rl = random_relabeling(rng, sc)
            assert pickle.dumps(relabel(box, *rl)) == pickle.dumps(relabel_walk(box, *rl))


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
        assert bell.correlators(flipped) == (F(1), F(-1), F(1), F(1))

    def test_relabel_preserves_nonsignaling(self, ns_vertices):
        rng = random.Random(3)
        for rl in random.Random(1).sample(relabelings_2222(), 10):
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
        w = prob(pk, (a_k,), (x_k,))
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
    in_p, out_p = relabelings_2222()[idx]
    assert is_nonsignaling(relabel(p, in_p, out_p))


# ---------------------------------------------------------------------------
# marginals and trace conditions against the dense oracle, beyond 2222

ORACLE_SCENARIOS = [
    Scenario((2, 2), (2, 2)),
    Scenario((3, 2), (2, 3)),
    Scenario((3, 3), (2, 2)),
    Scenario((2, 2, 2), (2, 2, 2)),
    Scenario((3, 2, 1), (2, 3, 2)),
    Scenario((1, 3, 2), (3, 2, 2)),
    Scenario((2, 3), (2, 2)),
]


def seeded_ns_box(rng, sc):
    """Random rational mixture of three random deterministic strategies,
    tensored with the PR box when the scenario has a 2222 pair in front."""
    parts = []
    for _ in range(3):
        responses = [[rng.randrange(a) for _ in range(x)] for x, a in zip(sc.inputs, sc.outputs)]
        parts.append(
            box_from_function(
                sc,
                lambda outs, xs, r=responses: int(all(r[k][x] == o for k, (o, x) in enumerate(zip(outs, xs)))),
            )
        )
    if sc == Scenario((2, 2, 2), (2, 2, 2)):
        parts.append(tensor(bell.pr_box(), uniform_box(Scenario((2,), (2,)))))
    weights = [rng.randrange(1, 6) for _ in parts]
    return mix(parts, [F(w, sum(weights)) for w in weights])


def seeded_signaling_box(rng, sc):
    """A seeded NS box with some mass moved between two output tuples of
    one input tuple: still normalized, signaling unless the move happens
    to keep every trace condition."""
    box = seeded_ns_box(rng, sc)
    n_out = sc.num_output_tuples
    xi = rng.randrange(sc.num_input_tuples)
    block = box.table[xi * n_out : (xi + 1) * n_out]
    src = rng.choice([i for i, v in enumerate(block) if v])
    dst = rng.choice([i for i in range(n_out) if i != src])
    moved = block[src] * F(rng.randrange(1, 4), 4)
    table = list(box.table)
    table[xi * n_out + src] -= moved
    table[xi * n_out + dst] += moved
    return validate_box(table, sc)


def oracle_boxes():
    rng = random.Random(2005)
    return [
        (make(rng, sc), sc) for sc in ORACLE_SCENARIOS for make in (seeded_ns_box, seeded_signaling_box) * 4
    ]


def subsets(parties):
    return [keep for r in range(1, parties + 1) for keep in itertools.combinations(range(parties), r)]


def test_nonsignaling_witness_matches_dense_oracle():
    outcomes = []
    for box, sc in oracle_boxes():
        want = trace_violation_dense(box)
        assert is_nonsignaling(box, witness=True) == (want is None, want)
        assert is_nonsignaling(box) == (want is None)
        outcomes.append(want is None)
    assert 0 < sum(outcomes) < len(outcomes)  # both verdicts occur


def test_marginal_matches_dense_oracle():
    for box, sc in oracle_boxes():
        signaling = trace_violation_dense(box)
        for keep in subsets(sc.parties):
            if signaling is not None and len(keep) < sc.parties:
                with pytest.raises(SignalingBox) as err:
                    marginal(box, keep)
                assert err.value.witness == signaling
                continue
            m = marginal(box, keep)
            got = {(outs, xs): prob(m, outs, xs) for xs in m.scenario.input_tuples() for outs in m.scenario.output_tuples()}
            assert got == marginal_dense(box, keep)


def marginal_cases():
    """(box, keep, the kept parties' scenario, its table as marginal_dense
    reads it) for seeded NS boxes in tripartite scenarios whose parties
    have distinct alphabets, on every increasing party subset."""
    rng = random.Random(1806)
    for sc in (Scenario((3, 2, 1), (2, 3, 2)), Scenario((1, 3, 2), (3, 2, 2))):
        for _ in range(3):
            box = seeded_ns_box(rng, sc)
            for keep in subsets(sc.parties):
                sub = Scenario([sc.inputs[i] for i in keep], [sc.outputs[i] for i in keep])
                dense = marginal_dense(box, keep)
                yield box, keep, sub, [dense[outs, xs] for xs in sub.input_tuples() for outs in sub.output_tuples()]


def row_value(row, box):
    return sum((c * box.table[i] for i, c in row), F(0))


def test_lift_matches_dense_oracle():
    rng = random.Random(508)
    for box, keep, sub, dense in marginal_cases():
        # each marginal entry alone, then a seeded combination with zeros
        for k in range(sub.table_size):
            unit = [F(int(j == k)) for j in range(sub.table_size)]
            assert row_value(lift(box.scenario, keep, unit), box) == dense[k]
        coeffs = [F(rng.randrange(-3, 4), rng.randrange(1, 4)) for _ in dense]
        row = lift(box.scenario, keep, coeffs)
        assert all(c for _, c in row)
        assert row_value(row, box) == sum((c * p for c, p in zip(coeffs, dense)), F(0))


def test_marginal_rows_match_dense_oracle():
    for box, keep, sub, dense in marginal_cases():
        rows = marginal_rows(box.scenario, keep, Box(sub, tuple(dense)))
        assert [rhs for _, rhs in rows] == dense
        assert [row_value(row, box) for row, _ in rows] == dense


def test_ns_rows_vanish_exactly_on_nonsignaling_boxes():
    for box, sc in oracle_boxes():
        values = [sum((c * box.table[i] for i, c in coeffs), F(0)) for coeffs, _ in ns_equality_rows(sc)]
        assert all(v == 0 for v in values) == (trace_violation_dense(box) is None)


def test_nonsignaling_matches_fraction_sum_oracle():
    # the integer trace sums against the oracle's Fraction sums, on boxes
    # whose entries have many coprime denominators, so the common
    # denominator is large and the moved mass is small
    rng = random.Random(508)
    outcomes = []
    for sc in (Scenario((2, 2), (2, 2)), Scenario((3, 3), (2, 2)), Scenario((2, 2, 2), (2, 2, 2))):
        for _ in range(6):
            parts = [seeded_ns_box(rng, sc) for _ in range(3)]
            weights = [F(1, p) for p in rng.sample([3, 5, 7, 11, 13, 17, 19, 23], 2)]
            box = mix(parts, [*weights, 1 - sum(weights)])
            for candidate in (box, seeded_signaling_box(rng, sc)):
                want = trace_violation_dense(candidate)
                assert is_nonsignaling(candidate, witness=True) == (want is None, want)
                if want is not None:
                    assert all(type(v) is F for v in want[5:])
                outcomes.append(want is None)
    assert 0 < sum(outcomes) < len(outcomes)


# the cached index maps against from-scratch enumerations: 2222, 2322,
# 3322, 2233, 222/222, four binary parties, and a party with one input
INDEX_MAP_SCENARIOS = [
    Scenario((2, 2), (2, 2)),
    Scenario((2, 3), (2, 2)),
    Scenario((3, 3), (2, 2)),
    Scenario((2, 2), (3, 3)),
    Scenario((2, 2, 2), (2, 2, 2)),
    Scenario((2, 2, 2, 2), (2, 2, 2, 2)),
    Scenario((1, 3, 2), (3, 2, 2)),
]


@pytest.mark.parametrize("sc", INDEX_MAP_SCENARIOS, ids=str)
def test_trace_indices_match_product_oracle(sc):
    groups = trace_indices(sc)
    assert groups == trace_groups_by_product(sc)
    # built once per scenario: an equal scenario gets the same object
    assert trace_indices(Scenario(sc.inputs, sc.outputs)) is groups
    assert isinstance(groups, tuple) and all(isinstance(x, tuple) for *_, per_x in groups for x in per_x)


@pytest.mark.parametrize("sc", INDEX_MAP_SCENARIOS, ids=str)
def test_marginal_indices_match_product_oracle(sc):
    for keep in subsets(sc.parties):
        entries = marginal_indices(sc, keep)
        assert entries == marginal_lists_by_product(sc, keep)
        # a list, as callers pass sorted((i, j)), reads the same cached map
        assert marginal_indices(sc, list(keep)) is entries
        assert all(isinstance(idx, tuple) for _, idx in entries)


@pytest.mark.parametrize("ys", [[True], [0.0], ["1"], [0, 1.0], [2], [-1]], ids=repr)
def test_restrict_bob_inputs_takes_only_int_inputs_in_range(ys):
    # int() would read True as input 1; 0.0 and "1" would end in a TypeError
    with pytest.raises(ScenarioMismatch, match="ints"):
        restrict_bob_inputs(bell.pr_box(), ys)


def test_restrict_bob_inputs_keeps_the_listed_inputs_in_order():
    box = mix([bell.pr_box(), uniform_box(Scenario((2, 2), (2, 2)))], [F(1, 3), F(2, 3)])
    kept = restrict_bob_inputs(box, [1, 0])
    assert kept.scenario == Scenario((2, 2), (2, 2))
    assert all(prob(kept, outs, (x, y)) == prob(box, outs, (x, 1 - y))
               for x, y, outs in itertools.product((0, 1), (0, 1), itertools.product((0, 1), repeat=2)))


@pytest.mark.parametrize("sc", [Scenario((2, 3), (2, 2)), Scenario((3, 3), (2, 3)), Scenario((2, 4), (3, 2))], ids=str)
def test_restrict_bob_inputs_matches_the_walk(sc):
    rng = random.Random(593)
    for _ in range(5):
        box = seeded_signaling_box(rng, sc)
        Y = sc.inputs[1]
        for ys in ([0], [Y - 1, 0], rng.sample(range(Y), Y), [1, 1]):
            assert restrict_bob_inputs(box, ys) == restrict_bob_inputs_walk(box, ys)


@pytest.mark.parametrize("keep", [[1, 0], [0, 0], [], [0, 3], [-1, 1], [0.2, 1.9], [False, True], ["0", "1"]])
def test_marginal_indices_reject_a_bad_subset(keep):
    with pytest.raises(ScenarioMismatch):
        marginal_indices(Scenario((2, 2, 2), (2, 2, 2)), keep)


def record_samples():
    """One record of each Frozen class, as the analyses return them."""
    from boxlab import boxio, cli, lp, polytope
    from boxlab.incompat import ObservablePair, entropy_bound_check, incompatibility
    from boxlab.isotropic import make_isotropic
    from boxlab.locality import is_local
    from boxlab.shareability import ExtensionProblem, is_m_shareable

    pr = bell.pr_box()
    pair = ObservablePair("B")
    prog = lp.LinearProgram(1, enumerate([1]))
    prog.add_ineq([(0, 1)], 1)
    return [
        pr.scenario,
        pr,
        boxio.BoxFile(pr, "pr"),
        cli.FLAGS["m"],
        cli.ANALYSES["local"],
        lp.solve(prog),
        lp.solve(prog).certificate,
        polytope.deterministic_strategies(SC22)[5],
        bell.cglmp(3),
        bell.chsh_functional(),
        is_local(uniform_box(SC22)),
        is_local(pr),
        ExtensionProblem(pr, "B", 2),
        is_m_shareable(ExtensionProblem(make_isotropic(F(1, 2)), "B", 2)),
        is_m_shareable(ExtensionProblem(pr, "B", 2)),
        pair,
        incompatibility(pr, pair),
        entropy_bound_check(pr, pair),
    ]


def test_records():
    import pickle

    from boxlab.core import Frozen

    class Twin(Frozen):
        pass

    samples = record_samples()
    records = {cls for cls in Frozen.__subclasses__() if cls.__module__.startswith("boxlab.")}
    assert {type(r) for r in samples} == records and len(records) == 16
    for record in samples:
        name = next(iter(vars(record)))
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.unknown = None
        with pytest.raises(AttributeError):
            delattr(record, name)
        rebuilt = type(record)(**vars(record))
        assert rebuilt == record and hash(rebuilt) == hash(record) and rebuilt is not record
        assert pickle.loads(pickle.dumps(record)) == record
        changed = object.__new__(type(record))
        changed.__dict__.update(vars(record), **{name: object()})
        assert changed != record
        twin = object.__new__(Twin)
        twin.__dict__.update(vars(record))
        assert twin != record and record != twin
    halves = "1 0 0 1 1 0 0 1 1 0 0 1 0 1 1 0".split()
    table = ", ".join(f"Fraction({h}, {1 + int(h)})" for h in halves)
    assert repr(bell.pr_box()) == f"Box(scenario=Scenario(inputs=(2, 2), outputs=(2, 2)), table=({table}))"
    assert repr(samples[14]) == (
        f"ExtensionWitness(feasible=False, extension=None, certificate={samples[14].certificate!r})"
    )
