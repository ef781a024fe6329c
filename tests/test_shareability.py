import itertools
import math
import pickle
import random
import timeit
from fractions import Fraction as F

import pytest

from boxlab import bell, core, locality, lp, polytope, shareability
from boxlab.bell import BellFunctional, chsh, chsh_functional, pr_box
from boxlab.core import InternalError as UnexpectedLpStatus
from boxlab.core import (
    Scenario,
    ScenarioMismatch,
    ZERO,
    ONE,
    box_from_function,
    is_nonsignaling,
    marginal,
    mix,
    permute_parties,
    relabel,
    validate_box,
)
from boxlab.isotropic import make_isotropic
from boxlab.locality import LocalModel, NonlocalityCertificate, is_local
from boxlab.polytope import DeterministicStrategy, canonical_form, deterministic_strategies
from boxlab.shareability import (
    BadParams,
    ExtensionProblem,
    ExtensionTooLarge,
    NotAnExtension,
    NotUniqueMaximizer,
    _folded_rows,
    _iso_ceiling_lp,
    _oriented,
    _orbit_rows,
    _unfold,
    folded_extension_lp,
    generalized_isotropic,
    generalized_pr,
    is_m_shareable,
    isotropic_clone_ceiling,
    local_model_from_extension,
    monogamy_lp,
    monogamy_tradeoff,
    polygamy_example,
    restrict_bob_inputs,
    unique_violator_decoupling,
    validate_extension,
)
from conftest import (
    asymmetric_giso,
    orbit_lp,
    own_form,
    pr_type,
    random_local_box,
    random_ns_box,
    random_relabeling,
    relabelings_2222,
    tensor,
)
from oracles import (
    _flat_of,
    brute_canonical_form,
    canonical_relabeling,
    label_numbers,
    local_model_walk,
    prob,
    shared_shift_symmetrize,
    unfold_by_relabeling,
    unfolded_bell_lift,
    unfolded_extension_feasible,
    unfolded_extension_lp,
    uniform_box,
    walked_canonical_form,
    walked_orbit_rows,
)

# every certificate these tests produce is checked by both verifiers
pytestmark = pytest.mark.usefixtures("both_verifiers")

SC22 = Scenario((2, 2), (2, 2))


class TestShareability:
    def test_isotropic_half_two_shareable(self):
        witness = is_m_shareable(ExtensionProblem(make_isotropic(F(1, 2)), "B", 2))
        assert witness.feasible
        # the witness was validated inside; spot-check a marginal anyway
        assert marginal(witness.extension, (0, 2)) == make_isotropic(F(1, 2))

    def test_isotropic_three_quarters_not_shareable(self):
        problem = ExtensionProblem(make_isotropic(F(3, 4)), "B", 2)
        witness = is_m_shareable(problem)
        assert not witness.feasible
        outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
        assert lp.verify_certificate(folded_extension_lp(problem)[0], outcome)

    def test_isotropic_four_shareable_exactly_up_to_half(self):
        # the paper's bound: isotropic boxes are m-shareable for every m
        # when C <= 1/2, and not even 2-shareable above it
        half = ExtensionProblem(make_isotropic(F(1, 2)), "B", 4)
        witness = is_m_shareable(half)
        assert witness.feasible
        validate_extension(half, witness.extension)
        above = ExtensionProblem(make_isotropic(F(3, 5)), "B", 4)
        witness = is_m_shareable(above)
        assert not witness.feasible
        outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
        assert lp.verify_certificate(folded_extension_lp(above)[0], outcome)

    def test_product_box_any_m(self):
        box = uniform_box(SC22)
        for m in (1, 2, 3):
            assert is_m_shareable(ExtensionProblem(box, "B", m)).feasible

    def test_shared_party_a(self):
        witness = is_m_shareable(ExtensionProblem(make_isotropic(F(1, 2)), "A", 2))
        assert witness.feasible
        assert marginal(witness.extension, (0, 2)) == make_isotropic(F(1, 2))

    def test_monotone_in_m(self):
        # marginalizing one copy of a 3-extension gives a 2-extension
        box = make_isotropic(F(2, 5))
        w3 = is_m_shareable(ExtensionProblem(box, "B", 3))
        assert w3.feasible
        reduced = marginal(w3.extension, (0, 1, 2))
        validate_extension(ExtensionProblem(box, "B", 2), reduced)

    def test_size_cap(self):
        big = uniform_box(Scenario((4, 4), (4, 4)))
        with pytest.raises(ExtensionTooLarge):
            is_m_shareable(ExtensionProblem(big, "B", 4))

    @pytest.mark.parametrize("party", ["A", "B"])
    @pytest.mark.parametrize(
        "inputs, outputs", [((2, 2), (2, 2)), ((1, 1), (2, 2)), ((3, 2), (2, 3)), ((2, 1), (4, 2))]
    )
    def test_size_cap_is_the_table_size(self, inputs, outputs, party):
        # every copy party here has two or more (input, output) pairs, so
        # a problem is refused exactly when its extension table passes the cap
        box = uniform_box(Scenario(inputs, outputs))
        (X, Y), (A, B) = inputs, outputs
        for m in range(1, 20):
            if party == "B":
                ext = Scenario((X,) + (Y,) * m, (A,) + (B,) * m)
            else:
                ext = Scenario((X,) * m + (Y,), (A,) * m + (B,))
            fits = ext.table_size <= shareability.EXTENSION_SIZE_CAP
            try:
                assert ExtensionProblem(box, party, m).extension_scenario() == ext
            except ExtensionTooLarge:
                assert not fits, m
            else:
                assert fits, m

    def test_copy_party_without_choices_is_capped_in_m(self):
        # its copies add no table entries; m stops at log2 of the cap
        box = uniform_box(Scenario((2, 1), (2, 1)))
        assert is_m_shareable(ExtensionProblem(box, "B", 16)).feasible
        with pytest.raises(ExtensionTooLarge, match="m=17"):
            ExtensionProblem(box, "B", 17)

    def test_validate_rejects_wrong_marginal(self):
        w = is_m_shareable(ExtensionProblem(make_isotropic(F(1, 2)), "B", 2))
        with pytest.raises(NotAnExtension):
            validate_extension(
                ExtensionProblem(make_isotropic(F(1, 4)), "B", 2), w.extension
            )

    def test_validation_checks_signaling_once(self, monkeypatch):
        box = make_isotropic(F(1, 2))
        problem = ExtensionProblem(box, "B", 4)
        extension = is_m_shareable(problem).extension
        calls = []

        def counting(real):
            def wrapped(scenario, den, nums):
                calls.append((scenario, den, list(nums)))
                return real(scenario, den, nums)
            return wrapped

        # is_nonsignaling and marginal() reach the check in core,
        # validate_extension its own import, on numerators it holds
        monkeypatch.setattr(core, "_trace_violation", counting(core._trace_violation))
        monkeypatch.setattr(shareability, "_trace_violation", counting(shareability._trace_violation))
        validate_extension(problem, extension)
        assert calls == [(extension.scenario, *core.numerators(extension.table))]

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_validate_rejects_copy_asymmetry_at_every_slot_pair(self, party):
        # copy slot s answers 0 up to slot k and 1 after it, whatever the
        # inputs: symmetric under every earlier adjacent swap, not under (k, k+1)
        problem = ExtensionProblem(make_isotropic(F(1, 2)), party, 4)
        sc, slots = problem.extension_scenario(), problem.copy_slots()
        for k, (i, j) in enumerate(zip(slots, slots[1:])):
            late = set(slots[k + 1 :])
            wanted = tuple(int(s in late) if s in slots else 0 for s in range(sc.parties))
            table = box_from_function(sc, lambda outs, xs, w=wanted: 1 if outs == w else 0)
            with pytest.raises(NotAnExtension, match=f"slots {i},{j}$"):
                validate_extension(problem, table)

    def test_validate_rejects_signaling_extension(self):
        # symmetric under the copy swap, but Alice's input moves Bob's outputs
        sc = ExtensionProblem(make_isotropic(F(1, 2)), "B", 2).extension_scenario()
        signaling = box_from_function(sc, lambda outs, xs: 1 if outs == (0, xs[0], xs[0]) else 0)
        with pytest.raises(NotAnExtension, match="signaling"):
            validate_extension(ExtensionProblem(make_isotropic(F(1, 2)), "B", 2), signaling)

    @pytest.mark.parametrize("base, outs, message", [
        # moved by the copy swap: the symmetry check, which runs first, sees it
        (make_isotropic(F(1, 2)), (0, 0, 1), "not symmetric under swapping slots 1,2"),
        # fixed by the swap: Alice's input now moves the copies' outputs
        (make_isotropic(F(1, 2)), (0, 0, 0), "signaling"),
        # one input per party: no trace condition, only the marginal sees it
        (uniform_box(Scenario((1, 1), (2, 2))), (0, 0, 0), "marginal onto slot 1 differs"),
    ], ids=["symmetry", "signaling", "marginal"])
    def test_one_entry_tamper_fails_its_check(self, base, outs, message):
        # each check compares integer numerators over the table's common
        # denominator; a tamper by 1/7 adds a denominator the table lacks
        problem = ExtensionProblem(base, "B", 2)
        extension = is_m_shareable(problem).extension
        validate_extension(problem, extension)
        sc = extension.scenario
        table = list(extension.table)
        table[_flat_of(sc, outs, (0, 0, 0))] += F(1, 7)
        with pytest.raises(NotAnExtension, match=message):
            validate_extension(problem, core.Box(sc, tuple(table)))

    def test_unexpected_lp_status_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "solve", lambda prog: lp.LpOutcome(lp.UNBOUNDED))
        # a local 3322 box reaches is_local's membership LP
        local = _skewed_local_box(Scenario((3, 3), (2, 2)), random.Random(0), 3)
        with pytest.raises(UnexpectedLpStatus, match="membership LP ended unbounded"):
            is_m_shareable(ExtensionProblem(local, "B", 2))
        # a nonlocal 2222 box solves no LP in is_local, and at m = 1 < |Y|
        # goes on to the orbit LP
        with pytest.raises(UnexpectedLpStatus, match="extension feasibility LP ended unbounded"):
            is_m_shareable(ExtensionProblem(make_isotropic(F(3, 5)), "B", 1))
        with pytest.raises(UnexpectedLpStatus):
            isotropic_clone_ceiling()

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_feasibility_matches_unfolded_oracle(self, ns_vertices, m):
        # the oracle's full-table LP has 256 columns at m = 3 and takes
        # seconds per solve, so m = 3 checks one box toward each party
        rng = random.Random(97)
        boxes = [
            random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 2) * 60)
            for i in range(6)
        ]
        if m < 3:
            cases = [(box, party) for box in boxes for party in "AB"]
        else:
            cases = [(boxes[1], "A"), (boxes[0], "B")]
        verdicts = set()
        for box, party in cases:
            feasible = is_m_shareable(ExtensionProblem(box, party, m)).feasible
            assert feasible == unfolded_extension_feasible(box, party, m)
            verdicts.add(feasible)
        # every NS box is its own 1-extension; from m = 2 = |Y| on the
        # sample holds local (shareable) and nonlocal boxes
        assert verdicts == ({True} if m == 1 else {True, False})


# 2222, 2322, 3322 and 2233, as (inputs, outputs)
SMALL_SCENARIOS = [
    Scenario((2, 2), (2, 2)), Scenario((2, 3), (2, 2)),
    Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3)),
]


class TestSharedPartyA:
    @pytest.mark.parametrize("m", [2, 3])
    def test_asymmetric_box_toward_a(self, m):
        box = asymmetric_giso(F(2, 5))
        problem = ExtensionProblem(box, "A", m)
        witness = is_m_shareable(problem)
        assert witness.feasible
        validate_extension(problem, witness.extension)
        assert marginal(witness.extension, (0, m)) == box

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("sc", SMALL_SCENARIOS, ids=str)
    def test_toward_a_equals_toward_b_of_swapped(self, sc, m):
        # a problem toward A is stated as the problem toward B of the
        # party-swapped box: one program.  Its verdict is the full-table
        # oracle's, which keeps its own toward-A layout.  That oracle has
        # 1,296 columns at m = 3 on 3322 and 2233 and took 13 s on a local
        # 2233 box and 357 s on a nonlocal one, and the orbit LP took 79 s
        # on a local 3322 box; there the local box's verdict is the model's
        # and the nonlocal box is checked for its program only
        rng = random.Random(f"toward A {sc.inputs} {sc.outputs}")
        local = _skewed_local_box(sc, rng, 3)
        cases = [(local, True), (mix([pr_type(sc), _skewed_local_box(sc, rng, 3)], [F(3, 4), F(1, 4)]), False)]
        if sc == SC22:
            # asymmetric under the party swap, each side of its threshold
            cases += [(asymmetric_giso(F(2, 5)), True), (asymmetric_giso(F(3, 5)), False)]
        slow = m == 3 and sc.table_size == 36
        for box, local in cases:
            box = relabel(box, *random_relabeling(rng, sc))
            problem = ExtensionProblem(box, "A", m)
            prog = folded_extension_lp(problem)[0]
            assert prog.eqs == folded_extension_lp(ExtensionProblem(permute_parties(box, (1, 0)), "B", m))[0].eqs
            if slow and not local:
                continue
            witness = is_m_shareable(problem)
            assert witness.feasible == (local or m == 1)
            if not slow:
                assert witness.feasible == unfolded_extension_feasible(box, "A", m)
            if witness.feasible:
                validate_extension(problem, witness.extension)
                assert marginal(witness.extension, (0, m)) == box
            else:
                outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
                assert lp.verify_certificate(prog, outcome)


class TestCanonicalRelabeling:
    @pytest.mark.parametrize(
        "box, party, m",
        [
            (asymmetric_giso(F(2, 5)), "A", 2),
            (asymmetric_giso(F(3, 5)), "B", 3),
            (generalized_isotropic(3, F(2, 5)), "B", 2),
            (generalized_isotropic(3, F(7, 10)), "A", 2),
        ],
    )
    def test_relabelings_share_one_program(self, box, party, m):
        # every local relabeling of the base box is solved as the same LP,
        # so its verdict costs the same pivots; the witness still belongs
        # to the relabeled problem
        prog, _ = folded_extension_lp(ExtensionProblem(box, party, m))
        rng = random.Random(11)
        problems = [
            ExtensionProblem(relabel(box, *random_relabeling(rng, box.scenario)), party, m)
            for _ in range(3)
        ]
        for problem in problems:
            assert folded_extension_lp(problem)[0].eqs == prog.eqs
        problem = problems[-1]
        witness = is_m_shareable(problem)
        if witness.feasible:
            validate_extension(problem, witness.extension)
        else:
            outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
            assert lp.verify_certificate(folded_extension_lp(problem)[0], outcome)

    @pytest.mark.parametrize("c", [F(0), F(1, 2), F(3, 4), F(1)])
    def test_isotropic_box_is_its_own_canonical_form(self, c):
        problem = ExtensionProblem(make_isotropic(c), "B", 2)
        table, alice, bob, group = canonical_form(problem.base)
        assert table == problem.base.table
        assert alice == bob == _identity_labels(2, 2)
        # uniform noise is fixed by all 64 relabeling pairs, the PR box by 8
        assert len(group) == (64 if c == 0 else 8)
        # unfolding leaves every entry in place: each reads its own orbit
        index = _orbit_rows(SC22, 2)[0]
        orbit_of = walked_orbit_rows(problem)[0]
        assert list(_unfold(problem, SC22, alice, bob, index, range(len(index)))) == orbit_of

    @pytest.mark.parametrize("sc", SMALL_SCENARIOS, ids=str)
    def test_search_is_the_brute_force(self, sc, ns_vertices):
        # within CANONICAL_SEARCH_CAP relabelings, the frontier search
        # returns the table, maps and group of comparing every pair, and
        # of the walk over tuples of label numbers
        rng = random.Random(f"search {sc.inputs} {sc.outputs}")
        strategies = [s.box() for s in deterministic_strategies(sc)]
        boxes = [
            uniform_box(sc),
            _skewed_local_box(sc, rng),
            mix(rng.sample(strategies, 4), [F(1, 4)] * 4),
            mix([uniform_box(sc), _skewed_local_box(sc, rng)], [F(1, 2), F(1, 2)]),
        ]
        if sc == SC22:
            boxes += [make_isotropic(c) for c in (F(2, 5), F(1, 2), F(3, 5))] + [asymmetric_giso(F(3, 5))]
            boxes += [random_ns_box(rng, ns_vertices, nonlocal_bias=b) for b in (0, 60)]
        if sc.outputs == (3, 3):
            boxes += [generalized_isotropic(3, F(2, 5)), generalized_isotropic(3, F(7, 10))]
            boxes += [generalized_isotropic(3, F(3, 5), [F(1, 2), F(1, 3), F(1, 6)])]
        count = math.prod(math.factorial(x) * math.factorial(a) ** x for x, a in zip(sc.inputs, sc.outputs))
        assert count <= polytope.CANONICAL_SEARCH_CAP
        for box in boxes:
            for labeled in (box, relabel(box, *random_relabeling(rng, sc))):
                # the box toward B and, party-swapped, toward A
                for oriented in (labeled, permute_parties(labeled, (1, 0))):
                    form = canonical_form(oriented)
                    assert form == brute_canonical_form(oriented)
                    assert form == walked_canonical_form(oriented)

    @pytest.mark.parametrize("party", "AB")
    def test_four_outputs_are_searched_to_their_stabilizer(self, party):
        # 4 outputs per party: 1,327,104 relabelings, over
        # CANONICAL_SEARCH_CAP, but the frontier holds at most 576 states
        assert 2 * math.factorial(4) ** 2 * 2 * math.factorial(4) ** 2 > polytope.CANONICAL_SEARCH_CAP
        box = generalized_isotropic(4, F(1, 2))
        relabeled = relabel(box, *random_relabeling(random.Random(4), box.scenario))
        problem = ExtensionProblem(relabeled, party, 1)
        table, _, _, group = _check_stabilizer(_oriented(problem))
        assert len(group) == 16
        assert (table, group) == canonical_form(_oriented(ExtensionProblem(box, party, 1)))[::3]
        witness = is_m_shareable(problem)
        assert witness.feasible and witness.extension == relabeled

    @pytest.mark.parametrize("c", [F(1, 2), F(3, 5)])
    def test_four_outputs_are_the_walk(self, c):
        # beyond the brute force: the numbered states give the walk's
        # table, maps and group on seeded relabelings, either way round
        box = generalized_isotropic(4, c)
        rng = random.Random(f"walk {c}")
        for labeled in [box] + [relabel(box, *random_relabeling(rng, box.scenario)) for _ in range(3)]:
            for oriented in (labeled, permute_parties(labeled, (1, 0))):
                assert canonical_form(oriented) == walked_canonical_form(oriented)

    def test_the_numbering_does_not_show(self):
        # the same boxes searched in two orders, each from empty tables,
        # number their states apart and give the same forms, pickled alike
        rng = random.Random("numbering")
        boxes = []
        for sc in (SC22, Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3)), Scenario((2, 2), (4, 4))):
            for _ in range(3):
                boxes.append(relabel(_skewed_local_box(sc, rng), *random_relabeling(rng, sc)))
        boxes += [relabel(generalized_isotropic(A, F(3, 5)), *random_relabeling(rng, Scenario((2, 2), (A, A))))
                  for A in (3, 4)]
        polytope._canonical_plan.cache_clear()
        forward = [canonical_form(box) for box in boxes]
        polytope._canonical_plan.cache_clear()
        backward = [canonical_form(box) for box in reversed(boxes)][::-1]
        assert pickle.dumps(forward) == pickle.dumps(backward)
        assert forward == [walked_canonical_form(box) for box in boxes]

    def test_the_tables_stay_bounded(self, monkeypatch):
        # 2255 has 78,651 partial relabelings per party; between searches
        # a table holds at most _STATES_CAP of them, dropped only when a
        # search leaves more, and the forms stay the walk's
        sc = Scenario((2, 2), (5, 5))
        rng = random.Random("bounded")
        boxes = [relabel(generalized_isotropic(5, c), *random_relabeling(rng, sc)) for c in (F(1, 2), F(3, 5))]
        boxes += [relabel(_skewed_local_box(sc, rng, k), *random_relabeling(rng, sc)) for k in (2, 3, 3, 4)]
        polytope._canonical_plan.cache_clear()
        _, alice, bob = polytope._canonical_plan(sc)
        dropped, clear = [], polytope._Relabelings.clear

        def counted(party):
            dropped.append(len(party.offs))
            clear(party)

        monkeypatch.setattr(polytope._Relabelings, "clear", counted)
        for box in boxes:
            assert canonical_form(box) == walked_canonical_form(box)
            assert max(len(alice.offs), len(bob.offs)) <= polytope._STATES_CAP == 4096
        assert dropped and min(dropped) > polytope._STATES_CAP

    @pytest.mark.parametrize("sc, box", [
        (Scenario((2, 2), (4, 4)), None),
        (Scenario((2, 2), (5, 5)), None),
        (Scenario((2, 2), (5, 5)), generalized_isotropic(5, F(1, 2))),
    ], ids=["noise-2244", "noise-2255", "giso-5"])
    def test_a_crowded_frontier_gives_up_fast(self, sc, box):
        # every relabeling fixes uniform noise, so the frontier passes
        # CANONICAL_SEARCH_CAP within the first rows; the A=5 box passes
        # it in the second block.  The labels are kept, and the identity
        # is the group
        box = box or uniform_box(sc)
        assert min(timeit.repeat(lambda: canonical_form(box), number=1, repeat=3)) < 0.1
        table, alice, bob, group = form = canonical_form(box)
        assert form == walked_canonical_form(box)
        assert table == box.table
        assert alice == bob == _identity_labels(*sc.inputs[:1], *sc.outputs[:1])
        assert group == ((alice, bob),)
        # the trivial form that locality's membership LP folds by
        assert form == (box.table, *polytope.own_labels(sc))


def _identity_labels(inputs, outputs):
    """The identity map of a party's label numbers, each number read
    through oracles._flat_of (oracles.label_numbers)."""
    return tuple(sorted(label_numbers(inputs, outputs)))


class TestUnfold:
    """The one-pass unfold against the table-first one it replaced: the
    extension table toward B of the oriented base's canonical relabeling,
    then core.relabel, and toward A the parties put back in the
    problem's slot order."""

    def _check(self, problem, relabeling):
        # relabeling: the oriented base's, as canonical_relabeling finds it
        base, m = _oriented(problem), problem.copies
        table, alice, bob, _ = canonical_form(base)
        index = _orbit_rows(base.scenario, m)[0]
        # distinct values, so every entry must read its own orbit
        values = range(len(index))
        toward_b = ExtensionProblem(base, "B", m)
        want = core.Box(toward_b.extension_scenario(), unfold_by_relabeling(toward_b, relabeling, values))
        if problem.shared_party == "A":
            want = permute_parties(want, (*range(1, m + 1), 0))  # copies first, Bob last
        assert _unfold(problem, base.scenario, alice, bob, index, values) == want.table
        return table

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("party", "AB")
    def test_maps_match_the_relabeling(self, party, m):
        rng = random.Random(f"unfold {party} {m}")
        for sc in (SC22, Scenario((3, 2), (2, 2)), Scenario((2, 2), (2, 3))):
            problem = ExtensionProblem(relabel(_skewed_local_box(sc, rng), *random_relabeling(rng, sc)), party, m)
            table, relabeling = canonical_relabeling(_oriented(problem))
            assert self._check(problem, relabeling) == table

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("party", "AB")
    def test_a_given_up_search_keeps_the_labels(self, party, m):
        box = uniform_box(Scenario((2, 2), (4, 4)))
        assert self._check(ExtensionProblem(box, party, m), None) == box.table


def _fixes(sc, element, table):
    """Whether the stabilizer element (Alice's and Bob's maps of label
    numbers, as canonical_form returns them) leaves the table of `sc`
    unchanged, each label number read through oracles._flat_of
    (oracles.label_numbers)."""
    (X, Y), (A, B) = sc.inputs, sc.outputs
    alice, bob = label_numbers(X, A), label_numbers(Y, B)
    for (na, (a, x)), (nb, (b, y)) in itertools.product(alice.items(), bob.items()):
        (a2, x2), (b2, y2) = alice[element[0][na]], bob[element[1][nb]]
        if table[_flat_of(sc, (a2, b2), (x2, y2))] != table[_flat_of(sc, (a, b), (x, y))]:
            return False
    return True


def _check_stabilizer(box):
    """canonical_form(box), after checking that every element of its
    group fixes its table and that the group is one: the identity is in
    it, and it is closed."""
    table, fixed, copy, group = canonical = canonical_form(box)
    sc = box.scenario
    assert all(_fixes(sc, element, table) for element in group)
    identity = tuple(_identity_labels(n_in, n_out) for n_in, n_out in zip(sc.inputs, sc.outputs))
    assert identity in group
    for (f1, c1), (f2, c2) in itertools.product(group, repeat=2):
        assert (tuple(f1[v] for v in f2), tuple(c1[v] for v in c2)) in group
    return canonical


@pytest.mark.parametrize("box, size", [
    (make_isotropic(F(3, 5)), 8),
    (generalized_isotropic(3, F(7, 10)), 12),
    (generalized_isotropic(4, F(1, 2)), 16),
], ids=["iso-3/5", "giso3-7/10", "giso4-1/2"])
def test_relabeled_indices_applies_the_form(box, size):
    # label numbers are what core.relabeled_indices reads: every group
    # element fixes the canonical table, and the form's maps read that
    # table back into the box's own labels
    rng = random.Random(f"form {size}")
    sc = box.scenario
    for labeled in (box, relabel(box, *random_relabeling(rng, sc)), relabel(box, *random_relabeling(rng, sc))):
        table, alice, bob, group = canonical_form(labeled)
        assert len(group) == size
        for element in group:
            assert tuple(map(table.__getitem__, core.relabeled_indices(sc, element))) == table
        assert tuple(map(table.__getitem__, core.relabeled_indices(sc, (alice, bob)))) == labeled.table


# relabeled isotropic, generalized-isotropic A=3 and asymmetric mixture
# boxes, each below and above its threshold: (box, shareable for m >= 2)
STABILIZER_BOXES = [
    (make_isotropic(F(2, 5)), True), (make_isotropic(F(3, 5)), False),
    (generalized_isotropic(3, F(2, 5)), True), (generalized_isotropic(3, F(7, 10)), False),
    (asymmetric_giso(F(2, 5)), True), (asymmetric_giso(F(3, 5)), False),
]


class TestStabilizerFold:
    """The orbit LP folded by the stabilizer of the canonical table."""

    def _relabeled(self, k):
        box, shareable = STABILIZER_BOXES[k]
        rng = random.Random(f"stabilizer {k}")
        return relabel(box, *random_relabeling(rng, box.scenario)), shareable

    @pytest.mark.parametrize("k", range(len(STABILIZER_BOXES)))
    def test_the_group_is_the_stabilizer(self, k):
        box, _ = self._relabeled(k)
        for party in "AB":
            table, _, _, group = _check_stabilizer(_oriented(ExtensionProblem(box, party, 2)))
            assert len(group) > 1
            if box.scenario == SC22:
                canonical = core.Box(SC22, table)
                fixing = [r for r in relabelings_2222() if relabel(canonical, *r) == canonical]
                assert len(group) == len(fixing)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("k", range(len(STABILIZER_BOXES)))
    def test_verdicts_match_the_oracles(self, k, m):
        # the folded verdict is the orbit LP's and the full-table LP's;
        # those take seconds on the A=3 box at m = 3, and the full table
        # is checked at m = 3 toward one party per 2222 box
        box, shareable = self._relabeled(k)
        small = box.scenario == SC22
        for party in "AB":
            problem = ExtensionProblem(box, party, m)
            prog, unfold = folded_extension_lp(problem)
            out = lp.solve(prog)
            feasible = out.status == lp.OPTIMAL
            assert feasible == (m == 1 or shareable)
            if m < 3 or small:
                assert feasible == (lp.solve(orbit_lp(box, party, m)).status == lp.OPTIMAL)
            if m < 3 or (small and party == "AB"[k % 2]):
                assert feasible == unfolded_extension_feasible(box, party, m)
            if feasible:
                validate_extension(problem, validate_box(unfold(out.primal), problem.extension_scenario()))
            else:
                assert lp.verify_certificate(folded_extension_lp(problem)[0], out)
                # every box here has Y = 2 <= m, so is_m_shareable lifts the
                # Bell functional into a Farkas vector of this same program
                witness = is_m_shareable(problem)
                assert not witness.feasible
                lifted = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
                assert lp.verify_certificate(prog, lifted)

    @pytest.mark.parametrize("c, m, party", [(F(3, 5), 5, "B"), (F(3, 5), 6, "B"), (F(11, 20), 6, "A")])
    def test_isotropic_stall_is_gone(self, c, m, party):
        # the orbit LP alone took 1,279 pivots and seconds at m = 5, and
        # 9,717 pivots and minutes at m = 6
        problem = ExtensionProblem(make_isotropic(c), party, m)
        witness = is_m_shareable(problem)
        assert not witness.feasible
        # the box's 8 symmetries merge 224 orbits into 28 classes at m = 5,
        # and 336 into 44 at m = 6
        prog, _ = folded_extension_lp(problem)
        assert (len(_orbit_rows(SC22, m)[0]), prog.num_vars) == {5: (224, 28), 6: (336, 44)}[m]
        outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
        assert lp.verify_certificate(prog, outcome)


def _skewed_local_box(sc: Scenario, rng: random.Random, k: int = 4):
    """Mixture of up to k deterministic strategies with weights 1..k, so
    the marginal right-hand sides differ from entry to entry."""
    strategies = deterministic_strategies(sc)
    picked = rng.sample(strategies, min(k, len(strategies)))
    weights = range(1, len(picked) + 1)
    return mix([s.box() for s in picked], [F(w, sum(weights)) for w in weights])


# (X, Y, A, B): 2222, then each alphabet in turn at 1 and at 3, then two mixed
ORBIT_ALPHABETS = [(2, 2, 2, 2)] + [
    tuple(size if k == i else 2 for k in range(4)) for i in range(4) for size in (1, 3)
] + [(1, 3, 3, 2), (3, 2, 1, 3)]


class TestOrbitRows:
    """The orbit rows toward B against the walk of the full table.  The
    cases toward A check the rows toward B of the swapped alphabets, on
    the party-swapped box, which is what a problem toward A is solved
    as; the walk toward A itself stays in oracles.walked_orbit_rows."""

    def _check(self, problem):
        orbit_of, n_orbits, rows = walked_orbit_rows(problem)
        base, m = problem.base, problem.copies
        index, normalization, marginals, traces = _orbit_rows(base.scenario, m)
        assert len(index) == n_orbits
        # the walk's rows, with the box's table filled in as marginal rhs
        filled = normalization + tuple(zip(marginals, base.table)) + traces
        assert filled == tuple((coeffs, rhs) for coeffs, rhs, _ in rows)
        # one marginal row per base entry, in table order
        sc = base.scenario
        entries = [(outs, xs) for xs in sc.input_tuples() for outs in sc.output_tuples()]
        nones = [None] * len(normalization), [None] * len(traces)
        assert [entry for _, _, entry in rows] == nones[0] + entries + nones[1]
        # the orbits carry the walk's numbering, entry by entry
        (X, Y), (A, B) = sc.inputs, sc.outputs
        alice, bob = _identity_labels(X, A), _identity_labels(Y, B)
        assert list(_unfold(problem, sc, alice, bob, index, range(n_orbits))) == orbit_of
        assert n_orbits == A * X * math.comb(B * Y + m - 1, m)

    @pytest.mark.parametrize("party", "AB")
    @pytest.mark.parametrize("alphabets", ORBIT_ALPHABETS)
    def test_rows_match_the_walk(self, alphabets, party):
        X, Y, A, B = alphabets
        sc = Scenario((X, Y), (A, B))
        box = _skewed_local_box(sc, random.Random(str(alphabets)))
        for m in (1, 2, 3):
            self._check(ExtensionProblem(_oriented(ExtensionProblem(box, party, m)), "B", m))

    @pytest.mark.parametrize("party", "AB")
    @pytest.mark.parametrize("m", [4, 5])
    def test_rows_match_the_walk_for_more_copies(self, m, party):
        problem = ExtensionProblem(_skewed_local_box(SC22, random.Random(m)), party, m)
        self._check(ExtensionProblem(_oriented(problem), "B", m))

    def test_one_build_per_shape(self, ns_vertices):
        # two boxes with trivial stabilizers: one build of the orbit rows
        # and one entry of the folded cache
        _orbit_rows.cache_clear()
        _folded_rows.cache_clear()
        boxes = [random_ns_box(random.Random(s), ns_vertices, nonlocal_bias=60) for s in (0, 1)]
        problems = [ExtensionProblem(box, "B", 3) for box in boxes]
        assert all(len(canonical_form(box)[3]) == 1 for box in boxes)
        progs = [folded_extension_lp(problem)[0] for problem in problems]
        orbit, folded = _orbit_rows.cache_info(), _folded_rows.cache_info()
        assert (orbit.misses, orbit.hits, orbit.currsize) == (1, 0, 1)
        assert (folded.misses, folded.hits, folded.currsize) == (1, 1, 1)
        normalization, marginals, traces = _orbit_rows(SC22, 3)[1:]
        spanning = polytope.spanning_entries(SC22)
        first, second = (prog.eqs for prog in progs)
        # the programs differ only in the marginal right-hand sides, each
        # the table of the base box's canonical relabeling at the spanning
        # entries
        for prog, box in zip(progs, boxes):
            table = canonical_form(box)[0]
            want = [*normalization, *((marginals[e], table[e]) for e in spanning), *traces]
            assert prog.eqs == want
        differ = [k for k, (a, b) in enumerate(zip(first, second)) if a != b]
        assert differ and all(len(normalization) <= k < len(normalization) + len(spanning) for k in differ)

    def test_trivial_fold_is_the_orbit_rows(self):
        # folding by the trivial group keeps every orbit and row: the
        # orbit rows themselves, pinned at the spanning entries only
        shapes = 0
        for X, Y, A, B in itertools.product((1, 2, 3), (1, 2, 3), (2, 3), (2, 3)):
            sc = Scenario((X, Y), (A, B))
            # each party's identity map of label numbers
            alice, bob = _identity_labels(X, A), _identity_labels(Y, B)
            for m in (1, 2, 3):
                index, count, normalization, marginals, traces = _folded_rows(sc, m, ((alice, bob),))
                orbit_index, *orbit_rows = _orbit_rows(sc, m)
                assert dict(index) == dict(orbit_index) == {key: n for n, key in enumerate(orbit_index)}
                assert count == len(orbit_index)
                spanning = polytope.spanning_entries(sc)
                assert (normalization, marginals, traces) == (
                    orbit_rows[0], tuple((orbit_rows[1][e], (e,)) for e in spanning), orbit_rows[2]
                )
                shapes += 1
        assert shapes == 108

    def test_cached_rows_are_read_only(self):
        problem = ExtensionProblem(make_isotropic(F(1, 2)), "A", 2)
        rows = _orbit_rows(SC22, 2)
        index, normalization, marginals, traces = rows
        key = next(iter(index))
        with pytest.raises(TypeError):
            index[key] = 0
        with pytest.raises(TypeError):
            del index[key]
        assert all(type(part) is tuple for part in rows[1:])
        assert all(type(row) is tuple and type(row[0]) is tuple for row in normalization + traces)
        assert all(type(coeffs) is tuple for coeffs in marginals)
        # a program's row list is its own: changing it leaves the cache alone
        prog, _ = folded_extension_lp(problem)
        want = list(prog.eqs)
        prog.eqs.clear()
        prog.add_eq([(0, 1)], 1)
        assert _orbit_rows(SC22, 2) == rows
        assert folded_extension_lp(problem)[0].eqs == want
        # and so are the folded rows of the box's stabilizer
        group = canonical_form(_oriented(problem))[3]
        index, count, *parts = _folded_rows(SC22, 2, group)
        with pytest.raises(TypeError):
            index[key] = 0
        assert count < len(rows[0]) and all(type(part) is tuple for part in parts)


@pytest.mark.parametrize("copies", [True, False, 2.0, "2", F(2), None], ids=repr)
def test_copies_must_be_ints(copies):
    with pytest.raises(BadParams, match="copies must be an int"):
        ExtensionProblem(make_isotropic(F(1, 2)), "B", copies)


class TestLocalModelFromExtension:
    def test_from_isotropic_half_extension(self):
        box = make_isotropic(F(1, 2))
        problem = ExtensionProblem(box, "B", 2)
        witness = is_m_shareable(problem)
        model = local_model_from_extension(problem, witness.extension)
        assert model.reconstructs(box)  # m = Y, so the full box is local
        assert chsh(model.box()) == chsh(box) == 0

    def test_from_product_extension_product_responses(self):
        box = uniform_box(SC22)
        problem = ExtensionProblem(box, "B", 2)
        witness = is_m_shareable(problem)
        model = local_model_from_extension(problem, witness.extension)
        assert model.reconstructs(box)

    def test_restricted_reconstruction_m1(self):
        box = make_isotropic(F(1, 2))
        problem = ExtensionProblem(box, "B", 1)
        witness = is_m_shareable(problem)
        model = local_model_from_extension(problem, witness.extension, y_values=(1,))
        assert model.box() == restrict_bob_inputs(box, (1,))

    def test_shared_party_a_model(self):
        box = make_isotropic(F(1, 2))
        problem = ExtensionProblem(box, "A", 2)
        witness = is_m_shareable(problem)
        model = local_model_from_extension(problem, witness.extension)
        assert model.reconstructs(box)

    @pytest.mark.parametrize("party", ["A", "B"])
    def test_matches_the_walk(self, party, ns_vertices):
        rng = random.Random(7121)
        sc32 = Scenario((3, 2), (2, 2))
        strategies = deterministic_strategies(sc32)
        boxes = [make_isotropic(F(1, 2)), make_isotropic(F(2, 5)), asymmetric_giso(F(2, 5)), uniform_box(SC22)]
        boxes += [random_local_box(rng, ns_vertices) for _ in range(3)]
        boxes += [mix([s.box() for s in rng.sample(strategies, 4)], [F(k, 10) for k in (1, 2, 3, 4)])
                  for _ in range(2)]
        for box in boxes:
            Y = box.scenario.inputs[1 if party == "B" else 0]
            for m in (1, 2):
                problem = ExtensionProblem(box, party, m)
                extension = is_m_shareable(problem).extension
                assert extension is not None
                for ys in itertools.product(range(Y), repeat=m):
                    got = local_model_from_extension(problem, extension, y_values=ys)
                    assert got == local_model_walk(problem, extension, ys)
                default = tuple(i % Y for i in range(m))
                assert local_model_from_extension(problem, extension) == local_model_walk(problem, extension, default)

    def test_not_an_extension(self):
        box = make_isotropic(F(1, 2))
        problem = ExtensionProblem(box, "B", 2)
        wrong = is_m_shareable(ExtensionProblem(uniform_box(SC22), "B", 2)).extension
        with pytest.raises(NotAnExtension):
            local_model_from_extension(problem, wrong)

    @pytest.mark.parametrize("y_values", [(True, 0), (0.0, 1), ("1", 0), (0, 2), (0,)], ids=repr)
    def test_takes_only_int_inputs_in_range(self, y_values):
        # int() would read True as input 1; 0.0 and "1" would end in a TypeError
        problem = ExtensionProblem(make_isotropic(F(1, 2)), "B", 2)
        extension = is_m_shareable(problem).extension
        with pytest.raises(BadParams, match="int inputs"):
            local_model_from_extension(problem, extension, y_values=y_values)


class TestInfiniteShareability:
    """A local box is m-shareable for every m: is_m_shareable builds the
    extension from its local model, each copy replaying the shared
    party's table."""

    def test_isotropic_half_extends_everywhere(self):
        box = make_isotropic(F(1, 2))
        for party in "AB":
            for m in (2, 3, 4):
                problem = ExtensionProblem(box, party, m)
                validate_extension(problem, is_m_shareable(problem).extension)

    def test_deterministic_box(self):
        strat = deterministic_strategies(SC22)[5]
        for party in "AB":
            problem = ExtensionProblem(strat.box(), party, 3)
            ext = is_m_shareable(problem).extension
            assert all(v in (ZERO, ONE) for v in ext.table)
            validate_extension(problem, ext)

    def test_copy_marginal_is_base(self):
        box = mix([make_isotropic(F(1, 3)), uniform_box(SC22)], [F(1, 2), F(1, 2)])
        ext = is_m_shareable(ExtensionProblem(box, "B", 2)).extension
        assert marginal(ext, (0, 1)) == box
        ext = is_m_shareable(ExtensionProblem(box, "A", 2)).extension
        assert marginal(ext, (1, 2)) == box

    def test_random_models_round_trip(self, ns_vertices):
        rng = random.Random(61)
        for _ in range(10):
            box = random_local_box(rng, ns_vertices)
            assert isinstance(is_local(box), LocalModel)
            for party in "AB":
                problem = ExtensionProblem(box, party, 3)
                validate_extension(problem, is_m_shareable(problem).extension)

    @pytest.mark.parametrize("m", [True, 2.0, "2", 0, None])
    def test_copy_count_must_be_a_positive_int(self, m):
        # a bool is an int to `<`, and a float or str would reach the scenario
        with pytest.raises(BadParams):
            ExtensionProblem(make_isotropic(F(1, 2)), "B", m)

    @pytest.mark.parametrize("m", [8, 20])
    def test_size_cap_before_building(self, m):
        # 4 * 4^8 entries pass the cap; m = 20 passes its bound on m
        # itself, before any table size is computed
        with pytest.raises(ExtensionTooLarge, match=f"m={m}"):
            ExtensionProblem(make_isotropic(F(1, 2)), "B", m)


class TestCloning:
    """Perfect cloning of Bob's wing into m copies is m-shareability toward B."""

    def test_pr_box_not_cloneable(self):
        witness = is_m_shareable(ExtensionProblem(pr_box(), "B", 2))
        assert not witness.feasible

    def test_local_box_cloneable_many_times(self):
        box = make_isotropic(F(1, 2))
        assert is_m_shareable(ExtensionProblem(box, "B", 3)).feasible
        # for larger m too, replaying the local model's Bob response clones
        # after the membership LP alone, and the result validates as a
        # 5-extension
        problem = ExtensionProblem(box, "B", 5)
        validate_extension(problem, is_m_shareable(problem).extension)

    def test_ceiling_is_half(self, monkeypatch):
        # one exact LP decides it, backed by a checkable dual certificate
        solves = []
        real_solve = lp.solve

        def counting_solve(prog):
            solves.append(prog)
            return real_solve(prog)

        monkeypatch.setattr(lp, "solve", counting_solve)
        assert isotropic_clone_ceiling() == F(1, 2)
        assert len(solves) == 1
        prog = _iso_ceiling_lp()
        out = real_solve(prog)
        assert out.status == lp.OPTIMAL and out.value == F(1, 2)
        assert out.certificate.kind == "dual"
        assert lp.verify_certificate(prog, out)

    @pytest.mark.parametrize("c", [F(1, 10), F(1, 2), F(3, 5), F(1)])
    def test_ceiling_program_at_c_is_the_folded_lp(self, c):
        # C moved to the right-hand sides gives isotropic-C's own program:
        # every isotropic box but the noise has the PR box's stabilizer
        prog = _iso_ceiling_lp()
        n = prog.num_vars - 1
        assert (prog.objective, prog.ineqs) == (((n, ONE),), [])

        def at(c):
            at_c = lp.LinearProgram(n)
            at_c.eqs = [(tuple((k, v) for k, v in row if k != n), rhs - c * dict(row).get(n, ZERO))
                        for row, rhs in prog.eqs]
            return at_c

        folded, _ = folded_extension_lp(ExtensionProblem(make_isotropic(c), "B", 2))
        assert folded.num_vars == n
        assert at(c).eqs == folded.eqs
        # the pins alone bound C by 1, so the program needs no bound row
        assert lp.solve(at(F(11, 10))).status == lp.INFEASIBLE


class TestMonogamy:
    def test_corner_values(self):
        assert monogamy_tradeoff(-1)[0] == 1
        assert monogamy_tradeoff(1)[0] == -1

    def test_tradeoff_is_minus_beta(self):
        # the tripartite nonsignaling set satisfies chsh_AB + chsh_AC <= 0
        # with equality reachable by mixing two PR pairings
        for beta in (F(-1, 2), F(0), F(1, 10), F(1, 4), F(3, 4)):
            value, out = monogamy_tradeoff(beta)
            assert value == -beta
            # the outcome proves the value against a fresh program
            assert out.value - 1 == value
            assert lp.verify_certificate(monogamy_lp(beta), out)

    def test_nonincreasing(self):
        grid = [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]
        values = [monogamy_tradeoff(b)[0] for b in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_beta_out_of_range(self):
        with pytest.raises(BadParams):
            monogamy_tradeoff(F(3, 2))

    def test_rows_read_chsh_of_the_two_pairs(self):
        # seeded mixtures of a PR box on AB, one on AC and two deterministic
        # strategies, so the two pairs' CHSH values differ
        rng = random.Random(1808)
        sc3 = Scenario((2, 2, 2), (2, 2, 2))
        pr_ab = tensor(pr_box(), uniform_box(Scenario((2,), (2,))))
        parts = [pr_ab, permute_parties(pr_ab, (0, 2, 1))]
        boxes = []
        for _ in range(6):
            chosen = parts + [s.box() for s in rng.sample(deterministic_strategies(sc3), 2)]
            weights = [rng.randrange(1, 6) for _ in chosen]
            boxes.append(mix(chosen, [F(w, sum(weights)) for w in weights]))
        assert any(chsh(marginal(b, (0, 1))) != chsh(marginal(b, (0, 2))) for b in boxes)
        for beta in (F(-1), F(-1, 2), F(0), F(1, 4), F(1)):
            prog = monogamy_lp(beta)
            [(row, rhs)] = prog.ineqs
            assert rhs == -(beta + 1)  # -chsh_AB - 1 <= -beta - 1
            for box in boxes:
                ac, ab = (sum((c * box.table[i] for i, c in pairs), ZERO) for pairs in (prog.objective, row))
                assert ac - 1 == chsh(marginal(box, (0, 2)))
                assert -ab - 1 == chsh(marginal(box, (0, 1)))

    def test_tightness_construction(self):
        # lambda PR_AB + (1-lambda) PR_AC realizes the -beta tradeoff line
        lam = F(2, 3)
        pr = pr_box()
        noise1 = uniform_box(Scenario((2,), (2,)))
        t1 = tensor(pr, noise1)  # A,B share PR; C noise
        t2 = permute_parties(tensor(pr, noise1), (0, 2, 1))  # A,C share PR
        box = mix([t1, t2], [lam, 1 - lam])
        ab = marginal(box, (0, 1))
        ac = marginal(box, (0, 2))
        assert chsh(ab) == 2 * lam - 1
        assert chsh(ac) == 1 - 2 * lam


class TestUniqueViolatorDecoupling:
    def _correlator_functional(self):
        sc = Scenario((2, 2), (2, 2))
        coeffs = [ZERO] * sc.table_size
        for a in (0, 1):
            for c in (0, 1):
                coeffs[_flat_of(sc, (a, c), (0, 0))] = ONE if a == c else -ONE
        return BellFunctional(sc, tuple(coeffs), ZERO)

    def test_chsh_ac_correlator_decouples_to_zero(self):
        assert unique_violator_decoupling(
            chsh_functional(), self._correlator_functional()
        ) == (0, 0)

    def _match_functional(self):
        # P(c = a at the first inputs), with three outputs
        sc = Scenario((2, 2), (3, 3))
        coeffs = [ZERO] * sc.table_size
        for a in range(3):
            coeffs[_flat_of(sc, (a, a), (0, 0))] = ONE
        return BellFunctional(sc, tuple(coeffs), ZERO)

    def test_cglmp3_match_probability_pinned(self):
        # pinned at 1/3 because the unique maximizer has uniform Alice
        # marginals, whatever Clare outputs
        hi, lo = unique_violator_decoupling(bell.cglmp(3), self._match_functional())
        assert hi == lo == F(1, 3)

    def test_raw_cglmp3_pins_its_maximizer(self):
        # the raw functional peaks at 4, not 1, at the same maximizer
        assert unique_violator_decoupling(bell.cglmp_raw(3), self._match_functional()) == (F(1, 3), F(1, 3))

    def test_doubled_chsh_pins_its_maximizer(self):
        # doubling coefficients and offset keeps the maximizer, the PR box,
        # and moves the maximum to 2
        f = chsh_functional()
        doubled = BellFunctional(f.scenario, tuple(2 * c for c in f.coefficients), 2 * f.offset)
        assert unique_violator_decoupling(doubled, self._correlator_functional()) == (0, 0)

    def test_constant_functional_trivially_pinned(self):
        sc = Scenario((2, 2), (2, 2))
        g = BellFunctional(sc, (ZERO,) * sc.table_size, F(5, 7))
        assert unique_violator_decoupling(chsh_functional(), g) == (F(5, 7), F(5, 7))

    def test_requires_unique_maximizer(self):
        sc = Scenario((2, 2), (2, 2))
        zero = BellFunctional(sc, (ZERO,) * sc.table_size, ZERO)
        with pytest.raises(NotUniqueMaximizer):
            unique_violator_decoupling(zero, self._correlator_functional())

    def test_refuses_other_shapes_before_any_lp(self, monkeypatch):
        solves = []
        monkeypatch.setattr(lp, "solve", lambda *args: solves.append(args))
        tri = Scenario((1, 1, 1), (2, 1, 1))
        tripartite = BellFunctional(tri, (ONE, ZERO), ZERO)
        three_outputs = self._match_functional()
        for f, g in [
            (tripartite, self._correlator_functional()),
            (chsh_functional(), tripartite),
            (chsh_functional(), three_outputs),
        ]:
            with pytest.raises(ScenarioMismatch):
                unique_violator_decoupling(f, g)
        assert solves == []


class TestPolygamyExample:
    def test_nonsignaling(self):
        assert is_nonsignaling(polygamy_example())

    def test_displayed_ab_marginal(self):
        box = polygamy_example()
        pab = marginal(box, (0, 1))
        pr = pr_box()
        for a in range(4):
            for b in range(4):
                for x in (0, 1):
                    for y in (0, 1):
                        want = ZERO
                        if a < 2 and b < 2:
                            want += prob(pr, (a, b), (x, y)) / 2
                        if a >= 2 and b >= 2:
                            want += F(1, 8)
                        assert prob(pab, (a, b), (x, y)) == want

    def test_both_marginals_nonlocal(self):
        box = polygamy_example()
        for pair in ((0, 1), (0, 2)):
            cert = is_local(marginal(box, pair))
            assert isinstance(cert, NonlocalityCertificate)
            assert cert.violation > 0

    def test_swap_symmetry(self):
        # exchanging Bob and Clare together with the {0,1} <-> {2,3}
        # output relabeling on every party maps the box to itself
        box = polygamy_example()
        swapped = permute_parties(box, (0, 2, 1))
        swap_symbols = (2, 3, 0, 1)
        in_perms = [(0, 1)] * 3
        out_perms = [[swap_symbols, swap_symbols]] * 3
        from boxlab.core import relabel

        assert relabel(swapped, in_perms, out_perms) == box


class TestGeneralizedBoxes:
    def test_gpr_two_is_pr(self):
        assert generalized_pr(2) == pr_box()

    def test_gpr_normalization_and_ns(self):
        for A in (3, 4):
            box = generalized_pr(A)
            assert is_nonsignaling(box)

    def test_giso_zero_weight_is_product(self):
        dist = [F(1, 2), F(1, 4), F(1, 4)]
        box = generalized_isotropic(3, 0, dist)
        for a in range(3):
            for b in range(3):
                assert prob(box, (a, b), (1, 0)) == dist[a] * dist[b]

    def test_giso_uniform_noise_shift_invariant(self):
        box = generalized_isotropic(3, F(1, 2))
        assert shared_shift_symmetrize(box) == box

    def test_shift_makes_marginals_uniform(self):
        box = generalized_isotropic(3, F(2, 5), [F(1), F(0), F(0)])
        sym = shared_shift_symmetrize(box)
        for party in (0, 1):
            assert all(v == F(1, 3) for v in marginal(sym, (party,)).table)

    def test_shift_fixes_gpr_part_exactly(self):
        # the PR component survives; the noise becomes diagonal-invariant,
        # which for point noise is correlated rather than a product
        c = F(1, 3)
        box = generalized_isotropic(2, c, [F(1), F(0)])
        sym = shared_shift_symmetrize(box)
        diag = mix(
            [deterministic_strategies(SC22)[0].box(), deterministic_strategies(SC22)[15].box()],
            [F(1, 2), F(1, 2)],
        )
        assert sym == mix([pr_box(), diag], [c, 1 - c])

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generalized_pr(1)
        with pytest.raises(BadParams):
            generalized_isotropic(3, F(1, 2), [F(1, 2), F(1, 2)])


class _Calls:
    """Counts is_m_shareable's LPs: every program lp.solve gets, and the
    problems folded_extension_lp is asked for."""

    def __init__(self, mp):
        self.solved, self.folded = [], []
        solve, fold = lp.solve, shareability.folded_extension_lp

        def counting_solve(prog):
            self.solved.append(prog)
            return solve(prog)

        def counting_fold(problem, *canonical):
            self.folded.append(problem)
            return fold(problem, *canonical)

        mp.setattr(lp, "solve", counting_solve)
        mp.setattr(shareability, "folded_extension_lp", counting_fold)


def _stated(progs) -> list:
    """Each program as what it states: variables, objective and rows."""
    return [(prog.num_vars, prog.objective, prog.eqs, prog.ineqs) for prog in progs]


def _is_local_programs(box, monkeypatch) -> list:
    """The programs locality.is_local(box) solves, in order."""
    with monkeypatch.context() as mp:
        calls = _Calls(mp)
        is_local(box)
    return _stated(calls.solved)


# at m = 3 the orbit LP alone takes 1.5-50 s on a seeded box of these,
# local (the stall the model path removes) or nonlocal (which the Bell
# functional's lift decides without it)
SLOW_ORBIT_LP_AT_THREE = SMALL_SCENARIOS[2:]


class TestOnePath:
    """The oriented base box is decided by locality.is_local: a local one
    by its model; a nonlocal one at m >= Y by its Bell functional, lifted
    into a Farkas vector of the orbit program; any other goes on to the
    orbit LP.  No LP is solved beyond is_local's and that one."""

    def _boxes(self, sc):
        rng = random.Random(f"one path {sc.inputs} {sc.outputs}")
        local = _skewed_local_box(sc, rng, 3)
        nonlocal_ = mix([pr_type(sc), _skewed_local_box(sc, rng, 3)], [F(3, 4), F(1, 4)])
        assert isinstance(is_local(local), LocalModel)
        assert isinstance(is_local(nonlocal_), NonlocalityCertificate)
        return local, nonlocal_

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("sc", SMALL_SCENARIOS, ids=str)
    def test_verdict_is_the_orbit_lps(self, sc, m, monkeypatch):
        # the orbit LP is solved here too, except where it is slow
        slow = m == 3 and sc in SLOW_ORBIT_LP_AT_THREE
        local, nonlocal_ = self._boxes(sc)
        for box in (local, nonlocal_):
            for party in "AB":
                problem = ExtensionProblem(box, party, m)
                oriented = _oriented(problem)
                # a 2222 box and a CHSH-type row's nonlocal box solve no LP,
                # a local box of another scenario one membership LP
                own = _is_local_programs(oriented, monkeypatch)
                assert len(own) == (box is local and sc.table_size > 16)
                with monkeypatch.context() as mp:
                    calls = _Calls(mp)
                    witness = is_m_shareable(problem)
                prog = folded_extension_lp(problem)[0]
                solved = _stated(calls.solved)
                assert solved[:len(own)] == own
                if box is local:
                    assert witness.feasible and calls.folded == [] and solved == own
                elif m >= oriented.scenario.inputs[1]:
                    # the lift: no program solved but is_local's
                    assert calls.folded == [problem] and solved == own
                else:
                    # m < Y: the verdict is the orbit LP's, its program solved last
                    assert calls.folded == [problem] and solved == own + _stated([prog])
                if not slow:
                    assert witness.feasible == (lp.solve(prog).status == lp.OPTIMAL)
                if witness.feasible:
                    validate_extension(problem, witness.extension)
                else:
                    outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
                    assert lp.verify_certificate(prog, outcome)
                if m == 1 or (m == 2 and sc.table_size == 16):
                    assert witness.feasible == unfolded_extension_feasible(box, party, m)
                # local boxes are shareable to every m; the nonlocal ones are
                # nonlocal on inputs 0 and 1 alone, so shareable only to m = 1
                assert witness.feasible == (box is local or m == 1)

    @pytest.mark.parametrize("party", "AB")
    def test_above_the_strategy_cap_only_the_orbit_lp(self, party, monkeypatch):
        # 2^14 * 2 = 32,768 strategies: no membership LP is tried
        sc = Scenario((14, 1), (2, 2))
        assert polytope.strategy_count(sc) > locality.STRATEGY_CAP
        problem = ExtensionProblem(uniform_box(sc), party, 2)
        calls = _Calls(monkeypatch)
        witness = is_m_shareable(problem)
        assert witness.feasible
        assert calls.folded == [problem] and len(calls.solved) == 1
        assert calls.solved[0].eqs == folded_extension_lp(problem)[0].eqs

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("party", "AB")
    def test_local_3322_mixture_at_three_copies(self, party, seed, monkeypatch):
        # the orbit LP took up to 26,573 pivots and minutes on such boxes;
        # the model decides them with is_local's one membership LP
        sc = Scenario((3, 3), (2, 2))
        box = _skewed_local_box(sc, random.Random(seed), 5)
        problem = ExtensionProblem(box, party, 3)
        own = _is_local_programs(_oriented(problem), monkeypatch)
        calls = _Calls(monkeypatch)
        witness = is_m_shareable(problem)
        assert witness.feasible and calls.folded == []
        assert len(own) == 1 and _stated(calls.solved) == own
        validate_extension(problem, witness.extension)


def _seeded_pr_mixture(sc: Scenario, seed: int):
    """Half a PR-type box (conftest.pr_type), half four strategies drawn by
    random.Random(seed) with weights randint(1, 9).  Solving the orbit LP
    of the 3322 one at seed 1003 took 62 s at m = 3 toward B (Python
    3.11, 2 vCPUs)."""
    rng = random.Random(seed)
    strategies = [rng.choice(deterministic_strategies(sc)) for _ in range(4)]
    weights = [rng.randint(1, 9) for _ in strategies]
    local = mix([s.box() for s in strategies], [F(w, sum(weights)) for w in weights])
    return mix([pr_type(sc), local], [F(1, 2), F(1, 2)])


SC3322, SC2233 = Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3))

# nonlocal boxes at m >= Y, as (box, m); seconds per case, both parties,
# checked against the full table: at most 0.3 s on the 1,296-column
# programs (Python 3.11, 2 vCPUs), where solving one took up to 357 s
LIFT_CASES = {
    "pr-m2": (pr_box(), 2), "pr-m3": (pr_box(), 3),
    "iso-3/5-m2": (make_isotropic(F(3, 5)), 2), "iso-11/20-m3": (make_isotropic(F(11, 20)), 3),
    "giso3-7/10-m2": (generalized_isotropic(3, F(7, 10)), 2),
    "giso3-27/50-m2": (generalized_isotropic(3, F(27, 50)), 2),
    "3322-1001-m3": (_seeded_pr_mixture(SC3322, 1001), 3),
    "3322-1003-m3": (_seeded_pr_mixture(SC3322, 1003), 3),
    "2233-1001-m2": (_seeded_pr_mixture(SC2233, 1001), 2),
    "2233-1003-m3": (_seeded_pr_mixture(SC2233, 1003), 3),
}


class TestBellLift:
    """A nonlocal box has no symmetric extension to m >= Y copies: the
    paper's proof, as a Farkas vector built from the Bell functional."""

    @pytest.mark.parametrize("party", "AB")
    @pytest.mark.parametrize("case", LIFT_CASES.values(), ids=LIFT_CASES)
    def test_the_proof_is_a_farkas_vector_of_the_full_table(self, case, party):
        # built row by row on the unfolded program, from is_local's
        # normalized functional of the oriented box, folding nothing
        box, m = case
        oriented = _oriented(ExtensionProblem(box, party, m))
        functional = is_local(oriented).functional
        outcome = unfolded_bell_lift(box, party, m, (functional.coefficients, functional.offset))
        assert lp.verify_certificate(unfolded_extension_lp(box, party, m), outcome)

    @pytest.mark.parametrize("party", "AB")
    @pytest.mark.parametrize("case", LIFT_CASES.values(), ids=LIFT_CASES)
    def test_one_membership_lp_decides(self, case, party, monkeypatch):
        # relabeled, so the functional is read in the canonical frame; the
        # orbit LP is solved here where it takes under a second
        box, m = case
        box = relabel(box, *random_relabeling(random.Random(f"lift {party} {m}"), box.scenario))
        problem = ExtensionProblem(box, party, m)
        own = _is_local_programs(_oriented(problem), monkeypatch)
        calls = _Calls(monkeypatch)
        witness = is_m_shareable(problem)
        # no LP beyond is_local's: none where a CHSH-type row certifies the box
        assert not witness.feasible and _stated(calls.solved) == own and calls.folded == [problem]
        prog = folded_extension_lp(problem)[0]
        assert lp.verify_certificate(prog, lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate))
        if box.scenario.table_size == 16 or m == 2:
            assert lp.solve(prog).status == lp.INFEASIBLE

    @pytest.mark.parametrize("party", "AB")
    def test_a_functional_from_the_membership_lp_is_lifted(self, party, monkeypatch):
        # no CHSH-type row catches generalized isotropic A=3 at 27/50, so
        # is_local's functional comes from the membership LP's Farkas
        # vector and normalize's NS maximum, the two LPs solved here
        box = generalized_isotropic(3, F(27, 50))
        sc = box.scenario
        assert locality._violated_facet(sc, *core.numerators(box.table)) is None
        problem = ExtensionProblem(box, party, 2)
        calls = _Calls(monkeypatch)
        witness = is_m_shareable(problem)
        oriented = _oriented(problem)
        membership, ns_maximum = calls.solved
        assert membership.eqs == locality.membership_lp(oriented, canonical_form(oriented))[0].eqs
        assert ns_maximum.eqs == polytope.ns_lp(sc).eqs
        outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
        assert not witness.feasible and lp.verify_certificate(folded_extension_lp(problem)[0], outcome)

    @pytest.mark.parametrize("party", "AB")
    def test_one_canonical_search(self, party, monkeypatch):
        # the membership LP of is_local searched for the base's canonical
        # form; the orbit program and the lift are stated on that one
        searched, search = [], polytope.canonical_form

        def counted(box):
            searched.append(box)
            return search(box)

        monkeypatch.setattr(polytope, "canonical_form", counted)
        problem = ExtensionProblem(generalized_isotropic(3, F(27, 50)), party, 2)
        witness = is_m_shareable(problem)
        assert not witness.feasible and searched == [_oriented(problem)]

    @pytest.mark.parametrize("seed", [1001, 1002, 1003, 1010])
    def test_seeded_3322_boxes_at_three_and_four_copies(self, seed):
        # 410 x 336 and 985 x 756 folded programs, whose solve takes up to
        # a minute at m = 3; the lift decides each in milliseconds
        box = _seeded_pr_mixture(SC3322, seed)
        for m in (3, 4):
            problem = ExtensionProblem(box, "B", m)
            witness = is_m_shareable(problem)
            outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=witness.certificate)
            assert not witness.feasible and lp.verify_certificate(folded_extension_lp(problem)[0], outcome)


class TestFoldedMembership:
    """locality._solved_model given the box's canonical form: the
    membership LP of the canonical table, folded by its stabilizer."""

    def _boxes(self, ns_vertices):
        # symmetric and asymmetric, local and nonlocal, each relabeled
        rng = random.Random("folded membership")
        boxes = [make_isotropic(c) for c in (F(2, 5), F(1, 2), F(3, 5))]
        boxes += [generalized_isotropic(3, c) for c in (F(2, 5), F(7, 10))]
        boxes += [asymmetric_giso(c) for c in (F(2, 5), F(3, 5))]
        boxes += [random_ns_box(rng, ns_vertices, nonlocal_bias=b) for b in (0, 60)]
        for sc in SMALL_SCENARIOS:
            local = _skewed_local_box(sc, rng, 3)
            boxes += [uniform_box(sc), local, mix([pr_type(sc), local], [F(3, 4), F(1, 4)])]
        return [relabel(box, *random_relabeling(rng, box.scenario)) for box in boxes]

    def test_verdict_is_the_unfolded_ones(self, ns_vertices):
        verdicts = set()
        for box in self._boxes(ns_vertices):
            canonical = canonical_form(box)
            folded, plain = locality._solved_model(box, canonical), locality._solved_model(box, own_form(box))
            local = isinstance(folded, LocalModel)
            assert local == isinstance(plain, LocalModel)
            verdicts.add(local)
            prog = locality.membership_lp(box, canonical)[0]
            strategies = polytope.strategy_count(box.scenario)
            # one class per strategy exactly when the stabilizer is trivial;
            # a column only for the classes over the table's support
            classes = len(locality._membership_rows(box.scenario, canonical[3])[0])
            assert classes <= strategies and (classes < strategies) == (len(canonical[3]) > 1)
            assert prog.num_vars == len(locality._support(box.scenario, canonical[3], canonical[0])) <= classes
            if local:
                # spread over every strategy of a class, in the box's own labels
                assert folded.scenario == box.scenario and folded.reconstructs(box)
                assert all(w > 0 for w in folded.weights)
                assert len(set(folded.strategies)) == len(folded.strategies)
            else:
                assert lp.verify_certificate(prog, folded)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("box, sizes", [
        (make_isotropic(F(2, 5)), ((16, 9), (2, 2))),
        (make_isotropic(F(3, 5)), ((16, 9), (2, 2))),
        (generalized_isotropic(3, F(2, 5)), ((81, 25), (9, 3))),
        (generalized_isotropic(3, F(7, 10)), ((81, 25), (9, 3))),
    ])
    def test_relabelings_share_one_small_program(self, box, sizes):
        # (columns, rows) unfolded and folded, the same for every relabeling
        relabeled = [relabel(box, *random_relabeling(random.Random(s), box.scenario)) for s in range(3)]
        progs = [locality.membership_lp(labeled, canonical_form(labeled))[0] for labeled in [box, *relabeled]]
        unfolded = locality.membership_lp(box, own_form(box))[0]
        assert ((unfolded.num_vars, len(unfolded.eqs)), (progs[0].num_vars, len(progs[0].eqs))) == sizes
        assert all(prog.eqs == progs[0].eqs for prog in progs)
