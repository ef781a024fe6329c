import math
import random
from fractions import Fraction as F

import pytest

from boxlab import bell, core, lp, shareability
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
    uniform_box,
)
from boxlab.isotropic import make_isotropic
from boxlab.locality import LocalModel, NonlocalityCertificate, is_local
from boxlab.polytope import DeterministicStrategy, deterministic_strategies
from boxlab.shareability import (
    BadParams,
    ExtensionProblem,
    ExtensionTooLarge,
    NotAnExtension,
    NotUniqueMaximizer,
    _canonical_problem,
    _iso_ceiling_lp,
    _orbit_rows,
    _unfold,
    folded_extension_lp,
    generalized_isotropic,
    generalized_pr,
    infinite_shareability_extension,
    is_m_shareable,
    isotropic_clone_ceiling,
    local_model_from_extension,
    monogamy_lp,
    monogamy_tradeoff,
    polygamy_example,
    restrict_bob_inputs,
    shared_shift_symmetrize,
    unique_violator_decoupling,
    validate_extension,
)
from conftest import asymmetric_giso, random_local_box, random_ns_box, tensor
from oracles import (
    canonical_relabeling,
    unfold_by_relabeling,
    unfolded_extension_feasible,
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
        extension = infinite_shareability_extension(is_local(box), 4)
        calls = []

        def counting(real):
            def wrapped(*args, **kwargs):
                calls.append(args[0])
                return real(*args, **kwargs)
            return wrapped

        # marginal() calls the one in core, validate_extension its own import
        monkeypatch.setattr(core, "is_nonsignaling", counting(core.is_nonsignaling))
        monkeypatch.setattr(shareability, "is_nonsignaling", counting(shareability.is_nonsignaling))
        validate_extension(problem, extension)
        assert calls == [extension]

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

    def test_unexpected_lp_status_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "solve", lambda prog: lp.LpOutcome(lp.UNBOUNDED))
        with pytest.raises(UnexpectedLpStatus):
            is_m_shareable(ExtensionProblem(make_isotropic(F(1, 2)), "B", 2))
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


class TestSharedPartyA:
    @pytest.mark.parametrize("m", [2, 3])
    def test_asymmetric_box_toward_a(self, m):
        box = asymmetric_giso(F(2, 5))
        problem = ExtensionProblem(box, "A", m)
        witness = is_m_shareable(problem)
        assert witness.feasible
        validate_extension(problem, witness.extension)
        assert marginal(witness.extension, (0, m)) == box

    @pytest.mark.parametrize("c", [F(2, 5), F(3, 5)])
    def test_toward_a_equals_toward_b_of_swapped(self, c):
        box = asymmetric_giso(c)
        toward_a = is_m_shareable(ExtensionProblem(box, "A", 2))
        toward_b = is_m_shareable(ExtensionProblem(permute_parties(box, (1, 0)), "B", 2))
        assert toward_a.feasible == toward_b.feasible == (c <= F(1, 2))
        if toward_a.feasible:
            swapped = permute_parties(toward_a.extension, (2, 0, 1))
            validate_extension(
                ExtensionProblem(permute_parties(box, (1, 0)), "B", 2), swapped
            )


def _random_relabeling(rng: random.Random, sc: Scenario):
    ins = [tuple(rng.sample(range(x), x)) for x in sc.inputs]
    outs = [
        [tuple(rng.sample(range(a), a)) for _ in range(x)]
        for x, a in zip(sc.inputs, sc.outputs)
    ]
    return ins, outs


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
            ExtensionProblem(relabel(box, *_random_relabeling(rng, box.scenario)), party, m)
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
        table, fixed, copy = _canonical_problem(problem)
        assert table == problem.base.table
        assert fixed == copy == _identity_labels(2, 2)
        # unfolding leaves every entry in place: each reads its own orbit
        index = _orbit_rows(SC22, "B", 2)[0]
        orbit_of = walked_orbit_rows(problem)[0]
        assert list(_unfold(problem, fixed, copy, index, range(len(index)))) == orbit_of

    def test_large_alphabets_keep_their_labels(self):
        # 4 outputs per party: over a million relabelings, no search
        box = generalized_isotropic(4, F(1, 2))
        problem = ExtensionProblem(box, "B", 1)
        table, fixed, copy = _canonical_problem(problem)
        assert table is box.table
        assert fixed == copy == _identity_labels(2, 4)
        witness = is_m_shareable(problem)
        assert witness.feasible
        assert witness.extension == box


def _identity_labels(inputs, outputs):
    return {(a, x): (a, x) for x in range(inputs) for a in range(outputs)}


class TestUnfold:
    """The one-pass unfold against the table-first one it replaced: the
    canonical problem's extension table, then core.relabel."""

    def _check(self, problem, relabeling):
        table, fixed, copy = _canonical_problem(problem)
        index = _orbit_rows(problem.base.scenario, problem.shared_party, problem.copies)[0]
        # distinct values, so every entry must read its own orbit
        values = range(len(index))
        assert _unfold(problem, fixed, copy, index, values) == unfold_by_relabeling(
            problem, relabeling, values
        )
        return table

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("party", "AB")
    def test_maps_match_the_relabeling(self, party, m):
        rng = random.Random(f"unfold {party} {m}")
        for sc in (SC22, Scenario((3, 2), (2, 2)), Scenario((2, 2), (2, 3))):
            box = relabel(_skewed_local_box(sc, rng), *_random_relabeling(rng, sc))
            table, relabeling = canonical_relabeling(box)
            assert self._check(ExtensionProblem(box, party, m), relabeling) == table

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("party", "AB")
    def test_over_the_cap_keeps_the_labels(self, party, m):
        box = generalized_isotropic(4, F(1, 2))
        assert self._check(ExtensionProblem(box, party, m), None) is box.table


def _skewed_local_box(sc: Scenario, rng: random.Random):
    """Mixture of up to four deterministic strategies with weights 1..4,
    so the marginal right-hand sides differ from entry to entry."""
    strategies = deterministic_strategies(sc)
    picked = rng.sample(strategies, min(4, len(strategies)))
    weights = range(1, len(picked) + 1)
    return mix([s.box() for s in picked], [F(w, sum(weights)) for w in weights])


# (X, Y, A, B): 2222, then each alphabet in turn at 1 and at 3, then two mixed
ORBIT_ALPHABETS = [(2, 2, 2, 2)] + [
    tuple(size if k == i else 2 for k in range(4)) for i in range(4) for size in (1, 3)
] + [(1, 3, 3, 2), (3, 2, 1, 3)]


class TestOrbitRows:
    def _check(self, problem):
        orbit_of, n_orbits, rows = walked_orbit_rows(problem)
        base, party, m = problem.base, problem.shared_party, problem.copies
        index, normalization, marginals, traces = _orbit_rows(base.scenario, party, m)
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
        labels = (alice, bob) if party == "B" else (bob, alice)
        assert list(_unfold(problem, *labels, index, range(n_orbits))) == orbit_of
        fixed, copy = (A * X, B * Y) if party == "B" else (B * Y, A * X)
        assert n_orbits == fixed * math.comb(copy + m - 1, m)

    @pytest.mark.parametrize("party", "AB")
    @pytest.mark.parametrize("alphabets", ORBIT_ALPHABETS)
    def test_rows_match_the_walk(self, alphabets, party):
        X, Y, A, B = alphabets
        sc = Scenario((X, Y), (A, B))
        box = _skewed_local_box(sc, random.Random(str(alphabets)))
        for m in (1, 2, 3):
            self._check(ExtensionProblem(box, party, m))

    @pytest.mark.parametrize("party", "AB")
    @pytest.mark.parametrize("m", [4, 5])
    def test_rows_match_the_walk_for_more_copies(self, m, party):
        self._check(ExtensionProblem(_skewed_local_box(SC22, random.Random(m)), party, m))

    def test_one_build_per_shape(self):
        _orbit_rows.cache_clear()
        boxes = (make_isotropic(F(1, 2)), asymmetric_giso(F(3, 5)))
        problems = [ExtensionProblem(box, "B", 3) for box in boxes]
        progs = [folded_extension_lp(problem)[0] for problem in problems]
        info = _orbit_rows.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        normalization, marginals, traces = _orbit_rows(SC22, "B", 3)[1:]
        first, second = (prog.eqs for prog in progs)
        # the very same coefficient tuples, not equal copies
        assert len(first) == len(second)
        assert all(a is b for (a, _), (b, _) in zip(first, second))
        # the programs differ only in the marginal right-hand sides, each
        # the table of the base box's canonical relabeling
        for prog, problem in zip(progs, problems):
            table = _canonical_problem(problem)[0]
            assert prog.eqs == [*normalization, *zip(marginals, table), *traces]
        differ = [k for k, (a, b) in enumerate(zip(first, second)) if a != b]
        assert differ and all(len(normalization) <= k < len(normalization) + 16 for k in differ)

    def test_cached_rows_are_read_only(self):
        problem = ExtensionProblem(make_isotropic(F(1, 2)), "A", 2)
        rows = _orbit_rows(SC22, "A", 2)
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
        assert _orbit_rows(SC22, "A", 2) == rows
        assert folded_extension_lp(problem)[0].eqs == want


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

    def test_not_an_extension(self):
        box = make_isotropic(F(1, 2))
        problem = ExtensionProblem(box, "B", 2)
        wrong = infinite_shareability_extension(
            is_local(uniform_box(SC22)), 2
        )
        with pytest.raises(NotAnExtension):
            local_model_from_extension(problem, wrong)


class TestInfiniteShareability:
    def test_isotropic_half_extends_everywhere(self):
        box = make_isotropic(F(1, 2))
        model = is_local(box)
        assert isinstance(model, LocalModel)
        for m in (2, 3, 4):
            ext = infinite_shareability_extension(model, m)
            validate_extension(ExtensionProblem(box, "B", m), ext)

    def test_deterministic_box(self):
        strat = deterministic_strategies(SC22)[5]
        model = is_local(strat.box())
        ext = infinite_shareability_extension(model, 3)
        assert all(v in (ZERO, ONE) for v in ext.table)
        validate_extension(ExtensionProblem(strat.box(), "B", 3), ext)

    def test_copy_marginal_is_base(self):
        box = mix([make_isotropic(F(1, 3)), uniform_box(SC22)], [F(1, 2), F(1, 2)])
        model = is_local(box)
        ext = infinite_shareability_extension(model, 2)
        assert marginal(ext, (0, 1)) == box

    def test_random_models_round_trip(self, ns_vertices):
        rng = random.Random(61)
        for _ in range(10):
            box = random_local_box(rng, ns_vertices)
            model = is_local(box)
            assert isinstance(model, LocalModel)
            ext = infinite_shareability_extension(model, 3)
            validate_extension(ExtensionProblem(box, "B", 3), ext)


class TestCloning:
    """Perfect cloning of Bob's wing into m copies is m-shareability toward B."""

    def test_pr_box_not_cloneable(self):
        witness = is_m_shareable(ExtensionProblem(pr_box(), "B", 2))
        assert not witness.feasible

    def test_local_box_cloneable_many_times(self):
        box = make_isotropic(F(1, 2))
        assert is_m_shareable(ExtensionProblem(box, "B", 3)).feasible
        # for larger m, replaying the local model's Bob response clones
        # without any LP, and the result validates as a 5-extension
        ext5 = infinite_shareability_extension(is_local(box), 5)
        validate_extension(ExtensionProblem(box, "B", 5), ext5)

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

    def test_ceiling_program_matches_the_walk(self):
        # the noise box's walked rows, with C as one more column
        _, n, rows = walked_orbit_rows(ExtensionProblem(make_isotropic(0), "B", 2))
        pr = make_isotropic(1)
        walked = lp.LinearProgram(n + 1, [(n, ONE)])
        walked.set_upper(n, ONE)
        for coeffs, rhs, entry in rows:
            walked.add_eq(coeffs + ((n, rhs - pr.prob(*entry) if entry else ZERO),), rhs)
        prog = _iso_ceiling_lp()
        assert (prog.num_vars, prog.objective, prog.eqs, prog.ineqs, prog.upper) == (
            walked.num_vars, walked.objective, walked.eqs, walked.ineqs, walked.upper
        )


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
                coeffs[sc.flat_index((a, c), (0, 0))] = ONE if a == c else -ONE
        return BellFunctional(sc, tuple(coeffs), ZERO)

    def test_chsh_ac_correlator_decouples_to_zero(self):
        assert unique_violator_decoupling(
            chsh_functional(), self._correlator_functional()
        ) == (0, 0)

    def test_cglmp3_match_probability_pinned(self):
        # P(c = a at the first inputs): pinned at 1/3 because the unique
        # maximizer has uniform Alice marginals, whatever Clare outputs
        f3 = bell.cglmp(3)
        sc = Scenario((2, 2), (3, 3))
        coeffs = [ZERO] * sc.table_size
        for a in range(3):
            coeffs[sc.flat_index((a, a), (0, 0))] = ONE
        g = BellFunctional(sc, tuple(coeffs), ZERO)
        hi, lo = unique_violator_decoupling(f3, g)
        assert hi == lo == F(1, 3)

    def test_constant_functional_trivially_pinned(self):
        sc = Scenario((2, 2), (2, 2))
        g = BellFunctional(sc, (ZERO,) * sc.table_size, F(5, 7))
        assert unique_violator_decoupling(chsh_functional(), g) == (F(5, 7), F(5, 7))

    def test_requires_unique_maximizer(self):
        sc = Scenario((2, 2), (2, 2))
        zero = BellFunctional(sc, (ZERO,) * sc.table_size, ZERO)
        with pytest.raises(NotUniqueMaximizer):
            unique_violator_decoupling(zero, self._correlator_functional())


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
                            want += pr.prob((a, b), (x, y)) / 2
                        if a >= 2 and b >= 2:
                            want += F(1, 8)
                        assert pab.prob((a, b), (x, y)) == want

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
                assert box.prob((a, b), (1, 0)) == dist[a] * dist[b]

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
