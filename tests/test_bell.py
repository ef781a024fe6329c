import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from boxlab import bell, lp, polytope
from boxlab.bell import (
    BadParams,
    BellFunctional,
    cglmp,
    cglmp_raw,
    chsh,
    chsh_functional,
    correlators,
    normalization_bounds,
    normalize,
    pr_box,
    unique_ns_maximizer,
)
from boxlab.core import Box, Scenario, ScenarioMismatch, mix, relabel
from boxlab.isotropic import make_isotropic
from conftest import canonical_2222, pr_type, random_ns_box, random_relabeling, relabelings_2222, tensor
from oracles import (
    cglmp_coefficients_walk,
    chsh_coefficients_walk,
    correlators_walk,
    face_walk_unique_maximizer,
    local_bound_by_enumeration,
    ns_vertices_2222_by_enumeration,
    uniform_box,
)


class TestCorrelators:
    def test_pr(self):
        assert correlators(pr_box()) == (F(1), F(1), F(1), F(-1))

    def test_uniform(self):
        assert correlators(uniform_box(Scenario((2, 2), (2, 2)))) == (
            F(0),
        ) * 4

    def test_isotropic_family(self):
        for c in (F(0), F(1, 3), F(7, 10), F(1)):
            assert correlators(make_isotropic(c)) == (c, c, c, -c)

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            correlators(uniform_box(Scenario((2, 2), (3, 3))))

    def test_matches_the_walk(self, ns_vertices):
        rng = random.Random(32)
        for box in [*ns_vertices, *(random_ns_box(rng, ns_vertices) for _ in range(40))]:
            assert correlators(box) == correlators_walk(box)


class TestCoefficientTables:
    """The functionals' coefficient tables, each entry placed by the
    package's layout, against the same sums placed at oracles._flat_of."""

    def test_chsh_functional(self):
        assert list(chsh_functional().coefficients) == chsh_coefficients_walk()

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cglmp_raw(self, d):
        assert list(cglmp_raw(d).coefficients) == cglmp_coefficients_walk(d)


class TestChsh:
    def test_isotropic_line(self):
        for c in (F(0), F(1, 4), F(1, 2), F(7, 10), F(1)):
            assert chsh(make_isotropic(c)) == 2 * c - 1

    def test_pr_box_maximal(self):
        assert chsh(pr_box()) == 1

    def test_uniform_noise(self):
        assert chsh(uniform_box(Scenario((2, 2), (2, 2)))) == -1

    def test_functional_agrees_with_direct_formula(self, ns_vertices):
        f = chsh_functional()
        for v in ns_vertices:
            assert f.evaluate(v) == chsh(v)

    def test_functional_is_normalized(self):
        local, ns_max = normalization_bounds(chsh_functional())
        assert local == 0
        assert ns_max == 1


class TestChshFacets:
    def test_each_is_normalized(self):
        vertices = ns_vertices_2222_by_enumeration()
        for f in bell.chsh_facets():
            assert local_bound_by_enumeration(f) == 0
            assert max(f.evaluate(v) for v in vertices) == 1

    def test_the_distinct_relabelings_of_chsh(self):
        # the coefficient table relabeled as a box's table is; a Box
        # holds any table it is given
        f = chsh_functional()
        relabeled = {relabel(Box(f.scenario, f.coefficients), *r).table for r in relabelings_2222()}
        facets = bell.chsh_facets()
        assert len(facets) == 8 == len(relabeled)
        assert {g.coefficients for g in facets} == relabeled
        assert {g.offset for g in facets} == {f.offset}

    def test_facet_k_is_maximized_by_pr_vertex_k(self, ns_vertices):
        for k, f in enumerate(bell.chsh_facets()):
            assert [f.evaluate(v) == 1 for v in ns_vertices] == [n == 16 + k for n in range(24)]


class TestCglmp:
    def test_d2_matches_chsh_up_to_relabeling(self, ns_vertices):
        f2 = cglmp(2)
        relabelings = relabelings_2222()
        matches = [
            rl
            for rl in relabelings
            if all(f2.evaluate(relabel(v, *rl)) == chsh(v) for v in ns_vertices)
        ]
        assert matches, "no relabeling identifies cglmp(2) with chsh"

    def test_d3_raw_bounds(self):
        # probability form: local bound 2, nonsignaling algebraic max 4
        local, ns_max = normalization_bounds(cglmp_raw(3))
        assert (local, ns_max) == (2, 4)

    def test_d3_normalized_ns_max_is_one(self):
        local, ns_max = normalization_bounds(cglmp(3))
        assert (local, ns_max) == (0, 1)

    @pytest.mark.parametrize("d", range(2, bell.CGLMP_CAP + 1))
    def test_closed_form_matches_the_lp(self, d):
        # the closed form takes local bound 2 and NS maximum 4 for every d;
        # normalize finds both by strategy enumeration and an LP
        assert normalization_bounds(cglmp_raw(d)) == (2, 4)
        assert cglmp(d) == normalize(cglmp_raw(d))

    def test_d3_uniform_noise_negative(self):
        value = cglmp(3).evaluate(uniform_box(Scenario((2, 2), (3, 3))))
        assert value == -1
        assert value < 0

    def test_cap(self):
        with pytest.raises(BadParams):
            cglmp(5)
        with pytest.raises(BadParams):
            cglmp(1)


def _seeded_functionals(sc: Scenario, seed: int, count: int) -> list:
    # coefficients in -1..1 tie often, so some maximizers are not unique
    rng = random.Random(seed)
    return [BellFunctional(sc, tuple(F(rng.randint(-1, 1)) for _ in range(sc.table_size)), F(rng.randint(-2, 2)))
            for _ in range(count)]


def _first_marginal_entry() -> BellFunctional:
    # P(a=0 | x=0, y=0), attained on a whole face of the polytope
    sc = Scenario((2, 2), (2, 2))
    return BellFunctional(sc, (F(1), F(1)) + (F(0),) * 14, F(0))


UNIQUENESS_CASES = {
    "chsh": chsh_functional(), "cglmp3": cglmp(3), "cglmp4": cglmp(4), "cglmp3-raw": cglmp_raw(3),
    "zero": BellFunctional(Scenario((2, 2), (2, 2)), (F(0),) * 16, F(0)),
    "first-marginal": _first_marginal_entry(),
    **{f"2222-{k}": f for k, f in enumerate(_seeded_functionals(Scenario((2, 2), (2, 2)), 5, 8))},
    **{f"3322-{k}": f for k, f in enumerate(_seeded_functionals(Scenario((3, 3), (2, 2)), 6, 4))},
}


class TestUniqueMaximizer:
    def test_chsh_unique_pr(self):
        unique, box = unique_ns_maximizer(chsh_functional())
        assert unique
        assert box == pr_box()
        assert correlators(box) == (F(1), F(1), F(1), F(-1))

    def test_zero_functional_not_unique(self):
        sc = Scenario((2, 2), (2, 2))
        zero = BellFunctional(sc, (F(0),) * sc.table_size, F(0))
        unique, box = unique_ns_maximizer(zero)
        assert not unique
        assert box is None

    @pytest.mark.parametrize("functional", UNIQUENESS_CASES.values(), ids=UNIQUENESS_CASES)
    def test_two_lps_give_the_face_walks_answer(self, functional, monkeypatch):
        expected = face_walk_unique_maximizer(functional)
        solved = []
        solve = lp.solve

        def counting_solve(prog):
            solved.append(prog)
            return solve(prog)

        monkeypatch.setattr(lp, "solve", counting_solve)
        assert unique_ns_maximizer(functional) == expected
        assert len(solved) == 2

    def test_the_cases_hold_both_verdicts(self):
        verdicts = {name: face_walk_unique_maximizer(f)[0] for name, f in UNIQUENESS_CASES.items()}
        assert verdicts["chsh"] and verdicts["cglmp4"] and not verdicts["first-marginal"]
        for prefix in ("2222-", "3322-"):
            assert {v for name, v in verdicts.items() if name.startswith(prefix)} == {True, False}


class TestEvaluate:
    def test_isotropic_value(self):
        assert chsh_functional().evaluate(make_isotropic(F(3, 4))) == F(1, 2)

    def test_linearity_on_mixture(self, ns_vertices):
        rng = random.Random(2)
        f = chsh_functional()
        p = random_ns_box(rng, ns_vertices)
        q = random_ns_box(rng, ns_vertices)
        w = F(2, 7)
        assert f.evaluate(mix([p, q], [w, 1 - w])) == w * f.evaluate(p) + (
            1 - w
        ) * f.evaluate(q)

    def test_scenario_mismatch(self):
        with pytest.raises(ScenarioMismatch):
            chsh_functional().evaluate(uniform_box(Scenario((2,), (2,))))


class TestLocalBound:
    @pytest.mark.parametrize(
        "sc",
        [
            Scenario((2, 2), (2, 2)),
            Scenario((3, 3), (2, 2)),
            Scenario((2, 2), (3, 3)),
            Scenario((2, 3), (3, 2)),
            Scenario((2, 2, 2), (2, 2, 2)),
        ],
        ids=str,
    )
    def test_matches_box_enumeration(self, sc):
        rng = random.Random(sc.table_size * 7 + sc.parties)
        for _ in range(6):
            coeffs = tuple(F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(sc.table_size))
            offset = F(rng.randrange(-9, 10), rng.randrange(1, 6))
            f = BellFunctional(sc, coeffs, offset)
            assert bell.local_bound(f) == local_bound_by_enumeration(f)

    def test_named_functionals(self):
        assert bell.local_bound(chsh_functional()) == 0
        assert bell.local_bound(cglmp_raw(3)) == 2 == local_bound_by_enumeration(cglmp_raw(3))

    def test_ns_lp_calls_do_not_share_rows(self):
        sc = Scenario((2, 2), (2, 2))
        first = polytope.ns_lp(sc)
        expected = list(first.eqs)
        first.eqs[0] = ((), F(1))
        first.add_eq([(0, 1)], 1)
        first.add_ineq([(1, 1)], 0)
        second = polytope.ns_lp(sc, [(0, 1)])
        assert second.eqs == expected and second.ineqs == []
        fresh = lp.LinearProgram(sc.table_size)
        for coeffs, rhs in polytope.normalization_rows(sc) + polytope.ns_equality_rows(sc):
            fresh.add_eq(coeffs, rhs)
        assert expected == fresh.eqs
        assert polytope.max_over_ns(sc, enumerate(chsh_functional().coefficients)).value == 2


class TestNormalize:
    def test_normalize_shifts_and_scales(self):
        sc = Scenario((2, 2), (2, 2))
        f = chsh_functional()
        skewed = BellFunctional(
            sc, tuple(3 * c for c in f.coefficients), 3 * f.offset + 5
        )
        again = normalize(skewed)
        assert normalization_bounds(again) == (0, 1)

    def test_constant_functional_rejected(self):
        sc = Scenario((2, 2), (2, 2))
        with pytest.raises(BadParams):
            normalize(BellFunctional(sc, (F(0),) * 16, F(0)))


class TestVerticesAndCanonicalForm:
    def test_vertex_classification_matches_enumeration(self, ns_vertices):
        enumerated = ns_vertices_2222_by_enumeration()
        assert len(enumerated) == 24
        assert set(ns_vertices) == set(enumerated)

    def test_canonical_form_sign_pattern(self, ns_vertices):
        rng = random.Random(9)
        for _ in range(15):
            box = random_ns_box(rng, ns_vertices, nonlocal_bias=20)
            canon = canonical_2222(box)
            c00, c01, c10, _ = correlators(canon)
            assert c00 >= 0 and c01 >= 0 and c10 >= 0

    def test_canonical_form_deterministic(self, ns_vertices):
        rng = random.Random(10)
        box = random_ns_box(rng, ns_vertices)
        assert canonical_2222(box) == canonical_2222(box)

    def test_canonical_form_idempotent_on_orbit(self, ns_vertices):
        rng = random.Random(11)
        box = random_ns_box(rng, ns_vertices)
        canon = canonical_2222(box)
        for rl in random.Random(12).sample(relabelings_2222(), 8):
            assert canonical_2222(relabel(box, *rl)) == canon


# 2222, 2322, 3322, 2233 and tripartite binary
CG_SCENARIOS = [
    Scenario((2, 2), (2, 2)), Scenario((2, 3), (2, 2)), Scenario((3, 3), (2, 2)),
    Scenario((2, 2), (3, 3)), Scenario((2, 2, 2), (2, 2, 2)),
]


class TestCollinsGisin:
    """polytope.collins_gisin: a functional moved onto the spanning
    entries, with its value on every nonsignaling box kept."""

    def _ns_boxes(self, sc, rng):
        # seeded mixtures of relabeled PR-type boxes (bipartite), strategy
        # boxes and uniform noise; a tripartite box gets PR on two parties
        strategies = polytope.deterministic_strategies(sc)
        if sc.parties == 2:
            pr = pr_type(sc)
        else:
            pr = tensor(pr_box(), uniform_box(Scenario((2,), (2,))))
        boxes = []
        for _ in range(6):
            parts = [relabel(pr, *random_relabeling(rng, sc)), uniform_box(sc)]
            parts += [s.box() for s in rng.sample(strategies, 3)]
            weights = [rng.randint(0, 9) for _ in parts]
            weights[0] += 1
            boxes.append(mix(parts, [F(w, sum(weights)) for w in weights]))
        return boxes

    @pytest.mark.parametrize("sc", CG_SCENARIOS, ids=str)
    def test_value_support_and_idempotence(self, sc):
        rng = random.Random(f"collins-gisin {sc}")
        spanning = set(polytope.spanning_entries(sc))
        boxes = self._ns_boxes(sc, rng)
        for _ in range(6):
            coeffs = tuple(F(rng.randrange(-9, 10), rng.randrange(1, 8)) for _ in range(sc.table_size))
            offset = F(rng.randrange(-9, 10), rng.randrange(1, 6))
            moved = polytope.collins_gisin(sc, coeffs, offset)
            f, g = BellFunctional(sc, coeffs, offset), BellFunctional(sc, *moved)
            assert all(f.evaluate(box) == g.evaluate(box) for box in boxes)
            assert all(not c for e, c in enumerate(moved[0]) if e not in spanning)
            assert polytope.collins_gisin(sc, *moved) == moved
        # integer numerators stay integers
        ints = tuple(rng.randrange(-9, 10) for _ in range(sc.table_size))
        assert all(type(c) is int for c in polytope.collins_gisin(sc, ints, 0)[0])

    @pytest.mark.parametrize("functional", [chsh_functional(), cglmp(3)], ids=["chsh", "cglmp3"])
    def test_named_functionals_keep_their_bounds(self, functional):
        moved = BellFunctional(functional.scenario, *polytope.collins_gisin(
            functional.scenario, functional.coefficients, functional.offset))
        assert moved.coefficients != functional.coefficients
        assert normalization_bounds(moved) == normalization_bounds(functional) == (0, 1)


@settings(max_examples=25, deadline=None)
@given(
    c_num=st.integers(0, 12),
    w_num=st.integers(0, 10),
)
def test_chsh_linear_in_isotropic_mixtures(c_num, w_num):
    c = F(c_num, 12)
    w = F(w_num, 10)
    box = mix([make_isotropic(c), uniform_box(Scenario((2, 2), (2, 2)))], [w, 1 - w])
    assert chsh(box) == w * (2 * c - 1) + (1 - w) * (-1)
