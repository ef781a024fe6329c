import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from boxlab import bell, boxio, cli, core, locality, lp, polytope
from boxlab.bell import chsh, pr_box
from boxlab.core import (
    Scenario,
    ZERO,
    box_from_function,
    is_nonsignaling,
    marginal,
    mix,
    relabel,
)
from boxlab.isotropic import make_isotropic
from boxlab.locality import (
    LocalModel,
    ModelMismatch,
    NonlocalityCertificate,
    StrategySpaceTooLarge,
    eve_extension,
    is_local,
)
from boxlab.shareability import generalized_isotropic, polygamy_example
from conftest import asymmetric_giso, is_deterministic, own_form, random_local_box, random_ns_box, random_relabeling
from oracles import (
    chsh_type_row,
    chsh_type_rows,
    chsh_type_values,
    condition,
    deterministic_box_tables,
    fine_gluing,
    fine_intervals,
    fraction_rank,
    _flat_of,
    full_membership_lp,
    label_numbers,
    local_bound_by_enumeration,
    local_membership_alternative,
    output_splits,
    own_labels_outcome,
    prob,
    strategy_model,
    uniform_box,
)

# every certificate these tests produce is checked by both verifiers
pytestmark = pytest.mark.usefixtures("both_verifiers")

SC22 = Scenario((2, 2), (2, 2))
TABLE_SCENARIOS = [SC22, Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3)), Scenario((2, 2, 2), (2, 2, 2))]


class TestStrategyColumns:
    @pytest.mark.parametrize("sc", TABLE_SCENARIOS, ids=str)
    def test_matches_strategy_box_support(self, sc):
        columns = polytope.strategy_columns(sc)
        strategies = polytope.deterministic_strategies(sc)
        assert len(columns) == len(strategies) == polytope.strategy_count(sc)
        for cols, strat in zip(columns, strategies):
            table = strat.box().table
            assert len(cols) == sc.num_input_tuples
            assert sorted(cols) == [k for k, v in enumerate(table) if v]
            assert all(table[k] == 1 for k in cols)

    def test_table_is_one_immutable_object_per_scenario(self):
        columns = polytope.strategy_columns(SC22)
        assert polytope.strategy_columns(Scenario((2, 2), (2, 2))) is columns
        assert isinstance(columns, tuple) and all(isinstance(c, tuple) for c in columns)

    @pytest.mark.parametrize("sc", TABLE_SCENARIOS, ids=str)
    def test_membership_rows_match_strategy_boxes(self, sc):
        # the full-table rows at the spanning entries, right-hand sides
        # included: every strategy weighted differently, so entries differ
        strategies = [s.box() for s in polytope.deterministic_strategies(sc)]
        n = len(strategies)
        box = mix(strategies, [F(2 * e + 1, n * n) for e in range(n)])
        full = full_membership_lp(box).eqs
        expected = [full[k] for k in polytope.spanning_entries(sc)]
        assert locality.membership_lp(box, own_form(box))[0].eqs == expected

    def test_membership_lp_calls_do_not_share_rows(self):
        # a box of full support, so that every strategy keeps its column
        box = make_isotropic(F(3, 5))
        first = locality.membership_lp(box, own_form(box))[0]
        expected = list(first.eqs)
        first.eqs[0] = ((), F(1))
        first.add_eq([(0, 1)], 1)
        first.add_ineq([(1, 1)], 0)
        second = locality.membership_lp(box, own_form(box))[0]
        assert second.eqs == expected and second.ineqs == []
        noise = uniform_box(SC22)
        assert locality.membership_lp(noise, own_form(noise))[0].eqs[0][0] == expected[0][0]


def pr_like(sc):
    """For parties that all have A outputs: uniform over the outputs that
    sum to x_0 x_1 mod A.  Nonsignaling, and nonlocal."""
    A, n = sc.outputs[0], sc.parties
    return box_from_function(
        sc, lambda outs, xs: F(1, A ** (n - 1)) if sum(outs) % A == xs[0] * xs[1] % A else 0
    )


def membership_verdict(box):
    """is_local's membership-LP path, taken whatever the box."""
    return locality._membership_verdict(box, *core.numerators(box.table))[0]


class TestSpanningEntries:
    @pytest.mark.parametrize("sc", TABLE_SCENARIOS, ids=str)
    def test_collins_gisin_count_in_table_order(self, sc):
        entries = polytope.spanning_entries(sc)
        count = 1
        for x, a in zip(sc.inputs, sc.outputs):
            count *= x * (a - 1) + 1
        assert len(entries) == count
        expected = sorted(
            _flat_of(sc, outs, xs)
            for xs in itertools.product(*map(range, sc.inputs))
            for outs in itertools.product(*map(range, sc.outputs))
            if all(x == 0 or a < top - 1 for x, a, top in zip(xs, outs, sc.outputs))
        )
        assert entries == tuple(expected)

    @pytest.mark.parametrize("sc", TABLE_SCENARIOS, ids=str)
    def test_rows_span_every_membership_row(self, sc):
        tables = [s.box().table for s in polytope.deterministic_strategies(sc)]
        rows = [[t[k] for t in tables] for k in range(sc.table_size)]
        entries = polytope.spanning_entries(sc)
        assert fraction_rank([rows[k] for k in entries]) == len(entries) == fraction_rank(rows)

    @pytest.mark.parametrize("sc", TABLE_SCENARIOS, ids=str)
    def test_verdicts_match_full_table_lp(self, sc):
        # seeded mixtures of pr_like and local noise, from t = 0 (local)
        # to t = 1 (nonlocal), so both sides of the boundary are met
        rng = random.Random(1901)
        strategies = [s.box() for s in polytope.deterministic_strategies(sc)]
        entries = set(polytope.spanning_entries(sc))
        seen = set()
        for i in range(7):
            picks = [uniform_box(sc)] + rng.sample(strategies, 3)
            ws = [rng.randrange(1, 5) for _ in picks]
            noise = mix(picks, [F(w, sum(ws)) for w in ws])
            box = mix([pr_like(sc), noise], [F(i, 6), 1 - F(i, 6)])
            # the membership LP's outcome, which a nonlocal bipartite box
            # skips when is_local certifies it by a CHSH-type row
            result = membership_verdict(box)
            local = isinstance(result, LocalModel)
            assert isinstance(is_local(box), LocalModel) == local
            seen.add(local)
            assert lp.solve(full_membership_lp(box)).status == (lp.OPTIMAL if local else lp.INFEASIBLE)
            assert local_membership_alternative(box) == local
            if not local:
                f = result.functional
                if sc.parties > 2:
                    # decided on its own labels: one multiplier per spanning entry;
                    # on a bipartite box's canonical form it is averaged over G
                    assert all(c == 0 for k, c in enumerate(f.coefficients) if k not in entries)
                assert local_bound_by_enumeration(f) <= 0 < f.evaluate(box) == result.violation
        assert seen == {True, False}


class TestIsLocal:
    def test_isotropic_half_has_model(self):
        model = is_local(make_isotropic(F(1, 2)))
        assert isinstance(model, LocalModel)
        assert model.reconstructs(make_isotropic(F(1, 2)))
        assert sum(model.weights, ZERO) == 1

    def test_reads_the_table_once_before_the_membership_lp(self, ns_vertices, monkeypatch):
        # the NS check, the CHSH-type rows, Fine's model and its check
        # share one read of the table into numerators; only the canonical
        # search reads it again, and the check of Fine's model reads the
        # model's weights.  A 2222 box takes a row or Fine's model, a 3322
        # box that violates a row takes that row, and other 3322 boxes,
        # with and without symmetry, reach the membership LP through the
        # search
        reads = []

        def counting(values, real=core.numerators):
            reads.append(values)
            return real(values)

        class Stop(Exception):
            pass

        def stop(*args):
            raise Stop

        for module in (core, polytope, locality):
            monkeypatch.setattr(module, "numerators", counting)
        monkeypatch.setattr(locality, "_solved_model", stop)
        rng = random.Random(2830)
        boxes = [random_ns_box(rng, ns_vertices, nonlocal_bias=40) for _ in range(6)]
        boxes += [random_local_box(rng, ns_vertices) for _ in range(3)] + [make_isotropic(F(1, 2))]
        sc = Scenario((3, 3), (2, 2))
        boxes += [mix([pr_like(sc), uniform_box(sc)], [F(3, 4), F(1, 4)])]
        boxes += [mix([pr_like(sc), uniform_box(sc)], [F(1, 2), F(1, 2)]), fold_boxes(sc)[-1]]
        picks = rng.sample([s.box() for s in polytope.deterministic_strategies(sc)], 6)
        boxes.append(mix(picks, [F(w, 21) for w in range(1, 7)]))
        paths = set()
        for box in boxes:
            reads.clear()
            try:
                result = is_local(box)
                path = "row" if isinstance(result, NonlocalityCertificate) else "fine"
                assert path == "row" or box.scenario == SC22
            except Stop:
                path = "searched"
            expected = [box.table] * (2 if path == "searched" else 1)
            assert reads == expected + ([result.weights] if path == "fine" else [])
            paths.add((path, box.scenario == SC22))
        assert paths == {("row", True), ("row", False), ("fine", True), ("searched", False)}

    def test_models_are_checked_against_the_numerators_held(self, ns_vertices, monkeypatch):
        # Fine's model and the membership LP's are checked against the
        # numerators is_local holds, with no second read of the table;
        # LocalModel.reconstructs, which reads it again, and the strategy
        # boxes summed entry by entry stay the independent checks of each
        # model
        rng = random.Random(2831)
        sc = Scenario((3, 3), (2, 2))
        strategies = [s.box() for s in polytope.deterministic_strategies(sc)]
        boxes = [random_local_box(rng, ns_vertices) for _ in range(4)] + [make_isotropic(F(1, 2))]
        for k in (2, 4, 6):
            picks = rng.sample(strategies, k)
            boxes.append(mix(picks, [F(n + 1, k * (k + 1) // 2) for n in range(k)]))
        boxes.append(generalized_isotropic(3, F(2, 5)))
        checked, reproduces = [], LocalModel._reproduces

        def recorded(model, den, nums):
            checked.append(model)
            return reproduces(model, den, nums)

        monkeypatch.setattr(LocalModel, "_reproduces", recorded)
        for box in boxes:
            checked.clear()
            model = is_local(box)
            assert isinstance(model, LocalModel) and checked == [model]
            assert model.reconstructs(box) and checked == [model] * 2
            # and the weighted sum of the strategies' own boxes, entry by entry
            assert TestModelBox.weighted_sum(model) == box.table
        assert {box.scenario for box in boxes} == {SC22, sc, Scenario((2, 2), (3, 3))}

    def test_pr_certificate_is_chsh(self, ns_vertices):
        cert = is_local(pr_box())
        assert isinstance(cert, NonlocalityCertificate)
        assert cert.violation == 1
        # the facet the PR box violates is CHSH itself
        for v in ns_vertices:
            assert cert.functional.evaluate(v) == chsh(v)

    def test_polygamy_marginal_nonlocal(self):
        from boxlab.shareability import polygamy_example

        pab = marginal(polygamy_example(), (0, 1))
        cert = is_local(pab)
        assert isinstance(cert, NonlocalityCertificate)
        assert cert.violation > 0

    def test_certificate_soundness(self, ns_vertices):
        rng = random.Random(21)
        seen = 0
        while seen < 5:
            box = random_ns_box(rng, ns_vertices, nonlocal_bias=75)
            result = is_local(box)
            if isinstance(result, LocalModel):
                continue
            seen += 1
            assert result.functional.evaluate(box) == result.violation > 0
            for strat in polytope.deterministic_strategies(box.scenario):
                assert result.functional.evaluate(strat.box()) <= 0

    def test_agrees_with_alternative_formulation(self, ns_vertices):
        rng = random.Random(22)
        for i in range(30):
            box = random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 3) * 15)
            ours = isinstance(is_local(box), LocalModel)
            assert ours == local_membership_alternative(box)

    @pytest.mark.parametrize("box", [
        box_from_function(Scenario((2,), (2,)), lambda outs, xs: F(1, 3) if outs[0] == xs[0] else F(2, 3)),
        box_from_function(Scenario((1, 1, 1), (1, 1, 1)), lambda outs, xs: 1),
        box_from_function(Scenario((3, 1), (1, 3)), lambda outs, xs: F(outs[1] + 1, 6)),
    ], ids=["one-party", "111-111", "31-13"])
    def test_any_number_of_parties_and_outputs(self, box):
        # the box's own labels are the canonical form for one party, for
        # parties with a single output and for a single input alike
        model = is_local(box)
        assert model == strategy_model(box)
        assert model.reconstructs(box) and sum(model.weights, ZERO) == 1

    def test_strategy_cap(self):
        # 4^4 * 4^4 = 65,536 deterministic strategies, over the cap
        big = uniform_box(Scenario((4, 4), (4, 4)))
        with pytest.raises(StrategySpaceTooLarge):
            is_local(big)

    def test_signaling_box_rejected(self):
        sig = box_from_function(SC22, lambda outs, xs: 1 if outs == (0, xs[0]) else 0)
        from boxlab.core import SignalingBox

        with pytest.raises(SignalingBox):
            is_local(sig)


class TestChshFacetPath:
    """A 2222 box that violates a CHSH facet is certified by it with no
    LP; any other 2222 box is local by Fine's model, with no LP either."""

    def check(self, box):
        result = is_local(box)
        local = isinstance(result, LocalModel)
        assert local == local_membership_alternative(box)
        values = [f.evaluate(box) for f in bell.chsh_facets()]
        assert local == (max(values) <= 0)
        if not local:
            # the most violated facet, the first on ties, object for object
            assert pickle.dumps(result.functional) == pickle.dumps(bell.chsh_facets()[values.index(max(values))])
            assert result.violation == result.functional.evaluate(box) == max(values)
        return local

    def test_vertices(self, ns_vertices):
        # every deterministic vertex lies on some facet, with value 0
        assert [self.check(v) for v in ns_vertices] == [True] * 16 + [False] * 8

    def test_seeded_boxes_on_both_sides_of_the_boundary(self, ns_vertices):
        rng = random.Random(3101)
        verdicts = Counter(self.check(random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 8) * 10))
                           for i in range(200))
        assert min(verdicts[True], verdicts[False]) >= 60
        # each PR vertex mixed with the uniform box at 1/2 lies on its facet,
        # and above 1/2 violates it
        noise = uniform_box(SC22)
        for pr in ns_vertices[16:]:
            assert [self.check(mix([pr, noise], [t, 1 - t])) for t in (F(1, 2), F(51, 100))] == [True, False]

    def test_no_2222_box_solves_an_lp(self, ns_vertices, monkeypatch):
        solve, calls = lp.solve, []

        def counted(*args):
            calls.append(args[0])
            return solve(*args)

        monkeypatch.setattr(lp, "solve", counted)
        rng = random.Random(3102)
        boxes = [pr_box(), make_isotropic(F(3, 5)), make_isotropic(F(1, 2))]
        boxes += [random_ns_box(rng, ns_vertices, nonlocal_bias=b) for b in (0, 20, 60, 80)]
        seen = Counter(isinstance(is_local(box), LocalModel) for box in boxes)
        assert calls == [] and min(seen[True], seen[False]) >= 2
        # a box of another scenario still solves the membership LP
        sc = Scenario((3, 3), (2, 2))
        is_local(mix([pr_like(sc), uniform_box(sc)], [F(1, 2), F(1, 2)]))
        assert len(calls) == 1

    def test_a_missing_facet_fails_fines_check(self, monkeypatch):
        # without the facet the PR box violates, its Fine intervals do not
        # meet, so it has no model: Fine's theorem rules that out
        monkeypatch.setattr(locality, "_violated_facet", lambda *args: None)
        with pytest.raises(core.InternalError, match="Fine"):
            is_local(pr_box())

    def test_a_missing_sign_pattern_is_refused(self, monkeypatch):
        # the largest value over the rows is found without the patterns,
        # so a pattern list without CHSH's own leaves the PR box's best
        # block with no row that attains it
        kept = bell.chsh_signs()[1:]
        monkeypatch.setattr(locality, "chsh_signs", lambda: kept)
        with pytest.raises(core.InternalError, match="sign pattern"):
            is_local(pr_box())


ROW_SCENARIOS = [Scenario((2, 3), (2, 2)), Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3)), Scenario((2, 2), (4, 4))]


def package_rows(sc):
    """The CHSH-type rows is_local ranks, in its order: bell.lifted_chsh
    per pair of Alice's inputs, per pair of Bob's, per set of Alice's
    outputs (locality._stars) at each of hers, per column of Bob's at his
    pair (locality._chsh_layout), per sign pattern of bell.chsh_signs."""
    X, stars = sc.inputs[0], locality._stars(sc.outputs[0])
    bob, _, group = locality._chsh_layout(sc)[3:]
    return [bell.lifted_chsh(sc, signs, ((x0, S0), (x1, S1)), cols)
            for x0, x1 in itertools.combinations(range(X), 2)
            for g in range(0, len(bob), group)
            for S0, S1 in itertools.product(stars, stars)
            for cols in bob[g:g + group]
            for signs in bell.chsh_signs()]


def row_boxes(sc):
    """Seeded relabelings of pr_like mixed with local noise, from t = 0
    to t = 1, and, for more than two outputs, of generalized isotropic
    boxes on both sides of their threshold."""
    rng = random.Random(f"rows {sc.inputs} {sc.outputs}")
    strategies = [s.box() for s in polytope.deterministic_strategies(sc)]
    boxes = []
    for t in (F(0), F(1, 4), F(1, 2), F(3, 5), F(3, 4), F(1)):
        picks = [uniform_box(sc)] + rng.sample(strategies, 3)
        ws = [rng.randrange(1, 5) for _ in picks]
        boxes.append(mix([pr_like(sc), mix(picks, [F(w, sum(ws)) for w in ws])], [t, 1 - t]))
    if sc.outputs[0] > 2:
        boxes += [generalized_isotropic(sc.outputs[0], c) for c in (F(2, 5), F(3, 5), F(7, 10))]
    return [relabel(box, *random_relabeling(rng, sc)) for box in boxes]


def i3322_vertex():
    """The vertex of the 3322 NS polytope, cut by the 72 CHSH-type rows,
    at which the I3322 functional (Collins and Gisin) is largest, its
    value there 1/3; and that functional."""
    sc = Scenario((3, 3), (2, 2))
    coefficients = [ZERO] * sc.table_size
    signs = {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1, (1, 2): -1, (2, 0): 1, (2, 1): -1}
    for (x, y), s in signs.items():
        coefficients[_flat_of(sc, (0, 0), (x, y))] += s
    for o in (0, 1):
        coefficients[_flat_of(sc, (0, o), (0, 0))] -= 1  # P_A(0|0)
        coefficients[_flat_of(sc, (o, 0), (0, 0))] -= 2  # 2 P_B(0|0)
        coefficients[_flat_of(sc, (o, 0), (0, 1))] -= 1  # P_B(0|1)
    prog = polytope.ns_lp(sc, enumerate(coefficients))
    for f in chsh_type_rows(sc):
        prog.add_ineq([(k, c) for k, c in enumerate(f.coefficients) if c], -f.offset)
    out = lp.solve(prog)
    assert out.status == lp.OPTIMAL and out.value == F(1, 3)
    return core.validate_box(out.primal, sc), bell.BellFunctional(sc, tuple(coefficients))


class TestChshTypeRows:
    """A bipartite box that violates a CHSH-type row, output-lifted where
    a party has more than two outputs, is certified by the row it
    violates most, with no LP (locality._violated_facet); the rows are
    checked against chsh_type_rows, built entry by entry."""

    @pytest.mark.parametrize("sc, count", [
        (SC22, 8), (Scenario((2, 3), (2, 2)), 24), (Scenario((3, 3), (2, 2)), 72), (Scenario((2, 2), (3, 3)), 648),
    ], ids=str)
    def test_row_counts_and_order(self, sc, count):
        # 648 is Collins and Gisin's count of lifted CHSH facets in 2233
        rows = package_rows(sc)
        assert len(rows) == count and tuple(rows) == chsh_type_rows(sc)

    @pytest.mark.parametrize("outputs", [2, 3])
    def test_at_most_three_outputs_keep_one_output_against_the_rest(self, outputs):
        # the sets the rows used before every binary coarse-graining was
        # taken: output 0 alone for two outputs, each output alone for three,
        # so the rows of 2222, 2322, 3322 and 2233 and their order stay
        before = [(a,) for a in (range(1) if outputs == 2 else range(outputs))]
        assert list(locality._stars(outputs)) == output_splits(outputs) == before

    @pytest.mark.parametrize("outputs, count", [(2, 1), (3, 3), (4, 7), (5, 15)])
    def test_every_binary_coarse_graining(self, outputs, count):
        assert list(locality._stars(outputs)) == output_splits(outputs) and len(output_splits(outputs)) == count

    @pytest.mark.parametrize("outputs", [6, 8, 20, 50])
    def test_more_than_five_outputs_keep_one_output_against_the_rest(self, outputs):
        # every split would be 2^(A-1) - 1 sets: 2^49 - 1 for 50 outputs
        assert locality._stars(outputs) == tuple((a,) for a in range(outputs)) == tuple(output_splits(outputs))

    @pytest.mark.parametrize("sc, pairs", [
        (Scenario((2, 2), (2, 50)), 5_000), (Scenario((2, 2), (8, 8)), 1_024), (Scenario((2, 2), (5, 20)), 12_000),
    ], ids=str)
    def test_many_outputs_give_a_small_layout(self, sc, pairs):
        # within STRATEGY_CAP the layout holds at most 12,000 pairs, at 2 2 5 20
        locality.check_strategy_space(sc)
        assert len(locality._chsh_layout(sc)[2]) == pairs

    @pytest.mark.parametrize("sc", [Scenario((2, 2), (2, 50)), Scenario((2, 2), (8, 8))], ids=str)
    def test_many_outputs_are_decided(self, sc):
        # a PR box on outputs 0 and 1 mixed with three strategies: local
        # with none of it, else certified by the most violated row
        rng = random.Random(f"many outputs {sc.outputs}")
        picks = [s.box() for s in rng.sample(list(polytope.deterministic_strategies(sc)), 3)]
        pr = box_from_function(sc, lambda o, x: F(1, 2) if max(o) < 2 and (o[0] + o[1]) % 2 == x[0] * x[1] else 0)
        for t in (F(0), F(1, 2), F(1)):
            box = mix([pr, mix(picks, [F(1, 3)] * 3)], [t, 1 - t])
            result = is_local(box)
            if not t:
                assert isinstance(result, LocalModel) and result.reconstructs(box)
                continue
            values = chsh_type_values(box)
            assert result.functional == chsh_type_row(sc, values.index(max(values)))
            assert result.violation == max(values) > 0

    def test_2244_row_count_and_a_seeded_sample(self):
        # 19,208 rows, not built here: the count from the layout, and a
        # seeded sample built by both, each normalized
        sc = Scenario((2, 2), (4, 4))
        bob = locality._chsh_layout(sc)[3]
        assert len(locality._stars(4)) ** 2 * len(bob) * 8 == len(chsh_type_values(uniform_box(sc))) == 19_208
        rng = random.Random(2244)
        for n in sorted(rng.sample(range(19_208), 6)):
            signs, rest = bell.chsh_signs()[n % 8], n // 8
            rest, cols = divmod(rest, len(bob))
            S0, S1 = divmod(rest, 7)
            f = bell.lifted_chsh(sc, signs, ((0, locality._stars(4)[S0]), (1, locality._stars(4)[S1])), bob[cols])
            assert f == chsh_type_row(sc, n)
            assert bell.normalization_bounds(f) == (0, 1) and local_bound_by_enumeration(f) == 0

    def test_2222_rows_are_the_chsh_facets(self):
        assert package_rows(SC22) == list(bell.chsh_facets())
        assert [pickle.dumps(f) for f in chsh_type_rows(SC22)] == [pickle.dumps(f) for f in bell.chsh_facets()]

    @pytest.mark.parametrize("sc", [
        SC22, Scenario((2, 3), (2, 2)), Scenario((3, 3), (2, 2)), Scenario((2, 2), (2, 3)), Scenario((2, 2), (3, 3)),
    ], ids=str)
    def test_every_row_is_normalized(self, sc):
        for f in package_rows(sc):
            assert bell.local_bound(f) == 0
            assert bell.normalization_bounds(f) == (0, 1)

    @pytest.mark.parametrize("sc", ROW_SCENARIOS, ids=str)
    def test_verdicts_and_certificates(self, sc):
        seen = Counter()
        for box in row_boxes(sc):
            result = is_local(box)
            local = isinstance(result, LocalModel)
            assert lp.solve(full_membership_lp(box)).status == (lp.OPTIMAL if local else lp.INFEASIBLE)
            values = chsh_type_values(box)
            caught = max(values) > 0
            seen[local, caught] += 1
            if caught:
                f = result.functional
                assert f == chsh_type_row(sc, values.index(max(values)))
                assert f.evaluate(box) == result.violation == max(values) > 0
        assert seen[True, False] and seen[False, True]

    def test_a_caught_box_solves_no_lp(self, monkeypatch):
        solve, calls = lp.solve, []

        def counted(*args):
            calls.append(args[0])
            return solve(*args)

        monkeypatch.setattr(lp, "solve", counted)
        monkeypatch.setattr(locality, "normalize", lambda *args: pytest.fail("normalize called"))
        caught = 0
        for sc in ROW_SCENARIOS[1:3]:
            for box in row_boxes(sc):
                if max(chsh_type_values(box)) > 0:
                    calls.clear()
                    assert isinstance(is_local(box), NonlocalityCertificate) and calls == []
                    caught += 1
        assert caught >= 4

    def test_a_box_violating_only_an_i3322_row_reaches_the_lp(self, monkeypatch):
        sc = Scenario((3, 3), (2, 2))
        box, i3322 = i3322_vertex()
        assert bell.normalization_bounds(i3322) == (0, 1)
        assert max(chsh_type_values(box)) <= 0 < i3322.evaluate(box)
        assert locality._violated_facet(sc, *core.numerators(box.table)) is None
        assert lp.solve(full_membership_lp(box)).status == lp.INFEASIBLE
        # so the membership LP and normalize decide it, as they did every
        # nonlocal 3322 box before the rows
        normalize, normalized = locality.normalize, []

        def recorded(functional):
            normalized.append(functional)
            return normalize(functional)

        monkeypatch.setattr(locality, "normalize", recorded)
        result = is_local(box)
        assert isinstance(result, NonlocalityCertificate) and len(normalized) == 1
        assert pickle.dumps(result) == pickle.dumps(membership_verdict(box))
        assert local_bound_by_enumeration(result.functional) == 0 < result.functional.evaluate(box) == result.violation


class TestCoarseGrainedRows:
    """Every binary coarse-graining of each party's outputs gives
    CHSH-type rows; two against two catches generalized isotropic boxes
    with four and five outputs above their thresholds."""

    @pytest.mark.parametrize("A, c", [(4, F(3, 5)), (4, F(11, 20)), (5, F(3, 5))], ids=str)
    def test_generalized_isotropic_is_certified_with_no_lp(self, A, c, monkeypatch):
        solve, calls = lp.solve, []

        def counted(*args):
            calls.append(args[0])
            return solve(*args)

        monkeypatch.setattr(lp, "solve", counted)
        monkeypatch.setattr(locality, "normalize", lambda *args: pytest.fail("normalize called"))
        box = generalized_isotropic(A, c)
        box = relabel(box, *random_relabeling(random.Random(f"coarse {A} {c}"), box.scenario))
        result = is_local(box)
        assert isinstance(result, NonlocalityCertificate) and calls == []
        assert result.functional.evaluate(box) == result.violation > 0
        if A == 4:
            # the most violated of all 19,208 rows, the first on ties
            values = chsh_type_values(box)
            assert result.functional == chsh_type_row(box.scenario, values.index(max(values)))
            assert result.violation == max(values)
        monkeypatch.undo()
        assert bell.normalization_bounds(result.functional) == (0, 1)


class TestFineModel:
    """A 2222 box that violates no CHSH facet gets Fine's model, glued in
    closed form over Bob's output pair, with no LP: cross-checked against
    the membership LP oracles and the gluing oracle (fine_gluing)."""

    def check(self, box):
        """is_local's verdict on a 2222 box against both membership
        oracles and Fine's intervals, which meet exactly when it is
        local; a model has positive weights summing to 1, gives the box
        back, and puts the larger lower end of the intervals on
        Q(b0=0, b1=0)."""
        result = is_local(box)
        local = isinstance(result, LocalModel)
        assert local == local_membership_alternative(box)
        assert lp.solve(full_membership_lp(box)).status == (lp.OPTIMAL if local else lp.INFEASIBLE)
        (low0, high0), (low1, high1) = fine_intervals(box)
        assert local == (max(low0, low1) <= min(high0, high1))
        if local:
            assert all(w > 0 for w in result.weights) and sum(result.weights, ZERO) == 1
            assert result.box() == box
            order = deterministic_order(result)
            assert order == sorted(order)
            q = sum((w for s, w in zip(result.strategies, result.weights) if s.tables[1] == (0, 0)), ZERO)
            assert q == max(low0, low1)
        return result

    def test_seeded_boxes_on_both_sides_of_the_boundary(self, ns_vertices):
        rng = random.Random(3501)
        verdicts = Counter()
        for i in range(120):
            box = random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 8) * 10)
            local = isinstance(self.check(box), LocalModel)
            verdicts[local] += 1
            if local:
                # any Q(0, 0) where the intervals meet glues a model
                (low0, high0), (low1, high1) = fine_intervals(box)
                low, high = max(low0, low1), min(high0, high1)
                for q in (low, (low + high) / 2, high):
                    model = fine_gluing(box, q)
                    assert all(w > 0 for w in model.weights) and model.box() == box
        assert min(verdicts.values()) >= 40

    def test_deterministic_vertices(self, ns_vertices):
        # each is glued back into its own strategy, with weight 1
        for strategy, vertex in zip(polytope.deterministic_strategies(SC22), ns_vertices):
            assert self.check(vertex) == LocalModel(SC22, (strategy,), (F(1),))

    def test_pr_vertices_with_noise_at_one_half(self, ns_vertices):
        # on the facet each PR vertex violates, where the intervals just meet
        noise = uniform_box(SC22)
        for pr in ns_vertices[16:]:
            assert isinstance(self.check(mix([pr, noise], [F(1, 2), F(1, 2)])), LocalModel)
            assert isinstance(self.check(mix([pr, noise], [F(51, 100), F(49, 100)])), NonlocalityCertificate)

    @pytest.mark.parametrize("c", [F(1, 2), F(-1, 2)], ids=["1/2", "-1/2"])
    def test_isotropic_at_one_half(self, c):
        assert isinstance(self.check(bell.unbiased_box(c, c, c, -c)), LocalModel)

    @pytest.mark.parametrize("y", [0, 1])
    def test_a_deterministic_bob_input(self, y):
        # Bob answers 0 at input y, so Q(b0, b1) is 0 whenever b_y = 1
        rng = random.Random(3502 + y)
        strategies = [s for s in polytope.deterministic_strategies(SC22) if s.tables[1][y] == 0]
        for k in (1, 2, 3, 5, 8):
            picks = rng.sample(strategies, k)
            box = mix([s.box() for s in picks], [F(n + 1, k * (k + 1) // 2) for n in range(k)])
            model = self.check(box)
            assert all(s.tables[1][y] == 0 for s in model.strategies)

    def test_a_negative_weight_is_refused(self, ns_vertices, monkeypatch):
        # glued at the first input's lower end, below the second's, the
        # model still gives the box back but has a negative weight
        rng = random.Random(3503)
        while True:
            box = random_ns_box(rng, ns_vertices)
            (low0, _), (low1, _) = fine_intervals(box)
            signed = fine_gluing(box, low0)
            if low0 < low1 and signed.reconstructs(box) and min(signed.weights) < 0:
                break
        assert isinstance(is_local(box), LocalModel)
        monkeypatch.setattr(locality, "_fine_model", lambda *args: signed)
        with pytest.raises(core.InternalError, match="positive"):
            is_local(box)

    def test_a_model_of_another_box_is_refused(self, ns_vertices, monkeypatch):
        box = make_isotropic(F(2, 5))
        other = is_local(uniform_box(SC22))
        monkeypatch.setattr(locality, "_fine_model", lambda *args: other)
        with pytest.raises(core.InternalError, match="reconstruct"):
            is_local(box)


FOLD_SCENARIOS = [SC22, Scenario((2, 3), (2, 2)), Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3))]


def fold_boxes(sc):
    """Seeded relabelings of boxes with a nontrivial stabilizer, local and
    nonlocal, and of asymmetric mixtures of them with two strategies."""
    rng = random.Random(f"fold {sc.inputs} {sc.outputs}")
    if sc == SC22:
        boxes = [make_isotropic(c) for c in (F(2, 5), F(1, 2), F(3, 5), F(1))]
        boxes += [asymmetric_giso(c) for c in (F(2, 5), F(3, 5))]
    elif sc.outputs[0] > 2:
        A = sc.outputs[0]
        skewed = [F(2 * (A - a), A * (A + 1)) for a in range(A)]
        boxes = [generalized_isotropic(A, c) for c in (F(2, 5), F(1, 2), F(7, 10))]
        boxes += [generalized_isotropic(A, F(3, 5), skewed)]
    else:
        boxes = [mix([pr_like(sc), uniform_box(sc)], [t, 1 - t]) for t in (F(1, 2), F(3, 4), F(1))]
    strategies = [s.box() for s in polytope.deterministic_strategies(sc)]
    boxes += [mix([box, *rng.sample(strategies, 2)], [F(5, 6), F(1, 9), F(1, 18)]) for box in boxes[-2:]]
    return [relabel(box, *random_relabeling(rng, sc)) for box in boxes]


def canonical_frame(sc, alice, bob, coefficients):
    """The coefficients of a bipartite functional moved onto the
    canonical labels: entry (a, b | x, y) goes to the entry of its
    labels' images under the canonical form's maps of label numbers,
    each number read through _flat_of (label_numbers)."""
    (X, Y), (A, B) = sc.inputs, sc.outputs
    labels_a, labels_b = label_numbers(X, A), label_numbers(Y, B)
    moved = [None] * sc.table_size
    for (na, (a, x)), (nb, (b, y)) in itertools.product(labels_a.items(), labels_b.items()):
        (a2, x2), (b2, y2) = labels_a[alice[na]], labels_b[bob[nb]]
        moved[_flat_of(sc, (a2, b2), (x2, y2))] = coefficients[_flat_of(sc, (a, b), (x, y))]
    return moved


def deterministic_order(model):
    index = {s.tables: n for n, s in enumerate(polytope.deterministic_strategies(model.scenario))}
    return [index[s.tables] for s in model.strategies]


def check_is_local(box, lp_outcome):
    """is_local's outcome on a box whose membership-LP outcome
    (membership_verdict) is lp_outcome: the most violated CHSH-type row
    (chsh_type_row), the first on ties, when the box violates one;
    otherwise Fine's model for a 2222 box, and the LP's outcome itself for
    any other.  Returns whether a row certified the box."""
    result = is_local(box)
    values = chsh_type_values(box) if box.scenario.parties == 2 else []
    best = max(values, default=ZERO)
    if best > 0:
        assert isinstance(lp_outcome, NonlocalityCertificate)
        assert result.functional == chsh_type_row(box.scenario, values.index(best))
        assert result.violation == result.functional.evaluate(box) == best
    elif box.scenario == SC22:
        assert isinstance(lp_outcome, LocalModel) and isinstance(result, LocalModel) and result.box() == box
    else:
        assert pickle.dumps(result) == pickle.dumps(lp_outcome)
    return best > 0


def strategy_mixture(k):
    """A seeded mixture of k 3322 strategies weighted 1..k, whose table
    only the identity fixes for k = 3, 5 and 8."""
    sc = Scenario((3, 3), (2, 2))
    rng = random.Random(f"strategies {k}")
    picks = rng.sample([s.box() for s in polytope.deterministic_strategies(sc)], k)
    return mix(picks, [F(n + 1, k * (k + 1) // 2) for n in range(k)])


SEED1003_LOCAL = boxio.read_box(str(Path(__file__).parent / "data" / "reports" / "seed1003-local.txt")).box


class TestFoldedIsLocal:
    """A bipartite box is decided on its canonical form, folded by its
    stabilizer G (polytope.canonical_form), whatever G is."""

    @pytest.mark.parametrize("sc", FOLD_SCENARIOS + [Scenario((2, 2), (4, 4))], ids=str)
    def test_verdicts_and_certificates(self, sc):
        # the membership LP's outcome (membership_verdict), whose functional
        # is averaged over G; is_local's is a CHSH-type row when the box
        # violates one, and the LP's otherwise (check_is_local)
        verdicts, symmetric_nonlocal, by_row = set(), 0, set()
        for box in fold_boxes(sc):
            result = membership_verdict(box)
            local = isinstance(result, LocalModel)
            verdicts.add(local)
            assert local == local_membership_alternative(box)
            by_row.add(check_is_local(box, result))
            table, alice, bob, group = polytope.canonical_form(box)
            symmetric_nonlocal += not local and len(group) > 1
            if local:
                assert result.reconstructs(box) and sum(result.weights, ZERO) == 1
                order = deterministic_order(result)
                assert order == sorted(order)
                continue
            f = result.functional
            assert local_bound_by_enumeration(f) == 0 < f.evaluate(box) == result.violation
            # in the canonical frame the functional is fixed by every element of G
            h = canonical_frame(sc, alice, bob, f.coefficients)
            for pa, pb in group:
                assert canonical_frame(sc, pa, pb, h) == h
        assert verdicts == {True, False} and symmetric_nonlocal and True in by_row

    # the 3322 boxes have a trivial stabilizer, so `size` is the count of
    # strategies that fire no zero entry of the table
    @pytest.mark.parametrize("box, size", [
        (make_isotropic(F(3, 5)), 2),
        (generalized_isotropic(3, F(2, 5)), 9),
        (generalized_isotropic(3, F(7, 10)), 9),
        (generalized_isotropic(4, F(1, 2)), 16),
        (SEED1003_LOCAL, 6),
        (strategy_mixture(3), 4),
        (strategy_mixture(5), 11),
        (strategy_mixture(8), 48),
    ], ids=["iso-3/5", "giso3-2/5", "giso3-7/10", "giso4-1/2", "seed1003-local", "3322-mix3", "3322-mix5", "3322-mix8"])
    def test_relabelings_share_one_folded_program(self, box, size, monkeypatch):
        solve, programs = lp.solve, []

        def recorded(prog, *args):
            programs.append(prog)
            return solve(prog, *args)

        monkeypatch.setattr(lp, "solve", recorded)
        rng = random.Random(f"one program {size}")
        firsts = []
        for labeled in [box] + [relabel(box, *random_relabeling(rng, box.scenario)) for _ in range(3)]:
            programs.clear()
            membership_verdict(labeled)
            firsts.append(programs[0])
        assert {prog.num_vars for prog in firsts} == {size}
        assert all(prog.eqs == firsts[0].eqs for prog in firsts)

    def test_a_tripartite_box_keeps_its_own_labels_outcome(self):
        # canonical_form searches bipartite boxes only: a box of three
        # parties is decided on its own labels, pr_like on Alice and Bob
        # mixed with four strategies, from local to nonlocal
        rng = random.Random(25)
        sc = Scenario((2, 2, 2), (2, 2, 2))
        strategies = [s.box() for s in polytope.deterministic_strategies(sc)]
        seen = set()
        for i in range(8):
            picks = rng.sample(strategies, 4)
            local = mix(picks, [F(w, 10) for w in (1, 2, 3, 4)])
            box = mix([pr_like(sc), local], [F(i, 8), 1 - F(i, 8)])
            assert polytope.canonical_form(box) == own_form(box)
            result = membership_verdict(box)
            seen.add(type(result))
            assert pickle.dumps(result) == pickle.dumps(own_labels_outcome(box))
            # is_local's own outcome is the LP's: no CHSH-type row is read
            # on a box of three parties
            check_is_local(box, result)
        assert seen == {LocalModel, NonlocalityCertificate}


def zero_entry_boxes(sc):
    """Seeded relabelings of boxes with zero entries: mixtures of two,
    three and five deterministic strategies, which are local, and pr_like
    mixed with two of them at 3/4, 1/2 and 1/4."""
    rng = random.Random(f"support {sc.inputs} {sc.outputs}")
    strategies = [s.box() for s in polytope.deterministic_strategies(sc)]
    boxes = [mix(rng.sample(strategies, k), [F(n + 1, k * (k + 1) // 2) for n in range(k)]) for k in (2, 3, 5)]
    for t in (F(3, 4), F(1, 2), F(1, 4)):
        boxes.append(mix([pr_like(sc), *rng.sample(strategies, 2)], [t, (1 - t) / 3, 2 * (1 - t) / 3]))
    return [relabel(box, *random_relabeling(rng, sc)) for box in boxes]


SUPPORT_SCENARIOS = [Scenario((2, 3), (2, 2)), Scenario((3, 3), (2, 2)), Scenario((2, 2), (3, 3))]


class TestSupportPresolve:
    """The membership LP has a column only for the classes of strategies
    that fire no zero entry of the table, and a Farkas vector of that
    program still gives a Bell functional at most 0 on every strategy."""

    @pytest.mark.parametrize("sc", SUPPORT_SCENARIOS, ids=str)
    def test_verdicts_match_the_full_program(self, sc):
        seen = set()
        for box in zero_entry_boxes(sc):
            assert ZERO in box.table
            result = membership_verdict(box)
            local = isinstance(result, LocalModel)
            seen.add(local)
            assert lp.solve(full_membership_lp(box)).status == (lp.OPTIMAL if local else lp.INFEASIBLE)
            if local:
                assert result.reconstructs(box) and sum(result.weights, ZERO) == 1
            else:
                f = result.functional
                assert local_bound_by_enumeration(f) == 0 < f.evaluate(box) == result.violation
        assert seen == {True, False}

    @pytest.mark.parametrize("sc", SUPPORT_SCENARIOS, ids=str)
    def test_one_column_per_class_that_fires_no_zero_entry(self, sc):
        for box in zero_entry_boxes(sc) + fold_boxes(sc):
            form = polytope.canonical_form(box)
            table, group = form[0], form[-1]
            members = locality._membership_rows(sc, group)[0]
            # per class, whether each strategy's box, built entry by entry,
            # is 1 at a zero entry of the table in the form's frame
            fires_zero = [{any(q and not p for p, q in zip(table, polytope.DeterministicStrategy(sc, t).box().table))
                           for t in tables} for tables in members]
            # all of a class or none, since the group fixes the table
            assert all(len(f) == 1 for f in fires_zero)
            kept = [k for k, f in enumerate(fires_zero) if f == {False}]
            prog, classes = locality.membership_lp(box, form)
            assert list(classes) == kept and prog.num_vars == len(kept)
            assert (len(kept) < len(members)) == (ZERO in box.table)

    def test_the_i3322_vertex_takes_the_reduced_infeasible_path(self):
        box, _ = i3322_vertex()
        sc = box.scenario
        assert sorted(set(box.table)) == [0, F(1, 3), F(2, 3)]
        table, alice, bob, group = form = polytope.canonical_form(box)
        prog = locality.membership_lp(box, form)[0]
        assert len(group) > 1 and 0 < prog.num_vars < len(locality._membership_rows(sc, group)[0])
        out = lp.solve(prog)
        assert out.status == lp.INFEASIBLE
        # the functional before the average over G: on the spanning entries,
        # positive on the table, at most 0 on every strategy left out
        den, nums = locality._pinned(sc, table, group, out.certificate.y_eq)
        spanning = set(polytope.spanning_entries(sc))
        assert any(nums) and all(n == 0 for k, n in enumerate(nums) if k not in spanning)
        assert sum(n * p for n, p in zip(nums, table)) > 0
        for strategy in polytope.deterministic_strategies(sc):
            t = strategy.box().table
            if any(q and not p for p, q in zip(table, t)):
                assert sum(n * q for n, q in zip(nums, t)) <= 0
        # the certificate: local bound 0 by enumeration, G-invariant in the canonical frame
        result = is_local(box)
        f = result.functional
        assert pickle.dumps(result) == pickle.dumps(membership_verdict(box))
        assert local_bound_by_enumeration(f) == 0 < f.evaluate(box) == result.violation
        h = canonical_frame(sc, alice, bob, f.coefficients)
        for pa, pb in group:
            assert canonical_frame(sc, pa, pb, h) == h

    def test_the_polygamy_box_fits_no_strategy(self):
        # 222/444: no strategy fires only positive entries, so the program
        # has no column and its Farkas vector is a combination of the pins
        box = polygamy_example()
        prog = locality.membership_lp(box, own_form(box))[0]
        assert prog.num_vars == 0 and len(prog.eqs) == len(polytope.spanning_entries(box.scenario))
        result = is_local(box)
        assert isinstance(result, NonlocalityCertificate)
        assert lp.solve(full_membership_lp(box)).status == lp.INFEASIBLE
        f = result.functional
        assert bell.normalization_bounds(f) == (0, 1) and f.evaluate(box) == result.violation > 0


class TestReconstructs:
    def test_is_the_model_box_compared(self, ns_vertices):
        # models of seeded boxes, then the same strategies with their
        # weights moved, and a box of another scenario
        rng = random.Random(26)
        boxes = [random_local_box(rng, ns_vertices) for _ in range(6)] + [generalized_isotropic(3, F(2, 5))]
        seen = set()
        for box in boxes:
            model = is_local(box)
            variants = [model.weights, model.weights[::-1], model.weights[1:] + model.weights[:1]]
            for weights in variants:
                changed = LocalModel(model.scenario, model.strategies, weights)
                seen.add(changed.reconstructs(box))
                assert changed.reconstructs(box) == (changed.box() == box)
        assert not model.reconstructs(make_isotropic(F(1, 2)))
        assert seen == {True, False}


class TestModelBox:
    """LocalModel.box() and reconstructs, which sum the offsets of the
    labels each strategy fires (core.label_offsets), against the weighted
    sum of the strategies' own boxes, which DeterministicStrategy.box
    builds entry by entry."""

    @staticmethod
    def weighted_sum(model):
        table = [ZERO] * model.scenario.table_size
        for strategy, w in zip(model.strategies, model.weights):
            for k, v in enumerate(strategy.box().table):
                table[k] += w * v
        return tuple(table)

    @staticmethod
    def seeded_models(rng):
        # repeated strategies and a zero weight included
        for sc in (SC22, Scenario((3, 3), (2, 2)), Scenario((2, 3), (3, 2)), Scenario((2, 2, 2), (2, 2, 2)),
                   Scenario((1, 3, 2), (3, 2, 2))):
            strategies = polytope.deterministic_strategies(sc)
            for _ in range(3):
                chosen = [rng.choice(strategies) for _ in range(rng.randint(1, 6))]
                weights = [rng.randint(0, 9) for _ in chosen]
                weights[0] += 1
                yield LocalModel(sc, tuple(chosen), tuple(F(w, sum(weights)) for w in weights))

    def test_box_is_the_weighted_sum_of_strategy_boxes(self):
        rng = random.Random(2828)
        for model in self.seeded_models(rng):
            # adjoined: a copy of the last party, and an eavesdropper
            # told the strategy
            copied = model.adjoin(model.scenario.inputs[-1:], model.scenario.outputs[-1:],
                                  [s.tables[-1:] for s in model.strategies])
            told = model.adjoin((1,), (len(model.strategies),), [((k,),) for k in range(len(model.strategies))])
            for m in (model, copied, told):
                box = m.box()
                assert box.table == self.weighted_sum(m)
                assert all(type(v) is F for v in box.table)
                assert m.reconstructs(box)

    def test_reconstructs_sees_one_moved_weight(self):
        rng = random.Random(2829)
        for model in self.seeded_models(rng):
            box = model.box()
            distinct = [k for k, s in enumerate(model.strategies) if s != model.strategies[0]]
            if not distinct:
                continue
            # move weight between two different strategies' boxes
            k, w = distinct[0], F(1, 97)
            weights = list(model.weights)
            weights[0], weights[k] = weights[0] + w, weights[k] - w
            moved = LocalModel(model.scenario, model.strategies, tuple(weights))
            assert moved.box().table == self.weighted_sum(moved)
            assert not moved.reconstructs(box)


class TestIsDeterministic:
    def test_strategy_box(self):
        box = box_from_function(SC22, lambda outs, xs: 1 if outs == (0, xs[1]) else 0)
        assert is_deterministic(box)

    def test_pr_not_deterministic(self):
        assert not is_deterministic(pr_box())

    def test_noisy_extreme_not_deterministic(self):
        assert not is_deterministic(make_isotropic(F(1, 2)))


class TestDeterminismImpliesLocality:
    def test_exhaustive_2222(self):
        # all 256 candidate deterministic tables; the nonsignaling ones
        # are exactly the 16 strategy boxes and every one is local
        ns_count = 0
        for box in deterministic_box_tables(SC22):
            if not is_nonsignaling(box):
                continue
            ns_count += 1
            model = is_local(box)
            assert isinstance(model, LocalModel)
            assert len(model.strategies) == 1
        assert ns_count == 16

    def test_random_larger_scenario(self):
        sc = Scenario((2, 3), (3, 2))
        rng = random.Random(31)
        strategies = polytope.deterministic_strategies(sc)
        for _ in range(5):
            box = strategies[rng.randrange(len(strategies))].box()
            assert isinstance(is_local(box), LocalModel)


class TestAdjoin:
    def test_marginal_on_own_parties_is_the_model_box(self, ns_vertices):
        # two parties with alphabets of their own, answered by seeded tables
        rng = random.Random(1807)
        for box in [make_isotropic(F(1, 2))] + [random_local_box(rng, ns_vertices) for _ in range(4)]:
            model = is_local(box)
            tables = [((rng.randrange(3), rng.randrange(3)), (rng.randrange(2),)) for _ in model.strategies]
            ext = model.adjoin((2, 1), (3, 2), tables)
            assert ext.scenario == Scenario((2, 2, 2, 1), (2, 2, 3, 2))
            assert ext.weights == model.weights
            assert is_nonsignaling(ext.box())
            assert marginal(ext.box(), (0, 1)) == model.box()


class TestEveExtension:
    def test_uniform_box_single_strategy_model(self):
        box = uniform_box(SC22)
        model = is_local(box)
        ext = eve_extension(box, model)
        assert ext.scenario.inputs == (2, 2, 1)
        assert is_nonsignaling(ext)
        assert marginal(ext, (0, 1)) == box

    def test_per_outcome_product(self):
        box = make_isotropic(F(1, 2))
        model = is_local(box)
        ext = eve_extension(box, model)
        assert is_nonsignaling(ext)
        # conditioned on Eve, Alice and Bob decouple
        eve_party = 2
        for e in range(ext.scenario.outputs[eve_party]):
            conditional = condition(ext, eve_party, 0, e)
            pa = marginal(conditional, (0,))
            pb = marginal(conditional, (1,))
            for x in (0, 1):
                for y in (0, 1):
                    for a in (0, 1):
                        for b in (0, 1):
                            assert prob(conditional, (a, b), (x, y)) == prob(pa, (a,), (x,)) * prob(pb, (b,), (y,))

    def test_deterministic_box_trivial_eve(self):
        box = box_from_function(SC22, lambda outs, xs: 1 if outs == (xs[0], 0) else 0)
        model = is_local(box)
        ext = eve_extension(box, model)
        assert ext.scenario.outputs[2] == 1

    def test_model_mismatch(self):
        model = is_local(uniform_box(SC22))
        with pytest.raises(ModelMismatch):
            eve_extension(pr_box(), model)


def analyze_secrecy(tmp_path, box):
    """(exit code, report) of `boxlab analyze secrecy -o` on the box, after
    `boxlab verify` accepted the report."""
    path, report = tmp_path / "box.txt", tmp_path / "secrecy.json"
    boxio.write_box(str(path), box)
    code = cli.main(["analyze", "secrecy", str(path), "-o", str(report)])
    assert cli.main(["verify", str(report)]) == 0
    return code, boxio.read_report(report)


class TestSecrecy:
    """A bipartite box contains secrecy exactly when it is nonlocal; the
    command line's `secrecy` analysis is `is_local` read that way round."""

    def test_pr_contains_secrecy(self, tmp_path):
        code, report = analyze_secrecy(tmp_path, pr_box())
        assert (code, report["verdict"]) == (0, {"contains_secrecy": True})
        assert report["certificate"]["type"] == "bell_functional"
        assert "witness" not in report

    def test_product_box_no_secrecy(self, tmp_path):
        code, report = analyze_secrecy(tmp_path, uniform_box(SC22))
        assert (code, report["verdict"]) == (1, {"contains_secrecy": False})
        # verify accepted the model, so it reconstructs the box
        assert report["witness"]["type"] == "local_model"
        assert "certificate" not in report

    def test_isotropic_three_quarters(self, tmp_path):
        code, report = analyze_secrecy(tmp_path, make_isotropic(F(3, 4)))
        assert (code, report["verdict"]) == (0, {"contains_secrecy": True})

    def test_matches_is_local(self, ns_vertices, tmp_path):
        rng = random.Random(41)
        for i in range(20):
            box = random_ns_box(rng, ns_vertices, nonlocal_bias=(i % 2) * 60)
            code, report = analyze_secrecy(tmp_path, box)
            local = isinstance(is_local(box), LocalModel)
            assert report["verdict"]["contains_secrecy"] == (not local)
            assert code == (1 if local else 0)

    def test_bipartite_only(self, tmp_path, capsys):
        box = tmp_path / "polygamy.txt"
        assert cli.main(["make", "polygamy", "-o", str(box)]) == 0
        assert cli.main(["analyze", "secrecy", str(box)]) == 2
        assert "bipartite" in capsys.readouterr().err
