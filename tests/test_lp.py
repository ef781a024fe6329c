import random
from fractions import Fraction as F
from math import gcd

import pytest

from boxlab import lp, shareability
from boxlab.isotropic import make_isotropic
from boxlab.lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpOutcome,
    solve,
    verify_certificate,
)
from conftest import orbit_lp
from oracles import brute_force_lp, verify_certificate_fractions

# every certificate these tests produce is checked by both verifiers
pytestmark = pytest.mark.usefixtures("both_verifiers")


class TestBasics:
    def test_max_x_below_one(self):
        prog = LinearProgram(1, enumerate([1]))
        prog.add_ineq(enumerate([1]), 1)
        out = solve(prog)
        assert out.status == OPTIMAL
        assert out.value == 1
        assert out.primal == (F(1),)
        assert verify_certificate(prog, out)

    def test_simple_infeasible_with_farkas(self):
        prog = LinearProgram(1)
        prog.add_ineq(enumerate([-1]), -1)  # x >= 1
        prog.add_ineq(enumerate([1]), 0)  # x <= 0
        out = solve(prog)
        assert out.status == INFEASIBLE
        assert out.certificate.kind == "farkas"
        assert verify_certificate(prog, out)
        # an outcome with no evidence proves nothing, whatever its status
        assert verify_certificate(prog, LpOutcome(UNBOUNDED)) is False

    def test_unbounded(self):
        prog = LinearProgram(2, enumerate([1, 0]))
        out = solve(prog)
        assert out.status == UNBOUNDED
        # nothing in an unbounded outcome can be checked
        assert verify_certificate(prog, out) is False

    def test_equalities_handled_directly(self):
        prog = LinearProgram(3, enumerate([0, 0, 1]))
        prog.add_eq(enumerate([1, 1, 1]), 1)
        prog.add_eq(enumerate([1, -1, 0]), 0)
        out = solve(prog)
        assert out.status == OPTIMAL
        assert out.value == 1
        assert out.primal == (F(0), F(0), F(1))

    def test_conflicting_bounds(self):
        prog = LinearProgram(2)
        prog.add_ineq([(1, 1)], -1)
        out = solve(prog)
        assert out.status == INFEASIBLE
        assert out.certificate.kind == "farkas"
        assert verify_certificate(prog, out)

    def test_redundant_equalities(self):
        prog = LinearProgram(2, enumerate([1, 1]))
        prog.add_eq(enumerate([1, 1]), 1)
        prog.add_eq(enumerate([2, 2]), 2)  # dependent, consistent
        out = solve(prog)
        assert out.status == OPTIMAL
        assert out.value == 1

    def test_inconsistent_dependent_equalities(self):
        prog = LinearProgram(2)
        prog.add_eq(enumerate([1, 1]), 1)
        prog.add_eq(enumerate([2, 2]), 3)
        out = solve(prog)
        assert out.status == INFEASIBLE
        assert verify_certificate(prog, out)

    def test_dimension_mismatch(self):
        prog = LinearProgram(2)
        with pytest.raises(lp.DimensionMismatch):
            prog.add_eq(enumerate([1, 2, 3]), 1)

    @pytest.mark.parametrize("col", [2, 7, -1])
    def test_column_out_of_range(self, col):
        prog = LinearProgram(2)
        with pytest.raises(lp.DimensionMismatch):
            prog.add_eq([(0, 1), (col, 1)], 1)
        with pytest.raises(lp.DimensionMismatch):
            prog.add_ineq([(col, 1)], 1)
        with pytest.raises(lp.DimensionMismatch):
            LinearProgram(2, [(col, 1)])
        assert prog.eqs == [] and prog.ineqs == []

    def test_zero_coefficients_not_stored(self):
        prog = LinearProgram(3, enumerate([0, 2, 0]))
        prog.add_eq(enumerate([0, F(1, 2), 0]), 1)
        prog.add_ineq([(2, 3), (1, 0), (0, -1)], 0)
        assert prog.objective == ((1, F(2)),)
        assert prog.eqs == [(((1, F(1, 2)),), F(1))]
        assert prog.ineqs == [(((0, F(-1)), (2, F(3))), F(0))]

    def test_repeated_columns_summed(self):
        prog = LinearProgram(2, [(1, 1)])
        prog.add_eq([(1, 1), (0, 2), (1, F(1, 2)), (0, -2)], 3)
        assert prog.eqs == [(((1, F(3, 2)),), F(3))]
        out = solve(prog)
        assert out.primal == (F(0), F(2))
        assert verify_certificate(prog, out)

    def test_empty_row_accepted(self):
        prog = LinearProgram(1, [(0, 1)])
        prog.add_ineq([(0, 1)], 1)
        prog.add_eq([], 0)
        prog.add_eq([(0, 1), (0, -1)], 0)  # cancels to an empty row
        assert prog.eqs == [((), F(0)), ((), F(0))]
        out = solve(prog)
        assert out.status == OPTIMAL and out.value == 1
        assert verify_certificate(prog, out)
        # an empty row with a nonzero right-hand side states 0 = 1
        prog.add_eq([], 1)
        out = solve(prog)
        assert out.status == INFEASIBLE
        assert verify_certificate(prog, out)


class TestAntiCycling:
    def test_beale_cycling_example_terminates(self):
        prog = beale_program()
        out = solve(prog)
        assert out.status == OPTIMAL
        assert out.value == F(1, 20)
        assert verify_certificate(prog, out)

    def test_determinism(self):
        def build():
            prog = LinearProgram(3, enumerate([1, 2, -1]))
            prog.add_ineq(enumerate([1, 1, 1]), 4)
            prog.add_ineq(enumerate([1, -1, 0]), 2)
            prog.add_eq(enumerate([0, 1, 1]), 1)
            return prog

        outs = [solve(build()) for _ in range(3)]
        assert outs[0] == outs[1] == outs[2]


class TestCertificateTampering:
    def _optimal_outcome(self):
        prog = LinearProgram(2, enumerate([1, 1]))
        prog.add_ineq(enumerate([1, 2]), 4)
        prog.add_ineq(enumerate([2, 1]), 4)
        return prog, solve(prog)

    def test_round_trip(self):
        prog, out = self._optimal_outcome()
        assert verify_certificate(prog, out)

    def test_tampered_primal(self):
        prog, out = self._optimal_outcome()
        bad = list(out.primal)
        bad[0] += 1
        tampered = LpOutcome(out.status, tuple(bad), out.value, out.certificate)
        assert not verify_certificate(prog, tampered)

    def test_tampered_farkas_sign(self):
        prog = LinearProgram(1)
        prog.add_ineq(enumerate([-1]), -1)
        prog.add_ineq(enumerate([1]), 0)
        out = solve(prog)
        cert = out.certificate
        flipped = lp.LpCertificate(
            cert.kind,
            cert.y_eq,
            tuple(-v for v in cert.y_ineq),
            cert.y_lb,
            cert.y_ub,
        )
        tampered = LpOutcome(out.status, certificate=flipped)
        assert not verify_certificate(prog, tampered)

    def test_tampered_value(self):
        prog, out = self._optimal_outcome()
        tampered = LpOutcome(out.status, out.primal, out.value + 1, out.certificate)
        assert not verify_certificate(prog, tampered)

    @pytest.mark.parametrize("field", ["y_eq", "y_ineq", "y_lb", "y_ub"])
    def test_wrong_length_multipliers_rejected(self, field):
        # one row of each family, and y_ub one zero per variable, so every
        # multiplier vector has an entry to drop
        prog = LinearProgram(2, enumerate([1, 1]))
        prog.add_eq(enumerate([1, -1]), 0)
        prog.add_ineq(enumerate([1, 2]), 4)
        prog.add_ineq([(0, 1)], 1)
        out = solve(prog)
        assert verify_certificate(prog, out)
        values = getattr(out.certificate, field)
        for wrong in (values[:-1], values + (F(0),)):
            cert = replaced(out.certificate, {field: wrong})
            tampered = LpOutcome(out.status, out.primal, out.value, cert)
            assert verify_certificate(prog, tampered) is False


def nonnegative_program(objective, eqs, ineqs, bounds):
    """The program `solve` takes for an LP over x, and the constant that
    its optimal value is off by.

    Rows and the objective are dense over x.  bounds[i] is (lo, hi) for
    lo <= x_i <= hi, stated as x_i = lo + z_i with 0 <= z_i and the row
    z_i <= hi - lo after the other inequalities, or None for a free x_i,
    stated as x_i = pos_i - neg_i over two columns.
    """
    columns = []  # per x_i: its (column, sign) terms
    for b in bounds:
        start = sum(len(terms) for terms in columns)
        columns.append([(start, 1)] if b is not None else [(start, 1), (start + 1, -1)])
    offset = [b[0] if b is not None else 0 for b in bounds]

    def pairs(coeffs):
        return [(col, sign * c) for c, terms in zip(coeffs, columns) for col, sign in terms]

    def shift(coeffs):
        return sum(c * o for c, o in zip(coeffs, offset))

    prog = LinearProgram(sum(len(terms) for terms in columns), pairs(objective))
    for coeffs, rhs in eqs:
        prog.add_eq(pairs(coeffs), rhs - shift(coeffs))
    for coeffs, rhs in ineqs:
        prog.add_ineq(pairs(coeffs), rhs - shift(coeffs))
    for terms, b in zip(columns, bounds):
        if b is not None:
            prog.add_ineq([(terms[0][0], 1)], b[1] - b[0])
    return prog, shift(objective)


def original_program(objective, eqs, ineqs):
    """The LP over x itself, for brute_force_lp beside its bounds."""
    prog = LinearProgram(len(objective), enumerate(objective))
    for coeffs, rhs in eqs:
        prog.add_eq(enumerate(coeffs), rhs)
    for coeffs, rhs in ineqs:
        prog.add_ineq(enumerate(coeffs), rhs)
    return prog


def random_small_lp(rng: random.Random):
    """Bounded random LP: every variable boxed so brute force is exact.

    Returns (program for solve, its constant, original LP, bounds): each
    lo <= x_i <= hi goes to solve as x_i = lo + z_i.
    """
    n = rng.choice([2] * 8 + [3] * 6 + [4] * 4 + [5, 6])
    objective = [rng.randrange(-4, 5) for _ in range(n)]
    bounds = []
    for _ in range(n):
        lo = rng.choice([0, 0, -1, -2])
        bounds.append((lo, lo + rng.randrange(1, 5)))
    eqs, ineqs = [], []
    n_rows = rng.randrange(1, 4 if n > 4 else 5)
    for _ in range(n_rows):
        coeffs = [rng.randrange(-3, 4) for _ in range(n)]
        rhs = rng.randrange(-4, 7)
        if rng.random() < 0.25 and n >= 3:
            eqs.append((coeffs, rhs))
        else:
            ineqs.append((coeffs, rhs))
    prog, constant = nonnegative_program(objective, eqs, ineqs, bounds)
    return prog, constant, original_program(objective, eqs, ineqs), bounds


@pytest.mark.parametrize("seed", [101, 202])
def test_random_lps_match_brute_force(seed):
    rng = random.Random(seed)
    statuses = set()
    for _ in range(60):
        prog, constant, original, bounds = random_small_lp(rng)
        out = solve(prog)
        status, value = brute_force_lp(original, bounds)
        assert out.status == status, f"status mismatch on {original.__dict__}"
        if status == OPTIMAL:
            assert out.value + constant == value
        assert verify_certificate(prog, out)
        statuses.add(out.status)
    assert statuses == {OPTIMAL, INFEASIBLE}


def random_rational_lp(rng: random.Random):
    """(program for solve, its constant, original LP, bounds) with the
    same feasible set and objective up to the constant.

    Coefficients, right-hand sides and bounds are rationals with
    denominators 2-7, so tableau rows start on different denominators.
    A boxed x_i goes to solve as x_i = lo + z_i.  Some variables are free:
    x_i = pos_i - neg_i, boxed by two inequality rows instead of bounds,
    which the original LP states as bounds.  Equality rows pass through a
    point whose coordinates often sit on a bound, so phase 1 often ends
    with an artificial basic at zero; some come again scaled by a negative
    or positive rational, which the simplex must drop as redundant, while
    the original keeps one copy, as vertex enumeration needs.
    """

    def rat():
        return F(rng.randrange(-9, 10), rng.randrange(2, 8))

    n = rng.choice([2] * 6 + [3] * 6 + [4] * 3)
    objective = [rat() for _ in range(n)]
    point = []
    bounds = []  # of the original LP
    substituted = []  # (lo, hi) or None (free) for solve
    eqs, ineqs = [], []  # of the original LP
    solve_eqs, solve_ineqs = [], []
    for i in range(n):
        lo = rat()
        hi = lo + F(rng.randrange(1, 13), rng.randrange(2, 8))
        point.append(rng.choice([lo, lo, hi, (lo + hi) / 2]))
        bounds.append((lo, hi))
        if rng.random() < 0.3:
            substituted.append(None)
            unit = [0] * n
            unit[i] = 1
            solve_ineqs.append((list(unit), hi))
            unit[i] = -1
            solve_ineqs.append((unit, -lo))
        else:
            substituted.append((lo, hi))
    for _ in range(rng.randrange(1, 4)):
        coeffs = [rat() if rng.random() < 0.8 else 0 for _ in range(n)]
        at_point = sum(c * x for c, x in zip(coeffs, point))
        if rng.random() < 0.4 and n >= 3:
            rhs = at_point if rng.random() < 0.7 else rat()
            eqs.append((coeffs, rhs))
            solve_eqs.append((coeffs, rhs))
            if rng.random() < 0.6:
                k = rng.choice([F(-1), F(2), F(-3, 5), F(7, 4)])
                solve_eqs.append(([k * c for c in coeffs], k * rhs))
        else:
            rhs = at_point + rng.choice([0, 0, 1, -1]) * rat()
            ineqs.append((coeffs, rhs))
            solve_ineqs.append((coeffs, rhs))
    prog, constant = nonnegative_program(objective, solve_eqs, solve_ineqs, substituted)
    return prog, constant, original_program(objective, eqs, ineqs), bounds


@pytest.mark.parametrize("seed", [303, 404])
def test_rational_lps_match_brute_force(seed):
    rng = random.Random(seed)
    statuses = set()
    for _ in range(60):
        prog, constant, original, bounds = random_rational_lp(rng)
        out = solve(prog)
        status, value = brute_force_lp(original, bounds)
        assert out.status == status, f"status mismatch on {original.__dict__}"
        if status == OPTIMAL:
            assert out.value + constant == value
        assert verify_certificate(prog, out)
        statuses.add(out.status)
    assert statuses == {OPTIMAL, INFEASIBLE}


def random_homogeneous_lp(rng: random.Random):
    """(program for solve, original LP, bounds) for an LP whose equality
    rows are mostly right-hand side 0, like nonsignaling rows.

    Independent base rows have a leading column that no earlier base row
    uses; in about half the LPs the first has only negative entries, which
    forces its support to 0.  The program for solve adds rows implied by
    them, in shuffled order: exact and negated duplicates, sums of two
    rows and an empty row, so the crash meets rows it must drop.  (A row
    with entries of one sign keeps its artificial through the crash and
    goes after phase 1, if at all.)  Rows with a positive right-hand
    side (an equality that no base row implies, inequalities) and an
    objective come on top; the original LP keeps only the independent
    equalities, as vertex enumeration needs.
    """
    n = rng.randrange(3, 7)
    order = list(range(n))
    rng.shuffle(order)  # column of each leading position
    base = []
    for k in range(rng.randrange(1, min(n, 4))):
        coeffs = [0] * n
        negative = k == 0 and rng.random() < 0.5
        coeffs[order[k]] = -1 if negative else rng.choice([1, -1, 2])
        for pos in range(k + 1, n):
            if rng.random() < 0.5:
                coeffs[order[pos]] = -rng.randrange(1, 3) if negative else rng.choice([1, -1, F(1, 2)])
        base.append(coeffs)
    derived = [[0] * n]
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(["same", "negated", "sum"])
        row = rng.choice(base)
        if kind == "negated":
            row = [-c for c in row]
        elif kind == "sum":
            row = [c + d for c, d in zip(row, rng.choice(base))]
        derived.append(row)
    eqs = [(row, 0) for row in base]
    support = rng.sample(range(n), rng.randrange(1, n + 1))
    eqs.append(([1 if i in support else 0 for i in range(n)], rng.randrange(1, 4)))
    ineqs = [
        ([rng.randrange(-2, 3) for _ in range(n)], rng.randrange(1, 5))
        for _ in range(rng.randrange(0, 3))
    ]
    objective = [rng.randrange(-3, 4) for _ in range(n)]
    bounds = [(0, rng.randrange(1, 4)) for _ in range(n)]
    solve_eqs = eqs + [(row, 0) for row in derived]
    rng.shuffle(solve_eqs)
    prog = original_program(objective, solve_eqs, ineqs)
    for i, (_, hi) in enumerate(bounds):
        prog.add_ineq([(i, 1)], hi)
    return prog, original_program(objective, eqs, ineqs), bounds


@pytest.mark.parametrize("seed", [505, 606])
def test_homogeneous_lps_match_brute_force(seed, monkeypatch):
    dropped = []
    crash = lp._crash

    def counting_crash(st, art_cols):
        before = len(st.rows)
        crash(st, art_cols)
        dropped.append(before - len(st.rows))

    monkeypatch.setattr(lp, "_crash", counting_crash)
    rng = random.Random(seed)
    statuses = set()
    for _ in range(60):
        prog, original, bounds = random_homogeneous_lp(rng)
        out = solve(prog)
        status, value = brute_force_lp(original, bounds)
        assert out.status == status, f"status mismatch on {original.__dict__}"
        if status == OPTIMAL:
            assert out.value == value
        assert verify_certificate(prog, out)
        statuses.add(out.status)
    assert statuses == {OPTIMAL, INFEASIBLE}
    assert len(dropped) == 60 and max(dropped) > 0


def beale_program():
    # classic degenerate instance that cycles under naive pivoting
    prog = LinearProgram(4, enumerate([F(3, 4), -150, F(1, 50), -6]))
    prog.add_ineq(enumerate([F(1, 4), -60, F(-1, 25), 9]), 0)
    prog.add_ineq(enumerate([F(1, 2), -90, F(-1, 50), 3]), 0)
    prog.add_ineq(enumerate([0, 0, 1, 0]), 1)
    return prog


class PivotCap(Exception):
    pass


def test_beale_cycles_under_pure_dantzig(monkeypatch):
    calls = []
    pivot = lp._pivot

    def capped(*args, **kwargs):
        calls.append(None)
        if len(calls) > 200:
            raise PivotCap
        return pivot(*args, **kwargs)

    monkeypatch.setattr(lp, "_pivot", capped)
    out = solve(beale_program())
    assert out.value == F(1, 20) and len(calls) < 200
    calls.clear()
    monkeypatch.setattr(lp, "DEGENERATE_RUN", 10**9)
    with pytest.raises(PivotCap):
        solve(beale_program())


def test_brute_force_oracle_rejects_wrong_bound_count():
    with pytest.raises(ValueError):
        brute_force_lp(LinearProgram(2), [(0, 1)])


# ---------------------------------------------------------------------------
# the sparse tableau: row invariants, pivot counts, index order on ties


def checked_pivots(monkeypatch):
    """Route lp._pivot through a check that, after every pivot, each
    tableau row and the cost row store no zero, have a positive
    denominator and are in lowest terms, and the pivot column is the
    pivot row's unit column.  Returns the list of pivot columns so far;
    past 5,000 of them the test fails, so a kernel that cycles stops."""
    columns = []
    pivot = lp._pivot

    def checked(st, pr, pc):
        pivot(st, pr, pc)
        columns.append(pc)
        assert len(columns) <= 5000, "pivot cap reached"
        for row, den in [*zip(st.rows, st.dens), (st.cost, st.cost_den)]:
            assert 0 not in row.values()
            assert den > 0 and gcd(den, *row.values()) == 1
        assert st.rows[pr][pc] == st.dens[pr]
        assert not any(pc in row for i, row in enumerate(st.rows) if i != pr)

    monkeypatch.setattr(lp, "_pivot", checked)
    return columns


@pytest.mark.parametrize("seed", [505, 606])
def test_homogeneous_lp_rows_stay_sparse_and_reduced(seed, monkeypatch):
    pivots = checked_pivots(monkeypatch)
    rng = random.Random(seed)
    for _ in range(60):
        prog = random_homogeneous_lp(rng)[0]
        assert verify_certificate(prog, solve(prog))
    assert len(pivots) > 100


def test_pivot_counts_pinned(monkeypatch):
    # the dense-row kernel took these pivots, crash included; the sparse
    # one must pick the same columns and rows
    pivots = checked_pivots(monkeypatch)
    assert solve(beale_program()).value == F(1, 20)
    assert len(pivots) == 24
    pivots.clear()
    # the orbit LP before the stabilizer fold, then the folded one
    box = make_isotropic(F(3, 5))
    assert solve(orbit_lp(box, "B", 4)).status == INFEASIBLE
    assert len(pivots) == 233
    pivots.clear()
    prog, _ = shareability.folded_extension_lp(shareability.ExtensionProblem(box, "B", 4))
    assert solve(prog).status == INFEASIBLE
    assert len(pivots) == 19


def tie_tableau(cost):
    """max cost . x over 0 <= x_0, x_1 <= 1, both bounds as inequality
    rows with slacks, with the cost dict's keys in the given order."""
    st = lp._Standardized(
        columns=[("var", 0), ("var", 1), ("slack", 0), ("slack", 1)],
        rows=[{0: 1, 2: 1, 4: 1}, {1: 1, 3: 1, 4: 1}],
        dens=[1, 1],
        basis=[2, 3],
        flips=[1, 1],
        unit_cols=[2, 3],
        active=[0, 1],
    )
    st.cost = cost
    return st


def test_dantzig_tie_takes_lowest_index(monkeypatch):
    pivots = checked_pivots(monkeypatch)
    st = tie_tableau({1: 1, 0: 1})
    assert lp._run_simplex(st, banned=set()) == OPTIMAL
    assert pivots == [0, 1] and st.cost == {2: -1, 3: -1, 4: -2}


def test_bland_takes_lowest_eligible_index(monkeypatch):
    pivots = checked_pivots(monkeypatch)
    monkeypatch.setattr(lp, "DEGENERATE_RUN", 0)
    assert lp._run_simplex(tie_tableau({1: 2, 0: 1}), banned=set()) == OPTIMAL
    assert pivots == [0, 1]
    pivots.clear()
    monkeypatch.setattr(lp, "DEGENERATE_RUN", 20)
    assert lp._run_simplex(tie_tableau({1: 2, 0: 1}), banned=set()) == OPTIMAL
    assert pivots == [1, 0]


def test_crash_tie_takes_lowest_index(monkeypatch):
    pivots = checked_pivots(monkeypatch)
    # x_2 - x_1 = 0 on artificial column 3, x_2 stored first: both
    # candidates have one nonzero, so the lower index enters
    st = lp._Standardized(
        columns=[("var", 0), ("var", 1), ("var", 2), ("art", 0)],
        rows=[{2: 1, 1: -1, 3: 1}],
        dens=[1],
        basis=[3],
        flips=[1],
        unit_cols=[3],
        active=[0],
    )
    lp._crash(st, {3})
    assert pivots == [1] and st.basis == [1]


class TestRationalInputsOnly:
    @pytest.mark.parametrize(
        "build",
        [
            lambda prog: prog.add_eq([(0, 0.1)], 1),
            lambda prog: prog.add_eq([(0, 1)], 0.3),
            lambda prog: prog.add_ineq([(0, 0.5)], 1),
            lambda prog: prog.add_ineq([(0, 1)], 0.5),
        ],
    )
    def test_float_row_rhs_or_bound_raises(self, build):
        prog = LinearProgram(1)
        with pytest.raises(TypeError):
            build(prog)
        assert prog.eqs == [] and prog.ineqs == []

    def test_float_objective_raises(self):
        with pytest.raises(TypeError):
            LinearProgram(1, [(0, 0.25)])

    def test_exact_values_are_stored_as_fractions(self):
        prog = LinearProgram(2, [(1, "1/2")])
        prog.add_eq([(0, "1/10"), (1, 2)], "3/10")
        assert prog.objective == ((1, F(1, 2)),)
        assert prog.eqs == [(((0, F(1, 10)), (1, F(2))), F(3, 10))]


def fractional_program(ineq_rhs):
    """Coefficients, right-hand sides and the bound row x_1 <= 3/4 all
    fractional; x_0 and x_2 have no bound row.  Optimal, with a
    fractional primal and the first inequality tight, at ineq_rhs 1/3
    and 2/5; infeasible at 1/11, with y_eq, both y_ineq entries and y_lb
    nonzero in its Farkas vector."""
    prog = LinearProgram(3, [(0, F(3, 2)), (1, F(2, 3)), (2, F(-1, 5))])
    prog.add_eq([(0, F(2, 3)), (1, F(3, 7)), (2, F(1, 4))], F(5, 7))
    prog.add_ineq([(0, F(3, 5)), (1, F(-1, 6)), (2, F(2, 9))], ineq_rhs)
    prog.add_ineq([(1, 1)], F(3, 4))
    return prog


def replaced(record, changes):
    """A copy of a record, made through its constructor, with the fields
    named in `changes` set to the given values; other names are ignored."""
    return type(record)(**{k: changes.get(k, v) for k, v in vars(record).items()})


def tampered(out, **changes):
    """A copy of an outcome with outcome or certificate fields changed."""
    return replaced(out, {**changes, "certificate": replaced(out.certificate, changes)})


def bumped(values, k, delta):
    return values[:k] + (values[k] + delta,) + values[k + 1 :]


def tampers(out, prog):
    """Named tampered copies of an optimal or infeasible outcome, each of
    which breaks the certificate."""
    cert = out.certificate
    yield "y_eq+1/7", tampered(out, y_eq=bumped(cert.y_eq, 0, F(1, 7)))
    yield "negative y_lb", tampered(out, y_lb=bumped(cert.y_lb, 0, -cert.y_lb[0] - F(1, 3)))
    yield "nonzero y_ub", tampered(out, y_ub=bumped(cert.y_ub, 0, F(1, 2)))
    yield "kind", tampered(out, kind="dual" if cert.kind == "farkas" else "farkas")
    for field in ("y_eq", "y_ineq", "y_lb", "y_ub"):
        yield f"truncated {field}", tampered(out, **{field: getattr(cert, field)[:-1]})
    if out.status == OPTIMAL:
        yield "truncated primal", tampered(out, primal=out.primal[:-1])
        yield "primal+1/13", tampered(out, primal=bumped(out.primal, 0, F(1, 13)))
        for n in (2, 3, 7):
            yield f"value+1/{n}", tampered(out, value=out.value + F(1, n))
    else:
        yield "status", tampered(out, status=OPTIMAL)


class TestIntegerCheck:
    @pytest.mark.parametrize("ineq_rhs", [F(1, 3), F(2, 5), F(1, 11)])
    def test_fractional_program_verifies_in_both(self, ineq_rhs):
        prog = fractional_program(ineq_rhs)
        out = solve(prog)
        assert out.status == (INFEASIBLE if ineq_rhs == F(1, 11) else OPTIMAL)
        values = [*out.certificate.y_eq, *out.certificate.y_ineq, *(out.primal or ())]
        assert any(v.denominator > 1 for v in values)
        assert verify_certificate(prog, out) is True
        assert verify_certificate_fractions(prog, out) is True

    @pytest.mark.parametrize("ineq_rhs", [F(1, 3), F(2, 5), F(1, 11)])
    def test_tampers_rejected_by_both(self, ineq_rhs):
        prog = fractional_program(ineq_rhs)
        out = solve(prog)
        names = []
        for name, bad in tampers(out, prog):
            assert verify_certificate(prog, bad) is False, name
            assert verify_certificate_fractions(prog, bad) is False, name
            names.append(name)
        assert len(names) >= 9

    def test_non_rational_witness_rejected(self):
        prog = fractional_program(F(1, 3))
        out = solve(prog)
        assert verify_certificate(prog, tampered(out, value=float(out.value))) is False
        y_eq = (float(out.certificate.y_eq[0]),)
        assert verify_certificate(prog, tampered(out, y_eq=y_eq)) is False

    @pytest.mark.parametrize("seed", [505, 606])
    def test_random_rational_tampers_agree(self, seed):
        rng = random.Random(seed)
        checked = 0
        for _ in range(40):
            prog = random_rational_lp(rng)[0]
            out = solve(prog)
            assert verify_certificate(prog, out) and verify_certificate_fractions(prog, out)
            cert = out.certificate
            for field in ("y_eq", "y_ineq", "y_lb", "y_ub"):
                values = getattr(cert, field)
                if values:
                    k = rng.randrange(len(values))
                    delta = F(rng.choice([-1, 1]), rng.randrange(2, 12))
                    bad = tampered(out, **{field: bumped(values, k, delta)})
                    assert verify_certificate(prog, bad) == verify_certificate_fractions(prog, bad)
                    checked += 1
            if out.status == OPTIMAL:
                k = rng.randrange(len(out.primal))
                bad = tampered(out, primal=bumped(out.primal, k, F(1, rng.randrange(2, 12))))
                assert verify_certificate(prog, bad) == verify_certificate_fractions(prog, bad)
                checked += 1
        assert checked > 100

    def test_solver_outcomes_reach_the_oracle(self, both_verifiers):
        before = len(both_verifiers)
        solve(fractional_program(F(1, 3)))
        solve(fractional_program(F(1, 11)))
        assert both_verifiers[before:] == [True, True]
