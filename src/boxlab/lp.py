"""Exact linear programming over rationals.

Two-phase primal simplex.  Before phase 1 a crash step pivots a sparse
structural column into every mixed-sign equality row that starts with
rhs 0 on its artificial (the nonsignaling rows of every box LP), which
changes no rhs; a row with nothing outside the artificial columns is
implied by the others and is dropped.  Both phases price by Dantzig's rule (largest
reduced cost) and fall back to Bland's rule after a run of degenerate
pivots, until the next nondegenerate one, so the simplex cannot cycle.
The tableau holds each row, and the cost row, as a dict from column to
Python int numerator, zeros left out, over one positive denominator per
row, divided by their common gcd after every elimination, so each entry
is exactly the rational it stands for and the pivot rules see the same
values a Fraction tableau would.  A pivot updates only the rows holding
the pivot column, and in each only the pivot row's columns; rows turn
into Fractions only when the solution and the multipliers are read out.

Every outcome carries an exactly checkable witness: an optimal solve
returns the dual multipliers (strong duality holds with equality in
exact arithmetic), an infeasible solve returns a Farkas vector
combining the constraints into an impossible 0 <= negative.
`verify_certificate` re-checks it against the original problem in
integers, sharing no code with the tableau: the multipliers go over one
common denominator, the problem's coefficients and right-hand sides over
another, the primal over a third, and every equation and inequality of
the check is compared between the scaled numerators.

Problems are stated as

    maximize  objective . x
    s.t.      eq:    E x  = f        (multipliers free)
              ineq:  G x <= h        (multipliers >= 0)
              x >= 0

Every variable is nonnegative, so each is one tableau column;
inequalities get slacks, and infeasible-start rows get artificial
columns.  A program may have no variable at all, and then only its
right-hand sides decide it: the membership LP of a box whose support
fits no deterministic strategy is one.  There are no per-variable upper bounds: a bound x_i <= u is
the inequality row ((i, 1),) <= u, and no program boxlab states needs
one (the clone ceiling's C <= 1 follows from its own pin rows), so the
tableau, the certificate read-out and its check know two row kinds.
`LpCertificate.y_ub` stays in the certificate, one zero per variable,
so that every report keeps its format.

Rows and the objective are sparse: any iterable of (column, coefficient)
pairs, so a dense vector goes in as enumerate(vec).  LinearProgram checks
every column against 0..num_vars-1, sums repeated columns and drops zero
coefficients; it stores each row as a tuple of (column, Fraction) pairs
in column order, and every value goes through `core.rat`, so a float
raises TypeError.  A caller holding rows already in that form, with an
int allowed for a Fraction coefficient, may append (row, rhs) pairs to
`eqs` or `ineqs` directly.  Three do, each from rows cached per shape:
`polytope.ns_lp` the nonsignaling rows, with Fraction coefficients;
`locality.membership_lp` the local-membership rows at the spanning
entries, folded by the stabilizer of the frame `polytope.canonical_form`
picks for every box, with no pre-test (the trivial group on a box's own
labels; once per scenario and stabilizer), each box's columns renumbered
to the classes of strategies that fire no zero entry of its table; and
`shareability.folded_extension_lp` the orbit rows, folded by the box's
stabilizer (once per scenario, m and stabilizer; toward A is toward B on
the party-swapped box).  The last two hold int coefficients, summed per
class by `polytope.fold_row`, and pin the box through
`polytope.pin_rows`.  Each `solve` runs its own phase one
(standardization, the crash, phase 1 and pivoting the artificials out)
on the rows it is given: no question asks more than two LPs of one
feasible region, and a whole solve of the nonsignaling LP with no
objective takes 0.3-1.1 ms from 2222 to 2255 (Python 3.11, 2 vCPUs), so
a phase one kept for reuse would save little.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .core import BoxlabError, Frozen, ZERO, ensure, rat

_RATIONAL = (int, Fraction)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# consecutive degenerate pivots after which _run_simplex prices by Bland's
# rule until the next nondegenerate pivot
DEGENERATE_RUN = 20


class DimensionMismatch(BoxlabError):
    pass


class LpFormatError(BoxlabError):
    pass


class LinearProgram:
    """Mutable builder for an exact LP; see module docstring for the form.

    A stored row coefficient is an int or a Fraction: add_eq and add_ineq
    store Fractions, rows appended directly may hold ints.  Right-hand
    sides and the objective are Fractions."""

    def __init__(self, num_vars: int, objective: Iterable = ()):
        if num_vars < 0:
            raise LpFormatError("need a nonnegative number of variables")
        self.num_vars = num_vars
        self.objective = self._row(objective)
        self.eqs: list[tuple[tuple[tuple[int, int | Fraction], ...], Fraction]] = []
        self.ineqs: list[tuple[tuple[tuple[int, int | Fraction], ...], Fraction]] = []

    def _row(self, pairs: Iterable) -> tuple[tuple[int, Fraction], ...]:
        summed: dict[int, Fraction] = {}
        for col, c in pairs:
            if not 0 <= col < self.num_vars:
                raise DimensionMismatch(f"column {col} outside 0..{self.num_vars - 1}")
            summed[col] = summed.get(col, ZERO) + rat(c)
        return tuple(sorted((col, c) for col, c in summed.items() if c))

    def add_eq(self, pairs: Iterable, rhs) -> None:
        self.eqs.append((self._row(pairs), rat(rhs)))

    def add_ineq(self, pairs: Iterable, rhs) -> None:
        """pairs . x <= rhs"""
        self.ineqs.append((self._row(pairs), rat(rhs)))


class LpCertificate(Frozen):
    """Constraint multipliers: Farkas witness or optimal dual, by kind.

    y_eq is free-signed, y_ineq and y_lb are nonnegative; y_lb[i]
    multiplies (-x_i <= 0).  y_ub holds one zero per variable and keeps
    the report format: no variable has an upper bound for it to
    multiply, so verify_certificate refuses any nonzero entry.
    """

    def __init__(self, kind: str, y_eq: tuple, y_ineq: tuple, y_lb: tuple, y_ub: tuple):
        d = self.__dict__
        d["kind"] = kind  # "farkas" | "dual"
        d["y_eq"] = y_eq
        d["y_ineq"] = y_ineq
        d["y_lb"] = y_lb
        d["y_ub"] = y_ub


class LpOutcome(Frozen):
    def __init__(self, status: str, primal=None, value=None, certificate=None):
        d = self.__dict__
        d["status"] = status
        d["primal"] = primal
        d["value"] = value
        d["certificate"] = certificate


# ---------------------------------------------------------------------------
# simplex internals
#
# A tableau row is a dict {column: int numerator} of its nonzero entries,
# the rhs under key len(st.columns), over a positive int denominator kept
# beside it; (row, den) is always in lowest terms.  Dict order is not
# column order, so every rule that breaks ties by column index compares
# the indices itself.


def _lowest_terms(row, den):
    if den != 1:
        g = gcd(den, *row.values())
        if g != 1:
            return {j: v // g for j, v in row.items()}, den // g
    return row, den


def _eliminate(row, den, prow, pden, pc):
    """row - (row[pc] / den) * prow, where prow has value 1 at pc
    (prow[pc] == pden).  Only prow's columns change, unless the
    multiplier's denominator forces the whole row onto a larger one.
    May update `row` in place."""
    a = row[pc]
    if pden != 1:
        g = gcd(a, pden)
        if g != pden:
            scale = pden // g
            row = {j: v * scale for j, v in row.items()}
            den *= scale
        a //= g
    get = row.get
    for j, v in prow.items():
        w = get(j, 0) - a * v
        if w:
            row[j] = w
        else:  # a * v != 0, so j was in row
            del row[j]
    return _lowest_terms(row, den)


def _pivot(st, pr, pc):
    """Make column pc basic in row pr."""
    rows, dens = st.rows, st.dens
    prow = rows[pr]
    p = prow[pc]
    if p != dens[pr]:  # entry is not 1 yet: divide the row by it
        if p < 0:
            prow = {j: -v for j, v in prow.items()}
            p = -p
        g = gcd(*prow.values())
        if g != 1:
            prow = {j: v // g for j, v in prow.items()}
            p //= g
        rows[pr] = prow
        dens[pr] = p
    for i, row in enumerate(rows):
        if i != pr and pc in row:
            rows[i], dens[i] = _eliminate(row, dens[i], prow, p, pc)
    if pc in st.cost:
        st.cost, st.cost_den = _eliminate(st.cost, st.cost_den, prow, p, pc)
    st.basis[pr] = pc


def _set_cost(st, cost, cost_den):
    """Cost row {reduced costs..., rhs: -objective} for the current basis,
    from the cost vector cost / cost_den, a dict of nonzero columns."""
    row, den = _lowest_terms(dict(cost), cost_den)
    for i, b in enumerate(st.basis):
        if b in row:
            row, den = _eliminate(row, den, st.rows[i], st.dens[i], b)
    st.cost, st.cost_den = row, den


def _run_simplex(st, banned):
    """Dantzig's rule with a Bland fallback.  Returns "optimal" or
    "unbounded".

    The entering column is the one with the largest positive reduced cost
    (lowest index on ties); the leaving row has the minimal ratio, the
    smallest basic index among ties.  After DEGENERATE_RUN consecutive
    degenerate pivots (pivot row rhs 0) the entering column becomes the
    smallest eligible index, Bland's rule, until the next nondegenerate
    pivot.  This terminates: Bland's rule cannot cycle, so every run of
    degenerate pivots is finite, and every nondegenerate pivot strictly
    raises the objective, so no basis recurs across one."""
    rows, basis = st.rows, st.basis
    rhs_col = len(st.columns)
    skip = {*banned, rhs_col}
    degenerate = 0
    while True:
        pc = -1
        if degenerate >= DEGENERATE_RUN:
            pc = min((j for j, v in st.cost.items() if v > 0 and j not in skip), default=-1)
        else:
            best = 0
            for j, v in st.cost.items():
                if (v > best or (v == best and j < pc)) and j not in skip:
                    pc, best = j, v
        if pc < 0:
            return OPTIMAL
        # a row's ratio rhs / entry is the same over its own denominator
        pr = -1
        best_rhs = best_a = 0
        best_var = -1
        for i, row in enumerate(rows):
            a = row.get(pc, 0)
            if a > 0:
                b = row.get(rhs_col, 0)
                if pr >= 0:
                    lhs, rhs = b * best_a, best_rhs * a
                    if lhs > rhs or (lhs == rhs and basis[i] > best_var):
                        continue
                pr, best_rhs, best_a, best_var = i, b, a, basis[i]
        if pr < 0:
            return UNBOUNDED
        degenerate = degenerate + 1 if best_rhs == 0 else 0
        _pivot(st, pr, pc)


class _Standardized:
    """The program as an integer tableau, plus the bookkeeping to map
    witnesses back.  Column i is x_i for i < num_vars.

    Original rows are numbered equalities first, then inequalities;
    flips / unit_cols are indexed by that number and never shrink;
    `active` lists the original rows still present in the tableau
    (redundant equality rows found by the crash or after phase 1 get
    dropped).  rows, dens and basis run in step over the tableau rows.
    """

    def __init__(self, columns, rows, dens, basis, flips, unit_cols, active=None):
        self.columns = columns  # ("var", i) | ("slack", r) | ("art", r)
        self.rows = rows  # per tableau row, {column: int numerator}, rhs at len(columns)
        self.dens = dens  # positive denominator per tableau row
        self.basis = basis  # basic column per tableau row
        self.flips = flips  # +1 / -1 per row
        self.unit_cols = unit_cols  # per original row: column that started as its unit vector
        self.active = [] if active is None else active
        self.cost = {}  # cost row, -objective at len(columns)
        self.cost_den = 1


def _standardize(lp: LinearProgram) -> _Standardized:
    columns: list = [("var", i) for i in range(lp.num_vars)]
    raw_rows = lp.eqs + lp.ineqs  # (nonzero (var, coeff) terms, rhs)
    m = len(raw_rows)
    # slack columns for every inequality row
    slack_col = {}
    for r in range(len(lp.eqs), m):
        slack_col[r] = len(columns)
        columns.append(("slack", r))
    flips = [-1 if rhs < 0 else 1 for _, rhs in raw_rows]
    # initial basis: feasible slacks where possible, artificials elsewhere
    basis = []
    for r in range(m):
        if r in slack_col and flips[r] > 0:
            basis.append(slack_col[r])
        else:
            basis.append(len(columns))
            columns.append(("art", r))

    rows = []
    dens = []
    for r, (terms, rhs) in enumerate(raw_rows):
        flip = flips[r]
        den = lcm(rhs.denominator, *(c.denominator for _, c in terms))
        row = {i: flip * c.numerator * (den // c.denominator) for i, c in terms}
        if r in slack_col:
            row[slack_col[r]] = flip * den
        if columns[basis[r]][0] == "art":
            row[basis[r]] = den
        if rhs:
            row[len(columns)] = flip * rhs.numerator * (den // rhs.denominator)
        row, den = _lowest_terms(row, den)
        rows.append(row)
        dens.append(den)

    return _Standardized(
        columns=columns,
        rows=rows,
        dens=dens,
        basis=basis,
        flips=flips,
        unit_cols=list(basis),
        active=list(range(m)),
    )


def _certificate(lp, st: _Standardized, kind, cost, cost_den) -> LpCertificate:
    """The "farkas" or "dual" certificate read off the final cost row of the
    phase whose cost vector was cost / cost_den.

    That row holds c - c_B B^{-1} A, so on column j it reads c_j - y A_j for
    the row multipliers y = c_B B^{-1}: one integer difference over
    cost_den * st.cost_den.  Each active original row's unit column (its
    artificial, or its starting slack) gives its multiplier; times the
    row's flip, that multiplies its constraint.  On x_i's column the flips
    cancel, and y A_i multiplies (-x_i <= 0), less c_i for a dual.  Rows
    dropped as redundant get no multiplier: their artificial's column
    stays zero in every remaining row.
    """
    den = cost_den * st.cost_den

    def y_dot(col):
        return Fraction(cost.get(col, 0) * st.cost_den - st.cost.get(col, 0) * cost_den, den)

    y = [ZERO] * (len(lp.eqs) + len(lp.ineqs))
    for orig in st.active:
        y[orig] = st.flips[orig] * y_dot(st.unit_cols[orig])
    y_lb = [y_dot(i) for i in range(lp.num_vars)]
    if kind == "dual":
        for i, c in lp.objective:
            y_lb[i] -= c
    ne = len(lp.eqs)
    return LpCertificate(kind, tuple(y[:ne]), tuple(y[ne:]), tuple(y_lb), (ZERO,) * lp.num_vars)


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; an optimal or infeasible outcome's certificate
    always re-verifies, an unbounded one carries none.

    Every variable is one nonnegative tableau column, and every
    constraint is an equality or inequality row; rows that no x >= 0
    meets are answered by a Farkas certificate from phase 1.  The crash
    step (`_crash`) first makes a structural column basic in each
    mixed-sign equality row with rhs 0, then both phases run
    `_run_simplex`: Dantzig pricing with a Bland fallback after
    DEGENERATE_RUN consecutive degenerate pivots, which terminates (see
    there).  Every tableau entry is the exact rational, so the pivots are
    those the rules pick on the rational tableau, and the vertex and the
    multipliers returned depend on them; the status and the optimal value
    do not.  Deterministic for identical inputs (fixed construction order
    and pivot rules, lowest index on every tie).  Raises no numerical
    exceptions: every status is decided in exact arithmetic, and
    `verify_certificate` re-checks each optimal or infeasible outcome
    exactly before it is returned.
    """
    st = _standardize(lp)
    art_cols = {j for j, c in enumerate(st.columns) if c[0] == "art"}
    if art_cols:
        _crash(st, art_cols)
        cost1 = dict.fromkeys(art_cols, -1)
        _set_cost(st, cost1, 1)
        status = _run_simplex(st, banned=set())
        ensure(status == OPTIMAL, f"phase 1 ended {status}; its objective is bounded by 0")
        if len(st.columns) in st.cost:  # max of -sum(artificials) is negative
            cert = _certificate(lp, st, "farkas", cost1, 1)
            out = LpOutcome(INFEASIBLE, certificate=cert)
            ensure(verify_certificate(lp, out), "Farkas certificate fails to verify")
            return out
        # phase 1's cost row goes before the purge, so its pivots have none to update
        st.cost, st.cost_den = {}, 1
        _purge_artificials(st, art_cols)

    rhs_col = len(st.columns)
    # the objective's coefficients are in lowest terms, so over the lcm of
    # their denominators their numerators share no factor with it
    cost2_den = lcm(*(c.denominator for _, c in lp.objective))
    cost2 = {i: c.numerator * (cost2_den // c.denominator) for i, c in lp.objective}
    _set_cost(st, cost2, cost2_den)
    status = _run_simplex(st, banned=art_cols)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    basic = {b: Fraction(row.get(rhs_col, 0), den) for b, row, den in zip(st.basis, st.rows, st.dens)}
    primal = [basic.get(i, ZERO) for i in range(lp.num_vars)]
    value = sum((c * primal[i] for i, c in lp.objective), ZERO)

    cert = _certificate(lp, st, "dual", cost2, cost2_den)
    out = LpOutcome(OPTIMAL, tuple(primal), value, cert)
    ensure(verify_certificate(lp, out), "optimal solution and dual certificate fail to verify")
    return out


def _drop_row(st, r):
    """Delete tableau row r, whose basic artificial's row is zero outside
    the artificial columns: the original equality row owning that
    artificial is implied by the others, so both go."""
    st.active.remove(st.columns[st.basis[r]][1])
    del st.rows[r]
    del st.dens[r]
    del st.basis[r]


def _crash(st, art_cols):
    """Pivot a structural column into the rows that start on an
    artificial with rhs 0, before phase 1.

    Each such row takes the column with a nonzero there and the fewest
    nonzeros in the initial tableau (lowest index on ties); a row with
    none outside the artificial columns is dropped.  The pivot row's rhs
    is 0, so no rhs changes and the start stays feasible.  A row whose
    entries all have one sign keeps its artificial: it forces each of its
    columns to 0, so a column pivoted in there could never leave 0 (on
    the local-membership LPs, whose zero table entries give such rows,
    crashing them cost a fifth more pivots).
    """
    rhs_col = len(st.columns)
    counts = [0] * (rhs_col + 1)
    for row in st.rows:
        for j in row:
            counts[j] += 1
    r = 0
    while r < len(st.rows):
        row = st.rows[r]
        if st.basis[r] in art_cols and rhs_col not in row:
            candidates = sorted(j for j in row if j not in art_cols)
            if not candidates:
                _drop_row(st, r)
                continue
            if min(row[j] for j in candidates) < 0 < max(row[j] for j in candidates):
                _pivot(st, r, min(candidates, key=counts.__getitem__))
        r += 1


def _purge_artificials(st, art_cols):
    """Pivot basic artificials out after phase 1, dropping rows that are
    zero outside the artificial columns."""
    skip = {*art_cols, len(st.columns)}
    r = 0
    while r < len(st.rows):
        if st.basis[r] in art_cols:
            pc = min((j for j in st.rows[r] if j not in skip), default=-1)
            if pc >= 0:
                _pivot(st, r, pc)
            else:
                _drop_row(st, r)
                continue
        r += 1


def _over(values, den):
    """Integer numerators of rationals over a common multiple `den` of
    their denominators."""
    return [v.numerator * (den // v.denominator) for v in values]


def verify_certificate(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Independent exact re-check of an outcome against the original LP.

    The multipliers are scaled to integers over their common denominator
    D, the problem's coefficients and right-hand sides over theirs, L,
    and the primal over its own, XD; column products and the combined
    right-hand side are then sums over D * L, the row sums over L * XD,
    and every comparison is between ints.  The program has no upper
    bounds, so a nonzero y_ub entry multiplies no constraint and is
    refused.  An unbounded outcome carries no witness, and a multiplier,
    primal entry or value that is not an int or a Fraction is no exact
    witness, so neither verifies.
    """
    cert = outcome.certificate
    if cert is None:
        return False
    n = lp.num_vars
    lengths = (len(cert.y_eq), len(cert.y_ineq), len(cert.y_lb), len(cert.y_ub))
    if lengths != (len(lp.eqs), len(lp.ineqs), n, n):
        return False
    multipliers = [*cert.y_eq, *cert.y_ineq, *cert.y_lb]
    if not all(isinstance(v, _RATIONAL) for v in (*multipliers, *cert.y_ub)):
        return False
    if any(v < 0 for v in cert.y_ineq) or any(v < 0 for v in cert.y_lb) or any(cert.y_ub):
        return False

    D = lcm(*(v.denominator for v in multipliers))
    y = _over(multipliers, D)
    y_rows, y_lb = y[:len(y) - n], y[len(y) - n:]
    rows = lp.eqs + lp.ineqs
    L = lcm(
        *(c.denominator for terms, _ in rows for _, c in terms),
        *(rhs.denominator for _, rhs in rows),
        *(c.denominator for _, c in lp.objective),
    )
    rhs_l = _over([rhs for _, rhs in rows], L)

    # alpha[i] = y . (column of x_i) and the combined rhs, both over D * L
    alpha = [0] * n
    combined = 0
    for (terms, _), h, m in zip(rows, rhs_l, y_rows):
        if m:
            for i, c in terms:
                alpha[i] += m * c.numerator * (L // c.denominator)
            combined += m * h

    if outcome.status == INFEASIBLE:
        if cert.kind != "farkas":
            return False
        if any(alpha[i] != y_lb[i] * L for i in range(n)):
            return False
        return combined < 0

    if outcome.status == OPTIMAL:
        if cert.kind != "dual" or outcome.primal is None:
            return False
        value = outcome.value
        if len(outcome.primal) != n or not isinstance(value, _RATIONAL):
            return False
        if not all(isinstance(v, _RATIONAL) for v in outcome.primal):
            return False
        XD = lcm(*(v.denominator for v in outcome.primal))
        x = _over(outcome.primal, XD)
        if any(v < 0 for v in x):
            return False
        # row sums over L * XD
        sums = [sum(c.numerator * (L // c.denominator) * x[i] for i, c in terms) for terms, _ in rows]
        bounds = [h * XD for h in rhs_l]
        ne = len(lp.eqs)
        if sums[:ne] != bounds[:ne] or any(s > b for s, b in zip(sums[ne:], bounds[ne:])):
            return False
        objective = [0] * n
        for i, c in lp.objective:
            objective[i] = c.numerator * (L // c.denominator)
        if sum(c * v for c, v in zip(objective, x)) * value.denominator != value.numerator * L * XD:
            return False
        # dual feasibility: stationarity per variable, then value equality
        if any(alpha[i] - y_lb[i] * L != objective[i] * D for i in range(n)):
            return False
        return combined * value.denominator == value.numerator * D * L

    return False
