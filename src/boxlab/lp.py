"""Exact linear programming over rationals.

Two-phase primal simplex with Bland's anti-cycling rule on a dense
Fraction tableau.  Every outcome carries an exactly checkable witness:
an optimal solve returns the dual multipliers (strong duality holds with
equality in exact arithmetic), an infeasible solve returns a Farkas
vector combining the constraints into an impossible 0 <= negative.

Problems are stated as

    maximize  objective . x
    s.t.      eq:    E x  = f        (multipliers free)
              ineq:  G x <= h        (multipliers >= 0)
              lower_i <= x_i <= upper_i

with lower bounds defaulting to 0, None meaning free below / unbounded
above.  Internally variables are shifted or split to z >= 0, inequalities
get slacks, and infeasible-start rows get artificial columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class DimensionMismatch(Exception):
    pass


class LpFormatError(Exception):
    pass


def _vec(values, n: int) -> tuple[Fraction, ...]:
    out = tuple(Fraction(v) for v in values)
    if len(out) != n:
        raise DimensionMismatch(f"vector has {len(out)} entries, expected {n}")
    return out


class LinearProgram:
    """Mutable builder for an exact LP; see module docstring for the form."""

    def __init__(self, num_vars: int, objective: Optional[Sequence] = None):
        if num_vars < 1:
            raise LpFormatError("need at least one variable")
        self.num_vars = num_vars
        self.objective: tuple[Fraction, ...] = (
            _vec(objective, num_vars) if objective is not None else (ZERO,) * num_vars
        )
        self.eqs: list[tuple[tuple[Fraction, ...], Fraction]] = []
        self.ineqs: list[tuple[tuple[Fraction, ...], Fraction]] = []
        self.lower: list[Optional[Fraction]] = [ZERO] * num_vars
        self.upper: list[Optional[Fraction]] = [None] * num_vars

    def set_objective(self, coeffs: Sequence) -> None:
        self.objective = _vec(coeffs, self.num_vars)

    def add_eq(self, coeffs: Sequence, rhs) -> None:
        self.eqs.append((_vec(coeffs, self.num_vars), Fraction(rhs)))

    def add_ineq(self, coeffs: Sequence, rhs) -> None:
        """coeffs . x <= rhs"""
        self.ineqs.append((_vec(coeffs, self.num_vars), Fraction(rhs)))

    def set_bounds(self, i: int, lower=ZERO, upper=None) -> None:
        self.lower[i] = None if lower is None else Fraction(lower)
        self.upper[i] = None if upper is None else Fraction(upper)


@dataclass(frozen=True)
class LpCertificate:
    """Constraint multipliers: Farkas witness or optimal dual, by kind.

    y_eq is free-signed, the rest are nonnegative.  y_lb[i] multiplies
    (-x_i <= -lower_i), y_ub[i] multiplies (x_i <= upper_i); entries for
    absent bounds are zero.
    """

    kind: str  # "farkas" | "dual"
    y_eq: tuple[Fraction, ...]
    y_ineq: tuple[Fraction, ...]
    y_lb: tuple[Fraction, ...]
    y_ub: tuple[Fraction, ...]


@dataclass(frozen=True)
class LpOutcome:
    status: str
    primal: Optional[tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    certificate: Optional[LpCertificate] = None


# ---------------------------------------------------------------------------
# simplex internals


def _pivot(rows, costrow, basis, pr, pc):
    prow = rows[pr]
    piv = prow[pc]
    if piv != 1:
        prow = [v / piv for v in prow]
        rows[pr] = prow
    for i, row in enumerate(rows):
        if i == pr:
            continue
        f = row[pc]
        if f:
            rows[i] = [a - f * b if b else a for a, b in zip(row, prow)]
    f = costrow[pc]
    if f:
        costrow[:] = [a - f * b if b else a for a, b in zip(costrow, prow)]
    basis[pr] = pc


def _reduced_costs(rows, basis, cost):
    """Cost row [reduced costs..., -objective] for the given basis."""
    costrow = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        f = costrow[b]
        if f:
            prow = rows[i]
            costrow[:] = [a - f * p if p else a for a, p in zip(costrow, prow)]
    return costrow


def _run_simplex(rows, costrow, basis, banned):
    """Bland's rule: smallest eligible entering index, smallest basic
    index among minimal ratios.  Returns "optimal" or "unbounded"."""
    ncols = len(costrow) - 1
    while True:
        pc = -1
        for j in range(ncols):
            if costrow[j] > 0 and j not in banned:
                pc = j
                break
        if pc < 0:
            return OPTIMAL
        pr = -1
        best = None
        best_var = -1
        for i, row in enumerate(rows):
            a = row[pc]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < best_var):
                    pr, best, best_var = i, ratio, basis[i]
        if pr < 0:
            return UNBOUNDED
        _pivot(rows, costrow, basis, pr, pc)


@dataclass
class _Standardized:
    """z >= 0 form plus the bookkeeping to map witnesses back.

    row_kinds / flips / unit_cols are indexed by original row id and never
    shrink; `active` lists the original rows still present in the tableau
    (redundant equality rows found in phase 1 get dropped).
    """

    columns: list  # ("var", i) | ("neg", i) | ("slack", r) | ("art", r)
    rows: list  # tableau rows, rhs last
    row_kinds: list  # ("eq", j) | ("ineq", j) | ("ub", i)
    flips: list  # +1 / -1 per row
    unit_cols: list  # per original row: column that started as its unit vector
    shift: list  # per original var: lb used for shifting (0 for free)
    var_cols: list  # per original var: ("single", col) | ("split", pos, neg)
    n_struct: int
    active: list = field(default_factory=list)


def _standardize(lp: LinearProgram) -> _Standardized:
    nv = lp.num_vars
    shift = []
    var_cols = []
    columns: list = []
    for i in range(nv):
        lb = lp.lower[i]
        if lb is None:
            var_cols.append(("split", len(columns), len(columns) + 1))
            columns.append(("var", i))
            columns.append(("neg", i))
            shift.append(ZERO)
        else:
            var_cols.append(("single", len(columns)))
            columns.append(("var", i))
            shift.append(lb)

    raw_rows = []  # (dense z-coeffs, rhs, kind)

    def z_coeffs(coeffs):
        row = [ZERO] * len(columns)
        off = ZERO
        for i, c in enumerate(coeffs):
            if not c:
                continue
            spec = var_cols[i]
            if spec[0] == "single":
                row[spec[1]] = c
            else:
                row[spec[1]] = c
                row[spec[2]] = -c
            off += c * shift[i]
        return row, off

    for j, (coeffs, rhs) in enumerate(lp.eqs):
        row, off = z_coeffs(coeffs)
        raw_rows.append((row, rhs - off, ("eq", j)))
    for j, (coeffs, rhs) in enumerate(lp.ineqs):
        row, off = z_coeffs(coeffs)
        raw_rows.append((row, rhs - off, ("ineq", j)))
    for i in range(nv):
        ub = lp.upper[i]
        if ub is None:
            continue
        unit = [ZERO] * nv
        unit[i] = ONE
        row, off = z_coeffs(unit)
        raw_rows.append((row, ub - off, ("ub", i)))

    n_struct = len(columns)
    m = len(raw_rows)
    # slack columns for every non-eq row
    slack_col = {}
    for r, (_, _, kind) in enumerate(raw_rows):
        if kind[0] != "eq":
            slack_col[r] = len(columns)
            columns.append(("slack", r))
    n_with_slack = len(columns)

    rows = []
    flips = []
    kinds = []
    for r, (row, rhs, kind) in enumerate(raw_rows):
        flip = -1 if rhs < 0 else 1
        full = row + [ZERO] * (n_with_slack - n_struct)
        if r in slack_col:
            full[slack_col[r]] = ONE
        if flip < 0:
            full = [-v for v in full]
            rhs = -rhs
        full.append(rhs)
        rows.append(full)
        flips.append(flip)
        kinds.append(kind)

    st = _Standardized(
        columns=columns,
        rows=rows,
        row_kinds=kinds,
        flips=flips,
        unit_cols=[-1] * m,
        shift=shift,
        var_cols=var_cols,
        n_struct=n_struct,
    )
    # initial basis: feasible slacks where possible, artificials elsewhere
    basis = [-1] * m
    for r in range(m):
        if r in slack_col and flips[r] > 0:
            basis[r] = slack_col[r]
            st.unit_cols[r] = slack_col[r]
    for r in range(m):
        if basis[r] < 0:
            col = len(st.columns)
            st.columns.append(("art", r))
            for rr, row in enumerate(st.rows):
                row.insert(-1, ONE if rr == r else ZERO)
            basis[r] = col
            st.unit_cols[r] = col
    st.basis = basis  # type: ignore[attr-defined]
    st.active = list(range(m))
    return st


def _row_multipliers(st: _Standardized, rows, basis, cost) -> dict:
    """y = c_B B^{-1}, keyed by original row id.

    Each active original row contributed one unit column to the original
    matrix (its artificial, or its slack when that started basic), so the
    corresponding tableau column holds a column of B^{-1}.
    """
    y = {}
    cb = [cost[b] if b < len(cost) else ZERO for b in basis]
    for orig in st.active:
        uc = st.unit_cols[orig]
        total = ZERO
        for k, row in enumerate(rows):
            if cb[k]:
                v = row[uc]
                if v:
                    total += cb[k] * v
        y[orig] = total
    return y


def _assemble_certificate(lp, st, kind, y_by_origrow, alpha) -> LpCertificate:
    """Map internal row multipliers and column products to the original
    constraint families.  alpha[i] is y . (column of x_i)."""
    y_eq, y_ineq, y_ub = _partial_rows(lp, st, y_by_origrow)
    if kind == "farkas":
        y_lb = [alpha[i] if lp.lower[i] is not None else ZERO for i in range(lp.num_vars)]
    else:
        y_lb = [
            alpha[i] - lp.objective[i] if lp.lower[i] is not None else ZERO
            for i in range(lp.num_vars)
        ]
    return LpCertificate(kind, tuple(y_eq), tuple(y_ineq), tuple(y_lb), tuple(y_ub))


def _column_products(lp, cert_rows):
    """alpha[i] = sum over rows of multiplier * coefficient of x_i, using
    original-space multipliers (eq/ineq/ub families)."""
    y_eq, y_ineq, y_ub = cert_rows
    alpha = [ZERO] * lp.num_vars
    for (coeffs, _), m in zip(lp.eqs, y_eq):
        if m:
            for i, c in enumerate(coeffs):
                if c:
                    alpha[i] += m * c
    for (coeffs, _), m in zip(lp.ineqs, y_ineq):
        if m:
            for i, c in enumerate(coeffs):
                if c:
                    alpha[i] += m * c
    for i in range(lp.num_vars):
        if y_ub[i]:
            alpha[i] += y_ub[i]
    return alpha


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve exactly; the returned certificate always re-verifies.

    Deterministic for identical inputs (fixed construction order and
    Bland's pivot rule).  Raises no numerical exceptions: every status is
    decided in exact arithmetic.
    """
    # trivially conflicting bounds need no simplex
    for i in range(lp.num_vars):
        lb, ub = lp.lower[i], lp.upper[i]
        if lb is not None and ub is not None and lb > ub:
            y_lb = [ZERO] * lp.num_vars
            y_ub = [ZERO] * lp.num_vars
            y_lb[i] = ONE
            y_ub[i] = ONE
            cert = LpCertificate(
                "farkas",
                (ZERO,) * len(lp.eqs),
                (ZERO,) * len(lp.ineqs),
                tuple(y_lb),
                tuple(y_ub),
            )
            out = LpOutcome(INFEASIBLE, certificate=cert)
            assert verify_certificate(lp, out)
            return out

    st = _standardize(lp)
    rows = st.rows
    basis = st.basis  # type: ignore[attr-defined]
    ncols = len(st.columns)
    art_cols = {j for j, c in enumerate(st.columns) if c[0] == "art"}

    if art_cols:
        cost1 = [ZERO] * ncols
        for j in art_cols:
            cost1[j] = -ONE
        costrow = _reduced_costs(rows, basis, cost1)
        status = _run_simplex(rows, costrow, basis, banned=set())
        assert status == OPTIMAL  # phase 1 objective is bounded above by 0
        if costrow[-1] != 0:  # max of -sum(artificials) is negative
            y = _row_multipliers(st, rows, basis, cost1)
            cert_rows = _partial_rows(lp, st, y)
            alpha = _column_products(lp, cert_rows)
            cert = _assemble_certificate(lp, st, "farkas", y, alpha)
            out = LpOutcome(INFEASIBLE, certificate=cert)
            assert verify_certificate(lp, out)
            return out
        _purge_artificials(st, rows, basis, art_cols)

    cost2 = [ZERO] * len(st.columns)
    for i in range(lp.num_vars):
        c = lp.objective[i]
        if not c:
            continue
        spec = st.var_cols[i]
        if spec[0] == "single":
            cost2[spec[1]] = c
        else:
            cost2[spec[1]] = c
            cost2[spec[2]] = -c
    costrow = _reduced_costs(rows, basis, cost2)
    status = _run_simplex(rows, costrow, basis, banned=art_cols)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED)

    zvals = {b: rows[i][-1] for i, b in enumerate(basis)}
    primal = []
    for i in range(lp.num_vars):
        spec = st.var_cols[i]
        if spec[0] == "single":
            primal.append(zvals.get(spec[1], ZERO) + st.shift[i])
        else:
            primal.append(zvals.get(spec[1], ZERO) - zvals.get(spec[2], ZERO))
    value = sum((c * v for c, v in zip(lp.objective, primal) if c), ZERO)

    y = _row_multipliers(st, rows, basis, cost2)
    cert_rows = _partial_rows(lp, st, y)
    alpha = _column_products(lp, cert_rows)
    cert = _assemble_certificate(lp, st, "dual", y, alpha)
    out = LpOutcome(OPTIMAL, tuple(primal), value, cert)
    assert verify_certificate(lp, out)
    return out


def _partial_rows(lp, st, y_by_origrow):
    y_eq = [ZERO] * len(lp.eqs)
    y_ineq = [ZERO] * len(lp.ineqs)
    y_ub = [ZERO] * lp.num_vars
    for orig, yv in y_by_origrow.items():
        m = st.flips[orig] * yv
        fam, idx = st.row_kinds[orig]
        if fam == "eq":
            y_eq[idx] = m
        elif fam == "ineq":
            y_ineq[idx] = m
        else:
            y_ub[idx] = m
    return y_eq, y_ineq, y_ub


def _purge_artificials(st, rows, basis, art_cols):
    """Pivot basic artificials out after phase 1; a tableau row that is zero
    outside the artificial columns certifies that the original equality row
    owning the basic artificial is implied by the others, so both go."""
    r = 0
    while r < len(rows):
        if basis[r] in art_cols:
            row = rows[r]
            pc = -1
            for j in range(len(st.columns)):
                if j not in art_cols and row[j]:
                    pc = j
                    break
            if pc >= 0:
                _pivot(rows, [ZERO] * (len(st.columns) + 1), basis, r, pc)
            else:
                owner = st.columns[basis[r]][1]
                st.active.remove(owner)
                del rows[r]
                del basis[r]
                continue
        r += 1


def verify_certificate(lp: LinearProgram, outcome: LpOutcome) -> bool:
    """Independent exact re-check of an outcome against the original LP."""
    if outcome.status == UNBOUNDED:
        return True
    cert = outcome.certificate
    if cert is None:
        return False
    lengths = (len(cert.y_eq), len(cert.y_ineq), len(cert.y_lb), len(cert.y_ub))
    if lengths != (len(lp.eqs), len(lp.ineqs), lp.num_vars, lp.num_vars):
        return False
    if any(v < 0 for v in cert.y_ineq) or any(v < 0 for v in cert.y_lb):
        return False
    if any(v < 0 for v in cert.y_ub):
        return False
    for i in range(lp.num_vars):
        if lp.lower[i] is None and cert.y_lb[i] != 0:
            return False
        if lp.upper[i] is None and cert.y_ub[i] != 0:
            return False
    alpha = _column_products(lp, (cert.y_eq, cert.y_ineq, cert.y_ub))
    combined_rhs = ZERO
    for (_, rhs), m in zip(lp.eqs, cert.y_eq):
        combined_rhs += m * rhs
    for (_, rhs), m in zip(lp.ineqs, cert.y_ineq):
        combined_rhs += m * rhs
    for i in range(lp.num_vars):
        if cert.y_ub[i]:
            combined_rhs += cert.y_ub[i] * lp.upper[i]
        if cert.y_lb[i]:
            combined_rhs -= cert.y_lb[i] * lp.lower[i]

    if outcome.status == INFEASIBLE:
        if cert.kind != "farkas":
            return False
        if any(alpha[i] - cert.y_lb[i] != 0 for i in range(lp.num_vars)):
            return False
        return combined_rhs < 0

    if outcome.status == OPTIMAL:
        if cert.kind != "dual" or outcome.primal is None:
            return False
        x = outcome.primal
        if len(x) != lp.num_vars:
            return False
        for i in range(lp.num_vars):
            if lp.lower[i] is not None and x[i] < lp.lower[i]:
                return False
            if lp.upper[i] is not None and x[i] > lp.upper[i]:
                return False
        for coeffs, rhs in lp.eqs:
            if sum((c * v for c, v in zip(coeffs, x) if c), ZERO) != rhs:
                return False
        for coeffs, rhs in lp.ineqs:
            if sum((c * v for c, v in zip(coeffs, x) if c), ZERO) > rhs:
                return False
        if sum((c * v for c, v in zip(lp.objective, x) if c), ZERO) != outcome.value:
            return False
        # dual feasibility: stationarity per variable, then value equality
        for i in range(lp.num_vars):
            if alpha[i] - cert.y_lb[i] != lp.objective[i]:
                return False
        return combined_rhs == outcome.value

    return False
