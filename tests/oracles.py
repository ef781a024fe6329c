"""Independent oracles the test suite checks the package against.

Everything here is deliberately coded from scratch: exact Gaussian
elimination for vertex enumeration of small LPs and for the rank of a
set of rows, a coordinate parametrization of the 2222 nonsignaling
polytope, the local-membership LP over every table entry and an
alternative formulation of it, the symmetric-extension LP over the
full table with explicit symmetry rows, the orbit LP's rows found by
folding every row of that table, and marginals and trace conditions
read off one dense pass over the table, local bounds of Bell
functionals from every strategy box built entry by entry, the LP
certificate check in plain Fraction arithmetic, compatibility of two
observables as feasibility of a joint table, parties reordered
coordinate by coordinate, and the canonical relabeling of an extension
problem and its stabilizer found by trying every relabeling, with its
witness unfolded through core.relabel.  None of it shares
code with the package paths it cross-checks.

Two constructions that no package path uses live here too, for the
tests that build boxes with them: `condition`, a box conditioned on one
party's outcome, and `shared_shift_symmetrize`, a bipartite box
averaged over a shared shift of both outputs.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from boxlab import lp
from boxlab.core import (
    Box,
    BoxlabError,
    Scenario,
    ScenarioMismatch,
    ZERO,
    ONE,
    marginal,
    mix,
    relabel,
    validate_box,
)


def _solve_fraction_square(matrix, rhs):
    """Gauss-Jordan solve; None when singular."""
    n = len(matrix)
    a = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col]:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pr = a[col]
        pv = pr[col]
        if pv != 1:
            a[col] = pr = [v / pv for v in pr]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], pr)]
    return [a[r][n] for r in range(n)]


def fraction_rank(rows) -> int:
    """Rank of dense rows by exact Fraction elimination."""
    a = [list(map(Fraction, row)) for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        for r in range(rank + 1, len(a)):
            if a[r][col]:
                f = a[r][col] / pr[col]
                a[r] = [x - f * y for x, y in zip(a[r], pr)]
        rank += 1
    return rank


def _feasible(x, eq_rows, ineq_rows):
    for coeffs, rhs in eq_rows:
        if sum((c * v for c, v in zip(coeffs, x) if c), Fraction(0)) != rhs:
            return False
    for coeffs, rhs in ineq_rows:
        if sum((c * v for c, v in zip(coeffs, x) if c), Fraction(0)) > rhs:
            return False
    return True


def brute_force_lp(prog: lp.LinearProgram, bounds):
    """Exhaustive vertex enumeration for a small LP with finite bounds.

    `prog` holds the rows and the objective over x, and bounds[i] is the
    (lo, hi) of lo <= x_i <= hi; the bounds `prog` itself holds are not
    read.  Equalities are always active; every (n - #eqs)-subset of
    inequality and bound rows is intersected exactly and the optimum is
    the best objective over feasible vertices.  Finite bounds on every
    variable keep the feasible set a polytope, so "no vertex" means
    infeasible.  Returns ("optimal", value) or ("infeasible", None).
    """
    n = prog.num_vars
    if len(bounds) != n:
        raise ValueError(f"{len(bounds)} bounds for {n} variables")

    def dense(pairs):
        row = [Fraction(0)] * n
        for i, c in pairs:
            row[i] += c
        return row

    ineq_rows = []
    for coeffs, rhs in prog.ineqs:
        ineq_rows.append((dense(coeffs), Fraction(rhs)))
    for i, (lower, upper) in enumerate(bounds):
        lo = [Fraction(0)] * n
        lo[i] = Fraction(-1)
        ineq_rows.append((lo, -Fraction(lower)))
        hi = [Fraction(0)] * n
        hi[i] = Fraction(1)
        ineq_rows.append((hi, Fraction(upper)))
    eq_rows = [(dense(coeffs), Fraction(rhs)) for coeffs, rhs in prog.eqs]
    objective = dense(prog.objective)
    free = max(0, n - len(eq_rows))
    best = None
    for subset in itertools.combinations(range(len(ineq_rows)), free):
        rows = eq_rows + [ineq_rows[i] for i in subset]
        if len(rows) != n:
            continue
        sol = _solve_fraction_square([r[0] for r in rows], [r[1] for r in rows])
        if sol is None or not _feasible(sol, eq_rows, ineq_rows):
            continue
        value = sum(
            (Fraction(c) * v for c, v in zip(objective, sol) if c), Fraction(0)
        )
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def deterministic_box_tables(scenario: Scenario):
    """All candidate deterministic tables: one output tuple per input tuple.
    Unlike deterministic strategies these may be signaling."""
    n_out = scenario.num_output_tuples
    for choice in itertools.product(
        range(n_out), repeat=scenario.num_input_tuples
    ):
        table = [ZERO] * scenario.table_size
        for xi, oi in enumerate(choice):
            table[xi * n_out + oi] = ONE
        yield Box(scenario, tuple(table))


def local_bound_by_enumeration(functional) -> Fraction:
    """Maximum of a Bell functional over the deterministic strategy boxes,
    each box built entry by entry from per-party response tables and
    evaluated in Fractions."""
    sc = functional.scenario
    per_party = [list(itertools.product(range(a), repeat=x)) for x, a in zip(sc.inputs, sc.outputs)]
    best = None
    for tables in itertools.product(*per_party):
        value = functional.offset
        for xs in itertools.product(*(range(x) for x in sc.inputs)):
            for outs in itertools.product(*(range(a) for a in sc.outputs)):
                if all(outs[k] == tables[k][xs[k]] for k in range(sc.parties)):
                    value += functional.coefficients[sc.flat_index(outs, xs)]
        if best is None or value > best:
            best = value
    return best


def verify_certificate_fractions(prog: lp.LinearProgram, outcome: lp.LpOutcome) -> bool:
    """The LP certificate check in plain Fraction arithmetic: column
    products, combined right-hand side, row sums and objective summed as
    Fractions, against which the package's integer check is compared."""
    cert = outcome.certificate
    if cert is None:
        return False
    n = prog.num_vars
    lengths = (len(cert.y_eq), len(cert.y_ineq), len(cert.y_lb), len(cert.y_ub))
    if lengths != (len(prog.eqs), len(prog.ineqs), n, n):
        return False
    if any(v < 0 for v in cert.y_ineq) or any(v < 0 for v in cert.y_lb):
        return False
    if any(v < 0 for v in cert.y_ub):
        return False
    for i in range(n):
        if prog.upper[i] is None and cert.y_ub[i] != 0:
            return False
    alpha = [ZERO] * n
    combined_rhs = ZERO
    for (terms, rhs), m in zip(prog.eqs + prog.ineqs, [*cert.y_eq, *cert.y_ineq]):
        if m:
            for i, c in terms:
                alpha[i] += m * c
            combined_rhs += m * rhs
    for i in range(n):
        if cert.y_ub[i]:
            alpha[i] += cert.y_ub[i]
            combined_rhs += cert.y_ub[i] * prog.upper[i]

    if outcome.status == lp.INFEASIBLE:
        if cert.kind != "farkas":
            return False
        if any(alpha[i] - cert.y_lb[i] != 0 for i in range(n)):
            return False
        return combined_rhs < 0

    if outcome.status == lp.OPTIMAL:
        if cert.kind != "dual" or outcome.primal is None:
            return False
        x = outcome.primal
        if len(x) != n:
            return False
        for i in range(n):
            if x[i] < 0 or (prog.upper[i] is not None and x[i] > prog.upper[i]):
                return False
        for terms, rhs in prog.eqs:
            if sum((c * x[i] for i, c in terms), ZERO) != rhs:
                return False
        for terms, rhs in prog.ineqs:
            if sum((c * x[i] for i, c in terms), ZERO) > rhs:
                return False
        if sum((c * x[i] for i, c in prog.objective), ZERO) != outcome.value:
            return False
        objective = dict(prog.objective)
        for i in range(n):
            if alpha[i] - cert.y_lb[i] != objective.get(i, ZERO):
                return False
        return combined_rhs == outcome.value

    return False


def ns_vertices_2222_by_enumeration():
    """All vertices of the 2222 nonsignaling polytope, found from scratch.

    Coordinates: pA(0|x) for x = 0,1, pB(0|y) for y = 0,1, and P(00|xy)
    for the four input pairs.  Every full-table entry is affine in these
    eight numbers; nonnegativity gives 16 inequalities whose feasible
    8-fold intersections are the vertices.  Returns distinct Boxes.
    """

    def entry_affine(x, y, a, b):
        # P(ab|xy) = const + coeffs . v
        co = [Fraction(0)] * 8
        const = Fraction(0)
        jidx = 4 + 2 * x + y
        if (a, b) == (0, 0):
            co[jidx] = Fraction(1)
        elif (a, b) == (0, 1):
            co[x] = Fraction(1)
            co[jidx] = Fraction(-1)
        elif (a, b) == (1, 0):
            co[2 + y] = Fraction(1)
            co[jidx] = Fraction(-1)
        else:
            const = Fraction(1)
            co[x] = Fraction(-1)
            co[2 + y] = Fraction(-1)
            co[jidx] = Fraction(1)
        return co, const

    cells = [
        (x, y, a, b) + entry_affine(x, y, a, b)
        for x in (0, 1)
        for y in (0, 1)
        for a in (0, 1)
        for b in (0, 1)
    ]
    vertices = set()
    for subset in itertools.combinations(range(16), 8):
        matrix = [cells[i][4] for i in subset]
        rhs = [-cells[i][5] for i in subset]  # tight: coeffs . v = -const
        sol = _solve_fraction_square(matrix, rhs)
        if sol is None:
            continue
        flat = []
        ok = True
        for x, y, a, b, co, const in cells:
            v = const + sum((c * s for c, s in zip(co, sol) if c), Fraction(0))
            if v < 0:
                ok = False
                break
            flat.append(v)
        if ok:
            vertices.add(tuple(flat))
    sc = Scenario((2, 2), (2, 2))
    # cells iterate (x, y) outermost then (a, b): matches canonical order
    return {Box(sc, flat) for flat in vertices}


def permute_parties_walk(box: Box, perm) -> Box:
    """Reorder parties coordinate by coordinate: entry (outs, xs) of the
    result, whose party i is party perm[i] of the box, reads the box at
    the outputs and inputs put back in the box's party order."""
    sc = box.scenario
    sub = Scenario(tuple(sc.inputs[p] for p in perm), tuple(sc.outputs[p] for p in perm))
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    table = []
    for xs in sub.input_tuples():
        old_xs = tuple(xs[inv[j]] for j in range(sc.parties))
        for outs in sub.output_tuples():
            old_outs = tuple(outs[inv[j]] for j in range(sc.parties))
            table.append(box.prob(old_outs, old_xs))
    return Box(sub, tuple(table))


def _digits(index, sizes):
    """Mixed-radix digits of index, the first size most significant."""
    digits = []
    for size in reversed(sizes):
        index, d = divmod(index, size)
        digits.append(d)
    return tuple(reversed(digits))


def _dense_entries(box: Box):
    """(outs, xs, probability) of every table entry, decoded from its flat
    position by plain mixed-radix arithmetic."""
    sc = box.scenario
    n_out = 1
    for size in sc.outputs:
        n_out *= size
    for flat, p in enumerate(box.table):
        xi, oi = divmod(flat, n_out)
        yield _digits(oi, sc.outputs), _digits(xi, sc.inputs), p


def marginal_dense(box: Box, keep) -> dict:
    """The marginal on the parties in `keep` as {(outs, xs): probability}
    over every kept (outs, xs), found in one pass over the table: each
    entry whose dropped parties' inputs are all 0 adds to the entry it
    projects onto."""
    sc = box.scenario
    keep = tuple(keep)
    drop = [i for i in range(sc.parties) if i not in keep]
    table = {
        (outs, xs): ZERO
        for xs in itertools.product(*(range(sc.inputs[i]) for i in keep))
        for outs in itertools.product(*(range(sc.outputs[i]) for i in keep))
    }
    for outs, xs, p in _dense_entries(box):
        if all(xs[i] == 0 for i in drop):
            key = (tuple(outs[i] for i in keep), tuple(xs[i] for i in keep))
            table[key] += p
    return table


def trace_violation_dense(box: Box):
    """The first violated single-party trace condition, or None.

    Sums the table over each party's output in one pass into
    {(k, other outputs, other inputs, x_k): total}, then scans parties in
    order, each party's contexts in lexicographic (outputs, inputs) order,
    and x_k upward, comparing with x_k = 0.  A violation is reported as
    (k, other_outputs, other_inputs, 0, x_k, total at 0, total at x_k)."""
    sc = box.scenario
    sums: dict = {}
    for outs, xs, p in _dense_entries(box):
        for k in range(sc.parties):
            key = (k, outs[:k] + outs[k + 1 :], xs[:k] + xs[k + 1 :], xs[k])
            sums[key] = sums.get(key, ZERO) + p
    for key in sorted(sums):
        k, out_ctx, in_ctx, xk = key
        ref = sums[k, out_ctx, in_ctx, 0]
        if sums[key] != ref:
            return (k, out_ctx, in_ctx, 0, xk, ref, sums[key])
    return None


def full_membership_lp(box: Box) -> lp.LinearProgram:
    """Weights over the deterministic strategies, in
    deterministic_strategies order, matching the box at every table
    entry: one row per entry, read off the strategy boxes."""
    from boxlab import polytope

    tables = [s.box().table for s in polytope.deterministic_strategies(box.scenario)]
    prog = lp.LinearProgram(len(tables))
    for k, p in enumerate(box.table):
        prog.add_eq([(e, t[k]) for e, t in enumerate(tables)], p)
    return prog


def local_membership_alternative(box: Box) -> bool:
    """Locality decided through a different formulation: strategies in
    reversed order, the last table row of each input block dropped
    (implied by normalization), and an explicit total-weight row."""
    from boxlab import polytope

    strategies = list(reversed(polytope.deterministic_strategies(box.scenario)))
    n = len(strategies)
    sc = box.scenario
    n_out = sc.num_output_tuples
    prog = lp.LinearProgram(n)
    prog.add_eq(enumerate([ONE] * n), ONE)
    for xi, xs in enumerate(sc.input_tuples()):
        for oi in range(n_out - 1):
            coeffs = [ZERO] * n
            for e, strat in enumerate(strategies):
                outs = tuple(strat.tables[k][xs[k]] for k in range(sc.parties))
                if sc.output_index(outs) == oi:
                    coeffs[e] = ONE
            prog.add_eq(enumerate(coeffs), box.table[xi * n_out + oi])
    out = lp.solve(prog)
    return out.status == lp.OPTIMAL


def unfolded_extension_lp(base: Box, shared_party: str, m: int) -> lp.LinearProgram:
    """m-shareability of `base` as an LP over the full (m+1)-party table.

    One variable per table entry, in the package's canonical order
    (inputs outermost, last party fastest).  Rows: normalization per
    input tuple, equality under each transposition of two adjacent copies
    (these generate every copy permutation), the nonsignaling condition of every party (its input leaves the others'
    marginal unchanged), and one row per copy-marginal entry with the
    other copies at input 0.  Parties are (A, B copies...) toward B and
    (A copies..., B) toward A; the base's party 0 is on the lower slot.
    """
    X, Y = base.scenario.inputs
    A, B = base.scenario.outputs
    if shared_party == "B":
        ins, outs, fixed, copies = [X] + [Y] * m, [A] + [B] * m, 0, list(range(1, m + 1))
    else:
        ins, outs, fixed, copies = [X] * m + [Y], [A] * m + [B], m, list(range(m))
    n_parties = m + 1
    in_tuples = list(itertools.product(*(range(v) for v in ins)))
    out_tuples = list(itertools.product(*(range(v) for v in outs)))
    index = {}
    for xs in in_tuples:
        for os_ in out_tuples:
            index[os_, xs] = len(index)
    n = len(index)
    prog = lp.LinearProgram(n)

    def row_of(cells):
        row = [ZERO] * n
        for cell, coeff in cells:
            row[index[cell]] += coeff
        return enumerate(row)

    for xs in in_tuples:
        prog.add_eq(row_of(((os_, xs), ONE) for os_ in out_tuples), ONE)

    def swap(t, i, j):
        t = list(t)
        t[i], t[j] = t[j], t[i]
        return tuple(t)

    for i, j in zip(copies, copies[1:]):
        for (os_, xs), k in index.items():
            other = (swap(os_, i, j), swap(xs, i, j))
            if k < index[other]:
                prog.add_eq(row_of((((os_, xs), ONE), (other, -ONE))), ZERO)

    for k in range(n_parties):
        for xs in in_tuples:
            if xs[k] == 0:
                continue
            xs0 = xs[:k] + (0,) + xs[k + 1 :]
            for os_ in out_tuples:
                if os_[k] != 0:
                    continue
                cells = []
                for a in range(outs[k]):
                    o = os_[:k] + (a,) + os_[k + 1 :]
                    cells.append(((o, xs), ONE))
                    cells.append(((o, xs0), -ONE))
                prog.add_eq(row_of(cells), ZERO)

    for slot in copies:
        lo, hi = sorted((fixed, slot))
        for x in range(X):
            for y in range(Y):
                xs = [0] * n_parties
                xs[lo], xs[hi] = x, y
                for a in range(A):
                    for b in range(B):
                        cells = [
                            ((os_, tuple(xs)), ONE)
                            for os_ in out_tuples
                            if (os_[lo], os_[hi]) == (a, b)
                        ]
                        prog.add_eq(row_of(cells), base.prob((a, b), (x, y)))
    return prog


def unfolded_extension_feasible(base: Box, shared_party: str, m: int) -> bool:
    return lp.solve(unfolded_extension_lp(base, shared_party, m)).status == lp.OPTIMAL


def walked_orbit_rows(problem):
    """The orbit LP's rows by walking the whole extension table: every
    row of the full-table LP (normalization, copy-marginals, trace
    conditions) folded onto orbits and deduplicated in walk order.

    Orbits are numbered as the walk first meets them; entries whose
    copy (output, input) pairs agree as multisets share one.  Returns
    (orbit index per flat table index, orbit count, rows), each row
    (coefficients, rhs, entry): coefficients are (orbit, coefficient)
    pairs in orbit order without zeros, and entry is the base box's
    ((a, b), (x, y)) whose value a marginal row takes as its rhs, and
    None for the other rows."""
    from boxlab import polytope
    from boxlab.core import marginal_indices

    ext = problem.extension_scenario()
    slots = problem.copy_slots()
    fixed = problem.fixed_slot()
    orbit_of = []
    orbit_index: dict = {}
    for xs in ext.input_tuples():
        for outs in ext.output_tuples():
            key = (
                outs[fixed],
                xs[fixed],
                tuple(sorted((outs[s], xs[s]) for s in slots)),
            )
            if key not in orbit_index:
                orbit_index[key] = len(orbit_index)
            orbit_of.append(orbit_index[key])
    rows = []
    seen = set()

    def add(coeffs, rhs, entry=None):
        folded: dict[int, Fraction] = {}
        for i, c in coeffs:
            o = orbit_of[i]
            folded[o] = folded.get(o, ZERO) + c
        row = tuple(sorted((o, c) for o, c in folded.items() if c))
        key = (row, rhs, entry)
        if key not in seen:
            seen.add(key)
            rows.append(key)

    for coeffs, rhs in polytope.normalization_rows(ext):
        add(coeffs, rhs)
    for slot in slots:
        for entry, idx in marginal_indices(ext, sorted((fixed, slot))):
            add([(i, ONE) for i in idx], problem.base.prob(*entry), entry)
    for coeffs, rhs in polytope.ns_equality_rows(ext):
        add(coeffs, rhs)
    return orbit_of, len(orbit_index), rows


def _inverse(perm):
    inverse = [0] * len(perm)
    for new, old in enumerate(perm):
        inverse[old] = new
    return inverse


def party_relabelings(inputs, outputs):
    """Every local relabeling of one party as (pi, sigma), pi before
    sigma, each in lexicographic order: the relabeled entry (a | x) reads
    the original entry (sigma[x][a] | pi[x])."""
    perms = list(itertools.permutations(range(outputs)))
    return [(pi, sigma) for pi in itertools.permutations(range(inputs))
            for sigma in itertools.product(perms, repeat=inputs)]


def canonical_relabeling(base: Box):
    """The bipartite box's local relabeling with the lexicographically
    greatest table, by trying every one through core.relabel: returns
    (table, (g, h)), g and h one (pi, sigma) per party, where entry
    (a, b | x, y) of the table is entry (g[1][x][a], h[1][y][b] | g[0][x],
    h[0][y]) of the box.  Of equal tables the first wins, with Alice's
    relabeling varying slowest and each party's pi before its sigma."""
    (X, Y), (A, B) = base.scenario.inputs, base.scenario.outputs

    def relabeled(g, h):
        # relabel's output permutation maps the device's output to the reported one
        outs = [[_inverse(sigma) for sigma in g[1]], [_inverse(sigma) for sigma in h[1]]]
        return relabel(base, [g[0], h[0]], outs).table

    tables = ((relabeled(g, h), (g, h)) for g in party_relabelings(X, A) for h in party_relabelings(Y, B))
    return max(tables, key=lambda pair: pair[0])


def brute_canonical_problem(problem):
    """shareability._canonical_problem by comparing every pair of local
    relabelings, as (table, fixed, copy, group): the table of the first
    relabeling (in canonical_relabeling's order) that reaches the
    greatest, each party's map from an original (output, input) label to
    its relabeled one, and every psi = phi_best^-1 . phi over the
    relabelings phi that reach it too, as sorted (label, image) pairs per
    party, the pairs in (fixed, copy) order.  Each candidate is compared
    with the best so far cell by cell on the ranks of the table's values,
    and only a strictly greater one replaces it."""
    sc = problem.base.scenario
    (X, Y), (A, B) = sc.inputs, sc.outputs
    table = problem.base.table
    rank = {v: i for i, v in enumerate(sorted(set(table)))}
    ranked = [rank[v] for v in table]
    cells = list(itertools.product(range(X), range(Y), range(A), range(B)))
    # flat index (x*Y + y)*A*B + a*B + b is one term per party
    alice = [(ga, [ga[0][x] * Y * A * B + ga[1][x][a] * B for x, _, a, _ in cells])
             for ga in party_relabelings(X, A)]
    bob = [(hb, [hb[0][y] * A * B + hb[1][y][b] for _, y, _, b in cells])
           for hb in party_relabelings(Y, B)]
    best, best_ranks, ties = None, [-1] * len(cells), []
    for ga, ta in alice:
        for hb, tb in bob:
            for i, j, r in zip(ta, tb, best_ranks):
                if ranked[i + j] != r:
                    if ranked[i + j] > r:
                        best, ties = (ta, tb, ga, hb), [(ga, hb)]
                        best_ranks = [ranked[i + j] for i, j in zip(ta, tb)]
                    break
            else:
                ties.append((ga, hb))
    ta, tb, g, h = best
    table = tuple(table[i + j] for i, j in zip(ta, tb))

    def of(r):
        # relabeled entry (a | x) reads the original (sigma[x][a] | pi[x])
        return {(s[a], p): (a, x) for x, (p, s) in enumerate(zip(*r)) for a in range(len(s))}

    of_a, of_b = of(g), of(h)
    group = tuple(sorted(
        tuple(tuple(sorted((label, best_of[orig]) for orig, label in of(r).items()))
              for r, best_of in ((ga, of_a), (hb, of_b)))
        for ga, hb in ties
    ))
    if problem.shared_party == "A":
        of_a, of_b = of_b, of_a
        group = tuple(sorted((pb, pa) for pa, pb in group))
    return table, of_a, of_b, group


def unfold_by_relabeling(problem, relabeling, values) -> tuple:
    """The extension table of `problem` from one value per orbit of the
    problem on the base box relabeled by `relabeling` (as
    canonical_relabeling returns it, or None for no relabeling), built
    table first: every entry of the relabeled problem's extension table
    takes the value of its walked orbit (walked_orbit_rows), and
    core.relabel then undoes the relabeling on every party, each copy
    alike, through inverted permutations."""
    table = tuple(values[o] for o in walked_orbit_rows(problem)[0])
    if relabeling is None:
        return table
    g, h = relabeling
    m = problem.copies
    in_perms, out_perms = [], []
    for pi, sigma in [g] + [h] * m if problem.shared_party == "B" else [g] * m + [h]:
        inverse = _inverse(pi)
        in_perms.append(inverse)
        out_perms.append([sigma[x] for x in inverse])
    return relabel(Box(problem.extension_scenario(), table), in_perms, out_perms).table


def compatibility_lp(restricted: Box) -> lp.LinearProgram:
    """Feasibility of a joint table W(a, b0, b1 | x) for a box whose Bob
    has the two inputs of the pair (incompat.restrict_to_pair): summing
    out b1 gives the y=0 slice, summing out b0 the y=1 slice, and the
    (b0, b1) marginal is the same for every x.  Without that last
    condition the slices could be matched input by input.  Variables in
    (x, a, b0, b1) order."""
    X = restricted.scenario.inputs[0]
    A, B = restricted.scenario.outputs
    cells = list(itertools.product(range(X), range(A), range(B), range(B)))
    index = {cell: i for i, cell in enumerate(cells)}
    prog = lp.LinearProgram(len(cells))
    for x, a, b in itertools.product(range(X), range(A), range(B)):
        prog.add_eq([(index[x, a, b, o], ONE) for o in range(B)], restricted.prob((a, b), (x, 0)))
        prog.add_eq([(index[x, a, o, b], ONE) for o in range(B)], restricted.prob((a, b), (x, 1)))
    for x, b0, b1 in itertools.product(range(1, X), range(B), range(B)):
        prog.add_eq(
            [(index[x, a, b0, b1], ONE) for a in range(A)]
            + [(index[0, a, b0, b1], -ONE) for a in range(A)],
            ZERO,
        )
    return prog


class ZeroProbabilityCondition(BoxlabError):
    pass


def condition(box: Box, party: int, x_k: int, a_k: int) -> Box:
    """Box on the remaining parties given party k saw (x_k, a_k).

    Requires P(a_k | x_k) > 0; the box must be nonsignaling for that
    marginal to be well defined (checked via marginal()).
    """
    sc = box.scenario
    if sc.parties < 2:
        raise ScenarioMismatch("conditioning needs at least two parties")
    if not 0 <= party < sc.parties:
        raise ScenarioMismatch(f"party {party} out of range for {sc.parties} parties")
    if not (0 <= x_k < sc.inputs[party] and 0 <= a_k < sc.outputs[party]):
        raise ScenarioMismatch(
            f"party {party} has {sc.inputs[party]} inputs and {sc.outputs[party]} outputs,"
            f" got x={x_k}, a={a_k}"
        )
    pk = marginal(box, (party,))
    p = pk.prob((a_k,), (x_k,))
    if p == 0:
        raise ZeroProbabilityCondition(
            f"P(a={a_k} | x={x_k}) = 0 for party {party}"
        )
    keep = [i for i in range(sc.parties) if i != party]
    sub = Scenario(
        tuple(sc.inputs[i] for i in keep), tuple(sc.outputs[i] for i in keep)
    )
    table = []
    for xs_sub in sub.input_tuples():
        xs = xs_sub[:party] + (x_k,) + xs_sub[party:]
        for outs_sub in sub.output_tuples():
            outs = outs_sub[:party] + (a_k,) + outs_sub[party:]
            table.append(box.prob(outs, xs) / p)
    return validate_box(table, sub)


def shared_shift_symmetrize(box: Box) -> Box:
    """Average over a shared uniform shift r: both outputs move by r mod A.

    Fixes the generalized PR box, makes single-party marginals uniform,
    and maps any output-product noise to shift-invariant noise (uniform
    over each diagonal a - b = const, not a product in general).
    """
    sc = box.scenario
    if sc.parties != 2 or sc.outputs[0] != sc.outputs[1]:
        raise ScenarioMismatch("need a bipartite box with equal output alphabets")
    A = sc.outputs[0]
    in_perms = [tuple(range(v)) for v in sc.inputs]
    variants = []
    for r in range(A):
        tau = tuple((v + r) % A for v in range(A))
        out_perms = [[tau] * sc.inputs[0], [tau] * sc.inputs[1]]
        variants.append(relabel(box, in_perms, out_perms))
    return mix(variants, [Fraction(1, A)] * A)
