"""Independent oracles the test suite checks the package against.

Everything here is deliberately coded from scratch: exact Gaussian
elimination for vertex enumeration of small LPs and for the rank of a
set of rows, a coordinate parametrization of the 2222 nonsignaling
polytope, the local-membership LP over every table entry, an
alternative formulation of it and is_local's outcome on a box's own
labels read off it at the spanning entries, Fine's intervals and his
gluing of a 2222 box at any Q(b0=0, b1=0), read entry by entry from
probabilities, the symmetric-extension LP
over the full table with explicit symmetry rows, the paper's proof that
a nonlocal box is not |Y|-shareable as multipliers on that LP's rows,
built from their labels, the orbit LP's rows
found by folding every row of that table, and marginals and trace
conditions read off one dense pass over the table, or enumerated
with itertools.product as the cached index maps list them, local bounds of
Bell functionals from every strategy box built entry by entry, whether
a functional's nonsignaling maximizer is unique by walking its optimal
face one table entry at a time, the
CHSH-type rows of a bipartite scenario, output-lifted, and their values
on a box, each coefficient placed entry by entry, the LP
certificate check in plain Fraction arithmetic, compatibility of two
observables as feasibility of a joint table, parties reordered
coordinate by coordinate, and the canonical relabeling of an extension
problem and its stabilizer found by trying every relabeling, each read
entry by entry (relabel_walk, core.relabel's reference), with its
witness unfolded through that walk too, and canonical_form's frontier
walk over tuples of label numbers (walked_canonical_form).  None of it
shares code with the package paths it cross-checks.

Entries are read by their labels only through `_flat_of`, the flat
position by plain mixed-radix arithmetic, and `prob`, the entry there;
the package finds positions through `core.label_offsets` and the maps
built on it, and the `*_walk` oracles state each reader of the layout
(correlators, the CHSH and CGLMP tables, the incompatibility program's
slice rows, output entropy, restrict_bob_inputs and the local
model read off an extension) entry by entry through them.  Two maps of
`isotropic` are stated by their operations: `shrink_walk` as Bob's
noise, entry by entry, and `depolarize_walk` as the average over the
eight depolarizing relabelings, each done by relabel_walk.

Three constructions that no package path uses live here too, for the
tests that build boxes with them: `uniform_box`, the uniform noise of a
scenario, `condition`, a box conditioned on one party's outcome, and
`shared_shift_symmetrize`, a bipartite box averaged over a shared shift
of both outputs.
"""

from __future__ import annotations

import functools
import itertools
import math
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
                    value += functional.coefficients[_flat_of(sc, outs, xs)]
        if best is None or value > best:
            best = value
    return best


def output_splits(outputs: int) -> list:
    """For at most five outputs, every split of the outputs into two
    nonempty sets, up to complement, each named by its smaller set, or by
    the one holding output 0 when both have as many outputs; ordered by
    size, then lexicographically.  Found by walking every bitmask.  For
    more, each output alone, in order."""
    if outputs > 5:
        return [(a,) for a in range(outputs)]
    named = set()
    for mask in range(1, 2**outputs - 1):
        sets = [tuple(a for a in range(outputs) if (mask >> a & 1) == bit) for bit in (1, 0)]
        named.add(min(sets, key=lambda S: (len(S), S)))
    return sorted(named, key=lambda S: (len(S), S))


@functools.lru_cache(maxsize=8)
def _chsh_type_specs(sc: Scenario) -> tuple:
    """Every CHSH-type row of a bipartite scenario as (xs, ys, sets,
    signs), in the order is_local ranks them: per pair of Alice's inputs
    x0 < x1, per pair of Bob's y0 < y1, per set of outputs set against the
    rest at x0, x1, y0 and y1 in product order (output_splits), per sign
    pattern of bell.chsh_signs."""
    from boxlab import bell

    (X, Y), (A, B) = sc.inputs, sc.outputs
    splits_a, splits_b = output_splits(A), output_splits(B)
    return tuple(
        (xs, ys, sets, signs)
        for xs, ys in itertools.product(itertools.combinations(range(X), 2), itertools.combinations(range(Y), 2))
        for sets in itertools.product(splits_a, splits_a, splits_b, splits_b)
        for signs in bell.chsh_signs())


def chsh_type_row(sc: Scenario, n: int):
    """Row n of _chsh_type_specs as a Bell functional: sum_ij s_ij C_ij /
    2 - 1 on the coarse-grained correlators C_ij = sum_ab t_i(a) u_j(b)
    P(ab | x_i y_j), t_i(a) = 1 if a is in the set at x_i and -1
    otherwise, u_j likewise, its coefficients placed entry by entry
    through _flat_of."""
    from boxlab import bell

    (A, B), (xs, ys, sets, signs) = sc.outputs, _chsh_type_specs(sc)[n]
    coefficients = [Fraction(0)] * sc.table_size
    for (i, x), (j, y) in itertools.product(enumerate(xs), enumerate(ys)):
        for a, b in itertools.product(range(A), range(B)):
            t = 1 if a in sets[i] else -1
            u = 1 if b in sets[2 + j] else -1
            coefficients[_flat_of(sc, (a, b), (x, y))] = Fraction(signs[2 * i + j] * t * u, 2)
    return bell.BellFunctional(sc, tuple(coefficients), Fraction(-1))


@functools.lru_cache(maxsize=8)
def chsh_type_rows(sc: Scenario) -> tuple:
    """Every row of chsh_type_row, in order, held in a small cache: for
    the scenarios of at most three outputs, since 2244 has 19,208 rows."""
    return tuple(chsh_type_row(sc, n) for n in range(len(_chsh_type_specs(sc))))


def chsh_type_values(box: Box) -> list:
    """The value of every row of _chsh_type_specs on a bipartite box, in
    its order, without building the rows: each coarse-grained correlator
    summed entry by entry through _flat_of, once per input and set of
    each party, then sum_ij s_ij C_ij / 2 - 1."""
    sc = box.scenario
    (A, B) = sc.outputs
    correlators = {}

    def correlator(x, S, y, T):
        key = (x, S, y, T)
        if key not in correlators:
            correlators[key] = sum((box.table[_flat_of(sc, (a, b), (x, y))] * (1 if (a in S) == (b in T) else -1)
                                    for a, b in itertools.product(range(A), range(B))), Fraction(0))
        return correlators[key]

    values = []
    for xs, ys, sets, signs in _chsh_type_specs(sc):
        cs = [correlator(x, sets[i], y, sets[2 + j]) for (i, x), (j, y) in itertools.product(enumerate(xs), enumerate(ys))]
        values.append(sum((s * c for s, c in zip(signs, cs)), Fraction(0)) / 2 - 1)
    return values


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
    # no variable has an upper bound for y_ub to multiply
    if any(v != 0 for v in cert.y_ub):
        return False
    alpha = [ZERO] * n
    combined_rhs = ZERO
    for (terms, rhs), m in zip(prog.eqs + prog.ineqs, [*cert.y_eq, *cert.y_ineq]):
        if m:
            for i, c in terms:
                alpha[i] += m * c
            combined_rhs += m * rhs

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
        if any(v < 0 for v in x):
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


@functools.lru_cache(maxsize=1)
def ns_vertices_2222_by_enumeration() -> tuple:
    """All vertices of the 2222 nonsignaling polytope, found from scratch.

    Coordinates: pA(0|x) for x = 0,1, pB(0|y) for y = 0,1, and P(00|xy)
    for the four input pairs.  Every full-table entry is affine in these
    eight numbers; nonnegativity gives 16 inequalities whose feasible
    8-fold intersections are the vertices.  Returns distinct Boxes,
    ordered by table; the 12,870 systems are solved once per session.
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
    return tuple(Box(sc, flat) for flat in sorted(vertices))


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
            table.append(prob(box, old_outs, old_xs))
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


def _radix(digits, sizes) -> int:
    """The mixed-radix number with these digits, the first most significant."""
    n = 0
    for d, size in zip(digits, sizes):
        n = n * size + d
    return n


def _flat_of(sc: Scenario, outs, xs) -> int:
    """Flat table position of entry (outs, xs): input tuples outermost.
    Every label is checked against its party's alphabet, so that an
    entry outside the table is an error rather than another entry."""
    for labels, sizes in ((xs, sc.inputs), (outs, sc.outputs)):
        if len(labels) != len(sizes) or not all(0 <= v < size for v, size in zip(labels, sizes)):
            raise IndexError(f"entry {tuple(outs)} | {tuple(xs)} is outside {sc}")
    return _radix(xs, sc.inputs) * math.prod(sc.outputs) + _radix(outs, sc.outputs)


def prob(box: Box, outs, xs) -> Fraction:
    """P(outs | xs) of the box, read at _flat_of."""
    return box.table[_flat_of(box.scenario, outs, xs)]


def relabeled_entries_walk(sc: Scenario, images) -> list:
    """core.relabeled_indices entry by entry: per flat position, its labels
    decoded by mixed-radix digits, each party's label number x*A + a
    replaced by its image images[k][x*A + a], and the flat position of the
    labels reached."""
    n_out = math.prod(sc.outputs)
    moved = []
    for flat in range(sc.table_size):
        xi, oi = divmod(flat, n_out)
        xs, outs = _digits(xi, sc.inputs), _digits(oi, sc.outputs)
        reached = [divmod(image[x * A + a], A) for image, x, a, A in zip(images, xs, outs, sc.outputs)]
        moved.append(_flat_of(sc, [a for _, a in reached], [x for x, _ in reached]))
    return moved


def trace_groups_by_product(sc: Scenario) -> tuple:
    """core.trace_indices enumerated with itertools.product: for each
    party k with two or more inputs, each assignment of the other
    parties' outputs, then of their inputs, in product order, the flat
    positions summed over a_k at each x_k, as (k, other outputs, other
    inputs, per x_k)."""
    groups = []
    for k in range(sc.parties):
        if sc.inputs[k] < 2:
            continue
        others = [i for i in range(sc.parties) if i != k]
        for out_ctx in itertools.product(*(range(sc.outputs[i]) for i in others)):
            for in_ctx in itertools.product(*(range(sc.inputs[i]) for i in others)):
                per_x = tuple(
                    tuple(_flat_of(sc, out_ctx[:k] + (a,) + out_ctx[k:], in_ctx[:k] + (x,) + in_ctx[k:])
                          for a in range(sc.outputs[k]))
                    for x in range(sc.inputs[k])
                )
                groups.append((k, out_ctx, in_ctx, per_x))
    return tuple(groups)


def marginal_lists_by_product(sc: Scenario, keep) -> tuple:
    """core.marginal_indices enumerated with itertools.product: per
    entry (outs, xs) of the marginal on `keep`, in its table order, the
    flat positions of the full entries that agree with it on the kept
    parties, with the other parties at input 0, in product order of the
    other parties' outputs."""
    drop = [i for i in range(sc.parties) if i not in keep]
    lists = []
    for xs in itertools.product(*(range(sc.inputs[i]) for i in keep)):
        full_xs = [0] * sc.parties
        for i, x in zip(keep, xs):
            full_xs[i] = x
        for outs in itertools.product(*(range(sc.outputs[i]) for i in keep)):
            idx = []
            for rest in itertools.product(*(range(sc.outputs[i]) for i in drop)):
                full_outs = [0] * sc.parties
                for i, a in [*zip(keep, outs), *zip(drop, rest)]:
                    full_outs[i] = a
                idx.append(_flat_of(sc, full_outs, full_xs))
            lists.append(((outs, xs), tuple(idx)))
    return tuple(lists)


def correlators_walk(box: Box) -> tuple:
    """bell.correlators entry by entry: C_xy = sum over (a, b) of
    (-1)^(a+b) P(ab|xy), each entry read at _flat_of."""
    return tuple(
        sum(((-1) ** (a + b) * prob(box, (a, b), (x, y)) for a in (0, 1) for b in (0, 1)), ZERO)
        for x in (0, 1)
        for y in (0, 1)
    )


def chsh_coefficients_walk() -> list:
    """bell.chsh_functional's coefficients from the CHSH sum: P(ab|xy)
    weighs (-1)^(a+b+xy) / 2, each placed at _flat_of."""
    sc = Scenario((2, 2), (2, 2))
    coeffs = [None] * sc.table_size
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        coeffs[_flat_of(sc, (a, b), (x, y))] = Fraction((-1) ** (a + b + x * y), 2)
    return coeffs


def cglmp_coefficients_walk(d: int) -> list:
    """bell.cglmp_raw's coefficients from the CGLMP sum (Collins et al.,
    PRL 88, 040404, 2002): for k < d/2, weight 1 - 2k/(d-1) on
    P(A0 = B0 + k) + P(B0 = A1 + k + 1) + P(A1 = B1 + k) + P(B1 = A0 + k)
    less P(A0 = B0 - k - 1) + P(B0 = A1 - k) + P(A1 = B1 - k - 1)
    + P(B1 = A0 - k - 1), outputs mod d; each event adds its weight at
    the _flat_of of every (a, b) in it."""
    sc = Scenario((2, 2), (d, d))
    coeffs = [ZERO] * sc.table_size
    for k in range(d // 2):
        w = 1 - Fraction(2 * k, d - 1)
        # (x, y, sign, shift): the event A_x = B_y + shift, or with sign -1
        # written B_y = A_x + shift, weighed by +w or -w
        events = [
            (0, 0, 1, k, w), (1, 0, -1, k + 1, w), (1, 1, 1, k, w), (0, 1, -1, k, w),
            (0, 0, 1, -k - 1, -w), (1, 0, -1, -k, -w), (1, 1, 1, -k - 1, -w), (0, 1, -1, -k - 1, -w),
        ]
        for x, y, sign, shift, weight in events:
            for a, b in itertools.product(range(d), repeat=2):
                if (sign * (a - b) - shift) % d == 0:
                    coeffs[_flat_of(sc, (a, b), (x, y))] += weight
    return coeffs


def depolarize_walk(box: Box) -> Box:
    """isotropic.depolarize as the average of the eight local operations
    it stands for, each done by relabel_walk: a first step that does
    nothing or flips both outputs, then one of four rewirings, each an
    input swap composed with output flips conditioned on the input."""
    id2, sw2 = (0, 1), (1, 0)
    step1 = [
        ([id2, id2], [[id2, id2], [id2, id2]]),  # nothing
        ([id2, id2], [[sw2, sw2], [sw2, sw2]]),  # flip a and b
    ]
    step2 = [
        ([id2, id2], [[id2, id2], [id2, id2]]),  # nothing
        ([id2, sw2], [[id2, sw2], [id2, id2]]),  # flip a when x=1, and flip y
        ([sw2, id2], [[id2, id2], [id2, sw2]]),  # flip x, and flip b when y=1
        ([sw2, sw2], [[sw2, id2], [id2, sw2]]),  # flip x, flip a when x=0, flip y, flip b when y=1
    ]
    variants = [relabel_walk(relabel_walk(box, *first), *second) for first in step1 for second in step2]
    return mix(variants, [Fraction(1, 8)] * 8)


def shrink_walk(box: Box, eps) -> Box:
    """isotropic.shrink's map entry by entry: Bob keeps b with
    probability 1 - eps, else outputs a fair coin, so P'(ab|xy) =
    (1 - eps) P(ab|xy) + eps/2 (P(a0|xy) + P(a1|xy))."""
    sc = box.scenario
    table = [None] * sc.table_size
    for x, y, a, b in itertools.product((0, 1), repeat=4):
        bob_sum = prob(box, (a, 0), (x, y)) + prob(box, (a, 1), (x, y))
        table[_flat_of(sc, (a, b), (x, y))] = (1 - eps) * prob(box, (a, b), (x, y)) + eps / 2 * bob_sum
    return Box(sc, tuple(table))


def incompatibility_slice_rows_walk(restricted: Box) -> list:
    """The first rows of incompat.incompatibility_lp_for, stated from the
    labels: per (x, a, b) in product order, the joint table's entries
    (a, b, o | x) summed over o plus S at (a, b | x, 0) equal the
    restricted box there, then the entries (a, o, b | x) plus S at
    (a, b | x, 1) equal it at y = 1; W's columns come first, S's after
    them, every position read at _flat_of."""
    sc = restricted.scenario
    X, (A, B) = sc.inputs[0], sc.outputs
    joint = Scenario((X, 1, 1), (A, B, B))
    nw = joint.table_size
    rows = []
    for x, a, b in itertools.product(range(X), range(A), range(B)):
        for y, at in ((0, lambda o: (a, b, o)), (1, lambda o: (a, o, b))):
            row = [(_flat_of(joint, at(o), (x, 0, 0)), ONE) for o in range(B)]
            rows.append((row + [(nw + _flat_of(sc, (a, b), (x, y)), ONE)], prob(restricted, (a, b), (x, y))))
    return rows


def output_entropy_walk(box: Box, party: int, x: int) -> float:
    """incompat.output_entropy from marginal_dense: -sum p log2 p over
    the party's outputs at input x, in output order."""
    dist = marginal_dense(box, (party,))
    total = 0.0
    for a in range(box.scenario.outputs[party]):
        p = dist[(a,), (x,)]
        if p:
            total -= float(p) * math.log2(float(p))
    return total


def restrict_bob_inputs_walk(box: Box, ys) -> Box:
    """core.restrict_bob_inputs entry by entry: entry (a, b | x, j) of
    the result reads the box at (a, b | x, ys[j])."""
    (X, _), (A, B) = box.scenario.inputs, box.scenario.outputs
    sc = Scenario((X, len(ys)), (A, B))
    table = [None] * sc.table_size
    for x, j, a, b in itertools.product(range(X), range(len(ys)), range(A), range(B)):
        table[_flat_of(sc, (a, b), (x, j))] = prob(box, (a, b), (x, ys[j]))
    return Box(sc, tuple(table))


def local_model_walk(problem, extension: Box, y_values):
    """shareability.local_model_from_extension read entry by entry: the
    hidden variable is the copies' outputs bs when copy i gets
    y_values[i], of weight w(bs) read off marginal_dense; Bob answers
    bs at the first copy given each kept input, and Alice's response f
    weighs w(bs) times prod_x P(f(x), bs | x, y_values) / w(bs), each
    read at _flat_of.  Toward A the parties are swapped with
    permute_parties_walk, the model built toward B and swapped back."""
    from boxlab.locality import LocalModel
    from boxlab.polytope import DeterministicStrategy

    m, base = problem.copies, problem.base
    if problem.shared_party == "A":
        base = permute_parties_walk(base, (1, 0))
        extension = permute_parties_walk(extension, (m, *range(m)))
    (X, _), (A, B) = base.scenario.inputs, base.scenario.outputs
    kept = sorted(set(y_values))
    sc = Scenario((X, len(kept)), (A, B))
    copies = marginal_dense(extension, range(1, m + 1))
    strategies, weights = [], []
    for bs in itertools.product(range(B), repeat=m):
        w = copies[bs, tuple(y_values)]
        if not w:
            continue
        bob = tuple(bs[y_values.index(y)] for y in kept)
        for f in itertools.product(range(A), repeat=X):
            wf = w
            for x in range(X):
                wf *= prob(extension, (f[x], *bs), (x, *y_values)) / w
            if wf:
                strategies.append((f, bob))
                weights.append(wf)
    if problem.shared_party == "A":
        sc = Scenario(sc.inputs[::-1], sc.outputs[::-1])
        strategies = [tables[::-1] for tables in strategies]
    return LocalModel(sc, tuple(DeterministicStrategy(sc, t) for t in strategies), tuple(weights))


def face_walk_unique_maximizer(functional):
    """Whether a Bell functional's maximum over the nonsignaling polytope
    is attained at a single box, by walking the optimal face: the
    maximum, then the largest and the smallest value of every table entry
    over the NS rows plus the row f . p = max, each LP solved cold on a
    program of its own, 2 * table_size + 1 of them.  Returns (True, the
    box of those values) when every entry's largest and smallest agree,
    else (False, None)."""
    from boxlab import polytope

    sc = functional.scenario
    coefficients = list(enumerate(functional.coefficients))

    def largest(objective, face_value=None):
        prog = polytope.ns_lp(sc, objective)
        if face_value is not None:
            prog.add_eq(coefficients, face_value)
        out = lp.solve(prog)
        if out.status != lp.OPTIMAL:
            raise AssertionError(f"an LP over the NS polytope ended {out.status}")
        return out.value

    top = largest(coefficients)
    point = []
    for i in range(sc.table_size):
        value = largest([(i, 1)], top)
        if value != -largest([(i, -1)], top):
            return False, None
        point.append(value)
    return True, Box(sc, tuple(point))


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


def _support_program(box: Box) -> tuple:
    """The unfolded membership LP over the box's support, built without
    locality's row cache: full_membership_lp's rows at the spanning
    entries, over the deterministic strategies whose boxes are 0 wherever
    the box is, in deterministic_strategies order (every other strategy
    has weight 0 in every model).  Returns the program, those strategies
    and every strategy's table."""
    from boxlab import polytope

    sc = box.scenario
    strategies = polytope.deterministic_strategies(sc)
    tables = [s.box().table for s in strategies]
    kept = [n for n, t in enumerate(tables) if all(p or not q for p, q in zip(box.table, t))]
    prog = lp.LinearProgram(len(kept))
    for k in polytope.spanning_entries(sc):
        prog.add_eq([(j, tables[n][k]) for j, n in enumerate(kept)], box.table[k])
    return prog, [strategies[n] for n in kept], tables


def strategy_model(box: Box):
    """The unfolded membership LP's model (_support_program): the
    strategies of positive weight; None when infeasible."""
    from boxlab.locality import LocalModel

    prog, strategies, _ = _support_program(box)
    out = lp.solve(prog)
    if out.status != lp.OPTIMAL:
        return None
    pairs = [(s, w) for s, w in zip(strategies, out.primal) if w]
    return LocalModel(box.scenario, *zip(*pairs))


def own_labels_outcome(box: Box):
    """is_local's outcome for a box decided on its own labels, built
    without locality's row cache: _support_program's program; when it is
    feasible, the strategies of positive weight, each table a tuple of
    its own, in deterministic_strategies order; when not, the Farkas
    vector, negated, put on the spanning entries in order, less the
    indicator of the box's zero entries moved onto the spanning entries
    (polytope.collins_gisin) times the largest value of that functional
    on the box of a strategy left out, when that is positive, and
    normalized.  Built object for object like is_local's outcome, so the
    two pickle to the same bytes."""
    from boxlab import bell, polytope
    from boxlab.locality import LocalModel, NonlocalityCertificate

    sc = box.scenario
    prog, kept, tables = _support_program(box)
    out = lp.solve(prog)
    if out.status == lp.OPTIMAL:
        pairs = [(polytope.DeterministicStrategy(sc, tuple(tuple(list(t)) for t in s.tables)), w)
                 for s, w in zip(kept, out.primal) if w]
        return LocalModel(sc, tuple(s for s, _ in pairs), tuple(w for _, w in pairs))
    coefficients = [ZERO] * sc.table_size
    for k, y in zip(polytope.spanning_entries(sc), out.certificate.y_eq):
        coefficients[k] = -y
    zero = [int(not p) for p in box.table]
    left_out = [t for t in tables if any(q and not p for p, q in zip(box.table, t))]
    top = max((sum((c * q for c, q in zip(coefficients, t)), ZERO) for t in left_out), default=ZERO)
    if top > 0:
        moved = polytope.collins_gisin(sc, zero, 0)[0]
        coefficients = [c - top * z for c, z in zip(coefficients, moved)]
    functional = bell.normalize(bell.BellFunctional(sc, tuple(coefficients), ZERO))
    return NonlocalityCertificate(functional, functional.evaluate(box))


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
                if _radix(outs, sc.outputs) == oi:
                    coeffs[e] = ONE
            prog.add_eq(enumerate(coeffs), box.table[xi * n_out + oi])
    out = lp.solve(prog)
    return out.status == lp.OPTIMAL


def _fine_bounds(box: Box, x: int) -> list:
    """Per output a of Alice at input x of a 2222 box, (low, high, u, v,
    m) as Fractions read entry by entry (prob): u = P(a, b=0 | x, 0),
    v = P(a, b=0 | x, 1), m = P(a | x, 0), and the bounds that keep the
    joint table t, u - t, v - t, m - u - v + t of (a, b0, b1) nonnegative."""
    out = []
    for a in (0, 1):
        u, v = prob(box, (a, 0), (x, 0)), prob(box, (a, 0), (x, 1))
        m = u + prob(box, (a, 1), (x, 0))
        out.append((max(ZERO, u + v - m), min(u, v), u, v, m))
    return out


def fine_intervals(box: Box) -> list:
    """Per Alice input x of a 2222 box, the interval of Q(b0=0, b1=0)
    over joint tables T_x(a, b0, b1) >= 0 whose (a, b0) and (a, b1)
    marginals are the box's blocks at (x, 0) and (x, 1)."""
    return [tuple(sum(b[k] for b in _fine_bounds(box, x)) for k in (0, 1)) for x in (0, 1)]


def fine_gluing(box: Box, q):
    """Fine's gluing of a 2222 box at Q(0, 0) = q, as a LocalModel over
    every strategy of nonzero weight, in deterministic_strategies order:
    q split over Alice's outputs, last output first, up to each one's
    bounds, and strategy ((a0, a1), (b0, b1)) weighted T_0 T_1 / Q.
    When q lies outside an input's interval (fine_intervals) that
    input's split leaves its bounds, and the weights may be negative;
    a (b0, b1) of Q 0 gives its strategies no weight."""
    from boxlab import polytope
    from boxlab.locality import LocalModel

    T = []
    for x in (0, 1):
        (low0, high0, u0, v0, m0), (low1, high1, u1, v1, m1) = _fine_bounds(box, x)
        t1 = min(max(q - low0, low1), high1)
        t0 = q - t1
        T.append([(t0, u0 - t0, v0 - t0, m0 - u0 - v0 + t0), (t1, u1 - t1, v1 - t1, m1 - u1 - v1 + t1)])
    pairs = []
    for s in polytope.deterministic_strategies(box.scenario):
        (a0, a1), (b0, b1) = s.tables
        j = 2 * b0 + b1
        Q = T[0][0][j] + T[0][1][j]
        w = T[0][a0][j] * T[1][a1][j] / Q if Q else ZERO
        if w:
            pairs.append((s, w))
    return LocalModel(box.scenario, *map(tuple, zip(*pairs)))


def _unfolded_slots(base: Box, shared_party: str, m: int):
    """(inputs per slot, outputs per slot, fixed slot, copy slots) of the
    full extension table: (A, B copies...) toward B, (A copies..., B)
    toward A."""
    X, Y = base.scenario.inputs
    A, B = base.scenario.outputs
    if shared_party == "B":
        return [X] + [Y] * m, [A] + [B] * m, 0, list(range(1, m + 1))
    return [X] * m + [Y], [A] * m + [B], m, list(range(m))


def unfolded_extension_rows(base: Box, shared_party: str, m: int):
    """The rows of unfolded_extension_lp in its order, each as (label,
    cells, rhs): cells are ((outputs, inputs), coefficient) pairs of the
    full table, and the label is one of
      ("normalization", xs);
      ("symmetry", i, j), copies i and j swapped;
      ("trace", k, xs, os_), party k's outputs summed at xs less at xs
        with party k at input 0, the other parties answering os_, whose
        own entry os_[k] is 0;
      ("marginal", slot, x, y, a, b), the copy in `slot` and the fixed
        party at the base entry P(ab|xy), the other copies at input 0."""
    X, Y = base.scenario.inputs
    A, B = base.scenario.outputs
    ins, outs, fixed, copies = _unfolded_slots(base, shared_party, m)
    n_parties = m + 1
    in_tuples = list(itertools.product(*(range(v) for v in ins)))
    out_tuples = list(itertools.product(*(range(v) for v in outs)))
    cells_in_order = [(os_, xs) for xs in in_tuples for os_ in out_tuples]
    position = {cell: k for k, cell in enumerate(cells_in_order)}

    for xs in in_tuples:
        yield ("normalization", xs), [((os_, xs), ONE) for os_ in out_tuples], ONE

    def swap(t, i, j):
        t = list(t)
        t[i], t[j] = t[j], t[i]
        return tuple(t)

    for i, j in zip(copies, copies[1:]):
        for os_, xs in cells_in_order:
            other = (swap(os_, i, j), swap(xs, i, j))
            if position[os_, xs] < position[other]:
                yield ("symmetry", i, j), [((os_, xs), ONE), (other, -ONE)], ZERO

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
                yield ("trace", k, xs, os_), cells, ZERO

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
                        yield ("marginal", slot, x, y, a, b), cells, prob(base, (a, b), (x, y))


def unfolded_extension_lp(base: Box, shared_party: str, m: int) -> lp.LinearProgram:
    """m-shareability of `base` as an LP over the full (m+1)-party table.

    One variable per table entry, in the package's canonical order
    (inputs outermost, last party fastest).  Rows (unfolded_extension_rows):
    normalization per input tuple, equality under each transposition of
    two adjacent copies (these generate every copy permutation), the
    nonsignaling condition of every party (its input leaves the others'
    marginal unchanged), and one row per copy-marginal entry with the
    other copies at input 0.  Parties are (A, B copies...) toward B and
    (A copies..., B) toward A; the base's party 0 is on the lower slot.
    """
    ins, outs, _, _ = _unfolded_slots(base, shared_party, m)
    in_tuples = itertools.product(*(range(v) for v in ins))
    out_tuples = list(itertools.product(*(range(v) for v in outs)))
    index = {(os_, xs): k for k, (xs, os_) in enumerate(itertools.product(in_tuples, out_tuples))}
    prog = lp.LinearProgram(len(index))
    for _, cells, rhs in unfolded_extension_rows(base, shared_party, m):
        prog.add_eq(((index[cell], c) for cell, c in cells), rhs)
    return prog


def unfolded_bell_lift(base: Box, shared_party: str, m: int, functional) -> lp.LpOutcome:
    """The paper's proof that a box violating a Bell functional has no
    symmetric extension to m >= |Y| copies of the shared party, as an
    INFEASIBLE outcome whose Farkas vector sits on the rows of
    unfolded_extension_lp(base, shared_party, m), built row by row from
    their labels (unfolded_extension_rows) and nothing that folds.

    `functional` is (beta, kappa), normalized (at most 0 on every
    deterministic strategy) and violated by the box whose first party is
    the fixed one and second the shared one: the base toward B, the
    party-swapped base toward A.  With the copies in slot order, z* their
    inputs (0, 1, ..., Y-1, 0, ..., 0) and lam their outputs,
    c(a, x, lam) = sum_y beta(a, lam_y | x, y) and M(x, lam) =
    max_a c(a, x, lam), the multipliers are:
      - -beta(a, b | x, y) on the marginal row of copy y at that entry;
      - -beta(a, b | x, y) again on each trace row that moves one more
        copy j in 1..Y-1 (not copy y) from input 0 to input j, copies
        before it already moved, at every output of the copies but y
        and j;
      - +M(x, lam) on the fixed party's trace row comparing x with 0 at
        copy inputs z* and outputs lam, and -kappa on the normalization
        row of (0, z*).
    y_lb is the column sums, read off every row's cells."""
    coefficients, offset = functional
    X, Y = base.scenario.inputs if shared_party == "B" else base.scenario.inputs[::-1]
    A, B = base.scenario.outputs if shared_party == "B" else base.scenario.outputs[::-1]
    ins, outs, fixed, copies = _unfolded_slots(base, shared_party, m)
    n_parties = m + 1

    def beta(a, b, x, y):
        return coefficients[(x * Y + y) * A * B + a * B + b]

    def cell(fixed_pair, copy_pairs):
        # (outputs, inputs) of the full table with the fixed party's and
        # each copy's (output, input) in place
        o, i = [0] * n_parties, [0] * n_parties
        o[fixed], i[fixed] = fixed_pair
        for slot, (oc, ic) in zip(copies, copy_pairs):
            o[slot], i[slot] = oc, ic
        return tuple(o), tuple(i)

    def label_of(k, xs_os):
        os_, xs = xs_os
        return ("trace", k, xs, os_)

    target = [j if j < Y else 0 for j in range(m)]
    multipliers: dict = {}

    def add(label, value):
        multipliers[label] = multipliers.get(label, ZERO) + value

    for x, y, a, b in itertools.product(range(X), range(Y), range(A), range(B)):
        v = beta(a, b, x, y)
        if not v:
            continue
        base_entry = (x, y, a, b) if shared_party == "B" else (y, x, b, a)
        add(("marginal", copies[y], *base_entry), -v)
        inputs = [0] * m
        inputs[y] = y
        for j in range(1, min(Y, m)):
            if j == y:
                continue
            inputs[j] = j
            free = [k for k in range(m) if k not in (j, y)]
            for lam in itertools.product(range(B), repeat=len(free)):
                pairs = [None] * m
                pairs[y], pairs[j] = (b, y), (0, j)
                for k, o in zip(free, lam):
                    pairs[k] = (o, inputs[k])
                add(label_of(copies[j], cell((a, x), pairs)), -v)
    for lam in itertools.product(range(B), repeat=m):
        tops = [max(sum(beta(a, lam[y], x, y) for y in range(Y)) for a in range(A)) for x in range(X)]
        for x in range(1, X):
            add(label_of(fixed, cell((0, x), list(zip(lam, target)))), tops[x])
    add(("normalization", cell((0, 0), [(0, t) for t in target])[1]), -offset)

    y_eq, alpha = [], {}
    for label, cells, _ in unfolded_extension_rows(base, shared_party, m):
        u = multipliers.pop(label, ZERO)
        y_eq.append(u)
        if u:
            for c, coeff in cells:
                alpha[c] = alpha.get(c, ZERO) + u * coeff
    if multipliers:
        raise AssertionError(f"multipliers on rows the program does not have: {list(multipliers)[:3]}")
    in_tuples = itertools.product(*(range(v) for v in ins))
    out_tuples = list(itertools.product(*(range(v) for v in outs)))
    columns = [(os_, xs) for xs in in_tuples for os_ in out_tuples]
    y_lb = tuple(alpha.get(c, ZERO) for c in columns)
    certificate = lp.LpCertificate("farkas", tuple(y_eq), (), y_lb, (ZERO,) * len(columns))
    return lp.LpOutcome(lp.INFEASIBLE, certificate=certificate)


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
            add([(i, ONE) for i in idx], prob(problem.base, *entry), entry)
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


def relabel_walk(box: Box, input_perms, output_perms) -> Box:
    """core.relabel entry by entry, without its permutation checks: entry
    (outs | xs) of the result reads box.prob at the input permutations'
    images of xs and, at each party's new input, the inverse output
    permutation's image of its output."""
    sc = box.scenario
    inv_out = [[_inverse(tau) for tau in per_x] for per_x in output_perms]
    table = []
    for xs in sc.input_tuples():
        old_xs = tuple(input_perms[k][xs[k]] for k in range(sc.parties))
        for outs in sc.output_tuples():
            old_outs = tuple(inv_out[k][xs[k]][outs[k]] for k in range(sc.parties))
            table.append(prob(box, old_outs, old_xs))
    return Box(sc, tuple(table))


def _relabeled_table(box: Box, g, h) -> tuple:
    """The table of the bipartite box relabeled by (g, h), one (pi, sigma)
    per party as party_relabelings lists them, through relabel_walk, whose
    output permutation maps the device's output to the reported one."""
    outs = [[_inverse(sigma) for sigma in g[1]], [_inverse(sigma) for sigma in h[1]]]
    return relabel_walk(box, [g[0], h[0]], outs).table


def canonical_relabeling(base: Box):
    """The bipartite box's local relabeling with the lexicographically
    greatest table, by trying every one through relabel_walk: returns
    (table, (g, h)), g and h one (pi, sigma) per party, where entry
    (a, b | x, y) of the table is entry (g[1][x][a], h[1][y][b] | g[0][x],
    h[0][y]) of the box.  Of equal tables the first wins, with Alice's
    relabeling varying slowest and each party's pi before its sigma."""
    (X, Y), (A, B) = base.scenario.inputs, base.scenario.outputs
    tables = ((_relabeled_table(base, g, h), (g, h)) for g in party_relabelings(X, A) for h in party_relabelings(Y, B))
    return max(tables, key=lambda pair: pair[0])


def label_numbers(inputs: int, outputs: int) -> dict:
    """Each (output, input) label of a party with these alphabets, keyed
    by its label number: the flat index of the entry (a | x) of the party
    alone (_flat_of)."""
    alone = Scenario((inputs,), (outputs,))
    return {_flat_of(alone, (a,), (x,)): (a, x) for x in range(inputs) for a in range(outputs)}


def brute_canonical_form(box: Box):
    """polytope.canonical_form by comparing every pair of local
    relabelings, as (table, alice, bob, group): the table of the first
    relabeling (in canonical_relabeling's order) that reaches the
    greatest; per party a tuple that gives, at each original label
    number (label_numbers), the number of its relabeled label; and every
    psi = phi_best^-1 . phi over the relabelings phi that reach it too,
    as such a tuple per party on relabeled labels, sorted; the table is
    read through relabel_walk.  Each candidate is compared with the best
    so far cell by cell on the ranks of the table's values, and only a
    strictly greater one replaces it."""
    sc = box.scenario
    (X, Y), (A, B) = sc.inputs, sc.outputs
    table = box.table
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
                        best, ties = (ga, hb), [(ga, hb)]
                        best_ranks = [ranked[i + j] for i, j in zip(ta, tb)]
                    break
            else:
                ties.append((ga, hb))
    g, h = best
    table = _relabeled_table(box, g, h)
    number = [{label: n for n, label in label_numbers(*sizes).items()} for sizes in ((X, A), (Y, B))]

    def of(r, numbered):
        # relabeled entry (a | x) reads the original (sigma[x][a] | pi[x])
        image = [None] * len(numbered)
        for x, (p, s) in enumerate(zip(*r)):
            for a in range(len(s)):
                image[numbered[s[a], p]] = numbered[a, x]
        return image

    of_a, of_b = of(g, number[0]), of(h, number[1])

    def psi(r, numbered, best_of):
        # relabeled label k reads the original label that r sends to k
        image = [None] * len(numbered)
        for orig, label in enumerate(of(r, numbered)):
            image[label] = best_of[orig]
        return tuple(image)

    group = tuple(sorted((psi(ga, number[0], of_a), psi(hb, number[1], of_b)) for ga, hb in ties))
    return table, tuple(of_a), tuple(of_b), group


def _walk_grown(state: tuple, inputs: int, outputs: int) -> list:
    """Every extension of one party's partial relabeling by its next
    canonical label.  `state` holds the original label number of each
    canonical label so far, in canonical order (input-major, like the
    table), so a new canonical input takes any original input not yet
    taken, with any output, and a further output of the same input any
    output of that original input not yet taken."""
    k = len(state)
    start = k - k % outputs
    if start == k:
        taken = {n // outputs for n in state}
        return [state + (n,) for n in range(inputs * outputs) if n // outputs not in taken]
    first = state[start] - state[start] % outputs
    taken = set(state[start:])
    return [state + (n,) for n in range(first, first + outputs) if n not in taken]


def walked_canonical_form(box: Box):
    """polytope.canonical_form by its cell-by-cell frontier walk, each
    partial relabeling held as a tuple of original label numbers
    (label_numbers) per canonical label and grown afresh at every cell
    where a label first shows, each cell read at the flat position of
    its labels (_flat_of).  When a cell would grow the frontier past
    polytope.CANONICAL_SEARCH_CAP states it gives up with the
    box's table, the identity maps and the one-element group.  Else the
    least relabeling that reaches the greatest table, in the order of
    (Alice's input permutation, her output permutation at each input,
    Bob's likewise), gives the maps, and every relabeling that reaches
    it the group, as brute_canonical_form states them."""
    from boxlab import polytope

    sc = box.scenario
    (X, Y), (A, B) = sc.inputs, sc.outputs
    table = box.table
    rank = {v: i for i, v in enumerate(sorted(set(table)))}
    at_a = [_flat_of(sc, (n % A, 0), (n // A, 0)) for n in range(X * A)]
    at_b = [_flat_of(sc, (0, n % B), (0, n // B)) for n in range(Y * B)]
    cells = [(x * A + a, y * B + b, y == b == 0, x == a == 0)
             for x, y, a, b in itertools.product(range(X), range(Y), range(A), range(B))]
    frontier = [((), ())]
    for i, j, grow_a, grow_b in cells:
        if grow_a or grow_b:
            more_a = {fa: _walk_grown(fa, X, A) if grow_a else (fa,) for fa in {fa for fa, _ in frontier}}
            more_b = {fb: _walk_grown(fb, Y, B) if grow_b else (fb,) for fb in {fb for _, fb in frontier}}
            if sum(len(more_a[fa]) * len(more_b[fb]) for fa, fb in frontier) > polytope.CANONICAL_SEARCH_CAP:
                identity = (tuple(range(X * A)), tuple(range(Y * B)))
                return (table, *identity, (identity,))
            frontier = [(na, nb) for fa, fb in frontier for na in more_a[fa] for nb in more_b[fb]]
        values = [rank[table[at_a[fa[i]] + at_b[fb[j]]]] for fa, fb in frontier]
        best = max(values)
        frontier = [f for f, v in zip(frontier, values) if v == best]

    def order(state, outputs):
        return tuple(n // outputs for n in state[::outputs]), tuple(n % outputs for n in state)

    best_a, best_b = min(frontier, key=lambda f: order(f[0], A) + order(f[1], B))
    relabeled = tuple(table[at_a[best_a[i]] + at_b[best_b[j]]] for i, j, _, _ in cells)
    alice, bob = (tuple(sorted(range(len(s)), key=s.__getitem__)) for s in (best_a, best_b))
    group = tuple(sorted((tuple(alice[n] for n in fa), tuple(bob[n] for n in fb)) for fa, fb in frontier))
    return relabeled, alice, bob, group


def unfold_by_relabeling(problem, relabeling, values) -> tuple:
    """The extension table of `problem` from one value per orbit of the
    problem on the base box relabeled by `relabeling` (as
    canonical_relabeling returns it, or None for no relabeling), built
    table first: every entry of the relabeled problem's extension table
    takes the value of its walked orbit (walked_orbit_rows), and
    relabel_walk then undoes the relabeling on every party, each copy
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
    return relabel_walk(Box(problem.extension_scenario(), table), in_perms, out_perms).table


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
        prog.add_eq([(index[x, a, b, o], ONE) for o in range(B)], prob(restricted, (a, b), (x, 0)))
        prog.add_eq([(index[x, a, o, b], ONE) for o in range(B)], prob(restricted, (a, b), (x, 1)))
    for x, b0, b1 in itertools.product(range(1, X), range(B), range(B)):
        prog.add_eq(
            [(index[x, a, b0, b1], ONE) for a in range(A)]
            + [(index[0, a, b0, b1], -ONE) for a in range(A)],
            ZERO,
        )
    return prog


def uniform_box(scenario: Scenario) -> Box:
    """Uniform noise: every output tuple equally likely at every input tuple."""
    p = Fraction(1, scenario.num_output_tuples)
    return Box(scenario, (p,) * scenario.table_size)


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
    p = prob(pk, (a_k,), (x_k,))
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
            table.append(prob(box, outs, xs) / p)
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
        variants.append(relabel_walk(box, in_perms, out_perms))
    return mix(variants, [Fraction(1, A)] * A)
