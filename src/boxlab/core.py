"""Scenarios and conditional-probability boxes over exact rationals.

A box is a table P(a_1..a_n | x_1..x_n) of Fraction entries stored flat in
canonical mixed-radix order: input tuples outermost (party 1 most
significant), output tuples innermost (party 1 most significant).  All
operations are pure and exact; nothing in this module ever rounds.

`Frozen` is the base of every boxlab record (Scenario, Box, LpOutcome,
...): immutable, compared and hashed by value, with a dataclass-style
repr.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class BoxlabError(Exception):
    """Base class for all boxlab errors."""


class NegativeEntry(BoxlabError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"table entry at {index} is negative: {value}")


class NormalizationFailure(BoxlabError):
    def __init__(self, inputs, total):
        self.inputs = inputs
        self.total = total
        super().__init__(f"entries for inputs {inputs} sum to {total}, expected 1")


class SignalingBox(BoxlabError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"box is signaling: {witness}")


class BadPermutation(BoxlabError):
    pass


class WeightError(BoxlabError):
    pass


class ScenarioMismatch(BoxlabError):
    pass


class BadParams(BoxlabError):
    """A parameter outside the range a construction or analysis accepts."""


class InternalError(BoxlabError):
    """An exact computation broke a guarantee of its own construction, such
    as a certificate that fails to re-verify or an LP status that its
    formulation rules out.  Raised by explicit checks that `python -O`
    keeps."""


def count_text(n: int) -> str:
    """A positive count n in decimal, or as the power of two it reaches
    where str() would refuse it: a count worked out from alphabet sizes
    can pass Python's limit on the digits of an int-to-str conversion."""
    return str(n) if n.bit_length() < 10_000 else f"at least 2**{n.bit_length() - 1}"


def ensure(condition: bool, message: str) -> None:
    """Raise InternalError(message) unless condition holds."""
    if not condition:
        raise InternalError(message)


def rat(value) -> Fraction:
    """Exact conversion to Fraction.

    Accepts Fraction, int, and strings ("3/4", "0.25"; decimals convert
    exactly).  Floats are rejected: binary floats carry representation
    error that would silently break the exactness contract.  Exponent
    notation raises ValueError, like any malformed string: Fraction would
    first expand "1e10000000" into a ten-million-digit integer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted: {value!r}")
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a Fraction, int or string"
        )
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


class Frozen:
    """Base of an immutable record.  A subclass's __init__ writes its fields
    into self.__dict__ in field order; after that no attribute can be set
    or deleted.  Two records are equal when they are of the same class
    with equal fields, and the hash and repr read the fields in order, as
    a frozen dataclass's would.  The fields stay in __dict__, without
    __slots__, so a record pickles to the bytes its dataclass did.
    Records avoid `dataclasses` for start-up time (see the cli module)."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


def _alphabet_size(v) -> int:
    # no int(v): it would turn 2.7 into 2, True into 1 and "3" into 3
    if type(v) is not int:
        raise ScenarioMismatch(f"alphabet sizes must be ints, got {v!r}")
    return v


class Scenario(Frozen):
    """n parties, each with an input alphabet size and an output alphabet size."""

    def __init__(self, inputs: Iterable[int], outputs: Iterable[int]):
        inputs = tuple(map(_alphabet_size, inputs))
        outputs = tuple(map(_alphabet_size, outputs))
        if len(inputs) != len(outputs):
            raise ScenarioMismatch("inputs and outputs lists differ in length")
        if len(inputs) < 1:
            raise ScenarioMismatch("need at least one party")
        if any(v < 1 for v in inputs) or any(v < 1 for v in outputs):
            raise ScenarioMismatch("alphabet sizes must be >= 1")
        d = self.__dict__
        d["inputs"] = inputs
        d["outputs"] = outputs

    @property
    def parties(self) -> int:
        return len(self.inputs)

    @property
    def num_input_tuples(self) -> int:
        n = 1
        for v in self.inputs:
            n *= v
        return n

    @property
    def num_output_tuples(self) -> int:
        n = 1
        for v in self.outputs:
            n *= v
        return n

    @property
    def table_size(self) -> int:
        return self.num_input_tuples * self.num_output_tuples

    def input_tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(v) for v in self.inputs))

    def output_tuples(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(v) for v in self.outputs))

    def input_index(self, xs: Sequence[int]) -> int:
        idx = 0
        for x, size in zip(xs, self.inputs):
            if not 0 <= x < size:
                raise IndexError(f"input {xs} out of range for {self.inputs}")
            idx = idx * size + x
        return idx

    def output_index(self, outs: Sequence[int]) -> int:
        idx = 0
        for a, size in zip(outs, self.outputs):
            if not 0 <= a < size:
                raise IndexError(f"output {outs} out of range for {self.outputs}")
            idx = idx * size + a
        return idx

    def flat_index(self, outs: Sequence[int], xs: Sequence[int]) -> int:
        return self.input_index(xs) * self.num_output_tuples + self.output_index(outs)


class Box(Frozen):
    """A validated conditional probability table over a scenario.

    Immutable; construct through validate_box() or the from_function helper.
    """

    def __init__(self, scenario: Scenario, table: tuple[Fraction, ...]):
        d = self.__dict__
        d["scenario"] = scenario
        d["table"] = table

    def prob(self, outs: Sequence[int], xs: Sequence[int]) -> Fraction:
        return self.table[self.scenario.flat_index(outs, xs)]


def validate_box(table: Iterable, scenario: Scenario) -> Box:
    """Check nonnegativity and exact per-input normalization; return the Box."""
    entries = tuple(rat(v) for v in table)
    if len(entries) != scenario.table_size:
        raise ScenarioMismatch(
            f"table has {len(entries)} entries, scenario needs {count_text(scenario.table_size)}"
        )
    for i, v in enumerate(entries):
        if v < 0:
            raise NegativeEntry(i, v)
    n_out = scenario.num_output_tuples
    for xi, xs in enumerate(scenario.input_tuples()):
        total = sum(entries[xi * n_out : (xi + 1) * n_out], ZERO)
        if total != 1:
            raise NormalizationFailure(xs, total)
    return Box(scenario, entries)


def box_from_function(scenario: Scenario, fn) -> Box:
    """Build and validate a box from fn(outs, xs) -> rational-like."""
    table = []
    for xs in scenario.input_tuples():
        for outs in scenario.output_tuples():
            table.append(rat(fn(outs, xs)))
    return validate_box(table, scenario)


def uniform_box(scenario: Scenario) -> Box:
    p = Fraction(1, scenario.num_output_tuples)
    return Box(scenario, (p,) * scenario.table_size)


def _party_subset(scenario: Scenario, subset: Sequence[int]) -> tuple[int, ...]:
    keep = tuple(int(i) for i in subset)
    increasing = all(a < b for a, b in zip(keep, keep[1:]))
    if not (keep and increasing and 0 <= keep[0] and keep[-1] < scenario.parties):
        raise ScenarioMismatch(f"party subset {keep} is not increasing in 0..{scenario.parties - 1}")
    return keep


def _assignments(sizes: Sequence[int], parties: Sequence[int]):
    """Every assignment of values to `parties`, in product order, with its
    mixed-radix offset in a tuple over all of `sizes` whose other entries
    are 0: yields (values, offset)."""
    strides = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    for values in itertools.product(*(range(sizes[i]) for i in parties)):
        yield values, sum(v * strides[i] for i, v in zip(parties, values))


def marginal_indices(scenario: Scenario, keep: Sequence[int]):
    """How each entry of the marginal on `keep` reads the table: the other
    parties' inputs pinned to 0 and their outputs summed.  Yields
    ((outs, xs), flat indices summed) per marginal entry, in the
    marginal's table order; the indices ascend."""
    keep = _party_subset(scenario, keep)
    drop = [i for i in range(scenario.parties) if i not in keep]
    n_out = scenario.num_output_tuples
    summed = [offset for _, offset in _assignments(scenario.outputs, drop)]
    entries = list(_assignments(scenario.outputs, keep))
    for xs, x_offset in _assignments(scenario.inputs, keep):
        for outs, out_offset in entries:
            base = x_offset * n_out + out_offset
            yield (outs, xs), [base + s for s in summed]


def trace_indices(scenario: Scenario):
    """The single-party trace conditions, which imply all subset ones: for
    every party k with two or more inputs, every assignment of the other
    parties' outputs and inputs, the sum over a_k must not depend on x_k.
    Yields (k, other_outputs, other_inputs, per_x), per_x[x_k] listing the
    flat indices summed over a_k, in party, output-context, input-context
    order."""
    n_out = scenario.num_output_tuples
    for k in range(scenario.parties):
        if scenario.inputs[k] < 2:
            continue
        others = [i for i in range(scenario.parties) if i != k]
        own_outs = [offset for _, offset in _assignments(scenario.outputs, (k,))]
        own_ins = [offset * n_out for _, offset in _assignments(scenario.inputs, (k,))]
        in_ctxs = list(_assignments(scenario.inputs, others))
        for out_ctx, out_offset in _assignments(scenario.outputs, others):
            for in_ctx, x_offset in in_ctxs:
                base = x_offset * n_out + out_offset
                yield k, out_ctx, in_ctx, [[base + x + a for a in own_outs] for x in own_ins]


def party_order_indices(scenario: Scenario, order: Sequence[int]) -> list[int]:
    """The gather map that reorders parties: party i of the reordered
    table is party order[i] of this one, and entry k of the reordered
    table is entry indices[k] of this one.  The assignments walk the
    parties in the new order, so they come in the reordered table's
    product order, each with its offset in this one."""
    order = tuple(order)
    if sorted(order) != list(range(scenario.parties)):
        raise BadPermutation(f"{order} is not a permutation of the parties")
    n_out = scenario.num_output_tuples
    outs = [offset for _, offset in _assignments(scenario.outputs, order)]
    return [x * n_out + o for _, x in _assignments(scenario.inputs, order) for o in outs]


def swap_indices(scenario: Scenario, i: int, j: int) -> list[int]:
    """party_order_indices for the transposition of parties i and j, which
    must have the same alphabets, so that the swapped table lives on the
    same scenario."""
    if (scenario.inputs[i], scenario.outputs[i]) != (scenario.inputs[j], scenario.outputs[j]):
        raise ScenarioMismatch(f"parties {i} and {j} have different alphabets")
    order = list(range(scenario.parties))
    order[i], order[j] = j, i
    return party_order_indices(scenario, order)


def numerators(values) -> tuple[int, list[int]]:
    """The least common denominator of the Fractions `values`, and each
    value's numerator over it: sums and comparisons of these ints are
    those of the values, scaled by the denominator."""
    den = lcm(*{v.denominator for v in values})
    return den, [v.numerator * (den // v.denominator) for v in values]


def is_nonsignaling(box: Box, witness: bool = False):
    """Check the trace conditions of trace_indices.

    Returns True, or (True, None) / (False, witness-tuple) when witness=True.
    The witness is (party, other_outputs, other_inputs, x_k, x_k', lhs, rhs).
    The sums compare as integers over the table's common denominator;
    only a witness's two traces become Fractions.
    """
    den, nums = numerators(box.table)
    at = nums.__getitem__
    for k, out_ctx, in_ctx, per_x in trace_indices(box.scenario):
        ref = sum(map(at, per_x[0]))
        for xk in range(1, len(per_x)):
            total = sum(map(at, per_x[xk]))
            if total != ref:
                w = (k, out_ctx, in_ctx, 0, xk, Fraction(ref, den), Fraction(total, den))
                return (False, w) if witness else False
    return (True, None) if witness else True


def marginal(box: Box, subset: Sequence[int]) -> Box:
    """Marginal box on a subset of parties.

    Defined only for nonsignaling boxes: the traced parties' inputs are
    pinned to 0 and the independence of that choice is asserted rather
    than averaged over, so signaling inputs fail loudly.
    """
    sc = box.scenario
    keep = _party_subset(sc, subset)
    if len(keep) == sc.parties:
        return box
    ok, w = is_nonsignaling(box, witness=True)
    if not ok:
        raise SignalingBox(w)
    sub = Scenario(
        tuple(sc.inputs[i] for i in keep), tuple(sc.outputs[i] for i in keep)
    )
    table = box.table
    return Box(
        sub,
        tuple(sum((table[i] for i in idx), ZERO) for _, idx in marginal_indices(sc, keep)),
    )


def restrict_bob_inputs(box: Box, y_values: Sequence[int]) -> Box:
    """Bipartite box keeping only the listed Bob inputs, in the listed
    order, re-indexed from 0."""
    (X, Y), n_out = box.scenario.inputs, box.scenario.num_output_tuples
    ys = tuple(y_values)
    if any(not 0 <= y < Y for y in ys):
        raise ScenarioMismatch(f"Bob inputs {ys} out of range for {Y}")
    table = []
    for x in range(X):
        for y in ys:
            start = (x * Y + y) * n_out
            table.extend(box.table[start : start + n_out])
    return Box(Scenario((X, len(ys)), box.scenario.outputs), tuple(table))


def permute_parties(box: Box, perm: Sequence[int]) -> Box:
    """Reorder parties: party i of the result is party perm[i] of the input."""
    sc = box.scenario
    table = tuple(map(box.table.__getitem__, party_order_indices(sc, perm)))
    sub = Scenario(tuple(sc.inputs[p] for p in perm), tuple(sc.outputs[p] for p in perm))
    return Box(sub, table)


def _check_perm(p: Sequence[int], size: int, what: str):
    if sorted(p) != list(range(size)):
        raise BadPermutation(f"{what}: {tuple(p)} is not a permutation of 0..{size - 1}")


def relabel(
    box: Box,
    input_perms: Sequence[Sequence[int]],
    output_perms: Sequence[Sequence[Sequence[int]]],
) -> Box:
    """Local reversible relabeling.

    input_perms[k] maps the new input x to the old input fed to the device;
    output_perms[k][x] maps the device output to the reported one, with x the
    new input of party k.  Result: Q(a|x) = P(tau_x^{-1}(a) | pi(x)).
    """
    sc = box.scenario
    if len(input_perms) != sc.parties or len(output_perms) != sc.parties:
        raise BadPermutation("need one input perm and one output perm table per party")
    inv_out = []
    for k in range(sc.parties):
        _check_perm(input_perms[k], sc.inputs[k], f"party {k} input perm")
        if len(output_perms[k]) != sc.inputs[k]:
            raise BadPermutation(
                f"party {k}: need one output perm per input value"
            )
        per_input = []
        for x in range(sc.inputs[k]):
            tau = output_perms[k][x]
            _check_perm(tau, sc.outputs[k], f"party {k} output perm at x={x}")
            inv = [0] * len(tau)
            for a, t in enumerate(tau):
                inv[t] = a
            per_input.append(tuple(inv))
        inv_out.append(per_input)
    table = []
    for xs in sc.input_tuples():
        old_xs = tuple(input_perms[k][xs[k]] for k in range(sc.parties))
        for outs in sc.output_tuples():
            old_outs = tuple(inv_out[k][xs[k]][outs[k]] for k in range(sc.parties))
            table.append(box.prob(old_outs, old_xs))
    return Box(sc, tuple(table))


def mix(boxes: Sequence[Box], weights: Sequence) -> Box:
    """Convex combination of boxes on a common scenario."""
    if len(boxes) != len(weights) or not boxes:
        raise WeightError("need one weight per box and at least one box")
    ws = [rat(w) for w in weights]
    if any(w < 0 for w in ws):
        raise WeightError(f"negative weight in {ws}")
    if sum(ws, ZERO) != 1:
        raise WeightError(f"weights sum to {sum(ws, ZERO)}, expected 1")
    sc = boxes[0].scenario
    for b in boxes[1:]:
        if b.scenario != sc:
            raise ScenarioMismatch("mixed boxes must share a scenario")
    table = [ZERO] * sc.table_size
    for b, w in zip(boxes, ws):
        if w == 0:
            continue
        for i, v in enumerate(b.table):
            if v:
                table[i] += w * v
    return Box(sc, tuple(table))
