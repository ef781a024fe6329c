"""Scenarios and conditional-probability boxes over exact rationals.

A box is a table P(a_1..a_n | x_1..x_n) of Fraction entries stored flat in
canonical mixed-radix order: input tuples outermost (party 1 most
significant), output tuples innermost (party 1 most significant).  All
operations are pure and exact; nothing in this module ever rounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
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


class ZeroProbabilityCondition(BoxlabError):
    pass


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


def ensure(condition: bool, message: str) -> None:
    """Raise InternalError(message) unless condition holds."""
    if not condition:
        raise InternalError(message)


def rat(value) -> Fraction:
    """Exact conversion to Fraction.

    Accepts Fraction, int, and strings ("3/4", "0.25"; decimals convert
    exactly).  Floats are rejected: binary floats carry representation
    error that would silently break the exactness contract.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass a Fraction, int or string"
        )
    raise TypeError(f"cannot convert {type(value).__name__} to Fraction")


@dataclass(frozen=True)
class Scenario:
    """n parties, each with an input alphabet size and an output alphabet size."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(int(v) for v in self.inputs))
        object.__setattr__(self, "outputs", tuple(int(v) for v in self.outputs))
        if len(self.inputs) != len(self.outputs):
            raise ScenarioMismatch("inputs and outputs lists differ in length")
        if len(self.inputs) < 1:
            raise ScenarioMismatch("need at least one party")
        if any(v < 1 for v in self.inputs) or any(v < 1 for v in self.outputs):
            raise ScenarioMismatch("alphabet sizes must be >= 1")

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


@dataclass(frozen=True)
class PartySubset:
    """Strictly increasing, nonempty set of party indices (0-based)."""

    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if not self.indices:
            raise ScenarioMismatch("party subset must be nonempty")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ScenarioMismatch("party indices must be strictly increasing")


@dataclass(frozen=True)
class Box:
    """A validated conditional probability table over a scenario.

    Immutable; construct through validate_box() or the from_function helper.
    """

    scenario: Scenario
    table: tuple[Fraction, ...]

    def prob(self, outs: Sequence[int], xs: Sequence[int]) -> Fraction:
        return self.table[self.scenario.flat_index(outs, xs)]

    def __getitem__(self, key) -> Fraction:
        outs, xs = key
        return self.prob(outs, xs)


def validate_box(table: Iterable, scenario: Scenario) -> Box:
    """Check nonnegativity and exact per-input normalization; return the Box."""
    entries = tuple(rat(v) for v in table)
    if len(entries) != scenario.table_size:
        raise ScenarioMismatch(
            f"table has {len(entries)} entries, scenario needs {scenario.table_size}"
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


def _context_tuples(scenario: Scenario, k: int, kind: str) -> Iterator[tuple[int, ...]]:
    sizes = scenario.inputs if kind == "in" else scenario.outputs
    return itertools.product(*(range(s) for i, s in enumerate(sizes) if i != k))


def _insert(ctx: tuple[int, ...], k: int, v: int) -> tuple[int, ...]:
    return ctx[:k] + (v,) + ctx[k:]


def is_nonsignaling(box: Box, witness: bool = False):
    """Check the single-party trace conditions, which imply all subset ones.

    For every party k, every assignment of the other parties' outputs and
    inputs, and every pair of k-inputs, the sum over a_k must agree exactly.
    Returns True, or (True, None) / (False, witness-tuple) when witness=True.
    The witness is (party, other_outputs, other_inputs, x_k, x_k', lhs, rhs).
    """
    sc = box.scenario
    for k in range(sc.parties):
        for out_ctx in _context_tuples(sc, k, "out"):
            for in_ctx in _context_tuples(sc, k, "in"):
                ref = None
                ref_x = None
                for xk in range(sc.inputs[k]):
                    xs = _insert(in_ctx, k, xk)
                    total = sum(
                        (box.prob(_insert(out_ctx, k, ak), xs) for ak in range(sc.outputs[k])),
                        ZERO,
                    )
                    if ref is None:
                        ref, ref_x = total, xk
                    elif total != ref:
                        w = (k, out_ctx, in_ctx, ref_x, xk, ref, total)
                        return (False, w) if witness else False
    return (True, None) if witness else True


def marginal(box: Box, subset: PartySubset | Sequence[int]) -> Box:
    """Marginal box on a subset of parties.

    Defined only for nonsignaling boxes: the traced parties' inputs are
    pinned to 0 and the independence of that choice is asserted rather
    than averaged over, so signaling inputs fail loudly.
    """
    if not isinstance(subset, PartySubset):
        subset = PartySubset(tuple(subset))
    sc = box.scenario
    keep = subset.indices
    if any(i >= sc.parties for i in keep):
        raise ScenarioMismatch(f"party subset {keep} out of range")
    drop = [i for i in range(sc.parties) if i not in keep]
    if not drop:
        return box
    ok, w = is_nonsignaling(box, witness=True)
    if not ok:
        raise SignalingBox(w)
    sub = Scenario(
        tuple(sc.inputs[i] for i in keep), tuple(sc.outputs[i] for i in keep)
    )
    table = []
    for xs_sub in sub.input_tuples():
        xs = [0] * sc.parties
        for pos, i in enumerate(keep):
            xs[i] = xs_sub[pos]
        for outs_sub in sub.output_tuples():
            total = ZERO
            for dropped in itertools.product(*(range(sc.outputs[i]) for i in drop)):
                outs = [0] * sc.parties
                for pos, i in enumerate(keep):
                    outs[i] = outs_sub[pos]
                for pos, i in enumerate(drop):
                    outs[i] = dropped[pos]
                total += box.prob(outs, xs)
            table.append(total)
    return Box(sub, tuple(table))


def condition(box: Box, party: int, x_k: int, a_k: int) -> Box:
    """Box on the remaining parties given party k saw (x_k, a_k).

    Requires P(a_k | x_k) > 0; the box must be nonsignaling for that
    marginal to be well defined (checked via marginal()).
    """
    sc = box.scenario
    if sc.parties < 2:
        raise ScenarioMismatch("conditioning needs at least two parties")
    pk = marginal(box, PartySubset((party,)))
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
        xs = _insert(xs_sub, party, x_k)
        for outs_sub in sub.output_tuples():
            outs = _insert(outs_sub, party, a_k)
            table.append(box.prob(outs, xs) / p)
    return validate_box(table, sub)


def tensor(box1: Box, box2: Box) -> Box:
    """Product box on the concatenated scenario (box1's parties first)."""
    s1, s2 = box1.scenario, box2.scenario
    sc = Scenario(s1.inputs + s2.inputs, s1.outputs + s2.outputs)
    n1 = s1.parties
    table = []
    for xs in sc.input_tuples():
        for outs in sc.output_tuples():
            table.append(
                box1.prob(outs[:n1], xs[:n1]) * box2.prob(outs[n1:], xs[n1:])
            )
    return Box(sc, tuple(table))


def permute_parties(box: Box, perm: Sequence[int]) -> Box:
    """Reorder parties: party i of the result is party perm[i] of the input."""
    sc = box.scenario
    perm = tuple(perm)
    if sorted(perm) != list(range(sc.parties)):
        raise BadPermutation(f"{perm} is not a permutation of the parties")
    sub = Scenario(
        tuple(sc.inputs[p] for p in perm), tuple(sc.outputs[p] for p in perm)
    )
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


def identity_relabeling(scenario: Scenario):
    """The trivial (do-nothing) relabeling arguments for relabel()."""
    in_perms = [tuple(range(x)) for x in scenario.inputs]
    out_perms = [
        [tuple(range(a))] * x for x, a in zip(scenario.inputs, scenario.outputs)
    ]
    return in_perms, out_perms


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
