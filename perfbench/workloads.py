"""Seeded inputs, tasks and outside checks for the three benchmark workloads.

A task is one closed-loop request: an optional untimed `prepare`, the timed
`run`, then an untimed `check` that re-examines the result without relying
on the solver's own assertions (they vanish under `python -O`).  `check`
returns a verdict label for the verdict mix, or raises `Miss`.  A miss that
matches a known program defect carries that defect's name; any other miss
also makes the run incorrect.  A workload runs its whole task list in
`rounds` rounds, and a task's latency is its fastest round (see run.py).

Each workload's class counts are fixed per pass, and the seed draws the
boxes inside each class, so the median and the tail percentile fall inside
the same task class on every seed (see METRICS.md for the sizing).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from boxlab import bell, boxio, incompat, isotropic, locality, lp, polytope, shareability
from boxlab.core import Box, Scenario, mix, permute_parties, relabel

ZERO = Fraction(0)


class Miss(Exception):
    """The outside check rejected a task's result.

    `defect` names a known program defect the miss is an instance of; None
    means the miss is unexplained and the run is not correct.
    """

    def __init__(self, reason: str, defect: Optional[str] = None):
        super().__init__(reason)
        self.defect = defect


# Known program defects the benchmark runs into, by the name it reports.
DEFECTS = {
    "verify-keyerror-missing-field": "verify crashes with KeyError on a report "
    "missing a required field (ROADMAP baseline: KeyError on a missing certificate)",
    "verify-attributeerror-missing-box": "verify crashes with AttributeError on a "
    "report whose box reference is deleted",
    "verify-indexerror-strategy-output": "verify crashes with IndexError on a local "
    "model whose strategy output is out of range (ROADMAP baseline)",
    "verify-exit2-bad-extension": "verify exits 2 (NotAnExtension) on a bad "
    "shareability witness instead of 1 (ROADMAP baseline)",
    "shareability-toward-A-transposed": "is_m_shareable toward party A builds the "
    "marginal rows with the two parties swapped, so a feasible asymmetric box "
    "ends in NotAnExtension",
}


@dataclass
class Task:
    id: str
    cls: str
    run: Callable[[], object]
    check: Callable[[object], str]
    prepare: Optional[Callable[[], None]] = None
    rounds: Optional[int] = None  # run in the first `rounds` rounds only; None: all


@dataclass
class Workload:
    tasks: list[Task]
    rounds: int
    in_process: bool
    workdir: Optional[str] = None
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# outside checks shared by the workloads


def _flat(sc: Scenario, outs, xs) -> int:
    idx = 0
    for x, size in zip(xs, sc.inputs):
        idx = idx * size + x
    o = 0
    for a, size in zip(outs, sc.outputs):
        o = o * size + a
    return idx * sc.num_output_tuples + o


def _strategy_tables(sc: Scenario):
    """Every deterministic strategy, enumerated here rather than by polytope."""
    per_party = [list(itertools.product(range(a), repeat=x)) for x, a in zip(sc.inputs, sc.outputs)]
    return itertools.product(*per_party)


def _functional_value_on_strategy(coeffs, offset, sc: Scenario, tables) -> Fraction:
    total = offset
    for xs in itertools.product(*(range(x) for x in sc.inputs)):
        outs = tuple(tables[k][xs[k]] for k in range(sc.parties))
        total += coeffs[_flat(sc, outs, xs)]
    return total


def check_local_model(box: Box, tables_list, weights) -> None:
    """Weights >= 0, summing to 1, and the mixture reproduces the box."""
    sc = box.scenario
    if any(w < 0 for w in weights) or sum(weights, ZERO) != 1:
        raise Miss("local model weights are not a probability vector")
    table = [ZERO] * sc.table_size
    for tables, w in zip(tables_list, weights):
        for xs in itertools.product(*(range(x) for x in sc.inputs)):
            outs = tuple(tables[k][xs[k]] for k in range(sc.parties))
            if any(not 0 <= a < n for a, n in zip(outs, sc.outputs)):
                raise Miss("local model strategy output out of range")
            table[_flat(sc, outs, xs)] += w
    if tuple(table) != box.table:
        raise Miss("local model does not reconstruct the box")


def check_bell(box: Box, coeffs, offset, violation) -> None:
    """At most 0 on every deterministic strategy, > 0 on the box."""
    sc = box.scenario
    value = offset + sum((c * p for c, p in zip(coeffs, box.table) if c and p), ZERO)
    if value != violation or value <= 0:
        raise Miss(f"Bell certificate value {value} (claimed {violation}) is not a violation")
    for tables in _strategy_tables(sc):
        if _functional_value_on_strategy(coeffs, offset, sc, tables) > 0:
            raise Miss("Bell certificate is positive on a deterministic strategy")


def check_farkas(prog: lp.LinearProgram, cert: lp.LpCertificate) -> None:
    if not lp.verify_certificate(prog, lp.LpOutcome(lp.INFEASIBLE, certificate=cert)):
        raise Miss("Farkas certificate fails against a freshly built LP")


def check_extension(problem, ext: Box) -> None:
    try:
        shareability.validate_extension(problem, ext)
    except shareability.NotAnExtension as exc:
        raise Miss(f"extension witness rejected: {exc}") from None


def random_relabeling(rng: random.Random, sc: Scenario):
    ins = [tuple(rng.sample(range(x), x)) for x in sc.inputs]
    outs = [[tuple(rng.sample(range(a), a)) for _ in range(x)] for x, a in zip(sc.inputs, sc.outputs)]
    return ins, outs


def relabeled(rng: random.Random, box: Box) -> Box:
    return relabel(box, *random_relabeling(rng, box.scenario))


def asymmetric_relabeled(rng: random.Random, box: Box) -> Box:
    """A relabeling under which the box is no longer symmetric in its two
    parties, so which party holds the clones matters."""
    while True:
        out = relabeled(rng, box)
        if permute_parties(out, (1, 0)) != out:
            return out


def c_from(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A parameter k/20 with k drawn from [lo, hi]."""
    return Fraction(rng.randint(lo, hi), 20)


def c_strata(lo: int, hi: int, n: int) -> list[Fraction]:
    """n parameters k/20 cycling through [lo, hi]: the same multiset on
    every seed, so a class's latency spread does not depend on the seed
    (the seed still draws relabelings and the order of the tasks)."""
    return [Fraction(lo + i % (hi - lo + 1), 20) for i in range(n)]


def nonlocal_pr_type(nonlocal_box: Box, others: list[Box], rng: random.Random) -> Box:
    """Mix a PR-type box with weight > 3/4 into other NS boxes.

    Other boxes score at least -3 on the matching normalized CHSH variant,
    the PR-type box scores 1, so the mixture violates it: nonlocal by
    construction.
    """
    w_other = [rng.randrange(1, 8) for _ in others]
    rest = sum(w_other)
    w_pr = 3 * rest + 1 + rng.randrange(rest + 1)
    total = w_pr + rest
    return mix([nonlocal_box] + others, [Fraction(w_pr, total)] + [Fraction(w, total) for w in w_other])


def local_mixture(boxes: list[Box], rng: random.Random) -> Box:
    w = [rng.randrange(1, 8) for _ in boxes]
    total = sum(w)
    return mix(boxes, [Fraction(v, total) for v in w])


# ---------------------------------------------------------------------------
# locality-scan


# Per pass: class -> count.  2222 tasks are most of the pass, with the
# nonlocal ones holding the median; the A=3 / 3322 band (48 tasks) sits
# under the 3 heaviest tasks, so the tail percentile falls in that band.
# The single A=4 local solve takes 0.5-1.5 s depending on the seeded
# relabeling; the rest of the pass is sized so that this stays a small
# share of `tasks_per_s`.
LOCALITY_PASS = {
    "2222-local": 60,
    "2222-nonlocal": 100,
    "3322-local": 12,
    "3322-nonlocal": 12,
    "giso3-local": 12,
    "giso3-nonlocal": 12,
    "giso4-local": 1,
    "giso4-nonlocal": 1,
    "cglmp3": 1,
    "cglmp4": 1,
    "chsh-unique": 1,
}
LOCALITY_ROUNDS = 2

# C = k/20 strata on each side of the locality threshold of the generalized
# isotropic family.  The one A=4 local task uses C = 1/2, where a solve
# takes 0.7-1.4 s across relabelings (1.0-1.7 s at 9/20, ~3 s at 1/3), to
# keep the pass length steady across seeds.
GISO_LOCAL_K = {3: (6, 10), 4: (10, 10)}
GISO_NONLOCAL_K = {3: (12, 18), 4: (12, 12)}


def _locality_task(tid: str, cls: str, box: Box, expect_local: bool) -> Task:
    def check(result) -> str:
        if isinstance(result, locality.LocalModel):
            check_local_model(box, [s.tables for s in result.strategies], list(result.weights))
            verdict = "local"
        elif isinstance(result, locality.NonlocalityCertificate):
            f = result.functional
            check_bell(box, f.coefficients, f.offset, result.violation)
            verdict = "nonlocal"
        else:
            raise Miss(f"is_local returned {type(result).__name__}")
        if (verdict == "local") != expect_local:
            raise Miss(f"verdict {verdict} contradicts the construction")
        return verdict

    return Task(tid, cls, lambda: locality.is_local(box), check)


def _cglmp_task(tid: str, d: int) -> Task:
    sc = Scenario((2, 2), (d, d))
    maximizer = [ZERO] * sc.table_size
    for x, y in itertools.product(range(2), repeat=2):
        for a, b in itertools.product(range(d), repeat=2):
            if (a - b - (d - 1) * x) % d == (x * y) % d:
                maximizer[_flat(sc, (a, b), (x, y))] = Fraction(1, d)

    def check(f) -> str:
        local_bound = max(
            _functional_value_on_strategy(f.coefficients, f.offset, sc, t)
            for t in _strategy_tables(sc)
        )
        if local_bound != 0:
            raise Miss(f"CGLMP({d}) local bound is {local_bound}, not 0")
        top = f.offset + sum((c * p for c, p in zip(f.coefficients, maximizer) if p), ZERO)
        if top != 1:
            raise Miss(f"CGLMP({d}) is {top} on its nonsignaling maximizer, not 1")
        return "normalized"

    return Task(tid, f"cglmp{d}", lambda: bell.cglmp(d), check)


def _chsh_unique_task(tid: str) -> Task:
    sc = bell.scenario_2222()
    pr = [ZERO] * sc.table_size
    for x, y, a, b in itertools.product(range(2), repeat=4):
        if (a + b) % 2 == x * y:
            pr[_flat(sc, (a, b), (x, y))] = Fraction(1, 2)

    def check(result) -> str:
        unique, box = result
        if not unique or box is None or box.table != tuple(pr):
            raise Miss("CHSH maximizer is not the unique PR box")
        return "unique"

    return Task(tid, "chsh-unique", lambda: bell.unique_ns_maximizer(bell.chsh_functional()), check)


def build_locality(rng: random.Random, passes: int) -> Workload:
    vertices = list(bell.ns_vertices_2222())
    det2222, pr2222 = vertices[:16], vertices[16:]
    sc3322 = Scenario((3, 3), (2, 2))
    det3322 = [s.box() for s in polytope.deterministic_strategies(sc3322)]
    tasks: list[Task] = []
    for p in range(passes):
        batch: list[Task] = []
        n = 0

        def add(cls, make):
            nonlocal n
            for _ in range(LOCALITY_PASS[cls]):
                batch.append(make(f"p{p}-{n}", cls))
                n += 1

        add("2222-local", lambda t, c: _locality_task(
            t, c, local_mixture(rng.sample(det2222, rng.randint(2, 8)), rng), True))
        add("2222-nonlocal", lambda t, c: _locality_task(
            t, c, nonlocal_pr_type(rng.choice(pr2222), rng.sample(vertices, rng.randint(1, 6)), rng), False))
        add("3322-local", lambda t, c: _locality_task(
            t, c, local_mixture(rng.sample(det3322, rng.randint(3, 8)), rng), True))

        def pr3322():
            a, b, g = (rng.randrange(2) for _ in range(3))
            table = [ZERO] * sc3322.table_size
            for x, y, oa, ob in itertools.product(range(3), range(3), range(2), range(2)):
                if (oa + ob) % 2 == (x * y + a * x + b * y + g) % 2:
                    table[_flat(sc3322, (oa, ob), (x, y))] = Fraction(1, 2)
            return Box(sc3322, tuple(table))

        add("3322-nonlocal", lambda t, c: _locality_task(
            t, c, nonlocal_pr_type(pr3322(), rng.sample(det3322, rng.randint(2, 6)), rng), False))
        for A in (3, 4):
            for side, ks, local in (("local", GISO_LOCAL_K, True), ("nonlocal", GISO_NONLOCAL_K, False)):
                cls = f"giso{A}-{side}"
                cs = iter(c_strata(*ks[A], LOCALITY_PASS[cls]))
                add(cls, lambda t, c, A=A, cs=cs, local=local: _locality_task(
                    t, c, relabeled(rng, shareability.generalized_isotropic(A, next(cs))), local))
        add("cglmp3", lambda t, c: _cglmp_task(t, 3))
        add("cglmp4", lambda t, c: _cglmp_task(t, 4))
        add("chsh-unique", lambda t, c: _chsh_unique_task(t))
        rng.shuffle(batch)
        tasks += batch
    return Workload(tasks, LOCALITY_ROUNDS, in_process=True)


# ---------------------------------------------------------------------------
# shareability-ladder


# Per pass.  m=2 on a 2222 box is a 64-entry table (the unfolded LP); m=3
# and the A=3 box at m=2 exceed FOLD_THRESHOLD (the folded LP).  The 12
# infeasible m=2 tasks hold both the median and the tail percentile.
SHAREABILITY_PASS = {
    "iso-m2-feasible": 7,
    "iso-m2-infeasible": 12,
    "iso-m3": 2,  # one feasible, one infeasible
    "giso3-m2": 2,  # one each side of the threshold
    "clone-ceiling": 1,
}
SHAREABILITY_ROUNDS = 2


def _share_task(tid: str, cls: str, box: Box, party: str, m: int, expect: bool) -> Task:
    problem = shareability.ExtensionProblem(box, party, m)

    def run():
        try:
            return shareability.is_m_shareable(problem)
        except shareability.NotAnExtension as exc:
            defect = "shareability-toward-A-transposed" if party == "A" else None
            return Miss(f"is_m_shareable raised NotAnExtension: {exc}", defect)

    def check(result) -> str:
        if isinstance(result, Miss):
            raise result
        if result.feasible:
            check_extension(problem, result.extension)
        elif result.folded:
            check_farkas(shareability.folded_extension_lp(problem)[0], result.certificate)
        else:
            check_farkas(shareability.extension_lp(problem), result.certificate)
        if result.feasible != expect:
            raise Miss(f"{m}-shareability verdict {result.feasible} contradicts theory")
        return "shareable" if result.feasible else "not-shareable"

    return Task(tid, cls, run, check)


def _ceiling_task(tid: str) -> Task:
    def check(value) -> str:
        if value != Fraction(1, 2):
            raise Miss(f"clone ceiling {value}, theory gives 1/2")
        return "ceiling-1/2"

    # looked up at call time, so a traced run sees the wrapped function
    # One round only: at ~5 s it is the longest task by far, it already
    # spans several of the machine's fast and slow phases, and three rounds
    # of it would leave no room for the other classes.
    return Task(tid, "clone-ceiling", lambda: shareability.isotropic_clone_ceiling(), check, rounds=1)


def build_shareability(rng: random.Random, passes: int) -> Workload:
    tasks: list[Task] = []
    for p in range(passes):
        batch: list[Task] = []

        def tid():
            return f"p{p}-{len(batch)}"

        # An isotropic box (any local relabeling of one) is m-shareable for
        # m >= 2 exactly when C <= 1/2.
        # Parties alternate A, B within a class; at m=3 the feasible task
        # goes toward A and the infeasible one toward B.
        for cls, m, feasible, cs, parties in (
            ("iso-m2-feasible", 2, True, c_strata(5, 10, SHAREABILITY_PASS["iso-m2-feasible"]), "AB"),
            ("iso-m2-infeasible", 2, False, c_strata(11, 20, SHAREABILITY_PASS["iso-m2-infeasible"]), "AB"),
            ("iso-m3", 3, True, [Fraction(9, 20)], "A"),
            ("iso-m3", 3, False, [Fraction(3, 5)], "B"),
        ):
            for i, c in enumerate(cs):
                box = asymmetric_relabeled(rng, isotropic.make_isotropic(c))
                batch.append(_share_task(tid(), cls, box, parties[i % len(parties)], m, feasible))
        # m = 2 = |Y|: shareable exactly when local; C = 2/5 is local and
        # C = 7/10 nonlocal (the locality-scan strata hold both).
        for feasible, c in ((True, Fraction(2, 5)), (False, Fraction(7, 10))):
            box = relabeled(rng, shareability.generalized_isotropic(3, c))
            batch.append(_share_task(tid(), "giso3-m2", box, "B", 2, feasible))
        batch.append(_ceiling_task(tid()))
        rng.shuffle(batch)
        tasks += batch
    return Workload(tasks, SHAREABILITY_ROUNDS, in_process=True)


# ---------------------------------------------------------------------------
# cli-reports


CLI_ROUNDS = 2
BOX_ANALYSES = {
    "2222": ["ns", "local", "secrecy", "chsh", "shareable", "incompat", "entropy", "depolarize", "shrink"],
    "giso3": ["ns", "local", "secrecy", "cglmp", "shareable", "incompat", "entropy"],
}
EVIDENCE_KEYS = ("witness", "certificate", "output", "certificates")
FLAG_ANALYSES = ("shareable", "incompat", "entropy")


@dataclass
class Report:
    """One analysis of one box file, and what the benchmark expects of it."""

    box: Optional[Box]
    local: Optional[bool]
    which: str
    argv: list
    path: str


def _cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs one `boxlab` command per process, from the workload directory.

    While `spans_file` is set, the command runs under perfbench/launch.py,
    which installs the span wrappers, runs cli.main and writes its spans
    to that file.
    """

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = _cli_env(root)
        self.launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
        self.spans_file: Optional[str] = None

    def __call__(self, argv: list):
        if self.spans_file:
            cmd = [sys.executable, self.launcher, self.spans_file]
        else:
            cmd = [sys.executable, "-m", "boxlab.cli"]
        return subprocess.run(
            cmd + argv, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=170
        )


def _exit_of(proc) -> tuple[int, bool]:
    return proc.returncode, "Traceback (most recent call last)" in proc.stderr


def _load(workdir: str, name: str) -> dict:
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _theory_local(box_name: str) -> bool:
    # pr: C = 1; iso and giso-lo are drawn with C <= 1/2; giso-hi with C >= 3/5.
    return box_name in ("iso", "giso-lo")


def _check_report(rep: Report, data: dict) -> int:
    """Outside re-check of an honest report; returns the expected exit code."""
    box, which = rep.box, rep.which
    verdict = data["verdict"]
    if which == "ns":
        if verdict["nonsignaling"] is not True:
            raise Miss("ns verdict false on a nonsignaling box")
        return 0
    if which in ("local", "secrecy"):
        ev = data.get("witness") or data.get("certificate")
        if ev["type"] == "local_model":
            check_local_model(box, ev["tables"], [Fraction(w) for w in ev["weights"]])
            is_local = True
        else:
            check_bell(box, [Fraction(c) for c in ev["coefficients"]], Fraction(ev["offset"]),
                       Fraction(ev["violation"]))
            is_local = False
        if is_local != rep.local:
            raise Miss("locality verdict contradicts the construction")
        return (0 if is_local else 1) if which == "local" else (1 if is_local else 0)
    if which == "chsh":
        value = Fraction(verdict["chsh"])
        if value != bell.chsh(box):
            raise Miss("chsh value differs from the in-process value")
        return 0 if value <= 0 else 1
    if which == "cglmp":
        value = Fraction(verdict["cglmp"])
        if value != bell.cglmp(3).evaluate(box):
            raise Miss("cglmp value differs from the in-process value")
        return 0 if value <= 0 else 1
    if which == "shareable":
        problem = shareability.ExtensionProblem(box, "B", 2)
        if verdict["shareable"]:
            check_extension(problem, boxio.decode_box(data["witness"]["box"]))
        else:
            cert = boxio.decode_lp_certificate(data["certificate"])
            prog = (shareability.folded_extension_lp(problem)[0] if verdict["folded"]
                    else shareability.extension_lp(problem))
            check_farkas(prog, cert)
        if verdict["shareable"] != rep.local:
            raise Miss("2-shareability verdict contradicts the locality of the box")
        return 0 if verdict["shareable"] else 1
    if which == "incompat":
        pair = incompat.ObservablePair("B", 0, 1)
        prog = incompat.incompatibility_lp_for(incompat.restrict_to_pair(box, pair))
        c = data["certificate"]
        outcome = lp.LpOutcome(c["status"], tuple(Fraction(v) for v in c["primal"]),
                               Fraction(c["value"]), boxio.decode_lp_certificate(c["certificate"]))
        if not lp.verify_certificate(prog, outcome):
            raise Miss("incompatibility certificate fails against a fresh LP")
        eta = Fraction(verdict["incompatibility"])
        if eta != -outcome.value:
            raise Miss("incompatibility verdict differs from its certificate")
        if box.scenario == bell.scenario_2222() and eta != max(ZERO, bell.chsh(box)):
            raise Miss("2222 incompatibility differs from the clamped CHSH value")
        return 0 if eta == 0 else 1
    if which == "entropy":
        ref = incompat.entropy_bound_check(box, incompat.ObservablePair("B", 0, 1))
        if Fraction(verdict["inc"]) != ref.inc or verdict["holds"] != ref.holds:
            raise Miss("entropy verdict differs from the in-process value")
        return 0 if ref.holds else 1
    if which == "depolarize":
        out = boxio.decode_box(data["output"]["box"])
        if out != isotropic.depolarize(box) or bell.chsh(out) != bell.chsh(box):
            raise Miss("depolarized box is wrong or changed CHSH")
        return 0
    if which == "shrink":
        out = boxio.decode_box(data["output"]["box"])
        eps = Fraction(verdict["epsilon"])
        before = isotropic.isotropic_parameter(box)
        if isotropic.isotropic_parameter(out) != (1 - eps) * before:
            raise Miss("shrunk parameter is not (1 - eps) C")
        return 0
    if which == "monogamy-scan":
        for entry, cert in zip(verdict["grid"], data["certificates"]):
            beta = Fraction(entry["beta"])
            outcome = lp.LpOutcome(cert["status"], tuple(Fraction(v) for v in cert["primal"]),
                                   Fraction(cert["value"]),
                                   boxio.decode_lp_certificate(cert["certificate"]))
            if not lp.verify_certificate(shareability.monogamy_lp(beta), outcome):
                raise Miss(f"monogamy certificate at beta={beta} fails against a fresh LP")
            value = Fraction(entry["max_chsh_ac"])
            if value != outcome.value - 1 or (beta > 0 and value > 0):
                raise Miss(f"monogamy value {value} at beta={beta} breaks the tradeoff")
        if len(verdict["grid"]) != len(data["certificates"]):
            raise Miss("monogamy grid and certificates differ in length")
        return 0
    raise Miss(f"no outside check for {which}")


def _tamper_options(rep: Report, data: dict) -> tuple[list, list]:
    """(deletions, value tampers) applicable to this report; each entry is
    (kind, expected exit code)."""
    deletions = [("delete:verdict", 2), ("delete:analysis", 2)]
    if data.get("box") is not None:
        deletions.append(("delete:box", 2))
    if rep.which in FLAG_ANALYSES:
        deletions.append(("delete:flags", 2))
    deletions += [(f"delete:{k}", 2) for k in EVIDENCE_KEYS if k in data]
    w = rep.which
    if w == "ns":
        values = [("flip:verdict.nonsignaling", 1)]
    elif w in ("chsh", "cglmp"):
        values = [(f"bump:verdict.{w}", 1)]
    elif w == "entropy":
        values = [("bump:verdict.inc", 1)]
    elif w in ("local", "secrecy"):
        ev = data.get("witness") or data.get("certificate")
        if ev["type"] == "local_model":
            # An out-of-range output makes the model malformed, not merely wrong.
            values = [("bump:weight", 1), ("range:strategy-output", 2)]
        else:
            values = [("bump:violation", 1)]
    elif w == "shareable":
        values = [("move:extension-entry", 1)] if "witness" in data else [("bump:farkas-y_eq", 1)]
    elif w == "incompat":
        values = [("bump:certificate.value", 1)]
    elif w in ("depolarize", "shrink"):
        values = [("swap:output-entries", 1)]
    else:
        values = [("bump:certificates.value", 1)]
    return deletions, values


def _apply_tamper(kind: str, data: dict, box: Optional[Box], rng: random.Random) -> dict:
    data = json.loads(json.dumps(data))
    op, target = kind.split(":", 1)
    if op == "delete":
        del data[target]
        return data

    def bump(s):
        return str(Fraction(s) + 1)

    if kind == "flip:verdict.nonsignaling":
        data["verdict"]["nonsignaling"] = not data["verdict"]["nonsignaling"]
    elif kind.startswith("bump:verdict."):
        key = target.split(".", 1)[1]
        data["verdict"][key] = bump(data["verdict"][key])
    elif kind == "bump:weight":
        ev = data.get("witness") or data["certificate"]
        i = rng.randrange(len(ev["weights"]))
        ev["weights"][i] = bump(ev["weights"][i])
    elif kind == "range:strategy-output":
        ev = data.get("witness") or data["certificate"]
        s = rng.randrange(len(ev["tables"]))
        k = rng.randrange(len(ev["tables"][s]))
        x = rng.randrange(len(ev["tables"][s][k]))
        ev["tables"][s][k][x] = box.scenario.outputs[k]
    elif kind == "bump:violation":
        data["certificate"]["violation"] = bump(data["certificate"]["violation"])
    elif kind == "move:extension-entry":
        # Move one entry's mass to another entry of the same input block:
        # still a normalized table, but no longer a symmetric extension.
        ext = data["witness"]["box"]
        n_out = 1
        for a in ext["outputs"]:
            n_out *= a
        table = ext["table"]
        blocks = [b for b in range(len(table) // n_out)
                  if any(Fraction(v) for v in table[b * n_out:(b + 1) * n_out])]
        b = rng.choice(blocks)
        src = rng.choice([i for i in range(b * n_out, (b + 1) * n_out) if Fraction(table[i])])
        dst = rng.choice([i for i in range(b * n_out, (b + 1) * n_out) if i != src])
        table[dst] = str(Fraction(table[dst]) + Fraction(table[src]))
        table[src] = "0"
    elif kind == "bump:farkas-y_eq":
        y = data["certificate"]["y_eq"]
        i = rng.randrange(len(y))
        y[i] = bump(y[i])
    elif kind == "bump:certificate.value":
        data["certificate"]["value"] = bump(data["certificate"]["value"])
    elif kind == "swap:output-entries":
        out = data["output"]["box"]
        n_out = 1
        for a in out["outputs"]:
            n_out *= a
        table = out["table"]
        pairs = [(i, j) for b in range(len(table) // n_out)
                 for i in range(b * n_out, (b + 1) * n_out)
                 for j in range(i + 1, (b + 1) * n_out)
                 if Fraction(table[i]) != Fraction(table[j])]
        i, j = rng.choice(pairs)
        table[i], table[j] = table[j], table[i]
    elif kind == "bump:certificates.value":
        certs = data["certificates"]
        c = rng.randrange(len(certs))
        certs[c]["value"] = bump(certs[c]["value"])
    else:
        raise ValueError(f"unknown tamper {kind}")
    return data


def _classify_tamper_miss(kind: str, code: int, traceback: bool, stderr: str) -> Optional[str]:
    last = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if traceback and kind.startswith("delete:") and last.startswith("KeyError"):
        return "verify-keyerror-missing-field"
    if traceback and kind == "delete:box" and last.startswith("AttributeError"):
        return "verify-attributeerror-missing-box"
    if traceback and kind == "range:strategy-output" and last.startswith("IndexError"):
        return "verify-indexerror-strategy-output"
    if not traceback and kind == "move:extension-entry" and code == 2:
        return "verify-exit2-bad-extension"
    return None


def build_cli(rng: random.Random, passes: int, root: str, workdir: str) -> Workload:
    """Box files are written here, at set-up; reports are written by the
    analyze tasks and tampered copies by the tamper tasks' untimed prepare."""
    runner = CliRunner(root, workdir)
    tasks: list[Task] = []
    info = {"runner": runner, "tampers": {}}
    for p in range(passes):
        corpus = {
            "pr": bell.pr_box(),
            "iso": isotropic.make_isotropic(c_from(rng, 5, 10)),
            "giso-lo": shareability.generalized_isotropic(3, c_from(rng, *GISO_LOCAL_K[3])),
            "giso-hi": shareability.generalized_isotropic(3, c_from(rng, *GISO_NONLOCAL_K[3])),
        }
        reports: list[Report] = []
        for name, box in corpus.items():
            box_file = f"p{p}-{name}.box"
            boxio.write_box(os.path.join(workdir, box_file), box, name)
            kind = "2222" if box.scenario == bell.scenario_2222() else "giso3"
            for which in BOX_ANALYSES[kind]:
                argv = ["analyze", which, box_file]
                if which == "shareable":
                    argv += ["--m", "2"]
                elif which == "cglmp":
                    argv += ["--d", "3"]
                elif which == "shrink":
                    argv += ["--epsilon", f"{rng.randint(1, 7)}/8"]
                path = f"p{p}-{name}-{which}.json"
                reports.append(Report(box, _theory_local(name), which, argv + ["-o", path], path))
        betas = sorted(rng.sample(range(1, 8), 3))
        grid = ",".join(["0"] + [f"{b}/8" for b in betas] + ["1"])
        # Sorted, the reports pair up as one analysis on the two 2222 boxes
        # or on the two A=3 boxes.  A seeded one of each pair gets a deletion
        # and the other a value tamper, so the tamper mix has the same
        # make-up on every seed; the monogamy report gets either.
        reports.sort(key=lambda r: (r.box.scenario != bell.scenario_2222(), r.which, r.path))
        deleted = {reports[i + rng.randrange(2)].path for i in range(0, len(reports), 2)}
        if rng.randrange(2):
            deleted.add(f"p{p}-mono.json")
        reports.append(Report(None, None, "monogamy-scan",
                              ["analyze", "monogamy-scan", "--beta-grid", grid, "-o", f"p{p}-mono.json"],
                              f"p{p}-mono.json"))
        rng.shuffle(reports)
        for i, rep in enumerate(reports):
            tasks += _cli_report_tasks(f"p{p}-{i}", rep, rep.path in deleted, rng.random(), runner, workdir, info)
    return Workload(tasks, CLI_ROUNDS, in_process=False, workdir=workdir, info=info)


def _cli_report_tasks(tid, rep: Report, delete: bool, draw: float, runner, workdir, info):
    expected = {}

    def run_analyze():
        return runner(rep.argv)

    def check_analyze(proc) -> str:
        code, tb = _exit_of(proc)
        if tb:
            raise Miss(f"analyze {rep.which}: traceback: {proc.stderr.strip().splitlines()[-1]}")
        try:
            data = _load(workdir, rep.path)
        except (OSError, json.JSONDecodeError) as exc:
            raise Miss(f"analyze {rep.which}: no readable report ({exc})") from None
        want = _check_report(rep, data)
        if code != want:
            raise Miss(f"analyze {rep.which}: exit {code}, expected {want}")
        expected["data"] = data
        return f"{rep.which}:exit{code}"

    def run_verify():
        return runner(["verify", rep.path])

    def check_verify(proc) -> str:
        code, tb = _exit_of(proc)
        if tb or code != 0 or "verified" not in proc.stdout:
            raise Miss(f"verify {rep.which}: exit {code} on an honest report")
        return f"verify-{rep.which}:exit0"

    tamper_path = "t-" + rep.path

    def prepare_tamper():
        data = expected.get("data")
        if data is None:
            data = _load(workdir, rep.path)
        deletions, values = _tamper_options(rep, data)
        options = deletions if delete else values
        kind, want = options[int(draw * len(options))]
        tampered = _apply_tamper(kind, data, rep.box, random.Random(f"{tid}-{kind}"))
        with open(os.path.join(workdir, tamper_path), "w", encoding="utf-8") as fh:
            json.dump(tampered, fh, indent=2)
        expected["tamper"] = (kind, want)
        info["tampers"][f"{tid}-t"] = kind

    def run_tamper():
        return runner(["verify", tamper_path])

    def check_tamper(proc) -> str:
        kind, want = expected["tamper"]
        code, tb = _exit_of(proc)
        if tb or code != want:
            defect = _classify_tamper_miss(kind, code, tb, proc.stderr)
            what = proc.stderr.strip().splitlines()[-1] if tb else f"exit {code}"
            raise Miss(f"verify {rep.which} after {kind}: {what}, expected exit {want}", defect)
        return f"tamper-{kind}:exit{code}"

    return [
        Task(f"{tid}-a", f"analyze-{rep.which}", run_analyze, check_analyze),
        Task(f"{tid}-v", f"verify-{rep.which}", run_verify, check_verify),
        Task(f"{tid}-t", f"tamper-{rep.which}", run_tamper, check_tamper, prepare_tamper),
    ]


BUILDERS = {
    "locality-scan": build_locality,
    "shareability-ladder": build_shareability,
}
