"""boxlab command line: construct boxes, run analyses, re-verify reports.

Exit codes follow one contract across subcommands: 0 when the queried
property holds (or the construction/verification succeeded), 1 when it
fails or the LP is infeasible, 2 for usage, parse, or I/O errors.

Each analysis is one entry of ANALYSES, which holds the function that
runs it next to the function that re-checks its report; the `analyze`
choices, box handling and the report's flags block all come from there.
A run answers its question through the analysis module that owns it
(`incompat.incompatibility`, `shareability.monogamy_tradeoff`, ...), so
this module solves no LP itself.  A report that carries a witness or a
certificate is re-checked against the box file through it; the other
verdicts are recomputed.  Only the verify of a Bell certificate
(`local`, `secrecy`) still solves an LP: the certificate must be
normalized, which takes its NS maximum.  `boxlab verify` exits 0 when
the report's evidence proves its verdict for the box file, 1 when the
evidence is wrong or proves another verdict, and 2 when the report or
its box file is malformed, missing or stale.  It never ends in a
traceback.

Every command runs in a process of its own, which compiles each module
it imports unless cached bytecode is at hand.  So this module imports
only core and boxio at the top, and each analysis imports the modules
it calls inside its run and verify functions: `analyze ns` loads no
analysis module, and a report that fails to parse is refused before
any is loaded.  For the same reason every record (Flag, Analysis, Box,
LpOutcome, ...) subclasses `core.Frozen` and no module imports
`dataclasses`: that import loads `inspect` with `dis`, `ast` and
`tokenize`, and each decorated class compiles its methods through
`exec`, together about 20 ms of each process.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from . import boxio
from .boxio import Fields, ParseError, StaleDigest, format_rational, parse_rational
from .core import Box, BoxlabError, Frozen, ScenarioMismatch, ZERO, is_nonsignaling

if TYPE_CHECKING:
    from . import incompat

PROG = "boxlab"


def _rat_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class Flag(Frozen):
    """One `analyze` option; every report stores all of them in "flags"."""

    def __init__(
        self, type: Callable, default, help: str | None = None, choices: tuple | None = None
    ):
        d = self.__dict__
        d["type"] = type  # int, str or _rat_arg (stored as p/q, or null when unset)
        d["default"] = default
        d["help"] = help
        d["choices"] = choices


FLAGS = {
    "m": Flag(int, 2, "copies for shareable"),
    "party": Flag(str, "B", choices=("A", "B")),
    "y0": Flag(int, 0),
    "y1": Flag(int, 1),
    "d": Flag(int, 3, "CGLMP output size"),
    "epsilon": Flag(_rat_arg, None, "shrink noise p/q"),
    "beta_grid": Flag(str, "0,1/4,1/2,3/4,1"),
}


def _encode_flag(flag: Flag, value):
    return format_rational(value) if flag.type is _rat_arg and value is not None else value


def _decode_flag(block: Fields, name: str, flag: Flag):
    if flag.type is int:
        return block.get(name, int)
    if flag.type is _rat_arg:
        return block.rational(name, optional=True)
    return block.text(name, flag.choices)


class Analysis(Frozen):
    """How `analyze` runs one analysis and how `verify` re-checks its report.

    run(box, flags) returns (exit code, verdict, evidence, lines); the
    evidence joins the report's top level.  verify(report, box, flags)
    decodes it and returns the verdict it proves for the box, or None.
    Both see only the listed flags, plus out_box for transformed boxes.
    """

    def __init__(self, run: Callable, verify: Callable, needs_box: bool = True, flags: tuple = ()):
        d = self.__dict__
        d["run"] = run
        d["verify"] = verify
        d["needs_box"] = needs_box
        d["flags"] = flags


def _flag_view(entry: Analysis, values: dict, out_box=None) -> argparse.Namespace:
    return argparse.Namespace(out_box=out_box, **{k: values[k] for k in entry.flags})


# ---------------------------------------------------------------------------
# analyses: each run next to its verify


def _recomputed(run):
    """Verifier of a verdict that is recomputed from the box."""
    return lambda report, box, flags: run(box, flags)[1]


def _run_ns(box, flags):
    ok, witness = is_nonsignaling(box, witness=True)
    verdict = {"nonsignaling": ok}
    if witness:
        k, out_ctx, in_ctx, x0, x1, lhs, rhs = witness
        verdict["witness"] = {
            "party": k,
            "other_outputs": list(out_ctx),
            "other_inputs": list(in_ctx),
            "inputs_compared": [x0, x1],
            "traces": [format_rational(lhs), format_rational(rhs)],
        }
    lines = [f"nonsignaling: {ok}"]
    if witness:
        lines.append(f"violated trace condition: party {witness[0]}, {witness[1:5]}")
    return (0 if ok else 1), verdict, {}, lines


def _local_verdict(result) -> dict:
    from . import locality

    if isinstance(result, locality.LocalModel):
        return {"local": True, "model_size": len(result.strategies)}
    return {"local": False, "violation": format_rational(result.violation)}


def _run_local(box, flags):
    from . import locality

    result = locality.is_local(box)
    if isinstance(result, locality.LocalModel):
        lines = [f"local: model with {len(result.strategies)} strategies"]
        return 0, _local_verdict(result), {"witness": boxio.encode_local_model(result)}, lines
    lines = [f"nonlocal: certificate violation {result.violation}"]
    return 1, _local_verdict(result), {"certificate": boxio.encode_bell_certificate(result)}, lines


def _locality_evidence(report: Fields, box: Box):
    """The report's local model or Bell certificate if it holds for the box, else None.

    The functional must be normalized (local bound 0, NS maximum 1), the
    scale of its violation; that takes one LP.  Refuses, as is_local does,
    a scenario over the strategy cap: the local bound enumerates them."""
    from . import bell, locality

    locality.check_strategy_space(box.scenario)
    if "witness" in report:
        model = boxio.decode_local_model(report.obj("witness", "local_model"), box.scenario)
        weights = model.weights
        valid = all(w >= 0 for w in weights) and sum(weights, ZERO) == 1 and model.reconstructs(box)
        return model if valid else None
    cert = boxio.decode_bell_certificate(report.obj("certificate", "bell_functional"), box.scenario)
    f = cert.functional
    valid = (
        cert.violation > 0
        and f.evaluate(box) == cert.violation
        and bell.normalization_bounds(f) == (0, 1)
    )
    return cert if valid else None


def _verify_local(report, box, flags):
    result = _locality_evidence(report, box)
    return None if result is None else _local_verdict(result)


def _run_chsh(box, flags):
    from . import bell

    value = bell.chsh(box)
    return (0 if value <= 0 else 1), {"chsh": format_rational(value)}, {}, [f"chsh = {value}"]


def _run_cglmp(box, flags):
    from . import bell

    value = bell.cglmp(flags.d).evaluate(box)
    verdict = {"d": flags.d, "cglmp": format_rational(value)}
    return (0 if value <= 0 else 1), verdict, {}, [f"cglmp(d={flags.d}) = {value}"]


def _shareable_verdict(flags, feasible: bool) -> dict:
    from . import shareability

    folded = shareability.ExtensionWitness.folded
    return {"m": flags.m, "party": flags.party, "shareable": feasible, "folded": folded}


def _run_shareable(box, flags):
    from . import shareability

    problem = shareability.ExtensionProblem(box, flags.party, flags.m)
    witness = shareability.is_m_shareable(problem)
    verdict = _shareable_verdict(flags, witness.feasible)
    head = f"{flags.m}-shareable wrt {flags.party}"
    if witness.feasible:
        ext = boxio.encode_box(witness.extension)
        return 0, verdict, {"witness": {"type": "extension_box", "box": ext}}, [f"{head}: yes"]
    cert = {"type": "farkas", **boxio.encode_lp_certificate(witness.certificate)}
    return 1, verdict, {"certificate": cert}, [f"{head}: no (Farkas certificate)"]


def _verify_shareable(report, box, flags):
    # the LP for another m can take minutes to build: check the verdict's
    # copy of the flags before building anything
    claimed = report.obj("verdict").data
    if (claimed.get("m"), claimed.get("party")) != (flags.m, flags.party):
        return None
    from . import lp, shareability

    problem = shareability.ExtensionProblem(box, flags.party, flags.m)
    if "witness" in report:
        extension = boxio.decode_box(report.obj("witness", "extension_box").obj("box"))
        try:
            shareability.validate_extension(problem, extension)
        except shareability.NotAnExtension:
            return None
        return _shareable_verdict(flags, True)
    cert = boxio.decode_lp_certificate(report.obj("certificate", "farkas"))
    prog, _ = shareability.folded_extension_lp(problem)
    if not lp.verify_certificate(prog, lp.LpOutcome(lp.INFEASIBLE, certificate=cert)):
        return None
    return _shareable_verdict(flags, False)


def _pair(flags) -> incompat.ObservablePair:
    from . import incompat

    return incompat.ObservablePair(flags.party, flags.y0, flags.y1)


def _certified_inc(report, box, flags) -> Fraction | None:
    """The incompatibility that the report's LP outcome proves for the box, or None."""
    from . import incompat, lp

    out = boxio.decode_lp_outcome(report.obj("certificate", "lp_outcome"))
    if out.status != lp.OPTIMAL:
        return None
    prog = incompat.incompatibility_lp_for(incompat.restrict_to_pair(box, _pair(flags)))
    return -out.value if lp.verify_certificate(prog, out) else None


def _pair_flags(flags) -> dict:
    return {"party": flags.party, "y0": flags.y0, "y1": flags.y1}


def _incompat_verdict(flags, eta: Fraction) -> dict:
    return {**_pair_flags(flags), "incompatibility": format_rational(eta), "compatible": eta == 0}


def _run_incompat(box, flags):
    from . import incompat

    result = incompat.incompatibility(box, _pair(flags))
    eta = result.eta
    lines = [f"inc[{flags.y0},{flags.y1}] = {eta}" + (" (compatible)" if eta == 0 else "")]
    evidence = {"certificate": boxio.encode_lp_outcome(result.outcome)}
    return (0 if eta == 0 else 1), _incompat_verdict(flags, eta), evidence, lines


def _verify_incompat(report, box, flags):
    eta = _certified_inc(report, box, flags)
    return None if eta is None else _incompat_verdict(flags, eta)


def _entropy_verdict(flags, result) -> dict:
    return {
        **_pair_flags(flags),
        "inc": format_rational(result.inc),
        "bound": result.bound,
        "entropy_y0": result.entropy_y0,
        "entropy_y1": result.entropy_y1,
        "holds": result.holds,
    }


def _run_entropy(box, flags):
    from . import incompat

    result = incompat.entropy_bound_check(box, _pair(flags))  # scope checked before the LP
    lines = [
        f"inc = {result.inc}, h(inc/2) = {result.bound:.6f}",
        f"H(b{flags.y0}) = {result.entropy_y0:.6f}, H(b{flags.y1}) = {result.entropy_y1:.6f}",
        f"bound holds: {result.holds}",
    ]
    evidence = {"certificate": boxio.encode_lp_outcome(result.outcome)}
    return (0 if result.holds else 1), _entropy_verdict(flags, result), evidence, lines


def _verify_entropy(report, box, flags):
    from . import incompat

    inc = _certified_inc(report, box, flags)
    if inc is None:
        return None
    return _entropy_verdict(flags, incompat.entropy_bound(box, _pair(flags), inc))


def _secrecy_verdict(local_verdict: dict) -> dict:
    return {"contains_secrecy": not local_verdict["local"]}


def _secrecy_scope(box: Box) -> None:
    """Refuse, as a usage error, a box that is not bipartite: the run and
    the verify of `secrecy` share this check."""
    if box.scenario.parties != 2:
        raise ScenarioMismatch("secrecy content is defined for bipartite boxes")


def _run_secrecy(box, flags):
    """`local` read the other way round: secrecy exactly when nonlocal."""
    _secrecy_scope(box)
    code, verdict, evidence, _ = _run_local(box, flags)
    line = "yes (nonlocal, Bell certificate attached)" if code else "no (local model attached)"
    return 1 - code, _secrecy_verdict(verdict), evidence, [f"contains secrecy: {line}"]


def _verify_secrecy(report, box, flags):
    _secrecy_scope(box)
    verdict = _verify_local(report, box, flags)
    return None if verdict is None else _secrecy_verdict(verdict)


def _transformed(out_box: Box, verdict: dict, lines: list, flags, name: str):
    if flags.out_box:
        boxio.write_box(flags.out_box, out_box, name)
        lines.append(f"wrote {flags.out_box}")
    return 0, verdict, {"output": {"type": "box", "box": boxio.encode_box(out_box)}}, lines


def _verify_output(run):
    """Verifier of a box transform: the report's output box is the recomputed one."""

    def verify(report, box, flags):
        claimed = boxio.decode_box(report.obj("output", "box").obj("box"))
        _, verdict, evidence, _ = run(box, flags)
        return verdict if boxio.encode_box(claimed) == evidence["output"]["box"] else None

    return verify


def _run_depolarize(box, flags):
    from . import bell, isotropic

    out_box = isotropic.depolarize(box)
    verdict = {
        "chsh_before": format_rational(bell.chsh(box)),
        "chsh_after": format_rational(bell.chsh(out_box)),
    }
    lines = [f"depolarized; chsh = {verdict['chsh_after']} (unchanged)"]
    return _transformed(out_box, verdict, lines, flags, "depolarized")


def _run_shrink(box, flags):
    from . import isotropic

    eps = flags.epsilon if flags.epsilon is not None else Fraction(1, 2)
    out_box = isotropic.shrink(box, eps)
    verdict = {
        "epsilon": format_rational(eps),
        "parameter_before": format_rational(isotropic.isotropic_parameter(box)),
        "parameter_after": format_rational(isotropic.isotropic_parameter(out_box)),
    }
    lines = [f"shrunk C: {verdict['parameter_before']} -> {verdict['parameter_after']}"]
    return _transformed(out_box, verdict, lines, flags, "shrunk")


def _beta_grid(flags) -> list[Fraction]:
    return [parse_rational(tok) for tok in flags.beta_grid.split(",")]


def _monogamy_verdict(rows) -> dict:
    grid = [{"beta": format_rational(b), "max_chsh_ac": format_rational(v)} for b, v in rows]
    return {"grid": grid}


def _run_monogamy_scan(box, flags):
    from . import shareability

    rows, certificates = [], []
    for beta in _beta_grid(flags):
        value, out = shareability.monogamy_tradeoff(beta)
        rows.append((beta, value))
        certificates.append({"beta": format_rational(beta), **boxio.encode_lp_outcome(out)})
    width = max(len(str(b)) for b, _ in rows)
    lines = [f"{'beta':>{width}}  max chsh(A,C)"]
    for beta, value in rows:
        lines.append(f"{str(beta):>{width}}  {value}")
    return 0, _monogamy_verdict(rows), {"certificates": certificates}, lines


def _verify_monogamy_scan(report, box, flags):
    betas = _beta_grid(flags)
    claimed = [
        (entry.rational("beta"), boxio.decode_lp_outcome(entry))
        for entry in report.objs("certificates", "lp_outcome")
    ]
    if [beta for beta, _ in claimed] != betas:
        return None
    from . import lp, shareability

    for beta, out in claimed:
        prog = shareability.monogamy_lp(beta)
        if out.status != lp.OPTIMAL or not lp.verify_certificate(prog, out):
            return None
    return _monogamy_verdict([(beta, out.value - 1) for beta, out in claimed])


ANALYSES = {
    "ns": Analysis(_run_ns, _recomputed(_run_ns)),
    "local": Analysis(_run_local, _verify_local),
    "chsh": Analysis(_run_chsh, _recomputed(_run_chsh)),
    "cglmp": Analysis(_run_cglmp, _recomputed(_run_cglmp), flags=("d",)),
    "shareable": Analysis(_run_shareable, _verify_shareable, flags=("m", "party")),
    "incompat": Analysis(_run_incompat, _verify_incompat, flags=("party", "y0", "y1")),
    "entropy": Analysis(_run_entropy, _verify_entropy, flags=("party", "y0", "y1")),
    "secrecy": Analysis(_run_secrecy, _verify_secrecy),
    "depolarize": Analysis(_run_depolarize, _verify_output(_run_depolarize)),
    "shrink": Analysis(_run_shrink, _verify_output(_run_shrink), flags=("epsilon",)),
    "monogamy-scan": Analysis(
        _run_monogamy_scan, _verify_monogamy_scan, needs_box=False, flags=("beta_grid",)
    ),
}


# ---------------------------------------------------------------------------
# parser and commands


def build_parser() -> argparse.ArgumentParser:
    description = "exact-rational analysis of nonsignaling correlation boxes"
    parser = argparse.ArgumentParser(prog=PROG, description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", help="construct a named box and write it out")
    mk.add_argument("kind", choices=["pr", "iso", "gpr", "giso", "polygamy"])
    mk.add_argument("--C", type=_rat_arg, default=None, help="isotropic weight p/q")
    mk.add_argument("--A", type=int, default=2, help="output alphabet size")
    pind_help = "comma-separated single-party distribution for giso noise"
    mk.add_argument("--pind", default=None, help=pind_help)
    mk.add_argument("--name", default=None)
    mk.add_argument("-o", "--output", default=None, help="box file (default stdout)")

    an = sub.add_parser("analyze", help="run one analysis on a box file")
    an.add_argument("which", choices=list(ANALYSES))
    boxless = ", ".join(name for name, entry in ANALYSES.items() if not entry.needs_box)
    an.add_argument("box", nargs="?", help=f"box file (not used by {boxless})")
    for name, flag in FLAGS.items():
        option = "--" + name.replace("_", "-")
        an.add_argument(option, dest=name, type=flag.type, default=flag.default,
                        choices=flag.choices, help=flag.help)
    an.add_argument("-o", "--report", default=None, help="write JSON report here")
    an.add_argument("--out-box", default=None, help="output box file for transforms")

    vf = sub.add_parser("verify", help="re-check a report against its box file")
    vf.add_argument("report")
    vf.add_argument("--box", default=None, help="override the box file path")
    return parser


def cmd_make(args) -> int:
    if args.kind == "pr":
        from . import bell

        box, default_name = bell.pr_box(), "pr"
    elif args.kind == "iso":
        from . import isotropic

        c = args.C if args.C is not None else Fraction(1, 2)
        box, default_name = isotropic.make_isotropic(c), f"iso-{c}"
    else:
        from . import shareability

        if args.kind == "gpr":
            box, default_name = shareability.generalized_pr(args.A), f"gpr-{args.A}"
        elif args.kind == "giso":
            c = args.C if args.C is not None else Fraction(1, 2)
            dist = None
            if args.pind:
                dist = [parse_rational(tok) for tok in args.pind.split(",")]
            box = shareability.generalized_isotropic(args.A, c, dist)
            default_name = f"giso-{args.A}-{c}"
        else:
            box, default_name = shareability.polygamy_example(), "polygamy"
    text = boxio.dumps_box(box, args.name or default_name)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args) -> int:
    entry = ANALYSES[args.which]
    box = None
    box_meta = None
    if entry.needs_box:
        if not args.box:
            print(f"{PROG}: analyze {args.which} needs a box file", file=sys.stderr)
            return 2
        parsed = boxio.read_box(args.box)
        box = parsed.box
        box_meta = {"path": args.box, "sha256": boxio.file_digest(args.box), "name": parsed.name}
    start = time.monotonic()
    code, verdict, evidence, lines = entry.run(box, _flag_view(entry, vars(args), args.out_box))
    elapsed = time.monotonic() - start
    for line in lines:
        print(line)
    if args.report:
        report = {
            "command": "analyze",
            "analysis": args.which,
            "box": box_meta,
            "flags": {name: _encode_flag(f, getattr(args, name)) for name, f in FLAGS.items()},
            "verdict": verdict,
            "timing_s": round(elapsed, 6),
            **evidence,
        }
        boxio.write_report(args.report, report)
        print(f"report: {args.report}")
    return code


def _locate_box(stored: str, report_path: str, override: str | None) -> str:
    if override:
        return override
    if os.path.exists(stored):
        return stored
    sibling = os.path.join(os.path.dirname(os.path.abspath(report_path)), stored)
    if os.path.exists(sibling):
        return sibling
    raise ParseError(f"cannot locate box file {stored!r}")


def _report_box(report: Fields, entry: Analysis, args) -> Box | None:
    """The box the report was written for, read after checking its digest."""
    if not entry.needs_box:
        report.get("box", type(None))
        return None
    meta = report.obj("box")
    stored, digest = meta.text("path"), meta.text("sha256")
    name = meta.get("name", str, type(None))
    path = _locate_box(stored, args.report, args.box)
    if boxio.file_digest(path) != digest:
        raise StaleDigest(f"box file {path} changed since the report was written")
    parsed = boxio.read_box(path)
    if parsed.name != name:
        raise ParseError(f"report.box.name: {name!r}, but {path} names {parsed.name!r}")
    return parsed.box


def _same(proven, claimed) -> bool:
    """Equal as JSON values; floats (entropies) within 1e-9."""
    if type(proven) is not type(claimed):
        return False
    if isinstance(proven, dict):
        if proven.keys() != claimed.keys():
            return False
        return all(_same(v, claimed[k]) for k, v in proven.items())
    if isinstance(proven, list):
        return len(proven) == len(claimed) and all(map(_same, proven, claimed))
    if type(proven) is float:
        return math.isclose(proven, claimed, abs_tol=1e-9)
    return proven == claimed


def cmd_verify(args) -> int:
    report = Fields(boxio.read_report(args.report), "report")
    report.text("command", ("analyze",))
    entry = ANALYSES[report.text("analysis", ANALYSES)]
    block = report.obj("flags")
    flags = _flag_view(entry, {name: _decode_flag(block, name, f) for name, f in FLAGS.items()})
    claimed = report.obj("verdict").data
    report.get("timing_s", int, float)
    box = _report_box(report, entry, args)
    proven = entry.verify(report, box, flags)
    ok = proven is not None and _same(proven, claimed)
    print("verified" if ok else "verification FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # parse_known_args so `analyze shareable --m 2 box.file` works:
        # argparse cannot backfill an optional positional after flags
        args, leftover = parser.parse_known_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if leftover:
        if (
            args.command == "analyze"
            and args.box is None
            and len(leftover) == 1
            and not leftover[0].startswith("-")
        ):
            args.box = leftover[0]
        else:
            print(f"{PROG}: unrecognized arguments: {' '.join(leftover)}", file=sys.stderr)
            return 2
    try:
        if args.command == "make":
            return cmd_make(args)
        if args.command == "analyze":
            return cmd_analyze(args)
        return cmd_verify(args)
    except (BoxlabError, OSError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
