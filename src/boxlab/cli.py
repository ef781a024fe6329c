"""boxlab command line: construct boxes, run analyses, re-verify reports.

Exit codes follow one contract across subcommands: 0 when the queried
property holds (or the construction/verification succeeded), 1 when it
fails or the LP is infeasible, 2 for usage, parse, or I/O errors.
Reports embed enough certificate material that `boxlab verify` can
re-check a verdict against the box file without re-running any solver.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction

from . import bell, boxio, incompat, isotropic, locality, lp, polytope, shareability
from .boxio import (
    ParseError,
    StaleDigest,
    decode_box,
    decode_lp_certificate,
    encode_box,
    encode_lp_certificate,
    format_rational,
    parse_rational,
)
from .core import Box, BoxlabError, Scenario, ZERO, is_nonsignaling
from .locality import LocalModel, NonlocalityCertificate
from .polytope import DeterministicStrategy

PROG = "boxlab"


def _rat_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact-rational analysis of nonsignaling correlation boxes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", help="construct a named box and write it out")
    mk.add_argument("kind", choices=["pr", "iso", "gpr", "giso", "polygamy"])
    mk.add_argument("--C", type=_rat_arg, default=None, help="isotropic weight p/q")
    mk.add_argument("--A", type=int, default=2, help="output alphabet size")
    mk.add_argument(
        "--pind",
        default=None,
        help="comma-separated single-party distribution for giso noise",
    )
    mk.add_argument("--name", default=None)
    mk.add_argument("-o", "--output", default=None, help="box file (default stdout)")

    an = sub.add_parser("analyze", help="run one analysis on a box file")
    an.add_argument(
        "which",
        choices=[
            "ns",
            "local",
            "chsh",
            "cglmp",
            "shareable",
            "incompat",
            "entropy",
            "secrecy",
            "depolarize",
            "shrink",
            "monogamy-scan",
        ],
    )
    an.add_argument("box", nargs="?", help="box file (not used by monogamy-scan)")
    an.add_argument("--m", type=int, default=2, help="copies for shareable")
    an.add_argument("--party", choices=["A", "B"], default="B")
    an.add_argument("--y0", type=int, default=0)
    an.add_argument("--y1", type=int, default=1)
    an.add_argument("--d", type=int, default=3, help="CGLMP output size")
    an.add_argument("--epsilon", type=_rat_arg, default=None, help="shrink noise p/q")
    an.add_argument("--beta-grid", default="0,1/4,1/2,3/4,1", dest="beta_grid")
    an.add_argument("-o", "--report", default=None, help="write JSON report here")
    an.add_argument("--out-box", default=None, help="output box file for transforms")

    vf = sub.add_parser("verify", help="re-check a report against its box file")
    vf.add_argument("report")
    vf.add_argument("--box", default=None, help="override the box file path")
    return parser


# ---------------------------------------------------------------------------
# witness encoding


def _encode_model(model: LocalModel) -> dict:
    return {
        "type": "local_model",
        "tables": [[list(t) for t in s.tables] for s in model.strategies],
        "weights": [format_rational(w) for w in model.weights],
    }


def _decode_model(data: dict, scenario: Scenario) -> LocalModel:
    strategies = tuple(
        DeterministicStrategy(scenario, tuple(tuple(t) for t in tables))
        for tables in data["tables"]
    )
    weights = tuple(parse_rational(t) for t in data["weights"])
    return LocalModel(scenario, strategies, weights)


def _encode_bell_certificate(cert: NonlocalityCertificate) -> dict:
    f = cert.functional
    return {
        "type": "bell_functional",
        "inputs": list(f.scenario.inputs),
        "outputs": list(f.scenario.outputs),
        "coefficients": [format_rational(v) for v in f.coefficients],
        "offset": format_rational(f.offset),
        "violation": format_rational(cert.violation),
    }


def _decode_bell_certificate(data: dict) -> NonlocalityCertificate:
    scenario = Scenario(tuple(data["inputs"]), tuple(data["outputs"]))
    functional = bell.BellFunctional(
        scenario,
        tuple(parse_rational(t) for t in data["coefficients"]),
        parse_rational(data["offset"]),
    )
    return NonlocalityCertificate(functional, parse_rational(data["violation"]))


def _encode_outcome(out: lp.LpOutcome) -> dict:
    return {
        "type": "lp_outcome",
        "status": out.status,
        "primal": [format_rational(v) for v in out.primal] if out.primal else None,
        "value": format_rational(out.value) if out.value is not None else None,
        "certificate": encode_lp_certificate(out.certificate),
    }


def _decode_outcome(data: dict) -> lp.LpOutcome:
    return lp.LpOutcome(
        data["status"],
        tuple(parse_rational(t) for t in data["primal"]) if data["primal"] else None,
        parse_rational(data["value"]) if data["value"] is not None else None,
        decode_lp_certificate(data["certificate"]),
    )


# ---------------------------------------------------------------------------
# make


def cmd_make(args) -> int:
    if args.kind == "pr":
        box, default_name = bell.pr_box(), "pr"
    elif args.kind == "iso":
        c = args.C if args.C is not None else Fraction(1, 2)
        box, default_name = isotropic.make_isotropic(c), f"iso-{c}"
    elif args.kind == "gpr":
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


# ---------------------------------------------------------------------------
# analyze


def _analysis_ns(box, args):
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


def _analysis_local(box, args):
    result = locality.is_local(box)
    if isinstance(result, LocalModel):
        verdict = {"local": True, "model_size": len(result.strategies)}
        extra = {"witness": _encode_model(result)}
        lines = [f"local: model with {len(result.strategies)} strategies"]
        return 0, verdict, extra, lines
    verdict = {"local": False, "violation": format_rational(result.violation)}
    extra = {"certificate": _encode_bell_certificate(result)}
    lines = [f"nonlocal: certificate violation {result.violation}"]
    return 1, verdict, extra, lines


def _analysis_chsh(box, args):
    value = bell.chsh(box)
    verdict = {"chsh": format_rational(value)}
    lines = [f"chsh = {value}"]
    return (0 if value <= 0 else 1), verdict, {}, lines


def _analysis_cglmp(box, args):
    functional = bell.cglmp(args.d)
    value = functional.evaluate(box)
    verdict = {"d": args.d, "cglmp": format_rational(value)}
    lines = [f"cglmp(d={args.d}) = {value}"]
    return (0 if value <= 0 else 1), verdict, {}, lines


def _analysis_shareable(box, args):
    problem = shareability.ExtensionProblem(box, args.party, args.m)
    witness = shareability.is_m_shareable(problem)
    verdict = {
        "m": args.m,
        "party": args.party,
        "shareable": witness.feasible,
        "folded": witness.folded,
    }
    if witness.feasible:
        extra = {"witness": {"type": "extension_box", "box": encode_box(witness.extension)}}
        lines = [f"{args.m}-shareable wrt {args.party}: yes"]
        return 0, verdict, extra, lines
    extra = {
        "certificate": {
            "type": "farkas",
            **encode_lp_certificate(witness.certificate),
        }
    }
    lines = [f"{args.m}-shareable wrt {args.party}: no (Farkas certificate)"]
    return 1, verdict, extra, lines


def _analysis_incompat(box, args):
    pair = incompat.ObservablePair(args.party, args.y0, args.y1)
    restricted = incompat.restrict_to_pair(box, pair)
    prog = incompat.incompatibility_lp_for(restricted)
    out = lp.solve(prog)
    eta = -out.value
    verdict = {
        "party": args.party,
        "y0": args.y0,
        "y1": args.y1,
        "incompatibility": format_rational(eta),
        "compatible": eta == 0,
    }
    extra = {"certificate": _encode_outcome(out)}
    lines = [f"inc[{args.y0},{args.y1}] = {eta}" + (" (compatible)" if eta == 0 else "")]
    return (0 if eta == 0 else 1), verdict, extra, lines


def _analysis_entropy(box, args):
    pair = incompat.ObservablePair(args.party, args.y0, args.y1)
    report = incompat.entropy_bound_check(box, pair)
    verdict = {
        "party": args.party,
        "y0": args.y0,
        "y1": args.y1,
        "inc": format_rational(report.inc),
        "bound": report.bound,
        "entropy_y0": report.entropy_y0,
        "entropy_y1": report.entropy_y1,
        "holds": report.holds,
    }
    lines = [
        f"inc = {report.inc}, h(inc/2) = {report.bound:.6f}",
        f"H(b{args.y0}) = {report.entropy_y0:.6f}, H(b{args.y1}) = {report.entropy_y1:.6f}",
        f"bound holds: {report.holds}",
    ]
    return (0 if report.holds else 1), verdict, {}, lines


def _analysis_secrecy(box, args):
    verdict_obj = locality.secrecy_content(box)
    verdict = {"contains_secrecy": verdict_obj.contains_secrecy}
    if verdict_obj.contains_secrecy:
        extra = {"certificate": _encode_bell_certificate(verdict_obj.certificate)}
        lines = ["contains secrecy: yes (nonlocal, Bell certificate attached)"]
        return 0, verdict, extra, lines
    extra = {"witness": _encode_model(verdict_obj.local_model)}
    lines = ["contains secrecy: no (local model attached)"]
    return 1, verdict, extra, lines


def _analysis_depolarize(box, args):
    out_box = isotropic.depolarize(box)
    verdict = {
        "chsh_before": format_rational(bell.chsh(box)),
        "chsh_after": format_rational(bell.chsh(out_box)),
    }
    extra = {"output": {"type": "box", "box": encode_box(out_box)}}
    lines = [f"depolarized; chsh = {verdict['chsh_after']} (unchanged)"]
    if args.out_box:
        boxio.write_box(args.out_box, out_box, "depolarized")
        lines.append(f"wrote {args.out_box}")
    return 0, verdict, extra, lines


def _analysis_shrink(box, args):
    eps = args.epsilon if args.epsilon is not None else Fraction(1, 2)
    out_box = isotropic.shrink(box, eps)
    verdict = {
        "epsilon": format_rational(eps),
        "parameter_before": format_rational(isotropic.isotropic_parameter(box)),
        "parameter_after": format_rational(isotropic.isotropic_parameter(out_box)),
    }
    extra = {"output": {"type": "box", "box": encode_box(out_box)}}
    lines = [f"shrunk C: {verdict['parameter_before']} -> {verdict['parameter_after']}"]
    if args.out_box:
        boxio.write_box(args.out_box, out_box, "shrunk")
        lines.append(f"wrote {args.out_box}")
    return 0, verdict, extra, lines


def _analysis_monogamy_scan(box, args):
    betas = [parse_rational(tok) for tok in args.beta_grid.split(",")]
    rows = []
    certificates = []
    for beta in betas:
        prog = shareability.monogamy_lp(beta)
        out = lp.solve(prog)
        value = out.value - 1
        rows.append((beta, value))
        certificates.append(
            {"beta": format_rational(beta), **_encode_outcome(out)}
        )
    width = max(len(str(b)) for b, _ in rows)
    lines = [f"{'beta':>{width}}  max chsh(A,C)"]
    for beta, value in rows:
        lines.append(f"{str(beta):>{width}}  {value}")
    verdict = {
        "grid": [
            {"beta": format_rational(b), "max_chsh_ac": format_rational(v)}
            for b, v in rows
        ]
    }
    return 0, verdict, {"certificates": certificates}, lines


_ANALYSES = {
    "ns": _analysis_ns,
    "local": _analysis_local,
    "chsh": _analysis_chsh,
    "cglmp": _analysis_cglmp,
    "shareable": _analysis_shareable,
    "incompat": _analysis_incompat,
    "entropy": _analysis_entropy,
    "secrecy": _analysis_secrecy,
    "depolarize": _analysis_depolarize,
    "shrink": _analysis_shrink,
    "monogamy-scan": _analysis_monogamy_scan,
}


def cmd_analyze(args) -> int:
    needs_box = args.which != "monogamy-scan"
    box = None
    box_meta = None
    if needs_box:
        if not args.box:
            print(f"{PROG}: analyze {args.which} needs a box file", file=sys.stderr)
            return 2
        parsed = boxio.read_box(args.box)
        box = parsed.box
        box_meta = {
            "path": args.box,
            "sha256": boxio.file_digest(args.box),
            "name": parsed.name,
        }
    start = time.monotonic()
    code, verdict, extra, lines = _ANALYSES[args.which](box, args)
    elapsed = time.monotonic() - start
    for line in lines:
        print(line)
    if args.report:
        report = {
            "command": "analyze",
            "analysis": args.which,
            "box": box_meta,
            "flags": {
                "m": args.m,
                "party": args.party,
                "y0": args.y0,
                "y1": args.y1,
                "d": args.d,
                "epsilon": format_rational(args.epsilon) if args.epsilon else None,
                "beta_grid": args.beta_grid,
            },
            "verdict": verdict,
            "timing_s": round(elapsed, 6),
        }
        report.update(extra)
        boxio.write_report(args.report, report)
        print(f"report: {args.report}")
    return code


# ---------------------------------------------------------------------------
# verify


def _locate_box(report: dict, report_path: str, override: str | None) -> str:
    if override:
        return override
    stored = report.get("box", {}).get("path")
    if stored is None:
        raise ParseError("report carries no box reference")
    if os.path.exists(stored):
        return stored
    sibling = os.path.join(os.path.dirname(os.path.abspath(report_path)), stored)
    if os.path.exists(sibling):
        return sibling
    raise ParseError(f"cannot locate box file {stored!r}")


def _verify_local_like(report: dict, box: Box) -> bool:
    if "witness" in report and report["witness"].get("type") == "local_model":
        model = _decode_model(report["witness"], box.scenario)
        if any(w < 0 for w in model.weights) or sum(model.weights, ZERO) != 1:
            return False
        return model.reconstructs(box)
    cert = _decode_bell_certificate(report["certificate"])
    if cert.functional.evaluate(box) != cert.violation or cert.violation <= 0:
        return False
    strategies = polytope.deterministic_strategies(box.scenario)
    return all(cert.functional.evaluate(s.box()) <= 0 for s in strategies)


def _verify_report(report: dict, box: Box | None, args) -> bool:
    analysis = report["analysis"]
    flags = report.get("flags", {})
    verdict = report["verdict"]
    if analysis == "ns":
        return is_nonsignaling(box) == verdict["nonsignaling"]
    if analysis in ("local", "secrecy"):
        return _verify_local_like(report, box)
    if analysis == "chsh":
        return bell.chsh(box) == parse_rational(verdict["chsh"])
    if analysis == "cglmp":
        f = bell.cglmp(verdict["d"])
        return f.evaluate(box) == parse_rational(verdict["cglmp"])
    if analysis == "shareable":
        problem = shareability.ExtensionProblem(box, flags["party"], flags["m"])
        if verdict["shareable"]:
            ext = decode_box(report["witness"]["box"])
            try:
                shareability.validate_extension(problem, ext)
            except shareability.NotAnExtension:
                return False
            return True
        cert = decode_lp_certificate(report["certificate"])
        outcome = lp.LpOutcome(lp.INFEASIBLE, certificate=cert)
        prog, _ = shareability.folded_extension_lp(problem)
        return lp.verify_certificate(prog, outcome)
    if analysis == "incompat":
        pair = incompat.ObservablePair(flags["party"], flags["y0"], flags["y1"])
        restricted = incompat.restrict_to_pair(box, pair)
        prog = incompat.incompatibility_lp_for(restricted)
        outcome = _decode_outcome(report["certificate"])
        if not lp.verify_certificate(prog, outcome):
            return False
        return -outcome.value == parse_rational(verdict["incompatibility"])
    if analysis == "entropy":
        pair = incompat.ObservablePair(flags["party"], flags["y0"], flags["y1"])
        rep = incompat.entropy_bound_check(box, pair)
        return rep.inc == parse_rational(verdict["inc"]) and rep.holds == verdict["holds"]
    if analysis == "depolarize":
        out_box = decode_box(report["output"]["box"])
        return isotropic.depolarize(box) == out_box
    if analysis == "shrink":
        eps = parse_rational(verdict["epsilon"])
        out_box = decode_box(report["output"]["box"])
        return isotropic.shrink(box, eps) == out_box
    if analysis == "monogamy-scan":
        for entry in report["certificates"]:
            beta = parse_rational(entry["beta"])
            outcome = _decode_outcome(entry)
            if not lp.verify_certificate(shareability.monogamy_lp(beta), outcome):
                return False
        for entry, cert in zip(report["verdict"]["grid"], report["certificates"]):
            outcome = _decode_outcome(cert)
            if outcome.value - 1 != parse_rational(entry["max_chsh_ac"]):
                return False
        return True
    raise ParseError(f"unknown analysis {analysis!r} in report")


def cmd_verify(args) -> int:
    report = boxio.read_report(args.report)
    box = None
    if report.get("box") is not None:
        path = _locate_box(report, args.report, args.box)
        digest = boxio.file_digest(path)
        if digest != report["box"]["sha256"]:
            raise StaleDigest(
                f"box file {path} changed since the report was written"
            )
        box = boxio.read_box(path).box
    ok = _verify_report(report, box, args)
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
    except (ParseError, StaleDigest, OSError) as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except BoxlabError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
