"""The boxlab command line, run in process through cli.main."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from boxlab import boxio, cli, lp, shareability
from boxlab.core import Scenario, uniform_box
from conftest import asymmetric_giso, orbit_lp
from oracles import unfolded_extension_lp


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def shareable_report(tmp_path, box_args, party):
    """make -> analyze shareable -o; returns (analyze exit code, report path)."""
    box = tmp_path / "box.txt"
    report = tmp_path / "report.json"
    assert run("make", *box_args, "-o", box) == 0
    return run("analyze", "shareable", box, "--party", party, "-o", report), report


def rewrite(report, edit):
    data = boxio.read_report(report)
    edit(data)
    boxio.write_report(report, data)


@pytest.mark.parametrize("party", ["A", "B"])
@pytest.mark.parametrize("c, shareable", [("1/2", True), ("3/4", False)])
def test_shareable_round_trip(tmp_path, party, c, shareable):
    code, report = shareable_report(tmp_path, ["iso", "--C", c], party)
    assert code == (0 if shareable else 1)
    verdict = boxio.read_report(report)["verdict"]
    assert verdict["shareable"] is shareable
    assert verdict["folded"] is True
    assert run("verify", report) == 0


@pytest.mark.parametrize("party", ["A", "B"])
@pytest.mark.parametrize("c, shareable", [(F(2, 5), True), (F(3, 5), False)])
def test_shareable_round_trip_asymmetric_box(tmp_path, party, c, shareable):
    box = tmp_path / "box.txt"
    report = tmp_path / "report.json"
    boxio.write_box(str(box), asymmetric_giso(c))
    code = run("analyze", "shareable", box, "--party", party, "-o", report)
    assert code == (0 if shareable else 1)
    assert run("verify", report) == 0


@pytest.mark.parametrize("party", ["A", "B"])
def test_moved_extension_entry_fails(tmp_path, party):
    code, report = shareable_report(tmp_path, ["iso", "--C", "1/2"], party)
    assert code == 0

    def move_entry(data):
        table = data["witness"]["box"]["table"]
        # move the mass of the first positive entry to its neighbour in the
        # same input block: normalization holds, the marginals do not
        i = next(k for k, v in enumerate(table) if F(v) > 0)
        j = i + 1 if i % 2 == 0 else i - 1
        table[j] = str(F(table[j]) + F(table[i]))
        table[i] = "0"

    rewrite(report, move_entry)
    assert run("verify", report) == 1


@pytest.mark.parametrize("party", ["A", "B"])
def test_bumped_farkas_multiplier_fails(tmp_path, party):
    code, report = shareable_report(tmp_path, ["iso", "--C", "3/4"], party)
    assert code == 1

    def bump(data):
        y_eq = data["certificate"]["y_eq"]
        y_eq[0] = str(F(y_eq[0]) + 1)

    rewrite(report, bump)
    assert run("verify", report) == 1


def test_unfolded_certificate_report_fails(tmp_path):
    # reports that carried a certificate of the full-table LP
    # ("folded": false) are checked against the orbit LP and fail cleanly
    code, report = shareable_report(tmp_path, ["iso", "--C", "3/4"], "B")
    assert code == 1
    box = boxio.read_box(str(tmp_path / "box.txt")).box
    out = lp.solve(unfolded_extension_lp(box, "B", 2))
    assert out.status == lp.INFEASIBLE

    def to_unfolded(data):
        data["verdict"]["folded"] = False
        data["certificate"] = {
            "type": "farkas",
            **boxio.encode_lp_certificate(out.certificate),
        }

    rewrite(report, to_unfolded)
    assert run("verify", report) == 1


@pytest.mark.parametrize("party", ["A", "B"])
def test_prefold_certificate_report_fails(tmp_path, party):
    # reports written before the stabilizer fold carried a certificate of
    # the orbit LP with every marginal row; verify rebuilds the folded
    # program, on which that certificate fails cleanly
    code, report = shareable_report(tmp_path, ["iso", "--C", "3/4"], party)
    assert code == 1
    box = boxio.read_box(str(tmp_path / "box.txt")).box
    out = lp.solve(orbit_lp(box, party, 2))
    assert out.status == lp.INFEASIBLE

    def to_prefold(data):
        data["certificate"] = {"type": "farkas", **boxio.encode_lp_certificate(out.certificate)}

    rewrite(report, to_prefold)
    assert run("verify", report) == 1


@pytest.mark.parametrize("party", ["A", "B"])
def test_unfolded_four_output_certificate_report_fails(tmp_path, capsys, party):
    # 4 outputs per party are past the old limit of the relabeling search,
    # so reports carried the Farkas vector of the orbit LP under the box's
    # own labels with no stabilizer fold; verify now rebuilds the program
    # folded by the 16-element stabilizer, on which it fails cleanly
    code, report = shareable_report(tmp_path, ["giso", "--A", "4", "--C", "3/5"], party)
    assert code == 1
    box = boxio.read_box(str(tmp_path / "box.txt")).box
    identity = tuple(sorted(((a, x), (a, x)) for x in range(2) for a in range(4)))
    _, count, normalization, marginals, traces = shareability._folded_rows(
        box.scenario, party, 2, ((identity, identity),)
    )
    unfolded = lp.LinearProgram(count)
    unfolded.eqs.extend([*normalization, *((c, box.table[e]) for c, (e,) in marginals), *traces])
    out = lp.solve(unfolded)
    assert out.status == lp.INFEASIBLE

    def to_unfolded(data):
        data["certificate"] = {"type": "farkas", **boxio.encode_lp_certificate(out.certificate)}

    rewrite(report, to_unfolded)
    capsys.readouterr()
    assert run("verify", report) == 1
    captured = capsys.readouterr()
    assert "verification FAILED" in captured.out
    assert "Traceback" not in captured.out + captured.err


# ---------------------------------------------------------------------------
# every registered analysis over a small corpus, honest and tampered

CORPUS = {
    "pr": ["pr"],
    "iso-1/2": ["iso", "--C", "1/2"],
    "iso-3/4": ["iso", "--C", "3/4"],
    "gpr-3": ["gpr", "--A", "3"],
}


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    """(directory, {(box, analysis): report}) for every registered analysis
    that applies to each corpus box, each report verified with exit 0.
    Box files are referred to by absolute path."""
    root = tmp_path_factory.mktemp("corpus")
    reports = {}
    for i, (name, make_args) in enumerate(CORPUS.items()):
        box = root / f"box{i}.txt"
        assert run("make", *make_args, "-o", box) == 0
        for which, entry in cli.ANALYSES.items():
            if not entry.needs_box and i:
                continue
            path = root / f"box{i}-{which}.json"
            argv = ["analyze", which] + ([box] if entry.needs_box else []) + ["-o", path]
            if run(*argv) == 2:
                continue  # the analysis does not apply to this box
            assert run("verify", path) == 0, (name, which)
            reports[name, which] = boxio.read_report(path)
    assert {which for _, which in reports} == set(cli.ANALYSES)
    return root, reports


def verify_tampered(corpus, key, edit) -> int:
    root, reports = corpus
    data = json.loads(json.dumps(reports[key]))
    edit(data)
    path = root / "tampered.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return run("verify", path)


def json_paths(node, prefix=()):
    """The path of every object member and list item in a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from json_paths(v, prefix + (k,))


def edit_at(path, value=None, delete=False):
    def edit(data):
        node = data
        for k in path[:-1]:
            node = node[k]
        if delete:
            del node[path[-1]]
        else:
            node[path[-1]] = value(node[path[-1]]) if callable(value) else value

    return edit


def bump(text):
    return str(F(text) + 1)


def rescale_bell_certificate(data):
    # twice the normalized functional: still 0 at most on every local box
    # and still equal to the violation on the box, now on a scale whose
    # nonsignaling maximum is 2
    cert = data["certificate"]
    cert["coefficients"] = [str(2 * F(c)) for c in cert["coefficients"]]
    for key in ("offset", "violation"):
        cert[key] = str(2 * F(cert[key]))
    data["verdict"]["violation"] = "2"


@pytest.mark.parametrize(
    "key, edit, code",
    [
        (("iso-3/4", "shareable"), edit_at(["verdict"], delete=True), 2),
        (("iso-3/4", "shareable"), edit_at(["flags"], delete=True), 2),
        (("iso-3/4", "shareable"), edit_at(["certificate"], delete=True), 2),
        (("pr", "chsh"), edit_at(["box"], delete=True), 2),
        (("iso-1/2", "local"), edit_at(["witness", "tables", 0, 1, 0], 2), 2),
        (("iso-1/2", "shareable"), edit_at(["flags", "m"], "2"), 2),
        (("iso-3/4", "shareable"), edit_at(["certificate", "y_eq"], None), 2),
        (("pr", "chsh"), edit_at(["analysis"], "bogus"), 2),
        (("iso-1/2", "local"), edit_at(["witness", "weights", 0], bump), 1),
        (("iso-3/4", "local"), edit_at(["certificate", "violation"], bump), 1),
        (("gpr-3", "cglmp"), edit_at(["verdict", "d"], 4), 1),
        (("pr", "monogamy-scan"), edit_at(["certificates", 1, "beta"], "1/8"), 1),
        (("pr", "entropy"), edit_at(["certificate"], delete=True), 2),
        (("iso-3/4", "entropy"), edit_at(["certificate", "value"], bump), 1),
        (("iso-3/4", "entropy"), edit_at(["verdict", "inc"], bump), 1),
        (("pr", "local"), rescale_bell_certificate, 1),
    ],
    ids=[
        "deleted-verdict",
        "deleted-flags",
        "deleted-certificate",
        "deleted-box",
        "strategy-output-out-of-range",
        "m-as-string",
        "y_eq-null",
        "unknown-analysis",
        "bumped-weight",
        "bumped-violation",
        "verdict-d-differs-from-flag",
        "certificate-beta-off-grid",
        "entropy-without-certificate",
        "entropy-bumped-lp-value",
        "entropy-bumped-inc",
        "bell-certificate-doubled",
    ],
)
def test_tampered_report_exit_code(corpus, key, edit, code):
    assert verify_tampered(corpus, key, edit) == code


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_single_tamper_exits_1_or_2(corpus, data):
    _, reports = corpus
    key = data.draw(st.sampled_from(sorted(reports)), label="report")
    report = reports[key]
    path = data.draw(st.sampled_from(list(json_paths(report))), label="path")
    op = data.draw(st.sampled_from(["delete", None, "x", 7, []]), label="op")
    if op != "delete":
        node = report
        for k in path:
            node = node[k]
        assume(not (type(node) is type(op) and node == op))
    edit = edit_at(path, delete=True) if op == "delete" else edit_at(path, op)
    code = verify_tampered(corpus, key, edit)
    # a wall time, and the flags an analysis does not read, may take any
    # valid value without changing what the report claims
    unread = path[0] == "flags" and len(path) == 2 and path[1] not in cli.ANALYSES[key[1]].flags
    assert code in ((0, 1, 2) if path == ("timing_s",) or unread else (1, 2))


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[]", b"{}"])
def test_unreadable_report_exits_2(tmp_path, content):
    report = tmp_path / "report.json"
    report.write_bytes(content)
    assert run("verify", report) == 2


def test_entropy_verify_checks_the_certificate_without_solving(corpus, monkeypatch):
    root, reports = corpus
    report = reports["iso-3/4", "entropy"]
    assert report["certificate"]["type"] == "lp_outcome"
    assert F(report["verdict"]["inc"]) == -F(report["certificate"]["value"]) == F(1, 2)

    def no_solve(prog):
        raise AssertionError("verify solved an LP")

    monkeypatch.setattr(lp, "solve", no_solve)
    assert verify_tampered(corpus, ("iso-3/4", "entropy"), lambda data: None) == 0


def test_entropy_runs_through_the_library_check(tmp_path, monkeypatch):
    # one composition of scope, incompatibility and bound: the report's
    # certificate is the outcome that entropy_bound_check returned
    from boxlab import incompat

    box, report = tmp_path / "box.txt", tmp_path / "report.json"
    assert run("make", "iso", "--C", "3/4", "-o", box) == 0
    real, results = incompat.entropy_bound_check, []

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(incompat, "entropy_bound_check", recording)
    assert run("analyze", "entropy", box, "-o", report) == 0
    (result,) = results
    assert boxio.read_report(report)["certificate"] == boxio.encode_lp_outcome(result.outcome)
    assert run("verify", report) == 0


@pytest.mark.parametrize("party", ["A", "B"])
@pytest.mark.parametrize("parties", [1, 3])
def test_entropy_on_non_bipartite_box_exits_2(tmp_path, capsys, parties, party):
    box = tmp_path / "box.txt"
    if parties == 3:
        assert run("make", "polygamy", "-o", box) == 0
    else:
        boxio.write_box(str(box), uniform_box(Scenario((2,), (2,))))
    assert run("analyze", "entropy", box, "--party", party) == 2
    assert "bipartite" in capsys.readouterr().err


@pytest.mark.parametrize("kind, alphabet", [("giso", 0), ("giso", 1), ("giso", -1), ("gpr", 0)])
def test_bad_output_alphabet_exits_2(tmp_path, capsys, kind, alphabet):
    assert run("make", kind, "--A", alphabet, "-o", tmp_path / "box.txt") == 2
    assert "at least two outputs" in capsys.readouterr().err


SRC = str(Path(cli.__file__).resolve().parents[1])
SLOW_STDLIB = ("dataclasses", "inspect")


def in_fresh_process(*argv, timeout=60):
    """Run `python -c` calling cli.main(argv) in a new interpreter; returns
    (exit code, the boxlab modules loaded plus whichever of SLOW_STDLIB
    is loaded, wall time)."""
    code = (
        "import json, sys\n"
        "from boxlab import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        f"slow = [m for m in {SLOW_STDLIB!r} if m in sys.modules]\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('boxlab')) + slow]))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    elapsed = time.perf_counter() - start
    exit_code, modules = json.loads(proc.stdout.splitlines()[-1])
    return exit_code, {m.removeprefix("boxlab.") for m in modules}, elapsed


@pytest.mark.parametrize("kind", ["gpr", "giso"])
def test_make_above_size_cap_exits_2(tmp_path, kind):
    # a separate process with a timeout: without the cap the 4 * 10^10-entry
    # table is built until the machine runs out of memory
    argv = ("make", kind, "--A", 100000, "-o", tmp_path / "box.txt")
    code, _, elapsed = in_fresh_process(*argv, timeout=5)
    assert code == 2
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# each command loads only the modules its code path calls

FRONT_END = {"boxlab", "core", "boxio", "cli"}
ANALYSIS_MODULES = {"bell", "incompat", "isotropic", "locality", "lp", "polytope", "shareability"}


def test_analyze_ns_loads_only_the_front_end(corpus):
    code, modules, _ = in_fresh_process("analyze", "ns", corpus[0] / "box0.txt")
    assert (code, modules) == (0, FRONT_END)


def test_analyze_chsh_adds_only_bell(corpus):
    code, modules, _ = in_fresh_process("analyze", "chsh", corpus[0] / "box0.txt")
    assert (code, modules) == (1, FRONT_END | {"bell"})


def test_analyze_and_verify_cglmp_add_only_bell(corpus, tmp_path):
    # the functional is normalized in closed form: neither command solves an LP
    report = tmp_path / "cglmp.json"
    code, modules, _ = in_fresh_process("analyze", "cglmp", "--d", "2", corpus[0] / "box0.txt", "-o", report)
    assert (code, modules) == (0, FRONT_END | {"bell"})
    code, modules, _ = in_fresh_process("verify", report)
    assert (code, modules) == (0, FRONT_END | {"bell"})


def test_analyze_shareable_loads_locality_and_bell_not_isotropic(corpus):
    # the membership LP comes first, and locality imports bell at its top
    code, modules, _ = in_fresh_process("analyze", "shareable", corpus[0] / "box0.txt")
    assert (code, modules) == (1, FRONT_END | {"lp", "polytope", "bell", "locality", "shareability"})


@pytest.mark.parametrize("name, shareable", [("iso-1/2", True), ("iso-3/4", False)])
def test_verify_shareable_loads_neither_locality_nor_bell(corpus, name, shareable):
    # a witness is checked by validate_extension, a Farkas vector against
    # the orbit LP: neither needs the membership LP
    root, reports = corpus
    assert reports[name, "shareable"]["verdict"]["shareable"] is shareable
    report = root / f"box{list(CORPUS).index(name)}-shareable.json"
    code, modules, _ = in_fresh_process("verify", report)
    assert (code, modules) == (0, FRONT_END | {"lp", "polytope", "shareability"})


def test_analyze_monogamy_scan_adds_only_bell_to_shareable(corpus):
    code, modules, _ = in_fresh_process("analyze", "monogamy-scan")
    assert (code, modules) == (0, FRONT_END | {"lp", "polytope", "shareability", "bell"})


def test_analyze_incompat_loads_no_locality_module(corpus):
    code, modules, _ = in_fresh_process("analyze", "incompat", corpus[0] / "box0.txt")
    assert code == 1
    assert modules >= {"incompat", "lp"}
    assert not modules & {"locality", "shareability", "bell"}


@pytest.mark.parametrize("which", ["ns", "local", "shareable", "incompat"])
def test_analyze_and_verify_load_neither_dataclasses_nor_inspect(corpus, which):
    # records are core.Frozen subclasses; either module costs each process
    # its import chain (dataclasses loads inspect, dis, ast and tokenize)
    report = corpus[0] / f"fresh-{which}.json"
    code, modules, _ = in_fresh_process("analyze", which, corpus[0] / "box0.txt", "-o", report)
    assert code in (0, 1) and not modules & set(SLOW_STDLIB)
    code, modules, _ = in_fresh_process("verify", report)
    assert code == 0 and not modules & set(SLOW_STDLIB)


@pytest.mark.parametrize("key", [("iso-3/4", "shareable"), ("iso-1/2", "local"), ("pr", "entropy")])
def test_verify_of_unparsable_report_loads_no_analysis_module(corpus, key):
    root, reports = corpus
    data = json.loads(json.dumps(reports[key]))
    del data["verdict"]
    path = root / f"no-verdict-{key[1]}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, modules, _ = in_fresh_process("verify", path)
    assert (code, modules) == (2, FRONT_END)


def test_bad_noise_distribution_shown_as_rationals(tmp_path, capsys):
    argv = ("make", "giso", "--A", 2, "--pind", "1,1/2", "-o", tmp_path / "box.txt")
    assert run(*argv) == 2
    assert "invalid single-party distribution [1, 1/2]" in capsys.readouterr().err


def test_bad_cglmp_size_exits_2(tmp_path):
    box = tmp_path / "box.txt"
    assert run("make", "gpr", "--A", "5", "-o", box) == 0
    assert run("analyze", "cglmp", box, "--d", "5") == 2



# ---------------------------------------------------------------------------
# one rational grammar: exponent notation is refused before it is expanded

HUGE_EXPONENT = "1e10000000"  # Fraction() spends about 15 s building 10**10000000


def promptly(call) -> int:
    start = time.perf_counter()
    code = call()
    assert time.perf_counter() - start < 2.0
    return code


def test_exponent_in_box_table_exits_2(tmp_path):
    box = tmp_path / "box.txt"
    assert run("make", "pr", "-o", box) == 0
    head, table = box.read_text(encoding="utf-8").split("table:\n")
    _, rest = table.split(" ", 1)
    box.write_text(f"{head}table:\n{HUGE_EXPONENT} {rest}", encoding="utf-8")
    assert promptly(lambda: run("analyze", "chsh", box)) == 2


def test_exponent_in_report_field_exits_2(corpus):
    edit = edit_at(["witness", "weights", 0], HUGE_EXPONENT)
    assert promptly(lambda: verify_tampered(corpus, ("iso-1/2", "local"), edit)) == 2


def test_exponent_flag_exits_2(tmp_path, capsys):
    box = tmp_path / "box.txt"
    assert run("make", "pr", "-o", box) == 0
    assert promptly(lambda: run("analyze", "shrink", box, "--epsilon", "1e999999")) == 2
    assert "1e999999" in capsys.readouterr().err


@pytest.mark.parametrize("token, value", [("3/4", F(3, 4)), ("-2", F(-2)), ("0.25", F(1, 4))])
def test_rational_flag_grammar(token, value):
    assert cli._rat_arg(token) == value
    assert boxio.parse_rational(token) == value


# ---------------------------------------------------------------------------
# the size caps hold before any walk over the strategies or the extension table


@pytest.mark.parametrize("which", ["local", "secrecy"])
def test_verify_above_strategy_cap_exits_2(corpus, tmp_path, which):
    # 8822 has 2^8 * 2^8 = 65,536 deterministic strategies, over the cap;
    # a hand-written Bell certificate must not make verify enumerate them.
    # It reads 4 P(a=1 | x=0) - 1: 1 on the uniform box, and positive only
    # on the strategies in the second half of the enumeration order.
    sc = Scenario((8, 8), (2, 2))
    box = tmp_path / "box.txt"
    boxio.write_box(box, uniform_box(sc), "uniform")
    assert promptly(lambda: run("analyze", which, box)) == 2
    report = json.loads(json.dumps(corpus[1]["pr", which]))
    report["box"] = {"path": str(box), "sha256": boxio.file_digest(box), "name": "uniform"}
    report["certificate"].update(
        inputs=[8, 8],
        outputs=[2, 2],
        coefficients=["0", "0", "4", "4"] + ["0"] * (sc.table_size - 4),
        offset="-1",
        violation="1",
    )
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    assert promptly(lambda: run("verify", path)) == 2


OVERSIZED_M = (12, 10_000, 1_000_000)


def test_shareable_above_size_cap_exits_2(tmp_path, capsys):
    box = tmp_path / "box.txt"
    assert run("make", "pr", "-o", box) == 0
    # a Bob with one input and one output adds no table entries: only the
    # cap on the copies refuses him
    trivial_bob = tmp_path / "trivial-bob.txt"
    boxio.write_box(trivial_bob, uniform_box(Scenario((2, 1), (2, 1))), "trivial-bob")
    for path, m in [(box, m) for m in OVERSIZED_M] + [(trivial_bob, 1_000_000)]:
        assert promptly(lambda: run("analyze", "shareable", path, "--m", m)) == 2
        err = capsys.readouterr().err
        assert f"m={m}" in err and "cap" in err


def test_verify_above_size_cap_exits_2(corpus):
    # a Farkas certificate (pr) and an extension witness (iso 1/2)
    for key in [("pr", "shareable"), ("iso-1/2", "shareable")]:
        for m in OVERSIZED_M:

            def to_m(data):
                data["flags"]["m"] = data["verdict"]["m"] = m

            assert promptly(lambda: verify_tampered(corpus, key, to_m)) == 2


# ---------------------------------------------------------------------------
# an integer past Python's int-to-str digit limit, read or worked out from
# alphabet sizes, is refused with exit 2 and never ends in a traceback

HUGE_SIZE = 10**2999  # 3,000 digits: readable, but the product of two is not printable


def refused(capsys, call) -> bool:
    return call() == 2 and capsys.readouterr().err.startswith("boxlab: ")


def test_huge_integer_in_report_exits_2(corpus, capsys):
    root, reports = corpus
    text = json.dumps({**reports["pr", "chsh"], "note": "HUGE"})
    path = root / "huge-integer.json"
    path.write_text(text.replace('"HUGE"', "9" * 5000), encoding="utf-8")
    assert refused(capsys, lambda: run("verify", path))


def test_huge_violation_error_line_is_short(corpus, capsys):
    # 5,001 digits: a well-formed integer, refused by the conversion limit
    edit = edit_at(["certificate", "violation"], "9" * 5001)
    assert verify_tampered(corpus, ("pr", "local"), edit) == 2
    err = capsys.readouterr().err
    assert err.startswith("boxlab: ") and "Traceback" not in err
    assert len(err.encode()) < 200
    assert "5001 characters" in err and f"{sys.get_int_max_str_digits()}-digit limit" in err


def test_huge_sizes_in_box_file_exit_2(tmp_path, capsys):
    box = tmp_path / "box.txt"
    header = f"BOXLAB-BOX 1\nparties: 2\ninputs: {HUGE_SIZE} {HUGE_SIZE}\noutputs: 2 2\n"
    box.write_text(header + "table:\n1/4 1/4 1/4 1/4\n", encoding="utf-8")
    assert refused(capsys, lambda: run("analyze", "ns", box))


def test_huge_sizes_in_shareable_witness_exit_2(corpus, capsys):
    edit = edit_at(["witness", "box", "inputs"], [HUGE_SIZE] * 3)
    assert refused(capsys, lambda: verify_tampered(corpus, ("iso-1/2", "shareable"), edit))


def test_huge_strategy_count_exits_2(tmp_path, capsys):
    # 2^20000 deterministic strategies on a 40,000-entry table
    box = tmp_path / "box.txt"
    rows = "1 0\n" * 20_000
    box.write_text(f"BOXLAB-BOX 1\nparties: 2\ninputs: 20000 1\noutputs: 2 1\ntable:\n{rows}",
                   encoding="utf-8")
    assert refused(capsys, lambda: run("analyze", "local", box))


def test_huge_output_count_exits_2(tmp_path, capsys):
    assert refused(capsys, lambda: run("make", "gpr", "--A", HUGE_SIZE, "-o", tmp_path / "box.txt"))


# ---------------------------------------------------------------------------
# shrink's --epsilon: unset means 1/2, and 0 is stored as "0"


@pytest.mark.parametrize("option, epsilon", [(["--epsilon", "0"], "0"), ([], "1/2")],
                         ids=["zero", "unset"])
def test_shrink_round_trip(tmp_path, option, epsilon):
    box = tmp_path / "box.txt"
    report = tmp_path / "report.json"
    assert run("make", "iso", "--C", "3/4", "-o", box) == 0
    assert run("analyze", "shrink", box, *option, "-o", report) == 0
    assert boxio.read_report(report)["verdict"]["epsilon"] == epsilon
    assert run("verify", report) == 0


# ---------------------------------------------------------------------------
# README's examples, run as README gives them

ROOT = Path(__file__).resolve().parents[1]


def run_readme_command(line, tmp_path):
    """A README command line `PYTHONPATH=src python -m boxlab.cli ...`, run
    from the root of the checkout with its /tmp/ paths moved into tmp_path."""
    env, *argv = shlex.split(line)
    assert env == "PYTHONPATH=src" and argv[:3] == ["python", "-m", "boxlab.cli"], line
    argv = [sys.executable, *argv[1:3], *(a.replace("/tmp/", f"{tmp_path}/") for a in argv[3:])]
    return subprocess.run(argv, cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=60)


def test_readme_examples_hold(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b.splitlines() for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "boxlab.cli" in b]
    assert len(blocks) == 2
    procs = [run_readme_command(line, tmp_path) for line in blocks[0] + blocks[1]]
    # make, analyze local, verify; make, analyze shareable, verify
    assert [p.returncode for p in procs] == [0, 1, 0, 0, 0, 0], [p.stderr for p in procs]
    flat = " ".join(readme.split())
    for promise, proc in [
        ("The analysis prints `nonlocal: certificate violation 1` and exits 1", procs[1]),
        ("`verify` prints `verified` and exits 0", procs[2]),
        ("the analysis prints `2-shareable wrt B: yes` and exits 0", procs[4]),
    ]:
        assert promise in flat
        assert re.search(r"`([^`]*)` and exits", promise)[1] in proc.stdout
    # the exit-code section's example, on the PR box the first block wrote
    command, message = re.search(r"`(analyze cglmp /tmp/pr\.txt)` exits 2 with `([^`]*)`", flat).groups()
    proc = run_readme_command(f"PYTHONPATH=src python -m boxlab.cli {command}", tmp_path)
    assert proc.returncode == 2 and message in proc.stderr


def test_readme_claim_ledger_names_registered_analyses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    ledger = readme.split("## The paper's claims", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in ledger.splitlines() if line.startswith("| ")][1:]
    assert len(rows) >= 3
    named = {name for row in rows for name in re.findall(r"`analyze ([a-z-]+)", row)}
    assert named and named <= set(cli.ANALYSES)
