"""The boxlab command line, run in process through cli.main."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from boxlab import boxio, cli, lp
from conftest import asymmetric_giso
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


def test_bad_cglmp_size_exits_2(tmp_path):
    box = tmp_path / "box.txt"
    assert run("make", "gpr", "--A", "5", "-o", box) == 0
    assert run("analyze", "cglmp", box, "--d", "5") == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_bad_strategy_cap_exits_2(tmp_path, monkeypatch, capsys, value):
    box = tmp_path / "box.txt"
    assert run("make", "pr", "-o", box) == 0
    monkeypatch.setenv("BOXLAB_STRATEGY_CAP", value)
    assert run("analyze", "local", box) == 2
    assert "BOXLAB_STRATEGY_CAP" in capsys.readouterr().err
