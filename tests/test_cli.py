"""The boxlab command line, run in process through cli.main."""

from fractions import Fraction as F

import pytest

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
