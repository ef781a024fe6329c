"""File formats for the command line: box files and analysis reports.

Box files are plain text with a magic+version line, a scenario header,
and the table flat in canonical order, one input block per line.  Values
are exact rational strings; decimals are accepted on input and converted
exactly, canonical output never contains floats.  Reports are JSON with
embedded certificates and the SHA-256 of the box file they refer to.

Only core is imported at the top: each certificate decoder imports the
module whose type it builds, so reading a box or a malformed report
loads no analysis module (see cli).
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import Box, BoxlabError, Frozen, Scenario, rat, validate_box

if TYPE_CHECKING:
    from .locality import LocalModel, NonlocalityCertificate
    from .lp import LpCertificate, LpOutcome

BOX_MAGIC = "BOXLAB-BOX 1"
REPORT_MAGIC = "BOXLAB-REPORT 1"


class ParseError(BoxlabError):
    def __init__(self, message, line=None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class StaleDigest(BoxlabError):
    pass


def parse_rational(token: str, line=None) -> Fraction:
    """The exact value of p/q, an integer or a decimal such as 0.25, read
    as `core.rat` reads strings (no exponent notation).  The error echoes
    at most 40 characters of the token and its length, and names Python's
    limit on int-str conversions when that limit is what refused it."""
    try:
        return rat(token)
    except (ValueError, ZeroDivisionError) as exc:
        shown = repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"
        if "integer string conversion" in str(exc):
            limit = sys.get_int_max_str_digits()
            message = f"rational {shown} is past Python's {limit}-digit limit on int-str conversions"
            raise ParseError(message, line) from None
        raise ParseError(f"cannot parse rational {shown}", line) from None


def format_rational(value: Fraction) -> str:
    return str(value)


class BoxFile(Frozen):
    def __init__(self, box: Box, name: str | None = None):
        d = self.__dict__
        d["box"] = box
        d["name"] = name


def dumps_box(box: Box, name: str | None = None) -> str:
    sc = box.scenario
    lines = [BOX_MAGIC]
    if name:
        lines.append(f"name: {name}")
    lines.append(f"parties: {sc.parties}")
    lines.append("inputs: " + " ".join(str(v) for v in sc.inputs))
    lines.append("outputs: " + " ".join(str(v) for v in sc.outputs))
    lines.append("table:")
    n_out = sc.num_output_tuples
    for start in range(0, sc.table_size, n_out):
        lines.append(" ".join(format_rational(v) for v in box.table[start : start + n_out]))
    return "\n".join(lines) + "\n"


def loads_box(text: str) -> BoxFile:
    lines = text.splitlines()
    if not lines or lines[0].strip() != BOX_MAGIC:
        raise ParseError(f"missing magic line {BOX_MAGIC!r}", 1)
    header: dict[str, str] = {}
    table_tokens: list[tuple[str, int]] = []
    in_table = False
    for idx, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if in_table:
            table_tokens.extend((tok, idx) for tok in line.split())
            continue
        if line == "table:":
            in_table = True
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", idx)
        key, value = line.split(":", 1)
        header[key.strip()] = value.strip()
    for key in ("parties", "inputs", "outputs"):
        if key not in header:
            raise ParseError(f"missing header field {key!r}")
    try:
        parties = int(header["parties"])
        inputs = tuple(int(v) for v in header["inputs"].split())
        outputs = tuple(int(v) for v in header["outputs"].split())
    except ValueError as exc:
        raise ParseError(f"bad scenario header: {exc}") from None
    if len(inputs) != parties or len(outputs) != parties:
        raise ParseError("scenario header sizes disagree with parties count")
    # validate_box checks the value count against the scenario
    values = [parse_rational(tok, ln) for tok, ln in table_tokens]
    return BoxFile(validate_box(values, Scenario(inputs, outputs)), header.get("name"))


def write_box(path: str, box: Box, name: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_box(box, name))


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None


def read_box(path: str) -> BoxFile:
    return loads_box(_read_text(path))


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# JSON encoding of boxes, certificates, and witnesses


class Fields:
    """Typed read access to one JSON object that came from outside.

    Every accessor raises ParseError, naming the field's path, when the
    field is missing or holds the wrong JSON type.  JSON true and false
    are not integers here, and rationals are strings, as they are written.
    """

    def __init__(self, data, where: str):
        if not isinstance(data, dict):
            raise ParseError(f"{where}: expected an object, got {type(data).__name__}")
        self.data = data
        self.where = where

    def __contains__(self, key: str) -> bool:
        return key in self.data

    def get(self, key: str, *types):
        """The raw value, which must be an instance of one of types."""
        path = f"{self.where}.{key}"
        if key not in self.data:
            raise ParseError(f"{path}: missing")
        value = self.data[key]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            names = " or ".join(t.__name__ for t in types)
            raise ParseError(f"{path}: expected {names}, got {type(value).__name__}")
        return value

    def text(self, key: str, choices=None) -> str:
        value = self.get(key, str)
        if choices is not None and value not in choices:
            raise ParseError(f"{self.where}.{key}: expected one of {list(choices)}, got {value!r}")
        return value

    def rational(self, key: str, optional: bool = False) -> Fraction | None:
        value = self.get(key, str, type(None)) if optional else self.get(key, str)
        return None if value is None else parse_rational(value)

    def integers(self, key: str) -> tuple[int, ...]:
        return tuple(self._items(key, int))

    def rationals(self, key: str, optional: bool = False) -> tuple[Fraction, ...] | None:
        if optional and self.get(key, list, type(None)) is None:
            return None
        return tuple(parse_rational(v) for v in self._items(key, str))

    def obj(self, key: str, kind: str | None = None) -> Fields:
        """The nested object; with kind, its "type" field must equal kind."""
        return _typed(self.get(key, dict), f"{self.where}.{key}", kind)

    def objs(self, key: str, kind: str | None = None) -> list[Fields]:
        items = enumerate(self.get(key, list))
        return [_typed(item, f"{self.where}.{key}[{i}]", kind) for i, item in items]

    def _items(self, key: str, kind: type) -> list:
        items = self.get(key, list)
        for i, v in enumerate(items):
            if not isinstance(v, kind) or isinstance(v, bool):
                raise ParseError(
                    f"{self.where}.{key}[{i}]: expected {kind.__name__}, got {type(v).__name__}"
                )
        return items


def _typed(data, where: str, kind: str | None) -> Fields:
    inner = Fields(data, where)
    if kind is not None:
        inner.text("type", (kind,))
    return inner


def _fields(data, where: str) -> Fields:
    return data if isinstance(data, Fields) else Fields(data, where)


def encode_box(box: Box) -> dict:
    return {
        "inputs": list(box.scenario.inputs),
        "outputs": list(box.scenario.outputs),
        "table": [format_rational(v) for v in box.table],
    }


def decode_box(data: dict | Fields) -> Box:
    f = _fields(data, "box")
    return validate_box(f.rationals("table"), Scenario(f.integers("inputs"), f.integers("outputs")))


def encode_lp_certificate(cert: LpCertificate) -> dict:
    return {
        "kind": cert.kind,
        "y_eq": [format_rational(v) for v in cert.y_eq],
        "y_ineq": [format_rational(v) for v in cert.y_ineq],
        "y_lb": [format_rational(v) for v in cert.y_lb],
        "y_ub": [format_rational(v) for v in cert.y_ub],
    }


def decode_lp_certificate(data: dict | Fields) -> LpCertificate:
    from .lp import LpCertificate

    f = _fields(data, "certificate")
    return LpCertificate(
        f.text("kind", ("farkas", "dual")),
        f.rationals("y_eq"),
        f.rationals("y_ineq"),
        f.rationals("y_lb"),
        f.rationals("y_ub"),
    )


def encode_local_model(model: LocalModel) -> dict:
    return {
        "type": "local_model",
        "tables": [[list(t) for t in s.tables] for s in model.strategies],
        "weights": [format_rational(w) for w in model.weights],
    }


def decode_local_model(data: Fields, scenario: Scenario) -> LocalModel:
    from .locality import LocalModel
    from .polytope import DeterministicStrategy

    tables = data.get("tables", list)
    weights = data.rationals("weights")
    if len(weights) != len(tables):
        raise ParseError(f"{data.where}: {len(tables)} strategies, {len(weights)} weights")
    strategies = []
    for i, t in enumerate(tables):
        if not (
            isinstance(t, list)
            and len(t) == scenario.parties
            and all(
                isinstance(row, list)
                and len(row) == x
                and all(type(v) is int and 0 <= v < a for v in row)
                for row, x, a in zip(t, scenario.inputs, scenario.outputs)
            )
        ):
            raise ParseError(f"{data.where}.tables[{i}]: not a strategy for {scenario}")
        strategies.append(DeterministicStrategy(scenario, tuple(tuple(row) for row in t)))
    return LocalModel(scenario, tuple(strategies), weights)


def encode_bell_certificate(cert: NonlocalityCertificate) -> dict:
    f = cert.functional
    return {
        "type": "bell_functional",
        "inputs": list(f.scenario.inputs),
        "outputs": list(f.scenario.outputs),
        "coefficients": [format_rational(v) for v in f.coefficients],
        "offset": format_rational(f.offset),
        "violation": format_rational(cert.violation),
    }


def decode_bell_certificate(data: Fields, scenario: Scenario) -> NonlocalityCertificate:
    """The certificate, which must be a functional on the given scenario."""
    from .bell import BellFunctional
    from .locality import NonlocalityCertificate

    claimed = Scenario(data.integers("inputs"), data.integers("outputs"))
    coefficients = data.rationals("coefficients")
    if claimed != scenario or len(coefficients) != scenario.table_size:
        raise ParseError(f"{data.where}: the functional does not fit {scenario}")
    functional = BellFunctional(scenario, coefficients, data.rational("offset"))
    return NonlocalityCertificate(functional, data.rational("violation"))


def encode_lp_outcome(out: LpOutcome) -> dict:
    return {
        "type": "lp_outcome",
        "status": out.status,
        "primal": [format_rational(v) for v in out.primal] if out.primal else None,
        "value": format_rational(out.value) if out.value is not None else None,
        "certificate": encode_lp_certificate(out.certificate),
    }


def decode_lp_outcome(data: Fields) -> LpOutcome:
    from .lp import LpOutcome

    return LpOutcome(
        data.text("status"),
        data.rationals("primal", optional=True),
        data.rational("value", optional=True),
        decode_lp_certificate(data.obj("certificate")),
    )


def dumps_report(report: dict) -> str:
    payload = {"format": REPORT_MAGIC}
    payload.update(report)
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def loads_report(text: str) -> dict:
    # a ValueError: malformed JSON, or an integer longer than int() reads
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"report is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or data.get("format") != REPORT_MAGIC:
        raise ParseError(f"missing report magic {REPORT_MAGIC!r}")
    return data


def read_report(path: str) -> dict:
    return loads_report(_read_text(path))


def write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_report(report))
