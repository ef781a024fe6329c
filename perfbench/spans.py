"""Spans around the calls into boxlab's layers, recorded from outside the package.

`Tracer.install()` replaces public boxlab functions with timing wrappers in
every module namespace that refers to them, so a call is caught where its
caller looks it up: wrapping `lp.verify_certificate` also catches the
re-check inside `lp.solve`, and `bell.normalize` is caught as
`locality.normalize` too.  Spans are kept in memory, one flat list of
(name, start, end, parent index, task id), and are only recorded while a
task is open, so the benchmark's own checks stay out of the trace.

`layer_metrics()` turns the spans into the per-layer metrics named in
BENCHMARK.json: self time (a span's duration minus its children's) per
layer, inclusive time and call counts of selected functions, and the
work counts (LP sizes, strategies, orbits, report bytes) taken by the
bookkeeping hooks.  Hooks run when the task ends, outside its span, and
their time is kept in `trace.bookkeeping_s` so it is billed to no layer.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

LAYERS = (
    "core",
    "polytope",
    "lp",
    "locality",
    "bell",
    "shareability",
    "isotropic",
    "incompat",
    "boxio",
    "cli",
)

# Called once per table entry or rational; wrapping them would cost more
# than the work they do and tell nothing about a layer.
UNWRAPPED = {
    ("core", "rat"),
    ("boxio", "parse_rational"),
    ("boxio", "format_rational"),
    ("cli", "entrypoint"),
    ("cli", "build_parser"),
}

# Methods worth a span of their own, as (layer, class, method).
METHODS = (
    ("locality", "LocalModel", "reconstructs"),
    ("locality", "LocalModel", "box"),
    ("bell", "BellFunctional", "evaluate"),
    ("polytope", "DeterministicStrategy", "box"),
)

TASK = "trace.task"


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Tracer:
    """Span recorder; one per process, installed at most once."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, task]
        self.counts: dict[str, dict[str, float]] = {}  # per task id
        self.task = None
        self._stack: list[int] = []
        self._pending: list = []
        self._counting = None

    # -- recording ---------------------------------------------------------

    def open(self, name: str, task) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, task])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_task(self, task_id) -> int:
        self.task = task_id
        return self.open(TASK, task_id)

    def end_task(self, idx: int) -> None:
        self.close(idx)
        self._counting = self.counts.setdefault(self.task, {})
        self.task = None
        start = time.perf_counter()
        for hook, args, kwargs, result in self._pending:
            hook(self, args, kwargs, result)
        self._pending.clear()
        self.add("trace.bookkeeping_s", time.perf_counter() - start)

    def add(self, key: str, amount=1) -> None:
        self._counting[key] = self._counting.get(key, 0) + amount

    def maximum(self, key: str, value) -> None:
        self._counting[key] = max(self._counting.get(key, 0), value)

    def wrap(self, name: str, func, hook=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.task is None:
                return func(*args, **kwargs)
            idx = tracer.open(name, tracer.task)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                tracer._pending.append((hook, args, kwargs, result))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public boxlab function in every module that names it."""
        modules = {name: importlib.import_module(f"boxlab.{name}") for name in LAYERS}
        wrapped: dict[int, object] = {}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                origin = value.__module__ or ""
                if not origin.startswith("boxlab.") or value.__name__.startswith("_"):
                    continue
                layer = origin.split(".", 1)[1]
                if layer not in modules or (layer, value.__name__) in UNWRAPPED:
                    continue
                key = id(value)
                if key not in wrapped:
                    name = f"{layer}.{value.__name__}"
                    wrapped[key] = self.wrap(name, value, HOOKS.get(name))
                setattr(mod, attr, wrapped[key])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{cls_name}.{meth}"
            setattr(cls, meth, self.wrap(name, getattr(cls, meth), HOOKS.get(name)))


# ---------------------------------------------------------------------------
# bookkeeping hooks: work counts taken where the work happens


def _lp_solve(tracer, args, kwargs, outcome):
    prog = args[0] if args else kwargs["lp"]
    rows = prog.eqs + prog.ineqs
    tracer.add("lp.rows", len(rows))
    tracer.add("lp.cols", prog.num_vars)
    tracer.add("lp.nnz", sum(1 for coeffs, _ in rows for c in coeffs if c))
    if outcome.status == "infeasible":
        tracer.add("lp.farkas.calls")
    elif outcome.status == "optimal":
        tracer.add("lp.optimal.calls")
    values = list(outcome.primal or ())
    cert = outcome.certificate
    if cert is not None:
        values += [*cert.y_eq, *cert.y_ineq, *cert.y_lb, *cert.y_ub]
    if values:
        tracer.maximum("lp.cert_bits_max", max(_bits(v) for v in values))


def _strategies(tracer, args, kwargs, result):
    tracer.add("polytope.strategies", len(result))


def _ns_rows(tracer, args, kwargs, result):
    tracer.add("polytope.ns_rows.count", len(result))


def _folded(tracer, args, kwargs, result):
    prog, _ = result
    tracer.add("shareability.orbits", prog.num_vars)
    tracer.add("shareability.folded.calls")


def _unfolded(tracer, args, kwargs, result):
    tracer.add("shareability.unfolded.calls")


def _report_bytes(tracer, args, kwargs, result):
    # The report's `timing_s` value is a wall time; leave its digits out so
    # the count repeats exactly for the same inputs.
    path, report = args[0], args[1]
    with open(path, "rb") as fh:
        size = len(fh.read())
    timing = report.get("timing_s")
    if timing is not None:
        size -= len(repr(timing))
    tracer.add("boxio.report_bytes", size)


HOOKS = {
    "lp.solve": _lp_solve,
    "polytope.deterministic_strategies": _strategies,
    "polytope.ns_equality_rows": _ns_rows,
    "shareability.folded_extension_lp": _folded,
    "shareability.extension_lp": _unfolded,
    "boxio.write_report": _report_bytes,
}


# ---------------------------------------------------------------------------
# aggregation


def merge_counts(per_task) -> dict:
    """Sum per-task counts; the bit-size count keeps its maximum."""
    total: dict[str, float] = {}
    for counts in per_task:
        for k, v in counts.items():
            total[k] = max(total.get(k, 0), v) if k == "lp.cert_bits_max" else total.get(k, 0) + v
    return total


def select(spans, tasks) -> list:
    """The spans of the given task ids, with parent indices renumbered."""
    new_index = {}
    out = []
    for i, s in enumerate(spans):
        if s[4] in tasks:
            new_index[i] = len(out)
            out.append([s[0], s[1], s[2], new_index.get(s[3], -1), s[4]])
    return out


def _self_times(spans):
    """Self time per span: duration minus the durations of direct children."""
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def _inclusive(spans, names):
    """Total duration and count of spans named in `names`, counting a span
    only when no ancestor is also in `names` (recursion counted once)."""
    total = 0.0
    calls = 0
    for s in spans:
        if s[0] not in names:
            continue
        calls += 1
        p = s[3]
        nested = False
        while p >= 0:
            if spans[p][0] in names:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += s[2] - s[1]
    return total, calls


def _descendant_count(spans, ancestor_name, name):
    count = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0:
            if spans[p][0] == ancestor_name:
                count += 1
                break
            p = spans[p][3]
    return count


def layer_metrics(spans, counts, process_s=0.0) -> dict:
    """Per-layer metrics from one workload's traced spans and merged counts.

    `spans` may concatenate several processes' lists as long as parent
    indices were rebased; `process_s` is child wall time outside cli.main.
    """
    self_t = _self_times(spans)
    out: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    by_name_self: dict[str, float] = {}
    task_s = 0.0
    for s, st in zip(spans, self_t):
        name = s[0]
        if name == TASK:
            task_s += s[2] - s[1]
            continue
        by_name_self[name] = by_name_self.get(name, 0.0) + st
        layer_self[name.split(".", 1)[0]] += st
    task_self = sum(st for s, st in zip(spans, self_t) if s[0] == TASK)

    def incl(*names):
        return _inclusive(spans, set(names))

    out["lp.solve.self_s"] = by_name_self.get("lp.solve", 0.0)
    out["lp.solve.calls"] = incl("lp.solve")[1]
    out["lp.verify_certificate.s"], out["lp.verify_certificate.calls"] = incl(
        "lp.verify_certificate"
    )
    for key in ("lp.rows", "lp.cols", "lp.nnz", "lp.farkas.calls", "lp.optimal.calls", "lp.cert_bits_max"):
        out[key] = counts.get(key, 0)
    (
        out["polytope.deterministic_strategies.s"],
        out["polytope.deterministic_strategies.calls"],
    ) = incl("polytope.deterministic_strategies")
    out["polytope.strategies"] = counts.get("polytope.strategies", 0)
    out["polytope.ns_rows.s"] = incl("polytope.ns_equality_rows")[0]
    out["polytope.ns_rows.count"] = counts.get("polytope.ns_rows.count", 0)
    out["locality.membership_lp.s"] = incl("locality.membership_lp")[0]
    out["locality.reconstructs.s"] = incl("locality.LocalModel.reconstructs")[0]
    out["locality.is_local.self_s"] = by_name_self.get("locality.is_local", 0.0)
    out["bell.normalize.s"], out["bell.normalize.calls"] = incl("bell.normalize")
    out["shareability.build.s"], out["shareability.build.calls"] = incl(
        "shareability.folded_extension_lp", "shareability.extension_lp"
    )
    out["shareability.orbits"] = counts.get("shareability.orbits", 0)
    out["shareability.folded.calls"] = counts.get("shareability.folded.calls", 0)
    out["shareability.unfolded.calls"] = counts.get("shareability.unfolded.calls", 0)
    out["shareability.validate_extension.s"] = incl("shareability.validate_extension")[0]
    out["shareability.clone_ceiling.solves"] = _descendant_count(
        spans, "shareability.isotropic_clone_ceiling", "lp.solve"
    )
    out["core.validate_box.s"] = incl("core.validate_box")[0]
    out["core.is_nonsignaling.s"], out["core.is_nonsignaling.calls"] = incl(
        "core.is_nonsignaling"
    )
    out["incompat.s"] = incl(*{s[0] for s in spans if s[0].startswith("incompat.")})[0]
    out["boxio.read_box.s"] = incl("boxio.read_box")[0]
    out["boxio.report_encode.s"] = incl("boxio.write_report")[0]
    out["boxio.report_decode.s"] = incl("boxio.read_report")[0]
    out["boxio.report_bytes"] = counts.get("boxio.report_bytes", 0)
    out["cli.analyze.self_s"] = by_name_self.get("cli.cmd_analyze", 0.0)
    out["cli.verify.self_s"] = by_name_self.get("cli.cmd_verify", 0.0)
    out["cli.process_s"] = process_s
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    attributed = sum(layer_self.values()) + process_s
    out["trace.task_s"] = task_s + process_s
    out["trace.bookkeeping_s"] = counts.get("trace.bookkeeping_s", 0.0)
    out["trace.unattributed_s"] = task_self
    total = out["trace.task_s"]
    out["trace.unattributed_frac"] = (total - attributed) / total if total else 0.0
    return out
