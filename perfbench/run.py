"""boxlab benchmark: time to a verified exact-LP verdict, per workload.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]

Workloads (see METRICS.md for why each exists and how it is sized):
    locality-scan        is_local on seeded 2222 / 3322 / generalized
                         isotropic boxes, plus CGLMP and CHSH normalization
    shareability-ladder  is_m_shareable at m=2 (unfolded) and m=3 / A=3
                         (folded), plus the isotropic clone ceiling
    cli-reports          one `boxlab` process per command: analyze, verify,
                         and verify of a seeded tamper of each report
    all                  every workload in turn, printed as one table

Each workload is one closed loop with one client.  The run length is
counted in tasks, not seconds: `--seconds` picks how many fixed-size passes
run (one pass per 20 s), so the task count and the tail percentile are the
same on every commit.  Latencies are scaled to a reference machine speed
(speed.py); the task list runs in two rounds and each task's latency is
its fastest round; set-up is timed before every round.  Every task's
result is re-checked outside the timed region.  With `--trace 0`
the last stdout line reports the end-to-end metrics; with `--trace 1` each
task also runs traced next to its untraced run, and the per-layer metrics
come from each task's fastest traced run.  The line before the last is a
JSON detail record: task count, tail percentile, per-class medians,
failures by name, and the count fingerprint of a traced run.

Run from the root of a checkout; inputs are made from `--seed` and written
under `.perfbench-work/`, which is removed at the end except for the
fingerprint store.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("locality-scan", "shareability-ladder", "cli-reports")
PASS_SECONDS = 20
SETUP_PER_ROUND = 3
FINGERPRINT_KEYS = (
    "lp.solve.calls",
    "lp.rows",
    "lp.cols",
    "lp.nnz",
    "lp.cert_bits_max",
    "polytope.strategies",
    "shareability.orbits",
    "boxio.report_bytes",
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import boxlab from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "boxlab", "__init__.py")):
        fail(f"no boxlab sources under {os.path.relpath(SRC)}/; run from the repository root")
    sys.path.insert(0, SRC)
    import boxlab

    if not os.path.abspath(boxlab.__file__).startswith(SRC + os.sep):
        fail(f"boxlab imported from {boxlab.__file__}, not from this checkout")
    import workloads

    return workloads



def build(workloads, name: str, seed: int, passes: int, workdir: str):
    rng = random.Random(f"{name}:{seed}")
    if name == "cli-reports":
        return workloads.build_cli(rng, passes, ROOT, workdir)
    return workloads.BUILDERS[name](rng, passes)


def code_digest() -> str:
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "boxlab"), HERE):
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py"):
                with open(os.path.join(folder, fname), "rb") as fh:
                    h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# running and measuring


def run_task(workloads, wl, task, key: str, tracer=None) -> dict:
    """Time one execution of a task's `run`, then check its result untimed.
    With a tracer the execution is traced under the span task id `key`."""
    rec = {"id": task.id, "key": key, "cls": task.cls, "verdict": None, "miss": None, "defect": None}
    idx = None
    if tracer is not None and wl.in_process:
        idx = tracer.begin_task(key)
    elif tracer is not None:
        wl.info["runner"].spans_file = os.path.join(wl.workdir, f"spans-{key}.json")
    start = time.perf_counter()
    try:
        result = task.run()
    except Exception as exc:  # counted as a failed task, never fatal
        result = workloads.Miss(f"{type(exc).__name__}: {exc}")
    rec["end"] = time.perf_counter()
    rec["start"] = start
    rec["raw"] = rec["end"] - start
    if idx is not None:
        tracer.end_task(idx)
    if not wl.in_process:
        wl.info["runner"].spans_file = None
    try:
        if isinstance(result, workloads.Miss):
            raise result
        rec["verdict"] = task.check(result)
    except workloads.Miss as miss:
        rec.update(miss=str(miss), defect=miss.defect)
    except Exception as exc:
        rec["miss"] = f"check: {type(exc).__name__}: {exc}"
    return rec


def fastest(executions: list[dict]) -> dict:
    """One task's record: its fastest execution's scaled latency and span
    id; the task fails if any execution failed."""
    best = dict(min(executions, key=lambda r: r["latency"]))
    missed = [r for r in executions if r["miss"] is not None]
    if missed:
        best.update(miss=missed[0]["miss"], defect=missed[0]["defect"], verdict=None)
    return best


def run_plan(workloads, wl, setup, track, tracer=None) -> tuple[list[dict], list[dict]]:
    """Run the task list `wl.rounds` times and keep each task's fastest round.

    Latencies are scaled to the reference machine speed (speed.py) from
    the kernel samples `track` takes between tasks.  What scaling leaves
    (a phase change inside a task, timer noise) the fastest of rounds
    several seconds apart mostly removes.  `setup()` runs before each
    round, so the set-up samples spread over the run too.  With a tracer,
    each task also runs traced, next to its untraced run, so both see the
    same machine state; which goes first alternates, so that a second run's
    warm caches favour neither.
    """
    plain: dict[str, list] = {t.id: [] for t in wl.tasks}
    traced: dict[str, list] = {t.id: [] for t in wl.tasks}
    for rnd in range(wl.rounds):
        setup()
        for i, task in enumerate(wl.tasks):
            if task.rounds is not None and rnd >= task.rounds:
                continue
            key = f"{task.id}.r{rnd}"
            try:
                if task.prepare is not None:
                    task.prepare()
            except Exception as exc:  # a broken report file is a task failure
                now = time.perf_counter()
                rec = {"id": task.id, "key": key, "cls": task.cls, "start": now, "end": now,
                       "raw": 0.0, "verdict": None,
                       "miss": f"prepare: {type(exc).__name__}: {exc}", "defect": None}
                plain[task.id].append(rec)
                traced[task.id].append(dict(rec))
                continue
            track.sample()
            if tracer is not None and i % 2:
                traced[task.id].append(run_task(workloads, wl, task, key, tracer))
            plain[task.id].append(run_task(workloads, wl, task, key))
            if tracer is not None and not i % 2:
                traced[task.id].append(run_task(workloads, wl, task, key, tracer))
    track.sample(force=True)
    for rec in [r for recs in (*plain.values(), *traced.values()) for r in recs]:
        rec["latency"] = rec["raw"] * track.factor(rec["start"], rec["end"])
    return (
        [fastest(plain[t.id]) for t in wl.tasks],
        [fastest(traced[t.id]) for t in wl.tasks] if tracer is not None else [],
    )


def nearest_rank(sorted_values, pct: int) -> float:
    n = len(sorted_values)
    return sorted_values[max(0, math.ceil(pct * n / 100) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 samples beyond it."""
    for pct in range(99, 49, -1):
        if n - math.ceil(pct * n / 100) >= 10:
            return pct
    return 50


def summarize(records: list[dict]) -> dict:
    ranked = sorted(records, key=lambda r: r["latency"])
    lat = [r["latency"] for r in ranked]
    n = len(records)
    ok = sum(1 for r in records if r["miss"] is None)
    pct = tail_percentile(n)
    raw = sorted(r["raw"] for r in records)
    return {
        "raw_tasks_per_s": ok / sum(raw),
        "raw_task_p50_s": nearest_rank(raw, 50),
        "raw_task_tail_s": nearest_rank(raw, pct),
        "p50_class": ranked[max(0, math.ceil(n / 2) - 1)]["cls"],
        "tail_class": ranked[max(0, math.ceil(pct * n / 100) - 1)]["cls"],
        "n": n,
        "verified": ok,
        "tasks_per_s": ok / sum(lat),
        "task_p50_s": nearest_rank(lat, 50),
        "task_tail_s": nearest_rank(lat, pct),
        "tail_pct": pct,
        "verified_frac": ok / n,
    }


def _by_class(records: list[dict]) -> dict:
    out: dict[str, list] = {}
    for r in records:
        out.setdefault(r["cls"], []).append(r["latency"])
    return out


def measure_setup(name: str, seed: int, seconds: int, track, runs: list) -> None:
    """Time fresh processes that import, generate and write the inputs;
    append (start, end) pairs, with a speed sample on each side."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--setup-only"]
    for _ in range(SETUP_PER_ROUND):
        track.sample(force=True)
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        runs.append((start, time.perf_counter()))
        if proc.returncode != 0:
            fail(f"set-up failed:\n{proc.stderr}")
    track.sample(force=True)


def traced_layers(wl, spans, tracer, traced: list[dict]) -> dict:
    """Per-layer metrics of each task's fastest traced execution."""
    keys = {r["key"] for r in traced}
    if wl.in_process:
        counts = spans.merge_counts(tracer.counts.get(k, {}) for k in keys)
        return spans.layer_metrics(spans.select(tracer.spans, keys), counts)
    merged: list = []
    per_task = []
    process_s = 0.0
    for rec in traced:
        path = os.path.join(wl.workdir, f"spans-{rec['key']}.json")
        child_s = 0.0
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                dump = json.load(fh)
            base = len(merged)
            for s in dump["spans"]:
                if s[3] >= 0:
                    s[3] += base
                merged.append(s)
                if s[0] == spans.TASK:
                    child_s += s[2] - s[1]
            per_task.append(dump["counts"])
            child_s += dump["counts"].get("trace.bookkeeping_s", 0.0)
        process_s += rec["latency"] - child_s
    return spans.layer_metrics(merged, spans.merge_counts(per_task), process_s)


def fingerprint(layers: dict, records: list[dict]) -> dict:
    fp = {k: layers[k] for k in FINGERPRINT_KEYS}
    fp["tasks"] = len(records)
    fp["verdicts"] = dict(sorted(Counter(r["verdict"] or f"miss:{r['defect']}" for r in records).items()))
    return fp


def check_fingerprint(name: str, seed: int, fp: dict) -> bool:
    """Store the count fingerprint per code digest and seed; False when a
    previous run of the same code and seed recorded a different one."""
    store = os.path.join(WORK, "fingerprints")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{name}-seed{seed}-n{fp['tasks']}-{code_digest()}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if previous != fp:
            print(f"perfbench: FINGERPRINT MISMATCH for {name} seed {seed}:\n"
                  f"  before: {json.dumps(previous, sort_keys=True)}\n"
                  f"  now:    {json.dumps(fp, sort_keys=True)}", file=sys.stderr)
            return False
        return True
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fp, fh, sort_keys=True)
    return True


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    spec = load_spec()
    workloads = import_program()
    passes = max(1, round(seconds / PASS_SECONDS))
    setup_runs: list[tuple[float, float]] = []
    workdir = os.path.join(WORK, f"run-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = build(workloads, name, seed, passes, workdir)
        tracer = None
        if trace:
            import spans

            tracer = spans.Tracer()
            if wl.in_process:
                # Installed for both runs of each task; idle in the untraced one.
                tracer.install()
        track = speed.SpeedTrack()
        records, traced = run_plan(
            workloads, wl, lambda: measure_setup(name, seed, seconds, track, setup_runs), track, tracer
        )
        summary = summarize(records)
        setup_raw = [end - start for start, end in setup_runs]
        setup_times = [(end - start) * track.factor(start, end) for start, end in setup_runs]
        detail = {
            "workload": name,
            "seed": seed,
            "passes": passes,
            "rounds": wl.rounds,
            "tasks": summary["n"],
            "tail_percentile": summary["tail_pct"],
            "p50_class": summary["p50_class"],
            "tail_class": summary["tail_class"],
            "classes": {
                cls: {"n": len(lat), "p50_s": sorted(lat)[(len(lat) - 1) // 2]}
                for cls, lat in _by_class(records).items()
            },
            "setup_runs_s": setup_times,
            "raw": {
                "setup_s": statistics.median(setup_raw),
                **{k[4:]: summary[k] for k in ("raw_tasks_per_s", "raw_task_p50_s", "raw_task_tail_s")},
                "kernel_s_median": statistics.median(track.kernel),
                "reference_kernel_s": speed.REFERENCE_S,
            },
        }
        rss_kb = resource.getrusage(
            resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        ).ru_maxrss
        fingerprint_ok = True
        misses = [r for r in records if r["miss"] is not None]
        if trace:
            values = traced_layers(wl, spans, tracer, traced)
            values["trace.overhead_frac"] = 1 - summarize(traced)["tasks_per_s"] / summary["tasks_per_s"]
            fp = fingerprint(values, traced)
            fingerprint_ok = check_fingerprint(name, seed, fp)
            detail["fingerprint"] = fp
            detail["trace_sum_check"] = {
                "task_s": values["trace.task_s"],
                "unattributed_frac": values["trace.unattributed_frac"],
                "overhead_frac": values["trace.overhead_frac"],
                "within_overhead": abs(values["trace.unattributed_frac"]) <= abs(values["trace.overhead_frac"]),
            }
            misses += [r for r in traced if r["miss"] is not None and r["defect"] is None]
            wanted = spec["per_layer"]
        else:
            values = dict(summary)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = rss_kb / 1024
            wanted = spec["end_to_end"]
        unexplained = [r for r in misses if r["defect"] is None]
        detail["failures_by_defect"] = dict(Counter(r["defect"] or "UNEXPLAINED" for r in misses))
        detail["defects"] = {k: workloads.DEFECTS[k] for k in detail["failures_by_defect"] if k in workloads.DEFECTS}
        detail["failures"] = [
            {"task": r["id"], "class": r["cls"], "defect": r["defect"], "reason": r["miss"],
             **({"tamper": wl.info["tampers"].get(r["id"])} if "tampers" in wl.info else {})}
            for r in misses
        ]
        for r in unexplained:
            print(f"perfbench: {r['id']} ({r['cls']}): {r['miss']}", file=sys.stderr)
        print(json.dumps({"detail": detail}))
        print(json.dumps({
            "correct": fingerprint_ok and not unexplained,
            "attempted": summary["n"],
            "failed": summary["n"] - summary["verified"],
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        }))
        # Two runs of the same code and seed that did different work is a
        # broken benchmark, not a slow program: fail loudly.
        return 0 if fingerprint_ok else 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_only(name: str, seed: int, seconds: int) -> int:
    workloads = import_program()
    workdir = os.path.join(WORK, f"setup-{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        build(workloads, name, seed, max(1, round(seconds / PASS_SECONDS)), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process; one table, one combined result."""
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            fail(f"workload {name} failed with exit {proc.returncode}")
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m in wanted:
            v = result["metrics"][m["name"]]
            combined["metrics"][f"{name}.{m['name']}"] = v
            rows.append((name, m["name"], v["value"], v["unit"]))
        rows.append((name, "tail percentile / tasks", f"p{detail['tail_percentile']} of {detail['tasks']}", ""))
        rows.append((name, "correctness gate",
                     f"{'pass' if result['correct'] else 'FAIL'}; failures {detail['failures_by_defect']}", ""))
    width = max(len(r[1]) for r in rows)
    for wl, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{wl:<20} {metric:<{width}} {shown} {unit}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        return setup_only(args.workload, args.seed, args.seconds)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
