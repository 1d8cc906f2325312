"""ppshift benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload roster --seed 0 --seconds 30 --trace 0

Imports ppshift from the `src/` directory next to this benchmark (never
from an installed copy), sets up the workload's inputs several times and
keeps the median as `setup_s`, then runs timed passes, one at a time in
this single thread, until the next pass would end after `--seconds`
(always at least one). Every pass's output is checked outside the timed
region.

With `--trace 1` the run makes one untraced pass and then, on a fresh
import with the public layer functions wrapped (see LAYERS), one traced
set-up and one traced pass, and reports per-layer calls and self time.
End-to-end metrics come only from `--trace 0` runs.

The last line of stdout is {"correct", "attempted", "failed",
"metrics"}; the line before it holds run metadata and sample counts.
The full record, and the spans of a traced run, go to
perfbench/results/. Exit status is 0 when a result was printed, 2 when
ppshift cannot be imported from the checkout, 1 on any other error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

MODULES = ("gf", "poly", "eigen", "pp", "fp2", "claims", "cli")
SETUP_REPEATS = 15
RESULTS = HERE / "results"
ROSTER_FIELDS = ("F_4", "F_5", "F_7", "F_8", "F_9", "F_25", "F_27", "F_49")


def _enum_counts(tracer: tr.Tracer, report) -> None:
    tracer.count("pp.enumerate_pprs.candidates", report.searched)
    tracer.count("pp.enumerate_pprs.pprs", report.ppr_count)


# (owner module, attribute, span name[, per-call label, result hook])
LAYERS = (
    tr.Target("gf", "build_field", "gf.build_field"),
    tr.Target("eigen", "shift_operator", "eigen.shift_operator"),
    tr.Target("eigen", "mat_mul", "eigen.mat_mul"),
    tr.Target("eigen", "rref", "eigen.rref"),
    tr.Target("eigen", "mat_rank", "eigen.mat_rank"),
    tr.Target("eigen", "kernel_power", "eigen.kernel"),
    tr.Target("eigen", "kernel_dim", "eigen.kernel"),
    tr.Target("eigen:Subspace", "intersect", "eigen.intersect"),
    tr.Target("pp", "interpolate_table", "pp.interpolate_table"),
    tr.Target("pp", "compositional_inverse", "pp.compositional_inverse"),
    tr.Target("poly", "eval_table", "poly.eval_table"),
    tr.Target("pp", "enumerate_pprs", "pp.enumerate_pprs", on_result=_enum_counts),
    tr.Target("pp", "is_permutation", "pp.is_permutation"),
    tr.Target("fp2", "check_conditions", "fp2.check_conditions"),
    tr.Target("fp2", "constructible_pairs", "fp2.constructible_pairs"),
    tr.Target("fp2", "census", "fp2.census"),
    tr.Target("fp2", "lemma_suite", "fp2.lemma_suite"),
    tr.Target("poly", "poly_pow", "poly.poly_pow"),
    tr.Target("claims", "reproduce_field", "claims.reproduce_field",
              label=lambda ctx, *a, **kw: f"claims.F_{ctx.q}"),
    tr.Target("cli", "emit_report", "cli.emit_report"),
)
LAYER_SPANS = tuple(dict.fromkeys(t.span for t in LAYERS if t.label is None))


class SourceMissing(Exception):
    pass


def load_ppshift() -> SimpleNamespace:
    """Import ppshift afresh from ROOT/src, so every call pays the import."""
    src = ROOT / "src"
    if not (src / "ppshift" / "__init__.py").is_file():
        raise SourceMissing(f"no ppshift sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "ppshift" or m.startswith("ppshift.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("ppshift")
    if Path(pkg.__file__).resolve().parent != (src / "ppshift").resolve():
        raise SourceMissing(f"ppshift imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"ppshift.{m}") for m in MODULES})


def setup(workload, seed: int):
    """Import and build the inputs SETUP_REPEATS times; the last set is used."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        mods = load_ppshift()
        inputs = workload.build(mods, seed)
        samples.append(time.perf_counter() - started)
    return mods, inputs, samples


def timed_pass(workload, mods, inputs):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    output = workload.run(mods, inputs)
    return output, time.perf_counter() - wall0, time.process_time() - cpu0


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ppshift").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def run_metadata(workload, loadavg: str, flat_limit: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "workload": workload.name,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": loadavg,
        "fields": [
            {"field": f"F_{p**n}", "p": p, "n": n, "flat_table": p**n <= flat_limit}
            for p, n in workload.fields
        ],
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict, list]:
    mods, inputs, setup_samples = setup(workload, seed)
    walls, cpus, outcomes = [], [], []
    started = time.perf_counter()
    while True:
        output, wall, cpu = timed_pass(workload, mods, inputs)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(workload.check(inputs, output))
        del output
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            break
    metrics = {
        "wall_s": _metric(statistics.median(walls), "s"),
        "setup_s": _metric(statistics.median(setup_samples), "s"),
        "cpu_s": _metric(statistics.median(cpus), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"passes": len(walls), "setup_repeats": len(setup_samples),
               "wall_s": walls, "cpu_s": cpus, "setup_s": setup_samples}
    return metrics, samples, outcomes


def layer_metrics(tracer: tr.Tracer, traced_wall: float, untraced_wall: float) -> dict:
    totals = tr.layer_totals(tracer)
    none = tr.LayerTotals(0, 0.0, 0.0)
    metrics = {}
    for span in LAYER_SPANS:
        t = totals.get(span, none)
        metrics[f"{span}.calls"] = _metric(t.calls, "count")
        metrics[f"{span}.s"] = _metric(t.self_s, "s")
    enum = totals.get("pp.enumerate_pprs", none)
    candidates = tracer.counters.get("pp.enumerate_pprs.candidates", 0)
    pprs = tracer.counters.get("pp.enumerate_pprs.pprs", 0)
    metrics["pp.enumerate_pprs.candidates"] = _metric(candidates, "count")
    metrics["pp.enumerate_pprs.candidates_per_s"] = _metric(
        candidates / enum.total_s if enum.total_s else 0.0, "1/s")
    metrics["pp.enumerate_pprs.accept_ratio"] = _metric(
        pprs / candidates if candidates else 0.0, "ratio")
    for name in ROSTER_FIELDS:
        metrics[f"claims.{name}.s"] = _metric(totals.get(f"claims.{name}", none).total_s, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    return metrics


def traced_run(workload, seed: int, spans_path: Path) -> tuple[dict, dict, list]:
    mods = load_ppshift()
    inputs = workload.build(mods, seed)
    untraced_out, untraced_wall, _ = timed_pass(workload, mods, inputs)
    outcomes = [workload.check(inputs, untraced_out)]

    tracer = tr.Tracer()
    mods = load_ppshift()
    uninstall = tr.install(tracer, vars(mods), LAYERS)
    try:
        tracer.pass_id = 0  # set-up
        inputs = workload.build(mods, seed)
        tracer.pass_id = 1
        traced_out, traced_wall, _ = timed_pass(workload, mods, inputs)
    finally:
        uninstall()
    outcomes.append(workload.check(inputs, traced_out))
    if isinstance(untraced_out, str):  # roster: tracing must not change the report
        same = Outcome()
        same.expect(traced_out == untraced_out, "traced report differs from the untraced one")
        outcomes.append(same)
    metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(spans_path, {"workload": workload.name, "seed": seed,
                             "passes": {"0": "set-up", "1": "traced pass"}})
    samples = {"passes": 1, "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
               "spans": len(tracer), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, samples, outcomes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    loadavg = _read("/proc/loadavg").strip()
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            # one spans file per workload: a traced family run writes ~2*10^6 spans
            spans = RESULTS / f"{workload.name}.spans"
            metrics, samples, outcomes = traced_run(workload, args.seed, spans)
        else:
            metrics, samples, outcomes = measure(workload, args.seed, args.seconds)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    flat_limit = sys.modules["ppshift.gf"].FLAT_TABLE_LIMIT
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    if not args.trace:
        metrics["check_pass_rate"] = _metric((attempted - len(failures)) / attempted, "ratio")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    meta = run_metadata(workload, loadavg, flat_limit)
    meta.update(seed=args.seed, seconds=args.seconds, trace=args.trace,
                samples={k: v for k, v in samples.items() if not isinstance(v, list)})
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "samples": samples, "failures": failures,
                                  "result": result}, indent=2) + "\n")
    for failure in failures[:20]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
