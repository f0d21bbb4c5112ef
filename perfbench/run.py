"""Benchmark entry point: one workload, one seed, a closed loop with one caller.

    python3 perfbench/run.py --workload study-500 --seed 0 --seconds 30 --trace 0

Run from the repository root (it imports ``downscale`` from ``src/``).  Set-up
writes the workload's inputs under ``.perfbench/``, then ops run back to back
until ``--seconds`` have passed; each op is checked, untimed, after it ends.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics from the span tracer with ``--trace 1``).
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

END_TO_END = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cell_accuracy", "fraction"),
    ("match_p50_ms", "ms"),
    ("match_p90_ms", "ms"),
]

# span name -> the per-op aggregates reported for it
SPAN_METRICS = [
    ("pipeline.generate", ("s", "self_s", "calls", "rows")),
    ("outliers.score_units", ("s",)),
    ("outliers.flag_outliers", ("s",)),
    ("copula.fit_copula", ("s", "calls")),
    ("copula.sample_all_units", ("s", "calls", "rows")),
    ("copula.load_model", ("s",)),
    ("batching.sample_joint_batch", ("s", "calls", "rows")),
    ("batching.fit_predictor", ("s", "calls", "rows")),
    ("batching.extend_with_batch", ("s", "calls", "rows")),
    ("scaling.integerize_budget", ("s", "calls")),
    ("scaling.assign_categories", ("s", "calls", "rows")),
    ("scaling.shift_continuous", ("s", "calls", "rows")),
    ("rng.stream", ("s", "calls")),
    ("tables.load_coarse_csv", ("s", "rows")),
    ("tables.write_individual_csv", ("s", "rows", "bytes")),
    ("tables.load_individual_csv", ("s", "rows")),
    ("evaluation.align_rows", ("s",)),
    ("evaluation.cell_accuracy", ("s",)),
    ("matching.probabilistic_match", ("s", "calls")),
]
_UNITS = {"s": "s", "self_s": "s", "calls": "count", "rows": "count", "bytes": "B"}
PER_LAYER = [(f"{span}.{agg}", _UNITS[agg]) for span, aggs in SPAN_METRICS for agg in aggs] + [
    ("outliers.flagged_units", "count"),
    ("batching.train_row_yield", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.span_cost_us", "us"),
    ("trace.spans", "count"),
]


def load_package() -> None:
    """Import ``downscale`` from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import downscale
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import downscale from {src}: {exc}")
    if Path(downscale.__file__).resolve().parent != src / "downscale":
        raise SystemExit(f"run.py: imported downscale from {downscale.__file__}, not from {src}")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS library loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _layer_values(layers: dict) -> dict[str, float]:
    """Per-layer metric values of one traced op (0 for a layer it never called)."""
    values = {}
    for span, aggs in SPAN_METRICS:
        agg = layers.get(span, {})
        for key in aggs:
            values[f"{span}.{key}"] = float(agg.get(key, 0))
    values["outliers.flagged_units"] = float(layers.get("outliers.flag_outliers", {}).get("flagged_units", 0))
    joint = values["batching.sample_joint_batch.rows"]
    values["batching.train_row_yield"] = values["batching.fit_predictor.rows"] / joint if joint else 0.0
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: int | None = None) -> dict:
    """Set up, run the op loop and return the result object (plus ``env``)."""
    import numpy as np

    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    env = environment(name, seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[name](seed, workdir, units)
    tracer = tracing.Tracer() if trace else None
    try:
        setup_times = []
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

        ops, latencies = [], []
        first_digest = last_good = None
        t_loop = time.perf_counter()
        min_ops = 2 if trace else 1
        while len(ops) < min_ops or time.perf_counter() - t_loop < seconds:
            i = len(ops)
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.op = i
                skipped = tracer.install(workloads.TRACE_TARGETS)
                if skipped:
                    print(f"not traced (no such attribute): {skipped}", file=sys.stderr)
                root = tracer.begin("op")
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out, problems = wl.op(), []
            except Exception as exc:  # an op that raises counts as failed; the loop goes on
                out, problems = None, [f"op raised {type(exc).__name__}: {exc}"]
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            if traced:
                tracer.end(root)
                tracer.uninstall()
            if out is not None:
                try:
                    problems = wl.inspect(out)
                    digest = wl.digest(out)
                except Exception as exc:  # a check that cannot run is a failed check
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                else:
                    if not problems:
                        first_digest = first_digest or digest
                        if digest != first_digest:
                            problems.append("output differs from the first correct op of this run")
                latencies += out.latencies
            if problems:
                print(f"op {i} failed: {problems[:3]}", file=sys.stderr)
            else:
                last_good = out
            ops.append({"wall": wall, "cpu": cpu, "rows": out.rows if out else 0,
                        "traced": traced, "ok": not problems})

        attempted = len(ops)
        failed = sum(not op["ok"] for op in ops)
        accuracy = wl.accuracy(last_good) if last_good is not None else 0.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [op for op in ops if not op["traced"]]
    if not trace:
        metrics = {
            "setup_s": _median(setup_times),
            "op_s": _median([op["wall"] for op in plain]),
            "cpu_s": _median([op["cpu"] for op in plain]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cell_accuracy": accuracy,
            "match_p50_ms": float(np.percentile(latencies, 50)) * 1e3 if latencies else 0.0,
            "match_p90_ms": float(np.percentile(latencies, 90)) * 1e3 if latencies else 0.0,
        }
        # printed, not bounded: rows per op is a property of the seed's
        # population, which spreads more than op_s does; the one-time import
        # drifts far more between sets of runs than the set-up work does
        print(f"rows_per_s = {_median([op['rows'] / op['wall'] for op in plain]):.6g} 1/s")
        print(f"import_s = {import_s:.6g} s")
        if latencies:
            tail = ", ".join(f"p{q} {np.percentile(latencies, q) * 1e3:.4f}" for q in (50, 90, 99, 99.9))
            print(f"match latency over {len(latencies)} queries (ms): {tail}")
        units_of = dict(END_TO_END)
    else:
        metrics = _trace_metrics(tracer, ops, name, seed, env)
        units_of = dict(PER_LAYER)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units_of[k]} for k in units_of},
        "env": dict(env, op_walls=[round(op["wall"], 4) for op in ops], queries=len(latencies),
                    setup_times=[round(t, 4) for t in setup_times]),
    }


def _trace_metrics(tracer, ops, name: str, seed: int, env: dict) -> dict[str, float]:
    import tracing

    per_op = tracer.per_op()
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    per_metric: dict[str, list[float]] = {}
    for i in traced:
        for key, value in _layer_values(per_op.get(i, {})).items():
            per_metric.setdefault(key, []).append(value)
    metrics = {key: _median(values) for key, values in per_metric.items()}
    walls = {flag: [op["wall"] for op in ops if op["traced"] == flag] for flag in (True, False)}
    metrics["trace.overhead_s"] = _median(walls[True]) - _median(walls[False])
    metrics["trace.span_cost_us"] = tracing.span_cost_s() * 1e6
    metrics["trace.spans"] = len(tracer.spans) / max(1, len(traced))

    gen_s, gen_self = metrics["pipeline.generate.s"], metrics["pipeline.generate.self_s"]
    print(f"pipeline.generate: {gen_s:.4f} s per op; child layers {gen_s - gen_self:.4f} s "
          f"({(gen_s - gen_self) / gen_s if gen_s else 0:.1%}), own self time {gen_self:.4f} s")
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.4f} s per op measured, "
          f"~{metrics['trace.spans'] * metrics['trace.span_cost_us'] * 1e-6:.4f} s estimated "
          f"from {metrics['trace.spans']:.0f} spans x {metrics['trace.span_cost_us']:.2f} us")
    self_time = {
        str(i): {span: agg["self_s"] for span, agg in sorted(per_op.get(i, {}).items())} for i in traced
    }
    path = OUT_DIR / "traces" / f"{name}-seed{seed}.json.gz"
    tracer.write(path, {"env": env, "ops": ops, "metrics": metrics, "self_s": self_time})
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["study-500", "generate-5000", "resample-match"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the measured op loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--units", type=int, help="override the workload's unit count (tests use toy sizes)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.units)
    env = result.pop("env")
    print("env " + json.dumps(env, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
