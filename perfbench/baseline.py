"""Rebuild the baseline tables: every workload over several seeds.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 0] [--workload NAME ...] [--trace]

Run from the repository root.  It runs ``run.py`` once per (workload, seed),
one process at a time, for the ``run_seconds`` of ``BENCHMARK.json``, and
prints a Markdown table per workload: for each end-to-end metric the median
over seeds, the quartiles, and the quartile spread as a share of the median
next to the metric's bound.  With ``--trace`` it adds one traced run per
workload (first seed) and prints the per-layer metrics side by side.  Raw
results go to ``.perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return dict(result, env=env)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="restrict to these workloads")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to take quartiles")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    raw: dict[str, dict] = {}
    for name in names:
        runs = [run_once(name, seed, spec["run_seconds"], 0) for seed in seeds]
        raw[name] = {"runs": runs}
        env = runs[0]["env"]
        print(f"\n### {name}\n")
        print(f"{len(runs)} seeds ({seeds.start}..{seeds.stop - 1}), {spec['run_seconds']} s per run, "
              f"ops per run {[r['attempted'] for r in runs]}, failed {sum(r['failed'] for r in runs)}; "
              f"numpy {env.get('numpy')}, scipy {env.get('scipy')}, {env.get('blas')}, "
              f"BLAS threads {env.get('blas_threads')}, nproc {env.get('nproc')}, {env.get('cpu')}\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            print(f"| {metric['name']} | {metric['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                  f"{rel:.1%} | {metric['bound']:.0%} |")
        sys.stdout.flush()

    if args.trace:
        for name in names:
            raw[name]["trace"] = run_once(name, seeds.start, spec["run_seconds"], 1)
        print("\n### per-layer metrics (one traced run, seed %d)\n" % seeds.start)
        print("| metric | unit | " + " | ".join(names) + " |")
        print("|---|---|" + "---|" * len(names))
        for metric in spec["per_layer"]:
            cells = [f"{raw[n]['trace']['metrics'][metric['name']]['value']:.4g}" for n in names]
            print(f"| {metric['name']} | {metric['unit']} | " + " | ".join(cells) + " |")

    out = ROOT / ".perfbench" / "baseline.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(raw, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
