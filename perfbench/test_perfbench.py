"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the repository root.

Every workload runs at toy size and must emit every metric named in
BENCHMARK.json; a deliberately corrupted output must be reported as failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_UNITS = "30"

run.load_package()
import workloads  # noqa: E402  (needs the package on sys.path)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_names_what_run_emits():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_toy_workload_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", trace,
                  "--units", TOY_UNITS)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _flip_one_class(result):
    block = result.table.blocks[0]
    sc = next(s for s in workloads.Workload(0, ".").config()["features"] if s["kind"] == "categorical")
    col = block.columns[sc["name"]]
    col[0] = (col[0] + 1) % len(sc["classes"])
    return result


@pytest.mark.parametrize("workload, caller", [("study-500", workloads), ("generate-5000", workloads.cli)])
def test_flipped_class_is_reported_failed(monkeypatch, workload, caller):
    real = caller.generate
    monkeypatch.setattr(caller, "generate", lambda *a, **k: _flip_one_class(real(*a, **k)))
    result = run.run_workload(workload, seed=2, seconds=0.0, trace=False, units=int(TOY_UNITS))
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1


def test_checks_accept_an_untouched_output():
    result = run.run_workload("study-500", seed=2, seconds=0.0, trace=False, units=int(TOY_UNITS))
    assert result["correct"] is True and result["failed"] == 0


def test_matches_out_of_order_are_reported():
    wl = workloads.ResampleMatch(4, ROOT / ".perfbench" / "test-matches", units=int(TOY_UNITS))
    try:
        wl.setup()
        out = wl.op()
        assert workloads.check_matches(wl.queries, out.matches, out.tables[0]) == []
        longest = max(range(len(out.matches)), key=lambda i: len(out.matches[i]))
        out.matches[longest] = out.matches[longest][::-1]
        assert workloads.check_matches(wl.queries, out.matches, out.tables[0])
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)


def test_self_times_account_for_the_parent_span():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.002), "leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "mid")
    top = tracer.wrap(lambda: (mid(), leaf()), "top")
    tracer.op = 0
    top()
    layers = tracer.per_op()[0]
    assert layers["leaf"]["calls"] == 4 and layers["mid"]["calls"] == 1
    total_self = sum(agg["self_s"] for agg in layers.values())
    assert total_self == pytest.approx(layers["top"]["s"], rel=1e-9)
    assert layers["top"]["s"] >= layers["mid"]["s"] + layers["leaf"]["s"] / 4


def test_exits_nonzero_without_the_package():
    bare = ROOT / ".perfbench" / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "study-500", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
