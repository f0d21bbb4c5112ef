"""The benchmark traces calls by patching ``(module, attribute)`` pairs; a
refactor that drops one of those calls, or breaks a counter that reads its
arguments or result, would only show as ``not traced`` or a layer reading 0
in a benchmark run.  These tests make tier-1 catch it instead, and catch a matcher
that takes a pool's continuous standard deviations again on every query."""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from downscale import generate
from conftest import make_coarse, make_schemas

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    """``perfbench/workloads.py`` as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(workloads):
    missing = []
    for module_name, attr, _, _ in workloads.TRACE_TARGETS:
        module = workloads if module_name == workloads.__name__ else importlib.import_module(module_name)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert workloads.TRACE_TARGETS
    assert missing == []


def test_check_table_names_a_flipped_class(workloads):
    # the benchmark's correctness check must see one class moved off its unit's budget
    schemas = make_schemas([("a", 3, 0), ("x", None, 0), ("b", 2, 1)])
    coarse = make_coarse(schemas, [7, 19, 33, 12, 25, 48, 11, 16, 21, 30, 14, 9])
    table = generate(coarse, schemas, seed=1).table
    assert workloads.check_table(table, coarse, schemas) == []
    flipped = table.column("b").copy()
    flipped[0] = 1 - flipped[0]
    table.set_column("b", flipped)
    problems = workloads.check_table(table, coarse, schemas)
    assert len(problems) == 1 and problems[0].startswith("u0000/b: counts "), problems


PERFBENCH = WORKLOADS.parent
SPEC = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """``perfbench/run.py`` as a module, writing its work files and traces under ``tmp_path``."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports tracing and workloads by name
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / ".perfbench")
    yield run
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


# metrics each traced toy op must move above 0: rows and bytes come from the
# counters in ``TRACE_TARGETS``, calls and times from the spans
COUNTED = ["pipeline.generate.rows", "copula.sample_all_units.rows", "batching.extend_with_batch.rows",
           "scaling.assign_categories.rows", "rng.stream.calls"]
ONLY_IN = {
    "study-500": ["batching.sample_joint_batch.rows", "batching.fit_predictor.rows", "batching.train_row_yield",
                  "copula.fit_copula.calls", "evaluation.align_rows.s", "evaluation.cell_accuracy.s"],
    "resample-match": ["scaling.shift_continuous.rows", "matching.probabilistic_match.calls",
                       "tables.load_coarse_csv.rows", "tables.write_individual_csv.rows",
                       "tables.write_individual_csv.bytes", "tables.load_individual_csv.rows",
                       "copula.load_model.s"],
}


@pytest.mark.parametrize("workload", sorted(ONLY_IN))
def test_traced_toy_op_moves_every_counter(bench, capsys, workload):
    result = bench.run_workload(workload, 5, 0.0, True, units=30)
    assert "not traced" not in capsys.readouterr().err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert [name for name in COUNTED + ONLY_IN[workload] if not metrics[name] > 0] == []
    # phase 4 makes one scaling call per feature and generate call, not one per unit
    features = sys.modules["workloads"].WORKLOADS[workload](5, PERFBENCH).config()["features"]
    categorical = sum(feature["kind"] == "categorical" for feature in features)
    runs = metrics["pipeline.generate.calls"]
    calls = {name: metrics[f"scaling.{name}.calls"] for name in ("integerize_budget", "assign_categories")}
    assert calls == {"integerize_budget": categorical * runs, "assign_categories": categorical * runs}
    assert metrics["scaling.shift_continuous.calls"] == (len(features) - categorical) * runs
    if workload == "study-500":
        # phase 3 samples only the rows its predictors train on: the toy op caps them at 300 of its 637 people
        for name in ("sample_joint_batch", "fit_predictor"):
            assert metrics[f"batching.{name}.rows"] == 300 * metrics[f"batching.{name}.calls"]


class CountsStd(np.ndarray):
    """A column that counts the ``std`` calls made over it or any slice of it, by feature."""

    calls = Counter()

    def __array_finalize__(self, obj):
        self.feature = getattr(obj, "feature", None)

    def std(self, *args, **kwargs):
        CountsStd.calls[self.feature] += 1
        return super().std(*args, **kwargs)


def test_resample_match_takes_each_continuous_sd_once_per_pool(bench, monkeypatch):
    workloads = importlib.import_module("workloads")
    load = workloads.load_individual_csv
    pools = []

    def load_counting(path, schemas):  # the op's pool, its continuous columns counting their std calls
        pool = load(path, schemas)
        for sc in schemas:
            if not sc.is_categorical:
                column = pool.column(sc.name).view(CountsStd)
                column.feature = sc.name
                pool.set_column(sc.name, column)
        pools.append(pool)
        return pool

    monkeypatch.setattr(workloads, "load_individual_csv", load_counting)
    monkeypatch.setattr(CountsStd, "calls", Counter())
    result = bench.run_workload("resample-match", 5, 0.0, False, units=30)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert len(pools) == 1 and workloads.ResampleMatch.n_queries > 1
    # hh_income and rent are the continuous query features: one sd each for the pool, not one per query
    assert CountsStd.calls == Counter({"hh_income": 1, "rent": 1})
