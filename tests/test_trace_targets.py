"""The benchmark traces calls by patching ``(module, attribute)`` pairs; a
refactor that drops one of those calls would only show as ``not traced`` in
a benchmark run.  This test makes tier-1 catch it instead."""

import importlib
import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_every_trace_target_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file executes
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    missing = []
    for module_name, attr, _, _ in workloads.TRACE_TARGETS:
        module = workloads if module_name == spec.name else importlib.import_module(module_name)
        if not callable(getattr(module, attr, None)):
            missing.append(f"{module_name}.{attr}")
    assert workloads.TRACE_TARGETS
    assert missing == []
