"""The benchmark's workloads run against the current library, traced.

perfbench/ calls about 15 library names by attribute, and its tracer imports
every layer module and wraps their public functions. Each workload runs here
once, small, at its acceptance seed, so a change that breaks the benchmark
fails the suite instead of only the benchmark run.
"""
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOAD_NAMES = ("torus_family", "change_detect", "convergence", "family_cli")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_workload_names_match(perfbench):
    _, workloads = perfbench
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_passes_traced(perfbench, name, tmp_path):
    tracer, workloads = perfbench
    workload = workloads.WORKLOADS[name]
    tr = tracer.Tracer()
    tr.install()
    try:
        state = workload.setup(workloads.ACCEPTANCE_SEEDS[name], tmp_path, small=True)
        verdict = workload.check(state, workload.run(state, 0))
    finally:
        tr.uninstall()
    assert verdict.ok, verdict.details
    assert tr.spans, "the tracer saw no library call"
