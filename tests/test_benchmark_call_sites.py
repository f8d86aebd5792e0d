"""The benchmark's workloads still run on the library as it stands.

``perfbench/`` drives the library through its own call sites (for example
``piped, _ = relay.bell_detect(...)`` and
``relay.cluster_closed_form(...).assemble()``), and its self-test is outside
this suite. This file only reads ``perfbench/``: it runs a few items of each
workload and holds every item to the workload's own check, so a library
change that breaks one of those call sites fails here.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# a few items of each workload; swap-small's 7 take one of each N = 2..8
ITEMS = {"swap-small": 7, "swap-large": 3, "oracle-check": 6, "optomech-sweep": 3}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_is_driven_here(workloads):
    assert set(workloads.WORKLOADS) == set(ITEMS)


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_workload_items_run_and_pass_their_check(workloads, name):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(7, ITEMS[name])
    assert len(inputs) == ITEMS[name]
    for inp in inputs:
        row, evidence = workload.run_item(inp)
        assert len(row) == len(workload.columns)
        assert workload.check(inp, evidence) is None, (name, inp)
