"""The benchmark's tracer (perfbench/tracer.py) wraps package attributes by name.

A renamed or deleted function would only show up when `perfbench/run.py
--trace 1` runs; these tests catch it with the rest of the suite. They read
perfbench/ and change nothing there.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("tracer")


def test_every_traced_name_exists(tracer):
    missing = []
    for name in tracer.SELF_TIME:
        owner, attr = tracer.owner_of(name)
        # the tracer saves vars(owner)[attr], so it must be defined right there
        if not callable(vars(owner).get(attr)):
            missing.append(name)
    assert missing == []


def test_counters_cover_traced_names_only(tracer):
    assert set(tracer.COUNTERS) <= set(tracer.SELF_TIME)
    assert set(tracer.PRE_COUNTERS) <= set(tracer.SELF_TIME)


def test_extend_takes_positions_first(tracer):
    # the extend counter reads len(args[1]): the rows appended to the cache
    owner, attr = tracer.owner_of("subdivide.LayerValueCache.extend")
    params = list(inspect.signature(vars(owner)[attr]).parameters)
    assert params[:2] == ["self", "positions"]
