"""The benchmark's tracer (perfbench/tracer.py) wraps package attributes by name.

A renamed or deleted function would only show up when `perfbench/run.py
--trace 1` runs; these tests catch it with the rest of the suite. They read
perfbench/ and change nothing there.
"""

import importlib
import inspect
import os
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


def traced_validate(tracer, out):
    """Spans of one `validate` command, run under a fresh Tracer."""
    from relucomplex import cli

    spans = tracer.Tracer()
    spans.install()
    try:
        code = cli.main(
            ["validate", "--random", "2,3,8,1", "--seed", "2", "--samples", "3000",
             "--out", str(out)]
        )
    finally:
        spans.restore()
    assert code == 0
    assert tracer.Tracer.leftover_wrappers() == []
    return spans.spans


def test_validate_on_two_workers_traces_cleanly(tracer, tmp_path, monkeypatch):
    # many blocks on two workers: the workers must call nothing the tracer
    # wraps, or their spans would land on the main thread's span stack
    from relucomplex import validate as validate_mod

    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    runs = [traced_validate(tracer, tmp_path / name) for name in ("a", "b")]
    for spans in runs:
        children = {}
        for i, span in enumerate(spans):
            if span.parent is not None:
                parent = spans[span.parent]
                assert span.parent < i
                assert parent.start <= span.start <= span.end <= parent.end, span.name
            children.setdefault(span.parent, []).append(span)
        # siblings run one after another on the calling thread
        for kids in children.values():
            for before, after in zip(kids, kids[1:]):
                assert before.end <= after.start, (before.name, after.name)
        oracle = next(i for i, s in enumerate(spans) if s.name == "validate.sampled_region_oracle")
        grouped = [s for s in spans if s.parent == oracle]
        # one group_rows per block of 50 samples, then one over their union
        assert [s.name for s in grouped] == ["signvec.group_rows"] * (3000 // 50 + 1)
    a, b = (tracer.layer_metrics(spans) for spans in runs)
    counts = set(a) - set(tracer.PER_LAYER_TIMES)
    assert {name: a[name] for name in counts} == {name: b[name] for name in counts}
    assert a["model.points"] > 0
    assert [(s.name, s.parent, s.counts) for s in runs[0]] == [
        (s.name, s.parent, s.counts) for s in runs[1]
    ]
