import os
import subprocess
import sys
from pathlib import Path

import pytest

import relucomplex

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # demos write to ./out, so each runs in its own directory, importing the
    # package this test imported; any warning fails it, as in the tests
    src = str(Path(relucomplex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
