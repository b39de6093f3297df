"""Self-test of the benchmark on tiny nets (about 30 seconds).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced artifacts are byte-identical to untraced ones, that the exact
counts repeat between two traced runs, that the self-time metrics account
for the whole traced command time, that the tracer leaves no wrapper
behind, and that the benchmark refuses to run without the program's
source. Exits 1 on the first failed group of checks.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
from run import END_TO_END, ROOT, WORK, run_workload, spawn

SCRATCH = WORK / "selftest"

# Tiny nets with the command mix of the real workloads.
TINY = {
    "tiny2d": {**run.WORKLOADS["wide2d"], "shape": [2, 2, 6]},
    "tiny3d": {**run.WORKLOADS["deep3d"], "shape": [3, 2, 5]},
    "tinyls3d": {**run.WORKLOADS["levelset3d"], "shape": [3, 2, 5]},
    "tiny4d": {**run.WORKLOADS["cells4d"], "shape": [4, 2, 4]},
}
EXACT_COUNTS = (
    "model.points",
    "subdivide.split_edges",
    "skeleton.bytes_copied",
    "signvec.rows_grouped.subdivide",
    "signvec.rows_grouped.poset",
    "signvec.rows_grouped.other",
    "geometry.bytes_written",
)


def digests(session):
    return {k: v for c in session["commands"] for k, v in c["digests"].items()}


def declared():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )


def check_metrics(failures):
    end_to_end, per_layer = declared()
    if end_to_end != END_TO_END:
        failures.append(f"BENCHMARK.json end_to_end {end_to_end} != run.py {END_TO_END}")
    for name, spec in TINY.items():
        for trace, want in ((0, end_to_end), (1, per_layer)):
            report = run_workload(spec, 0, 0, trace, SCRATCH / f"{name}-trace{trace}")
            got = {n: m["unit"] for n, m in report["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace {trace}: emitted {sorted(got)}")
            if report["problems"] or report["failed"]:
                failures.append(f"{name} trace {trace}: {report['problems']}")


def check_traced_sessions(failures):
    from tracer import PER_LAYER_TIMES

    for name, spec in TINY.items():
        sessions = []
        for k, trace in enumerate((False, True, True)):
            sdir = SCRATCH / f"{name}-session{k}"
            shutil.rmtree(sdir, ignore_errors=True)
            sessions.append(spawn(spec, 0, sdir, trace=trace))
        if None in sessions:
            failures.append(f"{name}: a session failed")
            continue
        plain, first, second = sessions
        if digests(plain) != digests(first):
            failures.append(f"{name}: traced artifacts differ from untraced ones")
        for key in EXACT_COUNTS:
            if first["per_layer"][key] != second["per_layer"][key]:
                failures.append(f"{name}: {key} differs between traced runs")
        own = sum(
            v for k, v in first["per_layer"].items()
            if k in PER_LAYER_TIMES and k != "subdivide.extract_s"
        )
        if abs(own - first["traced_root_s"]) > 1e-6 * first["traced_root_s"]:
            failures.append(f"{name}: self times sum to {own}, root spans to "
                            f"{first['traced_root_s']}")
        if first["leftover_wrappers"]:
            failures.append(f"{name}: wrappers left: {first['leftover_wrappers']}")


def check_restore(failures):
    """Install and restore in this process; every original must be back."""
    sys.path.insert(0, str(ROOT / "src"))
    from relucomplex import cli, model
    from tracer import SELF_TIME, Tracer, owner_of

    tracer = Tracer()
    originals = {name: owner_of(name) for name in SELF_TIME}
    originals = {n: (o, a, vars(o)[a]) for n, (o, a) in originals.items()}
    out = SCRATCH / "restore"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    model.save_model(model.random_model(2, 2, 4, 1, 0), out / "model.json")
    tracer.install()
    try:
        if len(tracer.leftover_wrappers()) != len(SELF_TIME):
            failures.append("install did not wrap every named attribute")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["count", "--model", str(out / "model.json"), "--out", str(out)])
    finally:
        tracer.restore()
    if code != 0:
        failures.append(f"traced count exited {code}")
    if not tracer.spans:
        failures.append("no spans recorded")
    for name, (owner, attr, original) in originals.items():
        if vars(owner)[attr] is not original:
            failures.append(f"{name} was not restored")


def check_bare_directory(failures):
    """Without src/ the benchmark must fail and print no result."""
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cells4d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    for check in (check_metrics, check_traced_sessions, check_restore, check_bare_directory):
        failures = []
        check(failures)
        print(f"{check.__name__}: {'FAIL' if failures else 'PASS'}")
        for failure in failures:
            print(f"  {failure}")
        if failures:
            return 1
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
