"""Seeded CLI-session benchmark for relucomplex.

    python3 perfbench/run.py --workload wide2d --seed 0 --seconds 55 --trace 0

Run from the root of a checkout. Each session is a fresh Python process
(`session.py`) that generates the workload's model from the seed, writes it
as JSON and runs the workload's CLI commands in-process; sessions repeat
while another one still fits in `--seconds` (at least two). Without tracing
the run reports the end-to-end metrics as medians over its sessions. With `--trace 1` it
alternates untraced and traced sessions and reports the per-layer metrics
of the traced ones, plus the tracing overhead. Every artifact is checked
in every session. The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. Work files go to
`perfbench/_work/`; spans and full results stay there.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# Commands are run as `<cmd> --model model.json --out out/<cmd> <flags>`.
WORKLOADS = {
    "wide2d": {
        "shape": [2, 8, 64],
        "centered": True,
        "commands": [["extract", "--include-output", "--stats"], ["boundary"], ["validate"]],
    },
    "deep3d": {
        "shape": [3, 4, 32],
        "centered": False,
        "commands": [["extract", "--stats"], ["count"], ["validate"]],
    },
    "levelset3d": {
        "shape": [3, 4, 32],
        "centered": True,
        "commands": [
            ["extract", "--include-output", "--level-set-prune", "--stats"],
            ["boundary", "--level-set-prune"],
            ["prune-model", "--level-set-prune"],
        ],
    },
    "cells4d": {
        "shape": [4, 3, 16],
        "centered": False,
        "commands": [["extract", "--stats"], ["count"], ["validate"]],
    },
}

# Setup-only processes per run, on top of the set-up every session pays.
SETUP_PROBES = 4
# Sessions per run at least: two untraced, or one untraced and one traced.
MIN_SESSIONS = 2
# No session may outlive the run's 180-second limit.
RUN_LIMIT_S = 170.0
# session.calibrate() on this 2-core host when it is quiet. Every time a
# session measures is scaled by CALIBRATION_REF_S / (its own calibration
# time): this host's speed drifts by up to 40% within minutes, which would
# otherwise swamp any change to the code.
CALIBRATION_REF_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "extract_cmd_s": "s",
    "analysis_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Per-layer metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def spawn(spec, seed, sdir, trace=False, setup_only=False, timeout=RUN_LIMIT_S):
    """Run one session process; returns its result dict, or None if it failed."""
    sdir.mkdir(parents=True)
    argv = [
        sys.executable, str(HERE / "session.py"),
        "--spec", json.dumps(spec), "--seed", str(seed), "--dir", str(sdir),
        "--trace", str(int(trace)),
    ]
    if setup_only:
        argv.append("--setup-only")
    with open(sdir / "session.log", "w") as log:
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                argv + ["--spawned", repr(spawned)],
                stdout=log, stderr=subprocess.STDOUT, timeout=max(timeout, 1.0), cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return None
    result = sdir / "result.json"
    if proc.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text())


def _median(values):
    return statistics.median(values) if values else 0.0


def host_speed(session):
    """Factor that scales a session's times to the quiet host."""
    return CALIBRATION_REF_S / session["calibration_s"]


def session_times(session):
    """(extract_cmd_s, analysis_s) of one session, scaled to the quiet host."""
    speed = host_speed(session)
    extract = sum(c["seconds"] for c in session["commands"] if c["name"] == "extract")
    analysis = sum(c["seconds"] for c in session["commands"] if c["name"] != "extract")
    return extract * speed, analysis * speed


def run_workload(spec, seed, seconds, trace, workdir):
    """Run sessions for `seconds`; returns the run's report dict."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    t_start = time.monotonic()
    setups, speeds = [], []
    for k in range(SETUP_PROBES):
        probe = spawn(spec, seed, workdir / f"setup{k}", setup_only=True)
        if probe is not None:
            speeds.append(host_speed(probe))
            setups.append(probe["setup_s"] * speeds[-1])
        shutil.rmtree(workdir / f"setup{k}")

    pinned = pinned_digests(spec, seed)
    # digests every session must reproduce: pinned ones, else the first session's
    reference = dict(pinned or {})
    plain, traced, problems = [], [], []
    attempted = failed = 0
    k = 0
    t_measure = time.monotonic()
    while True:
        is_traced = bool(trace) and k % 2 == 1
        sdir = workdir / f"session{k}"
        left = RUN_LIMIT_S - (time.monotonic() - t_start)
        result = spawn(spec, seed, sdir, trace=is_traced, timeout=left)
        shutil.rmtree(sdir / "out", ignore_errors=True)
        k += 1
        attempted += len(spec["commands"])
        if result is None:
            failed += len(spec["commands"])
            problems.append(f"session {k - 1} did not finish; see {sdir / 'session.log'}")
            break
        speeds.append(host_speed(result))
        setups.append(result["setup_s"] * speeds[-1])
        for cmd in result["commands"]:
            found = cmd["problems"] or digest_problems(cmd, reference, pinned is not None)
            if found:
                failed += 1
                problems.extend(f"session {k - 1} {cmd['name']}: {p}" for p in found)
        (traced if is_traced else plain).append(result)
        elapsed = time.monotonic() - t_measure
        # stop before a session that would end after `seconds`
        if k >= MIN_SESSIONS and elapsed * (k + 1) / k > seconds:
            break
    problems.extend(trace_problems(traced))

    times = [session_times(s) for s in plain]
    end_to_end = {
        "setup_s": _median(setups),
        "extract_cmd_s": _median([e for e, _ in times]),
        "analysis_s": _median([a for _, a in times]),
        "total_s": _median([e + a for e, a in times]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in plain]),
    }
    if trace:
        units = per_layer_units()
        values = per_layer_report(plain, traced, units) if traced else {}
    else:
        units, values = END_TO_END, end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {n: {"value": values.get(n, 0.0), "unit": u} for n, u in units.items()},
        "host_speed": speeds,
        "setup_s": setups,
        "session_times": times,
        "numpy": (plain or traced or [{"numpy": None}])[0]["numpy"],
    }


def per_layer_report(plain, traced, units):
    """Medians of the traced sessions' per-layer metrics, plus overhead."""
    out = {}
    for name, first in traced[0]["per_layer"].items():
        if units.get(name) == "s":
            out[name] = _median([t["per_layer"][name] * host_speed(t) for t in traced])
        else:
            out[name] = first if isinstance(first, int) else _median(
                [t["per_layer"][name] for t in traced])
    traced_total = _median([sum(session_times(t)) for t in traced])
    plain_total = _median([sum(session_times(s)) for s in plain])
    out["trace.overhead_frac"] = traced_total / plain_total - 1.0
    return out


def digest_problems(cmd, reference, pinned):
    """Artifacts of one command whose digest differs from the reference."""
    own = cmd["digests"]
    prefix = cmd["name"] + "/"
    expected = {n: d for n, d in reference.items() if n.startswith(prefix)}
    if not expected and not pinned:
        reference.update(own)
        return []
    source = "pinned" if pinned else "first session's"
    return [
        f"{name}: digest differs from the {source}"
        for name in sorted(set(expected) | set(own))
        if expected.get(name) != own.get(name)
    ]


def trace_problems(traced):
    """Wrappers left behind, or exact counts that differ between traced sessions."""
    problems = []
    for t in traced:
        if t["leftover_wrappers"]:
            problems.append(f"wrappers left installed: {t['leftover_wrappers']}")
    counts = [{k: v for k, v in t["per_layer"].items() if isinstance(v, int)} for t in traced]
    if any(c != counts[0] for c in counts):
        problems.append("exact counts differ between traced sessions")
    return problems


def pinned_digests(spec, seed):
    path = HERE / "digests.json"
    if "name" not in spec or not path.exists():
        return None
    return json.loads(path.read_text()).get(spec["name"], {}).get(str(seed))


def environment(seed, numpy_version):
    """Where and on what the numbers were taken."""
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": {
            v: os.environ.get(v)
            for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
    }


def git_commit():
    """HEAD commit read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded CLI-session benchmark for relucomplex.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relucomplex" / "cli.py").is_file():
        print(f"error: no relucomplex source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    spec = {"name": args.workload, **WORKLOADS[args.workload]}
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = run_workload(spec, args.seed, args.seconds, args.trace, workdir)
    report["environment"] = environment(args.seed, report.pop("numpy"))
    metrics = report["metrics"]
    with open(workdir / "result.json", "w") as fh:
        json.dump(report, fh, indent=2)

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']!r} {m['unit']}")
    print(f"{'failed_frac':34s} {report['failed'] / max(report['attempted'], 1)!r} "
          f"({report['failed']}/{report['attempted']} commands)")
    print(f"{'sessions':34s} {len(report['session_times'])} untraced")
    print(f"{'host_speed':34s} {_median(report['host_speed'])!r} (median factor the times "
          "in s are scaled by)")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(f"output check: {'FAIL' if report['problems'] else 'PASS'}")
    print(f"environment: {json.dumps(report['environment'])}")
    print(json.dumps({
        "correct": not report["problems"],
        "attempted": max(report["attempted"], 1),
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
