"""One CLI session of a benchmark workload, in a fresh Python process.

The session imports `relucomplex` from the checkout's `src/`, generates the
workload's model from the seed, writes it as JSON, and then runs the
workload's commands in-process through `relucomplex.cli.main(argv)`, timing
each one. With `--trace 1` the commands run under a `Tracer`. After the
timed commands (and after the tracer is removed) it checks every artifact
the CLI wrote and writes one result JSON for `run.py` to aggregate.

    python3 perfbench/session.py --spec '<json>' --seed 0 --dir DIR \
        --spawned <time.monotonic() of the parent> [--trace 1] [--setup-only]
"""

import argparse
import contextlib
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

# Relative jitter the seed applies to every weight and bias of the workload's
# base net. Independent random nets of one shape differ up to 2.5x in vertex
# count; a 2% jitter changes every input float (and every artifact) while
# keeping the complex within about 2% of one size, so run-to-run figures
# compare the code, not the net.
JITTER = 0.02
CUBE = (-1.0, 1.0)
AREA_RTOL = 1e-9


def calibrate():
    """Seconds a fixed mix of numpy and interpreter work takes on this host.

    The work does not touch relucomplex, so it measures only how fast the
    host runs right now; run.py scales the session times by it.
    """
    rows = np.random.Generator(np.random.PCG64(0)).random((100_000, 24))
    for rep in range(5):
        if rep == 1:  # the first pass warms up the process and is not timed
            t0 = time.perf_counter()
        signs = np.where(rows > 0.5, 1, -1).astype(np.int8)
        grown = np.concatenate([signs, signs[:, :1]], axis=1) + 1
        np.unique(np.ascontiguousarray(grown).view(np.dtype((np.void, 25))).ravel())
        total = 0
        for i in range(150_000):
            total += i & 7
    return time.perf_counter() - t0


def make_model(spec, seed):
    """The workload's net: random_model(D, depth, width, 1, 0), jittered by seed.

    Centered nets get the output bias shifted by minus the median output over
    1000 domain samples, so the level set is non-empty.
    """
    from relucomplex import model as model_mod, skeleton, validate

    dim, depth, width = spec["shape"]
    base = model_mod.random_model(dim, depth, width, 1, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = []
    for layer in base.layers:
        w = layer.weights * (1.0 + JITTER * (2.0 * rng.random(layer.weights.shape) - 1.0))
        b = layer.bias * (1.0 + JITTER * (2.0 * rng.random(layer.bias.shape) - 1.0))
        layers.append(model_mod.LayerSpec(w, b))
    net = model_mod.MlpSpec(tuple(layers), dim)
    if spec["centered"]:
        domain, _ = skeleton.init_hypercube(dim, *CUBE)
        samples = validate.sample_domain(domain, 1000, 7)
        vals = model_mod.batch_preactivations(net, samples)[-1][:, 0]
        net = model_mod.shift_output_bias(net, -float(np.median(vals)))
    return net


def command_argv(cmd, model_path, out):
    return [cmd[0], "--model", str(model_path), "--out", str(out / cmd[0]), *cmd[1:]]


def run_commands(spec, model_path, out, tracer=None):
    """Run each command through cli.main; returns [(name, exit code, seconds)]."""
    from relucomplex import cli

    done = []
    with open(out / "cli.log", "w") as log, contextlib.redirect_stdout(log):
        for i, cmd in enumerate(spec["commands"]):
            if tracer is not None:
                tracer.run = f"{i}:{cmd[0]}"
            t0 = time.perf_counter()
            try:
                code = cli.main(command_argv(cmd, model_path, out))
            except Exception:
                code = None
                traceback.print_exc(file=log)
            done.append((cmd[0], code, time.perf_counter() - t0))
    return done


# -- output checks -------------------------------------------------------------


def _canonical(path):
    """Artifact bytes with the run's timings removed."""
    if path.name == "summary.json":
        doc = json.loads(path.read_text())
        doc.pop("timings")
        return json.dumps(doc, indent=2, sort_keys=True).encode()
    if path.name == "stats.jsonl":
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        for row in rows:
            row.pop("seconds")
        return "\n".join(json.dumps(r, sort_keys=True) for r in rows).encode()
    return path.read_bytes()


def artifact_digests(out, cmd):
    """SHA-256 of every file one command wrote, timings removed."""
    cmd_dir = out / cmd
    return {
        f"{cmd}/{p.name}": hashlib.sha256(_canonical(p)).hexdigest()
        for p in sorted(cmd_dir.iterdir())
    }


# Their size varies with the digits of the timings they carry.
TIMED_ARTIFACTS = ("summary.json", "stats.jsonl")


def artifact_bytes(out, cmds):
    """Bytes of every artifact except the ones that carry timings."""
    return sum(
        p.stat().st_size
        for c in cmds
        for p in (out / c).iterdir()
        if p.name not in TIMED_ARTIFACTS
    )


def _load_skeleton_csv(cmd_dir, dim, m):
    """Skeleton rebuilt from an extract command's CSV export."""
    from relucomplex.skeleton import Skeleton

    lut = np.zeros(256, dtype=np.int8)
    lut[ord("+")] = 1
    lut[ord("-")] = -1

    def read(name, ncols):
        rows = [line.split(",") for line in (cmd_dir / name).read_text().splitlines()[1:]]
        ids = np.array([int(r[0]) for r in rows], dtype=np.int64)
        if not np.array_equal(ids, np.arange(len(rows))):
            raise ValueError(f"{name}: ids are not 0..n-1")
        cols = np.array([r[1 : 1 + ncols] for r in rows], dtype=np.float64)
        signs = lut[np.frombuffer("".join(r[-1] for r in rows).encode(), dtype=np.uint8)]
        return cols, signs.reshape(len(rows), -1)

    positions, vsigns = read("vertices.csv", dim)
    edges, esigns = read("edges.csv", 2)
    return Skeleton(dim, m, positions, vsigns, edges.astype(np.int64), esigns)


def check_area_2d(net, out):
    """metrics.json area against area_divergence_2d on the extracted complex."""
    from relucomplex import geometry, model as model_mod, skeleton

    dim = net.in_dim
    domain, _ = skeleton.init_hypercube(dim, *CUBE)
    schedule = model_mod.NeuronSchedule.for_model(net, include_output=True)
    sk = _load_skeleton_csv(out / "extract", dim, domain.m)
    if sk.t != len(schedule):
        return ["area check needs the extract command to include the output layer"]
    out_entry = schedule.output_entry(domain.m, 0)
    ref = geometry.area_divergence_2d(sk, out_entry, domain.m, net, domain, schedule)
    area = json.loads((out / "boundary" / "metrics.json").read_text())["area"]
    if abs(area - ref) > AREA_RTOL * abs(ref):
        return [f"area {area!r} differs from divergence-theorem area {ref!r}"]
    return []


def check_command(cmd, out, net):
    """Checks that hold for any seed; returns a list of problems."""
    problems = []
    if cmd == "extract":
        summary = json.loads((out / "extract" / "summary.json").read_text())
        for name, key in (("vertices.csv", "n_vertices"), ("edges.csv", "n_edges")):
            with open(out / "extract" / name) as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != summary[key]:
                problems.append(f"{name} has {rows} rows, summary.json {key} is {summary[key]}")
    elif cmd == "count":
        counts = json.loads((out / "count" / "counts.json").read_text())
        if counts["euler"] != 1:
            problems.append(f"euler {counts['euler']} != 1")
    elif cmd == "validate":
        doc = json.loads((out / "validate" / "validation.json").read_text())
        if doc["euler"] != 1:
            problems.append(f"euler {doc['euler']} != 1")
        if doc["midpoints"]["n_fail"] != 0:
            problems.append(f"{doc['midpoints']['n_fail']} midpoint failures")
        if not doc["sampled_subset_of_regions"]:
            problems.append("sampled regions are not a subset of the extracted regions")
    elif cmd == "boundary" and net.in_dim == 2:
        problems.extend(check_area_2d(net, out))
    return problems


def stats_metrics(stats_path, dim):
    """Exact counts and the split-ratio distribution from a stats.jsonl."""
    rows = [json.loads(line) for line in stats_path.read_text().splitlines()]
    split = np.array([r["n_splitting"] for r in rows], dtype=np.float64)
    before = np.array([r["edges_before"] for r in rows], dtype=np.float64)
    ratio = split * np.arange(1, len(rows) + 1) / (before * dim)
    return {
        "subdivide.iterations": len(rows),
        "subdivide.split_edges": int(split.sum()),
        "subdivide.new_edges": sum(r["n_intersecting"] for r in rows),
        "subdivide.split_frac": float(split.sum() / before.sum()),
        "subdivide.split_ratio_p50": float(np.median(ratio)),
        "subdivide.split_ratio_max": float(ratio.max()),
        "subdivide.split_ratio_over1": int(np.count_nonzero(ratio > 1.0)),
        "skeleton.mem_est_bytes": max(r["mem_bytes"] for r in rows),
    }


# -- session -------------------------------------------------------------------


def session(spec, seed, workdir, spawned, trace, setup_only):
    from relucomplex import cli, model as model_mod  # noqa: F401  (set-up covers the import)

    out = workdir / "out"
    out.mkdir(parents=True, exist_ok=True)
    net = make_model(spec, seed)
    model_path = out / "model.json"
    model_mod.save_model(net, model_path)
    result = {"setup_s": time.monotonic() - spawned, "numpy": np.__version__}
    result["calibration_s"] = calibrate()
    if setup_only:
        return result

    tracer = None
    if trace:
        from tracer import Tracer, layer_metrics, root_time

        tracer = Tracer()
        tracer.install()
    try:
        done = run_commands(spec, model_path, out, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # the host's speed around the commands: calibrated before and after them
    result["calibration_s"] = (result["calibration_s"] + calibrate()) / 2

    commands = []
    for cmd, code, seconds in done:
        entry = {"name": cmd, "exit": code, "seconds": seconds, "problems": [], "digests": {}}
        if code != 0:
            entry["problems"].append(f"exit code {code}")
        else:
            try:
                entry["digests"] = artifact_digests(out, cmd)
                entry["problems"].extend(check_command(cmd, out, net))
            except (OSError, ValueError, KeyError) as exc:
                entry["problems"].append(f"{type(exc).__name__}: {exc}")
        commands.append(entry)
    result["commands"] = commands

    if tracer is not None:
        tracer.write(workdir / "spans.jsonl")
        per_layer = layer_metrics(tracer.spans)
        extract = out / "extract" / "stats.jsonl"
        if extract.exists():
            per_layer.update(stats_metrics(extract, net.in_dim))
        per_layer["geometry.bytes_written"] = artifact_bytes(out, [c for c, code, _ in done if code == 0])
        result["per_layer"] = per_layer
        result["traced_root_s"] = root_time(tracer.spans)
        result["leftover_wrappers"] = tracer.leftover_wrappers()
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="session work directory")
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's time.monotonic() just before spawning")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workdir = Path(args.dir)
    result = session(json.loads(args.spec), args.seed, workdir, args.spawned,
                     args.trace, args.setup_only)
    with open(workdir / "result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
