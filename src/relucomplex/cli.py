"""Command-line surface.

Exit codes: 0 success, 2 input error, 3 empty result (or truncated counts),
4 internal invariant violation.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import (
    __version__,
    geometry,
    model as model_mod,
    poset,
    signvec,
    skeleton as skeleton_mod,
    subdivide,
    validate as validate_mod,
)

SCHEMA_VERSIONS = {"model_json": 1, "exports": 1}

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_INVARIANT = 4


def _positive_int(text):
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser():
    # no abbreviations: a prefix that is unique today would change meaning
    # when a flag is added
    parser = argparse.ArgumentParser(
        prog="relucomplex",
        description="Extract the exact polyhedral complex of a ReLU network by edge subdivision.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="store_true", help="print version and schema versions")
    subparsers = parser.add_subparsers(dest="command")

    def add_parser(name, **kwargs):
        return subparsers.add_parser(name, allow_abbrev=False, **kwargs)

    def add_domain(p):
        g = p.add_argument_group("domain")
        g.add_argument("--domain", choices=["cube", "simplex"], default="cube")
        g.add_argument("--lo", type=float, default=-1.0, help="cube lower bound")
        g.add_argument("--hi", type=float, default=1.0, help="cube upper bound")
        g.add_argument("--scale", type=float, default=1.0, help="simplex scale")

    def add_common(p, level_set=False):
        """Model, domain, schedule and output flags; returns the schedule group."""
        g = p.add_argument_group("model")
        g.add_argument("--model", help="path to a model JSON file")
        g.add_argument("--random", metavar="IN,DEPTH,WIDTH,OUT",
                       help="generate a random model with these sizes")
        g.add_argument("--seed", type=int, default=0, help="seed for --random")
        add_domain(p)
        g = p.add_argument_group("schedule")
        if level_set:  # commands on an output's level set always include the output layer
            g.add_argument("--include-output", action="store_true", default=True,
                           help=argparse.SUPPRESS)
            g.add_argument("--output-index", type=int, default=0,
                           help="output neuron whose level set is used")
        else:
            g.add_argument("--include-output", action="store_true",
                           help="append output-layer neurons as folded hyperplanes")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", help="JSON file providing defaults for any flag")
        return g

    def add_level_set_prune(group):
        group.add_argument("--level-set-prune", action="store_true",
                           help="prune cells off the output's level set after each layer "
                                "(needs the output layer)")

    def add_threads(p):
        p.add_argument("--threads", type=_positive_int,
                       help="cap the validation workers; results are independent of it")

    p = add_parser("extract", help="extract the complex; write CSV exports and summary")
    add_level_set_prune(add_common(p))
    add_threads(p)
    p.add_argument("--stats", action="store_true", help="write per-iteration stats.jsonl")

    p = add_parser("count", help="count cells per dimension")
    add_common(p)
    p.add_argument("--up-to", type=int, default=None, help="highest dimension to count (default D)")
    p.add_argument("--max-cells", type=int, default=None,
                   help="stop (exit 3) once a dimension built by perturbation "
                        "(2 and up) has more than this many cells")

    p = add_parser("boundary", help="extract the output level set (SVG for D=2, OBJ for D=3)")
    add_level_set_prune(add_common(p, level_set=True))
    p.add_argument("--inside-positive", action="store_true",
                   help="treat positive output as the inside")

    p = add_parser("prune-model", help="drop stably-negative neurons; write pruned model")
    add_level_set_prune(add_common(p, level_set=True))

    p = add_parser("validate", help="residual and midpoint validation")
    add_common(p)
    add_threads(p)
    p.add_argument("--midpoint-tol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=100000,
                   help="sample count for the region containment check")

    p = add_parser("bench", help="seeded benchmark sweep over dims and widths")
    p.add_argument("--dims", default="1:3", help="input dimensions, e.g. 1:3 or 2,3")
    p.add_argument("--widths", default="10,20", help="comma-separated widths")
    p.add_argument("--depth", type=int, default=4, help="hidden layer count")
    p.add_argument("--seeds", type=int, default=2, help="seeds per configuration")
    add_domain(p)
    p.add_argument("--out", default="out")
    p.add_argument("--config", help="JSON file providing defaults for any flag")
    return parser


def _with_config(argv, path):
    """argv with the flags of the --config JSON at `path` put first, after
    the command, so that explicit flags win."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"--config {path}: expected a JSON object")
    flat = []
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                flat.append(flag)
        elif isinstance(value, (int, float, str)):
            flat.extend([flag, str(value)])
        else:
            raise ValueError(f"--config {path}: {key!r} must be a string, number or "
                             f"boolean, got {json.dumps(value)}")
    return argv[:1] + flat + argv[1:]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print(f"relucomplex {__version__}")
        for name, ver in SCHEMA_VERSIONS.items():
            print(f"schema {name} v{ver}")
        return EXIT_OK
    if args.command is None:
        parser.print_help()
        return EXIT_INPUT
    if args.config is not None:
        # argv[0] is the command: the top-level parser takes no other value
        try:
            argv = _with_config(argv, args.config)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        args = parser.parse_args(argv)

    try:
        handler = {
            "extract": cmd_extract,
            "count": cmd_count,
            "boundary": cmd_boundary,
            "prune-model": cmd_prune_model,
            "validate": cmd_validate,
            "bench": cmd_bench,
        }[args.command]
        return handler(args)
    except (model_mod.ModelFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except geometry.EmptyBoundaryError as exc:
        print(f"empty level set: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (subdivide.PairingError, skeleton_mod.SkeletonError, geometry.FaceAssemblyError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


# -- shared run plumbing --------------------------------------------------------


def _load_or_generate(args):
    if bool(args.model) == bool(args.random):
        raise ValueError("need exactly one of --model and --random")
    if args.model:
        return model_mod.load_model(args.model)
    parts = [int(v) for v in args.random.split(",")]
    if len(parts) != 4:
        raise ValueError("--random takes IN,DEPTH,WIDTH,OUT")
    return model_mod.random_model(*parts, seed=args.seed)


def _make_domain(args, dim):
    if args.domain == "cube":
        return skeleton_mod.init_hypercube(dim, args.lo, args.hi)
    return skeleton_mod.init_simplex(dim, args.scale)


def _prepare_extraction(args):
    """(model, domain, initial skeleton, schedule) of a command, with every
    flag checked."""
    level_set_prune = getattr(args, "level_set_prune", False)
    if level_set_prune and not args.include_output:  # extract without the output layer
        raise ValueError("--level-set-prune needs --include-output: it prunes to the "
                         "output's level set")
    net = _load_or_generate(args)
    # flag ranges that depend on the model, checked before paying for extraction
    up_to, max_cells = getattr(args, "up_to", None), getattr(args, "max_cells", None)
    if up_to is not None and not 0 <= up_to <= net.in_dim:
        raise ValueError(f"--up-to must be in 0..{net.in_dim}, got {up_to}")
    if max_cells is not None and max_cells < 0:
        raise ValueError(f"--max-cells must be >= 0, got {max_cells}")
    index = getattr(args, "output_index", 0)
    if not 0 <= index < net.out_dim:
        raise ValueError(f"--output-index must be in 0..{net.out_dim - 1}, got {index}")
    if args.command == "boundary" and net.in_dim not in (2, 3):
        raise ValueError(f"boundary export supports D = 2 and D = 3, got D = {net.in_dim}")
    if args.command == "boundary" and level_set_prune and net.in_dim == 2:
        raise ValueError("boundary --level-set-prune needs D = 3: the 2-D area sums whole "
                         "inside cells, and pruning cuts them")
    domain, sk = _make_domain(args, net.in_dim)
    schedule = model_mod.NeuronSchedule.for_model(net, include_output=args.include_output)
    return net, domain, sk, schedule


def _extract(args, net, domain, sk, schedule):
    """(skeleton, per-iteration stats, seconds) of the extraction."""
    t0 = time.perf_counter()
    sk, stats = subdivide.extract_complex(
        net,
        domain,
        sk,
        schedule,
        level_set_prune=getattr(args, "level_set_prune", False),
    )
    return sk, stats, time.perf_counter() - t0


def _run_extraction(args):
    net, domain, sk, schedule = _prepare_extraction(args)
    sk, stats, seconds = _extract(args, net, domain, sk, schedule)
    return net, domain, schedule, sk, stats, seconds


def _write_summary(outdir, net, domain, schedule, sk, stats, seconds, threads):
    report = validate_mod.residuals(sk, net, domain, schedule, validate_mod.worker_count(threads))
    summary = {
        "n_vertices": sk.n_vertices_alive,
        "n_edges": sk.n_edges_alive,
        "t": sk.t,
        "m": sk.m,
        "D": sk.dim,
        "timings": {
            "total_seconds": seconds,
            "per_iteration": [s.seconds for s in stats],
            # measured peak of this process so far (ru_maxrss is in KiB)
            "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        },
        "residual": report.to_json(),
        "degenerate_count": sk.degenerate_count,
    }
    _write_json(outdir / "summary.json", summary)


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_stats(outdir, stats):
    with open(outdir / "stats.jsonl", "w") as fh:
        for st in stats:
            fh.write(json.dumps(st.to_json()))
            fh.write("\n")


def _outdir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- commands -------------------------------------------------------------------


def cmd_extract(args):
    net, domain, schedule, sk, stats, seconds = _run_extraction(args)
    if args.level_set_prune:
        # pruned to the output's level set, the complex is empty when no vertex lies on it
        outputs = sk.vertex_signs[sk.alive_vertex_ids(), schedule.output_entry(sk.m) :]
        if not np.any(outputs == 0):
            raise geometry.EmptyBoundaryError("no alive vertex lies on the output's level set")
    out = _outdir(args)
    geometry.export_csv(sk, out)
    _write_summary(out, net, domain, schedule, sk, stats, seconds, args.threads)
    if args.stats:
        _write_stats(out, stats)
    print(f"extracted {sk.n_vertices_alive} vertices, {sk.n_edges_alive} edges "
          f"in {seconds:.3f}s -> {out}")
    return EXIT_OK


def cmd_count(args):
    net, domain, schedule, sk, stats, seconds = _run_extraction(args)
    up_to = args.up_to if args.up_to is not None else sk.dim
    out = _outdir(args)
    truncated = False
    try:
        counts = poset.count_cells(sk, sk.m, up_to, max_cells=args.max_cells)
    except poset.CountBudgetError as exc:
        counts = exc.partial_counts
        truncated = True
    doc = {"dims": counts, "euler": poset.euler_characteristic(counts) if not truncated else None}
    if up_to == sk.dim and not truncated:
        doc["regions"] = counts[-1]
    if truncated:
        doc["truncated"] = True
    _write_json(out / "counts.json", doc)
    print(f"counts {counts}" + (" (truncated)" if truncated else ""))
    return EXIT_EMPTY if truncated else EXIT_OK


def cmd_boundary(args):
    net, domain, schedule, sk, stats, seconds = _run_extraction(args)
    out_entry = schedule.output_entry(sk.m, args.output_index)
    mesh = geometry.boundary_subcomplex(sk, out_entry)
    if mesh.n_vertices == 0:
        raise geometry.EmptyBoundaryError("no cells on the requested level set")
    out = _outdir(args)
    inside = 1 if args.inside_positive else -1
    metrics = {"n_vertices": mesh.n_vertices, "n_edges": mesh.n_edges}
    if sk.dim == 2:
        shape = geometry.area_perimeter_2d(sk, out_entry, sk.m, inside_sign=inside)
        metrics.update(
            {"area": shape.area, "perimeter": shape.perimeter,
             "compactness": shape.compactness}
        )
        cube = domain.kind == "hypercube"
        box = ([domain.meta["lo"]] * 2, [domain.meta["hi"]] * 2) if cube else None
        geometry.export_svg(sk, out / "boundary.svg", out_entry, box=box)
        artifact = "boundary.svg"
    else:
        geometry.assemble_faces(mesh, sk, sk.m, net, schedule, inside_sign=inside)
        metrics["n_faces"] = len(mesh.faces)
        geometry.export_obj(mesh, out / "boundary.obj")
        artifact = "boundary.obj"
    _write_json(out / "metrics.json", metrics)
    print(f"boundary: {mesh.n_vertices} vertices, {mesh.n_edges} edges -> {out / artifact}")
    return EXIT_OK


def cmd_prune_model(args):
    net, domain, schedule, sk, stats, seconds = _run_extraction(args)
    out_entry = schedule.output_entry(sk.m, args.output_index)
    mesh = geometry.boundary_subcomplex(sk, out_entry)
    if mesh.n_vertices == 0:
        raise geometry.EmptyBoundaryError("no boundary vertices to classify against")
    labels = model_mod.classify_neurons_on_boundary(net, mesh.positions)
    pruned = model_mod.prune_stably_negative(net, labels)
    out = _outdir(args)
    model_mod.save_model(pruned, out / "pruned_model.json")
    report = {
        "labels": {
            f"{nref.layer}:{nref.index}": label for nref, label in sorted(labels.items())
        },
        "widths_before": list(net.widths),
        "widths_after": list(pruned.widths),
        "parameters_before": net.parameter_count(),
        "parameters_after": pruned.parameter_count(),
    }
    _write_json(out / "prune_report.json", report)
    print(f"pruned {net.parameter_count()} -> {pruned.parameter_count()} parameters")
    return EXIT_OK


def cmd_validate(args):
    # reject bad inputs before paying for the extraction or starting a thread
    validate_mod.check_sample_count(args.samples)
    validate_mod.check_tolerance(args.midpoint_tol)
    net, domain, sk, schedule = _prepare_extraction(args)
    workers = validate_mod.worker_count(args.threads)
    # the region oracle reads nothing extracted: with a second worker, one
    # background thread signs its samples while this one extracts and checks
    with validate_mod.RegionOracle(
        net, domain, args.samples, args.seed, schedule, workers
    ) as oracle:
        sk, stats, seconds = _extract(args, net, domain, sk, schedule)
        rest = max(1, workers - 1)
        res = validate_mod.residuals(sk, net, domain, schedule, rest)
        mid = validate_mod.midpoint_check(sk, net, domain, args.midpoint_tol, schedule, rest)
        sampled = validate_mod.sampled_region_oracle(
            net, domain, args.samples, args.seed, schedule, workers, oracle
        )
    # run after the oracle (the command's memory peak): the regions are not held through it
    counts, regions = poset.cells_up_to(sk, sk.m, sk.dim)
    # both are deduplicated: sampled is a subset iff the union adds nothing
    union, _, _ = signvec.group_rows(np.concatenate([regions, sampled]))
    doc = {
        "residuals": res.to_json(),
        "midpoints": mid.to_json(),
        "counts": counts,
        "euler": poset.euler_characteristic(counts),
        "regions": len(regions),
        "sampled_regions": len(sampled),
        "sampled_subset_of_regions": len(union) == len(regions),
        "coverage": len(sampled) / len(regions) if len(regions) else None,
    }
    out = _outdir(args)
    _write_json(out / "validation.json", doc)
    ok = mid.n_fail == 0 and doc["sampled_subset_of_regions"] and doc["euler"] == 1
    print(f"validation {'PASS' if ok else 'FAIL'}: max residual {res.max_abs:.3e}, "
          f"midpoints {mid.n_pass}/{mid.n_edges}, euler {doc['euler']}")
    return EXIT_OK if ok else EXIT_INVARIANT


def _parse_dims(text):
    if ":" in text:
        a, b = text.split(":")
        return list(range(int(a), int(b) + 1))
    return [int(v) for v in text.split(",")]


def cmd_bench(args):
    dims = _parse_dims(args.dims)
    widths = [int(w) for w in args.widths.split(",")]
    n_runs = len(dims) * len(widths) * max(args.seeds, 0)
    if n_runs < 2:  # checked before paying for extraction
        raise ValueError(f"need at least two runs to fit a slope, got {n_runs}")
    out = _outdir(args)
    rows = []
    runs = []
    for dim in dims:
        for width in widths:
            for seed in range(args.seeds):
                net = model_mod.random_model(dim, args.depth, width, 1, seed)
                domain, sk = _make_domain(args, dim)
                schedule = model_mod.NeuronSchedule.for_model(net)
                t0 = time.perf_counter()
                sk, stats = subdivide.extract_complex(net, domain, sk, schedule)
                seconds = time.perf_counter() - t0
                mem = max(s.mem_bytes for s in stats) if stats else sk.nbytes()
                rows.append(
                    (dim, width, seed, sk.n_vertices_alive, sk.n_edges_alive, seconds, mem)
                )
                runs.append((sk.n_vertices_alive, seconds))
    with open(out / "bench.csv", "w") as fh:
        fh.write("dim,width,seed,n_vertices,n_edges,seconds,mem_bytes\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    report = validate_mod.scaling_report(runs)
    _write_json(out / "bench_summary.json", report.to_json())
    print(f"{len(rows)} runs -> {out / 'bench.csv'}; "
          f"log-log slope {report.slope:.3f} (rms {report.rms_residual:.3f})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
