"""Spans around the package's per-batch calls, recorded from outside.

`Tracer.install` replaces selected module functions and class methods of
`relucomplex` with wrappers that record one span per call: name, start,
end, parent span and run id, plus a few exact counts taken from the call's
arguments and result. Spans stay in memory until `write`. `restore` puts
every original attribute back. Only calls made once per batch or once per
subdivision iteration are wrapped; per-row helpers such as `sign_text` or
`cell_affine_map` are left alone so that tracing stays cheap.

`layer_metrics` turns the spans into the per-layer metrics: a layer's time
is the sum of its spans' self times (span time minus the time its child
spans cover), except `subdivide.extract_s`, which is inclusive.
"""

import importlib
import json
import time
from functools import wraps

# Every wrapped attribute and the self-time metric its spans add to. The
# mapping covers every wrapped span exactly once, so the self-time metrics
# (with the signvec ones split by caller) add up to the traced command time.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.cmd_extract": "cli.self_s",
    "cli.cmd_count": "cli.self_s",
    "cli.cmd_boundary": "cli.self_s",
    "cli.cmd_prune_model": "cli.self_s",
    "cli.cmd_validate": "cli.self_s",
    "model.batch_preactivations": "model.eval_s",
    "model.batch_preactivation": "model.eval_s",
    "model.layer_inputs": "model.eval_s",
    "subdivide.LayerValueCache.preactivation": "model.eval_s",
    "subdivide.LayerValueCache.extend": "model.eval_s",
    "subdivide.LayerValueCache.advance_to": "model.eval_s",
    "model.load_model": "model.io_s",
    "model.save_model": "model.io_s",
    "model.classify_neurons_on_boundary": "model.classify_s",
    "model.prune_stably_negative": "model.classify_s",
    "skeleton.Skeleton.append_sign_column": "skeleton.grow_cols_s",
    "skeleton.Skeleton.append_vertices": "skeleton.grow_rows_s",
    "skeleton.Skeleton.append_edges": "skeleton.grow_rows_s",
    "skeleton.compact": "skeleton.compact_s",
    "skeleton.check_invariants": "skeleton.compact_s",
    "subdivide.extract_complex": "subdivide.loop_self_s",
    "subdivide.subdivide_once": "subdivide.iter_self_s",
    "subdivide.pair_splitting_faces": "subdivide.pair_s",
    "subdivide.prune_future": "subdivide.prune_s",
    "signvec.perturb_rows": "signvec.perturb_s",
    "signvec.group_rows": "signvec.group_s",
    "poset.count_cells": "poset.count_s",
    "poset.region_signatures": "poset.regions_s",
    "poset.cellsets_from_skeleton": "poset.cells_s",
    "poset.build_parent_cells": "poset.cells_s",
    "geometry.boundary_subcomplex": "geometry.subcomplex_s",
    "geometry.assemble_faces": "geometry.faces_s",
    "geometry.area_perimeter_2d": "geometry.area_s",
    "geometry.export_csv": "geometry.csv_s",
    "geometry.export_svg": "geometry.svg_s",
    "geometry.export_obj": "geometry.obj_s",
    "validate.residuals": "validate.residuals_s",
    "validate.midpoint_check": "validate.midpoint_s",
    "validate.sampled_region_oracle": "validate.oracle_s",
}

# signvec time and rows are reported per caller: the nearest enclosing span
# outside signvec decides the bucket.
SIGNVEC_CALLERS = ("subdivide", "poset", "other")


def _rows(args, result):
    return {"rows": len(result)}


def _rows_first(args, result):
    return {"rows": len(result[0])}


def _extend_rows(args, result):
    return {"rows": len(args[1])}


def _sign_bytes(args, result):
    sk = args[0]
    return {"bytes": sk.vertex_signs.nbytes + sk.edge_signs.nbytes}


def _vertex_bytes(args, result):
    sk = args[0]
    return {"bytes": sk.positions.nbytes + sk.vertex_signs.nbytes + sk.vertex_alive.nbytes}


def _edge_bytes(args, result):
    sk = args[0]
    return {"bytes": sk.edges.nbytes + sk.edge_signs.nbytes + sk.edge_alive.nbytes}


def _compact_input(args, result):
    sk = args[0]
    return {
        "sign_bytes": sk.vertex_signs.nbytes + sk.edge_signs.nbytes,
        "edges_alive": sk.n_edges_alive,
        "edge_rows": sk.n_edges,
    }


def _pruned(args, result):
    return {"killed": result.edges_killed, "alive_after": result.edges_alive}


def _grouped(args, result):
    return {"rows_in": len(result[1]), "rows_out": len(result[0])}


def _advance_before(args):
    cache, layer = args[0], args[1]
    return cache.n_rows * max(0, layer - cache.layer)


# Exact counts taken after a call returns: name -> counter(args, result).
# Byte counts of the skeleton appends are computed from the array sizes the
# call leaves behind (each append rebuilds those arrays), not measured.
COUNTERS = {
    "model.batch_preactivations": _rows_first,
    "model.batch_preactivation": _rows,
    "model.layer_inputs": _rows,
    "subdivide.LayerValueCache.preactivation": _rows,
    "subdivide.LayerValueCache.extend": _extend_rows,
    "skeleton.Skeleton.append_sign_column": _sign_bytes,
    "skeleton.Skeleton.append_vertices": _vertex_bytes,
    "skeleton.Skeleton.append_edges": _edge_bytes,
    "skeleton.compact": _compact_input,
    "subdivide.prune_future": _pruned,
    "signvec.perturb_rows": _rows_first,
    "signvec.group_rows": _grouped,
}

# Counts that depend on state the call changes are taken before it runs.
PRE_COUNTERS = {"subdivide.LayerValueCache.advance_to": _advance_before}

PER_LAYER_TIMES = sorted(
    {m for m in SELF_TIME.values() if not m.startswith("signvec.")}
    | {f"{m}.{c}" for m in ("signvec.perturb_s", "signvec.group_s") for c in SIGNVEC_CALLERS}
    | {"subdivide.extract_s"}
)


def owner_of(name):
    """(module or class, attribute name) that a SELF_TIME name refers to."""
    module, *path = name.split(".")
    owner = importlib.import_module(f"relucomplex.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "counts")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.counts = None

    def to_json(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "counts": self.counts,
        }


class Tracer:
    """Wraps the attributes named in SELF_TIME; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._saved = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name in SELF_TIME:
            owner, attr = owner_of(name)
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(name, original))
            self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers():
        """Names whose attribute is still a tracing wrapper."""
        left = []
        for name in SELF_TIME:
            owner, attr = owner_of(name)
            if getattr(vars(owner)[attr], "__traced__", False):
                left.append(name)
        return left

    def _wrap(self, name, original):
        spans = self.spans
        stack = self._stack
        counter = COUNTERS.get(name)
        pre_counter = PRE_COUNTERS.get(name)
        clock = time.perf_counter

        @wraps(original)
        def traced(*args, **kwargs):
            pre = pre_counter(args) if pre_counter else None
            span = Span(name, 0.0, stack[-1] if stack else None, self.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter:
                span.counts = counter(args, result)
            elif pre is not None:
                span.counts = {"rows": pre}
            return result

        traced.__traced__ = True
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **span.to_json()}))
                fh.write("\n")


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _layer(name):
    return name.split(".", 1)[0]


def _caller(spans, span):
    """Bucket of the nearest enclosing span outside signvec."""
    while span.parent is not None:
        span = spans[span.parent]
        layer = _layer(span.name)
        if layer != "signvec":
            return layer if layer in SIGNVEC_CALLERS else "other"
    return "other"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics from one traced session's spans."""
    selfs = self_times(spans)
    out = {name: 0.0 for name in PER_LAYER_TIMES}
    grouped = {c: 0 for c in SIGNVEC_CALLERS}
    model_points = bytes_copied = 0
    sign_bytes = edges_alive = edge_rows = 0
    killed = prune_alive = 0
    poset_cand = poset_unique = 0
    last_child = {}
    for span, own in zip(spans, selfs):
        metric = SELF_TIME[span.name]
        counts = span.counts or {}
        if metric.startswith("signvec."):
            caller = _caller(spans, span)
            metric = f"{metric}.{caller}"
            if span.name == "signvec.group_rows":
                grouped[caller] += counts["rows_in"]
                prev = last_child.get(span.parent)
                # a group right after a perturb under poset dedups its candidates
                if (
                    caller == "poset"
                    and prev is not None
                    and prev.name == "signvec.perturb_rows"
                    and prev.counts["rows"] == counts["rows_in"]
                ):
                    poset_cand += counts["rows_in"]
                    poset_unique += counts["rows_out"]
        out[metric] += own
        if span.name == "subdivide.extract_complex":
            out["subdivide.extract_s"] += span.end - span.start
        if metric == "model.eval_s" and "rows" in counts:
            parent = spans[span.parent] if span.parent is not None else None
            if parent is None or SELF_TIME[parent.name] != "model.eval_s":
                model_points += counts["rows"]
        if span.name.startswith("skeleton.Skeleton.append"):
            bytes_copied += counts["bytes"]
        if span.name == "skeleton.compact":
            sign_bytes = max(sign_bytes, counts["sign_bytes"])
            edges_alive += counts["edges_alive"]
            edge_rows += counts["edge_rows"]
        if span.name == "subdivide.prune_future":
            killed += counts["killed"]
            prune_alive += counts["killed"] + counts["alive_after"]
        last_child[span.parent] = span
    out.update(
        {
            "model.points": model_points,
            "skeleton.bytes_copied": bytes_copied,
            "skeleton.sign_bytes": sign_bytes,
            "skeleton.alive_row_frac": _ratio(edges_alive, edge_rows),
            "subdivide.prune_kill_frac": _ratio(killed, prune_alive),
            "poset.unique_frac": _ratio(poset_unique, poset_cand),
        }
    )
    for caller, rows in grouped.items():
        out[f"signvec.rows_grouped.{caller}"] = rows
    return out


def root_time(spans):
    """Summed duration of the spans that have no parent."""
    return sum(s.end - s.start for s in spans if s.parent is None)
