"""Correctness oracles and numerical validation.

residuals: every zero in a vertex's sign-vector asserts incidence with a
facet or a folded hyperplane; the re-evaluated value there measures the
numerical error of the extraction. midpoint_check extends the same idea to
edge interiors. The brute-force oracles give independent ground truth at
desk scale.

midpoint_check and sampled_region_oracle evaluate BLOCK_ROWS rows at a
time. The model's affine kernel gives every row the same result in any
batch, so the block size changes no output, only the memory used.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import _rng
from . import model as model_mod
from . import signvec


@dataclass
class ResidualReport:
    max_abs: float
    mean_abs: float
    by_group: dict
    extent: float
    degenerate_count: int
    n_vertices: int
    n_checks: int

    def to_json(self):
        return {
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "by_group": self.by_group,
            "extent": self.extent,
            "relative_max": self.max_abs / self.extent if self.extent else None,
            "degenerate_count": self.degenerate_count,
            "n_vertices": self.n_vertices,
            "n_checks": self.n_checks,
        }


BLOCK_ROWS = 8192  # points per block in the sampled and midpoint oracles


def _row_blocks(n):
    """(start, stop) of consecutive blocks of at most BLOCK_ROWS rows."""
    for start in range(0, n, BLOCK_ROWS):
        yield start, min(start + BLOCK_ROWS, n)


def _layer_columns(schedule):
    """(layer, columns, width) per layer, in schedule order (layer-major).

    `columns` selects the layer's scheduled neurons from its pre-activation
    matrix: a slice when they are contiguous (every default schedule and
    prefix), so reading them makes no copy, else an index array.
    """
    layers = {}
    for nr in schedule:
        layers.setdefault(nr.layer, []).append(nr.index)
    out = []
    for layer, idx in layers.items():
        first = idx[0]
        if idx == list(range(first, first + len(idx))):
            out.append((layer, slice(first, first + len(idx)), len(idx)))
        else:
            out.append((layer, np.array(idx, dtype=np.intp), len(idx)))
    return out


def _scheduled_values(model, points, schedule):
    """(n, len(schedule)) pre-activation matrix in schedule order."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(schedule) == 0:
        return np.zeros((len(points), 0))
    pres = model_mod.batch_preactivations(model, points)
    return np.concatenate(
        [pres[layer - 1][:, cols] for layer, cols, _ in _layer_columns(schedule)], axis=1
    )


def residuals(sk, model, domain, schedule=None):
    """Re-evaluate every zero entry of every alive vertex.

    Facet zeros score |w.x - b|, neuron zeros |pre-activation|. Aggregates
    come back per group (facets, then one group per layer).
    """
    if schedule is None:
        schedule = model_mod.infer_schedule(model, sk.t)
    av = sk.alive_vertex_ids()
    pts = sk.positions[av]
    rows = sk.vertex_signs[av]
    facet_vals = np.abs(domain.facet_values(pts))
    neuron_vals = np.abs(_scheduled_values(model, pts, schedule))
    allvals = np.concatenate([facet_vals, neuron_vals], axis=1)
    mask = rows == 0
    picked = allvals[mask]
    by_group = {}
    facet_mask = mask[:, : sk.m]
    if facet_mask.any():
        fv = facet_vals[facet_mask]
        by_group["facets"] = {"max_abs": float(fv.max()), "mean_abs": float(fv.mean())}
    col = sk.m
    for layer, _, width in _layer_columns(schedule):
        cols = slice(col, col + width)
        col += width
        lm = mask[:, cols]
        if lm.any():
            lv = allvals[:, cols][lm]
            by_group[f"layer_{layer}"] = {
                "max_abs": float(lv.max()),
                "mean_abs": float(lv.mean()),
            }
    return ResidualReport(
        float(picked.max()) if picked.size else 0.0,
        float(picked.mean()) if picked.size else 0.0,
        by_group,
        domain.extent,
        sk.degenerate_count,
        len(av),
        int(picked.size),
    )


@dataclass
class MidpointReport:
    n_edges: int
    n_pass: int
    n_fail: int
    failed_edges: list
    tol: float

    def to_json(self):
        return {
            "n_edges": self.n_edges,
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "failed_edges": self.failed_edges[:100],
            "tol": self.tol,
        }


def midpoint_check(sk, model, domain, tol=1e-8, schedule=None):
    """Evaluate every facet and processed neuron at each alive edge midpoint.

    Non-zero entries of the edge sign-vector must match the evaluated sign
    (exact zero counting as minus); zero entries must satisfy |value| <= tol.
    Edges are checked in blocks of BLOCK_ROWS.
    """
    if not tol >= 0:
        raise ValueError(f"midpoint tolerance must be >= 0, got {tol}")
    if schedule is None:
        schedule = model_mod.infer_schedule(model, sk.t)
    ae = sk.alive_edge_ids()
    if len(ae) == 0:
        return MidpointReport(0, 0, 0, [], tol)
    edge_ok = np.empty(len(ae), dtype=bool)
    for start, stop in _row_blocks(len(ae)):
        ids = ae[start:stop]
        mids = sk.positions[sk.edges[ids]].mean(axis=1)
        vals = np.concatenate(
            [domain.facet_values(mids), _scheduled_values(model, mids, schedule)], axis=1
        )
        rows = sk.edge_signs[ids]
        ok = np.where(rows == 0, np.abs(vals) <= tol, (vals > 0.0) == (rows > 0))
        edge_ok[start:stop] = ok.all(axis=1)
    failed = [int(e) for e in ae[~edge_ok]]
    return MidpointReport(len(ae), int(edge_ok.sum()), len(failed), failed, tol)


def oracle_single_layer_vertices(model, domain, cond_limit=1e12):
    """Brute-force vertex enumeration for a single-hidden-layer schedule.

    First-layer neurons are plain affine hyperplanes; every size-D subset of
    (hyperplanes + facets) is solved exactly and kept if it lies in the
    closed domain with no extra incidences. Returns (positions, sign rows)
    with facet entries first. Intended for desk scale only.
    """
    dim = domain.dim
    m = domain.m
    w1 = model.layers[0].weights
    b1 = model.layers[0].bias
    k = w1.shape[0]
    # rows: facets as w.x = b, neurons as w.x = -b
    normals = np.concatenate([domain.normals, w1], axis=0)
    rhs = np.concatenate([domain.offsets, -b1])
    tol = 1e-9 * max(1.0, domain.extent)
    positions = []
    signs = []
    n_degenerate = 0
    for combo in itertools.combinations(range(m + k), dim):
        mat = normals[list(combo)]
        try:
            if np.linalg.cond(mat) > cond_limit:
                n_degenerate += 1
                continue
            x = np.linalg.solve(mat, rhs[list(combo)])
        except np.linalg.LinAlgError:
            continue
        values = normals @ x - rhs
        chosen = np.zeros(m + k, dtype=bool)
        chosen[list(combo)] = True
        if np.any(values[: m][~chosen[:m]] < -tol):
            continue
        if np.any(np.abs(values[~chosen]) < tol):
            n_degenerate += 1
            continue
        row = np.where(values > 0.0, 1, -1).astype(np.int8)
        row[chosen] = 0
        positions.append(x)
        signs.append(row)
    if positions:
        pos = np.array(positions)
        rows = np.array(signs, dtype=np.int8)
    else:
        pos = np.zeros((0, dim))
        rows = np.zeros((0, m + k), dtype=np.int8)
    return pos, rows


def match_point_sets(a, b, tol):
    """Greedy-free exact matching: every point of `a` has a point of `b`
    within `tol` per coordinate and vice versa, with equal counts."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if len(a) != len(b):
        return False
    if len(a) == 0:
        return True
    d = np.max(np.abs(a[:, None, :] - b[None, :, :]), axis=2)
    close = d <= tol
    return bool(np.all(close.any(axis=1)) and np.all(close.any(axis=0)))


def sample_domain(domain, n, seed, start=0):
    """n deterministic uniform samples from the domain interior.

    They are rows start..start+n-1 of one fixed sequence per (domain, seed),
    so consecutive calls can produce it block by block.
    """
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if start < 0:
        raise ValueError(f"sample start must be >= 0, got {start}")
    dim = domain.dim
    if domain.kind == "hypercube":
        lo, hi = domain.meta["lo"], domain.meta["hi"]
        key = _rng.stream_key(seed, 101)
        u = _rng.uniform_open(key, n * dim, start * dim).reshape(n, dim)
        return lo + (hi - lo) * u
    if domain.kind == "simplex":
        # Dirichlet(1,...,1) over the solid simplex via exponential spacings
        scale = domain.meta["scale"]
        key = _rng.stream_key(seed, 103)
        u = _rng.uniform_open(key, n * (dim + 1), start * (dim + 1)).reshape(n, dim + 1)
        e = -np.log(u)
        y = e[:, :dim] / e.sum(axis=1, keepdims=True) * (2 * dim * scale)
        return y - scale
    raise ValueError(f"cannot sample domain kind {domain.kind!r}")


def sampled_region_oracle(model, domain, n, seed, schedule=None):
    """Region signatures hit by n uniform samples; a one-sided oracle.

    Every returned signature must appear among the extracted regions, but
    thin regions may be missed, so coverage below 1 is expected. Samples are
    drawn, signed and deduplicated in blocks of BLOCK_ROWS, so memory does
    not grow with n beyond the distinct rows each block keeps.
    """
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")
    if schedule is None:
        schedule = model_mod.NeuronSchedule.for_model(model, include_output=False)
    m = domain.m
    layers = _layer_columns(schedule)
    pos = np.empty((min(n, BLOCK_ROWS), m + len(schedule)), dtype=bool)
    kept = [np.zeros((0, pos.shape[1]), dtype=np.int8)]
    for start, stop in _row_blocks(n):
        pts = sample_domain(domain, stop - start, seed, start)
        block = pos[: stop - start]
        np.greater(domain.facet_values(pts), 0.0, out=block[:, :m])
        if layers:
            pres = model_mod.batch_preactivations(model, pts)
            col = m
            for layer, cols, width in layers:
                np.greater(pres[layer - 1][:, cols], 0.0, out=block[:, col : col + width])
                col += width
        # +1 where positive, else -1: an exact zero counts as minus, as in
        # signvec.signs_of_values
        rows = block.view(np.int8) * np.int8(2) - np.int8(1)
        kept.append(signvec.group_rows(rows)[0])
    uniq, _, _ = signvec.group_rows(np.concatenate(kept))
    return uniq


@dataclass
class ScalingReport:
    slope: float
    intercept: float
    rms_residual: float
    points: list

    def to_json(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "rms_residual": self.rms_residual,
            "points": self.points,
        }


def scaling_report(runs):
    """Least-squares slope of log(total time) against log(final vertices).

    `runs` is a list of per-run IterationStats sequences (or precomputed
    (n_vertices, seconds) pairs).
    """
    points = []
    for run in runs:
        if isinstance(run, tuple):
            nv, secs = run
        else:
            run = list(run)
            nv = run[-1].vertices_after
            secs = sum(s.seconds for s in run)
        points.append((int(nv), float(secs)))
    if len(points) < 2:
        raise ValueError("need at least two runs to fit a slope")
    x = np.log10([p[0] for p in points])
    y = np.log10([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return ScalingReport(
        float(slope), float(intercept), float(np.sqrt(np.mean(resid**2))), points
    )


def split_bound_ratios(stats, dim, factor=4):
    """(i, r_i) for iterations i > factor*D, r_i = n_splitting*i / (|E|*D).

    r_i < 1 is the splitting-edge bound |E^| < |E|*D/i. It is an
    average-case estimate: a run's mean r_i stays below 1 while single
    neurons may exceed it.
    """
    return [
        (i, st.n_splitting * i / (st.edges_before * dim))
        for i, st in enumerate(stats, start=1)
        if i > factor * dim
    ]


def split_bound_violations(stats, dim, factor=4):
    """Iterations i > factor*D whose r_i >= 1 (see `split_bound_ratios`).

    These are per-iteration excursions above an average-case bound, to be
    reported, not a failure of the extraction.
    """
    return [i for i, r in split_bound_ratios(stats, dim, factor) if r >= 1]
