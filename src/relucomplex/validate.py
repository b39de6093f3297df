"""Correctness oracles and numerical validation.

residuals: every zero in a vertex's sign-vector asserts incidence with a
facet or a folded hyperplane; the re-evaluated value there measures the
numerical error of the extraction. midpoint_check extends the same idea to
edge interiors. The brute-force oracles give independent ground truth at
desk scale.

residuals, midpoint_check and sampled_region_oracle evaluate BLOCK_ROWS
rows at a time, streaming each block through the net one layer at a time
(`model.stream_layers`), and run the blocks on `workers` threads (default:
one per available core). Each worker fills scratch buffers the caller
allocated for it, and the caller consumes the blocks in order. The model's
affine kernel gives every row the same result in any batch, so neither the
block size nor the worker count changes any output, only the memory and
time used.
"""

import collections
import functools
import itertools
import os
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


BLOCK_ROWS = 8192  # points per block in the oracles and residuals


def check_sample_count(n):
    """Raise ValueError unless n is a valid sample count."""
    if n < 0:
        raise ValueError(f"sample count must be >= 0, got {n}")


def check_tolerance(tol):
    """Raise ValueError unless tol is a valid midpoint tolerance (NaN is not)."""
    if not tol >= 0:
        raise ValueError(f"midpoint tolerance must be >= 0, got {tol}")


def worker_count(cap=None):
    """One worker per core this process may run on, at most `cap`."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, cap) if cap else cores)


def _map_blocks(block, n, workers, make_scratch):
    """Yield `block(start, stop, scratch)` for each block of at most
    BLOCK_ROWS of n rows, in order.

    Each of up to `workers` threads gets one `make_scratch()` made here, on
    the calling thread; block k uses scratch k % len(scratches), handed out
    again only once the caller has consumed block k - len(scratches). With
    one worker or one block, the blocks run inline. `block` must not call a
    function the benchmark tracer wraps: its span stack is not thread-safe.
    """
    blocks = [(start, min(start + BLOCK_ROWS, n)) for start in range(0, n, BLOCK_ROWS)]
    workers = workers or worker_count()
    scratches = [make_scratch() for _ in range(min(workers, len(blocks)))]
    if len(scratches) <= 1:
        for start, stop in blocks:
            yield block(start, stop, scratches[0])
        return
    # imported here: concurrent.futures loads logging, which `import
    # relucomplex` should not pay for
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(scratches)) as pool:
        pending = collections.deque()
        for k, (start, stop) in enumerate(blocks):
            if len(pending) == len(scratches):
                yield pending.popleft().result()
            pending.append(pool.submit(block, start, stop, scratches[k % len(scratches)]))
        while pending:
            yield pending.popleft().result()


def _scratch(model, schedule, rows, width):
    """A worker's buffers: `rows` int8 sign rows of `width`, and the two
    float buffers of `model.stream_layers`."""
    return np.empty((rows, width), dtype=np.int8), model_mod.stream_buffers(model, schedule, rows)


def residuals(sk, model, domain, schedule, workers=None):
    """Re-evaluate every zero entry of every alive vertex.

    Facet zeros score |w.x - b|, neuron zeros |pre-activation|. Aggregates
    come back per group (facets, then one group per layer). Vertices are
    evaluated in blocks of BLOCK_ROWS on `workers` threads; each block's
    picked values are kept in row order, and every max and mean is taken
    once over them. `schedule` is the one the skeleton was extracted with.
    """
    names = ["facets"] + [f"layer_{layer}" for layer, _, _ in model_mod.layer_columns(schedule)]
    av = sk.alive_vertex_ids()
    rows = min(len(av), BLOCK_ROWS)

    def block(start, stop, scratch):
        signs, buffers = scratch
        ids = av[start:stop]
        signs = np.take(sk.vertex_signs, ids, axis=0, out=signs[: len(ids)])
        zero = np.equal(signs, 0, out=signs.view(np.bool_))
        # the zero entries in row-major order, and the group each lies in
        row, col = np.nonzero(zero)
        pts = sk.positions[ids]
        picked = np.empty(len(row))
        group = np.zeros(len(row), dtype=np.intp)
        at = col < sk.m
        picked[at] = domain.facet_values(pts)[row[at], col[at]]
        stream = model_mod.stream_layers(model, pts, schedule, buffers)
        for g, (offset, values) in enumerate(stream, start=1):
            first = sk.m + offset
            at = (col >= first) & (col < first + values.shape[1])
            picked[at] = values[row[at], col[at] - first]
            group[at] = g
        return np.abs(picked, out=picked), group

    picked = [np.zeros(0)]
    group_picked = [[np.zeros(0)] for _ in names]
    scratch = functools.partial(_scratch, model, schedule, rows, sk.sign_width)
    for values, group in _map_blocks(block, len(av), workers, scratch):
        picked.append(values)
        for g, kept in enumerate(group_picked):
            kept.append(values[group == g])
    picked = np.concatenate(picked)
    by_group = {}
    for name, kept in zip(names, group_picked):
        values = np.concatenate(kept)
        if values.size:
            by_group[name] = {"max_abs": float(values.max()), "mean_abs": float(values.mean())}
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


def midpoint_check(sk, model, domain, tol, schedule, workers=None):
    """Evaluate every facet and processed neuron at each alive edge midpoint.

    Non-zero entries of the edge sign-vector must match the evaluated sign
    (exact zero counting as minus); zero entries must satisfy |value| <= tol.
    Edges are checked in blocks of BLOCK_ROWS on `workers` threads.
    `schedule` is the one the skeleton was extracted with.
    """
    check_tolerance(tol)
    ae = sk.alive_edge_ids()
    if len(ae) == 0:
        return MidpointReport(0, 0, 0, [], tol)
    rows = min(len(ae), BLOCK_ROWS)
    widest = max([sk.m] + [width for _, _, width in model_mod.layer_columns(schedule)])

    def scratch():
        flags = np.empty(rows * widest, dtype=bool), np.empty(rows * widest, dtype=bool)
        return (*_scratch(model, schedule, rows, sk.sign_width), flags)

    def block(start, stop, scratch):
        signs, buffers, flags = scratch
        ids = ae[start:stop]
        signs = sk.edge_signs_of(ids, out=signs[: len(ids)])
        mids = sk.positions[sk.edges[ids]].mean(axis=1)
        bad = np.zeros(len(ids), dtype=bool)
        stream = model_mod.stream_layers(model, mids, schedule, buffers)
        columns = itertools.chain(
            [(0, domain.facet_values(mids))], ((sk.m + off, vals) for off, vals in stream)
        )
        for first, values in columns:
            expect = signs[:, first : first + values.shape[1]]
            miss, zero = (f[: values.size].reshape(values.shape) for f in flags)
            # a non-zero entry must match the evaluated sign, zero counting as minus
            np.not_equal(
                np.greater(values, 0.0, out=miss), np.greater(expect, 0, out=zero), out=miss
            )
            # a zero entry must lie within tol of the hyperplane (NaN does not)
            r, c = np.nonzero(np.equal(expect, 0, out=zero))
            miss[r, c] = ~(np.abs(values[r, c]) <= tol)
            bad |= miss.any(axis=1)
        return bad

    edge_bad = np.concatenate(list(_map_blocks(block, len(ae), workers, scratch)))
    failed = [int(e) for e in ae[edge_bad]]
    return MidpointReport(len(ae), len(ae) - len(failed), len(failed), failed, tol)


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
    check_sample_count(n)
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


def sampled_region_oracle(model, domain, n, seed, schedule, workers=None):
    """Region signatures hit by n uniform samples; a one-sided oracle.

    Every returned signature must appear among the extracted regions, but
    thin regions may be missed, so coverage below 1 is expected. Samples are
    drawn and signed in blocks of BLOCK_ROWS on `workers` threads, and each
    block is merged, in order, into the distinct rows found so far, so
    memory does not grow with n beyond those rows and one block. Rows have
    one entry per facet and per neuron of `schedule`, as the extracted
    regions of that schedule do.
    """
    check_sample_count(n)
    m = domain.m
    width = m + len(schedule)
    rows = min(n, BLOCK_ROWS)

    def block(start, stop, scratch):
        signs, buffers = scratch
        pts = sample_domain(domain, stop - start, seed, start)
        signs = signs[: stop - start]
        pos = signs.view(np.bool_)
        np.greater(domain.facet_values(pts), 0.0, out=pos[:, :m])
        for offset, values in model_mod.stream_layers(model, pts, schedule, buffers):
            np.greater(values, 0.0, out=pos[:, m + offset : m + offset + values.shape[1]])
        # +1 where positive, else -1: an exact zero counts as minus, as in
        # signvec.signs_of_values
        signs *= np.int8(2)
        signs -= np.int8(1)
        return signs

    # the merge runs here, on the calling thread (the tracer wraps
    # group_rows), and copies the block out of its scratch before its reuse
    uniq = np.zeros((0, width), dtype=np.int8)
    scratch = functools.partial(_scratch, model, schedule, rows, width)
    for signs in _map_blocks(block, n, workers, scratch):
        uniq = signvec.group_rows(np.concatenate([uniq, signs]))[0]
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
