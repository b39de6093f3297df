"""Correctness oracles and numerical validation.

residuals: every zero in a vertex's sign-vector asserts incidence with a
facet or a folded hyperplane; the re-evaluated value there measures the
numerical error of the extraction. midpoint_check extends the same idea to
edge interiors. The brute-force oracles give independent ground truth at
desk scale.

residuals, midpoint_check and sampled_region_oracle cut their rows into
blocks of at most BLOCK_ROWS, equal to within one row and as many as keep
every worker busy (`_block_count`), and stream each block through the net
one layer at a time; residuals stops each vertex's walk at the layer of
its deepest zero. One runner takes the blocks (`_Blocks`): the calling
thread and the background threads started when the runner is made, one
for each worker after the first (default: one worker per available core),
take a block at a time from one counter, each in scratch buffers the
calling thread made for it, and the results come back in block order. The
model's affine kernel gives every row the same result in any batch, so
neither the block size, nor the worker count, nor which consumer took
which block, nor how deep a row is walked changes any output, only the
memory and time used.

The region oracle reads nothing extracted, so `validate` starts its runner
before the extraction (`RegionOracle`), with one background thread at
most. With more than one worker, that thread takes blocks while the
calling thread extracts, then runs residuals and midpoint_check on the
other workers; the calling thread then takes what is left in
`sampled_region_oracle` and joins the thread. With one worker no thread
starts, and the calling thread takes every block there, after the other
checks. Each consumer merges its block's distinct packed rows into one
set, so the oracle's memory is one block per consumer plus the distinct
rows.

The oracle's background thread costs the calling thread time even on a
free core: it needs the interpreter lock between its numpy calls, and the
calling thread hands the lock over each time. `model._gemm` therefore
multiplies each layer of a block in at most two calls. On the `wide2d`
seed-0 net, on two cores, the extraction takes 10-21 ms longer beside the
background thread than alone. About 6 ms of that is waiting for the lock
(wall minus thread CPU time), and the rest is its own CPU time growing
while the other thread runs.

The region oracle reads only signs, so it signs on the BLAS kernel and
proves each sign against the reference kernel (`model.certified_signs`),
recomputing the rows it cannot prove. midpoint_check reads only verdicts,
so it judges on the BLAS kernel too and proves each verdict the same way
(`model.mark_unproven`), judging again on the reference kernel the rows it
cannot prove. residuals report values, so they stay on the reference
kernel.
"""

import functools
import itertools
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _rng
from . import model as model_mod


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


def _block_count(n, workers):
    """How many blocks n rows are cut into: ceil(n / BLOCK_ROWS), rounded up
    to a multiple of `workers` as long as every block keeps BLOCK_ROWS // 4
    rows. Block k holds rows k * n // count up to (k + 1) * n // count, so
    the sizes differ by at most one."""
    count = -(-n // BLOCK_ROWS)
    spread = -(-count // workers) * workers
    if count and n // spread >= max(1, BLOCK_ROWS // 4):
        count = spread
    return count


class _Blocks:
    """`work(start, stop, scratch)` over each block of n rows (`_block_count`),
    taken by the calling thread in `results` and by `threads` background
    threads (default: workers - 1, and no more than one per block after the
    first) from the moment this is made.

    Consumers take one block at a time, from a counter under one lock, and
    each works in one `make_scratch(rows)` for the largest block, made on
    the calling thread. `results` returns every block's result in block
    order and raises again what a background thread raised; `close`, also
    run on leaving a `with` block, stops the threads before their next block
    and joins them. On a background thread `work` must not call a function
    the benchmark tracer wraps: its span stack is not thread-safe.
    """

    def __init__(self, work, n, workers, make_scratch, threads=None):
        workers = workers or worker_count()
        self._work, self._n, self._count = work, n, _block_count(n, workers)
        self._scratch = functools.partial(make_scratch, -(-n // max(1, self._count)))
        self._lock = threading.Lock()
        self._next, self._stopped, self._error, self._results = 0, False, None, {}
        threads = min(workers - 1 if threads is None else threads, workers - 1, self._count - 1)
        self._threads = [
            threading.Thread(
                target=self._background, args=(self._scratch(),), name="validate-blocks"
            )
            for _ in range(threads)
        ]
        for thread in self._threads:
            thread.start()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _take(self):
        """The next block as (k, start, stop); None once every block is
        taken or the consumers are stopped."""
        with self._lock:
            if self._stopped or self._next == self._count:
                return None
            k = self._next
            self._next += 1
        return k, k * self._n // self._count, (k + 1) * self._n // self._count

    def _drain(self, scratch):
        while (block := self._take()) is not None:
            k, start, stop = block
            self._results[k] = self._work(start, stop, scratch)

    def _background(self, scratch):
        try:
            self._drain(scratch)
        except BaseException as exc:  # raised again by `results`
            with self._lock:  # no consumer takes another block
                self._stopped = True
                self._error = self._error or exc

    def close(self):
        """Stop the background threads after their current blocks and join them."""
        with self._lock:
            self._stopped = True
        for thread in self._threads:
            thread.join()

    def results(self):
        """Take the blocks left on the calling thread, join the background
        threads and return every block's result in block order."""
        try:
            self._drain(self._scratch())
        finally:
            self.close()
        if self._error is not None:
            raise self._error
        return [self._results[k] for k in range(self._count)]


def _check_covers(sk, schedule):
    """Raise ValueError unless `schedule` has one neuron per sign column of
    `sk` after its facet columns."""
    if sk.sign_width != sk.m + len(schedule):
        raise ValueError(
            f"skeleton sign width {sk.sign_width} does not match the {sk.m} facets "
            f"plus the schedule's {len(schedule)} neurons ({sk.m + len(schedule)})"
        )


def _scratch(model, schedule, width, rows):
    """A worker's buffers: `rows` int8 sign rows of `width`, and the two
    float buffers of `model.stream_layers`."""
    return np.empty((rows, width), dtype=np.int8), model_mod.stream_buffers(model, schedule, rows)


def residuals(sk, model, domain, schedule, workers=None):
    """Re-evaluate every zero entry of every alive vertex.

    Facet zeros score |w.x - b|, neuron zeros |pre-activation|. Aggregates
    come back per group (facets, then one group per layer). Vertices are
    evaluated in blocks of at most BLOCK_ROWS on `workers` threads. A
    vertex's zeros lie in the layer that made it or an earlier one, so
    within a block the rows are bucketed by the group of their deepest zero,
    and each bucket streams through the schedule's neurons up to that
    layer only; rows with facet zeros alone are not walked. The kernel is
    row-stable, so the values are those of a walk through every layer. Each
    block's picked values are kept in the row-major order of its zeros, and
    every max and mean is taken once over them. `schedule` is the one the
    skeleton was extracted with; ValueError if it does not cover the sign
    width.
    """
    _check_covers(sk, schedule)
    layers = model_mod.layer_columns(schedule)
    names = ["facets"] + [f"layer_{layer}" for layer, _, _ in layers]
    widths = [sk.m] + [width for _, _, width in layers]
    group_of_col = np.repeat(np.arange(len(widths)), widths)
    # the schedule up to the end of each group: layer-major, so its layers'
    # offsets are those of the whole schedule
    neurons = tuple(schedule)
    prefixes = [neurons[: end - sk.m] for end in np.cumsum(widths)]
    av = sk.alive_vertex_ids()

    def block(start, stop, scratch):
        signs, buffers = scratch
        ids = av[start:stop]
        signs = signs[: len(ids)]
        signs[:] = sk.vertex_signs[ids]
        zero = np.equal(signs, 0, out=signs.view(np.bool_))
        # the zero entries in row-major order, and the group each lies in
        # (flat indices: a 2-D np.nonzero takes several times as long)
        row, col = np.divmod(np.flatnonzero(zero), zero.shape[1])
        group = group_of_col[col]
        # each row's deepest group: that of its last zero
        last = np.ones(len(row), dtype=bool)
        last[:-1] = row[1:] != row[:-1]
        deepest = np.zeros(len(ids), dtype=np.intp)
        deepest[row[last]] = group[last]
        pts = sk.positions[ids]
        picked = np.empty(len(row))
        at = group == 0
        picked[at] = domain.facet_values(pts)[row[at], col[at]]
        bucket_of_zero = deepest[row]
        for g in np.unique(deepest[deepest > 0]):
            rows = np.flatnonzero(deepest == g)
            zeros = np.flatnonzero(bucket_of_zero == g)
            within = np.searchsorted(rows, row[zeros])
            stream = model_mod.stream_layers(model, pts[rows], prefixes[g], buffers)
            for h, (offset, values) in enumerate(stream, start=1):
                at = group[zeros] == h
                picked[zeros[at]] = values[within[at], col[zeros[at]] - sk.m - offset]
        return np.abs(picked, out=picked), group

    picked = [np.zeros(0)]
    group_picked = [[np.zeros(0)] for _ in names]
    scratch = functools.partial(_scratch, model, schedule, sk.sign_width)
    for values, group in _Blocks(block, len(av), workers, scratch).results():
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


def _failing(expect, values, tol, flags):
    """Bool per row: whether a verdict fails. A non-zero entry of `expect`
    must match the sign of `values` (an exact zero counting as minus), a
    zero entry must satisfy |value| <= tol (NaN does not). `flags` are two
    bool buffers of at least `values.size` entries."""
    miss, zero = (f[: values.size].reshape(values.shape) for f in flags)
    np.not_equal(np.greater(values, 0.0, out=miss), np.greater(expect, 0, out=zero), out=miss)
    # flat indices: a 2-D np.nonzero takes ten times as long
    r, c = np.divmod(np.flatnonzero(np.equal(expect, 0, out=zero)), values.shape[1])
    miss[r, c] = ~(np.abs(values[r, c]) <= tol)
    return miss.any(axis=1)


def midpoint_check(sk, model, domain, tol, schedule, workers=None):
    """Evaluate every facet and processed neuron at each alive edge midpoint.

    Non-zero entries of the edge sign-vector must match the evaluated sign
    (exact zero counting as minus); zero entries must satisfy |value| <= tol.
    Edges are checked in blocks of at most BLOCK_ROWS on `workers` threads.
    The neurons are judged on the BLAS walk (`model.bounded_layers`), and
    every verdict is proven equal to the reference kernel's
    (`model.mark_unproven`); a row holding one that is not is judged again
    on the reference kernel, so the report is the reference kernel's alone.
    `schedule` is the one the skeleton was extracted with; ValueError if it
    does not cover the sign width.
    """
    check_tolerance(tol)
    _check_covers(sk, schedule)
    ae = sk.alive_edge_ids()
    if len(ae) == 0:
        return MidpointReport(0, 0, 0, [], tol)
    widest = max([sk.m] + [width for _, _, width in model_mod.layer_columns(schedule)])

    def scratch(rows):
        flags = np.empty(rows * widest, dtype=bool), np.empty(rows * widest, dtype=bool)
        return (*_scratch(model, schedule, sk.sign_width, rows), flags)

    def block(start, stop, scratch):
        signs, buffers, flags = scratch
        ids = ae[start:stop]
        signs = sk.edge_signs_of(ids, out=signs[: len(ids)])
        mids = sk.positions[sk.edges[ids]].mean(axis=1)
        bad = _failing(signs[:, : sk.m], domain.facet_values(mids), tol, flags)
        judged = np.zeros(len(ids), dtype=bool)
        unsure = np.zeros(len(ids), dtype=bool)
        for offset, values, size, bound in model_mod.bounded_layers(model, mids, schedule, buffers):
            expect = signs[:, sk.m + offset : sk.m + offset + values.shape[1]]
            judged |= _failing(expect, values, tol, flags)
            model_mod.mark_unproven(size, bound, unsure, expect == 0, tol)
        rows = np.flatnonzero(unsure)
        if len(rows):
            judged[rows] = False
            for offset, values in model_mod.stream_layers(model, mids[rows], schedule, buffers):
                expect = signs[rows, sk.m + offset : sk.m + offset + values.shape[1]]
                judged[rows] |= _failing(expect, values, tol, flags)
        return bad | judged

    edge_bad = np.concatenate(_Blocks(block, len(ae), workers, scratch).results())
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


class RegionOracle(_Blocks):
    """The region oracle's runner: its work signs samples start..stop of
    `sample_domain`, on the calling thread in `rows` and, with more than one
    worker and block, on one background thread from the moment this is made
    (see the module docstring).

    Each consumer merges the distinct packed rows of its block into one set
    under the runner's lock. The background thread calls nothing the
    benchmark tracer wraps.
    """

    def __init__(self, model, domain, n, seed, schedule, workers=None):
        check_sample_count(n)
        self._model, self._domain, self._seed, self._schedule = model, domain, seed, schedule
        self._width = domain.m + len(schedule)
        self._keys = np.zeros(0, dtype=np.dtype((np.void, -(-self._width // 8))))
        scratch = functools.partial(_scratch, model, schedule, self._width)
        super().__init__(self._sign, n, workers, scratch, threads=1)

    def _sign(self, start, stop, scratch):
        """Merge the distinct packed sign rows of samples start..stop."""
        m = self._domain.m
        pts = sample_domain(self._domain, stop - start, self._seed, start)
        pos = scratch[0][: stop - start].view(np.bool_)
        np.greater(self._domain.facet_values(pts), 0.0, out=pos[:, :m])
        model_mod.certified_signs(self._model, pts, self._schedule, scratch[1], pos[:, m:])
        # + (an exact zero counts as minus, as in signvec.signs_of_values)
        # packs to 1, the first entry in the high bit: byte order is - < +
        found = np.unique(np.packbits(pos, axis=1).view(self._keys.dtype).ravel())
        with self._lock:
            self._keys = np.unique(np.concatenate([self._keys, found]))

    def rows(self):
        """Take the blocks left on the calling thread, join the background
        thread and return the int8 rows (see `sampled_region_oracle`)."""
        self.results()
        keys = self._keys.view(np.uint8).reshape(-1, self._keys.itemsize)
        bits = np.unpackbits(keys, axis=1, count=self._width)
        return np.where(bits, np.int8(1), np.int8(-1))


def sampled_region_oracle(model, domain, n, seed, schedule, workers=None, started=None):
    """Region signatures hit by n uniform samples; a one-sided oracle.

    Every returned signature must appear among the extracted regions, but
    thin regions may be missed, so coverage below 1 is expected. Samples are
    drawn and signed in blocks of at most BLOCK_ROWS on the calling thread
    and, with more than one worker, one background thread (`RegionOracle`),
    by `model.certified_signs`: on the BLAS kernel, with every sign proven
    equal to the reference kernel's or recomputed on it, so the rows are
    those the reference kernel alone gives. Memory does not grow with n
    beyond the distinct rows and one block per consumer. `started` is a
    `RegionOracle` already made with these arguments, whose rows this call
    waits for. Returns int8 rows in canonical order (`signvec.group_rows`),
    with one entry per facet and per neuron of `schedule`, as the extracted
    regions of that schedule have.
    """
    with started or RegionOracle(model, domain, n, seed, schedule, workers) as oracle:
        return oracle.rows()


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
