"""The evolving 1-skeleton and its bounded polyhedral domains.

Storage is struct-of-arrays: one numpy array per field, dead cells flagged
rather than removed, and deferred compaction. Only vertex sign rows are
stored, as an int8 matrix with values in {-1, 0, +1} and one row per vertex
id. An edge's sign row is derived from its endpoints' rows when it is read:
their shared sign, 0 where both are 0. Arrays grow in place: each lives in a
buffer with spare capacity, and `append_rows` writes rows into spare rows
(capacity grows geometrically when they run out; the extraction's value
cache and split positions grow there too). The extraction loop reserves the
full sign width once, so a new neuron's sign column is written into a spare
column rather than copying the matrix. A whole layer's sign columns can be
written in one pass and staged: they become live one column per neuron, and
vertices appended meanwhile carry their staged entries. An appended vertex's
sign row comes whole, in one block that holds its live and staged entries.

A domain is its facet arrays, one normal row and one offset per facet; the
first m entries of every sign row are its facets'. Both initializers build
their starting skeleton with one routine from the corners and the facets
each corner lies on: a corner's row is 0 on those facets and + elsewhere.
"""

import math
from dataclasses import dataclass, field

import numpy as np


class SkeletonError(RuntimeError):
    """A structural invariant of the skeleton is violated."""


@dataclass
class Domain:
    """Bounded intersection of m affine halfspaces w.x - b >= 0, stored as
    its facet arrays: row i of `normals` (m x dim) is facet i's w and entry
    i of `offsets` its b. Facet i owns entry i of every sign row."""

    normals: np.ndarray
    offsets: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)

    @property
    def m(self):
        return len(self.offsets)

    @property
    def dim(self):
        return self.normals.shape[1]

    def facet_values(self, points):
        """(n, m) matrix of facet values; >= 0 means inside that halfspace."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return points @ self.normals.T - self.offsets

    def contains(self, points, tol=1e-9):
        return np.all(self.facet_values(points) >= -tol, axis=1)

    @property
    def extent(self):
        return self.meta["extent"]


class Skeleton:
    """Vertices (positions + sign rows) and edges (id pairs).

    Edge endpoint pairs are stored (lo, hi) with lo < hi. `t` is the number
    of neurons processed so far; all sign rows have width m + t. Edge sign
    rows are not stored: `edge_signs_of` derives them from the endpoints.
    Sign rows given for the edges are checked against the derived ones and
    dropped.

    Each per-cell array lives in a buffer with spare rows (and, for the sign
    matrix, spare columns); the public arrays are views of the live block.
    A view stays valid until the next append, which may move the buffer.
    """

    def __init__(self, dim, m, positions, vertex_signs, edges, edge_signs=None):
        self.dim = int(dim)
        self.m = int(m)
        self._positions = np.asarray(positions, dtype=np.float64)
        self._vertex_signs = np.asarray(vertex_signs, dtype=np.int8)
        self._vertex_alive = np.ones(len(self._positions), dtype=bool)
        self._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._edge_alive = np.ones(len(self._edges), dtype=bool)
        self._nv = len(self._positions)
        self._ne = len(self._edges)
        self._width = self._vertex_signs.shape[1]
        # columns written in every row: the live width plus staged columns
        self._filled = self._width
        self.degenerate_count = 0
        if edge_signs is not None:
            given, derived = np.asarray(edge_signs, dtype=np.int8), self.edge_signs
            if given.shape != derived.shape:
                raise SkeletonError(f"edge sign rows must be {self._ne} x {self._width}")
            differ = np.flatnonzero(np.any(given != derived, axis=1))
            if len(differ):
                raise SkeletonError(
                    f"edge {differ[0]} sign-vector differs from its endpoints' merge"
                )

    # -- live views -----------------------------------------------------------

    @property
    def positions(self):
        return self._positions[: self._nv]

    @property
    def vertex_signs(self):
        return self._vertex_signs[: self._nv, : self._width]

    @property
    def vertex_alive(self):
        return self._vertex_alive[: self._nv]

    @property
    def edges(self):
        return self._edges[: self._ne]

    @property
    def edge_signs(self):
        """Sign rows of all edges, derived on every read (`edge_signs_of`)."""
        return self.edge_signs_of(slice(None))

    @property
    def edge_alive(self):
        return self._edge_alive[: self._ne]

    # -- bookkeeping ----------------------------------------------------------

    @property
    def t(self):
        return self._width - self.m

    @property
    def sign_width(self):
        return self._width

    @property
    def n_vertices(self):
        return self._nv

    @property
    def n_edges(self):
        return self._ne

    @property
    def n_vertices_alive(self):
        return int(np.count_nonzero(self.vertex_alive))

    @property
    def n_edges_alive(self):
        return int(np.count_nonzero(self.edge_alive))

    def alive_vertex_ids(self):
        return np.flatnonzero(self.vertex_alive)

    def alive_edge_ids(self):
        return np.flatnonzero(self.edge_alive)

    def edge_signs_of(self, ids, out=None):
        """Sign rows of the edges `ids` (anything that indexes `edges`),
        derived from their endpoints' rows: the shared sign, 0 where both
        are 0. Entries where the endpoints differ (only a dead split edge's
        do) read 0. `out`, if given, receives the rows."""
        lo, hi = self.edges[ids].T
        # fancy indexing: np.take would first copy the whole strided view
        vs = self.vertex_signs
        if out is None:
            out = np.empty(lo.shape + vs.shape[1:], dtype=np.int8)
        out[...] = vs[lo]
        out += vs[hi]
        return np.sign(out, out=out)

    def nbytes(self):
        """Bytes of the live arrays (spare capacity is not counted)."""
        return (
            self.positions.nbytes
            + self.vertex_signs.nbytes
            + self.vertex_alive.nbytes
            + self.edges.nbytes
            + self.edge_alive.nbytes
        )

    # -- growth ---------------------------------------------------------------

    def reserve_sign_width(self, width):
        """Make room for sign rows of `width` entries, so that column appends
        up to that width write in place."""
        if width > self._vertex_signs.shape[1]:
            new = np.empty((len(self._vertex_signs), width), dtype=np.int8)
            new[: self._nv, : self._filled] = self._vertex_signs[: self._nv, : self._filled]
            self._vertex_signs = new

    def append_sign_column(self, vertex_cols=None):
        """Make the next sign column live.

        The column is given as one entry per vertex row, or it comes first
        in a block of k columns (one row per vertex row). A block is written
        after the live width in one pass; its other k - 1 columns stay
        staged, and each later call without arguments makes the next of them
        live. Vertices appended while columns are staged carry their staged
        entries too.
        """
        w = self._width
        if vertex_cols is not None:
            if self._filled != w:
                raise SkeletonError("staged sign columns are not all live yet")
            vertex_cols = np.asarray(vertex_cols, dtype=np.int8)
            if vertex_cols.ndim == 1:
                vertex_cols = vertex_cols[:, None]
            end = w + vertex_cols.shape[1]
            if len(vertex_cols) != self._nv:
                raise SkeletonError(f"sign columns must have {self._nv} rows")
            if end > self._vertex_signs.shape[1]:
                self.reserve_sign_width(_grown(end))
            self._vertex_signs[: self._nv, w:end] = vertex_cols
            self._filled = end
        elif self._filled == w:
            raise SkeletonError("no staged sign column to make live")
        self._width = w + 1

    def staged_vertex_signs(self, ids):
        """Staged sign entries (the columns after the live width) of vertices."""
        return self._vertex_signs[ids, self._width : self._filled]

    def append_vertices(self, positions, signs):
        """Append vertices with their whole sign rows: one block holding the
        live and the staged entries, written in one assignment."""
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        first, last = self._nv, self._nv + len(positions)
        if positions.shape[1] != self.dim:  # a narrower block would fill leading columns only
            raise SkeletonError(f"vertex positions must have {self.dim} coordinates")
        signs = np.asarray(signs, dtype=np.int8)
        if signs.shape != (len(positions), self._filled):
            raise SkeletonError(f"vertex sign rows must be {len(positions)} x {self._filled}")
        self._positions = append_rows(self._positions, first, positions)
        self._vertex_signs = append_rows(self._vertex_signs, first, signs)
        self._vertex_alive = append_rows(self._vertex_alive, first, np.ones(len(signs), bool))
        self._nv = last
        return np.arange(first, last)

    def append_edges(self, pairs):
        """Append edges, given as (lo, hi) vertex id pairs."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and np.any(pairs[:, 0] >= pairs[:, 1]):
            raise SkeletonError("edge endpoints must satisfy lo < hi")
        first, last = self._ne, self._ne + len(pairs)
        self._edges = append_rows(self._edges, first, pairs)
        self._edge_alive = append_rows(self._edge_alive, first, np.ones(len(pairs), bool))
        self._ne = last
        return np.arange(first, last)


#: factor by which a full buffer outgrows the size it must hold. Of 1.25,
#: 1.5 and 2, 1.25 gave the lowest peak memory on a pruned (3, 4, 32)
#: level-set run and 2 the lowest (by 7%) on an unpruned (3, 4, 32)
#: extraction. Spare rows are left uninitialised, so pages never written
#: cost no resident memory.
GROWTH = 1.25


def _grown(size):
    return int(size * GROWTH) + 1


def append_rows(buf, n, rows):
    """Write `rows` over rows n.. of `buf`, into their leading columns, and
    return the buffer. When `buf` is too short, it is first replaced by one
    of `_grown(n + len(rows))` rows that keeps the first n. Every buffer the
    extraction grows by rows grows here."""
    end = n + len(rows)
    if end > len(buf):
        new = np.empty((_grown(end),) + buf.shape[1:], dtype=buf.dtype)
        new[:n] = buf[:n]
        buf = new
    buf[(slice(n, end), *map(slice, rows.shape[1:]))] = rows
    return buf


# -- domain initializers -------------------------------------------------------


def init_hypercube(dim, lo, hi):
    """Hypercube [lo, hi]^dim: 2*dim facets, 2^dim vertices, dim*2^(dim-1) edges.

    Facet order is per axis j: x_j >= lo, then x_j <= hi. Corner ids
    enumerate axis sides as bits (bit j set means x_j = hi). Bounds and
    extent ``hi - lo`` must be finite.
    """
    if not math.isfinite(float(hi) - float(lo)):  # a non-finite bound, or an overflow
        raise ValueError(f"need finite lo, hi and hi - lo, got lo = {lo}, hi = {hi}")
    if lo >= hi:
        raise ValueError("need lo < hi")
    if dim < 1:
        raise ValueError("need dim >= 1")
    normals = np.stack([np.eye(dim), -np.eye(dim)], axis=1).reshape(2 * dim, dim)
    offsets = np.tile(np.array([lo, -hi], dtype=np.float64), dim)
    domain = Domain(normals, offsets, "hypercube", {"lo": lo, "hi": hi, "extent": hi - lo})
    bits = (np.arange(1 << dim)[:, None] >> np.arange(dim)) & 1
    positions = np.where(bits == 1, hi, lo).astype(np.float64)
    # a corner lies on x_j >= lo where bit j is clear and on x_j <= hi where it is set
    tight = np.stack([bits == 0, bits == 1], axis=2).reshape(len(bits), 2 * dim)
    return domain, _corner_skeleton(domain, positions, tight)


def init_simplex(dim, scale):
    """Simplex {x_j >= -scale for all j, sum(x) <= dim*scale}.

    dim+1 facets (axis facets first, the sum facet last), dim+1 vertices,
    dim*(dim+1)/2 edges; contains the origin in its interior. Vertex j
    (j < dim) maxes coordinate j; vertex dim is the all-(-scale) corner.
    Scale and extent ``2 * dim * scale`` must be finite.
    """
    if not math.isfinite(2 * dim * float(scale)):  # a non-finite scale, or an overflow
        raise ValueError(f"need finite scale and extent 2 * dim * scale, got scale = {scale}")
    if scale <= 0:
        raise ValueError("need scale > 0")
    if dim < 1:
        raise ValueError("need dim >= 1")
    normals = np.vstack([np.eye(dim), -np.ones((1, dim))])
    offsets = np.append(np.full(dim, -scale, dtype=np.float64), -dim * scale)
    domain = Domain(normals, offsets, "simplex", {"scale": scale, "extent": 2 * dim * scale})
    positions = np.full((dim + 1, dim), -scale, dtype=np.float64)
    np.fill_diagonal(positions, (2 * dim - 1) * scale)
    # vertex j lies on every facet but facet j
    return domain, _corner_skeleton(domain, positions, ~np.eye(dim + 1, dtype=bool))


def _corner_skeleton(domain, positions, tight):
    """Starting skeleton of a simple polytope from its corner positions and
    its corner x facet mask of tight facets. A corner's sign row is 0 on its
    facets and + elsewhere. Two corners span an edge when they share D - 1
    facets; edges come in row-major (lo, hi) order. The mask is given, not
    read off the facet values: on init_simplex(2, 0.1) the sum facet reads
    -2.8e-17 at two of the corners on it."""
    corner, facet = np.nonzero(tight)
    # each corner leaves an edge by giving up one of its D facets
    kept = tight[corner]
    kept[np.arange(len(corner)), facet] = False
    # both ends of an edge keep the same D - 1 facets: sorting pairs them up,
    # and lexsort is stable, so the lower corner id comes first in each pair
    ends = corner[np.lexsort(kept.T)].reshape(-1, 2)
    edges = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
    signs = np.where(tight, 0, 1).astype(np.int8)
    return Skeleton(domain.dim, domain.m, positions, signs, edges)


# -- maintenance ---------------------------------------------------------------


def compact(sk):
    """New skeleton with dead cells dropped and ids densely remapped.

    Surviving cells keep their relative order (ascending original id).
    """
    vkeep = sk.vertex_alive
    ekeep = sk.edge_alive
    vmap = np.cumsum(vkeep) - 1
    out = Skeleton(
        sk.dim,
        sk.m,
        sk.positions[vkeep],
        sk.vertex_signs[vkeep],
        vmap[sk.edges[ekeep]],
    )
    out.degenerate_count = sk.degenerate_count
    check_invariants(out)
    return out


#: rows per block in `check_invariants`, which bounds its temporaries
CHECK_BLOCK_ROWS = 1 << 13


def _first_bad(ids, is_bad):
    """The first of `ids` that `is_bad` flags (a flag or a row of flags per
    id), scanning blocks of CHECK_BLOCK_ROWS ids in order; None if none."""
    for start in range(0, len(ids), CHECK_BLOCK_ROWS):
        block = ids[start : start + CHECK_BLOCK_ROWS]
        bad = is_bad(block)
        if bad.any():
            return int(block[np.unravel_index(np.argmax(bad), bad.shape)[0]])
    return None


def _bit_planes(vs):
    """The (zero, plus) bit planes of the int8 sign rows `vs`: per row, its
    `== 0` and `> 0` flags packed 8 to a byte (pad bits 0), made in blocks
    of CHECK_BLOCK_ROWS rows."""
    width = -(-vs.shape[1] // 8)
    zero, plus = (np.empty((len(vs), width), dtype=np.uint8) for _ in range(2))
    for start in range(0, len(vs), CHECK_BLOCK_ROWS):
        block = slice(start, start + CHECK_BLOCK_ROWS)
        zero[block] = np.packbits(vs[block] == 0, axis=1)
        plus[block] = np.packbits(vs[block] > 0, axis=1)
    return zero, plus


def check_invariants(sk):
    """Verify the four structural invariants; O(|V| + |E|). Raises
    SkeletonError naming the first bad vertex or edge of the first failing
    check. Each check runs over blocks of CHECK_BLOCK_ROWS rows, on the bit
    planes of the vertex signs (`_bit_planes`). Edge sign rows are derived
    from their endpoints, so they agree with them by construction; the
    checks on them are that the endpoints never carry opposite signs and
    that each row has D - 1 zeros."""
    if sk.vertex_signs.shape != (sk.n_vertices, sk.sign_width):
        raise SkeletonError("vertex sign matrix shape mismatch")
    av, ae = sk.alive_vertex_ids(), sk.alive_edge_ids()
    vs, edges = sk.vertex_signs, sk.edges
    zero, plus = _bit_planes(vs)

    def count(bits):
        return np.bitwise_count(bits).sum(axis=1)

    def conflict(ids):
        lo, hi = edges[ids].T  # both non-zero, one of them plus
        return ((plus[lo] ^ plus[hi]) & ~(zero[lo] | zero[hi])).any(axis=1)

    def shared_zeros(ids):
        lo, hi = edges[ids].T
        return count(zero[lo] & zero[hi])

    if (bad := _first_bad(ae, lambda b: ~sk.vertex_alive[edges[b]])) is not None:
        raise SkeletonError(f"alive edge {bad} references dead vertex")
    if (bad := _first_bad(ae, lambda b: edges[b, 0] >= edges[b, 1])) is not None:
        raise SkeletonError(f"edge {bad} endpoint ordering violated")
    if (bad := _first_bad(av, lambda b: count(zero[b]) != sk.dim)) is not None:
        raise SkeletonError(
            f"vertex {bad} has {np.count_nonzero(vs[bad] == 0)} zeros, expected {sk.dim}"
        )
    # before the zero count: with no conflict, an edge row is 0 exactly
    # where both endpoints are
    if (bad := _first_bad(ae, conflict)) is not None:
        raise SkeletonError(f"edge {bad} endpoints carry opposite signs")
    if (bad := _first_bad(ae, lambda b: shared_zeros(b) != sk.dim - 1)) is not None:
        raise SkeletonError(f"edge {bad} zero count is not {sk.dim - 1}")
