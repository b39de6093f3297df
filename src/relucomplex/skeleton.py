"""The evolving 1-skeleton and its bounded polyhedral domains.

Storage is struct-of-arrays: one numpy array per field, dead cells flagged
rather than removed, and deferred compaction. Only vertex sign rows are
stored, as an int8 matrix with values in {-1, 0, +1} and one row per vertex
id. An edge's sign row is derived from its endpoints' rows when it is read:
their shared sign, 0 where both are 0. Arrays grow in place: each lives in a
buffer with spare capacity, rows are appended into spare rows (capacity
grows geometrically when they run out), and the extraction loop reserves the
full sign width once, so a new neuron's sign column is written into a spare
column rather than copying the matrix. A whole layer's sign columns can be
written in one pass and staged: they become live one column per neuron, and
vertices appended meanwhile carry their staged entries. Appended sign rows
may come as blocks of columns, each written in place.
"""

from dataclasses import dataclass, field

import numpy as np


class SkeletonError(RuntimeError):
    """A structural invariant of the skeleton is violated."""


@dataclass(frozen=True)
class Halfspace:
    """Affine halfspace; the interior side is positive: w.x - b >= 0."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=np.float64)
        if n.ndim != 1 or not np.any(n != 0.0):
            raise ValueError("halfspace normal must be a non-zero vector")
        object.__setattr__(self, "normal", n)

    def value(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return points @ self.normal - self.offset


@dataclass
class Domain:
    """Bounded intersection of m affine halfspaces."""

    facets: list
    kind: str
    dim: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.normals = np.array([h.normal for h in self.facets], dtype=np.float64)
        self.offsets = np.array([h.offset for h in self.facets], dtype=np.float64)

    @property
    def m(self):
        return len(self.facets)

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
        rows = np.take(self.vertex_signs, lo, axis=0, out=out)
        rows += np.take(self.vertex_signs, hi, axis=0)
        return np.sign(rows, out=rows)

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

    def append_vertices(self, positions, *signs):
        """Append vertices. Their sign rows are given whole, or as blocks of
        columns that lie side by side; each block is written in place."""
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        first, last = self._nv, self._nv + len(positions)
        signs = [np.asarray(b, dtype=np.int8) for b in signs]
        if any(b.ndim != 2 or len(b) != len(positions) for b in signs) or (
            sum(b.shape[1] for b in signs) != self._filled
        ):
            raise SkeletonError(f"vertex sign rows must be {len(positions)} x {self._filled}")
        if last > len(self._positions):
            self._positions, self._vertex_signs, self._vertex_alive = _lengthen(
                (self._positions, self._vertex_signs, self._vertex_alive), first, _grown(last)
            )
        self._positions[first:last] = positions
        col = 0
        for block in signs:
            self._vertex_signs[first:last, col : col + block.shape[1]] = block
            col += block.shape[1]
        self._vertex_alive[first:last] = True
        self._nv = last
        return np.arange(first, last)

    def append_edges(self, pairs):
        """Append edges, given as (lo, hi) vertex id pairs."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and np.any(pairs[:, 0] >= pairs[:, 1]):
            raise SkeletonError("edge endpoints must satisfy lo < hi")
        first, last = self._ne, self._ne + len(pairs)
        if last > len(self._edges):
            self._edges, self._edge_alive = _lengthen(
                (self._edges, self._edge_alive), first, _grown(last)
            )
        self._edges[first:last] = pairs
        self._edge_alive[first:last] = True
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


def _lengthen(bufs, n_rows, capacity):
    """New buffers of `capacity` rows, each holding the first n_rows of its source."""
    out = []
    for buf in bufs:
        new = np.empty((capacity,) + buf.shape[1:], dtype=buf.dtype)
        new[:n_rows] = buf[:n_rows]
        out.append(new)
    return out


# -- domain initializers -------------------------------------------------------


def init_hypercube(dim, lo, hi):
    """Hypercube [lo, hi]^dim: 2*dim facets, 2^dim vertices, dim*2^(dim-1) edges.

    Facet order is per axis j: x_j >= lo, then x_j <= hi. Corner ids
    enumerate axis sides as bits (bit j set means x_j = hi).
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    if dim < 1:
        raise ValueError("need dim >= 1")
    facets = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        facets.append(Halfspace(e.copy(), lo))
        facets.append(Halfspace(-e, -hi))
    domain = Domain(facets, "hypercube", dim, {"lo": lo, "hi": hi, "extent": hi - lo})

    n = 1 << dim
    ids = np.arange(n)
    bits = (ids[:, None] >> np.arange(dim)) & 1
    positions = np.where(bits == 1, hi, lo).astype(np.float64)
    vsigns = np.ones((n, 2 * dim), dtype=np.int8)
    for j in range(dim):
        vsigns[bits[:, j] == 0, 2 * j] = 0
        vsigns[bits[:, j] == 1, 2 * j + 1] = 0

    pairs = []
    for j in range(dim):
        base = ids[bits[:, j] == 0]
        pairs.append(np.column_stack([base, base | (1 << j)]))
    edges = np.concatenate(pairs, axis=0)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return domain, Skeleton(dim, 2 * dim, positions, vsigns, edges[order])


def init_simplex(dim, scale):
    """Simplex {x_j >= -scale for all j, sum(x) <= dim*scale}.

    dim+1 facets (axis facets first, the sum facet last), dim+1 vertices,
    dim*(dim+1)/2 edges; contains the origin in its interior. Vertex j
    (j < dim) maxes coordinate j; vertex dim is the all-(-scale) corner.
    """
    if scale <= 0:
        raise ValueError("need scale > 0")
    if dim < 1:
        raise ValueError("need dim >= 1")
    facets = []
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = 1.0
        facets.append(Halfspace(e, -scale))
    facets.append(Halfspace(-np.ones(dim), -dim * scale))
    domain = Domain(facets, "simplex", dim, {"scale": scale, "extent": 2 * dim * scale})

    n = dim + 1
    positions = np.full((n, dim), -scale, dtype=np.float64)
    for j in range(dim):
        positions[j, j] = (2 * dim - 1) * scale
    vsigns = np.zeros((n, dim + 1), dtype=np.int8)
    for j in range(dim):
        vsigns[j, j] = 1
        vsigns[j, dim] = 0
    vsigns[dim, :dim] = 0
    vsigns[dim, dim] = 1

    pairs = np.array([(a, b) for a in range(n) for b in range(a + 1, n)], dtype=np.int64)
    return domain, Skeleton(dim, dim + 1, positions, vsigns, pairs)


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


def check_invariants(sk):
    """Verify the four structural invariants; O(|V| + |E|). Raises
    SkeletonError naming the first bad vertex or edge of the first failing
    check. Each check runs over blocks of CHECK_BLOCK_ROWS rows. Edge sign
    rows are derived from their endpoints, so they agree with them by
    construction; the checks on them are that the endpoints never carry
    opposite signs and that each row has D - 1 zeros."""
    if sk.vertex_signs.shape != (sk.n_vertices, sk.sign_width):
        raise SkeletonError("vertex sign matrix shape mismatch")
    av, ae = sk.alive_vertex_ids(), sk.alive_edge_ids()
    vs, edges = sk.vertex_signs, sk.edges

    def zeros(rows):
        return np.count_nonzero(rows == 0, axis=-1)

    def conflict(ids):
        lo, hi = np.take(edges, ids, axis=0).T
        return np.take(vs, lo, axis=0) * np.take(vs, hi, axis=0) < 0

    if (bad := _first_bad(ae, lambda b: ~sk.vertex_alive[np.take(edges, b, axis=0)])) is not None:
        raise SkeletonError(f"alive edge {bad} references dead vertex")
    if (bad := _first_bad(ae, lambda b: edges[b, 0] >= edges[b, 1])) is not None:
        raise SkeletonError(f"edge {bad} endpoint ordering violated")
    if (bad := _first_bad(av, lambda b: zeros(vs[b]) != sk.dim)) is not None:
        raise SkeletonError(f"vertex {bad} has {zeros(vs[bad])} zeros, expected {sk.dim}")
    # before the zero count: a derived row reads 0 where its endpoints conflict
    if (bad := _first_bad(ae, conflict)) is not None:
        raise SkeletonError(f"edge {bad} endpoints carry opposite signs")
    if (bad := _first_bad(ae, lambda b: zeros(sk.edge_signs_of(b)) != sk.dim - 1)) is not None:
        raise SkeletonError(f"edge {bad} zero count is not {sk.dim - 1}")
