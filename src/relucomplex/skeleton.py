"""The evolving 1-skeleton and its bounded polyhedral domains.

Storage is struct-of-arrays: one numpy array per field, dead cells flagged
rather than removed, and deferred compaction. Sign matrices are int8 with
values in {-1, 0, +1}; rows align with vertex/edge ids. Arrays grow in place:
each lives in a buffer with spare capacity, rows are appended into spare rows
(capacity grows geometrically when they run out), and the extraction loop
reserves the full sign width once, so a new neuron's sign column is written
into a spare column rather than copying the matrices. A whole layer's sign
columns can be written in one pass and staged: they become live one column
per neuron, and rows appended meanwhile carry their staged entries. Appended
sign rows may come as blocks of columns, each written in place.
"""

from dataclasses import dataclass, field

import numpy as np

from . import signvec


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
    """Vertices (positions + signs) and edges (id pairs + signs).

    Edge endpoint pairs are stored (lo, hi) with lo < hi. `t` is the number
    of neurons processed so far; all sign rows have width m + t.

    Each per-cell array lives in a buffer with spare rows (and, for the sign
    matrices, spare columns); the public arrays are views of the live block.
    A view stays valid until the next append, which may move the buffer.
    """

    def __init__(self, dim, m, positions, vertex_signs, edges, edge_signs):
        self.dim = int(dim)
        self.m = int(m)
        self._positions = np.asarray(positions, dtype=np.float64)
        self._vertex_signs = np.asarray(vertex_signs, dtype=np.int8)
        self._vertex_alive = np.ones(len(self._positions), dtype=bool)
        self._edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        self._edge_signs = np.asarray(edge_signs, dtype=np.int8)
        self._edge_alive = np.ones(len(self._edges), dtype=bool)
        self._nv = len(self._positions)
        self._ne = len(self._edges)
        self._width = self._vertex_signs.shape[1]
        # columns written in every row: the live width plus staged columns
        self._filled = self._width
        self.degenerate_count = 0

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
        return self._edge_signs[: self._ne, : self._width]

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

    def nbytes(self):
        """Bytes of the live arrays (spare capacity is not counted)."""
        return (
            self.positions.nbytes
            + self.vertex_signs.nbytes
            + self.vertex_alive.nbytes
            + self.edges.nbytes
            + self.edge_signs.nbytes
            + self.edge_alive.nbytes
        )

    # -- growth ---------------------------------------------------------------

    def reserve_sign_width(self, width):
        """Make room for sign rows of `width` entries, so that column appends
        up to that width write in place."""
        if width > self._vertex_signs.shape[1]:
            self._vertex_signs = _widen(self._vertex_signs, self._nv, self._filled, width)
            self._edge_signs = _widen(self._edge_signs, self._ne, self._filled, width)

    def append_sign_column(self, vertex_cols=None, edge_cols=None):
        """Make the next sign column live.

        The column is given as one entry per vertex and per edge row, or it
        comes first in blocks of k columns (one row per vertex and per edge
        row). A block is written after the live width in one pass; its other
        k - 1 columns stay staged, and each later call without arguments
        makes the next of them live. Rows appended while columns are staged
        carry their staged entries too.
        """
        w = self._width
        if vertex_cols is not None:
            if self._filled != w:
                raise SkeletonError("staged sign columns are not all live yet")
            vertex_cols, edge_cols = _block(vertex_cols), _block(edge_cols)
            end = w + vertex_cols.shape[1]
            if vertex_cols.shape != (self._nv, end - w) or edge_cols.shape != (self._ne, end - w):
                raise SkeletonError(
                    f"sign columns must have {self._nv} and {self._ne} rows of one width"
                )
            if end > self._vertex_signs.shape[1]:
                self.reserve_sign_width(_grown(end))
            self._vertex_signs[: self._nv, w:end] = vertex_cols
            self._edge_signs[: self._ne, w:end] = edge_cols
            self._filled = end
        elif self._filled == w:
            raise SkeletonError("no staged sign column to make live")
        self._width = w + 1

    def kill_edges(self, ids):
        """Mark edges dead. Their staged sign entries become 0, so that
        their rows read 0 in every column that goes live later, as a dead
        row does."""
        self._edge_alive[ids] = False
        self._edge_signs[ids, self._width : self._filled] = 0

    def staged_vertex_signs(self, ids):
        """Staged sign entries (the columns after the live width) of vertices."""
        return self._vertex_signs[ids, self._width : self._filled]

    def _sign_blocks(self, blocks, n, kind):
        """Sign rows of n new vertices or edges as int8 column blocks."""
        blocks = [np.asarray(b, dtype=np.int8) for b in blocks]
        if any(b.ndim != 2 or len(b) != n for b in blocks) or (
            sum(b.shape[1] for b in blocks) != self._filled
        ):
            raise SkeletonError(f"{kind} sign rows must be {n} x {self._filled}")
        return blocks

    def append_vertices(self, positions, *signs):
        """Append vertices. Their sign rows are given whole, or as blocks of
        columns that lie side by side; each block is written in place."""
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        signs = self._sign_blocks(signs, len(positions), "vertex")
        first, last = self._nv, self._nv + len(positions)
        if last > len(self._positions):
            self._positions, self._vertex_signs, self._vertex_alive = _lengthen(
                (self._positions, self._vertex_signs, self._vertex_alive), first, _grown(last)
            )
        self._positions[first:last] = positions
        _write_blocks(self._vertex_signs, first, last, signs)
        self._vertex_alive[first:last] = True
        self._nv = last
        return np.arange(first, last)

    def append_edges(self, pairs, *signs):
        """Append edges; their sign rows are given as in `append_vertices`."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.size and np.any(pairs[:, 0] >= pairs[:, 1]):
            raise SkeletonError("edge endpoints must satisfy lo < hi")
        signs = self._sign_blocks(signs, len(pairs), "edge")
        first, last = self._ne, self._ne + len(pairs)
        if last > len(self._edges):
            self._edges, self._edge_signs, self._edge_alive = _lengthen(
                (self._edges, self._edge_signs, self._edge_alive), first, _grown(last)
            )
        self._edges[first:last] = pairs
        _write_blocks(self._edge_signs, first, last, signs)
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


def _write_blocks(buf, first, last, blocks):
    """Write column blocks side by side into rows first:last of buf."""
    col = 0
    for block in blocks:
        buf[first:last, col : col + block.shape[1]] = block
        col += block.shape[1]


def _block(cols):
    """Sign entries as an int8 block of columns; a 1-D array is one column."""
    cols = np.asarray(cols, dtype=np.int8)
    return cols[:, None] if cols.ndim == 1 else cols


def _widen(buf, n_rows, n_cols, width):
    """New buffer of `width` columns holding the live block buf[:n_rows, :n_cols]."""
    new = np.empty((len(buf), width), dtype=buf.dtype)
    new[:n_rows, :n_cols] = buf[:n_rows, :n_cols]
    return new


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
    esigns = []
    for j in range(dim):
        base = ids[bits[:, j] == 0]
        pairs.append(np.column_stack([base, base | (1 << j)]))
        esigns.append(signvec.merge_edge_rows(vsigns[base], vsigns[base | (1 << j)]))
    edges = np.concatenate(pairs, axis=0)
    esigns = np.concatenate(esigns, axis=0)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return domain, Skeleton(dim, 2 * dim, positions, vsigns, edges[order], esigns[order])


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
    esigns = signvec.merge_edge_rows(vsigns[pairs[:, 0]], vsigns[pairs[:, 1]])
    return domain, Skeleton(dim, dim + 1, positions, vsigns, pairs, esigns)


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
        sk.edge_signs[ekeep],
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
    check. Each check runs over blocks of CHECK_BLOCK_ROWS rows."""
    if sk.vertex_signs.shape != (sk.n_vertices, sk.sign_width):
        raise SkeletonError("vertex sign matrix shape mismatch")
    if sk.edge_signs.shape != (sk.n_edges, sk.sign_width):
        raise SkeletonError("edge sign matrix width mismatch")
    av, ae = sk.alive_vertex_ids(), sk.alive_edge_ids()
    vs, es, edges = sk.vertex_signs, sk.edge_signs, sk.edges

    def zeros(signs, ids):
        return np.count_nonzero(np.take(signs, ids, axis=0) == 0, axis=-1)

    def disagree(ids):
        # as signvec.merge_edge_rows, but opposite signs flag the edge, not raise
        lo, hi = np.take(edges, ids, axis=0).T
        a, b = np.take(vs, lo, axis=0), np.take(vs, hi, axis=0)
        return (a * b < 0) | (np.sign(a + b) != np.take(es, ids, axis=0))

    if (bad := _first_bad(ae, lambda b: ~sk.vertex_alive[np.take(edges, b, axis=0)])) is not None:
        raise SkeletonError(f"alive edge {bad} references dead vertex")
    if (bad := _first_bad(ae, lambda b: edges[b, 0] >= edges[b, 1])) is not None:
        raise SkeletonError(f"edge {bad} endpoint ordering violated")
    if (bad := _first_bad(av, lambda b: zeros(vs, b) != sk.dim)) is not None:
        raise SkeletonError(f"vertex {bad} has {zeros(vs, bad)} zeros, expected {sk.dim}")
    if (bad := _first_bad(ae, lambda b: zeros(es, b) != sk.dim - 1)) is not None:
        raise SkeletonError(f"edge {bad} zero count is not {sk.dim - 1}")
    if (bad := _first_bad(ae, disagree)) is not None:
        raise SkeletonError(f"edge {bad} sign-vector disagrees with its endpoints")
