"""Zero-level-set extraction, polygon assembly, metrics, and exporters.

The level set of an output neuron consists of the cells whose sign-vector is
zero at that neuron's entry. Inside means negative output (signed-distance
convention); pass inside_sign=+1 to flip.
"""

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import signvec


class EmptyBoundaryError(RuntimeError):
    """The requested level set does not intersect the domain."""


@dataclass
class BoundaryMesh:
    """Level-set subcomplex: vertices, edges, and (in 3-D) polygon faces.

    `edges` and `faces` use local indices into `vertex_ids`; faces are
    ordered vertex loops, counter-clockwise around a normal that points out
    of the inside: toward positive output by default, toward negative output
    when `assemble_faces` was given `inside_sign=+1`.
    """

    out_entry: int
    vertex_ids: np.ndarray
    positions: np.ndarray
    signs: np.ndarray
    edges: np.ndarray
    edge_signs: np.ndarray
    faces: list = field(default_factory=list)

    @property
    def n_vertices(self):
        return len(self.vertex_ids)

    @property
    def n_edges(self):
        return len(self.edges)


@dataclass
class ShapeMetrics:
    """2-D level-set metrics: area, perimeter, compactness 4*pi*A/P^2.

    Compactness is at most 1 (the disk) for closed level sets; a level set
    cut off by the domain box can exceed it.
    """

    area: float
    perimeter: float
    compactness: float


def compactness(area, perimeter):
    """4*pi*A / P^2: 1 for a disk, smaller for less compact shapes."""
    if perimeter <= 0:
        raise ValueError("perimeter must be positive")
    return 4.0 * np.pi * area / perimeter**2


def boundary_subcomplex(sk, out_entry):
    """Cells with a zero at `out_entry`; faces are left empty."""
    if not 0 <= out_entry < sk.sign_width:
        raise ValueError(f"out_entry {out_entry} out of range 0..{sk.sign_width - 1}")
    av = sk.alive_vertex_ids()
    bv = av[sk.vertex_signs[av, out_entry] == 0]
    ae = sk.alive_edge_ids()
    rows = sk.edge_signs_of(ae)
    on_level = rows[:, out_entry] == 0
    local = np.full(sk.n_vertices, -1, dtype=np.int64)
    local[bv] = np.arange(len(bv))
    return BoundaryMesh(
        out_entry,
        bv,
        sk.positions[bv].copy(),
        sk.vertex_signs[bv].copy(),
        local[sk.edges[ae[on_level]]],
        rows[on_level],
    )


def cell_gradients(model, sign_rows, m, schedule, out_index):
    """Output gradient of one output neuron on each cell, one row per sign row.

    The sign at each hidden neuron's entry selects its activation state
    (+ active, otherwise inactive). The gradient is a vector-Jacobian
    product: starting from the output weight row, each hidden layer from the
    last down masks the row by its active neurons and maps it back through
    the layer's weights, so every cell costs one row of floats per layer.
    Every hidden neuron must be in `schedule`.
    """
    sign_rows = np.asarray(sign_rows, dtype=np.int8)
    pos = {nref: m + k for k, nref in enumerate(schedule)}
    r = np.tile(model.layers[-1].weights[out_index], (len(sign_rows), 1))
    for l in range(model.depth - 1, 0, -1):
        spec = model.layers[l - 1]
        cols = [pos[model_mod.NeuronRef(l, i)] for i in range(spec.out_dim)]
        active = sign_rows[:, cols] > 0
        # row-stable like model._affine: each row's sums ignore the batch
        r = np.einsum("nk,kj->nj", r * active, spec.weights, optimize=False)
    return r


class FaceAssemblyError(RuntimeError):
    """A face's edges do not close one loop, or its vertices leave its plane."""


def _face_vertices(edge_rows, ends, positions, m, hide=None, vertex_ids=None):
    """Group edges (sign rows, endpoint ids into `positions`) into 2-cells.

    Returns `(keys, face, verts, size, rel)`: the cells' sign rows in
    canonical order, the unique (face, vertex) pairs sorted by face then
    vertex, each face's vertex count, and each pair's position relative to
    its face's centroid. `hide` names a zero entry every edge shares (a
    level set's own): it is grouped as '+', so that only the other zeros
    are perturbed, and is 0 again in the keys. A convex polygon has as many
    vertices as edges; a face where the counts differ raises
    FaceAssemblyError, naming its vertices by `vertex_ids[row]` (by their
    rows in `positions` when None).
    """
    if hide is not None:
        edge_rows = edge_rows.copy()
        edge_rows[:, hide] = 1
    keys, order, n_edges, src = signvec.group_parents(edge_rows, m)
    if hide is not None:
        keys[:, hide] = 0
    nv = len(positions)
    # the candidates in group order, each labelled by its face; distinct
    # codes by a sort and a mask: np.unique on int64 is far slower
    face_of = np.repeat(np.arange(len(keys)), n_edges)
    pairs = np.sort(np.repeat(face_of, 2) * nv + ends[src[order]].ravel())
    keep = np.ones(len(pairs), dtype=bool)
    keep[1:] = pairs[1:] != pairs[:-1]
    pairs = pairs[keep]
    face, verts = np.divmod(pairs, nv)
    size = np.bincount(face, minlength=len(keys))
    if np.any(size != n_edges):
        f = int(np.argmax(size != n_edges))
        named = verts[face == f] if vertex_ids is None else vertex_ids[verts[face == f]]
        raise FaceAssemblyError(
            f"face {signvec.sign_text(keys[f])} has {n_edges[f]} edges but "
            f"{size[f]} vertices {named.tolist()}"
        )
    pts = positions[verts]
    sums = np.stack([np.bincount(face, weights=p, minlength=len(keys)) for p in pts.T], axis=1)
    return keys, face, verts, size, pts - (sums / size[:, None])[face]


def _perp_units(n):
    """A unit vector perpendicular to each row of `n` (unit rows)."""
    rows = np.arange(len(n))
    k = np.argmin(np.abs(n), axis=1)
    e = np.zeros_like(n)
    e[rows, k] = 1.0
    u = e - n[rows, k][:, None] * n
    return u / np.linalg.norm(u, axis=1)[:, None]


def assemble_faces(mesh, sk, m, model, schedule, planar_tol=1e-9, inside_sign=-1):
    """Fill in the boundary 2-cells of a 3-D level set, all faces at once.

    Faces are found by perturbing each boundary edge's free zero (the one
    that is not the output entry); equal face keys are grouped, and a face's
    vertices are the endpoints of its edges. Each face's vertices are
    ordered by angle around their centroid within the plane normal to the
    cell's output gradient: counter-clockwise around that gradient, so that
    face normals point out of the inside (negative output). With
    `inside_sign=+1` the inside is the positive side and every loop is
    reversed. Raises FaceAssemblyError when a face's vertices stray more
    than `planar_tol` from that plane. `schedule` is the one the skeleton
    was extracted with.
    """
    if sk.dim != 3:
        raise ValueError("face assembly requires D = 3")
    if mesh.n_edges == 0:
        mesh.faces = []
        return mesh

    keys, face, verts, size, rel = _face_vertices(
        mesh.edge_signs, mesh.edges, mesh.positions, m, mesh.out_entry, mesh.vertex_ids
    )

    grad = cell_gradients(model, keys, m, schedule, schedule[mesh.out_entry - m].index)
    n = grad / np.linalg.norm(grad, axis=1)[:, None]
    dev = np.abs(np.einsum("ij,ij->i", rel, n[face]))
    bad = ~(dev <= planar_tol)
    if bad.any():
        worst = int(np.argmax(np.where(bad, np.nan_to_num(dev, nan=np.inf), -1.0)))
        f = face[worst]
        raise FaceAssemblyError(
            f"non-planar face loop {signvec.sign_text(keys[f])}: vertices "
            f"{mesh.vertex_ids[verts[face == f]].tolist()} deviate up to {dev[worst]:.3g} "
            f"(> {planar_tol}) from the plane of the cell's map"
        )
    u = _perp_units(n)
    v = np.cross(n, u)
    ang = np.arctan2(
        np.einsum("ij,ij->i", rel, v[face]), np.einsum("ij,ij->i", rel, u[face])
    )
    order = np.lexsort((-inside_sign * ang, face))
    mesh.faces = np.split(verts[order], np.cumsum(size)[:-1])
    return mesh


def area_perimeter_2d(sk, out_entry, m, inside_sign=-1):
    """Perimeter of the 2-D level set and area of its inside.

    P sums the lengths of edges with a zero at out_entry; A sums the
    shoelace areas of the 2-cells whose sign there equals `inside_sign`,
    each loop ordered by angle around its centroid. Raises
    FaceAssemblyError when a cell's edges do not close one loop or an alive
    vertex lies on no cell (a duplicated edge or vertex).
    """
    if sk.dim != 2:
        raise ValueError("area_perimeter_2d requires D = 2")
    ae = sk.alive_edge_ids()
    rows = sk.edge_signs_of(ae)
    be = ae[rows[:, out_entry] == 0]
    if len(be) == 0:
        raise EmptyBoundaryError("level set does not intersect the domain")
    seg = sk.positions[sk.edges[be]]
    perimeter = float(np.linalg.norm(seg[:, 1] - seg[:, 0], axis=1).sum())

    keys, face, verts, size, rel = _face_vertices(rows, sk.edges[ae], sk.positions, m)
    # a duplicate vertex that took all its twin's edges leaves the twin on no cell
    stray = np.setdiff1d(sk.alive_vertex_ids(), verts)
    if len(stray):
        raise FaceAssemblyError(f"alive vertices {stray.tolist()} lie on no 2-cell")
    loop = sk.positions[verts[np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), face))]]
    end = np.cumsum(size)
    nxt = np.arange(1, len(loop) + 1)
    nxt[end - 1] = end - size
    (x, y), (x_next, y_next) = loop.T, loop[nxt].T.copy()
    # BLAS ddot does not sum in sequence, so any other sum moves the area's
    # last bits: one dot pair per cell, on the strides of the per-cell shoelace
    area = 0.0
    for f in np.flatnonzero(keys[:, out_entry] == inside_sign):
        s = slice(end[f] - size[f], end[f])
        area += 0.5 * abs(np.dot(x[s], y_next[s]) - np.dot(y[s], x_next[s]))
    return ShapeMetrics(area, perimeter, compactness(area, perimeter))


def area_divergence_2d(sk, out_entry, m, model, domain, schedule, inside_sign=-1):
    """Inside area via the divergence theorem; cross-check for the shoelace.

    Integrates x.n/2 over the closed boundary of the inside region:
    level-set edges use the inside cell's affine output gradient as the
    outward direction, domain-facet edges of inside cells use the facet's
    outward normal. `schedule` is the one the skeleton was extracted with.
    """
    if sk.dim != 2:
        raise ValueError("area_divergence_2d requires D = 2")
    out_index = schedule[out_entry - m].index
    ae = sk.alive_edge_ids()
    rows = sk.edge_signs_of(ae)
    zero = np.argmax(rows == 0, axis=1)
    a, b = sk.positions[sk.edges[ae]].transpose(1, 0, 2)
    length = np.linalg.norm(b - a, axis=1)
    level = (zero == out_entry) & (length != 0.0)
    facet = (zero < m) & (rows[:, out_entry] == inside_sign) & (length != 0.0)

    normals = np.zeros_like(a)
    inside_rows = rows[level]
    inside_rows[:, out_entry] = inside_sign
    grad = cell_gradients(model, inside_rows, m, schedule, out_index)
    # the gradient points to positive output, out of a negative inside
    normals[level] = -inside_sign * grad / np.linalg.norm(grad, axis=1)[:, None]
    w = domain.normals[zero[facet]]
    normals[facet] = -w / np.linalg.norm(w, axis=1)[:, None]
    mid = (a + b) / 2.0
    return float(0.5 * np.sum(np.einsum("ij,ij->i", mid, normals) * length))


@dataclass
class DistanceHistogram:
    """Vertex distances from the origin, split interior/boundary."""

    bin_edges: np.ndarray
    interior: np.ndarray
    boundary: np.ndarray
    r: np.ndarray
    is_boundary: np.ndarray
    r_max: float

    @property
    def interior_fraction(self):
        n = len(self.r)
        return float(np.count_nonzero(~self.is_boundary)) / n if n else 0.0

    @property
    def boundary_fraction(self):
        n = len(self.r)
        return float(np.count_nonzero(self.is_boundary)) / n if n else 0.0


def distance_histogram(sk, bins=64):
    """Histogram of r = |x|_2 over alive vertices, normalized by max r.

    A vertex is boundary-class iff any of its first m signs is zero.
    """
    av = sk.alive_vertex_ids()
    r = np.linalg.norm(sk.positions[av], axis=1)
    is_boundary = np.any(sk.vertex_signs[av, : sk.m] == 0, axis=1)
    r_max = float(r.max()) if len(r) else 1.0
    if r_max == 0.0:
        r_max = 1.0
    edges = np.linspace(0.0, 1.0, bins + 1)
    interior, _ = np.histogram(r[~is_boundary] / r_max, bins=edges)
    boundary, _ = np.histogram(r[is_boundary] / r_max, bins=edges)
    return DistanceHistogram(edges, interior, boundary, r, is_boundary, r_max)


# -- exporters -----------------------------------------------------------------


#: rows formatted per batch in export_csv; bounds its text buffers
CSV_BATCH_ROWS = 1 << 12


def export_csv(sk, outdir):
    """vertices.csv and edges.csv for the alive part of the skeleton."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    coords = ",".join(f"x_{j}" for j in range(sk.dim))
    template = ",".join(["%.17g"] * sk.dim)
    with open(outdir / "vertices.csv", "wb") as fh:
        fh.write(f"id,{coords},sign\n".encode())
        _write_csv_rows(
            fh,
            sk.alive_vertex_ids(),
            lambda ids: [template % tuple(x) for x in sk.positions[ids].tolist()],
            lambda ids: sk.vertex_signs[ids],
        )
    with open(outdir / "edges.csv", "wb") as fh:
        fh.write(b"id,v_lo,v_hi,sign\n")
        _write_csv_rows(
            fh,
            sk.alive_edge_ids(),
            lambda ids: [f"{lo},{hi}" for lo, hi in sk.edges[ids].tolist()],
            sk.edge_signs_of,
        )


def _write_csv_rows(fh, ids, fields, signs):
    """Lines `id,<fields(ids)>,<sign text of signs(ids)>` for each id, in
    batches, to a binary file: each line's prefix, then its row of the
    batch's `signvec.sign_lines` block."""
    for start in range(0, len(ids), CSV_BATCH_ROWS):
        batch = ids[start : start + CSV_BATCH_ROWS]
        lines = signvec.sign_lines(signs(batch))
        # the block's rows as fixed-size records: one bytes object per line
        texts = lines.view(np.dtype((np.void, lines.shape[1]))).ravel().tolist()
        prefixes = (f"{i},{f},".encode() for i, f in zip(batch.tolist(), fields(batch)))
        fh.write(b"".join(itertools.chain.from_iterable(zip(prefixes, texts))))


def export_obj(mesh, path):
    """ASCII OBJ: one `v` per vertex, one polygon `f` per face (1-based)."""
    if mesh.positions.shape[1] != 3:
        raise ValueError("OBJ export requires D = 3")
    with open(path, "w") as fh:
        fh.writelines("v %.17g %.17g %.17g\n" % tuple(p) for p in mesh.positions.tolist())
        for loop in mesh.faces:
            fh.write("f " + " ".join(str(i + 1) for i in loop) + "\n")


def export_svg(sk, path, out_entry=None, box=None):
    """SVG of a 2-D skeleton: all edges light, level-set edges heavy."""
    if sk.dim != 2:
        raise ValueError("SVG export requires D = 2")
    if box is None:
        av = sk.alive_vertex_ids()
        lo = sk.positions[av].min(axis=0)
        hi = sk.positions[av].max(axis=0)
    else:
        lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    span = float(max(hi - lo))
    light = 0.003 * span
    heavy = 0.01 * span
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.17g %.17g %.17g %.17g">'
        % (lo[0], -hi[1], hi[0] - lo[0], hi[1] - lo[1]),
        '<g transform="scale(1,-1)">',
        '<g stroke="#999999" stroke-width="%.17g" stroke-linecap="round">' % light,
    ]
    ae = sk.alive_edge_ids()
    on_level = np.zeros(len(ae), bool)
    if out_entry is not None:
        on_level = sk.edge_signs_of(ae)[:, out_entry] == 0
    # each end vertex's coordinates are formatted once, for both groups
    used, ends = np.unique(sk.edges[ae], return_inverse=True)
    coords = [("%.17g" % x, "%.17g" % y) for x, y in sk.positions[used].tolist()]
    ends = ends.reshape(-1, 2)
    lines.extend(_svg_lines(coords, ends[~on_level]))
    lines.append("</g>")
    lines.append('<g stroke="#d62728" stroke-width="%.17g" stroke-linecap="round">' % heavy)
    lines.extend(_svg_lines(coords, ends[on_level]))
    lines.extend(["</g>", "</g>", "</svg>", ""])
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def _svg_lines(coords, ends):
    """One `<line>` element per row of `ends` (two indices into the
    formatted `coords`), in order."""
    return [
        '<line x1="%s" y1="%s" x2="%s" y2="%s"/>' % (coords[a] + coords[b])
        for a, b in ends.tolist()
    ]
