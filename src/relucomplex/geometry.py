"""Zero-level-set extraction, polygon assembly, metrics, and exporters.

The level set of an output neuron consists of the cells whose sign-vector is
zero at that neuron's entry. Inside means negative output (signed-distance
convention); pass inside_sign=+1 to flip.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import model as model_mod
from . import poset
from . import signvec


class EmptyBoundaryError(RuntimeError):
    """The requested level set does not intersect the domain."""


@dataclass
class BoundaryMesh:
    """Level-set subcomplex: vertices, edges, and (in 3-D) polygon faces.

    `edges` and `faces` use local indices into `vertex_ids`; faces are
    ordered vertex loops, counter-clockwise around a normal that points
    toward the positive output side.
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
    be = ae[sk.edge_signs[ae, out_entry] == 0]
    local = np.full(sk.n_vertices, -1, dtype=np.int64)
    local[bv] = np.arange(len(bv))
    return BoundaryMesh(
        out_entry,
        bv,
        sk.positions[bv].copy(),
        sk.vertex_signs[bv].copy(),
        local[sk.edges[be]],
        sk.edge_signs[be].copy(),
    )


def cell_affine_map(model, sign_row, m, schedule=None, out_index=0):
    """Affine map (g, c) of one output neuron on the cell's region.

    The sign at each hidden neuron's entry selects its activation state
    (+ active, otherwise inactive); f(x) = g.x + c holds on the cell.
    """
    sign_row = np.asarray(sign_row, dtype=np.int8)
    if schedule is None:
        schedule = model_mod.infer_schedule(model, len(sign_row) - m)
    pos = {nref: m + i for i, nref in enumerate(schedule)}
    jac = np.eye(model.in_dim)
    off = np.zeros(model.in_dim)
    for l in range(1, model.depth):
        spec = model.layers[l - 1]
        mask = np.array(
            [sign_row[pos[model_mod.NeuronRef(l, i)]] > 0 for i in range(spec.out_dim)],
            dtype=np.float64,
        )
        jac = mask[:, None] * (spec.weights @ jac)
        off = mask * (spec.weights @ off + spec.bias)
    last = model.layers[-1]
    g = last.weights[out_index] @ jac
    c = float(last.weights[out_index] @ off + last.bias[out_index])
    return g, c


def _perp_unit(n):
    k = int(np.argmin(np.abs(n)))
    e = np.zeros(len(n))
    e[k] = 1.0
    u = e - (e @ n) * n
    return u / np.linalg.norm(u)


def assemble_faces(mesh, sk, m, model, schedule=None, planar_tol=1e-9):
    """Fill in the boundary 2-cells of a 3-D level set.

    Faces are found by perturbing each boundary edge's free zero (the one
    that is not the output entry); equal face keys are grouped, and each
    face's vertices are ordered by angle around the centroid within the face
    plane, counter-clockwise around the output gradient.
    """
    if sk.dim != 3:
        raise ValueError("face assembly requires D = 3")
    if schedule is None:
        schedule = model_mod.infer_schedule(model, sk.t)
    if mesh.n_edges == 0:
        mesh.faces = []
        return mesh

    # perturb every zero but the output entry's: hide it as '+', then restore
    edge_rows = mesh.edge_signs.copy()
    edge_rows[:, mesh.out_entry] = 1
    cand, src = signvec.perturb_rows(edge_rows, m)
    cand[:, mesh.out_entry] = 0

    uniq, inverse, counts = signvec.group_rows(cand)
    order = np.argsort(inverse, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(counts)])
    out_index = schedule[mesh.out_entry - m].index

    faces = []
    for g in range(len(uniq)):
        edge_ids = src[order[bounds[g] : bounds[g + 1]]]
        verts = np.unique(mesh.edges[edge_ids].ravel())
        pts = mesh.positions[verts]
        grad, _ = cell_affine_map(model, uniq[g], m, schedule, out_index)
        n = grad / np.linalg.norm(grad)
        centroid = pts.mean(axis=0)
        rel = pts - centroid
        if np.max(np.abs(rel @ n)) > planar_tol:
            raise RuntimeError(
                f"non-planar face loop (> {planar_tol}): {signvec.sign_text(uniq[g])}"
            )
        u = _perp_unit(n)
        v = np.cross(n, u)
        ang = np.arctan2(rel @ v, rel @ u)
        faces.append(verts[np.argsort(ang)])
    mesh.faces = faces
    return mesh


def area_perimeter_2d(sk, out_entry, m, inside_sign=-1):
    """Perimeter of the 2-D level set and area of its inside.

    P sums the lengths of edges with a zero at out_entry; A sums the
    shoelace areas of the 2-cells whose sign there equals `inside_sign`.
    """
    if sk.dim != 2:
        raise ValueError("area_perimeter_2d requires D = 2")
    ae = sk.alive_edge_ids()
    be = ae[sk.edge_signs[ae, out_entry] == 0]
    if len(be) == 0:
        raise EmptyBoundaryError("level set does not intersect the domain")
    seg = sk.positions[sk.edges[be]]
    perimeter = float(np.linalg.norm(seg[:, 1] - seg[:, 0], axis=1).sum())

    _, edge_cells = poset.cellsets_from_skeleton(sk)
    faces = poset.build_parent_cells(edge_cells, m)
    area = 0.0
    for g in np.flatnonzero(faces.signs[:, out_entry] == inside_sign):
        eids = edge_cells.source_ids[faces.children[g]]
        verts = np.unique(sk.edges[eids].ravel())
        area += _convex_polygon_area(sk.positions[verts])
    return ShapeMetrics(area, perimeter, compactness(area, perimeter))


def _convex_polygon_area(pts):
    centroid = pts.mean(axis=0)
    rel = pts - centroid
    order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
    p = pts[order]
    x, y = p[:, 0], p[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def area_divergence_2d(sk, out_entry, m, model, domain, schedule=None, inside_sign=-1):
    """Inside area via the divergence theorem; cross-check for the shoelace.

    Integrates x.n/2 over the closed boundary of the inside region:
    level-set edges use the inside cell's affine output gradient as the
    outward direction, domain-facet edges of inside cells use the facet's
    outward normal.
    """
    if sk.dim != 2:
        raise ValueError("area_divergence_2d requires D = 2")
    if schedule is None:
        schedule = model_mod.infer_schedule(model, sk.t)
    out_index = schedule[out_entry - m].index
    total = 0.0
    for eid in sk.alive_edge_ids():
        row = sk.edge_signs[eid]
        zero = int(np.flatnonzero(row == 0)[0])
        a, b = sk.positions[sk.edges[eid]]
        length = float(np.linalg.norm(b - a))
        if length == 0.0:
            continue
        if zero == out_entry:
            inside_row = row.copy()
            inside_row[out_entry] = inside_sign
            grad, _ = cell_affine_map(model, inside_row, m, schedule, out_index)
            n = grad / np.linalg.norm(grad)
            if inside_sign > 0:
                n = -n
        elif zero < m and row[out_entry] == inside_sign:
            w = domain.facets[zero].normal
            n = -w / np.linalg.norm(w)
        else:
            continue
        mid = (a + b) / 2.0
        total += 0.5 * float(mid @ n) * length
    return total


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


def _fmt(v):
    return format(float(v), ".17g")


#: rows formatted per batch in export_csv; bounds its text buffers
CSV_BATCH_ROWS = 1 << 15


def export_csv(sk, outdir):
    """vertices.csv and edges.csv for the alive part of the skeleton."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    coords = ",".join(f"x_{j}" for j in range(sk.dim))
    with open(outdir / "vertices.csv", "w") as fh:
        fh.write(f"id,{coords},sign\n")
        _write_csv_rows(
            fh,
            sk.alive_vertex_ids(),
            lambda ids: [",".join(map(_fmt, x)) for x in sk.positions[ids].tolist()],
            sk.vertex_signs,
        )
    with open(outdir / "edges.csv", "w") as fh:
        fh.write("id,v_lo,v_hi,sign\n")
        _write_csv_rows(
            fh,
            sk.alive_edge_ids(),
            lambda ids: [f"{lo},{hi}" for lo, hi in sk.edges[ids].tolist()],
            sk.edge_signs,
        )


def _write_csv_rows(fh, ids, fields, signs):
    """Lines `id,<fields(ids)>,<sign text>` for each id, in batches."""
    for start in range(0, len(ids), CSV_BATCH_ROWS):
        batch = ids[start : start + CSV_BATCH_ROWS]
        fh.writelines(
            f"{i},{f},{s}\n"
            for i, f, s in zip(batch.tolist(), fields(batch), signvec.sign_texts(signs[batch]))
        )


def export_obj(mesh, path):
    """ASCII OBJ: one `v` per vertex, one polygon `f` per face (1-based)."""
    if mesh.positions.shape[1] != 3:
        raise ValueError("OBJ export requires D = 3")
    with open(path, "w") as fh:
        for p in mesh.positions:
            fh.write(f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}\n")
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
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(lo[0])} {_fmt(-hi[1])} '
        f'{_fmt(hi[0] - lo[0])} {_fmt(hi[1] - lo[1])}">',
        '<g transform="scale(1,-1)">',
        f'<g stroke="#999999" stroke-width="{_fmt(light)}" stroke-linecap="round">',
    ]
    ae = sk.alive_edge_ids()
    boundary_ids = []
    for eid in ae:
        if out_entry is not None and sk.edge_signs[eid, out_entry] == 0:
            boundary_ids.append(eid)
            continue
        a, b = sk.positions[sk.edges[eid]]
        lines.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
        )
    lines.append("</g>")
    lines.append(
        f'<g stroke="#d62728" stroke-width="{_fmt(heavy)}" stroke-linecap="round">'
    )
    for eid in boundary_ids:
        a, b = sk.positions[sk.edges[eid]]
        lines.append(
            f'<line x1="{_fmt(a[0])}" y1="{_fmt(a[1])}" x2="{_fmt(b[0])}" y2="{_fmt(b[1])}"/>'
        )
    lines.extend(["</g>", "</g>", "</svg>", ""])
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
