import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import centered_output_net
from relucomplex import cli, geometry, poset, signvec
from relucomplex.geometry import (
    EmptyBoundaryError,
    FaceAssemblyError,
    area_divergence_2d,
    area_perimeter_2d,
    assemble_faces,
    boundary_subcomplex,
    cell_gradients,
    compactness,
    distance_histogram,
    export_csv,
    export_obj,
    export_svg,
)
from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    NeuronRef,
    NeuronSchedule,
    diamond_model,
    random_model,
    save_model,
)
from relucomplex.signvec import sign_text
from relucomplex.skeleton import SkeletonError, check_invariants, init_hypercube
from relucomplex.subdivide import extract_complex, subdivide_once
from relucomplex.validate import match_point_sets


def extract_with_output(net, lo, hi):
    domain, sk = init_hypercube(net.in_dim, lo, hi)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    return domain, schedule, sk, schedule.output_entry(sk.m)


@pytest.fixture(scope="module")
def diamond():
    net = diamond_model()
    domain, schedule, sk, out_entry = extract_with_output(net, -2.0, 2.0)
    return net, domain, schedule, sk, out_entry


def test_diamond_boundary_cells(diamond):
    net, domain, schedule, sk, out_entry = diamond
    mesh = boundary_subcomplex(sk, out_entry)
    assert mesh.n_vertices == 4 and mesh.n_edges == 4
    assert match_point_sets(
        mesh.positions, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], 0.0
    )
    assert np.all(mesh.signs[:, out_entry] == 0)


def test_diamond_metrics(diamond):
    net, domain, schedule, sk, out_entry = diamond
    metrics = area_perimeter_2d(sk, out_entry, sk.m)
    assert metrics.area == pytest.approx(2.0, abs=1e-12)
    assert metrics.perimeter == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-12)
    assert metrics.compactness == pytest.approx(np.pi / 4.0, abs=1e-12)


def reference_gradient(model, sign_row, m, schedule, out_index=0):
    """One cell's output gradient by forward Jacobian accumulation."""
    pos = {nref: m + i for i, nref in enumerate(schedule)}
    jac = np.eye(model.in_dim)
    for l in range(1, model.depth):
        spec = model.layers[l - 1]
        mask = np.array(
            [sign_row[pos[NeuronRef(l, i)]] > 0 for i in range(spec.out_dim)], dtype=np.float64
        )
        jac = mask[:, None] * (spec.weights @ jac)
    return model.layers[-1].weights[out_index] @ jac


def reference_divergence_area(sk, out_entry, m, model, domain, schedule, inside_sign=-1):
    """area_divergence_2d one edge and one cell gradient at a time."""
    out_index = schedule[out_entry - m].index
    total = 0.0
    for eid in sk.alive_edge_ids():
        row = sk.edge_signs_of(eid)
        zero = int(np.flatnonzero(row == 0)[0])
        a, b = sk.positions[sk.edges[eid]]
        length = float(np.linalg.norm(b - a))
        if length == 0.0:
            continue
        if zero == out_entry:
            inside_row = row.copy()
            inside_row[out_entry] = inside_sign
            grad = reference_gradient(model, inside_row, m, schedule, out_index)
            n = grad / np.linalg.norm(grad)
            if inside_sign > 0:
                n = -n
        elif zero < m and row[out_entry] == inside_sign:
            w = domain.normals[zero]
            n = -w / np.linalg.norm(w)
        else:
            continue
        total += 0.5 * float((a + b) / 2.0 @ n) * length
    return total


def test_diamond_divergence_cross_check(diamond):
    net, domain, schedule, sk, out_entry = diamond
    shoelace = area_perimeter_2d(sk, out_entry, sk.m).area
    div = area_divergence_2d(sk, out_entry, sk.m, net, domain, schedule)
    assert abs(shoelace - div) <= 1e-9
    for inside in (-1, 1):
        ref = reference_divergence_area(sk, out_entry, sk.m, net, domain, schedule, inside)
        got = area_divergence_2d(sk, out_entry, sk.m, net, domain, schedule, inside)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_divergence_cross_check_random():
    net = centered_output_net(2, 3, 8, seed=3)
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    metrics = area_perimeter_2d(sk, out_entry, sk.m)
    div = area_divergence_2d(sk, out_entry, sk.m, net, domain, schedule)
    assert abs(metrics.area - div) <= 1e-9
    for inside in (-1, 1):
        ref = reference_divergence_area(sk, out_entry, sk.m, net, domain, schedule, inside)
        got = area_divergence_2d(sk, out_entry, sk.m, net, domain, schedule, inside)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def reference_shoelace_area(sk, out_entry, m, inside_sign=-1):
    """area_perimeter_2d's area one 2-cell at a time, cells rebuilt by poset."""
    _, edge_cells = poset.cellsets_from_skeleton(sk)
    faces = poset.build_parent_cells(edge_cells, m)
    area = 0.0
    for g in np.flatnonzero(faces.signs[:, out_entry] == inside_sign):
        eids = edge_cells.source_ids[faces.children[g]]
        pts = sk.positions[np.unique(sk.edges[eids].ravel())]
        rel = pts - pts.mean(axis=0)
        p = pts[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
        x, y = p[:, 0], p[:, 1]
        area += 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    return area


def nets_2d():
    yield "diamond", diamond_model(), 2.0
    for shape, seed in (((2, 3, 8), 0), ((2, 3, 8), 1), ((2, 4, 10), 2), ((2, 6, 24), 3)):
        yield f"{shape}-{seed}", centered_output_net(*shape, seed=seed), 1.0


@pytest.fixture(scope="module", params=list(nets_2d()), ids=lambda case: case[0])
def complex_2d(request):
    _, net, half = request.param
    return extract_with_output(net, -half, half)


def test_area_matches_per_cell_reference(complex_2d):
    # the same dot products on the same loops: equal bits, not just close
    domain, schedule, sk, out_entry = complex_2d
    for inside in (-1, 1):
        got = area_perimeter_2d(sk, out_entry, sk.m, inside_sign=inside).area
        assert got == reference_shoelace_area(sk, out_entry, sk.m, inside)


def test_area_rejects_duplicated_edge():
    # a fresh complex: the module's diamond fixture must stay intact
    domain, schedule, sk, out_entry = extract_with_output(diamond_model(), -2.0, 2.0)
    e = sk.alive_edge_ids()[0]
    sk.append_edges(sk.edges[e : e + 1])
    parents = signvec.perturb_rows(sk.edge_signs_of([e]), sk.m)[0]
    with pytest.raises(FaceAssemblyError) as exc:
        area_perimeter_2d(sk, out_entry, sk.m)
    texts = signvec.sign_texts(parents)
    assert texts == [sign_text(key) for key in parents]
    assert any(f"face {text} has " in str(exc.value) for text in texts)


@pytest.mark.parametrize("rewired", [False, True], ids=["isolated", "on_an_edge"])
def test_area_rejects_duplicated_vertex(rewired):
    domain, schedule, sk, out_entry = extract_with_output(diamond_model(), -2.0, 2.0)
    v = sk.alive_vertex_ids()[0]
    (copy,) = sk.append_vertices(sk.positions[v : v + 1], sk.vertex_signs[v : v + 1])
    if rewired:
        e = np.flatnonzero(sk.edge_alive & np.any(sk.edges == v, axis=1))[0]
        other = sk.edges[e].sum() - v
        sk.edges[e] = (other, copy)
        match = rf"edges but \d+ vertices \[{v}, .*, {copy}\]"
    else:
        match = rf"alive vertices \[{copy}\] lie on no 2-cell"
    with pytest.raises(FaceAssemblyError, match=match):
        area_perimeter_2d(sk, out_entry, sk.m)


def test_cell_gradients_match_per_row_reference():
    net = random_model(3, 3, 16, 2, seed=4)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    m = 6
    rows = np.random.default_rng(0).integers(-1, 2, size=(200, m + len(schedule)))
    rows = rows.astype(np.int8)
    for out_index in (0, 1):
        got = cell_gradients(net, rows, m, schedule, out_index)
        ref = np.array([reference_gradient(net, r, m, schedule, out_index) for r in rows])
        assert got.shape == (len(rows), 3)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


def test_compactness_values():
    assert compactness(np.pi, 2.0 * np.pi) == 1.0
    assert compactness(2.0, 4.0 * np.sqrt(2.0)) == pytest.approx(np.pi / 4, abs=1e-12)
    assert compactness(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        compactness(1.0, 0.0)


def test_boundary_out_entry_range(diamond):
    net, domain, schedule, sk, out_entry = diamond
    with pytest.raises(ValueError):
        boundary_subcomplex(sk, sk.sign_width)


def test_empty_level_set():
    # output = ReLU(x) + 100 never crosses zero on the domain
    net = MlpSpec(
        (
            LayerSpec(np.array([[1.0, 0.0]]), np.array([0.0])),
            LayerSpec(np.array([[1.0]]), np.array([100.0])),
        ),
        2,
    )
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    mesh = boundary_subcomplex(sk, out_entry)
    assert mesh.n_vertices == 0 and mesh.n_edges == 0
    with pytest.raises(EmptyBoundaryError):
        area_perimeter_2d(sk, out_entry, sk.m)


def test_boundary_vertex_degree_2(diamond):
    # level set is a 1-manifold: interior boundary vertices have degree 2
    net, domain, schedule, sk, out_entry = diamond
    mesh = boundary_subcomplex(sk, out_entry)
    degree = np.bincount(mesh.edges.ravel(), minlength=mesh.n_vertices)
    on_facet = np.any(mesh.signs[:, : sk.m] == 0, axis=1)
    assert np.all(degree[~on_facet] == 2)


def test_boundary_vertex_degree_2_random():
    net = centered_output_net(2, 4, 10, seed=1)
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    mesh = boundary_subcomplex(sk, out_entry)
    degree = np.bincount(mesh.edges.ravel(), minlength=mesh.n_vertices)
    on_facet = np.any(mesh.signs[:, : sk.m] == 0, axis=1)
    assert np.all(degree[~on_facet] == 2)
    assert np.all(degree[on_facet] == 1)


def plane_net():
    return MlpSpec((LayerSpec(np.array([[0.0, 0.0, 1.0]]), np.array([0.0])),), 3)


def test_plane_face_assembly(tmp_path):
    net = plane_net()
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    mesh = boundary_subcomplex(sk, out_entry)
    mesh = assemble_faces(mesh, sk, sk.m, net, schedule)
    assert mesh.n_vertices == 4 and mesh.n_edges == 4
    assert len(mesh.faces) == 1
    loop = mesh.positions[mesh.faces[0]]
    # in-plane shoelace: the square z=0 in [-1,1]^3 has area 4
    x, y = loop[:, 0], loop[:, 1]
    area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert area == pytest.approx(4.0, abs=1e-12)
    # orientation: counter-clockwise around +z (the output gradient)
    signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert signed > 0
    path = tmp_path / "plane.obj"
    export_obj(mesh, path)
    text = path.read_text().splitlines()
    assert sum(1 for l in text if l.startswith("v ")) == 4
    assert sum(1 for l in text if l.startswith("f ")) == 1


def reference_faces(mesh, sk, m, model, schedule, planar_tol=1e-9):
    """Face loops of a 3-D level set, one face and one gradient at a time."""
    edge_rows = mesh.edge_signs.copy()
    edge_rows[:, mesh.out_entry] = 1
    cand, src = signvec.perturb_rows(edge_rows, m)
    cand[:, mesh.out_entry] = 0
    uniq, order, counts = signvec.group_rows(cand)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    out_index = schedule[mesh.out_entry - m].index
    faces = []
    for g in range(len(uniq)):
        edge_ids = src[order[bounds[g] : bounds[g + 1]]]
        verts = np.unique(mesh.edges[edge_ids].ravel())
        pts = mesh.positions[verts]
        grad = reference_gradient(model, uniq[g], m, schedule, out_index)
        n = grad / np.linalg.norm(grad)
        rel = pts - pts.mean(axis=0)
        assert np.max(np.abs(rel @ n)) <= planar_tol
        k = int(np.argmin(np.abs(n)))
        e = np.zeros(3)
        e[k] = 1.0
        u = e - (e @ n) * n
        u = u / np.linalg.norm(u)
        v = np.cross(n, u)
        faces.append(verts[np.argsort(np.arctan2(rel @ v, rel @ u))])
    return faces


@pytest.mark.parametrize(
    "shape, seed",
    [((3, 2, 6), 0), ((3, 2, 6), 1), ((3, 2, 6), 2), ((3, 3, 16), 5), ((3, 4, 32), 0)],
)
def test_faces_match_per_face_reference(shape, seed):
    net = centered_output_net(*shape, seed=seed)
    domain, sk = init_hypercube(3, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule, level_set_prune=True)
    mesh = boundary_subcomplex(sk, schedule.output_entry(sk.m))
    ref = reference_faces(mesh, sk, sk.m, net, schedule)
    faces = assemble_faces(mesh, sk, sk.m, net, schedule).faces
    assert len(ref) > 0 and len(faces) == len(ref)
    for got, want in zip(faces, ref):
        np.testing.assert_array_equal(got, want)


def test_obj_matches_per_vertex_reference(tmp_path):
    net = centered_output_net(3, 2, 6, seed=2)
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    mesh = assemble_faces(boundary_subcomplex(sk, out_entry), sk, sk.m, net, schedule)
    assert len(mesh.faces) > 0
    export_obj(mesh, tmp_path / "got.obj")

    def fmt(x):
        return format(float(x), ".17g")

    lines = [f"v {fmt(p[0])} {fmt(p[1])} {fmt(p[2])}" for p in mesh.positions]
    lines += ["f " + " ".join(str(int(i) + 1) for i in loop) for loop in mesh.faces]
    assert (tmp_path / "got.obj").read_bytes() == ("\n".join(lines) + "\n").encode()


def test_non_planar_face_raises(monkeypatch):
    net = plane_net()
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    key = np.ones(sk.sign_width, dtype=np.int8)
    key[out_entry] = 0
    mesh = boundary_subcomplex(sk, out_entry)
    mesh.positions[0, 2] += 1e-6
    with pytest.raises(FaceAssemblyError) as exc:
        assemble_faces(mesh, sk, sk.m, net, schedule)
    message = str(exc.value)
    text = "".join("-0+"[s + 1] for s in key)
    assert sign_text(key) == signvec.sign_texts(key[None])[0] == text
    assert f"non-planar face loop {text}: " in message
    assert str(sorted(mesh.vertex_ids.tolist())) in message
    assert "7.5e-07" in message
    # a zero gradient leaves no plane: the NaN deviation must fail too
    mesh = boundary_subcomplex(sk, out_entry)
    monkeypatch.setattr(
        geometry, "cell_gradients", lambda model, rows, *args: np.zeros((len(rows), 3))
    )
    with np.errstate(invalid="ignore"), pytest.raises(FaceAssemblyError, match="nan"):
        assemble_faces(mesh, sk, sk.m, net, schedule)


@pytest.mark.parametrize("corrupt", ["edge", "vertex"])
def test_face_count_check_3d(corrupt):
    # the plane z = 0 in the cube: one square face, 4 edges, 4 vertices
    net = plane_net()
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    mesh = boundary_subcomplex(sk, out_entry)
    ids = mesh.vertex_ids.tolist()
    if corrupt == "edge":
        mesh.edges = np.concatenate([mesh.edges, mesh.edges[:1]])
        mesh.edge_signs = np.concatenate([mesh.edge_signs, mesh.edge_signs[:1]])
        counts = "5 edges but 4 vertices"
    else:
        # a twin of local vertex 0, with a skeleton id of its own
        mesh.positions = np.concatenate([mesh.positions, mesh.positions[:1]])
        mesh.vertex_ids = np.append(mesh.vertex_ids, sk.n_vertices)
        ids.append(sk.n_vertices)
        e = np.flatnonzero(np.any(mesh.edges == 0, axis=1))[0]
        mesh.edges[e] = np.where(mesh.edges[e] == 0, 4, mesh.edges[e])
        counts = "4 edges but 5 vertices"
    # the key shows the level set's own entry as 0, and the vertices by skeleton id
    key = "+" * (sk.sign_width - 1) + "0"
    with pytest.raises(FaceAssemblyError) as exc:
        assemble_faces(mesh, sk, sk.m, net, schedule)
    assert str(exc.value) == f"face {key} has {counts} {ids}"


def run_plane_boundary(tmp_path, name, *flags):
    save_model(plane_net(), tmp_path / "plane.json")
    return cli.main(
        ["boundary", "--model", str(tmp_path / "plane.json"), "--out", str(tmp_path / name),
         *flags]
    )


def test_boundary_face_error_exits_4(tmp_path, monkeypatch, capsys):
    real = geometry.assemble_faces

    def tilted(mesh, *args, **kwargs):
        mesh.positions[0, 2] += 1e-6
        return real(mesh, *args, **kwargs)

    monkeypatch.setattr(geometry, "assemble_faces", tilted)
    assert run_plane_boundary(tmp_path, "out") == 4
    assert "non-planar face loop ++++++0" in capsys.readouterr().err


def test_inside_positive_reverses_loops(tmp_path):
    def face_lines(name):
        text = (tmp_path / name / "boundary.obj").read_text().splitlines()
        return [l.split()[1:] for l in text if l.startswith("f ")]

    assert run_plane_boundary(tmp_path, "neg") == 0
    assert run_plane_boundary(tmp_path, "pos", "--inside-positive") == 0
    neg, pos = face_lines("neg"), face_lines("pos")
    assert len(neg) == 1 and pos == [loop[::-1] for loop in neg]


def test_random_3d_faces_edge_sharing():
    net = centered_output_net(3, 2, 6, seed=2)
    domain, schedule, sk, out_entry = extract_with_output(net, -1.0, 1.0)
    mesh = boundary_subcomplex(sk, out_entry)
    mesh = assemble_faces(mesh, sk, sk.m, net, schedule)
    assert len(mesh.faces) > 0
    # count face membership per boundary edge
    pair_count = {}
    for loop in mesh.faces:
        for i in range(len(loop)):
            a, b = loop[i], loop[(i + 1) % len(loop)]
            key = (min(a, b), max(a, b))
            pair_count[key] = pair_count.get(key, 0) + 1
    edge_on_facet = np.any(mesh.edge_signs[:, : sk.m] == 0, axis=1)
    for i, (a, b) in enumerate(mesh.edges):
        key = (min(a, b), max(a, b))
        shared = pair_count.get(key, 0)
        assert shared == (1 if edge_on_facet[i] else 2)


def test_distance_histogram_trivial():
    _, sk = init_hypercube(2, -1.0, 1.0)
    hist = distance_histogram(sk)
    assert hist.boundary_fraction == 1.0 and hist.interior_fraction == 0.0
    assert np.allclose(hist.r, np.sqrt(2.0))
    assert hist.interior_fraction + hist.boundary_fraction == 1.0
    assert hist.boundary.sum() == 4


def test_svg_export(diamond, tmp_path):
    net, domain, schedule, sk, out_entry = diamond
    path = tmp_path / "diamond.svg"
    export_svg(sk, path, out_entry, box=([-2, -2], [2, 2]))
    text = path.read_text()
    heavy = text.split('stroke="#d62728"')[1]
    assert heavy.count("<line") == 4
    again = tmp_path / "again.svg"
    export_svg(sk, again, out_entry, box=([-2, -2], [2, 2]))
    assert path.read_bytes() == again.read_bytes()
    with pytest.raises(ValueError):
        export_svg(init_hypercube(3, 0, 1)[1], tmp_path / "x.svg")


def reference_svg(sk, path, out_entry=None, box=None):
    """export_svg one edge at a time."""

    def fmt(v):
        return format(float(v), ".17g")

    if box is None:
        av = sk.alive_vertex_ids()
        lo, hi = sk.positions[av].min(axis=0), sk.positions[av].max(axis=0)
    else:
        lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    span = float(max(hi - lo))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{fmt(lo[0])} {fmt(-hi[1])} '
        f'{fmt(hi[0] - lo[0])} {fmt(hi[1] - lo[1])}">',
        '<g transform="scale(1,-1)">',
        f'<g stroke="#999999" stroke-width="{fmt(0.003 * span)}" stroke-linecap="round">',
    ]
    heavy = []
    for eid in sk.alive_edge_ids():
        a, b = sk.positions[sk.edges[eid]]
        line = f'<line x1="{fmt(a[0])}" y1="{fmt(a[1])}" x2="{fmt(b[0])}" y2="{fmt(b[1])}"/>'
        if out_entry is not None and sk.edge_signs_of(eid)[out_entry] == 0:
            heavy.append(line)
        else:
            lines.append(line)
    lines.append("</g>")
    lines.append(f'<g stroke="#d62728" stroke-width="{fmt(0.01 * span)}" stroke-linecap="round">')
    lines.extend(heavy)
    lines.extend(["</g>", "</g>", "</svg>", ""])
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def test_svg_matches_per_edge_reference(complex_2d, tmp_path):
    domain, schedule, sk, out_entry = complex_2d
    for entry in (out_entry, None):
        for box in (None, ([-3.0, -2.0], [2.0, 3.0])):
            export_svg(sk, tmp_path / "got.svg", entry, box)
            reference_svg(sk, tmp_path / "want.svg", entry, box)
            got = (tmp_path / "got.svg").read_bytes()
            assert got == (tmp_path / "want.svg").read_bytes()
            heavy = got.split(b'stroke="#d62728"')[1].count(b"<line")
            assert (heavy > 0) == (entry is not None)


def test_csv_export(tmp_path, diamond):
    net, domain, schedule, sk, out_entry = diamond
    export_csv(sk, tmp_path)
    vlines = (tmp_path / "vertices.csv").read_text().splitlines()
    elines = (tmp_path / "edges.csv").read_text().splitlines()
    assert vlines[0] == "id,x_0,x_1,sign"
    assert elines[0] == "id,v_lo,v_hi,sign"
    assert len(vlines) == sk.n_vertices_alive + 1
    assert len(elines) == sk.n_edges_alive + 1


@pytest.fixture
def session(monkeypatch):
    """perfbench/session.py, imported without writing into perfbench/."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module("session")


def test_csv_round_trip_checks_edge_rows(tmp_path, session):
    # the benchmark rebuilds the extracted complex from its CSV files, edge
    # sign rows included; they are checked against the derived rows
    net = centered_output_net(2, 3, 8, seed=1)
    domain, schedule, sk, _ = extract_with_output(net, -1.0, 1.0)
    export_csv(sk, tmp_path)
    back = session._load_skeleton_csv(tmp_path, sk.dim, sk.m)
    check_invariants(back)
    for name in ("positions", "vertex_signs", "edges", "edge_signs"):
        assert np.array_equal(getattr(back, name), getattr(sk, name)), name

    path = tmp_path / "edges.csv"
    lines = path.read_text().splitlines(keepends=True)
    e = sk.n_edges // 2
    row = lines[e + 1]
    flip = row.rindex("+")  # in the sign text: ids hold only digits
    lines[e + 1] = row[:flip] + "-" + row[flip + 1 :]
    path.write_text("".join(lines))
    with pytest.raises(SkeletonError, match=f"^edge {e} sign-vector differs"):
        session._load_skeleton_csv(tmp_path, sk.dim, sk.m)


def csv_reference(sk):
    """The bytes of vertices.csv and edges.csv, built line by line."""

    def text(row):
        return "".join("-0+"[s + 1] for s in row.tolist())

    coords = ",".join(f"x_{j}" for j in range(sk.dim))
    vlines = [f"id,{coords},sign"] + [
        ",".join([str(v)] + [format(float(x), ".17g") for x in sk.positions[v]])
        + f",{text(sk.vertex_signs[v])}"
        for v in range(sk.n_vertices)
        if sk.vertex_alive[v]
    ]
    elines = ["id,v_lo,v_hi,sign"] + [
        f"{e},{sk.edges[e, 0]},{sk.edges[e, 1]},{text(sk.edge_signs_of(e))}"
        for e in range(sk.n_edges)
        if sk.edge_alive[e]
    ]
    return [("\n".join(lines) + "\n").encode() for lines in (vlines, elines)]


def uncompacted_skeleton(dim, seed):
    """A skeleton of a centered net left uncompacted: split edges and every
    fourth vertex are dead, so ids skip, and spare sign columns make the
    sign views strided."""
    net = centered_output_net(dim, 2, 6 if dim < 3 else 4, seed=seed)
    domain, sk = init_hypercube(dim, -1.0, 1.0)
    neurons = list(NeuronSchedule.for_model(net, include_output=True))
    sk.reserve_sign_width(sk.m + len(neurons) + 3)
    for nref in neurons:
        subdivide_once(sk, net, nref)
    sk.vertex_alive[::4] = False
    assert not sk.edge_alive.all()
    assert {-1, 0, 1} <= set(np.unique(sk.edge_signs).tolist())
    return sk


def test_csv_matches_per_row_reference(tmp_path, monkeypatch):
    sk = uncompacted_skeleton(2, seed=4)
    monkeypatch.setattr(geometry, "CSV_BATCH_ROWS", 7)
    export_csv(sk, tmp_path)
    vertices, edges = csv_reference(sk)
    assert (tmp_path / "vertices.csv").read_bytes() == vertices
    assert (tmp_path / "edges.csv").read_bytes() == edges


@pytest.mark.parametrize("dim", [1, 3])
def test_csv_batches_match_per_row_reference(tmp_path, monkeypatch, dim):
    # batches of 5 rows, so both files take more than one
    sk = uncompacted_skeleton(dim, seed=2)
    monkeypatch.setattr(geometry, "CSV_BATCH_ROWS", 5)
    export_csv(sk, tmp_path)
    vertices, edges = csv_reference(sk)
    assert min(sk.n_vertices_alive, sk.n_edges_alive) > 5
    assert (tmp_path / "vertices.csv").read_bytes() == vertices
    assert (tmp_path / "edges.csv").read_bytes() == edges
