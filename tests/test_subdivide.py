import numpy as np
import pytest

from conftest import centered_output_net, extract_random
from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    NeuronRef,
    NeuronSchedule,
    batch_preactivation,
    random_model,
)
from relucomplex.signvec import row_keys, sign_text
from relucomplex.skeleton import check_invariants, compact, init_hypercube
from relucomplex.subdivide import (
    LayerValueCache,
    PairingError,
    extract_complex,
    pair_splitting_faces,
    prune_future,
    subdivide_once,
)
from relucomplex.validate import match_point_sets, oracle_single_layer_vertices
from relucomplex.geometry import export_csv


def line_net(w, b):
    return MlpSpec((LayerSpec(np.array([list(w)], dtype=float), np.array([b], dtype=float)),), len(w))


def test_square_hand_enumeration():
    # unit square cut by x + y = 0.5
    net = line_net((1.0, 1.0), -0.5)
    domain, sk = init_hypercube(2, 0.0, 1.0)
    stats = subdivide_once(sk, net, NeuronRef(1, 0))
    assert (stats.vertices_before, stats.vertices_after) == (4, 6)
    assert (stats.edges_before, stats.edges_after) == (4, 7)
    assert stats.n_splitting == 2
    assert stats.n_intersecting == 1
    check_invariants(sk)
    new_positions = sk.positions[4:]
    assert match_point_sets(new_positions, [[0.5, 0.0], [0.0, 0.5]], 0.0)
    # the single intersecting edge spans the interior 2-face
    inter = sk.edges[-1]
    assert sign_text(sk.edge_signs[-1]) == "++++0"
    assert sorted(inter.tolist()) == [4, 5]


def test_hyperplane_missing_domain():
    net = line_net((1.0, 1.0), 10.0)
    _, sk = init_hypercube(2, 0.0, 1.0)
    stats = subdivide_once(sk, net, NeuronRef(1, 0))
    assert stats.n_splitting == 0 and stats.n_intersecting == 0
    assert stats.vertices_after == 4 and stats.edges_after == 4
    assert np.all(sk.vertex_signs[:, -1] == 1)


def test_cube_generic_plane_closed_polygon():
    net = line_net((0.3, 0.5, 0.7), -0.1)
    _, sk = init_hypercube(3, -1.0, 1.0)
    stats = subdivide_once(sk, net, NeuronRef(1, 0))
    assert stats.vertices_after - stats.vertices_before == stats.n_splitting
    # the section of a convex polytope is a closed polygon: |edges| == |vertices|
    assert stats.n_intersecting == stats.n_splitting
    check_invariants(sk)


def test_new_vertex_at_interpolated_crossing():
    # 4x - 1 is 3 at x=1 and -1 at x=0: t = 3 / (3 - -1) = 0.75 from the
    # positive end, so the new vertex sits at x = 0.25
    net = line_net((4.0,), -1.0)
    _, sk = init_hypercube(1, 0.0, 1.0)
    stats = subdivide_once(sk, net, NeuronRef(1, 0))
    assert stats.n_splitting == 1
    assert sk.positions[-1].tolist() == [0.25]
    assert sign_text(sk.vertex_signs[-1]) == "++0"
    # the halves toward the positive and the negative end carry '+' and '-'
    halves = {sign_text(sk.edge_signs[e]): sorted(sk.edges[e].tolist()) for e in (-2, -1)}
    assert halves == {"+++": [1, 2], "++-": [0, 2]}


def test_interpolation_residual_small():
    # every new vertex is an interpolated crossing; re-evaluating its
    # zero-entry neurons at the stored position must give tiny values
    from relucomplex.validate import residuals

    net, domain, schedule, sk, _ = extract_random(3, 4, 10, seed=3)
    rep = residuals(sk, net, domain, schedule)
    assert rep.max_abs <= 1e-9


def split_square():
    """Unit square after x + y = 0.5: pre-split rows of its two split edges."""
    net = line_net((1.0, 1.0), -0.5)
    _, sk = init_hypercube(2, 0.0, 1.0)
    subdivide_once(sk, net, NeuronRef(1, 0))
    dead = np.flatnonzero(~sk.edge_alive)
    return sk.edge_signs[dead, :-1], np.array([4, 5])


def test_pair_splitting_faces_square():
    pre_rows, new_vids = split_square()
    pairs, rows = pair_splitting_faces(pre_rows, new_vids, m=4)
    assert pairs.tolist() == [[4, 5]]
    assert [sign_text(r) for r in rows] == ["++++0"]


def test_pair_splitting_faces_d1():
    net = line_net((1.0,), 0.0)
    _, sk = init_hypercube(1, -1.0, 1.0)
    subdivide_once(sk, net, NeuronRef(1, 0))
    dead = np.flatnonzero(~sk.edge_alive)
    pairs, rows = pair_splitting_faces(sk.edge_signs[dead, :-1], np.array([2]), m=2)
    assert pairs.shape == (0, 2) and rows.shape == (0, 3)


def test_pair_splitting_faces_unpaired_face():
    # one of the square's two splitting edges alone: its face occurs once
    pre_rows, new_vids = split_square()
    with pytest.raises(PairingError, match=r"2-face \+\+\+\+ occurred 1 times, expected 2"):
        pair_splitting_faces(pre_rows[:1], new_vids[:1], m=4)


def test_extract_empty_schedule():
    net = random_model(2, 1, 3, 1, seed=0)
    domain, sk = init_hypercube(2, 0.0, 1.0)
    out, stats = extract_complex(net, domain, sk, NeuronSchedule((), False))
    assert stats == []
    assert out.n_vertices == 4 and out.n_edges == 4


def test_extract_requires_fresh_skeleton():
    net = random_model(2, 1, 3, 1, seed=0)
    domain, sk = init_hypercube(2, 0.0, 1.0)
    schedule = NeuronSchedule.for_model(net)
    extract_complex(net, domain, sk, schedule)
    with pytest.raises(ValueError):
        extract_complex(net, domain, sk, schedule)


def test_extract_deterministic_exports(tmp_path):
    for run in ("a", "b"):
        net, domain, schedule, sk, _ = extract_random(2, 3, 6, seed=9)
        export_csv(sk, tmp_path / run)
    for name in ("vertices.csv", "edges.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_extract_invariants_each_iteration():
    net = random_model(2, 3, 5, 1, seed=1)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    out, stats = extract_complex(net, domain, sk, schedule, validate_each=True)
    for st in stats:
        assert st.vertices_after == st.vertices_before + st.n_splitting
        assert st.edges_after == st.edges_before + st.n_splitting + st.n_intersecting


def test_extract_single_layer_matches_oracle():
    net, domain, _, sk, _ = extract_random(2, 1, 8, seed=0)
    pos, rows = oracle_single_layer_vertices(net, domain)
    assert sk.n_vertices_alive == len(pos)
    assert match_point_sets(sk.positions[sk.alive_vertex_ids()], pos, 1e-8)


def test_subdivide_once_without_cache_matches_extraction():
    # a fresh value cache per call gives the same skeleton, bit for bit, as
    # the one cache extract_complex carries through the schedule
    net = centered_output_net(2, 3, 8, seed=2)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    a, _ = extract_complex(net, domain, sk, schedule)
    _, b = init_hypercube(2, -1.0, 1.0)
    for nref in schedule:
        subdivide_once(b, net, nref)
    b = compact(b)
    for name in ("positions", "vertex_signs", "edges", "edge_signs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_cache_matches_direct_evaluation():
    net = random_model(2, 3, 5, 1, seed=8)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    cache = LayerValueCache(net, sk.positions)
    cache.advance_to(2)
    nref = NeuronRef(2, 1)
    got = cache.preactivation(nref, np.arange(4))
    want = batch_preactivation(net, sk.positions, nref)
    assert np.array_equal(got, want)
    with pytest.raises(ValueError):
        cache.advance_to(1)


def test_prune_future_empty_remaining():
    net, domain, _, sk, _ = extract_random(2, 2, 4, seed=0)
    before = (sk.n_vertices_alive, sk.n_edges_alive)
    stats = prune_future(sk, net, [])
    assert (stats.edges_killed, stats.vertices_killed) == (0, 0)
    assert (sk.n_vertices_alive, sk.n_edges_alive) == before


def test_prune_future_keeps_output_splitting_edges():
    net = centered_output_net(2, 2, 6, seed=1)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    for nref in schedule[:-1]:
        subdivide_once(sk, net, nref)
    out_ref = schedule[-1]
    alive = sk.alive_edge_ids()
    vals = batch_preactivation(net, sk.positions, out_ref)
    signs = np.where(vals > 0, 1, -1)
    ends = sk.edges[alive]
    crossing_ids = alive[signs[ends[:, 0]] != signs[ends[:, 1]]]
    assert len(crossing_ids) > 0
    prune_future(sk, net, [out_ref])
    assert np.all(sk.edge_alive[crossing_ids])


def test_prune_equivalence_small():
    net = centered_output_net(2, 3, 8, seed=0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    outs = {}
    for prune in (False, True):
        domain, sk = init_hypercube(2, -1.0, 1.0)
        out, stats = extract_complex(net, domain, sk, schedule, level_set_prune=prune)
        out_entry = schedule.output_entry(out.m)
        from relucomplex.geometry import boundary_subcomplex

        mesh = boundary_subcomplex(out, out_entry)
        outs[prune] = (mesh, sum(s.edges_before for s in stats))
    mesh0, work0 = outs[False]
    mesh1, work1 = outs[True]
    assert set(row_keys(mesh0.signs)) == set(row_keys(mesh1.signs))
    assert set(row_keys(mesh0.edge_signs)) == set(row_keys(mesh1.edge_signs))
    assert work1 < work0


def test_d1_extraction_has_no_intersecting_edges():
    net, domain, _, sk, stats = extract_random(1, 2, 4, seed=0)
    assert all(s.n_intersecting == 0 for s in stats)
    check_invariants(sk)


def test_coincident_folds_survive_via_tie_break():
    # |x|+|y|-1 from literal ReLU pairs: the folds of ReLU(u) and ReLU(-u)
    # coincide, so every vertex on one lands exactly on the other. The
    # exact-zero-to-minus rule resolves this as an infinitesimally perturbed
    # arrangement: extraction completes with zero-length sliver cells, the
    # degeneracy counter records the hits, and lengths/areas stay exact.
    w1 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    w2 = np.array([[1.0, 1.0, 1.0, 1.0]])
    net = MlpSpec(
        (LayerSpec(w1, np.zeros(4)), LayerSpec(w2, np.array([-1.0]))), 2
    )
    domain, sk = init_hypercube(2, -2.0, 2.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, stats = extract_complex(net, domain, sk, schedule, validate_each=True)
    assert sk.degenerate_count > 0
    out_entry = schedule.output_entry(sk.m)
    from relucomplex.geometry import area_perimeter_2d
    from relucomplex.validate import midpoint_check

    metrics = area_perimeter_2d(sk, out_entry, sk.m)
    assert metrics.area == pytest.approx(2.0, abs=1e-12)
    assert metrics.perimeter == pytest.approx(4.0 * np.sqrt(2.0), abs=1e-12)
    rep = midpoint_check(sk, net, domain, 1e-8, schedule)
    assert rep.n_fail == 0
