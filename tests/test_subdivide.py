import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    centered_output_net,
    check_nonfinite_message,
    extract_random,
    one_intersecting_edge_too_many,
    overflow_net,
    sign_tuples,
)
from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    NeuronRef,
    NeuronSchedule,
    batch_preactivation,
    batch_preactivations,
    diamond_model,
    random_model,
)
from relucomplex import signvec, skeleton as skeleton_mod
from relucomplex.signvec import sign_text
from relucomplex.skeleton import SkeletonError, check_invariants, compact, init_hypercube
from relucomplex.subdivide import (
    IterationStats,
    LayerValueCache,
    PairingError,
    extract_complex,
    pair_splitting_faces,
    prune_future,
    subdivide_layer,
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


def test_count_identity_error_names_the_neuron(monkeypatch):
    one_intersecting_edge_too_many(monkeypatch)
    _, sk = init_hypercube(2, 0.0, 1.0)
    with pytest.raises(SkeletonError) as err:
        subdivide_once(sk, line_net((1.0, 1.0), -0.5), NeuronRef(1, 0))
    assert str(err.value) == (
        "edge count identity violated at neuron 1:0: alive 4 -> 7, n_split 2, n_inter 2"
    )


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
    pairs = pair_splitting_faces(pre_rows, new_vids, m=4)
    assert pairs.tolist() == [[4, 5]]


def test_pair_splitting_faces_d1():
    net = line_net((1.0,), 0.0)
    _, sk = init_hypercube(1, -1.0, 1.0)
    subdivide_once(sk, net, NeuronRef(1, 0))
    dead = np.flatnonzero(~sk.edge_alive)
    pairs = pair_splitting_faces(sk.edge_signs[dead, :-1], np.array([2]), m=2)
    assert pairs.shape == (0, 2)


def test_pair_splitting_faces_unpaired_face():
    # one of the square's two splitting edges alone: its face occurs once
    pre_rows, new_vids = split_square()
    with pytest.raises(PairingError, match=r"2-face \+\+\+\+ occurred 1 times, expected 2"):
        pair_splitting_faces(pre_rows[:1], new_vids[:1], m=4)
    # the named key is the face's text, one row or in a batch alike
    face = signvec.perturb_rows(pre_rows[:1], 4)[0]
    assert sign_text(face[0]) == signvec.sign_texts(face)[0] == "++++"


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


class RecomputingCache:
    """Reference value cache: evaluates model.batch_preactivation at the
    requested vertices' positions on every call, with no stored values."""

    def __init__(self, model, positions):
        self.model = model
        self.layer = 1
        self.positions = np.array(positions, dtype=np.float64)

    @property
    def n_rows(self):
        return len(self.positions)

    def advance_to(self, layer):
        assert layer >= self.layer
        self.layer = layer

    def values(self, rows):
        return batch_preactivations(self.model, self.positions[rows])[self.layer - 1]

    def preactivation(self, neuron, rows):
        assert neuron.layer == self.layer
        return batch_preactivation(self.model, self.positions[rows], neuron)

    def extend(self, positions):
        self.positions = np.concatenate([self.positions, positions])


def reference_prune(sk, model, remaining):
    """prune_future by full forward passes: kill alive edges whose endpoints
    agree in sign on every remaining neuron, then isolated vertices."""
    pres = batch_preactivations(model, sk.positions)
    signs = np.column_stack([pres[nr.layer - 1][:, nr.index] > 0.0 for nr in remaining])
    ae = sk.alive_edge_ids()
    same = np.all(signs[sk.edges[ae, 0]] == signs[sk.edges[ae, 1]], axis=1)
    sk.edge_alive[ae[same]] = False
    degree = np.bincount(sk.edges[sk.alive_edge_ids()].ravel(), minlength=sk.n_vertices)
    sk.vertex_alive[degree == 0] = False


@pytest.mark.parametrize(
    "dim, prune", [(2, False), (3, True)], ids=["2d_output", "3d_level_set_pruned"]
)
def test_cache_matches_recomputing_reference(dim, prune):
    # the per-layer matrix (rows appended for new vertices, columns read per
    # neuron, the constant-column shortcut, prune_future's forward pass from
    # it) against per-call evaluation at the vertex positions
    net = centered_output_net(dim, 3, 8, seed=2)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    domain, sk = init_hypercube(dim, -1.0, 1.0)
    a, stats_a = extract_complex(net, domain, sk, schedule, level_set_prune=prune)

    _, b = init_hypercube(dim, -1.0, 1.0)
    cache = RecomputingCache(net, b.positions)
    stats_b = []
    neurons = list(schedule)
    for i, nref in enumerate(neurons):
        stats_b.append(subdivide_once(b, net, nref, cache=cache))
        if prune and i + 1 < len(neurons) and neurons[i + 1].layer > nref.layer:
            reference_prune(b, net, neurons[i + 1 :])
    assert (not b.vertex_alive.all()) == prune
    b = compact(b)

    for name in ("positions", "vertex_signs", "edges", "edge_signs"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.degenerate_count == b.degenerate_count
    strip = lambda st: {k: v for k, v in st.to_json().items() if k != "seconds"}
    assert [strip(st) for st in stats_a] == [strip(st) for st in stats_b]
    # both paths ran: some neurons split edges, some have a constant column
    assert any(st.n_splitting for st in stats_a)
    assert any(st.n_splitting == 0 for st in stats_a)


def reference_subdivide_once(sk, model, neuron, cache, erows=None):
    """One neuron the per-neuron way: one full-width sign column, written
    into every row, and the split and pairing steps for that neuron alone.

    `erows`, if given, are edge sign rows the reference stores itself: one
    column per neuron (0 on dead rows), and rows for new edges from the
    split and pairing steps. The split edges' rows then come from them, not
    from the endpoints. Returns the stats and the grown `erows`."""
    t0 = time.perf_counter()
    neuron.validate(model)
    m = sk.m
    nv_before = sk.n_vertices_alive
    ne_before = sk.n_edges_alive

    av = sk.alive_vertex_ids()
    cache.advance_to(neuron.layer)
    vals_alive = cache.preactivation(neuron, av)
    signs_alive, n_deg = signvec.signs_of_values(vals_alive[:, None])
    signs_alive = signs_alive[:, 0]
    sk.degenerate_count += int(n_deg[0])
    vcol = np.full(sk.n_vertices, -1, dtype=np.int8)
    vcol[av] = signs_alive

    ae = sk.alive_edge_ids()
    ecol = np.zeros(sk.n_edges, dtype=np.int8)
    if np.all(signs_alive == signs_alive[:1]):
        ecol[ae] = signs_alive[:1]
        n_split = 0
    else:
        sa = vcol[sk.edges[ae, 0]]
        sb = vcol[sk.edges[ae, 1]]
        differ = sa != sb
        split_eids = ae[differ]
        n_split = len(split_eids)
        ecol[ae[~differ]] = sa[~differ]
    sk.append_sign_column(vcol)
    if erows is not None:
        erows = np.concatenate([erows, ecol[:, None]], axis=1)

    n_inter = 0
    if n_split:
        ends = sk.edges[split_eids]
        from_pos = vcol[ends[:, 0]] > 0
        v_pos = np.where(from_pos, ends[:, 0], ends[:, 1])
        v_neg = np.where(from_pos, ends[:, 1], ends[:, 0])
        val_pos = cache.preactivation(neuron, v_pos)
        val_neg = cache.preactivation(neuron, v_neg)
        ts = val_pos / (val_pos - val_neg)
        x0 = sk.positions[v_pos] + ts[:, None] * (sk.positions[v_neg] - sk.positions[v_pos])

        if erows is None:
            pre_rows = sk.edge_signs_of(split_eids)[:, :-1]
        else:
            pre_rows = erows[split_eids, :-1]
        zeros = np.zeros((n_split, 1), dtype=np.int8)
        new_vids = sk.append_vertices(x0, np.concatenate([pre_rows, zeros], axis=1))
        cache.extend(x0)

        sk.edge_alive[split_eids] = False
        plus = np.concatenate([pre_rows, np.ones((n_split, 1), dtype=np.int8)], axis=1)
        minus = np.concatenate([pre_rows, -np.ones((n_split, 1), dtype=np.int8)], axis=1)
        sk.append_edges(np.column_stack([v_pos, new_vids]))
        sk.append_edges(np.column_stack([v_neg, new_vids]))

        pairs = pair_splitting_faces(pre_rows, new_vids, m)
        n_inter = len(pairs)
        if n_inter:
            sk.append_edges(pairs)
        if erows is not None:
            # an intersecting edge's row is its 2-face's (ascending face
            # order, as the pairs) plus a zero for the neuron
            faces = signvec.group_rows(signvec.perturb_rows(pre_rows, m)[0])[0]
            esigns = np.concatenate([faces, np.zeros((len(faces), 1), dtype=np.int8)], axis=1)
            erows = np.concatenate([erows, plus, minus, esigns])

    # the estimate counts one int8 sign row per edge row
    mem = sk.nbytes() + (sk.n_edges + 2 * (sk.dim - 1) * n_split) * sk.sign_width
    stats = IterationStats(
        neuron.layer, neuron.index, nv_before, sk.n_vertices_alive, ne_before,
        sk.n_edges_alive, n_split, n_inter, n_deg, time.perf_counter() - t0, mem,
    )
    return stats, erows


def reference_extract(net, domain, sk, schedule, prune, edge_rows=False):
    """extract_complex by per-neuron reference steps, without the final
    compaction. Also returns whether some edge split at a later neuron of
    the layer that created it, and with edge_rows, the edge sign rows the
    reference stores (see `reference_subdivide_once`; else None)."""
    neurons = list(schedule)
    sk.reserve_sign_width(sk.m + len(neurons))
    cache = LayerValueCache(net, sk.positions)
    erows = sk.edge_signs if edge_rows else None
    stats = []
    same_layer_split = False
    layer_first_edge = 0
    for i, nref in enumerate(neurons):
        if i == 0 or nref.layer != neurons[i - 1].layer:
            layer_first_edge = sk.n_edges
        alive = sk.edge_alive.copy()
        st, erows = reference_subdivide_once(sk, net, nref, cache, erows)
        stats.append(st)
        split = np.flatnonzero(alive & ~sk.edge_alive[: len(alive)])
        same_layer_split |= bool(np.any(split >= layer_first_edge))
        if prune and i + 1 < len(neurons) and neurons[i + 1].layer > nref.layer:
            prune_future(sk, net, neurons[i + 1 :], cache=cache)
    return sk, stats, same_layer_split, erows


def without_seconds(stats):
    return [{k: v for k, v in st.to_json().items() if k != "seconds"} for st in stats]


REFERENCE_CASES = {
    "2d_output": (lambda: centered_output_net(2, 3, 8, seed=2), 2, True, False),
    "3d_level_set_pruned": (lambda: centered_output_net(3, 3, 8, seed=2), 3, True, True),
    "4d": (lambda: random_model(4, 3, 6, 1, seed=1), 4, False, False),
    # 128 neurons in one layer: the split positions run up to 128, one past
    # the largest int8
    "2d_128_wide": (lambda: random_model(2, 1, 128, 1, seed=0), 2, False, False),
    "diamond_degenerate": (diamond_model, 2, True, False),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_layer_step_matches_per_neuron_reference(case, monkeypatch):
    # the layer step (one sign block per layer, splits by their known
    # neuron) against one full-width column and split step per neuron,
    # compared before compaction so dead rows count too. The reference
    # stores its edge rows; the layer step's, derived from the endpoints,
    # must equal them on every alive edge
    make, dim, include_output, prune = REFERENCE_CASES[case]
    net = make()
    schedule = NeuronSchedule.for_model(net, include_output=include_output)
    domain, a = init_hypercube(dim, -1.0, 1.0)
    monkeypatch.setattr(skeleton_mod, "compact", lambda sk: sk)
    a, stats_a = extract_complex(net, domain, a, schedule, level_set_prune=prune)
    monkeypatch.undo()
    _, b = init_hypercube(dim, -1.0, 1.0)
    b, stats_b, same_layer_split, erows = reference_extract(
        net, domain, b, schedule, prune, edge_rows=True
    )

    fields = ("positions", "vertex_signs", "vertex_alive", "edges", "edge_alive")
    for name in fields:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert erows.shape == (a.n_edges, a.sign_width)
    alive = a.alive_edge_ids()
    assert np.array_equal(a.edge_signs_of(alive), erows[alive])
    assert without_seconds(stats_a) == without_seconds(stats_b)
    assert a.degenerate_count == b.degenerate_count
    assert a.nbytes() == b.nbytes()
    # an edge made by one neuron is split by a later neuron of its layer
    assert same_layer_split
    if case == "diamond_degenerate":
        assert a.degenerate_count == 4
    if prune:
        assert not b.vertex_alive.all()


def traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_layer_step_peak_memory_within_reference():
    # holding a sign buffer across an append keeps the buffer it replaces
    # alive, which raises the peak of a pruned 3-D extraction by several
    # percent over the per-neuron reference
    net = centered_output_net(3, 4, 20, seed=0)
    schedule = NeuronSchedule.for_model(net, include_output=True)

    def layer_step():
        domain, sk = init_hypercube(3, -1.0, 1.0)
        extract_complex(net, domain, sk, schedule, level_set_prune=True)

    def reference():
        domain, sk = init_hypercube(3, -1.0, 1.0)
        compact(reference_extract(net, domain, sk, schedule, True)[0])

    layer_step()  # one-time allocations (caches, lazy imports) happen here
    reference()
    assert traced_peak(layer_step) <= 1.02 * traced_peak(reference)


def test_layer_step_with_cache_and_checks():
    # one call per layer with validate_each gives the same skeleton as the
    # one-neuron calls; a neuron of another layer is refused
    net = centered_output_net(2, 2, 6, seed=4)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    _, a = init_hypercube(2, -1.0, 1.0)
    cache = LayerValueCache(net, a.positions)
    stats_a = []
    for layer in (1, 2, 3):
        run = [nref for nref in schedule if nref.layer == layer]
        stats_a += subdivide_layer(a, net, run, cache, validate_each=True)
    _, b = init_hypercube(2, -1.0, 1.0)
    stats_b = [subdivide_once(b, net, nref) for nref in schedule]
    for name in ("positions", "vertex_signs", "edges", "edge_signs", "edge_alive"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert without_seconds(stats_a) == without_seconds(stats_b)
    assert subdivide_layer(a, net, [], cache) == []
    with pytest.raises(ValueError, match="not in layer 1"):
        subdivide_layer(b, net, [NeuronRef(1, 0), NeuronRef(2, 0)])


def test_staged_sign_columns():
    # a block of two columns: one live at once, the other on the next call;
    # rows appended meanwhile carry the staged entry
    _, sk = init_hypercube(1, 0.0, 1.0)
    sk.append_sign_column([[1, -1], [1, 1]])
    assert sk.sign_width == 3 and sk.vertex_signs[:, -1].tolist() == [1, 1]
    assert sk.staged_vertex_signs([0, 1]).tolist() == [[-1], [1]]
    with pytest.raises(SkeletonError, match="not all live"):
        sk.append_sign_column([1, 1])
    with pytest.raises(SkeletonError, match="1 x 4"):
        sk.append_vertices([[0.5]], [[1, 1, 1]])
    sk.append_vertices([[0.5]], [[1, 1, 1, 0]])
    sk.append_sign_column()
    assert [sign_text(r) for r in sk.vertex_signs] == ["0++-", "+0++", "+++0"]
    # the edge's endpoints differ in the staged column: it reads 0 there
    assert sign_text(sk.edge_signs[0]) == "+++0"
    with pytest.raises(SkeletonError, match="no staged"):
        sk.append_sign_column()
    with pytest.raises(SkeletonError, match="must have 3 rows"):
        sk.append_sign_column([[1], [1]])


def test_non_finite_value_names_neuron_vertex_and_position():
    net = overflow_net()
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    with pytest.raises(ValueError) as err:
        extract_complex(net, domain, sk, schedule)
    assert str(err.value).startswith("non-finite pre-activation of neuron 2:0 at vertex ")
    check_nonfinite_message(str(err.value), net)


@pytest.mark.parametrize(
    "bias, sign, n_deg",
    [(10.0, 1, 0), (-10.0, -1, 0), (-2.0, -1, 1)],
    ids=["above", "below", "touching_corner"],
)
def test_constant_column(bias, sign, n_deg):
    # x = 0.25 splits the square first, leaving dead edge rows; the second
    # neuron x + y + bias has one sign on [-1,1]^2 (at bias -2 it is exactly
    # 0 at the corner (1, 1), which counts as minus and as degenerate)
    w = np.array([[1.0, 0.0], [1.0, 1.0]])
    net = MlpSpec((LayerSpec(w, np.array([-0.25, bias])),), 2)
    _, sk = init_hypercube(2, -1.0, 1.0)
    subdivide_once(sk, net, NeuronRef(1, 0))
    dead = ~sk.edge_alive
    assert dead.any()
    before = (sk.n_vertices, sk.n_edges, sk.degenerate_count)
    st = subdivide_once(sk, net, NeuronRef(1, 1))
    assert (st.n_splitting, st.n_intersecting, st.n_degenerate) == (0, 0, n_deg)
    assert (st.vertices_after, st.edges_after) == (st.vertices_before, st.edges_before)
    assert (sk.n_vertices, sk.n_edges) == before[:2]
    assert sk.degenerate_count == before[2] + n_deg
    assert np.all(sk.vertex_signs[:, -1] == sign)
    assert np.all(sk.edge_signs[sk.edge_alive, -1] == sign)
    # a dead split edge's row reads 0 at the neuron that split it (its
    # endpoints lie on opposite sides), and follows its endpoints after it
    assert np.all(sk.edge_signs[dead, -2] == 0)
    assert np.all(sk.edge_signs[dead, -1] == sign)
    check_invariants(sk)


def test_constant_column_nothing_alive():
    # pruning against a neuron that splits nothing kills every cell; the
    # column is then -1 on every vertex row, and so on every (dead) edge row
    net = line_net((1.0, 1.0), 10.0)
    _, sk = init_hypercube(2, -1.0, 1.0)
    stats = prune_future(sk, net, [NeuronRef(1, 0)])
    assert (stats.vertices_alive, stats.edges_alive) == (0, 0)
    st = subdivide_once(sk, net, NeuronRef(1, 0))
    assert (st.vertices_after, st.edges_after, st.n_splitting) == (0, 0, 0)
    assert np.all(sk.vertex_signs[:, -1] == -1)
    assert np.all(sk.edge_signs[:, -1] == -1)


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
    assert set(sign_tuples(mesh0.signs)) == set(sign_tuples(mesh1.signs))
    assert set(sign_tuples(mesh0.edge_signs)) == set(sign_tuples(mesh1.edge_signs))
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
