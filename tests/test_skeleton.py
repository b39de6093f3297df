import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import centered_output_net
from relucomplex import skeleton as skeleton_mod
from relucomplex.model import NeuronSchedule, random_model
from relucomplex.skeleton import (
    Halfspace,
    Skeleton,
    SkeletonError,
    check_invariants,
    compact,
    init_hypercube,
    init_simplex,
)
from relucomplex.subdivide import extract_complex


@pytest.mark.parametrize(
    "dim,n_vertices,n_edges",
    [(1, 2, 1), (2, 4, 4), (3, 8, 12), (10, 1024, 5120)],
)
def test_hypercube_counts(dim, n_vertices, n_edges):
    domain, sk = init_hypercube(dim, 0.0, 1.0)
    assert domain.m == 2 * dim
    assert sk.n_vertices_alive == n_vertices
    assert sk.n_edges_alive == n_edges
    check_invariants(sk)
    assert sk.t == 0


def test_hypercube_sign_structure():
    _, sk = init_hypercube(3, -1.0, 1.0)
    assert np.all(np.count_nonzero(sk.vertex_signs == 0, axis=1) == 3)
    assert np.all(np.count_nonzero(sk.edge_signs == 0, axis=1) == 2)
    # corner (-1,-1,-1) sits on the three lower facets
    corner = np.flatnonzero((sk.positions == -1.0).all(axis=1))[0]
    assert sk.vertex_signs[corner].tolist() == [0, 1, 0, 1, 0, 1]


def test_hypercube_bad_bounds():
    with pytest.raises(ValueError):
        init_hypercube(2, 1.0, 1.0)


@pytest.mark.parametrize("dim,n_vertices,n_edges", [(2, 3, 3), (10, 11, 55)])
def test_simplex_counts(dim, n_vertices, n_edges):
    domain, sk = init_simplex(dim, 1.0)
    assert domain.m == dim + 1
    assert sk.n_vertices_alive == n_vertices
    assert sk.n_edges_alive == n_edges
    check_invariants(sk)
    assert np.all(np.count_nonzero(sk.vertex_signs == 0, axis=1) == dim)


def test_simplex_contains_origin():
    domain, _ = init_simplex(3, 0.5)
    assert domain.contains(np.zeros((1, 3)), tol=0.0)[0]
    assert not domain.contains(np.full((1, 3), 100.0))[0]


def test_simplex_bad_scale():
    with pytest.raises(ValueError):
        init_simplex(2, 0.0)


def test_halfspace():
    with pytest.raises(ValueError):
        Halfspace(np.zeros(2), 0.0)
    h = Halfspace(np.array([1.0, 0.0]), -1.0)
    assert h.value(np.array([[0.0, 5.0]]))[0] == 1.0


def test_domain_facet_values():
    domain, _ = init_hypercube(2, 0.0, 1.0)
    vals = domain.facet_values(np.array([[0.25, 0.75]]))[0]
    assert vals.tolist() == [0.25, 0.75, 0.75, 0.25]
    assert domain.extent == 1.0


def test_compact_identity():
    _, sk = init_hypercube(2, 0.0, 1.0)
    out = compact(sk)
    assert np.array_equal(out.positions, sk.positions)
    assert np.array_equal(out.edges, sk.edges)


def test_compact_drops_dead():
    _, sk = init_hypercube(2, 0.0, 1.0)
    sk.edge_alive[sk.edges[:, 0] == 0] = False
    sk.vertex_alive[0] = False
    out = compact(sk)
    assert out.n_vertices == 3
    assert out.n_edges == 2
    check_invariants(out)


def test_compact_after_level_set_prune():
    net = centered_output_net(2, 2, 6, seed=4)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    out, _ = extract_complex(net, domain, sk, schedule, level_set_prune=True)
    assert out.n_vertices == out.n_vertices_alive
    assert out.n_edges == out.n_edges_alive
    # no isolated vertices survive compaction
    degree = np.bincount(out.edges.ravel(), minlength=out.n_vertices)
    assert degree.min() >= 1


def test_check_invariants_detects_corruption():
    _, sk = init_hypercube(2, 0.0, 1.0)
    sk.vertex_signs[0, 0] = 1
    with pytest.raises(SkeletonError):
        check_invariants(sk)


def rewire_last_edge(sk, joinable):
    """Point the last edge at the latest vertex pair (lo, hi) whose sign
    rows satisfy joinable(row_lo, row_hi)."""
    vs = sk.vertex_signs
    for hi in range(sk.n_vertices - 1, 0, -1):
        ok = [lo for lo in range(hi) if joinable(vs[lo], vs[hi])]
        if ok:
            sk.edges[-1] = (ok[-1], hi)
            return
    raise AssertionError("no such vertex pair")


def corrupt_late_row(sk, kind):
    """Break one invariant in a row near the end of a compacted skeleton."""
    v, e = sk.n_vertices - 1, sk.n_edges - 1
    if kind == "dead_vertex":
        sk.vertex_alive[v] = False  # the newest vertex: all its edges are late
    elif kind == "ordering":
        sk.edges[e] = sk.edges[e, ::-1]
    elif kind == "vertex_zeros":
        sk.vertex_signs[v, np.argmax(sk.vertex_signs[v] == 0)] = 1
    elif kind == "edge_zeros":  # endpoints on no common edge: too few shared zeros
        rewire_last_edge(sk, lambda a, b: np.all(a * b >= 0) and not np.any((a == 0) & (b == 0)))
    elif kind == "merge":  # endpoints whose rows no edge can merge
        rewire_last_edge(sk, lambda a, b: np.any(a * b < 0))
    else:  # the newest vertex moves to the other side of a hyperplane
        sk.vertex_signs[v, np.flatnonzero(sk.vertex_signs[v])[-1]] *= -1


@pytest.mark.parametrize(
    "kind", ["dead_vertex", "ordering", "vertex_zeros", "edge_zeros", "merge", "conflict"]
)
def test_check_invariants_in_blocks_names_the_same_row(kind, monkeypatch):
    # the check runs over row blocks; a bad row in a later block gives the
    # message the whole-array check (one block) gives, naming that row
    net = random_model(2, 2, 8, 1, seed=0)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    assert sk.n_edges < skeleton_mod.CHECK_BLOCK_ROWS
    corrupt_late_row(sk, kind)
    with pytest.raises(SkeletonError) as whole:
        check_invariants(sk)
    monkeypatch.setattr(skeleton_mod, "CHECK_BLOCK_ROWS", 7)
    with pytest.raises(SkeletonError) as blocked:
        check_invariants(sk)
    assert str(blocked.value) == str(whole.value)
    if kind in ("merge", "conflict"):  # endpoints on opposite sides name their edge
        assert "endpoints carry opposite signs" in str(whole.value)
    if kind == "edge_zeros":
        assert str(whole.value) == f"edge {sk.n_edges - 1} zero count is not 1"
    named = int(str(whole.value).split()[1 if kind != "dead_vertex" else 2])
    assert named >= 7, str(whole.value)


def test_append_edges_ordering_enforced():
    _, sk = init_hypercube(2, 0.0, 1.0)
    with pytest.raises(SkeletonError):
        sk.append_edges(np.array([[3, 1]]))


def test_append_sign_rows_shape_enforced():
    # rows and columns are written into a buffer, where a wrong shape could broadcast
    _, sk = init_hypercube(2, 0.0, 1.0)
    with pytest.raises(SkeletonError):
        sk.append_vertices(np.zeros((2, 2)), np.zeros((2, 1), dtype=np.int8))
    with pytest.raises(SkeletonError, match="must have 4 rows"):
        sk.append_sign_column(np.ones(1, dtype=np.int8))
    assert sk.n_vertices == 4 and sk.n_edges == 4 and sk.sign_width == 4


def pair_skeleton(rows_a, rows_b):
    """A skeleton whose edge i joins vertex i (row rows_a[i]) to vertex n + i
    (row rows_b[i])."""
    rows_a, rows_b = np.asarray(rows_a, dtype=np.int8), np.asarray(rows_b, dtype=np.int8)
    n = len(rows_a)
    edges = np.column_stack([np.arange(n), np.arange(n, 2 * n)])
    vs = np.concatenate([rows_a, rows_b])
    return Skeleton(1, rows_a.shape[1], np.zeros((2 * n, 1)), vs, edges)


def merged_reference(rows_a, rows_b):
    """Entry by entry: the shared sign, the non-zero one of a sign and a
    zero, and 0 where the signs are opposite."""
    return np.where(rows_a == rows_b, rows_a, rows_a + rows_b)


def test_edge_signs_of_merges_endpoint_rows():
    a = [[0, 1, 0], [-1, 0, 0]]
    b = [[0, 0, 1], [-1, 0, -1]]
    sk = pair_skeleton(a, b)
    # zero only where both are zero, otherwise the non-zero sign present
    assert sk.edge_signs.dtype == np.int8
    assert sk.edge_signs.tolist() == [[0, 1, 1], [-1, 0, -1]]
    assert sk.edge_signs_of([1]).tolist() == [[-1, 0, -1]]
    assert sk.edge_signs_of(0).tolist() == [0, 1, 1]
    assert np.array_equal(pair_skeleton(b, a).edge_signs, sk.edge_signs)
    out = np.full((1, 3), 7, dtype=np.int8)
    assert sk.edge_signs_of(slice(1, 2), out=out) is out and out.tolist() == [[-1, 0, -1]]


def sign_matrices(width=6, min_rows=1, max_rows=8):
    return st.lists(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=width, max_size=width),
        min_size=min_rows,
        max_size=max_rows,
    ).map(lambda rows: np.array(rows, dtype=np.int8).reshape(-1, width))


@given(st.data())
def test_edge_signs_of_idempotent(data):
    rows = data.draw(sign_matrices())
    n = len(rows)
    mask = data.draw(sign_matrices(min_rows=n, max_rows=n))
    other = data.draw(sign_matrices(min_rows=n, max_rows=n))
    assert np.array_equal(pair_skeleton(rows, rows).edge_signs, rows)
    # two faces of one cell, each keeping some of its entries, merge back to it
    a = np.where(mask >= 0, rows, 0).astype(np.int8)
    b = np.where(mask <= 0, rows, 0).astype(np.int8)
    merged = pair_skeleton(a, b).edge_signs
    assert np.array_equal(merged, rows)
    assert np.array_equal(pair_skeleton(merged, a).edge_signs, merged)
    assert np.array_equal(pair_skeleton(rows, other).edge_signs, merged_reference(rows, other))


def test_conflicting_endpoints_read_zero_and_fail_the_check():
    a = [[1, 0, 1], [1, -1, 0]]
    b = [[1, 0, 1], [1, 1, 0]]
    sk = pair_skeleton(a, b)
    assert sk.edge_signs_of(1).tolist() == [1, 0, 0]
    with pytest.raises(SkeletonError, match="edge 1 endpoints carry opposite signs"):
        check_invariants(sk)


def test_given_edge_rows_are_checked_and_dropped():
    _, sk = init_hypercube(2, 0.0, 1.0)
    args = (2, 4, sk.positions, sk.vertex_signs, sk.edges)
    rebuilt = Skeleton(*args, sk.edge_signs)
    assert np.array_equal(rebuilt.edge_signs, sk.edge_signs)
    assert rebuilt.nbytes() == sk.nbytes()
    bad = sk.edge_signs
    bad[2, np.flatnonzero(bad[2])[0]] *= -1
    with pytest.raises(SkeletonError, match="^edge 2 sign-vector differs"):
        Skeleton(*args, bad)
    with pytest.raises(SkeletonError, match="must be 4 x 4"):
        Skeleton(*args, sk.edge_signs[:, :3])


# the stored arrays; edge sign rows are derived
LIVE_ARRAYS = ("positions", "vertex_signs", "vertex_alive", "edges", "edge_alive")


@pytest.mark.parametrize("reserve", [False, True])
def test_in_place_growth_matches_concatenation(reserve):
    # random column, vertex and edge appends, plus writes through the views,
    # checked after every step against arrays grown by plain concatenation
    rng = np.random.default_rng(7)
    _, sk = init_hypercube(2, 0.0, 1.0)
    ref = {name: getattr(sk, name).copy() for name in LIVE_ARRAYS}
    if reserve:
        sk.reserve_sign_width(sk.sign_width + 40)
    moves = {name: 0 for name in ("positions", "edges", "vertex_signs")}
    for step in range(120):
        before = {name: getattr(sk, name) for name in moves}
        kind = step % 3
        if kind == 0:
            vcol = rng.integers(-1, 2, sk.n_vertices).astype(np.int8)
            sk.append_sign_column(vcol)
            ref["vertex_signs"] = np.concatenate([ref["vertex_signs"], vcol[:, None]], axis=1)
        elif kind == 1:
            k = int(rng.integers(1, 6))
            pos = rng.random((k, 2))
            signs = rng.integers(-1, 2, (k, sk.sign_width)).astype(np.int8)
            ids = sk.append_vertices(pos, signs)
            assert ids.tolist() == list(range(len(ref["positions"]), len(ref["positions"]) + k))
            ref["positions"] = np.concatenate([ref["positions"], pos])
            ref["vertex_signs"] = np.concatenate([ref["vertex_signs"], signs])
            ref["vertex_alive"] = np.concatenate([ref["vertex_alive"], np.ones(k, bool)])
        else:
            k = int(rng.integers(1, 9))
            lo = rng.integers(0, sk.n_vertices - 1, k)
            hi = lo + 1 + rng.integers(0, sk.n_vertices - 1 - lo)
            pairs = np.column_stack([lo, hi])
            ids = sk.append_edges(pairs)
            assert ids.tolist() == list(range(len(ref["edges"]), len(ref["edges"]) + k))
            ref["edges"] = np.concatenate([ref["edges"], pairs])
            ref["edge_alive"] = np.concatenate([ref["edge_alive"], np.ones(k, bool)])
        # writes through the views must survive later regrowths
        e = int(rng.integers(sk.n_edges))
        sk.edge_alive[e] = False
        ref["edge_alive"][e] = False
        v = int(rng.integers(sk.n_vertices))
        sk.vertex_signs[v, -1] = 0
        ref["vertex_signs"][v, -1] = 0
        for name, view in before.items():
            moves[name] += not np.shares_memory(view, getattr(sk, name))
        for name in LIVE_ARRAYS:
            assert np.array_equal(getattr(sk, name), ref[name]), (step, name)
            assert getattr(sk, name).dtype == ref[name].dtype
        lo, hi = ref["edges"].T
        assert np.array_equal(
            sk.edge_signs, merged_reference(ref["vertex_signs"][lo], ref["vertex_signs"][hi])
        )
        assert sk.sign_width == ref["vertex_signs"].shape[1] == sk.m + sk.t
        assert sk.nbytes() == sum(ref[name].nbytes for name in LIVE_ARRAYS)
    assert moves["positions"] >= 3 and moves["edges"] >= 3
    # 40 reserved columns cover all 40 column appends: the signs never move
    # for a column; without the reservation they move every few columns
    if reserve:
        assert moves["vertex_signs"] == moves["positions"]
    else:
        assert moves["vertex_signs"] > moves["positions"]
