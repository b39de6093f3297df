import tracemalloc

import numpy as np
import pytest

from conftest import centered_output_net, extract_random
from relucomplex import validate as validate_mod
from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    NeuronRef,
    NeuronSchedule,
    batch_preactivations,
    random_model,
)
from relucomplex.poset import region_signatures
from relucomplex.signvec import group_rows
from relucomplex.skeleton import init_hypercube, init_simplex
from relucomplex.subdivide import IterationStats, extract_complex
from relucomplex.validate import (
    match_point_sets,
    midpoint_check,
    oracle_single_layer_vertices,
    residuals,
    sample_domain,
    sampled_region_oracle,
    scaling_report,
    split_bound_ratios,
    split_bound_violations,
)


def test_residuals_initial_skeleton():
    net = random_model(2, 1, 3, 1, seed=0)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    rep = residuals(sk, net, domain, NeuronSchedule((), False))
    assert rep.max_abs == 0.0
    assert rep.mean_abs == 0.0
    assert rep.n_vertices == 4


def test_residuals_single_crossing():
    net = MlpSpec((LayerSpec(np.array([[1.0, 1.0]]), np.array([-0.5])),), 2)
    domain, sk = init_hypercube(2, 0.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    rep = residuals(sk, net, domain, schedule)
    assert rep.max_abs <= 1e-15
    assert rep.max_abs >= rep.mean_abs >= 0.0
    assert "facets" in rep.by_group and "layer_1" in rep.by_group


def test_residuals_depth4():
    net, domain, schedule, sk, _ = extract_random(3, 4, 10, seed=0)
    rep = residuals(sk, net, domain, schedule)
    assert rep.max_abs <= 1e-9
    assert rep.degenerate_count == sk.degenerate_count


def test_midpoint_initial_square():
    net = random_model(2, 1, 3, 1, seed=0)
    domain, sk = init_hypercube(2, 0.0, 1.0)
    rep = midpoint_check(sk, net, domain, 1e-8, NeuronSchedule((), False))
    assert rep.n_edges == 4 and rep.n_pass == 4 and rep.n_fail == 0


def test_midpoint_square_plus_line():
    net = MlpSpec((LayerSpec(np.array([[1.0, 1.0]]), np.array([-0.5])),), 2)
    domain, sk = init_hypercube(2, 0.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    rep = midpoint_check(sk, net, domain, 1e-8, schedule)
    assert (rep.n_edges, rep.n_pass) == (7, 7)


@pytest.mark.parametrize("seed", range(5))
def test_midpoint_random_2d(seed):
    net, domain, schedule, sk, _ = extract_random(2, 3, 8, seed=seed)
    rep = midpoint_check(sk, net, domain, 1e-8, schedule)
    assert rep.n_fail == 0


def test_gapped_schedule_validates():
    # every other neuron: the sign width does not tell which neurons were
    # processed, so the evaluators take the schedule of the extraction
    net = random_model(2, 2, 6, 1, seed=3)
    schedule = NeuronSchedule(NeuronSchedule.for_model(net).neurons[::2], False)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, schedule)
    assert sk.t == 6
    assert residuals(sk, net, domain, schedule).max_abs < 1e-12
    assert midpoint_check(sk, net, domain, 1e-8, schedule).n_fail == 0
    regions = region_signatures(sk, sk.m)
    sampled = sampled_region_oracle(net, domain, 2000, 0, schedule)
    assert len(group_rows(np.concatenate([regions, sampled]))[0]) == len(regions)


def test_oracle_no_hyperplanes():
    # single-neuron layer whose hyperplane misses the domain: only corners
    net = MlpSpec((LayerSpec(np.array([[1.0, 0.0]]), np.array([10.0])),), 2)
    domain, _ = init_hypercube(2, 0.0, 1.0)
    pos, rows = oracle_single_layer_vertices(net, domain)
    assert len(pos) == 4
    assert match_point_sets(pos, [[0, 0], [0, 1], [1, 0], [1, 1]], 0.0)


def test_oracle_one_line():
    net = MlpSpec((LayerSpec(np.array([[1.0, 1.0]]), np.array([-0.5])),), 2)
    domain, _ = init_hypercube(2, 0.0, 1.0)
    pos, rows = oracle_single_layer_vertices(net, domain)
    assert len(pos) == 6
    assert rows.shape[1] == 5
    assert np.all(np.count_nonzero(rows == 0, axis=1) == 2)


def test_oracle_matches_extraction_3d():
    net, domain, _, sk, _ = extract_random(3, 1, 8, seed=4)
    pos, _ = oracle_single_layer_vertices(net, domain)
    assert len(pos) == sk.n_vertices_alive
    assert match_point_sets(sk.positions[sk.alive_vertex_ids()], pos, 1e-8)


def test_sample_domain_inside():
    for maker in (lambda: init_hypercube(3, -2.0, 1.0), lambda: init_simplex(3, 0.7)):
        domain, _ = maker()
        pts = sample_domain(domain, 500, 3)
        assert pts.shape == (500, 3)
        assert domain.contains(pts, tol=0.0).all()
    # deterministic
    domain, _ = init_hypercube(2, 0.0, 1.0)
    assert np.array_equal(sample_domain(domain, 10, 5), sample_domain(domain, 10, 5))


def test_sampled_region_oracle_trivial():
    net = MlpSpec((LayerSpec(np.array([[1.0, 0.0]]), np.array([10.0])),), 2)
    domain, _ = init_hypercube(2, 0.0, 1.0)
    # the hidden-only schedule is empty for a single-layer net
    rows = sampled_region_oracle(net, domain, 1000, 0, NeuronSchedule.for_model(net))
    assert rows.shape == (1, 4)
    full = NeuronSchedule.for_model(net, include_output=True)
    rows = sampled_region_oracle(net, domain, 1000, 0, full)
    assert rows.shape == (1, 5)


def one_shot_regions(net, domain, n, seed, schedule):
    """Reference oracle: sign all n samples at once, then deduplicate."""
    pts = sample_domain(domain, n, seed)
    pres = batch_preactivations(net, pts)
    neuron_vals = [pres[nr.layer - 1][:, nr.index : nr.index + 1] for nr in schedule]
    vals = np.concatenate([domain.facet_values(pts)] + neuron_vals, axis=1)
    return group_rows(np.where(vals > 0, 1, -1).astype(np.int8))[0]


def block_test_schedules(net):
    full = NeuronSchedule.for_model(net, include_output=True)
    return {
        "empty": NeuronSchedule((), False),
        "hidden": NeuronSchedule.for_model(net),
        "include_output": full,
        # ends inside layer 2, so layer 2 is only partly scheduled
        "prefix": NeuronSchedule(full.neurons[:9], False),
        # non-contiguous neurons within a layer
        "gaps": NeuronSchedule(
            (NeuronRef(1, 0), NeuronRef(1, 3), NeuronRef(1, 5), NeuronRef(2, 2)), False
        ),
    }


@pytest.mark.parametrize("kind", ["cube", "simplex"])
def test_sampled_region_oracle_blocks_match_one_shot(monkeypatch, kind):
    # 1000 samples in blocks of 7: 142 full blocks and one of 6 rows
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 7)
    if kind == "cube":
        domain, _ = init_hypercube(2, -1.0, 1.0)
    else:
        domain, _ = init_simplex(3, 0.7)
    net = random_model(domain.dim, 2, 6, 1, seed=1)
    for name, schedule in block_test_schedules(net).items():
        got = sampled_region_oracle(net, domain, 1000, 4, schedule)
        want = one_shot_regions(net, domain, 1000, 4, schedule)
        assert got.dtype == np.int8 and got.shape == want.shape, name
        assert np.array_equal(got, want), name
        assert len(want) > 1 or name == "empty", name
    empty = sampled_region_oracle(net, domain, 0, 4, NeuronSchedule.for_model(net))
    assert empty.shape == (0, domain.m + 12) and empty.dtype == np.int8


@pytest.mark.parametrize("kind", ["cube", "simplex"])
def test_sample_domain_blocks_concatenate(kind):
    domain, _ = init_hypercube(3, -2.0, 1.0) if kind == "cube" else init_simplex(4, 0.5)
    whole = sample_domain(domain, 50, 9)
    for size in (1, 7, 50):
        parts = [sample_domain(domain, min(size, 50 - a), 9, a) for a in range(0, 50, size)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_validate_rejects_negative_inputs():
    net, domain, schedule, sk, _ = extract_random(2, 2, 4, seed=0)
    with pytest.raises(ValueError, match="sample count must be >= 0"):
        sample_domain(domain, -5, 0)
    with pytest.raises(ValueError, match="sample count must be >= 0"):
        sampled_region_oracle(net, domain, -5, 0, schedule)
    with pytest.raises(ValueError, match="midpoint tolerance must be >= 0"):
        midpoint_check(sk, net, domain, -1.0, schedule)
    # zero is a valid tolerance: only exact zeros pass
    assert midpoint_check(sk, net, domain, 0.0, schedule).tol == 0.0


def flip_vertex_sign(sk, v):
    """Move vertex v to the other side of its last non-zero entry's
    hyperplane; returns the alive edges at v, whose rows all change."""
    sk.vertex_signs[v, np.flatnonzero(sk.vertex_signs[v])[-1]] *= -1
    ae = sk.alive_edge_ids()
    return ae[np.any(sk.edges[ae] == v, axis=1)].tolist()


def test_midpoint_check_blocks_agree_on_corrupted_edge(monkeypatch):
    net, domain, schedule, sk, _ = extract_random(2, 3, 8, seed=2)
    ae = sk.alive_edge_ids()
    bad = flip_vertex_sign(sk, int(sk.edges[ae[len(ae) // 2 + 3], 1]))
    assert len(bad) >= 2
    reports = []
    for block_rows in (7, 10**6):
        monkeypatch.setattr(validate_mod, "BLOCK_ROWS", block_rows)
        reports.append(midpoint_check(sk, net, domain, 1e-8, schedule))
    assert reports[0] == reports[1]
    assert reports[0].failed_edges == bad
    assert (reports[0].n_edges, reports[0].n_fail) == (len(ae), len(bad))


@pytest.mark.parametrize("include_output", [False, True], ids=["hidden", "output"])
@pytest.mark.parametrize("kind", ["cube", "simplex"])
def test_residuals_blocks_agree(monkeypatch, kind, include_output):
    if kind == "cube":
        domain, sk = init_hypercube(2, -1.0, 1.0)
    else:
        domain, sk = init_simplex(3, 0.7)
    net = centered_output_net(domain.dim, 2, 6, seed=1)
    schedule = NeuronSchedule.for_model(net, include_output=include_output)
    sk, _ = extract_complex(net, domain, sk, schedule)
    reports = []
    for block_rows in (7, 10**6):
        monkeypatch.setattr(validate_mod, "BLOCK_ROWS", block_rows)
        reports.append(residuals(sk, net, domain, schedule).to_json())
    assert reports[0] == reports[1]
    groups = ["facets", "layer_1", "layer_2"] + (["layer_3"] if include_output else [])
    assert list(reports[0]["by_group"]) == groups
    assert reports[0]["n_vertices"] == sk.n_vertices_alive > 7


@pytest.mark.parametrize("kind", ["cube", "simplex"])
def test_results_do_not_depend_on_worker_count(monkeypatch, kind):
    # blocks of 7 rows: dozens of blocks, two of them in flight at a time
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 7)
    if kind == "cube":
        domain, sk = init_hypercube(2, -1.0, 1.0)
    else:
        domain, sk = init_simplex(3, 0.7)
    net = centered_output_net(domain.dim, 2, 6, seed=1)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    ae = sk.alive_edge_ids()
    # corrupted edges in different blocks, so their order in the report shows
    bad = set()
    for k in (3, len(ae) // 2, len(ae) - 2):
        bad.update(flip_vertex_sign(sk, int(sk.edges[ae[k], 1])))
    bad = sorted(bad)
    assert bad[0] // 7 < bad[-1] // 7
    runs = {}
    for workers in (1, 2):
        runs[workers] = (
            sampled_region_oracle(net, domain, 1000, 4, schedule, workers),
            residuals(sk, net, domain, schedule, workers).to_json(),
            midpoint_check(sk, net, domain, 1e-8, schedule, workers),
        )
    (rows1, res1, mid1), (rows2, res2, mid2) = runs[1], runs[2]
    assert np.array_equal(rows1, rows2) and len(rows1) > 1
    assert res1 == res2 and res1["n_vertices"] > 7
    assert mid1 == mid2
    assert mid1.failed_edges == bad


def test_sampled_region_oracle_memory_is_bounded():
    # samples are drawn and signed block by block, so 4x the samples may
    # only cost the extra sample points (D float64 each) plus a small slack
    block = validate_mod.BLOCK_ROWS
    net = random_model(2, 2, 8, 1, seed=0)
    domain, _ = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net)

    def peak(n):
        tracemalloc.start()
        try:
            sampled_region_oracle(net, domain, n, 0, schedule)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(block)  # warm up lazy allocations
    small, large = peak(4 * block), peak(16 * block)
    assert large <= small + 12 * block * domain.dim * 8 + 64 * 1024


def stacked_net(extra, width=32, seed=0):
    """random_model(2, 2, width, 1, seed) with `extra` hidden layers put in
    before the output that stay positive on [-1, 1]^2: they widen every sign
    row by `width` columns but add no vertex, edge or zero."""
    base = random_model(2, 2, width, 1, seed)
    rng = np.random.default_rng(seed)
    stable = [
        LayerSpec(0.01 * rng.standard_normal((width, width)), np.full(width, 10.0))
        for _ in range(extra)
    ]
    return MlpSpec(base.layers[:-1] + tuple(stable) + base.layers[-1:], 2)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("check", ["residuals", "midpoint"])
def test_validation_memory_tracks_layer_width(monkeypatch, check, workers):
    # each block streams through the net one layer at a time, so 6 more
    # layers of the same width may only cost their int8 sign columns (one
    # gathered copy per worker), not float columns for every neuron: one
    # float copy of the 6 layers' values would take 6 * 32 * 256 * 8 bytes,
    # three times the slack, which covers thread start-up and timing
    block = 256
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", block)
    domain, _ = init_hypercube(2, -1.0, 1.0)

    def peak(extra):
        net = stacked_net(extra)
        _, sk = init_hypercube(2, -1.0, 1.0)
        schedule = NeuronSchedule.for_model(net)
        sk, _ = extract_complex(net, domain, sk, schedule)
        tracemalloc.start()
        try:
            if check == "residuals":
                residuals(sk, net, domain, schedule, workers)
            else:
                assert midpoint_check(sk, net, domain, 1e-8, schedule, workers).n_fail == 0
            return tracemalloc.get_traced_memory()[1], sk
        finally:
            tracemalloc.stop()

    peak(0)  # warm up lazy allocations
    (shallow, sk0), (deep, sk6) = peak(0), peak(6)
    assert (sk6.n_vertices_alive, sk6.n_edges_alive) == (sk0.n_vertices_alive, sk0.n_edges_alive)
    assert sk0.n_vertices_alive > block  # two blocks at least, one per worker
    added = workers * block * (sk6.sign_width - sk0.sign_width)
    assert deep <= shallow + added + 128 * 1024


def synth_stats(n_vertices, seconds):
    return [
        IterationStats(1, 0, n_vertices, n_vertices, 0, 0, 0, 0, 0, seconds, 0)
    ]


def test_scaling_report_linear():
    runs = [synth_stats(n, 1e-6 * n) for n in (10**3, 10**4, 10**5, 10**6)]
    rep = scaling_report(runs)
    assert rep.slope == pytest.approx(1.0, abs=1e-9)


def test_scaling_report_nlogn():
    runs = [synth_stats(n, 1e-7 * n * np.log(n)) for n in (10**3, 10**4, 10**5, 10**6)]
    rep = scaling_report(runs)
    assert 1.0 < rep.slope < 1.2


def test_scaling_report_pairs_and_errors():
    rep = scaling_report([(1000, 0.1), (10000, 1.0)])
    assert rep.slope == pytest.approx(1.0)
    with pytest.raises(ValueError):
        scaling_report([(1000, 0.1)])


def test_split_bound_violations():
    stats = []
    for i in range(1, 30):
        st = IterationStats(1, i, 0, 0, 100, 100, 5, 0, 0, 0.0, 0)
        stats.append(st)
    # D=2: bound 100*2/i; 5 < bound until i >= 40, so no violations here
    assert split_bound_violations(stats, 2) == []
    ratios = split_bound_ratios(stats, 2)
    assert [i for i, _ in ratios] == list(range(9, 30))
    assert [r for _, r in ratios] == pytest.approx([5 * i / 200 for i in range(9, 30)])
    stats[25] = IterationStats(1, 25, 0, 0, 100, 100, 50, 0, 0, 0.0, 0)
    assert split_bound_violations(stats, 2) == [26]
    assert dict(split_bound_ratios(stats, 2))[26] == pytest.approx(6.5)
    assert [i for i, _ in split_bound_ratios(stats, 2, factor=12)] == [25, 26, 27, 28, 29]


def test_match_point_sets():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[1.0, 1.0], [0.0, 1e-12]])
    assert match_point_sets(a, b, 1e-9)
    assert not match_point_sets(a, b[:1], 1e-9)
    assert not match_point_sets(a, b + 1.0, 1e-9)
