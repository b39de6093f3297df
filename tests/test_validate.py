import sys
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import centered_output_net, extract_random
from relucomplex import model as model_mod, validate as validate_mod
from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    NeuronRef,
    NeuronSchedule,
    batch_preactivations,
    certified_signs,
    random_model,
    stream_buffers,
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
    # layer 1 and every other neuron of layer 2: the sign width does not tell
    # which neurons were processed, so the evaluators take the schedule of
    # the extraction
    net = random_model(2, 2, 6, 1, seed=3)
    full = NeuronSchedule.for_model(net).neurons
    schedule = NeuronSchedule(full[:6] + full[6::2], False)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, schedule)
    assert sk.t == 9
    assert residuals(sk, net, domain, schedule).max_abs < 1e-12
    assert midpoint_check(sk, net, domain, 1e-8, schedule).n_fail == 0
    regions = region_signatures(sk, sk.m)
    sampled = sampled_region_oracle(net, domain, 2000, 0, schedule)
    assert len(group_rows(np.concatenate([regions, sampled]))[0]) == len(regions)


SHORT_SCHEDULE = r"sign width 16 .* 4 facets plus the schedule's 6 neurons \(10\)"


def short_schedule_skeleton():
    """A net extracted on both hidden layers, and a schedule of layer 1 only."""
    net = random_model(2, 2, 6, 1, seed=3)
    full = NeuronSchedule.for_model(net)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, full)
    return net, domain, sk, NeuronSchedule(full.neurons[:6], False)


def test_residuals_rejects_a_schedule_short_of_the_sign_width():
    net, domain, sk, layer1 = short_schedule_skeleton()
    with pytest.raises(ValueError, match=SHORT_SCHEDULE):
        residuals(sk, net, domain, layer1)


def test_midpoint_check_rejects_a_schedule_short_of_the_sign_width():
    # it used to skip the columns past the schedule and report no failure
    net, domain, sk, layer1 = short_schedule_skeleton()
    with pytest.raises(ValueError, match=SHORT_SCHEDULE):
        midpoint_check(sk, net, domain, 1e-8, layer1)


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


def test_sampled_region_oracle_trivial(monkeypatch):
    # every sample in one region: each block keeps one row, and so does the merge
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 64)
    net = MlpSpec((LayerSpec(np.array([[1.0, 0.0]]), np.array([10.0])),), 2)
    domain, _ = init_hypercube(2, 0.0, 1.0)
    # the hidden-only schedule is empty for a single-layer net
    rows = sampled_region_oracle(net, domain, 1000, 0, NeuronSchedule.for_model(net))
    assert rows.tolist() == [[1, 1, 1, 1]]
    full = NeuronSchedule.for_model(net, include_output=True)
    for workers in (1, 2):
        rows = sampled_region_oracle(net, domain, 1000, 0, full, workers)
        assert rows.dtype == np.int8 and rows.tolist() == [[1, 1, 1, 1, 1]]


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


def faint_neuron_net(factor):
    """random_model(2, 3, 8, 1, 1) with neuron 2:3 scaled by `factor`."""
    layers = list(random_model(2, 3, 8, 1, seed=1).layers)
    w, b = layers[1].weights.copy(), layers[1].bias.copy()
    w[3] *= factor
    b[3] *= factor
    layers[1] = LayerSpec(w, b)
    return MlpSpec(tuple(layers), 2)


def gate_background(monkeypatch, policy):
    """Make a block runner's one background consumer take none of the
    blocks, all of them, or every other one; returns [(background?, (k,
    start, stop))] in the order they were taken."""
    real = validate_mod._Blocks._take
    taken = []
    turn = threading.Condition()
    state = {"done": False}

    def take(self):
        background = threading.current_thread() is not threading.main_thread()
        if policy == "none" and background:
            return None
        if policy == "all" and not background:
            for thread in self._threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        if policy == "alternate":  # block k to the calling thread if k is even
            with turn:
                assert turn.wait_for(
                    lambda: state["done"] or len(taken) % 2 == background, timeout=60
                )
                block = real(self)
                state["done"] = block is None
                if block is not None:
                    taken.append((background, block))
                turn.notify_all()
                return block
        block = real(self)
        if block is not None:
            taken.append((background, block))
        return block

    monkeypatch.setattr(validate_mod._Blocks, "_take", take)
    return taken


def assert_taken_by(taken, policy, n, count):
    """Each of the `count` blocks of n rows was taken once, by the consumer
    that `gate_background`'s policy gives it to."""
    assert sorted(block for _, block in taken) == [
        (k, k * n // count, (k + 1) * n // count) for k in range(count)
    ], policy
    assert [by for by, _ in taken] == {
        "none": [False] * count,
        "all": [True] * count,
        "alternate": [k % 2 == 1 for k in range(count)],
    }[policy], policy


@pytest.mark.parametrize("block_rows", [7, 50, 100, validate_mod.BLOCK_ROWS])
def test_certified_oracle_does_not_depend_on_blocks_or_workers(monkeypatch, block_rows):
    # a neuron whose values are of the order of the BLAS walk's error bound:
    # some rows are proven and some are signed again on the reference kernel
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", block_rows)
    net = faint_neuron_net(1e-13)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    for kind in ("cube", "simplex"):
        domain, _ = init_hypercube(2, -1.0, 1.0) if kind == "cube" else init_simplex(2, 0.7)
        pts = sample_domain(domain, 1000, 4)
        out = np.empty((len(pts), len(schedule)), dtype=bool)
        redone = certified_signs(net, pts, schedule, stream_buffers(net, schedule, len(pts)), out)
        assert 0 < redone < len(pts), kind
        want = one_shot_regions(net, domain, 1000, 4, schedule)
        for workers in (1, 2, 3, 4):
            got = sampled_region_oracle(net, domain, 1000, 4, schedule, workers)
            assert np.array_equal(got, want), (kind, workers)
    if block_rows != 50:
        return
    # the calling thread and the background consumer merge into one set:
    # which of them takes which block changes nothing
    for kind in ("cube", "simplex"):
        domain, _ = init_hypercube(2, -1.0, 1.0) if kind == "cube" else init_simplex(2, 0.7)
        for n in (0, 1000):
            inline = sampled_region_oracle(net, domain, n, 4, schedule, 1)
            assert np.array_equal(inline, one_shot_regions(net, domain, n, 4, schedule))
            for policy in ("none", "all", "alternate"):
                with monkeypatch.context() as patch:
                    taken = gate_background(patch, policy)
                    got = sampled_region_oracle(net, domain, n, 4, schedule, 2)
                assert got.dtype == np.int8 and np.array_equal(got, inline), (kind, n, policy)
                assert len(taken) == (20 if n else 0)
                assert_taken_by(taken, policy, n, len(taken))


def test_region_oracle_keeps_every_block_under_contention(monkeypatch):
    # a thread switch every microsecond and 429 blocks of 7 rows: a merge of
    # the two consumers' rows that lost an update would drop regions
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 7)
    net = random_model(2, 2, 8, 1, seed=3)
    domain, _ = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    want = one_shot_regions(net, domain, 3000, 2, schedule)
    assert len(want) > 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (2, 8):
            got = sampled_region_oracle(net, domain, 3000, 2, schedule, workers)
            assert np.array_equal(got, want), workers
    finally:
        sys.setswitchinterval(interval)


def test_an_error_in_the_background_consumer_reaches_the_caller(monkeypatch):
    # the background thread takes every block until one raises: the caller
    # gets that exception, and no consumer takes another block

    class BlockError(Exception):
        pass

    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 50)
    taken = gate_background(monkeypatch, "all")
    real = validate_mod.sample_domain

    def failing(domain, n, seed, start=0):
        if start == 500:
            raise BlockError(start)
        return real(domain, n, seed, start)

    monkeypatch.setattr(validate_mod, "sample_domain", failing)
    net = random_model(2, 2, 6, 1, seed=1)
    domain, _ = init_hypercube(2, -1.0, 1.0)
    with pytest.raises(BlockError, match="500"):
        sampled_region_oracle(net, domain, 1000, 4, NeuronSchedule.for_model(net), 2)
    assert [t for t in threading.enumerate() if t.name == "validate-blocks"] == []
    assert taken == [(True, (k, 50 * k, 50 * k + 50)) for k in range(11)]


@pytest.mark.parametrize("policy", ["none", "all", "alternate"])
def test_residuals_and_midpoints_do_not_depend_on_which_thread_takes_a_block(monkeypatch, policy):
    # the two checks share the region oracle's block runner: which consumer
    # takes which block changes no bit of a report (repr: floats round-trip
    # exactly), and corrupted edges in different blocks keep their order
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 7)
    net = centered_output_net(2, 2, 6, seed=1)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    ae = sk.alive_edge_ids()
    for k in (3, len(ae) // 2, len(ae) - 2):
        flip_vertex_sign(sk, int(sk.edges[ae[k], 1]))
    checks = {
        "residuals": (lambda w: residuals(sk, net, domain, schedule, w).to_json(),
                      sk.n_vertices_alive),
        "midpoints": (lambda w: midpoint_check(sk, net, domain, 1e-8, schedule, w), len(ae)),
    }
    for name, (check, n) in checks.items():
        inline = check(1)
        with monkeypatch.context() as patch:
            taken = gate_background(patch, policy)
            assert repr(check(2)) == repr(inline), name
        count = validate_mod._block_count(n, 2)
        assert count >= 4, name
        assert_taken_by(taken, policy, n, count)
    assert 0 < inline.n_fail < inline.n_edges


def test_a_huge_sample_count_holds_no_list_of_blocks(monkeypatch):
    # a million one-row blocks are counted out, not listed: the oracle
    # raises its first block's error before it holds a megabyte

    class BlockError(Exception):
        pass

    def failing(*args, **kwargs):
        raise BlockError("no samples")

    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 1)
    monkeypatch.setattr(validate_mod, "sample_domain", failing)
    net = random_model(2, 2, 4, 1, seed=0)
    domain, _ = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net)
    tracemalloc.start()
    try:
        with pytest.raises(BlockError):
            sampled_region_oracle(net, domain, 10**6, 0, schedule, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17])
def test_sampled_region_oracle_packs_every_row_width(monkeypatch, width, workers):
    # one bit per entry: widths around whole bytes check the pad bits and
    # the byte order of the packed keys
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 64)
    domain, _ = init_hypercube(2, -1.0, 1.0)
    net = random_model(2, 2, 8, 1, seed=3)
    full = NeuronSchedule.for_model(net, include_output=True)
    schedule = NeuronSchedule(full.neurons[: width - domain.m], False)
    got = sampled_region_oracle(net, domain, 1000, 2, schedule, workers)
    want = one_shot_regions(net, domain, 1000, 2, schedule)
    assert got.dtype == np.int8 and got.shape == want.shape and want.shape[1] == width
    assert np.array_equal(got, want) and len(want) > 4
    empty = sampled_region_oracle(net, domain, 0, 2, schedule, workers)
    assert empty.dtype == np.int8 and empty.shape == (0, width)


@pytest.mark.parametrize("block_rows", [8, 9])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_blocks_are_balanced(monkeypatch, workers, block_rows):
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", block_rows)

    def block(start, stop, scratch_rows):
        assert 0 < stop - start <= scratch_rows
        return start, stop

    for n in range(3 * block_rows + 1):
        blocks = validate_mod._Blocks(block, n, workers, lambda rows: rows).results()
        assert len(blocks) == validate_mod._block_count(n, workers), n
        covered = [row for start, stop in blocks for row in range(start, stop)]
        assert covered == list(range(n)), n
        sizes = [stop - start for start, stop in blocks]
        assert max(sizes, default=0) <= block_rows, n
        assert max(sizes, default=0) - min(sizes, default=0) <= 1, n
        if len(blocks) > 1:
            assert len(blocks) % workers == 0, n


def test_one_block_runs_inline(monkeypatch):
    # below BLOCK_ROWS // 4 rows per worker, the rows stay one block on the
    # calling thread: no thread starts

    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", NoThread)
    quarter = validate_mod.BLOCK_ROWS // 4
    one = validate_mod._Blocks(lambda a, b, s: (a, b), 2 * quarter - 1, 2, int).results()
    assert one == [(0, 2 * quarter - 1)]
    with pytest.raises(AssertionError, match="thread was started"):
        validate_mod._Blocks(lambda a, b, s: (a, b), 2 * quarter, 2, int)
    net, domain, schedule, sk, _ = extract_random(2, 2, 4, seed=0)
    assert residuals(sk, net, domain, schedule, 4).n_vertices < quarter


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


def reference_midpoint_check(sk, net, domain, tol, schedule):
    """midpoint_check as it was before the BLAS walk: every value on the
    reference (einsum) kernel, all edges in one batch."""
    ae = sk.alive_edge_ids()
    signs = sk.edge_signs_of(ae)
    mids = sk.positions[sk.edges[ae]].mean(axis=1)
    pres = batch_preactivations(net, mids)
    neuron_vals = [pres[nr.layer - 1][:, nr.index : nr.index + 1] for nr in schedule]
    values = np.concatenate([domain.facet_values(mids)] + neuron_vals, axis=1)
    # a non-zero entry must match the evaluated sign, zero counting as minus
    miss = (values > 0.0) != (signs > 0)
    # a zero entry must lie within tol of the hyperplane (NaN does not)
    zero = signs == 0
    miss[zero] = ~(np.abs(values[zero]) <= tol)
    failed = [int(e) for e in ae[miss.any(axis=1)]]
    return validate_mod.MidpointReport(len(ae), len(ae) - len(failed), len(failed), failed, tol)


def counted_rewalks(monkeypatch):
    """Calls of model.stream_layers from here on: midpoint_check walks the
    reference kernel only for rows whose verdicts it could not prove."""
    calls = []
    real = model_mod.stream_layers

    def counted(model, points, schedule, buffers):
        calls.append(len(points))
        return real(model, points, schedule, buffers)

    monkeypatch.setattr(model_mod, "stream_layers", counted)
    return calls


MIDPOINT_TOLS = [1e-8, 0.0, 1e-15, 1e-3]


@pytest.mark.parametrize("include_output", [False, True], ids=["hidden", "output"])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_certified_midpoints_match_the_reference_kernel(monkeypatch, dim, include_output):
    # blocks of 7 rows on up to three workers; the report, corrupted rows
    # included, is bitwise that of the einsum kernel
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 7)
    net = centered_output_net(dim, 2, {2: 8, 3: 6, 4: 4}[dim], seed=dim)
    domain, sk = init_hypercube(dim, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=include_output)
    sk, _ = extract_complex(net, domain, sk, schedule)
    ae = sk.alive_edge_ids()
    bad = flip_vertex_sign(sk, int(sk.edges[ae[len(ae) // 2], 1]))
    for tol in MIDPOINT_TOLS:
        want = reference_midpoint_check(sk, net, domain, tol, schedule)
        assert set(bad) <= set(want.failed_edges) and want.n_edges > 7, tol
        for workers in (1, 3):
            got = midpoint_check(sk, net, domain, tol, schedule, workers)
            assert got == want and got.to_json() == want.to_json(), (tol, workers)


def test_certified_midpoints_on_a_deep_output_layer(monkeypatch):
    # (2, 8, 64) with the output: the output layer's bound E_l nears the
    # default tol of 1e-8, and still every verdict there is proven; at
    # tol = 0 no zero entry is, and those rows are judged on the reference
    net = centered_output_net(2, 8, 64, seed=0)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    ae = sk.alive_edge_ids()
    on_a_neuron = np.any(sk.edge_signs_of(ae)[:, sk.m :] == 0, axis=1)
    for tol in MIDPOINT_TOLS:
        with monkeypatch.context() as patch:
            calls = counted_rewalks(patch)
            got = midpoint_check(sk, net, domain, tol, schedule)
        want = reference_midpoint_check(sk, net, domain, tol, schedule)
        assert got == want and got.to_json() == want.to_json(), tol
        if tol == 1e-8:
            assert calls == [] and got.n_fail == 0
        if tol == 0.0:  # every edge with a zero entry of a neuron
            assert sum(calls) == np.count_nonzero(on_a_neuron) > 0.9 * len(ae)
    bad = flip_vertex_sign(sk, int(sk.edges[ae[len(ae) // 3], 0]))
    got = midpoint_check(sk, net, domain, 1e-8, schedule)
    assert got.failed_edges == bad
    assert got == reference_midpoint_check(sk, net, domain, 1e-8, schedule)


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


def full_depth_residuals(sk, net, domain, schedule):
    """residuals' report with every alive vertex walked through every layer,
    all vertices in one batch: the reference for walks that stop early."""
    av = sk.alive_vertex_ids()
    pts = sk.positions[av]
    pres = batch_preactivations(net, pts)
    neuron_vals = [pres[nr.layer - 1][:, nr.index : nr.index + 1] for nr in schedule]
    values = np.concatenate([domain.facet_values(pts)] + neuron_vals, axis=1)
    layers = sorted({nr.layer for nr in schedule})
    group = np.array([0] * sk.m + [1 + layers.index(nr.layer) for nr in schedule])
    row, col = np.nonzero(sk.vertex_signs[av] == 0)
    picked = np.abs(values[row, col])
    by_group = {}
    for g, name in enumerate(["facets"] + [f"layer_{layer}" for layer in layers]):
        kept = picked[group[col] == g]
        if kept.size:
            by_group[name] = {"max_abs": float(kept.max()), "mean_abs": float(kept.mean())}
    report = validate_mod.ResidualReport(
        float(picked.max()) if picked.size else 0.0,
        float(picked.mean()) if picked.size else 0.0,
        by_group,
        domain.extent,
        sk.degenerate_count,
        len(av),
        int(picked.size),
    )
    return report.to_json()


def last_layer_gapped(schedule):
    """`schedule` with every other neuron of its last layer dropped."""
    last = schedule[-1].layer
    kept = [nr for nr in schedule if nr.layer < last or nr.index % 2 == 0]
    return NeuronSchedule(kept, schedule.include_output)


@pytest.mark.parametrize("kind", ["cube", "simplex"])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_residuals_match_a_full_depth_walk(monkeypatch, dim, depth, kind):
    # each vertex's walk stops at its deepest zero; blocks of 7 rows mix
    # vertices of every depth, and the values must be bitwise those of a
    # walk through every layer
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 7)
    net = random_model(dim, depth, {1: 32, 2: 5}.get(dim, 3), 2, seed=dim + depth)
    for include_output in (False, True):
        full = NeuronSchedule.for_model(net, include_output=include_output)
        for schedule in (full, last_layer_gapped(full)):
            if kind == "cube":
                domain, sk = init_hypercube(dim, -1.0, 1.0)
            else:
                domain, sk = init_simplex(dim, 0.7)
            sk, _ = extract_complex(net, domain, sk, schedule)
            want = full_depth_residuals(sk, net, domain, schedule)
            assert want["n_vertices"] > 7 and len(want["by_group"]) > 1
            for workers in (1, 2, 3):
                assert residuals(sk, net, domain, schedule, workers).to_json() == want


@pytest.mark.parametrize("kind", ["cube", "simplex"])
def test_results_do_not_depend_on_worker_count(monkeypatch, kind):
    # blocks of at most 7 rows: dozens of blocks, up to four in flight at a time
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
    for workers in (1, 2, 3, 4):
        runs[workers] = (
            sampled_region_oracle(net, domain, 1000, 4, schedule, workers),
            residuals(sk, net, domain, schedule, workers).to_json(),
            midpoint_check(sk, net, domain, 1e-8, schedule, workers),
        )
    rows1, res1, mid1 = runs[1]
    assert len(rows1) > 1 and res1["n_vertices"] > 7
    assert mid1.failed_edges == bad
    for workers in (2, 3, 4):
        rows, res, mid = runs[workers]
        assert np.array_equal(rows, rows1) and res == res1 and mid == mid1, workers


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
