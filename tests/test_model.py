import json

import numpy as np
import pytest

from relucomplex import model as model_mod
from relucomplex.model import (
    GEMM_MACS,
    LayerSpec,
    MlpSpec,
    ModelFormatError,
    NeuronRef,
    NeuronSchedule,
    batch_preactivation,
    batch_preactivations,
    bounded_forward,
    certified_signs,
    classify_neurons_on_boundary,
    diamond_model,
    forward,
    forward_trace,
    load_model,
    prune_stably_negative,
    random_model,
    save_model,
    stream_buffers,
    stream_layers,
)
from relucomplex.validate import sample_domain
from relucomplex.skeleton import init_hypercube
from relucomplex.geometry import boundary_subcomplex
from relucomplex.subdivide import extract_complex


def write_model(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_round_trip(tmp_path):
    doc = {
        "in_dim": 2,
        "layers": [
            {"weights": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], "bias": [0.0, 0.1, -0.2]},
            {"weights": [[1.0, -1.0, 0.5]], "bias": [0.3]},
        ],
    }
    net = load_model(write_model(tmp_path, doc))
    assert net.depth == 2
    assert net.widths == (2, 3, 1)
    out = tmp_path / "copy.json"
    save_model(net, out)
    again = load_model(out)
    assert all(
        np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
        for a, b in zip(net.layers, again.layers)
    )


@pytest.mark.parametrize(
    "net",
    [
        random_model(2, 2, 5, 1, seed=4),
        # a hidden layer of no neurons, as pruning writes it
        MlpSpec(
            (
                LayerSpec(np.eye(2), np.zeros(2)),
                LayerSpec(np.zeros((0, 2)), np.zeros(0)),
                LayerSpec(np.zeros((1, 0)), np.array([0.5])),
            ),
            2,
        ),
    ],
)
def test_save_writes_one_json_line(tmp_path, net):
    save_model(net, tmp_path / "net.json")
    doc = {
        "in_dim": net.in_dim,
        "layers": [{"weights": l.weights.tolist(), "bias": l.bias.tolist()} for l in net.layers],
    }
    assert (tmp_path / "net.json").read_text() == json.dumps(doc) + "\n"
    again = load_model(tmp_path / "net.json")
    assert again.in_dim == net.in_dim
    for a, b in zip(net.layers, again.layers):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


def test_load_dimension_mismatch(tmp_path):
    doc = {
        "in_dim": 2,
        "layers": [{"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0]}],
    }
    with pytest.raises(ModelFormatError, match="layer 1"):
        load_model(write_model(tmp_path, doc))


def test_load_chain_mismatch(tmp_path):
    doc = {
        "in_dim": 2,
        "layers": [
            {"weights": [[1.0, 0.0]], "bias": [0.0]},
            {"weights": [[1.0, 1.0]], "bias": [0.0]},
        ],
    }
    with pytest.raises(ModelFormatError, match="layer 2"):
        load_model(write_model(tmp_path, doc))


def test_load_non_finite(tmp_path):
    doc = {"in_dim": 1, "layers": [{"weights": [[float("nan")]], "bias": [0.0]}]}
    with pytest.raises(ModelFormatError, match="non-finite"):
        load_model(write_model(tmp_path, doc))


def test_load_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError, match="parse"):
        load_model(path)


def test_random_model_deterministic():
    a = random_model(3, 4, 10, 1, seed=7)
    b = random_model(3, 4, 10, 1, seed=7)
    for la, lb in zip(a.layers, b.layers):
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


def test_random_model_range():
    net = random_model(2, 1, 5, 1, seed=0)
    bound = 1.0 / np.sqrt(2.0)
    for layer in net.layers:
        assert np.all(np.abs(layer.weights) < bound)
        assert np.all(np.abs(layer.bias) < bound)


def test_random_model_seeds_differ():
    a = random_model(2, 1, 5, 1, seed=0)
    b = random_model(2, 1, 5, 1, seed=1)
    assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)


def test_random_model_layer_content_stable_across_sizes():
    # layer 1 content only depends on (seed, fan_in, rows), not later layers
    a = random_model(3, 2, 6, 1, seed=5)
    b = random_model(3, 4, 6, 9, seed=5)
    assert np.array_equal(a.layers[0].weights, b.layers[0].weights)


def test_random_model_bad_sizes():
    with pytest.raises(ValueError):
        random_model(0, 1, 1, 1, seed=0)


def test_forward_trace_relu():
    net = MlpSpec((LayerSpec(np.array([[1.0]]), np.array([0.0])),), 1)
    tr = forward_trace(net, np.array([-2.0]))
    assert tr.pre[0][0] == -2.0
    assert tr.post[0][0] == 0.0
    assert tr.output[0] == -2.0  # output slot carries the pre-activation


def test_forward_trace_affine():
    net = MlpSpec((LayerSpec(np.array([[1.0, 1.0]]), np.array([-0.5])),), 2)
    tr = forward_trace(net, np.array([1.0, 0.0]))
    assert tr.pre[0][0] == pytest.approx(0.5)


def test_forward_trace_composition():
    net = MlpSpec(
        (
            LayerSpec(np.array([[1.0]]), np.array([0.0])),
            LayerSpec(np.array([[2.0]]), np.array([1.0])),
        ),
        1,
    )
    tr = forward_trace(net, np.array([3.0]))
    assert tr.pre[1][0] == 7.0
    assert tr.value(NeuronRef(2, 0)) == 7.0


def test_batch_preactivation_empty_and_single():
    net = random_model(3, 2, 4, 1, seed=1)
    assert batch_preactivation(net, [], NeuronRef(1, 0)).shape == (0,)
    x = np.array([0.1, -0.2, 0.3])
    single = batch_preactivation(net, x[None, :], NeuronRef(2, 1))
    assert single[0] == forward_trace(net, x).value(NeuronRef(2, 1))


def test_batch_matches_per_point_bitwise():
    net = random_model(3, 4, 10, 1, seed=2)
    pts = sample_domain(init_hypercube(3, -1, 1)[0], 1000, 11)
    for nref in (NeuronRef(1, 3), NeuronRef(2, 7), NeuronRef(4, 0), NeuronRef(5, 0)):
        batched = batch_preactivation(net, pts, nref)
        looped = np.array([forward_trace(net, p).value(nref) for p in pts])
        assert np.array_equal(batched, looped)


def test_stream_layers_match_batch_bitwise():
    # layer by layer in two reused buffers, every scheduled value is the
    # one batch_preactivations gives, for any subset of rows
    net = random_model(3, 3, 10, 1, seed=2)
    pts = sample_domain(init_hypercube(3, -1, 1)[0], 300, 11)
    pres = batch_preactivations(net, pts)
    full = NeuronSchedule.for_model(net, include_output=True)
    schedules = [
        NeuronSchedule((), False),
        full,
        NeuronSchedule(full.neurons[:14], False),  # ends inside layer 2
        NeuronSchedule((NeuronRef(2, 1), NeuronRef(2, 4), NeuronRef(3, 0)), False),
    ]
    for schedule in schedules:
        want = np.zeros((len(pts), len(schedule)))
        for k, nr in enumerate(schedule):
            want[:, k] = pres[nr.layer - 1][:, nr.index]
        buffers = stream_buffers(net, schedule, len(pts))
        for rows in (slice(None), slice(5, 6), slice(17, 250)):
            got = np.full_like(want[rows], np.nan)
            for offset, values in stream_layers(net, pts[rows], schedule, buffers):
                got[:, offset : offset + values.shape[1]] = values
            assert np.array_equal(got, want[rows])


def test_forward_from_any_layer_matches_batch_bitwise():
    # started at a middle layer (as the value cache and level-set pruning
    # start it), in fresh arrays or in two reused buffers, on any rows
    # including none, every layer is the one batch_preactivations gives
    net = random_model(3, 3, 10, 2, seed=4)
    pts = sample_domain(init_hypercube(3, -1, 1)[0], 200, 5)
    pres = batch_preactivations(net, pts)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    for first in range(1, net.depth + 1):
        for rows in (slice(None), slice(3, 4), slice(0, 0)):
            values = pts[rows] if first == 1 else pres[first - 2][rows]
            before = values.copy()
            n = len(before)
            for buffers in (None, stream_buffers(net, schedule, n)):
                layers = []
                for layer, pre in forward(net, values, first, net.depth, buffers):
                    assert pre.shape == (n, net.layers[layer - 1].out_dim)
                    assert np.array_equal(pre, pres[layer - 1][rows]), (first, layer)
                    layers.append(layer)
                assert layers == list(range(first, net.depth + 1))
                assert np.array_equal(values, before)  # the input is never written


def scaled(net, factor):
    """`net` with every weight and bias multiplied by `factor`."""
    layers = (LayerSpec(l.weights * factor, l.bias * factor) for l in net.layers)
    return MlpSpec(tuple(layers), net.in_dim)


def reference_signs(net, pts, schedule):
    """`value > 0` per scheduled neuron, from the reference kernel."""
    pres = batch_preactivations(net, pts)
    cols = [pres[nr.layer - 1][:, nr.index] for nr in schedule]
    return np.stack(cols, axis=1) > 0 if cols else np.zeros((len(pts), 0), dtype=bool)


def signs_and_redone(net, pts, schedule):
    """`certified_signs` in fresh buffers: (signs, rows evaluated again)."""
    out = np.empty((len(pts), len(schedule)), dtype=bool)
    buffers = stream_buffers(net, schedule, len(pts))
    return out, certified_signs(net, pts, schedule, buffers, out)


@pytest.mark.parametrize("depth", range(1, 7))
def test_bounded_forward_bounds_the_distance_to_the_reference(depth):
    # entry by entry, over widths and weight scales; 700 rows take several
    # BLAS calls per layer at width 37 and 128
    pts = sample_domain(init_hypercube(3, -1, 1)[0], 700, 3)
    for width in (4, 37, 128):
        for scale in (1e-3, 1.0, 1e3):
            net = scaled(random_model(3, depth, width, 2, seed=depth), scale)
            pres = batch_preactivations(net, pts)
            schedule = NeuronSchedule.for_model(net, include_output=True)
            for buffers in (None, stream_buffers(net, schedule, len(pts))):
                layers = []
                for layer, pre, bound in bounded_forward(net, pts, net.depth, buffers):
                    assert 0 < bound < np.inf
                    err = np.abs(pre - pres[layer - 1])
                    assert np.all(err <= bound), (width, scale, layer)
                    layers.append(layer)
                assert layers == list(range(1, net.depth + 1))


def test_certified_signs_match_the_reference_on_quantized_nets():
    # weights, biases and points on dyadic lattices: many values are exact
    # zeros, which no bound proves, so their rows take the reference path
    rng = np.random.default_rng(5)
    grid = np.linspace(-1.0, 1.0, 17)
    pts = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    for depth in (1, 2, 3):
        dims = [2] + [6] * depth + [1]
        net = MlpSpec(
            tuple(
                LayerSpec(rng.integers(-3, 4, (o, i)) / 4, rng.integers(-3, 4, o) / 4)
                for i, o in zip(dims, dims[1:])
            ),
            2,
        )
        full = NeuronSchedule.for_model(net, include_output=True)
        gaps = NeuronSchedule((NeuronRef(1, 0), NeuronRef(1, 4), NeuronRef(depth + 1, 0)), True)
        for schedule in (full, gaps, NeuronSchedule((), False)):
            out, redone = signs_and_redone(net, pts, schedule)
            assert np.array_equal(out, reference_signs(net, pts, schedule))
            if schedule is full:
                assert 0 < redone < len(pts), depth


def test_certified_signs_fall_back_on_overflow():
    # 1e300 weights: the second layer overflows to inf and NaN in both
    # kernels, its bound is inf, and every row takes the reference path
    net = scaled(random_model(2, 3, 8, 1, seed=1), 1e300)
    pts = sample_domain(init_hypercube(2, -1, 1)[0], 300, 2)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    assert not np.all(np.isfinite(batch_preactivations(net, pts)[1]))
    out, redone = signs_and_redone(net, pts, schedule)
    assert redone == len(pts)
    assert np.array_equal(out, reference_signs(net, pts, schedule))


def gemm_per_item(points, weights, bias):
    """`model._gemm` as one `np.matmul` per item of GEMM_MACS multiply-adds."""
    step = max(1, GEMM_MACS // weights.size)
    out = np.empty((len(points), len(weights)))
    for s in range(0, len(points), step):
        np.matmul(points[s : s + step], weights.T, out=out[s : s + step])
    out += bias
    return out


def gemm_cases():
    """(layer, rows) for the first (2-input) and a 64 x 64 layer, at row
    counts around the item size."""
    net = random_model(2, 2, 64, 1, seed=0)
    for layer in net.layers[:2]:
        step = GEMM_MACS // layer.weights.size
        for n in (0, 1, step - 1, step, 3 * step + 5):
            yield layer, n


@pytest.mark.parametrize("layer,n", gemm_cases())
def test_gemm_matches_one_matmul_per_item(layer, n):
    pts = np.random.default_rng(n).standard_normal((n, layer.in_dim))
    expect = gemm_per_item(pts, layer.weights, layer.bias).tobytes()
    assert model_mod._gemm(pts, layer.weights, layer.bias).tobytes() == expect
    out = np.full(n * layer.out_dim, np.nan).reshape(n, layer.out_dim)
    assert model_mod._gemm(pts, layer.weights, layer.bias, out) is out
    assert out.tobytes() == expect


@pytest.mark.parametrize("layer,n", gemm_cases())
def test_gemm_into_a_strided_out_writes_every_entry(layer, n):
    # a column slice and a transposed buffer: either the write raises, or
    # every entry of `out` gets its value and nothing beside it is written
    pts = np.random.default_rng(n).standard_normal((n, layer.in_dim))
    expect = gemm_per_item(pts, layer.weights, layer.bias)
    wide = np.full((n, layer.out_dim + 3), np.nan)
    for out in (wide[:, 1 : layer.out_dim + 1], np.full((layer.out_dim, n), np.nan).T):
        try:
            model_mod._gemm(pts, layer.weights, layer.bias, out)
        except AttributeError:
            continue
        assert np.allclose(out, expect, rtol=1e-13, atol=1e-13)
    assert np.isnan(wide[:, [0, -2, -1]]).all()


def test_gemm_makes_at_most_two_matmul_calls(monkeypatch):
    calls = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul", lambda *a, **kw: calls.append(1) or matmul(*a, **kw))
    for layer, n in gemm_cases():
        calls.clear()
        model_mod._gemm(np.ones((n, layer.in_dim)), layer.weights, layer.bias)
        step = GEMM_MACS // layer.weights.size
        assert len(calls) <= 2, n
        assert len(calls) == (n >= step) + (n % step > 0), n  # the whole items, the rest


def test_gemm_on_a_layer_of_no_neurons():
    # weights (0, 2), then (1, 0): an empty product, and the bias alone
    pts = np.ones((5, 2))
    assert model_mod._gemm(pts, np.zeros((0, 2)), np.zeros(0)).shape == (5, 0)
    assert model_mod._gemm(pts[:, :0], np.zeros((1, 0)), np.array([0.5])).tolist() == [[0.5]] * 5


def test_classify_neurons():
    # hidden pre-activations: x - 10 never fires on [-1, 1]^2, x + 3 always does
    w1 = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b1 = np.array([-10.0, 3.0, 3.0])
    w2 = np.array([[1.0, 1.0, 1.0]])
    b2 = np.array([-6.0])
    net = MlpSpec((LayerSpec(w1, b1), LayerSpec(w2, b2)), 2)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    mesh = boundary_subcomplex(sk, schedule.output_entry(sk.m))
    assert mesh.n_vertices > 0
    labels = classify_neurons_on_boundary(net, mesh.positions)
    assert labels[NeuronRef(1, 0)] == "stably_negative"
    assert labels[NeuronRef(1, 1)] == "stably_positive"
    assert labels[NeuronRef(1, 2)] == "stably_positive"


def test_classify_simple_labels():
    net = MlpSpec(
        (
            LayerSpec(np.array([[1.0], [1.0]]), np.array([0.0, 0.0])),
            LayerSpec(np.array([[1.0, 1.0]]), np.array([0.0])),
        ),
        1,
    )
    labels = classify_neurons_on_boundary(net, np.array([[-1.0], [-2.0]]))
    assert labels[NeuronRef(1, 0)] == "stably_negative"
    labels = classify_neurons_on_boundary(net, np.array([[-1.0], [2.0]]))
    assert labels[NeuronRef(1, 0)] == "intersecting"
    with pytest.raises(ValueError):
        classify_neurons_on_boundary(net, np.zeros((0, 1)))


def test_prune_identity():
    net = random_model(2, 2, 3, 1, seed=0)
    labels = {NeuronRef(l, i): "intersecting" for l in (1, 2) for i in range(3)}
    pruned = prune_stably_negative(net, labels)
    assert pruned.widths == net.widths
    assert all(
        np.array_equal(a.weights, b.weights) for a, b in zip(net.layers, pruned.layers)
    )


def test_prune_counts_and_function(tmp_path):
    w1 = np.array([[1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    b1 = np.array([-10.0, -10.0, 3.0, 3.0])
    w2 = np.array([[0.5, 0.25, 1.0, 1.0]])
    b2 = np.array([-6.0])
    net = MlpSpec((LayerSpec(w1, b1), LayerSpec(w2, b2)), 2)
    labels = classify_neurons_on_boundary(net, np.array([[0.5, -0.5], [-0.5, 0.5]]))
    assert [labels[NeuronRef(1, i)] for i in range(4)] == [
        "stably_negative",
        "stably_negative",
        "stably_positive",
        "stably_positive",
    ]
    pruned = prune_stably_negative(net, labels)
    assert pruned.widths == (2, 2, 1)
    # removed_l * (D^(l-1) + 1 + D^(l+1)) = 2 * (2 + 1 + 1)
    assert pruned.parameter_count() == net.parameter_count() - 2 * (2 + 1 + 1)
    pts = sample_domain(init_hypercube(2, -1, 1)[0], 10**4, 5)
    diff = np.abs(
        batch_preactivations(net, pts)[-1] - batch_preactivations(pruned, pts)[-1]
    )
    assert diff.max() <= 1e-12


def test_prune_whole_layer_save_load_round_trip(tmp_path):
    # layer 2 is negative on the whole square: pruning leaves it no neurons
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    b1 = np.array([2.0, 2.0])
    w2 = np.array([[1.0, 1.0], [-1.0, 0.5]])
    b2 = np.array([-10.0, -10.0])
    w3 = np.array([[1.0, -1.0]])
    b3 = np.array([0.5])
    net = MlpSpec((LayerSpec(w1, b1), LayerSpec(w2, b2), LayerSpec(w3, b3)), 2)
    corners = np.array([[-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]])
    pruned = prune_stably_negative(net, classify_neurons_on_boundary(net, corners))
    assert pruned.widths == (2, 2, 0, 1)
    save_model(pruned, tmp_path / "pruned.json")
    again = load_model(tmp_path / "pruned.json")
    assert again.widths == pruned.widths
    pts = np.array([[0.0, 0.0], [0.5, -0.25], [-0.75, 1.0]])
    for a, b in zip(batch_preactivations(pruned, pts), batch_preactivations(again, pts)):
        assert np.array_equal(a, b)
    assert np.array_equal(batch_preactivations(net, pts)[-1], batch_preactivations(again, pts)[-1])


def test_prune_output_layer_refused():
    net = random_model(2, 1, 2, 1, seed=0)
    with pytest.raises(ValueError, match="output-layer"):
        prune_stably_negative(net, {NeuronRef(2, 0): "stably_negative"})


def test_schedule_validation():
    net = random_model(2, 2, 3, 1, seed=0)
    sched = NeuronSchedule.for_model(net)
    assert len(sched) == 6 and sched[0] == NeuronRef(1, 0)
    full = NeuronSchedule.for_model(net, include_output=True)
    assert len(full) == 7
    assert full.output_entry(m=4) == 4 + 6
    with pytest.raises(ValueError):
        NeuronSchedule((NeuronRef(2, 0), NeuronRef(1, 0)))
    with pytest.raises(ValueError):
        NeuronSchedule((NeuronRef(1, 0), NeuronRef(1, 0)))
    with pytest.raises(ValueError):
        sched.output_entry(m=4)


def test_diamond_model_values():
    net = diamond_model()
    for x, y in [(0.3, -0.4), (1.5, 0.2), (-2.0, -2.0), (0.0, 0.0)]:
        got = forward_trace(net, np.array([x, y])).output[0]
        assert got == pytest.approx(abs(x) + abs(y) - 1.0, abs=1e-12)
