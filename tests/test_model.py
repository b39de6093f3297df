import json

import numpy as np
import pytest

from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    ModelFormatError,
    NeuronRef,
    NeuronSchedule,
    batch_preactivation,
    batch_preactivations,
    classify_neurons_on_boundary,
    diamond_model,
    forward_trace,
    infer_schedule,
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


def test_infer_schedule():
    net = random_model(2, 2, 3, 1, seed=0)
    assert infer_schedule(net, 6).include_output is False
    assert infer_schedule(net, 7).include_output is True
    assert len(infer_schedule(net, 4)) == 4
    with pytest.raises(ValueError):
        infer_schedule(net, 9)


def test_diamond_model_values():
    net = diamond_model()
    for x, y in [(0.3, -0.4), (1.5, 0.2), (-2.0, -2.0), (0.0, 0.0)]:
        got = forward_trace(net, np.array([x, y])).output[0]
        assert got == pytest.approx(abs(x) + abs(y) - 1.0, abs=1e-12)
