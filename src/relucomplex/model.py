"""Fully-connected ReLU networks: load/save, seeded generation, evaluation,
and structural pruning.

Every evaluation path funnels through one einsum-based affine kernel whose
per-row result does not depend on the batch it was computed in (BLAS gemm is
not row-stable across batch sizes). Batched and per-point evaluations are
therefore bitwise identical.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _rng

MODEL_SCHEMA_VERSION = 1

LABEL_STABLY_NEGATIVE = "stably_negative"
LABEL_STABLY_POSITIVE = "stably_positive"
LABEL_INTERSECTING = "intersecting"


class ModelFormatError(ValueError):
    """Malformed model file or inconsistent layer shapes."""


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer: weights shape (out, in), bias shape (out,)."""

    weights: np.ndarray
    bias: np.ndarray

    @property
    def out_dim(self):
        return self.weights.shape[0]

    @property
    def in_dim(self):
        return self.weights.shape[1]


@dataclass(frozen=True)
class MlpSpec:
    """A validated ReLU network. Immutable; safe to share across threads.

    `layers[-1]` is the output layer; ReLU is applied after every layer
    except the last.
    """

    layers: tuple
    in_dim: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.in_dim < 1:
            raise ModelFormatError("in_dim must be >= 1")
        if not self.layers:
            raise ModelFormatError("model needs at least one layer")
        prev = self.in_dim
        for l, layer in enumerate(self.layers, start=1):
            w, b = layer.weights, layer.bias
            if w.ndim != 2 or b.ndim != 1:
                raise ModelFormatError(f"layer {l}: weights must be 2-D, bias 1-D")
            if w.shape[1] != prev:
                raise ModelFormatError(
                    f"layer {l}: expected {prev} input columns, got {w.shape[1]}"
                )
            if b.shape[0] != w.shape[0]:
                raise ModelFormatError(
                    f"layer {l}: bias length {b.shape[0]} != row count {w.shape[0]}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ModelFormatError(f"layer {l}: non-finite entry")
            prev = w.shape[0]

    @property
    def depth(self):
        """Number of layers L (including the output layer)."""
        return len(self.layers)

    @property
    def widths(self):
        """(D^(0), D^(1), ..., D^(L))."""
        return (self.in_dim,) + tuple(layer.out_dim for layer in self.layers)

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def hidden_neuron_count(self):
        return sum(layer.out_dim for layer in self.layers[:-1])

    def parameter_count(self):
        return sum(l.weights.size + l.bias.size for l in self.layers)


@dataclass(frozen=True, order=True)
class NeuronRef:
    """layer is 1-based, index is 0-based within the layer."""

    layer: int
    index: int

    def validate(self, model):
        if not 1 <= self.layer <= model.depth:
            raise ValueError(f"layer {self.layer} out of range 1..{model.depth}")
        if not 0 <= self.index < model.layers[self.layer - 1].out_dim:
            raise ValueError(f"neuron index {self.index} out of range in layer {self.layer}")


@dataclass(frozen=True)
class NeuronSchedule:
    """Global iteration order: layer-major, ascending index within a layer."""

    neurons: tuple
    include_output: bool = False

    def __post_init__(self):
        object.__setattr__(self, "neurons", tuple(self.neurons))
        prev = None
        seen = set()
        for nref in self.neurons:
            if nref in seen:
                raise ValueError(f"duplicate neuron {nref}")
            seen.add(nref)
            if prev is not None and (nref.layer, nref.index) < (prev.layer, prev.index):
                raise ValueError("schedule must be layer-major, ascending index")
            prev = nref

    @classmethod
    def for_model(cls, model, include_output=False):
        last = model.depth if include_output else model.depth - 1
        neurons = [
            NeuronRef(l, i)
            for l in range(1, last + 1)
            for i in range(model.layers[l - 1].out_dim)
        ]
        return cls(tuple(neurons), include_output)

    def __len__(self):
        return len(self.neurons)

    def __iter__(self):
        return iter(self.neurons)

    def __getitem__(self, i):
        return self.neurons[i]

    def position(self, neuron):
        return self.neurons.index(neuron)

    def output_entry(self, m, output_index=0):
        """Sign index of an output neuron (requires include_output)."""
        if not self.include_output:
            raise ValueError("schedule does not include the output layer")
        layer = self.neurons[-1].layer
        return m + self.position(NeuronRef(layer, output_index))


def infer_schedule(model, t):
    """Reconstruct the default schedule from a processed-neuron count."""
    hidden = model.hidden_neuron_count()
    if t == hidden:
        return NeuronSchedule.for_model(model, include_output=False)
    if t == hidden + model.out_dim:
        return NeuronSchedule.for_model(model, include_output=True)
    full = NeuronSchedule.for_model(model, include_output=True)
    if t <= len(full):
        return NeuronSchedule(full.neurons[:t], include_output=False)
    raise ValueError(f"cannot map {t} processed neurons onto this model")


def layer_columns(schedule):
    """(layer, columns, width) per layer, in schedule order (layer-major).

    `columns` selects the layer's scheduled neurons from its pre-activation
    matrix: a slice when they are contiguous (every default schedule and
    prefix), so reading them makes no copy, else an index array.
    """
    layers = {}
    for nr in schedule:
        layers.setdefault(nr.layer, []).append(nr.index)
    out = []
    for layer, idx in layers.items():
        first = idx[0]
        if idx == list(range(first, first + len(idx))):
            out.append((layer, slice(first, first + len(idx)), len(idx)))
        else:
            out.append((layer, np.array(idx, dtype=np.intp), len(idx)))
    return out


# -- evaluation ---------------------------------------------------------------


def _affine(points, weights, bias, out=None):
    """points @ weights.T + bias with a batch-size-independent reduction.

    The result is written to `out` when given (C-contiguous, shape
    (n, out_dim)); the bias is added in place either way.
    """
    out = np.einsum("nk,mk->nm", points, weights, optimize=False, out=out)
    out += bias
    return out


def layer_inputs(model, points, layer):
    """Post-activations x^(layer-1): the input the given layer sees."""
    acts = np.asarray(points, dtype=np.float64)
    for l in range(1, layer):
        spec = model.layers[l - 1]
        acts = np.maximum(_affine(acts, spec.weights, spec.bias), 0.0)
    return acts


def batch_preactivations(model, points):
    """Pre-activation arrays for all layers; entry l has shape (n, D^(l+1))."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    acts = points
    pres = []
    for l, spec in enumerate(model.layers, start=1):
        pre = _affine(acts, spec.weights, spec.bias)
        pres.append(pre)
        if l < model.depth:
            acts = np.maximum(pre, 0.0)
    return pres


def stream_buffers(model, schedule, rows):
    """The two float buffers `stream_layers` needs for up to `rows` points."""
    last = max((layer for layer, _, _ in layer_columns(schedule)), default=0)
    width = max((model.layers[l].out_dim for l in range(last)), default=0)
    return np.empty(rows * width), np.empty(rows * width)


def stream_layers(model, points, schedule, buffers):
    """Yield `(offset, values)` for each layer of `schedule`, layer by layer.

    `values` holds the pre-activations of the layer's scheduled neurons at
    `points` (bitwise those of `batch_preactivations`), and `offset` is the
    schedule position of its first neuron. Layers are computed into the two
    caller-owned `buffers` (`stream_buffers`) in turn, ReLU in place, so
    nothing of block size is allocated unless a layer's scheduled neurons
    are not contiguous. `values` is valid until the generator resumes.
    """
    wanted = {layer: cols for layer, cols, _ in layer_columns(schedule)}
    last = max(wanted, default=0)
    n = len(points)
    acts = points
    offset = 0
    for l in range(1, last + 1):
        spec = model.layers[l - 1]
        pre = buffers[l % 2][: n * spec.out_dim].reshape(n, spec.out_dim)
        _affine(acts, spec.weights, spec.bias, out=pre)
        if l in wanted:
            values = pre[:, wanted[l]]
            yield offset, values
            offset += values.shape[1]
        if l < last:
            acts = np.maximum(pre, 0.0, out=pre)


@dataclass(frozen=True)
class PreactivationTrace:
    """Per-layer pre- and post-activations at a single point.

    `post[l] = max(0, pre[l])` for every layer; the network's output slot is
    `pre[-1]`, where no activation is applied.
    """

    pre: tuple
    post: tuple

    @property
    def output(self):
        """Output-layer values, no activation applied."""
        return self.pre[-1]

    def value(self, neuron):
        return float(self.pre[neuron.layer - 1][neuron.index])


def forward_trace(model, point):
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (model.in_dim,):
        raise ValueError(f"point must have length {model.in_dim}")
    pres = batch_preactivations(model, point[None, :])
    pre = tuple(p[0] for p in pres)
    post = tuple(np.maximum(p, 0.0) for p in pre)
    return PreactivationTrace(pre, post)


def batch_preactivation(model, points, neuron):
    """Pre-activation of one neuron at many points.

    Bitwise identical to reading the same entry out of per-point
    forward_trace calls.
    """
    neuron.validate(model)
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        return np.zeros(0, dtype=np.float64)
    points = np.atleast_2d(points)
    acts = layer_inputs(model, points, neuron.layer)
    spec = model.layers[neuron.layer - 1]
    return _affine(
        acts, spec.weights[neuron.index : neuron.index + 1], spec.bias[neuron.index]
    )[:, 0]


# -- generation and serialization ---------------------------------------------


def random_model(in_dim, depth, width, out_dim, seed):
    """Random network with `depth` hidden layers of `width` neurons.

    Weights and biases are uniform on (-1/sqrt(fan_in), +1/sqrt(fan_in)).
    Entry j of row r in layer l comes from the splitmix64 stream keyed by
    (seed, l, r); the bias is element fan_in of the same stream. Layer
    content is therefore independent of every other layer's size, and the
    result is byte-identical across platforms.
    """
    if min(in_dim, depth, width, out_dim) < 1:
        raise ValueError("all sizes must be >= 1")
    dims = [in_dim] + [width] * depth + [out_dim]
    layers = []
    for l in range(1, len(dims)):
        fan_in, fan_out = dims[l - 1], dims[l]
        scale = 1.0 / math.sqrt(fan_in)
        w = np.empty((fan_out, fan_in), dtype=np.float64)
        b = np.empty(fan_out, dtype=np.float64)
        for r in range(fan_out):
            draws = _rng.uniform_symmetric(_rng.stream_key(seed, l, r), fan_in + 1, scale)
            w[r] = draws[:fan_in]
            b[r] = draws[fan_in]
        layers.append(LayerSpec(w, b))
    return MlpSpec(tuple(layers), in_dim)


def load_model(path):
    """Load a model from its JSON wire format.

    Schema: ``{"in_dim": D, "layers": [{"weights": [[...]], "bias": [...]},
    ...]}`` with row-major weights, rows = output neurons, finite doubles.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"cannot parse model file {path}: {exc}") from exc
    try:
        in_dim = int(raw["in_dim"])
        layer_specs = raw["layers"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"model file {path} missing in_dim/layers") from exc
    layers = []
    for l, spec in enumerate(layer_specs, start=1):
        try:
            w = np.array(spec["weights"], dtype=np.float64)
            b = np.array(spec["bias"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"layer {l}: bad weights/bias") from exc
        layers.append(LayerSpec(w, b))
    return MlpSpec(tuple(layers), in_dim)


def save_model(model, path):
    doc = {
        "in_dim": model.in_dim,
        "layers": [
            {"weights": l.weights.tolist(), "bias": l.bias.tolist()}
            for l in model.layers
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


# -- pruning ------------------------------------------------------------------


def classify_neurons_on_boundary(model, boundary_vertices):
    """Label each hidden neuron by its pre-activation sign over the boundary.

    stably_negative: < 0 at every vertex (removable without changing the
    network anywhere the label holds); stably_positive: > 0 at every vertex;
    intersecting otherwise.
    """
    pts = np.atleast_2d(np.asarray(boundary_vertices, dtype=np.float64))
    if pts.size == 0:
        raise ValueError("boundary vertex list is empty")
    pres = batch_preactivations(model, pts)
    labels = {}
    for l in range(1, model.depth):
        vals = pres[l - 1]
        for i in range(vals.shape[1]):
            col = vals[:, i]
            if np.all(col < 0.0):
                label = LABEL_STABLY_NEGATIVE
            elif np.all(col > 0.0):
                label = LABEL_STABLY_POSITIVE
            else:
                label = LABEL_INTERSECTING
            labels[NeuronRef(l, i)] = label
    return labels


def prune_stably_negative(model, labels):
    """Drop every stably-negative hidden neuron.

    Removes the neuron's weight row and bias entry plus the matching column
    of the next layer. Output dimension is unchanged and the result is
    dimension-consistent.
    """
    for nref, label in labels.items():
        if label == LABEL_STABLY_NEGATIVE and nref.layer == model.depth:
            raise ValueError(f"cannot prune output-layer neuron {nref}")
    keep = []
    for l in range(1, model.depth):
        width = model.layers[l - 1].out_dim
        keep.append(
            np.array(
                [labels.get(NeuronRef(l, i)) != LABEL_STABLY_NEGATIVE for i in range(width)]
            )
        )
    layers = []
    for l, spec in enumerate(model.layers, start=1):
        w, b = spec.weights, spec.bias
        if l <= len(keep):
            w, b = w[keep[l - 1]], b[keep[l - 1]]
        if l >= 2:
            w = w[:, keep[l - 2]]
        layers.append(LayerSpec(np.ascontiguousarray(w), b.copy()))
    return MlpSpec(tuple(layers), model.in_dim)


def shift_output_bias(model, delta, index=0):
    """New model with `delta` added to one output bias entry."""
    layers = list(model.layers)
    last = layers[-1]
    bias = last.bias.copy()
    bias[index] += delta
    layers[-1] = LayerSpec(last.weights, bias)
    return MlpSpec(tuple(layers), model.in_dim)


def diamond_model():
    """2-D network computing |x| + |y| - 1 on domains inside [-3, 3]^2.

    Uses |u| = 2*ReLU(u) - u with the linear term carried by always-active
    pass-through neurons ReLU(u + 3), so all four folds (x=0, y=0, x=-3,
    y=-3) are distinct and the arrangement stays generic. The zero level set
    is the unit L1 diamond with vertices (+-1, 0), (0, +-1).
    """
    w1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    b1 = np.array([0.0, 0.0, 3.0, 3.0])
    w2 = np.array([[2.0, 2.0, -1.0, -1.0]])
    b2 = np.array([5.0])
    return MlpSpec((LayerSpec(w1, b1), LayerSpec(w2, b2)), 2)
