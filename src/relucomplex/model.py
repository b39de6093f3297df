"""Fully-connected ReLU networks: load/save, seeded generation, evaluation,
and structural pruning.

Every evaluation is one forward walk, `forward`: the only code that chains
the affine kernel and ReLU across layers. It starts at the input or at any
layer's pre-activations, so the extraction's value cache, level-set pruning,
the streaming oracles and whole-batch evaluation all run the same steps. The
reference kernel is einsum-based and its per-row result does not depend on
the batch it was computed in (BLAS gemm is not row-stable across batch
sizes), so batched, streamed and per-point evaluations are bitwise identical.

Where only signs are read, `certified_signs` walks the net on the BLAS
kernel instead, several times faster, and proves each sign against the
reference with a floating-point filter (Shewchuk, DCG 1997):
`bounded_forward` carries a per-block bound E_l on how far each BLAS value
can be from the reference one, from the dot-product error bound
gamma_n = n*u / (1 - n*u), u = 2^-53 (Higham, Accuracy and Stability of
Numerical Algorithms, 3.1):

    E_l = c*g*(N_l*X_l + B_l) + (1 + c*g)*N_l*E_{l-1} + (k+1)*2^-1074,

with E_0 = 0 (both kernels start from the same points), g = gamma_{k+1} for
a layer of k inputs, N_l = max_i sum_j |W_ij|, X_l the largest |input| of
the BLAS walk and B_l = max |b|. The proof needs c = 2; c = 3 absorbs the
rounding of the bound itself; E_l is inf wherever a value may have
overflowed. A sign with |value| > E_l is the reference's sign; every row with
another entry (NaN included) is evaluated again on the reference kernel, so
the signs are bitwise those of `stream_layers`. The midpoint check reads
verdicts as well (`mark_unproven`): |value| <= tol is proven to pass where
|value| + E_l < tol and to fail where |value| - E_l > tol. On a deep output
layer E_l nears the default tol (9e-9 against 1e-8 on a (2,8,64) net), but
a midpoint's zero entries stay near 1e-16, so their verdicts are proven
there too; at tol = 0 none is, and those rows are judged again on the
reference kernel. Values are never taken from the BLAS walk, so the
residuals, which report values, stay on the reference kernel.

No walk keeps state between calls, and every buffer it writes belongs to
its caller: each validation worker, and the region oracle's background
thread, passes its own `stream_buffers`, and all of them share one model.
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
        if prev == 0:
            raise ModelFormatError(f"layer {len(self.layers)}: the output layer has no neurons")

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


#: multiply-adds per BLAS call in `_gemm`. Larger calls start OpenBLAS's
#: threads, whose spinning starves the other validation workers.
GEMM_MACS = 1 << 18


def _gemm(points, weights, bias, out=None):
    """`_affine` by BLAS matmul: about 5x faster on a 64 x 64 layer, but a
    row's last bits depend on its batch. Each call takes as many rows as fit in GEMM_MACS
    multiply-adds."""
    if out is None:
        out = np.empty((len(points), len(weights)))
    step = max(1, GEMM_MACS // weights.size)
    with np.errstate(all="ignore"):  # overflow is as silent as in einsum
        for s in range(0, len(points), step):
            np.matmul(points[s : s + step], weights.T, out=out[s : s + step])
        out += bias
    return out


def forward(model, values, first, last, buffers=None, kernel=_affine):
    """Yield `(layer, pre-activations)` for layers first..last, in order.

    `values` holds the points when first == 1, else layer first - 1's
    pre-activations at them. Without `buffers`, each layer's values are a
    fresh array. With the two `stream_buffers`, layers are computed into
    them in turn, ReLU in place, and a layer's values are valid only until
    the generator resumes; the other buffer is then free. The input is never
    written to. `kernel` computes one affine layer: the reference `_affine`,
    or `_gemm` for `bounded_forward`.
    """
    n = len(values)
    pre = values
    for l in range(first, last + 1):
        if l > 1:  # ReLU in place only in a buffer of this walk
            pre = np.maximum(pre, 0.0, out=pre if buffers and l > first else None)
        spec = model.layers[l - 1]
        out = buffers and buffers[l % 2][: n * spec.out_dim].reshape(n, spec.out_dim)
        pre = kernel(pre, spec.weights, spec.bias, out=out)
        yield l, pre


def layer_inputs(model, points, layer):
    """Post-activations x^(layer-1): the input the given layer sees."""
    pre = np.asarray(points, dtype=np.float64)
    for _, pre in forward(model, pre, 1, layer - 1):
        pass
    return np.maximum(pre, 0.0) if layer > 1 else pre


def batch_preactivations(model, points):
    """Pre-activation arrays for all layers; entry l has shape (n, D^(l+1))."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return [pre for _, pre in forward(model, points, 1, model.depth)]


def stream_buffers(model, schedule, rows):
    """The two float buffers `forward` fills in place for up to `rows`
    points, as far as the last layer of `schedule`."""
    last = max((layer for layer, _, _ in layer_columns(schedule)), default=0)
    width = max((model.layers[l].out_dim for l in range(last)), default=0)
    return np.empty(rows * width), np.empty(rows * width)


def stream_layers(model, points, schedule, buffers):
    """Yield `(offset, values)` for each layer of `schedule`, layer by layer.

    `values` holds the pre-activations of the layer's scheduled neurons at
    `points` (bitwise those of `batch_preactivations`), and `offset` is the
    schedule position of its first neuron. The walk runs in the caller-owned
    `buffers` (`stream_buffers`), so nothing of block size is allocated
    unless a layer's scheduled neurons are not contiguous. `values` is valid
    until the generator resumes.
    """
    wanted = {layer: cols for layer, cols, _ in layer_columns(schedule)}
    offset = 0
    for l, pre in forward(model, points, 1, max(wanted, default=0), buffers):
        if l in wanted:
            values = pre[:, wanted[l]]
            yield offset, values
            offset += values.shape[1]


#: the proof constant of the bound is 2; 3 also covers rounding in the bound
_BOUND_C = 3.0


def bounded_forward(model, points, last, buffers=None):
    """Yield `(layer, pre-activations, bound)` for layers 1..last on the BLAS
    kernel: every entry is within `bound` of what `forward` on the reference
    kernel gives at `points` (E_l of the module docstring; inf or NaN when
    nothing is proven). `buffers` and validity are as in `forward`.
    """
    with np.errstate(over="ignore"):  # an overflowing norm gives an infinite bound
        norms = [float(np.abs(spec.weights).sum(axis=1).max(initial=0.0)) for spec in model.layers]
    x_max = float(np.maximum(points.max(), -points.min())) if points.size else 0.0
    bound = 0.0
    for l, pre in forward(model, points, 1, last, buffers, kernel=_gemm):
        spec, norm = model.layers[l - 1], norms[l - 1]
        k = spec.in_dim + 1
        g = _BOUND_C * k * 2.0**-53 / (1 - k * 2.0**-53)
        scale = norm * x_max + float(np.abs(spec.bias).max(initial=0.0))
        bound = g * scale + (1 + g) * norm * bound + k * 2.0**-1074
        if (1 + g) * scale == math.inf:  # a value may have overflowed to inf
            bound = math.inf
        yield l, pre, bound
        x_max = float(np.maximum(pre.max(), 0.0)) if pre.size else 0.0


def bounded_layers(model, points, schedule, buffers):
    """`stream_layers` on the BLAS walk of `bounded_forward`: yield
    `(offset, values, size, bound)` for each layer of `schedule`, with every
    entry of `values` within `bound` of the one `stream_layers` gives and
    `size` = |values|, taken in the buffer the walk leaves free. Both are
    valid, and `size` may be written to, until the generator resumes.
    """
    wanted = {layer: cols for layer, cols, _ in layer_columns(schedule)}
    offset = 0
    for l, pre, bound in bounded_forward(model, points, max(wanted, default=0), buffers):
        if l in wanted:
            values = pre[:, wanted[l]]
            free = buffers[(l + 1) % 2][: values.size].reshape(values.shape)
            yield offset, values, np.abs(values, out=free), bound
            offset += values.shape[1]


def mark_unproven(size, bound, unsure, zero=None, tol=0.0):
    """Set `unsure` on each row holding a verdict that the BLAS values of
    |value| `size`, each within `bound` of the reference, do not prove.

    An entry's verdict is its sign (value > 0), proven where size > bound.
    Where `zero` is set, it is |value| <= tol instead: proven to pass where
    size + bound < tol, and to fail where size - bound > tol. Rounding is
    monotone and tol is a float, so a rounded sum below tol (a rounded
    difference above it) puts the exact one there too; the strict `<` is
    the margin on the sum. NaN proves nothing. `size` is overwritten.
    """
    if zero is not None:
        r, c = np.divmod(np.flatnonzero(zero), size.shape[1])
        near = size[r, c]
        unsure[r[~((near + bound < tol) | (near - bound > tol))]] = True
        size[r, c] = np.inf  # proven above, not by their sign
    # a row is proven where its smallest |value| > bound
    if not size.min(initial=np.inf) > bound:
        unsure |= ~(size.min(axis=1, initial=np.inf) > bound)


def certified_signs(model, points, schedule, buffers, out):
    """Write `value > 0` for each scheduled neuron at `points` into the bool
    matrix `out` (one column per neuron of `schedule`), bitwise as from the
    values of `stream_layers`, and return how many rows were evaluated again.

    The signs come from `bounded_layers`; a row holding an entry whose sign
    the bound does not prove (`mark_unproven`) goes through `stream_layers`.
    `buffers` are the two `stream_buffers`, so proving allocates no array of
    block size.
    """
    unsure = np.zeros(len(points), dtype=bool)
    for offset, values, size, bound in bounded_layers(model, points, schedule, buffers):
        mark_unproven(size, bound, unsure)
        np.greater(values, 0.0, out=out[:, offset : offset + values.shape[1]])
    rows = np.flatnonzero(unsure)
    if len(rows):
        for offset, values in stream_layers(model, points[rows], schedule, buffers):
            out[rows, offset : offset + values.shape[1]] = values > 0.0
    return len(rows)


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
    for _, pre in forward(model, np.atleast_2d(points), 1, neuron.layer):
        pass
    return pre[:, neuron.index]


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
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ModelFormatError(f"cannot parse model file {path}: {exc}") from exc
    try:
        in_dim = raw["in_dim"]
        layer_specs = raw["layers"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(f"model file {path} missing in_dim/layers") from exc
    if type(in_dim) is not int or in_dim < 1:  # not true (a bool), nor 2.7 or 2.0 (floats)
        raise ModelFormatError(
            f"model file {path}: in_dim must be an integer >= 1, got {json.dumps(in_dim)}"
        )
    if not isinstance(layer_specs, list):
        raise ModelFormatError(f"model file {path}: layers must be a list")
    layers, prev = [], in_dim
    for l, spec in enumerate(layer_specs, start=1):
        try:
            entries = [np.array(spec[key], dtype=object) for key in ("weights", "bias")]
            w, b = (e.astype(np.float64) for e in entries)
            if w.shape == (0,):  # a layer of no neurons saves its weights as []
                w = w.reshape(len(b), prev)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelFormatError(f"layer {l}: bad weights/bias") from exc
        if w.ndim != 2 or b.ndim != 1:
            raise ModelFormatError(f"layer {l}: weights must be 2-D, bias 1-D")
        # numpy reads JSON true/false as 1.0/0.0, and "2" as 2.0
        for kind, name in ((bool, "booleans"), (str, "strings")):
            if any(kind in map(type, e.flat) for e in entries):
                raise ModelFormatError(f"layer {l}: weights and bias must be numbers, not {name}")
        layers.append(LayerSpec(w, b))
        prev = w.shape[0]
    return MlpSpec(tuple(layers), in_dim)


def save_model(model, path):
    """Write `model` in the JSON wire format of `load_model`, one line.

    The bytes are those of one `json.dumps` of the whole document, written
    a weight row at a time: `json.dumps` runs the C encoder, about twice as
    fast as `json.dump`'s pure-Python one, and no text larger than a row is
    held (a whole layer's text at a time raised `wide2d`'s peak RSS by
    0.4 MB, the whole document's by 1.4 MB).
    """
    with open(path, "w") as fh:
        fh.write(f'{{"in_dim": {json.dumps(model.in_dim)}, "layers": [')
        for i, l in enumerate(model.layers):
            fh.write(", " * (i > 0) + '{"weights": [')
            for j, row in enumerate(l.weights.tolist()):
                fh.write(", " * (j > 0) + json.dumps(row))
            fh.write(f'], "bias": {json.dumps(l.bias.tolist())}}}')
        fh.write("]}\n")


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
        negative, positive = np.all(vals < 0.0, axis=0), np.all(vals > 0.0, axis=0)
        for i in range(vals.shape[1]):
            if negative[i]:
                label = LABEL_STABLY_NEGATIVE
            elif positive[i]:
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
