"""An exact 2-D region-subdivision oracle, for tests only.

It builds the complex the way edge subdivision avoids: region by region.
The domain square is cut by each scheduled neuron in turn, in
`fractions.Fraction` arithmetic. Every cell carries the affine map from the
input to the pre-activations of its current layer, so a deeper layer cuts
each cell along its own piece of that layer's bent hyperplanes. Exact
arithmetic decides every coincidence (concurrent lines, a line through a
vertex, a repeated neuron), so a non-generic net gets its true complex. A
neuron whose pre-activation is 0 on a whole cell has no hyperplane there,
and the oracle refuses it.

Nothing here calls the package's evaluation or sign code: it reads only the
model's weights and the schedule's neuron order.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

import numpy as np


class VanishingNeuronError(ValueError):
    """A scheduled neuron's pre-activation is 0 on a whole cell."""


@dataclass
class ExactComplex:
    """Distinct vertices (exact points), edges (pairs of vertex indices) and
    regions (counter-clockwise corners and the signs of the scheduled
    neurons, in schedule order)."""

    vertices: list
    edges: set
    regions: list

    @property
    def counts(self):
        return [len(self.vertices), len(self.edges), len(self.regions)]

    def region_rows(self, m):
        """The extractor's sign row of each region: +1 on the m facets, then
        the activation pattern."""
        return {(1,) * m + pattern for _, pattern in self.regions}


def _affine_rows(layer, inputs):
    """Each neuron's pre-activation `(gx, gy, g0)` as an affine function of
    the input point, from the layer's inputs in the same form."""
    rows = []
    for w, b in zip(layer.weights.tolist(), layer.bias.tolist()):
        terms = [[Fraction(wk) * c for c in unit] for wk, unit in zip(w, inputs)]
        gx, gy, g0 = (sum(col, Fraction(0)) for col in zip(*terms))
        rows.append((gx, gy, g0 + Fraction(b)))
    return rows


def _cut(corners, g, neuron):
    """The pieces of a convex polygon on either side of `g`'s zero line,
    with their signs; the whole polygon when the line only touches it."""
    gx, gy, g0 = g
    vals = [gx * x + gy * y + g0 for x, y in corners]
    if not any(vals):
        name = f"{neuron.layer}:{neuron.index}"
        raise VanishingNeuronError(f"neuron {name} vanishes on a whole cell")
    if min(vals) >= 0 or max(vals) <= 0:
        return [(corners, 1 if max(vals) > 0 else -1)]
    pos, neg = [], []
    for k, (p, v) in enumerate(zip(corners, vals)):
        q, u = corners[(k + 1) % len(corners)], vals[(k + 1) % len(corners)]
        if v >= 0:
            pos.append(p)
        if v <= 0:
            neg.append(p)
        if v * u < 0:
            t = v / (v - u)
            x = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
            pos.append(x)
            neg.append(x)
    return [(pos, 1), (neg, -1)]


def exact_complex(model, schedule, lo, hi):
    """The complex that `schedule`'s neurons cut from the square
    `[lo, hi]^2`. Every scheduled layer but the last must be scheduled
    whole, and the layers must run from 1 without a gap: a cell's map to a
    deeper layer needs every neuron of the layers before it."""
    if model.in_dim != 2:
        raise ValueError("the exact oracle is 2-D only")
    runs = [(layer, list(run)) for layer, run in groupby(schedule, key=lambda n: n.layer)]
    for k, (layer, run) in enumerate(runs):
        whole = [n.index for n in run] == list(range(model.layers[layer - 1].out_dim))
        if layer != k + 1 or (k + 1 < len(runs) and not whole):
            raise ValueError("schedule must run whole layers from layer 1")
    lo, hi = Fraction(lo), Fraction(hi)
    square = [(lo, lo), (hi, lo), (hi, hi), (lo, hi)]
    inputs = [(Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0))]
    cells = [(square, (), _affine_rows(model.layers[0], inputs))]
    for layer, run in runs:
        if layer > 1:
            # the layer before's ReLU, by the cell's signs of that layer
            width = model.layers[layer - 2].out_dim
            cells = [
                (corners, pattern, _affine_rows(model.layers[layer - 1], [
                    g if s > 0 else (0, 0, 0) for g, s in zip(pre, pattern[-width:])
                ]))
                for corners, pattern, pre in cells
            ]
        for neuron in run:
            cells = [
                (piece, pattern + (sign,), pre)
                for corners, pattern, pre in cells
                for piece, sign in _cut(corners, pre[neuron.index], neuron)
            ]
    return _with_edges([(corners, pattern) for corners, pattern, _ in cells])


def _with_edges(regions):
    """Distinct vertices, then the edges: each region side is cut at every
    vertex that lies on it, so a side that a neighbour's vertex splits
    counts as two edges."""
    index = {}
    for corners, _ in regions:
        for p in corners:
            index.setdefault(p, len(index))
    points = list(index)
    approx = np.array([[float(x), float(y)] for x, y in points])
    tol = 1e-9 * (1.0 + np.abs(approx).max())
    edges = set()
    for corners, _ in regions:
        for a, b in zip(corners, corners[1:] + corners[:1]):
            box_lo = np.minimum(approx[index[a]], approx[index[b]]) - tol
            box_hi = np.maximum(approx[index[a]], approx[index[b]]) + tol
            near = np.flatnonzero(np.all((approx >= box_lo) & (approx <= box_hi), axis=1))
            dx, dy = b[0] - a[0], b[1] - a[1]
            inner = []
            for i in near.tolist():
                p = points[i]
                along = (p[0] - a[0]) * dx + (p[1] - a[1]) * dy
                on_line = (p[0] - a[0]) * dy == (p[1] - a[1]) * dx
                if on_line and 0 < along < dx * dx + dy * dy:
                    inner.append((along, p))
            chain = [a] + [p for _, p in sorted(inner)] + [b]
            edges.update(frozenset((index[u], index[v])) for u, v in zip(chain, chain[1:]))
    return ExactComplex(points, edges, regions)
