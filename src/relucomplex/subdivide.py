"""Edge subdivision: the core extraction loop.

One iteration processes one neuron (one folded hyperplane) in five steps:
evaluate its pre-activation at all alive vertices (1), extend every
sign-vector by the new sign (2), find splitting edges from disagreeing
endpoint signs (3), place a new vertex on each splitting edge by linear
interpolation and replace the edge by its two halves (4), and connect new
vertices across splitting 2-faces, which are identified implicitly by
perturbing the splitting edges' sign-vectors and pairing equal results (5).
Step (5) is `signvec.pair_parents`, which pairs the perturbed rows on 64-bit
keys and checks each pair's two rows for equality.

`subdivide_layer` runs the iterations of one layer's neurons together.
When the layer starts, steps (1)-(3) are done for all of its neurons at
once: one read of the layer's pre-activation matrix (`LayerValueCache`,
one row per vertex, computed once per layer) at the alive vertices gives
their sign block, written into staged sign columns in one pass. Only
vertex sign rows are stored; an edge's row is derived from its endpoints'
rows, so each alive edge needs only the first neuron where its endpoints'
signs differ, which is the neuron that splits it. Each neuron then makes
its column live and runs steps (4) and (5) on the edges it splits only, in
one routine (`_split_edges`); a neuron that splits nothing costs no per-row
work. Each vertex it creates gets its sign row written once, staged columns
from the cache values at its position included, and the edges it creates
record their split neuron from their endpoints.
"""

import itertools
import time
from dataclasses import dataclass, fields

import numpy as np

from . import model as model_mod
from . import signvec
from . import skeleton as skeleton_mod


PairingError = signvec.PairingError  # re-exported: a split raises it


@dataclass
class IterationStats:
    """Per-neuron counters; alive counts before/after the iteration."""

    layer: int
    index: int
    vertices_before: int
    vertices_after: int
    edges_before: int
    edges_after: int
    n_splitting: int
    n_intersecting: int
    n_degenerate: int
    seconds: float
    mem_bytes: int

    def to_json(self):
        # a flat dict: asdict would deep-copy every (scalar) field
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class PruneStats:
    edges_killed: int
    vertices_killed: int
    edges_alive: int
    vertices_alive: int


class LayerValueCache:
    """Pre-activations of the current layer at every vertex.

    One matrix per layer, one row per skeleton vertex id and one column per
    neuron of the layer, so a layer's step (1) is one read of it. Vertex
    positions never change, so a row is computed once per layer: when the
    layer starts, `model.forward` walks the matrix on from the layer before,
    and `extend` walks new vertices from their positions, appending their
    rows with `skeleton.append_rows`. The affine kernel is row- and
    column-stable, so every value is bitwise the one a per-neuron evaluation
    at that vertex gives.
    """

    def __init__(self, model, positions):
        self.model = model
        walk = model_mod.forward(model, np.asarray(positions, dtype=np.float64), 1, 1)
        self.layer, self._pre = next(walk)
        self._n = len(self._pre)

    @property
    def n_rows(self):
        return self._n

    def values(self, rows):
        """Pre-activations of the current layer at the given vertex ids."""
        return self._pre[rows]

    def advance_to(self, layer):
        if layer < self.layer:
            raise ValueError("cache cannot move backwards through layers")
        walk = model_mod.forward(self.model, self._pre[: self._n], self.layer + 1, layer)
        for self.layer, self._pre in walk:
            pass

    def preactivation(self, neuron, rows):
        if neuron.layer != self.layer:
            raise ValueError(f"cache holds layer {self.layer}, not {neuron.layer}")
        return self._pre[rows, neuron.index]

    def extend(self, positions):
        for _, pre in model_mod.forward(self.model, positions, 1, self.layer):
            pass
        self._pre = skeleton_mod.append_rows(self._pre, self._n, pre)
        self._n += len(pre)


def subdivide_once(sk, model, neuron, cache=None):
    """Process one neuron; mutates `sk` in place and returns IterationStats.

    The one-neuron case of `subdivide_layer`.
    """
    return subdivide_layer(sk, model, [neuron], cache)[0]


def subdivide_layer(sk, model, neurons, cache=None, *, validate_each=False):
    """Process the neurons of one layer in order; mutates `sk` in place and
    returns one IterationStats per neuron.

    `cache` is the LayerValueCache of a running extraction; without one, a
    fresh cache is built for this call. With validate_each,
    `skeleton.check_invariants` runs after every neuron. A neuron's
    `seconds` is the time since the previous neuron's stats (checks
    excluded); the first neuron's includes the work of the layer start.
    """
    clock = time.perf_counter()
    if not neurons:
        return []
    layer = neurons[0].layer
    for neuron in neurons:
        neuron.validate(model)
        if neuron.layer != layer:
            raise ValueError(f"neuron {neuron} is not in layer {layer}")
    if cache is None:
        cache = LayerValueCache(model, sk.positions)
    elif cache.n_rows != sk.n_vertices:
        raise ValueError("value cache is out of sync with the skeleton")
    cache.advance_to(layer)
    ((_, cols, k),) = model_mod.layer_columns(neurons)

    n_deg, split_at = _stage_layer(sk, cache, neurons, cols, k)

    stats = []
    # alive counts before each neuron (cells die only between layers)
    nv_alive, ne_alive = sk.n_vertices_alive, sk.n_edges_alive
    for p, neuron in enumerate(neurons):
        if p:  # the first column went live with the staged block
            sk.append_sign_column()
        nv_before, ne_before = nv_alive, ne_alive
        sk.degenerate_count += int(n_deg[p])
        split_eids = np.flatnonzero(split_at[: sk.n_edges] == p)
        n_split = len(split_eids)
        n_inter = 0
        if n_split:
            first = sk.n_edges
            n_inter, at = _split_edges(sk, cache, neurons, cols, p, split_eids, n_deg)
            split_at = skeleton_mod.append_rows(split_at, first, at)

        seconds = time.perf_counter() - clock
        # the estimate counts an int8 sign row per edge row too, though edge
        # rows are derived rather than stored, so that its figures stay
        # comparable with earlier runs until a measured peak replaces it
        mem = sk.nbytes() + (sk.n_edges + 2 * (sk.dim - 1) * n_split) * sk.sign_width
        nv_alive, ne_alive = sk.n_vertices_alive, sk.n_edges_alive
        st = IterationStats(
            layer,
            neuron.index,
            nv_before,
            nv_alive,
            ne_before,
            ne_alive,
            n_split,
            n_inter,
            int(n_deg[p]),
            seconds,
            mem,
        )
        for kind, before, after, want in (
            ("vertex", nv_before, nv_alive, nv_before + n_split),
            ("edge", ne_before, ne_alive, ne_before + n_split + n_inter),
        ):
            if after != want:
                raise skeleton_mod.SkeletonError(
                    f"{kind} count identity violated at neuron {layer}:{neuron.index}: "
                    f"alive {before} -> {after}, n_split {n_split}, n_inter {n_inter}"
                )
        stats.append(st)
        if validate_each:
            skeleton_mod.check_invariants(sk)
        clock = time.perf_counter()
    return stats


def _stage_layer(sk, cache, neurons, cols, k):
    """Steps (1)-(3) for all k neurons of the layer: the alive vertices'
    sign block (exact zeros break toward minus; dead rows read -1), written
    as staged sign columns. Returns each neuron's degenerate count and each
    edge row's split position (k for none; dead rows too), one per edge row;
    each split appends its new edges' positions with `skeleton.append_rows`."""
    av = sk.alive_vertex_ids()
    signs, n_deg = _signs(cache.values(av)[:, cols], neurons, av, sk.positions[av])
    vblock = np.full((sk.n_vertices, k), -1, dtype=np.int8)
    vblock[av] = signs
    ae = sk.alive_edge_ids()
    ends = np.take(sk.edges, ae, axis=0)
    split_at = np.full(sk.n_edges, k, dtype=_position_type(k))
    split_at[ae] = _split_positions(
        np.take(vblock, ends[:, 0], axis=0), np.take(vblock, ends[:, 1], axis=0), 0
    )
    sk.append_sign_column(vblock)
    return n_deg, split_at


def _split_edges(sk, cache, neurons, cols, p, split_eids, n_deg):
    """Steps (4) and (5) of neuron p of the layer, on the edges it splits.

    One new vertex is placed on each split edge (ascending edge id) by
    linear interpolation. Its sign row is written once, into one block of
    the live and the staged width: the edge's derived row, 0 for the
    neuron, then the staged columns from its cache values (their degenerate
    counts are added to `n_deg`). The split edges die, and the pairing reads
    the same block before the neuron's column. The new edges, in id order:
    the halves that replace the split edges, toward their positive ends,
    then toward their negative ends, then the intersecting edges. Returns
    the number of intersecting edges and the new edges' split positions,
    from their endpoints' staged columns. A PairingError is raised again
    naming the neuron (``layer:index``), the split edges' ids and their
    endpoints' positions in `float.hex`, so that the failing split can be
    replayed exactly.
    """
    # (4) a vertex on each split edge, its sign row written once
    neuron = neurons[p]
    ends = sk.edges[split_eids]
    from_pos = sk.vertex_signs[ends[:, 0], -1] > 0
    v_pos = np.where(from_pos, ends[:, 0], ends[:, 1])
    v_neg = np.where(from_pos, ends[:, 1], ends[:, 0])
    val_pos = cache.preactivation(neuron, v_pos)
    val_neg = cache.preactivation(neuron, v_neg)
    ts = val_pos / (val_pos - val_neg)
    x0 = sk.positions[v_pos] + ts[:, None] * (sk.positions[v_neg] - sk.positions[v_pos])
    first, n_split, w = sk.n_vertices, len(split_eids), sk.sign_width
    new_vids = np.arange(first, first + n_split)
    rows = np.empty((n_split, w + len(neurons) - p - 1), dtype=np.int8)
    sk.edge_signs_of(split_eids, out=rows[:, :w])
    rows[:, w - 1] = 0
    cache.extend(x0)
    rows[:, w:], later_deg = _signs(
        cache.values(slice(first, first + n_split))[:, cols][:, p + 1 :],
        neurons[p + 1 :],
        new_vids,
        x0,
    )
    n_deg[p + 1 :] += later_deg
    sk.append_vertices(x0, rows)
    sk.edge_alive[split_eids] = False
    # (5) intersecting edges across splitting 2-faces
    try:
        pairs = pair_splitting_faces(rows[:, : w - 1], new_vids, sk.m)
    except PairingError as exc:
        corners = sk.positions[ends].tolist()
        hexed = [[" ".join(map(float.hex, x)) for x in pair] for pair in corners]
        edges = "; ".join(f"{e}: ({a}) ({b})" for e, (a, b) in zip(split_eids.tolist(), hexed))
        raise PairingError(
            f"{exc}; neuron {neuron.layer}:{neuron.index}, split edges "
            f"(id: endpoint positions): {edges}"
        ) from exc
    halves = np.column_stack([np.concatenate([v_pos, v_neg]), np.tile(new_vids, 2)])
    new_edges = np.concatenate([halves, pairs])
    sk.append_edges(new_edges)
    at = _split_positions(
        sk.staged_vertex_signs(new_edges[:, 0]), sk.staged_vertex_signs(new_edges[:, 1]), p + 1
    )
    return len(pairs), at


def _signs(values, neurons, vids, positions):
    """signvec.signs_of_values of a block with one row per vertex (`vids`,
    at `positions`) and one column per neuron; a non-finite value raises
    ValueError naming its neuron, vertex and position."""
    try:
        return signvec.signs_of_values(values)
    except ValueError:
        row, col = np.argwhere(~np.isfinite(values))[0]
        neuron = neurons[col]
        raise ValueError(
            f"non-finite pre-activation of neuron {neuron.layer}:{neuron.index} at "
            f"vertex {vids[row]}, position {positions[row].tolist()}"
        ) from None


def _split_positions(signs_a, signs_b, first):
    """Each edge's split position among the layer's neurons from `first` on,
    from its endpoints' signs (one column per neuron, no zeros): `first` +
    the first column where they differ, or + the block width when they
    never do."""
    n, w = signs_a.shape
    differ = np.ones((n, w + 1), dtype=bool)
    np.not_equal(signs_a, signs_b, out=differ[:, :w])
    at = differ.argmax(axis=1).astype(_position_type(first + w))
    at += first
    return at


def _position_type(k):
    """The smallest signed type that holds the split positions 0..k of a
    layer of k neurons: one byte per edge row for up to 127 neurons."""
    return np.min_scalar_type(-k - 1)


def pair_splitting_faces(pre_rows, new_vids, m):
    """Pair splitting edges across their shared 2-faces.

    `pre_rows` are the splitting edges' sign-vectors before the current
    neuron's entry was appended, and `new_vids` the ids of the vertices
    placed on them. Each 2-face (`signvec.pair_parents`, which raises
    PairingError) yields one intersecting edge connecting its two new
    vertices (its sign-vector is the face's plus an appended zero). Returns
    the ``(lo, hi)`` vertex id pairs in ascending face order; none at D = 1.
    """
    return np.sort(new_vids[signvec.pair_parents(pre_rows, m)], axis=1)


def prune_future(sk, model, remaining, cache=None):
    """Kill edges that cannot contribute to the level set.

    An edge whose endpoints agree in sign for every remaining scheduled
    neuron will never split, so it (and any vertex left isolated) can be
    dropped when only the zero level set of the output entry is wanted.
    `cache` (the running extraction's LayerValueCache; without one, a fresh
    cache is built, as in `subdivide_once`) is advanced to the first
    remaining neuron's layer, and `model.forward` from the alive vertices'
    rows of it gives the deeper layers. Each alive vertex's signs for every
    remaining neuron are packed into 64-bit words, one bit each, and an
    alive edge dies when its endpoints' words are all equal.
    """
    remaining = sorted(remaining)  # layer-major, as the walk runs
    if not remaining:
        return PruneStats(0, 0, sk.n_edges_alive, sk.n_vertices_alive)
    if cache is None:
        cache = LayerValueCache(model, sk.positions)
    elif cache.n_rows != sk.n_vertices:
        raise ValueError("value cache is out of sync with the skeleton")
    cache.advance_to(remaining[0].layer)
    av = sk.alive_vertex_ids()
    alive_row = np.zeros(sk.n_vertices, dtype=np.intp)
    alive_row[av] = np.arange(len(av))
    # every remaining neuron's sign at the alive vertices, one bit each, the
    # row padded to whole 64-bit words
    positive = np.zeros((len(av), -(-len(remaining) // 64) * 64), dtype=bool)
    wanted = {layer: (cols, k) for layer, cols, k in model_mod.layer_columns(remaining)}
    pre = cache.values(av)
    walk = model_mod.forward(model, pre, cache.layer + 1, remaining[-1].layer)
    offset = 0
    for layer, pre in itertools.chain([(cache.layer, pre)], walk):
        if layer in wanted:
            cols, k = wanted[layer]
            np.greater(pre[:, cols], 0.0, out=positive[:, offset : offset + k])
            offset += k
    words = np.packbits(positive, axis=1).view(np.uint64)
    ae = sk.alive_edge_ids()
    ends = alive_row[sk.edges[ae]]
    killed = ae[np.all(words[ends[:, 0]] == words[ends[:, 1]], axis=1)]
    sk.edge_alive[killed] = False

    alive_ends = sk.edges[sk.alive_edge_ids()]
    degree = np.bincount(alive_ends.ravel(), minlength=sk.n_vertices)
    killed_vertices = av[degree[av] == 0]
    sk.vertex_alive[killed_vertices] = False
    return PruneStats(
        len(killed), len(killed_vertices), sk.n_edges_alive, sk.n_vertices_alive
    )


def extract_complex(
    model,
    domain,
    sk,
    schedule,
    *,
    level_set_prune=False,
    validate_each=False,
):
    """Run the full schedule on a fresh skeleton.

    Every layer before the schedule's last one must be scheduled in full: a
    deeper neuron bends on each hyperplane of the layers before it, so a
    skipped one would leave a bend inside a cell. Raises ValueError naming
    the first skipped neuron otherwise. With level_set_prune, prune_future
    runs after each completed layer (never after the last neuron). Returns
    the compacted skeleton and the per-iteration stats. The passed skeleton
    is consumed.
    """
    if sk.t != 0:
        raise ValueError("expected a fresh skeleton (t = 0)")
    if domain.m != sk.m:
        raise ValueError("domain facet count does not match the skeleton")
    neurons = list(schedule)
    scheduled = set(neurons)
    last = neurons[-1].layer if neurons else 1
    for layer in range(1, last):
        for index in range(model.layers[layer - 1].out_dim):
            if model_mod.NeuronRef(layer, index) not in scheduled:
                raise ValueError(
                    f"schedule skips neuron {layer}:{index} but reaches layer {last}: "
                    "every layer before its last must be scheduled in full"
                )
    sk.reserve_sign_width(sk.m + len(neurons))
    cache = LayerValueCache(model, sk.positions)
    stats = []
    for _, run in itertools.groupby(neurons, key=lambda neuron: neuron.layer):
        run = list(run)
        stats.extend(subdivide_layer(sk, model, run, cache, validate_each=validate_each))
        rest = neurons[len(stats) :]
        if level_set_prune and rest and rest[0].layer > run[0].layer:
            prune_future(sk, model, rest, cache=cache)
    return skeleton_mod.compact(sk), stats
