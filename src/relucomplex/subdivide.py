"""Edge subdivision: the core extraction loop.

One iteration processes one neuron (one folded hyperplane) in five steps:
evaluate its pre-activation at all alive vertices (1), extend every
sign-vector by the new sign (2), find splitting edges from disagreeing
endpoint signs (3), place a new vertex on each splitting edge by linear
interpolation and replace the edge by its two halves (4), and connect new
vertices across splitting 2-faces, which are identified implicitly by
perturbing the splitting edges' sign-vectors and pairing equal results (5).
"""

import time
from dataclasses import dataclass, asdict

import numpy as np

from . import model as model_mod
from . import signvec
from . import skeleton as skeleton_mod


class PairingError(RuntimeError):
    """A perturbed 2-face key did not occur exactly twice.

    Every bounded splitting 2-face has exactly two splitting edges; any
    other multiplicity means the arrangement is degenerate or the skeleton
    is corrupt.
    """


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
        return asdict(self)


@dataclass
class PruneStats:
    edges_killed: int
    vertices_killed: int
    edges_alive: int
    vertices_alive: int


class LayerValueCache:
    """Per-vertex post-activations x^(l-1) for the layer being processed.

    Vertex positions never change, so the input a layer sees at a vertex is
    fixed once all earlier layers are processed; caching it turns each
    neuron's step (1) into a single matrix-vector product. Rows track
    skeleton vertex ids; new vertices are appended by a fresh forward pass
    at their positions.
    """

    def __init__(self, model, positions):
        self.model = model
        self.layer = 1
        self.acts = np.array(positions, dtype=np.float64)

    @property
    def n_rows(self):
        return len(self.acts)

    def advance_to(self, layer):
        if layer < self.layer:
            raise ValueError("cache cannot move backwards through layers")
        while self.layer < layer:
            spec = self.model.layers[self.layer - 1]
            self.acts = np.maximum(
                model_mod._affine(self.acts, spec.weights, spec.bias), 0.0
            )
            self.layer += 1

    def preactivation(self, neuron, rows):
        spec = self.model.layers[neuron.layer - 1]
        w = spec.weights[neuron.index : neuron.index + 1]
        return model_mod._affine(self.acts[rows], w, spec.bias[neuron.index])[:, 0]

    def extend(self, positions):
        new = model_mod.layer_inputs(self.model, positions, self.layer)
        self.acts = np.concatenate([self.acts, new], axis=0)


def subdivide_once(sk, model, neuron, cache=None):
    """Process one neuron; mutates `sk` in place and returns IterationStats.

    `cache` is the LayerValueCache of a running extraction; without one, a
    fresh cache is built for this call.
    """
    t0 = time.perf_counter()
    neuron.validate(model)
    m = sk.m
    nv_before = sk.n_vertices_alive
    ne_before = sk.n_edges_alive

    # (1) pre-activations at alive vertices
    av = sk.alive_vertex_ids()
    if cache is None:
        cache = LayerValueCache(model, sk.positions)
    elif cache.n_rows != sk.n_vertices:
        raise ValueError("value cache is out of sync with the skeleton")
    cache.advance_to(neuron.layer)
    vals_alive = cache.preactivation(neuron, av)

    # (2) extend vertex sign-vectors; exact zeros break toward minus
    signs_alive, n_deg = signvec.signs_of_values(vals_alive)
    sk.degenerate_count += n_deg
    vcol = np.full(sk.n_vertices, -1, dtype=np.int8)
    vcol[av] = signs_alive
    vals = np.zeros(sk.n_vertices, dtype=np.float64)
    vals[av] = vals_alive

    # (3) splitting edges: alive edges whose endpoint signs differ
    ae = sk.alive_edge_ids()
    sa = vcol[sk.edges[ae, 0]]
    sb = vcol[sk.edges[ae, 1]]
    differ = sa != sb
    split_eids = ae[differ]
    n_split = len(split_eids)

    ecol = np.zeros(sk.n_edges, dtype=np.int8)
    ecol[ae[~differ]] = sa[~differ]
    sk.append_sign_column(vcol, ecol)

    n_inter = 0
    if n_split:
        # (4) interpolate new vertices (ascending splitting-edge id) and
        # replace each splitting edge by its two halves
        ends = sk.edges[split_eids]
        from_pos = vcol[ends[:, 0]] > 0
        v_pos = np.where(from_pos, ends[:, 0], ends[:, 1])
        v_neg = np.where(from_pos, ends[:, 1], ends[:, 0])
        val_pos = vals[v_pos]
        val_neg = vals[v_neg]
        ts = val_pos / (val_pos - val_neg)
        x0 = sk.positions[v_pos] + ts[:, None] * (sk.positions[v_neg] - sk.positions[v_pos])

        pre_rows = sk.edge_signs[split_eids, :-1]
        zeros = np.zeros((n_split, 1), dtype=np.int8)
        new_vids = sk.append_vertices(x0, np.concatenate([pre_rows, zeros], axis=1))
        cache.extend(x0)

        sk.edge_alive[split_eids] = False
        plus = np.concatenate([pre_rows, np.ones((n_split, 1), dtype=np.int8)], axis=1)
        minus = np.concatenate([pre_rows, -np.ones((n_split, 1), dtype=np.int8)], axis=1)
        sk.append_edges(np.column_stack([v_pos, new_vids]), plus)
        sk.append_edges(np.column_stack([v_neg, new_vids]), minus)

        # (5) intersecting edges across splitting 2-faces
        pairs, esigns = pair_splitting_faces(pre_rows, new_vids, m)
        n_inter = len(pairs)
        if n_inter:
            sk.append_edges(pairs, esigns)

    seconds = time.perf_counter() - t0
    mem = sk.nbytes() + 2 * (sk.dim - 1) * n_split * sk.sign_width
    stats = IterationStats(
        neuron.layer,
        neuron.index,
        nv_before,
        sk.n_vertices_alive,
        ne_before,
        sk.n_edges_alive,
        n_split,
        n_inter,
        n_deg,
        seconds,
        mem,
    )
    if stats.vertices_after != stats.vertices_before + n_split:
        raise skeleton_mod.SkeletonError("vertex count identity violated")
    if stats.edges_after != stats.edges_before + n_split + n_inter:
        raise skeleton_mod.SkeletonError("edge count identity violated")
    return stats


def pair_splitting_faces(pre_rows, new_vids, m):
    """Pair splitting edges across their shared 2-faces.

    `pre_rows` are the splitting edges' sign-vectors before the current
    neuron's entry was appended, and `new_vids` the ids of the vertices
    placed on them. Each edge's parenting 2-faces are generated by
    perturbing its row; every generated face must occur exactly twice, and
    each pair yields one intersecting edge connecting the two new vertices,
    with the face's sign-vector plus an appended zero. Returns
    ``(pairs, sign_rows)`` in ascending face order: ``pairs`` holds
    ``(lo, hi)`` vertex ids. Raises PairingError on any other multiplicity.
    """
    w = pre_rows.shape[1]
    cand, src = signvec.perturb_rows(pre_rows, m)
    if len(cand) == 0:
        # no zeros to perturb: D = 1, where no 2-faces exist
        return np.zeros((0, 2), dtype=np.int64), np.zeros((0, w + 1), dtype=np.int8)
    uniq, inverse, counts = signvec.group_rows(cand)
    if np.any(counts != 2):
        bad = int(np.flatnonzero(counts != 2)[0])
        raise PairingError(
            f"2-face {signvec.sign_text(uniq[bad])} occurred {int(counts[bad])} times, expected 2"
        )
    grouped = np.argsort(inverse, kind="stable").reshape(-1, 2)
    src_a = src[grouped[:, 0]]
    src_b = src[grouped[:, 1]]
    if np.any(src_a == src_b):
        bad = int(np.flatnonzero(src_a == src_b)[0])
        raise PairingError(
            f"2-face {signvec.sign_text(uniq[bad])} generated twice by one edge"
        )
    va = new_vids[src_a]
    vb = new_vids[src_b]
    pairs = np.column_stack([np.minimum(va, vb), np.maximum(va, vb)])
    signs = np.concatenate([uniq, np.zeros((len(uniq), 1), dtype=np.int8)], axis=1)
    return pairs, signs


def prune_future(sk, model, remaining):
    """Kill edges that cannot contribute to the level set.

    An edge whose endpoints agree in sign for every remaining scheduled
    neuron will never split, so it (and any vertex left isolated) can be
    dropped when only the zero level set of the output entry is wanted.
    """
    remaining = list(remaining)
    if not remaining:
        return PruneStats(0, 0, sk.n_edges_alive, sk.n_vertices_alive)
    av = sk.alive_vertex_ids()
    pres = model_mod.batch_preactivations(model, sk.positions[av])
    vals = np.column_stack([pres[nr.layer - 1][:, nr.index] for nr in remaining])
    signs = np.where(vals > 0.0, 1, -1).astype(np.int8)
    full = np.zeros((sk.n_vertices, signs.shape[1]), dtype=np.int8)
    full[av] = signs

    ae = sk.alive_edge_ids()
    same = np.all(full[sk.edges[ae, 0]] == full[sk.edges[ae, 1]], axis=1)
    killed_edges = ae[same]
    sk.edge_alive[killed_edges] = False

    alive_ends = sk.edges[sk.alive_edge_ids()]
    degree = np.bincount(alive_ends.ravel(), minlength=sk.n_vertices)
    killed_vertices = av[degree[av] == 0]
    sk.vertex_alive[killed_vertices] = False
    return PruneStats(
        len(killed_edges), len(killed_vertices), sk.n_edges_alive, sk.n_vertices_alive
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

    With level_set_prune, prune_future runs after each completed layer
    (never after the last neuron). Returns the compacted skeleton and the
    per-iteration stats. The passed skeleton is consumed.
    """
    if sk.t != 0:
        raise ValueError("expected a fresh skeleton (t = 0)")
    if domain.m != sk.m:
        raise ValueError("domain facet count does not match the skeleton")
    neurons = list(schedule)
    sk.reserve_sign_width(sk.m + len(neurons))
    cache = LayerValueCache(model, sk.positions)
    stats = []
    for i, neuron in enumerate(neurons):
        stats.append(subdivide_once(sk, model, neuron, cache=cache))
        if validate_each:
            skeleton_mod.check_invariants(sk)
        if (
            level_set_prune
            and i + 1 < len(neurons)
            and neurons[i + 1].layer > neuron.layer
        ):
            prune_future(sk, model, neurons[i + 1 :])
    return skeleton_mod.compact(sk), stats
