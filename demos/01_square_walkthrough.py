# A single subdivision step, end to end, small enough to read every number.
#
# The unit square starts as 4 vertices and 4 edges. One neuron with
# pre-activation x + y - 0.5 folds along the line x + y = 0.5: the two edges
# it crosses are split, and the two new vertices are joined across the
# square's interior 2-face.

import numpy as np

from relucomplex.model import LayerSpec, MlpSpec, NeuronRef
from relucomplex.signvec import sign_text
from relucomplex.skeleton import init_hypercube
from relucomplex.subdivide import subdivide_once

net = MlpSpec((LayerSpec(np.array([[1.0, 1.0]]), np.array([-0.5])),), 2)
domain, sk = init_hypercube(2, 0.0, 1.0)

print("before: %d vertices, %d edges, m = %d facets" % (
    sk.n_vertices_alive, sk.n_edges_alive, sk.m))

stats = subdivide_once(sk, net, NeuronRef(1, 0))

print("after : %d vertices, %d edges" % (sk.n_vertices_alive, sk.n_edges_alive))
print("splitting edges: %d, intersecting edges: %d" % (
    stats.n_splitting, stats.n_intersecting))
print()

print("vertices (sign-vector = 4 facets + 1 neuron):")
for vid in sk.alive_vertex_ids():
    x = sk.positions[vid]
    print("  v%-2d (%4.1f, %4.1f)  %s" % (vid, x[0], x[1], sign_text(sk.vertex_signs[vid])))

print("edges:")
for eid in sk.alive_edge_ids():
    lo, hi = sk.edges[eid]
    print("  e%-2d (v%d, v%d)  %s" % (eid, lo, hi, sign_text(sk.edge_signs_of(eid))))

# the zero entries name exactly the hyperplanes each cell lies on:
# the new vertices carry a facet zero plus the neuron zero, and the
# intersecting edge carries only the neuron zero (it crosses the interior).
