"""Rebuilding higher-dimensional cells from the 1-skeleton.

Perturbing each zero of a k-cell's sign-vector names its parent (k+1)-cells,
so iterating perturbation and deduplication from the edge set reconstructs
every cell dimension up to the regions, including the child links of the
inclusion order.
"""

from dataclasses import dataclass

import numpy as np

from . import signvec
from .skeleton import SkeletonError


class CountBudgetError(RuntimeError):
    """Cell counting exceeded its memory budget; partial counts attached."""

    def __init__(self, message, partial_counts):
        super().__init__(message)
        self.partial_counts = partial_counts


@dataclass
class CellSet:
    """Deduplicated k-cells in canonical key order.

    `children[i]` holds indices into the generating (k-1)-cell set (None for
    vertices); `source_ids` maps rows back to skeleton ids for sets
    lifted directly from the skeleton.
    """

    dim: int
    signs: np.ndarray
    children: list = None
    source_ids: np.ndarray = None

    def __len__(self):
        return len(self.signs)


def cellsets_from_skeleton(sk):
    """(vertex CellSet, edge CellSet) for the alive part of a skeleton."""
    av = sk.alive_vertex_ids()
    vrows = sk.vertex_signs[av]
    vuniq, vorder, _ = signvec.group_rows(vrows)
    if len(vuniq) != len(vrows):
        raise ValueError("alive vertices carry duplicate sign-vectors")
    verts = CellSet(0, vuniq, None, av[vorder])
    vpos = np.empty(sk.n_vertices, dtype=np.int64)
    vpos[av[vorder]] = np.arange(len(av))

    ae = sk.alive_edge_ids()
    erows = sk.edge_signs_of(ae)
    euniq, eorder, _ = signvec.group_rows(erows)
    if len(euniq) != len(erows):
        raise ValueError("alive edges carry duplicate sign-vectors")
    eids = ae[eorder]
    children = [np.sort(vpos[sk.edges[e]]) for e in eids]
    edges = CellSet(1, euniq, children, eids)
    return verts, edges


def build_parent_cells(cells, m):
    """All (k+1)-cells generated by perturbing a k-cell set."""
    uniq, order, counts, src = signvec.group_parents(cells.signs, m)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    srcs = src[order]
    children = [np.sort(srcs[bounds[g] : bounds[g + 1]]) for g in range(len(uniq))]
    return CellSet(cells.dim + 1, uniq, children)


#: edge (or higher cell) rows perturbed and deduplicated at a time in counting
COUNT_CHUNK_ROWS = 1 << 18


def _parents_counting(rows, m, max_cells=None):
    """Deduplicated parent rows without child links, chunked for memory. Once
    one chunk's distinct parents (some of the dimension's cells) are more
    than `max_cells`, returns those at once, skipping the rest. A lone
    chunk's groups are the result; several chunks are merged."""
    pieces = []
    for start in range(0, len(rows), COUNT_CHUNK_ROWS):
        uniq = signvec.group_parents(rows[start : start + COUNT_CHUNK_ROWS], m)[0]
        if max_cells is not None and len(uniq) > max_cells:
            return uniq
        pieces.append(uniq)
    if len(pieces) == 1:
        return pieces[0]
    return signvec.group_rows(np.concatenate(pieces, axis=0))[0]


def cells_up_to(sk, m, up_to, max_cells=None):
    """Cell counts n_0..n_up_to and the sign rows of the up_to-cells.

    Dims 0 and 1 are read off the skeleton; each higher one is a perturb and
    deduplicate step (canonical key order) from the one below. At up_to == D
    the rows are the regions and must carry no zeros: a region row with a
    zero means a corrupt complex and raises SkeletonError naming the first
    such row. Once a dimension is known to hold more than `max_cells` cells,
    raises CountBudgetError carrying the counts completed so far.
    """
    if not 0 <= up_to <= sk.dim:
        raise ValueError(f"up_to must be in 0..{sk.dim}, got {up_to}")
    counts = [sk.n_vertices_alive, sk.n_edges_alive][: up_to + 1]
    if up_to:
        rows = sk.edge_signs_of(sk.alive_edge_ids())
    else:
        rows = sk.vertex_signs[sk.alive_vertex_ids()]
    for k in range(2, up_to + 1):
        rows = _parents_counting(rows, m, max_cells)
        if max_cells is not None and len(rows) > max_cells:
            raise CountBudgetError(f"{len(rows)} cells exceed budget {max_cells}", counts)
        counts.append(len(rows))
    if up_to == sk.dim and len(bad := np.flatnonzero((rows == 0).any(axis=1))):
        raise SkeletonError(
            f"region signature {signvec.sign_text(rows[bad[0]])} still contains zeros"
        )
    return counts, rows


def count_cells(sk, m, up_to, max_cells=None):
    """Cell counts n_0..n_up_to; see `cells_up_to`."""
    return cells_up_to(sk, m, up_to, max_cells)[0]


def region_signatures(sk, m):
    """Sign-vectors of all D-cells (no zeros), canonical key order."""
    return cells_up_to(sk, m, sk.dim)[1]


def euler_characteristic(counts):
    """Alternating sum of cell counts; 1 for any complex covering a ball."""
    return int(sum((-1) ** k * n for k, n in enumerate(counts)))
