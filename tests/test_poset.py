import tracemalloc

import numpy as np
import pytest

from conftest import sign_tuples
from relucomplex import poset, signvec
from relucomplex.model import LayerSpec, MlpSpec, NeuronSchedule, random_model
from relucomplex.poset import (
    CountBudgetError,
    build_parent_cells,
    cells_up_to,
    cellsets_from_skeleton,
    count_cells,
    euler_characteristic,
    region_signatures,
)
from relucomplex.signvec import sign_text
from relucomplex.skeleton import Skeleton, SkeletonError, init_hypercube
from relucomplex.subdivide import extract_complex
from relucomplex.validate import sampled_region_oracle


def lines_net(rows, biases):
    return MlpSpec(
        (LayerSpec(np.array(rows, dtype=float), np.array(biases, dtype=float)),), 2
    )


def extract_lines(rows, biases, lo=0.0, hi=1.0):
    # single-layer nets: the output neurons ARE the hyperplanes
    net = lines_net(rows, biases)
    domain, sk = init_hypercube(2, lo, hi)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    sk, _ = extract_complex(net, domain, sk, schedule)
    return domain, sk


def test_square_no_hyperplanes():
    _, sk = init_hypercube(2, 0.0, 1.0)
    assert count_cells(sk, sk.m, 2) == [4, 4, 1]
    assert euler_characteristic([4, 4, 1]) == 1


def test_square_vertices_to_edges():
    _, sk = init_hypercube(2, 0.0, 1.0)
    verts, edges = cellsets_from_skeleton(sk)
    parents = build_parent_cells(verts, sk.m)
    assert parents.dim == 1 and len(parents) == 4
    assert sorted(sign_tuples(parents.signs)) == sorted(sign_tuples(edges.signs))
    for ch in parents.children:
        assert len(ch) == 2


def test_one_generic_line():
    _, sk = extract_lines([[1.0, 1.0]], [-0.5])
    counts = count_cells(sk, sk.m, 2)
    assert counts == [6, 7, 2]
    assert euler_characteristic(counts) == 1


def test_two_crossing_lines():
    # x = 0.4 and y = 0.6 cross inside the unit square: 4 regions
    _, sk = extract_lines([[1.0, 0.0], [0.0, 1.0]], [-0.4, -0.6])
    counts = count_cells(sk, sk.m, 2)
    assert counts[2] == 4
    assert euler_characteristic(counts) == 1


def test_zero_count_rule():
    net = random_model(3, 2, 5, 1, seed=2)
    domain, sk = init_hypercube(3, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    _, edges = cellsets_from_skeleton(sk)
    cells = edges
    for k in (2, 3):
        cells = build_parent_cells(cells, sk.m)
        zeros = np.count_nonzero(cells.signs == 0, axis=1)
        assert np.all(zeros == 3 - k)


def test_child_zero_sets_strictly_contain_parent():
    _, sk = extract_lines([[1.0, 1.0]], [-0.5])
    _, edges = cellsets_from_skeleton(sk)
    faces = build_parent_cells(edges, sk.m)
    for g in range(len(faces)):
        pz = set(np.flatnonzero(faces.signs[g] == 0))
        for child in faces.children[g]:
            cz = set(np.flatnonzero(edges.signs[child] == 0))
            assert pz < cz


def test_cellset_keys_strictly_increasing():
    _, sk = extract_lines([[1.0, 1.0], [1.0, -1.0]], [-0.5, 0.1])
    _, edges = cellsets_from_skeleton(sk)
    keys = sign_tuples(edges.signs)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_region_signatures_trivial():
    _, sk = init_hypercube(2, 0.0, 1.0)
    regions = region_signatures(sk, sk.m)
    assert len(regions) == 1
    assert sign_text(regions[0]) == "++++"


def test_region_signatures_one_line():
    _, sk = extract_lines([[1.0, 1.0]], [-0.5])
    regions = region_signatures(sk, sk.m)
    assert len(regions) == 2
    texts = {sign_text(r) for r in regions}
    assert texts == {"++++-", "+++++"}
    assert not np.any(regions == 0)


def test_region_count_matches_count_cells():
    net = random_model(2, 3, 6, 1, seed=5)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    counts = count_cells(sk, sk.m, 2)
    assert len(region_signatures(sk, sk.m)) == counts[2]


def test_sampled_signatures_contained():
    net = random_model(2, 2, 6, 1, seed=6)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    schedule = NeuronSchedule.for_model(net)
    sk, _ = extract_complex(net, domain, sk, schedule)
    regions = set(sign_tuples(region_signatures(sk, sk.m)))
    sampled = set(sign_tuples(sampled_region_oracle(net, domain, 20000, 1, schedule)))
    assert sampled <= regions


def test_count_budget():
    net = random_model(3, 2, 8, 1, seed=0)
    domain, sk = init_hypercube(3, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    with pytest.raises(CountBudgetError) as err:
        count_cells(sk, sk.m, 3, max_cells=10)
    assert err.value.partial_counts == [sk.n_vertices_alive, sk.n_edges_alive]


def test_count_budget_stops_at_the_first_chunk_over_it(monkeypatch):
    # one chunk's distinct parents are cells of the dimension, so a chunk
    # over the budget ends the count before the later chunks and the merge
    net = random_model(3, 2, 8, 1, seed=0)
    domain, sk = init_hypercube(3, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    monkeypatch.setattr(poset, "COUNT_CHUNK_ROWS", 20)
    grouped = []
    real = signvec.group_parents

    def counted(rows, m):
        grouped.append(len(rows))
        return real(rows, m)

    monkeypatch.setattr(signvec, "group_parents", counted)
    with pytest.raises(CountBudgetError) as err:
        count_cells(sk, sk.m, 3, max_cells=10)
    assert err.value.partial_counts == [sk.n_vertices_alive, sk.n_edges_alive]
    assert sk.n_edges_alive > 20 and len(grouped) == 1
    # without a budget the same chunks count every cell
    grouped.clear()
    counts = count_cells(sk, sk.m, 3)
    assert counts[2] > 10 and len(grouped) > 2


def test_chunked_counting_matches_one_chunk(monkeypatch):
    # a lone chunk's groups are the result as they stand; many small chunks
    # are merged into the same cells in the same order
    net = random_model(3, 2, 8, 1, seed=0)
    domain, sk = init_hypercube(3, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    assert sk.n_edges_alive < poset.COUNT_CHUNK_ROWS
    whole = [cells_up_to(sk, sk.m, k) for k in range(4)]
    monkeypatch.setattr(poset, "COUNT_CHUNK_ROWS", 7)
    for k, (counts, rows) in enumerate(whole):
        chunked_counts, chunked_rows = cells_up_to(sk, sk.m, k)
        assert chunked_counts == counts == count_cells(sk, sk.m, k)
        assert np.array_equal(chunked_rows, rows)


def test_two_cells_hold_the_candidate_rows_once():
    # perturbing and grouping in one buffer: the 2-cell step's peak is the
    # edge rows and their candidates, plus the unique rows and the int64
    # order and source, not two more copies of every candidate
    net = random_model(2, 8, 64, 1, seed=0)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, NeuronSchedule.for_model(net))
    edge_rows = sk.edge_signs_of(sk.alive_edge_ids())
    floor = edge_rows.nbytes + signvec.perturb_rows(edge_rows, sk.m)[0].nbytes
    del edge_rows
    tracemalloc.start()
    try:
        counts, _ = cells_up_to(sk, sk.m, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[2] > 1000
    assert peak <= 1.25 * floor


def test_up_to_bounds():
    _, sk = init_hypercube(2, 0.0, 1.0)
    for up_to in (-1, 3):
        with pytest.raises(ValueError, match="up_to must be in 0..2"):
            count_cells(sk, sk.m, up_to)
    assert count_cells(sk, sk.m, 0) == [4]


def test_cells_up_to_rows():
    _, sk = extract_lines([[1.0, 1.0]], [-0.5])
    counts, rows = cells_up_to(sk, sk.m, 0)
    assert counts == [6] and np.array_equal(rows, sk.vertex_signs[sk.alive_vertex_ids()])
    counts, rows = cells_up_to(sk, sk.m, 1)
    assert counts == [6, 7] and np.array_equal(rows, sk.edge_signs[sk.alive_edge_ids()])


def test_region_rows_with_zeros_name_the_first_row():
    # a 3-cube's skeleton claimed as 2-D: its "regions" are the cube's faces
    _, cube = init_hypercube(3, 0.0, 1.0)
    sk = Skeleton(2, cube.m, cube.positions, cube.vertex_signs, cube.edges)
    with pytest.raises(SkeletonError, match=r"^region signature 0\+{5} still contains zeros$"):
        cells_up_to(sk, sk.m, 2)
    assert count_cells(sk, sk.m, 1) == [8, 12]
