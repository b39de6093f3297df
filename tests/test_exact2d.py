"""The extractor against the exact 2-D region-subdivision oracle (exact2d)."""

import json

import numpy as np
import pytest

from conftest import sign_tuples
from exact2d import VanishingNeuronError, exact_complex
from relucomplex import cli, poset
from relucomplex.model import (
    LayerSpec,
    MlpSpec,
    NeuronSchedule,
    diamond_model,
    random_model,
    save_model,
)
from relucomplex.skeleton import init_hypercube
from relucomplex.subdivide import extract_complex


def one_layer_net(weights):
    """One hidden layer through the origin, plus an output that sums it."""
    w = np.array(weights, dtype=np.float64)
    return MlpSpec(
        (LayerSpec(w, np.zeros(len(w))), LayerSpec(np.ones((1, len(w))), np.zeros(1))), 2
    )


# ROADMAP item 2's non-generic nets on [-1, 1]^2 and their true V/E/regions
TABLE = {
    "three_concurrent_lines": (one_layer_net([[1, 0], [0, 1], [1, 1]]), False, [9, 14, 6]),
    "line_through_two_corners": (one_layer_net([[1, 1]]), False, [4, 5, 2]),
    "repeated_neuron": (one_layer_net([[1, 0], [1, 0]]), False, [6, 7, 2]),
    "diamond_with_output": (diamond_model(), True, [9, 16, 8]),
}


@pytest.mark.parametrize(
    "depth, width, seed",
    [(1, 8, 0), (1, 12, 1), (2, 6, 0), (2, 6, 2), (2, 8, 1), (3, 6, 0), (3, 8, 1), (3, 8, 2)],
)
def test_generic_nets_match_the_extractor(depth, width, seed):
    net = random_model(2, depth, width, 1, seed)
    schedule = NeuronSchedule.for_model(net, include_output=True)
    domain, sk = init_hypercube(2, -1.0, 1.0)
    sk, _ = extract_complex(net, domain, sk, schedule)
    counts, rows = poset.cells_up_to(sk, sk.m, 2)
    exact = exact_complex(net, schedule, -1, 1)
    assert counts == exact.counts
    assert set(sign_tuples(rows)) == exact.region_rows(sk.m)


def test_deeper_layers_cut_along_bent_lines():
    # relu(x) + relu(y + 2) - 5/2 is y - 1/2 left of x = 0 and x + y - 1/2
    # right of it: one bent line, from (-1, 1/2) over (0, 1/2) to (1, -1/2)
    net = MlpSpec(
        (
            LayerSpec(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 2.0])),
            LayerSpec(np.array([[1.0, 1.0]]), np.array([-2.5])),
        ),
        2,
    )
    exact = exact_complex(net, NeuronSchedule.for_model(net, include_output=True), -1, 1)
    assert exact.counts == [9, 12, 4]
    assert {(0, 0.5), (1, -0.5)} <= set(exact.vertices)
    facets = (1, 1, 1, 1)
    assert exact.region_rows(4) == {
        facets + (x, 1, above) for x in (-1, 1) for above in (-1, 1)
    }


@pytest.mark.parametrize("name", TABLE)
def test_oracle_counts_the_non_generic_table(name):
    net, include_output, want = TABLE[name]
    schedule = NeuronSchedule.for_model(net, include_output=include_output)
    assert exact_complex(net, schedule, -1, 1).counts == want


def test_oracle_refuses_a_neuron_that_vanishes_on_a_cell():
    # the layer-2 neuron is relu(x): 0 on the whole half x <= 0
    net = MlpSpec(
        (
            LayerSpec(np.array([[1.0, 0.0]]), np.zeros(1)),
            LayerSpec(np.array([[1.0]]), np.zeros(1)),
            LayerSpec(np.array([[1.0]]), np.zeros(1)),
        ),
        2,
    )
    with pytest.raises(VanishingNeuronError, match="neuron 2:0 vanishes on a whole cell"):
        exact_complex(net, NeuronSchedule.for_model(net), -1, 1)


@pytest.mark.xfail(strict=True, reason="non-generic nets: wrong counts, exit 0 (ROADMAP 2)")
@pytest.mark.parametrize("name", TABLE)
def test_non_generic_table_gives_true_counts_or_exit_4(name, tmp_path):
    net, include_output, want = TABLE[name]
    save_model(net, tmp_path / "net.json")
    argv = ["count", "--model", str(tmp_path / "net.json"), "--out", str(tmp_path)]
    code = cli.main(argv + (["--include-output"] if include_output else []))
    if code != 4:
        assert code == 0
        assert json.loads((tmp_path / "counts.json").read_text())["dims"] == want
