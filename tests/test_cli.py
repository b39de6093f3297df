import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    centered_output_net,
    check_nonfinite_message,
    extract_random,
    one_intersecting_edge_too_many,
    overflow_net,
)
from relucomplex import cli, model as model_mod, poset, subdivide, validate as validate_mod
from relucomplex.model import NeuronRef, diamond_model, random_model, save_model
from relucomplex.skeleton import Skeleton, init_hypercube


def run_cli(*args):
    return cli.main([str(a) for a in args])


def test_version(capsys):
    assert run_cli("--version") == 0
    out = capsys.readouterr().out
    assert "relucomplex" in out and "schema" in out


def test_no_command(capsys):
    assert run_cli() == 2


def test_extract_smoke(tmp_path):
    code = run_cli(
        "extract", "--random", "2,4,10,1", "--seed", "0", "--domain", "cube",
        "--lo", "-1", "--hi", "1", "--out", tmp_path / "run", "--stats",
    )
    assert code == 0
    for name in ("vertices.csv", "edges.csv", "summary.json", "stats.jsonl"):
        assert (tmp_path / "run" / name).exists()
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["D"] == 2 and summary["m"] == 4 and summary["t"] == 40
    assert summary["residual"]["max_abs"] <= 1e-9
    peak = summary["timings"]["peak_rss_bytes"]
    assert isinstance(peak, int) and peak > 0


def test_extract_deterministic(tmp_path):
    for name in ("a", "b"):
        assert run_cli(
            "extract", "--random", "2,3,8,1", "--seed", "3", "--out", tmp_path / name
        ) == 0
    for artifact in ("vertices.csv", "edges.csv"):
        assert (tmp_path / "a" / artifact).read_bytes() == (
            tmp_path / "b" / artifact
        ).read_bytes()


def test_count_identity_violation_exits_4(tmp_path, capsys, monkeypatch):
    one_intersecting_edge_too_many(monkeypatch)
    assert run_cli("extract", "--random", "2,2,4,1", "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"invariant violation: edge count identity violated at neuron 1:\d+: "
        r"alive \d+ -> \d+, n_split [1-9]\d*, n_inter \d+\n",
        err,
    ), err


def test_pairing_error_exits_4_naming_the_split(tmp_path, capsys, monkeypatch):
    # one split edge's row perturbed twice in the first split of layer 2: its
    # faces occur three times. The message names the neuron, the split edges
    # and their endpoints exactly, as the skeleton before that neuron has them
    net = random_model(2, 2, 4, 1, seed=0)
    save_model(net, tmp_path / "net.json")
    real = subdivide.pair_splitting_faces

    def doubled(rows, new_vids, m):
        if rows.shape[1] >= m + 4:  # past the four neurons of layer 1
            rows, new_vids = np.concatenate([rows, rows[:1]]), np.append(new_vids, new_vids[:1])
        return real(rows, new_vids, m)

    monkeypatch.setattr(subdivide, "pair_splitting_faces", doubled)
    assert run_cli("extract", "--model", tmp_path / "net.json", "--out", tmp_path / "o") == 4
    err = capsys.readouterr().err
    match = re.fullmatch(
        r"invariant violation: 2-face [-0+]{8,} occurred 3 times, expected 2; "
        r"neuron 2:\d+, split edges \(id: endpoint positions\): (.*)\n",
        err,
    )
    assert match, err
    hexed = r"(-?0x[0-9a-f.]+p[-+]\d+)"
    edges = re.findall(rf"(\d+): \({hexed} {hexed}\) \({hexed} {hexed}\)", match[1])
    assert len(edges) >= 2 and len(edges) == match[1].count(";") + 1
    _, sk = init_hypercube(2, -1.0, 1.0)
    subdivide.subdivide_layer(sk, net, [NeuronRef(1, i) for i in range(4)])
    for eid, *coords in edges:
        ends = np.array([float.fromhex(c) for c in coords]).reshape(2, 2)
        assert sk.edge_alive[int(eid)]
        assert np.array_equal(sk.positions[sk.edges[int(eid)]], ends)


def test_count_on_a_corrupt_complex_exits_4(tmp_path, capsys, monkeypatch):
    # region rows with zeros mean a corrupt complex (exit 4), not bad input (2)
    _, cube = init_hypercube(3, 0.0, 1.0)
    corrupt = Skeleton(2, cube.m, cube.positions, cube.vertex_signs, cube.edges)
    monkeypatch.setattr(subdivide, "extract_complex", lambda *args, **kwargs: (corrupt, []))
    assert run_cli("count", "--random", "2,1,2,1", "--out", tmp_path / "c") == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: region signature 0+++++ still contains zeros")
    assert not (tmp_path / "c" / "counts.json").exists()


def test_extract_model_and_random_exclusive(tmp_path):
    assert run_cli("extract", "--out", tmp_path) == 2
    assert run_cli(
        "extract", "--model", "x.json", "--random", "2,1,2,1", "--out", tmp_path
    ) == 2


def test_extract_non_finite_value(tmp_path, capsys):
    # a finite net whose second layer overflows: exit 2, naming the neuron,
    # the vertex and its position
    net = overflow_net()
    save_model(net, tmp_path / "big.json")
    code = run_cli(
        "extract", "--model", tmp_path / "big.json", "--include-output", "--out", tmp_path / "o"
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite pre-activation of neuron 2:0 at vertex ")
    check_nonfinite_message(err, net)


def test_extract_invalid_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("extract", "--model", bad, "--out", tmp_path / "o") == 2
    assert "error" in capsys.readouterr().err
    # deeper than the JSON decoder recurses
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert run_cli("extract", "--model", bad, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: cannot parse model file")


@pytest.mark.parametrize("layers", [None, 5], ids=["null", "number"])
def test_model_layers_not_a_list(tmp_path, capsys, layers):
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"in_dim": 2, "layers": layers}))
    assert run_cli("count", "--model", path, "--out", tmp_path / "o") == 2
    assert "layers must be a list" in capsys.readouterr().err


@pytest.mark.parametrize("in_dim", [2.7, 2.0, True, 0, "2"])
def test_model_in_dim_not_a_positive_integer(tmp_path, capsys, in_dim):
    path = tmp_path / "net.json"
    doc = {"in_dim": in_dim, "layers": [{"weights": [[1.0, 1.0]], "bias": [0.5]}]}
    path.write_text(json.dumps(doc))
    for command in ("count", "validate"):
        assert run_cli(command, "--model", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"in_dim must be an integer >= 1, got {json.dumps(in_dim)}" in err


def test_model_output_layer_of_no_neurons(tmp_path, capsys):
    path = tmp_path / "net.json"
    doc = {"in_dim": 2, "layers": [
        {"weights": [[1.0, 0.0]], "bias": [0.0]}, {"weights": [], "bias": []},
    ]}
    path.write_text(json.dumps(doc))
    assert run_cli("count", "--model", path, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "layer 2: the output layer has no neurons" in err and "--output-index" not in err


@pytest.mark.parametrize(
    "layer,message",
    [
        ({"weights": 5, "bias": [1]}, "weights must be 2-D"),
        ({"weights": None, "bias": [1]}, "weights must be 2-D"),
        ({"weights": True, "bias": [1]}, "weights must be 2-D"),
        ({"weights": [[]], "bias": []}, "expected 1 input columns, got 0"),
        ({"weights": [[1.0, True]], "bias": [0.5]}, "not booleans"),
        ({"weights": [[1.0, 2.0]], "bias": [False]}, "not booleans"),
        ({"weights": [[1.0, "2"]], "bias": [0.5]}, "not strings"),
        ({"weights": [[1.0, 2.0]], "bias": ["0.5"]}, "not strings"),
    ],
    ids=[
        "scalar", "null", "true", "one-row-of-no-inputs", "bool-weight", "bool-bias",
        "string-weight", "string-bias",
    ],
)
def test_model_layer_entries_exit_2_naming_the_layer(tmp_path, capsys, layer, message):
    # layer 2 of (2, 1, ...): a scalar once ended in an IndexError, [[]] loaded
    # as a layer of no neurons, and booleans loaded as 1.0 and 0.0
    path = tmp_path / "net.json"
    doc = {"in_dim": 2, "layers": [{"weights": [[1.0, 0.0]], "bias": [0.0]}, layer]}
    path.write_text(json.dumps(doc))
    assert run_cli("count", "--model", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: layer 2: ")
    with pytest.raises(model_mod.ModelFormatError, match=f"layer 2: .*{message}"):
        model_mod.load_model(path)


def test_count_on_a_numeric_string_weight_exits_2(tmp_path, capsys):
    # numpy reads "2" as 2.0: this file once counted [4, 4, 1] and exited 0
    path = tmp_path / "net.json"
    path.write_text('{"in_dim": 2, "layers": [{"weights": [[1, "2"]], "bias": [1]}]}')
    assert run_cli("count", "--model", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        "error: layer 1: weights and bias must be numbers, not strings\n"
    )
    assert not (tmp_path / "o").exists()


#: what a hand-edited model file may hold where a number, row or layer belongs
JSON_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(-2, 2), st.text(max_size=2)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=6,
)


@st.composite
def model_docs(draw):
    """A model document of one to three layers of up to three neurons: either
    well-formed, or with each entry, row, field, layer, the layer list and
    the whole document swapped for junk about one time in `odds`."""
    odds = draw(st.sampled_from([None, 4, 16]))

    def maybe(value):
        return draw(JSON_JUNK) if odds and draw(st.integers(1, odds)) == 1 else value

    in_dim = draw(st.integers(1, 3))
    layers, prev = [], in_dim
    for width in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3)):
        # numeric strings too: numpy would read them as numbers
        number = st.one_of(
            st.integers(-3, 3), st.floats(-2, 2), st.integers(-3, 3).map(str),
            st.floats(-2, 2).map(repr),
        )
        weights = [maybe([maybe(draw(number)) for _ in range(prev)]) for _ in range(width)]
        bias = [maybe(draw(number)) for _ in range(width)]
        layers.append(maybe({"weights": maybe(weights), "bias": maybe(bias)}))
        prev = width
    return maybe({"in_dim": maybe(in_dim), "layers": maybe(layers)})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(doc=model_docs())
def test_model_files_load_or_exit_2(tmp_path_factory, doc):
    # a model file either loads or raises ModelFormatError; `count` on it
    # ends with one of its exit codes and never with a traceback
    path = tmp_path_factory.mktemp("model") / "net.json"
    path.write_text(json.dumps(doc))
    try:
        assert isinstance(model_mod.load_model(path), model_mod.MlpSpec)
    except model_mod.ModelFormatError:
        pass
    else:  # a loaded file holds numbers only where weights and biases go
        entries = [layer[key] for layer in doc["layers"] for key in ("weights", "bias")]
        assert not holds_string(entries)
    assert run_cli("count", "--model", path, "--out", path.parent / "o") in (0, 2, 3, 4)


def holds_string(value):
    """Whether a string is in `value` or in any list or dict inside it."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(holds_string(v) for v in value)
    return isinstance(value, str)


def test_validate_with_a_hidden_layer_of_no_neurons(tmp_path, capsys):
    # widths (2, 2, 0, 1): the lines x = 0 and y = 0, then a layer pruned to
    # nothing; the region oracle's error bound runs over the empty layer
    path = tmp_path / "net.json"
    doc = {"in_dim": 2, "layers": [
        {"weights": [[1.0, 0.0], [0.0, 1.0]], "bias": [0.0, 0.0]},
        {"weights": [], "bias": []},
        {"weights": [[]], "bias": [0.5]},
    ]}
    path.write_text(json.dumps(doc))
    assert run_cli("validate", "--model", path, "--samples", 1000, "--out", tmp_path / "v") == 0
    assert capsys.readouterr().out.startswith("validation PASS")
    assert run_cli("count", "--model", path, "--out", tmp_path / "c") == 0
    counts = json.loads((tmp_path / "c" / "counts.json").read_text())["dims"]
    validation = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert counts == validation["counts"] == [9, 12, 4]
    # with the output layer, the BLAS walk multiplies through the empty layer
    out = tmp_path / "vo"
    assert run_cli("validate", "--model", path, "--include-output", "--samples", 1000,
                   "--out", out) == 0
    assert json.loads((out / "validation.json").read_text())["sampled_subset_of_regions"]


def test_count_square_cases(tmp_path):
    # hyperplane missing the domain: counts match the bare square
    doc = {"in_dim": 2, "layers": [{"weights": [[1.0, 1.0]], "bias": [10.0]}]}
    path = tmp_path / "miss.json"
    path.write_text(json.dumps(doc))
    assert run_cli(
        "count", "--model", path, "--include-output", "--domain", "cube",
        "--lo", "0", "--hi", "1", "--out", tmp_path / "c0",
    ) == 0
    counts = json.loads((tmp_path / "c0" / "counts.json").read_text())
    assert counts["dims"] == [4, 4, 1] and counts["euler"] == 1

    doc = {"in_dim": 2, "layers": [{"weights": [[1.0, 1.0]], "bias": [-0.5]}]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    assert run_cli(
        "count", "--model", path, "--include-output", "--domain", "cube",
        "--lo", "0", "--hi", "1", "--out", tmp_path / "c1",
    ) == 0
    counts = json.loads((tmp_path / "c1" / "counts.json").read_text())
    assert counts["dims"] == [6, 7, 2]
    assert counts["euler"] == 1 and counts["regions"] == 2


def test_count_budget_truncation(tmp_path):
    assert run_cli(
        "count", "--random", "2,2,6,1", "--seed", "1", "--max-cells", "1",
        "--out", tmp_path,
    ) == 3
    counts = json.loads((tmp_path / "counts.json").read_text())
    assert counts["truncated"] is True and len(counts["dims"]) == 2
    # dimensions 0 and 1 are the extracted vertices and edges: --max-cells
    # bounds only the dimensions built by perturbation
    assert run_cli(
        "count", "--random", "2,2,8,1", "--max-cells", "5", "--up-to", "1",
        "--out", tmp_path / "skeleton",
    ) == 0
    counts = json.loads((tmp_path / "skeleton" / "counts.json").read_text())
    assert counts["dims"] == [59, 101] and "truncated" not in counts


def test_boundary_diamond(tmp_path):
    path = tmp_path / "diamond.json"
    save_model(diamond_model(), path)
    code = run_cli(
        "boundary", "--model", path, "--lo", "-2", "--hi", "2", "--out", tmp_path / "b"
    )
    assert code == 0
    metrics = json.loads((tmp_path / "b" / "metrics.json").read_text())
    assert metrics["compactness"] == pytest.approx(np.pi / 4, abs=1e-12)
    assert (tmp_path / "b" / "boundary.svg").exists()


def test_boundary_empty(tmp_path):
    doc = {
        "in_dim": 2,
        "layers": [
            {"weights": [[1.0, 0.0]], "bias": [0.0]},
            {"weights": [[1.0]], "bias": [100.0]},
        ],
    }
    path = tmp_path / "high.json"
    path.write_text(json.dumps(doc))
    assert run_cli("boundary", "--model", path, "--out", tmp_path / "b") == 3


def test_boundary_3d_obj(tmp_path):
    doc = {"in_dim": 3, "layers": [{"weights": [[0.0, 0.0, 1.0]], "bias": [0.0]}]}
    path = tmp_path / "plane.json"
    path.write_text(json.dumps(doc))
    assert run_cli("boundary", "--model", path, "--out", tmp_path / "b") == 0
    obj = (tmp_path / "b" / "boundary.obj").read_text().splitlines()
    assert sum(1 for l in obj if l.startswith("v ")) == 4
    assert sum(1 for l in obj if l.startswith("f ")) == 1


def test_prune_model_cmd(tmp_path):
    net = centered_output_net(2, 3, 8, seed=0)
    path = tmp_path / "net.json"
    save_model(net, path)
    assert run_cli("prune-model", "--model", path, "--out", tmp_path / "p") == 0
    report = json.loads((tmp_path / "p" / "prune_report.json").read_text())
    assert report["parameters_after"] <= report["parameters_before"]
    assert len(report["labels"]) == sum(net.widths[1:-1])
    assert (tmp_path / "p" / "pruned_model.json").exists()


def test_validate_cmd(tmp_path):
    assert run_cli(
        "validate", "--random", "2,4,10,1", "--seed", "0", "--samples", "20000",
        "--out", tmp_path,
    ) == 0
    doc = json.loads((tmp_path / "validation.json").read_text())
    assert doc["midpoints"]["n_fail"] == 0
    assert doc["euler"] == 1
    assert doc["sampled_subset_of_regions"] is True


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--samples", "-5"], "error: sample count must be >= 0, got -5"),
        (["--midpoint-tol", "-1"], "error: midpoint tolerance must be >= 0, got -1.0"),
    ],
    ids=["samples", "midpoint_tol"],
)
def test_validate_rejects_negative_inputs(tmp_path, capsys, monkeypatch, flags, expected):
    # the inputs are checked before the extraction, which must not run
    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction ran before the input check")

    monkeypatch.setattr(subdivide, "extract_complex", no_extraction)
    code = run_cli("validate", "--random", "2,2,4,1", "--out", tmp_path / "v", *flags)
    assert code == 2
    assert capsys.readouterr().err.startswith(expected)
    assert not (tmp_path / "v" / "validation.json").exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["count", "--up-to", "-1"], "error: --up-to must be in 0..2, got -1"),
        (["count", "--up-to", "3"], "error: --up-to must be in 0..2, got 3"),
        (["count", "--max-cells", "-5"], "error: --max-cells must be >= 0, got -5"),
        (["boundary", "--output-index", "3"], "error: --output-index must be in 0..0, got 3"),
        (["prune-model", "--output-index", "-1"],
         "error: --output-index must be in 0..0, got -1"),
        (["boundary", "--random", "4,2,6,1"],
         "error: boundary export supports D = 2 and D = 3, got D = 4"),
        (["boundary", "--random", "1,2,6,1"],
         "error: boundary export supports D = 2 and D = 3, got D = 1"),
    ],
    ids=[
        "up_to_negative", "up_to_above_dim", "max_cells", "boundary_output", "prune_output",
        "boundary_4d", "boundary_1d",
    ],
)
def test_flag_ranges_checked_before_extraction(tmp_path, capsys, monkeypatch, argv, expected):
    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction ran before the range check")

    monkeypatch.setattr(subdivide, "extract_complex", no_extraction)
    # a --random in argv comes later, so it wins over the 2-D default
    code = run_cli(argv[0], "--random", "2,2,4,1", *argv[1:], "--out", tmp_path / "o")
    assert code == 2
    assert capsys.readouterr().err.startswith(expected)
    assert not (tmp_path / "o").exists()


def exit_code(*args):
    """Exit status of the CLI, whether argparse exits or main returns."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", ["extract", "count", "validate"])
def test_output_index_only_for_level_set_commands(tmp_path, capsys, command):
    # only boundary and prune-model read an output's level set
    with pytest.raises(SystemExit) as exc:
        run_cli(
            command, "--random", "2,2,4,1", "--include-output", "--output-index", "3",
            "--out", tmp_path / "o",
        )
    assert exc.value.code == 2
    assert "unrecognized arguments: --output-index 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("count", ["--level-set-prune"]),
        ("validate", ["--level-set-prune"]),
        ("count", ["--threads", "1"]),
        ("boundary", ["--threads", "1"]),
        ("prune-model", ["--threads", "1"]),
        ("bench", ["--threads", "1"]),
        ("count", ["--stats"]),
        ("boundary", ["--stats"]),
        ("prune-model", ["--stats"]),
        ("validate", ["--stats"]),
    ],
    ids=[
        "count_prune", "validate_prune", "count_threads", "boundary_threads",
        "prune_model_threads", "bench_threads", "count_stats", "boundary_stats",
        "prune_model_stats", "validate_stats",
    ],
)
def test_flag_only_for_commands_that_use_it(tmp_path, capsys, command, flag):
    # --level-set-prune would corrupt the complex that count and validate
    # read whole; --threads caps the validation workers of extract and validate;
    # --stats writes the extraction's per-iteration records, which only extract keeps
    model = [] if command == "bench" else ["--random", "2,2,4,1", "--include-output"]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *model, "--out", tmp_path / "o", *flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_extract_level_set_prune_needs_the_output_layer(tmp_path, capsys, monkeypatch):
    net = centered_output_net(2, 3, 8, seed=0)
    save_model(net, tmp_path / "net.json")
    argv = ["extract", "--model", tmp_path / "net.json", "--level-set-prune"]

    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction ran before the flag check")

    monkeypatch.setattr(subdivide, "extract_complex", no_extraction)
    assert run_cli(*argv, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: --level-set-prune needs --include-output")
    assert not (tmp_path / "o").exists()
    monkeypatch.undo()
    assert run_cli(*argv, "--include-output", "--out", tmp_path / "ok") == 0
    summary = json.loads((tmp_path / "ok" / "summary.json").read_text())
    assert summary["n_vertices"] > 0


def test_extract_level_set_prune_on_an_empty_level_set(tmp_path, capsys):
    # the output stays positive on the cube, so pruning keeps nothing:
    # exit 3 as boundary does, before anything is written
    out = tmp_path / "o"
    out.mkdir()
    argv = ["--random", "2,3,8,1", "--seed", "2", "--include-output", "--level-set-prune"]
    assert run_cli("extract", *argv, "--out", out) == 3
    assert capsys.readouterr().err.startswith("empty level set: no alive vertex")
    assert list(out.iterdir()) == []
    argv[1] = "3,3,8,1"  # boundary takes the flag at D = 3 only
    assert run_cli("boundary", *argv[:4], "--level-set-prune", "--out", out) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", [2, 4, 9])
def test_boundary_level_set_prune_in_2d_exits_2_before_extraction(tmp_path, capsys,
                                                                  monkeypatch, seed):
    # pruning cuts the inside cells whose areas the 2-D boundary sums: these
    # level sets once stopped with exit 4 after the extraction
    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction ran before the flag check")

    monkeypatch.setattr(subdivide, "extract_complex", no_extraction)
    argv = ["boundary", "--random", "2,2,8,1", "--seed", seed, "--out", tmp_path / "o"]
    assert run_cli(*argv, "--level-set-prune") == 2
    assert capsys.readouterr().err.startswith("error: boundary --level-set-prune needs D = 3")
    assert not (tmp_path / "o").exists()
    monkeypatch.undo()
    assert run_cli(*argv) == 0


def test_validate_threads_do_not_change_validation_json(tmp_path, monkeypatch):
    # blocks of 50 rows, and two cores reported whatever this host has: the
    # default run checks many blocks on two workers, --threads 1 on one
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    counts = []
    real = validate_mod.worker_count

    def counted(cap=None):
        counts.append(real(cap))
        return counts[-1]

    monkeypatch.setattr(validate_mod, "worker_count", counted)
    for name, flags in (("one", ["--threads", "1"]), ("default", [])):
        assert run_cli(
            "validate", "--random", "2,3,8,1", "--seed", "2", "--samples", "3000",
            "--out", tmp_path / name, *flags,
        ) == 0
    assert counts == [1, 2]
    assert (tmp_path / "one" / "validation.json").read_bytes() == (
        tmp_path / "default" / "validation.json"
    ).read_bytes()


def oracle_threads():
    return [t for t in threading.enumerate() if t.name == "region-oracle"]


def oracle_blocks_first(monkeypatch):
    """Let the calling thread take an oracle block only once the background
    thread has ended, so that the background thread takes the first one."""
    real = validate_mod.RegionOracle._take

    def take(self):
        if threading.current_thread() is threading.main_thread() and self._thread:
            self._thread.join()
        return real(self)

    monkeypatch.setattr(validate_mod.RegionOracle, "_take", take)


@pytest.mark.parametrize(
    "error, code, prefix",
    [(subdivide.PairingError, 4, "invariant violation: "), (ValueError, 2, "error: ")],
    ids=["pairing", "value"],
)
def test_failed_extraction_stops_the_region_oracle(tmp_path, capsys, monkeypatch, error, code,
                                                   prefix):
    # the extraction fails while the oracle signs in the background: the
    # exit code is the extraction's, and the oracle's thread stops between
    # blocks and is joined before main returns
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sampled = []
    real = validate_mod.sample_domain

    def counted(domain, n, seed, start=0):
        sampled.append(start)
        return real(domain, n, seed, start)

    running = []

    def failing(*args, **kwargs):
        running.append(len(oracle_threads()))
        raise error("extraction failed")

    monkeypatch.setattr(validate_mod, "sample_domain", counted)
    monkeypatch.setattr(subdivide, "extract_complex", failing)
    before = threading.active_count()
    assert run_cli("validate", "--random", "2,2,4,1", "--out", tmp_path / "v") == code
    assert threading.active_count() == before and oracle_threads() == []
    assert running == [1]  # the oracle had started
    assert len(sampled) < 100000 // 50  # and was stopped before it drained
    assert capsys.readouterr().err == f"{prefix}extraction failed\n"
    assert not (tmp_path / "v" / "validation.json").exists()


@pytest.mark.parametrize(
    "error, code, prefix",
    [(subdivide.PairingError, 4, "invariant violation: "), (ValueError, 2, "error: ")],
    ids=["pairing", "value"],
)
def test_an_error_in_the_region_oracle_thread_keeps_its_exit_code(tmp_path, capsys, monkeypatch,
                                                                 error, code, prefix):
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    oracle_blocks_first(monkeypatch)
    real = validate_mod.sample_domain

    def failing(domain, n, seed, start=0):
        if threading.current_thread() is not threading.main_thread():
            raise error("a sample block failed")
        return real(domain, n, seed, start)

    monkeypatch.setattr(validate_mod, "sample_domain", failing)
    before = threading.active_count()
    code_got = run_cli("validate", "--random", "2,2,4,1", "--samples", 3000,
                       "--out", tmp_path / "v")
    assert code_got == code
    assert threading.active_count() == before
    assert capsys.readouterr().err == f"{prefix}a sample block failed\n"


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--random", "2,2,4,1", "--samples", "-1"], "error: sample count must be >= 0, got -1"),
        (["--random", "2,2,4,1", "--midpoint-tol", "nan"],
         "error: midpoint tolerance must be >= 0, got nan"),
        (["--random", "2,2,4,1", "--output-index", "1"], "usage: "),
        (["--model", "MODEL"], "error: layer 1: weights and bias must be numbers, not strings"),
    ],
    ids=["samples", "midpoint_tol_nan", "output_index", "model"],
)
def test_validate_input_errors_exit_2_before_a_thread_starts(tmp_path, capsys, monkeypatch,
                                                            flags, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def no_oracle(*args, **kwargs):
        raise AssertionError("the region oracle started before the input check")

    monkeypatch.setattr(validate_mod, "RegionOracle", no_oracle)
    path = tmp_path / "net.json"
    path.write_text('{"in_dim": 2, "layers": [{"weights": [[1, "2"]], "bias": [1]}]}')
    flags = [str(path) if flag == "MODEL" else flag for flag in flags]
    before = threading.active_count()
    assert exit_code("validate", *flags, "--out", tmp_path / "v") == 2
    assert threading.active_count() == before
    assert capsys.readouterr().err.startswith(expected)
    assert not (tmp_path / "v").exists()


def test_validate_on_one_worker_starts_no_thread(tmp_path, monkeypatch):
    # one allowed core (CI's one-core job): the region oracle runs inline,
    # after the extraction and the other checks, as before the overlap
    monkeypatch.setattr(validate_mod, "BLOCK_ROWS", 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = []

    def recorded(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for owner, name in (
        (subdivide, "extract_complex"),
        (validate_mod, "residuals"),
        (validate_mod, "midpoint_check"),
        (validate_mod, "sample_domain"),
    ):
        monkeypatch.setattr(owner, name, recorded(name, getattr(owner, name)))

    class NoThread:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", NoThread)
    assert run_cli("validate", "--random", "2,3,8,1", "--seed", "2", "--samples", "3000",
                   "--out", tmp_path) == 0
    assert calls == ["extract_complex", "residuals", "midpoint_check"] + ["sample_domain"] * 60


def test_import_loads_no_pool_or_logging():
    # both cost set-up time on every command: the validation pool is
    # imported when it is first needed
    proc = run_python(
        "-c",
        "import sys, relucomplex, relucomplex.cli; "
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_validate_walks_the_parent_chain_once(tmp_path, monkeypatch):
    # regions and counts share one chain: D - 1 parent steps, not 2(D - 1)
    calls = []
    real = poset._parents_counting

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(poset, "_parents_counting", counted)
    assert run_cli(
        "validate", "--random", "3,2,6,1", "--seed", "1", "--samples", "2000", "--out", tmp_path
    ) == 0
    assert len(calls) == 2
    doc = json.loads((tmp_path / "validation.json").read_text())
    _, _, _, sk, _ = extract_random(3, 2, 6, seed=1)
    assert doc["counts"] == poset.count_cells(sk, sk.m, 3)
    assert doc["regions"] == len(poset.region_signatures(sk, sk.m))


def test_bench_cmd(tmp_path):
    assert run_cli(
        "bench", "--dims", "1:2", "--widths", "4,8", "--depth", "2", "--seeds", "2",
        "--out", tmp_path,
    ) == 0
    rows = (tmp_path / "bench.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2
    summary = json.loads((tmp_path / "bench_summary.json").read_text())
    assert "slope" in summary


def test_bench_with_one_run_exits_2_before_extraction(tmp_path, capsys, monkeypatch):
    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction ran before the run count check")

    monkeypatch.setattr(subdivide, "extract_complex", no_extraction)
    code = run_cli(
        "bench", "--dims", "2", "--widths", "3", "--depth", "1", "--seeds", "1",
        "--out", tmp_path / "b",
    )
    assert code == 2
    assert capsys.readouterr().err == "error: need at least two runs to fit a slope, got 1\n"
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize(
    "flags, expected",
    [
        (["--lo", "nan"], "need finite lo, hi and hi - lo, got lo = nan, hi = 1.0"),
        (["--hi", "inf"], "need finite lo, hi and hi - lo, got lo = -1.0, hi = inf"),
        (["--lo=-inf"], "need finite lo, hi and hi - lo, got lo = -inf, hi = 1.0"),
        (["--lo=-1e308", "--hi=1e308"],
         "need finite lo, hi and hi - lo, got lo = -1e+308, hi = 1e+308"),
        (["--domain", "simplex", "--scale", "nan"],
         "need finite scale and extent 2 * dim * scale, got scale = nan"),
        (["--domain", "simplex", "--scale", "inf"],
         "need finite scale and extent 2 * dim * scale, got scale = inf"),
        (["--domain", "simplex", "--scale", "1e308"],
         "need finite scale and extent 2 * dim * scale, got scale = 1e+308"),
    ],
    ids=["lo_nan", "hi_inf", "lo_minus_inf", "extent_overflow", "scale_nan", "scale_inf",
         "simplex_extent_overflow"],
)
def test_non_finite_domain_exits_2_before_extraction(tmp_path, capsys, monkeypatch, flags,
                                                     expected):
    # the domain is checked before the extraction, and nothing but the
    # error reaches stderr
    def no_extraction(*args, **kwargs):
        raise AssertionError("extraction ran on a non-finite domain")

    monkeypatch.setattr(subdivide, "extract_complex", no_extraction)
    code = run_cli("extract", "--random", "2,2,4,1", *flags, "--out", tmp_path / "o")
    assert code == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not (tmp_path / "o").exists()


def test_config_mirror(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"random": "2,2,4,1", "seed": 3, "out": str(tmp_path / "c")}))
    assert run_cli("extract", "--config", cfg) == 0
    assert (tmp_path / "c" / "vertices.csv").exists()
    # explicit flags override config values
    assert run_cli("extract", "--config", cfg, "--out", tmp_path / "d") == 0
    assert (tmp_path / "d" / "vertices.csv").exists()


CONFIG_ERRORS = {
    "config_malformed": "{broken",
    "config_not_object": "[1, 2]",
    "config_threads_zero": '{"threads": 0}',
    "config_null": '{"random": "2,2,4,1", "out": null}',
    "config_array": '{"random": "2,2,4,1", "out": ["a", "b"]}',
    "config_object": '{"random": "2,2,4,1", "seed": {"a": 1}}',
}


@pytest.mark.parametrize(
    "case",
    [
        "threads_last", "threads_not_int", "threads_zero", "config_missing",
        "config_malformed", "config_not_object", "config_threads_zero", "config_null",
        "config_array", "config_object",
    ],
)
def test_raw_flag_input_errors(tmp_path, capsys, monkeypatch, case):
    # bad --threads or --config input exits 2 before anything is written
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    if case in CONFIG_ERRORS:
        cfg.write_text(CONFIG_ERRORS[case])
    flags = {
        "threads_last": ["--threads"],
        "threads_not_int": ["--threads", "abc"],
        "threads_zero": ["--threads", "0"],
    }.get(case, ["--config", cfg])
    assert exit_code("extract", "--random", "2,2,4,1", "--out", tmp_path / "o", *flags) == 2
    expected = {
        "threads_last": "error: argument --threads: expected one argument",
        "threads_not_int": "error: argument --threads: expected a positive integer, got 'abc'",
        "threads_zero": "error: argument --threads: expected a positive integer, got '0'",
        "config_missing": "error: [Errno 2] No such file or directory",
        "config_malformed": f"error: --config {cfg}: Expecting property name",
        "config_not_object": f"error: --config {cfg}: expected a JSON object",
        "config_threads_zero": "error: argument --threads: expected a positive integer, got '0'",
        "config_null": f"error: --config {cfg}: 'out' must be a string, number or boolean, "
                       "got null",
        "config_array": f"error: --config {cfg}: 'out' must be a string, number or boolean, "
                        'got ["a", "b"]',
        "config_object": f"error: --config {cfg}: 'seed' must be a string, number or boolean, "
                         'got {"a": 1}',
    }[case]
    assert expected in capsys.readouterr().err
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == (["cfg.json"] if case in CONFIG_ERRORS else [])


@pytest.fixture
def worker_caps(monkeypatch):
    """The caps the CLI passes to validate.worker_count, in call order."""
    caps = []
    real = validate_mod.worker_count

    def recorded(cap=None):
        caps.append(cap)
        return real(cap)

    monkeypatch.setattr(validate_mod, "worker_count", recorded)
    return caps


@pytest.mark.parametrize("case", ["config", "threads"])
def test_raw_flag_equals_form(tmp_path, worker_caps, case):
    # argparse takes --flag=value for both
    if case == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random": "2,2,4,1", "out": str(tmp_path / "c")}))
        assert run_cli("extract", f"--config={cfg}") == 0
        assert (tmp_path / "c" / "vertices.csv").exists()
    else:
        assert run_cli("extract", "--random", "2,2,4,1", "--out", tmp_path / "t", "--threads=1") == 0
        assert worker_caps == [1]


@pytest.mark.parametrize(
    "config, flags, expected",
    [({"threads": 3}, [], 3), ({"threads": 2}, ["--threads", "1"], 1)],
    ids=["config", "explicit_wins"],
)
def test_threads_from_config_cap_the_validation_workers(
    tmp_path, monkeypatch, worker_caps, config, flags, expected
):
    # the config's flags come first, so an explicit --threads wins; the
    # environment is left as it was
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for var in blas_vars:
        monkeypatch.setenv(var, "7")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"random": "2,2,4,1", "out": str(tmp_path / "o"), **config}))
    assert run_cli("extract", "--config", cfg, *flags) == 0
    assert worker_caps == [expected]
    assert [os.environ[var] for var in blas_vars] == ["7"] * 3


@pytest.mark.parametrize("case", ["config", "threads"])
def test_abbreviated_flag_exits_2(tmp_path, case):
    # a prefix that is unique today would change meaning when a flag is
    # added, so an abbreviation is a usage error
    if case == "config":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"random": "2,2,4,1", "out": str(tmp_path / "o")}))
        flags = ["--conf", cfg]
    else:
        flags = ["--random", "2,2,4,1", "--out", tmp_path / "o", "--thr", "1"]
    with pytest.raises(SystemExit) as exc:
        run_cli("extract", *flags)
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_removed_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("extract", "--random", "2,2,4,1", "--out", tmp_path, "--value-mode", "recompute")
    assert exc.value.code == 2


def run_python(*args):
    """`python ARGS` in a child process that imports the package this test
    imported, whatever PYTHONPATH the test run had."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def run_module(*args):
    """`python -m relucomplex ARGS` in a child process (see run_python)."""
    return run_python("-m", "relucomplex", *args)


def test_console_script(tmp_path):
    proc = run_module("--version")
    assert proc.returncode == 0
    assert "relucomplex" in proc.stdout


def test_thread_count_does_not_change_outputs(tmp_path):
    # --threads caps the workers behind summary.json's residuals; the
    # exported complex must not move
    for n in ("1", "2"):
        proc = run_module(
            "extract", "--random", "2,3,8,1", "--seed", "5",
            "--out", tmp_path / n, "--threads", n,
        )
        assert proc.returncode == 0, proc.stderr
    for artifact in ("vertices.csv", "edges.csv"):
        assert (tmp_path / "1" / artifact).read_bytes() == (
            tmp_path / "2" / artifact
        ).read_bytes()
