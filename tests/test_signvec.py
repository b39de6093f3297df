import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relucomplex import signvec

from relucomplex.signvec import (
    EPS_DEGENERATE,
    group_parents,
    group_rows,
    perturb_rows,
    sign_text,
    sign_texts,
    signs_of_values,
)

sign_values = st.sampled_from([-1, 0, 1])


def sign_matrices(width=6, min_rows=1, max_rows=8):
    return st.lists(
        st.lists(sign_values, min_size=width, max_size=width),
        min_size=min_rows,
        max_size=max_rows,
    ).map(lambda rows: np.array(rows, dtype=np.int8).reshape(-1, width))


def parents_reference(row, m):
    """Per-row perturbation: flip each zero to '+', and to '-' past the facets."""
    out = []
    for j in np.flatnonzero(row == 0):
        for s in (1, -1) if j >= m else (1,):
            p = row.copy()
            p[j] = s
            out.append(sign_text(p))
    return out


def test_sign_order():
    # '-' < '0' < '+' in text and in group_rows order, also past the first entry
    rows = np.array([[1], [0], [-1]], dtype=np.int8)
    assert sign_texts(rows) == ["+", "0", "-"]
    assert group_rows(rows)[0].ravel().tolist() == [-1, 0, 1]
    rows = np.array([[0, 1], [0, -1], [-1, 1], [0, 0]], dtype=np.int8)
    assert sign_texts(group_rows(rows)[0]) == ["-+", "0-", "00", "0+"]


def test_sign_of_value():
    vals = np.array([0.3, -0.2, 0.0, 1e-13, -4.0, -1e-13])
    rows, ndeg = signs_of_values(vals[:, None])
    # exact zeros break toward minus; |v| < EPS_DEGENERATE is counted
    assert rows.dtype == np.int8
    assert rows[:, 0].tolist() == [1, -1, -1, 1, -1, -1]
    assert ndeg.tolist() == [3]


def test_signs_of_values_block_shapes():
    # one count per column, also for a block without rows
    rows, ndeg = signs_of_values(np.zeros((0, 3)))
    assert rows.shape == (0, 3) and rows.dtype == np.int8
    assert ndeg.tolist() == [0, 0, 0]
    rows, ndeg = signs_of_values([[0.5, 0.0, -1e-13]])
    assert rows.tolist() == [[1, -1, -1]] and ndeg.tolist() == [0, 1, 1]
    vals = np.array([[1.0, 0.0, 2.0], [-1.0, 1e-14, 0.0], [0.0, 3.0, -2.0]])
    rows, ndeg = signs_of_values(vals)
    assert rows.tolist() == [[1, -1, 1], [-1, 1, -1], [-1, 1, -1]]
    assert ndeg.tolist() == [1, 2, 1]


def test_sign_of_value_nonfinite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for block in ([[1.0, bad]], [[1.0], [bad]], [[0.0, 1.0], [2.0, bad]]):
            with pytest.raises(ValueError, match="non-finite"):
                signs_of_values(block)


@given(st.lists(st.floats(-1e3, 1e3), max_size=20), st.integers(1, 4))
def test_signs_of_values_matches_scalar(vals, cols):
    vals = vals[: len(vals) // cols * cols]
    block = np.array(vals, dtype=np.float64).reshape(-1, cols)
    rows, ndeg = signs_of_values(block)
    assert rows.shape == block.shape
    assert rows.ravel().tolist() == [1 if v > 0.0 else -1 for v in vals]
    expect = [sum(abs(v) < EPS_DEGENERATE for v in vals[c::cols]) for c in range(cols)]
    assert ndeg.tolist() == expect


@given(sign_matrices(min_rows=0))
def test_text_round_trip(rows):
    texts = sign_texts(rows)
    # sign_text is the one-row case of sign_texts
    assert texts == [sign_text(r) for r in rows]
    assert all(sign_text(r) == sign_texts(r[None])[0] for r in rows)
    parsed = np.array([["-0+".index(c) - 1 for c in t] for t in texts], dtype=np.int8)
    assert np.array_equal(parsed.reshape(rows.shape), rows)


def test_sign_text_examples():
    assert sign_text(np.array([-1, 0, 1], dtype=np.int8)) == "-0+"
    assert sign_text([1, 1, 0]) == "++0"
    assert sign_text(np.zeros(0, dtype=np.int8)) == ""
    assert sign_texts(np.zeros((2, 0), dtype=np.int8)) == ["", ""]


def test_sign_lines_every_code():
    # all 27 rows of three signs, and a strided view of them
    rows = np.array(list(itertools.product([-1, 0, 1], repeat=3)), dtype=np.int8)
    want = ["".join("-0+"[s + 1] for s in row) for row in rows.tolist()]
    lines = signvec.sign_lines(rows)
    assert lines.dtype == np.uint8 and lines.shape == (27, 4)
    assert lines.tobytes() == "".join(text + "\n" for text in want).encode()
    assert sign_texts(rows) == want
    assert sign_texts(rows[:, ::2]) == [text[::2] for text in want]


def test_sign_texts_of_empty_rows():
    assert signvec.sign_lines(np.zeros((3, 0), dtype=np.int8)).tobytes() == b"\n\n\n"
    assert sign_texts(np.zeros((3, 0), dtype=np.int8)) == ["", "", ""]
    assert sign_texts(np.zeros((0, 4), dtype=np.int8)) == []
    assert sign_texts(np.zeros((0, 0), dtype=np.int8)) == []


def test_perturb_rows_interior_vertex():
    cand, src = perturb_rows(np.array([[1, 1, 1, 1, 0, 0]], dtype=np.int8), 4)
    # all '+' flips first, then all '-' flips
    assert sign_texts(cand) == ["+++++0", "++++0+", "++++-0", "++++0-"]
    assert src.tolist() == [0, 0, 0, 0]


def test_perturb_rows_boundary():
    # z = 1 facet zero, Z = 2 total: 1 + 2*(2-1) = 3 parents
    cand, _ = perturb_rows(np.array([[0, 1, 1, 1, 0, -1]], dtype=np.int8), 4)
    assert sign_texts(cand) == ["++++0-", "0++++-", "0+++--"]


def test_perturb_rows_interior_edge_3d():
    # D=3 interior edge: two zeros past m, k=1 -> 2(D-k) = 4 parents
    cand, _ = perturb_rows(np.array([[1, 1, 1, 1, 1, 1, 0, 0]], dtype=np.int8), 6)
    assert len(cand) == 4


def test_perturb_rows_no_zeros():
    # a full-dimensional cell has no parents
    cand, src = perturb_rows(np.array([[1, 1, -1]], dtype=np.int8), 1)
    assert cand.shape == (0, 3) and len(src) == 0


@given(sign_matrices(), st.integers(0, 6))
def test_perturb_rows_count_property(rows, m):
    cand, src = perturb_rows(rows, m)
    assert cand.dtype == np.int8 and cand.shape[1] == rows.shape[1]
    zeros = rows == 0
    big_z = zeros.sum(axis=1)
    z = zeros[:, :m].sum(axis=1)
    # z + 2(Z - z) parents per row
    assert np.array_equal(np.bincount(src, minlength=len(rows)), z + 2 * (big_z - z))
    # every parent has Z - 1 zeros and differs from its source in one entry
    assert np.array_equal((cand == 0).sum(axis=1), big_z[src] - 1)
    changed = cand != rows[src]
    assert np.all(changed.sum(axis=1) == 1)
    rr, cc = np.nonzero(changed)
    assert np.all(rows[src[rr], cc] == 0)
    # facet zeros flip only toward the interior '+'
    assert np.all(cand[rr[cc < m], cc[cc < m]] == 1)


@given(sign_matrices(), st.integers(0, 6))
def test_perturb_rows_matches_op(rows, m):
    cand, src = perturb_rows(rows, m)
    expect = [(i, t) for i, row in enumerate(rows) for t in parents_reference(row, m)]
    got = [(int(src[j]), sign_text(cand[j])) for j in range(len(cand))]
    assert sorted(got) == sorted(expect)


def test_group_rows():
    rows = np.array(
        [[1, 0, -1], [0, 0, 1], [1, 0, -1], [-1, 1, 0], [0, 0, 1], [-1, 1, 0]],
        dtype=np.int8,
    )
    uniq, order, counts = group_rows(rows)
    assert counts.tolist() == [2, 2, 2]
    # canonical order: minus < zero < plus lexicographically
    assert [sign_text(r) for r in uniq] == ["-+0", "00+", "+0-"]
    # the rows group by group, each group in input order
    assert order.tolist() == [3, 5, 1, 4, 0, 2]
    assert np.array_equal(rows[order], np.repeat(uniq, counts, axis=0))
    uniq, order, counts = group_rows(np.zeros((0, 3), dtype=np.int8))
    assert uniq.shape == (0, 3) and len(order) == 0 and len(counts) == 0


# past 16 rows, where an unstable sort would reorder a group's rows
@given(sign_matrices(width=3, min_rows=0, max_rows=40))
def test_group_rows_properties(rows):
    uniq, order, counts = group_rows(rows)
    assert np.array_equal(rows[order], np.repeat(uniq, counts, axis=0))
    assert sorted(order.tolist()) == list(range(len(rows)))
    assert np.all(counts > 0) and counts.sum() == len(rows)
    # input order within each group
    starts = np.cumsum(counts) - counts
    within = np.ones(len(rows), dtype=bool)
    within[starts] = False
    assert np.all(np.diff(order)[within[1:]] > 0)
    # strictly increasing in lexicographic '-' < '0' < '+' order
    as_tuples = [tuple(r) for r in uniq.tolist()]
    assert as_tuples == sorted(set(map(tuple, rows.tolist())))


@st.composite
def rows_and_facets(draw):
    """A sign matrix of width 1-17 and 0-40 rows, some of them free of zeros
    or all zeros, and a facet count from 0 to the width."""
    width = draw(st.integers(1, 17))
    row = st.one_of(
        st.lists(sign_values, min_size=width, max_size=width),
        st.lists(st.sampled_from([-1, 1]), min_size=width, max_size=width),
        st.just([0] * width),
    )
    rows = draw(st.lists(row, min_size=0, max_size=40))
    return np.array(rows, dtype=np.int8).reshape(-1, width), draw(st.integers(0, width))


def grouped_reference(rows):
    """(unique rows, order, counts) by Python's stable sort of row lists,
    which order entries as - < 0 < +."""
    order = sorted(range(len(rows)), key=lambda i: rows[i].tolist())
    keys = [rows[i].tolist() for i in order]
    starts = [k for k in range(len(keys)) if k == 0 or keys[k] != keys[k - 1]]
    counts = np.diff(starts + [len(keys)])
    return rows[np.array(order, dtype=np.intp)[starts]], order, counts


@given(rows_and_facets())
def test_group_parents_matches_perturb_then_group(case):
    rows, m = case
    before = rows.copy()
    got = group_parents(rows, m)
    assert np.array_equal(rows, before)
    cand, source = perturb_rows(rows, m)
    # bitwise the perturb-then-group pipeline, source included
    for a, b in zip(got, (*group_rows(cand), source)):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
    uniq, order, counts, src = got
    ref_uniq, ref_order, ref_counts = grouped_reference(cand)
    assert uniq.shape == (len(ref_counts), rows.shape[1])
    assert np.array_equal(uniq, ref_uniq) and order.tolist() == ref_order
    assert counts.tolist() == ref_counts.tolist()
    # group_rows works on its own copy of the rows
    assert np.array_equal(cand, perturb_rows(rows, m)[0])


@given(rows_and_facets())
def test_parent_keys_are_the_keys_of_perturb_rows(case):
    # each candidate's key K(r) +- w_j, from its source row's, is the key of
    # the row perturb_rows builds for it, facet zeros (flipped to + only)
    # included, and the candidates come in perturb_rows' order
    rows, m = case
    keys, source, _, _ = signvec._parent_keys(rows, m)
    cand, cand_source = perturb_rows(rows, m)
    weights = signvec._key_weights(rows.shape[1])
    assert np.array_equal(source, cand_source)
    assert np.array_equal(keys, (cand.astype(np.uint64) + np.uint64(1)) @ weights)


@pytest.mark.parametrize("block", [1, 2, 5])
def test_grouping_across_compare_blocks(monkeypatch, block):
    # group starts are found a block of sorted rows at a time; a group that
    # spans a block boundary, or starts right on one, stays one group
    monkeypatch.setattr(signvec, "GROUP_BLOCK_ROWS", block)
    rng = np.random.default_rng(block)
    rows = rng.integers(-1, 2, size=(60, 4)).astype(np.int8)
    rows[::3] = rows[0]
    uniq, order, counts = group_rows(rows)
    ref_uniq, ref_order, ref_counts = grouped_reference(rows)
    assert np.array_equal(uniq, ref_uniq) and order.tolist() == ref_order
    assert counts.tolist() == ref_counts.tolist()
    uniq, order, counts, _ = group_parents(rows, 2)
    ref_uniq, ref_order, ref_counts = grouped_reference(perturb_rows(rows, 2)[0])
    assert np.array_equal(uniq, ref_uniq) and order.tolist() == ref_order
    assert counts.tolist() == ref_counts.tolist()
