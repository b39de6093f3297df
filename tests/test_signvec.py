import numpy as np
import pytest
from hypothesis import given, strategies as st

from relucomplex.signvec import (
    EPS_DEGENERATE,
    SignConflictError,
    group_rows,
    merge_edge_rows,
    pack_rows,
    perturb_rows,
    row_keys,
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
    ).map(lambda rows: np.array(rows, dtype=np.int8))


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
    # '-' < '0' < '+' in text, in byte keys and in group_rows order
    rows = np.array([[1], [0], [-1]], dtype=np.int8)
    assert sign_texts(rows) == ["+", "0", "-"]
    keys = row_keys(rows)
    assert keys[2] < keys[1] < keys[0]
    assert group_rows(rows)[0].ravel().tolist() == [-1, 0, 1]


def test_sign_of_value():
    vals = np.array([0.3, -0.2, 0.0, 1e-13, -4.0, -1e-13])
    rows, ndeg = signs_of_values(vals)
    # exact zeros break toward minus; |v| < EPS_DEGENERATE is counted
    assert rows.dtype == np.int8
    assert rows.tolist() == [1, -1, -1, 1, -1, -1]
    assert ndeg == 3
    rows, ndeg = signs_of_values([])
    assert rows.shape == (0,) and ndeg == 0


def test_sign_of_value_nonfinite():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            signs_of_values([1.0, bad])


@given(st.lists(st.floats(-1e3, 1e3), max_size=20))
def test_signs_of_values_matches_scalar(vals):
    rows, ndeg = signs_of_values(vals)
    assert rows.tolist() == [1 if v > 0.0 else -1 for v in vals]
    assert ndeg == sum(abs(v) < EPS_DEGENERATE for v in vals)


@given(sign_matrices())
def test_text_round_trip(rows):
    texts = sign_texts(rows)
    assert texts == [sign_text(r) for r in rows]
    parsed = np.array([["-0+".index(c) - 1 for c in t] for t in texts], dtype=np.int8)
    assert np.array_equal(parsed, rows)


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
    uniq, inverse, counts = group_rows(rows)
    assert counts.tolist() == [2, 2, 2]
    # canonical order: minus < zero < plus lexicographically
    assert [sign_text(r) for r in uniq] == ["-+0", "00+", "+0-"]
    assert all(sign_text(uniq[inverse[i]]) == sign_text(rows[i]) for i in range(6))
    uniq, inverse, counts = group_rows(np.zeros((0, 3), dtype=np.int8))
    assert uniq.shape == (0, 3) and len(inverse) == 0 and len(counts) == 0


@given(sign_matrices(width=5, max_rows=12))
def test_group_rows_properties(rows):
    uniq, inverse, counts = group_rows(rows)
    assert np.array_equal(uniq[inverse], rows)
    assert counts.sum() == len(rows)
    assert np.array_equal(np.bincount(inverse, minlength=len(uniq)), counts)
    # strictly increasing in lexicographic '-' < '0' < '+' order
    as_tuples = [tuple(r) for r in uniq.tolist()]
    assert as_tuples == sorted(set(map(tuple, rows.tolist())))
    # and in the order of their byte keys
    keys = row_keys(uniq)
    assert keys == sorted(set(keys)) and len(set(row_keys(rows))) == len(uniq)


def test_row_keys_examples():
    a, b = row_keys(np.array([[-1, 0, 1], [-1, 0, 1]], dtype=np.int8))
    assert a == b and a[:2] == (3).to_bytes(2, "big")
    assert a[2:] == pack_rows(np.array([[-1, 0, 1]], dtype=np.int8))[0].tobytes()
    with pytest.raises(OverflowError):
        row_keys(np.ones((1, 1 << 16), dtype=np.int8))


@given(sign_matrices(width=7), sign_matrices(width=7))
def test_row_keys_injective_and_ordered(a, b):
    ka, kb = row_keys(a[:1]), row_keys(b[:1])
    assert (ka == kb) == np.array_equal(a[0], b[0])
    assert (ka < kb) == (tuple(a[0].tolist()) < tuple(b[0].tolist()))


def test_merge_edge_rows():
    a = np.array([[0, 1, 0], [-1, 0, 0]], dtype=np.int8)
    b = np.array([[0, 0, 1], [-1, 0, -1]], dtype=np.int8)
    merged = merge_edge_rows(a, b)
    # zero only where both are zero, otherwise the non-zero sign present
    assert merged.dtype == np.int8
    assert merged.tolist() == [[0, 1, 1], [-1, 0, -1]]
    assert np.array_equal(merge_edge_rows(b, a), merged)


@given(st.data())
def test_edge_sign_idempotent(data):
    rows = data.draw(sign_matrices())
    mask = data.draw(sign_matrices(min_rows=len(rows), max_rows=len(rows)))
    assert np.array_equal(merge_edge_rows(rows, rows), rows)
    # two faces of one cell, each keeping some of its entries, merge back to it
    a = np.where(mask >= 0, rows, 0).astype(np.int8)
    b = np.where(mask <= 0, rows, 0).astype(np.int8)
    merged = merge_edge_rows(a, b)
    assert np.array_equal(merged, rows)
    assert np.array_equal(merge_edge_rows(merged, a), merged)


def test_merge_edge_rows_conflict_names_row_and_index():
    a = np.array([[1, 0, 1], [1, -1, 0]], dtype=np.int8)
    b = np.array([[1, 0, 1], [1, 1, 0]], dtype=np.int8)
    with pytest.raises(SignConflictError, match="row 1, index 1"):
        merge_edge_rows(a, b)
