"""Sign-vector algebra on int8 rows.

A cell of the complex is encoded by one sign per domain facet and per
processed neuron: ``-`` (negative side), ``0`` (contained in the
hyperplane), ``+`` (positive side). The first ``m`` entries always refer to
the domain facets. A k-cell of a generic bounded arrangement in dimension D
carries exactly ``D - k`` zeros.

Sign-vectors are int8 arrays with values in {-1, 0, +1}, one row per cell,
and every operation here works on a whole batch of rows at once:
evaluation (`signs_of_values`), perturbation to parent cells
(`perturb_rows`), grouping in canonical order (`group_rows`), both in one
buffer (`group_parents`), and text (`sign_lines`, `sign_texts`).
The int8 row is the one key: `group_rows` groups on its bytes and returns
the rows' sort order, not an inverse map, so callers read the groups off
``rows[order]`` without sorting again; a set of rows compares as the set of
their ``row.tobytes()``. The perturb-then-group steps of the cell sets,
cell counting and face grouping go through `group_parents`, which shifts
the freshly built candidates into key bytes in place, so each candidate row
is held once. The 2-face pairing of a split (`subdivide.pair_splitting_faces`)
builds no candidate rows: it pairs them on 64-bit keys, and calls
`group_parents` only to name a face that does not pair.
"""

import numpy as np

#: below this magnitude a freshly evaluated value counts as degenerate
EPS_DEGENERATE = 1e-12


def signs_of_values(values):
    """Signs of a block of freshly evaluated (pre-)activations, one column
    per neuron.

    Strictly positive values map to ``+``; everything else, including an
    exact zero, maps to ``-``. Zeros are never produced here: they are
    assigned structurally when a new vertex is placed on a hyperplane.
    Returns ``(int8 block, degenerate counts)``, with one count per column:
    the number of its values with ``|v| < EPS_DEGENERATE``. Raises
    ValueError on a non-finite value.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("non-finite value in sign evaluation")
    signs = np.where(values > 0.0, 1, -1).astype(np.int8)
    return signs, (np.abs(values) < EPS_DEGENERATE).sum(axis=0)


def sign_lines(rows):
    """Text of an int8 sign matrix as bytes: an (n, w + 1) uint8 block whose
    row i is row i's signs in ASCII ('-', '0', '+') and a newline.

    A sign r maps to the code 48 - r - 4r^2 (45, 48, 43), computed on the
    int8 rows in place in the block.
    """
    rows = np.asarray(rows, dtype=np.int8)
    n, w = rows.shape
    block = np.empty((n, w + 1), dtype=np.uint8)
    text = block[:, :w].view(np.int8)
    np.multiply(rows, rows, out=text)
    text *= -4
    text -= rows
    text += 48
    block[:, w] = ord("\n")
    return block


def sign_texts(rows):
    """Text of every row of an int8 sign matrix ('-', '0', '+'): the lines
    of `sign_lines`, decoded."""
    return sign_lines(rows).tobytes().decode("ascii").split("\n")[:-1]


def sign_text(row):
    """Text of one int8 sign row: the one-row case of `sign_texts`."""
    return sign_texts([row])[0]


def perturb_rows(rows, m):
    """All parent cells of a batch of sign rows, one dimension up.

    Each zero is flipped one at a time: a zero among the first `m` entries
    (a domain facet) flips only toward the interior ``+``; any other zero
    yields both ``+`` and ``-`` copies. A row with Z zeros of which z are
    facet zeros therefore has ``z + 2(Z - z)`` parents, each with ``Z - 1``
    zeros; a row without zeros has none.

    Returns ``(candidates, source)`` where each candidate row is one parent
    sign-vector and ``source[i]`` is the input row it came from. Candidate
    order is: all ``+`` flips (row-major over input zeros), then all ``-``
    flips; grouping downstream is order-insensitive. The zeros are found by
    one scan of the flat buffer; the candidates are one gather of their
    source rows, a C-contiguous buffer the caller owns, with the flipped
    entries written into it.
    """
    rows = np.asarray(rows, dtype=np.int8)
    src_r, cols = np.divmod(np.flatnonzero(rows == 0), rows.shape[1])
    n_plus = len(src_r)
    interior = cols >= m
    source = np.concatenate([src_r, src_r[interior]])
    cand = rows[source]
    cand[np.arange(n_plus), cols] = 1
    cand[np.arange(n_plus, len(source)), cols[interior]] = -1
    return cand, source


#: sorted rows compared per block when finding group starts; bounds the
#: gathered copy that the comparison reads
GROUP_BLOCK_ROWS = 1 << 8


def _group_codes(codes):
    """`group_rows` on a C-contiguous uint8 matrix of codes (sign + 1).

    One stable argsort of the rows as void keys gives the order; group
    starts are found by comparing the bytes of neighbours along that order,
    `GROUP_BLOCK_ROWS` rows at a time, so no sorted copy of all rows is
    made. Only the unique rows are copied out, and turned back into signs
    in place.
    """
    n, w = codes.shape
    order = np.argsort(codes.view(np.dtype((np.void, w))).ravel(), kind="stable")
    first = np.ones(n, dtype=bool)
    for start in range(1, n, GROUP_BLOCK_ROWS):
        block = codes[order[start - 1 : start + GROUP_BLOCK_ROWS]]
        first[start : start + GROUP_BLOCK_ROWS] = (block[1:] != block[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    uniq = codes[order[starts]]
    uniq -= 1
    return uniq.view(np.int8), order, np.diff(np.append(starts, n))


def group_rows(rows):
    """Group equal rows in canonical key order.

    Returns ``(unique_rows, order, counts)``: ``rows[order]`` lists the rows
    group by group, so that it equals ``np.repeat(unique_rows, counts,
    axis=0)``, and within a group in input order (`order` is a stable
    argsort of the keys). ``unique_rows`` are in the canonical order:
    lexicographic over entries, with ``- < 0 < +``. The key is each row's
    bytes shifted by one (``rows + 1``, codes 0, 1, 2), so byte order is
    that order; the codes are the one copy of the rows made.
    """
    codes = np.array(rows, dtype=np.int8, order="C")
    codes += 1
    return _group_codes(codes.view(np.uint8))


def group_parents(rows, m):
    """`group_rows` of the parents `perturb_rows(rows, m)` generates.

    Returns ``(unique_rows, order, counts, source)``, bitwise the same as
    ``group_rows(perturb_rows(rows, m)[0])`` followed by `perturb_rows`'
    ``source``: ``source[order]`` lists each parent's generating rows
    side by side. The candidates are built once and shifted into codes in
    place, so the rows are held once rather than three times.
    """
    cand, source = perturb_rows(rows, m)
    codes = cand.view(np.uint8)
    codes += 1
    return (*_group_codes(codes), source)
