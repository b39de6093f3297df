"""Sign-vector algebra on int8 rows.

A cell of the complex is encoded by one sign per domain facet and per
processed neuron: ``-`` (negative side), ``0`` (contained in the
hyperplane), ``+`` (positive side). The first ``m`` entries always refer to
the domain facets. A k-cell of a generic bounded arrangement in dimension D
carries exactly ``D - k`` zeros.

Sign-vectors are int8 arrays with values in {-1, 0, +1}, one row per cell,
and every operation here works on a whole batch of rows at once:
evaluation (`signs_of_values`), perturbation to parent cells
(`perturb_rows`), grouping in canonical order (`group_rows`) and text
(`sign_texts`).
The int8 row is the one key: `group_rows` groups on its bytes and returns
the rows' sort order, not an inverse map, so callers read the groups off
``rows[order]`` without sorting again; a set of rows compares as the set of
their ``row.tobytes()``.
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


_SIGN_BYTES = np.frombuffer(b"-0+", dtype=np.uint8)


def sign_texts(rows):
    """Text of every row of an int8 sign matrix ('-', '0', '+'), by one
    table lookup."""
    rows = np.asarray(rows, dtype=np.int8)
    w = rows.shape[1]
    text = _SIGN_BYTES[rows + 1].tobytes().decode("ascii")
    return [text[i * w : (i + 1) * w] for i in range(len(rows))]


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
    flips; grouping downstream is order-insensitive. The candidates are one
    gather of their source rows with the flipped entries written into it.
    """
    rows = np.asarray(rows, dtype=np.int8)
    src_r, cols = np.nonzero(rows == 0)
    interior = cols >= m
    source = np.concatenate([src_r, src_r[interior]])
    flips = np.ones(len(source), dtype=np.int8)
    flips[len(src_r) :] = -1
    cand = rows[source]
    cand[np.arange(len(source)), np.concatenate([cols, cols[interior]])] = flips
    return cand, source


def group_rows(rows):
    """Group equal rows in canonical key order.

    Returns ``(unique_rows, order, counts)``: ``rows[order]`` lists the rows
    group by group, so that it equals ``np.repeat(unique_rows, counts,
    axis=0)``, and within a group in input order (`order` is a stable
    argsort of the keys). ``unique_rows`` are in the canonical order:
    lexicographic over entries, with ``- < 0 < +``. The key is each row's
    bytes shifted by one (``rows + 1``, codes 0, 1, 2), so byte order is
    that order.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int8)
    n, w = rows.shape
    keys = (rows + 1).view(np.uint8).view(np.dtype((np.void, w))).ravel()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    return rows[order[starts]], order, np.diff(np.append(starts, n))
