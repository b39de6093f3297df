"""Sign-vector algebra on int8 rows.

A cell of the complex is encoded by one sign per domain facet and per
processed neuron: ``-`` (negative side), ``0`` (contained in the
hyperplane), ``+`` (positive side). The first ``m`` entries always refer to
the domain facets. A k-cell of a generic bounded arrangement in dimension D
carries exactly ``D - k`` zeros.

Sign-vectors are int8 arrays with values in {-1, 0, +1}, one row per cell,
and every operation here works on a whole batch of rows at once:
evaluation (`signs_of_values`), perturbation to parent cells
(`perturb_rows`), merging vertex rows into edge rows (`merge_edge_rows`),
deduplication in canonical order (`group_rows`) and text (`sign_texts`).
The int8 row is the one key: `group_rows` groups on its bytes, and a set of
rows compares as the set of their ``row.tobytes()``.
"""

import numpy as np

#: below this magnitude a freshly evaluated value counts as degenerate
EPS_DEGENERATE = 1e-12


class SignConflictError(ValueError):
    """Two sign-vectors carry opposite non-zero signs at the same index."""


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


def merge_edge_rows(rows_a, rows_b):
    """Entrywise merge of aligned vertex rows into their edges' rows.

    Each entry is ``0`` where both rows are zero, otherwise the unique
    non-zero sign present. Raises SignConflictError, naming the first row
    and index, if two vertices sit on opposite sides of a hyperplane (they
    then share no edge).
    """
    rows_a = np.asarray(rows_a, dtype=np.int8)
    rows_b = np.asarray(rows_b, dtype=np.int8)
    # products and sums of values in {-1, 0, 1} fit in int8; one buffer
    # serves both, so the peak is a single extra matrix
    out = np.multiply(rows_a, rows_b)
    if out.size and out.min() < 0:
        r, c = np.argwhere(out < 0)[0]
        raise SignConflictError(f"conflicting signs at row {r}, index {c}")
    # without conflicts, a + b is 0 only where both are, else has their sign
    np.add(rows_a, rows_b, out=out)
    return np.sign(out, out=out)


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
    flips; grouping downstream is order-insensitive.
    """
    rows = np.asarray(rows, dtype=np.int8)
    src_r, cols = np.nonzero(rows == 0)
    plus = rows[src_r].copy()
    plus[np.arange(len(src_r)), cols] = 1
    interior = cols >= m
    minus = rows[src_r[interior]].copy()
    minus[np.arange(len(minus)), cols[interior]] = -1
    cand = np.concatenate([plus, minus], axis=0)
    source = np.concatenate([src_r, src_r[interior]])
    return cand, source


def group_rows(rows):
    """Deduplicate rows in canonical key order.

    Returns ``(unique_rows, inverse, counts)`` with ``inverse`` mapping each
    input row to its group. ``unique_rows`` are in the canonical order:
    lexicographic over entries, with ``- < 0 < +``. The key is each row's
    bytes shifted by one (``rows + 1``, codes 0, 1, 2), so byte order is
    that order.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int8)
    n, w = rows.shape
    if n == 0:
        return rows, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    coded = np.ascontiguousarray((rows + 1).view(np.uint8))
    keys = coded.view(np.dtype((np.void, w))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return rows[first], inverse.ravel(), counts
