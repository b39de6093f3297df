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
"""

import numpy as np

#: below this magnitude a freshly evaluated value counts as degenerate
EPS_DEGENERATE = 1e-12


class SignConflictError(ValueError):
    """Two sign-vectors carry opposite non-zero signs at the same index."""


def signs_of_values(values):
    """Signs of freshly evaluated (pre-)activations.

    Strictly positive values map to ``+``; everything else, including an
    exact zero, maps to ``-``. Zeros are never produced here: they are
    assigned structurally when a new vertex is placed on a hyperplane.
    Returns ``(int8 array, degenerate count)``, where the count is the
    number of values with ``|v| < EPS_DEGENERATE``; for a 2-D block of
    values (one column per neuron) it is an array with one count per
    column. Raises ValueError on a non-finite value.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("non-finite value in sign evaluation")
    signs = np.where(values > 0.0, 1, -1).astype(np.int8)
    degenerate = np.abs(values) < EPS_DEGENERATE
    if values.ndim == 2:
        return signs, degenerate.sum(axis=0)
    return signs, int(np.count_nonzero(degenerate))


_SIGN_CHARS = {-1: "-", 0: "0", 1: "+"}


def sign_text(row):
    """Textual form of an int8 sign row ('-', '0', '+')."""
    return "".join(_SIGN_CHARS[int(v)] for v in np.asarray(row).ravel())


_SIGN_BYTES = np.frombuffer(b"-0+", dtype=np.uint8)


def sign_texts(rows):
    """sign_text of every row of an int8 sign matrix, by one table lookup."""
    rows = np.asarray(rows, dtype=np.int8)
    w = rows.shape[1]
    text = _SIGN_BYTES[rows + 1].tobytes().decode("ascii")
    return [text[i : i + w] for i in range(0, len(text), w)]


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


def pack_rows(rows):
    """Pack sign rows into 2-bit codes, 4 entries per byte, high bits first.

    Codes are 0 (minus), 1 (zero), 2 (plus), so byte-wise comparison of the
    packed form agrees with lexicographic sign order.
    """
    rows = np.asarray(rows, dtype=np.int8)
    n, w = rows.shape
    codes = (rows + 1).astype(np.uint8)
    padded_w = -(-w // 4) * 4
    if padded_w != w:
        codes = np.concatenate(
            [codes, np.zeros((n, padded_w - w), dtype=np.uint8)], axis=1
        )
    codes = codes.reshape(n, padded_w // 4, 4)
    shifts = np.array([6, 4, 2, 0], dtype=np.uint8)
    return (codes << shifts).sum(axis=2, dtype=np.uint16).astype(np.uint8)


def row_keys(rows):
    """Per-row canonical byte keys for an int8 sign matrix.

    Each key is a big-endian 2-byte length prefix followed by the packed
    2-bit entries, so keys are injective on rows shorter than ``2**16`` and
    keys of equal-length rows order lexicographically as ``- < 0 < +``.
    """
    rows = np.asarray(rows, dtype=np.int8)
    prefix = rows.shape[1].to_bytes(2, "big")
    packed = pack_rows(rows)
    return [prefix + packed[i].tobytes() for i in range(rows.shape[0])]


def group_rows(rows):
    """Deduplicate rows in canonical key order.

    Returns ``(unique_rows, inverse, counts)`` with ``unique_rows`` sorted
    lexicographically in ``- < 0 < +`` order (the order of their
    `row_keys`) and ``inverse`` mapping each input row to its group.
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
