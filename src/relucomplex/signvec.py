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
buffer (`group_parents`), pairing (`pair_parents`), and text (`sign_lines`,
`sign_texts`). The int8 row is the one key: `group_rows` groups on its
bytes and returns the rows' sort order, not an inverse map, so callers read
the groups off ``rows[order]`` without sorting again. The cell sets, cell
counting and face grouping perturb and group in `group_parents`, which
shifts the fresh candidates into key bytes in place, so each is held once.
The 2-face pairing of a split (`pair_parents`) builds no candidate rows: it
pairs them on 64-bit keys, and regroups them only when the keys do not pair.
"""

import numpy as np

from . import _rng

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
    # in place in the int8 view of the bool block: (value > 0) * 2 - 1
    signs = np.greater(values, 0.0).view(np.int8)
    signs *= 2
    signs -= 1
    return signs, np.count_nonzero(np.abs(values) < EPS_DEGENERATE, axis=0)


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


def _flips(rows, m):
    """`perturb_rows`' candidates as ``(source, col, n_plus)``: each one's
    source row and flipped zero's column; the first `n_plus` flip to ``+``."""
    src, cols = np.divmod(np.flatnonzero(rows == 0), rows.shape[1])
    interior = np.flatnonzero(cols >= m)
    return np.concatenate([src, src[interior]]), np.concatenate([cols, cols[interior]]), len(src)


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
    flips (`_flips`); grouping downstream is order-insensitive. The zeros
    are found by one scan of the flat buffer; the candidates are one gather
    of their source rows, a C-contiguous buffer the caller owns, with the
    flipped entries written into it.
    """
    rows = np.asarray(rows, dtype=np.int8)
    source, col, n_plus = _flips(rows, m)
    cand = rows[source]
    cand[np.arange(n_plus), col[:n_plus]] = 1
    cand[np.arange(n_plus, len(source)), col[n_plus:]] = -1
    return cand, source


#: sorted rows compared per block when finding group starts; bounds the
#: gathered copy that the comparison reads
GROUP_BLOCK_ROWS = 1 << 8


def _void_keys(codes):
    """Rows of C-contiguous codes (sign + 1) as void keys, in canonical order."""
    return codes.view(np.dtype((np.void, codes.shape[1]))).ravel()


def _group_codes(codes):
    """`group_rows` on a C-contiguous uint8 matrix of codes (sign + 1).

    One stable argsort of the rows as void keys gives the order; group
    starts are found by comparing the bytes of neighbours along that order,
    `GROUP_BLOCK_ROWS` rows at a time, so no sorted copy of all rows is
    made. Only the unique rows are copied out, and turned back into signs
    in place.
    """
    n = len(codes)
    order = np.argsort(_void_keys(codes), kind="stable")
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


class PairingError(RuntimeError):
    """A perturbed 2-face did not occur exactly twice: every bounded splitting
    2-face has two splitting edges, so the arrangement is degenerate or the
    skeleton corrupt."""


#: the splitmix64 stream of the parent key weights (`_key_weights`)
_KEY_STREAM = _rng.stream_key(0xFACE)
_key_weight_table = np.zeros(0, dtype=np.uint64)


def _key_weights(w):
    """The parent key's weights for width-w rows: a fixed splitmix64 stream's
    first w elements, made odd, from a read-only table grown on demand."""
    global _key_weight_table
    if len(_key_weight_table) < w:
        table = _rng.bits(_KEY_STREAM, 2 * w) | np.uint64(1)
        table.flags.writeable = False
        _key_weight_table = table
    return _key_weight_table[:w]


def _parent_keys(rows, m):
    """`_flips(rows, m)` preceded by each candidate's key: its source row's
    ``K(r) = sum_j w_j (r_j + 1) mod 2^64`` plus ``s w_j`` for zero j -> s."""
    source, col, n_plus = _flips(rows, m)
    weights = _key_weights(rows.shape[1])
    keys = np.dot((rows + 1).view(np.uint8), weights)[source]
    flip = weights[col]
    np.negative(flip[n_plus:], out=flip[n_plus:])
    keys += flip
    return keys, source, col, n_plus


def pair_parents(rows, m):
    """The ``(n, 2)`` indices of the two rows (in either order) that generate
    each parent of `perturb_rows(rows, m)`, as a 2-face's two split edges
    do, one pair per parent in canonical order. The parents are paired on
    their keys (`_parent_keys`), then built and compared, and one sort of a
    parent per pair orders them. If the keys do not pair up, the candidates
    are grouped (`group_parents`): a key collision gives the same pairs, and
    a parent not generated exactly twice raises PairingError, naming the
    first such.
    """
    rows = np.asarray(rows, dtype=np.int8)
    keys, source, col, n_plus = _parent_keys(rows, m)
    order = np.argsort(keys)
    # an even count and no key in two pairs: neighbours pair if rows are equal
    if len(keys) % 2 == 0 and not np.any(keys[order[2::2]] == keys[order[1:-1:2]]):
        pairs = source[order]
        parents = rows[pairs]
        parents[np.arange(len(order)), col[order]] = np.where(order < n_plus, 1, -1)
        parents = parents.reshape(-1, 2, rows.shape[1])
        if np.array_equal(parents[:, 0], parents[:, 1]):
            return pairs.reshape(-1, 2)[np.argsort(_void_keys(parents[:, 0] + 1))]
    uniq, order, counts, source = group_parents(rows, m)
    bad = np.flatnonzero(counts != 2)
    if len(bad):
        raise PairingError(
            f"2-face {sign_text(uniq[bad[0]])} occurred {int(counts[bad[0]])} times, expected 2"
        )
    return source[order].reshape(-1, 2)
