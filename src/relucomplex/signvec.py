"""Sign-vector algebra.

A cell of the complex is encoded by one sign per domain facet and per
processed neuron: ``-`` (negative side), ``0`` (contained in the
hyperplane), ``+`` (positive side). The first ``m`` entries always refer to
the domain facets. A k-cell of a generic bounded arrangement in dimension D
carries exactly ``D - k`` zeros.

Two representations are used: an immutable :class:`SignVector` for
cell-at-a-time work, and plain int8 arrays with values in {-1, 0, +1}
(one row per cell) for the bulk paths. ``*_rows`` functions operate on the
array form.
"""

import struct
from enum import IntEnum

import numpy as np

#: below this magnitude a freshly evaluated value counts as degenerate
EPS_DEGENERATE = 1e-12


class Sign(IntEnum):
    MINUS = -1
    ZERO = 0
    PLUS = 1

    def __str__(self):
        return _SIGN_CHARS[self.value]


_SIGN_CHARS = {-1: "-", 0: "0", 1: "+"}
_CHAR_SIGNS = {"-": -1, "0": 0, "+": 1}


class SignConflictError(ValueError):
    """Two sign-vectors carry opposite non-zero signs at the same index."""


class DegeneracyCounter:
    """Mutable tally of near-zero values seen while assigning signs."""

    def __init__(self):
        self.count = 0

    def __repr__(self):
        return f"DegeneracyCounter(count={self.count})"


def sign_of_value(v, counter=None):
    """Sign of a freshly evaluated (pre-)activation.

    Strictly positive values map to PLUS; everything else, including an
    exact zero, maps to MINUS. Zeros are never produced here: they are
    assigned structurally when a new vertex is placed on a hyperplane.
    Values with ``|v| < EPS_DEGENERATE`` bump `counter` when given.
    """
    if not np.isfinite(v):
        raise ValueError(f"non-finite value {v!r}")
    if counter is not None and abs(v) < EPS_DEGENERATE:
        counter.count += 1
    return Sign.PLUS if v > 0.0 else Sign.MINUS


def signs_of_values(values):
    """Vectorized sign_of_value. Returns (int8 array, degenerate count)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and not np.all(np.isfinite(values)):
        raise ValueError("non-finite value in sign evaluation")
    signs = np.where(values > 0.0, 1, -1).astype(np.int8)
    n_deg = int(np.count_nonzero(np.abs(values) < EPS_DEGENERATE))
    return signs, n_deg


class SignVector:
    """Immutable sequence of signs; hashable, totally ordered via its key."""

    __slots__ = ("_values",)

    def __init__(self, values):
        vals = tuple(int(v) for v in values)
        for v in vals:
            if v not in (-1, 0, 1):
                raise ValueError(f"invalid sign value {v}")
        object.__setattr__(self, "_values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("SignVector is immutable")

    @classmethod
    def from_text(cls, text):
        try:
            return cls(_CHAR_SIGNS[c] for c in text)
        except KeyError as exc:
            raise ValueError(f"invalid sign character {exc.args[0]!r}") from None

    @classmethod
    def from_row(cls, row):
        return cls(np.asarray(row, dtype=np.int8).tolist())

    @property
    def text(self):
        return "".join(_SIGN_CHARS[v] for v in self._values)

    def to_row(self):
        return np.array(self._values, dtype=np.int8)

    def __len__(self):
        return len(self._values)

    def __getitem__(self, i):
        v = self._values[i]
        return Sign(v) if not isinstance(i, slice) else SignVector(v)

    def __iter__(self):
        return (Sign(v) for v in self._values)

    def __eq__(self, other):
        return isinstance(other, SignVector) and self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __lt__(self, other):
        return cell_key(self) < cell_key(other)

    def __repr__(self):
        return f"SignVector({self.text!r})"


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


def parse_sign_text(text):
    """int8 row from textual form."""
    return SignVector.from_text(text).to_row()


def append_sign(sv, s):
    """New SignVector with sign `s` appended."""
    return SignVector(sv._values + (int(s),))


def zero_positions(sv):
    """Ascending indices of the ZERO entries."""
    return [i for i, v in enumerate(sv._values) if v == 0]


def edge_sign_from_vertices(sv_a, sv_b):
    """Entrywise merge of two vertex sign-vectors into their edge's.

    ZERO where both are zero, otherwise the unique non-zero sign present.
    Raises SignConflictError if the vertices sit on opposite sides of any
    hyperplane (they then share no edge).
    """
    if len(sv_a) != len(sv_b):
        raise ValueError("sign-vector lengths differ")
    out = []
    for i, (a, b) in enumerate(zip(sv_a._values, sv_b._values)):
        if a * b == -1:
            raise SignConflictError(f"conflicting signs at index {i}")
        out.append(a if a != 0 else b)
    return SignVector(out)


def merge_edge_rows(rows_a, rows_b):
    """Vectorized edge_sign_from_vertices over aligned row batches."""
    rows_a = np.asarray(rows_a, dtype=np.int8)
    rows_b = np.asarray(rows_b, dtype=np.int8)
    conflict = rows_a.astype(np.int16) * rows_b.astype(np.int16) == -1
    if np.any(conflict):
        r, c = np.argwhere(conflict)[0]
        raise SignConflictError(f"conflicting signs at row {r}, index {c}")
    return np.where(rows_a != 0, rows_a, rows_b)


def perturb_parents(sv, m):
    """All parent cells of `sv`, one dimension up.

    Each zero is flipped one at a time: a zero among the first `m` entries
    (a domain facet) flips only toward the interior ``+``; any other zero
    yields both ``+`` and ``-`` copies. A k-cell with Z zeros of which z are
    facet zeros therefore has ``z + 2(Z - z)`` parents.
    """
    zs = zero_positions(sv)
    if not zs:
        raise ValueError("sign-vector has no zeros (cell is full-dimensional)")
    parents = []
    vals = sv._values
    for j in zs:
        plus = list(vals)
        plus[j] = 1
        parents.append(SignVector(plus))
        if j >= m:
            minus = list(vals)
            minus[j] = -1
            parents.append(SignVector(minus))
    return parents


def perturb_rows(rows, m):
    """Vectorized perturbation of a batch of sign rows.

    Returns ``(candidates, source)`` where each candidate row is one parent
    sign-vector and ``source[i]`` is the input row it came from. Candidate
    order is: all ``+`` flips (row-major over input zeros), then all ``-``
    flips; grouping downstream is order-insensitive.
    """
    rows = np.asarray(rows, dtype=np.int8)
    n, w = rows.shape
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


def cell_key(sv):
    """Canonical byte key: big-endian length prefix + packed 2-bit entries.

    Injective on sign-vectors of length < 2**16; ordering is by length,
    then lexicographic in sign order MINUS < ZERO < PLUS.
    """
    if isinstance(sv, SignVector):
        row = sv.to_row()
    else:
        row = np.asarray(sv, dtype=np.int8)
    n = len(row)
    if n >= 1 << 16:
        raise ValueError("sign-vector too long for CellKey")
    return struct.pack(">H", n) + pack_rows(row.reshape(1, -1))[0].tobytes()


def row_keys(rows):
    """Per-row canonical byte keys for an int8 sign matrix."""
    rows = np.asarray(rows, dtype=np.int8)
    prefix = struct.pack(">H", rows.shape[1])
    packed = pack_rows(rows)
    return [prefix + packed[i].tobytes() for i in range(rows.shape[0])]


def group_rows(rows):
    """Deduplicate rows in canonical key order.

    Returns ``(unique_rows, inverse, counts)`` with ``unique_rows`` sorted by
    cell key and ``inverse`` mapping each input row to its group.
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
