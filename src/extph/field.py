"""Exact sparse linear algebra over a prime field F_q.

A field is its modulus: a prime int q, checked once by ``modulus``, and
scalars are plain ints reduced mod q.  A ``SparseMatrix`` holds its
columns as CSR arrays with the rows of each column sorted, so the bottom
nonzero entry of a column (its *low*) is always its last one; numpy reads
every low off the arrays at once.  ``reduce`` brings a column-major
matrix to reduced form using left-to-right column additions only and
returns the pivots {row: column}; the pivot positions do not depend on
the order in which admissible additions are performed, which is what
makes pairings read off the pivots well defined.  Those pivots are all
its callers need: a column that claims no row is one that reduces to
zero.

``reduce`` walks the lows and writes a column out of the arrays only when
its low collides with a pivot; then it and each pivot column it meets
become Python objects, and each pivot's is kept, reduced, for its next
use.  Most columns never collide, so most are never written out.  The
walk is one loop at every q; only how a column is written out and
cancelled depends on the field, and ``_column_encoding`` picks that once
per matrix.  Over F_2 (the default field) a written-out column is the set
of its rows, held in a Python int with bit r set for each row r: its low
is ``bit_length() - 1`` and adding a column is ``^``.  Otherwise it is
a dict {row: coefficient}: its low is its largest key, and an addition
updates the one column in place.
Extension rows sit at the bottom of the cone's matrices, so an int is as
wide as the matrix is tall; writing out every column would hold
thousands of such ints at once.

The dense helpers at the end back the homology rank oracles.  They take
numpy int arrays and run one elimination at every q: ``_pack`` writes a
matrix's columns with room below their rows for each column's
combination of input columns, and ``_sweep`` eliminates them left to
right against a {low: normalised column} basis, each column carrying its
combination through every subtraction.  Only the column encoding depends
on the field, and only these helpers and ``_unpack`` choose it: over F_2
a column is a Python int, one bit per coordinate, and a subtraction is
an XOR; otherwise it is an int64 vector of residues.  ``dense_kernel``
reads a kernel off the combinations of the columns that vanish, and
``graded``'s ``window_ranks`` sweeps its sources against one such basis
of its chain.  A column's expression over the earlier pivot columns is
unique, so the kernels are the ones a reduced row echelon form gives.  A
sweep step multiplies two residues, which is why the modulus is bounded
by ``MAX_MODULUS``: that product is below 2**32 and fits in an int64.
The dense helpers share no code with the sparse reduction, so the two
routes can be played against each other in tests.
"""

from operator import xor
from typing import NamedTuple

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "modulus",
    "SparseMatrix",
    "reduce",
    "dense_kernel",
]


MAX_MODULUS = 2**16 - 1  # the largest prime it admits is 65521


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def modulus(q) -> int:
    """``q`` itself, once checked to be a prime int no larger than MAX_MODULUS."""
    if not isinstance(q, int) or isinstance(q, bool):
        raise ValueError(f"field modulus must be a prime integer, got {q!r}")
    if q > MAX_MODULUS:
        raise ValueError(f"field modulus {q} exceeds the largest supported modulus {MAX_MODULUS}")
    if not _is_prime(q):
        raise ValueError(f"field modulus must be a prime integer, got {q!r}")
    return q


class Column(NamedTuple):
    """One column of a ``SparseMatrix``: its (row, coefficient) entries, sorted by row."""

    entries: tuple


class SparseMatrix:
    """Column-major sparse matrix over F_q, held as CSR arrays.

    Column j holds the rows ``rows[indptr[j]:indptr[j + 1]]``, sorted, with
    the coefficients at the same positions of ``coeffs``, nonzero and
    reduced mod q.  ``lows[j]`` is its last row, or -1 for an empty column.
    """

    __slots__ = ("num_rows", "indptr", "rows", "coeffs", "lows", "q", "_columns")

    def __init__(self, num_rows: int, indptr, rows, coeffs, q: int = 2):
        # trusted constructor: each column's rows must be sorted, its coefficients nonzero and reduced
        self.q = modulus(q)
        self.num_rows = int(num_rows)
        self.indptr, self.rows, self.coeffs = (np.asarray(a, dtype=np.int64) for a in (indptr, rows, coeffs))
        ends = self.indptr[1:]
        filled = ends > self.indptr[:-1]
        self.lows = np.full(len(ends), -1, dtype=np.int64)
        self.lows[filled] = self.rows[ends[filled] - 1]
        over = np.flatnonzero(self.lows >= self.num_rows)
        if len(over):
            j = int(over[0])
            raise ValueError(f"column {j} has an entry at row {self.lows[j]}, but num_rows is {self.num_rows}")
        self._columns = None

    @property
    def num_cols(self) -> int:
        return len(self.lows)

    @property
    def columns(self) -> tuple:
        """Every column as a ``Column``, built from the arrays on first access; the pipeline never reads it."""
        if self._columns is None:
            entries = list(zip(self.rows.tolist(), self.coeffs.tolist()))
            bounds = self.indptr.tolist()
            self._columns = tuple([Column(tuple(entries[a:b])) for a, b in zip(bounds, bounds[1:])])
        return self._columns

    def __repr__(self):
        return f"SparseMatrix({self.num_rows}x{self.num_cols} over F_{self.q})"


def reduce(matrix: SparseMatrix, skip_columns=()) -> dict[int, int]:
    """Left-to-right column reduction; returns its pivots {row: column}.

    Column j only ever receives multiples of columns i < j.  While the low
    of column j collides with the low of an earlier pivot column, the
    collision is cancelled; the column either claims a fresh pivot row or
    vanishes.  ``skip_columns`` zeroes those columns without doing the
    work; callers may only pass columns already known to reduce to zero
    (the clearing optimization).

    Each column that does not vanish is listed under the row of its low,
    so rows and columns are pairwise distinct, and the columns that claim
    no row are exactly those that reduce to zero.  The walk reads only
    ``lows``, and is the same at every q.  A column is written out only
    when its low meets a pivot, and so is each pivot column it meets,
    which is kept reduced for its next use; ``_column_encoding`` picks,
    once per matrix, how a column is written out and cancelled.
    """
    lows = matrix.lows
    if skip_columns:
        lows = lows.copy()
        lows[list(skip_columns)] = -1
    owner: dict[int, int] = {}  # pivot row -> column that claimed it
    reduced: dict = {}  # pivot column -> its reduced written-out column, from its first use
    column = None  # the field's encoding, from the first collision
    for j, low in enumerate(lows.tolist()):
        if low < 0:
            continue
        i = owner.get(low)
        if i is None:
            owner[low] = j
            continue
        if column is None:
            column, cancel, top = _column_encoding(matrix)
        x = column(j)
        while True:
            y = reduced.get(i)
            if y is None:  # a pivot that received no addition is its input column
                y = reduced[i] = column(i)
            x = cancel(x, y)
            if not x:
                break
            low = top(x) - 1
            i = owner.get(low)
            if i is None:
                owner[low] = j
                reduced[j] = x
                break
    return owner


def _column_encoding(matrix: SparseMatrix):
    """(column, cancel, top) for ``reduce``: how the matrix's field writes out and adds columns.

    ``column(j)`` is column j written out, ``cancel(x, y)`` is x with its
    low cancelled against y's, which has the same low, and ``top(x)`` is
    one more than the low of a written-out column, 0 for an empty one.
    Over F_2 a column is an int with bit r set for each of its rows r, so
    cancelling is XOR and ``top`` is ``int.bit_length``, both builtins.
    Otherwise it is a dict {row: coefficient}, and cancelling adds into x
    the multiple of y that clears x's low.
    """
    bounds, rows = matrix.indptr.tolist(), matrix.rows.tolist()
    if matrix.q == 2:
        return lambda j: sum(1 << r for r in rows[bounds[j] : bounds[j + 1]]), xor, int.bit_length
    q, coeffs = matrix.q, matrix.coeffs.tolist()

    def cancel(x, y):
        # in place: x is always a fresh dict, from column(j) or from j's own earlier cancels,
        # and y, a pivot column kept for its next use, is only read
        low = max(x)
        c = -x[low] * pow(y[low], q - 2, q)
        for r, v in y.items():
            v = (x.get(r, 0) + c * v) % q
            if v:
                x[r] = v
            else:
                del x[r]
        return x

    def column(j):
        a, b = bounds[j], bounds[j + 1]
        return dict(zip(rows[a:b], coeffs[a:b]))

    return column, cancel, lambda x: max(x) + 1 if x else 0


# ---------------------------------------------------------------------------
# dense mod-q helpers (oracle side)
# ---------------------------------------------------------------------------


def _pack(a, shift: int, q: int, unit: bool = False) -> list:
    """The columns of ``a`` mod q, column j with a[r, j] at coordinate shift + r.

    The ``shift`` coordinates below the rows are left for a column's
    combination of input columns; with ``unit`` (and ``shift`` at least
    the number of columns) column j starts as its own combination,
    coordinate j.  Over F_2 a column is a Python int with bit i set where
    its coordinate i is 1; otherwise it is an int64 vector of residues.
    """
    a = np.asarray(a, dtype=np.int64)
    n = a.shape[1]
    # a row of coordinates per column of a; `& 1` is the parity of negatives too, and faster than `% 2`
    cols = np.zeros((n, shift + a.shape[0]), dtype=np.uint8 if q == 2 else np.int64)
    if unit:
        np.fill_diagonal(cols, 1)
    cols[:, shift:] = a.T & 1 if q == 2 else a.T % q
    if q != 2:
        return list(cols)
    n_bytes = (cols.shape[1] + 7) // 8
    packed = np.packbits(cols, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[j * n_bytes : (j + 1) * n_bytes], "little") for j in range(n)]


def _sweep(columns, shift: int, basis: dict, q: int) -> tuple[list[int], list]:
    """(pivots, remainders) of packed columns eliminated left to right against ``basis``.

    ``basis`` maps a low, the last nonzero coordinate, to the column that
    claimed it, normalised to 1 there.  While a column's low is at or
    above ``shift``, among its rows, the basis column of that low times
    the column's entry there is subtracted from it; when that low is
    unclaimed the column claims it, joins ``basis`` and its index is
    listed in ``pivots``.  What is left of every other column, its
    combination below ``shift``, is listed in ``remainders``, in column
    order.  Over F_2 a subtraction is an XOR and every column is
    normalised.
    """
    pivots, remainders = [], []
    if q == 2:
        top = 1 << shift
        for j, x in enumerate(columns):
            while x >= top:
                low = x.bit_length() - 1
                y = basis.get(low)
                if y is None:
                    basis[low] = x
                    pivots.append(j)
                    break
                x ^= y
            else:
                remainders.append(x)
        return pivots, remainders
    for j, x in enumerate(columns):
        nonzero = x.nonzero()[0]
        while len(nonzero) and nonzero[-1] >= shift:
            low = int(nonzero[-1])
            y = basis.get(low)
            if y is None:
                basis[low] = x * pow(int(x[low]), q - 2, q) % q
                pivots.append(j)
                break
            x = (x - x[low] * y) % q
            nonzero = x[:low].nonzero()[0]  # x[low] is cleared, and nothing above it was nonzero
        else:
            remainders.append(x)
    return pivots, remainders


def _unpack(combinations, n: int, q: int) -> np.ndarray:
    """An (n x len(combinations)) int64 matrix whose column k holds the first n coordinates of combinations[k]."""
    if q != 2:
        return np.array([c[:n] for c in combinations], dtype=np.int64).reshape(len(combinations), n).T
    n_bytes = (n + 7) // 8
    mask = (1 << n) - 1
    packed = b"".join((c & mask).to_bytes(n_bytes, "little") for c in combinations)
    bits = np.frombuffer(packed, dtype=np.uint8).reshape(len(combinations), n_bytes)
    return np.unpackbits(bits, axis=1, count=n, bitorder="little").T.astype(np.int64)


def dense_kernel(a, q: int) -> np.ndarray:
    """Columns spanning the right kernel of ``a`` mod q, one per column of ``a`` that vanishes.

    Each column of ``a`` is swept with its combination of input columns,
    at first itself alone.  A column whose rows vanish leaves that
    combination: 1 at its own index and the expression of the rest over
    the earlier pivot columns, which is unique, so the kernel is the one a
    reduced row echelon form gives.  They are listed in column order.
    """
    n = np.shape(a)[1]
    if not np.shape(a)[0]:  # every column vanishes alone
        return np.eye(n, dtype=np.int64)
    return _unpack(_sweep(_pack(a, n, q, unit=True), n, {}, q)[1], n, q)
