"""Exact sparse linear algebra over a prime field F_q.

A field is its modulus: a prime int q, checked once by ``modulus``, and
scalars are plain ints reduced mod q.  A sparse column keeps its nonzero
entries sorted by row index, so the bottom nonzero entry (its *low*) is
always the last one.  ``reduce`` brings a column-major matrix to reduced
form using left-to-right column additions only and returns the pivots
{row: column}; the pivot positions do not depend on the order in which
admissible additions are performed, which is what makes pairings read off
the pivots well defined.  Those pivots are all its callers need: a column
that claims no row is one that reduces to zero.

Over F_2 (the default field) ``reduce`` takes an XOR route, chosen once
per matrix.  A column there is the set of its rows, and a Python int with
bit r set for each row r holds that set: its low is ``bit_length() - 1``
and adding a column is ``^``.  The conversion is lazy.  A column stays the
``SparseColumn`` it came in as until its low collides with a pivot; only
then do it and the pivot columns it meets become ints, and each pivot's
int is kept for its next use.  Extension rows sit at the bottom of the
cone's matrices, so an int is as wide as the matrix is tall; converting
every column would hold thousands of such ints at once.

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

import numpy as np

__all__ = [
    "MAX_MODULUS",
    "modulus",
    "SparseColumn",
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


class SparseColumn:
    """Sparse vector: nonzero (row, coefficient) entries sorted by row."""

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        # trusted constructor: entries must be sorted by row with nonzero,
        # fully reduced coefficients
        self.entries = tuple(entries)

    @property
    def low(self):
        """Row index of the bottom nonzero entry; None for the zero column."""
        return self.entries[-1][0] if self.entries else None

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def plus_scaled(self, other: "SparseColumn", c: int, q: int) -> "SparseColumn":
        """self + c * other mod q, merging the two sorted entry lists."""
        c %= q
        if c == 0:
            return self
        out = []
        a, b = self.entries, other.entries
        i = j = 0
        while i < len(a) and j < len(b):
            ra, rb = a[i][0], b[j][0]
            if ra < rb:
                out.append(a[i])
                i += 1
            elif rb < ra:
                v = b[j][1] * c % q
                if v:
                    out.append((rb, v))
                j += 1
            else:
                v = (a[i][1] + b[j][1] * c) % q
                if v:
                    out.append((ra, v))
                i += 1
                j += 1
        out.extend(a[i:])
        for rb, vb in b[j:]:
            v = vb * c % q
            if v:
                out.append((rb, v))
        return SparseColumn(out)

    def __eq__(self, other):
        return isinstance(other, SparseColumn) and other.entries == self.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SparseColumn({list(self.entries)})"


class SparseMatrix:
    """Column-major sparse matrix over F_q."""

    __slots__ = ("num_rows", "columns", "q")

    def __init__(self, num_rows: int, columns=(), q: int = 2):
        self.q = modulus(q)
        self.num_rows = int(num_rows)
        self.columns = tuple(columns)
        for j, col in enumerate(self.columns):
            if col.entries and col.low >= self.num_rows:
                raise ValueError(
                    f"column {j} has an entry at row {col.low}, but num_rows is {self.num_rows}"
                )

    @property
    def num_cols(self) -> int:
        return len(self.columns)

    def column(self, j: int) -> SparseColumn:
        return self.columns[j]

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
    no row are exactly those that reduce to zero.  Of the reduced columns
    only the pivots are kept, for the later columns that meet them; over
    F_2 they are int bitsets (see the module docstring).
    """
    if matrix.q == 2:
        return _reduce_f2(matrix, skip_columns)
    q = matrix.q
    skip = set(skip_columns)
    owner: dict[int, int] = {}  # pivot row -> column that claimed it
    pivot_of: dict[int, SparseColumn] = {}  # pivot row -> that column, reduced
    for j, col in enumerate(matrix.columns):
        if j in skip:
            continue
        while col.entries:
            r, v = col.entries[-1]
            pivot = pivot_of.get(r)
            if pivot is None:
                owner[r], pivot_of[r] = j, col
                break
            col = col.plus_scaled(pivot, -v * pow(pivot.entries[-1][1], q - 2, q), q)
    return owner


def _reduce_f2(matrix: SparseMatrix, skip_columns) -> dict[int, int]:
    """``reduce`` over F_2: columns become int bitsets when they first collide."""
    skip = set(skip_columns)
    columns = matrix.columns
    owner: dict[int, int] = {}  # pivot row -> column that claimed it
    bits: dict[int, int] = {}  # pivot column -> its reduced bitset, from its first use
    for j, col in enumerate(columns):
        if j in skip or not col.entries:
            continue
        low = col.entries[-1][0]
        i = owner.get(low)
        if i is None:
            owner[low] = j
            continue
        x = _f2_bits(col)
        while True:
            y = bits.get(i)
            if y is None:  # a pivot that received no addition is its input column
                y = bits[i] = _f2_bits(columns[i])
            x ^= y
            if not x:
                break
            low = x.bit_length() - 1
            i = owner.get(low)
            if i is None:
                owner[low] = j
                bits[j] = x
                break
    return owner


def _f2_bits(col: SparseColumn) -> int:
    """An F_2 column as an int with bit r set for each of its rows r."""
    return sum(1 << r for r, _ in col.entries)


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
