import numpy as np
import pytest

from extph.field import (
    SparseMatrix,
    _pack,
    _sweep,
    _unpack,
    dense_kernel,
    modulus,
    reduce,
)

from oracles import columns_to_rows, gf_echelon, gf_kernel, gf_rank
from references import (
    SparseColumn,
    _row_echelon,
    dense_rank,
    dense_solve_many,
    dense_sparse_matrix,
    pivot_columns,
    prefix_ranks,
    sparse_matrix,
)


def dense_matrix(columns, num_rows: int, q: int) -> np.ndarray:
    """Sparse columns as a dense (num_rows x len(columns)) matrix mod q."""
    a = np.zeros((num_rows, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for r, c in col.entries:
            a[r, j] = c
    return a % q


def from_pairs(pairs, q: int) -> SparseColumn:
    """A column from unsorted, possibly repeated (row, coeff) pairs, summed mod q."""
    acc: dict[int, int] = {}
    for row, coeff in pairs:
        acc[row] = (acc.get(row, 0) + coeff) % q
    return SparseColumn(sorted((r, c) for r, c in acc.items() if c))


# ---------------------------------------------------------------------------
# the modulus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, -3, 2.0, "2"])
def test_modulus_must_be_prime(bad):
    with pytest.raises(ValueError, match="must be a prime integer"):
        modulus(bad)


# ---------------------------------------------------------------------------
# columns and lows
# ---------------------------------------------------------------------------


def test_low_of_zero_column_is_absent():
    assert SparseColumn().low is None


def test_low_examples():
    assert from_pairs([(0, 1), (3, 1)], 2).low == 3
    assert from_pairs([(2, 2)], 3).low == 2


def test_from_pairs_merges_and_drops_zeros():
    col = from_pairs([(1, 2), (1, 1), (0, 3), (4, 2)], 3)
    assert col.entries == ((4, 2),)


def test_a_matrix_reads_each_low_off_its_arrays():
    m = sparse_matrix(4, [SparseColumn(((0, 1), (3, 2))), SparseColumn(), SparseColumn(((1, 1),))], 3)
    assert m.lows.tolist() == [3, -1, 1]
    assert [col.entries for col in m.columns] == [((0, 1), (3, 2)), (), ((1, 1),)]
    assert m.num_cols == 3
    empty = sparse_matrix(2, [], 2)
    assert empty.num_cols == 0 and empty.columns == () and reduce(empty) == {}


def test_a_matrix_rejects_an_entry_below_its_rows():
    with pytest.raises(ValueError, match="column 1 has an entry at row 4, but num_rows is 4"):
        sparse_matrix(4, [SparseColumn(((0, 1),)), SparseColumn(((2, 1), (4, 1)))], 2)


def test_plus_scaled_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = from_pairs([(int(r), int(c)) for r, c in rng.integers(0, 8, (4, 2))], 5)
        b = from_pairs([(int(r), int(c)) for r, c in rng.integers(0, 8, (4, 2))], 5)
        c = int(rng.integers(0, 5))
        got = dense_matrix([a.plus_scaled(b, c, 5)], 8, 5)
        want = (dense_matrix([a], 8, 5) + c * dense_matrix([b], 8, 5)) % 5
        assert (got == want).all()


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def _random_matrix(rng, q, n_rows=8, n_cols=8, density=0.4):
    cols = []
    for _ in range(n_cols):
        pairs = [
            (r, int(rng.integers(1, q)))
            for r in range(n_rows)
            if rng.random() < density
        ]
        cols.append(from_pairs(pairs, q))
    return sparse_matrix(n_rows, cols, q)


def test_reduce_identity_pattern_is_fixed():
    m = sparse_matrix(3, [SparseColumn(((j, 1),)) for j in range(3)], 2)
    assert reduce(m) == {0: 0, 1: 1, 2: 2}


def test_reduce_equal_columns_over_f2():
    col = SparseColumn(((0, 1), (1, 1)))
    m = sparse_matrix(2, [col, col], 2)
    pivots = reduce(m)
    assert pivots == {1: 0}  # column 1 vanished, so it claimed no row
    assert len(pivots) == 1 == gf_rank(columns_to_rows(m.columns, 2), 2)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_pivot_count_equals_dense_rank(q):
    rng = np.random.default_rng(11 + q)
    for _ in range(30):
        m = _random_matrix(rng, q)
        assert len(reduce(m)) == gf_rank(columns_to_rows(m.columns, m.num_rows), q)


def _scramble(m, rng):
    """Apply random valid left-to-right additions."""
    q = m.q
    a = dense_matrix(m.columns, m.num_rows, q)
    for _ in range(int(rng.integers(1, 12))):
        if m.num_cols < 2:
            break
        j = int(rng.integers(1, m.num_cols))
        i = int(rng.integers(0, j))
        c = int(rng.integers(1, q))
        a[:, j] = (a[:, j] + c * a[:, i]) % q
    return dense_sparse_matrix(a, q)


def test_pivots_survive_left_to_right_scrambles():
    rng = np.random.default_rng(23)
    for q in (2, 3):
        for _ in range(5):
            m = _random_matrix(rng, q)
            pivots = reduce(m)
            for _ in range(100):
                assert reduce(_scramble(m, rng)) == pivots


def test_left_to_right_additions_preserve_prefix_spans():
    rng = np.random.default_rng(29)
    m = _random_matrix(rng, 3)
    scrambled = _scramble(m, rng)
    for j in range(1, m.num_cols + 1):
        before = gf_rank(columns_to_rows(m.columns[:j], m.num_rows), 3)
        after = gf_rank(columns_to_rows(scrambled.columns[:j], m.num_rows), 3)
        assert before == after


def test_skip_columns_zeroes_without_reducing():
    # column 1 would claim row 2; skipped, it claims nothing
    m = sparse_matrix(3, [SparseColumn(((0, 1), (1, 1))), SparseColumn(((2, 1),))], 2)
    assert reduce(m) == {1: 0, 2: 1}
    assert reduce(m, skip_columns={1}) == {1: 0}


# ---------------------------------------------------------------------------
# both routes, F_2 by XOR and mod q by dicts, on tall matrices
# ---------------------------------------------------------------------------


def _tall_columns(rng, q):
    """A matrix mod q shaped like a cone matrix: a basis block over a taller extension block.

    Its 100 to 400 rows span many machine words as int bitsets.  About a
    third of the columns are combinations of earlier ones, so they reduce to zero.
    """
    n_basis = int(rng.integers(20, 80))
    n_rows = n_basis + int(rng.integers(80, 320))
    n_cols = int(rng.integers(40, 160))
    a = np.zeros((n_rows, n_cols), dtype=np.int64)
    for j in range(n_cols):
        if j >= 2 and rng.random() < 0.3:
            picks = rng.choice(j, size=int(rng.integers(1, min(j, 4) + 1)), replace=False)
            a[:, j] = a[:, picks] @ rng.integers(1, q, len(picks)) % q
            continue
        a[:n_basis, j] = (rng.random(n_basis) < 0.08) * rng.integers(1, q, n_basis)
        ext = n_basis + rng.choice(n_rows - n_basis, size=int(rng.integers(0, 4)), replace=False)
        a[ext, j] = rng.integers(1, q, len(ext))
    return a


def _one_pivot_many_lows(rng, q):
    """A matrix mod q whose every column ends at the bottom row, over a few shared rows above it.

    Column 0 claims the bottom row, so it cancels the low of each later
    column in turn, and is read again each time.  What is left of those
    columns collides among the shared rows, and most of them reduce to
    zero, as there are more columns than shared rows.
    """
    n_rows, n_cols = 200, 40
    shared = rng.choice(n_rows - 1, size=24, replace=False)
    a = np.zeros((n_rows, n_cols), dtype=np.int64)
    for j in range(n_cols):
        rows = rng.choice(shared, size=int(rng.integers(3, 12)), replace=False)
        a[rows, j] = rng.integers(1, q, len(rows))
        a[n_rows - 1, j] = rng.integers(1, q)
    return a


def _dense_reduce(a, q, skip=()):
    """Plain left-to-right reduction of a dense matrix mod q.

    Returns (reduced, pivots {row: column}, the columns that received an addition).
    """
    a = a.copy()
    owner, added = {}, set()
    for j in range(a.shape[1]):
        if j in skip:
            a[:, j] = 0
            continue
        while a[:, j].any():
            low = int(np.flatnonzero(a[:, j])[-1])
            i = owner.get(low)
            if i is None:
                owner[low] = j
                break
            a[:, j] = (a[:, j] - a[low, j] * pow(int(a[low, i]), q - 2, q) * a[:, i]) % q
            added.add(j)
    return a, owner, added


def _check_tall_reduction(q, seed, columns=_tall_columns):
    rng = np.random.default_rng(1000 + seed)
    a = columns(rng, q)
    zeros = np.flatnonzero(~_dense_reduce(a, q)[0].any(axis=0))
    # the clearing contract: only columns known to reduce to zero are skipped
    skip = {int(j) for j in zeros if rng.random() < 0.5}
    _, want, added = _dense_reduce(a, q, skip)
    m = dense_sparse_matrix(a, q)
    before = [x.copy() for x in (m.indptr, m.rows, m.coeffs, m.lows)]

    assert reduce(m, skip_columns=skip) == want
    after = (m.indptr, m.rows, m.coeffs, m.lows)
    assert all(np.array_equal(x, y) for x, y in zip(before, after))  # the input is left as it was
    assert added and skip  # the seeds exercise both additions and clearing


@pytest.mark.parametrize("seed", range(12))
def test_the_f2_route_matches_a_dense_reduction_on_tall_matrices(seed):
    _check_tall_reduction(2, seed)


@pytest.mark.parametrize("q", [3, 5])
@pytest.mark.parametrize("seed", range(7))
def test_the_mod_q_route_matches_a_dense_reduction_on_tall_matrices(seed, q):
    # seed 6 guards the in-place cancel: the one pivot column it reads again and again must not change
    _check_tall_reduction(q, seed, _tall_columns if seed < 6 else _one_pivot_many_lows)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------


def _solve(target: SparseColumn, basis: SparseMatrix):
    """Coefficients of ``target`` over the columns of ``basis``, or None outside their span."""
    q, rows = basis.q, basis.num_rows
    x = dense_solve_many(dense_matrix(basis.columns, rows, q), dense_matrix([target], rows, q), q)
    return None if x is None else [int(v) for v in x[:, 0]]


def test_solve_zero_target_gives_zero_coefficients():
    basis = sparse_matrix(4, [SparseColumn(((0, 1),)), SparseColumn(((2, 1),))], 3)
    assert _solve(SparseColumn(), basis) == [0, 0]


def test_solve_recovers_a_basis_column():
    cols = [SparseColumn(((0, 1),)), SparseColumn(((1, 2),)), SparseColumn(((2, 1), (3, 4)))]
    basis = sparse_matrix(4, cols, 5)
    assert _solve(cols[2], basis) == [0, 0, 1]


def test_solve_random_in_span_combinations_reproduce_target():
    rng = np.random.default_rng(31)
    q = 5
    for _ in range(40):
        basis = _random_matrix(rng, q, n_rows=7, n_cols=4)
        coeffs = [int(c) for c in rng.integers(0, q, 4)]
        target = SparseColumn()
        for c, col in zip(coeffs, basis.columns):
            target = target.plus_scaled(col, c, q)
        x = _solve(target, basis)
        assert x is not None
        rebuilt = SparseColumn()
        for c, col in zip(x, basis.columns):
            rebuilt = rebuilt.plus_scaled(col, c, q)
        assert rebuilt == target


def test_solve_detects_out_of_span_targets():
    basis = sparse_matrix(3, [SparseColumn(((0, 1),))], 2)
    assert _solve(SparseColumn(((2, 1),)), basis) is None


# ---------------------------------------------------------------------------
# dense helpers
# ---------------------------------------------------------------------------


def test_dense_kernel_vectors_annihilate():
    rng = np.random.default_rng(37)
    for q in (2, 3, 5):
        for _ in range(20):
            a = rng.integers(0, q, (5, 7))
            ker = dense_kernel(a, q)
            assert ((a @ ker) % q == 0).all()
            assert gf_rank([list(r) for r in a], q) + ker.shape[1] == 7


def test_dense_solve_round_trip():
    rng = np.random.default_rng(41)
    q = 3
    a = rng.integers(0, q, (6, 4))
    x = rng.integers(0, q, 4)
    b = (a @ x) % q
    got = dense_solve_many(a, b.reshape(-1, 1), q)
    assert got is not None
    assert ((a @ got[:, 0]) % q == b).all()


def test_pivot_columns_track_rank():
    # a column is a pivot exactly when it grows the rank of the columns before it
    rng = np.random.default_rng(43)
    for q in (2, 3, 5):
        for _ in range(20):
            a = rng.integers(0, q, (6, 10)) * (rng.random((6, 10)) < 0.6)
            a[:, int(rng.integers(0, 10))] = a[:, int(rng.integers(0, 10))]  # a repeated column
            vectors = [list(v) for v in a.T]
            grew = [k for k in range(10) if gf_rank(vectors[: k + 1], q) > gf_rank(vectors[:k], q)]
            assert pivot_columns(a, q) == grew
            assert _swept_pivots(a, q) == grew
        assert pivot_columns(np.zeros((0, 3), dtype=np.int64), q) == []
        assert pivot_columns(np.zeros((3, 0), dtype=np.int64), q) == []


def test_dense_matrix_matches_entries():
    cols = [SparseColumn(((1, 2),)), SparseColumn(((0, 1), (2, 2)))]
    a = dense_matrix(cols, 3, 3)
    assert a.tolist() == [[0, 1], [2, 0], [0, 2]]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_prefix_ranks_match_the_rank_of_each_prefix(q):
    rng = np.random.default_rng(47 + q)
    for _ in range(40):
        n_rows, n_cols = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        a = rng.integers(0, q, (n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.5)
        a[int(rng.integers(0, n_rows))] = 0  # a zero row
        a[:, int(rng.integers(0, n_cols))] = 0  # a zero column
        ends = list(range(n_cols + 1))
        assert prefix_ranks(a, ends, q) == [dense_rank(a[:, :e], q) for e in ends]
        assert prefix_ranks(a, ends, q) == [gf_rank([list(r) for r in a[:, :e]], q) for e in ends]


def test_prefix_ranks_of_empty_and_zero_matrices():
    assert prefix_ranks(np.zeros((0, 4), dtype=np.int64), [0, 2, 4], 3) == [0, 0, 0]
    assert prefix_ranks(np.zeros((3, 0), dtype=np.int64), [0], 3) == [0]
    assert prefix_ranks(np.zeros((3, 4), dtype=np.int64), [0, 4], 2) == [0, 0]
    assert prefix_ranks(np.eye(3, dtype=np.int64), [3, 0, 2], 5) == [3, 0, 2]


# ---------------------------------------------------------------------------
# the oracles' sweep at q = 2, 3 and 5 against the row echelon form
# ---------------------------------------------------------------------------


def _dense_cases():
    """Seeded int64 matrices with entries in -4..4, which must reduce mod q.

    Empty shapes, all-zero and full-rank matrices, and up to 150 rows and
    columns, so the packed columns and their combinations span several
    64-bit words.
    """
    rng = np.random.default_rng(59)
    cases = [np.zeros(shape, dtype=np.int64) for shape in [(0, 0), (0, 5), (5, 0), (6, 9), (70, 3)]]
    for shape in [(4, 4), (9, 13), (70, 30), (30, 70), (130, 40)]:
        for density in (0.05, 0.3, 0.8):
            cases.append(rng.integers(-4, 5, shape) * (rng.random(shape) < density))
    for n in (1, 8, 65):
        # a diagonal of ±1 and ±3 under an upper triangle is invertible mod 2 and 5; shuffled rows, taller below
        square = np.triu(rng.integers(-4, 5, (n, n)), 1) + np.diag(rng.choice([-3, -1, 1, 3], n))
        cases.append(square[rng.permutation(n)])
        cases.append(np.vstack([square, rng.integers(-4, 5, (n, n))]))
    # 150 columns on 100 rows, the last 80 combinations of earlier ones with even and odd weights
    a = rng.integers(-4, 5, (100, 150)) * (rng.random((100, 150)) < 0.1)
    a[:, 70:] = a[:, :70] @ (rng.integers(-3, 4, (70, 80)) * (rng.random((70, 80)) < 0.05))
    cases.append(a)
    return cases


def _swept_pivots(a, q):
    """The pivot columns of the package's sweep, the same with and without each column's combination."""
    n = a.shape[1]
    pivots = _sweep(_pack(a, 0, q), 0, {}, q)[0]
    assert _sweep(_pack(a, n, q, unit=True), n, {}, q)[0] == pivots
    return pivots


def _swept_solution(a, b, q):
    """X with a @ X = b mod q from the package's sweep of [a | b], or None if b leaves the span of a.

    Each column of b that vanishes leaves 1 at its own index and minus its
    expression over the pivot columns of a.
    """
    n, m = a.shape[1], b.shape[1]
    pivots, vanished = _sweep(_pack(np.hstack([a, b]), n + m, q, unit=True), n + m, {}, q)
    if pivots and pivots[-1] >= n:
        return None
    return -_unpack(vanished[-m:], n, q) % q


def _rref_kernel(a, q):
    """The kernel a reduced row echelon form gives: one column per free column."""
    n = a.shape[1]
    r, pivots = _row_echelon(a, q)
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((n, len(free)), dtype=np.int64)
    for k, fc in enumerate(free):
        out[fc, k] = 1
        for i, pc in enumerate(pivots):
            out[pc, k] = -r[i, fc] % q
    return out


def test_f2_ranks_match_the_row_echelon_form():
    for q in (2, 3, 5):
        for a in _dense_cases():
            pivots = _row_echelon(a, q)[1]
            assert _swept_pivots(a, q) == pivots
            if a.shape[0]:  # a list of rows cannot hold a matrix without rows
                assert pivots == gf_echelon(a.tolist(), q)[1]


def test_f2_kernels_match_the_row_echelon_form_entry_for_entry():
    for q in (2, 3, 5):
        wide = 0
        for a in _dense_cases():
            got = dense_kernel(a, q)
            assert got.dtype == np.int64
            assert np.array_equal(got, _rref_kernel(a, q))
            if a.shape[0]:
                assert got.T.tolist() == gf_kernel(a.tolist(), q)
            assert not ((a @ got) % q).any()
            wide += got.shape[1] > 64
        assert wide  # some kernel has more columns than a machine word has bits


def test_f2_solutions_match_the_row_echelon_form():
    rng = np.random.default_rng(61)
    for q in (2, 3, 5):
        outcomes = set()
        for a in _dense_cases():
            x = rng.integers(-3, 4, (a.shape[1], 4))
            solvable = np.hstack([a @ x, np.zeros((a.shape[0], 1), dtype=np.int64)])
            got = _swept_solution(a, solvable, q)
            assert got is not None and got.dtype == np.int64
            assert np.array_equal(got, dense_solve_many(a, solvable, q))
            assert np.array_equal((a @ got) % q, solvable % q)
            # a random column is mostly outside the span when a has fewer pivots than rows
            b = np.hstack([solvable, rng.integers(-4, 5, (a.shape[0], 1))])
            want = dense_solve_many(a, b, q)
            got = _swept_solution(a, b, q)
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(got, want)
            outcomes.add(want is None)
        assert outcomes == {True, False}
