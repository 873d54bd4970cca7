"""Theory references for extended persistence, and the routes the package's own are checked against.

The pipeline never builds these objects; the tests use them to check the
identities that extended persistence rests on (Cohen-Steiner, Edelsbrunner,
Harer, "Extending persistence using Poincaré and Lefschetz duality", 2009),
and to check the package's window-rank route against an elimination of its
own:

* ``same_store``: asserts that two stores list the same generators in the
  same order with the same boundaries, the check between the front ends'
  array stores and their label-level references;
* ``restricted``: the subgroup spanned by some of a store's basis
  generators, over the store's universe, the stages and sub-pairs the
  identities are stated for;
* ``ChainComplexSlice``, ``sup_complex`` and ``homology_dims``: the
  supremum complex S_p = D_p + d(D_{p+1}) as dense matrices and its
  homology from boundary ranks, the route that ``path_homology`` and
  ``embedded_homology`` replaced by one window rank;
* ``_row_echelon``, ``pivot_columns``, ``dense_rank``, ``prefix_ranks``
  and ``dense_solve_many``: a reduced row echelon form mod q and the
  pivot columns, ranks, prefix ranks and solutions of a @ X = b read off
  it, an elimination that shares no code with the package's sweep;
* ``inf_complex``: the infimum complex I_p = D_p ∩ d^{-1}(D_{p-1}), the
  largest subcomplex inside a graded subgroup, whose homology equals that
  of the supremum complex;
* ``relative_homology_dims``: dimensions of H_p(big / small) from the
  quotient boundary ranks;
* ``mapping_cone``: the cone of an inclusion of slices, whose homology is
  the relative homology and whose supremum complex is that of
  ``cone_graded``;
* ``positional_barcode``: the extended barcode under a plausible but wrong
  reading of extended pairs, which the tests show the rank oracle rejects;
* ``stacked_window_ranks``: the window ranks dim(S_k + C_e) - dim(C_e) from
  one row echelon form of [S_k | C] per source, the formulation that
  ``window_ranks`` replaced;
* ``per_stage_module_oracle``: ``extended_module_oracle`` with each
  relative source taken from its own kernel of the images less the rows of
  E^j_{p-1}, the formulation that the one kernel of [images | U] replaced.
* ``SparseColumn``, ``reference_reduce`` and ``reference_pairings``: the
  reduction of columns held as (row, coefficient) lists from the start,
  which ``reduce`` and ``compute_pairings`` replaced by CSR arrays that
  write a column out only when it collides; ``sparse_matrix`` and
  ``dense_sparse_matrix`` build the package's array matrices for tests;
* ``regular_boundary``, ``sublevel``, ``superlevel`` and
  ``simplicial_boundary``: the front ends' boundaries and digraph
  filtrations at the level of labels, which the array stores are checked
  against.

Unlike ``oracles.py`` the slices and the module oracle use the package's
kernel (``dense_kernel``) and window ranks, so they check identities
between package objects; every rank, pivot list and solution is read off
``_row_echelon``, so the window-rank cross-checks do not compare the
package's sweep with itself.
"""

from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from extph.digraph import WeightedDigraph
from extph.errors import ConsistencyError, GradedValidationError
from extph.extended import EXTENDED, ExtendedBarcode, ExtendedInterval, extended_barcode
from extph.field import SparseMatrix, dense_kernel
from extph.graded import GradedSubgroup, image_matrix, stage_cycles, unit_matrix, window_ranks
from extph.persistence import Pairing, build_matrices, compute_pairings

_EMPTY = np.zeros((0, 0), dtype=np.int64)


class ChainComplexSlice(NamedTuple):
    """A finite chunk of a chain complex, as dense int64 matrices mod q.

    ``vectors[p]`` is an (ambient rows × k_p) matrix whose columns are the
    chosen basis chains, written in the universe coordinates of their
    source subgroup; ``boundaries[p]`` is the (k_{p-1} × k_p) boundary
    matrix dim p -> dim p-1 written in the slice's own bases.
    """

    q: int
    vectors: dict
    boundaries: dict

    @property
    def max_dim(self) -> int:
        return max(self.vectors, default=-1)

    def dim(self, p: int) -> int:
        return self.vectors[p].shape[1] if p in self.vectors else 0

    def boundary_matrix(self, p: int) -> np.ndarray:
        mat = self.boundaries.get(p)
        return np.zeros((self.dim(p - 1), self.dim(p)), dtype=np.int64) if mat is None else mat


def _row_echelon(a: np.ndarray, q: int):
    """Reduced row echelon form mod q; returns (rref, pivot column list)."""
    a = np.array(a, dtype=np.int64) % q
    n_rows, n_cols = a.shape
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        pr = r + int(hits[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), q - 2, q)) % q
        col = a[:, c].copy()
        col[r] = 0
        nz = np.nonzero(col)[0]
        if nz.size:
            a[nz] = (a[nz] - np.outer(col[nz], a[r])) % q
        pivots.append(c)
        r += 1
    return a, pivots


def pivot_columns(a, q: int) -> list[int]:
    """The columns of ``a`` outside the span of the columns before them: the row echelon form's pivots."""
    return _row_echelon(a, q)[1]


def dense_rank(a, q: int) -> int:
    return len(pivot_columns(a, q))


def prefix_ranks(a, ends, q: int) -> list[int]:
    """Rank of each column prefix a[:, :e] for e in ``ends``, from one row echelon form."""
    pivots = pivot_columns(a, q)
    return [bisect_left(pivots, e) for e in ends]


def dense_solve_many(a, b, q: int):
    """Solve a @ X = b mod q column-wise; None if any column is unsolvable."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = a.shape[1]
    m = b.shape[1]
    if m == 0:
        return np.zeros((n, 0), dtype=np.int64)
    r, pivots = _row_echelon(np.hstack([a, b]), q)
    if pivots and pivots[-1] >= n:
        return None  # a pivot inside the augmented block: inconsistent system
    x = np.zeros((n, m), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc, :] = r[i, n:]
    return x


def sup_complex(graded: GradedSubgroup, p_max: int) -> ChainComplexSlice:
    """Supremum complex S_p = D_p + d(D_{p+1}) of a graded subgroup.

    Dimensions are built up to p_max + 1; boundaries of dimension p_max + 2
    generators are ignored, which leaves every homology group up to p_max
    intact.  S_p is spanned by the pivot columns of [units of D_p |
    boundaries of D_{p+1}]: all of the units, then the boundaries outside
    the span of what precedes them.
    """
    q = graded.q
    images = {p: image_matrix(graded, p, graded.basis_rows(p)) for p in range(1, p_max + 2)}
    vectors, boundaries = {}, {}
    for p in range(p_max + 2):
        both = unit_matrix(graded, p, graded.basis_rows(p))
        if p <= p_max:
            both = np.hstack([both, images[p + 1]])
        vectors[p] = both[:, pivot_columns(both, q)]
    for p in range(1, p_max + 2):
        # the kept boundaries follow the units and are exact: their own boundary is zero
        img = np.zeros((vectors[p - 1].shape[0], vectors[p].shape[1]), dtype=np.int64)
        img[:, : images[p].shape[1]] = images[p]
        boundaries[p] = dense_solve_many(vectors[p - 1], img, q)
        if boundaries[p] is None:
            raise GradedValidationError(
                "boundary image escapes the supremum complex; input boundary data is inconsistent"
            )
    return ChainComplexSlice(q, vectors, boundaries)


def homology_dims(c: ChainComplexSlice, p_max: int) -> list[int]:
    """dim H_p = dim C_p - rank d_p - rank d_{p+1} for p = 0..p_max."""
    q = c.q
    for p in range(1, c.max_dim):
        if ((c.boundary_matrix(p) @ c.boundary_matrix(p + 1)) % q).any():
            raise GradedValidationError(f"slice boundaries do not compose to zero at dimension {p + 1}")
    ranks = [0] + [dense_rank(c.boundary_matrix(p), q) for p in range(1, p_max + 2)]
    return [c.dim(p) - ranks[p] - ranks[p + 1] for p in range(p_max + 1)]


def _vectors(c: ChainComplexSlice, p: int) -> np.ndarray:
    """The basis chains of dimension p; an empty matrix outside the slice."""
    return c.vectors.get(p, _EMPTY)


def same_store(got: GradedSubgroup, want: GradedSubgroup) -> None:
    """Assert equal label lists per dimension and equal boundaries, as arrays and as dicts."""
    assert got.max_dim == want.max_dim and got.q == want.q
    for p in want.dims():
        assert got.basis[p] == want.basis[p]
        assert got.extension[p] == want.extension[p]
        assert got.universe[p] == want.universe[p]
        for a, b in zip(got.boundary_csr(p), want.boundary_csr(p)):
            assert np.array_equal(a, b)
    for label in (l for p in want.dims() for l in want.universe[p][:50]):
        assert got.boundary_dict(label) == want.boundary_dict(label)


def restricted(graded: GradedSubgroup, keep) -> GradedSubgroup:
    """Subgroup spanned by the basis generators ``keep[p]``, in basis order.

    The universe (and hence the row order of every column) is kept
    intact; dropped basis generators become extension generators.
    """
    basis, extension = {}, {}
    for p in graded.dims():
        wanted = frozenset(keep.get(p, ()))
        unknown = wanted - frozenset(graded.basis[p])
        if unknown:
            raise ValueError(f"dimension {p}: {sorted(map(repr, unknown))} are not basis generators")
        basis[p] = [l for l in graded.basis[p] if l in wanted]
        extension[p] = [l for l in graded.universe[p] if l not in wanted]
    boundary = {l: graded.boundary_dict(l) for p in graded.dims() for l in graded.universe[p]}
    return GradedSubgroup(basis, extension, boundary, q=graded.q, universe=graded.universe)


def inf_complex(graded, p_max: int) -> ChainComplexSlice:
    """Infimum complex I_p = D_p ∩ d^{-1}(D_{p-1}) of a graded subgroup."""
    q = graded.q
    vectors, coeffs = {}, {}
    for p in range(p_max + 2):
        rows = graded.basis_rows(p)
        if p == 0:
            # the boundary vanishes on dimension 0, so I_0 = D_0
            ker = np.eye(len(rows), dtype=np.int64)
        else:
            outside = np.setdiff1d(np.arange(graded.universe_size(p - 1)), graded.basis_rows(p - 1))
            ker = dense_kernel(image_matrix(graded, p, rows)[outside, :], q)
        vectors[p] = unit_matrix(graded, p, rows) @ ker
        coeffs[p] = ker

    # boundary of an I_p vector is a combination of basis-generator columns
    boundaries = {}
    for p in range(1, p_max + 2):
        images = (image_matrix(graded, p, graded.basis_rows(p)) @ coeffs[p]) % q
        boundaries[p] = dense_solve_many(vectors[p - 1], images, q)
        if boundaries[p] is None:
            raise GradedValidationError(
                "boundary of an infimum chain escapes the infimum complex;"
                " input boundary data is inconsistent"
            )
    return ChainComplexSlice(q, vectors, boundaries)


def _check_same_coordinates(small: ChainComplexSlice, big: ChainComplexSlice, max_dim: int):
    if big.q != small.q:
        raise GradedValidationError("slices live over different fields")
    for p in range(max_dim + 1):
        if _vectors(big, p).shape[0] != _vectors(small, p).shape[0]:
            raise GradedValidationError(f"slices disagree on ambient coordinates at dimension {p}")


def relative_homology_dims(big: ChainComplexSlice, small: ChainComplexSlice, p_max: int) -> list[int]:
    """Dimensions of H_p(big / small) for p = 0..p_max, via quotient boundary ranks."""
    _check_same_coordinates(small, big, p_max + 1)
    q = big.q
    reps, rep_idx = {}, {}
    for p in range(p_max + 2):
        b, s = _vectors(big, p), _vectors(small, p)
        if any(k >= b.shape[1] for k in pivot_columns(np.hstack([b, s]), q)):
            raise GradedValidationError(f"dimension {p}: the small slice is not contained in the big one")
        # the big chains outside the span of the small ones and of the big chains before them
        rep_idx[p] = [k - s.shape[1] for k in pivot_columns(np.hstack([s, b]), q) if k >= s.shape[1]]
        reps[p] = b[:, rep_idx[p]]

    quotient = {}
    for p in range(1, p_max + 2):
        images = (_vectors(big, p - 1) @ big.boundary_matrix(p)[:, rep_idx[p]]) % q
        small_prev = _vectors(small, p - 1)
        x = dense_solve_many(np.hstack([small_prev, reps[p - 1]]), images, q)
        if x is None:
            raise GradedValidationError("quotient boundary image escapes the quotient basis")
        quotient[p] = x[small_prev.shape[1] :, :]

    out = []
    for p in range(p_max + 1):
        r_down = dense_rank(quotient[p], q) if p >= 1 else 0
        r_up = dense_rank(quotient[p + 1], q)
        out.append(len(rep_idx[p]) - r_down - r_up)
    return out


def mapping_cone(small: ChainComplexSlice, big: ChainComplexSlice) -> ChainComplexSlice:
    """Mapping cone of the inclusion small ⊆ big.

    Cone dimension p is small_{p-1} ⊕ big_p with boundary
    (c', c) -> (-d'c', c' + dc).  Cone ambient coordinates are the big
    slice's dimension-p coordinates followed by its dimension-(p-1) ones,
    matching the row layout of ``cone_graded``.
    """
    max_dim = big.max_dim
    _check_same_coordinates(small, big, max_dim)
    q = big.q

    # small chains re-expressed over the big basis, for the c' + dc term
    small_in_big = {}
    for p in range(max_dim + 1):
        small_in_big[p] = dense_solve_many(_vectors(big, p), _vectors(small, p), q)
        if small_in_big[p] is None:
            raise GradedValidationError(f"dimension {p}: small slice not contained in big slice")

    def block(top_left, top_right, bottom_right):
        bottom_left = np.zeros((bottom_right.shape[0], top_left.shape[1]), dtype=np.int64)
        return np.block([[top_left, top_right], [bottom_left, bottom_right]])

    vectors, boundaries = {}, {}
    for p in range(max_dim + 1):
        b, s = _vectors(big, p), _vectors(small, p - 1)
        vectors[p] = block(b, np.zeros((b.shape[0], s.shape[1]), dtype=np.int64), s)
    for p in range(1, max_dim + 1):
        # (0, c) -> (0, dc) and (c', 0) -> (c', -d'c')
        small_bnd = (-small.boundary_matrix(p - 1)) % q
        boundaries[p] = block(big.boundary_matrix(p), small_in_big[p - 1], small_bnd)

    cone = ChainComplexSlice(q, vectors, boundaries)
    for p in range(1, max_dim):
        if ((cone.boundary_matrix(p) @ cone.boundary_matrix(p + 1)) % q).any():
            raise ConsistencyError("cone boundary does not square to zero")
    return cone


def positional_barcode(x, p_max: int, clearing: bool = True) -> ExtendedBarcode:
    """``extended_barcode`` with its extended intervals read positionally.

    An extended pair joins the ascending basis generator at row i with the
    descending basis generator at column j of the same dimension.  The
    positional reading takes the ascending height at the position that the
    row generator holds in the descending order, and the descending height
    at the position that the column generator holds in the ascending order.
    It agrees with the correct reading whenever the two orders coincide and
    fails ``extended_module_oracle`` on some inputs where they do not.
    Ordinary and relative intervals are those of ``extended_barcode``.
    """
    kept = [iv for iv in extended_barcode(x, p_max, clearing) if iv.kind != EXTENDED]
    asc, desc = x.ascending.basis, x.descending.basis
    ah, dh = x.ascending.heights, x.descending.heights
    for pairing in compute_pairings(build_matrices(x, p_max), clearing):
        p = pairing.dim
        a_p, a_up = len(asc.get(p, ())), len(asc.get(p + 1, ()))
        a_pos = {g: k for k, g in enumerate(asc.get(p, ()))}
        d_pos = {g: k for k, g in enumerate(desc.get(p, ()))}
        for i, j in pairing.pairs:
            if i < a_p and j >= a_up:
                b = ah[p][d_pos[asc[p][i]]]
                d = dh[p][a_pos[desc[p][j - a_up]]]
                kept.append(ExtendedInterval(p, EXTENDED, b, d))
    return ExtendedBarcode(kept, x.M, x.N)


def stacked_window_ranks(sources, chain, ends, q: int) -> list:
    """``window_ranks`` as one elimination of [S_k | C] per source, minus the ranks of C's prefixes."""
    base = prefix_ranks(chain, ends, q)
    rows = []
    for k, source in enumerate(sources):
        ranks = prefix_ranks(np.hstack([source, chain]), [source.shape[1] + e for e in ends[k:]], q)
        rows.append([r - b for r, b in zip(ranks, base[k:])])
    return rows


def per_stage_module_oracle(x, p_max: int) -> dict:
    """``extended_module_oracle`` with one kernel per relative source.

    The source of descending stage j is ``units @ dense_kernel(images less
    the rows of E^j_{p-1})``: the chains of D_p whose boundary has no entry
    outside E^j_{p-1}.  The ascending sources, the chain and its prefixes
    are those of the module oracle.
    """
    asc, desc = x.ascending, x.descending
    g, q = x.graded, x.graded.q
    M, N = x.M, x.N
    table: dict = {}
    for p in range(p_max + 1):
        a_p, ups = asc.rows(p), asc.rows(p + 1)
        d_p, d_prev = desc.rows(p), desc.rows(p - 1)
        chain = np.hstack([image_matrix(g, p + 1, ups), unit_matrix(g, p, d_p)])
        ends = [asc.stage_prefix(p + 1, v) for v in range(1, M + 1)]
        ends += [len(ups) + desc.stage_prefix(p, j) for j in range(1, N + 1)]
        units, images = unit_matrix(g, p, a_p), image_matrix(g, p, a_p)
        sources = stage_cycles(units, images, [asc.stage_prefix(p, u) for u in range(1, M + 1)], q)
        for j in range(1, N + 1):
            inside = d_prev[: desc.stage_prefix(p - 1, j)]
            sources.append(units @ dense_kernel(np.delete(images, inside, axis=0), q))
        for u, row in enumerate(window_ranks(sources, chain, ends, q), start=1):
            for v, r in enumerate(row, start=u):
                table[(p, u, v)] = r
    return table


# ---------------------------------------------------------------------------
# sparse columns and the list-of-entries reduction
# ---------------------------------------------------------------------------


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


def sparse_matrix(num_rows: int, columns, q: int) -> SparseMatrix:
    """The package's array matrix holding the entries of ``columns``."""
    entries = [e for col in columns for e in col.entries]
    indptr = np.cumsum([0] + [len(col.entries) for col in columns])
    return SparseMatrix(num_rows, indptr, [r for r, _ in entries], [c for _, c in entries], q)


def dense_sparse_matrix(a, q: int) -> SparseMatrix:
    """The package's array matrix of a dense matrix mod q."""
    a = np.asarray(a, dtype=np.int64) % q
    cols, rows = np.nonzero(a.T)  # column by column, rows ascending within each
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(a, axis=0))])
    return SparseMatrix(a.shape[0], indptr, rows, a[rows, cols], q)


def reference_reduce(columns, q: int, skip_columns=()) -> dict:
    """Left-to-right reduction of ``SparseColumn``s by merging entry lists, at every q; its pivots {row: column}.

    The reduction the package ran before its matrices became arrays: every
    column is an entry list from the start, and a collision adds the pivot
    column scaled by minus the ratio of the two lows' coefficients.
    """
    skip = set(skip_columns)
    owner: dict = {}
    pivot_of: dict = {}
    for j, col in enumerate(columns):
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


def reference_pairings(matrices, basis_counts, q: int, clearing: bool = True) -> list:
    """``compute_pairings`` over ``reference_reduce``; ``matrices[p]`` lists matrix p's ``SparseColumn``s."""
    pairs_at, claimed, skip = {}, {-1: set()}, set()
    for p in range(len(matrices) - 1, -1, -1):
        pivots = reference_reduce(matrices[p], q, skip)
        pairs_at[p] = {(r, c) for r, c in pivots.items() if r < basis_counts[p]}
        claimed[p] = set(pivots.values())
        if clearing:
            skip = {r for r, _ in pairs_at[p]}
    out = []
    for p in range(len(matrices)):
        cycles = set(range(basis_counts[p])) - claimed[p - 1] - {r for r, _ in pairs_at[p]}
        out.append(Pairing(p, frozenset(pairs_at[p]), frozenset(cycles)))
    return out


# ---------------------------------------------------------------------------
# the front ends at the level of labels
# ---------------------------------------------------------------------------


def regular_boundary(path: tuple) -> dict:
    """Alternating face sum of a regular path, irregular faces dropped.

    Returns {face: coefficient} with coefficients in {1, -1} before any
    field reduction.
    """
    if any(path[k - 1] == path[k] for k in range(1, len(path))):
        raise ValueError(f"path {path!r} is not regular")
    if len(path) < 2:
        return {}
    out: dict = {}
    sign = 1
    for i in range(len(path)):
        face = path[:i] + path[i + 1 :]
        # only the seam around the removed vertex can break regularity
        if not (0 < i < len(path) - 1) or path[i - 1] != path[i + 1]:
            out[face] = out.get(face, 0) + sign
        sign = -sign
    return {face: c for face, c in out.items() if c}


def sublevel(g: WeightedDigraph, a: float) -> WeightedDigraph:
    """Same vertices, edges of weight <= a."""
    return WeightedDigraph(g.vertices, {e: w for e, w in g.weights.items() if w <= a})


def superlevel(g: WeightedDigraph, a: float) -> WeightedDigraph:
    """Same vertices, edges of weight >= a."""
    return WeightedDigraph(g.vertices, {e: w for e, w in g.weights.items() if w >= a})


def simplicial_boundary(simplex: tuple) -> dict:
    """Alternating face sum under the sorted-vertex orientation."""
    if any(simplex[i] >= simplex[i + 1] for i in range(len(simplex) - 1)):
        raise ValueError(f"simplex {simplex!r} is not sorted by the vertex order")
    if len(simplex) < 2:
        return {}
    out = {}
    sign = 1
    for i in range(len(simplex)):
        out[simplex[:i] + simplex[i + 1 :]] = sign
        sign = -sign
    return out
