"""Persistence pairings and barcodes for filtered graded subgroups.

The boundary of a compatible basis generator is written over the basis
generators one dimension down followed by whichever extension generators
actually show up; reducing these matrices by left-to-right column
additions yields pivots, and a pivot landing in the basis block pairs the
column generator with the row generator.  The pairing determines the
barcode: an unpaired generator with vanishing reduced boundary opens an
interval that never closes, and a pair (i, j) with height(i) < height(j)
opens [height(i), height(j)).  Pairs whose pivot falls in the extension
block, and pairs with height(i) >= height(j), contribute nothing; both
situations are impossible for subcomplex filtrations but routine here.

``persistent_betti_oracle`` recomputes the persistent Betti table from
the stage cycle and boundary spaces by dense elimination, with no pivots
involved, and is the ground truth the pairing route is tested against.
Its one-stage table is the homology of a store, which the front ends'
``path_homology`` and ``embedded_homology`` read through
``_betti_numbers``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .field import SparseMatrix, reduce
from .graded import FilteredGradedSubgroup, image_matrix, unit_matrix, window_table

__all__ = [
    "Pairing",
    "Barcode",
    "BoundaryMatrices",
    "build_matrices",
    "compute_pairings",
    "barcode",
    "persistent_betti_oracle",
    "betti_table_from_barcode",
]


@dataclass(frozen=True)
class Pairing:
    """Pivot-derived pairs between dimensions dim and dim+1.

    ``pairs`` holds (i, j): basis index i in dimension dim paired with
    basis index j in dimension dim+1.  ``unpaired_cycles`` are the
    dimension-dim basis indices whose reduced boundary column vanished and
    that no pair claims.
    """

    dim: int
    pairs: frozenset
    unpaired_cycles: frozenset


class Barcode:
    """Multiset of intervals (dim, birth, death), death a stage or math.inf."""

    __slots__ = ("intervals",)

    def __init__(self, intervals=()):
        self.intervals = tuple(sorted(intervals))

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __eq__(self, other):
        return isinstance(other, Barcode) and other.intervals == self.intervals

    def __repr__(self):
        return f"Barcode({list(self.intervals)})"


@dataclass(frozen=True)
class BoundaryMatrices:
    """mats[p] is the boundary matrix of dimension p+1 basis generators.

    Each is a ``SparseMatrix``: CSR arrays with the rows sorted within each
    column, and the low of every column.  Rows of mats[p]: the dimension-p
    basis generators in compatible order, then the extension generators
    that appear, in id order (the order of their universe rows).
    ``basis_counts[p]`` is the number of dimension-p basis generators, i.e.
    the size of the basis row block.
    """

    mats: tuple
    basis_counts: tuple


def build_matrices(f, p_max: int) -> BoundaryMatrices:
    """Boundary matrices 0..p_max of a filtration, read from ``f.layout(p)``.

    ``f`` is a ``FilteredGradedSubgroup`` or an ``ExtendedInput``, whose
    layout is the cone.  ``f.layout(p)`` gives the ids of the basis rows of
    matrix p in compatible order, and its columns as CSR arrays over the
    same ids.  One position array places every row: the basis rows first,
    then every other id that appears, in id order, as an extension row.
    Both kinds of ``f`` hold a validated store, so every such id is a
    generator listed one dimension below the column's generator.  The
    columns keep their CSR arrays; only the entries are renumbered and
    sorted by row within each column.  A negative p_max, or one above what
    the store was built for (``GradedSubgroup.check_p_max``), raises
    ValueError.
    """
    f.graded.check_p_max(p_max)
    mats, basis_counts = [], []
    for p in range(p_max + 1):
        size, rows, (indptr, faces, coeffs) = f.layout(p)
        position = np.full(size, -1, dtype=np.int64)
        position[rows] = np.arange(len(rows))
        appears = np.zeros(size, dtype=bool)
        appears[faces] = True
        extension = np.flatnonzero(appears & (position < 0))
        position[extension] = len(rows) + np.arange(len(extension))
        at = position[faces]
        column = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        # by column, then by row within it; the columns are in order already, which a stable sort exploits
        order = np.argsort(column * size + at, kind="stable")
        mats.append(SparseMatrix(len(rows) + len(extension), indptr, at[order], coeffs[order], f.graded.q))
        basis_counts.append(len(rows))
    basis_counts.append(mats[-1].num_cols)  # the columns of the last matrix are the next basis
    return BoundaryMatrices(tuple(mats), tuple(basis_counts))


def compute_pairings(bm: BoundaryMatrices, clearing: bool = True) -> list[Pairing]:
    """Reduce every boundary matrix and collect pairs and surviving cycles.

    Matrices are processed in decreasing dimension.  With clearing on, a
    column whose generator was already paired one dimension up is zeroed
    without reduction; the output is identical either way.  The cycles of
    dimension p are the columns of matrix p - 1 that claimed no pivot row
    (all of them for p = 0), less the rows that matrix p pairs.
    """
    mats = bm.mats
    pairs_at: dict[int, set] = {}
    claimed: dict[int, set] = {-1: set()}  # per matrix, the columns that do not vanish
    skip: set = set()
    for p in range(len(mats) - 1, -1, -1):
        pivots = reduce(mats[p], skip_columns=skip)
        n = bm.basis_counts[p]
        pairs_at[p] = {(r, c) for r, c in pivots.items() if r < n}
        claimed[p] = set(pivots.values())
        if clearing:
            skip = {r for r, _ in pairs_at[p]}
    out = []
    for p in range(len(mats)):
        cycles = set(range(bm.basis_counts[p])) - claimed[p - 1] - {r for r, _ in pairs_at[p]}
        out.append(Pairing(p, frozenset(pairs_at[p]), frozenset(cycles)))
    return out


def barcode(pairings, f: FilteredGradedSubgroup) -> Barcode:
    intervals = []
    for pairing in pairings:
        p = pairing.dim
        heights_p = f.heights.get(p, [])
        heights_up = f.heights.get(p + 1, [])
        for i in pairing.unpaired_cycles:
            intervals.append((p, heights_p[i], math.inf))
        for i, j in pairing.pairs:
            b, d = heights_p[i], heights_up[j]
            if b < d:
                intervals.append((p, b, d))
    return Barcode(intervals)


def persistent_betti_oracle(f: FilteredGradedSubgroup, p_max: int) -> dict:
    """Ranks of H_p(stage i) -> H_p(stage j) for all 1 <= i <= j <= N.

    The image of the map induced by inclusion has dimension
    dim(Z_i + B_j) - dim(B_j), where Z_i is the stage-i cycle space and B_j
    the stage-j boundary space, both written in universe coordinates.
    B_j is spanned by the first stage_prefix(p+1, j) boundary columns, so
    the table is ``window_table`` over those columns, which over F_2
    eliminates them once per dimension.  The stage-i cycles of the
    supremum complex are the cycles of D^i_p plus d(D^i_{p+1}), and every
    B_j with j >= i contains the latter, so Z_i may be taken as the cycles
    of D^i_p, which ``stage_cycles`` builds for every stage from one kernel
    of the dimension-p boundary images.  A p_max the store cannot serve
    raises ValueError, as in ``build_matrices``.
    """
    g, q = f.graded, f.q
    g.check_p_max(p_max)
    stages = range(1, f.num_stages + 1)
    table: dict = {}
    for p in range(p_max + 1):
        rows, bound = f.rows(p), image_matrix(g, p + 1, f.rows(p + 1))
        cuts = [f.stage_prefix(p, i) for i in stages]
        ends = [f.stage_prefix(p + 1, j) for j in stages]
        ranks = window_table(unit_matrix(g, p, rows), image_matrix(g, p, rows), cuts, bound, ends, q)
        table.update(((p, i, j), r) for (i, j), r in ranks.items())
    return table


def _betti_numbers(graded, p_max: int) -> list[int]:
    """dim H_p of a store's supremum complex S for p = 0..p_max.

    The cycles of S_p are Z(D_p) + d(D_{p+1}) and its boundaries
    d(D_{p+1}), so dim H_p = dim(Z(D_p) + dD_{p+1}) - dim(dD_{p+1}): the
    (p, 1, 1) entry of ``persistent_betti_oracle`` on the filtration that
    puts every basis generator at stage 1.  Building that filtration
    checks the store's d∘d = 0.
    """
    f = FilteredGradedSubgroup(graded, {p: np.ones(len(graded.basis_rows(p)), dtype=np.int64) for p in graded.dims()}, 1)
    table = persistent_betti_oracle(f, p_max)
    return [table[(p, 1, 1)] for p in range(p_max + 1)]


def betti_table_from_barcode(bc, p_max: int, num_stages: int) -> dict:
    """Interval counts over stage windows, in the same shape as the oracle table.

    ``bc`` is a ``Barcode`` or any iterable of (dim, birth, death) triples.
    """
    table = {
        (p, i, j): 0
        for p in range(p_max + 1)
        for i in range(1, num_stages + 1)
        for j in range(i, num_stages + 1)
    }
    for p, b, d in bc:
        if p > p_max:
            continue
        top = num_stages if d == math.inf else min(int(d) - 1, num_stages)
        for i in range(b, num_stages + 1):
            for j in range(i, top + 1):
                table[(p, i, j)] += 1
    return table
