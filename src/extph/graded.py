"""Graded subgroups of a chain complex, and the rank arithmetic of the oracles.

A graded subgroup here is a choice, per dimension p, of a sub-list of an
explicitly listed generator universe: the *basis* generators span the
subgroup D_p, the *extension* generators are the extra coordinates needed
to write down boundaries (the subgroup need not be closed under the
boundary map).  All boundary data is given over the listed universe, so
d∘d = 0 is checkable and the supremum complex S_p = D_p + d(D_{p+1}), the
smallest subcomplex containing D_*, can be computed.  Its homology is the
homology of the subgroup.

The store is arrays indexed by universe row.  Per dimension p it keeps
the number of basis and extension generators and the boundary of
dimension p as CSR arrays: ``indptr``, the faces as dimension-(p-1)
universe rows, and coefficients nonzero mod q.  The front ends build
these arrays directly from vertex-id rows (``cell_store``), and such a
store keeps the vertex names and the id rows instead of labels: the
label lists (``basis``, ``extension``, ``universe``; a label is the
tuple of a row's vertex names) are built on first access, for messages
and the hand-built API.  The dict constructor and ``from_arrays`` take
their labels (any hashable works) as given, and the dict constructor
converts hand-built boundaries once.  A store is closed once it is
built: every constructor rejects a face that is not a universe row one
dimension down, so only d∘d = 0 is left to check, on the arrays, once
per store.

A filtration is a store plus a height per basis generator, given per
dimension as integers aligned with the store's basis: its compatible
basis is a stable argsort of those heights, so a stage is a prefix of it.
There is no view or copy of the store; building a filtration validates
the store (once per store) and every height, and names a generator only
in the message of a check that fails.

Every homology number of the package is a window rank
dim(Z_u + B_v) - dim(B_v) of a persistence module, and ``window_table``
fills a dimension's table of them with ``stage_cycles`` and
``window_ranks``, each of which eliminates its matrix once per
dimension: the kernel of all of a dimension's boundary images gives
every stage's cycles, and one elimination of the denominator chain
serves every source.  The homology of a subgroup is the one window of
its one-stage filtration: the cycles of S_p are Z(D_p) + d(D_{p+1}) and
its boundaries d(D_{p+1}).  This side is numpy int64 matrices mod q
throughout: ``unit_matrix`` and ``image_matrix`` fill them straight from
universe rows and the store's CSR arrays, and every rank comes from the
one left-to-right sweep of ``field``, the same at every q, never from
the sparse columns and pivot reduction of the pairing algorithms, so the
two code paths stay independent.
"""

from bisect import bisect_left, bisect_right
from functools import cached_property
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import GradedValidationError
from .field import _pack, _sweep, dense_kernel, modulus

__all__ = [
    "BASIS",
    "EXTENSION",
    "PATHS",
    "SIMPLICES",
    "GeneratorId",
    "GradedSubgroup",
    "FilteredGradedSubgroup",
    "Layout",
    "cell_store",
    "stage_heights",
    "take_columns",
    "unit_matrix",
    "image_matrix",
    "stage_cycles",
    "window_ranks",
    "window_table",
]

BASIS = "basis"
EXTENSION = "extension"

_NONE = np.zeros(0, dtype=np.int64)

# what the id rows of a cell store are: allowed paths of a digraph, or hyperedges
PATHS = "paths"
SIMPLICES = "simplices"


class GeneratorId(NamedTuple):
    """Convenience label for hand-built instances; any hashable works."""

    dim: int
    kind: str
    index: int


def _csr(indptr, faces, coeffs):
    return (
        np.asarray(indptr, dtype=np.int64),
        np.asarray(faces, dtype=np.int64),
        np.asarray(coeffs, dtype=np.int64),
    )


def take_columns(csr, cols):
    """The columns ``cols`` of a CSR block (indptr, faces, coeffs), as a CSR block."""
    indptr, faces, coeffs = csr
    cols = np.asarray(cols, dtype=np.int64)
    starts = indptr[cols]
    lens = indptr[cols + 1] - starts
    out = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    at = np.repeat(starts - out[:-1], lens) + np.arange(out[-1])
    return out, faces[at], coeffs[at]


def _trim(sizes):
    """{p: (basis count, extension count)} for each dimension up to the highest one that lists a generator."""
    top = max((p for p, counts in sizes.items() if any(counts)), default=-1)
    return {p: sizes.get(p, (0, 0)) for p in range(top + 1)}


def _per_dim(basis, extension):
    """Basis and extension as lists for each dimension up to the highest one that lists a generator."""
    dims = _trim({p: (len(basis.get(p, ())), len(extension.get(p, ()))) for p in set(basis) | set(extension)})
    return {p: list(basis.get(p, ())) for p in dims}, {p: list(extension.get(p, ())) for p in dims}


def _integers(a) -> bool:
    return a.ndim == 1 and (a.dtype.kind in "iu" or not len(a))


class GradedSubgroup:
    """Per-dimension basis/extension generator lists plus boundary arrays.

    ``boundary`` maps a generator label to a dict ``{face_label: coeff}``
    describing its boundary one dimension down; omitted labels have zero
    boundary (dimension-0 generators always do).  The *universe* order,
    which defaults to basis followed by extension, gives each generator
    its row.  The dicts are converted once, and construction raises
    GradedValidationError naming every boundary given for an unlisted
    generator, coefficient that is not an integer, nonzero boundary of a
    dimension-0 generator and face not listed one dimension down, joined
    by "; ".  ``from_arrays`` builds a store from CSR arrays without
    hashing any label, and ``cell_store`` one whose labels are built only
    when ``basis``, ``extension`` or ``universe`` is first read.
    """

    def __init__(self, basis, extension=None, boundary=None, q=2, universe=None):
        basis, extension = _per_dim(basis, extension or {})
        n = len(basis)
        if universe is None:
            universe = {p: basis[p] + extension[p] for p in range(n)}
        else:
            universe = {p: list(universe.get(p, ())) for p in range(n)}
            for p in range(n):
                listed = basis[p] + extension[p]
                if len(universe[p]) != len(listed) or set(universe[p]) != set(listed):
                    raise ValueError(f"dimension {p}: universe is not a permutation of basis+extension")
        where = {}
        for p in range(n):
            for r, label in enumerate(universe[p]):
                if label in where:
                    if where[label][0] == p:
                        raise ValueError(f"dimension {p}: duplicate generator labels")
                    raise ValueError(f"generator label {label!r} listed in two dimensions")
                where[label] = (p, r)
        q = modulus(q)
        boundary = boundary or {}
        problems = [f"boundary given for unlisted generator {label!r}" for label in boundary if label not in where]
        csr = {}
        for p in range(n):
            indptr, faces, coeffs = [0], [], []
            for label in universe[p]:
                outside = []  # nonzero faces that are not listed one dimension down
                for face, c in boundary.get(label, {}).items():
                    if not isinstance(c, Integral):
                        problems.append(f"boundary of {label!r}: coefficient {c!r} of {face!r} is not an integer")
                    elif c % q:
                        at = where.get(face)
                        if p and at is not None and at[0] == p - 1:
                            faces.append(at[1])
                            coeffs.append(c % q)
                        else:
                            outside.append(face)
                if outside and p == 0:
                    problems.append(f"dimension-0 generator {label!r} has a nonzero boundary")
                elif outside:
                    problems.append(f"boundary of {label!r} references unlisted generator {outside[0]!r}")
                indptr.append(len(faces))
            csr[p] = _csr(indptr, faces, coeffs)
        if problems:
            raise GradedValidationError("; ".join(problems))
        rows = {p: np.array([where[label][1] for label in basis[p]], dtype=np.int64) for p in range(n)}
        self._setup(q, {p: (len(basis[p]), len(extension[p])) for p in range(n)}, rows, csr)
        self.basis, self.extension, self.universe = basis, extension, universe

    @classmethod
    def from_arrays(cls, basis, extension, boundaries, q=2, cells=None) -> "GradedSubgroup":
        """A store whose universe is basis then extension, with CSR boundary arrays.

        ``boundaries[p]`` is (indptr, faces, coeffs): column k, entries
        indptr[k]:indptr[k + 1], is the boundary of the k-th dimension-p
        universe generator, its faces are dimension-(p-1) universe rows and
        its coefficients are integers nonzero mod q.  Arrays that do not fit
        the universe, faces that are not integers included, raise
        ValueError; coefficients that are not integers nonzero mod q raise
        GradedValidationError.  ``cells``, when given, holds per dimension
        the vertex-id rows the basis was built from, for the front end that
        computes heights, and must list at least one dimension.
        """
        basis, extension = _per_dim(basis, extension)
        self = cls._from_csr({p: (len(basis[p]), len(extension[p])) for p in basis}, boundaries, q, cells, None)
        self.basis, self.extension = basis, extension
        self.universe = {p: basis[p] + extension[p] for p in basis}
        return self

    @classmethod
    def _from_csr(cls, sizes, boundaries, q, cells, closure) -> "GradedSubgroup":
        """A store of ``sizes[p]`` = (basis count, extension count) generators, without labels; see ``from_arrays``.

        ``closure`` names how ``cells`` were closed under faces (``cell_store``).
        """
        if cells is not None and not cells:
            raise ValueError("cells must list the id rows of at least one dimension")
        q, csr = modulus(q), {}
        for p, counts in sizes.items():
            size, below = sum(counts), sum(sizes.get(p - 1, (0, 0)))
            indptr, faces, coeffs = map(np.asarray, boundaries.get(p) or ([0] * (size + 1), [], []))
            ok = _integers(indptr) and _integers(faces) and coeffs.ndim == 1 and len(indptr) == size + 1
            ok = ok and indptr[0] == 0 and indptr[-1] == len(faces) == len(coeffs)
            if not ok or (np.diff(indptr) < 0).any() or len(faces) and (faces.min() < 0 or faces.max() >= below):
                raise ValueError(f"dimension {p}: boundary arrays do not fit the universe")
            if not _integers(coeffs) or not (coeffs % q).all():
                raise GradedValidationError(f"dimension {p}: boundary coefficients are not integers nonzero mod {q}")
            csr[p] = _csr(indptr, faces, coeffs)
        self = cls.__new__(cls)
        self._setup(q, sizes, {p: np.arange(nb, dtype=np.int64) for p, (nb, _) in sizes.items()}, csr)
        self.cells, self.closure = cells, closure
        return self

    def _setup(self, q, sizes, rows, csr):
        self.q = q
        self.max_dim = len(sizes) - 1
        self._sizes, self._basis_rows, self._csr = sizes, rows, csr
        self.cells = self.closure = None
        self.names = self._extension_rows = None  # a cell store's vertex names and extension id rows
        self._where = None  # label -> (dim, universe row, basis position or -1), built on first use
        self._problems = None  # the memoised outcome of validate()

    # -- labels, built on first access for a cell store --------------------

    def _labels(self, rows):
        names = np.array(self.names, dtype=object)
        return list(map(tuple, names[rows].tolist()))

    @cached_property
    def basis(self) -> dict:
        """Per dimension, the labels of the basis generators."""
        return {p: self._labels(self.cells[p]) for p in self.dims()}

    @cached_property
    def extension(self) -> dict:
        """Per dimension, the labels of the extension generators."""
        return {p: self._labels(self._extension_rows[p]) for p in self.dims()}

    @cached_property
    def universe(self) -> dict:
        """Per dimension, the labels of the universe: basis then extension for a cell store."""
        return {p: self.basis[p] + self.extension[p] for p in self.dims()}

    # -- introspection -----------------------------------------------------

    def dims(self):
        return range(self.max_dim + 1)

    def universe_size(self, p: int) -> int:
        return sum(self._sizes.get(p, (0, 0)))

    def basis_rows(self, p: int) -> np.ndarray:
        """Universe rows of the dimension-p basis generators, in basis order."""
        return self._basis_rows.get(p, _NONE)

    def boundary_csr(self, p: int):
        """Boundary of dimension p as (indptr, faces, coeffs) over the dimension-(p-1) universe rows.

        One column per dimension-p universe row.
        """
        csr = self._csr.get(p)
        return csr if csr is not None else _csr([0] * (self.universe_size(p) + 1), [], [])

    def check_p_max(self, p_max: int) -> None:
        """Raise ValueError unless homology up to dimension p_max can be read from the store.

        Homology up to p_max needs the generators up to dimension p_max + 1.
        A front end's store lists its basis only up to there, the top of its
        ``cells``; a store without cells is a whole complex.
        """
        if p_max < 0:
            raise ValueError("p_max must be nonnegative")
        if self.cells is not None and p_max >= max(self.cells):
            top = max(self.cells)
            raise ValueError(
                f"the store lists generators up to dimension {top}: it serves p_max up to {top - 1}, not {p_max}"
            )

    def _locate(self, label):
        """(dimension, universe row, basis position or -1) of a listed label; KeyError otherwise."""
        if self._where is None:
            self._where = {}
            for p in self.dims():
                position = np.full(self.universe_size(p), -1, dtype=np.int64)
                position[self._basis_rows[p]] = np.arange(len(self._basis_rows[p]))
                for r, (label_r, k) in enumerate(zip(self.universe[p], position.tolist())):
                    self._where[label_r] = (p, r, k)
        return self._where[label]

    def row_of(self, p: int, label) -> int:
        dim, row, _ = self._locate(label)
        if dim != p:
            raise KeyError(label)
        return row

    def boundary_dict(self, label) -> dict:
        """Boundary of a listed generator as {face: nonzero coeff mod q}, derived from the arrays."""
        p, row, _ = self._locate(label)
        indptr, faces, coeffs = self._csr[p]
        lo, hi = indptr[row], indptr[row + 1]
        return {self.universe[p - 1][f]: c for f, c in zip(faces[lo:hi].tolist(), coeffs[lo:hi].tolist())}

    def validate(self) -> None:
        """Check d∘d = 0; closure was checked when the store was built.

        Raises GradedValidationError naming every problem found, joined by
        "; ".  The universe and boundaries never change after construction,
        so the check runs once per store: its problems are kept and raised
        again on later calls.
        """
        if self._problems is None:
            self._problems = "; ".join(self._store_problems())
        if self._problems:
            raise GradedValidationError(self._problems)

    def _store_problems(self) -> list:
        problems = []
        for p in range(2, self.max_dim + 1):
            k = self._first_nonzero_square(p)
            if k is not None:
                problems.append(f"boundary of boundary of {self.universe[p][k]!r} is nonzero")
        return problems

    def _first_nonzero_square(self, p: int):
        """The first dimension-p universe row whose boundary's boundary is nonzero mod q, or None."""
        q = self.q
        return _first_nonzero_product(self._csr[p], self._csr[p - 1], self.universe_size(p - 2), q, parity=q == 2)


def _first_nonzero_product(outer, inner, n_low: int, q: int, parity: bool):
    """The first column of the CSR block ``outer`` whose product with ``inner`` is nonzero mod q, or None.

    ``inner`` has a column for each row of ``outer`` and rows below
    ``n_low``.  Every entry (column j, face i, c) of ``outer`` meets every
    entry (i, k, c') of ``inner``, and the products c c' sum by the key
    (j, k).  With ``parity``, which needs every coefficient odd (as over
    F2), a sum vanishes mod 2 exactly when its key occurs an even number
    of times: the sorted keys then pair up, and the keys are grouped and
    counted only when they do not.  Otherwise the products are summed
    mod q key by key.  The keys are sorted, so the first bad key names the
    column.
    """
    indptr, faces, coeffs = outer
    inner_ptr, inner_faces, inner_coeffs = inner
    starts = inner_ptr[faces]
    fan = inner_ptr[faces + 1] - starts
    total = int(fan.sum())
    if not total:
        return None
    at = np.repeat(starts - np.cumsum(fan) + fan, fan) + np.arange(total)  # the inner entries, face by face
    keys = np.repeat(np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), fan) * n_low + inner_faces[at]
    if parity:
        keys.sort()
        if not total % 2 and (keys[0::2] == keys[1::2]).all():
            return None
        values, q = np.ones(total, dtype=np.int64), 2
    else:
        values = (np.repeat(coeffs, fan) * inner_coeffs[at]) % q
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
    runs = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    bad = keys[runs[np.add.reduceat(values, runs) % q != 0]]
    return int(bad[0] // n_low) if len(bad) else None


def _lex_ranks(rows: np.ndarray, n: int) -> np.ndarray:
    """Ranks of the rows of an (m, k) array of ids below n, equal rows equal, in lexicographic order.

    Column by column, the key of a prefix is combined with the next column
    as key * n + id, so a key is its row read in base n, and the keys are
    ranked densely at the end.  Before a key could pass 2**62, the keys so
    far are replaced by their ranks, so no key overflows whatever k is.
    """
    key, bound = rows[:, 0], n
    for j in range(1, rows.shape[1]):
        if bound * n > 2**62:
            key, bound = np.unique(key, return_inverse=True)[1].reshape(-1), len(key)
        key, bound = key * n + rows[:, j], bound * n
    return np.unique(key, return_inverse=True)[1].reshape(-1)


def _faces(cells: np.ndarray, q: int):
    """Codimension-one faces of vertex-id rows, as (face rows, their column, their coefficient).

    Deleting column i gives coefficient (-1)^i; faces are listed by
    column, then by i.  An inner deletion that would put one vertex twice
    in a row is dropped, as the regular path complex does; a simplex row,
    sorted and distinct, keeps every face.
    """
    m, k = cells.shape
    keep = np.ones((m, k), dtype=bool)
    keep[:, 1:-1] = cells[:, :-2] != cells[:, 2:]  # deleting column i joins columns i - 1 and i + 1
    keep = keep.reshape(-1)
    faces = cells[:, [np.delete(np.arange(k), i) for i in range(k)]].reshape(m * k, k - 1)
    return faces[keep], np.repeat(np.arange(m), k)[keep], np.tile(np.where(np.arange(k) % 2, q - 1, 1), m)[keep]


def cell_store(names, basis_cells, q: int = 2, closure=None) -> GradedSubgroup:
    """The store of vertex-id rows: a basis, its faces as the extension, their boundaries.

    ``names`` are the vertex names by id; ``basis_cells[p]`` holds the
    dimension-p basis as an (n_p, p+1) array of vertex ids in
    lexicographic order, and a label is the tuple of its vertex names.
    The extension is closed top-down: the faces of dimension p-1 of every
    dimension-p generator that are not basis rows, in lexicographic order.
    A face that would repeat a vertex in adjacent columns is dropped (path
    complexes); a simplex, a sorted row of distinct ids, keeps every face.
    The store keeps ``names``, the rows as its ``cells`` and ``closure``,
    the name of what the rows are (``PATHS`` or ``SIMPLICES``), so that a
    front end can check a store by its record; it builds no label until
    one is read.
    """
    n, top = len(names), max(basis_cells)
    extension = {top: np.zeros((0, top + 1), dtype=np.int64)}
    boundaries = {}
    for p in range(top, 0, -1):
        universe = np.vstack([basis_cells[p], extension[p]])
        face_rows, cols, coeffs = _faces(universe, q)
        below = basis_cells[p - 1]
        ranks = _lex_ranks(np.vstack([below, face_rows]), n)
        nb, face_ranks = len(below), ranks[len(below):]
        row_of_rank = np.full(int(ranks.max(initial=-1)) + 1, -1, dtype=np.int64)
        row_of_rank[ranks[:nb]] = np.arange(nb)
        appears = np.zeros(len(row_of_rank), dtype=bool)
        appears[face_ranks] = True
        new = np.flatnonzero(appears & (row_of_rank < 0))  # ranks follow lexicographic order
        row_of_rank[new] = nb + np.arange(len(new))
        example = np.empty(len(row_of_rank), dtype=np.int64)
        example[face_ranks] = np.arange(len(face_ranks))
        extension[p - 1] = face_rows[example[new]]
        indptr = np.zeros(len(universe) + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=len(universe)), out=indptr[1:])
        boundaries[p] = (indptr, row_of_rank[face_ranks], coeffs)
    sizes = _trim({p: (len(basis_cells[p]), len(extension[p])) for p in basis_cells})
    store = GradedSubgroup._from_csr(sizes, boundaries, q, basis_cells, closure)
    store.names, store._extension_rows = tuple(names), extension
    return store


def stage_heights(graded: GradedSubgroup, heights) -> dict:
    """Heights per dimension, aligned with ``graded.basis``, from a map of each basis generator to its stage.

    Raises GradedValidationError for a basis generator with no height or
    with a height that is not an integer.
    """
    out = {}
    for p in graded.dims():
        out[p] = []
        for label in graded.basis[p]:
            if label not in heights:
                raise GradedValidationError(f"generator {label!r} has no height")
            h = heights[label]
            if not isinstance(h, Integral):
                raise GradedValidationError(f"height {h!r} of generator {label!r} is not an integer")
            out[p].append(h)
    return out


def _checked_heights(graded: GradedSubgroup, given, p: int, num_stages: int) -> np.ndarray:
    """The heights of dimension p as int64, checked against the store's basis; labels only name a fault."""
    n, h = len(graded.basis_rows(p)), np.asarray(given)
    if len(h) < n:
        raise GradedValidationError(f"generator {graded.basis[p][len(h)]!r} has no height")
    if len(h) > n:
        raise GradedValidationError(f"dimension {p}: {len(h)} heights for {n} basis generators")
    if h.dtype.kind not in "iu":
        for k, x in enumerate(given):
            if not isinstance(x, Integral):
                raise GradedValidationError(f"height {x!r} of generator {graded.basis[p][k]!r} is not an integer")
        h = h.astype(np.int64)
    outside = np.flatnonzero((h < 1) | (h > num_stages))
    if len(outside):
        i = outside[0]
        raise GradedValidationError(
            f"dimension {p}: height {int(h[i])} of generator {graded.basis[p][i]!r} outside [1, {num_stages}]"
        )
    return h


class Layout(NamedTuple):
    """Rows and columns of one boundary matrix, over integer ids below ``size``.

    ``rows`` are the ids of the basis rows in compatible order;
    ``columns`` is a CSR block (indptr, faces, coeffs) with one column per
    generator one dimension up, its faces given as ids.
    """

    size: int
    rows: np.ndarray
    columns: tuple


class FilteredGradedSubgroup:
    """A graded subgroup with a stage height per basis generator.

    ``graded`` is the generator store itself, checked by its ``validate``.
    ``heights[p]`` is a sequence of integer stages in [1, num_stages],
    aligned with ``graded.basis[p]`` (``stage_heights`` makes it from a
    map).  ``rows(p)`` and ``heights[p]`` are the universe rows of the
    store's basis and their heights sorted stably by height: a compatible
    basis for the stage filtration, whose stage i is spanned by a prefix.
    ``basis[p]``, their labels, is built on first access.
    """

    def __init__(self, graded: GradedSubgroup, heights, num_stages: int):
        graded.validate()
        self.graded = graded
        self.num_stages = int(num_stages)
        self.heights, self._given, self._rows = {}, {}, {}
        for p in graded.dims():
            h = _checked_heights(graded, heights.get(p, ()), p, self.num_stages)
            order = np.argsort(h, kind="stable")
            self._given[p] = h
            self._rows[p] = graded.basis_rows(p)[order]
            self.heights[p] = h[order].tolist()

    @cached_property
    def basis(self) -> dict:
        """Per dimension, the labels of the basis in compatible order."""
        universe = self.graded.universe
        return {p: [universe[p][r] for r in rows.tolist()] for p, rows in self._rows.items()}

    @property
    def q(self) -> int:
        return self.graded.q

    def rows(self, p: int) -> np.ndarray:
        """Universe rows of the dimension-p basis in compatible order."""
        return self._rows.get(p, _NONE)

    def height_of(self, label) -> int:
        p, _, k = self.graded._locate(label)
        if k < 0:
            raise KeyError(label)
        return int(self._given[p][k])

    def stage_prefix(self, p: int, stage: int) -> int:
        """Number of dimension-p basis generators present at a stage."""
        return bisect_right(self.heights.get(p, []), stage)

    def layout(self, p: int) -> Layout:
        """Rows and columns of boundary matrix p, for ``build_matrices``.

        Ids are dimension-p universe rows.  The rows are the dimension-p
        basis; the columns are the boundaries of the dimension-(p+1) basis.
        """
        g = self.graded
        return Layout(g.universe_size(p), self.rows(p), take_columns(g.boundary_csr(p + 1), self.rows(p + 1)))


def unit_matrix(graded: GradedSubgroup, p: int, rows) -> np.ndarray:
    """The dimension-p universe rows ``rows`` as unit columns."""
    rows = np.asarray(rows, dtype=np.int64)
    out = np.zeros((graded.universe_size(p), len(rows)), dtype=np.int64)
    out[rows, np.arange(len(rows))] = 1
    return out


def image_matrix(graded: GradedSubgroup, p: int, rows) -> np.ndarray:
    """Boundaries of the dimension-p universe rows ``rows`` as columns over the dimension-(p-1) universe."""
    rows = np.asarray(rows, dtype=np.int64)
    indptr, faces, coeffs = take_columns(graded.boundary_csr(p), rows)
    out = np.zeros((graded.universe_size(p - 1), len(rows)), dtype=np.int64)
    out[faces, np.repeat(np.arange(len(rows)), np.diff(indptr))] = coeffs
    return out


# ---------------------------------------------------------------------------
# window ranks of a persistence module (every homology number)
# ---------------------------------------------------------------------------


def stage_cycles(units, images, prefixes, q: int) -> list:
    """The kernel of images[:, :k], written over units[:, :k], for each k in ``prefixes``.

    Over a compatible basis a prefix spans a stage, so these are its cycle
    spaces.  One kernel of all of ``images`` serves every prefix: the
    elimination runs left to right, so each kernel column is a free
    column plus earlier pivot columns, its last nonzero row is that free
    column, and the kernel of images[:, :k] is the leading kernel columns
    whose free column is below k, cut to their first k rows.  Those rows
    are all that units[:, :k] reads, so each prefix's cycles are the
    leading columns of units @ kernel.
    """
    ker = dense_kernel(images, q)
    free = len(ker) - 1 - np.argmax(ker[::-1] != 0, axis=0) if len(ker) else _NONE
    cycles = units[:, : len(ker)] @ ker
    return [cycles[:, : np.searchsorted(free, k)] for k in prefixes]


def window_ranks(sources, chain, ends, q: int):
    """Yield, for each source S_k, dim(S_k + C[:, :e]) - dim(C[:, :e]) for e in ends[k:].

    ``sources[k]`` is the numerator of the window starting at position
    k + 1, and ``ends`` lists the prefix length of each position's
    denominator, a column prefix of the one chain C.

    C is eliminated once.  Each of its packed columns carries its
    combination of C's columns, so a basis column's combination uses only
    pivot columns of C and its last nonzero coordinate is its own column.
    Each source column is then reduced against C's basis and a copy of it
    that also holds the source's earlier columns.  A column that claims a
    fresh low is independent modulo C.  One whose rows vanish leaves its
    expression over C's pivot columns, unique since they are independent,
    and these expressions span S_k ∩ C.  Eliminated by their last nonzero
    coordinate, they leave a basis with distinct tops T; a zero expression
    comes from a dependent source column and is dropped.  S_k ∩ C[:, :e]
    is spanned by the basis vectors whose top is below e, so the entry is
    dim S_k - dim(S_k ∩ C[:, :e]) = fresh + #{t in T : t >= e}.  The
    sweep is ``field``'s, the same at every q.
    """
    n, basis = chain.shape[1], {}
    _sweep(_pack(chain, n, q, unit=True), n, basis, q)
    for k, source in enumerate(sources):
        fresh, inside = _sweep(_pack(source, n, q), n, dict(basis), q)
        lows: dict = {}
        _sweep(inside, 0, lows, q)
        tops = sorted(lows)
        yield [len(fresh) + len(tops) - bisect_left(tops, e) for e in ends[k:]]


def window_table(units, images, cuts, chain, ends, q: int) -> dict:
    """{(u, v): dim(Z_u + C[:, :ends[v-1]]) - dim(C[:, :ends[v-1]])} for 1 <= u <= v <= len(cuts).

    Z_u is the cycle space of the prefix cuts[u-1] (``stage_cycles``) and
    C the one chain whose prefixes are the denominators (``window_ranks``),
    so the entry is the rank of the map from position u to position v of
    a persistence module.  Every homology number of the package is read
    from such a table.
    """
    sources = stage_cycles(units, images, cuts, q)
    rows = window_ranks(sources, chain, ends, q)
    return {(u, v): r for u, row in enumerate(rows, start=1) for v, r in enumerate(row, start=u)}
