"""Graded subgroups of a chain complex, and the rank arithmetic of the oracles.

A graded subgroup here is a choice, per dimension p, of a sub-list of an
explicitly listed generator universe: the *basis* generators span the
subgroup D_p, the *extension* generators are the extra coordinates needed
to write down boundaries (the subgroup need not be closed under the
boundary map).  All boundary data is given over the listed universe, so
d∘d = 0 is checkable and the supremum complex S_p = D_p + d(D_{p+1}), the
smallest subcomplex containing D_*, can be computed.  Its homology is the
homology of the subgroup, which ``homology_dims`` counts by rank
arithmetic on the dense ``ChainComplexSlice`` that ``sup_complex`` builds.

A filtration is a store plus a height per basis generator: its compatible
basis is the store's basis sorted stably by height, so a stage is a prefix
of it.  There is no view or copy of the store; building a filtration
validates the store (once per store) and every height.

The module oracles count window ranks dim(Z_u + B_v) - dim(B_v) of a
persistence module with ``stage_cycles`` and ``window_ranks``.  This side
is numpy int64 matrices mod q throughout: ``unit_matrix`` and
``image_matrix`` fill them straight from the store's universe rows and
``GradedSubgroup.boundary_dict``, and every rank comes from
``pivot_columns``, never from the sparse columns and pivot reduction of
the pairing algorithms, so the two code paths stay independent.
"""

from bisect import bisect_right
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import GradedValidationError
from .field import (
    as_field,
    dense_kernel,
    dense_rank,
    dense_solve_many,
    pivot_columns,
    prefix_ranks,
)

__all__ = [
    "BASIS",
    "EXTENSION",
    "GeneratorId",
    "GradedSubgroup",
    "FilteredGradedSubgroup",
    "ChainComplexSlice",
    "sup_complex",
    "homology_dims",
    "unit_matrix",
    "image_matrix",
    "stage_cycles",
    "window_ranks",
]

BASIS = "basis"
EXTENSION = "extension"


class GeneratorId(NamedTuple):
    """Convenience label for hand-built instances; any hashable works."""

    dim: int
    kind: str
    index: int


class GradedSubgroup:
    """Per-dimension basis/extension generator lists plus boundary data.

    ``boundary`` maps a generator label to a dict ``{face_label: coeff}``
    describing its boundary one dimension down; omitted labels have zero
    boundary (dimension-0 generators always do).  The *universe* order,
    which defaults to basis followed by extension, gives each generator
    its row in the oracles' dense matrices.
    """

    def __init__(self, basis, extension=None, boundary=None, q=2, universe=None):
        self.field = as_field(q)
        extension = extension or {}
        dims = {p for p, labels in basis.items() if labels}
        dims |= {p for p, labels in extension.items() if labels}
        self.max_dim = max(dims) if dims else -1
        n = self.max_dim + 1
        self.basis = {p: list(basis.get(p, ())) for p in range(n)}
        self.extension = {p: list(extension.get(p, ())) for p in range(n)}
        if universe is None:
            self.universe = {p: self.basis[p] + self.extension[p] for p in range(n)}
        else:
            self.universe = {p: list(universe.get(p, ())) for p in range(n)}
            for p in range(n):
                listed = self.basis[p] + self.extension[p]
                if len(self.universe[p]) != len(listed) or set(self.universe[p]) != set(listed):
                    raise ValueError(f"dimension {p}: universe is not a permutation of basis+extension")
        self._row = {p: {label: i for i, label in enumerate(self.universe[p])} for p in range(n)}
        seen = set()
        for p in range(n):
            if len(self._row[p]) != len(self.universe[p]):
                raise ValueError(f"dimension {p}: duplicate generator labels")
            for label in self.universe[p]:
                if label in seen:
                    raise ValueError(f"generator label {label!r} listed in two dimensions")
                seen.add(label)
        q = self.field.q
        self._faces = {
            label: {face: r for face, c in faces.items() if (r := c % q)}
            for label, faces in (boundary or {}).items()
        }
        self._problems = None  # the memoised outcome of validate()

    # -- introspection -----------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    def dims(self):
        return range(self.max_dim + 1)

    def n_basis(self, p: int) -> int:
        return len(self.basis.get(p, ()))

    def universe_size(self, p: int) -> int:
        return len(self.universe.get(p, ()))

    def row_of(self, p: int, label) -> int:
        return self._row[p][label]

    def is_listed(self, p: int, label) -> bool:
        return label in self._row.get(p, ())

    def boundary_dict(self, label) -> dict:
        """Boundary of a generator as {face: nonzero coeff mod q}; shared, do not mutate."""
        return self._faces.get(label, {})

    def validate(self) -> None:
        """Check closure (all referenced faces listed) and d∘d = 0.

        Raises GradedValidationError naming every problem found, joined by
        "; ".  The universe and boundaries never change after construction,
        so the check runs once per store: its problems are kept and raised
        again on later calls.
        """
        if self._problems is None:
            self._problems = "; ".join(self._closure_problems())
        if self._problems:
            raise GradedValidationError(self._problems)

    def _closure_problems(self) -> list:
        problems = []
        for label in self._faces:
            if not any(label in row for row in self._row.values()):
                problems.append(f"boundary given for unlisted generator {label!r}")
        faces_of, empty = self._faces, {}
        for p in self.dims():
            row_prev = self._row.get(p - 1, empty)
            for label in self.universe[p]:
                faces = faces_of.get(label, empty)
                if p == 0 and faces:
                    problems.append(f"dimension-0 generator {label!r} has a nonzero boundary")
                elif not faces.keys() <= row_prev.keys():
                    face = next(f for f in faces if f not in row_prev)
                    problems.append(f"boundary of {label!r} references unlisted generator {face!r}")
        if problems:
            return problems
        q = self.field.q
        for p in range(2, self.max_dim + 1):
            for label in self.universe[p]:
                acc: dict = {}
                for face, c in faces_of.get(label, empty).items():
                    for face2, c2 in faces_of.get(face, empty).items():
                        if face2 in acc:
                            acc[face2] += c * c2
                        else:
                            acc[face2] = c * c2
                if any(v % q for v in acc.values()):
                    problems.append(f"boundary of boundary of {label!r} is nonzero")
                    break
        return problems


class FilteredGradedSubgroup:
    """A graded subgroup with a stage height per basis generator.

    ``graded`` is the generator store itself, checked by its ``validate``.
    ``heights`` maps each basis generator to an integer stage in
    [1, num_stages].  ``basis[p]`` is the store's dimension-p basis sorted
    stably by height, ``heights[p]`` the heights along it: a compatible
    basis for the stage filtration, whose stage i is spanned by a prefix.
    """

    def __init__(self, graded: GradedSubgroup, heights, num_stages: int):
        graded.validate()
        self.graded = graded
        self.num_stages = int(num_stages)
        self.basis, self.heights, self._height_of = {}, {}, {}
        for p in graded.dims():
            for label in graded.basis[p]:
                if label not in heights:
                    raise GradedValidationError(f"generator {label!r} has no height")
                h = heights[label]
                if not isinstance(h, Integral):
                    raise GradedValidationError(f"height {h!r} of generator {label!r} is not an integer")
                if not 1 <= h <= self.num_stages:
                    raise GradedValidationError(
                        f"dimension {p}: height {h} of generator {label!r} outside [1, {self.num_stages}]"
                    )
                self._height_of[label] = int(h)
            self.basis[p] = sorted(graded.basis[p], key=self._height_of.__getitem__)
            self.heights[p] = [self._height_of[label] for label in self.basis[p]]

    @property
    def field(self):
        return self.graded.field

    @property
    def q(self) -> int:
        return self.graded.q

    def height_of(self, label) -> int:
        return self._height_of[label]

    def stage_prefix(self, p: int, stage: int) -> int:
        """Number of dimension-p basis generators present at a stage."""
        return bisect_right(self.heights.get(p, []), stage)

    def layout(self, p: int):
        """Rows and columns of boundary matrix p, for ``build_matrices``.

        The rows are the dimension-p basis; the columns are the
        dimension-(p+1) basis generators with their boundaries.
        """
        g = self.graded
        return self.basis.get(p, []), ((label, g.boundary_dict(label)) for label in self.basis.get(p + 1, ()))


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


def unit_matrix(graded: GradedSubgroup, p: int, labels) -> np.ndarray:
    """The dimension-p generators ``labels`` as unit columns over their universe."""
    out = np.zeros((graded.universe_size(p), len(labels)), dtype=np.int64)
    for k, label in enumerate(labels):
        out[graded.row_of(p, label), k] = 1
    return out


def image_matrix(graded: GradedSubgroup, p: int, labels) -> np.ndarray:
    """Boundaries of the dimension-p ``labels`` as columns over the dimension-(p-1) universe."""
    out = np.zeros((graded.universe_size(p - 1), len(labels)), dtype=np.int64)
    for k, label in enumerate(labels):
        for face, c in graded.boundary_dict(label).items():
            if p == 0:
                raise GradedValidationError(f"dimension-0 generator {label!r} was given a nonzero boundary")
            if not graded.is_listed(p - 1, face):
                raise GradedValidationError(f"boundary of {label!r} references unlisted generator {face!r}")
            out[graded.row_of(p - 1, face), k] = c
    return out


def sup_complex(graded: GradedSubgroup, p_max: int) -> ChainComplexSlice:
    """Supremum complex S_p = D_p + d(D_{p+1}) of a graded subgroup.

    Dimensions are built up to p_max + 1; boundaries of dimension p_max + 2
    generators are ignored, which leaves every homology group up to p_max
    intact.  S_p is spanned by the pivot columns of [units of D_p |
    boundaries of D_{p+1}]: all of the units, then the boundaries outside
    the span of what precedes them.
    """
    q = graded.q
    # images[0] has no rows; building it rejects a boundary on a dimension-0 generator
    images = {p: image_matrix(graded, p, graded.basis.get(p, [])) for p in range(p_max + 2)}
    vectors, boundaries = {}, {}
    for p in range(p_max + 2):
        both = unit_matrix(graded, p, graded.basis.get(p, []))
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


# ---------------------------------------------------------------------------
# window ranks of a persistence module (the module oracles)
# ---------------------------------------------------------------------------


def stage_cycles(units, images, prefixes, q: int) -> list:
    """The kernel of images[:, :k], written over units[:, :k], for each k in ``prefixes``.

    Over a compatible basis a prefix spans a stage, so these are its cycle spaces.
    """
    out = []
    for k in prefixes:
        ker = dense_kernel(images[:, :k], q)
        out.append(units[:, : ker.shape[0]] @ ker)
    return out


def window_ranks(sources, chain, ends, q: int):
    """Yield, for each source S_k, dim(S_k + C[:, :e]) - dim(C[:, :e]) for e in ends[k:].

    The denominators are the column prefixes of one chain C, so one
    elimination of [S_k | C] gives the whole row k, and one of C alone
    every dim(C[:, :e]).  ``sources[k]`` is the numerator of the window
    starting at position k + 1, and ``ends`` lists the prefix length of
    each position's denominator.
    """
    base = prefix_ranks(chain, ends, q)
    for k, source in enumerate(sources):
        ranks = prefix_ranks(np.hstack([source, chain]), [source.shape[1] + e for e in ends[k:]], q)
        yield [r - b for r, b in zip(ranks, base[k:])]
