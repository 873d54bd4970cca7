"""Extended persistence of graded-subgroup filtrations via mapping cones.

Given an ascending filtration D^1 ⊆ ... ⊆ D^M and a descending one
E^1 ⊆ ... ⊆ E^N of graded subgroups whose tops span the same space, here
two height maps on one generator store, the extended module runs

    H_p(D^1) -> ... -> H_p(D^M) -> H_p(D^M, E^1) -> ... -> H_p(D^M, E^N) = 0.

Relative terms are computed by coning: the cone of E ⊆ D inside the cone
of the ambient identity has supremum complex equal to the cone of the
supremum complexes (the constructions commute), and the homology of the
cone of an inclusion is the homology of the quotient.  Concretely one
reduces a single M+N stage filtration on the cone.  Its dimension-p basis
is the base block, the ascending basis of dimension p, followed by the
cone block, the descending basis of dimension p-1.  ``ExtendedInput.layout``
gives ``build_matrices`` these rows and the columns: a base column is the
ascending boundary, and the cone column of a descending generator u is a
1 at u's base row plus u's negated boundary.  The ordinary pairing
algorithm runs on these matrices, and each pair is typed by the blocks
it joins:

* base row / base column  -> ordinary interval on the ascending stages,
* cone row / cone column  -> relative interval on the descending stages,
* base row / cone column  -> extended interval crossing the middle.

A base column never pivots on a cone row, and because the module ends at
zero no generator survives unpaired; either situation raises
ConsistencyError.  ``build_extended_filtration`` builds the same cone as a
labelled filtration through ``cone_graded``.  The pipeline never calls it:
it is the reference the layout is tested against, and the benchmark's
tracer wraps it.  ``extended_module_oracle`` recomputes every
composite rank of the module from the stage subgroups by dense elimination
mod q, with no cones and no pivots: the denominators are nested, so one
chain of columns per dimension holds all of them, and the sources, the
ascending cycles and the relative ones alike, are the cycles of column
prefixes of one matrix, so one kernel gives them all.  It is the ground
truth for the barcode.
"""

from typing import Any, NamedTuple

import numpy as np

from .errors import ConsistencyError, GradedValidationError
from .graded import (
    FilteredGradedSubgroup,
    GradedSubgroup,
    Layout,
    image_matrix,
    stage_heights,
    take_columns,
    unit_matrix,
    window_table,
)
from .persistence import betti_table_from_barcode, build_matrices, compute_pairings

__all__ = [
    "BASE",
    "CONE",
    "ORDINARY",
    "RELATIVE",
    "EXTENDED",
    "ConeGenerator",
    "ExtendedInput",
    "ExtendedInterval",
    "ExtendedBarcode",
    "cone_graded",
    "build_extended_filtration",
    "extended_barcode",
    "extended_module_oracle",
    "interval_rank_table",
]

BASE = "base"
CONE = "cone"

ORDINARY = "ordinary"
RELATIVE = "relative"
EXTENDED = "extended"


class ConeGenerator(NamedTuple):
    """A generator of the cone: (0, gen) when part == BASE, (gen, 0) when part == CONE.

    ``dim`` is the cone dimension: the underlying generator's dimension
    for base copies, one more for cone copies.
    """

    part: str
    gen: Any
    dim: int


def _on_side(side: str, build, *args):
    """``build(*args)``, with the side named in front of any GradedValidationError it raises."""
    try:
        return build(*args)
    except GradedValidationError as bad:
        raise GradedValidationError(f"{side}: {bad}") from None


class ExtendedInput:
    """Ascending and descending filtrations of one graded subgroup.

    ``graded`` is the one generator store: basis, universe and boundaries.
    ``ascending`` and ``descending`` are filtrations of that same store,
    which differ only in their heights and hence in their compatible
    basis orders.  Each side's heights are given per dimension, aligned
    with ``graded.basis`` as ``FilteredGradedSubgroup`` takes them.
    Ascending heights live in [1, M], descending ones in [1, N]; both tops
    are the full basis, as the definition of extended persistence requires.
    """

    def __init__(self, graded, ascending_heights, descending_heights, num_ascending, num_descending):
        self.graded = graded
        self.validate()
        self.ascending = _on_side("ascending", FilteredGradedSubgroup, graded, ascending_heights, num_ascending)
        self.descending = _on_side("descending", FilteredGradedSubgroup, graded, descending_heights, num_descending)
        self.M = self.ascending.num_stages
        self.N = self.descending.num_stages

    def validate(self) -> None:
        """d∘d = 0 of the store, checked once per store; raises GradedValidationError."""
        self.graded.validate()

    def layout(self, p: int) -> Layout:
        """Rows and columns of cone matrix p, for ``build_matrices``.

        Ids are the dimension-p universe rows, then the dimension-(p-1)
        universe rows offset by the size of the first block.  The rows are
        the base block, the ascending basis of dimension p, then the cone
        block, the descending basis of dimension p-1.  The columns are the
        boundaries of the ascending dimension-(p+1) generators, then for
        each descending dimension-p generator u a 1 at u's base row and u's
        negated boundary in the cone block.  Both tops are the full basis,
        so u always has a base row.
        """
        g, q = self.graded, self.graded.q
        n_p, base_rows, (up_ptr, up_faces, up_coeffs) = self.ascending.layout(p)
        units = self.descending.rows(p)
        ptr, faces, coeffs = take_columns(g.boundary_csr(p), units)
        # each column gets one more entry, the unit, in front of its faces
        cone_ptr = ptr + np.arange(len(ptr))
        cone_faces = np.insert(n_p + faces, ptr[:-1], units)
        cone_coeffs = np.insert((-coeffs) % q, ptr[:-1], 1)
        columns = (
            np.concatenate([up_ptr, up_ptr[-1] + cone_ptr[1:]]),
            np.concatenate([up_faces, cone_faces]),
            np.concatenate([up_coeffs, cone_coeffs]),
        )
        rows = np.concatenate([base_rows, n_p + self.descending.rows(p - 1)])
        return Layout(n_p + g.universe_size(p - 1), rows, columns)

    @classmethod
    def from_heights(
        cls,
        basis,
        extension,
        boundary,
        ascending_heights,
        descending_heights,
        num_ascending: int,
        num_descending: int,
        q: int = 2,
    ) -> "ExtendedInput":
        """Build both filtrations from one generator listing and two maps of generator to height.

        ``basis[p]`` fixes a deterministic input order per dimension; each
        side sorts it stably by its own heights to obtain a compatible
        order.  Every basis generator needs an integer height on each side.
        The store is checked before the heights, as in the constructor.
        """
        graded = GradedSubgroup(basis, extension, boundary, q=q)
        graded.validate()
        ascending = _on_side("ascending", stage_heights, graded, ascending_heights)
        descending = _on_side("descending", stage_heights, graded, descending_heights)
        return cls(graded, ascending, descending, num_ascending, num_descending)

    @classmethod
    def from_values(cls, store, grid, ascending, descending):
        """The filtrations of ``store`` staged at ``grid``, the sorted critical values: (input, grid, grid[::-1]).

        ``ascending[p]`` and ``descending[p]`` hold the value at which each generator of ``store.basis[p]``
        enters the sublevel and the superlevel filtration; its heights count the grid values up to it and from it.
        """
        at = np.array(grid, dtype=float)
        asc = {p: np.searchsorted(at, v) + 1 for p, v in ascending.items()}
        desc = {p: len(grid) - np.searchsorted(at, v) for p, v in descending.items()}
        return cls(store, asc, desc, len(grid), len(grid)), grid, grid[::-1]


class ExtendedInterval(NamedTuple):
    """One interval of the extended barcode.

    Ordinary: birth/death are ascending stage indices, birth < death <= M.
    Relative: birth/death are descending stage indices, birth < death <= N.
    Extended: birth is an ascending index, death a descending one; the
    class survives descending stages 1..death-1 (death = 1 means it dies
    as soon as the relative block starts).
    """

    dim: int
    kind: str
    birth: int
    death: int


class ExtendedBarcode:
    """Multiset of extended intervals over an M + N stage grid."""

    __slots__ = ("intervals", "num_ascending", "num_descending")

    def __init__(self, intervals, num_ascending: int, num_descending: int):
        self.intervals = tuple(sorted(intervals))
        self.num_ascending = int(num_ascending)
        self.num_descending = int(num_descending)

    def of_kind(self, kind: str, dim=None):
        return tuple(
            iv for iv in self.intervals if iv.kind == kind and (dim is None or iv.dim == dim)
        )

    def global_intervals(self):
        """Intervals as [birth, death) on the combined 1..M+N stage axis."""
        M = self.num_ascending
        out = []
        for iv in self.intervals:
            if iv.kind == ORDINARY:
                out.append((iv.dim, iv.birth, iv.death))
            elif iv.kind == RELATIVE:
                out.append((iv.dim, M + iv.birth, M + iv.death))
            else:
                out.append((iv.dim, iv.birth, M + iv.death))
        return out

    def __iter__(self):
        return iter(self.intervals)

    def __len__(self):
        return len(self.intervals)

    def __eq__(self, other):
        return (
            isinstance(other, ExtendedBarcode)
            and other.intervals == self.intervals
            and other.num_ascending == self.num_ascending
            and other.num_descending == self.num_descending
        )

    def __repr__(self):
        return f"ExtendedBarcode({list(self.intervals)}, M={self.num_ascending}, N={self.num_descending})"


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def cone_graded(graded: GradedSubgroup, small, big, max_dim=None) -> GradedSubgroup:
    """Cone of the inclusion small ⊆ big of subgroups of one store, as a graded subgroup.

    ``small`` and ``big`` list per dimension some of the store's basis
    generators, small's inside big's.  Cone dimension p lists the base
    copies of the full dimension-p universe followed by the cone copies of
    the dimension-(p-1) universe, the row layout of the mapping cone of the
    two supremum complexes; its basis is the base copies of big's
    dimension-p generators and the cone copies of small's dimension-(p-1)
    ones.  Cone dimensions above ``max_dim``, when given, are left out.
    """
    q = graded.q
    for p in graded.dims():
        if not set(small.get(p, ())) <= set(big.get(p, ())) <= set(graded.basis[p]):
            raise GradedValidationError(f"dimension {p}: small ⊆ big ⊆ the basis does not hold")

    basis, extension, universe, boundary = {}, {}, {}, {}
    for p in range(graded.max_dim + 2 if max_dim is None else max_dim + 1):
        base_univ = [ConeGenerator(BASE, u, p) for u in graded.universe.get(p, ())]
        cone_univ = [ConeGenerator(CONE, u, p) for u in graded.universe.get(p - 1, ())]
        universe[p] = base_univ + cone_univ
        b = [ConeGenerator(BASE, u, p) for u in big.get(p, ())]
        b += [ConeGenerator(CONE, u, p) for u in small.get(p - 1, ())]
        basis[p] = b
        in_basis = frozenset(b)
        extension[p] = [cg for cg in universe[p] if cg not in in_basis]
        for u in graded.universe.get(p, ()):
            if p >= 1:
                boundary[ConeGenerator(BASE, u, p)] = {
                    ConeGenerator(BASE, f, p - 1): c for f, c in graded.boundary_dict(u).items()
                }
        for u in graded.universe.get(p - 1, ()):
            faces: dict = {ConeGenerator(BASE, u, p - 1): 1}
            for f, c in graded.boundary_dict(u).items():
                faces[ConeGenerator(CONE, f, p - 1)] = (-c) % q
            boundary[ConeGenerator(CONE, u, p)] = faces
    return GradedSubgroup(basis, extension, boundary, q=graded.q, universe=universe)


def build_extended_filtration(x: ExtendedInput, p_max: int) -> FilteredGradedSubgroup:
    """The M + N stage filtration on the labelled cone, the reference for ``ExtendedInput.layout``.

    It is ``cone_graded`` of the descending basis inside the ascending
    one, up to cone dimension p_max + 1: base copies of the ascending basis
    at their ascending heights, then cone copies of the descending basis
    at M + their descending heights.
    """
    asc, desc = x.ascending, x.descending
    cone = cone_graded(x.graded, desc.basis, asc.basis, max_dim=p_max + 1)
    heights = {
        cg: asc.height_of(cg.gen) if cg.part == BASE else x.M + desc.height_of(cg.gen)
        for p in cone.dims()
        for cg in cone.basis[p]
    }
    return FilteredGradedSubgroup(cone, stage_heights(cone, heights), x.M + x.N)


def extended_barcode(x: ExtendedInput, p_max: int, clearing: bool = True) -> ExtendedBarcode:
    """Run the pairing algorithm on the cone filtration and type the intervals.

    A pair of a base row with a base column is an ordinary interval, and a
    cone row with a cone column a relative one.  A base row paired with a
    cone column is an extended interval, read from the paired generators
    themselves: the ascending height of the row generator and the
    descending height of the column generator.  ``extended_module_oracle``
    confirms this reading against the module's ranks.
    """
    pairings = compute_pairings(build_matrices(x, p_max), clearing=clearing)
    ah, dh = x.ascending.heights, x.descending.heights

    def generator(p, i):
        asc, desc = x.ascending.basis, x.descending.basis
        a_p = len(asc.get(p, ()))
        return f"base {asc[p][i]!r}" if i < a_p else f"cone {desc[p - 1][i - a_p]!r}"

    intervals = []
    for pairing in pairings:
        p = pairing.dim
        a_p, a_up = len(x.ascending.rows(p)), len(x.ascending.rows(p + 1))
        if pairing.unpaired_cycles:
            i = min(pairing.unpaired_cycles)
            raise ConsistencyError(
                f"dimension {p}: generator {generator(p, i)} opens an interval that never closes;"
                " the ascending and descending tops do not span the same space"
            )
        for i, j in sorted(pairing.pairs):
            if j < a_up:
                if i >= a_p:
                    raise ConsistencyError(
                        f"dimension {p}: generator {generator(p, i)} was paired with the base"
                        f" column {generator(p + 1, j)}"
                    )
                b, d = ah[p][i], ah[p + 1][j]
                if b < d:
                    intervals.append(ExtendedInterval(p, ORDINARY, b, d))
            elif i >= a_p:
                b, d = dh[p - 1][i - a_p], dh[p][j - a_up]
                if b < d:
                    intervals.append(ExtendedInterval(p, RELATIVE, b, d))
            else:
                intervals.append(ExtendedInterval(p, EXTENDED, ah[p][i], dh[p][j - a_up]))
    return ExtendedBarcode(intervals, x.M, x.N)


# ---------------------------------------------------------------------------
# rank oracle
# ---------------------------------------------------------------------------


def extended_module_oracle(x: ExtendedInput, p_max: int) -> dict:
    """Rank of every composite map of the extended module, without cones or pivots.

    Keys are (p, u, v) with 1 <= u <= v <= M + N; positions <= M are the
    ascending homology groups, positions M + j the relative ones.  The
    diagonal entries are the dimensions of the module's terms, and the
    final diagonal entry is always 0.

    The rank of position u -> v is dim(Z_u + B_v) - dim(B_v), all spaces
    written in universe coordinates.  The denominators are nested in v:
    B_v is d(D^v_{p+1}) for v <= M and d(D_{p+1}) + T^j_p for v = M + j,
    where T^j is the supremum complex of the descending stage j; since
    d(E^j_{p+1}) lies in d(D_{p+1}), that is d(D_{p+1}) plus the unit
    vectors of E^j_p.  So one chain of columns, the boundaries of the
    dimension-(p+1) basis in ascending order and then the dimension-p
    units in descending order, has every B_v as a prefix.
    A source may leave out anything its denominators all contain.  For
    u <= M that is d(D^u_{p+1}), so Z_u is the cycles of D^u_p.  For
    u = M + j it is E^j_p: a chain of D_p whose boundary lies in
    T^j_{p-1} = E^j_{p-1} + d(E^j_p) is one whose boundary lies in
    E^j_{p-1}, plus a chain of E^j_p.  Those chains c, with dc in the span
    of the units U of E^j_{p-1}, are the first block of the kernel of
    [images | U]; U's columns are independent, so the second block adds
    nothing.  E^j_{p-1} is a prefix of the descending dimension-(p-1)
    units, so every source is the cycles of a column prefix of one matrix,
    the dimension-p images in ascending order and then those units, read
    over [units of D_p | 0].  ``window_table`` gives the whole table of
    dimension p from one kernel of that matrix and, over F_2, one
    elimination of the chain.  For u <= v <= M the sources and prefixes
    are those of ``persistent_betti_oracle`` on the ascending filtration.
    A p_max the store cannot serve raises ValueError, through the same
    store check as ``build_matrices``: a front end's store lists
    generators only up to dimension p_max + 1 of the p_max it was built for.
    """
    asc, desc = x.ascending, x.descending
    g, q = x.graded, x.graded.q
    g.check_p_max(p_max)
    M, N = x.M, x.N
    table: dict = {}
    for p in range(p_max + 1):
        a_p, ups = asc.rows(p), asc.rows(p + 1)
        below = unit_matrix(g, p - 1, desc.rows(p - 1))
        units = np.pad(unit_matrix(g, p, a_p), ((0, 0), (0, below.shape[1])))
        images = np.hstack([image_matrix(g, p, a_p), below])
        cuts = [asc.stage_prefix(p, u) for u in range(1, M + 1)]
        cuts += [len(a_p) + desc.stage_prefix(p - 1, j) for j in range(1, N + 1)]
        chain = np.hstack([image_matrix(g, p + 1, ups), unit_matrix(g, p, desc.rows(p))])
        ends = [asc.stage_prefix(p + 1, v) for v in range(1, M + 1)]
        ends += [len(ups) + desc.stage_prefix(p, j) for j in range(1, N + 1)]
        ranks = window_table(units, images, cuts, chain, ends, q)
        table.update(((p, u, v), r) for (u, v), r in ranks.items())
    return table


def interval_rank_table(bc: ExtendedBarcode, p_max: int) -> dict:
    """Window interval counts, in the same shape as the module oracle table."""
    return betti_table_from_barcode(bc.global_intervals(), p_max, bc.num_ascending + bc.num_descending)
