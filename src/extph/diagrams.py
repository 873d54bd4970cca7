"""Persistence diagrams, bottleneck distance, and empirical stability trials.

Stage-indexed extended barcodes are mapped to three planar multisets of
points with critical-value coordinates: ordinary points (birth value,
death value) on the ascending plane, relative points on the reversed
plane, extended points mixing one coordinate of each.  The bottleneck
distance matches points of equal homology dimension under the l-infinity
metric: partially on the ordinary and relative diagrams (unmatched points
pay their distance to the diagonal, (death - birth)/2), perfectly on the
extended diagram, so the distance is infinite whenever the extended
cardinalities differ.

The matcher computes each type's pairwise distances and diagonal charges
once with numpy and returns the smallest feasible candidate (0, pairwise
distances, diagonal charges), exact on that set.  It probes the floor
first, a lower bound that is often the answer, and sorts and binary-searches
the candidates above it only if that probe fails.  The pairs within the
largest delta the search can probe are listed once per type, by row and
by column; a probe masks them at its delta and cuts them into partner
lists with one searchsorted.  Each probe of the search starts from the
matching of the last one that succeeded, less its pairs longer than
delta.  The feasibility test needs no diagonal slots:
by the Mendelsohn-Dulmage theorem a delta-matching exists iff real pairs
within delta can cover every point of either side whose charge exceeds
delta, and an extended point's charge is infinite.  Augmenting paths are
found iteratively, so no diagram size can exhaust the recursion limit.

``stability_trial`` perturbs the edge weights of a digraph or the values
of a hypergraph and reports the achieved input distance next to the
per-dimension bottleneck distances; the stability guarantee is
d_B <= d_E, the sup-norm of the input change.  A perturbation never
changes the edges or hyperedges, so one generator store serves every
trial of a run: each trial only restages it with the perturbed weights or
values.  A caller running many trials passes the unperturbed diagram and
its store as ``base`` so both are built once.
"""

import math
import sys
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .digraph import WeightedDigraph, build_pph_input, pph_input
from .errors import ConsistencyError, InputFormatError, records
from .extended import EXTENDED, ORDINARY, RELATIVE, ExtendedBarcode, extended_barcode
from .graded import GradedSubgroup
from .hypergraph import build_hyper_input, hyper_input

__all__ = [
    "ORD",
    "REL",
    "EXT",
    "DiagramPoint",
    "ExtendedDiagram",
    "MatchingCertificate",
    "diagrams",
    "bottleneck",
    "bottleneck_certificate",
    "stability_trial",
    "format_diagram",
    "read_diagram",
]

ORD = "ord"
REL = "rel"
EXT = "ext"


class DiagramPoint(NamedTuple):
    dim: int
    birth: float
    death: float


class ExtendedDiagram:
    """Ordinary, relative and extended point multisets with dimensions."""

    __slots__ = ("ordinary", "relative", "extended", "_groups")

    def __init__(self, ordinary=(), relative=(), extended=()):
        self.ordinary = tuple(sorted(ordinary))
        self.relative = tuple(sorted(relative))
        self.extended = tuple(sorted(extended))
        self._groups = None

    def points(self, kind: str, dim=None):
        pts = {ORD: self.ordinary, REL: self.relative, EXT: self.extended}[kind]
        if dim is None:
            return pts
        if self._groups is None:  # one pass splits every kind by dimension; the tuples never change
            groups = {}
            for key, kind_pts in ((ORD, self.ordinary), (REL, self.relative), (EXT, self.extended)):
                for pt in kind_pts:
                    groups.setdefault((key, pt.dim), []).append(pt)
            self._groups = {key: tuple(group) for key, group in groups.items()}
        return self._groups.get((kind, dim), ())

    def dims(self):
        return sorted({pt.dim for pts in (self.ordinary, self.relative, self.extended) for pt in pts})

    def __eq__(self, other):
        return (
            isinstance(other, ExtendedDiagram)
            and other.ordinary == self.ordinary
            and other.relative == self.relative
            and other.extended == self.extended
        )

    def __len__(self):
        return len(self.ordinary) + len(self.relative) + len(self.extended)

    def __repr__(self):
        return (
            f"ExtendedDiagram(ord={len(self.ordinary)}, rel={len(self.relative)},"
            f" ext={len(self.extended)})"
        )


def diagrams(bc: ExtendedBarcode, ascending_values, descending_values) -> ExtendedDiagram:
    """Map stage indices to critical values.

    Ordinary interval [i, j) becomes the point (a_i, a_j); a relative one
    becomes (b_i, b_j) on the reversed plane; an extended interval with
    ascending birth i and descending death j becomes (a_i, b_j); in
    particular death index 1 maps to the first descending value, the class
    having died as soon as the relative block started.
    """
    a, b = list(ascending_values), list(descending_values)
    if len(a) != bc.num_ascending or len(b) != bc.num_descending:
        raise ValueError("value grids do not match the barcode's stage counts")
    grids = {ORDINARY: (a, a), RELATIVE: (b, b), EXTENDED: (a, b)}
    points = {kind: [] for kind in grids}
    for iv in bc:
        births, deaths = grids[iv.kind]
        if not (0 < iv.birth <= len(births) and 0 < iv.death <= len(deaths)):
            raise ValueError(f"interval {iv} indexes outside the value grids")
        points[iv.kind].append(DiagramPoint(iv.dim, births[iv.birth - 1], deaths[iv.death - 1]))
    return ExtendedDiagram(points[ORDINARY], points[RELATIVE], points[EXTENDED])


# ---------------------------------------------------------------------------
# bottleneck distance
# ---------------------------------------------------------------------------


def _coords(pts):
    xy = np.array([(pt.birth, pt.death) for pt in pts], dtype=float).reshape(-1, 2)
    if not np.isfinite(xy).all():
        raise ValueError("diagram point with a non-finite coordinate")
    if np.abs(xy).max(initial=0.0) > sys.float_info.max / 2:  # so no difference or charge overflows
        raise ValueError("diagram point with a coordinate beyond half the largest float, where distances overflow")
    return xy


def _kind_arrays(kind, pts1, pts2):
    """Pairwise l-infinity distances and each side's diagonal charge.

    Extended points may not pair with the diagonal, so their charge is
    infinite: every one of them must be matched.
    """
    a, b = _coords(pts1), _coords(pts2)
    dist, other = np.empty((len(a), len(b))), np.empty((len(a), len(b)))
    np.abs(np.subtract(a[:, :1], b[:, 0], out=dist), out=dist)
    np.abs(np.subtract(a[:, 1:], b[:, 1], out=other), out=other)
    np.maximum(dist, other, out=dist)
    if kind == EXT:
        return dist, np.full(len(a), np.inf), np.full(len(b), np.inf)
    return dist, np.abs(a[:, 1] - a[:, 0]) / 2.0, np.abs(b[:, 1] - b[:, 0]) / 2.0


def _edges(dist, ceiling):
    """Pairs within ``ceiling`` from each side, as (point, partner, distance) arrays sorted by point, then partner."""
    rows, cols = (dist <= ceiling).nonzero()
    w = dist[rows, cols]
    order = cols.argsort(kind="stable")
    return (rows, cols, w), (cols[order], rows[order], w[order])


def _augment(root, adjacent, required, mate, back):
    """Search depth-first, with an explicit stack, for an alternating path from ``root``.

    ``mate`` maps this side to the other (-1 when free), ``back`` the
    other side to this one.  The path ends at a free vertex of the other
    side, or at a vertex of this side that ``required`` does not list,
    which it unmatches (the exchange step in the Mendelsohn-Dulmage
    theorem).  Flipping the path covers ``root`` and leaves every
    required vertex covered.  Returns whether a path was found.
    """
    seen = set()
    xs, ys, its = [root], [], [iter(adjacent(root))]
    while xs:
        for y in its[-1]:
            if y not in seen:
                seen.add(y)
                break
        else:
            xs.pop()
            its.pop()
            if ys:
                ys.pop()
            continue
        ys.append(y)
        x = back[y]
        if x == -1 or not required[x]:
            if x != -1:
                mate[x] = -1
            for x, y in zip(xs, ys):
                mate[x] = y
                back[y] = x
            return True
        xs.append(x)
        its.append(iter(adjacent(x)))
    return False


def _match(dist, charge1, charge2, delta, edges, start=None):
    """A matching at tolerance ``delta`` as (mate1, mate2), or None.

    Only real pairs within ``delta`` are matched; a point left unmatched
    pays its diagonal charge.  ``edges`` is ``_edges`` at a ceiling of at
    least ``delta``; a side with a point to cover masks them at ``delta``
    and cuts them into partner lists with one searchsorted.  By the
    Mendelsohn-Dulmage theorem such a matching exists iff one covers
    every side-1 point whose charge exceeds ``delta`` and one covers
    every such side-2 point.  The first is reached by augmenting from
    each uncovered such side-1 point, after a greedy pass gives each the
    free partner of lowest index: points are sorted by birth, so the pass
    sweeps along the diagonal and leaves few roots to search from.
    Exchanges from side 2 then extend it to the second set without
    uncovering the first.

    Both phases work from any starting matching, so ``start``, a
    matching found at a larger delta, is kept less its pairs longer than
    ``delta``.  An augmenting path keeps every vertex it passes on the
    other side matched, and it unmatches a vertex of its own side only if
    that vertex is not required; a required one stays covered.  A failed
    augment from root r still proves infeasibility, whatever the current
    matching M: if a matching N covered every required vertex of r's
    side, the component of r in the symmetric difference of M and N
    would be an alternating path from r.  It ends at an M-free vertex of
    the other side or, after an M-edge, at a vertex of r's side that N
    leaves free, which is therefore not required; the search would have
    found either.
    """
    n1, n2 = dist.shape
    mate1, mate2 = [-1] * n1, [-1] * n2
    if start is not None:
        for i, j in enumerate(start[0]):
            if j != -1 and dist.item(i, j) <= delta:
                mate1[i], mate2[j] = j, i
    for mate, back, (owners, ends, w), charge in ((mate1, mate2, edges[0], charge1), (mate2, mate1, edges[1], charge2)):
        required = (charge > delta).tolist()
        roots = [i for i, need in enumerate(required) if need and mate[i] == -1]
        if not roots:
            continue
        within = w <= delta
        cuts = owners[within].searchsorted(np.arange(len(mate) + 1)).tolist()
        partners = ends[within].tolist()

        def adjacent(i, cuts=cuts, partners=partners):
            return partners[cuts[i] : cuts[i + 1]]

        for i in roots:
            for j in adjacent(i):
                if back[j] == -1:
                    mate[i], back[j] = j, i
                    break
        for i in roots:
            if mate[i] == -1 and not _augment(i, adjacent, required, mate, back):
                return None
    return mate1, mate2


def _kind_bottleneck(dist, charge1, charge2):
    """Smallest candidate delta at which ``_match`` succeeds; inf if none does.

    Candidates are 0, the distances and the charges.  Each point costs at
    least the smaller of its nearest partner and its charge, so no delta
    below the largest such cost, the floor, succeeds; the floor is probed
    first and is often the answer.  Diagonal kinds succeed at their
    largest charge, where every point may go to the diagonal.  Extended
    points must all be matched, which needs equal counts, and matching
    them in the order they are listed succeeds at its largest distance.
    That upper bound, the ceiling, cuts the edge list.  Only when the
    floor fails are the candidates above it sorted and binary-searched,
    each probe starting from the matching of the last one that succeeded.
    """
    ceiling = max(charge1.max(initial=0.0), charge2.max(initial=0.0))
    if ceiling == math.inf:
        if dist.shape[0] != dist.shape[1]:
            return math.inf
        ceiling = dist.diagonal().max(initial=0.0)
    floor = max(
        np.minimum(dist.min(axis=1, initial=math.inf), charge1).max(initial=0.0),
        np.minimum(dist.min(axis=0, initial=math.inf), charge2).max(initial=0.0),
    )
    edges = _edges(dist, ceiling)
    if _match(dist, charge1, charge2, floor, edges) is not None:
        return float(floor)
    weights, charges = edges[0][2], np.concatenate((charge1, charge2))
    ordered = np.concatenate((weights[weights > floor], charges[(charges > floor) & (charges <= ceiling)]))
    ordered.sort()
    ordered = ordered.tolist()
    feasible = None
    lo, hi = 0, len(ordered) - 1  # ordered[hi] == ceiling succeeds
    while lo < hi:
        mid = (lo + hi) // 2
        found = _match(dist, charge1, charge2, ordered[mid], edges, feasible)
        if found is None:
            lo = mid + 1
        else:
            hi, feasible = mid, found
    return ordered[hi]


def bottleneck(d1: ExtendedDiagram, d2: ExtendedDiagram, dim=None) -> float:
    """Bottleneck distance between extended diagrams.

    Points are compared within one homology dimension; with ``dim`` None
    the maximum over all dimensions present is returned.  The result is
    math.inf exactly when the extended multisets of some dimension have
    different cardinalities.  Raises ValueError on a non-finite coordinate
    or one beyond half the largest float, where distances overflow.
    """
    if dim is None:
        all_dims = sorted(set(d1.dims()) | set(d2.dims()))
        return max((bottleneck(d1, d2, p) for p in all_dims), default=0.0)
    value = 0.0
    for kind in (ORD, REL, EXT):
        pts1, pts2 = d1.points(kind, dim), d2.points(kind, dim)
        if pts1 or pts2:
            value = max(value, _kind_bottleneck(*_kind_arrays(kind, pts1, pts2)))
    return value


def _one_dim(dim):
    """``dim`` itself; ValueError unless it is an int, since a matching never crosses dimensions."""
    if not isinstance(dim, Integral) or isinstance(dim, bool):
        raise ValueError(f"a matching certificate is for one homology dimension, got dim={dim!r}")
    return dim


class MatchingCertificate:
    """A concrete delta-matching: matched pairs plus diagonal-charged leftovers."""

    __slots__ = ("delta", "matched", "unmatched")

    def __init__(self, delta, matched, unmatched):
        self.delta = delta
        self.matched = matched  # kind -> list of (point1, point2)
        self.unmatched = unmatched  # kind -> list of (side, point)

    def verify(self, d1: ExtendedDiagram, d2: ExtendedDiagram, dim, tol: float = 1e-9) -> bool:
        """Whether this is a delta-matching of the points of one dimension; ValueError unless ``dim`` is an int."""
        dim = _one_dim(dim)
        linf = lambda p1, p2: max(abs(p1.birth - p2.birth), abs(p1.death - p2.death))
        for kind in (ORD, REL, EXT):
            pts1 = sorted(d1.points(kind, dim))
            pts2 = sorted(d2.points(kind, dim))
            got1 = sorted([p for p, _ in self.matched[kind]] + [p for s, p in self.unmatched[kind] if s == 1])
            got2 = sorted([p for _, p in self.matched[kind]] + [p for s, p in self.unmatched[kind] if s == 2])
            if got1 != pts1 or got2 != pts2:
                return False
            if any(linf(p1, p2) > self.delta + tol for p1, p2 in self.matched[kind]):
                return False
            if kind == EXT and self.unmatched[kind]:
                return False
            if kind != EXT and any(abs(p.death - p.birth) / 2.0 > self.delta + tol for _, p in self.unmatched[kind]):
                return False
        return True


def bottleneck_certificate(d1: ExtendedDiagram, d2: ExtendedDiagram, dim):
    """(distance, certificate) for one dimension; certificate is None at infinity.

    ``dim`` must be an int: ValueError otherwise, since pooling the points
    of every dimension would match points across dimensions.
    """
    dim = _one_dim(dim)
    points = {kind: (d1.points(kind, dim), d2.points(kind, dim)) for kind in (ORD, REL, EXT)}
    arrays = {kind: _kind_arrays(kind, *pts) for kind, pts in points.items()}
    delta = max(_kind_bottleneck(*kind_arrays) for kind_arrays in arrays.values())
    if math.isinf(delta):
        return delta, None
    matched, unmatched = {}, {}
    for kind, (pts1, pts2) in points.items():
        found = _match(*arrays[kind], delta, _edges(arrays[kind][0], delta))
        if found is None:
            raise ConsistencyError("no matching exists at the computed distance")
        mate1, mate2 = found
        matched[kind] = [(p1, pts2[j]) for p1, j in zip(pts1, mate1) if j != -1]
        unmatched[kind] = [(1, p) for p, j in zip(pts1, mate1) if j == -1]
        unmatched[kind] += [(2, p) for p, i in zip(pts2, mate2) if i == -1]
    return delta, MatchingCertificate(delta, matched, unmatched)


# ---------------------------------------------------------------------------
# stability trials
# ---------------------------------------------------------------------------


class StabilityBase(NamedTuple):
    """What every trial of a stability run shares: the unperturbed diagram and the store."""

    diagram: ExtendedDiagram
    store: GradedSubgroup


def _diagram(subject, p_max, q) -> StabilityBase:
    """Diagram of a digraph or hypergraph through its front end, with the store it was built on."""
    build = build_pph_input if isinstance(subject, WeightedDigraph) else build_hyper_input
    x, asc, desc = build(subject, p_max, q)
    return StabilityBase(diagrams(extended_barcode(x, p_max), asc, desc), x.graded)


def _restaged(subject, store, p_max) -> ExtendedDiagram:
    """Diagram of ``subject``'s weights or values on a store built from the same edges."""
    restage = pph_input if isinstance(subject, WeightedDigraph) else hyper_input
    x, asc, desc = restage(subject, store)
    return diagrams(extended_barcode(x, p_max), asc, desc)


def stability_trial(subject, delta: float, seed, p_max: int = 2, q: int = 2, base=None):
    """Perturb each edge weight or hyperedge value uniformly in [-delta, delta] (seeded).

    ``subject`` is a WeightedDigraph or a FilteredHypergraph.  The
    perturbation leaves the edges or hyperedges alone, so the trial only
    computes new stage grids and heights (still checked) on the
    unperturbed generator store, whose closure and d∘d check ran when it
    was built.  ``base``, when given, is ``_diagram(subject, p_max, q)``:
    the unperturbed diagram and its store, which a caller running many
    trials builds once; a base built over another field than F_q raises
    ValueError.  Returns (achieved max input change, {dim: bottleneck
    distance}); the stability theorem promises every distance is at most
    the first value.  ``2 * delta`` must be finite so the shifts can be
    drawn.
    """
    if not (delta >= 0 and math.isfinite(2 * delta)):
        raise ValueError(f"perturbation bound {delta!r} must be nonnegative with 2 * delta finite")
    values = subject.weights if isinstance(subject, WeightedDigraph) else subject.values
    rng = np.random.default_rng(seed)
    items = sorted(values.items())
    shifts = rng.uniform(-delta, delta, size=len(items))
    perturbed = type(subject)(subject.vertices, {e: v + s for (e, v), s in zip(items, shifts)})
    d_e = float(max(np.abs(shifts), default=0.0))
    if base is None:
        base = _diagram(subject, p_max, q)
    elif base.store.q != q:
        raise ValueError(f"the base was built over F_{base.store.q}, not over F_{q}")
    moved = _restaged(perturbed, base.store, p_max)
    return d_e, {p: bottleneck(base.diagram, moved, p) for p in range(p_max + 1)}


# ---------------------------------------------------------------------------
# diagram files
# ---------------------------------------------------------------------------

_HEADER = "dim\ttype\tbirth\tdeath"


def format_diagram(diagram: ExtendedDiagram) -> str:
    rows = []
    for kind in (ORD, REL, EXT):
        for pt in diagram.points(kind):
            rows.append((pt.dim, kind, pt.birth, pt.death))
    rows.sort()
    lines = [_HEADER]
    lines.extend(f"{dim}\t{kind}\t{birth!r}\t{death!r}" for dim, kind, birth, death in rows)
    return "\n".join(lines) + "\n"


def read_diagram(text: str) -> ExtendedDiagram:
    buckets = {ORD: [], REL: [], EXT: []}
    for lineno, fields in records(text):
        if "\t".join(fields) == _HEADER:
            continue
        if len(fields) != 4:
            raise InputFormatError(lineno, "expected 'dim<TAB>type<TAB>birth<TAB>death'")
        try:
            dim = int(fields[0])
            birth = float(fields[2])
            death = float(fields[3])
        except ValueError:
            raise InputFormatError(lineno, "bad numeric field") from None
        if dim < 0:
            raise InputFormatError(lineno, f"negative dimension {dim}")
        if not (math.isfinite(birth) and math.isfinite(death)):
            raise InputFormatError(lineno, "non-finite birth or death")
        kind = fields[1]
        if kind not in buckets:
            raise InputFormatError(lineno, f"unknown point type {kind!r}")
        buckets[kind].append(DiagramPoint(dim, birth, death))
    return ExtendedDiagram(buckets[ORD], buckets[REL], buckets[EXT])
