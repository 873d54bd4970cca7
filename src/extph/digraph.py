"""Weighted digraphs and their persistent path homology input.

An allowed path is a head-to-tail concatenation of edges; allowed paths
span a graded subgroup of the regular path complex (vertex sequences with
no immediate repeats, boundary = alternating face sum with irregular
faces dropped).  Edge weights induce the ascending sublevel and
descending superlevel filtrations; vertices carry no weight and are
present from the first stage on either axis.

The input is built on integer rows.  Vertex ids follow the sorted vertex
names, and the allowed paths of length p are an (n_p, p+1) array of
vertex ids in lexicographic order, which is the order of their labels.
``cell_store`` derives the regular faces and the extension from those
rows and records them as the store's ``cells``, closed as ``PATHS``; a
path's entry values come from those of the path it extends and from the
weight of the edge it appends.  No label is built on the way from a digraph to its barcode.  Every level
of paths follows from the vertex count and the sorted edges, so a store
is checked against a digraph by ``cells[0]``, ``cells[1]`` and its
closure alone.  ``allowed_paths`` lists the same paths at the level of
labels; the demos print it, and the tests check the array store against
it and against a label-level regular boundary of their own.

File format (one edge per line, consumed by the CLI)::

    source<TAB>target<TAB>weight
    isolated_vertex<TAB>-<TAB>-
    # comment lines start with '#'; blank lines are skipped

Vertex names are arbitrary non-empty tokens.  The constructor and the
parser check each edge with ``_edge``, so both give the same message.
"""

import math

import numpy as np

from .errors import InputFormatError, records
from .extended import ExtendedInput
from .graded import PATHS, GradedSubgroup, cell_store
from .persistence import _betti_numbers

__all__ = [
    "WeightedDigraph",
    "allowed_paths",
    "path_homology",
    "pph_store",
    "pph_input",
    "build_pph_input",
    "parse_digraph",
]


def _edge(x, y, weight) -> float:
    """The weight of the edge x -> y as a float; ValueError for a self-loop or an infinite or nan weight."""
    if x == y:
        raise ValueError(f"self-loop on {x!r}")
    weight = float(weight)
    if not math.isfinite(weight):
        raise ValueError(f"edge ({x!r}, {y!r}) has the non-finite weight {weight!r}")
    return weight


class WeightedDigraph:
    """Finite digraph without self-loops, with a real weight per edge."""

    __slots__ = ("vertices", "weights")

    def __init__(self, vertices, weights):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        self.weights = {}
        for (x, y), w in weights.items():
            w = _edge(x, y, w)
            if x not in vset or y not in vset:
                raise ValueError(f"edge ({x!r}, {y!r}) has an endpoint outside the vertex set")
            self.weights[(x, y)] = w

    @property
    def edges(self):
        return sorted(self.weights)

    def __repr__(self):
        return f"WeightedDigraph({len(self.vertices)} vertices, {len(self.weights)} edges)"


def allowed_paths(g: WeightedDigraph, p_max: int) -> dict:
    """All allowed paths up to length p_max, per dimension, in lexicographic order."""
    out_of = {v: [] for v in g.vertices}
    for x, y in g.edges:
        out_of[x].append(y)
    paths = {0: [(v,) for v in g.vertices]}
    for p in range(1, p_max + 1):
        level = []
        for path in paths[p - 1]:
            for y in out_of[path[-1]]:
                level.append(path + (y,))
        paths[p] = level
    return paths


def path_homology(g: WeightedDigraph, p_max: int = 2, q: int = 2) -> list[int]:
    """Path homology dimensions of the digraph (weights ignored).

    Computed as the homology of the supremum complex of the allowed-path
    subgroup inside the regular path complex, by window ranks; an edgeless
    graph has H_0 = number of vertices and nothing above.
    """
    return _betti_numbers(pph_store(g, p_max, q), p_max)


def _steps(src, n: int, last):
    """(prefix, edge) of the paths one edge longer than paths ending at the vertices ``last``.

    ``src`` lists the edges' sources in sorted order.  Each path is
    repeated once per out-edge of its last vertex, in edge order: the new
    path k extends path prefix[k] by edge edge[k].
    """
    first = np.searchsorted(src, np.arange(n + 1))  # out-edges of v are first[v]:first[v + 1]
    degree = first[last + 1] - first[last]
    edge = np.repeat(first[last] - np.cumsum(degree) + degree, degree) + np.arange(degree.sum())
    return np.repeat(np.arange(len(last)), degree), edge


def _path_cells(src, tgt, n: int, top: int) -> dict:
    """Allowed paths up to length ``top`` as (n_p, p+1) arrays of vertex ids, in lexicographic order.

    ``src`` and ``tgt`` list the edges sorted by (source, target).  The
    paths of length p are those of length p-1 extended by ``_steps``,
    which appends the edge targets in order and so keeps the rows sorted.
    """
    cells = {0: np.arange(n, dtype=np.int64)[:, None]}
    for p in range(1, top + 1):
        prefix, edge = _steps(src, n, cells[p - 1][:, -1])
        cells[p] = np.hstack([cells[p - 1][prefix], tgt[edge][:, None]])
    return cells


def _edge_arrays(g: WeightedDigraph):
    """(sources, targets, weights) of g's edges by vertex id, sorted by (source, target)."""
    vid = {v: i for i, v in enumerate(g.vertices)}
    edges = g.edges
    src = np.array([vid[x] for x, _ in edges], dtype=np.int64)
    tgt = np.array([vid[y] for _, y in edges], dtype=np.int64)
    return src, tgt, np.array([g.weights[e] for e in edges], dtype=float)


def pph_store(g: WeightedDigraph, p_max: int = 2, q: int = 2) -> GradedSubgroup:
    """The generator store of a digraph's input: what its weights do not change.

    Allowed paths up to length p_max + 1 are the basis, the regular
    non-allowed faces they need are the extension, and their regular
    boundaries are reduced mod q.  Vertex ids follow the sorted vertex
    names, so rows in lexicographic order are labels in lexicographic
    order; the store keeps the path rows as its ``cells``, closed as
    ``PATHS``.
    """
    return _store_and_edges(g, p_max, q)[0]


def _store_and_edges(g: WeightedDigraph, p_max: int, q: int):
    """(``pph_store``, ``_edge_arrays``) of g."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    src, tgt, _ = edges = _edge_arrays(g)
    return cell_store(g.vertices, _path_cells(src, tgt, len(g.vertices), p_max + 1), q, PATHS), edges


def pph_input(g: WeightedDigraph, store: GradedSubgroup):
    """Ascending/descending filtrations of g's weights on a store of its allowed paths.

    ``store`` is ``pph_store`` of g or of any digraph with g's vertices and
    edges.  It is checked first, by its record: a store whose closure is
    not ``PATHS``, a hypergraph's or one without cells included, or whose
    ``cells[0]`` and ``cells[1]`` are not g's vertex ids and sorted edges,
    raises ValueError("the store was built on another digraph's vertices or
    edges").  The paths above follow from those two levels.
    """
    src, tgt, _ = edges = _edge_arrays(g)
    cells = (store.cells or {}) if store.closure == PATHS else {}
    if not (
        len(cells) > 1
        and np.array_equal(cells[0][:, 0], np.arange(len(g.vertices)))
        and np.array_equal(cells[1][:, 0], src)
        and np.array_equal(cells[1][:, 1], tgt)
    ):
        raise ValueError("the store was built on another digraph's vertices or edges")
    return _staged(g, store, edges)


def _staged(g: WeightedDigraph, store: GradedSubgroup, edges):
    """``ExtendedInput.from_values`` of g's weights on its paths' store; ``edges`` is ``_edge_arrays(g)``.

    The paths are staged at the distinct edge weights: a path enters the
    sublevel filtration at its largest weight and the superlevel one at its
    smallest, and vertices at stage 1 on both axes.  The store's paths are
    ``_path_cells`` of g's edges, so each level's weights come from the
    level below and the edges ``_steps`` appends to it.  A graph with no edges
    has no critical values: its input is empty, on an empty store that
    keeps the store's record and so passes the check of ``pph_input``
    again.  The input serves every p_max up to the one the store was built
    for.
    """
    (src, _, weights), n, cells = edges, len(g.vertices), store.cells
    grid = sorted(set(g.weights.values()))
    if not grid:
        empty = GradedSubgroup._from_csr({}, {}, store.q, cells, store.closure)
        return ExtendedInput.from_values(empty, grid, {}, {})
    asc, desc = {0: np.full(n, grid[0])}, {0: np.full(n, grid[-1])}  # no edge weight lies outside the grid
    for p in range(1, len(cells)):
        prefix, edge = _steps(src, n, cells[p - 1][:, -1])
        asc[p] = np.maximum(asc[p - 1][prefix], weights[edge])
        desc[p] = np.minimum(desc[p - 1][prefix], weights[edge])
    return ExtendedInput.from_values(store, grid, asc, desc)


def build_pph_input(g: WeightedDigraph, p_max: int = 2, q: int = 2):
    """The digraph's input: its weights staged on its own ``pph_store``, with one pass over its edges."""
    store, edges = _store_and_edges(g, p_max, q)
    return _staged(g, store, edges)


def parse_digraph(text: str) -> WeightedDigraph:
    """Parse the tab-separated digraph format; InputFormatError names the first faulty line."""
    vertices, weights = set(), {}
    for lineno, fields in records(text):
        try:
            if len(fields) != 3:
                raise ValueError("expected 'source<TAB>target<TAB>weight'")
            s, t, w = fields
            if not (s and t and w):
                raise ValueError("empty field")
            vertices.add(s)
            if t == "-" and w == "-":
                continue
            try:
                weight = float(w)
            except ValueError:
                raise ValueError(f"bad weight {w!r}") from None
            if (s, t) in weights:
                raise ValueError(f"duplicate edge {s!r} -> {t!r}")
            weights[(s, t)] = _edge(s, t, weight)
            vertices.add(t)
        except ValueError as exc:
            raise InputFormatError(lineno, str(exc)) from None
    g = WeightedDigraph.__new__(WeightedDigraph)  # every record is checked: skip the constructor's pass
    g.vertices, g.weights = tuple(sorted(vertices)), weights
    return g
