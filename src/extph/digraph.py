"""Weighted digraphs and their persistent path homology input.

An allowed path is a head-to-tail concatenation of edges; allowed paths
span a graded subgroup of the regular path complex (vertex sequences with
no immediate repeats, boundary = alternating face sum with irregular
faces dropped).  Edge weights induce the ascending sublevel and
descending superlevel filtrations; vertices carry no weight and are
present from the first stage on either axis.

File format (one edge per line, consumed by the CLI)::

    source<TAB>target<TAB>weight
    isolated_vertex<TAB>-<TAB>-
    # comment lines start with '#'

Vertex names are arbitrary non-empty tokens; self-loops are rejected.
"""

import math

from .errors import InputFormatError
from .extended import ExtendedInput
from .graded import GradedSubgroup, homology_dims, sup_complex

__all__ = [
    "WeightedDigraph",
    "allowed_paths",
    "regular_boundary",
    "sublevel",
    "superlevel",
    "path_homology",
    "pph_store",
    "pph_input",
    "build_pph_input",
    "parse_digraph",
    "load_digraph",
]


class WeightedDigraph:
    """Finite digraph without self-loops, with a real weight per edge."""

    __slots__ = ("vertices", "weights")

    def __init__(self, vertices, weights):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        self.weights = {}
        for (x, y), w in weights.items():
            if x == y:
                raise ValueError(f"self-loop on {x!r}")
            if x not in vset or y not in vset:
                raise ValueError(f"edge ({x!r}, {y!r}) has an endpoint outside the vertex set")
            w = float(w)
            if not math.isfinite(w):
                raise ValueError(f"edge ({x!r}, {y!r}) has the non-finite weight {w!r}")
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


def _path_universe(g: WeightedDigraph, top_dim: int):
    """Allowed paths up to top_dim plus the extension generators they need.

    Extension generators are the regular non-allowed faces, closed under
    taking regular faces so every listed boundary stays inside the listing.
    """
    paths = allowed_paths(g, top_dim)
    listed = {path for level in paths.values() for path in level}
    eps = {p: set() for p in range(top_dim + 1)}
    boundary = {}
    queue = [path for p in range(1, top_dim + 1) for path in paths[p]]
    while queue:
        path = queue.pop()
        faces = regular_boundary(path)
        boundary[path] = faces
        for face in faces:
            if face not in listed:
                listed.add(face)
                eps[len(face) - 1].add(face)
                if len(face) >= 2:
                    queue.append(face)
    return paths, {p: sorted(eps[p]) for p in eps}, boundary


def path_homology(g: WeightedDigraph, p_max: int = 2, q: int = 2) -> list[int]:
    """Path homology dimensions of the digraph (weights ignored).

    Computed as the homology of the supremum complex of the allowed-path
    subgroup inside the regular path complex; an edgeless graph has
    H_0 = number of vertices and nothing above.
    """
    return homology_dims(sup_complex(pph_store(g, p_max, q), p_max), p_max)


def pph_store(g: WeightedDigraph, p_max: int = 2, q: int = 2) -> GradedSubgroup:
    """The generator store of a digraph's input: what its weights do not change.

    Allowed paths up to length p_max + 1 are the basis, the regular
    non-allowed faces they need are the extension, and their regular
    boundaries are reduced mod q.
    """
    paths, eps, boundary = _path_universe(g, p_max + 1)
    return GradedSubgroup(paths, eps, boundary, q=q)


def pph_input(g: WeightedDigraph, store: GradedSubgroup):
    """Ascending/descending filtrations of g's weights on a store of its allowed paths.

    ``store`` is ``pph_store`` of g or of any digraph with g's vertices and
    edges; only the stage grids and heights are computed here.  Returns
    (ExtendedInput, ascending values a_1 < ... < a_M, descending values
    b_1 > ... > b_N); the stage grids are the distinct edge weights.  A
    path enters the sublevel filtration at its largest edge weight and
    the superlevel one at its smallest; vertices sit at stage 1 on both
    axes.  A graph with no edges has no critical values and yields an
    empty input.
    """
    values = sorted({w for w in g.weights.values()})
    if not values:
        empty = ExtendedInput.from_heights({}, {}, {}, {}, {}, 0, 0, q=store.q)
        return empty, [], []
    asc_stage = {v: i + 1 for i, v in enumerate(values)}
    desc_values = values[::-1]
    desc_stage = {v: i + 1 for i, v in enumerate(desc_values)}

    asc_h, desc_h = {}, {}
    for p in store.dims():
        for path in store.basis[p]:
            if p == 0:
                asc_h[path] = 1
                desc_h[path] = 1
            else:
                ws = [g.weights[(path[k - 1], path[k])] for k in range(1, len(path))]
                asc_h[path] = asc_stage[max(ws)]
                desc_h[path] = desc_stage[min(ws)]
    x = ExtendedInput(store, asc_h, desc_h, len(values), len(desc_values))
    return x, values, desc_values


def build_pph_input(g: WeightedDigraph, p_max: int = 2, q: int = 2):
    """The digraph's input: ``pph_input`` on its own ``pph_store``."""
    return pph_input(g, pph_store(g, p_max, q))


def parse_digraph(text: str) -> WeightedDigraph:
    """Parse the tab-separated digraph format; raises InputFormatError."""
    vertices = set()
    weights = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputFormatError(lineno, "expected 'source<TAB>target<TAB>weight'")
        s, t, w = (part.strip() for part in parts)
        if not s or not t or not w:
            raise InputFormatError(lineno, "empty field")
        if t == "-" and w == "-":
            vertices.add(s)
            continue
        if s == t:
            raise InputFormatError(lineno, f"self-loop on {s!r}")
        try:
            wv = float(w)
        except ValueError:
            raise InputFormatError(lineno, f"bad weight {w!r}") from None
        if not math.isfinite(wv):
            raise InputFormatError(lineno, f"non-finite weight {w!r}")
        if (s, t) in weights:
            raise InputFormatError(lineno, f"duplicate edge {s!r} -> {t!r}")
        weights[(s, t)] = wv
        vertices.add(s)
        vertices.add(t)
    return WeightedDigraph(vertices, weights)


def load_digraph(path) -> WeightedDigraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_digraph(fh.read())
