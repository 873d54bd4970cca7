"""Independent oracles and random instance generators for the test suite.

Everything in here that verifies package output is implemented from
scratch in plain Python: mod-q Gaussian elimination on row lists, the
textbook single-matrix persistence reduction, and a bottleneck matcher on
the diagonal-padded cost matrix (sorted thresholds and Kuhn's augmenting
paths, with an exhaustive backtracker to cross-check it).  None of it touches the package's sparse
reduction or numpy elimination helpers, so a bug there cannot hide.
Instance generators may use package types (they build inputs, they don't
check them); each generated complex is re-verified by direct dictionary
arithmetic.
"""

import itertools
import math
from collections import Counter

from extph import (
    EXT,
    ORD,
    REL,
    ExtendedInput,
    FilteredGradedSubgroup,
    GradedSubgroup,
    WeightedDigraph,
    FilteredHypergraph,
    stage_heights,
)

# ---------------------------------------------------------------------------
# plain-python mod-q linear algebra
# ---------------------------------------------------------------------------


def gf_echelon(rows, q):
    """Row echelon form of a list-of-lists matrix mod q; returns (rows, pivot cols)."""
    a = [[int(x) % q for x in row] for row in rows]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if a[i][c] % q:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], q - 2, q)
        a[r] = [(v * inv) % q for v in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(a[i][k] - f * a[r][k]) % q for k in range(n_cols)]
        pivots.append(c)
        r += 1
    return a, pivots


def gf_rank(rows, q):
    return len(gf_echelon(rows, q)[1])


def gf_kernel(rows, q):
    """Vectors spanning the right kernel of a rows-major matrix mod q."""
    n_cols = len(rows[0]) if rows else 0
    if not rows:
        return [[1 if i == j else 0 for i in range(n_cols)] for j in range(n_cols)]
    a, pivots = gf_echelon(rows, q)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    out = []
    for fc in free:
        v = [0] * n_cols
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-a[i][fc]) % q
        out.append(v)
    return out


def columns_to_rows(columns, num_rows):
    """Transpose a list of sparse-entry columns into dense row lists."""
    rows = [[0] * len(columns) for _ in range(num_rows)]
    for j, col in enumerate(columns):
        for r, c in col.entries:
            rows[r][j] = c
    return rows


# ---------------------------------------------------------------------------
# random chain data with d∘d = 0
# ---------------------------------------------------------------------------


def random_boundary_data(rng, q, sizes, density=0.4):
    """Random generators per dimension and a boundary with d∘d = 0.

    Returns (labels per dim, boundary dicts).  Dimension-1 boundaries are
    arbitrary; higher boundaries are random combinations of the kernel of
    the boundary one dimension down.
    """
    labels = {p: [("g", p, i) for i in range(n)] for p, n in enumerate(sizes)}
    boundary = {}
    matrices = {}
    for p in range(1, len(sizes)):
        n_prev, n = sizes[p - 1], sizes[p]
        cols = []
        if p == 1 or n_prev == 0:
            for _ in range(n):
                col = [int(rng.integers(0, q)) if rng.random() < density else 0 for _ in range(n_prev)]
                cols.append(col)
        else:
            kernel = gf_kernel(matrices[p - 1], q)
            for _ in range(n):
                col = [0] * n_prev
                for vec in kernel:
                    if rng.random() < density:
                        coeff = int(rng.integers(1, q))
                        col = [(a + coeff * b) % q for a, b in zip(col, vec)]
                cols.append(col)
        matrices[p] = [[cols[j][i] for j in range(n)] for i in range(n_prev)]
        for j, lab in enumerate(labels[p]):
            faces = {labels[p - 1][i]: cols[j][i] for i in range(n_prev) if cols[j][i] % q}
            if faces:
                boundary[lab] = faces
    _assert_dd_zero(boundary, q)
    return labels, boundary


def _assert_dd_zero(boundary, q):
    for label, faces in boundary.items():
        acc = Counter()
        for face, c in faces.items():
            for face2, c2 in boundary.get(face, {}).items():
                acc[face2] = (acc[face2] + c * c2) % q
        assert not any(acc.values()), f"generated boundary fails d(d({label})) = 0"


def random_graded(rng, q, max_dim=3, max_per_dim=6, basis_prob=0.7):
    sizes = [int(rng.integers(0, max_per_dim + 1)) for _ in range(max_dim + 1)]
    labels, boundary = random_boundary_data(rng, q, sizes)
    basis, extension = {}, {}
    for p, labs in labels.items():
        flags = [rng.random() < basis_prob for _ in labs]
        order = list(range(len(labs)))
        rng.shuffle(order)
        basis[p] = [labs[i] for i in order if flags[i]]
        extension[p] = [labs[i] for i in order if not flags[i]]
    return GradedSubgroup(basis, extension, boundary, q=q)


def random_filtered(rng, q, p_max=2, max_per_dim=8, max_stages=5, basis_prob=0.75):
    g = random_graded(rng, q, max_dim=p_max + 1, max_per_dim=max_per_dim, basis_prob=basis_prob)
    num_stages = int(rng.integers(1, max_stages + 1))
    heights = {}
    for p in g.dims():
        # sorted along the basis order, so the compatible order is the store's own
        heights.update(zip(g.basis[p], sorted(int(rng.integers(1, num_stages + 1)) for _ in g.basis[p])))
    return FilteredGradedSubgroup(g, stage_heights(g, heights), num_stages)


def random_extended_input(rng, q, p_max=2, max_per_dim=5, max_asc=3, max_desc=3, basis_prob=0.7):
    sizes = [int(rng.integers(0, max_per_dim + 1)) for _ in range(p_max + 2)]
    labels, boundary = random_boundary_data(rng, q, sizes)
    basis, extension = {}, {}
    for p, labs in labels.items():
        basis[p] = [l for l in labs if rng.random() < basis_prob]
        chosen = set(basis[p])
        extension[p] = [l for l in labs if l not in chosen]
    M = int(rng.integers(1, max_asc + 1))
    N = int(rng.integers(1, max_desc + 1))
    asc = {l: int(rng.integers(1, M + 1)) for p in basis for l in basis[p]}
    desc = {l: int(rng.integers(1, N + 1)) for p in basis for l in basis[p]}
    return ExtendedInput.from_heights(basis, extension, boundary, asc, desc, M, N, q=q)


# ---------------------------------------------------------------------------
# textbook persistence reduction (independent classical oracle)
# ---------------------------------------------------------------------------


def random_filtered_simplicial_complex(rng, n_vertices=6, p_top=3, n_stages=4):
    """A filtration of simplicial complexes via random vertex stages.

    Returns a list of (simplex, stage) covering a random complex closed
    under faces, with stage(simplex) = max over its vertices.
    """
    verts = list(range(n_vertices))
    vertex_stage = {v: int(rng.integers(1, n_stages + 1)) for v in verts}
    simplices = {(v,) for v in verts}
    for size in range(2, p_top + 2):
        for combo in itertools.combinations(verts, size):
            if rng.random() < 0.5 ** (size - 1):
                for k in range(1, size + 1):
                    simplices.update(itertools.combinations(combo, k))
    return [(s, max(vertex_stage[v] for v in s)) for s in sorted(simplices)]


def classical_barcode(filtered_simplices, q, p_max):
    """Standard single-matrix reduction of a filtered simplicial complex.

    Independent of the package: dict-based columns, own arithmetic.
    Returns a Counter of (dim, birth, death) with death possibly inf.
    """
    order = sorted(filtered_simplices, key=lambda t: (t[1], len(t[0]), t[0]))
    order = [(s, stage) for s, stage in order if len(s) - 1 <= p_max + 1]
    index = {s: k for k, (s, _) in enumerate(order)}
    columns = []
    for s, _ in order:
        col = {}
        if len(s) > 1:
            sign = 1
            for i in range(len(s)):
                col[index[s[:i] + s[i + 1 :]]] = sign % q
                sign = -sign
        columns.append({r: c for r, c in col.items() if c % q})

    lows = {}
    for j in range(len(columns)):
        col = columns[j]
        while col:
            r = max(col)
            if r not in lows:
                lows[r] = j
                break
            k = lows[r]
            other = columns[k]
            factor = (-col[r] * pow(other[r], q - 2, q)) % q
            for rr, cc in other.items():
                col[rr] = (col.get(rr, 0) + factor * cc) % q
            col = {rr: cc for rr, cc in col.items() if cc}
        columns[j] = col

    intervals = Counter()
    paired_rows = set(lows)
    paired_cols = set(lows.values())
    for r, j in lows.items():
        dim = len(order[r][0]) - 1
        birth, death = order[r][1], order[j][1]
        if dim <= p_max and birth < death:
            intervals[(dim, birth, death)] += 1
    for j in range(len(columns)):
        if not columns[j] and j not in paired_rows:
            dim = len(order[j][0]) - 1
            if dim <= p_max:
                intervals[(dim, order[j][1], math.inf)] += 1
    return intervals


def fgs_from_filtered_complex(filtered_simplices, q, p_max):
    """Package-side input for the same filtered complex (subcomplex case)."""
    chosen = [(s, stage) for s, stage in filtered_simplices if len(s) - 1 <= p_max + 1]
    chosen.sort(key=lambda t: (t[1], len(t[0]), t[0]))
    basis = {}
    heights = {}
    boundary = {}
    for s, stage in chosen:
        p = len(s) - 1
        basis.setdefault(p, []).append(s)
        heights[s] = stage
        if p >= 1:
            faces = {}
            sign = 1
            for i in range(len(s)):
                faces[s[:i] + s[i + 1 :]] = sign
                sign = -sign
            boundary[s] = faces
    g = GradedSubgroup(basis, {}, boundary, q=q)
    n_stages = max((stage for _, stage in chosen), default=0)
    return FilteredGradedSubgroup(g, stage_heights(g, heights), max(n_stages, 1))


# ---------------------------------------------------------------------------
# bottleneck matcher: sorted thresholds and augmenting paths
# ---------------------------------------------------------------------------


def _perfect_within(cost, threshold):
    """Kuhn's augmenting paths: is there a perfect assignment with every cost <= threshold?"""
    n = len(cost)
    owner = [None] * n  # column -> the row assigned to it

    def augment(i, seen):
        for j in range(n):
            if cost[i][j] <= threshold and not seen[j]:
                seen[j] = True
                if owner[j] is None or augment(owner[j], seen):
                    owner[j] = i
                    return True
        return False

    return all(augment(i, [False] * n) for i in range(n))


def threshold_assignment(cost):
    """Minimal over perfect assignments of the maximal cost.

    The optimum is one of the entries, so this binary-searches the sorted
    distinct entries for the smallest that admits a perfect assignment.
    """
    if not cost:
        return 0.0
    values = sorted({c for row in cost for c in row})
    lo, hi = 0, len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _perfect_within(cost, values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return values[lo]


def backtracking_assignment(cost):
    """The same minimax by trying every assignment; exponential, for cross-checks only."""
    n = len(cost)
    if n == 0:
        return 0.0
    best = math.inf
    used = [False] * n

    def descend(i, current):
        nonlocal best
        if current >= best:
            return
        if i == n:
            best = current
            return
        for j in range(n):
            if not used[j] and cost[i][j] < best:
                used[j] = True
                descend(i + 1, max(current, cost[i][j]))
                used[j] = False

    descend(0, 0.0)
    return best


def _linf(p1, p2):
    return max(abs(p1.birth - p2.birth), abs(p1.death - p2.death))


def _diag_charge(pt):
    return abs(pt.death - pt.birth) / 2.0


def bottleneck_oracle(d1, d2, dim, assignment=threshold_assignment):
    """Bottleneck distance from each type's cost matrix padded with diagonal slots.

    Every point gets a diagonal slot on the other side, so a partial
    matching becomes a perfect assignment of an (n1+n2)² matrix; extended
    points have no slots.  ``assignment`` solves the minimax assignment.
    """
    worst = 0.0
    for kind in (ORD, REL, EXT):
        pts1 = list(d1.points(kind, dim))
        pts2 = list(d2.points(kind, dim))
        n1, n2 = len(pts1), len(pts2)
        if kind == EXT:
            if n1 != n2:
                return math.inf
            cost = [[_linf(p1, p2) for p2 in pts2] for p1 in pts1]
        else:
            size = n1 + n2
            cost = [[0.0] * size for _ in range(size)]
            for i, p1 in enumerate(pts1):
                for j, p2 in enumerate(pts2):
                    cost[i][j] = _linf(p1, p2)
                for j in range(n2, size):
                    cost[i][j] = _diag_charge(p1)
            for i in range(n1, size):
                for j, p2 in enumerate(pts2):
                    cost[i][j] = _diag_charge(p2)
        worst = max(worst, assignment(cost))
    return worst


# ---------------------------------------------------------------------------
# random front-end inputs
# ---------------------------------------------------------------------------


def random_digraph(rng, max_vertices=8, edge_prob=0.25, max_edges=14, weight_ticks=6):
    n = int(rng.integers(2, max_vertices + 1))
    verts = [f"v{i}" for i in range(n)]
    weights = {}
    pairs = [(a, b) for a in verts for b in verts if a != b]
    rng.shuffle(pairs)
    for a, b in pairs:
        if len(weights) >= max_edges:
            break
        if rng.random() < edge_prob:
            weights[(a, b)] = round(float(rng.integers(1, weight_ticks + 1)) / 2.0, 2)
    return WeightedDigraph(verts, weights)


def random_hypergraph(rng, max_vertices=8, max_hyperedges=12, max_arity=4, value_ticks=6):
    n = int(rng.integers(2, max_vertices + 1))
    verts = [f"u{i}" for i in range(n)]
    values = {}
    attempts = int(rng.integers(1, max_hyperedges + 1))
    for _ in range(attempts):
        size = int(rng.integers(1, min(max_arity, n) + 1))
        edge = tuple(sorted(rng.choice(n, size=size, replace=False)))
        key = tuple(verts[i] for i in edge)
        if key not in values:
            values[key] = round(float(rng.integers(1, value_ticks + 1)) / 2.0, 2)
    return FilteredHypergraph(verts, values)
