import math
from collections import Counter

import numpy as np
import pytest

from extph import (
    BoundaryMatrices,
    FilteredGradedSubgroup,
    GradedSubgroup,
    barcode,
    betti_table_from_barcode,
    build_matrices,
    compute_pairings,
    extended_barcode,
    persistent_betti_oracle,
    reduce,
    stage_heights,
)

from oracles import (
    classical_barcode,
    fgs_from_filtered_complex,
    gf_kernel,
    random_extended_input,
    random_filtered,
    random_filtered_simplicial_complex,
)
from references import SparseColumn, dense_sparse_matrix, reference_pairings, reference_reduce


def filtered_triangle(q=2):
    """Vertices a,b,c at stage 1, edges ab,bc at stage 2, ac at stage 3."""
    g = GradedSubgroup(
        basis={0: ["a", "b", "c"], 1: ["ab", "bc", "ac"]},
        boundary={
            "ab": {"b": 1, "a": -1},
            "bc": {"c": 1, "b": -1},
            "ac": {"c": 1, "a": -1},
        },
        q=q,
    )
    heights = {"a": 1, "b": 1, "c": 1, "ab": 2, "bc": 2, "ac": 3}
    return FilteredGradedSubgroup(g, stage_heights(g, heights), 3)


def lone_triangle_hyperedge(q=2):
    """The hypergraph {{a,b,c}} at a single stage."""
    g = GradedSubgroup(
        basis={2: [("a", "b", "c")]},
        extension={0: [("a",), ("b",), ("c",)], 1: [("a", "b"), ("a", "c"), ("b", "c")]},
        boundary={
            ("a", "b", "c"): {("b", "c"): 1, ("a", "c"): -1, ("a", "b"): 1},
            ("a", "b"): {("b",): 1, ("a",): -1},
            ("a", "c"): {("c",): 1, ("a",): -1},
            ("b", "c"): {("c",): 1, ("b",): -1},
        },
        q=q,
    )
    return FilteredGradedSubgroup(g, stage_heights(g, {("a", "b", "c"): 1}), 1)


# ---------------------------------------------------------------------------
# matrix construction
# ---------------------------------------------------------------------------


def test_subcomplex_matrices_have_no_extension_rows():
    f = filtered_triangle()
    bm = build_matrices(f, 1)
    assert bm.mats[0].num_rows == 3  # only the three vertices
    assert bm.mats[1].num_rows == 3  # no dim-2 columns, rows are just the edges


def test_lone_hyperedge_matrix_is_one_column_with_three_extension_rows():
    f = lone_triangle_hyperedge()
    bm = build_matrices(f, 2)
    a1 = bm.mats[0]
    assert a1.num_cols == 0  # no basis generators in dimension 1
    a2 = bm.mats[1]  # boundary of the single dim-2 hyperedge
    assert a2.num_cols == 1 and a2.num_rows == 3  # 0 basis rows + 3 extension rows
    assert a2.lows.tolist() == [2]  # the column is not empty


def test_empty_dimension_gives_zero_columns():
    g = GradedSubgroup(basis={0: ["a"]}, q=2)
    f = FilteredGradedSubgroup(g, stage_heights(g, {"a": 1}), 1)
    bm = build_matrices(f, 2)
    assert [m.num_cols for m in bm.mats] == [0, 0, 0]


def test_a_negative_p_max_is_refused():
    with pytest.raises(ValueError, match="p_max must be nonnegative"):
        build_matrices(filtered_triangle(), -1)
    with pytest.raises(ValueError, match="p_max must be nonnegative"):
        extended_barcode(random_extended_input(np.random.default_rng(5), 2), -1)


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------


def test_triangle_pairings():
    f = filtered_triangle()
    pairings = compute_pairings(build_matrices(f, 1))
    # b is killed by ab, c by bc, a survives; ac becomes a 1-cycle
    assert pairings[0].pairs == frozenset({(1, 0), (2, 1)})
    assert pairings[0].unpaired_cycles == frozenset({0})
    assert pairings[1].pairs == frozenset()
    assert pairings[1].unpaired_cycles == frozenset({2})


def test_lone_hyperedge_pivot_falls_in_the_extension_block():
    f = lone_triangle_hyperedge()
    pairings = compute_pairings(build_matrices(f, 2))
    assert all(not p.pairs for p in pairings)
    # the dim-2 column is nonzero, so the generator is not a cycle either
    assert pairings[2].unpaired_cycles == frozenset()
    assert barcode(pairings, f) .intervals == ()


def test_all_zero_boundaries_make_every_generator_a_cycle():
    g = GradedSubgroup(basis={0: ["a", "b"], 1: ["e"]}, q=2)
    f = FilteredGradedSubgroup(g, stage_heights(g, {"a": 1, "b": 2, "e": 2}), 2)
    pairings = compute_pairings(build_matrices(f, 1))
    assert pairings[0].unpaired_cycles == frozenset({0, 1})
    assert pairings[1].unpaired_cycles == frozenset({0})


def test_no_generator_appears_in_two_pairs():
    rng = np.random.default_rng(47)
    for q in (2, 3):
        for _ in range(30):
            f = random_filtered(rng, q, p_max=2, max_per_dim=6)
            pairings = compute_pairings(build_matrices(f, 2))
            for low_dim, high_dim in zip(pairings, pairings[1:]):
                left = {i for i, _ in high_dim.pairs}
                right = {j for _, j in low_dim.pairs}
                assert not left & right


# ---------------------------------------------------------------------------
# barcodes
# ---------------------------------------------------------------------------


def test_triangle_barcode():
    f = filtered_triangle()
    bc = barcode(compute_pairings(build_matrices(f, 1)), f)
    assert [(b, d) for dim, b, d in bc if dim == 0] == [(1, 2), (1, 2), (1, math.inf)]
    assert [(b, d) for dim, b, d in bc if dim == 1] == [(3, math.inf)]


def test_single_vertex_barcode():
    g = GradedSubgroup(basis={0: ["x"]}, q=2)
    f = FilteredGradedSubgroup(g, stage_heights(g, {"x": 1}), 1)
    bc = barcode(compute_pairings(build_matrices(f, 0)), f)
    assert bc.intervals == ((0, 1, math.inf),)


def test_pair_with_reversed_heights_contributes_nothing():
    # the edge arrives before its vertex: a pair with height 2 -> 1
    g = GradedSubgroup(basis={0: ["v"], 1: ["e"]}, boundary={"e": {"v": 1}}, q=2)
    f = FilteredGradedSubgroup(g, stage_heights(g, {"v": 2, "e": 1}), 2)
    pairings = compute_pairings(build_matrices(f, 1))
    assert pairings[0].pairs == frozenset({(0, 0)})
    bc = barcode(pairings, f)
    assert bc.intervals == ()
    assert persistent_betti_oracle(f, 1) == betti_table_from_barcode(bc, 1, 2)


def test_a_basis_listed_out_of_height_order_is_sorted_by_height():
    # b enters before a; the store's own order is not compatible
    g = GradedSubgroup(basis={0: ["a", "b"], 1: ["ab"]}, boundary={"ab": {"b": 1, "a": -1}}, q=2)
    f = FilteredGradedSubgroup(g, stage_heights(g, {"a": 2, "b": 1, "ab": 3}), 3)
    assert f.basis[0] == ["b", "a"] and f.heights[0] == [1, 2]
    bc = barcode(compute_pairings(build_matrices(f, 1)), f)
    assert bc.intervals == ((0, 1, math.inf), (0, 2, 3))
    assert persistent_betti_oracle(f, 1) == betti_table_from_barcode(bc, 1, 3)


def test_empty_filtration_is_legal():
    g = GradedSubgroup(basis={}, q=2)
    f = FilteredGradedSubgroup(g, stage_heights(g, {}), 0)
    bc = barcode(compute_pairings(build_matrices(f, 2)), f)
    assert bc.intervals == ()
    assert persistent_betti_oracle(f, 2) == {}


# ---------------------------------------------------------------------------
# oracle agreement, clearing, ordering robustness
# ---------------------------------------------------------------------------


def test_triangle_betti_table_spot_values():
    f = filtered_triangle()
    table = persistent_betti_oracle(f, 1)
    assert table[(0, 1, 1)] == 3
    assert table[(0, 1, 2)] == 1
    assert table[(0, 2, 2)] == 1
    assert table[(1, 3, 3)] == 1


def test_barcode_reproduces_betti_oracle_on_random_inputs():
    rng = np.random.default_rng(53)
    for q in (2, 3):
        for _ in range(40):
            f = random_filtered(rng, q, p_max=2, max_per_dim=6)
            bc = barcode(compute_pairings(build_matrices(f, 2)), f)
            assert betti_table_from_barcode(bc, 2, f.num_stages) == persistent_betti_oracle(f, 2)


def test_clearing_on_and_off_agree():
    rng = np.random.default_rng(59)
    for q in (2, 3):
        for _ in range(40):
            f = random_filtered(rng, q, p_max=2, max_per_dim=6)
            bm = build_matrices(f, 2)
            assert compute_pairings(bm, clearing=True) == compute_pairings(bm, clearing=False)


def test_extension_row_order_never_matters():
    rng = np.random.default_rng(61)
    for _ in range(20):
        f = random_filtered(rng, 3, p_max=2, max_per_dim=5, basis_prob=0.5)
        g = f.graded
        bc = barcode(compute_pairings(build_matrices(f, 2)), f)
        perm_ext = {}
        for p in g.dims():
            ext = list(g.extension[p])
            rng.shuffle(ext)
            perm_ext[p] = ext
        shuffled = GradedSubgroup(
            {p: list(g.basis[p]) for p in g.dims()},
            perm_ext,
            {l: g.boundary_dict(l) for p in g.dims() for l in g.universe[p]},
            q=g.q,
        )
        heights = {l: f.height_of(l) for p in g.dims() for l in g.basis[p]}
        f2 = FilteredGradedSubgroup(shuffled, stage_heights(shuffled, heights), f.num_stages)
        bc2 = barcode(compute_pairings(build_matrices(f2, 2)), f2)
        assert bc == bc2


def test_subcomplex_case_matches_textbook_reduction():
    rng = np.random.default_rng(67)
    for q in (2, 3):
        for _ in range(15):
            filtered = random_filtered_simplicial_complex(rng)
            f = fgs_from_filtered_complex(filtered, q, p_max=2)
            bc = barcode(compute_pairings(build_matrices(f, 2)), f)
            assert Counter(bc) == classical_barcode(filtered, q, p_max=2)


# ---------------------------------------------------------------------------
# the array route against the list-of-entries reference
# ---------------------------------------------------------------------------


def _random_chain_matrices(rng, q, p_max):
    """Boundary matrices 0..p_max of a random chain complex mod q, laid out as ``build_matrices`` lays them out.

    Each dimension's universe holds up to 30 generators, or none.  d_1 is
    random and sparse; each higher boundary is a random combination of
    kernel vectors of the one below, so d∘d = 0 and the coefficients are
    any nonzero residues.  A random share of each universe, in a random
    order, is the basis; the rest are extension rows, every one of them in
    id order below the basis rows, so the matrices are tall.  Returns the
    dense matrices and the basis counts.
    """
    sizes = [int(rng.integers(0, 31)) if rng.random() < 0.85 else 0 for _ in range(p_max + 2)]
    d = {1: rng.integers(0, q, (sizes[0], sizes[1])) * (rng.random((sizes[0], sizes[1])) < 0.15)}
    for p in range(2, p_max + 2):
        n_prev, n = sizes[p - 1], sizes[p]
        vectors = gf_kernel(d[p - 1].tolist(), q) if sizes[p - 2] else np.eye(n_prev)  # no rows: every chain is a cycle
        ker = np.array(vectors, dtype=np.int64).T if len(vectors) else np.zeros((n_prev, 0), dtype=np.int64)
        d[p] = ker @ (rng.integers(0, q, (ker.shape[1], n)) * (rng.random((ker.shape[1], n)) < 0.3)) % q
    basis, rows = [], []
    for p, n in enumerate(sizes):
        ids = rng.permutation(n)
        k = int(rng.integers(0, n + 1))
        basis.append(ids[:k])
        rows.append(np.concatenate([ids[:k], np.sort(ids[k:])]).astype(np.int64))
    mats = [d[p + 1][rows[p]][:, basis[p + 1]] % q for p in range(p_max + 1)]
    return mats, [len(b) for b in basis]


@pytest.mark.parametrize("clearing", [True, False])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_the_array_route_matches_the_list_of_entries_reference(q, clearing):
    rng = np.random.default_rng(137 + q)
    seen = set()
    for _ in range(40):
        dense, basis_counts = _random_chain_matrices(rng, q, p_max=int(rng.integers(0, 4)))
        bm = BoundaryMatrices(tuple(dense_sparse_matrix(a, q) for a in dense), tuple(basis_counts))
        columns = [
            [SparseColumn((int(r), int(a[r, j])) for r in np.flatnonzero(a[:, j])) for j in range(a.shape[1])]
            for a in dense
        ]
        got = compute_pairings(bm, clearing)
        assert got == reference_pairings(columns, basis_counts, q, clearing)
        assert got == compute_pairings(bm, not clearing)  # d∘d = 0, so clearing is invisible
        for p, (m, cols) in enumerate(zip(bm.mats, columns)):
            want = reference_reduce(cols, q)
            assert reduce(m) == want
            vanish = [j for j in range(m.num_cols) if j not in want.values()]
            skip = {j for j in vanish if rng.random() < 0.5}
            assert reduce(m, skip_columns=skip) == reference_reduce(cols, q, skip) == want
            seen |= {"no columns"} if not m.num_cols else set()
            seen |= {"empty column"} if (m.lows < 0).any() else set()
            seen |= {"extension rows"} if m.num_rows > basis_counts[p] else set()
            seen |= {"skipped"} if skip else set()
            seen |= {"additions"} if any(m.lows[c] != r for r, c in want.items()) else set()
    assert seen == {"no columns", "empty column", "extension rows", "skipped", "additions"}
