import math
from collections import Counter

import numpy as np
import pytest

from extph import (
    EXTENDED,
    FilteredHypergraph,
    GradedSubgroup,
    InputFormatError,
    RELATIVE,
    barcode,
    build_hyper_input,
    build_matrices,
    compute_pairings,
    diagrams,
    embedded_homology,
    extended_barcode,
    extended_module_oracle,
    hyper_store,
    interval_rank_table,
    parse_hypergraph,
    simplicial_closure,
)
from extph.diagrams import DiagramPoint

from oracles import classical_barcode, random_hypergraph
from references import (
    dense_rank,
    homology_dims,
    inf_complex,
    restricted,
    same_store,
    simplicial_boundary,
    sup_complex,
)


# ---------------------------------------------------------------------------
# closures and boundaries
# ---------------------------------------------------------------------------


def test_closure_of_a_triangle_has_seven_faces():
    assert len(simplicial_closure([("a", "b", "c")])) == 7


def test_closure_of_a_complex_is_itself():
    complex_ = {("a",), ("b",), ("a", "b")}
    assert simplicial_closure(complex_) == complex_


def test_closure_adds_missing_vertices():
    got = simplicial_closure([("a", "b"), ("b", "c")])
    assert got == {("a",), ("b",), ("c",), ("a", "b"), ("b", "c")}


def test_simplicial_boundary_signs():
    assert simplicial_boundary(("a", "b")) == {("b",): 1, ("a",): -1}
    assert simplicial_boundary(("a", "b", "c")) == {
        ("b", "c"): 1,
        ("a", "c"): -1,
        ("a", "b"): 1,
    }


def test_simplicial_boundary_requires_sorted_vertices():
    with pytest.raises(ValueError):
        simplicial_boundary(("b", "a"))


@pytest.mark.parametrize("q", [2, 5])
def test_boundary_squares_to_zero_on_small_simplices(q):
    from itertools import combinations

    verts = ("a", "b", "c", "d")
    for size in range(2, 5):
        for simplex in combinations(verts, size):
            acc = {}
            for face, c in simplicial_boundary(simplex).items():
                for face2, c2 in simplicial_boundary(face).items():
                    acc[face2] = (acc.get(face2, 0) + c * c2) % q
            assert not any(acc.values())


# ---------------------------------------------------------------------------
# building the input
# ---------------------------------------------------------------------------


def test_simplicial_complex_input_matches_classical_persistence():
    h = FilteredHypergraph(
        ["a", "b", "c"],
        {
            ("a",): 1.0,
            ("b",): 1.0,
            ("c",): 2.0,
            ("a", "b"): 2.0,
            ("b", "c"): 3.0,
        },
    )
    x, asc, desc = build_hyper_input(h, 2)
    # sublevel stages of a complex closed under faces with monotone values:
    # sup and inf complexes are the stage itself
    for stage in range(1, x.M + 1):
        f = x.ascending
        stage_g = restricted(x.graded, {p: f.basis[p][: f.stage_prefix(p, stage)] for p in x.graded.dims()})
        s = sup_complex(stage_g, 2)
        i = inf_complex(stage_g, 2)
        n_basis = [len(stage_g.basis.get(p, [])) for p in range(3)]
        assert [s.dim(p) for p in range(3)] == n_basis == [i.dim(p) for p in range(3)]
    bc = barcode(compute_pairings(build_matrices(x.ascending, 2)), x.ascending)
    filtered = [(s, x.ascending.height_of(s)) for p in range(3) for s in x.ascending.basis.get(p, [])]
    assert Counter(bc) == classical_barcode(filtered, 2, 2)


def test_single_stage_complex_has_one_extended_component():
    h = FilteredHypergraph(["a", "b"], {("a",): 1.0, ("b",): 1.0, ("a", "b"): 1.0})
    x, _, _ = build_hyper_input(h, 2)
    bc = extended_barcode(x, 2)
    assert [iv.kind for iv in bc] == [EXTENDED]
    assert bc.intervals[0].dim == 0


def test_lone_triangle_hyperedge_has_empty_barcode():
    h = FilteredHypergraph(["a", "b", "c"], {("a", "b", "c"): 1.0})
    x, _, _ = build_hyper_input(h, 2)
    dims = homology_dims(sup_complex(x.graded, 2), 2)
    assert dims == [0, 0, 0]
    assert len(extended_barcode(x, 2)) == 0


def test_empty_hypergraph_gives_empty_everything():
    h = FilteredHypergraph([], {})
    x, asc, desc = build_hyper_input(h, 2)
    assert asc == [] and desc == []
    assert len(extended_barcode(x, 2)) == 0


def test_v_shaped_values_produce_all_interval_axes():
    # two edges joined at a low vertex, with high endpoints: one extended
    # dim-0 point (min, max-reversed) and one relative dim-1 point
    h = FilteredHypergraph(
        ["a", "b", "c"],
        {("a",): 3.0, ("b",): 1.0, ("c",): 3.0, ("a", "b"): 1.0, ("b", "c"): 1.0},
    )
    x, asc, desc = build_hyper_input(h, 2)
    bc = extended_barcode(x, 2)
    assert len(bc) == 2
    assert bc.of_kind(EXTENDED) == (type(bc.intervals[0])(0, EXTENDED, 1, 1),)
    assert bc.of_kind(RELATIVE) == (type(bc.intervals[0])(1, RELATIVE, 1, 2),)
    d = diagrams(bc, asc, desc)
    assert d.extended == (DiagramPoint(0, 1.0, 3.0),)
    assert d.relative == (DiagramPoint(1, 3.0, 1.0),)


def test_embedded_homology_ignores_ambient_enlargement():
    h = FilteredHypergraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0})
    x, _, _ = build_hyper_input(h, 2)
    g = x.ascending.graded
    enlarged = GradedSubgroup(
        {p: list(g.basis[p]) for p in g.dims()},
        {
            p: list(g.extension[p]) + ([("z1",), ("z2",)] if p == 0 else [])
            for p in g.dims()
        },
        {l: g.boundary_dict(l) for p in g.dims() for l in g.universe[p]},
        q=2,
    )
    assert homology_dims(sup_complex(g, 2), 2) == homology_dims(sup_complex(enlarged, 2), 2)


def label_store(h, p_max, q):
    """``hyper_store`` at the label level: the simplicial closure and simplicial boundaries."""
    edges = [e for e in h.hyperedges if len(e) - 1 <= p_max + 1]
    listed = set(edges)
    basis, extension = {}, {}
    for e in edges:
        basis.setdefault(len(e) - 1, []).append(e)
    for face in sorted(simplicial_closure(edges) - listed):
        extension.setdefault(len(face) - 1, []).append(face)
    boundary = {s: simplicial_boundary(s) for s in simplicial_closure(edges) if len(s) > 1}
    return GradedSubgroup(basis, extension, boundary, q=q)


def test_the_array_store_matches_the_label_level_reference():
    rng = np.random.default_rng(193)
    for q in (2, 3):
        for p_max in (0, 1, 2, 3):
            for _ in range(6):
                h = random_hypergraph(rng, max_vertices=7, max_arity=5)
                same_store(hyper_store(h, p_max, q), label_store(h, p_max, q))


def test_the_array_store_needs_no_code_that_fits_in_int64():
    # base-40 codes of the 12-vertex rows would pass 2**63; the rows are ranked a column at a time
    names = [f"u{i:02d}" for i in range(40)]
    h = FilteredHypergraph(names, {tuple(names[::3][:12]): 1.0})
    assert 40**12 > 2**63
    store = hyper_store(h, 10, 3)
    assert [len(store.universe[p]) for p in store.dims()] == [math.comb(12, p + 1) for p in range(12)]
    same_store(store, label_store(h, 10, 3))
    store.validate()


def test_oversized_hyperedges_are_ignored():
    h = FilteredHypergraph(
        ["a", "b", "c", "d", "e"],
        {("a", "b", "c", "d", "e"): 1.0, ("a",): 1.0},
    )
    x, _, _ = build_hyper_input(h, 2)  # the 4-simplex exceeds p_max + 1 = 3
    assert x.ascending.graded.basis == {0: [("a",)]}


def _induced_map_ranks(big, keep, p_max, q):
    """Ranks of H_p(small) -> H_p(big): dim(cycles(small)+boundaries(big)) - dim boundaries(big)."""
    from extph.field import dense_kernel
    from extph.graded import image_matrix

    small_s = sup_complex(restricted(big, keep), p_max)
    out = []
    for p in range(p_max + 1):
        vecs = small_s.vectors[p]
        if p:
            vecs = (vecs @ dense_kernel(small_s.boundary_matrix(p), q)) % q
        bnd = image_matrix(big, p + 1, big.basis_rows(p + 1))
        out.append(dense_rank(np.hstack([vecs, bnd]), q) - dense_rank(bnd, q))
    return out


def test_embedded_homology_matches_the_supremum_complex_reference():
    rng = np.random.default_rng(311)
    for k in range(240):
        q, p_max = (2, 3, 5)[k % 3], k % 4
        h = random_hypergraph(rng, max_vertices=7, max_arity=5)
        want = homology_dims(sup_complex(hyper_store(h, p_max, q), p_max), p_max)
        assert embedded_homology(h, p_max, q) == want


def test_inclusion_induces_order_independent_map_ranks():
    # H' inside H induces maps on embedded homology whose ranks must not
    # depend on the order hyperedges and faces were listed in
    rng = np.random.default_rng(163)
    from oracles import random_hypergraph

    for _ in range(10):
        h = random_hypergraph(rng, max_vertices=6, max_hyperedges=8)
        x, _, _ = build_hyper_input(h, 2)
        g = x.ascending.graded
        keep = {p: {l for l in g.basis.get(p, ()) if rng.random() < 0.6} for p in g.dims()}
        reordered_basis, reordered_ext = {}, {}
        for p in g.dims():
            b, e = list(g.basis[p]), list(g.extension[p])
            rng.shuffle(b)
            rng.shuffle(e)
            reordered_basis[p], reordered_ext[p] = b, e
        g2 = GradedSubgroup(
            reordered_basis,
            reordered_ext,
            {l: g.boundary_dict(l) for p in g.dims() for l in g.universe[p]},
            q=2,
        )
        assert _induced_map_ranks(g, keep, 2, 2) == _induced_map_ranks(g2, keep, 2, 2)


def test_random_hypergraph_barcodes_match_the_oracle():
    rng = np.random.default_rng(127)
    for _ in range(10):
        h = random_hypergraph(rng, max_vertices=6, max_hyperedges=8)
        x, _, _ = build_hyper_input(h, 2)
        bc = extended_barcode(x, 2)
        assert interval_rank_table(bc, 2) == extended_module_oracle(x, 2)


def test_module_oracle_table_by_hand():
    # Two components on the value grid 1 < 2 < 3 (M = N = 3, positions 1..6):
    # * a triangle filled in stages: vertices at 1, edges at 2, the face at 3.
    #   H_0: one class lives from 1 until the relative block ends (positions
    #   1..5), two more die when the edges enter (position 1 only); H_1: the
    #   hollow triangle at position 2.  The descending sides T^1 (the face and
    #   its boundary) and T^2 (plus the edges) are acyclic, so the relative
    #   terms H_*(X, T^1) and H_*(X, T^2) are those of X itself.
    # * an edge xy at 1 whose end points come at 3: before that its supremum
    #   complex {xy, y - x} is acyclic, then one H_0 class (position 3) that
    #   dies as soon as T^1 = {x, y} is divided out; H_1(X, T^1) and
    #   H_1(X, T^2) hold the edge relative to its end points (positions 4..5).
    text = "1\ta\n1\tb\n1\tc\n2\ta,b\n2\tb,c\n2\ta,c\n3\ta,b,c\n3\tx\n3\ty\n1\tx,y\n"
    x, _, _ = build_hyper_input(parse_hypergraph(text), 3, q=3)
    assert (x.M, x.N) == (3, 3)
    alive = {0: [range(1, 6), range(1, 2), range(1, 2), range(3, 4)], 1: [range(2, 3), range(4, 6)]}
    want = {
        (p, u, v): sum(u in r and v in r for r in alive.get(p, ()))
        for p in range(4)
        for u in range(1, 7)
        for v in range(u, 7)
    }
    assert want[(0, 1, 1)] == 3 and want[(0, 3, 3)] == 2 and want[(1, 4, 5)] == 1
    assert extended_module_oracle(x, 3) == want
    assert interval_rank_table(extended_barcode(x, 3), 3) == want


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_hypergraph_round_trip():
    text = "# values then vertex lists\n1.5\ta,b\n2\tc\n"
    h = parse_hypergraph(text)
    assert h.vertices == ("a", "b", "c")
    assert h.values == {("a", "b"): 1.5, ("c",): 2.0}


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("1.5 a,b", "expected"),
        ("x\ta,b", "bad value"),
        ("inf\ta,b", "non-finite"),
        ("nan\ta", "non-finite"),
        ("1\ta,,b", "empty vertex"),
        ("1\ta,a", "repeats"),
        ("1\ta,b\n2\tb,a", "duplicate"),
    ],
)
def test_parse_hypergraph_rejects_malformed_lines(line, fragment):
    with pytest.raises(InputFormatError) as err:
        parse_hypergraph(line)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, line",
    [
        ("1\ta\nx\tb\n2\ta,a\n", 2),  # a syntax fault, then a semantic one
        ("1\ta\nnan\tb\n2\ta,,b\n", 2),  # a semantic fault, then a syntax one
        ("# head\n\n1\ta,b\n2\tb,a\n3\t\n", 4),  # comments and blank lines are counted
    ],
)
def test_parse_hypergraph_names_the_first_faulty_line(text, line):
    with pytest.raises(InputFormatError) as err:
        parse_hypergraph(text)
    assert err.value.line == line and str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize(
    "edges",
    [[("1", "a,a")], [("inf", "a,b")], [("nan", "b")], [("1", "a,b"), ("2", "b,a")]],
    ids=["repeated_vertex", "inf", "nan", "duplicate"],
)
def test_parser_and_constructor_give_one_message_per_fault(edges):
    with pytest.raises(ValueError) as direct:
        FilteredHypergraph(["a", "b"], {tuple(e.split(",")): float(v) for v, e in edges})
    with pytest.raises(InputFormatError) as parsed:
        parse_hypergraph("".join(f"{v}\t{e}\n" for v, e in edges))
    assert str(parsed.value) == f"line {len(edges)}: {direct.value}"


def test_parse_hypergraph_builds_what_the_constructor_builds():
    text = "2\tc,a\n1\tb\n0.5\ta,b,c\n"
    h = parse_hypergraph(text)
    want = FilteredHypergraph("abc", {("c", "a"): 2, ("b",): 1, ("a", "b", "c"): 0.5})
    assert (h.vertices, h.values) == (want.vertices, want.values)
    assert list(h.values) == list(want.values)


def test_the_hyperedges_above_the_store_are_not_staged():
    # at p_max 1 the store stops at dimension 2, so the tetrahedron and its value are not in the input
    h = FilteredHypergraph("abcd", {("a", "b", "c"): 1, ("a", "b", "c", "d"): 2})
    x, asc, _ = build_hyper_input(h, p_max=1)
    assert max(x.graded.dims()) == 2 and asc == [1.0]


def test_hyper_store_refuses_a_negative_p_max():
    with pytest.raises(ValueError, match="p_max must be nonnegative"):
        build_hyper_input(FilteredHypergraph("a", {("a",): 1}), -1)


def test_a_store_built_for_a_lower_p_max_is_refused():
    # the p_max 0 store stops at dimension 1, below the triangle that fills the cycle
    h = FilteredHypergraph("abc", {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1, ("a", "b", "c"): 2})
    x, _, _ = build_hyper_input(h, 0)
    for route in (extended_barcode, extended_module_oracle):
        with pytest.raises(ValueError, match="it serves p_max up to 0, not 1"):
            route(x, 1)


def test_constructor_rejects_non_finite_values():
    for bad in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            FilteredHypergraph(["a"], {("a",): bad})
