import math
import random

import numpy as np
import pytest

from extph import (
    InputFormatError,
    WeightedDigraph,
    allowed_paths,
    build_pph_input,
    extended_barcode,
    extended_module_oracle,
    interval_rank_table,
    parse_digraph,
    path_homology,
    pph_store,
)
from extph.extended import EXTENDED
from extph.graded import GradedSubgroup
from extph.persistence import _betti_numbers

from oracles import gf_rank, random_digraph
from references import homology_dims, regular_boundary, same_store, sublevel, sup_complex, superlevel


def unit_cycle():
    return WeightedDigraph(
        ["a", "b", "c", "d"],
        {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("d", "a"): 1.0},
    )


def weak_components(g):
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, y in g.edges:
        parent[find(x)] = find(y)
    return len({find(v) for v in g.vertices})


# ---------------------------------------------------------------------------
# paths and boundaries
# ---------------------------------------------------------------------------


def test_allowed_paths_of_edgeless_graph():
    g = WeightedDigraph(["a", "b"], {})
    paths = allowed_paths(g, 2)
    assert paths[0] == [("a",), ("b",)]
    assert paths[1] == [] and paths[2] == []


def test_allowed_paths_of_transitive_triangle():
    g = WeightedDigraph(["a", "b", "c"], {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1})
    assert allowed_paths(g, 2)[2] == [("a", "b", "c")]


def test_allowed_paths_of_directed_cycle():
    paths = allowed_paths(unit_cycle(), 2)
    assert paths[2] == [("a", "b", "c"), ("b", "c", "d"), ("c", "d", "a"), ("d", "a", "b")]


def test_regular_boundary_of_an_edge():
    assert regular_boundary(("a", "b")) == {("b",): 1, ("a",): -1}


def test_regular_boundary_drops_irregular_faces():
    # removing the middle vertex of aba gives aa, which is irregular
    assert regular_boundary(("a", "b", "a")) == {("b", "a"): 1, ("a", "b"): 1}


def test_regular_boundary_rejects_irregular_paths():
    with pytest.raises(ValueError):
        regular_boundary(("a", "a", "b"))


@pytest.mark.parametrize("q", [2, 5])
def test_boundary_squares_to_zero_on_all_short_paths(q):
    verts = ["x", "y", "z"]
    level = [(v,) for v in verts]
    for _ in range(4):
        level = [path + (v,) for path in level for v in verts if v != path[-1]]
        for path in level:
            acc = {}
            for face, c in regular_boundary(path).items():
                for face2, c2 in regular_boundary(face).items():
                    acc[face2] = (acc.get(face2, 0) + c * c2) % q
            assert not any(acc.values()), path


# ---------------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------------


def label_store(g, p_max, q):
    """``pph_store`` at the label level: allowed paths, regular boundaries, faces closed top-down."""
    paths = allowed_paths(g, p_max + 1)
    listed = {path for level in paths.values() for path in level}
    extension = {p: set() for p in paths}
    boundary = {}
    for p in range(p_max + 1, 0, -1):
        for path in paths[p] + sorted(extension[p]):
            boundary[path] = regular_boundary(path)
            extension[p - 1].update(face for face in boundary[path] if face not in listed)
    return GradedSubgroup(paths, {p: sorted(e) for p, e in extension.items()}, boundary, q=q)


def test_the_array_store_matches_the_label_level_reference():
    rng = np.random.default_rng(191)
    for q in (2, 3):
        for p_max in (0, 1, 2, 3):
            for _ in range(6):
                g = random_digraph(rng, max_vertices=7, edge_prob=0.4)
                same_store(pph_store(g, p_max, q), label_store(g, p_max, q))


def test_the_array_store_needs_no_code_that_fits_in_int64():
    # base-100 codes of the 10-vertex rows would pass 2**63; the rows are ranked a column at a time
    names = [f"v{i:03d}" for i in range(100)]
    g = WeightedDigraph(names, {(a, b): 1.0 for a, b in zip(names, names[1:])})
    assert 100**10 > 2**63
    store = pph_store(g, 8, 3)
    same_store(store, label_store(g, 8, 3))
    store.validate()


def test_sublevel_and_superlevel_filter_edges():
    g = WeightedDigraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0, ("a", "c"): 3.0})
    assert sublevel(g, 0.5).edges == []
    assert sublevel(g, 3.0).edges == g.edges
    assert sublevel(g, 2.0).edges == [("a", "b"), ("b", "c")]
    assert superlevel(g, 2.0).edges == [("a", "c"), ("b", "c")]
    assert superlevel(g, 0.5).edges == g.edges


def test_height_is_the_stage_of_the_extreme_edge_weight():
    rng = np.random.default_rng(103)
    for _ in range(15):
        g = random_digraph(rng)
        x, asc, desc = build_pph_input(g, 2)
        if not asc:
            continue
        for p in range(1, 4):
            for path in allowed_paths(g, 3)[p]:
                ws = [g.weights[(path[k - 1], path[k])] for k in range(1, len(path))]
                assert x.ascending.height_of(path) == asc.index(max(ws)) + 1
                assert x.descending.height_of(path) == desc.index(min(ws)) + 1
        for v in g.vertices:
            assert x.ascending.height_of((v,)) == 1 and x.descending.height_of((v,)) == 1


def test_h0_counts_weak_components():
    rng = np.random.default_rng(107)
    for _ in range(15):
        g = random_digraph(rng)
        x, _, _ = build_pph_input(g, 1)
        if x.M == 0:
            continue
        dims = homology_dims(sup_complex(x.graded, 1), 1)
        assert dims[0] == weak_components(g)


def test_edgeless_graph_has_full_h0_and_empty_persistence():
    g = WeightedDigraph(["a", "b", "c"], {})
    x, asc, desc = build_pph_input(g, 2)
    assert asc == [] and desc == []
    assert len(extended_barcode(x, 2)) == 0


def test_edge_inclusion_is_functorial_on_spans():
    rng = np.random.default_rng(109)
    for _ in range(10):
        g = random_digraph(rng, max_vertices=6)
        if not g.weights:
            continue
        values = sorted({w for w in g.weights.values()})
        small, big = sublevel(g, values[0]), g
        paths_small = allowed_paths(small, 2)
        paths_big = allowed_paths(big, 2)
        for p in range(3):
            assert set(paths_small[p]) <= set(paths_big[p])


def test_single_edge_has_one_extended_component_interval():
    g = WeightedDigraph(["a", "b"], {("a", "b"): 1.0})
    x, asc, desc = build_pph_input(g, 2)
    assert x.M == x.N == 1
    bc = extended_barcode(x, 2)
    assert [iv.kind for iv in bc] == [EXTENDED]
    assert bc.intervals[0].dim == 0


def test_directed_cycle_has_one_dim1_class():
    x, _, _ = build_pph_input(unit_cycle(), 2)
    dims = homology_dims(sup_complex(x.graded, 2), 2)
    assert dims[1] == 1
    bc = extended_barcode(x, 2)
    assert len(bc.of_kind(EXTENDED, 1)) == 1
    assert interval_rank_table(bc, 2) == extended_module_oracle(x, 2)


def test_commutative_square_has_no_dim1_class():
    g = WeightedDigraph(
        ["a", "b", "c", "d"],
        {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "d"): 1.0, ("c", "d"): 1.0},
    )
    x, _, _ = build_pph_input(g, 2)
    assert homology_dims(sup_complex(x.graded, 2), 2)[1] == 0
    assert len(extended_barcode(x, 2).of_kind(EXTENDED, 1)) == 0


def test_two_weight_filtration_structure():
    g = WeightedDigraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0})
    x, asc, desc = build_pph_input(g, 2)
    assert asc == [1.0, 2.0] and desc == [2.0, 1.0]
    assert x.ascending.height_of(("a", "b")) == 1 and x.ascending.height_of(("b", "c")) == 2
    assert x.descending.height_of(("a", "b")) == 2 and x.descending.height_of(("b", "c")) == 1
    assert x.ascending.height_of(("a", "b", "c")) == 2 and x.descending.height_of(("a", "b", "c")) == 2


def test_random_digraph_barcodes_match_the_oracle():
    rng = np.random.default_rng(113)
    for _ in range(10):
        g = random_digraph(rng, max_vertices=6, max_edges=8)
        x, _, _ = build_pph_input(g, 2)
        bc = extended_barcode(x, 2)
        assert interval_rank_table(bc, 2) == extended_module_oracle(x, 2)


def three_out_digraph():
    """Seven vertices with three out-edges each: paths of every length, so dimension 2 has many cycles."""
    rng = random.Random(3)
    weights = {}
    for a in range(7):
        for b in rng.sample([v for v in range(7) if v != a], 3):
            weights[(a, b)] = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5])
    return WeightedDigraph(range(7), weights)


def test_a_store_built_for_a_lower_p_max_is_refused_by_both_routes():
    # the p_max 1 store lists no paths of length 3, so at p_max 2 every length-2 cycle
    # would survive: 37 intervals where the full store gives 7, with the oracle agreeing
    g = three_out_digraph()
    x, _, _ = build_pph_input(g, 1)
    for route in (extended_barcode, extended_module_oracle):
        with pytest.raises(ValueError, match="it serves p_max up to 1, not 2"):
            route(x, 2)
    with pytest.raises(ValueError, match="it serves p_max up to 1, not 2"):
        _betti_numbers(x.graded, 2)
    assert interval_rank_table(extended_barcode(x, 1), 1) == extended_module_oracle(x, 1)
    assert len(extended_barcode(build_pph_input(g, 2)[0], 2)) == 7
    assert path_homology(g, 2) == [1, 0, 0]


def test_a_negative_p_max_is_refused_by_the_store():
    with pytest.raises(ValueError, match="p_max must be nonnegative"):
        build_pph_input(unit_cycle(), -1)


def test_an_edgeless_digraphs_empty_input_keeps_its_stores_cells():
    from extph.digraph import _staged

    g = WeightedDigraph("ab", {})
    store = pph_store(g, 2)
    no_weights = np.zeros(0)
    x, asc, desc = _staged(store, no_weights)
    assert (x.M, x.N, asc, desc, len(extended_barcode(x, 2))) == (0, 0, [], [], 0)
    assert x.graded.cells is store.cells and x.graded.q == store.q
    assert _staged(x.graded, no_weights)[0].graded.cells is store.cells  # a trial stages on that store again


def test_path_homology_matches_the_supremum_complex_reference():
    rng = np.random.default_rng(307)
    for k in range(240):
        q, p_max = (2, 3, 5)[k % 3], k % 4
        g = random_digraph(rng, max_vertices=6, max_edges=10)
        want = homology_dims(sup_complex(pph_store(g, p_max, q), p_max), p_max)
        assert path_homology(g, p_max, q) == want


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_digraph_round_trip():
    text = "# demo\na\tb\t1.5\nb\tc\t2\nloner\t-\t-\n"
    g = parse_digraph(text)
    assert g.vertices == ("a", "b", "c", "loner")
    assert g.weights == {("a", "b"): 1.5, ("b", "c"): 2.0}


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("a,b,1", "expected"),
        ("a\tb", "expected"),
        ("a\ta\t1", "self-loop"),
        ("a\tb\tten", "bad weight"),
        ("a\tb\tnan", "non-finite"),
        ("a\tb\t-inf", "non-finite"),
        ("a\tb\t1\na\tb\t2", "duplicate"),
    ],
)
def test_parse_digraph_rejects_malformed_lines(line, fragment):
    with pytest.raises(InputFormatError) as err:
        parse_digraph(line)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text, line",
    [
        ("a\tb\t1\nb\tc\tten\nc\ta\tnan\n", 2),  # a syntax fault, then a semantic one
        ("a\tb\t1\nb\tb\t2\nc\ta\n", 2),  # a semantic fault, then a syntax one
        ("# head\n\na\tb\t1\nb\ta\tinf\na\tb\t2\n", 4),  # comments and blank lines are counted
    ],
)
def test_parse_digraph_names_the_first_faulty_line(text, line):
    with pytest.raises(InputFormatError) as err:
        parse_digraph(text)
    assert err.value.line == line and str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize(
    "edge, weight",
    [(("a", "a"), "1"), (("a", "b"), "nan"), (("a", "b"), "-inf")],
    ids=["self_loop", "nan", "minus_inf"],
)
def test_parser_and_constructor_give_one_message_per_fault(edge, weight):
    with pytest.raises(ValueError) as direct:
        WeightedDigraph(["a", "b"], {edge: float(weight)})
    with pytest.raises(InputFormatError) as parsed:
        parse_digraph(f"a\t-\t-\n{edge[0]}\t{edge[1]}\t{weight}\n")
    assert str(parsed.value) == f"line 2: {direct.value}"


def test_parse_digraph_builds_what_the_constructor_builds():
    text = "c\ta\t2\nloner\t-\t-\na\tb\t0.5\nb\tc\t1e-3\n"
    g = parse_digraph(text)
    want = WeightedDigraph(["a", "b", "c", "loner"], {("c", "a"): 2, ("a", "b"): 0.5, ("b", "c"): 0.001})
    assert (g.vertices, g.weights) == (want.vertices, want.weights)
    assert list(g.weights) == list(want.weights)


def test_constructor_rejects_non_finite_weights():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedDigraph(["a", "b"], {("a", "b"): bad})


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputFormatError) as err:
        parse_digraph("a\tb\t1\nbroken line\n")
    assert err.value.line == 2
