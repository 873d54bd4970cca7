import numpy as np
import pytest

from extph import (
    EXTENDED,
    ORDINARY,
    RELATIVE,
    ConsistencyError,
    ExtendedInput,
    ExtendedInterval,
    GradedSubgroup,
    GradedValidationError,
    Pairing,
    WeightedDigraph,
    barcode,
    build_extended_filtration,
    build_hyper_input,
    build_matrices,
    build_pph_input,
    compute_pairings,
    cone_graded,
    extended_barcode,
    extended_module_oracle,
    interval_rank_table,
    persistent_betti_oracle,
    simplicial_closure,
)

from oracles import gf_rank, random_digraph, random_extended_input, random_graded, random_hypergraph
from references import (
    homology_dims,
    mapping_cone,
    per_stage_module_oracle,
    positional_barcode,
    relative_homology_dims,
    restricted,
    simplicial_boundary,
    sup_complex,
)


def edge_uv_input(q=2, ascending=None, descending=None):
    """Edge uv with vertex values f(u)=1, f(v)=2: sublevel up, superlevel down."""
    return ExtendedInput.from_heights(
        {0: ["u", "v"], 1: ["uv"]},
        {},
        {"uv": {"v": 1, "u": -1}},
        ascending or {"u": 1, "v": 2, "uv": 2},
        descending or {"v": 1, "u": 2, "uv": 2},
        2,
        2,
        q=q,
    )


def edge_graded(q=2):
    return GradedSubgroup(
        basis={0: ["u", "v"], 1: ["uv"]}, boundary={"uv": {"v": 1, "u": -1}}, q=q
    )


def span_rows(slice_, p):
    return [list(r) for r in slice_.vectors[p].T]


def spans_equal(s1, s2, p, q):
    r1, r2 = span_rows(s1, p), span_rows(s2, p)
    k1, k2 = gf_rank(r1, q), gf_rank(r2, q)
    return k1 == k2 == gf_rank(r1 + r2, q)


# ---------------------------------------------------------------------------
# mapping cones
# ---------------------------------------------------------------------------


def test_cone_over_zero_keeps_homology():
    g = edge_graded()
    big = sup_complex(g, 1)
    zero = sup_complex(restricted(g, {0: [], 1: []}), 1)
    cone = mapping_cone(zero, big)
    assert homology_dims(cone, 1) == homology_dims(big, 1)


def test_cone_over_itself_is_acyclic():
    g = edge_graded()
    big = sup_complex(g, 1)
    cone = mapping_cone(big, big)
    assert homology_dims(cone, 1) == [0, 0]


def test_cone_computes_relative_homology():
    g = edge_graded()
    big = sup_complex(g, 1)
    small = sup_complex(restricted(g, {0: ["v"], 1: []}), 1)
    cone = mapping_cone(small, big)
    assert homology_dims(cone, 1) == relative_homology_dims(big, small, 1)


def test_cone_homology_equals_quotient_homology_on_random_pairs():
    rng = np.random.default_rng(71)
    for q in (2, 3):
        for _ in range(25):
            big_g = random_graded(rng, q, max_dim=3, max_per_dim=5)
            keep = {p: [l for l in big_g.basis[p] if rng.random() < 0.6] for p in big_g.dims()}
            small_g = restricted(big_g, keep)
            big, small = sup_complex(big_g, 2), sup_complex(small_g, 2)
            assert homology_dims(mapping_cone(small, big), 2) == relative_homology_dims(
                big, small, 2
            )


def test_cone_rejects_non_contained_pairs():
    g = edge_graded()
    big = sup_complex(g, 1)
    small = sup_complex(restricted(g, {0: ["v"], 1: []}), 1)
    with pytest.raises(GradedValidationError):
        mapping_cone(big, small)


# ---------------------------------------------------------------------------
# cones of graded subgroups
# ---------------------------------------------------------------------------


def test_cone_graded_of_zero_embeds_the_subgroup():
    g = edge_graded()
    cone = cone_graded(g, {}, g.basis)
    s_cone, s_g = sup_complex(cone, 1), sup_complex(g, 1)
    assert homology_dims(s_cone, 1) == homology_dims(s_g, 1)


def test_cone_graded_of_full_subcomplex_is_acyclic():
    g = edge_graded()
    cone = cone_graded(g, g.basis, g.basis)
    assert homology_dims(sup_complex(cone, 1), 1) == [0, 0]


def test_sup_commutes_with_cone_on_random_pairs():
    rng = np.random.default_rng(73)
    for q in (2, 3):
        for _ in range(25):
            big_g = random_graded(rng, q, max_dim=3, max_per_dim=5)
            keep = {p: [l for l in big_g.basis[p] if rng.random() < 0.6] for p in big_g.dims()}
            small_g = restricted(big_g, keep)
            lhs = sup_complex(cone_graded(big_g, small_g.basis, big_g.basis), 2)
            rhs = mapping_cone(sup_complex(small_g, 2), sup_complex(big_g, 2))
            for p in range(3):
                assert spans_equal(lhs, rhs, p, q)


# ---------------------------------------------------------------------------
# the extended filtration
# ---------------------------------------------------------------------------


def test_cone_graded_rejects_a_small_side_outside_the_big_one():
    g = edge_graded()
    with pytest.raises(GradedValidationError, match="dimension 0"):
        cone_graded(g, {0: ["u"]}, {0: ["v"], 1: ["uv"]})
    with pytest.raises(GradedValidationError, match="dimension 1"):
        cone_graded(g, {}, {1: ["vu"]})


def test_extended_filtration_is_compatible():
    x = edge_uv_input()
    cone_f = build_extended_filtration(x, 1)
    assert cone_f.num_stages == 4
    for p in cone_f.graded.dims():
        assert cone_f.basis[p] == cone_f.graded.basis[p]  # base block, then cone block, each sorted


def test_extended_filtration_heights():
    x = edge_uv_input()
    cone_f = build_extended_filtration(x, 1)
    by_label = {lab: h for p in cone_f.graded.dims() for lab, h in zip(cone_f.basis[p], cone_f.heights[p])}
    assert {str(k.part) + ":" + str(k.gen) + "@" + str(k.dim): v for k, v in by_label.items()} == {
        "base:u@0": 1,
        "base:v@0": 2,
        "base:uv@1": 2,
        "cone:v@1": 3,
        "cone:u@1": 4,
        "cone:uv@2": 4,
    }


def test_empty_input_gives_empty_everything():
    x = ExtendedInput.from_heights({}, {}, {}, {}, {}, 0, 0, q=2)
    bc = extended_barcode(x, 2)
    assert len(bc) == 0
    assert extended_module_oracle(x, 2) == {} == interval_rank_table(bc, 2)


def test_from_values_counts_the_grid_values_up_to_and_from_each_entry_value():
    store = GradedSubgroup({0: ["u", "v"], 1: ["uv"]}, {}, {"uv": {"v": 1, "u": -1}})
    grid = [1.0, 2.0, 3.0]
    x, asc, desc = ExtendedInput.from_values(store, grid, {0: [1.0, 2.0], 1: [3.0]}, {0: [3.0, 2.0], 1: [1.0]})
    assert x.graded is store and (asc, desc, x.M, x.N) == (grid, grid[::-1], 3, 3)
    assert [x.ascending.height_of(g) for g in ("u", "v", "uv")] == [1, 2, 3]
    assert [x.descending.height_of(g) for g in ("u", "v", "uv")] == [1, 2, 3]


def test_single_stage_subcomplex_yields_only_extended_intervals():
    x = ExtendedInput.from_heights(
        {0: ["u", "v"], 1: ["uv"]},
        {},
        {"uv": {"v": 1, "u": -1}},
        {"u": 1, "v": 1, "uv": 1},
        {"u": 1, "v": 1, "uv": 1},
        1,
        1,
        q=2,
    )
    bc = extended_barcode(x, 1)
    assert all(iv.kind == EXTENDED for iv in bc)
    assert len(bc.of_kind(EXTENDED, 0)) == 1  # one component, nothing else


# ---------------------------------------------------------------------------
# the extended barcode
# ---------------------------------------------------------------------------


def test_edge_uv_barcode():
    x = edge_uv_input()
    bc = extended_barcode(x, 1)
    assert list(bc) == [ExtendedInterval(0, EXTENDED, 1, 1)]


def test_edge_uv_oracle_table():
    x = edge_uv_input()
    table = extended_module_oracle(x, 1)
    assert table[(0, 1, 1)] == 1
    assert table[(0, 2, 2)] == 1
    assert table[(0, 3, 3)] == 0  # H_0 relative to {v} vanishes
    assert table[(0, 4, 4)] == 0
    assert table[(0, 1, 2)] == 1
    assert interval_rank_table(extended_barcode(x, 1), 1) == table


def test_final_module_term_is_always_zero():
    rng = np.random.default_rng(79)
    for _ in range(10):
        x = random_extended_input(rng, 2)
        table = extended_module_oracle(x, 2)
        L = x.M + x.N
        if L:
            for p in range(3):
                assert table[(p, L, L)] == 0


def test_interval_counts_match_module_oracle_on_random_inputs():
    rng = np.random.default_rng(83)
    for q in (2, 3):
        for _ in range(25):
            x = random_extended_input(rng, q)
            bc = extended_barcode(x, 2)
            assert interval_rank_table(bc, 2) == extended_module_oracle(x, 2)


def _doubled_input(rng, q):
    """A hollow tetrahedron, a filled triangle and a tail edge, with every boundary coefficient doubled.

    2∂ still squares to zero, and its coefficients are ±2, which are 2 and 3
    mod 5: pivots that are not their own inverses, unlike the ±1 the front
    ends write.  A random share of the simplices is the basis, the rest the
    extension, and each basis simplex has a random height on each side.
    """
    hyperedges = [("a", "b", "c"), ("a", "b", "d"), ("a", "c", "d"), ("b", "c", "d"), ("d", "e", "f"), ("f", "g")]
    simplices = sorted(simplicial_closure(hyperedges), key=lambda s: (len(s), s))
    boundary = {s: {f: 2 * c for f, c in simplicial_boundary(s).items()} for s in simplices if len(s) > 1}
    basis, extension = {}, {}
    for s in simplices:
        (basis if rng.random() < 0.75 else extension).setdefault(len(s) - 1, []).append(s)
    M, N = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    asc = {s: int(rng.integers(1, M + 1)) for p in basis for s in basis[p]}
    desc = {s: int(rng.integers(1, N + 1)) for p in basis for s in basis[p]}
    return ExtendedInput.from_heights(basis, extension, boundary, asc, desc, M, N, q=q)


def test_non_unit_pivots_agree_with_the_module_oracle():
    rng = np.random.default_rng(227)
    low_coefficients = set()
    for _ in range(30):
        x = _doubled_input(rng, 5)
        table = extended_module_oracle(x, 2)
        for clearing in (True, False):
            assert interval_rank_table(extended_barcode(x, 2, clearing=clearing), 2) == table
        for m in build_matrices(x, 2).mats:
            low_coefficients.update(m.coeffs[m.indptr[1:][m.lows >= 0] - 1].tolist())
    assert {2, 3} <= low_coefficients  # the pivots are the doubled coefficients


def test_ascending_block_of_the_module_oracle_is_the_persistent_betti_table():
    rng = np.random.default_rng(97)
    for k in range(210):
        x = random_extended_input(rng, (2, 3, 5)[k % 3])
        ascending = {key: r for key, r in extended_module_oracle(x, 2).items() if key[2] <= x.M}
        assert ascending == persistent_betti_oracle(x.ascending, 2)


def _relative_cases(x, p_max) -> set:
    """The shapes of relative source that the module oracle meets on ``x``."""
    desc, seen = x.descending, set()
    for p in range(p_max + 1):
        seen |= {"p = 0"} if p == 0 else set()
        seen |= {"N = 1"} if x.N == 1 else set()
        below = len(desc.rows(p - 1))
        for j in range(1, x.N + 1):
            inside = desc.stage_prefix(p - 1, j)
            if p and below:
                seen.add("E^j_{p-1} empty" if inside == 0 else "E^j_{p-1} full" if inside == below else "E^j_{p-1} part")
    return seen


def test_relative_sources_from_one_kernel_match_one_kernel_per_stage():
    rng = np.random.default_rng(211)
    seen = set()
    for k in range(240):
        q = (2, 3, 5)[k % 3]
        if k % 5 == 4:
            subject = (random_digraph(rng, max_vertices=6, max_edges=10), random_hypergraph(rng))[k % 2]
            p_max = 1 + k % 3
            x, _, _ = (build_pph_input, build_hyper_input)[k % 2](subject, p_max, q)
        else:
            p_max = 2
            x = random_extended_input(rng, q, max_desc=(1, 4)[k % 2])
        assert extended_module_oracle(x, p_max) == per_stage_module_oracle(x, p_max)
        seen |= _relative_cases(x, p_max)
    assert seen == {"p = 0", "N = 1", "E^j_{p-1} empty", "E^j_{p-1} full", "E^j_{p-1} part"}
    # an edgeless digraph has no stages, and one edge gives a single relative stage
    for weights in ({}, {("a", "b"): 1.0}):
        x, _, _ = build_pph_input(WeightedDigraph("abc", weights), 2, 3)
        assert extended_module_oracle(x, 2) == per_stage_module_oracle(x, 2)
        assert len(extended_module_oracle(x, 2)) == 3 * (x.M + x.N) * (x.M + x.N + 1) // 2


def test_positional_reading_fails_somewhere():
    # deterministic witness: the two dim-0 orders of edge_uv differ
    x = edge_uv_input()
    want = extended_module_oracle(x, 1)
    good = extended_barcode(x, 1)
    bad = positional_barcode(x, 1)
    assert interval_rank_table(good, 1) == want
    assert interval_rank_table(bad, 1) != want


def test_clearing_does_not_change_the_extended_barcode():
    rng = np.random.default_rng(89)
    for _ in range(15):
        x = random_extended_input(rng, 3)
        assert extended_barcode(x, 2, clearing=True) == extended_barcode(x, 2, clearing=False)


def test_ordinary_part_reproduces_the_unextended_barcode():
    import math

    rng = np.random.default_rng(97)
    for _ in range(25):
        x = random_extended_input(rng, 2)
        bc = extended_barcode(x, 2)
        plain = barcode(compute_pairings(build_matrices(x.ascending, 2)), x.ascending)
        got = sorted(
            [(iv.dim, iv.birth, iv.death) for iv in bc.of_kind(ORDINARY)]
            + [(iv.dim, iv.birth, math.inf) for iv in bc.of_kind(EXTENDED)]
        )
        assert got == sorted(plain.intervals)


def test_relative_intervals_use_descending_stages():
    rng = np.random.default_rng(101)
    found = 0
    for _ in range(40):
        x = random_extended_input(rng, 2)
        for iv in extended_barcode(x, 2).of_kind(RELATIVE):
            assert 1 <= iv.birth < iv.death <= x.N
            found += 1
    assert found  # the sample must actually exercise relative intervals


def test_both_filtrations_share_one_generator_store():
    x = random_extended_input(np.random.default_rng(107), 3)
    assert x.ascending.graded is x.descending.graded is x.graded
    for p in x.graded.dims():
        assert sorted(x.ascending.basis[p]) == sorted(x.descending.basis[p]) == sorted(x.graded.basis[p])
        for f in (x.ascending, x.descending):
            assert f.basis[p] == sorted(x.graded.basis[p], key=f.height_of)  # stable: store order breaks ties


# ---------------------------------------------------------------------------
# validation, once per input
# ---------------------------------------------------------------------------


def _edge_input(boundary, descending_heights=None):
    return ExtendedInput.from_heights(
        {0: ["u", "v"], 1: ["uv", "vu"], 2: ["T"]},
        {},
        boundary,
        {"u": 1, "v": 1, "uv": 1, "vu": 2, "T": 2},
        descending_heights or {"u": 1, "v": 1, "uv": 2, "vu": 1, "T": 2},
        2,
        2,
        q=3,
    )


GOOD_EDGES = {"uv": {"v": 1, "u": -1}, "vu": {"u": 1, "v": -1}, "T": {"uv": 1, "vu": 1}}


@pytest.mark.parametrize(
    "boundary, descending_heights, message",
    [
        (dict(GOOD_EDGES, T={"uv": 1, "vu": -1}), None, "boundary of boundary"),
        (dict(GOOD_EDGES, uv={"v": 1, "w": -1}), None, "unlisted generator 'w'"),
        (GOOD_EDGES, {"u": 1, "v": 3, "uv": 2, "vu": 1, "T": 2}, "descending: dimension 0: height 3"),
        (dict(GOOD_EDGES, u={"v": 1}), None, "dimension-0 generator 'u'"),
    ],
    ids=["d_squared", "unlisted_face", "descending_height", "dimension_0_boundary"],
)
def test_from_heights_reports_each_problem_once(boundary, descending_heights, message):
    _edge_input(GOOD_EDGES).validate()
    with pytest.raises(GradedValidationError) as err:
        _edge_input(boundary, descending_heights)
    assert str(err.value).count(message) == 1 and "; " not in str(err.value)


@pytest.mark.parametrize(
    "ascending, descending, message",
    [
        ({"u": 1, "v": 2}, None, "ascending: generator 'uv' has no height"),
        ({"u": 1.5, "v": 2, "uv": 2}, None, "ascending: height 1.5 of generator 'u' is not an integer"),
        (None, {"v": 1, "u": 2, "uv": 2.0}, "descending: height 2.0 of generator 'uv' is not an integer"),
    ],
    ids=["missing", "non_integer", "float_descending"],
)
def test_from_heights_rejects_a_missing_or_non_integer_height(ascending, descending, message):
    edge_uv_input().validate()
    with pytest.raises(GradedValidationError) as err:
        edge_uv_input(ascending=ascending, descending=descending)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "ascending, descending, message",
    [
        ({0: [1, 2]}, None, "ascending: generator 'uv' has no height"),
        ({0: [1.5, 2], 1: [2]}, None, "ascending: height 1.5 of generator 'u' is not an integer"),
        (None, {0: [2, 1]}, "descending: generator 'uv' has no height"),
        (None, {0: [2, 1], 1: [2.0]}, "descending: height 2.0 of generator 'uv' is not an integer"),
        ({0: [1, 2], 1: [2, 2]}, None, "ascending: dimension 1: 2 heights for 1 basis generators"),
    ],
    ids=["missing", "non_integer", "missing_descending", "float_descending", "too_many"],
)
def test_constructor_rejects_a_missing_or_non_integer_height(ascending, descending, message):
    # the front ends call the constructor directly, with heights aligned with the store's basis
    ascending = ascending or {0: [1, 2], 1: [2]}
    descending = descending or {0: [2, 1], 1: [2]}
    with pytest.raises(GradedValidationError) as err:
        ExtendedInput(edge_graded(), ascending, descending, 2, 2)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the production cone against the labelled reference
# ---------------------------------------------------------------------------


def test_cone_layout_matches_the_labelled_reference():
    rng = np.random.default_rng(109)
    inputs = [edge_uv_input(2), edge_uv_input(3)]
    inputs += [random_extended_input(rng, q, p_max=3, max_per_dim=5) for q in (2, 3) for _ in range(20)]
    for x in inputs:
        for p_max in (1, 2, 3):
            got = build_matrices(x, p_max)
            want = build_matrices(build_extended_filtration(x, p_max), p_max)
            assert got.basis_counts == want.basis_counts
            for m, g, w in zip(got.basis_counts, got.mats, want.mats):
                assert g.num_rows == w.num_rows  # hence as many extension rows
                assert [[e for e in col.entries if e[0] < m] for col in g.columns] == [
                    [e for e in col.entries if e[0] < m] for col in w.columns
                ]
            for clearing in (True, False):
                assert compute_pairings(got, clearing) == compute_pairings(want, clearing)


@pytest.mark.parametrize(
    "pairing, message",
    [
        (Pairing(0, frozenset(), frozenset({0})), "never closes"),
        (Pairing(1, frozenset({(2, 0)}), frozenset()), "paired with the base column"),
    ],
)
def test_impossible_pairings_raise_consistency_error(monkeypatch, pairing, message):
    import extph.extended

    monkeypatch.setattr(extph.extended, "compute_pairings", lambda bm, clearing: [pairing])
    with pytest.raises(ConsistencyError, match=message):
        extended_barcode(_edge_input(GOOD_EDGES), 1)
