import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extph import (
    FilteredGradedSubgroup,
    GradedSubgroup,
    GradedValidationError,
    persistent_betti_oracle,
    stage_heights,
)
from extph.field import dense_kernel
from extph.graded import _first_nonzero_product, cell_store, stage_cycles, window_ranks
from extph.persistence import _betti_numbers

from oracles import gf_rank, random_boundary_data, random_filtered, random_graded
from references import (
    dense_rank,
    homology_dims,
    inf_complex,
    relative_homology_dims,
    restricted,
    stacked_window_ranks,
    sup_complex,
)


def triangle_hyperedge(q=2):
    """The hypergraph {{a,b,c}}: one 2-generator, its faces as extension."""
    return GradedSubgroup(
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


def edge_complex(q=2):
    """Edge uv together with its vertices, as a subcomplex."""
    return GradedSubgroup(
        basis={0: ["u", "v"], 1: ["uv"]},
        boundary={"uv": {"v": 1, "u": -1}},
        q=q,
    )


def span_rows(slice_, p, q):
    return [list(r) for r in slice_.vectors[p].T]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_accepts_monotone_heights():
    g = GradedSubgroup(basis={0: ["a", "b", "c", "d"]}, q=2)
    f = FilteredGradedSubgroup(g, stage_heights(g, {"a": 1, "b": 1, "c": 2, "d": 3}), 3)
    assert f.basis[0] == g.basis[0] and f.heights[0] == [1, 1, 2, 3]
    assert [f.stage_prefix(0, i) for i in (1, 2, 3)] == [2, 3, 4]


def test_generator_id_labels_work_like_any_other():
    from extph import BASIS, EXTENSION, GeneratorId

    v = [GeneratorId(0, BASIS, i) for i in range(2)]
    e = GeneratorId(1, BASIS, 0)
    eps = GeneratorId(0, EXTENSION, 0)
    g = GradedSubgroup(
        basis={0: v, 1: [e]},
        extension={0: [eps]},
        boundary={e: {v[0]: 1, eps: -1}},
        q=3,
    )
    g.validate()
    assert homology_dims(sup_complex(g, 1), 1) == [2, 0]


def test_universe_must_list_the_same_labels_not_just_the_same_reprs():
    class Label:
        def __repr__(self):
            return "L"

    a, b, c = Label(), Label(), Label()
    with pytest.raises(ValueError, match="permutation"):
        GradedSubgroup({0: [a]}, {0: [b]}, universe={0: [a, c]})
    with pytest.raises(ValueError, match="permutation"):
        GradedSubgroup({0: [a]}, {0: [b]}, universe={0: [a, b, b]})
    assert GradedSubgroup({0: [a]}, {0: [b]}, universe={0: [b, a]}).row_of(0, a) == 1


def test_validate_reports_out_of_range_heights():
    g = GradedSubgroup(basis={0: ["a"]}, q=2)
    for h in (0, 4):
        message = f"dimension 0: height {h} of generator 'a' outside [1, 3]"
        with pytest.raises(GradedValidationError, match=re.escape(message)):
            FilteredGradedSubgroup(g, stage_heights(g, {"a": h}), 3)


def test_validate_reports_unlisted_boundary_generators():
    # a store is closed once it is built, so the constructor reports the unlisted face
    with pytest.raises(GradedValidationError, match="references unlisted generator 'ghost'"):
        GradedSubgroup(
            basis={0: ["a"], 1: ["e"]},
            boundary={"e": {"a": 1, "ghost": 1}},
            q=2,
        )


def test_validate_reports_broken_d_squared():
    g = GradedSubgroup(
        basis={0: ["a", "b"], 1: ["e", "f"], 2: ["T"]},
        boundary={
            "e": {"a": 1},
            "f": {"b": 1},
            "T": {"e": 1},  # d(d(T)) = a != 0
        },
        q=2,
    )
    with pytest.raises(GradedValidationError, match="boundary of boundary of 'T'"):
        g.validate()
    # a plain filtration checks its store when it is built
    with pytest.raises(GradedValidationError, match="boundary of boundary of 'T'"):
        FilteredGradedSubgroup(g, stage_heights(g, dict.fromkeys(["a", "b", "e", "f", "T"], 1)), 1)


def test_validate_checks_a_store_once_and_keeps_its_report(monkeypatch):
    # closure faults are all reported, in order, by the constructor
    want = "boundary given for unlisted generator 'x'; boundary of 'e' references unlisted generator 'ghost'"
    with pytest.raises(GradedValidationError) as err:
        GradedSubgroup(basis={0: ["a"], 1: ["e"]}, boundary={"e": {"a": 1, "ghost": 1}, "x": {}}, q=2)
    assert str(err.value) == want
    # d∘d = 0 is the one check left for later, and it runs once per store
    g = GradedSubgroup(
        basis={0: ["a", "b"], 1: ["e", "f"], 2: ["T"]},
        boundary={"e": {"a": 1}, "f": {"b": 1}, "T": {"e": 1}},
        q=2,
    )
    calls = []
    original = GradedSubgroup._store_problems
    monkeypatch.setattr(GradedSubgroup, "_store_problems", lambda self: calls.append(1) or original(self))
    for _ in range(2):
        with pytest.raises(GradedValidationError) as err:
            g.validate()
        assert str(err.value) == "boundary of boundary of 'T' is nonzero"
    with pytest.raises(GradedValidationError, match="boundary of boundary of 'T'"):
        FilteredGradedSubgroup(g, stage_heights(g, dict.fromkeys(["a", "b", "e", "f", "T"], 1)), 1)
    assert len(calls) == 1


def test_dimension_zero_generators_must_have_zero_boundary():
    with pytest.raises(GradedValidationError, match="dimension-0 generator 'a' has a nonzero boundary"):
        GradedSubgroup(basis={0: ["a", "b"]}, boundary={"a": {"b": 1}}, q=2)
    # a coefficient that vanishes mod q is no boundary at all
    assert GradedSubgroup(basis={0: ["a", "b"]}, boundary={"a": {"b": 2}}, q=2).boundary_dict("a") == {}


@pytest.mark.parametrize("coeff", [0.5, "1", 1.0, None])
def test_a_coefficient_that_is_not_an_integer_is_rejected_when_the_store_is_built(coeff):
    # 0.5 % 3 would have been stored as a zero entry, on which the reduction of
    # these two edges never ends; "1" % 3 would have raised a TypeError
    edges = {"e": {"a": 1, "b": coeff}, "f": {"a": 1, "b": coeff}}
    with pytest.raises(GradedValidationError) as err:
        GradedSubgroup(basis={0: ["a", "b"], 1: ["e", "f"]}, boundary=edges, q=3)
    want = [f"boundary of {e!r}: coefficient {coeff!r} of 'b' is not an integer" for e in "ef"]
    assert str(err.value).split("; ") == want
    g = GradedSubgroup(basis={0: ["a", "b"], 1: ["e"]}, boundary={"e": {"a": np.int64(1), "b": True}}, q=3)
    assert g.boundary_dict("e") == {"a": 1, "b": 1}


@pytest.mark.parametrize(
    "faces, coeffs, error, message",
    [
        ([0, 1, 0, 2], [1, 2, 1, 2], ValueError, "dimension 1: boundary arrays do not fit the universe"),
        ([0, 1, 0, 1], [1, 0.5, 1, 0.5], GradedValidationError, "not integers nonzero mod 3"),
        ([0, 1, 0, 1], [1, 3, 1, 2], GradedValidationError, "not integers nonzero mod 3"),
    ],
    ids=["stray_face", "half", "zero_mod_q"],
)
def test_from_arrays_rejects_a_stray_face_or_a_coefficient_that_is_not_a_unit(faces, coeffs, error, message):
    with pytest.raises(error, match=message):
        GradedSubgroup.from_arrays(
            {0: ["a", "b"], 1: ["e", "f"]}, {}, {1: (np.array([0, 2, 4]), np.array(faces), np.array(coeffs))}, q=3
        )


@pytest.mark.parametrize(
    "indptr, faces, coeffs",
    [
        ([0, 2, 5], [0, 1, 0, 1], [1, 2, 1, 2]),
        ([0, 3, 2], [0, 1], [1, 2]),
        ([0, 2, 4], [0, 1, 0, 1], [1, 2, 1]),
        ([1, 2, 4], [0, 1, 0, 1], [1, 2, 1, 2]),
    ],
    ids=["past_the_faces", "decreasing", "short_coeffs", "not_from_0"],
)
def test_from_arrays_rejects_inconsistent_csr_arrays(indptr, faces, coeffs):
    with pytest.raises(ValueError, match="dimension 1: boundary arrays do not fit the universe"):
        GradedSubgroup.from_arrays(
            {0: ["a", "b"], 1: ["e", "f"]}, {}, {1: (np.array(indptr), np.array(faces), np.array(coeffs))}, q=3
        )


@pytest.mark.parametrize(
    "indptr, faces, coeffs, error, message",
    [
        ([0, 2, 4], [0, 1, 0, 1], [1, 2, 1, 2], None, None),
        ([0, 2, 5], [0, 1, 0, 1], [1, 2, 1, 2], ValueError, "dimension 1: boundary arrays do not fit the universe"),
        ([0, 2, 4], [0, 1, 0, 2], [1, 2, 1, 2], ValueError, "dimension 1: boundary arrays do not fit the universe"),
        ([0, 2, 4], [0, 1, 0, 0.5], [1, 2, 1, 2], ValueError, "dimension 1: boundary arrays do not fit the universe"),
        ([0, 2, 4], [False, True, False, True], [1, 2, 1, 2], ValueError, "dimension 1: boundary arrays do not fit"),
        ([0, 2, 4], [0, 1, 0, 1], [1, 2, 1, 0.5], GradedValidationError, "not integers nonzero mod 3"),
    ],
    ids=["fits", "past_the_faces", "stray_face", "half_face", "bool_face", "half_coeff"],
)
def test_from_arrays_checks_python_lists_as_it_checks_arrays(indptr, faces, coeffs, error, message):
    basis = {0: ["a", "b"], 1: ["e", "f"]}
    if error is None:
        g = GradedSubgroup.from_arrays(basis, {}, {1: (indptr, faces, coeffs)}, q=3)
        assert g.boundary_dict("f") == {"a": 1, "b": 2}
        return
    with pytest.raises(error, match=message):
        GradedSubgroup.from_arrays(basis, {}, {1: (indptr, faces, coeffs)}, q=3)


def test_from_arrays_refuses_empty_cells():
    with pytest.raises(ValueError, match="cells must list"):
        GradedSubgroup.from_arrays({0: ["a"]}, {}, {}, cells={})
    g = GradedSubgroup.from_arrays({0: ["a"]}, {}, {}, cells={0: np.zeros((1, 1), dtype=np.int64)})
    with pytest.raises(ValueError, match="it serves p_max up to -1, not 0"):
        g.check_p_max(0)


def test_stray_faces_unlisted_generators_and_dimension_0_boundaries_fail_construction():
    """Faults injected into random boundary data are each named once; a store that builds is closed."""
    rng = np.random.default_rng(16)
    built = rejected = 0
    for _ in range(150):
        q = int(rng.choice([2, 3, 5]))
        sizes = [int(rng.integers(0, 6)) for _ in range(4)]
        labels, boundary = random_boundary_data(rng, q, sizes)
        boundary = {label: dict(faces) for label, faces in boundary.items()}
        faults = []
        for p, labs in labels.items():
            for label in labs:
                if rng.random() >= 0.08:
                    continue
                c = int(rng.integers(1, q))
                if p == 0:
                    boundary.setdefault(label, {})[("g", 0, int(rng.integers(0, 6)))] = c
                    faults.append(f"dimension-0 generator {label!r} has a nonzero boundary")
                else:
                    # a ghost, or a listed label of the wrong dimension
                    stray = ("ghost", p, label[2]) if rng.random() < 0.5 else label
                    boundary[label] = {stray: c, **boundary.get(label, {})}
                    faults.append(f"boundary of {label!r} references unlisted generator {stray!r}")
        if rng.random() < 0.2:
            boundary["x"] = {}
            faults.insert(0, "boundary given for unlisted generator 'x'")
        basis = {p: labs[: len(labs) // 2 + 1] for p, labs in labels.items()}
        extension = {p: labs[len(labs) // 2 + 1 :] for p, labs in labels.items()}
        if faults:
            rejected += 1
            with pytest.raises(GradedValidationError) as err:
                GradedSubgroup(basis, extension, boundary, q=q)
            assert str(err.value).split("; ") == faults
            continue
        built += 1
        g = GradedSubgroup(basis, extension, boundary, q=q)
        for p in g.dims():
            indptr, faces, coeffs = g.boundary_csr(p)
            assert len(indptr) == g.universe_size(p) + 1 and indptr[-1] == len(faces) == len(coeffs)
            assert ((faces >= 0) & (faces < g.universe_size(p - 1))).all()
            assert ((coeffs >= 1) & (coeffs < q)).all()
    assert built > 20 and rejected > 20


# ---------------------------------------------------------------------------
# supremum / infimum complexes
# ---------------------------------------------------------------------------


def test_sup_of_lone_triangle_hyperedge():
    g = triangle_hyperedge()
    s = sup_complex(g, 2)
    assert [s.dim(p) for p in range(4)] == [0, 1, 1, 0]
    assert homology_dims(s, 2) == [0, 0, 0]


def test_inf_of_lone_triangle_hyperedge_is_zero():
    g = triangle_hyperedge()
    i = inf_complex(g, 2)
    assert [i.dim(p) for p in range(3)] == [0, 0, 0]


def test_sup_and_inf_of_a_subcomplex_are_the_subcomplex():
    g = edge_complex()
    s, i = sup_complex(g, 1), inf_complex(g, 1)
    for sl in (s, i):
        assert sl.dim(0) == 2 and sl.dim(1) == 1
        assert gf_rank(span_rows(sl, 0, 2), 2) == 2
    assert homology_dims(s, 1) == [1, 0] == homology_dims(i, 1)


def test_empty_subgroup_gives_zero_complex():
    g = GradedSubgroup(basis={}, q=2)
    assert homology_dims(sup_complex(g, 2), 2) == [0, 0, 0]
    assert homology_dims(inf_complex(g, 2), 2) == [0, 0, 0]


def test_single_vertex_homology():
    g = GradedSubgroup(basis={0: ["x"]}, q=2)
    assert homology_dims(sup_complex(g, 1), 1) == [1, 0]


def test_homology_rejects_broken_boundaries():
    from references import ChainComplexSlice

    one = np.ones((1, 1), dtype=np.int64)
    bad = ChainComplexSlice(2, {0: one, 1: one, 2: one}, {1: one, 2: one})
    with pytest.raises(GradedValidationError):
        homology_dims(bad, 1)


@pytest.mark.parametrize(
    "fault, message",
    [
        ({"uv": {"v": 1, "w": -1}}, "boundary of 'uv' references unlisted generator 'w'"),
        ({"u": {"v": 1}}, "dimension-0 generator 'u' has a nonzero boundary"),
    ],
    ids=["unlisted_face", "dimension_0_boundary"],
)
def test_oracles_reject_an_unvalidated_store(fault, message):
    edges = {"uv": {"v": 1, "u": -1}, "T": {"uv": 1}}  # d(d(T)) = v - u
    # a closure fault stops the store when it is built, so no oracle can read it
    with pytest.raises(GradedValidationError, match=re.escape(message)):
        GradedSubgroup({0: ["u", "v"], 1: ["uv"], 2: ["T"]}, {}, dict(edges, **fault), q=3)
    # d∘d = 0 is checked later; nothing validates this store, so homology_dims must catch it
    g = GradedSubgroup({0: ["u", "v"], 1: ["uv"], 2: ["T"]}, {}, edges, q=3)
    with pytest.raises(GradedValidationError, match="slice boundaries do not compose to zero"):
        homology_dims(sup_complex(g, 1), 1)
    # a filtration validates its store, so persistent_betti_oracle never sees this one
    with pytest.raises(GradedValidationError, match=re.escape("boundary of boundary of 'T' is nonzero")):
        FilteredGradedSubgroup(g, stage_heights(g, dict.fromkeys(["u", "v", "uv", "T"], 1)), 1)


def test_sup_inf_equal_homology_on_random_subgroups():
    rng = np.random.default_rng(5)
    for q in (2, 3):
        for _ in range(40):
            g = random_graded(rng, q, max_dim=3, max_per_dim=5)
            assert homology_dims(sup_complex(g, 2), 2) == homology_dims(inf_complex(g, 2), 2)


def test_betti_numbers_are_the_homology_of_the_supremum_complex():
    # the one-stage window dim(Z(D_p) + dD_{p+1}) - dim(dD_{p+1}) against the slice route
    rng = np.random.default_rng(17)
    for k in range(240):
        q, p_max = (2, 3, 5)[k % 3], k % 4
        g = random_graded(rng, q, max_dim=3, max_per_dim=5)
        assert _betti_numbers(g, p_max) == homology_dims(sup_complex(g, p_max), p_max)
    # a store whose d∘d is nonzero is rejected, as the slice route rejects it
    edges = {"uv": {"u": 1, "v": 2}, "T": {"uv": 1}}
    g = GradedSubgroup({0: ["u", "v"], 1: ["uv"], 2: ["T"]}, {}, edges, q=3)
    with pytest.raises(GradedValidationError, match=re.escape("boundary of boundary of 'T' is nonzero")):
        _betti_numbers(g, 1)


def test_subgroup_sits_between_inf_and_sup():
    rng = np.random.default_rng(9)
    q = 3
    for _ in range(25):
        g = random_graded(rng, q, max_dim=3, max_per_dim=5)
        s, i = sup_complex(g, 2), inf_complex(g, 2)
        for p in range(3):
            rows = g.universe_size(p)
            unit = [[1 if k == g.row_of(p, l) else 0 for k in range(rows)] for l in g.basis[p]]
            sup_rows = span_rows(s, p, q)
            inf_rows = span_rows(i, p, q)
            # I_p inside D_p inside S_p, as spans
            assert gf_rank(unit + inf_rows, q) == gf_rank(unit, q)
            assert gf_rank(sup_rows + unit, q) == gf_rank(sup_rows, q)


def test_enlarging_the_ambient_complex_changes_nothing():
    rng = np.random.default_rng(13)
    for _ in range(10):
        g = random_graded(rng, 2, max_dim=2, max_per_dim=4)
        enlarged = GradedSubgroup(
            {p: list(g.basis[p]) for p in g.dims()},
            {p: list(g.extension[p]) + [("junk", p, k) for k in range(2)] for p in g.dims()},
            {l: g.boundary_dict(l) for p in g.dims() for l in g.universe[p]},
            q=2,
        )
        assert homology_dims(sup_complex(g, 1), 1) == homology_dims(sup_complex(enlarged, 1), 1)
        assert homology_dims(inf_complex(g, 1), 1) == homology_dims(inf_complex(enlarged, 1), 1)
        s_old, s_new = sup_complex(g, 1), sup_complex(enlarged, 1)
        assert [s_old.dim(p) for p in range(3)] == [s_new.dim(p) for p in range(3)]


def test_monotonicity_of_sup_and_inf():
    rng = np.random.default_rng(17)
    q = 2
    for _ in range(20):
        big = random_graded(rng, q, max_dim=3, max_per_dim=5)
        keep = {p: [l for l in big.basis[p] if rng.random() < 0.6] for p in big.dims()}
        small = restricted(big, keep)
        s_small, s_big = sup_complex(small, 2), sup_complex(big, 2)
        i_small, i_big = inf_complex(small, 2), inf_complex(big, 2)
        for p in range(3):
            for inner, outer in ((s_small, s_big), (i_small, i_big)):
                inner_rows = span_rows(inner, p, q)
                outer_rows = span_rows(outer, p, q)
                assert gf_rank(outer_rows + inner_rows, q) == gf_rank(outer_rows, q)


# ---------------------------------------------------------------------------
# relative homology
# ---------------------------------------------------------------------------


def test_relative_of_equal_slices_is_zero():
    g = edge_complex()
    s = sup_complex(g, 1)
    assert relative_homology_dims(s, s, 1) == [0, 0]


def test_relative_with_zero_subcomplex_is_absolute():
    g = edge_complex()
    s = sup_complex(g, 1)
    zero = sup_complex(restricted(g, {0: [], 1: []}), 1)
    assert relative_homology_dims(s, zero, 1) == homology_dims(s, 1)


def test_relative_of_contractible_pair_vanishes():
    g = edge_complex()
    big = sup_complex(g, 1)
    small = sup_complex(restricted(g, {0: ["v"], 1: []}), 1)
    assert relative_homology_dims(big, small, 1) == [0, 0]


def test_relative_rejects_non_contained_pairs():
    g = edge_complex()
    big = sup_complex(restricted(g, {0: ["v"], 1: []}), 1)
    small = sup_complex(g, 1)
    with pytest.raises(GradedValidationError):
        relative_homology_dims(big, small, 1)


# ---------------------------------------------------------------------------
# stage restriction
# ---------------------------------------------------------------------------


def test_stage_restriction_takes_prefixes():
    rng = np.random.default_rng(19)
    f = random_filtered(rng, 2, p_max=1, max_per_dim=6, max_stages=4)
    g = f.graded
    for stage in range(1, f.num_stages + 1):
        stage_g = restricted(g, {p: f.basis[p][: f.stage_prefix(p, stage)] for p in g.dims()})
        for p in g.dims():
            want = [l for l in g.basis[p] if f.height_of(l) <= stage]
            assert stage_g.basis[p] == want


# ---------------------------------------------------------------------------
# the window kernels of the module oracles
# ---------------------------------------------------------------------------


def _window_cases(seed, count):
    """Seeded (sources, chain, ends) with entries in -4..4, which must reduce mod q.

    Rows run from 0 to 70 and chains to 80 columns, so packed columns
    span several 64-bit words.  A source may be empty, random, have
    dependent columns, lie inside the chain, or mix a chain combination
    with a random column.  ``ends`` holds 0, the full length and repeats.
    """
    rng = np.random.default_rng(seed)
    for case in range(count):
        m = int(rng.choice([0, 1, 4, 9, 20, 70]))
        n = int(rng.choice([0, 1, 3, 8, 15, 80]))
        chain = rng.integers(-4, 5, (m, n)) * (rng.random((m, n)) < rng.choice([0.1, 0.4, 0.9]))
        if n > 2 and case % 3 == 0:  # a chain with dependent columns
            chain[:, n - n // 2 :] = chain[:, : n - n // 2] @ rng.integers(-1, 2, (n - n // 2, n // 2))
        sources = []
        for _ in range(int(rng.integers(0, 5))):
            s = int(rng.choice([0, 1, 3, 6]))
            kind = rng.integers(4)
            if kind == 0:
                source = rng.integers(-4, 5, (m, s)) * (rng.random((m, s)) < 0.4)
            elif kind == 1:  # dependent columns
                head = rng.integers(-4, 5, (m, (s + 1) // 2))
                source = np.hstack([head, head @ rng.integers(-2, 3, ((s + 1) // 2, s // 2))])
            elif kind == 2:  # inside the chain
                source = chain @ rng.integers(-2, 3, (n, s))
            else:  # a chain combination plus a random column
                source = chain @ rng.integers(-2, 3, (n, s)) + rng.integers(-1, 2, (m, s)) * (rng.random((m, s)) < 0.2)
            sources.append(source[:, rng.permutation(s)])
        ends = sorted([0, n] + rng.integers(0, n + 1, max(len(sources) - 1, 0)).tolist())
        yield sources, chain, ends


@pytest.mark.parametrize("q", [2, 3, 5])
def test_window_ranks_match_one_stacked_elimination_per_source(q):
    seen = set()
    for sources, chain, ends in _window_cases(23 + q, 400):
        got = list(window_ranks(sources, chain, ends, q))
        assert got == stacked_window_ranks(sources, chain, ends, q)
        seen |= {"no rows"} if not chain.shape[0] else set()
        seen |= {"empty chain"} if not chain.shape[1] else set()
        seen |= {"empty source" for s in sources if not s.shape[1]}
        seen |= {"dependent source" for s in sources if 0 < dense_rank(s, q) < s.shape[1]}
        seen |= {"a source meets a longer prefix" for row in got if len(set(row)) > 1}
    assert seen == {"no rows", "empty chain", "empty source", "dependent source", "a source meets a longer prefix"}


@pytest.mark.parametrize("q", [2, 3, 5])
def test_window_ranks_match_plain_python_ranks(q):
    for sources, chain, ends in _window_cases(41 + q, 120):
        if not chain.shape[0]:  # a list of rows cannot hold a matrix without rows
            assert all(not any(row) for row in window_ranks(sources, chain, ends, q))
            continue
        for k, row in enumerate(window_ranks(sources, chain, ends, q)):
            want = []
            for e in ends[k:]:
                below = chain[:, :e]
                want.append(gf_rank(np.hstack([sources[k], below]).tolist(), q) - gf_rank(below.tolist(), q))
            assert row == want


def test_window_ranks_count_sources_inside_a_prefix():
    # C = [e0, e1, e0 + e1, e2]: pivots 0, 1, 3; the source e0 + e1 lies in C[:, :2] but not C[:, :1]
    chain = np.array([[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    source = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 0]])  # a repeated column and a zero column
    assert list(window_ranks([source], chain, [0, 1, 2, 3, 4, 4], 2)) == [[1, 1, 0, 0, 0, 0]]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_stage_cycles_equal_the_kernel_of_each_prefix_entry_for_entry(q):
    rng = np.random.default_rng(67 + q)
    shapes = [(0, 0), (0, 4), (3, 0), (5, 6), (8, 12), (70, 40), (20, 90)]
    for m, n in shapes:
        for density in (0.1, 0.5):
            images = rng.integers(-4, 5, (m, n)) * (rng.random((m, n)) < density)
            if n > 3:
                images[:, -2:] = images[:, :2] @ rng.integers(-2, 3, (2, 2))  # dependent columns at the end
            units = rng.integers(-1, 2, (m + 2, n))
            prefixes = list(range(n + 1)) + [0, n]
            got = stage_cycles(units, images, prefixes, q)
            for k, cycles in zip(prefixes, got):
                want = units[:, :k] @ dense_kernel(images[:, :k], q)
                assert cycles.dtype == np.int64
                assert cycles.shape == want.shape and np.array_equal(cycles, want), (m, n, k)


# ---------------------------------------------------------------------------
# the face rule of cell stores, and the F2 parity form of the d∘d check
# ---------------------------------------------------------------------------


@st.composite
def id_rows(draw):
    """(n, {p: lexicographically sorted unique rows}) of path-like or of simplex rows, with the kind."""
    paths = draw(st.booleans())
    n = draw(st.integers(2 if paths else 3, 5))
    top = draw(st.integers(2, 4 if paths else n - 1))
    cells = {}
    for p in range(top + 1):
        if paths:  # every step moves to another vertex, so no vertex repeats in adjacent columns
            row = st.tuples(st.integers(0, n - 1), st.lists(st.integers(1, n - 1), min_size=p, max_size=p))
            rows = [np.cumsum([first, *steps]) % n for first, steps in draw(st.lists(row, max_size=6))]
        else:
            rows = [sorted(r) for r in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=p + 1, max_size=p + 1)))]
        cells[p] = np.unique(np.array(rows, dtype=np.int64).reshape(-1, p + 1), axis=0)
    return n, cells, paths


@settings(max_examples=150, deadline=None, derandomize=True)
@given(id_rows(), st.sampled_from([2, 3, 5]))
def test_the_face_rule_of_cell_stores_squares_to_zero(rows, q):
    n, cells, _ = rows
    store = cell_store([f"v{i}" for i in range(n)], cells, q)
    assert all(store._first_nonzero_square(p) is None for p in range(2, store.max_dim + 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(id_rows(), st.data())
def test_the_parity_form_names_the_column_the_summed_form_names(rows, data):
    # over F2 every coefficient is odd; a change to one column of d_p leaves d∘d nonzero in that column only
    n, cells, _ = rows
    store = cell_store([f"v{i}" for i in range(n)], cells, 2)
    assume(store.max_dim >= 2)
    p = data.draw(st.integers(2, store.max_dim))
    assume(len(store.boundary_csr(p)[1]))
    indptr, faces, coeffs = store.boundary_csr(p)
    j = data.draw(st.integers(0, len(indptr) - 2).filter(lambda j: indptr[j + 1] > indptr[j]))
    if data.draw(st.booleans()):  # drop one entry of column j
        k = data.draw(st.integers(int(indptr[j]), int(indptr[j + 1]) - 1))
        planted = (indptr - (np.arange(len(indptr)) > j), np.delete(faces, k), np.delete(coeffs, k))
    else:  # add a face to column j with an odd coefficient; if the face is there already, it cancels
        face = data.draw(st.integers(0, store.universe_size(p - 1) - 1))
        at = int(indptr[j + 1])
        planted = (indptr + (np.arange(len(indptr)) > j), np.insert(faces, at, face), np.insert(coeffs, at, 3))
    inner, n_low = store.boundary_csr(p - 1), store.universe_size(p - 2)
    assert _first_nonzero_product(planted, inner, n_low, 2, parity=True) == j
    assert _first_nonzero_product(planted, inner, n_low, 2, parity=False) == j
    assert _first_nonzero_product(store.boundary_csr(p), inner, n_low, 2, parity=True) is None
