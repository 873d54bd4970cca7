import math
import sys
import warnings

import numpy as np
import pytest

from extph import (
    ExtendedBarcode,
    ExtendedInterval,
    FilteredHypergraph,
    WeightedDigraph,
    bottleneck,
    bottleneck_certificate,
    diagrams,
    extended_barcode,
    format_diagram,
    read_diagram,
    stability_trial,
)
from extph.diagrams import EXT, ORD, REL, DiagramPoint, ExtendedDiagram
from extph.extended import EXTENDED, ORDINARY, RELATIVE

from oracles import backtracking_assignment, bottleneck_oracle, random_digraph, random_hypergraph


def diagram(ordinary=(), relative=(), extended=()):
    mk = lambda pts: [DiagramPoint(*pt) for pt in pts]
    return ExtendedDiagram(mk(ordinary), mk(relative), mk(extended))


def random_diagram(rng, max_points=6, dims=(0, 1)):
    n = int(rng.integers(0, max_points + 1))
    ordinary, relative, extended = [], [], []
    for _ in range(n):
        dim = int(rng.choice(dims))
        kind = rng.random()
        lo, hi = sorted(rng.integers(0, 8, 2) + rng.random(2))
        if kind < 0.4:
            ordinary.append(DiagramPoint(dim, float(lo), float(hi) + 0.1))
        elif kind < 0.7:
            relative.append(DiagramPoint(dim, float(hi) + 0.1, float(lo)))
        else:
            extended.append(DiagramPoint(dim, float(lo), float(hi)))
    return ExtendedDiagram(ordinary, relative, extended)


# ---------------------------------------------------------------------------
# stage -> value mapping
# ---------------------------------------------------------------------------


def test_empty_barcode_gives_empty_diagram():
    bc = ExtendedBarcode((), 2, 2)
    assert len(diagrams(bc, [0.0, 1.0], [1.0, 0.0])) == 0


def test_value_mapping_per_kind():
    bc = ExtendedBarcode(
        [
            ExtendedInterval(0, ORDINARY, 1, 2),
            ExtendedInterval(1, RELATIVE, 1, 2),
            ExtendedInterval(0, EXTENDED, 2, 1),
        ],
        2,
        2,
    )
    d = diagrams(bc, [0.5, 1.5], [4.0, 3.0])
    assert d.ordinary == (DiagramPoint(0, 0.5, 1.5),)
    assert d.relative == (DiagramPoint(1, 4.0, 3.0),)
    assert d.extended == (DiagramPoint(0, 1.5, 4.0),)


def test_degenerate_extended_death_maps_to_first_descending_value():
    bc = ExtendedBarcode([ExtendedInterval(0, EXTENDED, 1, 1)], 2, 2)
    d = diagrams(bc, [1.0, 2.0], [9.0, 8.0])
    assert d.extended == (DiagramPoint(0, 1.0, 9.0),)


def test_value_grid_must_match_stage_counts():
    bc = ExtendedBarcode((), 2, 2)
    with pytest.raises(ValueError):
        diagrams(bc, [1.0], [1.0, 0.0])


@pytest.mark.parametrize(
    "interval",
    [
        ExtendedInterval(0, ORDINARY, 0, 2),  # stage 0 would wrap to the last value
        ExtendedInterval(0, ORDINARY, -1, 2),
        ExtendedInterval(0, ORDINARY, 1, 3),
        ExtendedInterval(0, RELATIVE, 0, 1),
        ExtendedInterval(0, EXTENDED, 1, 0),
        ExtendedInterval(0, EXTENDED, 3, 1),
    ],
)
def test_a_stage_index_outside_the_grid_raises(interval):
    bc = ExtendedBarcode([interval], 2, 2)
    with pytest.raises(ValueError, match="indexes outside the value grids"):
        diagrams(bc, [1.0, 2.0], [4.0, 3.0])


# ---------------------------------------------------------------------------
# bottleneck distance
# ---------------------------------------------------------------------------


def test_distance_to_self_is_zero():
    d = diagram(ordinary=[(0, 1.0, 3.0)], extended=[(0, 0.5, 2.0)], relative=[(1, 3.0, 1.0)])
    assert bottleneck(d, d) == 0.0


def test_extended_cardinality_mismatch_is_infinite():
    d1 = diagram(extended=[(0, 1.0, 2.0)])
    d2 = diagram()
    assert math.isinf(bottleneck(d1, d2))
    assert math.isinf(bottleneck(d1, d2, 0))


def test_lonely_ordinary_point_pays_its_diagonal_charge():
    d1 = diagram(ordinary=[(0, 1.0, 3.0)])
    assert bottleneck(d1, diagram()) == pytest.approx(1.0)


def test_a_point_that_must_be_matched_takes_the_partner_of_one_that_need_not():
    # at delta 4.5, (0, 10) and (0.5, 10.5) have charge 5 and must be matched,
    # to each other, while (0, 9) pays its charge 4.5; a matcher that first
    # pairs (0, 10) with (0, 9) has to exchange
    d1 = diagram(ordinary=[(0, 0.0, 10.0)])
    d2 = diagram(ordinary=[(0, 0.0, 9.0), (0, 0.5, 10.5)])
    assert bottleneck(d1, d2) == 4.5
    delta, cert = bottleneck_certificate(d1, d2, 0)
    assert cert.matched[ORD] == [(DiagramPoint(0, 0.0, 10.0), DiagramPoint(0, 0.5, 10.5))]


# (d1, d2, floor, distance).  The floor is the largest over both sides of
# each point's cheaper option, its nearest partner or its diagonal charge;
# no smaller delta can succeed.
FLOOR_CASES = {
    # each point's nearest partner is 0.5 or 0.25 away and within its charge
    "answered at the floor": (
        diagram(ordinary=[(0, 0.0, 4.0), (0, 3.0, 9.0)]),
        diagram(ordinary=[(0, 0.5, 4.5), (0, 3.0, 8.75)]),
        0.5,
        0.5,
    ),
    # two points of charge 5 share one partner 0.5 away: at the floor one
    # of them goes unmatched, so the answer is the next candidate, a charge
    "one candidate above": (
        diagram(ordinary=[(0, 0.0, 10.0), (0, 1.0, 11.0)]),
        diagram(ordinary=[(0, 0.5, 10.5)]),
        0.5,
        5.0,
    ),
    # ten points share one partner: nine pay charges 5.0 to 5.5, and the
    # search passes the eight charges between the floor and the answer
    "many candidates above": (
        diagram(ordinary=[(0, 0.0, 10.0 + 0.125 * i) for i in range(10)]),
        diagram(ordinary=[(0, 0.0, 10.0)]),
        1.125,
        5.5,
    ),
}


@pytest.mark.parametrize("case", list(FLOOR_CASES))
def test_the_floor_is_probed_first_and_the_search_runs_when_it_fails(case):
    d1, d2, floor, distance = FLOOR_CASES[case]
    points = lambda d: d.points(ORD, 0)
    linf = lambda p, q: max(abs(p.birth - q.birth), abs(p.death - q.death))
    cheaper = lambda p, others: min([abs(p.death - p.birth) / 2] + [linf(p, q) for q in others])
    assert max([cheaper(p, points(d2)) for p in points(d1)] + [cheaper(q, points(d1)) for q in points(d2)]) == floor
    assert bottleneck(d1, d2) == bottleneck(d2, d1) == bottleneck_oracle(d1, d2, 0) == distance
    delta, cert = bottleneck_certificate(d1, d2, 0)
    assert delta == bottleneck(d1, d2) and cert.verify(d1, d2, 0)


@pytest.mark.parametrize(
    "d1, d2",
    [
        FLOOR_CASES["answered at the floor"][:2],
        FLOOR_CASES["one candidate above"][:2],
        (diagram(), diagram()),
        (diagram(ordinary=[(0, 1.0, 3.0)]), diagram(ordinary=[(0, 1.0, 3.0)])),
        (diagram(extended=[(0, 1.0, 2.0)]), diagram()),
    ],
    ids=["floor", "searched", "empty", "zero", "inf"],
)
def test_every_branch_returns_a_python_float(d1, d2):
    # a numpy float64 would print as np.float64(...) in the stability report
    delta, _ = bottleneck_certificate(d1, d2, 0)
    for got in (bottleneck(d1, d2), bottleneck(d1, d2, 0), bottleneck(d1, d2, 1), delta):
        assert type(got) is float


def test_coordinates_whose_difference_would_overflow_are_refused():
    limit = sys.float_info.max / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at the bound, two opposite points are sys.float_info.max apart, which is finite
        edge = diagram(ordinary=[(0, -limit, limit)])
        assert bottleneck(edge, diagram()) == bottleneck(edge, diagram(ordinary=[(0, limit, -limit)])) == limit
        for bad in (diagram(ordinary=[(0, -1e308, 1e308)]), diagram(extended=[(0, 0.0, 1e308)])):
            with pytest.raises(ValueError, match="where distances overflow"):
                bottleneck(bad, diagram())
            with pytest.raises(ValueError, match="where distances overflow"):
                bottleneck_certificate(diagram(), bad, 0)


def test_relative_points_use_the_same_linf_metric():
    d1 = diagram(relative=[(0, 5.0, 1.0)])
    d2 = diagram(relative=[(0, 4.0, 1.5)])
    assert bottleneck(d1, d2) == pytest.approx(1.0)


def test_points_in_different_dimensions_never_match():
    d1 = diagram(extended=[(0, 1.0, 1.0)])
    d2 = diagram(extended=[(1, 1.0, 1.0)])
    assert math.isinf(bottleneck(d1, d2))


def test_threshold_oracle_agrees_with_the_backtracker():
    rng = np.random.default_rng(127)
    for _ in range(150):
        d1, d2 = random_diagram(rng, 5), random_diagram(rng, 5)
        for dim in (0, 1):
            want = bottleneck_oracle(d1, d2, dim, assignment=backtracking_assignment)
            assert bottleneck_oracle(d1, d2, dim) == want


def test_matcher_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(131)
    # the last 30 pairs put up to 25 points a side into dimension 0
    for max_points, dims in [(6, (0, 1))] * 60 + [(12, (0, 1))] * 30 + [(25, (0,))] * 30:
        d1, d2 = random_diagram(rng, max_points, dims), random_diagram(rng, max_points, dims)
        for dim in (0, 1):
            for kind in (ORD, REL, EXT):
                assert d1.points(kind, dim) == tuple(pt for pt in d1.points(kind) if pt.dim == dim)
            got = bottleneck(d1, d2, dim)
            want = bottleneck_oracle(d1, d2, dim)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, abs=1e-9)


def grid_diagram(rng, max_points, num_extended):
    """Dimension-0 points on a 0.25 grid, as stability inputs are, so distances and charges tie."""

    def pair():
        lo, hi = sorted(0.25 * rng.integers(0, 17, size=2))
        return float(lo), float(hi)

    ordinary = [DiagramPoint(0, *pair()) for _ in range(int(rng.integers(0, max_points + 1)))]
    relative = [DiagramPoint(0, *pair()[::-1]) for _ in range(int(rng.integers(0, max_points + 1)))]
    extended = [DiagramPoint(0, *pair()) for _ in range(num_extended)]
    return ExtendedDiagram(ordinary, relative, extended)


def test_matcher_agrees_with_the_oracle_on_grid_values():
    # With tied distances a probe often starts from a feasible matching that
    # holds pairs longer than its delta; a matcher that keeps such pairs gets
    # about one case in five here wrong.  Sides may be empty, and about one
    # case in five draws its two extended counts apart.
    rng = np.random.default_rng(191)
    for _ in range(150):
        max_points = int(rng.integers(0, 31))
        ext1 = int(rng.integers(0, 16))
        ext2 = ext1 if rng.random() < 0.8 else int(rng.integers(0, 16))
        d1, d2 = grid_diagram(rng, max_points, ext1), grid_diagram(rng, max_points, ext2)
        want = bottleneck_oracle(d1, d2, 0)
        assert bottleneck(d1, d2, 0) == want
        delta, cert = bottleneck_certificate(d1, d2, 0)
        assert delta == want
        assert cert is None if math.isinf(want) else cert.verify(d1, d2, 0)


def near_diagonal(rng, n):
    births = rng.random(n) * 10.0
    return [DiagramPoint(0, float(b), float(b + p)) for b, p in zip(births, rng.random(n) * 0.2)]


@pytest.mark.parametrize("kind", [ORD, EXT])
def test_1600_near_diagonal_points_match_without_recursion(kind):
    rng = np.random.default_rng(167)
    pts1, pts2 = near_diagonal(rng, 1600), near_diagonal(rng, 1600)
    wrap = (lambda pts: ExtendedDiagram(pts)) if kind == ORD else (lambda pts: ExtendedDiagram(extended=pts))
    d1, d2 = wrap(pts1), wrap(pts2)
    delta, cert = bottleneck_certificate(d1, d2, 0)
    assert 0.0 < delta < math.inf
    assert cert.verify(d1, d2, 0)


def test_shifted_separated_grid_is_exactly_the_shift():
    # points 10 apart with persistence 5: each point's shifted copy is the
    # only partner closer than its diagonal charge 2.5
    pts = [(0, 10.0 * i, 10.0 * i + 5.0) for i in range(200)]
    shifted = [(dim, b + 0.25, d + 0.25) for dim, b, d in pts]
    flip = lambda rows: [(dim, d, b) for dim, b, d in rows]
    d1 = diagram(ordinary=pts, relative=flip(pts), extended=pts)
    d2 = diagram(ordinary=shifted, relative=flip(shifted), extended=shifted)
    assert bottleneck(d1, d2) == 0.25
    delta, cert = bottleneck_certificate(d1, d2, 0)
    assert delta == 0.25 and cert.verify(d1, d2, 0)
    assert all(not cert.unmatched[kind] for kind in (ORD, REL, EXT))


def test_bottleneck_rejects_non_finite_coordinates():
    finite = diagram(ordinary=[(0, 1.0, 2.0)])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            bottleneck(diagram(ordinary=[(0, bad, 2.0)]), finite)
        with pytest.raises(ValueError):
            bottleneck(finite, diagram(extended=[(0, 1.0, bad)]), 0)


def test_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(137)
    for _ in range(25):
        # equal extended cardinalities per dimension keep everything finite
        base = random_diagram(rng, max_points=4)
        jitter = lambda: ExtendedDiagram(
            [DiagramPoint(p.dim, p.birth + rng.random(), p.death + rng.random()) for p in base.ordinary],
            [DiagramPoint(p.dim, p.birth + rng.random(), p.death - rng.random()) for p in base.relative],
            [DiagramPoint(p.dim, p.birth + rng.random(), p.death + rng.random()) for p in base.extended],
        )
        a, b, c = jitter(), jitter(), jitter()
        assert bottleneck(a, b) == pytest.approx(bottleneck(b, a), abs=1e-12)
        assert bottleneck(a, c) <= bottleneck(a, b) + bottleneck(b, c) + 1e-9


def test_adding_a_point_costs_at_most_its_diagonal_charge():
    rng = np.random.default_rng(139)
    for _ in range(20):
        d1 = random_diagram(rng, max_points=4)
        d2 = ExtendedDiagram(d1.ordinary, d1.relative, d1.extended)
        extra = DiagramPoint(0, 1.0, 2.5)
        grown = ExtendedDiagram(list(d1.ordinary) + [extra], d1.relative, d1.extended)
        base = bottleneck(d1, d2)
        assert bottleneck(grown, d2) <= max(base, abs(extra.death - extra.birth) / 2) + 1e-12
    # ... while an extra extended point flips the distance to infinity
    d = diagram(extended=[(0, 1.0, 1.0)])
    grown = diagram(extended=[(0, 1.0, 1.0), (0, 2.0, 2.0)])
    assert math.isinf(bottleneck(grown, d))


def test_certificates_verify():
    rng = np.random.default_rng(149)
    for _ in range(25):
        d1, d2 = random_diagram(rng), random_diagram(rng)
        for dim in (0, 1):
            delta, cert = bottleneck_certificate(d1, d2, dim)
            if math.isinf(delta):
                assert cert is None
            else:
                assert cert.verify(d1, d2, dim)
                if delta > 1e-3:
                    # the distance is tight: shrinking it breaks the certificate
                    cert.delta = delta - 1e-3
                    assert not cert.verify(d1, d2, dim)


def test_a_certificate_never_matches_across_dimensions():
    # the same extended point in dimensions 0 and 1: pooled, they would match at 0.0
    d1 = diagram(extended=[(0, 1.0, 2.0)])
    d2 = diagram(extended=[(1, 1.0, 2.0)])
    assert math.isinf(bottleneck(d1, d2))
    for dim in (None, 0.0, "0", True):
        with pytest.raises(ValueError, match="one homology dimension"):
            bottleneck_certificate(d1, d2, dim)
    delta, cert = bottleneck_certificate(d1, d1, 0)
    assert delta == 0.0 and cert.verify(d1, d1, 0)
    with pytest.raises(ValueError, match="one homology dimension"):
        cert.verify(d1, d2, None)
    assert bottleneck_certificate(d1, d2, np.int64(0)) == (math.inf, None)


# ---------------------------------------------------------------------------
# stability trials
# ---------------------------------------------------------------------------


def test_zero_perturbation_means_zero_distance():
    g = WeightedDigraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0})
    d_e, per_dim = stability_trial(g, 0.0, seed=1)
    assert d_e == 0.0
    assert all(v == 0.0 for v in per_dim.values())


def test_single_edge_trial_moves_at_most_delta():
    g = WeightedDigraph(["a", "b"], {("a", "b"): 1.0})
    d_e, per_dim = stability_trial(g, 0.4, seed=7)
    assert 0.0 <= d_e <= 0.4
    assert per_dim[0] <= d_e + 1e-9


def test_single_hyperedge_shift_moves_the_point_exactly():
    h = FilteredHypergraph(["a"], {("a",): 1.0})
    d_inf, per_dim = stability_trial(h, 0.3, seed=11)
    assert per_dim[0] == pytest.approx(d_inf, abs=1e-12)


def test_one_trial_function_serves_both_front_ends_and_takes_a_base_diagram():
    from extph.diagrams import _diagram

    rng = np.random.default_rng(173)
    for subject in (random_digraph(rng, max_vertices=5), random_hypergraph(rng, max_vertices=5)):
        base = _diagram(subject, 2, 2)
        assert stability_trial(subject, 0.2, seed=4, base=base) == stability_trial(subject, 0.2, seed=4)


def test_a_trial_refuses_a_negative_p_max_and_a_base_built_lower():
    from extph.diagrams import _diagram

    g = WeightedDigraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 1.5})
    with pytest.raises(ValueError, match="p_max must be nonnegative"):
        stability_trial(g, 0.1, seed=1, p_max=-1)
    with pytest.raises(ValueError, match="it serves p_max up to 1, not 2"):
        stability_trial(g, 0.2, seed=1, p_max=2, base=_diagram(g, 1, 2))


@pytest.mark.parametrize(
    "one, other",
    [
        (
            WeightedDigraph("abc", {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 3.0}),
            WeightedDigraph("abc", {("a", "b"): 8.0, ("b", "c"): 2.0, ("c", "a"): 3.0}),
        ),
        (
            FilteredHypergraph("abc", {("a", "b"): 1.0, ("b", "c"): 2.0, ("a", "b", "c"): 3.0}),
            FilteredHypergraph("abc", {("a", "b"): 1.0, ("b", "c"): 2.0, ("a", "b", "c"): 9.0}),
        ),
    ],
    ids=["digraph", "hypergraph"],
)
def test_a_trial_refuses_a_base_built_on_another_subject(one, other):
    from extph.diagrams import _diagram

    # the same edges or hyperedges with other values: the base's store would take them, its values would not
    base = _diagram(one, 2, 2)
    with pytest.raises(ValueError, match="the base was built on another subject"):
        stability_trial(other, 0.1, 1, base=base)
    assert stability_trial(one, 0.1, 1, base=base) == stability_trial(one, 0.1, 1)


def test_a_trial_refuses_a_base_built_over_another_field():
    from extph.diagrams import _diagram

    # a triangulated real projective plane: H_2 is F_2 over F_2 and 0 over F_3
    triangles = "124 126 135 136 145 234 235 256 346 456".split()
    h = FilteredHypergraph("123456", {tuple(t): 1.0 + 0.1 * i for i, t in enumerate(triangles)})
    assert stability_trial(h, 0.3, 1, p_max=2, q=3)[1][2] == 0.0
    assert stability_trial(h, 0.3, 1, p_max=2, q=2)[1][2] > 0.0
    with pytest.raises(ValueError, match="the base was built over F_2, not over F_3"):
        stability_trial(h, 0.3, 1, p_max=2, q=3, base=_diagram(h, 2, 2))


def test_trials_are_reproducible():
    rng = np.random.default_rng(151)
    g = random_digraph(rng, max_vertices=5)
    assert stability_trial(g, 0.2, seed=3) == stability_trial(g, 0.2, seed=3)
    h = random_hypergraph(rng, max_vertices=5)
    assert stability_trial(h, 0.2, seed=3) == stability_trial(h, 0.2, seed=3)


def test_stability_bound_holds_on_a_small_sample():
    rng = np.random.default_rng(157)
    for t in range(10):
        g = random_digraph(rng, max_vertices=6, max_edges=8)
        d_e, per_dim = stability_trial(g, 0.25, seed=1000 + t)
        assert all(v <= d_e + 1e-9 for v in per_dim.values())
        h = random_hypergraph(rng, max_vertices=6, max_hyperedges=8)
        d_inf, per_dim = stability_trial(h, 0.25, seed=2000 + t)
        assert all(v <= d_inf + 1e-9 for v in per_dim.values())


@pytest.mark.parametrize("delta", [math.nan, math.inf, 1e308, -0.5])
def test_stability_trial_rejects_a_bound_it_cannot_draw_from(delta):
    g = WeightedDigraph(["a", "b"], {("a", "b"): 1.0})
    with pytest.raises(ValueError, match="perturbation bound"):
        stability_trial(g, delta, seed=1)


def test_the_largest_drawable_bound_still_gives_a_finite_trial():
    g = WeightedDigraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0})
    d_e, per_dim = stability_trial(g, 8e307, seed=1)
    assert math.isfinite(d_e) and all(v <= d_e for v in per_dim.values())


# ---------------------------------------------------------------------------
# one generator store per stability run
# ---------------------------------------------------------------------------


def _values(subject):
    return subject.weights if isinstance(subject, WeightedDigraph) else subject.values


def _relevelled(subject, rng):
    """Three perturbations of subject's weights or values: random, merged levels, split levels."""
    values = _values(subject)
    keys = sorted(values)
    shifted = {k: values[k] + float(rng.uniform(-0.4, 0.4)) for k in keys}
    merged = {k: float(min(values[k], 1.5)) for k in keys}  # the low levels fall together
    split = {k: values[k] + i * 1e-3 for i, k in enumerate(keys)}  # every tie broken
    return [type(subject)(subject.vertices, v) for v in (shifted, merged, split)]


def _record(subject):
    """The subject's weights or values in sorted key order, the order of a base's ``values``."""
    return np.array([v for _, v in sorted(_values(subject).items())])


def _staged_diagram(base, values, p_max):
    x, asc, desc = base.staged(values)
    return diagrams(extended_barcode(x, p_max), asc, desc)


def test_a_trial_on_the_shared_store_matches_a_diagram_built_from_scratch():
    from extph.diagrams import _diagram

    rng = np.random.default_rng(181)
    grids_changed = 0
    for q in (2, 3):
        for p_max in (1, 2, 3):
            for _ in range(4):
                for subject in (random_digraph(rng, max_vertices=5), random_hypergraph(rng, max_vertices=5)):
                    base = _diagram(subject, p_max, q)
                    assert base.values.tolist() == _record(subject).tolist()
                    assert _staged_diagram(base, base.values, p_max) == base.diagram
                    for moved in _relevelled(subject, rng):
                        got = _staged_diagram(base, _record(moved), p_max)
                        want = _diagram(moved, p_max, q).diagram
                        assert got == want and format_diagram(got) == format_diagram(want)
                        grids_changed += len(set(_values(subject).values())) != len(set(_values(moved).values()))
    assert grids_changed > 50  # merged and split levels change M and N


def test_the_work_of_a_stability_run_on_its_subject_does_not_grow_with_its_trials(monkeypatch, tmp_path):
    import extph.digraph
    import extph.hypergraph
    from extph.cli import main

    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(extph.digraph, "_edge_arrays")
    counted(extph.hypergraph, "_hyperedges")
    counted(WeightedDigraph, "__init__")
    counted(FilteredHypergraph, "__init__")
    for name, text in (("g.tsv", "a\tb\t1\nb\tc\t2\nc\ta\t3\n"), ("h.tsv", "1\ta,b\n2\tb,c\n3\ta,b,c\n")):
        src = tmp_path / name
        src.write_text(text)
        counts = []
        for trials in ("1", "5"):
            calls.clear()
            assert main(["stability", str(src), "--trials", trials, "--out", str(tmp_path / "out")]) == 0
            counts.append(sorted(calls))
        assert counts[0] == counts[1] == [{"g.tsv": "_edge_arrays", "h.tsv": "_hyperedges"}[name]]


def test_one_stability_run_validates_its_store_once(monkeypatch, tmp_path):
    from extph.cli import main
    from extph.graded import GradedSubgroup

    checked = []
    original = GradedSubgroup._store_problems

    def counted(self):
        checked.append(self)
        return original(self)

    monkeypatch.setattr(GradedSubgroup, "_store_problems", counted)
    for name, text in (("g.tsv", "a\tb\t1\nb\tc\t2\nc\ta\t3\n"), ("h.tsv", "1\ta,b\n2\tb,c\n3\ta,b,c\n")):
        checked.clear()
        src = tmp_path / name
        src.write_text(text)
        assert main(["stability", str(src), "--trials", "5", "--out", str(tmp_path / "out")]) == 0
        assert len(checked) == 1
    checked.clear()
    stability_trial(WeightedDigraph(["a", "b"], {("a", "b"): 1.0}), 0.2, seed=3)
    assert len(checked) == 1


def test_a_new_store_is_checked_and_each_trial_checks_its_heights():
    from extph.diagrams import _diagram
    from extph.errors import GradedValidationError
    from extph.extended import ExtendedInput
    from extph.graded import GradedSubgroup

    g = WeightedDigraph(["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0, ("a", "c"): 3.0})
    base = _diagram(g, 1, 2)
    store = base.store
    x, _, _ = base.staged(base.values + 0.5)
    store.validate()
    assert x.graded is store is x.ascending.graded is x.descending.graded

    bad = GradedSubgroup({0: ["a", "b"], 1: ["e"], 2: ["T"]}, {}, {"e": {"a": 1, "b": 1}, "T": {"e": 1}})
    ones = {0: [1, 1], 1: [1], 2: [1]}
    for _ in range(2):  # the kept report still rejects the store
        with pytest.raises(GradedValidationError, match="boundary of boundary"):
            ExtendedInput(bad, ones, ones, 1, 1)

    heights = {p: [x.ascending.height_of(l) for l in store.basis[p]] for p in store.dims()}
    assert store.basis[1][0] == ("a", "b")
    for wrong in (0, x.M + 1):
        with pytest.raises(GradedValidationError, match="outside"):
            ExtendedInput(store, {**heights, 1: [wrong] + heights[1][1:]}, heights, x.M, x.N)


# ---------------------------------------------------------------------------
# diagram files
# ---------------------------------------------------------------------------


def test_diagram_file_round_trip():
    d = diagram(
        ordinary=[(0, 1.0, 3.0), (1, 0.25, 0.75)],
        relative=[(1, 3.0, 1.0)],
        extended=[(0, 1.0, 2.0)],
    )
    assert read_diagram(format_diagram(d)) == d


def test_diagram_format_is_sorted_and_tagged():
    d = diagram(ordinary=[(1, 1.0, 2.0), (0, 1.0, 2.0)], extended=[(0, 0.5, 4.0)])
    lines = format_diagram(d).splitlines()
    assert lines[0] == "dim\ttype\tbirth\tdeath"
    assert lines[1].startswith("0\text") and lines[2].startswith("0\tord")
    assert lines[3].startswith("1\tord")


def test_read_diagram_rejects_bad_rows():
    from extph import InputFormatError

    with pytest.raises(InputFormatError):
        read_diagram("dim\ttype\tbirth\tdeath\n0\tord\tx\t1\n")
    with pytest.raises(InputFormatError):
        read_diagram("0\tweird\t1\t2\n")
    with pytest.raises(InputFormatError, match="line 2: negative dimension -1"):
        read_diagram("0\tord\t0.0\t1.0\n-1\tord\t0.0\t1.0\n")


@pytest.mark.parametrize("row", ["0\tord\tnan\t1.0", "0\text\t1.0\tinf", "1\trel\t-inf\t0.5"])
def test_read_diagram_rejects_non_finite_numbers(row):
    from extph import InputFormatError

    with pytest.raises(InputFormatError, match="non-finite"):
        read_diagram(row + "\n")
