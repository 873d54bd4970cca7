"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance is pinned here; "exact" means integer equality.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from extph import (
    ExtendedInput,
    WeightedDigraph,
    barcode,
    betti_table_from_barcode,
    bottleneck,
    build_matrices,
    build_pph_input,
    compute_pairings,
    cone_graded,
    extended_barcode,
    extended_module_oracle,
    interval_rank_table,
    path_homology,
    persistent_betti_oracle,
    stability_trial,
)
from extph.cli import main
from extph.extended import EXTENDED

from oracles import (
    bottleneck_oracle,
    classical_barcode,
    fgs_from_filtered_complex,
    gf_rank,
    random_digraph,
    random_extended_input,
    random_filtered,
    random_filtered_simplicial_complex,
    random_graded,
    random_hypergraph,
)
from references import (
    homology_dims,
    inf_complex,
    mapping_cone,
    positional_barcode,
    relative_homology_dims,
    restricted,
    sup_complex,
)
from test_diagrams import random_diagram

TOL = 1e-9


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _suite1_instances():
    rng = np.random.default_rng(20240901)
    for k in range(1000):
        q = 2 if k % 2 == 0 else 3
        yield random_filtered(rng, q, p_max=2, max_per_dim=12, max_stages=5)


def test_criterion_1_pairing_matches_persistent_betti_oracle():
    t0 = time.perf_counter()
    checked = 0
    for f in _suite1_instances():
        bc = barcode(compute_pairings(build_matrices(f, 2)), f)
        got = betti_table_from_barcode(bc, 2, f.num_stages)
        want = persistent_betti_oracle(f, 2)
        if got != want:
            _report(1, False, f"interval counts diverge from the rank oracle on instance {checked}")
        checked += 1
    _report(
        1,
        checked == 1000,
        f"interval-derived persistent Betti numbers equal the rank oracle exactly on "
        f"{checked} random filtered graded subgroups ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_2_clearing_is_invisible():
    t0 = time.perf_counter()
    checked = 0
    for f in _suite1_instances():
        bm = build_matrices(f, 2)
        if compute_pairings(bm, clearing=True) != compute_pairings(bm, clearing=False):
            _report(2, False, f"clearing changed the pairing on instance {checked}")
        checked += 1
    _report(
        2,
        checked == 1000,
        f"pairings identical with clearing on/off on all {checked} suite-1 instances "
        f"({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_3_sup_inf_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240903)
    checked = 0
    for k in range(500):
        q = 2 if k % 2 == 0 else 3
        g = random_graded(rng, q, max_dim=3, max_per_dim=10)
        if homology_dims(sup_complex(g, 3), 3) != homology_dims(inf_complex(g, 3), 3):
            _report(3, False, f"supremum and infimum homology differ on instance {k}")
        checked += 1
    _report(
        3,
        checked == 500,
        f"supremum and infimum homology dimensions agree on {checked} random graded "
        f"subgroups ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_4_cone_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240904)
    checked = 0
    for k in range(500):
        q = 2 if k % 2 == 0 else 3
        big_g = random_graded(rng, q, max_dim=3, max_per_dim=6)
        keep = {p: [l for l in big_g.basis[p] if rng.random() < 0.6] for p in big_g.dims()}
        small_g = restricted(big_g, keep)
        big, small = sup_complex(big_g, 2), sup_complex(small_g, 2)
        cone = mapping_cone(small, big)
        if homology_dims(cone, 2) != relative_homology_dims(big, small, 2):
            _report(4, False, f"cone homology differs from relative homology on instance {k}")
        lhs = sup_complex(cone_graded(big_g, small_g.basis, big_g.basis), 2)
        for p in range(3):
            r_l = [list(r) for r in lhs.vectors[p].T]
            r_r = [list(r) for r in cone.vectors[p].T]
            k_l, k_r = gf_rank(r_l, q), gf_rank(r_r, q)
            if not (k_l == k_r == gf_rank(r_l + r_r, q)):
                _report(4, False, f"sup/cone span mismatch at dimension {p} on instance {k}")
        checked += 1
    _report(
        4,
        checked == 500,
        f"cone homology equals quotient homology and sup commutes with cone on "
        f"{checked} random pairs ({time.perf_counter() - t0:.1f}s)",
    )


def _suite5_instances():
    # first a deterministic witness whose two compatible orders differ
    yield ExtendedInput.from_heights(
        {0: ["u", "v"], 1: ["uv"]},
        {},
        {"uv": {"v": 1, "u": -1}},
        {"u": 1, "v": 2, "uv": 2},
        {"v": 1, "u": 2, "uv": 2},
        2,
        2,
        q=2,
    )
    rng = np.random.default_rng(20240905)
    for k in range(499):
        q = 2 if k % 2 == 0 else 3
        yield random_extended_input(rng, q, p_max=2, max_per_dim=5)


def test_criterion_5_extended_barcode_matches_module_oracle():
    t0 = time.perf_counter()
    checked = 0
    positional_failures = 0
    for x in _suite5_instances():
        want = extended_module_oracle(x, 2)
        got = interval_rank_table(extended_barcode(x, 2), 2)
        if got != want:
            _report(5, False, f"'corresponding' reading diverges from the oracle on instance {checked}")
        alt = interval_rank_table(positional_barcode(x, 2), 2)
        if alt != want:
            positional_failures += 1
        checked += 1
    _report(
        5,
        checked == 500 and positional_failures > 0,
        f"interval counts over every stage window equal the composite ranks on {checked} "
        f"inputs; case-(iii) reading 'corresponding' survives all instances, 'positional' "
        f"fails {positional_failures} ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_6_ordinary_part_reproduces_unextended_barcode():
    t0 = time.perf_counter()
    checked = 0
    for x in _suite5_instances():
        bc = extended_barcode(x, 2)
        plain = barcode(compute_pairings(build_matrices(x.ascending, 2)), x.ascending)
        got = sorted(
            [(iv.dim, iv.birth, iv.death) for iv in bc.intervals if iv.kind == "ordinary"]
            + [(iv.dim, iv.birth, math.inf) for iv in bc.intervals if iv.kind == "extended"]
        )
        if got != sorted(plain.intervals):
            _report(6, False, f"ordinary part diverges from the unextended barcode on instance {checked}")
        checked += 1
    _report(
        6,
        checked == 500,
        f"ordinary intervals plus extended births reproduce the unextended barcode on all "
        f"{checked} suite-5 instances ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_7_classical_specialization():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240907)
    checked = 0
    for k in range(60):
        q = 2 if k % 2 == 0 else 3
        filtered = random_filtered_simplicial_complex(rng)
        f = fgs_from_filtered_complex(filtered, q, p_max=2)
        bc = barcode(compute_pairings(build_matrices(f, 2)), f)
        if Counter(bc) != classical_barcode(filtered, q, p_max=2):
            _report(7, False, f"barcode differs from the textbook reduction on complex {k}")
        checked += 1
    _report(
        7,
        checked == 60,
        f"subcomplex-case barcodes match an independent textbook reduction on {checked} "
        f"filtered simplicial complexes ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_8_path_homology_sanity():
    t0 = time.perf_counter()
    edgeless = WeightedDigraph(["a", "b", "c", "d"], {})
    ok = path_homology(edgeless, 2) == [4, 0, 0]

    single = WeightedDigraph(["a", "b"], {("a", "b"): 1.0})
    ok = ok and path_homology(single, 2) == [1, 0, 0]
    x, _, _ = build_pph_input(single, 2)
    bc = extended_barcode(x, 2)
    ok = ok and [iv.kind for iv in bc] == [EXTENDED] and bc.intervals[0].dim == 0

    cycle = WeightedDigraph(
        ["a", "b", "c", "d"],
        {("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0, ("d", "a"): 1.0},
    )
    ok = ok and path_homology(cycle, 2) == [1, 1, 0]
    xc, _, _ = build_pph_input(cycle, 2)
    ok = ok and len(extended_barcode(xc, 2).of_kind(EXTENDED, 1)) == 1

    square = WeightedDigraph(
        ["a", "b", "c", "d"],
        {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "d"): 1.0, ("c", "d"): 1.0},
    )
    ok = ok and path_homology(square, 2) == [1, 0, 0]
    xs, _, _ = build_pph_input(square, 2)
    ok = ok and len(extended_barcode(xs, 2).of_kind(EXTENDED, 1)) == 0

    _report(
        8,
        ok,
        "edgeless, single-edge, directed 4-cycle (H1 = 1) and commutative square (H1 = 0) "
        f"all reproduce the rank-oracle values ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_9_bottleneck_matches_exhaustive_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240909)
    checked = 0
    for k in range(300):
        d1, d2 = random_diagram(rng), random_diagram(rng)
        for dim in (0, 1):
            got = bottleneck(d1, d2, dim)
            want = bottleneck_oracle(d1, d2, dim)
            mismatch = len(d1.points("ext", dim)) != len(d2.points("ext", dim))
            if math.isinf(got) != mismatch:
                _report(9, False, f"infinity rule broken on pair {k} dimension {dim}")
            if math.isinf(want):
                if not math.isinf(got):
                    _report(9, False, f"matcher finite where the oracle is infinite (pair {k})")
            elif abs(got - want) > TOL:
                _report(9, False, f"matcher deviates from the assignment oracle on pair {k}")
        checked += 1
    _report(
        9,
        checked == 300,
        f"matcher agrees with the padded minimax-assignment oracle (tolerance {TOL}) on "
        f"{checked} diagram pairs, infinite exactly on extended-cardinality mismatch "
        f"({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_10_stability():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240910)
    checked = 0
    for t in range(200):
        g = random_digraph(rng, max_vertices=8, max_edges=14)
        d_e, per_dim = stability_trial(g, 0.25, seed=30_000 + t)
        if any(v > d_e + TOL for v in per_dim.values()):
            _report(10, False, f"digraph trial {t} violates d_B <= d_E + {TOL}")
        checked += 1
    for t in range(200):
        h = random_hypergraph(rng, max_vertices=8, max_hyperedges=12)
        d_inf, per_dim = stability_trial(h, 0.25, seed=60_000 + t)
        if any(v > d_inf + TOL for v in per_dim.values()):
            _report(10, False, f"hypergraph trial {t} violates the sup-norm bound")
        checked += 1
    _report(
        10,
        checked == 400,
        f"all {checked} seeded perturbation trials satisfy d_B <= input distance + {TOL} "
        f"in every dimension <= 2 ({time.perf_counter() - t0:.1f}s)",
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    graph_file = tmp_path / "g.tsv"
    graph_file.write_text("a\tb\t1\nb\tc\t2\nc\ta\t1.5\n")
    hyper_file = tmp_path / "h.tsv"
    hyper_file.write_text("1\ta\n2\tb\n1.5\ta,b\n")

    def run_twice(args, out_name):
        blobs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{out_name}.{tag}"
            code = main(args + ["--out", str(out)])
            capsys.readouterr()
            assert code == 0
            blobs.append(out.read_bytes())
        return blobs[0] == blobs[1]

    ok = run_twice(["pph", str(graph_file), "--seed", "4"], "pph")
    ok = ok and run_twice(["hyper", str(hyper_file), "--seed", "4"], "hyper")
    d_out = tmp_path / "pph.x"
    ok = ok and run_twice(["distance", str(d_out), str(d_out)], "dist")
    ok = ok and run_twice(
        ["stability", str(graph_file), "--delta", "0.2", "--trials", "5", "--seed", "4"],
        "stab",
    )
    _report(
        11,
        ok,
        f"pph, hyper, distance and stability are byte-reproducible under a fixed seed "
        f"({time.perf_counter() - t0:.1f}s)",
    )
