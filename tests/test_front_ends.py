"""The front ends run on id rows: no label is built unless a message needs one.

A front end's store keeps vertex names and id rows, and builds its label
lists on first access.  These tests guard the command-line path against a
label list built on the way, check that every message that names a
generator still names it as before, and that a store is still refused by
its record when it was built on another input.
"""

import numpy as np
import pytest

import extph.extended
from extph import (
    ConsistencyError,
    FilteredGradedSubgroup,
    FilteredHypergraph,
    GradedValidationError,
    WeightedDigraph,
    build_hyper_input,
    build_pph_input,
    diagrams,
    extended_barcode,
    hyper_input,
    hyper_store,
    pph_input,
    pph_store,
)
from extph.cli import main
from extph.graded import GradedSubgroup
from extph.persistence import Pairing

PATH = WeightedDigraph("abc", {("a", "b"): 1.0, ("b", "c"): 2.0})
TRIANGLE = FilteredHypergraph("abc", {("a", "b", "c"): 1.0})


@pytest.fixture
def labels_built(monkeypatch):
    """The row arrays whose labels were built, in order, while the test runs."""
    built = []
    original = GradedSubgroup._labels

    def counted(self, rows):
        built.append(rows)
        return original(self, rows)

    monkeypatch.setattr(GradedSubgroup, "_labels", counted)
    return built


def test_the_command_line_path_builds_no_label(labels_built, tmp_path):
    graph, hyper = tmp_path / "g.tsv", tmp_path / "h.tsv"
    graph.write_text("a\tb\t1\nb\tc\t2\nc\ta\t3\na\tc\t1.5\n")
    hyper.write_text("1\ta,b\n2\tb,c\n3\ta,b,c\n0.5\tc,d\n")
    out = str(tmp_path / "out")
    for args in (
        ["pph", str(graph), "--oracle-check"],
        ["pph", str(graph), "--field", "3", "--no-clearing"],
        ["hyper", str(hyper), "--oracle-check"],
        ["stability", str(graph), "--trials", "3"],
        ["stability", str(hyper), "--trials", "3", "--field", "3"],
    ):
        assert main([*args, "--out", out]) == 0, args
    for x, asc, desc in (build_pph_input(PATH), build_hyper_input(TRIANGLE)):
        diagrams(extended_barcode(x, 2), asc, desc)
        assert "basis" not in vars(x.ascending) and "basis" not in vars(x.descending)
        assert not {"basis", "extension", "universe"} & vars(x.graded).keys()
    assert labels_built == []
    # a label is still there when something reads one
    assert pph_store(PATH, 1).universe[1] == [("a", "b"), ("b", "c"), ("a", "c")]


def test_height_messages_name_generators_as_before():
    store = pph_store(PATH, 1)  # paths a, b, c; ab, bc; abc
    for heights, message in (
        ({0: [1, 1]}, "generator ('c',) has no height"),
        ({0: [1, 1, 1], 1: [1, 1.5], 2: [2]}, "height 1.5 of generator ('b', 'c') is not an integer"),
        ({0: [1, 1, 1], 1: [1, 3], 2: [2]}, "dimension 1: height 3 of generator ('b', 'c') outside [1, 2]"),
        ({0: [1, 1, 1], 1: [1, 2], 2: [2, 2]}, "dimension 2: 2 heights for 1 basis generators"),
    ):
        with pytest.raises(GradedValidationError) as err:
            FilteredGradedSubgroup(store, heights, 2)
        assert str(err.value) == message


@pytest.mark.parametrize("q", [2, 3])
def test_a_planted_nonzero_square_names_the_generator_as_before(q):
    store = hyper_store(TRIANGLE, 1, q)
    indptr, faces, coeffs = store.boundary_csr(2)
    store._csr[2] = (indptr - (np.arange(len(indptr)) > 0), faces[1:], coeffs[1:])  # the triangle loses a side
    with pytest.raises(GradedValidationError) as err:
        hyper_input(TRIANGLE, store)
    assert str(err.value) == "boundary of boundary of ('a', 'b', 'c') is nonzero"


@pytest.mark.parametrize(
    "pairing, message",
    [
        (
            Pairing(0, frozenset(), frozenset({0})),
            "dimension 0: generator base ('a',) opens an interval that never closes;"
            " the ascending and descending tops do not span the same space",
        ),
        (
            Pairing(1, frozenset({(2, 0)}), frozenset()),
            "dimension 1: generator cone ('a',) was paired with the base column base ('a', 'b', 'c')",
        ),
    ],
)
def test_consistency_errors_name_generators_as_before(monkeypatch, pairing, message):
    monkeypatch.setattr(extph.extended, "compute_pairings", lambda bm, clearing: [pairing])
    with pytest.raises(ConsistencyError) as err:
        extended_barcode(build_pph_input(PATH, 1)[0], 1)
    assert str(err.value) == message


def test_mismatched_stores_are_refused_by_their_record():
    digraph = "the store was built on another digraph's vertices or edges"
    hypergraph = "the store was built on another hypergraph's hyperedges"
    # a digraph with no edges, offered another digraph's store
    with pytest.raises(ValueError) as err:
        pph_input(WeightedDigraph(["x"], {}), pph_store(PATH, 2))
    assert str(err.value) == digraph
    # the transitive triangle, offered the store of a hypergraph with its vertices and edges: no path a->b->c
    g = WeightedDigraph("abc", {("a", "b"): 1.0, ("b", "c"): 2.0, ("a", "c"): 3.0})
    h = FilteredHypergraph("abc", {(v,): 0.0 for v in "abc"} | {tuple(e): w for e, w in g.weights.items()})
    with pytest.raises(ValueError) as err:
        pph_input(g, hyper_store(h, 2))
    assert str(err.value) == digraph
    # the same rows the other way round: a hypergraph offered a digraph's store
    g = WeightedDigraph("ab", {("a", "b"): 1.0})
    with pytest.raises(ValueError) as err:
        hyper_input(FilteredHypergraph("ab", {("a",): 0.0, ("b",): 0.0, ("a", "b"): 1.0}), pph_store(g, 1))
    assert str(err.value) == hypergraph
    # the same id rows on other vertex names
    with pytest.raises(ValueError) as err:
        hyper_input(FilteredHypergraph("xyz", {("x", "y", "z"): 1.0}), hyper_store(TRIANGLE))
    assert str(err.value) == hypergraph
    # the same vertices and as many edges, but other ones
    with pytest.raises(ValueError) as err:
        pph_input(WeightedDigraph("abc", {("a", "b"): 1.0, ("c", "b"): 2.0}), pph_store(PATH))
    assert str(err.value) == digraph
