"""The front ends run on id rows: no label is built unless a message needs one.

A front end's store keeps vertex names and id rows, and builds its label
lists on first access.  These tests guard the command-line path against a
label list built on the way, check that every message that names a
generator still names it as before.
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
    hyper_store,
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
    from extph.hypergraph import _staged, _store_and_values

    store, values, positions = _store_and_values(TRIANGLE, 1, q)
    indptr, faces, coeffs = store.boundary_csr(2)
    store._csr[2] = (indptr - (np.arange(len(indptr)) > 0), faces[1:], coeffs[1:])  # the triangle loses a side
    with pytest.raises(GradedValidationError) as err:
        _staged(store, values, positions)
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
