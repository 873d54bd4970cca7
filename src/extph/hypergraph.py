"""Hypergraphs with hyperedge values and their embedded-homology input.

A hypergraph's hyperedges span a graded subgroup of the simplicial chain
complex of its simplicial closure (all faces of hyperedges); embedded
homology is the homology of the supremum, equivalently infimum, complex
of that subgroup.  A real value per hyperedge induces the ascending
sublevel and descending superlevel filtrations.

File format (one hyperedge per line, consumed by the CLI)::

    value<TAB>v1,v2,...,vk
    # comment lines start with '#'; blank lines are skipped

The constructor and the parser check each hyperedge with
``_hyperedge``, so both give the same message.

Simplices are oriented by the sorted order of their vertices.  The input
is built on integer rows: each hyperedge is the row of its vertex ids in
sorted order (ids follow the sorted vertex names), and ``cell_store``
closes those rows under faces and records them as the store's ``cells``.
``_staged`` stages values listed in sorted hyperedge order, a stability
trial's perturbed ones too, picking each dimension's by ``_positions``.
No label is built on the way from a hypergraph to its barcode.
``simplicial_closure`` is the same closure at the level of labels; the
demos print it, and the tests check the array store against it and
against a label-level boundary of their own.
"""

import math
from itertools import chain, combinations

import numpy as np

from .errors import InputFormatError, records
from .extended import ExtendedInput
from .graded import GradedSubgroup, cell_store
from .persistence import _betti_numbers

__all__ = [
    "FilteredHypergraph",
    "simplicial_closure",
    "embedded_homology",
    "hyper_store",
    "build_hyper_input",
    "parse_hypergraph",
]


def _hyperedge(edge, value, listed):
    """One hyperedge as (sorted vertex tuple, float value); ValueError for a fault or a key of ``listed``."""
    edge = tuple(edge)
    if not edge:
        raise ValueError("empty hyperedge")
    if len(set(edge)) != len(edge):
        raise ValueError(f"hyperedge {edge!r} repeats a vertex")
    key = tuple(sorted(edge))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"hyperedge {key!r} has the non-finite value {value!r}")
    if key in listed:
        raise ValueError(f"duplicate hyperedge {key!r}")
    return key, value


class FilteredHypergraph:
    """Distinct non-empty hyperedges over an ordered vertex set, with a value each."""

    __slots__ = ("vertices", "values")

    def __init__(self, vertices, values):
        self.vertices = tuple(sorted(set(vertices)))
        vset = set(self.vertices)
        self.values = {}
        for edge, value in values.items():
            key, value = _hyperedge(edge, value, self.values)
            if not set(key) <= vset:
                raise ValueError(f"hyperedge {key!r} uses vertices outside the vertex set")
            self.values[key] = value

    @property
    def hyperedges(self):
        return sorted(self.values)

    def __repr__(self):
        return f"FilteredHypergraph({len(self.vertices)} vertices, {len(self.values)} hyperedges)"


def simplicial_closure(hyperedges) -> set:
    """All non-empty subsets of the hyperedges: the minimal simplicial complex containing them."""
    closure = set()
    for edge in hyperedges:
        key = tuple(sorted(set(edge)))
        for k in range(1, len(key) + 1):
            closure.update(combinations(key, k))
    return closure


def embedded_homology(h: FilteredHypergraph, p_max: int = 2, q: int = 2) -> list[int]:
    """Embedded homology dimensions of the hypergraph (values ignored), by window ranks."""
    return _betti_numbers(hyper_store(h, p_max, q), p_max)


def _positions(keys, top: int) -> dict:
    """Per dimension up to ``top``, the positions among the sorted hyperedges ``keys`` of those of that dimension."""
    dims = np.array([len(e) - 1 for e in keys], dtype=np.int64)
    return {p: np.flatnonzero(dims == p) for p in range(top + 1)}


def _hyperedges(h: FilteredHypergraph, top: int):
    """(id rows by dimension up to ``top``, values in sorted hyperedge order, ``_positions``) of h's hyperedges.

    Each dimension's rows are in lexicographic order, that of the sorted name tuples (ids follow the sorted
    names), which is the order in which ``_positions`` lists them.
    """
    vid = {v: i for i, v in enumerate(h.vertices)}.__getitem__
    keys = sorted(h.values)
    positions = _positions(keys, top)
    ids = {p: list(map(vid, chain.from_iterable(keys[i] for i in at.tolist()))) for p, at in positions.items()}
    cells = {p: np.array(ids[p], dtype=np.int64).reshape(-1, p + 1) for p in ids}
    return cells, np.array([h.values[e] for e in keys], dtype=float), positions


def hyper_store(h: FilteredHypergraph, p_max: int = 2, q: int = 2) -> GradedSubgroup:
    """The generator store of a hypergraph's input: what its values do not change.

    Hyperedges of dimension at most p_max + 1 are the basis (higher ones
    cannot affect homology up to p_max).  The extension generators are the
    proper faces of hyperedges that are not hyperedges themselves, a
    face-closed set, so boundaries never leave the listing.  Each
    hyperedge is a row of vertex ids in sorted order, and rows in
    lexicographic order are labels in lexicographic order; the store keeps
    the rows as its ``cells``.
    """
    return _store_and_values(h, p_max, q)[0]


def _store_and_values(h: FilteredHypergraph, p_max: int, q: int):
    """(``hyper_store``, its values in sorted hyperedge order, ``_positions``) of h."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    cells, values, positions = _hyperedges(h, p_max + 1)
    return cell_store(h.vertices, cells, q), values, positions


def _staged(store: GradedSubgroup, values, positions):
    """``ExtendedInput.from_values`` of hyperedge values, in sorted hyperedge order, on the hypergraph's ``hyper_store``.

    ``positions[p]`` picks the dimension-p basis values out of ``values`` in store order, leaving out the
    hyperedges above the store; the stage grid is the distinct values picked.
    """
    picked = {p: values[at] for p, at in positions.items()}
    grid = sorted(set(np.concatenate(list(picked.values())).tolist()))
    return ExtendedInput.from_values(store, grid, picked, picked)


def build_hyper_input(h: FilteredHypergraph, p_max: int = 2, q: int = 2):
    """The hypergraph's input: its values staged on its own ``hyper_store``, with one pass over its hyperedges."""
    return _staged(*_store_and_values(h, p_max, q))


def parse_hypergraph(text: str) -> FilteredHypergraph:
    """Parse the tab-separated hypergraph format; InputFormatError names the first faulty line."""
    vertices, values = set(), {}
    for lineno, fields in records(text):
        try:
            if len(fields) != 2:
                raise ValueError("expected 'value<TAB>v1,v2,...,vk'")
            try:
                value = float(fields[0])
            except ValueError:
                raise ValueError(f"bad value {fields[0]!r}") from None
            tokens = [t.strip() for t in fields[1].split(",")]
            if not all(tokens):
                raise ValueError("empty vertex name in hyperedge")
            key, value = _hyperedge(tokens, value, values)
        except ValueError as exc:
            raise InputFormatError(lineno, str(exc)) from None
        values[key] = value
        vertices.update(key)
    h = FilteredHypergraph.__new__(FilteredHypergraph)  # every record is checked: skip the constructor's pass
    h.vertices, h.values = tuple(sorted(vertices)), values
    return h
