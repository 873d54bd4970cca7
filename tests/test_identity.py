"""Output digests: one sha256 per family of seeded results.

Each family builds a fixed corpus from ``np.random.default_rng`` seeds,
writes every result as plain Python ints, floats and strings, and hashes
the ``repr`` of the list.  A change that moves any barcode, rank table,
homology dimension or diagram byte fails the family it belongs to.  A
change that means to alter output updates the digest and says why in
CHANGES.md; no other change may touch these values.
"""

import hashlib
import math

import numpy as np
import pytest

from extph import (
    barcode,
    build_hyper_input,
    build_matrices,
    build_pph_input,
    compute_pairings,
    diagrams,
    extended_barcode,
    extended_module_oracle,
    format_diagram,
    persistent_betti_oracle,
)
from extph.persistence import _betti_numbers

from oracles import random_digraph, random_extended_input, random_filtered, random_graded, random_hypergraph
from references import positional_barcode

DIGESTS = {
    "extended_barcodes": "e756ece90a9799f1c3a41a07d818038fdba1360c96a80f0993559e6e4a0d996f",
    "module_oracle_tables": "7d47d235b11c409629e60efe7576f0ea290d4ac60b54118705f79942f08a024a",
    "plain_barcodes": "bf3ccc2922c87677dcafe92948dc3be2d1384c96d7f5a068503b519d7ee36ed3",
    "persistent_betti_tables": "33f032d69fa9282d87cb26487b3bd6ffe8f89502f6a22629d47e8a4d4627be6b",
    "homology_dims": "f564b28c6c3b62041d1d768a8eb10f3015646b9b4fe3bfbe7d1811441e06a170",
    "front_end_diagrams": "f3d7cd8f47675953c953f512f19b75de470af4aa8a32faf004ae6652da7d0388",
}


def _plain(value):
    """Numbers as Python ints and floats, so the digest does not depend on numpy's scalar repr."""
    if isinstance(value, (tuple, list)):
        return tuple(_plain(v) for v in value)
    if isinstance(value, str):
        return value
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return int(value) if float(value).is_integer() else float(value)


def _table(table):
    return tuple((_plain(k), int(v)) for k, v in sorted(table.items()))


def _extended_inputs():
    rng = np.random.default_rng(2024)
    for k in range(300):
        yield random_extended_input(rng, (2, 3, 5)[k % 3], p_max=3), 1 + (k // 3) % 3


def _extended_barcodes():
    out = []
    for x, p_max in _extended_inputs():
        for clearing in (True, False):
            for reading, read in (("corresponding", extended_barcode), ("positional", positional_barcode)):
                bc = read(x, p_max, clearing)
                out.append((p_max, clearing, reading, _plain(bc.intervals), bc.num_ascending, bc.num_descending))
    return out


def _module_oracle_tables():
    return [_table(extended_module_oracle(x, p_max)) for x, p_max in list(_extended_inputs())[:150]]


def _filtrations():
    rng = np.random.default_rng(2025)
    for k in range(300):
        yield random_filtered(rng, (2, 3, 5)[k % 3], p_max=2), 1 + k % 2


def _plain_barcodes():
    out = []
    for f, p_max in _filtrations():
        for clearing in (True, False):
            out.append(_plain(barcode(compute_pairings(build_matrices(f, p_max), clearing), f).intervals))
    return out


def _persistent_betti_tables():
    return [_table(persistent_betti_oracle(f, p_max)) for f, p_max in list(_filtrations())[:150]]


def _homology_dims():
    rng = np.random.default_rng(2026)
    return [tuple(_betti_numbers(random_graded(rng, (2, 3)[k % 2]), 2)) for k in range(200)]


def _front_end_diagrams():
    rng = np.random.default_rng(2027)
    out = []
    for k in range(150):
        q, p_max, big = (2, 3)[k % 2], 1 + k % 3, k % 5 == 0
        digraph = random_digraph(rng, max_vertices=12, max_edges=30) if big else random_digraph(rng)
        hypergraph = random_hypergraph(rng, max_vertices=10, max_arity=5) if big else random_hypergraph(rng)
        for subject, build in ((digraph, build_pph_input), (hypergraph, build_hyper_input)):
            x, asc, desc = build(subject, p_max, q)
            out.append(format_diagram(diagrams(extended_barcode(x, p_max), asc, desc)))
    return out


FAMILIES = {
    "extended_barcodes": _extended_barcodes,
    "module_oracle_tables": _module_oracle_tables,
    "plain_barcodes": _plain_barcodes,
    "persistent_betti_tables": _persistent_betti_tables,
    "homology_dims": _homology_dims,
    "front_end_diagrams": _front_end_diagrams,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_output_digest(family):
    got = hashlib.sha256(repr(FAMILIES[family]()).encode()).hexdigest()
    assert got == DIGESTS[family]
