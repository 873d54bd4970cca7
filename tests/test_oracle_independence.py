"""The rank oracles share no code with the pivot route.

The oracles are how the project knows the pairing algorithm is right, so
they must not call it.  These tests read the package's source with ``ast``
and walk, from each oracle, the names every function refers to.  The walk
over-approximates what can run:

* a bare name reaches the module-level function of that name in any
  module, or, for a class, its dunder methods (``__init__`` and the
  operators);
* an attribute ``obj.name`` reaches every method and every module-level
  function called ``name``, whatever ``obj`` is, so properties count too.

A walk that stays clear of the pivot route therefore proves the oracles
independent of it.  The walk also checks that the oracle side is dense end
to end: it reaches no sparse matrix and converts none to numpy.
"""

import ast
from collections import deque
from pathlib import Path

import extph

# every homology number of the package: the front ends' homology and the two module oracles
ORACLES = ("path_homology", "embedded_homology", "persistent_betti_oracle", "extended_module_oracle")
PIVOT_ROUTE = {
    "reduce",
    "compute_pairings",
    "build_matrices",
    "_column_encoding",
}
# the oracles' one elimination at every q: the packer, the sweep against a basis of lows
# and the unpacker of the kernels read off it
ELIMINATION = {"_pack", "_sweep", "_unpack"}


def _definitions(package_dir):
    """({qualified name: def node}, {class name: its method names}) over the package."""
    defs, classes = {}, {}
    for path in sorted(Path(package_dir).glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
                classes[node.name] = [m.name for m in methods]
                for m in methods:
                    defs[f"{node.name}.{m.name}"] = m
    return defs, classes


def _walk(starts, package_dir=Path(extph.__file__).parent):
    """{reached qualified name: the name it was reached from} for a walk from ``starts``."""
    defs, classes = _definitions(package_dir)
    functions = {name for name in defs if "." not in name}
    methods: dict = {}
    for name in defs:
        if "." in name:
            methods.setdefault(name.split(".")[1], []).append(name)

    def targets(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in functions:
                    yield sub.id
                for m in classes.get(sub.id, ()):
                    if m.startswith("__") and m.endswith("__"):
                        yield f"{sub.id}.{m}"
            elif isinstance(sub, ast.Attribute):
                yield from methods.get(sub.attr, ())
                if sub.attr in functions:
                    yield sub.attr

    reached = {name: None for name in starts}
    queue = deque(starts)
    while queue:
        name = queue.popleft()
        for target in targets(defs[name]):
            if target not in reached:
                reached[target] = name
                queue.append(target)
    return reached


def _route(reached, name):
    chain = [name]
    while reached[chain[-1]] is not None:
        chain.append(reached[chain[-1]])
    return " <- ".join(chain)


def _pivot_names(reached):
    return sorted(name for name in reached if name.rsplit(".", 1)[-1] in PIVOT_ROUTE)


def test_the_oracles_never_reach_the_pivot_route():
    reached = _walk(ORACLES)
    hits = _pivot_names(reached)
    assert not hits, "; ".join(_route(reached, name) for name in hits)
    # the walk did follow the oracles into the dense helpers and the store
    dense = {"dense_kernel", "window_ranks"} | ELIMINATION
    assert dense | {"GradedSubgroup.boundary_csr"} <= reached.keys()


def test_the_oracles_are_dense_end_to_end():
    reached = _walk(ORACLES)
    hits = sorted(n for n in reached if n == "SparseMatrix.__init__" or n.endswith("to_dense"))
    assert not hits, "; ".join(_route(reached, name) for name in hits)
    # they read the store straight into numpy, never through a sparse matrix
    hits = sorted(n for n in reached if n.startswith("SparseMatrix."))
    assert not hits, "; ".join(_route(reached, name) for name in hits)


def test_every_oracle_counts_windows_with_one_kernel():
    for oracle in ORACLES:
        assert {"window_table", "window_ranks", "stage_cycles"} | ELIMINATION <= _walk([oracle]).keys(), oracle
    # the slice route of the supremum complex and the row echelon form are test references, not package code
    defs, classes = _definitions(Path(extph.__file__).parent)
    references = {"sup_complex", "homology_dims", "dense_solve_many", "dense_rank"}
    references |= {"_row_echelon", "pivot_columns", "prefix_ranks"}
    assert not references & defs.keys()
    assert "ChainComplexSlice" not in classes


def test_the_walk_finds_the_pivot_route_from_the_barcode():
    reached = _walk(["extended_barcode"])
    assert {name.rsplit(".", 1)[-1] for name in _pivot_names(reached)} == PIVOT_ROUTE
    assert "ExtendedInput.layout" in reached  # the cone is a layout of build_matrices
    # the eliminations are two: the pivot route's and the oracles' own
    assert not ELIMINATION & reached.keys()
