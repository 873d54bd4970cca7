"""Spans and counts for the traced run, recorded from outside the program.

The pipeline is timed by rebinding its public functions, for the duration
of a ``with Tracer():`` block, at the module attributes through which the
pipeline calls them.  Nothing under ``src/`` is edited.  Each call becomes
a span ``[name, start, end, parent]``; spans stay in memory until the run
writes them out.  Counts are read from the wrapped functions' return
values, inside a span of their own (``perfbench.count``) so that the
counting work is not charged to any pipeline layer.
"""

import sys
import time
from collections import Counter

COUNT_SPAN = "perfbench.count"

# span name -> the (module, attribute) sites the pipeline calls it through.
# ``import extph`` rebinds the package attribute ``extph.diagrams`` to the
# *function* ``diagrams``, so modules are always looked up in sys.modules.
SITES = {
    "digraph.build_pph_input": [
        ("extph.digraph", "build_pph_input"),  # cli._cmd_pph imports it at call time
        ("extph.diagrams", "build_pph_input"),  # stability_trial
    ],
    "hypergraph.build_hyper_input": [
        ("extph.hypergraph", "build_hyper_input"),
        ("extph.diagrams", "build_hyper_input"),
    ],
    "extended.ExtendedInput.validate": [("extph.extended", "ExtendedInput.validate")],
    "extended.build_extended_filtration": [("extph.extended", "build_extended_filtration")],
    "persistence.build_matrices": [("extph.extended", "build_matrices")],
    "persistence.compute_pairings": [("extph.extended", "compute_pairings")],
    "field.reduce": [("extph.persistence", "reduce")],
    "extended.extended_barcode": [
        ("extph.cli", "extended_barcode"),
        ("extph.diagrams", "extended_barcode"),
    ],
    "diagrams.diagrams": [("extph.cli", "diagrams"), ("extph.diagrams", "diagrams")],
    "diagrams.stability_trial": [("extph.cli", "stability_trial")],
    "diagrams.bottleneck": [("extph.cli", "bottleneck"), ("extph.diagrams", "bottleneck")],
    "extended.extended_module_oracle": [("extph.cli", "extended_module_oracle")],
    "extended.interval_rank_table": [("extph.cli", "interval_rank_table")],
}
ROOT_SPAN = "cli.main"
LAYERS = [ROOT_SPAN] + list(SITES)

COUNTS = [
    "gens.basis",
    "gens.ext",
    "cone.basis",
    "cone.ext",
    "matrix.rows",
    "matrix.ext_rows",
    "matrix.cols",
    "matrix.nnz",
    "reduce.cols_cleared",
    "pairs.basis",
    "pairs.dropped",
    "intervals.ord",
    "intervals.rel",
    "intervals.ext",
    "matcher.calls",
    "matcher.points",
    "matcher.max_group",
    "matcher.candidates",
    "oracle.windows",
]
CALLED = ["digraph.build_pph_input", "extended.extended_barcode"]


def _resolve(module, attr):
    owner = sys.modules[module]
    path = attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def _gens(graded):
    return (
        sum(len(v) for v in graded.basis.values()),
        sum(len(v) for v in graded.extension.values()),
    )


def _count_input(c, result, args, kwargs):
    basis, ext = _gens(result[0].ascending.graded)
    c["gens.basis"] += basis
    c["gens.ext"] += ext


def _count_cone(c, result, args, kwargs):
    basis, ext = _gens(result.graded)
    c["cone.basis"] += basis
    c["cone.ext"] += ext


def _count_matrices(c, result, args, kwargs):
    for p, m in enumerate(result.mats):
        c["matrix.rows"] += m.num_rows
        c["matrix.ext_rows"] += m.num_rows - result.basis_counts[p]
        c["matrix.cols"] += len(m.columns)
        c["matrix.nnz"] += sum(len(col.entries) for col in m.columns)


def _count_pairings(c, result, args, kwargs):
    clearing = kwargs.get("clearing", args[1] if len(args) > 1 else True)
    for pairing in result:
        c["pairs.basis"] += len(pairing.pairs)
        if clearing and pairing.dim >= 1:
            # these rows are the columns skipped one dimension down
            c["reduce.cols_cleared"] += len(pairing.pairs)


def _count_barcode(c, result, args, kwargs):
    from extph.extended import EXTENDED, ORDINARY, RELATIVE

    for kind, name in ((ORDINARY, "intervals.ord"), (RELATIVE, "intervals.rel"), (EXTENDED, "intervals.ext")):
        c[name] += len(result.of_kind(kind))
    c["_intervals"] += len(result)


def _count_matcher(c, result, args, kwargs):
    from extph.diagrams import EXT, ORD, REL

    d1, d2 = args[0], args[1]
    dim = kwargs.get("dim", args[2] if len(args) > 2 else None)
    if dim is None:
        return  # recurses once per dimension; those calls are counted
    c["matcher.calls"] += 1
    for kind, diagonal in ((ORD, True), (REL, True), (EXT, False)):
        n1, n2 = len(d1.points(kind, dim)), len(d2.points(kind, dim))
        c["matcher.points"] += n1 + n2
        c["matcher.max_group"] = max(c["matcher.max_group"], n1 + n2)
        if (n1 or n2) and (diagonal or n1 == n2):
            # upper bound on the sorted candidate list of _kind_bottleneck
            c["matcher.candidates"] += 1 + n1 * n2 + (n1 + n2 if diagonal else 0)


def _count_oracle(c, result, args, kwargs):
    c["oracle.windows"] += len(result)


COUNTERS = {
    "digraph.build_pph_input": _count_input,
    "hypergraph.build_hyper_input": _count_input,
    "extended.build_extended_filtration": _count_cone,
    "persistence.build_matrices": _count_matrices,
    "persistence.compute_pairings": _count_pairings,
    "extended.extended_barcode": _count_barcode,
    "diagrams.bottleneck": _count_matcher,
    "extended.extended_module_oracle": _count_oracle,
}


class Tracer:
    """Records spans and counts while its ``with`` block is active."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, clock(), None, parent]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if count is not None:
                cspan = [COUNT_SPAN, clock(), None, parent]
                spans.append(cspan)
                count(self.counts, result, args, kwargs)
                cspan[2] = clock()
            return result

        return traced

    def __enter__(self):
        try:
            for name, sites in SITES.items():
                originals = [getattr(*_resolve(m, a)) for m, a in sites]
                if any(o is not originals[0] for o in originals):
                    raise RuntimeError(f"{name}: the call sites {sites} no longer hold one function")
                wrapper = self.wrap(name, originals[0])
                for m, a in sites:
                    owner, attr = _resolve(m, a)
                    self._saved.append((owner, attr, originals[0]))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def take_counts(self):
        """Counts since the last call, with pairs.dropped derived."""
        c = self.counts
        c["pairs.dropped"] = c["pairs.basis"] - c.pop("_intervals", 0)
        out = {name: c[name] for name in COUNTS}
        self.counts = Counter()
        return out


def self_times(spans, root):
    """Self seconds per span name for the op whose root span is ``spans[root]``.

    Raises ValueError when a span is not nested inside its parent, or when
    the self times do not add up to the root span's duration.
    """
    out = Counter()
    calls = Counter()
    for i in range(root, len(spans)):
        name, start, end, parent = spans[i]
        out[name] += end - start
        calls[name] += 1
        if i == root:
            continue
        if parent < root:
            raise ValueError(f"span {name} escapes the op's root span")
        pname, pstart, pend, _ = spans[parent]
        if start < pstart or end > pend:
            raise ValueError(f"span {name} is not inside its parent {pname}")
        out[pname] -= end - start
    wall = spans[root][2] - spans[root][1]
    total = sum(out.values())
    if abs(total - wall) > 1e-6 + 1e-6 * wall:
        raise ValueError(f"self times sum to {total} s, the op's span lasted {wall} s")
    return out, calls
