"""The benchmark's tracer still binds to the pipeline it times.

``perfbench/spans.py`` rebinds functions at named module attributes; a
renamed or moved call site would only show when the benchmark runs.  This
imports it as it is and traces one ``pph`` run.
"""

import importlib.util
from pathlib import Path

import extph.cli
from extph import build_pph_input, parse_digraph

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
THREE_EDGES = "a\tb\t1\nb\tc\t2\nc\ta\t3\n"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_binds_and_counts_the_store(tmp_path):
    spans = _load_spans()
    src = tmp_path / "g.tsv"
    src.write_text(THREE_EDGES)
    with spans.Tracer() as tracer:
        assert extph.cli.main(["pph", str(src), "--out", str(tmp_path / "out.tsv")]) == 0
    assert extph.cli.extended_barcode is extph.extended.extended_barcode  # restored on exit
    names = {span[0] for span in tracer.spans}
    for name in ("digraph.build_pph_input", "extended.ExtendedInput.validate", "extended.extended_barcode"):
        assert name in names
    store = build_pph_input(parse_digraph(THREE_EDGES))[0].graded
    counts = tracer.take_counts()
    assert counts["gens.basis"] == sum(len(v) for v in store.basis.values()) > 0
    assert counts["gens.ext"] == sum(len(v) for v in store.extension.values()) > 0
