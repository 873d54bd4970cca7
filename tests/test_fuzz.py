"""Fuzzed properties: the text parsers, and the axioms of the bottleneck distance.

The three text parsers return a value or raise InputFormatError on any
text.  Their alphabet is the parsers' own separators and number syntax,
plus the spellings of non-finite and overflowing floats, so the drawn
text reaches the field checks rather than stopping at the first
character.  ``bottleneck`` is a metric on finite diagrams whose extended
points agree in number per dimension.  The examples are derandomized, so
every run draws the same ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from extph import InputFormatError, bottleneck, parse_digraph, parse_hypergraph, read_diagram
from extph.diagrams import DiagramPoint, ExtendedDiagram

TOKENS = ["\t", "\n", ",", "-", "#", ".", " ", "a", "b", "nan", "inf", "1e400", "ord", "rel", "ext"]
TOKENS += list("0123456789")
TEXT = st.lists(st.sampled_from(TOKENS), max_size=60).map("".join)


def _returns_or_rejects(parse, text):
    try:
        parse(text)
    except InputFormatError:
        pass


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TEXT)
def test_parse_digraph_returns_or_raises_input_format_error(text):
    _returns_or_rejects(parse_digraph, text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TEXT)
def test_parse_hypergraph_returns_or_raises_input_format_error(text):
    _returns_or_rejects(parse_hypergraph, text)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(TEXT)
def test_read_diagram_returns_or_raises_input_format_error(text):
    _returns_or_rejects(read_diagram, text)


COORD = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
POINT = st.tuples(st.integers(0, 1), COORD, COORD)


@st.composite
def diagrams_alike(draw, count=3):
    """``count`` finite diagrams with as many extended points in each dimension."""
    ext_dims = draw(st.lists(st.integers(0, 1), max_size=3))
    out = []
    for _ in range(count):
        ordinary = [DiagramPoint(p, min(a, b), max(a, b)) for p, a, b in draw(st.lists(POINT, max_size=4))]
        relative = [DiagramPoint(p, max(a, b), min(a, b)) for p, a, b in draw(st.lists(POINT, max_size=4))]
        extended = [DiagramPoint(p, draw(COORD), draw(COORD)) for p in ext_dims]
        out.append(ExtendedDiagram(ordinary, relative, extended))
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(diagrams_alike())
def test_bottleneck_is_a_metric_on_finite_diagrams(three):
    a, b, c = three
    assert bottleneck(a, a) == 0.0
    assert abs(bottleneck(a, b) - bottleneck(b, a)) <= 1e-9
    assert bottleneck(a, c) <= bottleneck(a, b) + bottleneck(b, c) + 1e-9
