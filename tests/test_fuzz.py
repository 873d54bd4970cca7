"""The three text parsers return a value or raise InputFormatError on any text.

The alphabet is the parsers' own separators and number syntax, plus the
spellings of non-finite and overflowing floats, so the drawn text reaches
the field checks rather than stopping at the first character.  The
examples are derandomized, so every run draws the same ones.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from extph import InputFormatError, parse_digraph, parse_hypergraph, read_diagram

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
