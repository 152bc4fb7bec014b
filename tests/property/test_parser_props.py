"""Hostile input fails at the parser boundary, and only with
:class:`TraceFormatError`.

Rows are drawn for the three parsers from truncated and padded field
lists, huge and negative numbers, zero sizes and unknown op tokens.  A
parser either returns a validated trace or raises ``TraceFormatError``;
any other exception escaping it fails the test.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.common.errors import TraceFormatError
from repro.trace.parser import parse_ali, parse_csv, parse_msr

pytestmark = pytest.mark.property

numbers = st.one_of(
    st.integers(min_value=0, max_value=1 << 20),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.sampled_from([0, -1, 2 ** 63 - 1, 2 ** 63, -(2 ** 63) - 1]),
).map(str)
ops = st.sampled_from(["W", "R", "write", "Read", "1", "0", "X", "7", ""])

#: Field kinds per parser, in column order.
LAYOUTS = {
    parse_csv: (numbers, ops, numbers, numbers),
    parse_msr: (numbers, st.just("host"), numbers, ops, numbers, numbers,
                numbers),
    parse_ali: (numbers, ops, numbers, numbers, numbers),
}


@st.composite
def rows(draw, layout):
    fields = [draw(kind) for kind in layout]
    shape = draw(st.sampled_from(["whole"] * 6 + ["truncated", "padded"]))
    if shape == "truncated":
        fields = fields[:draw(st.integers(0, len(fields) - 1))]
    elif shape == "padded":
        fields.append("0")
    return ",".join(fields)


@given(data=st.data(), parse=st.sampled_from(sorted(LAYOUTS,
                                                    key=lambda f: f.__name__)))
@settings(max_examples=300, deadline=None)
def test_every_parser_failure_is_a_trace_format_error(data, parse):
    lines = data.draw(st.lists(rows(LAYOUTS[parse]), min_size=1, max_size=4))
    try:
        trace = parse(lines)
    except TraceFormatError:
        return
    assert trace.validate() is trace
