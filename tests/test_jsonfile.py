"""The one writer emits json.dumps(indent=2, sort_keys=True) bytes exactly.

json.dumps is the oracle: every value, whether it takes the templated path
for rows of numbers or goes through json itself, must come out byte for byte
as json would write it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reinhardt.jsonfile import json_text

EXPECTED = Path(__file__).resolve().parent / "golden" / "expected"


def oracle(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1.5e300, math.inf, -math.inf, math.nan]
EDGE_INTS = [0, -1, 2**63, -(2**70), 10**40]
EDGE_STRINGS = ["", "label", "é ∞ 漢", "\x00\x1f\n\t\"\\", "\U0001f600", "\ud800"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS + EDGE_INTS + EDGE_STRINGS),
    st.text(max_size=8),
)
ints = st.one_of(st.integers(), st.sampled_from(EDGE_INTS))
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([x for x in EDGE_FLOATS if math.isfinite(x)]),
)


@st.composite
def number_rows(draw):
    """Lists of equal-length flat rows, the shape the templated path takes, or near misses."""
    width = draw(st.integers(0, 3))
    count = draw(st.integers(0, 4))
    items = draw(st.sampled_from([ints, finite, floats, st.one_of(ints, finite, st.booleans())]))
    rows = [draw(st.lists(items, min_size=width, max_size=width)) for _ in range(count)]
    if rows and draw(st.booleans()):  # a ragged or mixed row
        rows.append(draw(st.lists(st.one_of(items, scalars), max_size=4)))
    return rows


values = st.recursive(
    st.one_of(scalars, number_rows()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(values)
def test_json_text_is_json_dumps(data):
    assert json_text(data) == oracle(data)


@st.composite
def number_tables(draw):
    """Part-file tables: equal-length rows of all ints or all finite floats, maybe nested."""
    width = draw(st.integers(1, 3))
    items = draw(st.sampled_from([ints, finite]))
    rows = draw(st.lists(st.lists(items, min_size=width, max_size=width), min_size=1, max_size=6))
    return {"rule": {"values": rows, "kind": "explicit_table"}} if draw(st.booleans()) else rows


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(number_tables())
def test_number_tables_match_json_dumps(data):
    assert json_text(data) == oracle(data)


@pytest.mark.parametrize(
    "data",
    [
        {},
        [],
        [[]],
        [[], []],
        {"a": [], "b": {}, "c": [[]]},
        [[1, 2], [3, 4]],
        [[1.0, -0.0], [5e-324, 1e16]],
        [[1.0, math.inf], [0.0, 0.0]],
        [[math.nan, 0.0]],
        [[1, 2.0]],
        [[1, True]],
        [[True, False]],
        [[1, 2], [3]],
        [[1, 2], (3, 4)],
        [(1, 2), (3, 4)],
        [[1, 2], [[3], 4]],
        [[10**40, -(2**70)]],
        [[np.float64(0.1), 0.2]],
        [[1.0, 2.0], None, [3.0, 4.0]],
        {"z": [[0.5, 0.5]], "a": {"nested": [[[1, 2]], [[3, 4]]]}, "é": "\x00∞"},
        {"offsets": [0.5, "inf", None], "halfspaces": [None, {"normal": [0.5, 0.5]}]},
        {2: "int keys", 1: [[1, 2]]},
        np.float64(2.5),
        "just a string",
        None,
    ],
)
def test_json_text_edge_cases(data):
    assert json_text(data) == oracle(data)


@pytest.mark.parametrize("data", [[[np.int64(3), 4]], {"a": {1, 2}}, {1: 0, "a": 0}])
def test_json_text_refuses_what_json_refuses(data):
    with pytest.raises(TypeError):
        oracle(data)
    with pytest.raises(TypeError):
        json_text(data)


def test_json_text_rewrites_every_golden_json_file_byte_for_byte():
    checked = 0
    for path in sorted(EXPECTED.rglob("*")):
        if not path.is_file():
            continue
        text = path.read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError:  # CSV stdout
            continue
        if isinstance(data, (dict, list)):  # not an exit code
            assert json_text(data) == text, path
            checked += 1
    assert checked >= 47 + 6  # the part files and the decompose manifests at least
