"""Fuzzing of the table JSON loader: any payload loads or raises the loader's own error."""

import pytest

pytest.importorskip("hypothesis")
import numpy as np
from hypothesis import given, settings, strategies as st

from quditbell.scenario import (
    JointProbabilityTable,
    TableFormatError,
    all_setting_strings,
    setting_index,
)
from conftest import setting_index_reference

# a fixed alphabet, near the setting strings and field names, spares
# hypothesis its Unicode tables
TEXT = "12ndxé-"
# JSON integers are unbounded: some lie past the largest float
NUMBERS = (
    st.integers()
    | st.floats()
    | st.integers(min_value=2**1024)
    | st.integers(max_value=-(2**1024))
)
SCALARS = st.none() | st.booleans() | NUMBERS | st.text(TEXT, max_size=4)
JSON = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(TEXT, max_size=8), inner, max_size=4)
    ),
    max_leaves=8,
)
# n and d stay small or are no integer at all, so no payload describes much
SIZES = (
    st.integers(min_value=-1, max_value=4)
    | st.none()
    | st.booleans()
    | st.floats()
    | st.text(TEXT, max_size=2)
)
FUZZ = settings(max_examples=100, deadline=None, database=None)


def _maybe_drop(draw, mapping):
    # sometimes lose one required key, sometimes gain a stray one
    if mapping and draw(st.booleans()) and draw(st.booleans()):
        del mapping[draw(st.sampled_from(sorted(mapping)))]
    if draw(st.booleans()) and draw(st.booleans()):
        mapping[draw(st.text(TEXT, max_size=8))] = draw(JSON)
    return mapping


def _sizes(draw, n, d):
    # the sizes the payload was built for, or anything
    return {"n": draw(st.just(n) | SIZES), "d": draw(st.just(d) | SIZES)}


@st.composite
def table_payloads(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    size = d**n
    row = (
        st.just([1 / size] * size)
        | st.lists(NUMBERS, min_size=size, max_size=size)
        | st.lists(SCALARS, min_size=size, max_size=size)
        | st.lists(NUMBERS, max_size=4)
        | JSON
    )
    tables = _maybe_drop(draw, {s: draw(row) for s in all_setting_strings(n)})
    return _maybe_drop(draw, {**_sizes(draw, n, d), "tables": tables})


@FUZZ
@given(table_payloads() | JSON)
def test_table_loader_raises_only_table_format_errors(payload):
    try:
        JointProbabilityTable.from_json_dict(payload)
    except TableFormatError:
        pass


@st.composite
def setting_rows(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return n, draw(st.integers(min_value=0, max_value=2**n - 1))


@FUZZ
@given(setting_rows())
def test_setting_index_round_trip(row):
    # the string and the int-sequence spellings both read back as the row index
    n, i = row
    setting = all_setting_strings(n)[i]
    assert setting_index(setting, n) == i
    assert setting_index([int(c) for c in setting], n) == i


# the setting characters, with a space, a zero, an underscore and a tab, which int()
# would read or skip, and an Arabic-Indic one, which int() reads as a digit; the
# setting characters are drawn four times as often, so most strings are nearly valid
SETTING_TEXT = st.lists(st.sampled_from("1111" "2222" " 0_\t\u0661"), max_size=8).map("".join)
SETTING_ENTRIES = (
    st.integers(-1, 3)
    | st.booleans()
    | st.floats(allow_nan=True)
    | st.integers(-1, 3).map(np.int64)
    | st.integers(0, 3).map(np.uint8)
)
SETTINGS = (
    st.text("12", max_size=8)
    | SETTING_TEXT
    | st.lists(st.sampled_from([1, 2]), max_size=8)
    | st.lists(SETTING_ENTRIES, max_size=8)
    | st.lists(SETTING_ENTRIES, max_size=8).map(tuple)
    | st.integers()
    | st.none()
)


@st.composite
def settings_and_sizes(draw):
    # the party count is mostly the setting's length, so most draws reach the index
    setting = draw(SETTINGS)
    length = len(setting) if isinstance(setting, (str, list, tuple)) else 0
    return setting, draw(st.just(length) | st.integers(0, 8))


def _read(reader, setting, n):
    try:
        return reader(setting, n)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None, database=None)
@given(settings_and_sizes())
def test_setting_index_matches_the_reference_reader(case):
    # the same index, or the same refusal text
    setting, n = case
    assert _read(setting_index, setting, n) == _read(setting_index_reference, setting, n)
