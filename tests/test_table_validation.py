"""A table is accepted, clipped or refused, with the same words, as by the full
row-by-row checks that the constructor runs only on a table it refuses."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from quditbell.scenario import (
    PROB_TOLERANCE,
    BellScenario,
    JointProbabilityTable,
    TableFormatError,
    all_setting_strings,
)

SCENARIO = BellScenario(2, 2)
TOL = PROB_TOLERANCE


def oracle_rows(scenario: BellScenario, rows) -> np.ndarray:
    """Oracle: the constructor's checks before acceptance took two reductions."""
    arr = np.array(rows)
    if arr.dtype.kind in "bcSU":
        raise TableFormatError(f"probabilities must be real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    n, d = scenario.n_parties, scenario.dimension
    if arr.shape != (1 << n, scenario.n_outcome_tuples):
        raise TableFormatError(f"expected probabilities of shape (2^{n}, {d}^{n}), got {arr.shape}")

    def first(bad_rows):
        i = int(bad_rows.argmax())
        return i, all_setting_strings(n)[i]

    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        raise TableFormatError(f"setting {first(~finite)[1]}: non-finite probability")
    lowest = arr.min(axis=1)
    if (lowest < -PROB_TOLERANCE).any():
        i, s = first(lowest < -PROB_TOLERANCE)
        raise TableFormatError(f"setting {s}: negative probability {lowest[i]:.3e}")
    np.clip(arr, 0.0, None, out=arr)
    totals = arr.sum(axis=1)
    if (np.abs(totals - 1.0) > PROB_TOLERANCE).any():
        i, s = first(np.abs(totals - 1.0) > PROB_TOLERANCE)
        raise TableFormatError(
            f"setting {s}: probabilities sum to {float(totals[i])!r}, expected 1"
        )
    return arr


def verdict(build):
    """("accepted", the rows' bytes) or (the error's type, its text), and the texts
    of the warnings given on the way (a refused row may give one twice)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = "accepted", build().tobytes()
        except Exception as exc:  # the types must match too, not only the text
            outcome = type(exc), str(exc)
    return *outcome, {str(w.message) for w in caught}


def assert_same_verdict(rows, scenario=SCENARIO):
    expected = verdict(lambda: oracle_rows(scenario, rows))
    assert verdict(lambda: JointProbabilityTable(scenario, rows).rows) == expected
    if isinstance(rows, np.ndarray) and rows.dtype == float:
        # a table the package builds hands its own array over: the same checks, in place
        fresh = rows.copy()
        assert verdict(lambda: JointProbabilityTable._of_fresh(scenario, fresh).rows) == expected
    return expected


def with_rows(rows_by_setting=None):
    """A uniform (2, 2) table with some rows replaced, keyed by setting string."""
    table = np.full((4, 4), 0.25)
    for setting, row in (rows_by_setting or {}).items():
        table[all_setting_strings(2).index(setting)] = row
    return table


NAN, INF = np.nan, np.inf
BIG = np.finfo(float).max
PAST_DUST = np.nextafter(-TOL, -INF)

SPECIAL_ROWS = {
    "nan": with_rows({"21": [0.5, NAN, 0.25, 0.25]}),
    "+inf": with_rows({"12": [INF, 0.0, 0.0, 0.0]}),
    "-inf": with_rows({"12": [-INF, 0.5, 0.5, 0.0]}),
    "+inf and -inf": with_rows({"22": [INF, -INF, 0.5, 0.5]}),
    "finite sum overflows": with_rows({"21": [BIG, BIG, 0.0, 0.0]}),
    "finite, negative sum overflows": with_rows({"21": [BIG, BIG, -BIG, -BIG]}),
    "dust at the tolerance": with_rows({"12": [0.5, 0.5, -TOL, 0.0]}),
    "dust past the tolerance": with_rows({"12": [0.5, 0.5, PAST_DUST, 0.0]}),
    "dust in every row": np.tile([0.5, 0.5 + 1e-10, -1e-10, 0.0], (4, 1)),
    "negative zero": with_rows({"11": [0.5, -0.0, 0.5, -0.0]}),
    "all zeros": with_rows({"22": [0.0, 0.0, 0.0, 0.0]}),
    "negative, then non-finite": with_rows({"12": [0.5, 0.5, -0.5, 0.5], "22": [NAN, 0.5, 0.5, 0.0]}),
    "bad sum, then negative": with_rows({"12": [0.5, 0.5, 0.5, 0.5], "22": [1.5, -0.5, 0.0, 0.0]}),
    "uniform": with_rows(),
}


@pytest.mark.parametrize("rows", SPECIAL_ROWS.values(), ids=SPECIAL_ROWS.keys())
def test_special_rows(rows):
    assert_same_verdict(rows)


def test_the_special_rows_take_both_verdicts():
    verdicts = {name: assert_same_verdict(rows)[0] for name, rows in SPECIAL_ROWS.items()}
    assert verdicts["dust at the tolerance"] == "accepted"
    assert verdicts["negative zero"] == "accepted"
    assert verdicts["dust past the tolerance"] is TableFormatError
    assert verdicts["finite sum overflows"] is TableFormatError


def ulps_around(value, count=3):
    """value and its `count` nearest doubles on either side."""
    below, above, x, y = [], [], value, value
    for _ in range(count):
        x, y = np.nextafter(x, -INF), np.nextafter(y, INF)
        below.append(x)
        above.append(y)
    return below[::-1] + [value] + above


@pytest.mark.parametrize("edge", [1.0 + TOL, 1.0 - TOL], ids=["1+tol", "1-tol"])
def test_row_sums_at_the_tolerance_and_just_past_it(edge):
    verdicts = []
    for total in ulps_around(edge):
        # a first entry carries the whole row sum, so the sum is exactly that double
        verdicts.append(assert_same_verdict(with_rows({"21": [total, 0.0, 0.0, 0.0]}))[0])
        assert_same_verdict(with_rows({"21": [total - 0.5, 0.5, 0.0, 0.0]}))
    assert "accepted" in verdicts
    assert TableFormatError in verdicts


@pytest.mark.parametrize("dust", ulps_around(-TOL), ids=lambda x: repr(float(x)))
def test_dust_at_the_tolerance_and_just_past_it(dust):
    assert_same_verdict(with_rows({"12": [0.5, 0.5, dust, 0.0]}))


@pytest.mark.parametrize(
    "rows",
    [
        np.full((4, 4), 0.25 + 0.0j),
        np.full((4, 4), 0.25 + 0.5j),
        [[0.25 + 0j] * 4] * 4,
        np.full((4, 3), 1 / 3),
        np.full((3, 4), 0.25),
        np.full((4,), 0.25),
        np.full((2, 4, 2), 0.25),
        0.25,
        [],
        [[0.25] * 4] * 3 + [[0.25] * 3],
        np.full((4, 4), "0.25"),
        [[1, 0, 0, 0]] * 4,
        [[0.25] * 4] * 4,
    ],
    ids=[
        "complex with zero imaginary parts",
        "complex",
        "complex list",
        "(4, 3)",
        "(3, 4)",
        "(4,)",
        "(2, 4, 2)",
        "scalar",
        "empty list",
        "ragged list",
        "strings",
        "ints",
        "floats list",
    ],
)
def test_input_types_and_shapes(rows):
    assert_same_verdict(rows)


def test_first_offending_row_in_a_larger_table():
    scenario = BellScenario(3, 3)
    for kind in (NAN, -1e-3, 2.0):
        rows = np.full((8, 27), 1 / 27)
        rows[5, 7] = kind
        rows[6, 0] = -INF
        assert assert_same_verdict(rows, scenario)[0] is TableFormatError


SPECIAL_VALUES = [
    0.0, -0.0, 0.25, 0.5, 1.0, 0.25 + TOL, 0.25 - TOL, 0.25 + 2 * TOL, -TOL, PAST_DUST,
    -1e-10, 1e-10, NAN, INF, -INF, BIG, -BIG, 1e-300, 5e-324,
]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.sampled_from(SPECIAL_VALUES)), max_size=5))
def test_any_special_entries(changes):
    rows = np.full((4, 4), 0.25)
    for flat, value in changes:
        rows.flat[flat] = value
    assert_same_verdict(rows)
