"""Bell scenario combinatorics and evaluation of the N-qudit Bell functional.

N parties each choose one of two measurement settings with d outcomes.  The
functional assigns every setting string a sawtooth coefficient of the total
outcome sum and takes the negated sum of the resulting correlation values;
hybrid local-nonlocal models keep it at or below 2^(N-1), which is what makes
it a witness for genuine N-party entanglement.
"""

from __future__ import annotations

import itertools
import json
import math
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

PROB_TOLERANCE = 1e-9

# Dense-path guardrail: the state alone is a D x D complex matrix (268 MB at
# D = 4096), a user's state is diagonalized to validate it (the package's own
# states are positive by construction and are not), and the contraction
# spends of order d D^2 multiply-adds on it; past this Hilbert dimension that
# stops being desk-scale, and GHZ users should take ghz_table instead.  Its
# square, 2^24, is the most entries a table or bound search holds and the most
# items a walk builds.
DENSE_DIMENSION_LIMIT = 4096

__all__ = [
    "PROB_TOLERANCE",
    "BellScenario",
    "JointProbabilityTable",
    "TableFormatError",
    "all_setting_strings",
    "bell_value",
    "coefficient",
    "correlation_numerators",
    "correlations",
    "functional_value",
    "outcome_index",
    "outcome_sums_mod_d",
    "point_mass_table",
    "setting_index",
    "shift",
    "t_counts",
]


class TableFormatError(ValueError):
    """Raised when a probability table (or its JSON payload) is malformed."""


@dataclass(frozen=True)
class BellScenario:
    """N parties, two settings per party, d outcomes per measurement.

    Single-party instances are allowed so that states on one block of a
    bipartition can be built and multiplied together; the Bell functional
    itself is only meaningful from two parties up.
    """

    n_parties: int
    dimension: int

    def __post_init__(self):
        # stored as Python ints: numpy ints would overflow d^N
        object.__setattr__(self, "n_parties", _count(self.n_parties, "n_parties", 1))
        object.__setattr__(self, "dimension", _count(self.dimension, "dimension", 2))

    @property
    def n_outcome_tuples(self) -> int:
        return self.dimension**self.n_parties

    def setting_strings(self) -> tuple[str, ...]:
        """All 2^N setting strings over {1,2}, lexicographic."""
        return all_setting_strings(self.n_parties)


@lru_cache(maxsize=32)
def all_setting_strings(n_parties: int) -> tuple[str, ...]:
    """All 2^N setting strings over {1,2}, lexicographic; ValueError past
    DENSE_DIMENSION_LIMIT**2 strings, before any is built."""
    if _exceeds(2, n_parties, limit := DENSE_DIMENSION_LIMIT**2):
        raise ValueError(f"{_power(2, n_parties)} setting strings are over the {limit} allowed")
    return tuple("".join(s) for s in itertools.product("12", repeat=n_parties))


def _is_int(value) -> bool:
    """An integer that is not a bool: bool subclasses int, and True would read as 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class _Brief(reprlib.Repr):
    """The one writer of a refused value, as _brief: reprlib's repr, which shortens a
    string past 30 characters and a container past 6 items with '...'; an integer,
    numpy's too, written plainly up to 18 digits and as 'about 2^k' past them, a float,
    numpy's too, as str(float(x)), and a BellScenario as its dataclass repr with each
    size written as an integer, at any depth."""

    def repr1(self, x, level):
        if _is_int(x):
            return self.repr_int(int(x), level)
        if isinstance(x, (float, np.floating)):
            return str(float(x))
        return super().repr1(x, level)

    def repr_int(self, x, level):  # reprlib's own calls str(), which raises past 4,300 digits
        return str(x) if abs(x) < 10**18 else f"about {'-' * (x < 0)}2^{round(math.log2(abs(x)))}"

    def repr_BellScenario(self, x, level):  # a repr1 hook, by type name
        n, d = (self.repr_int(size, level) for size in (x.n_parties, x.dimension))
        return f"BellScenario(n_parties={n}, dimension={d})"


_brief = _Brief().repr
_brief.__self__.maxstring = 32  # a string of up to 30 characters stays whole, with its quotes


def _count(value, name: str, least: int) -> int:
    """value as an int if it is an integer (not a bool) no smaller than least, else
    ValueError naming name.  The one check of a count and of any integer floor."""
    if not _is_int(value) or value < least:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            least, f"an integer >= {least}")
        raise ValueError(f"{name} must be {kind}, got {_brief(value)}")
    return int(value)


def _numbers(values, name: str, error=ValueError, dtype=float) -> np.ndarray:
    """values as one new C-ordered array of dtype, float or complex, else error naming name.
    The one check of an array a caller hands over: a cast would read truth values and text
    as numbers, and, to float, drop imaginary parts.  An ndarray's dtype is read uncopied;
    an object array's entries are read one by one by the same rule (None stays NaN)."""
    arr, real = np.asarray(values), dtype is not complex
    kind = arr.dtype.kind
    kinds = {np.asarray(x).dtype.kind for x in arr.flat} if kind == "O" else {kind}
    if not kinds.isdisjoint("bSU" + "c" * real):
        raise error(f"{name} must be {'real ' * real}numbers, got dtype {arr.dtype}")
    # what np.asarray made of a list or tuple is already new: copied only to change its dtype
    return np.array(arr, dtype, order="C", copy=None if isinstance(values, (list, tuple)) else True)


def _exceeds(base: int, exponent: int, limit: int) -> bool:
    """base**exponent > limit, for base >= 2 and exponent, limit >= 0, decided from bit
    lengths first: base**exponent is at least 2^(exponent (bits(base) - 1)), and it is
    formed only below 2^bits(limit), so with under twice limit's bits."""
    return exponent * (base.bit_length() - 1) >= limit.bit_length() or base**exponent > limit


def _power(base: int, exponent: int) -> str:
    """base^exponent written unexpanded, each side by _brief."""
    return "^".join(s if s.isdigit() else f"({s})" for s in map(_brief, (base, exponent)))


_BITS = str.maketrans("12", "01")  # a setting character to its bit


def setting_index(setting, n_parties: int) -> int:
    """Row index of a setting given as a '12...' string or a sequence of the ints 1 and 2.

    Bit N-p holds party p's setting (1 as 0, 2 as 1), so the t-count is the index's
    popcount.  Anything else, floats and bools included, raises ValueError.
    """
    text = setting
    if not isinstance(setting, str):
        try:
            text = "".join(str(e) if _is_int(e) and e in (1, 2) else "?" for e in setting)
        except TypeError:  # not iterable
            text = "?"
    if len(text) != n_parties or text.strip("12"):
        raise ValueError(f"invalid setting {_brief(setting)} for {_brief(n_parties)} parties")
    return int(text.translate(_BITS), 2)


def t_counts(n_parties: int) -> np.ndarray:
    """t-count (parties on setting 2) of every setting index 0..2^N-1: its popcount."""
    return np.bitwise_count(np.arange(1 << n_parties))


def shift(t: int) -> int:
    """Argument shift 3*(1 - floor(t/2)) attached to a setting with t twos."""
    return 3 * (1 - _count(t, "t", 0) // 2)


# the rows of two d at the CLI's largest N, 1024: one _numerator_rows call never evicts its
# own rows, and a sweep over d cannot grow the cache without bound
@lru_cache(maxsize=2048)
def _numerator_row(t: int, d: int) -> tuple[int, ...]:
    """(d-1) times the coefficient of a t-count-t setting at each outcome-sum residue r.

    The one definition of the coefficient.  Even t reads the descending
    sawtooth (S - (x mod d))/S, S = (d-1)/2, at x = r + shift(t); odd t reads
    its mirror (S - (-x mod d))/S.  The value depends on the outcomes only
    through their sum modulo d, and d-1 times it is an integer.
    """
    sign = 1 if t % 2 == 0 else -1
    offset = shift(t)  # once per row, not once per residue
    return tuple(d - 1 - 2 * (sign * (r + offset) % d) for r in range(d))


def _numerator_rows(n_parties: int, d: int, dtype) -> np.ndarray:
    """The (N+1) x d matrix of _numerator_row for t = 0..N, as dtype."""
    return np.array([_numerator_row(t, d) for t in range(n_parties + 1)], dtype=dtype)


def _by_setting(mapping: Mapping, n_parties: int, name: str, error=ValueError) -> list:
    """mapping's values in setting-index order if its keys are exactly the 2^N setting
    strings, else error naming the missing and unexpected keys.

    A count under 2^(N-1) is refused by _exceeds before 2^(N-1) is formed, so however
    large N is, no more than twice as many strings as keys are built.
    """
    count, mismatch = len(mapping), f"setting strings mismatch in {name}:"
    if _exceeds(2, n_parties - 1, count):
        raise error(f"{mismatch} {count} given, {_power(2, n_parties)} expected (some missing)")
    expected = all_setting_strings(n_parties)
    try:
        values = [mapping[s] for s in expected]
    except KeyError:
        values = []
    if len(values) != count:  # a key missing, or more keys than settings
        missing = [s for s in expected if s not in mapping]
        expected_set = set(expected)
        extra = [k for k in mapping if k not in expected_set]
        raise error(f"{mismatch} {len(missing)} missing {_brief(missing)}, "
                    f"{len(extra)} unexpected {_brief(extra)}")
    return values


def _outcome(outcome, scenario: BellScenario) -> tuple[int, ...]:
    """An outcome's N entries, each an int (not a bool or float) in 0..d-1, else ValueError."""
    n, d = scenario.n_parties, scenario.dimension
    try:
        entries = tuple(outcome)
    except TypeError:  # not iterable
        entries = ()
    if len(entries) != n or not all(_is_int(x) and 0 <= x < d for x in entries):
        raise ValueError(f"invalid outcome {_brief(outcome)} for {n} parties and d={_brief(d)}")
    return entries


def coefficient(setting, outcome: Sequence[int], scenario: BellScenario) -> float:
    """Coefficient the Bell functional assigns to one (setting, outcome) cell."""
    t = setting_index(setting, scenario.n_parties).bit_count()
    d = scenario.dimension
    return _numerator_row(t, d)[sum(_outcome(outcome, scenario)) % d] / (d - 1)


def outcome_index(outcome: Sequence[int], dimension: int) -> int:
    """Mixed-radix index of an outcome tuple, party 1 in the fastest digit."""
    idx = 0
    for x in reversed(outcome):
        idx = idx * dimension + int(x)
    return idx


@lru_cache(maxsize=32)
def outcome_sums_mod_d(n_parties: int, dimension: int) -> np.ndarray:
    """Outcome-sum residue for every mixed-radix outcome index."""
    idx = np.arange(dimension**n_parties)
    sums = np.zeros_like(idx)
    for _ in range(n_parties):
        sums += idx % dimension
        idx = idx // dimension
    sums %= dimension
    sums.flags.writeable = False
    return sums


def _refuse(arr: np.ndarray, n_parties: int) -> None:
    """The row-by-row checks, for a (2^N, d^N) float array that the constructor's two
    reductions did not accept: TableFormatError naming the first offending row.

    In their order: finite entries, no entry below -1e-9, and (after clipping the
    dust in place) rows that sum to 1 within 1e-9.  They refuse exactly the tables
    the reductions do not accept, and they alone word the refusal.
    """

    def first(bad_rows):  # the first offending row, and its setting string
        i = int(bad_rows.argmax())
        return i, all_setting_strings(n_parties)[i]

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
            f"setting {s}: probabilities sum to {_brief(float(totals[i]))}, expected 1"
        )


class JointProbabilityTable:
    """Outcome distributions for all 2^N setting strings, as one (2^N, d^N) array.

    Row i of `rows` belongs to the setting string that reads i in binary, with
    setting 1 as 0 and party 1 most significant; each row is in the mixed-radix
    outcome encoding (party 1 fastest).  Setting-string keys exist only in the
    JSON format.  Construction copies the caller's rows once (a table the package
    has just built is checked in place, not copied), normalizes away negative
    dust down to -1e-9 and rejects anything worse; the array is read-only.
    """

    def __init__(self, scenario: BellScenario, rows):
        self._store(scenario, _numbers(rows, "probabilities", TableFormatError))

    @classmethod
    def _of_fresh(cls, scenario: BellScenario, rows: np.ndarray) -> "JointProbabilityTable":
        """Table on a float array the package has just built and hands over: every
        check, made in place, and no copy."""
        table = cls.__new__(cls)
        table._store(scenario, rows)
        return table

    def _store(self, scenario: BellScenario, arr: np.ndarray) -> None:
        n, d = scenario.n_parties, scenario.dimension
        # (2d)^N > arr.size refuses a huge N before 2^N or d^N is formed
        if _exceeds(2 * d, n, arr.size) or arr.shape != (1 << n, d**n):
            expected = f"({_power(2, n)}, {_power(d, n)})"
            raise TableFormatError(f"expected probabilities of shape {expected}, got {arr.shape}")
        # Accepting takes two reductions.  A NaN entry makes the minimum NaN, which
        # fails its test; with nothing negative left, a finite row sum means finite
        # entries.  A table that fails either test goes to _refuse's checks.
        floor = arr.min()
        deviation = np.inf
        if floor >= -PROB_TOLERANCE:
            if not floor > 0.0:  # clip also turns -0.0 into 0.0
                np.clip(arr, 0.0, None, out=arr)
            deviation = np.abs(arr.sum(axis=1) - 1.0).max()
        if not deviation <= PROB_TOLERANCE:
            _refuse(arr, scenario.n_parties)
        arr.flags.writeable = False
        self.scenario = scenario
        self.rows = arr

    def probs_for(self, setting) -> np.ndarray:
        """Probability vector for one setting string (read-only view)."""
        return self.rows[setting_index(setting, self.scenario.n_parties)]

    def to_json_dict(self) -> dict:
        return {
            "n": self.scenario.n_parties,
            "d": self.scenario.dimension,
            "tables": dict(zip(self.scenario.setting_strings(), self.rows.tolist())),
        }

    def json_chunks(self):
        """json.dumps(self.to_json_dict()) and a newline, one row at a time."""
        yield f'{{"n": {self.scenario.n_parties}, "d": {self.scenario.dimension}, "tables": {{'
        for i, (s, row) in enumerate(zip(self.scenario.setting_strings(), self.rows)):
            yield f'{", " if i else ""}"{s}": {json.dumps(row.tolist())}'
        yield "}}\n"

    @classmethod
    def from_json_dict(cls, payload) -> "JointProbabilityTable":
        if not isinstance(payload, dict):
            raise TableFormatError("table payload must be a JSON object")
        for key in ("n", "d", "tables"):
            if key not in payload:
                raise TableFormatError(f"table payload missing field {_brief(key)}")
        try:
            scenario = BellScenario(payload["n"], payload["d"])
        except ValueError as exc:
            raise TableFormatError(str(exc)) from exc
        n = scenario.n_parties
        tables = payload["tables"]
        if not isinstance(tables, dict):
            raise TableFormatError("field 'tables' must be an object")
        by_setting = _by_setting(tables, n, "'tables'", TableFormatError)
        size = scenario.n_outcome_tuples
        rows = []
        for s, values in zip(all_setting_strings(n), by_setting):
            # numpy would read "0.5", true and null as floats
            if isinstance(values, list) and {str, bool, type(None)} & set(map(type, values)):
                raise TableFormatError(f"setting {s}: probabilities must be numbers")
            try:
                row = np.array(values, dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise TableFormatError(f"setting {s}: probabilities must be numbers") from exc
            # checked row by row, so a huge declared d^n allocates nothing
            if row.shape != (size,):
                raise TableFormatError(
                    f"setting {s}: expected {_power(scenario.dimension, n)} probabilities, "
                    f"got shape {row.shape}"
                )
            rows.append(row)
        return cls._of_fresh(scenario, np.array(rows))


def point_mass_table(
    scenario: BellScenario, outcome_by_setting: Mapping[str, Sequence[int]]
) -> JointProbabilityTable:
    """Deterministic table putting probability 1 on one outcome per setting."""
    outcomes = _by_setting(outcome_by_setting, scenario.n_parties, "outcome_by_setting")
    rows = np.zeros((1 << scenario.n_parties, scenario.n_outcome_tuples))
    for i, outcome in enumerate(outcomes):
        rows[i, outcome_index(_outcome(outcome, scenario), scenario.dimension)] = 1.0
    return JointProbabilityTable._of_fresh(scenario, rows)


@lru_cache(maxsize=32)
def _numerator_operand(n_parties: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """correlation_numerators' read-only operands for one (N, d), built once.

    The d^N x (N+1) numerator rows over the outcome indices, then the row and
    t-count indices that pick each setting's own t-count from the product.
    Each is no larger than a table, so the 32 cached sizes hold at most 32
    tables' worth.
    """
    nums = _numerator_rows(n_parties, d, float)[:, outcome_sums_mod_d(n_parties, d)].T
    operands = (nums, np.arange(1 << n_parties), t_counts(n_parties))
    for array in operands:
        array.flags.writeable = False
    return operands


def correlation_numerators(table: JointProbabilityTable) -> np.ndarray:
    """d - 1 times every setting's correlation value, in setting order.

    One product meets every row with the N+1 integer numerator rows over the outcome
    indices, and each row keeps its t-count's.  That operand, (N+1) d^N floats, and
    the indices are built once per (N, d) by _numerator_operand.
    """
    nums, rows, ts = _numerator_operand(table.scenario.n_parties, table.scenario.dimension)
    return (table.rows @ nums)[rows, ts]


def functional_value(numerators: np.ndarray, dimension: int) -> float:
    """The Bell functional from correlation_numerators, summed before one division by d - 1,
    so a hybrid model's point-mass table on the bound 2^(N-1) reads exactly 2^(N-1)."""
    return -sum(numerators.tolist()) / (dimension - 1)


def correlations(table: JointProbabilityTable) -> np.ndarray:
    """Every setting's correlation value, its coefficient-weighted outcome average."""
    return correlation_numerators(table) / (table.scenario.dimension - 1)


def bell_value(table: JointProbabilityTable) -> float:
    """The N-qudit Bell functional: negated sum of all correlation values."""
    return functional_value(correlation_numerators(table), table.scenario.dimension)
