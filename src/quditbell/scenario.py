"""Bell scenario combinatorics and evaluation of the N-qudit Bell functional.

N parties each choose one of two measurement settings with d outcomes.  The
functional assigns every setting string a sawtooth coefficient of the total
outcome sum and takes the negated sum of the resulting correlation values;
hybrid local-nonlocal models keep it at or below 2^(N-1), which is what makes
it a witness for genuine N-party entanglement.
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

PROB_TOLERANCE = 1e-9

__all__ = [
    "PROB_TOLERANCE",
    "BellScenario",
    "JointProbabilityTable",
    "TableFormatError",
    "all_setting_strings",
    "as_setting_string",
    "bell_value",
    "coefficient",
    "coefficient_by_residue",
    "coefficient_vector",
    "correlation_q",
    "outcome_index",
    "outcome_sums_mod_d",
    "point_mass_table",
    "shift",
    "t_count",
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
        if self.n_parties < 1:
            raise ValueError(f"need at least 1 party, got {self.n_parties}")
        if self.dimension < 2:
            raise ValueError(f"need outcome dimension >= 2, got {self.dimension}")

    @property
    def n_outcome_tuples(self) -> int:
        return self.dimension**self.n_parties

    def setting_strings(self) -> tuple[str, ...]:
        """All 2^N setting strings over {1,2}, lexicographic."""
        return all_setting_strings(self.n_parties)


@lru_cache(maxsize=None)
def all_setting_strings(n_parties: int) -> tuple[str, ...]:
    return tuple("".join(s) for s in itertools.product("12", repeat=n_parties))


def as_setting_string(setting, n_parties: int) -> str:
    """Normalize a setting given as a string or int sequence to a '12...' string."""
    if isinstance(setting, str):
        s = setting
    else:
        s = "".join(str(int(i)) for i in setting)
    if len(s) != n_parties or any(c not in "12" for c in s):
        raise ValueError(f"invalid setting string {setting!r} for {n_parties} parties")
    return s


def t_count(setting) -> int:
    """Number of parties choosing their second setting."""
    return sum(1 for c in str(setting) if c == "2")


def shift(t: int) -> int:
    """Argument shift 3*(1 - floor(t/2)) attached to a setting with t twos."""
    if t < 0:
        raise ValueError(f"negative setting-two count: {t}")
    return 3 * (1 - t // 2)


@lru_cache(maxsize=None)
def _numerator_row(t: int, d: int) -> tuple[int, ...]:
    """(d-1) times the coefficient of a t-count-t setting at each outcome-sum residue r.

    The one definition of the coefficient.  Even t reads the descending
    sawtooth (S - (x mod d))/S, S = (d-1)/2, at x = r + shift(t); odd t reads
    its mirror (S - (-x mod d))/S.  The value depends on the outcomes only
    through their sum modulo d, and d-1 times it is an integer.
    """
    sign = 1 if t % 2 == 0 else -1
    return tuple(d - 1 - 2 * (sign * (r + shift(t)) % d) for r in range(d))


def coefficient(setting, outcome: Sequence[int], scenario: BellScenario) -> float:
    """Coefficient the Bell functional assigns to one (setting, outcome) cell."""
    s = as_setting_string(setting, scenario.n_parties)
    outcome = tuple(int(x) for x in outcome)
    if len(outcome) != scenario.n_parties:
        raise ValueError(
            f"outcome length {len(outcome)} does not match {scenario.n_parties} parties"
        )
    d = scenario.dimension
    if any(not 0 <= x < d for x in outcome):
        raise ValueError(f"outcome entries must lie in [0, {d - 1}]")
    return _numerator_row(t_count(s), d)[sum(outcome) % d] / (d - 1)


@lru_cache(maxsize=None)
def coefficient_by_residue(t: int, dimension: int) -> np.ndarray:
    """Coefficient value for each outcome-sum residue class, as floats."""
    vals = np.array(_numerator_row(t, dimension)) / (dimension - 1)
    vals.flags.writeable = False
    return vals


def outcome_index(outcome: Sequence[int], dimension: int) -> int:
    """Mixed-radix index of an outcome tuple, party 1 in the fastest digit."""
    idx = 0
    for x in reversed(outcome):
        idx = idx * dimension + int(x)
    return idx


@lru_cache(maxsize=None)
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


class JointProbabilityTable:
    """Outcome distributions for all 2^N setting strings.

    Per-setting probabilities are dense vectors in the mixed-radix outcome
    encoding (party 1 varies fastest).  Construction normalizes away negative
    floating dust down to -1e-9 and rejects anything worse; the stored arrays
    are read-only, so a table can be shared freely.
    """

    def __init__(self, scenario: BellScenario, probs: Mapping[str, Iterable[float]]):
        n, count = scenario.n_parties, len(probs)
        # compare with 2^n by bit length first: a huge n must not build 2^n strings
        if count.bit_length() != n + 1 or count != 1 << n:
            problem = "some missing" if count.bit_length() <= n else "some unexpected"
            raise TableFormatError(
                f"setting strings mismatch: {count} given, 2^{n} expected ({problem})"
            )
        expected = all_setting_strings(n)
        missing = [s for s in expected if s not in probs]
        if missing:
            expected_set = set(expected)
            extra = [s for s in probs if s not in expected_set]
            raise TableFormatError(
                f"setting strings mismatch: {len(missing)} missing {reprlib.repr(missing)}, "
                f"{len(extra)} unexpected {reprlib.repr(extra)}"
            )
        size = scenario.n_outcome_tuples
        cleaned = {}
        for s in expected:
            try:
                arr = np.array(probs[s], dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise TableFormatError(f"setting {s}: probabilities must be numbers") from exc
            if arr.shape != (size,):
                raise TableFormatError(
                    f"setting {s}: expected {size} probabilities, got shape {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise TableFormatError(f"setting {s}: non-finite probability")
            lowest = float(arr.min())
            if lowest < -PROB_TOLERANCE:
                raise TableFormatError(
                    f"setting {s}: negative probability {lowest:.3e}"
                )
            arr = np.clip(arr, 0.0, None)
            total = float(arr.sum())
            if abs(total - 1.0) > PROB_TOLERANCE:
                raise TableFormatError(
                    f"setting {s}: probabilities sum to {total!r}, expected 1"
                )
            arr.flags.writeable = False
            cleaned[s] = arr
        self.scenario = scenario
        self._probs = cleaned

    def probs_for(self, setting) -> np.ndarray:
        """Probability vector for one setting string (read-only view)."""
        return self._probs[as_setting_string(setting, self.scenario.n_parties)]

    def to_json_dict(self) -> dict:
        return {
            "n": self.scenario.n_parties,
            "d": self.scenario.dimension,
            "tables": {s: p.tolist() for s, p in self._probs.items()},
        }

    @classmethod
    def from_json_dict(cls, payload) -> "JointProbabilityTable":
        if not isinstance(payload, dict):
            raise TableFormatError("table payload must be a JSON object")
        for key in ("n", "d", "tables"):
            if key not in payload:
                raise TableFormatError(f"table payload missing field {key!r}")
        n, d = payload["n"], payload["d"]
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, d)):
            raise TableFormatError("fields 'n' and 'd' must be integers")
        try:
            scenario = BellScenario(n, d)
        except ValueError as exc:
            raise TableFormatError(str(exc)) from exc
        tables = payload["tables"]
        if not isinstance(tables, dict):
            raise TableFormatError("field 'tables' must be an object")
        return cls(scenario, tables)


def point_mass_table(
    scenario: BellScenario, outcome_by_setting: Mapping[str, Sequence[int]]
) -> JointProbabilityTable:
    """Deterministic table putting probability 1 on one outcome per setting."""
    probs = {}
    for s in scenario.setting_strings():
        row = np.zeros(scenario.n_outcome_tuples)
        row[outcome_index(outcome_by_setting[s], scenario.dimension)] = 1.0
        probs[s] = row
    return JointProbabilityTable(scenario, probs)


def coefficient_vector(setting, scenario: BellScenario) -> np.ndarray:
    """Coefficient for every outcome index under one setting string."""
    t = t_count(as_setting_string(setting, scenario.n_parties))
    by_residue = coefficient_by_residue(t, scenario.dimension)
    return by_residue[outcome_sums_mod_d(scenario.n_parties, scenario.dimension)]


def correlation_q(setting, table: JointProbabilityTable) -> float:
    """Generalized correlation value: coefficient-weighted outcome average."""
    return float(coefficient_vector(setting, table.scenario) @ table.probs_for(setting))


def bell_value(table: JointProbabilityTable) -> float:
    """The N-qudit Bell functional: negated sum of all correlation values."""
    return -sum(
        correlation_q(s, table) for s in table.scenario.setting_strings()
    )
