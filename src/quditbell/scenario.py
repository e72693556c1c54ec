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
from fractions import Fraction
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
    "cglmp_value",
    "coefficient",
    "coefficient_by_residue",
    "coefficient_exact",
    "coefficient_vector",
    "correlation_q",
    "g1",
    "g1_exact",
    "g2",
    "g2_exact",
    "mod_d",
    "outcome_from_index",
    "outcome_index",
    "outcome_sums_mod_d",
    "point_mass_table",
    "relabel_for_cglmp",
    "shift",
    "t_count",
    "uniform_table",
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
    def spin(self) -> Fraction:
        """Spin value (d-1)/2, exact so that even d stays half-integral."""
        return Fraction(self.dimension - 1, 2)

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


def mod_d(x: int, d: int) -> int:
    """Least non-negative representative of x modulo d."""
    if d < 2:
        raise ValueError(f"modulus must be >= 2, got {d}")
    return x % d


def shift(t: int) -> int:
    """Argument shift 3*(1 - floor(t/2)) attached to a setting with t twos."""
    if t < 0:
        raise ValueError(f"negative setting-two count: {t}")
    return 3 * (1 - t // 2)


def g1_exact(arg: int, dimension: int) -> Fraction:
    """Descending sawtooth (S - (arg mod d))/S as an exact rational."""
    return Fraction(dimension - 1 - 2 * mod_d(arg, dimension), dimension - 1)


def g2_exact(arg: int, dimension: int) -> Fraction:
    """Mirror sawtooth (S - (-arg mod d))/S as an exact rational."""
    return Fraction(dimension - 1 - 2 * mod_d(-arg, dimension), dimension - 1)


def g1(arg: int, scenario: BellScenario) -> float:
    return float(g1_exact(arg, scenario.dimension))


def g2(arg: int, scenario: BellScenario) -> float:
    return float(g2_exact(arg, scenario.dimension))


def coefficient_exact(t: int, outcome_sum: int, dimension: int) -> Fraction:
    """Correlation coefficient for a setting with t twos and a total outcome sum.

    Even t uses the descending sawtooth, odd t its mirror; both act on the
    shifted sum, so the value depends on the outcomes only through their sum
    modulo d.
    """
    arg = outcome_sum + shift(t)
    if t % 2 == 0:
        return g1_exact(arg, dimension)
    return g2_exact(arg, dimension)


def coefficient(setting, outcome: Sequence[int], scenario: BellScenario) -> float:
    """Coefficient the Bell functional assigns to one (setting, outcome) cell."""
    s = as_setting_string(setting, scenario.n_parties)
    outcome = tuple(int(x) for x in outcome)
    if len(outcome) != scenario.n_parties:
        raise ValueError(
            f"outcome length {len(outcome)} does not match {scenario.n_parties} parties"
        )
    if any(not 0 <= x < scenario.dimension for x in outcome):
        raise ValueError(f"outcome entries must lie in [0, {scenario.dimension - 1}]")
    return float(coefficient_exact(t_count(s), sum(outcome), scenario.dimension))


@lru_cache(maxsize=None)
def coefficient_by_residue(t: int, dimension: int) -> np.ndarray:
    """Coefficient value for each outcome-sum residue class, as floats."""
    vals = np.array(
        [float(coefficient_exact(t, r, dimension)) for r in range(dimension)]
    )
    vals.flags.writeable = False
    return vals


def outcome_index(outcome: Sequence[int], dimension: int) -> int:
    """Mixed-radix index of an outcome tuple, party 1 in the fastest digit."""
    idx = 0
    for x in reversed(outcome):
        idx = idx * dimension + int(x)
    return idx


def outcome_from_index(index: int, scenario: BellScenario) -> tuple[int, ...]:
    """Inverse of outcome_index for the given scenario."""
    d = scenario.dimension
    out = []
    for _ in range(scenario.n_parties):
        index, r = divmod(index, d)
        out.append(r)
    return tuple(out)


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

    def prob(self, setting, outcome: Sequence[int]) -> float:
        return float(
            self.probs_for(setting)[outcome_index(outcome, self.scenario.dimension)]
        )

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


def uniform_table(scenario: BellScenario) -> JointProbabilityTable:
    """The maximally mixed distribution: every outcome equally likely."""
    p = np.full(scenario.n_outcome_tuples, 1.0 / scenario.n_outcome_tuples)
    return JointProbabilityTable(
        scenario, {s: p for s in scenario.setting_strings()}
    )


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


def cglmp_value(table: JointProbabilityTable) -> float:
    """Two-party CGLMP functional Q11 + Q12 + Q21 - Q22 with unshifted sawtooths.

    Setting 11 carries the mirror sawtooth, the other three the descending
    one; no argument shifts.  Related to bell_value by relabel_for_cglmp.
    """
    scenario = table.scenario
    if scenario.n_parties != 2:
        raise ValueError(f"CGLMP form needs exactly 2 parties, got {scenario.n_parties}")
    d = scenario.dimension
    sums = outcome_sums_mod_d(2, d)

    def q(setting, gfunc):
        by_res = np.array([float(gfunc(r, d)) for r in range(d)])
        return float(by_res[sums] @ table.probs_for(setting))

    return q("11", g2_exact) + q("12", g1_exact) + q("21", g1_exact) - q("22", g1_exact)


def relabel_for_cglmp(table: JointProbabilityTable) -> JointProbabilityTable:
    """Shift both parties' setting-1 outcomes by +2 (mod d).

    The relabeled table's cglmp_value equals the original table's bell_value,
    which is how the two coefficient conventions are identified.
    """
    scenario = table.scenario
    if scenario.n_parties != 2:
        raise ValueError("relabeling is defined for the two-party scenario")
    d = scenario.dimension
    probs = {}
    for s in scenario.setting_strings():
        old = table.probs_for(s)
        new = np.zeros_like(old)
        shift1 = 2 if s[0] == "1" else 0
        shift2 = 2 if s[1] == "1" else 0
        for x1 in range(d):
            for x2 in range(d):
                new[(x1 + shift1) % d + d * ((x2 + shift2) % d)] = old[x1 + d * x2]
        probs[s] = new
    return JointProbabilityTable(scenario, probs)
