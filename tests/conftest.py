"""Shared random generators (all explicitly seeded) and the oracles that
several test files compare the package against."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quditbell.bounds import Bipartition, DeterministicStrategy
from quditbell.cli import run
from quditbell.quantum import DensityMatrix, PhaseConfiguration
from quditbell.scenario import (
    BellScenario,
    JointProbabilityTable,
    _brief,
    _is_int,
    all_setting_strings,
    outcome_index,
    outcome_sums_mod_d,
    shift,
)


def invoke(capsys, *argv):
    """Run the CLI in-process: its exit code, stdout and stderr."""
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_table(scenario: BellScenario, rng) -> JointProbabilityTable:
    rows = rng.random((2**scenario.n_parties, scenario.n_outcome_tuples))
    return JointProbabilityTable(scenario, rows / rows.sum(axis=1, keepdims=True))


def random_density(scenario: BellScenario, rng) -> DensityMatrix:
    dim = scenario.n_outcome_tuples
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = x @ x.conj().T
    return DensityMatrix(scenario, mat / np.trace(mat))


def random_config(scenario: BellScenario, rng) -> PhaseConfiguration:
    return PhaseConfiguration(
        scenario, rng.uniform(0.0, 2.0 * np.pi, (scenario.n_parties, 2, scenario.dimension))
    )


def random_strategy(
    scenario: BellScenario, partition: Bipartition, rng
) -> DeterministicStrategy:
    d = scenario.dimension
    xi = {c: int(rng.integers(d)) for c in all_setting_strings(len(partition.block_a))}
    zeta = {c: int(rng.integers(d)) for c in all_setting_strings(len(partition.block_b))}
    return DeterministicStrategy(partition, xi, zeta)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def g1_exact(arg: int, dimension: int) -> Fraction:
    """Oracle: descending sawtooth (S - (arg mod d))/S, S = (d-1)/2, exact."""
    return Fraction(dimension - 1 - 2 * (arg % dimension), dimension - 1)


def g2_exact(arg: int, dimension: int) -> Fraction:
    """Oracle: mirror sawtooth (S - (-arg mod d))/S, exact."""
    return Fraction(dimension - 1 - 2 * (-arg % dimension), dimension - 1)


def coefficient_exact(t: int, outcome_sum: int, dimension: int) -> Fraction:
    """Oracle: the coefficient of a setting with t twos at a total outcome sum.

    Even t uses the descending sawtooth, odd t its mirror; both act on the
    shifted sum, so the value depends on the outcomes only through their sum
    modulo d.
    """
    arg = outcome_sum + shift(t)
    if t % 2 == 0:
        return g1_exact(arg, dimension)
    return g2_exact(arg, dimension)


def t_count(setting: str) -> int:
    """Oracle: the number of parties on setting 2, counted in the string."""
    return setting.count("2")


def residue_coefficients(t: int, dimension: int) -> np.ndarray:
    """Oracle: a t-count's coefficient at each outcome-sum residue, as rounded floats."""
    return np.array([float(coefficient_exact(t, r, dimension)) for r in range(dimension)])


def outcome_from_index(index: int, scenario: BellScenario) -> tuple[int, ...]:
    """Inverse of outcome_index for the given scenario."""
    d = scenario.dimension
    out = []
    for _ in range(scenario.n_parties):
        index, r = divmod(index, d)
        out.append(r)
    return tuple(out)


def cglmp_value(table: JointProbabilityTable) -> float:
    """Two-party CGLMP functional Q11 + Q12 + Q21 - Q22 with unshifted sawtooths.

    The form of Collins et al., PRL 88, 040404 (2002): setting 11 carries the
    mirror sawtooth, the other three the descending one, with no argument
    shifts.  Related to bell_value by relabel_for_cglmp.
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
    rows = np.zeros_like(table.rows)
    for i, s in enumerate(scenario.setting_strings()):
        old = table.probs_for(s)
        shift1 = 2 if s[0] == "1" else 0
        shift2 = 2 if s[1] == "1" else 0
        for x1 in range(d):
            for x2 in range(d):
                rows[i, (x1 + shift1) % d + d * ((x2 + shift2) % d)] = old[x1 + d * x2]
    return JointProbabilityTable(scenario, rows)


def t_coefficient(n_parties: int, k: int) -> int:
    """Oracle: multiplicity of the base-t-count-k quadruple, an alternating binomial sum."""
    return sum(
        (-1) ** (k - i) * (k + 1 - i) * math.comb(n_parties, i) for i in range(k + 1)
    )


def setting_index_reference(setting, n_parties: int) -> int:
    """Oracle: scenario.setting_index as first written, by a set test and two replaces.

    The string or the joined sequence must be n_parties characters, each '1' or '2';
    anything else raises the reader's own ValueError.
    """
    text = setting
    if not isinstance(setting, str):
        try:
            text = "".join(str(e) if _is_int(e) and e in (1, 2) else "?" for e in setting)
        except TypeError:  # not iterable
            text = "?"
    if len(text) != n_parties or not set(text) <= {"1", "2"}:
        raise ValueError(f"invalid setting {_brief(setting)} for {_brief(n_parties)} parties")
    return int(text.replace("1", "0").replace("2", "1"), 2)


def substring(setting: str, parties: tuple[int, ...]) -> str:
    """The block combination a setting string gives the listed (1-indexed) parties."""
    return "".join(setting[p - 1] for p in parties)


def strategy_delta_table(
    strategy: DeterministicStrategy, scenario: BellScenario
) -> JointProbabilityTable:
    """Oracle: the point-mass table realizing the strategy's block sums.

    The first party of each block carries the block's sum and the rest stay
    at 0; any other split of the sums gives the same Bell value.
    """
    strategy.validate_for(scenario)
    part = strategy.partition
    rows = np.zeros((2**scenario.n_parties, scenario.n_outcome_tuples))
    for i, s in enumerate(all_setting_strings(scenario.n_parties)):
        outcome = [0] * scenario.n_parties
        outcome[part.block_a[0] - 1] = strategy.xi[substring(s, part.block_a)]
        outcome[part.block_b[0] - 1] = strategy.zeta[substring(s, part.block_b)]
        rows[i, outcome_index(outcome, scenario.dimension)] = 1.0
    return JointProbabilityTable(scenario, rows)
