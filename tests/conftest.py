"""Shared random generators (all explicitly seeded) and the oracles that
several test files compare the package against."""

import math
from fractions import Fraction

import numpy as np
import pytest

from quditbell.bounds import Bipartition, DeterministicStrategy, _substring
from quditbell.quantum import DensityMatrix, PhaseConfiguration
from quditbell.scenario import (
    BellScenario,
    JointProbabilityTable,
    all_setting_strings,
    outcome_index,
    outcome_sums_mod_d,
    shift,
)


def random_table(scenario: BellScenario, rng) -> JointProbabilityTable:
    probs = {}
    for s in all_setting_strings(scenario.n_parties):
        row = rng.random(scenario.n_outcome_tuples)
        probs[s] = row / row.sum()
    return JointProbabilityTable(scenario, probs)


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


def t_coefficient(n_parties: int, k: int) -> int:
    """Oracle: multiplicity of the base-t-count-k quadruple, an alternating binomial sum."""
    return sum(
        (-1) ** (k - i) * (k + 1 - i) * math.comb(n_parties, i) for i in range(k + 1)
    )


def strategy_delta_table(
    strategy: DeterministicStrategy, scenario: BellScenario
) -> JointProbabilityTable:
    """Oracle: the point-mass table realizing the strategy's block sums.

    The first party of each block carries the block's sum and the rest stay
    at 0; any other split of the sums gives the same Bell value.
    """
    strategy.validate_for(scenario)
    part = strategy.partition
    size = scenario.n_outcome_tuples
    probs = {}
    for s in all_setting_strings(scenario.n_parties):
        outcome = [0] * scenario.n_parties
        outcome[part.block_a[0] - 1] = strategy.xi[_substring(s, part.block_a)]
        outcome[part.block_b[0] - 1] = strategy.zeta[_substring(s, part.block_b)]
        row = np.zeros(size)
        row[outcome_index(outcome, scenario.dimension)] = 1.0
        probs[s] = row
    return JointProbabilityTable(scenario, probs)
