"""Acceptance suite: one test per exit criterion, one printed line per result.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Tolerances are pinned here and nowhere else.
"""

import itertools
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from quditbell.bounds import (
    Bipartition,
    build_grouping,
    group_deterministic_max,
    hlnhv_bound,
    strategy_bell_value,
)
from quditbell.optimize import (
    cglmp_max_closed_form,
    critical_visibility,
    max_violation,
    optimal_angles,
    optimize_with_restarts,
)
from quditbell.quantum import (
    PhaseConfiguration,
    ghz_bell_value,
    ghz_state,
    ghz_table,
    joint_probabilities,
    mix_with_noise,
    product_state,
)
from quditbell.scenario import BellScenario, all_setting_strings, bell_value
from conftest import (
    cglmp_value,
    g1_exact,
    g2_exact,
    random_config,
    random_density,
    random_strategy,
    random_table,
    relabel_for_cglmp,
    strategy_delta_table,
    t_coefficient,
)


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({summary}): FAIL")
        raise
    print(f"criterion {number} ({summary}): PASS")


def test_criterion_1_cglmp_maxima():
    with criterion(1, "two-qudit closed-form maxima"):
        assert abs(cglmp_max_closed_form(2) - 2 * math.sqrt(2)) <= 1e-9
        assert abs(cglmp_max_closed_form(3) - (12 + 8 * math.sqrt(3)) / 9) <= 1e-9


def test_criterion_2_simulation_matches_closed_form():
    with criterion(2, "dense simulation equals 2^(N-2) scaling"):
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3)):
            scen = BellScenario(n, d)
            table = joint_probabilities(ghz_state(scen), optimal_angles(scen))
            target = 2 ** (n - 2) * cglmp_max_closed_form(d)
            assert abs(bell_value(table) - target) <= 1e-6, (n, d)


def test_criterion_3_hlnhv_bound_certification():
    with criterion(3, "exhaustive HLNHV bound is exactly 2^(N-1)"):
        cases = []
        for d in (2, 3, 4, 5):
            cases.append((3, d, (1,)))
            cases.append((3, d, (1, 2)))
        for d in (2, 3):
            cases.append((4, d, (1,)))
            cases.append((4, d, (1, 2)))
        for n, d, block_a in cases:
            scen = BellScenario(n, d)
            bound, witness = hlnhv_bound(scen, Bipartition.from_block(n, block_a))
            assert bound == Fraction(2 ** (n - 1)), (n, d, block_a)
            assert strategy_bell_value(witness, scen) == bound, (n, d, block_a)


def test_criterion_4_grouping_verification():
    with criterion(4, "CGLMP grouping: counts and per-quadruple max 2"):
        for n in (3, 4, 5):
            part = Bipartition.from_block(n, tuple(range(1, n // 2 + 1)))
            for d in (2, 3):
                scen = BellScenario(n, d)
                grouping = build_grouping(scen, part)
                assert sum(grouping.multiplicities) == 2 ** (n - 2)
                assert grouping.multiplicities == tuple(
                    t_coefficient(n, k) for k in range(n - 1)
                )
                flat = sorted(s for g in grouping.groups for s in g)
                assert flat == sorted(all_setting_strings(n))
                for group in grouping.groups:
                    assert group_deterministic_max(group, scen, part) == 2, (n, d, group)


def test_criterion_5_critical_visibility():
    with criterion(5, "critical visibilities and noise crossover"):
        for n in (2, 3, 4):
            assert abs(critical_visibility(BellScenario(n, 2)).critical_visibility - 0.707) <= 1e-3
            assert abs(critical_visibility(BellScenario(n, 3)).critical_visibility - 0.696) <= 1e-3
        for d in range(3, 9):
            assert critical_visibility(BellScenario(3, d)).critical_visibility < 1 / math.sqrt(2)
        for n, d in itertools.product((2, 3, 4), (2, 3)):
            scen = BellScenario(n, d)
            v_cr = critical_visibility(scen).critical_visibility
            noisy = mix_with_noise(ghz_state(scen), v_cr)
            value = bell_value(joint_probabilities(noisy, optimal_angles(scen)))
            assert abs(value - 2 ** (n - 1)) <= 1e-6, (n, d)


def test_criterion_6_product_states_never_violate():
    with criterion(6, "200 random product states stay at or below 2^(N-1)"):
        rng = np.random.default_rng(606)
        trials = 0
        for n in (3, 4):
            for d in (2, 3):
                for m in range(1, n):
                    scen = BellScenario(n, d)
                    for _ in range(20):
                        rho = product_state(
                            random_density(BellScenario(m, d), rng),
                            random_density(BellScenario(n - m, d), rng),
                        )
                        table = joint_probabilities(rho, random_config(scen, rng))
                        assert bell_value(table) <= 2 ** (n - 1) + 1e-9, (n, d, m)
                        trials += 1
        assert trials == 200


def test_criterion_7a_strategy_oracle():
    with criterion(7, "a: strategy value equals delta-table evaluation"):
        rng = np.random.default_rng(707)
        checked = 0
        for n, d in ((3, 2), (3, 3), (4, 2), (2, 5), (4, 3)):
            scen = BellScenario(n, d)
            parts = [Bipartition.from_block(n, (1,))]
            if n > 2:
                parts.append(Bipartition.from_block(n, (1, 2)))
            for part in parts:
                for _ in range(25):
                    strategy = random_strategy(scen, part, rng)
                    direct = float(strategy_bell_value(strategy, scen))
                    table_val = bell_value(strategy_delta_table(strategy, scen))
                    assert abs(direct - table_val) <= 1e-12
                    checked += 1
        assert checked >= 200


def test_criterion_7b_closed_form_oracle():
    with criterion(7, "b: GHZ closed form equals dense probabilities"):
        rng = np.random.default_rng(717)
        configs = 0
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4)):
            scen = BellScenario(n, d)
            for _ in range(10):
                config = random_config(scen, rng)
                dense = joint_probabilities(ghz_state(scen), config)
                closed = ghz_table(config)
                for s in all_setting_strings(n):
                    assert float(np.max(np.abs(closed.probs_for(s) - dense.probs_for(s)))) <= 1e-10
                configs += 1
        assert configs == 50


def test_criterion_7c_relabeling_oracle():
    with criterion(7, "c: relabeled CGLMP value equals Bell value"):
        rng = np.random.default_rng(727)
        tables = 0
        for d in (2, 3, 4, 5):
            scen = BellScenario(2, d)
            for _ in range(25):
                table = random_table(scen, rng)
                assert abs(cglmp_value(relabel_for_cglmp(table)) - bell_value(table)) <= 1e-12
                tables += 1
        assert tables == 100


def test_criterion_7d_sawtooth_reflection():
    with criterion(7, "d: g1(x) = -g2(x+1) exactly"):
        for d in range(2, 13):
            for x in range(-3 * d, 3 * d + 1):
                assert g1_exact(x, d) == -g2_exact(x + 1, d)


def test_criterion_8_optimizer_reproduces_maxima():
    with criterion(8, "20 random restarts reach the closed-form max"):
        for d in (2, 3):
            scen = BellScenario(2, d)
            result = optimize_with_restarts(scen, restarts=20, budget=20_000, seed=808)
            assert abs(result.value - cglmp_max_closed_form(d)) <= 1e-6, d


def test_criterion_9_scaling_law_to_float_range():
    with criterion(9, "GHZ value at the optimal ramps is 2^(N-2) times the two-qudit max"):
        cases = [(n, d) for n in range(2, 201) for d in range(2, 8)]
        cases += [(1000, 3), (1024, 2)]
        for n, d in cases:
            scen = BellScenario(n, d)
            value = ghz_bell_value(optimal_angles(scen))
            target = max_violation(scen)
            assert math.isfinite(value), (n, d)
            assert abs(value - target) <= 1e-9 * target, (n, d)
