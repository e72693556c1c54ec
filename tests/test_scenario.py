"""Coefficient machinery, table invariants, and the Bell functional."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from quditbell.scenario import (
    BellScenario,
    JointProbabilityTable,
    TableFormatError,
    all_setting_strings,
    bell_value,
    coefficient,
    coefficient_by_residue,
    correlation_q,
    outcome_index,
    point_mass_table,
    shift,
    t_count,
)
from conftest import (
    cglmp_value,
    coefficient_exact,
    g1_exact,
    g2_exact,
    outcome_from_index,
    random_table,
    relabel_for_cglmp,
)


def uniform_table(scenario: BellScenario) -> JointProbabilityTable:
    """The maximally mixed distribution: every outcome equally likely."""
    p = np.full(scenario.n_outcome_tuples, 1.0 / scenario.n_outcome_tuples)
    return JointProbabilityTable(
        scenario, {s: p for s in scenario.setting_strings()}
    )


class TestShift:
    @pytest.mark.parametrize("t,expected", [(0, 3), (1, 3), (2, 0), (3, 0), (4, -3)])
    def test_values(self, t, expected):
        assert shift(t) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            shift(-1)


class TestSawtooths:
    def test_g1_at_zero(self):
        assert g1_exact(0, 3) == 1

    def test_g2_mirror(self):
        assert g2_exact(1, 3) == -1

    def test_qubit_extreme(self):
        assert g1_exact(1, 2) == -1

    def test_reflection_identity_exact(self):
        # g1(x) = -g2(x+1) as exact rationals, across dimensions
        for d in range(2, 13):
            for x in range(-3 * d, 3 * d + 1):
                assert g1_exact(x, d) == -g2_exact(x + 1, d)

    def test_range(self):
        for d in (2, 3, 4, 7):
            for x in range(-3 * d, 3 * d + 1):
                assert -1 <= g1_exact(x, d) <= 1
                assert -1 <= g2_exact(x, d) <= 1


class TestCoefficient:
    def test_three_qutrits_all_first_setting(self):
        scen = BellScenario(3, 3)
        assert coefficient("111", (0, 0, 0), scen) == 1.0

    def test_three_qutrits_odd_t(self):
        scen = BellScenario(3, 3)
        assert coefficient("112", (0, 0, 0), scen) == 1.0

    def test_two_qubits_both_second_setting(self):
        scen = BellScenario(2, 2)
        assert coefficient("22", (0, 0), scen) == 1.0

    def test_rejects_length_mismatch(self):
        scen = BellScenario(3, 3)
        with pytest.raises(ValueError):
            coefficient("11", (0, 0, 0), scen)
        with pytest.raises(ValueError):
            coefficient("111", (0, 0), scen)

    def test_takes_exactly_d_values(self):
        # 2S+1 = d distinct values, stepping by 1/S from -1 to 1
        for d in (2, 3, 5, 8):
            for t in range(5):
                values = {coefficient_exact(t, r, d) for r in range(3 * d)}
                expected = {
                    Fraction(d - 1 - 2 * m, d - 1) for m in range(d)
                }
                assert values == expected

    def test_depends_only_on_sum_mod_d(self, rng):
        scen = BellScenario(3, 4)
        for _ in range(50):
            o = tuple(int(x) for x in rng.integers(4, size=3))
            s = "".join(rng.choice(["1", "2"]) for _ in range(3))
            lifted = (o[0], o[1], o[2])
            base = coefficient(s, lifted, scen)
            assert coefficient_exact(t_count(s), sum(o) + 4, 4) == pytest.approx(base)
            assert coefficient_exact(t_count(s), sum(o) - 8, 4) == pytest.approx(base)


class TestOutcomeEncoding:
    def test_party_one_fastest(self):
        # index = x1 + d*x2 + d^2*x3
        assert outcome_index((1, 0, 0), 3) == 1
        assert outcome_index((0, 1, 0), 3) == 3
        assert outcome_index((0, 0, 2), 3) == 18

    def test_round_trip(self):
        scen = BellScenario(3, 4)
        for idx in range(scen.n_outcome_tuples):
            assert outcome_index(outcome_from_index(idx, scen), 4) == idx


class TestTableInvariants:
    def test_missing_setting_rejected(self):
        scen = BellScenario(2, 2)
        probs = {s: np.full(4, 0.25) for s in ("11", "12", "21")}
        with pytest.raises(TableFormatError, match="missing"):
            JointProbabilityTable(scen, probs)

    def test_wrong_length_rejected(self):
        scen = BellScenario(2, 2)
        probs = {s: np.full(4, 0.25) for s in all_setting_strings(2)}
        probs["11"] = np.full(3, 1 / 3)
        with pytest.raises(TableFormatError, match="expected 4"):
            JointProbabilityTable(scen, probs)

    def test_bad_normalization_rejected(self):
        scen = BellScenario(2, 2)
        probs = {s: np.full(4, 0.25) for s in all_setting_strings(2)}
        probs["22"] = np.full(4, 0.125)
        with pytest.raises(TableFormatError, match="sum"):
            JointProbabilityTable(scen, probs)

    def test_floating_dust_clipped(self):
        scen = BellScenario(2, 2)
        row = np.array([0.5, 0.5 + 1e-10, -1e-10, 0.0])
        probs = {s: row for s in all_setting_strings(2)}
        table = JointProbabilityTable(scen, probs)
        assert table.probs_for("11")[outcome_index((0, 1), 2)] == 0.0

    def test_real_negativity_rejected(self):
        scen = BellScenario(2, 2)
        row = np.array([0.5, 0.5 + 1e-6, -1e-6, 0.0])
        probs = {s: row for s in all_setting_strings(2)}
        with pytest.raises(TableFormatError, match="negative"):
            JointProbabilityTable(scen, probs)

    @pytest.mark.parametrize("field", ["n", "d"])
    def test_boolean_dimensions_rejected(self, field):
        payload = uniform_table(BellScenario(1, 2)).to_json_dict()
        payload[field] = True
        with pytest.raises(TableFormatError, match="integers"):
            JointProbabilityTable.from_json_dict(payload)

    def test_non_numeric_row_names_its_setting(self):
        payload = uniform_table(BellScenario(2, 2)).to_json_dict()
        payload["tables"]["21"] = [0.5, "x", 0.25, 0.25]
        with pytest.raises(TableFormatError, match="setting 21"):
            JointProbabilityTable.from_json_dict(payload)

    @pytest.mark.parametrize("n", [16, 20])
    def test_wrong_setting_count_is_refused_before_listing_them(self, n):
        # 2^n setting strings are never built, so the message stays short
        payload = {"n": n, "d": 2, "tables": {"1" * n: []}}
        with pytest.raises(TableFormatError, match="some missing") as err:
            JointProbabilityTable.from_json_dict(payload)
        assert len(str(err.value)) < 200

    def test_too_many_settings_counted(self):
        probs = {s: np.full(4, 0.25) for s in ("11", "12", "21", "22", "13")}
        with pytest.raises(TableFormatError, match="5 given, 2\\^2 expected .some unexpected"):
            JointProbabilityTable(BellScenario(2, 2), probs)

    def test_mismatch_reports_counts_and_first_items(self):
        probs = {s: np.full(8, 0.125) for s in all_setting_strings(3)}
        renamed = {s.replace("1", "3"): p for s, p in probs.items()}
        with pytest.raises(TableFormatError) as err:
            JointProbabilityTable(BellScenario(3, 2), renamed)
        message = str(err.value)
        assert "7 missing ['111', '112', '121', '122', '211', '212', ...]" in message
        assert "7 unexpected ['333', '332', '323', '322', '233', '232', ...]" in message

    def test_rows_read_only(self):
        table = uniform_table(BellScenario(2, 3))
        with pytest.raises(ValueError):
            table.probs_for("11")[0] = 1.0

    def test_json_round_trip(self, rng):
        table = random_table(BellScenario(2, 3), rng)
        back = JointProbabilityTable.from_json_dict(table.to_json_dict())
        for s in all_setting_strings(2):
            np.testing.assert_array_equal(back.probs_for(s), table.probs_for(s))


class TestCorrelation:
    def test_uniform_gives_zero(self):
        table = uniform_table(BellScenario(3, 3))
        for s in all_setting_strings(3):
            assert correlation_q(s, table) == pytest.approx(0.0, abs=1e-12)

    def test_point_mass_at_minus_one_coefficient(self):
        scen = BellScenario(2, 2)
        # coefficient("11", (0,0)) = g1(3) = -1 for qubits
        assert coefficient("11", (0, 0), scen) == -1.0
        table = point_mass_table(scen, {s: (0, 0) for s in all_setting_strings(2)})
        assert correlation_q("11", table) == -1.0

    def test_bounded_by_one(self, rng):
        table = random_table(BellScenario(3, 3), rng)
        for s in all_setting_strings(3):
            assert abs(correlation_q(s, table)) <= 1.0 + 1e-12


class TestBellValue:
    def test_uniform_gives_zero(self):
        assert bell_value(uniform_table(BellScenario(3, 2))) == pytest.approx(0.0, abs=1e-12)

    def test_algebraic_ceiling(self, rng):
        for n, d in ((2, 2), (2, 5), (3, 3), (4, 2)):
            for _ in range(10):
                table = random_table(BellScenario(n, d), rng)
                assert abs(bell_value(table)) <= 2.0**n + 1e-9

    def test_permutation_symmetry(self, rng):
        # permuting parties in both the settings and the outcomes is invisible
        scen = BellScenario(3, 3)
        table = random_table(scen, rng)
        for perm in itertools.permutations(range(3)):
            permuted = {}
            for s in all_setting_strings(3):
                src = "".join(s[perm[i]] for i in range(3))
                row = np.zeros(scen.n_outcome_tuples)
                for idx in range(scen.n_outcome_tuples):
                    o = outcome_from_index(idx, scen)
                    src_o = tuple(o[perm[i]] for i in range(3))
                    row[idx] = table.probs_for(src)[outcome_index(src_o, 3)]
                permuted[s] = row
            ptable = JointProbabilityTable(scen, permuted)
            assert bell_value(ptable) == pytest.approx(bell_value(table), abs=1e-12)


class TestCglmp:
    def test_uniform_gives_zero(self):
        assert cglmp_value(uniform_table(BellScenario(2, 3))) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_more_parties(self, rng):
        with pytest.raises(ValueError):
            cglmp_value(random_table(BellScenario(3, 2), rng))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
    def test_relabeling_matches_bell_value(self, d, rng):
        scen = BellScenario(2, d)
        for _ in range(20):
            table = random_table(scen, rng)
            assert cglmp_value(relabel_for_cglmp(table)) == pytest.approx(
                bell_value(table), abs=1e-12
            )

    def test_relabeling_preserves_distributions(self, rng):
        # relabeling permutes outcomes per setting, so each row stays a distribution
        table = random_table(BellScenario(2, 5), rng)
        relabeled = relabel_for_cglmp(table)
        for s in all_setting_strings(2):
            assert relabeled.probs_for(s).sum() == pytest.approx(1.0)
            assert sorted(relabeled.probs_for(s)) == pytest.approx(
                sorted(table.probs_for(s))
            )


class TestScenarioType:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            BellScenario(2, 1)
        with pytest.raises(ValueError):
            BellScenario(0, 3)

    def test_coefficient_residue_table_matches_exact(self):
        # bit for bit: dividing the integer row by d - 1 rounds correctly, as
        # float() of the exact rational does
        for d in range(2, 13):
            for t in range(3 * d + 1):
                expected = np.array([float(coefficient_exact(t, r, d)) for r in range(d)])
                assert coefficient_by_residue(t, d).tobytes() == expected.tobytes(), (t, d)
