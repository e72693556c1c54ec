"""Coefficient machinery, table invariants, and the Bell functional."""

import itertools
import json
import math
import tracemalloc
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
    correlation_numerators,
    correlations,
    outcome_index,
    outcome_sums_mod_d,
    point_mass_table,
    setting_index,
    shift,
    t_counts,
    _numerator_operand,
    _numerator_row,
    _numerator_rows,
)
from conftest import (
    cglmp_value,
    coefficient_exact,
    g1_exact,
    g2_exact,
    outcome_from_index,
    random_table,
    relabel_for_cglmp,
    residue_coefficients,
    t_count,
)


def uniform_table(scenario: BellScenario) -> JointProbabilityTable:
    """The maximally mixed distribution: every outcome equally likely."""
    size = scenario.n_outcome_tuples
    return JointProbabilityTable(scenario, np.full((2**scenario.n_parties, size), 1.0 / size))


def uniform_payload(n: int, d: int, settings=None) -> dict:
    """A maximally mixed table file over the given setting strings (default: all)."""
    settings = all_setting_strings(n) if settings is None else settings
    return {"n": n, "d": d, "tables": {s: [1.0 / d**n] * d**n for s in settings}}


def loop_correlations(table: JointProbabilityTable) -> list[float]:
    """Oracle: one correlation value per setting string, setting by setting.

    Each setting's coefficient vector, its t-count's residue coefficients
    spread over the outcome indices, against that setting's probabilities.
    """
    n, d = table.scenario.n_parties, table.scenario.dimension
    sums = outcome_sums_mod_d(n, d)
    return [
        float(residue_coefficients(t_count(s), d)[sums] @ table.probs_for(s))
        for s in all_setting_strings(n)
    ]


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

    def test_int_sequence_setting(self):
        scen = BellScenario(3, 3)
        assert coefficient((1, 1, 2), (0, 0, 0), scen) == coefficient("112", (0, 0, 0), scen)
        assert coefficient(np.array([2, 1, 2]), (1, 0, 0), scen) == coefficient(
            "212", (1, 0, 0), scen
        )

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

    def test_numerator_row_cache_is_bounded(self):
        # unbounded, a sweep over d = 2..150 at N = 1024 kept 152,725 rows, 289 MB
        for d in range(2, 41):
            _numerator_rows(1024, d, float)
        info = _numerator_row.cache_info()
        assert info.currsize <= info.maxsize
        # the cache holds one d's N + 1 rows whole: a call that repeats the last reads no row anew
        _numerator_rows(1024, 7, float)
        before = _numerator_row.cache_info()
        _numerator_rows(1024, 7, float)
        after = _numerator_row.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1025, 0)

    def test_a_row_shifts_once(self, monkeypatch):
        # shift once per residue made 1,025 d calls for these rows: 307,500 at d = 300
        calls = []

        def counted(t):
            calls.append(t)
            return shift(t)

        monkeypatch.setattr("quditbell.scenario.shift", counted)
        _numerator_row.cache_clear()
        _numerator_rows(1024, 300, float)
        assert calls == list(range(1025))
        with pytest.raises(ValueError):
            _numerator_row(-1, 300)


# A setting is a '12...' string or a sequence of the ints 1 and 2: a
# multi-digit int, a float, a bool, a character or a non-sequence is no
# setting of two parties
MALFORMED_SETTINGS = [
    [12], [1, 2.7], [1.0, 2.0], (True, 2), [1, False], ["1", "2"], 3, None,
    "1x", "13", [1, 3], [0, 1], "1", "112",
]


class TestSettingIndex:
    @pytest.mark.parametrize("setting", MALFORMED_SETTINGS, ids=repr)
    def test_malformed_setting_refused(self, setting):
        scen = BellScenario(2, 2)
        table = point_mass_table(scen, {s: (0, 0) for s in all_setting_strings(2)})
        with pytest.raises(ValueError, match="invalid setting"):
            coefficient(setting, (0, 0), scen)
        with pytest.raises(ValueError, match="invalid setting"):
            table.probs_for(setting)

    def test_refusal_stays_short(self):
        with pytest.raises(ValueError, match="invalid setting") as err:
            coefficient("1" * 10**6, (0, 0, 0), BellScenario(3, 3))
        assert len(str(err.value)) < 100

    def test_bits_and_popcount(self):
        assert setting_index("211", 3) == 4
        assert setting_index((1, 1, 2), 3) == 1
        assert setting_index("2" * 70, 70) == 2**70 - 1
        assert t_counts(3).tolist() == [t_count(s) for s in all_setting_strings(3)]


# An outcome of two qubits is two ints in 0..1: an entry out of range, a
# float, a bool, a character, the wrong length or a non-sequence is none
MALFORMED_OUTCOMES = [
    (3, 0), (-1, 0), (0, 2), (0.7, 0), (1.0, 0), (True, 0), (0, np.False_), ("0", "1"),
    "01", (0, 0, 0), (0,), 5, None,
]


class TestOutcomeCheck:
    @pytest.mark.parametrize("outcome", MALFORMED_OUTCOMES, ids=repr)
    def test_malformed_outcome_refused(self, outcome):
        scen = BellScenario(2, 2)
        outcomes = {s: (0, 0) for s in all_setting_strings(2)}
        outcomes["11"] = outcome
        with pytest.raises(ValueError, match="invalid outcome"):
            coefficient("11", outcome, scen)
        with pytest.raises(ValueError, match="invalid outcome"):
            point_mass_table(scen, outcomes)

    def test_missing_setting_named(self):
        with pytest.raises(ValueError, match=r"outcome_by_setting: 1 missing \['2'\], 0 unexpected"):
            point_mass_table(BellScenario(1, 2), {"1": (0,)})

    def test_extra_keys_named(self):
        outcomes = {"1": (0,), "2": (1,), "3": (0,), "x": 5}
        with pytest.raises(ValueError, match=r"0 missing \[\], 2 unexpected \['3', 'x'\]"):
            point_mass_table(BellScenario(1, 2), outcomes)

    def test_many_extra_keys_stay_short(self):
        outcomes = {s: (0,) * 10 for s in all_setting_strings(10)}
        outcomes.update({s + "1": (0,) for s in all_setting_strings(10)})
        with pytest.raises(ValueError, match="1024 unexpected") as err:
            point_mass_table(BellScenario(10, 2), outcomes)
        assert len(str(err.value)) < 200

    def test_many_missing_settings_stay_short(self):
        with pytest.raises(ValueError, match=r"0 given, 2\^12 expected") as err:
            point_mass_table(BellScenario(12, 2), {})
        assert len(str(err.value)) < 200

    def test_numpy_ints_accepted(self):
        scen = BellScenario(2, 3)
        outcome = np.array([2, 1])
        assert coefficient("12", outcome, scen) == coefficient("12", (2, 1), scen)
        table = point_mass_table(scen, {s: outcome for s in all_setting_strings(2)})
        assert table.probs_for("12")[outcome_index((2, 1), 3)] == 1.0

    def test_refusal_stays_short(self):
        with pytest.raises(ValueError, match="invalid outcome") as err:
            coefficient("111", [0.5] * 10**6, BellScenario(3, 3))
        assert len(str(err.value)) < 100


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
        payload = uniform_payload(2, 2, ("11", "12", "21"))
        with pytest.raises(TableFormatError, match="missing"):
            JointProbabilityTable.from_json_dict(payload)

    def test_tables_as_a_list_rejected(self):
        payload = uniform_payload(2, 2)
        payload["tables"] = list(payload["tables"].values())
        with pytest.raises(TableFormatError, match="field 'tables' must be an object"):
            JointProbabilityTable.from_json_dict(payload)

    def test_wrong_length_rejected(self):
        payload = uniform_payload(2, 2)
        payload["tables"]["11"] = [1 / 3] * 3
        with pytest.raises(TableFormatError, match=r"setting 11: expected 2\^2 probabilities"):
            JointProbabilityTable.from_json_dict(payload)

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_the_caller_rows_become_one_new_array(self, as_list):
        # an array's dtype is read in place and the array copied once; a list is converted
        # once, not converted and then copied
        rows = np.full((256, 256), 1 / 256)
        given = rows.tolist() if as_list else rows
        tracemalloc.start()
        try:
            table = JointProbabilityTable(BellScenario(8, 2), given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.rows is not given and rows.flags.writeable
        assert peak < 1.5 * rows.nbytes

    def test_bad_normalization_rejected(self):
        rows = np.full((4, 4), 0.25)
        rows[3] = 0.125
        with pytest.raises(TableFormatError, match="sum"):
            JointProbabilityTable(BellScenario(2, 2), rows)

    def test_refusal_names_first_offending_setting_with_plain_floats(self):
        rows = np.full((4, 4), 0.25)
        rows[2:] = 0.125
        with pytest.raises(TableFormatError) as err:
            JointProbabilityTable(BellScenario(2, 2), rows)
        assert str(err.value) == "setting 21: probabilities sum to 0.5, expected 1"
        rows[1, 0] = np.nan
        with pytest.raises(TableFormatError, match="^setting 12: non-finite probability$"):
            JointProbabilityTable(BellScenario(2, 2), rows)

    def test_floating_dust_clipped(self):
        row = np.array([0.5, 0.5 + 1e-10, -1e-10, 0.0])
        table = JointProbabilityTable(BellScenario(2, 2), np.tile(row, (4, 1)))
        assert table.probs_for("11")[outcome_index((0, 1), 2)] == 0.0

    def test_callers_array_left_unclipped(self):
        rows = np.tile([0.5, 0.5 + 1e-10, -1e-10, 0.0], (4, 1))
        table = JointProbabilityTable(BellScenario(2, 2), rows)
        assert table.rows[1, 2] == 0.0
        assert rows[1, 2] == -1e-10
        assert rows.flags.writeable

    @pytest.mark.parametrize("shape", [(4, 3), (3, 4), (4,), (2, 4, 2)])
    def test_wrong_shape_array_rejected(self, shape):
        with pytest.raises(TableFormatError, match=r"shape \(2\^2, 2\^2\)"):
            JointProbabilityTable(BellScenario(2, 2), np.full(shape, 0.25))

    def test_real_negativity_rejected(self):
        row = np.array([0.5, 0.5 + 1e-6, -1e-6, 0.0])
        with pytest.raises(TableFormatError, match="negative"):
            JointProbabilityTable(BellScenario(2, 2), np.tile(row, (4, 1)))

    @pytest.mark.parametrize("field", ["n", "d"])
    def test_boolean_dimensions_rejected(self, field):
        payload = uniform_table(BellScenario(1, 2)).to_json_dict()
        payload[field] = True
        text = {"n": "n_parties must be a positive integer",
                "d": "dimension must be an integer >= 2"}[field]
        with pytest.raises(TableFormatError, match=f"^{text}, got True$"):
            JointProbabilityTable.from_json_dict(payload)

    def test_non_numeric_row_names_its_setting(self):
        payload = uniform_table(BellScenario(2, 2)).to_json_dict()
        payload["tables"]["21"] = [0.5, "x", 0.25, 0.25]
        with pytest.raises(TableFormatError, match="setting 21"):
            JointProbabilityTable.from_json_dict(payload)

    def test_huge_declared_dimension_refused_from_row_lengths(self):
        # d^n = 10^9 floats per row: the short first row is refused before
        # anything of that size is allocated
        payload = {"n": 1, "d": 10**9, "tables": {"1": [1.0], "2": [1.0]}}
        tracemalloc.start()
        try:
            with pytest.raises(TableFormatError, match="setting 1"):
                JointProbabilityTable.from_json_dict(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("n", [16, 20])
    def test_wrong_setting_count_is_refused_before_listing_them(self, n):
        # 2^n setting strings are never built, so the message stays short
        payload = {"n": n, "d": 2, "tables": {"1" * n: []}}
        with pytest.raises(TableFormatError, match="some missing") as err:
            JointProbabilityTable.from_json_dict(payload)
        assert len(str(err.value)) < 200

    def test_too_many_settings_counted(self):
        payload = uniform_payload(2, 2, ("11", "12", "21", "22", "13"))
        with pytest.raises(TableFormatError, match=r"0 missing \[\], 1 unexpected \['13'\]"):
            JointProbabilityTable.from_json_dict(payload)

    def test_mismatch_reports_counts_and_first_items(self):
        renamed = [s.replace("1", "3") for s in all_setting_strings(3)]
        with pytest.raises(TableFormatError) as err:
            JointProbabilityTable.from_json_dict(uniform_payload(3, 2, renamed))
        message = str(err.value)
        assert "7 missing ['111', '112', '121', '122', '211', '212', ...]" in message
        assert "7 unexpected ['333', '332', '323', '322', '233', '232', ...]" in message

    def test_rows_read_only(self):
        table = uniform_table(BellScenario(2, 3))
        with pytest.raises(ValueError):
            table.probs_for("11")[0] = 1.0

    def test_rows_in_setting_string_order(self, rng):
        # party 1 is the most significant binary digit, setting 2 the 1 bit
        table = random_table(BellScenario(3, 2), rng)
        for i, s in enumerate(all_setting_strings(3)):
            np.testing.assert_array_equal(table.probs_for(s), table.rows[i])
        np.testing.assert_array_equal(table.probs_for("211"), table.rows[4])
        np.testing.assert_array_equal(table.probs_for((1, 1, 2)), table.rows[1])

    def test_json_round_trip(self, rng):
        table = random_table(BellScenario(2, 3), rng)
        back = JointProbabilityTable.from_json_dict(table.to_json_dict())
        for s in all_setting_strings(2):
            np.testing.assert_array_equal(back.probs_for(s), table.probs_for(s))

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 2)])
    def test_json_chunks_are_the_json_dump(self, n, d, rng):
        table = random_table(BellScenario(n, d), rng)
        assert "".join(table.json_chunks()) == json.dumps(table.to_json_dict()) + "\n"


class TestCorrelation:
    def test_uniform_gives_zero(self):
        table = uniform_table(BellScenario(3, 3))
        np.testing.assert_allclose(correlations(table), 0.0, atol=1e-12)

    def test_point_mass_at_minus_one_coefficient(self):
        scen = BellScenario(2, 2)
        # coefficient("11", (0,0)) = g1(3) = -1 for qubits
        assert coefficient("11", (0, 0), scen) == -1.0
        table = point_mass_table(scen, {s: (0, 0) for s in all_setting_strings(2)})
        assert correlations(table)[0] == -1.0

    def test_bounded_by_one(self, rng):
        table = random_table(BellScenario(3, 3), rng)
        assert np.all(np.abs(correlations(table)) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_matches_per_setting_loop(self, n, d, rng):
        for _ in range(3):
            table = random_table(BellScenario(n, d), rng)
            expected = loop_correlations(table)
            np.testing.assert_allclose(correlations(table), expected, rtol=0, atol=1e-12)
            assert bell_value(table) == pytest.approx(-sum(expected), rel=0, abs=1e-12)

    def test_operands_built_once_read_only(self, rng):
        table = random_table(BellScenario(3, 4), rng)
        _numerator_operand.cache_clear()
        correlation_numerators(table)
        correlation_numerators(table)
        info = _numerator_operand.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert info.maxsize is not None
        assert not any(array.flags.writeable for array in _numerator_operand(3, 4))

    def test_index_caches_keep_the_latest_32(self):
        # d = 2..300 once held 69 MiB of residue vectors for the whole session;
        # all_setting_strings(33) alone would hold 2^33 strings, so only its bound is read
        for n in (1, 2):
            for d in range(2, 152):
                outcome_sums_mod_d(n, d)
        assert outcome_sums_mod_d.cache_info().currsize <= 32
        for cached in (outcome_sums_mod_d, all_setting_strings):
            assert cached.cache_parameters()["maxsize"] == 32

    def test_large_dimension_needs_no_more_than_the_table(self, rng):
        # N+1 coefficient vectors over the d^N outcomes, not a d^N-by-d
        # residue indicator: the working memory stays near the table's size
        table = random_table(BellScenario(2, 300), rng)
        outcome_sums_mod_d.cache_clear()
        tracemalloc.start()
        try:
            values = correlations(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(values, loop_correlations(table), rtol=0, atol=1e-12)
        assert peak < 1.5 * table.rows.nbytes


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
            permuted = np.zeros_like(table.rows)
            for row, s in enumerate(all_setting_strings(3)):
                src = "".join(s[perm[i]] for i in range(3))
                for idx in range(scen.n_outcome_tuples):
                    o = outcome_from_index(idx, scen)
                    src_o = tuple(o[perm[i]] for i in range(3))
                    permuted[row, idx] = table.probs_for(src)[outcome_index(src_o, 3)]
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

    @pytest.mark.parametrize("value", [2.0, True, np.True_, "3", None], ids=repr)
    @pytest.mark.parametrize("field", ["n_parties", "dimension"])
    def test_rejects_a_size_that_is_not_an_integer(self, field, value):
        sizes = {"n_parties": 2, "dimension": 3, field: value}
        floor = {"n_parties": "a positive integer", "dimension": "an integer >= 2"}[field]
        with pytest.raises(ValueError, match=f"^{field} must be {floor}, got "):
            BellScenario(**sizes)

    def test_stores_numpy_integers_as_python_ints(self):
        scen = BellScenario(np.int64(40), np.int64(3))
        assert type(scen.n_parties) is int and type(scen.dimension) is int
        assert scen == BellScenario(40, 3)
        assert scen.n_outcome_tuples == 3**40

    def test_coefficient_residue_table_matches_exact(self):
        # bit for bit: coefficient divides the integer row by d - 1, which
        # rounds correctly, as float() of the exact rational does
        for d in range(2, 13):
            scen = BellScenario(3 * d, d)
            for t in range(3 * d + 1):
                setting = "1" * (3 * d - t) + "2" * t
                for r in range(d):
                    outcome = (r,) + (0,) * (3 * d - 1)
                    assert coefficient(setting, outcome, scen) == float(
                        coefficient_exact(t, r, d)
                    ), (t, r, d)
