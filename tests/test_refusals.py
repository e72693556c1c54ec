"""Each input rule has one check, so every caller refuses with the same words, and
every refusal writes its sizes in bounded form (d^N, never expanded)."""

from types import SimpleNamespace

import numpy as np
import pytest

from quditbell.bounds import (
    Bipartition,
    DeterministicStrategy,
    build_grouping,
    group_deterministic_max,
    hlnhv_bound,
)
from quditbell.quantum import (
    DenseLimitError,
    DensityMatrix,
    PhaseConfiguration,
    joint_probabilities,
)
from quditbell.scenario import (
    BellScenario,
    JointProbabilityTable,
    TableFormatError,
    all_setting_strings,
    point_mass_table,
)
from conftest import invoke

# 4,000 nines: below the 4,300 digits that int() and str() accept, about 2^13288
HUGE = "9" * 4000
SETTINGS = all_setting_strings(2)


def read_table(keys):
    tables = {k: [0.25] * 4 for k in keys}
    return JointProbabilityTable.from_json_dict({"n": 2, "d": 2, "tables": tables})


def read_outcomes(keys):
    return point_mass_table(BellScenario(2, 2), {k: (0, 0) for k in keys})


def read_strategy(keys, value=0):
    # block A holds two parties, so xi is keyed by the 2-party setting strings
    xi = {k: value for k in keys}
    return DeterministicStrategy(Bipartition((1, 2), (3,)), xi, {"1": 0, "2": 0}).validate_for(
        BellScenario(3, 2)
    )


READERS = {
    "'tables'": (read_table, TableFormatError),
    "outcome_by_setting": (read_outcomes, ValueError),
    "xi": (read_strategy, ValueError),
}


class TestSettingKeys:
    @pytest.mark.parametrize("name", READERS)
    @pytest.mark.parametrize("keys, problem", [
        (SETTINGS[:3], "1 missing ['22'], 0 unexpected []"),
        ((*SETTINGS, "13"), "0 missing [], 1 unexpected ['13']"),
        ((), "0 given, 2^2 expected (some missing)"),
    ], ids=["missing", "unexpected", "too-few-to-list"])
    def test_every_reader_refuses_alike(self, name, keys, problem):
        read, error = READERS[name]
        with pytest.raises(ValueError) as err:
            read(keys)
        assert type(err.value) is error
        assert str(err.value) == f"setting strings mismatch in {name}: {problem}"

    @pytest.mark.parametrize("name", READERS)
    def test_every_reader_accepts_the_settings_in_any_order(self, name):
        read, _ = READERS[name]
        read(SETTINGS[::-1])

    def test_values_come_in_setting_order(self):
        strategy = DeterministicStrategy(
            Bipartition((1, 2), (3,)), {"22": 3, "21": 2, "12": 1, "11": 0}, {"2": 1, "1": 0}
        )
        xi, zeta = strategy.validate_for(BellScenario(3, 4))
        assert xi.tolist() == [0, 1, 2, 3] and zeta.tolist() == [0, 1]


STRINGS_2 = {k: 0 for k in SETTINGS}
PARTITION_CALLERS = {
    "validate_for": lambda scen, part: DeterministicStrategy(
        part, STRINGS_2, STRINGS_2).validate_for(scen),
    "hlnhv_bound": hlnhv_bound,
    "build_grouping": build_grouping,
    "group_deterministic_max": lambda scen, part: group_deterministic_max(
        ("111", "112", "211", "212"), scen, part),
}


@pytest.mark.parametrize("caller", PARTITION_CALLERS)
@pytest.mark.parametrize("part", [Bipartition((1, 2), (3, 4)), Bipartition((1,), (2,))],
                         ids=Bipartition.describe)
def test_partition_size_refused_alike_by_every_caller(caller, part):
    with pytest.raises(ValueError) as err:
        PARTITION_CALLERS[caller](BellScenario(3, 2), part)
    assert str(err.value) == (
        f"partition {part.describe()!r} covers {part.n_parties} parties, expected 3"
    )


DENSE_7_4 = ("dense path supports d^N <= 4096, got 4^7; for GHZ states use the closed form "
             "(ghz_table, violation --method closed-form)")


def test_dense_limit_in_the_library():
    # the gate reads only the state's scenario: a 4^7-dimensional state would take 4 GiB
    scen = BellScenario(7, 4)
    with pytest.raises(DenseLimitError) as err:
        joint_probabilities(SimpleNamespace(scenario=scen), PhaseConfiguration.zero(scen))
    assert str(err.value) == DENSE_7_4


def test_dense_limit_in_the_cli_precedes_the_phase_search(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        pytest.fail("the phase search evaluated the GHZ value before the dense gate")

    monkeypatch.setattr("quditbell.optimize.ghz_bell_value", no_search)
    code, out, err = invoke(
        capsys, "violation", "--n", "7", "--d", "4", "--method", "dense",
        "--angles", "optimized-free",
    )
    assert (code, out, err) == (2, "", f"error: {DENSE_7_4}\n")


class TestBoundedSizes:
    @pytest.mark.parametrize("argv, code, size", [
        (("visibility", "--n", HUGE, "--d", "2"), 1, "n=about 2^13288"),
        (("bound", "--n", HUGE, "--d", "2", "--model", "lhv"), 2, "2^(about 2^13289) strategies"),
        (("bound", "--n", HUGE, "--d", "2", "--partition", "1/2"), 1, "expected about 2^13288"),
        (("violation", "--n", "-" + HUGE, "--d", "2"), 1, "got about -2^13288"),
    ], ids=["visibility", "bound-lhv", "bound-partition", "negative-n"])
    def test_cli_refusal_of_a_huge_n(self, capsys, argv, code, size):
        exit_code, out, err = invoke(capsys, *argv)
        assert (exit_code, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert size in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("text, size", [
        (f'{{"n": {HUGE}, "d": 2, "tables": {{}}}}', "2^(about 2^13288) expected"),
        ('{"n": 2, "d": 1%s, "tables": {"11": [1.0], "12": [1.0], "21": [1.0], "22": [1.0]}}'
         % ("0" * 3000), "expected (about 2^9966)^2 probabilities"),
        ('{"n": 2, "d": %s, "tables": {}}' % ("7" * 5000), "is not valid JSON"),
    ], ids=["huge-n", "huge-d", "number-past-4300-digits"])
    def test_eval_refusal_names_the_file(self, capsys, tmp_path, text, size):
        path = tmp_path / "table.json"
        path.write_text(text)
        code, out, err = invoke(capsys, "eval", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}") and err.count("\n") == 1
        assert size in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("build, error, size", [
        (lambda: JointProbabilityTable(BellScenario(2, 10**3000), [[1.0]]), TableFormatError,
         "shape (2^2, (about 2^9966)^2)"),
        (lambda: PhaseConfiguration(BellScenario(10**5000, 2), np.zeros((1, 2, 2))), ValueError,
         "shape (about 2^16610, 2, 2)"),
        (lambda: DensityMatrix(BellScenario(5000, 2), [[1.0]]), ValueError,
         "a 2^5000 x 2^5000 matrix"),
        (lambda: BellScenario(-(10**5000), 2), ValueError, "got about -2^16610"),
        (lambda: read_strategy(SETTINGS, 10**5000), ValueError, "xi[11] = about 2^16610 outside"),
    ], ids=["table", "phases", "density-matrix", "scenario", "strategy-value"])
    def test_library_refusal(self, build, error, size):
        with pytest.raises(ValueError) as err:
            build()
        assert type(err.value) is error
        assert size in str(err.value)
        assert len(str(err.value)) < 100
