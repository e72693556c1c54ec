"""Each input rule has one check, so every caller refuses with the same words, and
every refusal writes its sizes in bounded form (d^N, never expanded)."""

import ast
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import quditbell
from quditbell.bounds import (
    Bipartition,
    DeterministicStrategy,
    build_grouping,
    group_deterministic_max,
    hlnhv_bound,
    lhv_bound,
)
from quditbell.cli import _scenario
from quditbell.optimize import (
    cglmp_max_closed_form,
    max_violation,
    optimize_phases,
    optimize_with_restarts,
)
from quditbell.quantum import (
    DenseLimitError,
    DensityMatrix,
    PhaseConfiguration,
    ghz_state,
    joint_probabilities,
    mix_with_noise,
    product_state,
)
from quditbell.scenario import (
    BellScenario,
    JointProbabilityTable,
    TableFormatError,
    _brief,
    _exceeds,
    all_setting_strings,
    point_mass_table,
    setting_index,
    shift,
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


SOURCES = sorted(Path(quditbell.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_refusal_writes_its_values_through_brief(path):
    # scenario._brief is the one writer of a refused value: a raw repr can run to any
    # length, and an int's repr raises past 4,300 digits
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and path.name != "scenario.py":
            names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
            assert "reprlib" not in names, f"{path.name}:{node.lineno} imports reprlib"
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                assert not (isinstance(part, ast.FormattedValue) and part.conversion == ord("r")), (
                    f"{path.name}:{part.lineno} writes a refused value with !r"
                )
                assert not (isinstance(part, ast.Attribute) and part.attr == "repr"
                            and isinstance(part.value, ast.Name) and part.value.id == "reprlib"), (
                    f"{path.name}:{part.lineno} writes a refused value with reprlib.repr"
                )


# written as they are: a file path as typed, a function's own label, and a shape or dtype
AS_IS = {"path", "table_file", "emit_table", "name", "shape", "dtype"}


def _unwritten_arguments(tree):
    """'function:line expression' for each f-string field of a raise that substitutes a
    parameter of its function, or an attribute or item chain rooted at one, with no call."""
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
        for node in ast.walk(func):
            if not (isinstance(node, ast.Raise) and node.exc is not None):
                continue
            for part in ast.walk(node.exc):
                if not isinstance(part, ast.FormattedValue):
                    continue
                root, last = part.value, None
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    last = last or getattr(root, "attr", None)
                    root = root.value
                if isinstance(root, ast.Name) and root.id in params and not {root.id, last} & AS_IS:
                    found.add(f"{func.name}:{part.lineno} {ast.unparse(part.value)}")
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_refused_argument_is_written_through_a_call(path):
    # an argument substituted as it is writes str() of whatever the caller passed:
    # an int past 4,300 digits raises there, and a long value is written in full
    assert _unwritten_arguments(ast.parse(path.read_text())) == []


class TestBrief:
    @pytest.mark.parametrize("value", [
        0, -5, 10**18 - 1, -(10**18 - 1), 2.5, None, True, "", "x" * 30,
        "1,2,3,4,5,6,7,8,9/10,11,12,13", (1,), [1, 2, 3, 4, 5, 6], {1, 2}, {"n": 2}, ("11", "12"),
        -1e300, float("nan"), BellScenario(12, 3), [BellScenario(2, 2), 0.5],
    ], ids=repr)
    def test_a_short_value_is_its_repr(self, value):
        assert _brief(value) == repr(value)

    def test_a_long_value_is_shortened_at_any_depth(self):
        assert _brief(10**18) == "about 2^60"
        assert _brief([-(10**5000)]) == "[about -2^16610]"
        assert _brief("x" * 31) == "'xxxxxxxxxxxxx...xxxxxxxxxxxxxx'"
        assert _brief(list(range(7))) == "[0, 1, 2, 3, 4, 5, ...]"
        assert _brief(BellScenario(10**5000, 10**20)) == (
            "BellScenario(n_parties=about 2^16610, dimension=about 2^66)"
        )

    def test_a_numpy_float_is_written_as_a_float(self):
        assert [_brief(x) for x in (np.float64(1.5), np.float32(0.25), (np.float16(-2),))] == [
            "1.5", "0.25", "(-2.0,)"
        ]


@pytest.mark.parametrize("base, exponent, limit", [
    (2, 0, 0), (2, 0, 1), (2, 12, 4095), (2, 12, 4096), (4, 6, 4096), (4, 7, 4096),
    (3, 40, 3**40), (3, 40, 3**40 - 1), (10**20, 1, 10**20), (10**20, 2, 10**39), (7, 0, 5),
])
def test_exceeds_is_the_comparison(base, exponent, limit):
    assert _exceeds(base, exponent, limit) is (base**exponent > limit)


def test_exceeds_forms_no_huge_power():
    started = time.perf_counter()
    assert _exceeds(2, 10**5000, 10**8) and _exceeds(10**5000, 10**5000, 1)
    assert not _exceeds(10**5000, 0, 1)
    assert time.perf_counter() - started < 1


S2 = BellScenario(2, 2)
START = PhaseConfiguration.zero(S2)
PART = Bipartition((1,), (2,))
NEG = -(10**5000)  # past the 4,300 digits that str() of an int accepts


class TestHugeValues:
    """Each refusal of a huge value is one short message naming the argument, of the
    class a short bad value of the same kind gets."""

    @pytest.mark.parametrize("call, short, named", [
        (lambda v: optimize_phases(S2, START, v), 0, "budget must be"),
        (lambda v: optimize_with_restarts(S2, restarts=v), 0, "restarts must be"),
        (lambda v: optimize_with_restarts(S2, seed=v), -1, "seed must be"),
        (lambda v: hlnhv_bound(S2, PART, budget=v), 0, "budget must be"),
        (lambda v: Bipartition((v,), (1,)), 3, "do not partition"),
        (lambda v: point_mass_table(S2, {k: (0, 0) for k in SETTINGS}).probs_for((v,)), 3,
         "invalid setting"),
    ], ids=["optimize_phases", "restarts", "seed", "hlnhv_bound", "Bipartition", "probs_for"])
    def test_an_int_past_4300_digits(self, call, short, named):
        with pytest.raises(ValueError) as err:
            call(short)
        error = type(err.value)
        with pytest.raises(error) as err:
            call(NEG)
        message = str(err.value)
        assert named in message and "about -2^16610" in message
        assert len(message) < 200

    @pytest.mark.parametrize("call, named", [
        (lambda: optimize_phases(S2, START, 5, mode="x" * 100_000), "mode must be"),
        (lambda: hlnhv_bound(S2, PART, budget="9" * 100_000), "budget must be"),
        (lambda: Bipartition.parse("1," * 50_000 + "1/2", 2), "do not partition 1..50002"),
        (lambda: Bipartition(tuple(range(1, 30001)), tuple(range(1, 30001))), "blocks overlap"),
        (lambda: hlnhv_bound(BellScenario(3, 2), Bipartition.from_block(30000, range(1, 15000))),
         "covers 30000 parties, expected 3"),
    ], ids=["mode", "budget", "parse", "overlap", "covering"])
    def test_a_long_value(self, call, named):
        with pytest.raises(ValueError) as err:
            call()
        assert type(err.value) is ValueError
        assert named in str(err.value) and "..." in str(err.value)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("build, error", [
        (lambda scen: DensityMatrix(scen, [[1.0]]), ValueError),
        (lambda scen: ghz_state(scen), DenseLimitError),
        (lambda scen: JointProbabilityTable(scen, [[1.0]]), TableFormatError),
    ], ids=["DensityMatrix", "ghz_state", "JointProbabilityTable"])
    def test_a_huge_n_is_refused_at_once(self, build, error):
        scen = BellScenario(10**5000, 2)
        started = time.perf_counter()
        with pytest.raises(Exception) as err:
            build(scen)
        assert time.perf_counter() - started < 2
        assert type(err.value) is error
        assert "2^(about 2^16610)" in str(err.value) and len(str(err.value)) < 200

    def test_a_party_count_past_a_tuple_is_refused_at_once(self):
        # from_block walks 1..N for block B: a count no tuple can hold is refused first
        started = time.perf_counter()
        with pytest.raises(ValueError) as err:
            Bipartition.from_block(10**5000, (1,))
        assert time.perf_counter() - started < 1
        assert "n_parties" in str(err.value) and "about 2^16610" in str(err.value)
        assert len(str(err.value)) < 200

    def test_a_numpy_int_is_written_plainly(self):
        with pytest.raises(ValueError, match=r"^budget must be a positive integer, got 0$"):
            optimize_phases(S2, START, np.int64(0))
        with pytest.raises(ValueError, match=r"^invalid setting \(5,\) for 2 parties$"):
            setting_index((np.int64(5),), 2)


# every check of "an integer of at least k", as (call on the value, argument named, k)
FLOORS = {
    "BellScenario-n_parties": (lambda v: BellScenario(v, 2), "n_parties", 1),
    "BellScenario-dimension": (lambda v: BellScenario(2, v), "dimension", 2),
    "shift": (shift, "t", 0),
    "cglmp_max_closed_form": (cglmp_max_closed_form, "dimension", 2),
    "max_violation": (lambda v: max_violation(SimpleNamespace(n_parties=v, dimension=3)),
                      "n_parties", 2),
    "cli._scenario": (lambda v: _scenario(v, 3), "n", 2),
    "from_block": (lambda v: Bipartition.from_block(v, (1,)), "n_parties", 2),
    "optimize_phases": (lambda v: optimize_phases(S2, START, v), "budget", 1),
    "restarts": (lambda v: optimize_with_restarts(S2, restarts=v), "restarts", 1),
    "seed": (lambda v: optimize_with_restarts(S2, seed=v), "seed", 0),
    "hlnhv_bound": (lambda v: hlnhv_bound(S2, PART, budget=v), "budget", 1),
    "lhv_bound": (lambda v: lhv_bound(S2, budget=v), "budget", 1),
}
FLOOR_TEXTS = {0: "a non-negative integer", 1: "a positive integer", 2: "an integer >= 2"}
BELOW = object()  # the floor less one


class TestCountRule:
    """Every integer floor is scenario._count: one check and one text per floor."""

    @pytest.mark.parametrize("value", [1.5, True, "3", None, BELOW, NEG],
                             ids=["1.5", "True", "'3'", "None", "below", "huge-negative"])
    @pytest.mark.parametrize("site", FLOORS)
    def test_every_floor_refuses_alike(self, site, value):
        call, name, least = FLOORS[site]
        value = least - 1 if value is BELOW else value
        with pytest.raises(ValueError) as err:
            call(value)
        assert type(err.value) is ValueError
        assert str(err.value) == f"{name} must be {FLOOR_TEXTS[least]}, got {_brief(value)}"

    @pytest.mark.parametrize("option, name", [("--n-range", "n"), ("--d-range", "d")])
    def test_scan_floors(self, capsys, option, name):
        # the ranges are read with int(), so only a value below the floor reaches _count
        code, out, err = invoke(capsys, "scan", option, "1:3")
        assert (code, out, err) == (1, "", f"error: {name} must be an integer >= 2, got 1\n")

    def test_cglmp_max_closed_form_reads_a_numpy_int_as_an_int(self):
        value = cglmp_max_closed_form(np.int64(3))
        assert type(value) is float and value == cglmp_max_closed_form(3)


H2 = ghz_state(S2)
HUGE_SCEN = BellScenario(10**5000, 2)
# every refusal that writes an argument of its caller, on a huge value, and what it writes
WRITERS = {
    "optimize_phases": (lambda: optimize_phases(HUGE_SCEN, START, 5),
                        "start is for BellScenario(n_parties=2, dimension=2), the search is for "
                        "BellScenario(n_parties=about 2^16610, dimension=2)"),
    "joint_probabilities": (lambda: joint_probabilities(H2, SimpleNamespace(scenario=HUGE_SCEN)),
                            "state is for BellScenario(n_parties=2, dimension=2), phases are for "
                            "BellScenario(n_parties=about 2^16610, dimension=2)"),
    "mix_with_noise": (lambda: mix_with_noise(H2, -NEG),
                       "visibility must lie in [0, 1], got about 2^16610"),
    "product_state": (lambda: product_state(H2, SimpleNamespace(scenario=BellScenario(1, -NEG))),
                      "factors must share the outcome dimension, got 2 and about 2^16610"),
    "_covering": (lambda: PART._covering(-NEG),
                  "partition '1/2' covers 2 parties, expected about 2^16610"),
}


class TestWriterRule:
    """Every refusal writes its caller's arguments through scenario._brief."""

    @pytest.mark.parametrize("site", WRITERS)
    def test_a_huge_argument_is_written_briefly(self, site):
        call, text = WRITERS[site]
        started = time.perf_counter()
        with pytest.raises(ValueError) as err:
            call()
        assert time.perf_counter() - started < 1
        assert type(err.value) is ValueError and str(err.value) == text

    @pytest.mark.parametrize("visibility, written", [
        (1.5, "1.5"), (np.float64(1.5), "1.5"), (float("inf"), "inf"),
        (Fraction(3, 2), "Fraction(3, 2)"),
        # not an int or float: True read as 1.0 and left the state unmixed, and the others
        # raised TypeError from the comparison
        (True, "True"), (np.True_, "np.True_"), ("0.5", "'0.5'"), (0.5 + 0j, "(0.5+0j)"),
        (None, "None"),
    ], ids=repr)
    def test_mix_with_noise_writes_a_visibility(self, visibility, written):
        with pytest.raises(ValueError) as err:
            mix_with_noise(H2, visibility)
        assert str(err.value) == f"visibility must lie in [0, 1], got {written}"

    def test_short_scenarios_keep_their_repr(self):
        with pytest.raises(ValueError) as err:
            optimize_phases(BellScenario(3, 2), START, 5)
        assert str(err.value) == (
            "start is for BellScenario(n_parties=2, dimension=2), "
            "the search is for BellScenario(n_parties=3, dimension=2)"
        )


class TestLongArguments:
    @pytest.mark.parametrize("argv, named", [
        (("bound", "--n", "3", "--d", "2", "--partition", "1," * 50_000 + "1/2"),
         "do not partition"),
        (("scan", "--n-range", "x" * 50_000), "range must look like"),
    ], ids=["partition", "n-range"])
    def test_one_short_error_line(self, capsys, argv, named):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and named in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("argv, option", [
        (("bound", "--n", "2", "--d", "2", "--partition", "1/2", "--budget", "9" * 5000),
         "'--budget'"),
        (("violation", "--n", "2", "--d", "2", "--restarts", "9" * 5000), "'--restarts'"),
        (("violation", "--n", "2", "--d", "2", "--seed", "9" * 5000), "'--seed'"),
        (("violation", "--n", "2", "--d", "2", "--angles", "x" * 50_000), "'--angles'"),
        (("violation", "--n", "2", "--d", "2", "--" + "x" * 50_000), "No such option '--xxx"),
    ], ids=["budget", "restarts", "seed", "angles", "unknown-option"])
    def test_click_usage_error_is_clipped(self, capsys, argv, option):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert option in err and "..." in err
        assert len(err.encode()) < 400
