"""Command-line interface: subcommands, formats, files, exit codes."""

import errno
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quditbell.bounds import Bipartition, BudgetExceededError, bipartitions, hlnhv_bound
from quditbell.cli import _witness_fired, main, run
from quditbell.optimize import cglmp_max_closed_form, optimal_angles, optimize_with_restarts
from quditbell.scenario import BellScenario, bell_value
from conftest import invoke, strategy_delta_table


class TestBoundCommand:
    def test_hlnhv_three_qutrits(self, capsys):
        code, out, _ = invoke(
            capsys, "bound", "--n", "3", "--d", "3", "--model", "hlnhv",
            "--partition", "1,2/3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == "4"
        assert report["bound_float"] == 4.0
        assert report["partition"] == [[1, 2], [3]]
        assert report["strategies_enumerated"] == 3**4 * 3**2
        assert report["elapsed_ms"] >= 0
        assert set(report["witness"]) == {"xi", "zeta"}

    def test_lhv_two_ququarts(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--n", "2", "--d", "4", "--model", "lhv")
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == "2"
        assert report["partition"] is None
        assert report["strategies_enumerated"] == 4**4
        assert set(report["witness"]) == {"party-1", "party-2"}

    def test_budget_exceeded_exit_code(self, capsys):
        code, _, err = invoke(
            capsys, "bound", "--n", "6", "--d", "5",
            "--partition", "1,2,3,4,5/6",
        )
        assert code == 2
        assert "strategies" in err

    @pytest.mark.parametrize("n", [15, 40])
    def test_huge_space_refused_without_forming_it(self, capsys, n):
        # 3^(2 + 2^(n-1)) strategies: the refusal compares exponents
        partition = "1/" + ",".join(map(str, range(2, n + 1)))
        code, out, err = invoke(
            capsys, "bound", "--n", str(n), "--d", "3", "--partition", partition,
        )
        assert code == 2
        assert out == ""
        assert f"3^{2 + 2 ** (n - 1)} strategies" in err
        assert len(err.encode()) < 200

    def test_huge_lhv_space_refused(self, capsys):
        code, _, err = invoke(capsys, "bound", "--n", "5000", "--d", "3", "--model", "lhv")
        assert code == 2
        assert "3^10000 strategies" in err
        assert len(err.encode()) < 200

    def test_budget_env_var(self, capsys, monkeypatch):
        # the budget is set by --budget alone; the environment plays no part
        code, _, err = invoke(
            capsys, "bound", "--n", "2", "--d", "2", "--partition", "1/2",
            "--budget", "10",
        )
        assert code == 2
        assert "budget allows 10" in err
        monkeypatch.setenv("QUDITBELL_BUDGET", "10")
        code, _, _ = invoke(
            capsys, "bound", "--n", "2", "--d", "2", "--partition", "1/2",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "message",
        ["", "Unable to allocate 58.6 GiB for an array with shape (244140625, 6, 5)"],
    )
    def test_out_of_memory_is_resource_error(self, capsys, monkeypatch, message):
        # a budget of thousands of digits admits N=17/d=5 with a 12+5 split,
        # whose 5^12 class rows numpy cannot allocate; nothing is allocated here
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("quditbell.cli.hlnhv_bound", out_of_memory)
        code, out, err = invoke(
            capsys, "bound", "--n", "17", "--d", "5",
            "--partition", "1,2,3,4,5,6,7,8,9,10,11,12/13,14,15,16,17",
            "--budget", str(10**2900),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_budget_below_one_is_input_error(self, capsys):
        for budget in ("-5", "0"):
            code, out, err = invoke(
                capsys, "bound", "--n", "2", "--d", "2", "--partition", "1/2",
                "--budget", budget,
            )
            assert code == 1
            assert out == ""
            assert err == f"error: budget must be a positive integer, got {budget}\n"

    def test_invalid_partition_exit_code(self, capsys):
        code, _, err = invoke(
            capsys, "bound", "--n", "3", "--d", "2", "--partition", "1,2,3",
        )
        assert code == 1
        assert "partition" in err

    def test_missing_partition_for_hlnhv(self, capsys):
        code, _, err = invoke(capsys, "bound", "--n", "3", "--d", "2")
        assert code == 1
        assert "--partition" in err

    def test_small_n_rejected(self, capsys):
        code, _, _ = invoke(capsys, "bound", "--n", "1", "--d", "2", "--model", "lhv")
        assert code == 1

    def test_partition_for_lhv_refused_before_any_work(self, capsys, monkeypatch):
        # the LHV model has no bipartition: a given one is refused, not dropped
        def no_bound(*args, **kwargs):
            pytest.fail("the LHV bound ran despite the refused --partition")

        monkeypatch.setattr("quditbell.cli.lhv_bound", no_bound)
        code, out, err = invoke(
            capsys, "bound", "--n", "3", "--d", "2", "--model", "lhv", "--partition", "1/2,3",
        )
        assert code == 1
        assert out == ""
        assert err == "error: --partition applies to --model hlnhv only\n"


class TestViolationCommand:
    def test_two_qubit_optimal(self, capsys):
        code, out, _ = invoke(capsys, "violation", "--n", "2", "--d", "2")
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert report["witness_fired"] is True
        assert abs(report["difference"]) < 1e-6

    def test_three_qutrit_optimal(self, capsys):
        code, out, _ = invoke(capsys, "violation", "--n", "3", "--d", "3")
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == pytest.approx(
            2 * (12 + 8 * math.sqrt(3)) / 9, abs=1e-6
        )

    def test_zero_angles_match_dense_oracle(self, capsys):
        from quditbell.quantum import PhaseConfiguration, ghz_state, joint_probabilities
        from quditbell.scenario import BellScenario, bell_value

        scen = BellScenario(2, 2)
        expected = bell_value(
            joint_probabilities(ghz_state(scen), PhaseConfiguration.zero(scen))
        )
        code, out, _ = invoke(
            capsys, "violation", "--n", "2", "--d", "2", "--angles", "zero"
        )
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == pytest.approx(expected, abs=1e-9)
        assert report["witness_fired"] is False

    def test_dense_and_closed_form_agree(self, capsys):
        values = {}
        for method in ("dense", "closed-form"):
            code, out, _ = invoke(
                capsys, "violation", "--n", "3", "--d", "2", "--method", method
            )
            assert code == 0
            values[method] = json.loads(out)["bell_value"]
        assert values["dense"] == pytest.approx(values["closed-form"], abs=1e-9)

    def test_dense_over_limit_is_resource_error(self, capsys):
        code, _, err = invoke(
            capsys, "violation", "--n", "13", "--d", "2", "--method", "dense"
        )
        assert code == 2
        assert "closed-form" in err

    def test_dense_refusal_stays_short(self, capsys):
        code, out, err = invoke(
            capsys, "violation", "--n", "1000", "--d", "3", "--method", "dense"
        )
        assert code == 2
        assert out == ""
        assert "3^1000" in err
        assert len(err.encode()) < 200

    def test_dense_refusal_precedes_phase_search(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            pytest.fail("the phase search ran before the dense guard")

        monkeypatch.setattr("quditbell.cli.optimize_with_restarts", no_search)
        code, out, err = invoke(
            capsys, "violation", "--n", "8", "--d", "3", "--method", "dense",
            "--angles", "optimized-free", "--restarts", "1", "--budget", "3000",
        )
        assert code == 2
        assert out == ""
        assert "closed-form" in err

    def test_default_method_builds_no_density_matrix(self, capsys, monkeypatch):
        from quditbell.optimize import optimal_angles
        from quditbell.quantum import ghz_bell_value
        from quditbell.scenario import BellScenario

        def no_dense(*args, **kwargs):
            pytest.fail("the default method took the dense path")

        for name in ("ghz_state", "joint_probabilities"):
            monkeypatch.setattr(f"quditbell.cli.{name}", no_dense)
        code, out, _ = invoke(capsys, "violation", "--n", "2", "--d", "2")
        assert code == 0
        expected = ghz_bell_value(optimal_angles(BellScenario(2, 2)))
        assert json.loads(out)["bell_value"] == float(f"{expected:.10g}")

    def test_auto_method_is_gone(self, capsys):
        code, out, _ = invoke(capsys, "violation", "--n", "2", "--d", "2", "--method", "auto")
        assert code == 1
        assert out == ""

    def test_closed_form_at_thirty_parties(self, capsys):
        # and at 200 and 1024 parties, where the value is near the float range's top
        for n, d in ((30, 3), (200, 5), (1024, 7)):
            code, out, _ = invoke(
                capsys, "violation", "--n", str(n), "--d", str(d), "--method", "closed-form"
            )
            assert code == 0
            report = json.loads(out)
            assert report["bell_value"] == report["closed_form_max"], (n, d)

    def test_largest_float_range_scenario(self, capsys):
        code, out, _ = invoke(capsys, "violation", "--n", "1024", "--d", "2")
        assert code == 0
        report = json.loads(out)
        assert math.isfinite(report["bell_value"])
        assert report["bell_value"] == report["closed_form_max"]
        assert report["witness_fired"] is True

    def test_large_scenario_falls_back_to_closed_form(self, capsys):
        code, out, _ = invoke(capsys, "violation", "--n", "13", "--d", "2")
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == pytest.approx(
            2**11 * 2 * math.sqrt(2), rel=1e-6
        )

    def test_optimized_symmetric_mode(self, capsys):
        code, out, _ = invoke(
            capsys, "violation", "--n", "2", "--d", "2",
            "--angles", "optimized-symmetric", "--restarts", "3",
            "--budget", "3000", "--seed", "5",
        )
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-5)
        assert report["angles_mode"] == "optimized-symmetric"

    def test_optimized_symmetric_mode_reaches_the_maximum_at_n_100(self, capsys):
        # the shared-phase polynomial's coefficients span 30 decades here
        code, out, _ = invoke(
            capsys, "violation", "--n", "100", "--d", "2",
            "--angles", "optimized-symmetric", "--restarts", "1",
        )
        assert code == 0
        report = json.loads(out)
        assert abs(report["difference"]) <= 1e-7 * report["closed_form_max"]

    def test_optimized_symmetric_mode_reaches_the_maximum_at_n_1024(self, capsys):
        # coordinate sweeps alone stopped 4.5e-8 short here; Newton steps end on the maximum
        code, out, _ = invoke(
            capsys, "violation", "--n", "1024", "--d", "2",
            "--angles", "optimized-symmetric", "--restarts", "1",
        )
        assert code == 0
        report = json.loads(out)
        top = report["closed_form_max"]
        assert report["bell_value"] == pytest.approx(top, rel=1e-12, abs=0)
        assert abs(report["difference"]) <= 1e-12 * top

    def test_optimized_mode_reports_its_restarts(self, capsys):
        # the report's value is the best restart's, taken from the search itself
        code, out, _ = invoke(
            capsys, "violation", "--n", "2", "--d", "3", "--angles", "optimized-free",
            "--restarts", "3", "--budget", "3000", "--seed", "5",
        )
        assert code == 0
        report = json.loads(out)
        search = optimize_with_restarts(BellScenario(2, 3), restarts=3, budget=3000, seed=5)
        assert report["restart_values"] == [float(f"{v:.10g}") for v in search.restart_values]
        assert max(report["restart_values"]) == report["bell_value"]
        code, out, _ = invoke(capsys, "violation", "--n", "2", "--d", "3")
        assert "restart_values" not in json.loads(out)

    def test_negative_seed_is_refused_by_name(self, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            pytest.fail("the phase search ran with a negative seed")

        monkeypatch.setattr("quditbell.cli.optimize_with_restarts", no_search)
        code, out, err = invoke(
            capsys, "violation", "--n", "2", "--d", "2", "--angles", "optimized-free",
            "--seed", "-1",
        )
        assert code == 1
        assert out == ""
        assert "'--seed'" in err and "-1" in err

    def test_angles_are_the_phase_array(self, capsys):
        # [party][setting][phase] in radians, the same floats as the configuration
        scen = BellScenario(3, 4)
        code, out, _ = invoke(capsys, "violation", "--n", "3", "--d", "4")
        assert code == 0
        assert json.loads(out)["angles"] == optimal_angles(scen).phases.tolist()
        code, out, _ = invoke(capsys, "violation", "--n", "3", "--d", "4", "--angles", "zero")
        assert code == 0
        assert json.loads(out)["angles"] == [[[0.0] * 4] * 2] * 3


class TestRoundTrip:
    def test_emit_table_then_eval(self, capsys, tmp_path):
        table_path = tmp_path / "table.json"
        code, out, _ = invoke(
            capsys, "violation", "--n", "3", "--d", "2",
            "--emit-table", str(table_path),
        )
        assert code == 0
        emitted = json.loads(out)["bell_value"]

        code, out, _ = invoke(capsys, "eval", str(table_path))
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == pytest.approx(emitted, abs=1e-9)
        assert report["bell_value"] == pytest.approx(4 * math.sqrt(2), abs=1e-6)
        assert report["witness_fired"] is True
        assert len(report["q_values"]) == 8

        from quditbell.optimize import optimal_angles
        from quditbell.quantum import ghz_table
        from quditbell.scenario import BellScenario

        expected = ghz_table(optimal_angles(BellScenario(3, 2)))
        loaded = json.loads(table_path.read_text())
        assert set(loaded["tables"]) == set(expected.scenario.setting_strings())
        for s, row in loaded["tables"].items():
            assert np.array_equal(np.array(row), expected.probs_for(s)), s

    @pytest.mark.parametrize("method", ["closed-form", "dense"])
    def test_emitted_bytes_are_the_json_dump(self, capsys, tmp_path, method):
        # the table is streamed row by row, yet reads exactly as one json.dumps
        from quditbell.optimize import optimal_angles
        from quditbell.quantum import ghz_state, ghz_table, joint_probabilities
        from quditbell.scenario import BellScenario, JointProbabilityTable

        table_path = tmp_path / "table.json"
        code, _, _ = invoke(
            capsys, "violation", "--n", "3", "--d", "3", "--method", method,
            "--emit-table", str(table_path),
        )
        assert code == 0
        text = table_path.read_text()
        loaded = JointProbabilityTable.from_json_dict(json.loads(text))
        assert text == json.dumps(loaded.to_json_dict()) + "\n"
        config = optimal_angles(BellScenario(3, 3))
        if method == "dense":
            expected = joint_probabilities(ghz_state(config.scenario), config)
        else:
            expected = ghz_table(config)
        np.testing.assert_allclose(loaded.rows, expected.rows, rtol=0, atol=1e-15)

    def test_oversized_table_refused_before_any_work(self, capsys, monkeypatch, tmp_path):
        # 2^10 * 3^10 = 6.0e7 entries, past the 2^24 of the largest dense table
        def no_work(*args, **kwargs):
            pytest.fail("work started before the table-size refusal")

        for name in ("ghz_table", "optimize_with_restarts"):
            monkeypatch.setattr(f"quditbell.cli.{name}", no_work)
        table_path = tmp_path / "table.json"
        code, out, err = invoke(
            capsys, "violation", "--n", "10", "--d", "3", "--angles", "optimized-free",
            "--emit-table", str(table_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200
        assert os.listdir(tmp_path) == []

    def test_table_size_boundary(self, capsys, monkeypatch, tmp_path):
        # a limit of 8 admits (2d)^N <= 64 entries: N=3/d=2 and N=2/d=4 but not N=2/d=5;
        # the refusal is ghz_table's own size check
        monkeypatch.setattr("quditbell.quantum.DENSE_DIMENSION_LIMIT", 8)
        for n, d, expected in ((3, 2, 0), (2, 4, 0), (2, 5, 2)):
            table_path = tmp_path / f"table-{n}-{d}.json"
            code, _, _ = invoke(
                capsys, "violation", "--n", str(n), "--d", str(d),
                "--emit-table", str(table_path),
            )
            assert code == expected, (n, d)
            assert table_path.exists() == (expected == 0)


class TestEvalCommand:
    def test_uniform_table(self, capsys, tmp_path):
        d, n = 3, 2
        payload = {
            "n": n,
            "d": d,
            "tables": {
                s: [1 / d**n] * d**n for s in ("11", "12", "21", "22")
            },
        }
        path = tmp_path / "uniform.json"
        path.write_text(json.dumps(payload))
        code, out, _ = invoke(capsys, "eval", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == pytest.approx(0.0, abs=1e-9)
        assert report["witness_fired"] is False

    def test_hybrid_model_on_the_bound_does_not_fire(self, capsys, tmp_path):
        # the least HLNHV witness of 1,2/3,4,5 at d=4 sits exactly on 2^4; a
        # sum of coefficients rounded one by one put it 7.1e-15 above
        scen = BellScenario(5, 4)
        witness = hlnhv_bound(scen, Bipartition.parse("1,2/3,4,5", 5))[1]
        path = tmp_path / "hybrid.json"
        path.write_text(json.dumps(strategy_delta_table(witness, scen).to_json_dict()))
        code, out, _ = invoke(capsys, "eval", str(path))
        assert code == 0
        assert '"bell_value": 16.0,' in out
        assert '"witness_fired": false' in out

    def test_bad_normalization_is_input_error(self, capsys, tmp_path):
        payload = {
            "n": 2,
            "d": 2,
            "tables": {s: [0.125, 0.125, 0.125, 0.125] for s in ("11", "12", "21", "22")},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        code, _, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert "sum" in err

    def test_missing_setting_is_input_error(self, capsys, tmp_path):
        payload = {"n": 2, "d": 2, "tables": {"11": [0.25] * 4}}
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(payload))
        code, _, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert "missing" in err

    def test_many_missing_settings_stay_short(self, capsys, tmp_path):
        path = tmp_path / "empty16.json"
        path.write_text(json.dumps({"n": 16, "d": 2, "tables": {}}))
        code, _, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert "missing" in err
        assert len(err.encode()) < 300

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert "JSON" in err

    def test_nonexistent_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "eval", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("row", [
        ["0.5", "0", "0", "0.5"], [True, False, False, False], [0.5, None, 0.0, 0.5],
    ], ids=["strings", "booleans", "null"])
    def test_non_number_probabilities_are_input_error(self, capsys, tmp_path, row):
        tables = {s: [0.25] * 4 for s in ("11", "12", "21", "22")}
        tables["12"] = row
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({"n": 2, "d": 2, "tables": tables}))
        code, out, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert out == ""
        assert err.endswith("setting 12: probabilities must be numbers\n")

    def test_overflowing_row_sum_is_one_error_line(self, capsys, tmp_path):
        # numpy's overflow warning would print two lines above the error line
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 1, "d": 2, "tables": {"1": [1.7e308, 1.7e308], "2": [0.5, 0.5]}}))
        code, out, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: setting 1: probabilities sum to inf, expected 1\n"

    def test_single_party_table_is_refused(self, capsys, tmp_path):
        # a classical point mass would otherwise "witness" one-party entanglement
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "d": 2, "tables": {"1": [1.0, 0.0], "2": [1.0, 0.0]}}))
        code, out, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert out == ""
        assert err == "error: n must be an integer >= 2, got 1\n"


def test_hybrid_witness_tables_never_fire():
    # the point-mass table of the least witness of every split with N=2..6
    # and d=2..11 that the default budget admits reads exactly 2^(N-1)
    checked = 0
    for n in range(2, 7):
        for d in range(2, 12):
            scen = BellScenario(n, d)
            for part in bipartitions(n):
                try:
                    witness = hlnhv_bound(scen, part)[1]
                except BudgetExceededError:
                    continue
                value = bell_value(strategy_delta_table(witness, scen))
                assert value == 2 ** (n - 1), (n, d, part.describe())
                assert not _witness_fired(value, n)
                checked += 1
    assert checked == 157


class TestScanCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--n-range", "2:2", "--d-range", "2:3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d,hlnhv_bound,max_violation,ratio,v_cr"
        assert len(lines) == 3
        row_d2 = lines[1].split(",")
        row_d3 = lines[2].split(",")
        assert float(row_d2[5]) == pytest.approx(0.7071, abs=1e-4)
        assert float(row_d3[5]) == pytest.approx(0.6962, abs=1e-4)

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--n-range", "2:3", "--d-range", "2:3"),
            ("visibility", "--n", "1000", "--d", "3000"),
        ],
        ids=["scan", "visibility"],
    )
    def test_builds_no_angles(self, capsys, monkeypatch, argv):
        # scan rows and the visibility report need only the maximal value; only
        # violation reports angles
        def no_angles(*args, **kwargs):
            pytest.fail(f"{argv[0]} built the optimal angles")

        for module in ("optimize", "cli"):
            monkeypatch.setattr(f"quditbell.{module}.optimal_angles", no_angles)
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        if argv[0] == "scan":
            assert len(json.loads(out)) == 4
        else:
            assert len(out.encode()) < 1024

    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("csv", "3dfa03072f3728a70f5a17a739ca44244a6c0c926809a080bf8fd28a5bc25d64"),
            ("json", "80e5f59a275da4b90ec56dfdc556728fde381191fa3c62d281c14bb5ce3f4f20"),
        ],
    )
    def test_output_is_that_of_one_closed_form_per_cell(self, capsys, fmt, digest):
        # SHA-256 of the text written when every cell computed its own closed form
        code, out, _ = invoke(
            capsys, "scan", "--n-range", "2:6", "--d-range", "2:40", "--format", fmt
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_v_cr_is_the_exact_sum_rounded(self, capsys):
        # a 40-digit sum gives v_cr = 0.67350500635000006 at d = 1103, where a
        # term-by-term float sum rounds to ...063
        code, out, _ = invoke(
            capsys, "scan", "--n-range", "2:3", "--d-range", "1103:1103", "--format", "csv"
        )
        assert code == 0
        assert [line.split(",")[-1] for line in out.splitlines()[1:]] == ["0.6735050064"] * 2

    def test_json_scaling_column(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--n-range", "2:4", "--d-range", "2:2"
        )
        assert code == 0
        rows = json.loads(out)
        maxima = [row["max_violation"] for row in rows]
        assert maxima == pytest.approx(
            [2 * math.sqrt(2), 4 * math.sqrt(2), 8 * math.sqrt(2)], abs=1e-6
        )

    def test_vcr_monotone_in_dimension(self, capsys):
        code, out, _ = invoke(capsys, "scan", "--n-range", "2:2", "--d-range", "2:8")
        rows = json.loads(out)
        vcrs = [row["v_cr"] for row in rows]
        assert all(b < a for a, b in zip(vcrs, vcrs[1:]))

    def test_empty_grid(self, capsys):
        code, out, _ = invoke(
            capsys, "scan", "--n-range", "3:2", "--d-range", "2:3", "--format", "csv"
        )
        assert code == 0
        assert out == ""
        code, out, _ = invoke(capsys, "scan", "--n-range", "3:2", "--d-range", "2:3")
        assert code == 0
        assert json.loads(out) == []

    def test_bad_range_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "scan", "--n-range", "x:2")
        assert code == 1
        code, _, _ = invoke(capsys, "scan", "--n-range", "1:2")
        assert code == 1
        code, out, err = invoke(capsys, "scan", "--n-range", "2..4")
        assert code == 1
        assert out == ""
        assert "2:4" in err


class TestOutputHandling:
    def test_out_writes_file_atomically(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "visibility", "--n", "2", "--d", "3", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        report = json.loads(out_path.read_text())
        assert report["critical_visibility"] == pytest.approx(0.696, abs=5e-4)
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".quditbell-")]
        assert leftovers == []

    @pytest.fixture
    def umask_022(self):
        umask = os.umask(0o022)
        yield
        os.umask(umask)

    @pytest.mark.parametrize("flag", ["--out", "--emit-table"])
    def test_a_new_file_gets_the_umasks_mode(self, capsys, tmp_path, umask_022, flag):
        # as touch or open would make it, not mkstemp's owner-only 0o600
        target = tmp_path / "new.json"
        code, _, _ = invoke(capsys, "violation", "--n", "2", "--d", "2", flag, str(target))
        assert code == 0
        assert os.stat(target).st_mode & 0o7777 == 0o644

    def test_an_existing_file_keeps_its_mode(self, capsys, tmp_path, umask_022):
        target = tmp_path / "report.json"
        target.write_text("earlier report\n")
        target.chmod(0o640)
        code, _, _ = invoke(capsys, "visibility", "--n", "3", "--d", "3", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["critical_visibility"] > 0
        assert os.stat(target).st_mode & 0o7777 == 0o640

    @pytest.mark.parametrize("flag", ["--out", "--emit-table"])
    def test_unwritable_path_is_one_line_input_error(self, capsys, tmp_path, flag):
        target = str(tmp_path / "missing-dir" / "x.json")
        code, out, err = invoke(capsys, "violation", "--n", "2", "--d", "2", flag, target)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write ") and target in err
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert not (tmp_path / "missing-dir").exists()

    @pytest.mark.parametrize("flag", ["--out", "--emit-table"])
    def test_unwritable_path_refused_before_any_work(self, capsys, monkeypatch, tmp_path, flag):
        def no_work(*args, **kwargs):
            pytest.fail("the phase search ran before the output path was checked")

        monkeypatch.setattr("quditbell.cli.optimize_with_restarts", no_work)
        target = str(tmp_path / "missing-dir" / "x.json")
        code, out, err = invoke(
            capsys, "violation", "--n", "6", "--d", "6", "--angles", "optimized-free",
            flag, target,
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--emit-table"])
    @pytest.mark.parametrize("target", ["dir", "."])
    def test_existing_directory_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, flag, target
    ):
        def no_work(*args, **kwargs):
            pytest.fail("the phase search ran before the output path was checked")

        monkeypatch.setattr("quditbell.cli.optimize_with_restarts", no_work)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        code, out, err = invoke(
            capsys, "violation", "--n", "6", "--d", "6", "--angles", "optimized-free",
            flag, target,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write {target}: Is a directory\n"
        assert os.listdir(tmp_path) == ["dir"] and os.listdir(tmp_path / "dir") == []

    @pytest.mark.parametrize("table", ["same.json", "./same.json", "link.json"])
    def test_out_and_emit_table_on_one_file_refused_before_any_work(
        self, capsys, monkeypatch, tmp_path, table
    ):
        # the report would replace the table, and eval would then fail on the file
        def no_work(*args, **kwargs):
            pytest.fail("the phase search ran before the output paths were compared")

        monkeypatch.setattr("quditbell.cli.optimize_with_restarts", no_work)
        monkeypatch.chdir(tmp_path)
        os.symlink("same.json", "link.json")
        code, out, err = invoke(
            capsys, "violation", "--n", "2", "--d", "2", "--angles", "optimized-free",
            "--out", "same.json", "--emit-table", table,
        )
        assert code == 1
        assert out == ""
        assert err == f"error: --out and --emit-table name the same file: {table}\n"
        assert os.listdir(tmp_path) == ["link.json"]

    def test_failed_rename_is_an_input_error_that_leaves_the_target(
        self, capsys, monkeypatch, tmp_path
    ):
        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied")

        target = tmp_path / "report.json"
        target.write_text("earlier report\n")
        target.chmod(0o640)
        monkeypatch.setattr("quditbell.cli.os.replace", refuse)
        code, out, err = invoke(
            capsys, "visibility", "--n", "2", "--d", "3", "--out", str(target)
        )
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write {target}: Permission denied\n"
        assert os.listdir(tmp_path) == ["report.json"]
        assert target.read_text() == "earlier report\n"
        assert os.stat(target).st_mode & 0o7777 == 0o640

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [
        ("bound", "--n", "2", "--d", "2", "--partition", "1/2"),
        ("violation", "--n", "2", "--d", "2"),
        ("visibility", "--n", "2", "--d", "2"),
        ("eval", "table.json"),
    ], ids=lambda argv: argv[0])
    def test_csv_rejected_outside_scan(self, capsys, argv, fmt):
        # --format exists only on scan
        code, out, err = invoke(capsys, *argv, "--format", fmt)
        assert code == 1
        assert out == ""
        assert "--format" in err

    @pytest.mark.parametrize("argv", [
        ("bound", "--n", "3", "--d", "2", "--partition", "1,2/3"),
        ("violation", "--n", "3", "--d", "2"),
        ("visibility", "--n", "2", "--d", "3"),
        ("scan", "--n-range", "2:3", "--d-range", "2:3"),
        ("scan", "--n-range", "2:3", "--d-range", "2:3", "--format", "csv"),
        ("eval", "table.json"),
    ], ids=["bound", "violation", "visibility", "scan-json", "scan-csv", "eval"])
    def test_out_matches_stdout(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert invoke(capsys, "violation", "--n", "2", "--d", "2",
                      "--emit-table", "table.json")[0] == 0
        code, stdout_report, _ = invoke(capsys, *argv)
        assert code == 0
        code, out, _ = invoke(capsys, *argv, "--out", "report.out")
        assert code == 0
        assert out == ""
        written = (tmp_path / "report.out").read_text()
        if argv[0] == "bound":
            written, stdout_report = json.loads(written), json.loads(stdout_report)
            del written["elapsed_ms"], stdout_report["elapsed_ms"]
        assert written == stdout_report
        assert [p for p in os.listdir(tmp_path) if p.startswith(".quditbell-")] == []

    @pytest.mark.parametrize("argv", [
        ("violation", "--n", "3", "--d", "3", "--angles", "optimized-free"),
        ("violation", "--n", "3", "--d", "3", "--emit-table", "table.json"),
    ], ids=["search", "table"])
    def test_interrupt_is_one_line_and_writes_nothing(self, capsys, monkeypatch, tmp_path, argv):
        # Ctrl-C reaches run() as click's Abort, whichever library call it stopped
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("quditbell.cli.optimize_with_restarts", interrupted)
        monkeypatch.setattr("quditbell.cli.ghz_table", interrupted)
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(capsys, *argv, "--out", "report.json")
        assert code == 1
        assert out == ""
        assert err.split() == ["Aborted!"] and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_unknown_flag_is_input_error(self, capsys):
        code, _, _ = invoke(capsys, "bound", "--frobnicate")
        assert code == 1

    def test_help_exits_clean(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "bound" in out


class TestVisibilityCommand:
    def test_report_fields(self, capsys):
        code, out, _ = invoke(capsys, "visibility", "--n", "4", "--d", "2")
        assert code == 0
        report = json.loads(out)
        assert report["critical_visibility"] == pytest.approx(1 / math.sqrt(2), abs=1e-4)
        assert report["beats_svetlichny"] is False
        assert report["hlnhv_bound"] == 8.0
        assert report["angles_mode"] == "optimal"
        assert "angles" not in report


@pytest.mark.parametrize(
    "argv",
    [("violation", "--n", "3", "--d", "3"), ("visibility", "--n", "3", "--d", "3")],
    ids=["violation", "visibility"],
)
def test_one_closed_form_per_scenario(capsys, monkeypatch, argv):
    calls = []

    def counted(dimension):
        calls.append(dimension)
        return cglmp_max_closed_form(dimension)

    monkeypatch.setattr("quditbell.optimize.cglmp_max_closed_form", counted)
    code, _, _ = invoke(capsys, *argv)
    assert code == 0
    assert calls == [3]


class TestFloatRangeRefusal:
    @pytest.mark.parametrize(
        "argv",
        [
            ("violation", "--n", "1025", "--d", "2", "--angles", "optimized-free"),
            ("visibility", "--n", "1100", "--d", "3"),
            ("scan", "--n-range", "1030:1030", "--d-range", "2:2"),
        ],
        ids=["violation", "visibility", "scan"],
    )
    def test_refused_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args, **kwargs):
            pytest.fail("work started before the float-range refusal")

        # the closed form is the refusal itself; everything after it is work
        for name in ("optimize_with_restarts", "ghz_bell_value", "ghz_table",
                     "joint_probabilities", "optimal_angles"):
            monkeypatch.setattr(f"quditbell.cli.{name}", no_work)
        code, out, err = invoke(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "float range" in err
        assert len(err.encode()) < 200


class TestProcess:
    """`python -m quditbell.cli` as a real process: main() passes run()'s code to exit."""

    @staticmethod
    def python_process(*argv, timeout=120):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        return subprocess.run(
            [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
        )

    @classmethod
    def cli_process(cls, *argv):
        return cls.python_process("-m", "quditbell.cli", *argv)

    def test_import_computes_nothing(self):
        # every CLI process, and every benchmark set-up, pays for work done at import;
        # each functools cache in the package's modules is found by its cache_info
        proc = self.python_process("-c", (
            "import json, sys, quditbell, quditbell.cli\n"
            "caches = {f'{f.__module__}.{f.__qualname__}': f.cache_info().currsize\n"
            "          for name, module in list(sys.modules.items())\n"
            "          if name == 'quditbell' or name.startswith('quditbell.')\n"
            "          for f in vars(module).values() if hasattr(f, 'cache_info')}\n"
            "print(json.dumps(caches))\n"
        ))
        assert proc.returncode == 0, proc.stderr
        caches = json.loads(proc.stdout)
        assert {
            "quditbell.quantum._fourier",
            "quditbell.quantum._ghz_lags",
            "quditbell.quantum._ghz_weights",
            "quditbell.scenario._numerator_operand",
            "quditbell.scenario._numerator_row",
            "quditbell.scenario.all_setting_strings",
            "quditbell.scenario.outcome_sums_mod_d",
        } <= caches.keys()
        assert set(caches.values()) == {0}, caches

    @pytest.mark.parametrize("argv,code", [
        (("visibility", "--n", "2", "--d", "2"), 0),
        (("visibility", "--n", "1", "--d", "2"), 1),
        (("bound", "--n", "2", "--d", "2", "--partition", "1/2", "--budget", "10"), 2),
    ])
    def test_main_exits_with_the_code_of_run(self, capsys, monkeypatch, argv, code):
        # main is the console script's entry point
        assert run(list(argv)) == code
        monkeypatch.setattr(sys, "argv", ["quditbell", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == code

    def test_success_exit_code(self):
        proc = self.cli_process("violation", "--n", "2", "--d", "2")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["bell_value"] == pytest.approx(2 * math.sqrt(2))

    def test_input_error_exit_code(self):
        proc = self.cli_process(
            "bound", "--n", "2", "--d", "2", "--partition", "1/2", "--format", "json"
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        # click prints its usage lines above the one error line
        errors = [line for line in proc.stderr.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and "--format" in errors[0]

    @pytest.mark.parametrize("argv,entries", [
        (("--n", "2", "--d", str(10**8), "--partition", "1/2", "--budget", str(10**33)),
         "40000000000000000"),  # 2 x 10^8 x 2 x 10^8, the class table
        (("--n", "1024", "--d", "3", "--model", "lhv", "--budget", str(3**2048)),
         "1612185600"),  # C(1025, 2) x 1024 x 3, the subset counts
    ], ids=["hlnhv", "lhv"])
    def test_oversized_search_refused_before_allocating(self, argv, entries):
        # under a 2 GiB address-space cap, so that a search which allocates first runs out
        # of memory or of time here instead of taking the machine's memory
        proc = self.python_process("-c", (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from quditbell.cli import main\n"
            "main()\n"
        ), "bound", *argv, timeout=2)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: the search needs {entries} entries, "
                               "over the 16777216 allowed\n")

    def test_large_d_violation_fits_in_one_gib(self):
        # the optimal angles are shared by every party, so no (N+1, d, d) array is built
        proc = self.python_process("-c", (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quditbell.cli import main\n"
            "main()\n"
        ), "violation", "--n", "30", "--d", "1000", timeout=20)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["bell_value"] == pytest.approx(report["closed_form_max"], rel=1e-9)

    def test_large_d_symmetric_search_fits_in_one_gib(self):
        # the search holds (N+1)-row tables: the (N+1, d, d) weights alone would be 496 MB
        proc = self.python_process("-c", (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quditbell.cli import main\n"
            "main()\n"
        ), "violation", "--n", "30", "--d", "1000", "--angles", "optimized-symmetric",
            "--restarts", "1", "--budget", "200", timeout=20)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["restart_values"] == [report["bell_value"]]

    def test_large_free_search_fits_in_one_gib(self):
        # a sweep holds the parties' factors and one partial fold per level: suffix folds
        # for every party, (N+1)^2 d^2 / 2 entries, would be about 800 MB here
        proc = self.python_process("-c", (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from quditbell.cli import main\n"
            "main()\n"
        ), "violation", "--n", "100", "--d", "100", "--angles", "optimized-free",
            "--restarts", "1", "--budget", "5", timeout=20)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["restart_values"] == [report["bell_value"]]

    def test_resource_error_exit_code(self):
        proc = self.cli_process(
            "bound", "--n", "2", "--d", "2", "--partition", "1/2", "--budget", "10"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "budget allows 10" in proc.stderr


def test_readme_cli_block_runs(capsys, monkeypatch, tmp_path):
    # the commands under the README's CLI heading, in order: eval reads the table the
    # line before it writes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("quditbell ")]
    assert len(lines) == 11
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, out, err = invoke(capsys, *shlex.split(line)[1:])
        assert (code, err) == (0, ""), line
        assert out, line
