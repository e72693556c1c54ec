"""Command-line interface: subcommands, formats, files, exit codes."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from quditbell.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, _ = invoke(
            capsys, "violation", "--n", "30", "--d", "3", "--method", "closed-form"
        )
        assert code == 0
        report = json.loads(out)
        assert report["bell_value"] == report["closed_form_max"]

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
        # a limit of 8 admits (2d)^N <= 64 entries: N=3/d=2 and N=2/d=4 but not N=2/d=5
        monkeypatch.setattr("quditbell.cli.DENSE_DIMENSION_LIMIT", 8)
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

    def test_single_party_table_is_refused(self, capsys, tmp_path):
        # a classical point mass would otherwise "witness" one-party entanglement
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "d": 2, "tables": {"1": [1.0, 0.0], "2": [1.0, 0.0]}}))
        code, out, err = invoke(capsys, "eval", str(path))
        assert code == 1
        assert out == ""
        assert "need at least 2 parties" in err


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

    def test_builds_no_angles(self, capsys, monkeypatch):
        # a scan row needs only the maximal value; the angles belong to visibility
        def no_angles(*args, **kwargs):
            pytest.fail("scan built the optimal angles")

        monkeypatch.setattr("quditbell.optimize.optimal_angles", no_angles)
        code, out, _ = invoke(capsys, "scan", "--n-range", "2:3", "--d-range", "2:3")
        assert code == 0
        assert len(json.loads(out)) == 4

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

    @pytest.mark.parametrize("flag", ["--out", "--emit-table"])
    def test_unwritable_path_is_one_line_input_error(self, capsys, tmp_path, flag):
        target = str(tmp_path / "missing-dir" / "x.json")
        code, out, err = invoke(capsys, "violation", "--n", "2", "--d", "2", flag, target)
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot write ") and target in err
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert not (tmp_path / "missing-dir").exists()

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
        assert "angles" in report


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

        for name in ("optimize_with_restarts", "critical_visibility", "ghz_bell_value"):
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
    def cli_process(*argv):
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run(
            [sys.executable, "-m", "quditbell.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

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

    def test_resource_error_exit_code(self):
        proc = self.cli_process(
            "bound", "--n", "2", "--d", "2", "--partition", "1/2", "--budget", "10"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "budget allows 10" in proc.stderr
