import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stateid import cli
from stateid.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


class TestDims:
    def test_single_dimension(self, capsys):
        code, report = run_json(capsys, "dims", "--d", "3")
        assert code == 0
        assert report["values"]["d3_sym3"] == 10
        assert report["values"]["d3_antisym3"] == 1
        assert report["values"]["d3_mixed3"] == 16
        assert report["passed"] is True

    def test_split_identity(self, capsys):
        code, report = run_json(capsys, "dims", "--da", "2", "--db", "2")
        assert code == 0
        names = [row["name"] for row in report["checks"]]
        assert "split_dimension_identity" in names
        row = report["checks"][names.index("split_dimension_identity")]
        assert row["diff"] == 0 and row["pass"]

    def test_rejects_d1(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dims", "--d", "1"])
        assert err.value.code == 2

    def test_requires_some_dimension(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["dims"])
        assert err.value.code == 2


class TestMinerr:
    def test_global_qubits(self, capsys):
        code, report = run_json(capsys, "minerr", "--d", "2", "--eta1", "0.5")
        assert code == 0
        assert abs(report["values"]["p_max"] - 0.6443375672974064) < 1e-9
        for row in report["checks"]:
            assert row["pass"] and row["diff"] < 1e-9

    def test_locc_check(self, capsys):
        code, report = run_json(capsys, "minerr", "--da", "2", "--db", "2",
                                "--eta1", "0.3", "--locc")
        assert code == 0
        names = [row["name"] for row in report["checks"]]
        assert "locc_overlap_vs_global_overlap" in names

    def test_locc_with_reversed_priors(self, capsys):
        code, report = run_json(capsys, "minerr", "--da", "2", "--db", "2",
                                "--eta1", "0.7", "--locc")
        assert code == 0

    def test_simulation_block(self, capsys):
        code, report = run_json(capsys, "minerr", "--d", "2", "--eta1", "0.5",
                                "--simulate", "--n", "2000", "--seed", "7")
        assert code == 0
        mc = report["monte_carlo"]
        assert mc["n_trials"] == 2000
        assert mc["successes"] + mc["errors"] + mc["inconclusive"] == 2000

    def test_baseline_value(self, capsys):
        code, report = run_json(capsys, "minerr", "--d", "2", "--eta1", "0.3",
                                "--baseline")
        assert report["values"]["baseline_no_measurement"] == 0.7

    def test_locc_requires_split(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["minerr", "--d", "4", "--locc"])
        assert err.value.code == 2

    def test_eta_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["minerr", "--d", "2", "--eta1", "1.5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("eta1", ("nan", "inf", "-inf"))
    def test_eta_not_finite(self, capsys, eta1):
        with pytest.raises(SystemExit) as err:
            main(["minerr", "--d", "2", "--eta1", eta1])
        assert err.value.code == 2

    def test_simulation_gate_on_exact_result(self, capsys):
        # a certain prior makes every trial succeed: p_hat is exactly 1 while
        # the closed form rounds to 1 - 1e-16, so the gate needs a nonzero stderr
        code, report = run_json(capsys, "minerr", "--d", "2", "--eta1", "1",
                                "--simulate", "--n", "2000", "--seed", "7")
        assert report["monte_carlo"]["p_hat"] == 1.0
        assert code == 0
        row = next(r for r in report["checks"] if r["name"] == "monte_carlo_within_4_sigma")
        assert row["pass"]

    @pytest.mark.parametrize("argv", [
        ("--eta1", "0", "--locc"),
        ("--eta1", "1", "--locc", "--simulate", "--n", "2000", "--seed", "7"),
    ])
    def test_locc_at_degenerate_priors(self, capsys, argv):
        # a certain prior needs no measurement: a one-leaf tree, a trivial element
        code, report = run_json(capsys, "minerr", "--da", "2", "--db", "2", *argv)
        assert code == 0
        assert all(row["pass"] for row in report["checks"])
        if report["monte_carlo"]:
            assert report["monte_carlo"]["successes"] == 2000


class TestUnamb:
    def test_two_qubit_split(self, capsys):
        code, report = run_json(capsys, "unamb", "--da", "2", "--db", "2")
        assert code == 0
        assert report["values"]["p_max_global"] == 0.25
        assert report["values"]["p_max_locc"] == 0.2375
        assert report["values"]["gap"] == 0.0125

    def test_qubit_qutrit(self, capsys):
        code, report = run_json(capsys, "unamb", "--da", "2", "--db", "3")
        assert code == 0
        assert abs(report["values"]["p_max_global"] - 5 / 18) < 1e-9
        assert abs(report["values"]["p_max_locc"] - 11 / 42) < 1e-9

    def test_global_only(self, capsys):
        code, report = run_json(capsys, "unamb", "--d", "3")
        assert code == 0
        assert "p_max_locc" not in report["values"]

    def test_simulation_has_zero_errors(self, capsys):
        code, report = run_json(capsys, "unamb", "--da", "2", "--db", "2",
                                "--simulate", "--n", "1500", "--seed", "7")
        assert code == 0
        assert report["monte_carlo"]["errors"] == 0

    def test_baseline_is_zero(self, capsys):
        code, report = run_json(capsys, "unamb", "--d", "2", "--baseline")
        assert report["values"]["baseline_no_measurement"] == 0.0


class TestVerifyAll:
    def test_all_pass(self, capsys):
        code, report = run_json(capsys, "verify-all")
        assert code == 0
        assert report["passed"] is True
        names = {row["name"] for row in report["checks"]}
        assert {"toolkit_identities_d2_to_d6", "split_dimension_identity_grid",
                "minerr_dual_route_grid", "minerr_locc_equality_grid",
                "unamb_global_grid", "unamb_separable_grid",
                "no_error_acceptance", "gap_strict_grid"} <= names

    def test_check_schema(self, capsys):
        _, report = run_json(capsys, "verify-all")
        for row in report["checks"]:
            assert set(row) == {"name", "analytic", "oracle", "diff", "pass"}


@pytest.mark.parametrize("argv", [
    ("minerr", "--d", "2", "--simulate", "--n", "10", "--seed", "-1"),
    ("verify-all", "--seed", "-1"),
])
def test_negative_seed_is_a_usage_error(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--seed" in captured.err


class TestOutput:
    def test_csv_rows(self, capsys):
        code, out = run_cli(capsys, "dims", "--d", "2", "--csv")
        lines = out.strip().splitlines()
        assert lines[0] == "name,analytic,oracle,diff,pass"
        assert len(lines) == 2

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["dims", "--d", "2", "--json", "--out", str(path)])
        assert code == 0
        report = json.loads(path.read_text())
        assert report["command"] == "dims"

    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "no" / "such" / "dir" / "report.json"
        code = main(["dims", "--d", "2", "--out", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(path) in err

    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_fails_before_any_work(self, tmp_path, capsys, monkeypatch, where):
        def never(args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, "verify-all", never)
        path = tmp_path / "no" / "report.json" if where == "missing-dir" else tmp_path
        code = main(["verify-all", "--out", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and str(path) in err
        assert list(tmp_path.iterdir()) == []

    def test_text_mentions_result(self, capsys):
        code, out = run_cli(capsys, "unamb", "--d", "2")
        assert "all checks passed" in out

    def test_json_deterministic_across_workers(self, capsys):
        argv = ["minerr", "--da", "2", "--db", "2", "--eta1", "0.5", "--locc",
                "--simulate", "--n", "1000", "--seed", "13", "--json"]
        code1 = main(argv + ["--workers", "1"])
        out1 = capsys.readouterr().out
        code4 = main(argv + ["--workers", "4"])
        out4 = capsys.readouterr().out
        assert code1 == code4 == 0
        r1, r4 = json.loads(out1), json.loads(out4)
        r1["config"].pop("workers"), r4["config"].pop("workers")
        assert r1 == r4

    def test_same_seed_byte_identical(self, capsys):
        argv = ["unamb", "--da", "2", "--db", "2", "--simulate", "--n", "500",
                "--seed", "3", "--json"]
        main(argv)
        out1 = capsys.readouterr().out
        main(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2


def test_module_entry_point():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "stateid", "dims", "--d", "2"],
                          cwd=root, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
