import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stateid import checks, cli
from stateid.cli import main
from stateid.minerr import Priors, max_success_global
from stateid.simulate import check_batch
from stateid.symmetry import check_dims

DIMS_TEXT = "dimensions must be (d,) or (d_a, d_b), each an integer >= 2"


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

    def test_check_names_unique(self, capsys):
        # d_a = d_b: the local dimension's row is reported once
        code, report = run_json(capsys, "dims", "--da", "3", "--db", "3")
        assert code == 0
        names = [row["name"] for row in report["checks"]]
        assert names == ["subspace_dims_sum_d3", "subspace_dims_sum_d9",
                         "split_dimension_identity"]

    def test_rejects_d1(self, capsys):
        assert main(["dims", "--d", "1"]) == 2
        assert capsys.readouterr().err == f"stateid: error: {DIMS_TEXT}, got (1,)\n"

    def test_requires_some_dimension(self, capsys):
        assert main(["dims"]) == 2
        assert capsys.readouterr().err == ("stateid: error: give either --d or both "
                                           "--da and --db\n")

    def test_split_needs_both_parties(self, capsys):
        assert main(["unamb", "--da", "3"]) == 2
        assert capsys.readouterr().err == "stateid: error: --da and --db must be given together\n"

    @pytest.mark.parametrize("argv", [["dims", "--d", "2", "--bogus"],
                                      ["dims", "--d", "2", "--json", "--csv"]])
    def test_parse_errors_stay_argparse_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("usage: stateid")


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
        assert main(["minerr", "--d", "4", "--locc"]) == 2
        assert capsys.readouterr().err == "stateid: error: --locc needs --da and --db\n"

    def test_eta_out_of_range(self, capsys):
        assert main(["minerr", "--d", "2", "--eta1", "1.5"]) == 2
        assert capsys.readouterr().err == ("stateid: error: priors must be nonnegative, "
                                           "got (1.5, -0.5)\n")

    @pytest.mark.parametrize("eta1", ("nan", "inf", "-inf"))
    def test_eta_not_finite(self, capsys, eta1):
        assert main(["minerr", "--d", "2", f"--eta1={eta1}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stateid: error: priors must be finite, got (") and err.count("\n") == 1

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


    @pytest.mark.parametrize("argv", [
        ("--d", "2", "--eta1", "1e-9"),
        ("--d", "2", "--eta1", "1e-9", "--simulate"),
        ("--da", "2", "--db", "2", "--eta1", "1e-9", "--locc"),
        ("--da", "2", "--db", "2", "--eta1", "1e-9", "--locc", "--simulate"),
        ("--da", "2", "--db", "2", "--eta1", "1e-7", "--locc", "--simulate", "--n", "2000"),
        ("--da", "3", "--db", "3", "--eta1", "1e-8", "--locc", "--simulate", "--n", "200"),
        ("--da", "2", "--db", "3", "--eta1", "0.99999999", "--locc", "--simulate", "--n", "500"),
        ("--da", "2", "--db", "2", "--eta1", "1e-12", "--locc", "--simulate", "--n", "2000"),
    ])
    def test_near_degenerate_priors(self, capsys, argv):
        # priors a hair from certainty: lambda+ below any classification band,
        # and the swapped tree at the mirror edge; every check must pass
        code, report = run_json(capsys, "minerr", *argv)
        assert code == 0
        assert all(row["pass"] for row in report["checks"])

    def test_locc_overlap_at_a_tiny_prior(self, capsys):
        # both sides exceed eta2 by p_max - eta2 = 3.75e-13, which the row resolves
        # (the report rounds its values to 12 digits)
        code, report = run_json(capsys, "minerr", "--da", "2", "--db", "2", "--eta1", "1e-12",
                                "--locc")
        assert code == 0
        assert all(row["pass"] for row in report["checks"])
        priors = Priors.from_eta1(1e-12)
        expected = max_success_global(4, priors) - priors.eta2
        row = checks.instance_row(checks.minerr_locc, 2, 2, 1e-12)
        for side in (row["analytic"], row["oracle"]):
            assert abs(side - priors.eta2 - expected) <= 0.01 * expected


def test_memory_error_is_a_usage_error(capsys, monkeypatch):
    # a simulation whose blocks do not fit: one stderr line, exit 2
    def out_of_memory(args):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "unamb", out_of_memory)
    assert main(["unamb", "--da", "5", "--db", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("stateid: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


EDGE_ETA1 = (st.floats(0.0, 1e-15) | st.floats(1.0 - 1e-15, 1.0) | st.just(5e-324))
BAD_PARTY = st.integers(-3, 1)
BAD_ETA1 = (st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-10.0, -5e-324)
            | st.floats(math.nextafter(1.0, 2.0), 10.0))
BAD_COUNT = st.integers(-3, 0)


def rule_text(rule, *args) -> str:
    """The ValueError text of a library rule for args."""
    with pytest.raises(ValueError) as err:
        rule(*args)
    return str(err.value)


@st.composite
def cli_calls(draw, refused: bool = False):
    """(argv, text): minerr or unamb argv over the CLI's own domain, --d up to
    40 and splits up to (6,6), whose checks read no dense operator, priors at
    both edges and subnormal, with or without --locc and a small simulation,
    and text None; or, if refused, the same with one value that a library
    rule refuses (a local dimension, --eta1, --n or --workers), and text that
    rule's message.  A non-integer dimension is argparse's own error, so none
    is drawn."""
    command = draw(st.sampled_from(["minerr", "unamb"]))
    bad = draw(st.sampled_from(["dims", "batch"] + (["priors"] if command == "minerr" else []))
               if refused else st.none())
    if draw(st.booleans()):
        dims = (draw(BAD_PARTY if bad == "dims" else st.integers(2, 40)),)
        argv = [command, f"--d={dims[0]}"]
    else:
        dims = (draw(st.integers(2, 6)), draw(st.integers(2, 6)))
        if bad == "dims":
            dims = draw(st.sampled_from([(draw(BAD_PARTY), dims[1]), (dims[0], draw(BAD_PARTY)),
                                         (draw(BAD_PARTY), draw(BAD_PARTY))]))
        argv = [command, f"--da={dims[0]}", f"--db={dims[1]}"]
    text = rule_text(check_dims, dims) if bad == "dims" else None
    if command == "minerr":
        eta1 = draw(BAD_ETA1 if bad == "priors" else EDGE_ETA1)
        argv.append(f"--eta1={eta1!r}")
        if bad == "priors":
            text = rule_text(Priors.from_eta1, eta1)
        if len(dims) == 2 and draw(st.booleans()):
            argv.append("--locc")
    if bad == "batch" or draw(st.booleans()):
        n, workers = draw(st.integers(1, 300)), 1
        if bad == "batch":
            n, workers = draw(st.sampled_from([(draw(BAD_COUNT), 1), (n, draw(BAD_COUNT))]))
            text = rule_text(check_batch, n, workers)
        argv += ["--simulate", f"--n={n}", "--seed=7", f"--workers={workers}"]
    return argv, text


def run_quietly(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@example(call=(["minerr", "--da=30", "--db=30", "--eta1=0.3", "--locc"], None))
@given(call=cli_calls())
def test_cli_domain_gives_an_answer_or_a_usage_error(call):
    # every call in the domain answers, with every check passed
    code, out, err = run_quietly(call[0])
    assert (code, err) == (0, ""), call[0]
    assert "all checks passed" in out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(call=cli_calls(refused=True))
def test_cli_refuses_a_bad_value_with_the_rule_text(call):
    # exit 2 before any work, with the library rule's text on one stderr line
    argv, text = call
    assert run_quietly(argv) == (2, "", f"stateid: error: {text}\n"), argv


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


class TestRegistry:
    def test_names_unique(self):
        names = [c.name for c in checks.CHECKS if c.name] + [c.grid_name for c in checks.CHECKS]
        assert len(names) == len(set(names))

    def test_verify_all_rows_are_grid_rows(self, capsys):
        _, report = run_json(capsys, "verify-all", "--seed", "7")
        rows = [checks.grid_row(check, 7) for check in checks.CHECKS]
        assert report["checks"] == cli._format_report({"checks": rows})["checks"]

    @pytest.mark.parametrize("d_a, d_b", [(2, 2), (2, 3)])
    @pytest.mark.parametrize("command, eta1", [
        ("dims", None), ("minerr", 0.5), ("minerr", 0.7), ("unamb", None)])
    def test_instance_rows_are_registry_rows(self, capsys, command, eta1, d_a, d_b):
        points = {
            "dims": {checks.split_identity: (d_a, d_b)},
            "minerr": {checks.minerr_dual_route: (d_a * d_b, eta1),
                       checks.minerr_locc: (d_a, d_b, eta1)},
            "unamb": {checks.unamb_global: (d_a * d_b,), checks.unamb_separable: (d_a, d_b),
                      checks.gap: (d_a, d_b)},
        }[command]
        argv = [command, "--da", str(d_a), "--db", str(d_b)]
        if eta1 is not None:
            argv += ["--eta1", str(eta1), "--locc"]
        _, report = run_json(capsys, *argv)
        names = {check.name for check in checks.CHECKS}
        rows = [checks.instance_row(check, *point) for check, point in points.items()]
        assert ([row for row in report["checks"] if row["name"] in names]
                == cli._format_report({"checks": rows})["checks"])


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

    def test_json_deterministic_across_workers(self, capsys, forked):
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
        assert forked, "the --workers 4 batch started no process"

    def test_same_seed_byte_identical(self, capsys):
        argv = ["unamb", "--da", "2", "--db", "2", "--simulate", "--n", "500",
                "--seed", "3", "--json"]
        main(argv)
        out1 = capsys.readouterr().out
        main(argv)
        out2 = capsys.readouterr().out
        assert out1 == out2


def run_module(*argv, **kwargs) -> subprocess.CompletedProcess:
    """python -m stateid argv in a fresh interpreter, on this checkout's src/."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "stateid", *argv], cwd=root,
                          env={**os.environ, "PYTHONPATH": path}, text=True, timeout=60, **kwargs)


def test_module_entry_point():
    proc = run_module("dims", "--d", "2", capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
class TestFullDevice:
    """A report that cannot be written, flushed or closed is a usage error:
    one stderr line and exit 2, not a traceback and exit 1 ("a check failed")."""

    def test_out_on_a_full_device(self):
        proc = run_module("dims", "--d", "2", "--out", "/dev/full", capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr == ("stateid: error: cannot write --out /dev/full: "
                               "No space left on device\n")

    def test_stdout_on_a_full_device(self):
        with open("/dev/full", "w") as full:
            proc = run_module("dims", "--d", "2", "--json", stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stderr == ("stateid: error: cannot write the report to stdout: "
                               "No space left on device\n")
