import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_lines_against_a_revision_counts_the_working_tree(capsys):
    # the working-tree column of --against is count() of each module, and
    # the deltas and totals add up
    src_lines = load("src_lines")
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=src_lines.ROOT,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout with a commit")
    src_lines.main(["--against", "HEAD"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[0] == "module"
    table = {name: tuple(map(int, rest)) for name, *rest in map(str.split, rows)}
    modules = sorted(src_lines.PACKAGE.glob("*.py"))
    for module in modules:
        old, new, delta = table[module.name]
        assert new == src_lines.count(module)
        assert delta == new - old
    totals = table.pop("total")
    assert [sum(column) for column in zip(*table.values())] == list(totals)
    assert totals[1] == sum(map(src_lines.count, modules))


def test_a_failing_property_does_not_end_the_session(tmp_path):
    # a failing hypothesis test makes its plugin import a module whose
    # dependencies warn; under the project's warning filters the session
    # still reports the failure and runs the tests after it
    (tmp_path / "test_sample.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    pass\n")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "test_sample.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
