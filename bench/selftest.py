"""Self-tests of the benchmark itself (not part of the repository's test suite).

    python3 -m pytest bench/selftest.py -q

They run each workload once at its shortest (one unit) in both modes, and
check that the Monte Carlo output gate trips on a wrong count.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import unit  # noqa: E402


def declared(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def bench(workload: str, trace: int, seed: int = unit.DEFAULT_SEED) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mc-2x2", "mc-3x3", "verify"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    code, lines = bench(workload, trace)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, unit_name in want.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit_name}")
                   for line in lines), name
    if not trace:
        assert any(line.startswith("failed_share = ") for line in lines)
        assert any(line.startswith("trials_per_s = ") for line in lines) == (workload != "verify")
    assert lines[0].startswith("provenance: ")


def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*"):
        if path.is_file():
            (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def recorded_batch():
    """The first mc-2x2 batch run at the default seed, with its recorded counts."""
    unit.import_stateid()
    from stateid import simulate

    name, task, dims, eta1, n = unit.BATCHES["mc-2x2"][0]
    spec, target = unit.make_spec(task, dims, eta1)
    stats = simulate.run_batch(spec, n, unit.DEFAULT_SEED, workers=1)
    counts = (stats.successes, stats.errors, stats.inconclusive)
    return name, task, counts, n, target, unit.load_expected()[name]


def test_output_gate_passes_the_recorded_counts(recorded_batch):
    name, task, counts, n, target, recorded = recorded_batch
    assert unit.gate_batch(name, task, counts, n, target, recorded) == []


def test_output_gate_trips_on_a_corrupted_expected_count(recorded_batch):
    name, task, counts, n, target, recorded = recorded_batch
    wrong = [recorded["counts"][0] + 1, recorded["counts"][1] - 1, recorded["counts"][2]]
    problems = unit.gate_batch(name, task, counts, n, target, {"n": n, "counts": wrong})
    assert len(problems) == 1 and "differ from the recorded" in problems[0]


def test_output_gate_trips_on_a_wrong_rate_and_on_errors():
    assert unit.gate_batch("b", "minerr", (500, 500, 0), 1000, 0.7165)
    assert unit.gate_batch("b", "unamb", (237, 1, 762), 1000, 0.2375)
    assert unit.gate_batch("b", "minerr", (700, 299, 0), 1000, 0.7)
