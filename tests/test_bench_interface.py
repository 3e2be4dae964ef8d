"""The benchmark's calls into the package, at its smallest: the set-up and
work of one verify unit and one mc-2x2 unit of bench/unit.py, run in this
process at the benchmark's default seed, and those units and an mc-3x3 unit
traced in a fresh interpreter, so that a change to an interface the
benchmark uses, or that its spans wrap, fails here first.  Nothing is
written to disk."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import unit  # noqa: E402


@pytest.mark.parametrize("workload", ["verify", "mc-2x2"])
def test_unit_runs_clean(workload):
    # mc-2x2 gates each batch's counts against bench/expected_counts.json
    unit.import_stateid()
    run = unit.Unit(workload, unit.DEFAULT_SEED, 1)
    if workload == "verify":
        run.setup_verify()
        run.work_verify()
    else:
        run.setup_mc()
        run.work_mc()
        assert run.trials == sum(n for *_, n in unit.BATCHES[workload])
    assert run.attempted > 0
    assert (run.problems, run.failed) == ([], 0)


@pytest.mark.parametrize("workload", ["verify", "mc-2x2", "mc-3x3"])
def test_traced_unit_runs_clean(workload):
    # the spans wrap package names by attribute and the trial sample calls
    # spec.run, neither of which the untraced unit reaches; they wrap a
    # spec's run only where its own class defines it, so a run moved to a
    # shared base would leave the trial layer empty without an error
    proc = subprocess.run(
        [sys.executable, str(BENCH / "unit.py"), "--workload", workload,
         "--seed", str(unit.DEFAULT_SEED), "--trace"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["problems"], result["failed"]) == ([], 0)
    layers = result["per_layer"]
    assert result["attempted"] > 0 and layers
    if workload != "verify":
        assert layers["simulate.walk_us"] > 0
    if workload == "mc-2x2":
        assert layers["simulate.trial_samples"] == 1200
        assert layers["simulate.steps_per_trial"] == 2.875
