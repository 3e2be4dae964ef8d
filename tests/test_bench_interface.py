"""The benchmark's calls into the package, at its smallest: the set-up and
work of one verify unit and one mc-2x2 unit of bench/unit.py, run in this
process at the benchmark's default seed, so that a change to an interface
the benchmark uses fails here first.  Nothing is written to disk."""

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
