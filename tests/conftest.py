import multiprocessing

import pytest

from stateid import simulate


@pytest.fixture
def forked(monkeypatch):
    """The processes run_batch starts during a test, with a fork floor of one
    trial and four usable CPUs, so that a multi-worker batch forks on any host."""
    monkeypatch.setattr(simulate, "MIN_FORK_CHUNK", 1)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 4)
    starts = []
    start = multiprocessing.context.ForkProcess.start

    def record(proc):
        starts.append(proc)
        start(proc)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", record)
    return starts
