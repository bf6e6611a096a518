import pytest

from deeplin import trainers


@pytest.fixture
def recorder_pool(monkeypatch):
    """``recorder_pool(size)`` gives the recorder a pool of ``size`` threads
    (none for 0) whatever the host's CPU count, starting from no pool.  The
    pool the test creates after that call is shut down after it; a test
    that never calls it leaves the process-wide pool running."""
    forced = []

    def force(size):
        monkeypatch.setattr(trainers, "_pool_size", lambda: size)
        monkeypatch.setattr(trainers, "_POOL", None)
        forced.append(size)

    yield force
    if forced and trainers._POOL is not None:
        trainers._POOL.shutdown()


@pytest.fixture
def exits(monkeypatch):
    """The k of every ``_Recorder.repeat(k)`` call, in order."""
    seen, repeat = [], trainers._Recorder.repeat

    def spy(self, k):
        seen.append(k)
        return repeat(self, k)

    monkeypatch.setattr(trainers._Recorder, "repeat", spy)
    return seen
