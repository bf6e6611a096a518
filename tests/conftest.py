import pytest

from deeplin import trainers


@pytest.fixture
def recorder_pool(monkeypatch):
    """``recorder_pool(size)`` gives the recorder a pool of ``size`` threads
    (none for 0) whatever the host's CPU count, starting from no pool.  The
    pool the test creates is shut down after it."""

    def force(size):
        monkeypatch.setattr(trainers, "_pool_size", lambda: size)
        monkeypatch.setattr(trainers, "_POOL", None)

    yield force
    if trainers._POOL is not None:
        trainers._POOL.shutdown()
