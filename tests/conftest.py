import contextlib

import pytest
from hypothesis import settings

from deeplin import trainers

# every property test draws the same examples on every run; each keeps its
# own max_examples
settings.register_profile("deeplin", derandomize=True, deadline=None)
settings.load_profile("deeplin")


@contextlib.contextmanager
def forced_pool(size):
    """Inside, the recorder gets a pool of ``size`` threads (none for 0)
    whatever the host's CPU count, starting from no pool.  On exit the pool
    made inside, if any, is shut down, and the pool and size from before
    come back."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(trainers, "_pool_size", lambda: size)
        m.setattr(trainers, "_POOL", None)
        try:
            yield
        finally:
            if trainers._POOL is not None:
                trainers._POOL.shutdown()


@pytest.fixture
def recorder_pool():
    """``recorder_pool(size)`` enters ``forced_pool(size)`` until the test
    ends; a test that never calls it leaves the process-wide pool running."""
    with contextlib.ExitStack() as stack:
        yield lambda size: stack.enter_context(forced_pool(size))


@pytest.fixture
def exits(monkeypatch):
    """The k of every ``_Recorder.repeat(k)`` call, in order."""
    seen, repeat = [], trainers._Recorder.repeat

    def spy(self, k):
        seen.append(k)
        return repeat(self, k)

    monkeypatch.setattr(trainers._Recorder, "repeat", spy)
    return seen
