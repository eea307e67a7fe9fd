"""Fixtures shared by every test module."""

import signal

import pytest

# Seconds a single test may run.  The slowest test takes a few seconds; a
# fault that keeps a PPT-mixer solve from converging makes it run to the
# solver's iteration cap, which takes minutes per solve.
TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    """Fail a test that runs past ``TIME_LIMIT_S``, with the traceback of
    where it was, on platforms that have ``SIGALRM``; elsewhere no limit."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"{request.node.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
