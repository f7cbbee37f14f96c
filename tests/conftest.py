"""Shared test fixtures."""

import contextlib
import signal

import pytest


class WallTimeout(BaseException):
    """Raised by the wall-clock guard; not an Exception, so no node catches it."""


@contextlib.contextmanager
def _guard(seconds: float):
    def expire(signum, frame):
        raise WallTimeout(f"still running after {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def wall_clock_guard():
    """``with wall_clock_guard(seconds): ...`` fails a block that runs too long."""
    return _guard
