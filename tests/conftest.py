"""A time limit per test: a test still running after TEST_TIME_LIMIT_S
seconds prints every thread's stack and ends the run (``faulthandler``),
so a hang shows where it hangs.  The slowest test takes a few seconds.

The stack goes to a copy of the terminal's stderr, taken when the run is
configured, while pytest's output capture is paused: the stderr a test
sees is the capture's, whose content is lost when the run ends this way."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

TEST_TIME_LIMIT_S = 300
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def _time_limit(request):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
