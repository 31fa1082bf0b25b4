"""A watchdog over every test.

A test that runs longer than TEST_TIMEOUT_S seconds ends the whole run with
exit status 1, after the tracebacks of all threads are written to stderr, so
that a hang fails at once rather than waiting for a CI job's time limit.
"""

import faulthandler
import os

import pytest

#: the slowest test takes ~6 s on 2 vCPUs; this leaves room for slower hosts and -X dev
TEST_TIMEOUT_S = 120

_stderr = None


def pytest_configure(config):
    # a duplicate of stderr, made while pytest does not capture it: during a
    # test, fd 2 is pytest's capture file, whose contents a hard exit loses
    global _stderr
    _stderr = os.fdopen(os.dup(2), "w")
    config.add_cleanup(_stderr.close)


@pytest.fixture(autouse=True)
def _watchdog():
    faulthandler.dump_traceback_later(TEST_TIMEOUT_S, exit=True, file=_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
