"""Suite-wide hang watchdog.

A test that runs longer than :data:`WATCHDOG_S` gets every thread's
stack dumped to the terminal's stderr, again every :data:`WATCHDOG_S`
while it keeps running, so a hung run names its test and where each
thread waits.  The watchdog only reports: it never stops the process
or changes a test's outcome.
"""

from __future__ import annotations

import faulthandler
import os

import pytest

#: seconds one test (setup, call and teardown) may run before a dump
WATCHDOG_S = 300

_stderr = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    if not _stderr:
        # Outside setup/call/teardown output capture is suspended, so
        # fd 2 is the real stderr; keep a private copy of it for dumps
        # made while a test's output is being captured.
        _stderr.append(os.fdopen(os.dup(2), "w"))
    faulthandler.dump_traceback_later(WATCHDOG_S, repeat=True,
                                      file=_stderr[0])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


def pytest_unconfigure(config):
    while _stderr:
        _stderr.pop().close()
