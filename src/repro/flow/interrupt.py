"""Signal-to-exception bridge so interrupted sweeps exit *settled*.

A plain SIGTERM kills the process between two bytecodes: the sweep
state file stays ``running``, journal intents stay open, and work-claim
leases sit on disk until a peer proves the owner dead or a human runs
``repro-cli recover``.  :class:`InterruptGuard` turns SIGINT/SIGTERM
into a :class:`~repro.errors.SweepInterrupted` exception instead, which
``SweepRunner.run_all`` catches to mark its state ``interrupted``,
abort its open journal intents and release its leases before
re-raising — the CLI then exits with the reserved
:data:`~repro.errors.EXIT_INTERRUPTED` code.

Signal handlers can only be installed from the main thread of the main
interpreter; anywhere else (a sweep started on a helper thread, pool
workers running under their own lifecycle) the guard is a deliberate
no-op and the process's existing disposition stands.
"""

from __future__ import annotations

import os
import signal
import threading

from repro.errors import SweepInterrupted

__all__ = ["InterruptGuard"]


class InterruptGuard:
    """Context manager raising :class:`SweepInterrupted` on SIGINT/SIGTERM.

    Handlers are installed on ``__enter__`` and the previous
    dispositions restored on ``__exit__``, so nesting (a sweep inside a
    larger guarded command) unwinds correctly.  :attr:`installed` tells
    callers whether the guard is live; :attr:`triggered` names the
    signal that fired, if any.
    """

    SIGNALS = (signal.SIGINT, signal.SIGTERM)

    def __init__(self) -> None:
        self._previous: dict[int, object] = {}
        self._pid = os.getpid()
        self.installed = False
        self.triggered: str | None = None

    def _handler(self, signum: int, _frame) -> None:
        if os.getpid() != self._pid:
            # Forked pool workers inherit this handler; they have no
            # sweep state to settle, so restore the default disposition
            # and re-deliver for the quiet death the parent expects.
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        name = signal.Signals(signum).name
        self.triggered = name
        raise SweepInterrupted(name)

    def __enter__(self) -> "InterruptGuard":
        if threading.current_thread() is threading.main_thread():
            try:
                for sig in self.SIGNALS:
                    self._previous[sig] = signal.signal(sig, self._handler)
            except (ValueError, OSError):
                self._restore()  # partial install must not linger
            else:
                self.installed = True
        return self

    def __exit__(self, *_exc) -> None:
        self._restore()

    def _restore(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover - shutdown
                pass
        self._previous = {}
        self.installed = False
