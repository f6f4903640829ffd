"""Exception hierarchy and failure taxonomy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at a flow boundary.  Sub-hierarchies mirror the
package layout (ISA, simulation, SimPoint, power, checks, the sweep
scheduler).

The sweep's supervised scheduler additionally needs to know whether a
failed task is worth *retrying*.  :func:`classify_failure` partitions
exceptions into two kinds:

``transient``
    Environmental failures that a retry can plausibly fix: a crashed or
    OOM-killed worker process (``BrokenProcessPool``), I/O errors while
    reading or writing artifacts, and corrupt cached artifacts (which
    recompute on the next attempt).  Derive from :class:`TransientError`
    to opt an exception into this class.

``permanent``
    Deterministic model errors — a :class:`SimulationError`, a
    :class:`ConfigError`, an assertion in the power model.  Re-running
    the same seeded, deterministic computation reproduces them exactly,
    so the scheduler records them and moves on instead of burning
    retries.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor

#: the two failure kinds :func:`classify_failure` distinguishes
TRANSIENT = "transient"
PERMANENT = "permanent"


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IsaError(ReproError):
    """Problems with instruction definitions, encodings, or operands."""


class AssemblerError(IsaError):
    """Malformed assembly source: unknown mnemonic, bad operand, missing label."""

    def __init__(self, message: str, line_number: int | None = None) -> None:
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class SimulationError(ReproError):
    """Runtime faults in the functional or detailed simulator."""


class MemoryFault(SimulationError):
    """Unaligned or out-of-range memory access the model does not permit."""

    def __init__(self, address: int, message: str) -> None:
        self.address = address
        super().__init__(f"{message} (address 0x{address:x})")


class IllegalInstruction(SimulationError):
    """Fetched a word that does not decode, or executed an unsupported op."""


class SimPointError(ReproError):
    """Bad inputs or degenerate data in the SimPoint selection pipeline."""


class CheckpointError(ReproError):
    """Checkpoint creation, serialization, or restore failed."""


class ConfigError(ReproError):
    """Inconsistent or out-of-range microarchitectural configuration."""


class PowerModelError(ReproError):
    """Structural power model was given inconsistent areas or activities."""


class CheckError(ReproError):
    """A :mod:`repro.check` validator found an inconsistency.

    Deterministic by construction (the checkers read model state and
    recompute conservation laws), so the failure class is *permanent*:
    re-running reproduces the violation until the underlying bug is
    fixed.
    """


class InvariantViolation(CheckError):
    """A runtime conservation law failed inside the detailed core."""

    def __init__(self, invariant: str, message: str,
                 cycle: int | None = None) -> None:
        self.invariant = invariant
        self.cycle = cycle
        where = f" at cycle {cycle}" if cycle is not None else ""
        super().__init__(f"invariant {invariant!r} violated{where}: "
                         f"{message}")


class DifferentialMismatch(CheckError):
    """Functional and detailed execution diverged from one checkpoint."""


class TransientError(ReproError):
    """Environmental failure a retry can plausibly fix (I/O, lost worker).

    Deriving from this class opts an exception into the scheduler's
    retry-with-backoff path; everything else raised by the model is
    treated as deterministic and permanent.
    """


class CorruptArtifactError(TransientError):
    """A cached artifact failed to decode; recomputing replaces it."""


class ResultValidationError(CorruptArtifactError):
    """A decoded artifact parsed fine but failed semantic validation.

    Raised at the result *load* boundary (see
    :func:`repro.check.validators.validate_result`): a skewed artifact —
    valid JSON carrying impossible values — is treated exactly like a
    torn one: discarded and recomputed.  The same validation failure on
    a freshly *computed* result raises :class:`CheckError` instead,
    because recomputing a deterministic model reproduces it.
    """


class LockTimeoutError(TransientError):
    """A cross-process file lock could not be acquired in time.

    Lock holders are live processes (fcntl locks die with their owner),
    so waiting out a slow peer and retrying is the right response —
    hence *transient*.
    """

    def __init__(self, path: str, timeout: float) -> None:
        self.path = path
        self.timeout = timeout
        super().__init__(f"could not lock {path} within {timeout:g}s")


class LeaseTimeoutError(TransientError):
    """Waited too long for a work-claim winner to publish its artifact.

    The holder was alive the whole time (dead holders are reclaimed
    immediately), just slower than the wait budget; a retry will either
    find the finished artifact or claim the lease itself.
    """

    def __init__(self, what: str, timeout: float) -> None:
        self.what = what
        self.timeout = timeout
        super().__init__(f"gave up waiting {timeout:g}s for {what}")


class SchedulerError(ReproError):
    """Supervised sweep scheduler misuse or unrecoverable breakdown."""


class SweepInterrupted(SchedulerError):
    """SIGINT/SIGTERM arrived mid-sweep; state was settled before exit.

    Raised by the signal handlers :class:`repro.flow.interrupt`
    installs around ``run_all``: the sweep marks its state
    ``interrupted``, aborts its open journal intents and releases its
    work-claim leases before re-raising, so ``--resume`` is immediately
    trustworthy without a ``repro-cli recover`` pass.  The CLI maps it
    to :data:`EXIT_INTERRUPTED`.
    """

    def __init__(self, signal_name: str = "SIGINT") -> None:
        self.signal_name = signal_name
        super().__init__(f"interrupted by {signal_name}")


#: exception types retried by the supervised scheduler.  ``OSError``
#: covers the whole I/O family (disk, pipes, timeouts — ``TimeoutError``
#: is an ``OSError`` subclass); ``BrokenExecutor`` covers crashed /
#: OOM-killed process-pool workers; ``EOFError`` covers torn pickle
#: streams from a dying worker.
_TRANSIENT_TYPES = (TransientError, BrokenExecutor, OSError, EOFError,
                    ConnectionError)


def classify_failure(exc: BaseException) -> str:
    """Partition a task failure into ``transient`` vs ``permanent``.

    Transient failures are worth retrying with backoff; permanent ones
    are deterministic model errors that would recur on every attempt.
    """
    return TRANSIENT if isinstance(exc, _TRANSIENT_TYPES) else PERMANENT


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
#
# Every ``repro-cli`` invocation exits through this vocabulary, so
# wrappers (CI, the smoke scripts, shell pipelines) can branch on *why*
# a command stopped without scraping stderr:
#
# 0/1/2/3 predate the taxonomy handler and keep their meanings; the
# rest are reserved here so subcommands cannot drift apart.

EXIT_OK = 0
#: a check/takeaway/accuracy evaluation ran fine but *failed*
EXIT_CHECK_FAILED = 1
#: bad usage or unusable inputs (argparse also exits 2)
EXIT_USAGE = 2
#: the sweep completed but degraded (failures/timeouts in the manifest)
EXIT_DEGRADED = 3
#: SIGINT/SIGTERM mid-run; lifecycle state was settled before exit
EXIT_INTERRUPTED = 4
#: an uncaught *permanent* taxonomy error (deterministic model failure)
EXIT_PERMANENT = 5
#: an uncaught *transient* taxonomy error (environment; a rerun may pass)
EXIT_TRANSIENT = 6
#: an exception outside the taxonomy escaped a subcommand (a bug here)
EXIT_INTERNAL = 70


def exit_code_for(exc: BaseException) -> int:
    """The reserved exit code for an exception escaping a subcommand."""
    if isinstance(exc, (SweepInterrupted, KeyboardInterrupt)):
        return EXIT_INTERRUPTED
    if isinstance(exc, (ReproError,) + _TRANSIENT_TYPES):
        return (EXIT_TRANSIENT if classify_failure(exc) == TRANSIENT
                else EXIT_PERMANENT)
    return EXIT_INTERNAL
