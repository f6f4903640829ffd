"""Leveled logging for library code and CLI verbosity plumbing.

Library modules log through the ``repro`` logger hierarchy (for example
``repro.flow.sweep``); nothing in ``src/repro`` outside the CLI/report
modules prints directly.  The CLI installs exactly one stderr handler
via :func:`setup_cli_logging` — user-facing tables stay on stdout,
diagnostics go to stderr — and ``--quiet``/``--verbose`` map onto
standard levels.

Only the sweep parent logs: the scheduler and the sweep runner report
retries, failures and degradations from the parent process, so a
parallel sweep still has one writer on the terminal.
"""

from __future__ import annotations

import logging
import sys
from typing import IO

__all__ = ["setup_cli_logging", "verbosity_level"]

ROOT_LOGGER = "repro"
_HANDLER_TAG = "_repro_cli_handler"
LOG_FORMAT = "%(levelname)s %(name)s: %(message)s"


def verbosity_level(verbose: int = 0, quiet: bool = False) -> int:
    """Map CLI flags to a logging level.

    quiet -> ERROR; default -> WARNING; ``-v`` -> INFO; ``-vv`` -> DEBUG.
    """
    if quiet:
        return logging.ERROR
    if verbose >= 2:
        return logging.DEBUG
    if verbose == 1:
        return logging.INFO
    return logging.WARNING


def setup_cli_logging(verbose: int = 0, quiet: bool = False, *,
                      stream: IO[str] | None = None) -> logging.Logger:
    """Install the single stderr handler on the ``repro`` logger.

    Idempotent: re-invocation replaces the previous CLI handler instead
    of stacking a second one (repeated ``main()`` calls in tests).
    """
    logger = logging.getLogger(ROOT_LOGGER)
    logger.setLevel(verbosity_level(verbose, quiet))
    for handler in list(logger.handlers):
        if getattr(handler, _HANDLER_TAG, False):
            logger.removeHandler(handler)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(LOG_FORMAT))
    setattr(handler, _HANDLER_TAG, True)
    logger.addHandler(handler)
    logger.propagate = False
    return logger
