"""Tests for leveled logging."""

import logging

from repro.obs.logs import setup_cli_logging, verbosity_level


def test_verbosity_levels():
    assert verbosity_level(quiet=True) == logging.ERROR
    assert verbosity_level() == logging.WARNING
    assert verbosity_level(1) == logging.INFO
    assert verbosity_level(2) == logging.DEBUG


def test_setup_cli_logging_idempotent_single_handler():
    first = setup_cli_logging(verbose=1)
    second = setup_cli_logging(verbose=0)
    assert first is second
    tagged = [h for h in second.handlers
              if getattr(h, "_repro_cli_handler", False)]
    assert len(tagged) == 1
