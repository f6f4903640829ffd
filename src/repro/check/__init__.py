"""Cross-layer correctness tooling: invariants, differential runs, validators.

The paper's conclusions stand on two models — the cycle-level core and the
structural power model — and this package continuously proves them
self-consistent (DESIGN.md §10):

``repro.check.invariants``
    Conservation laws checked inside the detailed core while it runs
    (free-list totals, occupancy bounds, port budgets).  Opt-in via
    ``--check`` / ``REPRO_CHECK=1``; zero overhead when off.

``repro.check.differential``
    The fast functional executor re-runs the same checkpoint and the two
    architectural states are diffed, with first-divergence reporting.

``repro.check.validators``
    Semantic checks on power reports and experiment results (powers
    non-negative, weighted sums consistent, strictly finite JSON), applied
    at the sweep's artifact load/save boundaries.

``repro.check.runner``
    The ``repro-cli check`` entry point: runs all of the above against one
    (workload, config) pair and reports pass/fail.

``repro.check.storage``
    Consistency audit of the cache's concurrency metadata — intent
    journals, work-claim leases, stray scratch files, sweep state and
    the ``obs/latest`` pointer (``repro-cli recover --check``).

The package root holds only the ``REPRO_CHECK`` switch; import the
tools from their submodules.
"""

from __future__ import annotations

import os

#: environment switch for runtime invariant checking; inherited by sweep
#: worker processes, so ``--check`` reaches parallel runs without touching
#: the cache fingerprint (checked runs produce byte-identical artifacts).
CHECK_ENV = "REPRO_CHECK"

_FALSY = frozenset({"", "0", "false", "no", "off"})


def checks_enabled() -> bool:
    """True when runtime invariant checking is switched on."""
    return os.environ.get(CHECK_ENV, "").strip().lower() not in _FALSY


def set_checks_enabled(enabled: bool) -> None:
    """Flip the ``REPRO_CHECK`` switch for this process and its children."""
    if enabled:
        os.environ[CHECK_ENV] = "1"
    else:
        os.environ.pop(CHECK_ENV, None)

