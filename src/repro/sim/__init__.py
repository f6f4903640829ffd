"""Functional simulation: memory, architectural state, executor, syscalls.

Import from the submodules (``repro.sim.executor``, ``repro.sim.batch``
and friends); the package root re-exports nothing, so code that only
reads a result never loads the executor.
"""
