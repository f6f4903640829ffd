"""Profiling: basic-block discovery and BBV collection (gem5 analogue).

Import from the submodules (``repro.profiling.bbv``,
``repro.profiling.basic_blocks``); the package root re-exports nothing.
"""
