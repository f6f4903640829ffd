"""Profiling: BBV collection over dynamic basic blocks (gem5 analogue).

Import from the submodule (``repro.profiling.bbv``); the package root
re-exports nothing.
"""
