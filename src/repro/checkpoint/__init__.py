"""Architectural checkpointing at SimPoint boundaries (Spike analogue).

Import from the submodules (``repro.checkpoint.creator``,
``repro.checkpoint.store`` and friends); the package root re-exports
nothing.
"""
