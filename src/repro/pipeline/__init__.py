"""Staged experiment pipeline with content-addressed artifact caching.

Import from the submodules (``repro.pipeline.stages``,
``repro.pipeline.artifacts`` and friends); the package root re-exports
nothing.
"""
