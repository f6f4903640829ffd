"""Analysis: tables, figure series, takeaway checks, efficiency summaries.

Import from the submodules (``repro.analysis.tables``,
``repro.analysis.figures`` and friends); the package root re-exports
nothing.
"""
