"""End-to-end benchmark of the paper's flow, with per-layer tracing.

``python3 perf/run.py`` is the entry point; see ``perf/README.md``.
"""
