"""Workloads: the eleven Table II benchmarks as assembly generators.

Import from ``repro.workloads.suite``; the package root re-exports
nothing.
"""
