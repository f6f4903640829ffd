"""Structural RTL-style power estimation (Cadence Joules analogue).

Import from the submodules (``repro.power.model``, ``repro.power.area``
and friends); the package root re-exports nothing.
"""
