"""The BOOM-like out-of-order cycle model in three configurations.

Import from the submodules (``repro.uarch.config``, ``repro.uarch.core``
and friends); the package root re-exports nothing, so reading a
configuration does not load the cycle model.
"""
