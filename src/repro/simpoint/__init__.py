"""SimPoint 3.0: random projection, k-means, BIC, point selection.

Import from the submodules (``repro.simpoint.simpoints`` and friends):
the package root re-exports nothing, so loading the selection types
does not load numpy and the clustering stack with them.
"""
