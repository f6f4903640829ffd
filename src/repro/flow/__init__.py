"""The end-to-end experimental flow (paper Figs. 3 and 4).

The flow is a composition of content-addressed pipeline stages
(:mod:`repro.pipeline.stages`).  Import from the submodules
(``repro.flow.experiment``, ``repro.flow.sweep``, ``repro.flow.report``
and friends): the package root re-exports nothing, so a warm report
does not load the design-space exploration or the compute stack.
"""
