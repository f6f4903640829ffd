"""Workload generator modules, one per benchmark (``fft`` builds two).

:data:`repro.workloads.suite.WORKLOADS` names each builder by its
``module:function`` path; importing this package loads none of them.
"""
