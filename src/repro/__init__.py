"""repro — SimPoint-based microarchitectural hotspot & energy-efficiency
analysis of RISC-V out-of-order CPUs.

A from-scratch Python reproduction of the ISPASS 2024 paper by
Chatzopoulos et al.: an RV64 functional simulator, basic-block-vector
profiling, SimPoint phase selection, architectural checkpointing, a
SonicBOOM-like out-of-order cycle model in three configurations, an
ASAP7-style structural power model, and the full experimental flow that
regenerates every table and figure of the paper's evaluation.

Quickstart::

    from repro.flow.experiment import run_experiment
    from repro.uarch.config import MEDIUM_BOOM

    result = run_experiment("sha", MEDIUM_BOOM)
    print(result.ipc, result.power_report.total_mw)
"""

__version__ = "1.0.0"
