"""Golden-fixture observables for the optimized hot paths.

The superblock executor and the batched-stats core must be *bit-identical*
to the reference implementations: retire streams, BBV vectors, final
architectural state, ``uarch.stats`` counters, and power reports.  The
functions here capture those observables into plain dicts; the fixtures
committed under ``benchmarks/golden/`` were generated from the
pre-optimization tree, so comparing against them pins the optimized paths
to the original semantics — not merely to themselves.

Large observables are stored as sha256 hashes of their canonical JSON
(sorted keys); small ones (retire counts, exit codes, cycles, power
totals) are stored raw so a mismatch is debuggable.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.power.model import PowerModel
from repro.profiling.bbv import BBVProfiler
from repro.sim.executor import Executor
from repro.uarch.config import config_by_name
from repro.uarch.core import BoomCore
from repro.workloads.suite import get_workload

#: pinned generation parameters for the committed fixtures
GOLDEN_SCALE = 0.1
GOLDEN_SEED = 7
CORE_CONFIGS = ("MediumBOOM", "MegaBOOM")
CORE_WARMUP = 2_000
CORE_WINDOW = 6_000
FUNCTIONAL_LIMIT = 5_000_000

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "golden"


def canonical_hash(payload) -> str:
    """sha256 of the canonical JSON encoding of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(workload: str, golden_dir: Path | None = None) -> dict:
    """Read one committed fixture."""
    directory = golden_dir if golden_dir is not None else GOLDEN_DIR
    return json.loads((directory / f"{workload}.json").read_text())


def functional_fixture(program, dispatch: str = "superblock",
                       blocks_out: list | None = None) -> dict:
    """Final architectural state + the dynamic block stream.

    The block stream (every ``control_hook`` invocation, in order) fully
    determines the retire pc stream, so hashing it pins the trace.  Pass
    ``blocks_out`` to also receive the raw ``(start, end)`` pairs.
    """
    blocks: list[tuple[int, int]] = blocks_out if blocks_out is not None \
        else []
    executor = Executor(program, dispatch=dispatch)
    executor.run(max_instructions=FUNCTIONAL_LIMIT,
                 control_hook=lambda start, end: blocks.append((start, end)))
    state = executor.state
    return {
        "retired": state.retired,
        "exited": state.exited,
        "exit_code": state.exit_code,
        "pc": state.pc,
        "x_regs_hash": canonical_hash(list(state.x)),
        "f_regs_hash": canonical_hash(list(state.f)),
        "memory_hash": canonical_hash(
            {str(num): page.hex()
             for num, page in state.memory.snapshot_pages().items()}),
        "output": bytes(state.output).hex(),
        "block_stream_hash": canonical_hash(blocks),
        "block_stream_len": len(blocks),
    }


def retire_pcs_from_blocks(blocks: list[tuple[int, int]]) -> list[int]:
    """Expand a dynamic block stream into the retire pc sequence.

    Dynamic basic blocks are contiguous pc ranges, so their concatenation
    is exactly the per-instruction retire order.
    """
    pcs: list[int] = []
    for start, end in blocks:
        pcs.extend(range(start, end + 4, 4))
    return pcs


def bbv_fixture(workload: str, program, scale: float) -> dict:
    from repro.pipeline.stages import profile_to_dict

    interval = get_workload(workload).interval_for_scale(scale)
    profile = BBVProfiler(interval).profile(program)
    return {
        "interval": interval,
        "num_intervals": profile.num_intervals,
        "num_blocks": profile.num_blocks,
        "total_instructions": profile.total_instructions,
        "profile_hash": canonical_hash(profile_to_dict(profile)),
    }


def core_fixture(workload: str, program) -> dict:
    out = {}
    for config_name in CORE_CONFIGS:
        config = config_by_name(config_name)
        core = BoomCore(config, program)
        core.warm_up(CORE_WARMUP)
        if core.frontend.exited:
            # Too short for a warmup window: measure the whole run.
            core = BoomCore(config, program)
        stats = core.begin_measurement()
        measured = core.run(CORE_WINDOW)
        report = PowerModel(config).report(stats, workload=workload)
        out[config_name] = {
            "measured": measured,
            "cycles": stats.cycles,
            "retired": stats.retired,
            "stats_hash": canonical_hash(stats.to_dict()),
            "power_tile_mw": round(report.tile_mw, 9),
            "power_components_mw": {
                name: round(component.total_mw, 9)
                for name, component in sorted(report.components.items())},
        }
    return out
