"""Architectural checkpoints — the Spike stage of the paper's flow.

A checkpoint captures the complete architectural state of the hart at a
SimPoint boundary: PC, the 32 integer and 32 FP registers, ``fcsr``, and
every touched memory page.  Loading one into the detailed core (with a
warm-up allowance for the cold caches and branch predictor, §IV-A of the
paper) reproduces execution from that point exactly.

Checkpoints serialize to a compact binary format (magic, header, register
block, zlib-compressed page table) so they can be written to disk like the
paper's Spike-generated checkpoints.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.errors import CheckpointError
from repro.sim.memory import Memory, PAGE_SIZE
from repro.sim.state import ArchState

_MAGIC = b"RVCK"
_VERSION = 1


@dataclass
class Checkpoint:
    """Architectural state at one SimPoint boundary."""

    workload: str
    #: dynamic instruction index at which this state was captured
    instruction_index: int
    #: interval the associated SimPoint represents
    interval_index: int
    #: execution weight of the SimPoint (cluster share)
    weight: float
    #: instructions of warm-up to run before measurement starts
    warmup_instructions: int
    pc: int
    #: exact interval length to measure (None: use the nominal size)
    measure_instructions: int | None = None
    xregs: list[int] = field(default_factory=lambda: [0] * 32)
    fregs_bits: list[int] = field(default_factory=lambda: [0] * 32)
    fcsr: int = 0
    pages: dict[int, bytes] = field(default_factory=dict)

    @classmethod
    def capture(cls, state: ArchState, workload: str, interval_index: int,
                weight: float, warmup_instructions: int,
                previous: Checkpoint | None = None) -> "Checkpoint":
        """Snapshot ``state`` into a new checkpoint.

        A page equal to its copy in ``previous`` (an earlier checkpoint
        of the same run) shares that copy instead of being copied again.
        """
        import struct as _struct

        fregs_bits = [int.from_bytes(_struct.pack("<d", v), "little")
                      for v in state.f]
        return cls(workload=workload,
                   instruction_index=state.retired,
                   interval_index=interval_index,
                   weight=weight,
                   warmup_instructions=warmup_instructions,
                   pc=state.pc,
                   xregs=list(state.x),
                   fregs_bits=fregs_bits,
                   fcsr=state.fcsr,
                   pages=state.memory.snapshot_pages(
                       previous.pages if previous is not None else None))

    def restore(self) -> ArchState:
        """Materialize a fresh :class:`ArchState` from this checkpoint."""
        import struct as _struct

        memory = Memory()
        memory.restore_pages(self.pages)
        state = ArchState(memory)
        state.x = list(self.xregs)
        state.f = [_struct.unpack("<d", bits.to_bytes(8, "little"))[0]
                   for bits in self.fregs_bits]
        state.pc = self.pc
        state.fcsr = self.fcsr
        state.retired = self.instruction_index
        return state

    # ------------------------------------------------------------------
    # binary serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the compact binary checkpoint format."""
        name = self.workload.encode()
        measure = -1 if self.measure_instructions is None \
            else self.measure_instructions
        header = struct.pack(
            "<4sHH q q d q q q I I",
            _MAGIC, _VERSION, len(name),
            self.instruction_index, self.interval_index, self.weight,
            self.warmup_instructions, measure, self.pc, self.fcsr,
            len(self.pages))
        registers = struct.pack("<32Q", *(v & (1 << 64) - 1
                                          for v in self.xregs))
        registers += struct.pack("<32Q", *self.fregs_bits)
        page_blob = bytearray()
        for number in sorted(self.pages):
            page = self.pages[number]
            if len(page) != PAGE_SIZE:
                raise CheckpointError(
                    f"page {number} has size {len(page)}, "
                    f"expected {PAGE_SIZE}")
            page_blob += struct.pack("<Q", number)
            page_blob += page
        compressed = zlib.compress(bytes(page_blob), level=6)
        return (header + name + registers
                + struct.pack("<I", len(compressed)) + compressed)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Checkpoint":
        """Deserialize a checkpoint produced by :meth:`to_bytes`."""
        header_format = "<4sHH q q d q q q I I"
        header_size = struct.calcsize(header_format)
        if len(blob) < header_size:
            raise CheckpointError("checkpoint blob too short")
        (magic, version, name_length, instruction_index, interval_index,
         weight, warmup, measure, pc, fcsr, page_count) = struct.unpack(
            header_format, blob[:header_size])
        if magic != _MAGIC:
            raise CheckpointError("bad checkpoint magic")
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        offset = header_size
        name = blob[offset:offset + name_length].decode()
        offset += name_length
        xregs = list(struct.unpack("<32Q", blob[offset:offset + 256]))
        offset += 256
        fregs_bits = list(struct.unpack("<32Q", blob[offset:offset + 256]))
        offset += 256
        (compressed_length,) = struct.unpack("<I", blob[offset:offset + 4])
        offset += 4
        page_blob = zlib.decompress(blob[offset:offset + compressed_length])
        pages: dict[int, bytes] = {}
        stride = 8 + PAGE_SIZE
        if len(page_blob) != page_count * stride:
            raise CheckpointError("corrupt page table in checkpoint")
        for index in range(page_count):
            base = index * stride
            (number,) = struct.unpack("<Q", page_blob[base:base + 8])
            pages[number] = page_blob[base + 8:base + stride]
        return cls(workload=name, instruction_index=instruction_index,
                   interval_index=interval_index, weight=weight,
                   warmup_instructions=warmup,
                   measure_instructions=None if measure < 0 else measure,
                   pc=pc, xregs=xregs,
                   fregs_bits=fregs_bits, fcsr=fcsr, pages=pages)
