"""RV64IM+FD instruction set: registers, encodings, assembler, programs.

Import from the submodules (``repro.isa.assembler``,
``repro.isa.program`` and friends); the package root re-exports nothing.
"""
