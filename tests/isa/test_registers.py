"""Unit tests for register naming and ABI aliases."""

import pytest

from repro.errors import IsaError
from repro.isa.registers import (
    FREG_ABI_NAMES,
    freg_index,
    is_freg_name,
    is_xreg_name,
    NUM_FREGS,
    NUM_XREGS,
    XREG_ABI_NAMES,
    xreg_index,
)


def test_numeric_names_map_to_indices():
    for index in range(NUM_XREGS):
        assert xreg_index(f"x{index}") == index
    for index in range(NUM_FREGS):
        assert freg_index(f"f{index}") == index


def test_abi_aliases():
    assert xreg_index("zero") == 0
    assert xreg_index("ra") == 1
    assert xreg_index("sp") == 2
    assert xreg_index("a0") == 10
    assert xreg_index("a7") == 17
    assert xreg_index("t6") == 31
    assert xreg_index("fp") == xreg_index("s0") == 8


def test_fp_abi_aliases():
    assert freg_index("ft0") == 0
    assert freg_index("fa0") == 10
    assert freg_index("fs0") == 8
    assert freg_index("ft11") == 31


def test_round_trip_canonical_names():
    for index, name in enumerate(XREG_ABI_NAMES):
        assert xreg_index(name) == index
    for index, name in enumerate(FREG_ABI_NAMES):
        assert freg_index(name) == index


def test_predicates():
    assert is_xreg_name("a5")
    assert not is_xreg_name("fa5")
    assert is_freg_name("fa5")
    assert not is_freg_name("a5")
    assert not is_xreg_name("x32")


def test_unknown_names_raise():
    with pytest.raises(IsaError):
        xreg_index("r7")
    with pytest.raises(IsaError):
        freg_index("f32")
