"""Tests for the structural power model."""

import pytest

from repro.errors import PowerModelError
from repro.isa.assembler import assemble
from repro.power.area import ANALYZED_COMPONENTS, REST_OF_TILE
from repro.power.model import PowerModel
from repro.power.technology import ASAP7
from repro.uarch.config import LARGE_BOOM, MEDIUM_BOOM, MEGA_BOOM
from repro.uarch.core import BoomCore

EXIT = "li a7, 93\n    ecall"

INT_LOOP = f"""
_start:
    li t0, 3000
loop:
    addi t0, t0, -1
    xor  t1, t1, t0
    add  t2, t2, t1
    bnez t0, loop
    li a0, 0
    {EXIT}
"""

FP_LOOP = f"""
    .data
vals: .double 1.5, 2.5
    .text
_start:
    la t0, vals
    li t1, 1500
loop:
    fld fa0, 0(t0)
    fld fa1, 8(t0)
    fmadd.d fa2, fa0, fa1, fa2
    fsd fa2, 8(t0)
    addi t1, t1, -1
    bnez t1, loop
    li a0, 0
    {EXIT}
"""


def stats_for(source, config=MEGA_BOOM, warmup=2000, measure=4000):
    core = BoomCore(config, assemble(source))
    core.run(warmup)
    stats = core.begin_measurement()
    core.run(measure)
    return stats


@pytest.fixture(scope="module")
def int_stats():
    return stats_for(INT_LOOP)


@pytest.fixture(scope="module")
def fp_stats():
    return stats_for(FP_LOOP)


def test_report_covers_all_components(int_stats):
    report = PowerModel(MEGA_BOOM).report(int_stats, workload="int")
    assert set(report.components) == \
        set(ANALYZED_COMPONENTS) | {REST_OF_TILE}


def test_all_power_terms_nonnegative(int_stats):
    report = PowerModel(MEGA_BOOM).report(int_stats)
    for name, power in report.components.items():
        assert power.leakage_mw >= 0, name
        assert power.internal_mw >= 0, name
        assert power.switching_mw >= 0, name


def test_tile_equals_component_sum(int_stats):
    report = PowerModel(MEGA_BOOM).report(int_stats)
    assert report.tile_mw == pytest.approx(
        sum(c.total_mw for c in report.components.values()))


def test_analyzed_share_below_one(int_stats):
    report = PowerModel(MEGA_BOOM).report(int_stats)
    assert 0.3 < report.analyzed_share < 1.0


def test_empty_window_rejected():
    from repro.uarch.stats import CoreStats

    with pytest.raises(PowerModelError):
        PowerModel(MEGA_BOOM).report(CoreStats())


def test_fp_program_raises_fp_component_power(int_stats, fp_stats):
    model = PowerModel(MEGA_BOOM)
    int_report = model.report(int_stats)
    fp_report = model.report(fp_stats)
    assert fp_report.components["fp_issue"].total_mw > \
        int_report.components["fp_issue"].total_mw
    assert fp_report.components["fp_regfile"].switching_mw > \
        int_report.components["fp_regfile"].switching_mw


def test_fp_regfile_static_floor_in_int_code(int_stats):
    """Key Takeaway #2: Mega's FP RF burns power even without FP ops."""
    mega = PowerModel(MEGA_BOOM).report(int_stats)
    floor = mega.components["fp_regfile"].total_mw
    assert floor > 0.3
    assert mega.components["fp_regfile"].switching_mw == \
        pytest.approx(0.0, abs=1e-9)


def test_fp_rename_active_in_int_code(int_stats):
    """Key Takeaway #3: branches snapshot the FP rename unit."""
    report = PowerModel(MEGA_BOOM).report(int_stats)
    assert report.components["fp_rename"].total_mw > 0.3


def test_leakage_independent_of_activity(int_stats, fp_stats):
    model = PowerModel(MEGA_BOOM)
    a = model.report(int_stats)
    b = model.report(fp_stats)
    for name in ANALYZED_COMPONENTS:
        assert a.components[name].leakage_mw == \
            pytest.approx(b.components[name].leakage_mw)


def test_issue_slot_power_matches_queue_size(int_stats):
    report = PowerModel(MEGA_BOOM).report(int_stats)
    assert len(report.int_issue_slot_mw) == MEGA_BOOM.int_iq_entries
    assert all(value >= 0 for value in report.int_issue_slot_mw)


def test_wider_config_burns_more_power():
    """Same kernel: the tile total grows with machine aggressiveness."""
    totals = []
    for config in (MEDIUM_BOOM, LARGE_BOOM, MEGA_BOOM):
        stats = stats_for(INT_LOOP, config=config)
        totals.append(PowerModel(config).report(stats).tile_mw)
    assert totals[0] < totals[1] < totals[2]


def test_gshare_predictor_cheaper_than_tage():
    """Key Takeaway #7 at the model level."""
    tage_stats = stats_for(INT_LOOP, config=MEGA_BOOM)
    gshare_config = MEGA_BOOM.with_predictor("gshare")
    gshare_stats = stats_for(INT_LOOP, config=gshare_config)
    tage = PowerModel(MEGA_BOOM).report(tage_stats)
    gshare = PowerModel(gshare_config).report(gshare_stats)
    ratio = tage.components["branch_predictor"].total_mw / \
        gshare.components["branch_predictor"].total_mw
    assert 1.5 < ratio < 5.0


def test_format_table_mentions_all_components(int_stats):
    text = PowerModel(MEGA_BOOM).report(int_stats).format_table()
    for name in ANALYZED_COMPONENTS:
        assert name in text
    assert "tile total" in text


def test_technology_card_defaults():
    assert ASAP7.clock_hz == 500e6
    assert ASAP7.cycle_seconds == pytest.approx(2e-9)
    assert 0 < ASAP7.idle_clock_fraction < 1
