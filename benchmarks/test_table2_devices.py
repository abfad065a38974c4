"""Table II: the FPGA boards used for evaluation.

Regenerates the device catalog and checks the BSP-reservation shares the
paper reports (about 25% of the Stratix resources are reserved).
"""

from repro.fpga.device import ARRIA10, DEVICES, STRATIX10

from bench_common import print_table


def _rows():
    rows = []
    for dev in (ARRIA10, STRATIX10):
        rows.append((dev.name, "Total", f"{dev.total.alms // 1000} K",
                     f"{dev.total.ffs / 1e6:.1f} M",
                     f"{dev.total.m20ks / 1000:.1f} K", dev.total.dsps,
                     f"{dev.dram_banks}x{dev.dram_bank_bytes // 10**9}GB"))
        rows.append((dev.name, "Avail.", f"{dev.available.alms // 1000} K",
                     f"{dev.available.ffs / 1e6:.1f} M",
                     f"{dev.available.m20ks / 1000:.1f} K",
                     dev.available.dsps, ""))
    return rows


def test_table2_regeneration():
    print_table("Table II: FPGA boards",
                ["FPGA", "", "ALM", "FF", "M20K", "DSP", "DRAM"], _rows())
    # The Stratix BSP reserves roughly 25% of the device (Sec. VI-A).
    frac = 1 - STRATIX10.available.alms / STRATIX10.total.alms
    assert 0.2 < frac < 0.3
    # DSPs: 4468 of 5760 available on Stratix; all 1518 on Arria.
    assert STRATIX10.available.dsps == 4468
    assert ARRIA10.available.dsps == 1518
    # Stratix has twice the DDR modules of Arria.
    assert STRATIX10.dram_banks == 2 * ARRIA10.dram_banks


def test_catalog_is_complete():
    # The paper's two boards plus the HBM-class U280 of the placement
    # model (repro.fpga.memory).
    assert set(DEVICES) == {"arria10", "stratix10", "u280"}


def test_bench_catalog(benchmark):
    benchmark(_rows)
