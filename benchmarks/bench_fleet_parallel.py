"""Fleet-campaign runtime: wall-clock and equivalence acceptance.

A 12-chip characterization fleet (4 chips per vendor, seeds from the
SHA-256 ladder) is run three ways:

* **reference** - the original per-cell loops, serial (the seed
  repository's execution path, kept executable in
  :mod:`repro._oracle`);
* **jobs=1** - the optimized engine (vectorized bank verification,
  memoized schedules/batteries), serial;
* **jobs=4** - the optimized engine fanned over 4 worker processes.

The acceptance criteria: all three produce identical outcomes, and
the optimized fleet at ``jobs=4`` is at least 2x faster than the
reference baseline.  On multi-core hosts the parallel fan-out
multiplies the engine speedup further; the guarantee holds even on a
single core because the engine alone clears 2x.
"""

import time

import pytest

from repro._oracle import reference
from repro.analysis import format_table
from repro.runtime import CampaignSpec, chip_seed, run_fleet

from ._report import report

ROOT_SEED = 2016
CHIPS_PER_VENDOR = 4


def _fleet_specs():
    return [
        CampaignSpec(experiment="characterize", vendor=v, index=i + 1,
                     build_seed=chip_seed(ROOT_SEED, v, i, "build"),
                     run_seed=chip_seed(ROOT_SEED, v, i, "run"),
                     n_rows=128, sample_size=2000, run_sweep=False)
        for v in ("A", "B", "C") for i in range(CHIPS_PER_VENDOR)
    ]


@pytest.mark.slow
def test_fleet_parallel_speedup(benchmark):
    specs = _fleet_specs()

    t0 = time.perf_counter()
    with reference():
        ref = run_fleet(specs, jobs=1)
    t_ref = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = run_fleet(specs, jobs=1)
    t_serial = time.perf_counter() - t0

    def fan_out():
        return run_fleet(specs, jobs=4)

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(fan_out, rounds=1, iterations=1)
    t_parallel = time.perf_counter() - t0

    # Byte-identical across engines and jobs settings.
    assert ref.signatures() == serial.signatures()
    assert serial.signatures() == parallel.signatures()
    assert ref.stats.tests == parallel.stats.tests
    assert ref.stats.rows_written == parallel.stats.rows_written
    assert ref.stats.rows_read == parallel.stats.rows_read

    speedup_engine = t_ref / t_serial
    speedup_total = t_ref / t_parallel
    rows = [
        ["reference kernels, serial", f"{t_ref:.2f} s", "1.00x"],
        ["optimized, jobs=1", f"{t_serial:.2f} s",
         f"{speedup_engine:.2f}x"],
        ["optimized, jobs=4", f"{t_parallel:.2f} s",
         f"{speedup_total:.2f}x"],
    ]
    rows.append(["fleet", f"{len(specs)} chips",
                 "identical outcomes on all paths"])
    report("fleet_parallel", format_table(
        ["Configuration", "Wall clock", "Speedup"], rows))

    benchmark.extra_info["speedup_vs_reference"] = speedup_total
    assert speedup_total >= 2.0
