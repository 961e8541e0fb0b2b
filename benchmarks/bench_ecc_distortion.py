"""ECC lens: profile distortion and read-path overhead.

Runs the same seeded characterization campaign three ways - ECC off,
through the on-die SEC-DED lens (``ecc="lens"``), and with BEER-style
recovery (``ecc="recover"``) - then reports how much of the raw
failure profile the lens hides, confirms the recovered profile is
byte-identical to the ECC-off truth, and bounds the cost of the
decode stage: the lens campaign must stay under 1.5x the ECC-off
wall clock, and the recover campaign - BEER inference and validation
included - under 4x.
"""

import time

import pytest

from repro.analysis import format_table
from repro.ecc import EccCampaignSpec, ecc_distortion, format_distortion
from repro.runtime import CampaignSpec

from ._report import report

KW = dict(experiment="characterize", vendor="A", build_seed=7,
          run_seed=2016, n_rows=96, sample_size=1000, run_sweep=True)

MAX_OVERHEAD = 1.5
MAX_RECOVER_OVERHEAD = 4.0


def _timed(spec):
    t0 = time.perf_counter()
    outcome = spec.run()
    return outcome, time.perf_counter() - t0


@pytest.mark.slow
def test_ecc_distortion(benchmark):
    def run_base():
        return _timed(CampaignSpec(**KW))

    base, t_base = benchmark.pedantic(run_base, rounds=1, iterations=1)
    lens, t_lens = _timed(EccCampaignSpec(**KW, ecc="lens"))
    rec, t_rec = _timed(EccCampaignSpec(**KW, ecc="recover"))

    # Recovery is exact: every result-bearing signature field matches.
    assert rec.signature()[1:] == base.signature()[1:]
    dist = ecc_distortion(base, lens)
    assert dist.base_detected > 0
    assert dist.hidden_fraction > 0.5

    ratio_lens = t_lens / t_base if t_base > 0 else 1.0
    ratio_rec = t_rec / t_base if t_base > 0 else 1.0
    assert ratio_lens < MAX_OVERHEAD, (
        f"ECC lens overhead {ratio_lens:.2f}x exceeds {MAX_OVERHEAD}x")
    assert ratio_rec < MAX_RECOVER_OVERHEAD, (
        f"ECC recover overhead {ratio_rec:.2f}x exceeds "
        f"{MAX_RECOVER_OVERHEAD}x")

    timing = format_table(
        ["Configuration", "Wall clock", "vs ECC-off"],
        [["ECC off", f"{t_base:.2f} s", "baseline"],
         ["ECC lens", f"{t_lens:.2f} s", f"{ratio_lens:.2f}x"],
         ["ECC recover (incl. BEER)", f"{t_rec:.2f} s",
          f"{ratio_rec:.2f}x"]])
    table = format_distortion(dist, base.spec.label(), lens.spec.label())
    report("ecc_distortion",
           table + "\n\nrecovered profile: byte-identical to ECC-off\n\n"
           + timing)
