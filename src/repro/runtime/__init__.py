"""Parallel fleet-campaign runtime.

The paper characterizes 96 DIMMs from three vendors; this package is
the engine that makes such fleet campaigns cheap in the simulator:

* :mod:`repro.runtime.seeds` - a SHA-256 seed ladder that derives
  every target's randomness from one root seed and the target's
  identity, independent of scheduling;
* :mod:`repro.runtime.specs` - frozen, picklable campaign specs that
  rebuild their chip/module inside any process;
* :mod:`repro.runtime.fleet` - :func:`run_fleet`, fanning specs over
  a ``ProcessPoolExecutor`` with crash recovery, returning outcomes
  byte-identical to the serial path for every ``jobs`` setting.

The original per-cell loops the engine is differentially tested
against are not part of this package: they live in
:mod:`repro._oracle`, which only tests and benchmarks import.  Nor is
fault injection: the chaos suite's crash, hang, corrupt and
device-noise wrappers live with the tests (``tests/chaos/harness.py``)
and install themselves from outside.
"""

from .fleet import FleetExecutionError, FleetResult, run_fleet
from .resilience import (CheckpointJournal, CheckpointMismatch,
                         TargetError, TargetTimeout, backoff_delay,
                         render_degraded)
from .seeds import chip_seed, ladder_seed, module_seed, seed_ladder
from .specs import CampaignOutcome, CampaignSpec

__all__ = [
    "CampaignOutcome", "CampaignSpec", "FleetExecutionError",
    "FleetResult", "run_fleet",
    "CheckpointJournal", "CheckpointMismatch", "TargetError",
    "TargetTimeout", "backoff_delay", "render_degraded",
    "ladder_seed", "chip_seed", "module_seed", "seed_ladder",
]
