"""Determinism under injected faults.

The headline invariant of the resilience layer: a fleet perturbed by a
seeded chaos schedule - crashes, hangs, transients, corrupted results -
produces outcomes byte-identical to an unperturbed ``jobs=1`` run,
because recovery only ever re-executes pure functions of the specs'
seeds and ``resume="verify"`` catches the silently wrong results.
"""

import time

import pytest

from repro import obs
from repro.runtime import chaos_schedule, run_fleet, wrap_spec

from .conftest import small_specs

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


@pytest.mark.parametrize("chaos_seed", [1, 2, 3])
def test_seeded_schedule_recovers_identically(chaos_seed, tmp_path,
                                              clean_baseline):
    """Full fault menu under a verifying checkpoint, parallel path."""
    specs = small_specs()
    ckpt = str(tmp_path / "fleet.ckpt")
    run_fleet(specs, jobs=1, checkpoint=ckpt)  # journal to verify against
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    wrapped = chaos_schedule(chaos_seed, specs, str(chaos_dir),
                             hang_s=30.0)
    # A slot-2 fault only fires if slot 1 already failed, so the
    # "something actually happened" guarantee needs a slot-1 fault.
    first_slot = sum(1 for s in wrapped if s.plan and s.plan[0])
    assert first_slot > 0, "schedule injected nothing; pick another seed"
    fleet = run_fleet(wrapped, jobs=2, retries=2, timeout_s=4.0,
                      checkpoint=ckpt, resume="verify",
                      backoff_base=0.01)
    assert fleet.ok
    assert fleet.signatures() == clean_baseline.signatures()
    assert fleet.stats.tests == clean_baseline.stats.tests
    assert fleet.attempts > len(specs)


def test_serial_schedule_recovers_identically(tmp_path, clean_baseline):
    """In-process path (no deadline, capacity 1): transient faults
    only - a crash would take pytest down with it, and without a
    deadline nothing could kill a hang (the deadline tests in
    ``tests/runtime/test_resilience.py`` cover hangs at ``jobs=1``)."""
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    wrapped = chaos_schedule(5, small_specs(), str(chaos_dir),
                             faults=("transient",), fault_rate=1.0)
    fleet = run_fleet(wrapped, jobs=1, retries=2, backoff_base=0.0)
    assert fleet.signatures() == clean_baseline.signatures()
    assert fleet.attempts > 3


def test_hung_worker_killed_within_deadline(tmp_path, clean_baseline):
    """The parallel watchdog kills a hung worker within timeout_s + 1 s.

    Measured from the fleet's own trace: the gap between the hung
    target's ``fleet.submit`` and its ``fleet.timeout`` event.  The
    worker starts executing at submission because the fleet never
    submits more futures than it has workers.
    """
    specs = small_specs()
    hung = specs[1].label()
    specs[1] = wrap_spec(specs[1], ("hang",), str(tmp_path),
                         hang_s=30.0)
    timeout_s = 2.0
    t0 = time.perf_counter()
    with obs.session("chaos-watchdog") as sess:
        fleet = run_fleet(specs, jobs=2, retries=1, timeout_s=timeout_s,
                          backoff_base=0.01)
    elapsed = time.perf_counter() - t0
    events = [r for r in sess.tracer.records if r.get("kind") == "event"]
    submits = [r["t_ns"] for r in events
               if r["name"] == "fleet.submit"
               and r["attrs"]["target"] == hung]
    timeouts = [r["t_ns"] for r in events
                if r["name"] == "fleet.timeout"
                and r["attrs"]["target"] == hung]
    assert timeouts, "watchdog never fired"
    kill_latency = (timeouts[0] - submits[0]) / 1e9
    assert kill_latency <= timeout_s + 1.0
    assert elapsed < 30.0  # the injected hang never ran to completion
    assert fleet.signatures() == clean_baseline.signatures()
    metrics = sess.metrics.to_dict()["counters"]
    assert metrics["proc.fleet.timeouts"] >= 1
    assert metrics["proc.fleet.pool_rebuilds"] >= 1


def test_corruption_caught_by_verify(tmp_path, clean_baseline):
    """A silently corrupted result is detected and healed under
    ``resume="verify"`` - and invisible without it."""
    specs = small_specs()
    ckpt = str(tmp_path / "fleet.ckpt")
    run_fleet(specs, jobs=1, checkpoint=ckpt)
    chaos_dir = tmp_path / "chaos"
    chaos_dir.mkdir()
    wrapped = [wrap_spec(specs[0], ("corrupt",), str(chaos_dir)),
               specs[1], specs[2]]
    with obs.session("chaos-corrupt") as sess:
        fleet = run_fleet(wrapped, jobs=1, retries=1, checkpoint=ckpt,
                          resume="verify", backoff_base=0.0)
    assert fleet.signatures() == clean_baseline.signatures()
    counters = sess.metrics.to_dict()["counters"]
    assert counters["proc.fleet.corrupt_outcomes"] == 1
    assert counters["proc.fleet.verified"] == 3
