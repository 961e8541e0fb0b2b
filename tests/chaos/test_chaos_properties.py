"""Property tests: resume-after-interruption is invisible in the results.

For any chaos seed and any interruption point, journaling the first
``k`` targets, then resuming the fleet under a seeded fault schedule,
yields exactly the signatures of a fresh unperturbed ``jobs=1`` run.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import run_fleet

from .conftest import small_specs
from .harness import chaos_schedule

COMMON = dict(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


@settings(**COMMON)
@given(chaos_seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       interrupted_after=st.integers(min_value=0, max_value=3))
def test_resume_under_chaos_matches_fresh(chaos_seed, interrupted_after,
                                          clean_baseline):
    """Journal ``k`` targets (an interrupted run), chaos-resume the rest."""
    specs = small_specs()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = f"{tmp}/fleet.ckpt"
        interrupted = run_fleet(specs[:interrupted_after], jobs=1,
                                checkpoint=ckpt)
        assert len(interrupted.outcomes) == interrupted_after
        # Serial resume, so "crash" (os._exit takes pytest down) and
        # "hang" (needs a watchdog, wastes wall clock) stay out; the
        # journal holds no entries for the targets still to run, so
        # "corrupt" would go undetected here - the verify-mode property
        # below owns that fault.
        wrapped = chaos_schedule(chaos_seed, specs, tmp,
                                 faults=("transient",))
        resumed = run_fleet(wrapped, jobs=1, retries=2, checkpoint=ckpt,
                            resume=True, backoff_base=0.0)
        assert resumed.checkpoint_hits == interrupted_after
        assert resumed.signatures() == clean_baseline.signatures()
        assert resumed.stats.tests == clean_baseline.stats.tests


@settings(**COMMON)
@given(chaos_seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_verify_resume_heals_corruption(chaos_seed, clean_baseline):
    """With a full journal, verify-mode resume survives corrupt results."""
    specs = small_specs()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = f"{tmp}/fleet.ckpt"
        run_fleet(specs, jobs=1, checkpoint=ckpt)
        wrapped = chaos_schedule(chaos_seed, specs, tmp,
                                 faults=("transient", "corrupt"))
        resumed = run_fleet(wrapped, jobs=1, retries=2, checkpoint=ckpt,
                            resume="verify", backoff_base=0.0)
        assert resumed.checkpoint_hits == 0
        assert resumed.signatures() == clean_baseline.signatures()
