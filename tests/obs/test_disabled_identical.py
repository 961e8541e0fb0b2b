"""Tracing must be invisible: traced outcomes == untraced outcomes.

The observability contract (docs/OBSERVABILITY.md) is that enabling
``trace`` changes *what is recorded*, never *what is computed*: the
same seeds produce byte-identical campaign outcomes with tracing on,
off, in-process, or in workers.  The PR-1 goldens already pin the
untraced path; these tests pin traced == untraced.
"""

import dataclasses

from repro import obs
from repro.runtime import CampaignSpec, run_fleet

TINY = dict(n_rows=48, sample_size=400, build_seed=7, run_seed=11)


def _outcome_fingerprint(outcome):
    """Everything result-bearing, including the merged I/O counters."""
    return (outcome.signature(), outcome.stats.tests,
            outcome.stats.rows_written, outcome.stats.rows_read,
            outcome.stats.retention_waits)


def _record_shape(records):
    """Spans and events without their wall-clock fields (the metrics
    snapshot holds timings and ``proc.`` facts; compare it with
    :func:`_deterministic`)."""
    return [{k: v for k, v in r.items() if k not in ("t_ns", "dur_ns")}
            for r in records if r["kind"] != "metrics"]


def _deterministic(metrics):
    """Counters outside the process-local ``proc.`` namespace."""
    return {name: value for name, value in metrics.counters.items()
            if not name.startswith("proc.")}


class TestTracedEqualsUntraced:
    def test_characterize_outcome_identical(self):
        spec = CampaignSpec(experiment="characterize", vendor="A", **TINY)
        base = spec.run()
        traced = dataclasses.replace(spec, trace=True).run()
        assert _outcome_fingerprint(traced) == _outcome_fingerprint(base)
        assert traced.trace_records, "traced run collected nothing"

    def test_compare_outcome_identical(self):
        spec = CampaignSpec(experiment="compare", vendor="B", **TINY)
        base = spec.run()
        traced = dataclasses.replace(spec, trace=True).run()
        assert _outcome_fingerprint(traced) == _outcome_fingerprint(base)
        assert (traced.comparison.parbor_failures
                == base.comparison.parbor_failures)
        assert (traced.comparison.random_failures
                == base.comparison.random_failures)

    def test_in_process_session_identical(self):
        spec = CampaignSpec(experiment="characterize", vendor="C", **TINY)
        base = spec.run()
        with obs.session("t#inproc") as sess:
            joined = spec.run()
        assert _outcome_fingerprint(joined) == _outcome_fingerprint(base)
        # Joined runs record into the caller's session instead of
        # shipping records on the outcome.
        assert joined.trace_records is None
        assert sess.metrics.counter("campaigns") == 1

    def test_fleet_traced_equals_untraced_any_jobs(self):
        base_spec = CampaignSpec(experiment="characterize", vendor="A",
                                 run_sweep=False, **TINY)
        specs = [dataclasses.replace(base_spec, vendor=v)
                 for v in ("A", "B", "C")]
        traced = [dataclasses.replace(s, trace=True) for s in specs]
        plain = run_fleet(specs, jobs=1)
        in_process = run_fleet(traced, jobs=1)
        # jobs=1 with a deadline runs each target in a child process,
        # whose records ship back on the outcome.
        for kwargs in (dict(jobs=1), dict(jobs=2),
                       dict(jobs=1, timeout_s=60.0)):
            fleet = run_fleet(traced, **kwargs)
            assert fleet.signatures() == plain.signatures()
            assert fleet.stats.tests == plain.stats.tests
            assert (_record_shape(fleet.trace_records())
                    == _record_shape(in_process.trace_records()))
            assert (_deterministic(fleet.metrics)
                    == _deterministic(in_process.metrics))

    def test_untraced_run_leaves_no_session(self):
        spec = CampaignSpec(experiment="characterize", vendor="A", **TINY)
        outcome = spec.run()
        assert not obs.enabled()
        assert outcome.trace_records is None
        assert outcome.metrics is None
