"""Chaos: a corrupted BEER inference must degrade fail-closed.

Both fault kinds - a zeroed syndrome row (caught structurally) and a
single flipped matrix bit (caught only behaviorally, on held-out
probes) - must trip the inference gate.  The campaign then runs
through the distorted lens but every detection is quarantined
``"ecc-unrecovered"`` and the verdicts are capped: corrupted inference
may cost coverage, never produce a wrong definite verdict.  The
campaign-level faults are installed from outside by
:func:`.harness.ecc_fault`; the spec itself has no fault field.
"""

import pytest

from repro.ecc import (EccCampaignSpec, HammingSecDed,
                       attach_on_die_ecc, infer_ecc,
                       validate_inference)
from repro.dram import vendor
from repro.ecc import spec as ecc_spec
from repro.robust.integrity import EccInferenceError, check_ecc_inference
from repro.runtime import ladder_seed

from .harness import ECC_FAULT_KINDS, corrupt_inferred_ecc, ecc_fault

KW = dict(experiment="characterize", vendor="A", build_seed=7,
          run_seed=2016, n_rows=48, sample_size=500)


@pytest.fixture(scope="module")
def inference():
    code = HammingSecDed.for_vendor("A", 7)
    chip = vendor("A").make_chip(
        seed=ladder_seed(7, "ecc", "probe-chip"), n_rows=48)
    attach_on_die_ecc(chip, code)
    inferred = infer_ecc(chip, seed=ladder_seed(0, "beer", "A"))
    assert inferred.matches(code)
    return chip, inferred


class TestFaultDetection:
    def test_stuck_syndrome_caught_structurally(self, inference):
        _, inferred = inference
        bad = corrupt_inferred_ecc(inferred, "stuck-syndrome", seed=1)
        assert not bad.structurally_valid()

    def test_wrong_matrix_caught_behaviorally(self, inference):
        chip, inferred = inference
        bad = corrupt_inferred_ecc(inferred, "wrong-matrix", seed=1)
        # A single flipped bit keeps the basis full-rank...
        assert bad.structurally_valid()
        # ...so only held-out behavioral validation can catch it.
        report = validate_inference(
            chip, bad, seed=ladder_seed(0, "beer", "validate", "A"))
        assert not report.ok
        assert report.mismatches > 0

    def test_corruption_is_deterministic(self, inference):
        _, inferred = inference
        for kind in ECC_FAULT_KINDS:
            a = corrupt_inferred_ecc(inferred, kind, seed=5)
            b = corrupt_inferred_ecc(inferred, kind, seed=5)
            assert a.basis == b.basis
            assert a.basis != inferred.basis

    def test_unknown_kind_rejected(self, inference):
        _, inferred = inference
        with pytest.raises(ValueError):
            corrupt_inferred_ecc(inferred, "bit-rot", seed=0)


class TestGate:
    def test_strict_gate_raises(self, inference):
        chip, inferred = inference
        bad = corrupt_inferred_ecc(inferred, "wrong-matrix", seed=2)
        report = validate_inference(
            chip, bad, seed=ladder_seed(0, "beer", "validate", "A"))
        with pytest.raises(EccInferenceError):
            check_ecc_inference(report, strict=True)
        assert check_ecc_inference(report, strict=False) is False

    def test_clean_report_passes(self, inference):
        chip, inferred = inference
        report = validate_inference(
            chip, inferred, seed=ladder_seed(0, "beer", "validate", "A"))
        assert check_ecc_inference(report, strict=True) is True


@pytest.mark.parametrize("fault", ECC_FAULT_KINDS)
class TestDegradedCampaign:
    def test_fails_closed_never_wrong(self, fault):
        with ecc_fault(fault):
            with pytest.raises(RuntimeError, match="already injected"):
                with ecc_fault(fault):
                    pass
            outcome = EccCampaignSpec(**KW, rounds=2, ecc="recover").run()
        assert ecc_spec.infer_ecc is infer_ecc  # restored on exit
        verdicts = outcome.result.verdicts
        assert verdicts.degraded
        # No definite verdicts survive a corrupted inference...
        assert verdicts.definite() == set()
        # ...and every lens-view detection is quarantined, visibly.
        assert len(outcome.detected) > 0
        for cell in outcome.detected:
            assert outcome.quarantine.reasons[cell] == "ecc-unrecovered"
