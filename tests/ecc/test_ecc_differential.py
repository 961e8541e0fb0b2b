"""Differential tests: the whole-read ECC paths vs the reference loops.

The on-die ECC lens decodes every word of a read at once, and BEER
groups, classifies and predicts a whole probe round as ``uint64``
masks.  Both must be byte-identical to the per-word and per-slot
loops they replaced, which stay executable in :mod:`repro._oracle`
and are installed by its :func:`~repro._oracle.reference` context
manager.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._oracle import reference
from repro.dram import vendor as vendor_profile
from repro.ecc import (EccCampaignSpec, HammingSecDed, InferredEcc,
                       OnDieEcc, attach_on_die_ecc, infer_ecc,
                       validate_inference)
from repro.ecc.beer import _rref

CODE = HammingSecDed.for_vendor("A", 0)
EXACT = InferredEcc(basis=_rref(int(m) for m in CODE.row_masks)[0])


# -- campaigns ------------------------------------------------------------


def _campaign(mode, monkeypatch):
    """Run one small ECC campaign; return its outcome and ECC stages."""
    stages = []
    prepare = EccCampaignSpec._prepare_chips

    def capture(self, chips):
        prepare(self, chips)
        stages.extend(bank.ecc for chip in chips for bank in chip.banks)

    with monkeypatch.context() as patch:
        patch.setattr(EccCampaignSpec, "_prepare_chips", capture)
        outcome = EccCampaignSpec(
            experiment="characterize", vendor="B", build_seed=3,
            run_seed=103, n_rows=48, sample_size=300, ecc=mode).run()
    return outcome, stages


def _stage_state(stages):
    return [(stage.counts, stage.ambiguous) for stage in stages]


def test_campaigns_identical_to_reference(monkeypatch):
    """Lens and recover campaigns, then every reference ran."""
    ran = {}
    for mode in ("lens", "recover"):
        with reference() as hits:
            ref, ref_stages = _campaign(mode, monkeypatch)
        fast, fast_stages = _campaign(mode, monkeypatch)
        assert ref.signature() == fast.signature(), mode
        assert _stage_state(ref_stages) == _stage_state(fast_stages), mode
        assert any(stage.counts["words"] for stage in fast_stages), mode
        for name, n in hits.items():
            ran[name] = ran.get(name, 0) + n
    idle = sorted(name for name, n in ran.items() if n == 0)
    assert not idle, f"reference loops never ran: {idle}"


# -- BEER inference and validation ------------------------------------------


def _probe_chip(vendor_name):
    code = HammingSecDed.for_vendor(vendor_name, 11)
    chip = vendor_profile(vendor_name).make_chip(seed=12, n_rows=48)
    attach_on_die_ecc(chip, code)
    return chip, code


def _infer_and_validate(vendor_name, corrupt=False):
    chip, code = _probe_chip(vendor_name)
    inferred = infer_ecc(chip, seed=13)
    if corrupt:
        # One basis bit off: still structurally valid, behaviorally
        # wrong, so validation reports mismatches.
        basis = list(inferred.basis)
        basis[0] ^= 1 << 5
        inferred = dataclasses.replace(inferred, basis=tuple(basis))
    report = validate_inference(chip, inferred, seed=14)
    return (code, inferred, report.ok, report.checked, report.mismatches,
            report.reason, chip.banks[0].ecc.counts)


@pytest.mark.parametrize("vendor_name", ["A", "B", "C"])
def test_inference_identical_to_reference(vendor_name):
    with reference() as hits:
        ref = _infer_and_validate(vendor_name)
    fast = _infer_and_validate(vendor_name)
    assert hits["paired_outcomes"] and hits["predict_outcomes"]
    code, inferred, ok, checked = fast[:4]
    assert inferred.ok and inferred.matches(code)
    assert ok and checked > 0
    assert (ref[1].basis, ref[1].relations, ref[1].rounds) == (
        inferred.basis, inferred.relations, inferred.rounds)
    assert ref == fast


def test_wrong_inference_mismatches_identically():
    with reference() as hits:
        ref = _infer_and_validate("A", corrupt=True)
    fast = _infer_and_validate("A", corrupt=True)
    assert hits["predict_outcomes"]
    assert not fast[2] and fast[4] > 0
    assert ref == fast


# -- transform_read on crafted event streams --------------------------------


@st.composite
def reads(draw):
    """A read's event and noise streams over a few small rows.

    Words get 1 to 10 inputs: events with duplicates (XOR cancellation,
    down to fully cancelled words), noise that may overlap an event
    cell, and the streams are interleaved across words.
    """
    words_per_row = draw(st.integers(1, 3))
    n_rows = draw(st.integers(1, 4))
    touched = draw(st.lists(st.integers(0, n_rows * words_per_row - 1),
                            min_size=1, max_size=6, unique=True))
    events, noise = [], []
    for w in touched:
        row, word = divmod(w, words_per_row)
        bits = draw(st.lists(st.integers(0, 63), max_size=4))
        if bits:
            bits += draw(st.lists(st.sampled_from(bits), max_size=3))
        cells = st.integers(0, 63)
        if bits:
            cells = st.one_of(st.sampled_from(bits), cells)
        noise_bits = draw(st.lists(cells, min_size=0 if bits else 1,
                                   max_size=3))
        events += [(row, word * 64 + b) for b in bits]
        noise += [(row, word * 64 + b) for b in noise_bits]
    events = draw(st.permutations(events))
    noise = draw(st.permutations(noise))
    return events, noise, 64 * words_per_row


def _arrays(cells):
    return (np.array([r for r, _ in cells], dtype=np.int64),
            np.array([p for _, p in cells], dtype=np.int64))


def _run(read, recovery):
    events, noise, row_bits = read
    ecc = OnDieEcc(CODE, recovery=recovery)
    out = ecc.transform_read(*_arrays(events), *_arrays(noise), row_bits)
    return out, ecc.counts, ecc.ambiguous


#: One read with every word shape at once (row 0 only): a single input,
#: a detected double, triples, a four-error word, a fully cancelled
#: word, and noise on top of an event cell.
EVERY_SHAPE = (
    [(0, 3), (0, 64 + 1), (0, 64 + 40), (0, 128 + 2), (0, 128 + 9),
     (0, 128 + 17), (0, 192 + 0), (0, 192 + 7), (0, 192 + 30),
     (0, 192 + 51), (0, 256 + 12), (0, 256 + 12), (0, 320 + 5),
     (0, 320 + 5), (0, 320 + 5)],
    [(0, 64 + 40), (0, 384 + 8), (0, 384 + 9), (0, 384 + 10)],
    448)


@pytest.mark.parametrize("recovery", [None, EXACT], ids=["lens", "recover"])
@given(read=reads())
@example(read=EVERY_SHAPE)
@settings(max_examples=150, deadline=None)
def test_transform_read_matches_reference(recovery, read):
    with reference() as hits:
        ref_out, ref_counts, ref_ambiguous = _run(read, recovery)
    assert hits["transform_read"] == 1
    out, counts, ambiguous = _run(read, recovery)
    for got, want in zip(out, ref_out):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
    assert counts == ref_counts
    assert ambiguous == ref_ambiguous


def test_every_word_shape_is_exercised():
    """The fixed example really reaches every decode outcome."""
    _, counts, _ = _run(EVERY_SHAPE, None)
    assert counts["masked"] and counts["detected_words"]
    assert counts["corrected_words"] > 1  # the single plus a correction
    # Seven words, one of them fully cancelled.
    assert counts["words"] == 6


def test_surrendered_word_matches_reference():
    """A word recovery cannot pin down is edited identically."""
    rng = np.random.default_rng(3)
    ecc = OnDieEcc(CODE, recovery=EXACT)
    for _ in range(3000):
        errs = sorted(rng.choice(64, size=4, replace=False).tolist())
        if ecc._recover_word(frozenset(errs))[1]:
            break
    else:
        pytest.skip("no ambiguous 4-error word for this code")
    # The word's fourth error arrives as noise, and a noise cell also
    # lands on an event cell: both of its streams must be dropped.
    read = ([(1, 64 + p) for p in errs[:3]] + [(0, 5), (1, 3), (1, 3)],
            [(1, 64 + errs[3]), (0, 9), (1, 64 + errs[0])], 128)
    with reference():
        ref = _run(read, EXACT)
    fast = _run(read, EXACT)
    assert fast[2] and fast[2] == ref[2]
    assert fast[1] == ref[1]
    for got, want in zip(fast[0], ref[0]):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
