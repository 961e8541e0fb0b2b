"""The on-die ECC stage of the bank read path.

Modern DRAM corrects internally before data ever reaches the pins:
every retention read passes through a per-word SEC-DED decode, so a
system-level test observes the *post-correction* view.  Single-bit
data-dependent failures vanish (masking), multi-bit failures can flip
a previously-healthy bit (miscorrection), and the profile PARBOR
builds is a distorted image of the substrate.

:class:`OnDieEcc` implements that stage as a pure transform over the
sparse raw error set of a retention read.  Three modeling notes keep
it exact and cheap (full rationale in ``docs/ECC.md``):

* **Check bits never decay.**  The stored check byte is modeled as
  error-free, so the received syndrome is a pure function of the
  data-bit error pattern and the stage never needs to materialise
  check-bit storage.  Words without raw errors decode clean and are
  skipped entirely.
* **Word = 64 data bits.**  The stage requires ``row_bits`` to be a
  multiple of 64 so every packed substrate word is exactly one ECC
  dataword (all vendor geometries satisfy this).
* **Recovery is a read-time probe pair.**  The BEER-recovered mode
  models each retention observation as three system-level read passes
  - plain, and with a forced read-time corruption at in-word bits 0
  and 1 (the union semantics of :class:`repro.dram.faults` noise:
  written data, and hence the data-dependent failure pattern, is
  untouched).  The pre-correction error set is then re-derived by
  candidate inversion against *all three* observations, using only
  the inferred parity-check matrix.  Any word whose pre-image is not
  unique is surrendered to quarantine, never guessed.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

import numpy as np

from .. import obs
from .._kernels import popcount, unpack_rows
from .secded import (CLEAN, CORRECTED, CORRECTED_CHECK, DETECTED,
                     HammingSecDed, decode_with_tables)

__all__ = ["OnDieEcc", "attach_on_die_ecc"]

#: Forced read-time corruption positions of the recovery probe passes:
#: one plain pass plus one companion pass per low in-word bit.
COMPANION_PASSES = (frozenset(), frozenset({0}), frozenset({1}))


def _bit_masks(phys: np.ndarray) -> np.ndarray:
    """The ``uint64`` in-word mask of each physical cell."""
    return np.uint64(1) << (phys & 63).astype(np.uint64)


class OnDieEcc:
    """Per-bank on-die SEC-DED stage over the packed word substrate.

    Args:
        code: the chip's true :class:`HammingSecDed` instance, or None
            for the *null code* (0 check bits): the stage is attached
            and the read path runs its collapse plumbing, but the
            transform is the identity - the differential gate proving
            the threading itself changes nothing rides on this.
        recovery: optional BEER inference result (an object exposing
            ``tables() -> (columns, lookup)``, see
            :class:`repro.ecc.beer.InferredEcc`).  When present the
            stage runs in *recovery* mode and un-distorts each read
            back to the raw error set; when absent it runs in *lens*
            mode and returns the distorted post-correction view.
    """

    def __init__(self, code: Optional[HammingSecDed],
                 recovery: Optional[object] = None) -> None:
        self.code = code
        self.recovery = recovery
        self._rec_tables = recovery.tables() if recovery is not None else None
        #: (row, phys) cells recovery could not uniquely invert; the
        #: detector drains these into the campaign quarantine.
        self.ambiguous: Set[Tuple[int, int]] = set()
        self.counts = {"words": 0, "masked": 0, "miscorrections": 0,
                       "corrected_words": 0, "detected_words": 0,
                       "undetected": 0, "recovered_words": 0,
                       "ambiguous_cells": 0}
        self._flushed = dict(self.counts)

    def transform(self, rows: np.ndarray, phys: np.ndarray,
                  row_bits: int) -> Tuple[np.ndarray, np.ndarray]:
        """Map a physical error *set* to the post-stage cell set.

        Thin wrapper over :meth:`transform_read` for callers that hold
        each erroneous cell exactly once and carry no forced-noise
        coordinates (tests, analysis).  The bank's read path calls
        :meth:`transform_read` directly with the raw event stream.
        """
        empty = np.empty(0, dtype=np.int64)
        out_rows, out_phys, _, _ = self.transform_read(
            rows, phys, empty, empty, row_bits)
        return out_rows, out_phys

    def transform_read(self, rows: np.ndarray, phys: np.ndarray,
                       noise_rows: np.ndarray, noise_phys: np.ndarray,
                       row_bits: int
                       ) -> Tuple[np.ndarray, np.ndarray,
                                  np.ndarray, np.ndarray]:
        """Map one read's raw flip events + noise to the observed view.

        ``rows``/``phys`` are flip *events* (XOR semantics - the same
        cell may appear several times and an even count cancels);
        ``noise_rows``/``noise_phys`` are forced-corruption cells
        (union semantics).  The physical error set of each 64-bit word
        is the odd-count event cells unioned with its noise cells.

        Lens mode replaces each word's inputs with the decoded
        post-correction cell set (each cell once, no noise).  Recovery
        mode is **event-preserving**: a word whose pre-image is
        recovered exactly passes its raw events and noise through
        *verbatim* - order, multiplicity and the event/noise split
        included - so a fully recovered read is byte-identical to the
        ECC-off channel for every downstream consumer.  Only words the
        inversion cannot pin down are edited: their inputs are
        dropped, the provably-real cells are emitted once each, and
        the uncertain cells land in :attr:`ambiguous` for quarantine.
        """
        if self.code is None or (not len(rows) and not len(noise_rows)):
            return rows, phys, noise_rows, noise_phys
        if row_bits % 64:
            raise ValueError("on-die ECC needs row_bits % 64 == 0")
        n_words = np.int64(row_bits >> 6)
        rows = rows.astype(np.int64, copy=False)
        phys = phys.astype(np.int64, copy=False)
        noise_rows = noise_rows.astype(np.int64, copy=False)
        noise_phys = noise_phys.astype(np.int64, copy=False)
        ekey = rows * n_words + (phys >> np.int64(6))
        nkey = noise_rows * n_words + (noise_phys >> np.int64(6))
        words, inverse, wcounts = np.unique(
            np.concatenate([ekey, nkey]), return_inverse=True,
            return_counts=True)
        # Each word's physical error set as one mask: the flip events
        # XOR-reduced, the noise cells ORed in.
        errs = np.zeros(len(words), dtype=np.uint64)
        np.bitwise_xor.at(errs, inverse[:len(rows)], _bit_masks(phys))
        np.bitwise_or.at(errs, inverse[len(rows):], _bit_masks(noise_phys))
        recover = self._rec_tables is not None
        c = self.counts

        # A single-input word is a single-cell error set: always masked
        # by the lens, always uniquely inverted by recovery (a companion
        # pass makes it a detected double).  A word whose events all
        # cancelled is clean: not counted, passed through by recovery.
        n_single = int(np.count_nonzero(wcounts == 1))
        multi = (wcounts > 1) & (errs != 0)
        words, errs = words[multi], errs[multi]
        c["words"] += n_single + len(words)
        if recover:
            c["recovered_words"] += n_single
            kept, dropped = self._recover_words(words, errs, n_words)
            keep_events = ~np.isin(ekey, dropped)
            keep_noise = ~np.isin(nkey, dropped)
            out_rows = rows[keep_events]
            out_phys = phys[keep_events]
        else:
            c["masked"] += n_single
            c["corrected_words"] += n_single
            kept = self._decode_words(errs)
            keep_noise = np.zeros(len(noise_rows), dtype=bool)
            out_rows = out_phys = np.empty(0, dtype=np.int64)
        if obs.enabled():
            for name, value in self.counts.items():
                delta = value - self._flushed[name]
                if delta:
                    obs.inc(f"profile.ecc.{name}", delta)
                self._flushed[name] = value
        if kept.any():
            # Word-ascending, bit-ascending: the order cells are kept in.
            cells = np.flatnonzero(unpack_rows(kept[:, None], 64))
            idx, bit = cells >> 6, cells & 63
            out_rows = np.concatenate([out_rows, words[idx] // n_words])
            out_phys = np.concatenate(
                [out_phys, (words[idx] % n_words) * 64 + bit])
        return (out_rows, out_phys,
                noise_rows[keep_noise], noise_phys[keep_noise])

    def _decode_words(self, errs: np.ndarray) -> np.ndarray:
        """Lens-decode error masks at once; return the observed masks.
        Check bits never decay, so a zero check byte gives each mask's
        syndrome: the XOR of the ``H`` columns of its failed bits."""
        if not len(errs):
            return errs
        observed, status = self.code.decode_words(
            errs, np.zeros(len(errs), dtype=np.uint8))
        c = self.counts
        c["masked"] += int(popcount(errs & ~observed).sum())
        c["miscorrections"] += int(popcount(observed & ~errs).sum())
        # A correction onto a healthy bit (a miscorrection) still counts
        # as a corrected word; a zero syndrome is an undetected escape.
        n = np.bincount(status, minlength=DETECTED + 1)
        c["corrected_words"] += int(n[CORRECTED])
        c["detected_words"] += int(n[DETECTED] + n[CORRECTED_CHECK])
        c["undetected"] += int(n[CLEAN])
        return observed

    # -- recovery -----------------------------------------------------

    def _recover_words(self, words: np.ndarray, errs: np.ndarray,
                       n_words: np.int64) -> Tuple[np.ndarray, np.ndarray]:
        """Invert each multi-input word; return ``(kept, dropped)``: per
        word the mask of provably-real cells to emit instead of its raw
        inputs (zero if recovered), and the words whose inputs drop."""
        c = self.counts
        kept = np.zeros(len(words), dtype=np.uint64)
        unsure_at = []
        for i, (w, mask) in enumerate(zip(words.tolist(), errs.tolist())):
            reals, unsure = self._recover_word(
                frozenset(p for p in range(64) if mask >> p & 1))
            if not unsure:
                c["recovered_words"] += 1
                continue
            c["ambiguous_cells"] += len(unsure)
            row, word_base = int(w // n_words), int(w % n_words) << 6
            self.ambiguous.update((row, word_base + p) for p in unsure)
            kept[i] = sum(1 << p for p in reals)
            unsure_at.append(i)
        return kept, words[unsure_at]

    def _recover_word(self, errs: frozenset
                      ) -> Tuple[Set[int], Set[int]]:
        """Invert one word's post-correction observations exactly.

        Simulates the three probe passes against the *true* code (the
        device decodes with its real matrix), then inverts using only
        the *recovered* tables.  A pass whose observation has nonzero
        recovered syndrome is proof the decoder did not act - the raw
        set is the observation itself.  Every candidate extracted that
        way is then verified against all three observations; the raw
        set is claimed only when exactly one candidate survives.

        Returns ``(real_cells, uncertain_cells)`` as in-word bit sets.
        The true raw set always survives verification (the recovered
        tables are row-equivalent to the true matrix, so predicted
        decode actions match the device exactly), so claimed cells are
        never wrong and missed cells always land in the uncertain set
        - except the physically-unrecoverable corner documented in
        ``docs/ECC.md``, which surrenders the whole word.
        """
        cols, lookup = self._rec_tables
        observations = []
        for companions in COMPANION_PASSES:
            observed, _ = self.code.decode_error_set(errs | companions)
            observations.append((observed, companions))
        candidates = set()
        for observed, companions in observations:
            syndrome = 0
            for p in observed:
                syndrome ^= cols[p]
            if syndrome != 0:
                candidates.add(observed - companions)
                if companions & observed:
                    candidates.add(observed)
        verified = [
            cand for cand in candidates
            if all(decode_with_tables(cand | comp, cols, lookup)[0] == obs_
                   for obs_, comp in observations)]
        if len(verified) == 1:
            return set(verified[0]), set()
        if verified:
            common = set.intersection(*(set(v) for v in verified))
            spread = set.union(*(set(v) for v in verified)) - common
            return common, spread
        # No pass was informative: the decoder acted (or an error
        # pattern escaped undetected) in all three.  Surrender the
        # whole word - quarantine beats a guessed verdict.
        return set(), set(range(64))


def attach_on_die_ecc(chip, code: Optional[HammingSecDed],
                      recovery: Optional[object] = None) -> None:
    """Attach one on-die ECC stage instance per bank of ``chip``."""
    for bank in chip.banks:
        bank.ecc = OnDieEcc(code, recovery=recovery)
