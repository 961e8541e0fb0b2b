"""The reference oracle: the original per-cell loops of the engine.

The packed engine of :mod:`repro.dram` and :mod:`repro.core` is
trusted because it is byte-identical to the straight-line loops the
reproduction was seeded with.  Those loops live here and nowhere else,
and no production module imports this one.  :func:`reference`
installs them from outside - each at the name its caller looks up, a
class attribute or a module global - and restores the originals on
exit::

    from repro._oracle import reference

    with reference() as hits:
        baseline = run_parbor(chip, cfg, seed=7)   # original loops
    optimized = run_parbor(chip, cfg, seed=7)      # packed engine
    assert baseline.detected == optimized.detected
    assert hits["group_test"]                      # the loops really ran

Each reference replaces only the step in which the two engines differ;
the logic around it (noise injection, victim sparsification and
sampling, row grouping, re-votes, BEER probe planting and relation
elimination) is the production code, run unchanged.  The on-die ECC
stage has its own references: the per-word lens decode of a read and
the per-slot grouping, classification and prediction of BEER probe
rounds.  Fleet workers forked inside the block inherit the
references, but their hits are counted in the worker, not here.  The equivalence contract
is documented in ``docs/KERNELS.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, FrozenSet, Iterator, List, Tuple

import numpy as np

from . import obs
from ._kernels import pack_rows
from .core import detector, recursion, victims
from .dram.bank import Bank
from .ecc import beer
from .ecc.ondie import OnDieEcc
from .ecc.secded import (CORRECTED, CORRECTED_CHECK, DETECTED,
                         MISCORRECTED, UNDETECTED, decode_with_tables)

__all__ = ["reference"]


def _write_rows(self: Bank, rows, data_sys) -> None:
    """Scramble and polarity-invert every row densely, then pack."""
    rows = np.asarray(rows)
    data_sys = np.asarray(data_sys, dtype=np.uint8)
    if data_sys.ndim == 1:
        data_sys = np.broadcast_to(data_sys, (len(rows), self.row_bits))
    self.charge_words[rows] = pack_rows(self._to_charge(rows, data_sys))


def _decay(self: Bank, coupled):
    """Evaluate both failure models on the unpacked charge array."""
    charge = self.charge  # unpack once, share across evaluators
    fail = coupled.evaluate_failures(charge, self._rng, stress=self.stress)
    f_rows, f_phys = self.faults.retention_flips(charge,
                                                 stress=self.stress)
    return fail, f_rows, f_phys


def _retention_read_rows(self: Bank, rows, coupled_rows_only=False):
    """Descramble the dense rows, then flip cells one at a time."""
    rows = np.asarray(rows)
    f_rows, f_cols, n_rows_, n_cols = self._observed_errors(
        visible_rows=rows if coupled_rows_only else None)
    data_phys = self.charge[rows] ^ self.anti_rows[
        rows, None].astype(np.uint8)
    data_sys = data_phys[:, self.mapping.sys_to_phys()]
    noise_idx = noise_cols = noise_written = None
    if len(n_rows_):
        # Forced corruption: capture the written values now so the
        # injected cells read back wrong regardless of how many flip
        # events also landed on them (union, not XOR).
        pos = np.full(self.n_rows, -1, dtype=np.int64)
        pos[rows] = np.arange(len(rows), dtype=np.int64)
        ni = pos[n_rows_]
        vis = ni >= 0
        noise_idx = ni[vis]
        noise_cols = n_cols[vis]
        noise_written = data_sys[noise_idx, noise_cols].copy()
    row_pos = {int(r): i for i, r in enumerate(rows)}
    for r, c in zip(f_rows, f_cols):
        i = row_pos.get(int(r))
        if i is not None:
            data_sys[i, c] ^= 1
    if noise_idx is not None and len(noise_idx):
        data_sys[noise_idx, noise_cols] = noise_written ^ np.uint8(1)
    return data_sys


def _count_failures(controllers, patterns):
    """Count each failing coordinate in a dict, one cell at a time."""
    fail_counts: Dict[Tuple[int, int, int, int], int] = {}
    for pattern in patterns:
        for chip_idx, ctrl in enumerate(controllers):
            per_bank = ctrl.test_pattern(pattern)
            for bank_idx, (rows, cols) in enumerate(per_bank):
                for r, c in zip(rows.tolist(), cols.tolist()):
                    key = (chip_idx, bank_idx, r, c)
                    fail_counts[key] = fail_counts.get(key, 0) + 1
    coords = sorted(fail_counts)
    return coords, [fail_counts[c] for c in coords]


def _group_test(ctrl, bank_idx, group, rows_of, starts, region_size,
                revote):
    """Write whole dense rows, read them back, compare the victims."""
    data = np.ones((len(group.unique_rows), ctrl.row_bits), dtype=np.uint8)
    # Zero every covered victim's subregion in its own row.
    for r, s in zip(rows_of.tolist(), starts.tolist()):
        data[r, s:s + region_size] = 0
    # Victim bits carry the opposite value of their region.
    data[group.row_pos, group.cols] = 1
    observed = ctrl.test_rows(bank_idx, group.unique_rows, data,
                              coupled_rows_only=revote)
    flip_pos = observed[group.row_pos, group.cols] != 1
    observed_inv = ctrl.test_rows(bank_idx, group.unique_rows, 1 - data,
                                  coupled_rows_only=revote)
    flip_inv = observed_inv[group.row_pos, group.cols] != 0
    return flip_pos | flip_inv


def _transform_read(self: OnDieEcc, rows, phys, noise_rows, noise_phys,
                    row_bits):
    """Group the inputs word by word and decode each word's error set."""
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
    words, wcounts = np.unique(np.concatenate([ekey, nkey]),
                               return_counts=True)
    recover = self._rec_tables is not None
    c = self.counts
    keep_events = np.full(len(rows), recover)
    keep_noise = np.full(len(noise_rows), recover)
    add_rows: List[np.ndarray] = []
    add_phys: List[np.ndarray] = []
    single = wcounts == 1
    n_single = int(single.sum())
    c["words"] += n_single
    if n_single:
        if recover:
            c["recovered_words"] += n_single
        else:
            c["masked"] += n_single
            c["corrected_words"] += n_single
    multi = words[~single]
    if len(multi):
        eorder = np.argsort(ekey, kind="stable")
        norder = np.argsort(nkey, kind="stable")
        ekey_s = ekey[eorder]
        nkey_s = nkey[norder]
        for w in multi.tolist():
            ei = eorder[np.searchsorted(ekey_s, w, "left"):
                        np.searchsorted(ekey_s, w, "right")]
            ni = norder[np.searchsorted(nkey_s, w, "left"):
                        np.searchsorted(nkey_s, w, "right")]
            row = int(w // n_words)
            word_base = int(w % n_words) << 6
            odd = np.bincount(phys[ei] & 63, minlength=64) & 1
            errs = set(np.flatnonzero(odd).tolist())
            errs.update((noise_phys[ni] & 63).tolist())
            if not errs:
                continue
            c["words"] += 1
            if recover:
                reals, unsure = self._recover_word(frozenset(errs))
                if not unsure:
                    c["recovered_words"] += 1
                    continue
                c["ambiguous_cells"] += len(unsure)
                for p in unsure:
                    self.ambiguous.add((row, word_base + p))
                keep_events[ei] = False
                keep_noise[ni] = False
                kept = reals
            else:
                observed, status = self.code.decode_error_set(
                    frozenset(errs))
                c["masked"] += len(errs - observed)
                c["miscorrections"] += len(observed - errs)
                if status in (CORRECTED, MISCORRECTED):
                    c["corrected_words"] += 1
                elif status in (DETECTED, CORRECTED_CHECK):
                    c["detected_words"] += 1
                elif status == UNDETECTED:
                    c["undetected"] += 1
                kept = observed
            if kept:
                pos = np.fromiter((word_base + p for p in sorted(kept)),
                                  dtype=np.int64, count=len(kept))
                add_rows.append(np.full(len(kept), row, dtype=np.int64))
                add_phys.append(pos)
    if obs.enabled():
        for name, value in self.counts.items():
            delta = value - self._flushed[name]
            if delta:
                obs.inc(f"profile.ecc.{name}", delta)
            self._flushed[name] = value
    out_rows = rows[keep_events]
    out_phys = phys[keep_events]
    if add_rows:
        out_rows = np.concatenate([out_rows, *add_rows])
        out_phys = np.concatenate([out_phys, *add_phys])
    return (out_rows, out_phys,
            noise_rows[keep_noise], noise_phys[keep_noise])


def _classify(observed: FrozenSet[int], triple: FrozenSet[int]) -> int:
    """Outcome code of one probed word, from its cell sets."""
    if observed == triple:
        return beer.DETECT
    if len(observed) == len(triple) + 1 and triple < observed:
        return min(observed - triple)
    return beer.DIRTY


def _paired_outcomes(chip, seed, *path):
    """Group the observed cells into per-word frozensets, then classify
    every copy of every slot one at a time."""
    triples, obs_rows, obs_phys = beer._probe_round(chip, seed, *path)
    bank = chip.banks[0]
    stride = bank.n_rows // beer.COPIES
    n_words = bank.row_bits >> 6
    observed: Dict[Tuple[int, int], set] = {}
    for r, p in zip(obs_rows.tolist(), obs_phys.tolist()):
        observed.setdefault((int(r), int(p) >> 6), set()).add(int(p) & 63)
    masks, codes = [], []
    for s, triple in enumerate(triples.tolist()):
        row, word = divmod(s, n_words)
        triple = frozenset(triple)
        classes = {
            _classify(frozenset(observed.get(
                (row + k * stride,
                 (word + k * (n_words // beer.COPIES)) % n_words), ())),
                triple)
            for k in range(beer.COPIES)}
        if len(classes) == 1 and beer.DIRTY not in classes:
            masks.append(sum(1 << p for p in triple))
            codes.append(classes.pop())
    return (np.array(masks, dtype=np.uint64),
            np.array(codes, dtype=np.int64))


def _predict_outcomes(inferred, triples):
    """Decode each triple with the recovered tables, then classify it."""
    cols, lookup = inferred.tables()
    codes = []
    for mask in triples.tolist():
        triple = frozenset(p for p in range(64) if mask >> p & 1)
        observed, _ = decode_with_tables(triple, cols, lookup)
        codes.append(_classify(observed, triple))
    return np.array(codes, dtype=np.int64)


#: ``(owner, attribute, reference)``: every name a caller looks a
#: reference up by.  Hits are counted per reference, over its sites.
_SITES: Tuple[Tuple[object, str, Callable], ...] = (
    (Bank, "write_rows", _write_rows),
    (Bank, "_decay", _decay),
    (Bank, "retention_read_rows", _retention_read_rows),
    (victims, "_count_failures", _count_failures),
    (detector, "_count_failures", _count_failures),
    (recursion, "_group_test", _group_test),
    (OnDieEcc, "transform_read", _transform_read),
    (beer, "_paired_outcomes", _paired_outcomes),
    (beer, "_predict_outcomes", _predict_outcomes),
)

_installed: List[Tuple[object, str, object]] = []


def _counted(hits: Dict[str, int], name: str, fn: Callable) -> Callable:
    def counted(*args, **kwargs):
        hits[name] += 1
        return fn(*args, **kwargs)
    return counted


@contextmanager
def reference() -> Iterator[Dict[str, int]]:
    """Run the block on the reference loops; yield their hit counts.

    The yielded dict maps each reference's name to the number of times
    it ran in this process.  Nesting is refused.
    """
    if _installed:
        raise RuntimeError("the reference oracle is already installed")
    hits: Dict[str, int] = {}
    try:
        for owner, attr, fn in _SITES:
            name = fn.__name__.lstrip("_")
            hits[name] = 0
            _installed.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, _counted(hits, name, fn))
        yield hits
    finally:
        while _installed:
            owner, attr, original = _installed.pop()
            setattr(owner, attr, original)
