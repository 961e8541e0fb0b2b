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
    assert all(hits.values())                      # no loop sat idle

Each reference replaces only the step in which the two engines differ;
the logic around it (noise injection, the ECC read stage, victim
sparsification and sampling, row grouping, re-votes) is the production
code, run unchanged.  Fleet
workers forked inside the block inherit the references, but their
hits are counted in the worker, not here.  The equivalence contract
is documented in ``docs/KERNELS.md``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from ._kernels import pack_rows
from .core import detector, recursion, victims
from .dram.bank import Bank

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


#: ``(owner, attribute, reference)``: every name a caller looks a
#: reference up by.  Hits are counted per reference, over its sites.
_SITES: Tuple[Tuple[object, str, Callable], ...] = (
    (Bank, "write_rows", _write_rows),
    (Bank, "_decay", _decay),
    (Bank, "retention_read_rows", _retention_read_rows),
    (victims, "_count_failures", _count_failures),
    (detector, "_count_failures", _count_failures),
    (recursion, "_group_test", _group_test),
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
