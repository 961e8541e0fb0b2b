"""A DRAM bank: the unit of storage and failure evaluation.

The bank stores its rows bit-packed: ``charge_words`` is a 2-D
``uint64`` array in *charge domain, physical column order*, with
physical column ``p`` in bit ``p % 64`` of word ``p // 64`` (the layout
contract lives in :mod:`repro._kernels` and ``docs/KERNELS.md``). That
representation makes the write / decay / readback hot paths word-wise
boolean algebra (physical neighbours are adjacent bits; charged == 1
regardless of true/anti cell polarity) while the system-facing
interface handles both the vendor address scrambling and the true/anti
cell data inversion.

**Equivalence invariant.** Packing is representation only: the
:attr:`~Bank.charge` property unpacks to exactly the dense uint8 array
the bank historically stored, and every operation leaves
``unpack(charge_words)`` in the same state, and consumes the bank RNG
identically, as the original per-cell loops.  Those loops live in
:mod:`repro._oracle`; ``tests/runtime/test_kernel_differential.py`` and
``tests/runtime/test_packed_kernels.py`` install them and enforce this
differentially.

True vs. anti cells: a *true* cell stores data '1' as charge, an *anti*
cell stores data '0' as charge (paper footnote 3). We model polarity
per row - sense-amplifier orientation alternates between rows - via an
``anti`` row mask applied at the read/write boundary.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._kernels import (clear_rows_masks, gather_bits, or_rows_masks,
                        pack_rows, packed_words, scatter_assign_bits,
                        scatter_flip_bits, scatter_span_masks, tail_mask,
                        unpack_rows)
from .cells import CoupledCellPopulation
from .faults import RandomFaultModel
from .mapping import AddressMapping

__all__ = ["Bank"]

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class Bank:
    """A 2-D array of DRAM cells with coupling and fault populations.

    Args:
        mapping: system<->physical address mapping for this bank.
        n_rows: number of rows.
        coupled: data-dependent failure population.
        faults: random (non-data-dependent) failure injector.
        anti_rows: bool array per row; True rows hold anti cells. The
            default alternates polarity every row.
        rng: randomness source for per-exposure failure coin flips.
    """

    def __init__(self, mapping: AddressMapping, n_rows: int,
                 coupled: CoupledCellPopulation,
                 faults: RandomFaultModel,
                 rng: np.random.Generator,
                 anti_rows: Optional[np.ndarray] = None) -> None:
        if n_rows < 1:
            raise ValueError("a bank needs at least one row")
        self.mapping = mapping
        self.n_rows = n_rows
        self.row_bits = mapping.row_bits
        self.coupled = coupled
        self.faults = faults
        self._rng = rng
        if anti_rows is None:
            anti_rows = (np.arange(n_rows) % 2).astype(bool)
        if len(anti_rows) != n_rows:
            raise ValueError("anti_rows length must equal n_rows")
        self.anti_rows = np.asarray(anti_rows, dtype=bool)
        #: retention stress of retention reads (1.0 = 45 degC / 4 s).
        self.stress = 1.0
        #: optional injected device-noise model (substrate chaos).
        #: Noise is unioned into every retention read's failures -
        #: it can only add observed corruption, never cancel a flip.
        self.noise = None
        #: optional on-die ECC stage (:class:`repro.ecc.OnDieEcc`).
        #: When attached, every retention read is routed through
        #: :meth:`_observed_errors`, which collapses the raw flip/noise
        #: events into the per-cell error set and passes it through the
        #: per-word SEC-DED decode - readers then see the
        #: post-correction view (or, in recovery mode, the un-distorted
        #: raw set).
        self.ecc = None
        self._n_words = packed_words(self.row_bits)
        self._tail = tail_mask(self.row_bits)
        #: charge state, physical order, bit-packed: shape
        #: (n_rows, packed_words(row_bits)), uint64, LSB-first.
        self.charge_words = np.zeros((n_rows, self._n_words),
                                     dtype=np.uint64)

    @property
    def charge(self) -> np.ndarray:
        """Charge state as a dense uint8 ``(n_rows, row_bits)`` array.

        Unpacked view of :attr:`charge_words` (a fresh array, not a
        live view - mutations do not write back).  This is the array
        the bank historically stored; the dense evaluators and
        external inspectors still consume it.
        """
        return unpack_rows(self.charge_words, self.row_bits)

    # -- system-facing I/O --------------------------------------------

    def _to_charge(self, rows: np.ndarray, data_sys: np.ndarray
                   ) -> np.ndarray:
        """Scramble + polarity-invert system-order data rows (dense)."""
        phys = data_sys[..., self.mapping.phys_to_sys()]
        anti = self.anti_rows[rows]
        return phys ^ np.asarray(anti, dtype=np.uint8)[..., None]

    def write_row(self, row: int, data_sys: np.ndarray) -> None:
        """Write one row given system-order data bits (0/1)."""
        self._check_row(row)
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        if data_sys.shape != (self.row_bits,):
            raise ValueError(
                f"row data must have shape ({self.row_bits},)")
        self.charge_words[row] = pack_rows(
            self._to_charge(np.asarray([row]), data_sys[None, :])[0])

    def write_rows(self, rows: np.ndarray, data_sys: np.ndarray) -> None:
        """Write several rows at once (vectorised)."""
        rows = np.asarray(rows)
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        if data_sys.ndim == 1:
            # Broadcast write: scramble + pack the single row once
            # (memoized on the shared vendor mapping, both polarities),
            # then one np.where selects the per-row polarity - the
            # whole write moves words, never cells.
            plain, inverted = self.mapping.scramble_packed(data_sys)
            anti = self.anti_rows[rows]
            self.charge_words[rows] = np.where(anti[:, None], inverted,
                                               plain)
            return
        self.charge_words[rows] = pack_rows(self._to_charge(rows, data_sys))

    def write_rows_patched(self, rows: np.ndarray, base: int,
                           spans: Optional[Tuple[np.ndarray, np.ndarray,
                                                 int, int]] = None,
                           points: Optional[Tuple[np.ndarray, np.ndarray,
                                                  int]] = None) -> None:
        """Write rows that are a constant background plus sparse patches.

        Equivalent to building the full system-order array - ``base``
        everywhere, then ``spans`` of ``size`` system bits overwritten
        with their value, then individual ``points`` overwritten last -
        and calling :meth:`write_rows`, but combines pre-packed span
        masks word-wise instead of scrambling whole rows.  This is the
        write primitive of the recursive region test, whose patches
        shrink with the region size.

        Args:
            rows: bank row indices being written.
            base: background bit value (0/1) in system order.
            spans: ``(row_idx, starts, size, value)`` - for each span,
                ``row_idx`` indexes into ``rows`` and system columns
                ``starts .. starts+size`` take ``value``.
            points: ``(row_idx, sys_cols, value)`` - individual bits,
                applied after the spans.
        """
        rows = np.asarray(rows)
        n = len(rows)
        anti = self.anti_rows[rows]
        # Background fill in charge domain: base XOR polarity per row.
        fill = (np.uint8(base) ^ anti.astype(np.uint8)).astype(bool)
        block = np.zeros((n, self._n_words), dtype=np.uint64)
        block[fill] = _ONES
        block[:, -1] &= self._tail
        if spans is not None and len(spans[0]):
            row_idx, starts, size, value = spans
            starts = np.asarray(starts, dtype=np.int64)
            charged = (np.uint8(value) ^ anti[row_idx].astype(np.uint8)
                       ).astype(bool)
            if self.row_bits % size == 0 and not (starts % size).any():
                # Region-aligned spans (the recursion's case): apply
                # the cached sparse masks - O(region bits), not O(row).
                word_idx, masks = self.mapping.region_masks_sparse(size)
                g = starts // size
                scatter_span_masks(block, row_idx, word_idx[g], masks[g],
                                   charged)
            else:
                masks = self.mapping.span_masks(starts, size)
                or_rows_masks(block, row_idx[charged], masks[charged])
                clear_rows_masks(block, row_idx[~charged],
                                 masks[~charged])
        if points is not None and len(points[0]):
            row_idx, cols, value = points
            charge_v = np.uint8(value) ^ anti[row_idx].astype(np.uint8)
            scatter_assign_bits(block, row_idx,
                                self.mapping.sys_to_phys()[cols], charge_v)
        self.charge_words[rows] = block

    def write_all(self, data_sys: np.ndarray) -> None:
        """Write every row with the same (or per-row) system-order data."""
        self.write_rows(np.arange(self.n_rows), data_sys)

    def read_row(self, row: int) -> np.ndarray:
        """Immediate (non-retention) read of one row, system order."""
        self._check_row(row)
        data_phys = (unpack_rows(self.charge_words[row], self.row_bits)
                     ^ np.uint8(self.anti_rows[row]))
        return data_phys[self.mapping.sys_to_phys()]

    # -- retention reads ------------------------------------------------

    def _retention_flips(self, visible_rows: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray,
                                    np.ndarray, np.ndarray]:
        """One retention wait: flip events plus forced noise coords.

        Returns ``(rows, sys_cols, noise_rows, noise_sys)``.  The first
        pair are flip *events* (XOR semantics - an even number of
        events on a cell cancels); the second pair are injected-noise
        coordinates with forced-corruption (union) semantics.

        With ``visible_rows`` the coupled-cell evaluation is restricted
        to victims living in those rows.  Their outcome distribution is
        identical to a full-bank evaluation (victims are independent),
        but the RNG draw *count* differs, so this is only safe on a
        freshly reseeded stream that is discarded or restored
        afterwards (the re-vote path) - never on the sequential
        single-pass stream.  The random-fault model still runs
        bank-wide (it is stateful).
        """
        coupled = self.coupled
        if visible_rows is not None:
            coupled = coupled.subset(np.isin(coupled.row, visible_rows))
        fail, f_rows, f_phys = self._decay(coupled)
        rows = coupled.row[fail]
        phys = coupled.phys[fail]
        rows = np.concatenate([rows, f_rows])
        phys = np.concatenate([phys, f_phys])
        sys_cols = self.mapping.phys_to_sys()[phys]
        empty = np.empty(0, dtype=np.int64)
        if self.noise is None:
            return rows, sys_cols, empty, empty
        n_rows, n_phys = self.noise.flips()
        n_sys = (self.mapping.phys_to_sys()[n_phys] if len(n_phys)
                 else empty)
        return rows, sys_cols, n_rows, n_sys

    def _decay(self, coupled: CoupledCellPopulation
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``coupled``'s failure mask, then the fault model's flips."""
        fail = coupled.evaluate_failures_packed(
            self.charge_words, self._rng, stress=self.stress)
        f_rows, f_phys = self.faults.retention_flips_packed(
            self.charge_words, stress=self.stress)
        return fail, f_rows, f_phys

    def _observed_errors(self, visible_rows: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray,
                                    np.ndarray, np.ndarray]:
        """One retention wait as the *observable* error coordinates.

        Without an ECC stage - or with the *null code* attached, which
        is the identity by construction - this is
        :meth:`_retention_flips` verbatim (flip events with XOR
        semantics plus separate forced-noise coords).  With a real
        code the raw event/noise streams are routed through the
        stage's :meth:`~repro.ecc.OnDieEcc.transform_read`, which
        groups them into 64-bit words, derives each word's physical
        error set, and returns the post-stage view.  In recovery mode
        that transform is event-preserving for exactly-inverted words
        (the streams pass through verbatim, duplicates and all), so a
        fully recovered read is byte-identical to the ECC-off channel
        for every downstream consumer - including multiplicity-
        sensitive ones like the discovery fail-count histogram.
        """
        rows, sys_cols, n_rows, n_sys = self._retention_flips(
            visible_rows)
        if self.ecc is None or self.ecc.code is None:
            return rows, sys_cols, n_rows, n_sys
        empty = np.empty(0, dtype=np.int64)
        s2p = self.mapping.sys_to_phys()
        e_phys = s2p[sys_cols] if len(sys_cols) else empty
        n_phys = s2p[n_sys] if len(n_sys) else empty
        o_rows, o_phys, on_rows, on_phys = self.ecc.transform_read(
            rows, e_phys, n_rows, n_phys, self.row_bits)
        p2s = self.mapping.phys_to_sys()
        o_sys = p2s[o_phys] if len(o_phys) else empty
        on_sys = p2s[on_phys] if len(on_phys) else empty
        return o_rows, o_sys, on_rows, on_sys

    def retention_failures(self) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate one retention wait; return failing coordinates.

        Returns:
            ``(rows, sys_cols)`` of all cells whose read-back after the
            retention interval mismatches what was written - the union
            of data-dependent flips, random-fault flips, and any
            injected device noise, exactly the observable a
            system-level test sees - after the on-die ECC stage, when
            one is attached.
        """
        rows, sys_cols, n_rows, n_sys = self._observed_errors()
        if len(n_rows):
            rows = np.concatenate([rows, n_rows])
            sys_cols = np.concatenate([sys_cols, n_sys])
        return rows, sys_cols

    def retention_read_rows(self, rows: np.ndarray,
                            coupled_rows_only: bool = False
                            ) -> np.ndarray:
        """Retention read restricted to ``rows``; system-order data.

        Used by the recursive test, which only ever inspects the rows
        that host its victim cells. Random-fault injection still runs
        bank-wide (the fault model is stateful) but only flips landing
        in ``rows`` are visible, as in a real partial read.
        ``coupled_rows_only`` restricts the coupled-cell evaluation to
        ``rows`` as well (see :meth:`_retention_flips` for when that
        is safe).
        """
        rows = np.asarray(rows)
        f_rows, f_cols, n_rows_, n_cols = self._observed_errors(
            visible_rows=rows if coupled_rows_only else None)
        # Stay word-wise until the final unpack.  Flips and noise
        # arrive in system columns; apply them at the corresponding
        # physical bits, then unpack and descramble.
        s2p = self.mapping.sys_to_phys()
        words = self.charge_words[rows].copy()
        anti = self.anti_rows[rows]
        inv = np.where(anti, _ONES, np.uint64(0))
        words ^= inv[:, None]
        words[:, -1] &= self._tail
        pos = np.full(self.n_rows, -1, dtype=np.int64)
        pos[rows] = np.arange(len(rows), dtype=np.int64)
        noise_idx = noise_phys = noise_written = None
        if len(n_rows_):
            ni = pos[n_rows_]
            vis = ni >= 0
            noise_idx = ni[vis]
            noise_phys = s2p[n_cols[vis]]
            noise_written = gather_bits(words, noise_idx, noise_phys)
        if len(f_rows):
            i = pos[f_rows]
            visible = i >= 0
            scatter_flip_bits(words, i[visible], s2p[f_cols[visible]])
        if noise_idx is not None and len(noise_idx):
            scatter_assign_bits(words, noise_idx, noise_phys,
                                noise_written ^ np.uint8(1))
        data_phys = unpack_rows(words, self.row_bits)
        return data_phys[:, s2p]

    def retention_check_cells(self, rows: np.ndarray,
                              check_row_idx: np.ndarray,
                              check_cols: np.ndarray,
                              coupled_rows_only: bool = False
                              ) -> np.ndarray:
        """One retention wait; did specific cells read back corrupted?

        The batched verification primitive: instead of materialising
        the observed data of every row and comparing per cell, the
        (sparse) retention flip coordinates are matched against the
        checked cells directly.

        Args:
            rows: bank rows that were written (and are now read).
            check_row_idx: per checked cell, index into ``rows``.
            check_cols: per checked cell, system column.
            coupled_rows_only: restrict the coupled-cell evaluation to
                ``rows`` (see :meth:`_retention_flips` for when that
                is safe).

        Returns:
            Boolean array over the checked cells: True where the
            read-back value differs from what was written (an odd
            number of flip events landed on the cell).
        """
        f_rows, f_cols, n_rows_, n_cols = self._observed_errors(
            visible_rows=rows if coupled_rows_only else None)
        check_enc = (rows[check_row_idx].astype(np.int64) * self.row_bits
                     + check_cols)
        corrupted = np.zeros(len(check_enc), dtype=bool)
        if len(f_rows):
            # Sort the (small) flip set, keep the coordinates hit an
            # odd number of times, and membership-test the checked
            # cells with a binary search - cheaper than unique + isin
            # but the same set arithmetic.
            enc = np.sort(f_rows.astype(np.int64) * self.row_bits
                          + f_cols)
            starts = np.flatnonzero(np.concatenate(
                ([True], enc[1:] != enc[:-1])))
            counts = np.diff(np.append(starts, len(enc)))
            odd = enc[starts[counts % 2 == 1]]
            corrupted = self._sorted_member(odd, check_enc)
        if len(n_rows_):
            # Injected noise forces corruption - OR it in after the
            # odd-count logic so it can never cancel a flip event.
            noise_enc = np.sort(n_rows_.astype(np.int64) * self.row_bits
                                + n_cols)
            corrupted |= self._sorted_member(noise_enc, check_enc)
        return corrupted

    @staticmethod
    def _sorted_member(sorted_vals: np.ndarray, queries: np.ndarray
                       ) -> np.ndarray:
        """Membership of ``queries`` in a sorted value array."""
        if not len(sorted_vals):
            return np.zeros(len(queries), dtype=bool)
        pos = np.searchsorted(sorted_vals, queries)
        pos[pos == len(sorted_vals)] = len(sorted_vals) - 1
        return sorted_vals[pos] == queries

    def retention_read_all(self) -> np.ndarray:
        """Full-bank retention read, system order (observed data)."""
        return self.retention_read_rows(np.arange(self.n_rows))

    # -- helpers ----------------------------------------------------------

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.n_rows:
            raise ValueError(f"row {row} out of range [0, {self.n_rows})")
