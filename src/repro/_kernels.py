"""The bit-packed word-wise substrate kernel library.

The row state of the DRAM substrate is bit-packed into little-endian
``uint64`` words, and the write / decay / compare / extraction hot
loops run as word-wise boolean algebra (XOR, AND, popcount) over those
words.

**Equivalence invariant.** Packing is a pure change of representation
- ``unpack_rows(pack_rows(x), n) == x`` for any 0/1 array - and every
kernel in this module is the word-wise image of a per-cell loop.  The
original per-cell loops live in :mod:`repro._oracle`, which only tests
and benchmarks import; ``tests/runtime`` installs them and proves the
packed engine bit-identical to them (the same failure coordinates,
test counts and RNG consumption) on fixed seeds and
hypothesis-generated bank states, including row widths not divisible
by 64.  The contract - the packed memory layout, the bit-order
convention, and what future backends must preserve - is documented in
``docs/KERNELS.md``.

Packed layout (see ``docs/KERNELS.md`` for the full contract):

* a row of ``n`` cells occupies ``packed_words(n)`` ``uint64`` words;
* physical cell ``p`` lives in bit ``p % 64`` of word ``p // 64``,
  least-significant bit first (``bitorder="little"``);
* the tail bits of the last word (positions ``>= n``) are always 0.
"""

from __future__ import annotations

import sys
from typing import Tuple

import numpy as np

__all__ = [
    "WORD_BITS", "packed_words", "tail_mask", "pack_rows", "unpack_rows",
    "popcount", "gather_bits", "scatter_assign_bits", "scatter_flip_bits",
    "scatter_span_masks", "or_rows_masks", "clear_rows_masks",
    "diff_coords",
]


# -- packed representation ------------------------------------------------

#: Bits per storage word.  The whole packed layer is written against
#: 64-bit words; changing this would change the on-disk/bit layout.
WORD_BITS = 64

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)

#: ``np.packbits(bitorder="little")`` emits bytes whose reinterpretation
#: as ``uint64`` matches the layout only on little-endian hosts; the
#: shift-based fallback below keeps big-endian hosts correct (slower).
_LITTLE_ENDIAN = sys.byteorder == "little"

_BYTE_SHIFTS = (np.arange(8, dtype=np.uint64) * np.uint64(8))


def packed_words(n_bits: int) -> int:
    """Number of ``uint64`` words needed for ``n_bits`` cells."""
    return (int(n_bits) + WORD_BITS - 1) // WORD_BITS


def tail_mask(n_bits: int) -> np.uint64:
    """Mask of the valid bits in the *last* word of an ``n_bits`` row."""
    rem = int(n_bits) % WORD_BITS
    if rem == 0:
        return _ONES
    return np.uint64((1 << rem) - 1)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Bit-pack 0/1 cell arrays into ``uint64`` words (LSB-first).

    The last axis is the cell axis; it is padded with zeros up to the
    next multiple of 64, so the tail-bits-are-zero invariant holds by
    construction.  Shape ``(..., n)`` -> ``(..., packed_words(n))``.
    """
    bits = np.ascontiguousarray(bits, dtype=np.uint8)
    n_bits = bits.shape[-1]
    n_w = packed_words(n_bits)
    pad = n_w * WORD_BITS - n_bits
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1)
    packed_bytes = np.packbits(bits, axis=-1, bitorder="little")
    if _LITTLE_ENDIAN:
        return packed_bytes.view(np.uint64)
    by = packed_bytes.astype(np.uint64).reshape(
        packed_bytes.shape[:-1] + (n_w, 8))
    return np.bitwise_or.reduce(by << _BYTE_SHIFTS, axis=-1)


def unpack_rows(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack ``uint64`` words back into 0/1 ``uint8`` cell arrays.

    Inverse of :func:`pack_rows`; shape ``(..., n_words)`` ->
    ``(..., n_bits)``.
    """
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if _LITTLE_ENDIAN:
        by = words.view(np.uint8)
    else:
        by = ((words[..., None] >> _BYTE_SHIFTS) & np.uint64(0xFF)).astype(
            np.uint8).reshape(words.shape[:-1] + (words.shape[-1] * 8,))
    return np.unpackbits(by, axis=-1, count=int(n_bits), bitorder="little")


if hasattr(np, "bitwise_count"):
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count (number of charged cells)."""
        return np.bitwise_count(words)
else:  # numpy < 2.0
    _POP8 = np.array([bin(i).count("1") for i in range(256)],
                     dtype=np.uint8)

    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count (number of charged cells)."""
        words = np.ascontiguousarray(words, dtype=np.uint64)
        by = words.view(np.uint8) if _LITTLE_ENDIAN else words
        if not _LITTLE_ENDIAN:
            return sum(_POP8[(words >> s) & np.uint64(0xFF)]
                       for s in _BYTE_SHIFTS).astype(np.uint64)
        counts = _POP8[by].reshape(words.shape + (8,))
        return counts.sum(axis=-1, dtype=np.uint64)


# -- single-bit gather / scatter ------------------------------------------


def gather_bits(words: np.ndarray, row_idx: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """Read individual cells from packed rows.

    Word-wise image of ``dense[row_idx, cols]`` on the unpacked array.

    Args:
        words: packed rows, shape ``(n_rows, n_words)``, C-contiguous.
        row_idx / cols: equal-length coordinate arrays (bit positions).

    Returns:
        ``uint8`` 0/1 array of the addressed cells.
    """
    n_words = words.shape[1]
    flat = words.reshape(-1)
    idx = row_idx * n_words + (cols >> 6)
    shifts = (cols & 63).astype(np.uint8)
    return ((flat[idx] >> shifts) & _ONE).astype(np.uint8)


def _grouped_reduce(flat: np.ndarray, idx: np.ndarray,
                    masks: np.ndarray, op: str) -> None:
    """Combine duplicate-index masks with ``op`` and apply to ``flat``.

    Sort-and-``reduceat`` replacement for ``np.<op>.at`` (which is an
    order of magnitude slower per element).  ``op`` is one of
    ``"or"`` (set bits), ``"andnot"`` (clear bits), ``"xor"`` (toggle
    bits; duplicate masks cancel pairwise, exactly like repeated
    ``^=``).
    """
    if not len(idx):
        return
    order = np.argsort(idx, kind="stable")
    idx = idx[order]
    masks = masks[order]
    starts = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
    targets = idx[starts]
    if op == "or":
        flat[targets] |= np.bitwise_or.reduceat(masks, starts)
    elif op == "andnot":
        flat[targets] &= ~np.bitwise_or.reduceat(masks, starts)
    elif op == "xor":
        flat[targets] ^= np.bitwise_xor.reduceat(masks, starts)
    else:  # pragma: no cover - internal misuse
        raise ValueError(f"unknown op {op!r}")


def _bit_masks(cols: np.ndarray) -> np.ndarray:
    return _ONE << (cols & 63).astype(np.uint64)


def scatter_assign_bits(words: np.ndarray, row_idx: np.ndarray,
                        cols: np.ndarray, values) -> None:
    """Write individual cells of packed rows (in place).

    Word-wise image of ``dense[row_idx, cols] = values``: on duplicate
    coordinates the *last* occurrence wins, exactly like numpy fancy
    assignment.  ``values`` may be a scalar or a per-cell 0/1 array.
    """
    if not len(row_idx):
        return
    n_words = words.shape[1]
    values = np.broadcast_to(np.asarray(values, dtype=np.uint8),
                             row_idx.shape)
    flat_bit = row_idx * (n_words * WORD_BITS) + cols
    order = np.argsort(flat_bit, kind="stable")
    fb = flat_bit[order]
    last = np.empty(len(fb), dtype=bool)
    last[-1] = True
    last[:-1] = fb[1:] != fb[:-1]
    sel = order[last]
    r, c, v = row_idx[sel], cols[sel], values[sel]
    idx = r * n_words + (c >> 6)
    masks = _bit_masks(c)
    flat = words.reshape(-1)
    setting = v == 1
    _grouped_reduce(flat, idx[setting], masks[setting], "or")
    _grouped_reduce(flat, idx[~setting], masks[~setting], "andnot")


def scatter_flip_bits(words: np.ndarray, row_idx: np.ndarray,
                      cols: np.ndarray) -> None:
    """Toggle individual cells of packed rows (in place).

    Word-wise image of ``np.bitwise_xor.at(dense, (row_idx, cols), 1)``:
    the retention-decay application - each flip *event* toggles its
    cell, so an even number of events on one cell cancels.
    """
    if not len(row_idx):
        return
    n_words = words.shape[1]
    idx = row_idx * n_words + (cols >> 6)
    _grouped_reduce(words.reshape(-1), idx, _bit_masks(cols), "xor")


def scatter_span_masks(block: np.ndarray, row_idx: np.ndarray,
                       word_idx: np.ndarray, masks: np.ndarray,
                       set_bits: np.ndarray) -> None:
    """Apply sparse per-span word masks to packed rows (in place).

    The span-write kernel: span ``i`` covers the bits of
    ``masks[i, :]`` at words ``word_idx[i, :]`` of row ``row_idx[i]``,
    which are set where ``set_bits[i]`` and cleared otherwise.
    Zero-mask entries are no-ops, so span plans may be padded to a
    rectangular ``(n_spans, k)`` shape (see
    ``AddressMapping.region_masks_sparse``).  Spans on the same row
    must agree on ``set_bits`` wherever their masks overlap - the
    set/clear passes are not ordered against each other.
    """
    if not len(row_idx):
        return
    n_words = block.shape[1]
    idx = row_idx[:, None] * n_words + word_idx
    sel = np.broadcast_to(set_bits[:, None], idx.shape)
    flat = block.reshape(-1)
    _grouped_reduce(flat, idx[sel], masks[sel], "or")
    inv = ~sel
    _grouped_reduce(flat, idx[inv], masks[inv], "andnot")


# -- whole-word row updates -----------------------------------------------


def or_rows_masks(block: np.ndarray, row_idx: np.ndarray,
                  masks: np.ndarray) -> None:
    """``block[r] |= mask`` for each (row, full-row mask) pair.

    Duplicate rows are combined first (OR is idempotent), so the cost
    is one pass regardless of how many masks target the same row.
    ``masks`` has shape ``(k, n_words)``.
    """
    if not len(row_idx):
        return
    order = np.argsort(row_idx, kind="stable")
    r = row_idx[order]
    m = masks[order]
    starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    block[r[starts]] |= np.bitwise_or.reduceat(m, starts, axis=0)


def clear_rows_masks(block: np.ndarray, row_idx: np.ndarray,
                     masks: np.ndarray) -> None:
    """``block[r] &= ~mask`` for each (row, full-row mask) pair."""
    if not len(row_idx):
        return
    order = np.argsort(row_idx, kind="stable")
    r = row_idx[order]
    m = masks[order]
    starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1])))
    block[r[starts]] &= ~np.bitwise_or.reduceat(m, starts, axis=0)


# -- readback compare -----------------------------------------------------


def diff_coords(a: np.ndarray, b: np.ndarray, n_bits: int
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Readback compare: coordinates where two packed states differ.

    Word-wise image of ``np.nonzero(unpack(a) != unpack(b))``: XOR the
    words, mask the tail, and expand only the nonzero words back into
    bit coordinates.  Both inputs have shape ``(n_rows, n_words)``;
    returns ``(row_idx, cols)`` sorted by (row, col).
    """
    x = a ^ b
    if x.shape[-1]:
        x[..., -1] &= tail_mask(n_bits)
    nz_r, nz_w = np.nonzero(x)
    empty = np.empty(0, dtype=np.int64)
    if not len(nz_r):
        return empty, empty
    vals = x[nz_r, nz_w]
    bits = unpack_rows(vals[:, None], WORD_BITS)
    hit_i, hit_b = np.nonzero(bits)
    return (nz_r[hit_i].astype(np.int64),
            (nz_w[hit_i] * WORD_BITS + hit_b).astype(np.int64))
