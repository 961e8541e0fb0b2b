"""Property tests of the bit-packed substrate kernels.

The packed kernels in :mod:`repro._kernels` must be the word-wise
image of the dense per-cell operations for *any* geometry - including
row widths that do not divide into whole 64-bit words - and the packed
bank must match the reference loops of :func:`repro._oracle.reference`
on random bank states under every vendor mapping.  The layout contract
these tests pin down is documented in ``docs/KERNELS.md``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernels import (WORD_BITS, diff_coords, gather_bits, pack_rows,
                            packed_words, popcount, scatter_assign_bits,
                            scatter_flip_bits, scatter_span_masks,
                            tail_mask, unpack_rows)
from repro._oracle import reference
from repro.dram import (CoupledCellPopulation, CouplingSpec, DramChip,
                        FaultSpec, vendor)
from repro.dram.mapping import AddressMapping

# Deliberately awkward row widths: 1 bit, sub-word, word-aligned,
# word+1, and multi-word with a partial tail.
SIZES = [1, 7, 63, 64, 65, 128, 200, 8192]


def _bits(rng, shape):
    return rng.integers(0, 2, size=shape, dtype=np.uint8)


# -- pack / unpack --------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_pack_unpack_roundtrip(seed, n_bits):
    rng = np.random.default_rng(seed)
    bits = _bits(rng, (5, n_bits))
    words = pack_rows(bits)
    assert words.shape == (5, packed_words(n_bits))
    assert np.array_equal(unpack_rows(words, n_bits), bits)
    # Tail invariant: bits beyond n_bits are zero by construction.
    assert not (words[:, -1] & ~tail_mask(n_bits)).any()


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_popcount_matches_dense_sum(seed, n_bits):
    rng = np.random.default_rng(seed)
    bits = _bits(rng, (4, n_bits))
    assert np.array_equal(popcount(pack_rows(bits)).sum(axis=-1),
                          bits.sum(axis=-1, dtype=np.uint64))


def test_bit_order_is_lsb_first():
    """The documented convention: cell p is bit p%64 of word p//64."""
    bits = np.zeros(130, dtype=np.uint8)
    bits[[0, 3, 64, 129]] = 1
    words = pack_rows(bits)
    assert words[0] == (1 << 0) | (1 << 3)
    assert words[1] == 1 << 0
    assert words[2] == 1 << 1


# -- gather / scatter -----------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_gather_scatter_match_dense(seed, n_bits):
    rng = np.random.default_rng(seed)
    dense = _bits(rng, (6, n_bits))
    words = pack_rows(dense)
    k = int(rng.integers(0, 40))
    rows = rng.integers(0, 6, size=k)
    cols = rng.integers(0, n_bits, size=k)

    assert np.array_equal(gather_bits(words, rows, cols),
                          dense[rows, cols])

    # Flip: every event toggles; duplicates toggle repeatedly.
    np.bitwise_xor.at(dense, (rows, cols), np.uint8(1))
    scatter_flip_bits(words, rows, cols)
    assert np.array_equal(unpack_rows(words, n_bits), dense)

    # Assign: numpy fancy-assignment semantics (last duplicate wins).
    values = _bits(rng, k)
    dense[rows, cols] = values
    scatter_assign_bits(words, rows, cols, values)
    assert np.array_equal(unpack_rows(words, n_bits), dense)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(SIZES))
@settings(max_examples=25, deadline=None)
def test_diff_coords_matches_dense_compare(seed, n_bits):
    rng = np.random.default_rng(seed)
    a = _bits(rng, (5, n_bits))
    b = a.copy()
    k = int(rng.integers(0, 25))
    b[rng.integers(0, 5, size=k), rng.integers(0, n_bits, size=k)] ^= 1
    rows, cols = diff_coords(pack_rows(a), pack_rows(b), n_bits)
    exp_rows, exp_cols = np.nonzero(a != b)
    assert np.array_equal(rows, exp_rows)
    assert np.array_equal(cols, exp_cols)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_scatter_span_masks_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n_bits = 200
    n_rows = 5
    dense = _bits(rng, (n_rows, n_bits))
    words = pack_rows(dense)
    k = int(rng.integers(1, 12))
    rows = rng.integers(0, n_rows, size=k)
    starts = rng.integers(0, n_bits - 9, size=k)
    set_bits = np.zeros(k, dtype=bool)
    set_bits[:] = bool(rng.integers(0, 2))  # uniform per call: no
    # ordering between the set and clear passes is guaranteed on
    # overlapping spans of one row, so keep the value per-row-safe.
    span = 9
    n_w = packed_words(n_bits)
    word_idx = np.zeros((k, span), dtype=np.int64)
    masks = np.zeros((k, span), dtype=np.uint64)
    for i in range(k):
        cols = np.arange(starts[i], starts[i] + span)
        word_idx[i] = cols >> 6
        masks[i] = np.uint64(1) << (cols % 64).astype(np.uint64)
        dense[rows[i], cols] = np.uint8(1) if set_bits[i] else np.uint8(0)
    scatter_span_masks(words, rows, word_idx, masks, set_bits)
    assert np.array_equal(unpack_rows(words, n_bits), dense)


# -- bank-level equivalence ----------------------------------------------


def _random_chip(row_bits, seed):
    """A chip over a random scrambler with the given row width."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(row_bits)
    mapping = AddressMapping(row_bits=row_bits, block_bits=row_bits,
                             block_path=tuple(int(p) for p in perm),
                             tile_bits=row_bits)
    return DramChip(mapping=mapping, n_rows=12,
                    coupling_spec=CouplingSpec(n_cells=150),
                    fault_spec=FaultSpec(soft_error_rate=1e-6,
                                         n_vrt_cells=10,
                                         n_marginal_cells=10,
                                         n_weak_cells=10),
                    seed=seed)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([63, 65, 200]))
@settings(max_examples=10, deadline=None)
def test_bank_cycle_matches_reference_on_odd_widths(seed, row_bits):
    """Write -> decay -> read parity on rows that end mid-word."""
    data_rng = np.random.default_rng(seed)
    rows = np.arange(12)
    data = _bits(data_rng, (12, row_bits))

    ref = _random_chip(row_bits, seed % 1009).banks[0]
    fast = _random_chip(row_bits, seed % 1009).banks[0]
    with reference():
        ref.write_rows(rows, data)
        ref_read = ref.retention_read_rows(rows)
        ref_fail = ref.retention_failures()
    fast.write_rows(rows, data)
    fast_read = fast.retention_read_rows(rows)
    fast_fail = fast.retention_failures()
    assert np.array_equal(ref.charge, fast.charge)
    assert np.array_equal(ref_read, fast_read)
    for a, b in zip(ref_fail, fast_fail):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("vendor_name", ["A", "B", "C"])
def test_evaluators_match_reference_across_vendors(vendor_name):
    """Coupled + fault evaluation parity on random states, per vendor."""
    chip_ref = vendor(vendor_name).make_chip(seed=23, n_rows=16)
    chip_fast = vendor(vendor_name).make_chip(seed=23, n_rows=16)
    data_rng = np.random.default_rng(99)
    for trial in range(5):
        data = _bits(data_rng, (16, chip_ref.row_bits))
        ref = chip_ref.banks[trial % len(chip_ref.banks)]
        fast = chip_fast.banks[trial % len(chip_fast.banks)]
        with reference():
            ref.write_rows(np.arange(16), data)
            ref_fail = ref.retention_failures()
        fast.write_rows(np.arange(16), data)
        fast_fail = fast.retention_failures()
        for a, b in zip(ref_fail, fast_fail):
            assert np.array_equal(a, b)


def test_population_packed_evaluation_matches_dense():
    """evaluate_failures_packed == evaluate_failures, same RNG draw."""
    rng = np.random.default_rng(11)
    pop = CoupledCellPopulation.generate(
        CouplingSpec(n_cells=400), n_rows=20, row_bits=200, tile_bits=100,
        rng=rng)
    charge = _bits(np.random.default_rng(12), (20, 200))
    words = pack_rows(charge)
    ref = pop.evaluate_failures(charge, np.random.default_rng(13))
    packed = pop.evaluate_failures_packed(words, np.random.default_rng(13))
    assert np.array_equal(ref, packed)


def test_charge_property_is_a_copy():
    """Mutating the unpacked view must not corrupt packed state."""
    bank = vendor("A").make_chip(seed=3, n_rows=4).banks[0]
    bank.write_rows(np.arange(4), np.ones(8192, dtype=np.uint8))
    view = bank.charge
    view[:] = 0
    assert bank.charge.any()
