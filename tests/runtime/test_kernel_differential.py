"""Differential tests: vectorized kernels vs. the reference loops.

The optimized engine (broadcast writes, patched sparse writes, batched
retention verification, memoized schedules/batteries) must be
*bit-identical* to the original per-cell code, which stays executable
in :mod:`repro._oracle` and is installed by its
:func:`~repro._oracle.reference` context manager.  These tests drive
the same seeded operations through both paths and require equality of
charge arrays, read-back data, and full campaign outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._oracle import reference
from repro.core import ParborConfig, run_parbor
from repro.core.patterns import _base_battery, discovery_patterns
from repro.core.scheduler import _build_schedule, build_schedule
from repro.dram import vendor
from repro.dram.faults import DeviceNoiseModel, NoiseSpec
from repro.runtime.seeds import ladder_seed


def _chip(vendor_name="A", seed=5, n_rows=32):
    return vendor(vendor_name).make_chip(seed=seed, n_rows=n_rows)


def _bank(vendor_name="A", seed=5, n_rows=32):
    return _chip(vendor_name, seed, n_rows).banks[0]


# -- write path -----------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_write_rows_broadcast_matches_reference(seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, size=8192, dtype=np.uint8)
    rows = np.unique(rng.integers(0, 32, size=12))

    ref = _bank(seed=int(seed) % 97)
    fast = _bank(seed=int(seed) % 97)
    with reference():
        ref.write_rows(rows, data)
    fast.write_rows(rows, data)
    assert np.array_equal(ref.charge, fast.charge)


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.integers(min_value=0, max_value=1),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=10, deadline=None)
def test_write_rows_patched_matches_dense_write(seed, base, span_size):
    """Sparse scatter == building the whole system image and writing it."""
    rng = np.random.default_rng(seed)
    n_rows = 16
    rows = np.unique(rng.integers(0, 32, size=n_rows))
    n = len(rows)
    n_spans = int(rng.integers(0, 5))
    span_rows = rng.integers(0, n, size=n_spans)
    starts = rng.integers(0, 8192 - span_size, size=n_spans)
    n_points = int(rng.integers(0, 20))
    point_rows = rng.integers(0, n, size=n_points)
    point_cols = rng.integers(0, 8192, size=n_points)
    value = 1 - base

    expected = np.full((n, 8192), base, dtype=np.uint8)
    for r, s in zip(span_rows.tolist(), starts.tolist()):
        expected[r, s:s + span_size] = value
    expected[point_rows, point_cols] = base

    dense = _bank(seed=3)
    dense.write_rows(rows, expected)
    patched = _bank(seed=3)
    patched.write_rows_patched(
        rows, base, spans=(span_rows, starts, span_size, value),
        points=(point_rows, point_cols, base))
    assert np.array_equal(dense.charge, patched.charge)


# -- retention verification ----------------------------------------------


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_retention_read_rows_matches_reference(seed):
    """Same seeded fault draws -> same observed data, both paths."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, 32, size=10))
    data = rng.integers(0, 2, size=8192, dtype=np.uint8)

    ref = _bank("B", seed=int(seed) % 89)
    fast = _bank("B", seed=int(seed) % 89)
    with reference():
        ref.write_rows(rows, data)
        ref_read = ref.retention_read_rows(rows)
    fast.write_rows(rows, data)
    fast_read = fast.retention_read_rows(rows)
    assert np.array_equal(ref_read, fast_read)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=8, deadline=None)
def test_retention_check_cells_matches_full_read(seed):
    """The sparse cell check equals comparing the full read-back."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, 32, size=10))
    data = rng.integers(0, 2, size=8192, dtype=np.uint8)
    n_check = 50
    check_row_idx = rng.integers(0, len(rows), size=n_check)
    check_cols = rng.integers(0, 8192, size=n_check)

    full = _bank("C", seed=int(seed) % 83)
    sparse = _bank("C", seed=int(seed) % 83)
    full.write_rows(rows, data)
    observed = full.retention_read_rows(rows)
    expected = observed[check_row_idx, check_cols] != data[check_cols]
    sparse.write_rows(rows, data)
    got = sparse.retention_check_cells(rows, check_row_idx, check_cols)
    assert np.array_equal(expected, got)


# -- memoized construction ------------------------------------------------


def test_memoized_schedule_matches_reference():
    """The memoized schedule equals a fresh uncached construction."""
    for distances in ([8, -8, 16, -16, 48, -48], [1, -1, 64, -64]):
        ref = _build_schedule(8192, tuple(distances), "sparse")
        fast = build_schedule(8192, distances)
        assert ref.scheme == fast.scheme
        assert len(ref.patterns) == len(fast.patterns)
        for a, b in zip(ref.patterns, fast.patterns):
            assert np.array_equal(a, b)
        for a, b in zip(ref.victim_masks, fast.victim_masks):
            assert np.array_equal(a, b)


def test_memoized_schedule_is_shared_and_read_only():
    a = build_schedule(8192, [8, -8])
    b = build_schedule(8192, [-8, 8])  # normalised to the same key
    assert a is b
    with pytest.raises(ValueError):
        a.patterns[0][0] ^= 1


def test_memoized_battery_matches_reference():
    """The memoized battery head equals a fresh uncached build."""
    rng = np.random.default_rng(4)
    ref = list(_base_battery.__wrapped__(8192))
    ref += [(f"rand{i}", rng.integers(0, 2, size=8192, dtype=np.uint8))
            for i in range(8 - len(ref))]
    fast = discovery_patterns(8192, 8, np.random.default_rng(4))
    assert [n for n, _ in ref] == [n for n, _ in fast]
    for (_, a), (_, b) in zip(ref, fast):
        assert np.array_equal(a, b)


# -- whole campaign -------------------------------------------------------


def _noisy_chip(vendor_name, seed, n_rows):
    """A chip whose banks carry seeded injected device noise."""
    chip = _chip(vendor_name, seed, n_rows)
    spec = NoiseSpec(n_vrt_cells=4, n_marginal_cells=4,
                     soft_error_rate=1e-6)
    for bank_idx, bank in enumerate(chip.banks):
        bank.noise = DeviceNoiseModel(
            spec, n_rows=bank.n_rows, row_bits=bank.row_bits,
            seed=ladder_seed(seed, "device-noise", 0, bank_idx))
    return chip


@pytest.mark.parametrize("vendor_name,robust", [
    *(pytest.param(v, False, id=v) for v in "ABC"),
    *(pytest.param(v, True, id=f"{v}-rounds3-noise-remap") for v in "ABC"),
])
def test_campaign_identical_to_reference(vendor_name, robust):
    """Packed == reference, and every installed reference loop ran.

    The robust input covers what ``docs/KERNELS.md`` promises beyond
    the single pass: repeat-and-vote (``rounds=3``) under injected
    device noise, with remapped-column recovery.
    """
    cfg = ParborConfig(sample_size=300)
    make = _noisy_chip if robust else _chip
    kwargs = dict(rounds=3, recover_remapped=True) if robust else {}

    with reference() as hits:
        ref = run_parbor(make(vendor_name, seed=17, n_rows=32), cfg,
                         seed=18, **kwargs)
    fast = run_parbor(make(vendor_name, seed=17, n_rows=32), cfg,
                      seed=18, **kwargs)

    idle = sorted(name for name, n in hits.items() if n == 0)
    assert not idle, f"reference loops never ran: {idle}"
    assert ref.distances == fast.distances
    assert ref.detected == fast.detected
    assert ref.total_tests == fast.total_tests
    assert ref.recursion.tests_per_level == fast.recursion.tests_per_level
    assert ref.sample.coords() == fast.sample.coords()
    assert ref.stats.tests == fast.stats.tests
    assert ref.stats.rows_written == fast.stats.rows_written
    assert ref.stats.rows_read == fast.stats.rows_read
    if robust:
        assert ref.verdicts.votes == fast.verdicts.votes
        assert ref.verdicts.scored == fast.verdicts.scored
        assert ref.quarantine.signature() == fast.quarantine.signature()
        assert (ref.recovery.recovered_coords()
                == fast.recovery.recovered_coords())
