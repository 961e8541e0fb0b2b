"""The system-level memory controller interface PARBOR drives.

In the paper, PARBOR runs on a host PC and talks to DRAM through an
FPGA memory controller: it can only write data at *system* addresses,
wait out a refresh interval, and read the data back. This class is
that interface, plus the bookkeeping a test campaign needs (test
counts and estimated wall-clock time, used to report the paper's
appendix numbers).

One *test* = write a pattern, wait one retention interval, read back
and compare (paper Section 2.3, "Manufacturing Tests"). Rows tested in
different banks/rows simultaneously still count as one test - that
parallelism is PARBOR's second key idea.

When a bank carries an on-die ECC stage (:class:`repro.ecc.OnDieEcc`),
every retention read the controller issues returns the
*post-correction* view: single-bit failures are masked, multi-bit
patterns may be miscorrected onto healthy cells, and injected
miscorrections are indistinguishable from real flips at this
interface - exactly the visibility a system-level tester has against
a modern device.  See ``docs/ECC.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .. import obs
from .chip import DramChip
from .timing import DDR3_1600, DramTiming

__all__ = ["MemoryController", "TestStats"]


@dataclass
class TestStats:
    """Counters for a test campaign against one chip."""

    tests: int = 0
    rows_written: int = 0
    rows_read: int = 0
    retention_waits: int = 0
    _timing: DramTiming = field(default_factory=lambda: DDR3_1600)

    def estimated_time_ns(self, row_bytes: int = 1024) -> float:
        """Rough wall-clock estimate of the campaign.

        Each retention wait costs one refresh interval; each row write
        or read costs one full-row access (appendix arithmetic).
        """
        t_row = self._timing.full_row_access_ns(row_bytes=row_bytes)
        wait_ns = (self.retention_waits
                   * self._timing.refresh_interval_ms * 1e6)
        return wait_ns + (self.rows_written + self.rows_read) * t_row

    @classmethod
    def merge(cls, stats: Iterable["TestStats"]) -> "TestStats":
        """Sum counters over several campaigns into a fresh record.

        This is the aggregation primitive fleet campaigns use: each
        worker process accumulates its own per-chip counters, and the
        parent merges the (pickled) records instead of relying on
        in-place mutation of shared state.  Timing parameters are
        taken from the first record (fleets are homogeneous).
        """
        merged: Optional[TestStats] = None
        for s in stats:
            if merged is None:
                merged = cls(_timing=s._timing)
            merged.tests += s.tests
            merged.rows_written += s.rows_written
            merged.rows_read += s.rows_read
            merged.retention_waits += s.retention_waits
        return merged if merged is not None else cls()

    def __add__(self, other: "TestStats") -> "TestStats":
        """Merged copy of two counter records (timing from ``self``)."""
        return TestStats.merge([self, other])


class MemoryController:
    """System-address access to one DRAM chip, with test accounting."""

    def __init__(self, chip: DramChip,
                 timing: Optional[DramTiming] = None) -> None:
        self.chip = chip
        self.timing = timing or DDR3_1600
        self.stats = TestStats(_timing=self.timing)

    @property
    def row_bits(self) -> int:
        return self.chip.row_bits

    @property
    def n_rows(self) -> int:
        return self.chip.n_rows

    @property
    def n_banks(self) -> int:
        return self.chip.n_banks

    # -- raw access ------------------------------------------------------

    def write_row(self, bank: int, row: int, data_sys: np.ndarray) -> None:
        """Write one row (system-order bits)."""
        self.chip.bank(bank).write_row(row, data_sys)
        self.stats.rows_written += 1

    def write_rows(self, bank: int, rows: np.ndarray,
                   data_sys: np.ndarray) -> None:
        """Write several rows; ``data_sys`` broadcasts if 1-D."""
        self.chip.bank(bank).write_rows(rows, data_sys)
        self.stats.rows_written += len(rows)

    def fill(self, data_sys: np.ndarray) -> None:
        """Write every row of every bank with the same pattern."""
        for bank in self.chip.banks:
            bank.write_all(data_sys)
            self.stats.rows_written += bank.n_rows

    def read_row(self, bank: int, row: int) -> np.ndarray:
        """Immediate read (no retention wait, no failures)."""
        self.stats.rows_read += 1
        return self.chip.bank(bank).read_row(row)

    # -- tests -------------------------------------------------------------

    def _account_test(self, n_rows: int) -> None:
        self.stats.rows_written += n_rows
        self.stats.retention_waits += 1
        self.stats.tests += 1
        self.stats.rows_read += n_rows

    def _run_test(self, kind: str, bank: int, n_rows: int,
                  write: Callable[[], None],
                  read: Callable[[], np.ndarray]) -> np.ndarray:
        """Run one write -> wait -> read test, traced when obs is on.

        The untraced branch is the exact pre-observability sequence;
        the traced branch wraps the same calls in ``test`` /
        ``phase.*`` spans and feeds the engine wall-time histogram.
        Accounting and RNG draw order are identical on both branches.
        """
        sess = obs.active()
        if sess is None:
            write()
            self._account_test(n_rows)
            return read()
        tracer = sess.tracer
        t0 = time.perf_counter()
        with tracer.span("test", kind=kind, bank=bank, rows=n_rows):
            with tracer.span("phase.write"):
                write()
            with tracer.span(
                    "phase.wait",
                    retention_ms=self.timing.refresh_interval_ms):
                pass  # the retention wait is simulated, not slept
            with tracer.span("phase.read"):
                observed = read()
        self._account_test(n_rows)
        sess.metrics.observe("io.test_ms[vectorized]",
                             (time.perf_counter() - t0) * 1e3)
        return observed

    def test_rows(self, bank: int, rows: np.ndarray,
                  data_sys: np.ndarray,
                  coupled_rows_only: bool = False) -> np.ndarray:
        """One test over specific rows of one bank.

        Writes ``data_sys`` (2-D per-row, or 1-D broadcast) to ``rows``,
        waits one retention interval, and returns the observed data.
        Counts as one test regardless of how many rows run in parallel.
        ``coupled_rows_only`` restricts the coupled-cell evaluation to
        the tested rows (re-vote streams only; see
        :meth:`~repro.dram.bank.Bank._retention_flips`).
        """
        rows = np.asarray(rows)
        b = self.chip.bank(bank)
        return self._run_test(
            "rows", bank, len(rows),
            lambda: b.write_rows(rows, data_sys),
            lambda: b.retention_read_rows(
                rows, coupled_rows_only=coupled_rows_only))

    def test_rows_patched(self, bank: int, rows: np.ndarray, base: int,
                          spans: Optional[Tuple[np.ndarray, np.ndarray,
                                                int, int]],
                          points: Optional[Tuple[np.ndarray, np.ndarray,
                                                 int]],
                          check_row_idx: np.ndarray,
                          check_cols: np.ndarray,
                          coupled_rows_only: bool = False) -> np.ndarray:
        """One batched test: sparse-patched write, then cell verification.

        Writes a constant background plus span/point patches (see
        :meth:`~repro.dram.bank.Bank.write_rows_patched`), waits one
        retention interval, and returns a bool mask over the checked
        cells - True where the read-back differs from what was
        written.  Test accounting is identical to :meth:`test_rows`
        (the rows are still conceptually written and read in full).
        ``coupled_rows_only`` restricts the coupled-cell evaluation to
        the tested rows (re-vote streams only; see
        :meth:`~repro.dram.bank.Bank._retention_flips`).
        """
        rows = np.asarray(rows)
        b = self.chip.bank(bank)
        return self._run_test(
            "patched", bank, len(rows),
            lambda: b.write_rows_patched(rows, base, spans=spans,
                                         points=points),
            lambda: b.retention_check_cells(
                rows, check_row_idx, check_cols,
                coupled_rows_only=coupled_rows_only))

    def _whole_chip_test(self, data_sys: np.ndarray, kind: str
                         ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Shared write-all / read-back loop of the whole-chip tests.

        Per-bank write/read interleaving (and therefore the RNG draw
        order of ``retention_failures``) is identical whether or not
        tracing is active; the traced branch only wraps the same calls
        in spans.
        """
        sess = obs.active()
        failures: List[Tuple[np.ndarray, np.ndarray]] = []
        if sess is None:
            for bank in self.chip.banks:
                bank.write_all(data_sys)
                self.stats.rows_written += bank.n_rows
                failures.append(bank.retention_failures())
                self.stats.rows_read += bank.n_rows
            self.stats.retention_waits += 1
            self.stats.tests += 1
            return failures
        tracer = sess.tracer
        t0 = time.perf_counter()
        with tracer.span("test", kind=kind,
                         banks=len(self.chip.banks)):
            for bank_idx, bank in enumerate(self.chip.banks):
                with tracer.span("phase.write", bank=bank_idx):
                    bank.write_all(data_sys)
                self.stats.rows_written += bank.n_rows
                with tracer.span("phase.read", bank=bank_idx):
                    failures.append(bank.retention_failures())
                self.stats.rows_read += bank.n_rows
            with tracer.span(
                    "phase.wait",
                    retention_ms=self.timing.refresh_interval_ms):
                self.stats.retention_waits += 1
        self.stats.tests += 1
        sess.metrics.observe("io.test_ms[vectorized]",
                             (time.perf_counter() - t0) * 1e3)
        return failures

    def test_pattern(self, data_sys: np.ndarray
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One whole-chip test with a single row pattern.

        Writes the pattern to every row of every bank, waits one
        retention interval, and returns per-bank ``(rows, sys_cols)``
        mismatch coordinates. This is the primitive both PARBOR's
        neighbour-aware sweep and the random-pattern baseline use, so
        their budgets are directly comparable.
        """
        data_sys = np.asarray(data_sys, dtype=np.uint8)
        return self._whole_chip_test(data_sys, "pattern")

    def test_pattern_per_row(self, data_sys_rows: np.ndarray
                             ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """One whole-chip test with per-row patterns (2-D array)."""
        return self._whole_chip_test(data_sys_rows, "pattern_per_row")
