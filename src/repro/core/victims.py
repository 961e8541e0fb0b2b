"""Initial victim-set discovery (paper Section 5.2.1).

PARBOR needs a sample of cells that *likely* exhibit data-dependent
failures before it can chase their neighbours. The discovery battery
writes a handful of different data patterns; a cell that fails under
some patterns but operates correctly under others is likely
data-dependent. Cells failing under *every* pattern are weak cells
(content-independent) and are excluded here; random failures (soft
errors, VRT, marginal cells) inevitably sneak into the sample and are
filtered later by the ranking stage (Section 5.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Set, Tuple

import numpy as np

from ..dram.controller import MemoryController
from .config import ParborConfig
from .patterns import discovery_patterns

__all__ = ["PackedCoordFields", "VictimSample", "find_initial_victims"]

Coord = Tuple[int, int, int, int]  # (chip, bank, row, sys_col)


class PackedCoordFields:
    """Mixin: the coordinate sets named in ``_COORD_FIELDS`` pickle as
    sorted ``(n, 4)`` int32 arrays (16 bytes a cell, not ~200 as a set)
    and decode on first access, so a fleet parent pays for the cells
    of the outcomes it holds only once it reads them."""

    _COORD_FIELDS: Tuple[str, ...] = ()

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        packed = state["_packed"] = dict(state.get("_packed", {}))
        for name in self._COORD_FIELDS:
            if name in state:
                packed[name] = np.array(sorted(state.pop(name)),
                                        dtype=np.int32).reshape(-1, 4)
        return state

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal lookup fails: a field still packed.
        packed = self.__dict__.get("_packed", {})
        if name not in packed:
            raise AttributeError(name)
        value = self.__dict__[name] = set(map(tuple,
                                              packed.pop(name).tolist()))
        return value

    def sorted_coords(self, name: str) -> List[Coord]:
        """``sorted(getattr(self, name))``, decoding nothing to keep."""
        packed = self.__dict__.get("_packed", {})
        if name in packed:
            return list(map(tuple, packed[name].tolist()))
        return sorted(getattr(self, name))


@dataclass
class VictimSample(PackedCoordFields):
    """A sample of candidate data-dependent victim cells.

    Attributes:
        chip / bank / row / col: parallel coordinate arrays.
        n_discovery_tests: how many pattern tests built the sample.
        observed_failures: every coordinate that failed at least one
            discovery test. The discovery battery is part of PARBOR's
            test budget, so its detections count towards PARBOR's
            uncovered failures (Section 7.2 itemises it as budget
            item (iii)).
    """

    _COORD_FIELDS = ("observed_failures",)

    chip: np.ndarray
    bank: np.ndarray
    row: np.ndarray
    col: np.ndarray
    n_discovery_tests: int = 0
    observed_failures: Set[Coord] = field(default_factory=set)

    def __len__(self) -> int:
        return len(self.row)

    def coords(self) -> List[Coord]:
        return list(zip(self.chip.tolist(), self.bank.tolist(),
                        self.row.tolist(), self.col.tolist()))

    def subset(self, mask: np.ndarray) -> "VictimSample":
        return VictimSample(chip=self.chip[mask], bank=self.bank[mask],
                            row=self.row[mask], col=self.col[mask],
                            n_discovery_tests=self.n_discovery_tests,
                            observed_failures=self.observed_failures)

    @classmethod
    def from_coords(cls, coords: Sequence[Coord],
                    n_discovery_tests: int = 0,
                    observed_failures: Set[Coord] = None) -> "VictimSample":
        observed = observed_failures or set()
        if not coords:
            empty = np.empty(0, dtype=np.int64)
            return cls(empty, empty.copy(), empty.copy(), empty.copy(),
                       n_discovery_tests, observed)
        arr = np.asarray(coords, dtype=np.int64)
        return cls(chip=arr[:, 0], bank=arr[:, 1], row=arr[:, 2],
                   col=arr[:, 3], n_discovery_tests=n_discovery_tests,
                   observed_failures=observed)


def _count_failures(controllers: Sequence[MemoryController],
                    patterns: Sequence[np.ndarray]
                    ) -> Tuple[List[Coord], List[int]]:
    """Run one whole-chip test per pattern; count failures per cell.

    Returns every coordinate that failed at least one test, in
    lexicographic ``(chip, bank, row, col)`` order, and the number of
    tests each one failed.  Every failure coordinate is encoded as one
    integer and the whole set is histogrammed in a single unique pass.
    """
    row_bits = controllers[0].row_bits
    n_rows = max(c.n_rows for c in controllers)
    n_banks = max(c.n_banks for c in controllers)
    chunks = [np.empty(0, dtype=np.int64)]
    for pattern in patterns:
        for chip_idx, ctrl in enumerate(controllers):
            per_bank = ctrl.test_pattern(pattern)
            for bank_idx, (rows, cols) in enumerate(per_bank):
                chunks.append((((np.int64(chip_idx) * n_banks + bank_idx)
                                * n_rows + rows.astype(np.int64))
                               * row_bits + cols.astype(np.int64)))
    uniq, fails = np.unique(np.concatenate(chunks), return_counts=True)
    cols = uniq % row_bits
    rest = uniq // row_bits
    rows = rest % n_rows
    rest //= n_rows
    coords = list(zip((rest // n_banks).tolist(), (rest % n_banks).tolist(),
                      rows.tolist(), cols.tolist()))
    return coords, fails.tolist()


def find_initial_victims(controllers: Sequence[MemoryController],
                         config: ParborConfig,
                         rng: np.random.Generator) -> VictimSample:
    """Run the discovery battery and sample candidate victims.

    Args:
        controllers: one memory controller per chip under test (all
            chips must share row geometry; they are tested with the
            same patterns simultaneously, which costs one test budget).
        config: campaign configuration (battery size, sample size).
        rng: randomness for the random backgrounds and sampling.

    Returns:
        A :class:`VictimSample` of at most ``config.sample_size`` cells
        that failed under at least one pattern and passed under at
        least one other.
    """
    if not controllers:
        raise ValueError("need at least one controller")
    row_bits = controllers[0].row_bits
    if any(c.row_bits != row_bits for c in controllers):
        raise ValueError("all chips must share row width")

    battery = discovery_patterns(row_bits, config.n_discovery_tests, rng)
    n_tests = len(battery)
    coords, fails = _count_failures(controllers,
                                    [pattern for _name, pattern in battery])
    candidates = [c for c, f in zip(coords, fails) if f < n_tests]
    observed = set(coords)

    # Keep rows sparse: same-row victims share physical writes, and a
    # crowded row lets one victim's zeroed test region land on
    # another's aggressor, fabricating distances.
    per_row: Dict[Tuple[int, int, int], int] = {}
    sparse: List[Coord] = []
    for coord in candidates:
        key = coord[:3]
        if per_row.get(key, 0) < config.max_victims_per_row:
            per_row[key] = per_row.get(key, 0) + 1
            sparse.append(coord)
    candidates = sparse

    if len(candidates) > config.sample_size:
        idx = rng.choice(len(candidates), size=config.sample_size,
                         replace=False)
        candidates = [candidates[i] for i in sorted(idx.tolist())]
    return VictimSample.from_coords(candidates, n_discovery_tests=n_tests,
                                    observed_failures=observed)
