"""Packed pickling of coordinate-set fields (``PackedCoordFields``).

Outcomes cross the fleet's process boundary and the journal as
pickles; their coordinate sets travel as sorted integer arrays and are
decoded only on first access.  These tests pin that a reader cannot
tell: decoded sets, signatures and journal records equal the
unpacked originals.
"""

import json
import pickle
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.core.victims import PackedCoordFields
from repro.runtime import CampaignSpec, CheckpointJournal, chip_seed
from repro.runtime.resilience import signature_json


@pytest.fixture(scope="module")
def outcome():
    spec = CampaignSpec(experiment="characterize", vendor="B", index=1,
                        build_seed=chip_seed(11, "B", 0, "build"),
                        run_seed=chip_seed(11, "B", 0, "run"),
                        n_rows=32, sample_size=200)
    out = spec.run()
    assert out.detected and out.result.sample.observed_failures
    return out


@dataclass
class _Cells(PackedCoordFields):
    _COORD_FIELDS = ("cells", "empty")

    cells: set
    empty: set = field(default_factory=set)
    other: int = 3


def test_packs_sorted_int32_and_decodes_equal():
    cells = {(1, 0, 5, 9), (0, 3, 2, 1), (0, 3, 2, 0)}
    loaded = pickle.loads(pickle.dumps(_Cells(cells)))
    packed = vars(loaded)["_packed"]
    assert packed["cells"].dtype == np.int32
    assert packed["cells"].shape == (3, 4)
    assert loaded.sorted_coords("cells") == sorted(cells)
    assert loaded.other == 3 and "cells" in packed
    assert loaded == _Cells(cells)  # the dataclass __eq__ decodes
    assert vars(loaded)["_packed"] == {}
    assert loaded.empty == set()


def test_fields_stay_packed_until_read(outcome):
    loaded = pickle.loads(pickle.dumps(outcome))
    assert "detected" not in vars(loaded)
    assert "detected" not in vars(loaded.result)
    assert "observed_failures" not in vars(loaded.result.sample)
    assert loaded.signature() == outcome.signature()
    assert "detected" not in vars(loaded)  # the signature decoded nothing
    # Pickling again reuses the packed arrays.
    again = pickle.loads(pickle.dumps(loaded))
    assert again.detected == outcome.detected
    assert loaded.detected == outcome.detected
    assert loaded.result.detected == outcome.result.detected
    assert (loaded.result.sample.observed_failures
            == outcome.result.sample.observed_failures)
    with pytest.raises(AttributeError):
        loaded.no_such_field


def test_journal_record_unchanged(outcome, tmp_path):
    """The journal line still carries the full signature; resuming
    verifies a fresh outcome against it."""
    path = str(tmp_path / "j.ckpt")
    journal = CheckpointJournal(path)
    journal.record(outcome.spec, outcome)
    journal.close()
    [record] = CheckpointJournal.read(path)
    assert record["signature"] == signature_json(outcome.signature())
    with open(path) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines[1] == record

    resumed = CheckpointJournal(path, resume=True)
    loaded = resumed.outcome(outcome.spec)
    assert resumed.signature_matches(outcome.spec, loaded)
    loaded.detected.add((9, 9, 9, 9))
    assert not resumed.signature_matches(outcome.spec, loaded)
    resumed.close()
