"""Durable queue contracts: deterministic sharding, journal-first
admission, crash replay, CRC detection, and truncated tails."""

import json

import pytest

from repro import obs
from repro.runtime import CampaignSpec, chip_seed
from repro.service import DurableQueue, partition_shards
from repro.service.protocol import record_crc
from tests.chaos.harness import corrupt_queue_record


def _specs(n=3):
    vendors = ("A", "B", "C", "A", "B", "C")
    return [
        CampaignSpec(experiment="characterize", vendor=vendors[i],
                     index=1 + i // 3,
                     build_seed=chip_seed(7, vendors[i], i, "build"),
                     run_seed=chip_seed(7, vendors[i], i, "run"),
                     n_rows=32, sample_size=200, run_sweep=False)
        for i in range(n)
    ]


class TestPartition:
    def test_membership_is_order_independent(self):
        specs = _specs(5)
        forward = partition_shards("c", specs, shard_size=2)
        backward = partition_shards("c", list(reversed(specs)),
                                    shard_size=2)
        assert [[s.checkpoint_key() for s in shard.specs]
                for shard in forward] \
            == [[s.checkpoint_key() for s in shard.specs]
                for shard in backward]

    def test_sizes_and_indices(self):
        shards = partition_shards("c", _specs(5), shard_size=2)
        assert [len(s.specs) for s in shards] == [2, 2, 1]
        assert [s.index for s in shards] == [0, 1, 2]

    def test_bad_shard_size_rejected(self):
        with pytest.raises(ValueError):
            partition_shards("c", _specs(1), shard_size=0)


class TestDurableQueue:
    def test_submit_is_journaled_before_visible(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        with DurableQueue(str(path), shard_size=2) as queue:
            campaign = queue.submit("t", 0, _specs())
            on_disk = [json.loads(line) for line
                       in path.read_text().splitlines()]
            assert [r["kind"] for r in on_disk] \
                == ["service", "submit"]
            assert on_disk[1]["id"] == campaign.id

    def test_submit_idempotent(self, tmp_path):
        with DurableQueue(str(tmp_path / "q.jsonl")) as queue:
            first = queue.submit("t", 0, _specs())
            again = queue.submit("t", 0, list(reversed(_specs())))
            assert again is first
            assert len(queue.campaigns) == 1

    def test_replay_restores_shard_progress(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with DurableQueue(path, shard_size=2) as queue:
            campaign = queue.submit("t", 3, _specs())
            queue.mark_shard_done(campaign.shards[0])
        with DurableQueue(path, shard_size=2) as replayed:
            restored = replayed.campaigns[campaign.id]
            assert restored.tenant == "t"
            assert restored.priority == 3
            assert restored.shards[0].done
            assert [s.index for s in restored.pending_shards()] == [1]
            assert ([s.checkpoint_key()
                     for s in restored.shards[1].specs]
                    == [s.checkpoint_key()
                        for s in campaign.shards[1].specs])

    def test_replay_restores_failures_and_completion(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with DurableQueue(path, shard_size=2) as queue:
            campaign = queue.submit("t", 0, _specs())
            queue.mark_shard_done(campaign.shards[0])
            queue.mark_shard_failed(campaign.shards[1], "boom")
            queue.mark_campaign_done(campaign)
        with DurableQueue(path, shard_size=2) as replayed:
            restored = replayed.campaigns[campaign.id]
            assert restored.done and restored.settled
            assert restored.failed_shards() == [1]
            assert restored.shards[1].error == "boom"
            assert replayed.pending_targets() == 0

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with DurableQueue(path, shard_size=2) as queue:
            campaign = queue.submit("t", 0, _specs())
        with open(path, "a") as fh:
            fh.write('{"kind": "shard_done", "id": "' + campaign.id)
        with DurableQueue(path, shard_size=2) as replayed:
            assert replayed.corrupt_records == 0
            assert campaign.id in replayed.campaigns
            # The torn record never applied: shard 0 still pending.
            assert len(replayed.pending_shards()) == 2

    def test_corrupt_record_detected_and_skipped(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with DurableQueue(path, shard_size=2) as queue:
            campaign = queue.submit("t", 0, _specs())
            queue.mark_shard_done(campaign.shards[0])
        corrupt_queue_record(path, seed=1, kinds=("shard_done",))
        with obs.session("q-corrupt") as sess:
            with DurableQueue(path, shard_size=2) as replayed:
                assert replayed.corrupt_records == 1
                # Dropping shard_done re-queues the shard, nothing else.
                assert len(replayed.pending_shards()) == 2
        assert sess.metrics.counter(
            "proc.service.corrupt_records") == 1

    def test_corrupt_helper_without_victims_raises(self, tmp_path):
        path = str(tmp_path / "q.jsonl")
        with DurableQueue(path) as queue:
            queue.submit("t", 0, _specs())
        with pytest.raises(ValueError, match="no record"):
            corrupt_queue_record(path, seed=1, kinds=("shard_done",))

    def test_every_record_carries_a_valid_crc(self, tmp_path):
        path = tmp_path / "q.jsonl"
        with DurableQueue(str(path), shard_size=2) as queue:
            campaign = queue.submit("t", 0, _specs())
            queue.mark_shard_done(campaign.shards[0])
            queue.mark_campaign_done(campaign)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert record_crc(record) == record["crc"]

    def test_close_idempotent_and_append_after_close_raises(
            self, tmp_path):
        queue = DurableQueue(str(tmp_path / "q.jsonl"))
        queue.close()
        queue.close()
        with pytest.raises(ValueError, match="closed"):
            queue.submit("t", 0, _specs())
