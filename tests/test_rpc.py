"""Unit tests for the storage-node RPC/control-plane layer."""

import warnings

import pytest

from repro.shardstore import (
    DiskGeometry,
    Fault,
    FaultSet,
    InvalidRequestError,
    KeyNotFoundError,
    NotFoundError,
    StorageNode,
    StoreConfig,
)


def _node(num_disks=3, faults=None):
    config = StoreConfig(
        geometry=DiskGeometry(num_extents=10, extent_size=2048, page_size=128),
        faults=faults or FaultSet.none(),
    )
    return StorageNode(num_disks=num_disks, config=config)


class TestRequestPlane:
    def test_put_get_roundtrip(self):
        node = _node()
        node.put(b"shard", b"data" * 20)
        assert node.get(b"shard") == b"data" * 20

    def test_get_unknown_shard(self):
        node = _node()
        with pytest.raises(NotFoundError):
            node.get(b"nope")

    def test_delete_removes_routing(self):
        node = _node()
        node.put(b"shard", b"v")
        node.delete(b"shard")
        with pytest.raises(NotFoundError):
            node.get(b"shard")

    def test_delete_unknown_raises(self):
        node = _node()
        with pytest.raises(KeyNotFoundError):
            node.delete(b"nope")

    def test_steering_spreads_shards(self):
        node = _node(num_disks=3)
        for i in range(30):
            node.put(b"shard-%d" % i, b"v")
        used = {
            disk_id
            for disk_id in range(3)
            if node.systems[disk_id].store.keys()
        }
        assert len(used) == 3

    def test_steering_is_sticky(self):
        node = _node()
        node.put(b"shard", b"one")
        target = node._shard_map[b"shard"]
        node.put(b"shard", b"two")
        assert node._shard_map[b"shard"] == target
        assert node.get(b"shard") == b"two"


class TestControlPlane:
    def test_remove_disk_migrates_shards(self):
        node = _node()
        for i in range(12):
            node.put(b"shard-%d" % i, bytes([i]) * 40)
        victim = next(
            d for d in range(3) if node.systems[d].store.keys()
        )
        migrated = node.remove_disk(victim)
        assert migrated > 0
        assert not node.in_service(victim)
        for i in range(12):
            assert node.get(b"shard-%d" % i) == bytes([i]) * 40

    def test_cannot_remove_last_disk(self):
        node = _node(num_disks=1)
        with pytest.raises(InvalidRequestError):
            node.remove_disk(0)

    def test_cannot_remove_twice(self):
        node = _node()
        node.remove_disk(0)
        with pytest.raises(InvalidRequestError):
            node.remove_disk(0)

    def test_return_disk_roundtrip(self):
        node = _node()
        for i in range(9):
            node.put(b"shard-%d" % i, bytes([i]) * 30)
        node.remove_disk(1)
        node.return_disk(1)
        assert node.in_service(1)
        for i in range(9):
            assert node.get(b"shard-%d" % i) == bytes([i]) * 30

    def test_return_in_service_disk_rejected(self):
        node = _node()
        with pytest.raises(InvalidRequestError):
            node.return_disk(0)

    def test_puts_avoid_removed_disk(self):
        node = _node()
        node.remove_disk(0)
        for i in range(10):
            node.put(b"after-%d" % i, b"v")
        assert not node.systems[0].store.keys() or all(
            not key.startswith(b"after-")
            for key in node.systems[0].store.keys()
        )

    def test_fault4_resurrects_stale_routing(self):
        """Issue #4: returning a disk restores its stale shard routing."""
        node = _node(faults=FaultSet.only(Fault.DISK_RETURN_DROPS_SHARDS))
        for i in range(12):
            node.put(b"shard-%d" % i, b"old")
        victim = next(d for d in range(3) if node.systems[d].store.keys())
        stale_keys = list(node.systems[victim].store.keys())
        node.remove_disk(victim)
        # Overwrite one of the victim's shards while it is away.
        target_key = stale_keys[0]
        node.put(target_key, b"new")
        node.return_disk(victim)
        assert node.get(target_key) == b"old", "stale data resurfaces: bug #4"

    def test_correct_return_keeps_migrated_routing(self):
        node = _node()
        for i in range(12):
            node.put(b"shard-%d" % i, b"old")
        victim = next(d for d in range(3) if node.systems[d].store.keys())
        target_key = node.systems[victim].store.keys()[0]
        node.remove_disk(victim)
        node.put(target_key, b"new")
        node.return_disk(victim)
        assert node.get(target_key) == b"new"


class TestBulkOps:
    def test_bulk_create_and_list(self):
        node = _node()
        created = node.bulk_create([(b"a", b"1"), (b"b", b"2")])
        assert created == 2
        assert node.keys() == [b"a", b"b"]

    def test_bulk_delete(self):
        node = _node()
        node.bulk_create([(b"a", b"1"), (b"b", b"2"), (b"c", b"3")])
        deleted = node.bulk_delete([b"a", b"c", b"zz"])
        assert deleted == 2
        assert node.keys() == [b"b"]

    def test_list_empty(self):
        assert _node().keys() == []

    def test_list_shards_shim_warns(self):
        node = _node()
        node.put(b"a", b"1")
        with pytest.deprecated_call():
            assert node.list_shards() == [b"a"]

    def test_list_shards_shim_warns_exactly_once_per_call(self):
        # Pins the shim's contract so it can be removed in a later PR:
        # one DeprecationWarning per call, attributed to the caller.
        node = _node()
        node.put(b"a", b"1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            node.list_shards()
        deprecations = [
            warning
            for warning in caught
            if issubclass(warning.category, DeprecationWarning)
        ]
        assert len(deprecations) == 1
        assert "use keys()" in str(deprecations[0].message)
        assert deprecations[0].filename == __file__  # stacklevel=2
        # keys() itself must stay warning-free.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            node.keys()
        assert caught == []


class TestValidation:
    def test_zero_disks_rejected(self):
        with pytest.raises(InvalidRequestError):
            StorageNode(num_disks=0)

    def test_bad_disk_id_rejected(self):
        node = _node()
        with pytest.raises(InvalidRequestError):
            node.remove_disk(9)

    def test_drain_all(self):
        node = _node()
        node.put(b"k", b"v")
        node.drain_all()
        assert all(
            system.store.pending_io_count == 0 for system in node.systems
        )

    def test_drain_skips_clean_disks_and_leaves_the_node_drained(self):
        node = _node()
        drained = []

        def counted(disk_id, real):
            def drain():
                drained.append(disk_id)
                return real()

            return drain

        for disk_id, system in enumerate(node.systems):
            system.store.drain = counted(disk_id, system.store.drain)
        node.put(b"k", b"v")
        dirty = [
            disk_id
            for disk_id, system in enumerate(node.systems)
            if system.store.pending_io_count
        ]
        assert len(dirty) == 1
        node.drain()
        assert drained == dirty
        assert all(
            system.store.pending_io_count == 0 for system in node.systems
        )
        node.drain()  # a fully clean node drains no disk at all
        assert drained == dirty
