"""The cluster layer: N storage nodes behind a quorum-replication router.

This promotes PR 5's in-node replica shards into a real cluster
(ROADMAP item 1): :class:`ClusterRouter` places each key on a preference
list of ``replication`` nodes via a consistent-hash ring
(:class:`~repro.cluster.ring.HashRing`), writes to all of them, and
acknowledges at ``write_quorum`` -- surfacing a typed
:class:`~repro.errors.DegradedWriteError` when the quorum is unreachable
instead of blocking.  Reads gather ``read_quorum`` replies, return the
newest version, and (when enabled) *read-repair* stale replicas in place.
Writes that miss a down/partitioned/demoted replica queue a bounded
*hinted handoff* that replays when the node returns; overflowing the hint
buffer is expected under long outages and is exactly the divergence the
read-repair sweep must converge (the ``--no-read-repair`` negative
control proves this is load-bearing).  Keys that are never read again
cannot be healed by read-repair at all; enabling ``anti_entropy`` adds
the budgeted background Merkle sync of
:mod:`repro.cluster.antientropy`, whose placement-group root comparison
turns "replicas converged" into a provable settlement gate.

Replica records are version-framed (``8-byte version | flag | payload``)
so replicas are order-insensitive: a replica only applies a record newer
than what it holds, quorum reads pick the maximum version, and a
tombstone is just a versioned record with the delete flag.  Version
assignment is the linearization point; ``write_quorum + read_quorum >
replication`` and ``2 * write_quorum > replication`` are enforced so any
read quorum intersects the last acknowledged write quorum and any two
write quorums intersect.

Consistency is *checked*, not assumed, on three independent planes:

* the ``cluster`` campaign suite replays conformance PBT through the
  router under node-granularity storms (:mod:`repro.campaign.cluster`);
* every node journals with a distinct identity and the router journals
  cluster-level ops (with replica ack sets); the merged journals replay
  offline under cross-node candidate-set semantics
  (:mod:`repro.evidence.cluster`);
* the deterministic scheduler + linearizability checker model-check the
  quorum/read-repair interleavings
  (:func:`repro.core.concurrent_harnesses.quorum_harness`).

Acknowledged-write durability: with ``durable_writes`` (the default) a
replica ack implies the replica's pending writebacks were drained, so
the record's chunk is on the medium.  It does *not* imply the record is
recoverable: its index entry still sits in the replica's LSM memtable
until the next memtable flush, so a dirty restart of the acking replica
can lose it.  A quorum-acknowledged write therefore survives a minority
crash only while some copy outlives it -- an un-restarted replica, a
queued hint, or an index flush.  With ``hint_limit=0``, a partitioned
third replica and both acking replicas dirty-restarted (a 2-of-5
minority), the write is lost; ``tests/test_cluster.py`` pins this known
gap as a strict xfail.  Closing it needs an LSM flush per durable apply.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.concurrency.primitives import Mutex
from repro.errors import (
    DeadlineExceededError,
    DegradedReadError,
    DegradedWriteError,
    InvalidRequestError,
    KeyNotFoundError,
    NotFoundError,
    OverloadedError,
    ShardStoreError,
)
from repro.shardstore.config import StoreConfig
from repro.shardstore.disk import DiskGeometry
from repro.shardstore.errors import validate_key
from repro.shardstore.injection import (
    FAULT_NODE_CRASH,
    FAULT_NODE_RESTART,
    FAULT_NODE_SLOW,
    FAULT_PARTITION,
    FAULT_PARTITION_HEAL,
    PlannedFault,
)
from repro.shardstore.observability.journal import (
    Journal,
    classify_error,
    digest_bytes,
    digest_keys,
)
from repro.shardstore.resilience import AdmissionConfig
from repro.shardstore.rpc import StorageNode

from .antientropy import AntiEntropyService
from .ring import HashRing

__all__ = [
    "FLAG_TOMBSTONE",
    "FLAG_VALUE",
    "ClusterConfig",
    "ClusterNode",
    "ClusterRouter",
    "decode_record",
    "encode_record",
]

#: Replica record flags (one byte after the 8-byte version).
FLAG_VALUE = 0
FLAG_TOMBSTONE = 1

#: Read-only key the router probes demoted nodes with.
PROBE_KEY = b"__cluster_probe__"


def encode_record(version: int, flag: int, payload: bytes) -> bytes:
    """Frame a replica record: big-endian version, flag byte, payload."""
    if version < 0:
        raise ValueError("version must be non-negative")
    return version.to_bytes(8, "big") + bytes([flag]) + payload


def decode_record(raw: bytes) -> Tuple[int, int, bytes]:
    """Split a replica record into ``(version, flag, payload)``."""
    if len(raw) < 9:
        raise ValueError("replica record too short")
    return int.from_bytes(raw[:8], "big"), raw[8], raw[9:]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster topology and quorum knobs.

    The quorum constraints (validated in ``__post_init__``) are the whole
    consistency argument: ``write_quorum + read_quorum > replication``
    makes every read quorum intersect the last acknowledged write quorum,
    and ``2 * write_quorum > replication`` makes any two write quorums
    intersect (so versions observed by quorum reads are monotone).
    """

    num_nodes: int = 5
    disks_per_node: int = 2
    replication: int = 3
    write_quorum: int = 2
    read_quorum: int = 2
    read_repair: bool = True
    durable_writes: bool = True
    hint_limit: int = 8
    vnodes: int = 16
    seed: int = 0
    demote_threshold: int = 4
    probe_interval: int = 16
    admission: Optional[AdmissionConfig] = None
    geometry: Optional[DiskGeometry] = None
    #: Background Merkle anti-entropy (off by default: the ``cluster``
    #: campaign suite keeps read-repair as its sole healer so the
    #: ``--no-read-repair`` negative control stays load-bearing; the
    #: ``anti-entropy`` suite and the serving demo opt in explicitly).
    anti_entropy: bool = False
    #: Router ops between background sync rounds (0 = manual only).
    anti_entropy_interval: int = 8
    #: Max diverging leaf buckets one background round descends into.
    anti_entropy_buckets: int = 8
    #: Max keys one background round repairs.
    anti_entropy_repairs: int = 16

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise InvalidRequestError("cluster needs at least one node")
        if not 1 <= self.replication <= self.num_nodes:
            raise InvalidRequestError(
                "replication must be between 1 and num_nodes"
            )
        if not 1 <= self.write_quorum <= self.replication:
            raise InvalidRequestError(
                "write_quorum must be between 1 and replication"
            )
        if not 1 <= self.read_quorum <= self.replication:
            raise InvalidRequestError(
                "read_quorum must be between 1 and replication"
            )
        if self.write_quorum + self.read_quorum <= self.replication:
            raise InvalidRequestError(
                "write_quorum + read_quorum must exceed replication "
                "(read/write quorums must intersect)"
            )
        if 2 * self.write_quorum <= self.replication:
            raise InvalidRequestError(
                "2 * write_quorum must exceed replication "
                "(write quorums must intersect)"
            )
        if self.hint_limit < 0:
            raise InvalidRequestError("hint_limit must be non-negative")
        if self.anti_entropy_interval < 0:
            raise InvalidRequestError(
                "anti_entropy_interval must be non-negative"
            )
        if self.anti_entropy_buckets < 1 or self.anti_entropy_repairs < 1:
            raise InvalidRequestError(
                "anti-entropy per-round budgets must be positive"
            )


class ClusterNode:
    """One member: a :class:`StorageNode` plus its cluster-side state."""

    def __init__(
        self, node_id: int, node: StorageNode, journal: Optional[Journal]
    ) -> None:
        self.node_id = node_id
        self.node = node
        self.journal = journal
        self.up = True
        self.partitioned = False
        self.demoted = False
        self.removed = False
        self.failures = 0  # consecutive replica-side errors
        self.probe_at = 0  # op-clock time of the next readmission probe
        # Serializes the read-version/conditional-write pair on this
        # replica; under the deterministic scheduler this is what makes
        # concurrent quorum writes version-monotone per replica.
        self.lock: Mutex = Mutex(None, name=f"cluster-node-{node_id}")

    @property
    def reachable(self) -> bool:
        return (
            self.up
            and not self.partitioned
            and not self.demoted
            and not self.removed
        )

    def status(self) -> str:
        if self.removed:
            return "removed"
        if not self.up:
            return "crashed"
        if self.partitioned:
            return "partitioned"
        if self.demoted:
            return "demoted"
        return "up"


class ClusterRouter:
    """Quorum-replicating coordinator over N storage nodes.

    ``journal_factory(identity, meta)`` (optional) builds one evidence
    journal per member plus one for the router itself; each journal
    carries its ``identity`` in the chain genesis and every record body,
    so the merged multi-journal checker can attribute records without
    op-id collisions.  The router journal's genesis meta carries the
    quorum configuration the offline checker replays under.
    """

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        journal_factory: Optional[
            Callable[[str, Dict[str, Any]], Journal]
        ] = None,
        recorder: Any = None,
    ) -> None:
        self.config = config or ClusterConfig()
        self._journal_factory = journal_factory
        self._recorder = recorder
        self.journal: Optional[Journal] = None
        if journal_factory is not None:
            self.journal = journal_factory("router", self._genesis_meta())
        self.nodes: Dict[int, ClusterNode] = {}
        self.ring = HashRing(vnodes=self.config.vnodes)
        self._next_node_id = 0
        self._version = 0  # per-key record versions (globally monotone)
        self._cop = 0  # cluster op ids (the router journal's op space)
        self._op_count = 0  # router op clock (probe scheduling)
        self._rebalancing = False  # reentrancy guard (demote mid-rebalance)
        self._hints: Dict[int, "OrderedDict[bytes, bytes]"] = {}
        self.stats: Dict[str, int] = {
            name: 0
            for name in (
                "puts",
                "gets",
                "deletes",
                "contains",
                "degraded_writes",
                "quorum_write_failures",
                "quorum_read_failures",
                "read_repairs",
                "hints_queued",
                "hints_dropped",
                "hints_replayed",
                "hints_revoked",
                "replica_errors",
                "replica_sheds",
                "node_crashes",
                "node_restarts",
                "partitions",
                "partition_heals",
                "slow_storms",
                "node_demotions",
                "node_readmissions",
                "node_joins",
                "node_leaves",
                "rebalances",
                "rebalance_moves",
                "anti_entropy_rounds",
                "anti_entropy_root_matches",
                "anti_entropy_buckets",
                "anti_entropy_keys_repaired",
                "anti_entropy_skips",
            )
        }
        #: Per-node hinted-handoff attribution (satellite counters): a
        #: dropped or revoked hint is a write some replica will never
        #: see by handoff -- exactly the divergence anti-entropy must
        #: catch -- so it is surfaced per node, not just in aggregate.
        self.hint_stats: Dict[int, Dict[str, int]] = {}
        self.antientropy = AntiEntropyService(self)
        for _ in range(self.config.num_nodes):
            self._build_node()

    # ------------------------------------------------------------------
    # membership

    def _genesis_meta(self) -> Dict[str, Any]:
        cfg = self.config
        return {
            "role": "router",
            "nodes": cfg.num_nodes,
            "replication": cfg.replication,
            "write_quorum": cfg.write_quorum,
            "read_quorum": cfg.read_quorum,
            "read_repair": cfg.read_repair,
            "durable_writes": cfg.durable_writes,
        }

    def _build_node(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        identity = f"node{node_id}"
        journal = (
            self._journal_factory(identity, {"role": "member"})
            if self._journal_factory is not None
            else None
        )
        kwargs: Dict[str, Any] = {
            "geometry": self.config.geometry or DiskGeometry(),
            "seed": self.config.seed + 101 * (node_id + 1),
            "journal": journal,
        }
        if self._recorder is not None:
            kwargs["recorder"] = self._recorder
        cfg = StoreConfig(**kwargs)
        node = StorageNode(
            num_disks=self.config.disks_per_node,
            config=cfg,
            admission=self.config.admission,
        )
        self.nodes[node_id] = ClusterNode(node_id, node, journal)
        self.ring.add_node(node_id)
        self._hints[node_id] = OrderedDict()
        self.hint_stats[node_id] = {
            "queued": 0, "dropped": 0, "replayed": 0, "revoked": 0
        }
        self.antientropy.register_node(node_id)
        return node_id

    def add_node(self) -> int:
        """Join a fresh node and rebalance placement onto it."""
        node_id = self._build_node()
        self.stats["node_joins"] += 1
        self._record("join", target=node_id)
        self.rebalance()
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Remove a member and rebalance its placement away."""
        cn = self._member(node_id)
        cn.removed = True
        self.ring.remove_node(node_id)
        dropped = len(self._hints.get(node_id, ()))
        if dropped:
            self.stats["hints_dropped"] += dropped
            self.hint_stats[node_id]["dropped"] += dropped
        self._hints[node_id] = OrderedDict()
        self.antientropy.drop_node(node_id)
        self.stats["node_leaves"] += 1
        self._record("leave", target=node_id)
        self.rebalance()

    def _member(self, node_id: int) -> ClusterNode:
        if node_id not in self.nodes:
            raise InvalidRequestError(f"unknown node {node_id}")
        return self.nodes[node_id]

    @property
    def members(self) -> List[int]:
        return [nid for nid, cn in sorted(self.nodes.items()) if not cn.removed]

    def _placement(self, key: bytes) -> List[int]:
        return self.ring.preference_list(key, self.config.replication)

    # ------------------------------------------------------------------
    # journal plumbing

    def _record(self, kind: str, **fields: Any) -> None:
        if self.journal is not None:
            self.journal.record_op(kind, **fields)

    def _begin(self, kind: str, **kwargs: Any) -> Optional[Dict[str, Any]]:
        if self.journal is None:
            return None
        return self.journal.begin_op(kind, **kwargs)

    def _end(
        self, handle: Optional[Dict[str, Any]], out: str, **fields: Any
    ) -> None:
        if self.journal is not None:
            self.journal.end_op(handle, out, **fields)

    # ------------------------------------------------------------------
    # clocks and probes

    def _tick(self) -> None:
        self._op_count += 1
        self._probe_demoted()
        self.antientropy.maybe_run()

    def _next_cop(self) -> int:
        self._cop += 1
        return self._cop

    def _next_version(self) -> int:
        self._version += 1
        return self._version

    def _probe_demoted(self) -> None:
        for cn in self.nodes.values():
            if not cn.demoted or cn.removed or not cn.up or cn.partitioned:
                continue
            if self._op_count < cn.probe_at:
                continue
            try:
                cn.node.contains(PROBE_KEY)
            except ShardStoreError:
                cn.probe_at = self._op_count + self.config.probe_interval
                continue
            self._readmit(cn)

    def _readmit(self, cn: ClusterNode) -> None:
        cn.demoted = False
        cn.failures = 0
        self.stats["node_readmissions"] += 1
        self._record("readmit", target=cn.node_id)
        self._replay_hints(cn.node_id)
        self.rebalance()

    def _note_failure(self, cn: ClusterNode) -> None:
        self.stats["replica_errors"] += 1
        cn.failures += 1
        if (
            not cn.demoted
            and cn.failures >= self.config.demote_threshold
        ):
            cn.demoted = True
            cn.probe_at = self._op_count + self.config.probe_interval
            self.stats["node_demotions"] += 1
            self._record("demote", target=cn.node_id)
            self.rebalance()

    # ------------------------------------------------------------------
    # hinted handoff

    def _queue_hint(self, node_id: int, key: bytes, record: bytes) -> None:
        if self.config.hint_limit == 0:
            self.stats["hints_dropped"] += 1
            self.hint_stats[node_id]["dropped"] += 1
            return
        hints = self._hints[node_id]
        if key in hints:
            del hints[key]
        elif len(hints) >= self.config.hint_limit:
            hints.popitem(last=False)
            self.stats["hints_dropped"] += 1
            self.hint_stats[node_id]["dropped"] += 1
        hints[key] = record
        self.stats["hints_queued"] += 1
        self.hint_stats[node_id]["queued"] += 1

    def _revoke_hints(self, node_ids: List[int], key: bytes) -> None:
        """Drop hints queued by a write that failed its quorum.

        Hinted handoff guarantees *acknowledged* writes reach every
        replica; replaying an unacknowledged write later would resurrect
        an operation its client was told failed.
        """
        for node_id in node_ids:
            hints = self._hints.get(node_id)
            if hints is not None and key in hints:
                del hints[key]
                self.stats["hints_revoked"] += 1
                self.hint_stats[node_id]["revoked"] += 1

    def _replay_hints(self, node_id: int) -> None:
        cn = self.nodes[node_id]
        if not cn.reachable:
            return
        hints = self._hints[node_id]
        if not hints:
            return
        self._hints[node_id] = OrderedDict()
        replayed = 0
        for key, record in hints.items():
            try:
                self._replica_apply(cn, 0, key, record)
                replayed += 1
            except ShardStoreError:
                self._note_failure(cn)
        self.stats["hints_replayed"] += replayed
        self.hint_stats[node_id]["replayed"] += replayed
        self._record("hint_replay", target=node_id, count=replayed)

    def hints_pending(self, node_id: int) -> int:
        return len(self._hints.get(node_id, ()))

    # ------------------------------------------------------------------
    # replica IO

    def _replica_apply(
        self, cn: ClusterNode, cop: int, key: bytes, record: bytes
    ) -> None:
        """Conditionally apply ``record`` on one replica (newer wins).

        The version check and the write are serialized per replica, which
        keeps replica versions monotone under concurrent quorum writes --
        the property the model-check harness exercises.  The replica's
        current version comes from the anti-entropy version index; only a
        key the index cannot vouch for (an earlier mutation of it raised,
        or the replica's index rebuild failed) is read back from the
        replica.  With ``durable_writes`` the ack implies a drain of the
        replica's pending writebacks, which puts the record's chunk on
        the medium but not its index entry (see the module docstring:
        the record can still be lost to a dirty restart).
        """
        version = int.from_bytes(record[:8], "big")
        cn.lock.acquire()
        try:
            current = self.antientropy.replica_version(cn.node_id, key)
            if current is None:
                current = self._read_version(cn, key)
            if current >= version:
                return
            if cn.journal is not None and cop:
                cn.journal.annotate(cop=cop)
            try:
                cn.node.put(key, record)
                # Mirror the apply into the replica's Merkle tree and
                # version index before the drain: the record is on the
                # node either way, and a lost un-drained write is only
                # lost to a dirty restart, which rebuilds both.
                self.antientropy.note_apply(cn.node_id, key, record)
                if self.config.durable_writes:
                    cn.node.drain()
            except BaseException:
                # The put may have applied before raising: never let the
                # index claim a version the replica might not hold.
                self.antientropy.note_uncertain(cn.node_id, key)
                raise
        finally:
            cn.lock.release()

    def _read_version(self, cn: ClusterNode, key: bytes) -> int:
        """Read ``key``'s version back from the replica (-1 when absent)
        and resynchronize the replica's tree and index with it."""
        try:
            raw = cn.node.get(key)
        except NotFoundError:
            self.antientropy.note_remove(cn.node_id, key)
            return -1
        self.antientropy.note_apply(cn.node_id, key, raw)
        return decode_record(raw)[0]

    def _quorum_write(
        self, cop: int, key: bytes, record: bytes, placement: List[int]
    ) -> Tuple[List[int], List[int]]:
        """Write ``record`` to ``key``'s preference list ``placement``;
        returns (acks, hinted)."""
        acks: List[int] = []
        hinted: List[int] = []
        for node_id in placement:
            cn = self.nodes[node_id]
            if not cn.reachable:
                self._queue_hint(node_id, key, record)
                hinted.append(node_id)
                continue
            try:
                self._replica_apply(cn, cop, key, record)
            except (OverloadedError, DeadlineExceededError):
                self.stats["replica_sheds"] += 1
                self._queue_hint(node_id, key, record)
                hinted.append(node_id)
            except ShardStoreError:
                self._note_failure(cn)
                self._queue_hint(node_id, key, record)
                hinted.append(node_id)
            else:
                cn.failures = 0
                acks.append(node_id)
        return acks, hinted

    def _quorum_read(
        self, key: bytes, placement: List[int]
    ) -> List[Tuple[int, int, int, bytes, Optional[bytes]]]:
        """Read ``key`` from every reachable replica of ``placement``.

        Each reply is ``(node_id, version, flag, payload, raw)``; a
        replica that answers "absent" replies with version -1 (that is an
        answer, and counts toward the read quorum).
        """
        replies: List[Tuple[int, int, int, bytes, Optional[bytes]]] = []
        for node_id in placement:
            cn = self.nodes[node_id]
            if not cn.reachable:
                continue
            try:
                raw = cn.node.get(key)
            except NotFoundError:
                replies.append((node_id, -1, FLAG_TOMBSTONE, b"", None))
                cn.failures = 0
            except (OverloadedError, DeadlineExceededError):
                self.stats["replica_sheds"] += 1
            except ShardStoreError:
                self._note_failure(cn)
            else:
                version, flag, payload = decode_record(raw)
                replies.append((node_id, version, flag, payload, raw))
                cn.failures = 0
        return replies

    def _read_repair(
        self,
        cop: int,
        key: bytes,
        replies: List[Tuple[int, int, int, bytes, Optional[bytes]]],
        newest: Tuple[int, int, int, bytes, Optional[bytes]],
    ) -> None:
        if not self.config.read_repair or newest[4] is None:
            return
        for node_id, version, _, _, _ in replies:
            if version >= newest[1]:
                continue
            cn = self.nodes[node_id]
            try:
                self._replica_apply(cn, cop, key, newest[4])
            except ShardStoreError:
                self._note_failure(cn)
                continue
            self.stats["read_repairs"] += 1
            self._record(
                "read_repair", key=key, target=node_id, ver=newest[1]
            )

    # ------------------------------------------------------------------
    # client API (the KVNode surface, replicated)

    def put(
        self, key: bytes, value: bytes, *, deadline: Optional[int] = None
    ) -> None:
        validate_key(key)
        if not isinstance(value, bytes):
            raise InvalidRequestError(
                f"value must be bytes, got {type(value).__name__}"
            )
        self._tick()
        self.stats["puts"] += 1
        cop = self._next_cop()
        version = self._next_version()
        record = encode_record(version, FLAG_VALUE, value)
        handle = self._begin(
            "put", key=key, value=record, fields={"cop": cop, "ver": version}
        )
        placement = self._placement(key)
        acks, hinted = self._quorum_write(cop, key, record, placement)
        want = self.config.write_quorum
        if len(acks) >= want:
            if len(acks) < len(placement):
                self.stats["degraded_writes"] += 1
            self._end(handle, "ok", acks=acks, want=want)
            return
        self._revoke_hints(hinted, key)
        self.stats["quorum_write_failures"] += 1
        exc = DegradedWriteError(
            f"write reached {len(acks)}/{want} replicas",
            acks=len(acks),
            required=want,
        )
        self._end(handle, classify_error(exc), acks=acks, want=want)
        raise exc

    def get(self, key: bytes, *, deadline: Optional[int] = None) -> bytes:
        validate_key(key)
        self._tick()
        self.stats["gets"] += 1
        cop = self._next_cop()
        handle = self._begin("get", key=key, fields={"cop": cop})
        replies = self._quorum_read(key, self._placement(key))
        want = self.config.read_quorum
        if len(replies) < want:
            self.stats["quorum_read_failures"] += 1
            exc = DegradedReadError(
                f"read reached {len(replies)}/{want} replicas",
                replies=len(replies),
                required=want,
                candidates=[(r[0], r[1]) for r in replies],
            )
            self._end(
                handle, classify_error(exc), replies=[r[0] for r in replies]
            )
            raise exc
        newest = max(replies, key=lambda r: r[1])
        self._read_repair(cop, key, replies, newest)
        if newest[1] < 0 or newest[2] == FLAG_TOMBSTONE:
            exc2 = KeyNotFoundError(f"key not found: {key!r}")
            self._end(handle, classify_error(exc2), replies=[r[0] for r in replies])
            raise exc2
        self._end(
            handle,
            "ok",
            value=digest_bytes(newest[4] or b""),
            ver=newest[1],
            replies=[r[0] for r in replies],
        )
        return newest[3]

    def delete(self, key: bytes, *, deadline: Optional[int] = None) -> None:
        validate_key(key)
        self._tick()
        self.stats["deletes"] += 1
        cop = self._next_cop()
        handle = self._begin("delete", key=key, fields={"cop": cop})
        placement = self._placement(key)
        replies = self._quorum_read(key, placement)
        want_r = self.config.read_quorum
        if len(replies) < want_r:
            self.stats["quorum_read_failures"] += 1
            exc = DegradedReadError(
                f"read reached {len(replies)}/{want_r} replicas",
                replies=len(replies),
                required=want_r,
                candidates=[(r[0], r[1]) for r in replies],
            )
            self._end(handle, classify_error(exc))
            raise exc
        newest = max(replies, key=lambda r: r[1])
        if newest[1] < 0 or newest[2] == FLAG_TOMBSTONE:
            exc2 = KeyNotFoundError(f"key not found: {key!r}")
            self._end(handle, classify_error(exc2))
            raise exc2
        version = self._next_version()
        record = encode_record(version, FLAG_TOMBSTONE, b"")
        acks, hinted = self._quorum_write(cop, key, record, placement)
        want = self.config.write_quorum
        if len(acks) >= want:
            self._end(handle, "ok", acks=acks, want=want, ver=version)
            return
        self._revoke_hints(hinted, key)
        self.stats["quorum_write_failures"] += 1
        exc3 = DegradedWriteError(
            f"delete reached {len(acks)}/{want} replicas",
            acks=len(acks),
            required=want,
        )
        self._end(handle, classify_error(exc3), acks=acks, want=want, ver=version)
        raise exc3

    def contains(self, key: bytes) -> bool:
        validate_key(key)
        self._tick()
        self.stats["contains"] += 1
        cop = self._next_cop()
        handle = self._begin("contains", key=key, fields={"cop": cop})
        replies = self._quorum_read(key, self._placement(key))
        want = self.config.read_quorum
        if len(replies) < want:
            self.stats["quorum_read_failures"] += 1
            exc = DegradedReadError(
                f"read reached {len(replies)}/{want} replicas",
                replies=len(replies),
                required=want,
                candidates=[(r[0], r[1]) for r in replies],
            )
            self._end(handle, classify_error(exc))
            raise exc
        newest = max(replies, key=lambda r: r[1])
        self._read_repair(cop, key, replies, newest)
        exists = newest[1] >= 0 and newest[2] != FLAG_TOMBSTONE
        self._end(handle, "ok", exists=exists)
        return exists

    def keys(self) -> List[bytes]:
        """Every key visible through a quorum read, sorted."""
        self._tick()
        candidates: set = set()
        for cn in self.nodes.values():
            if not cn.reachable:
                continue
            try:
                candidates.update(cn.node.keys())
            except ShardStoreError:
                self._note_failure(cn)
        out: List[bytes] = []
        for key in sorted(candidates):
            if key == PROBE_KEY:
                continue
            replies = self._quorum_read(key, self._placement(key))
            if len(replies) < self.config.read_quorum:
                continue
            newest = max(replies, key=lambda r: r[1])
            if newest[1] >= 0 and newest[2] != FLAG_TOMBSTONE:
                out.append(key)
        if self.journal is not None:
            self.journal.record_op(
                "keys", out="ok", count=len(out), keyset=digest_keys(out)
            )
        return out

    # ------------------------------------------------------------------
    # node-granularity fault plane

    def apply_fault(self, fault: PlannedFault) -> None:
        """Apply one node-level planned fault (``disk`` is the node id)."""
        if fault.kind == FAULT_NODE_CRASH:
            self.crash_node(fault.disk)
        elif fault.kind == FAULT_NODE_RESTART:
            self.restart_node(fault.disk)
        elif fault.kind == FAULT_PARTITION:
            self.partition_node(fault.disk)
        elif fault.kind == FAULT_PARTITION_HEAL:
            self.heal_partition(fault.disk)
        elif fault.kind == FAULT_NODE_SLOW:
            self.slow_node(fault.disk, fault.arg)
        else:
            raise InvalidRequestError(
                f"not a cluster fault kind: {fault.kind!r}"
            )

    def crash_node(self, node_id: int) -> None:
        cn = self._member(node_id)
        if not cn.up:
            return
        cn.up = False
        self.stats["node_crashes"] += 1
        self._record("crash", target=node_id)

    def restart_node(self, node_id: int) -> None:
        """Dirty-restart a crashed node: un-drained writes are lost."""
        cn = self._member(node_id)
        if cn.up:
            return
        for system in cn.node.systems:
            try:
                system.dirty_reboot()
            except ShardStoreError:
                pass
        cn.up = True
        cn.failures = 0
        self.stats["node_restarts"] += 1
        self._record("restart", target=node_id)
        # A dirty restart may have lost un-drained writes; re-derive the
        # replica's Merkle tree from what recovery actually produced
        # (hint replay below re-applies through the tracked path).
        self.antientropy.rebuild(node_id)
        self._replay_hints(node_id)

    def partition_node(self, node_id: int) -> None:
        cn = self._member(node_id)
        if cn.partitioned:
            return
        cn.partitioned = True
        self.stats["partitions"] += 1
        self._record("partition", target=node_id)

    def heal_partition(self, node_id: int) -> None:
        cn = self._member(node_id)
        if not cn.partitioned:
            return
        cn.partitioned = False
        cn.failures = 0
        self.stats["partition_heals"] += 1
        self._record("partition_heal", target=node_id)
        self._replay_hints(node_id)

    def slow_node(self, node_id: int, held_arrivals: int) -> None:
        """A gray node: hold arrivals so its admission queue sheds."""
        cn = self._member(node_id)
        self.stats["slow_storms"] += 1
        self._record("slow", target=node_id, arg=held_arrivals)
        if self.config.admission is not None:
            cn.node.hold_arrivals(held_arrivals)

    def settle(self) -> None:
        """Return the cluster to full health: heal partitions, restart
        crashed nodes, readmit demoted ones, replay every pending hint.

        Journals a ``settle`` record -- the anchor for the mined
        ``roots-converge-after-settle`` invariant (the next
        ``merkle_roots`` record after a settle must report convergence).
        """
        for node_id, cn in sorted(self.nodes.items()):
            if cn.removed:
                continue
            if cn.partitioned:
                self.heal_partition(node_id)
            if not cn.up:
                self.restart_node(node_id)
            if cn.demoted:
                self._readmit(cn)
            self._replay_hints(node_id)
        self._record("settle")

    # ------------------------------------------------------------------
    # rebalancing

    def rebalance(self) -> int:
        """Converge placement: copy each key's newest record onto every
        reachable preference replica and drop stray copies elsewhere.

        Runs after membership changes (join/leave) and breaker demotions /
        readmissions.  Returns the number of records moved or dropped.
        """
        if self._rebalancing:
            return 0
        self._rebalancing = True
        try:
            return self._rebalance()
        finally:
            self._rebalancing = False

    def _rebalance(self) -> int:
        reachable = {
            nid: cn for nid, cn in self.nodes.items() if cn.reachable
        }
        keys: set = set()
        for cn in reachable.values():
            try:
                keys.update(cn.node.keys())
            except ShardStoreError:
                continue
        keys.discard(PROBE_KEY)
        moves = 0
        for key in sorted(keys):
            best: Optional[bytes] = None
            best_version = -1
            holders: Dict[int, int] = {}
            for nid, cn in reachable.items():
                try:
                    raw = cn.node.get(key)
                except NotFoundError:
                    continue
                except ShardStoreError:
                    continue
                version, _, _ = decode_record(raw)
                holders[nid] = version
                if version > best_version:
                    best_version = version
                    best = raw
            if best is None:
                continue
            prefs = self._placement(key)
            for nid in prefs:
                cn = reachable.get(nid)
                if cn is None:
                    continue
                if holders.get(nid, -1) < best_version:
                    try:
                        self._replica_apply(cn, 0, key, best)
                        moves += 1
                    except ShardStoreError:
                        self._note_failure(cn)
            for nid in holders:
                if nid in prefs:
                    continue
                try:
                    reachable[nid].node.delete(key)
                except ShardStoreError:
                    self.antientropy.note_uncertain(nid, key)
                    continue
                self.antientropy.note_remove(nid, key)
                moves += 1
        self.stats["rebalances"] += 1
        self.stats["rebalance_moves"] += moves
        self._record("rebalance", moves=moves)
        return moves

    # ------------------------------------------------------------------
    # replica inspection (used by the settlement convergence gate)

    def replica_states(
        self, key: bytes
    ) -> Dict[int, Optional[Tuple[int, int, bytes]]]:
        """Raw decoded record per preference replica (None = absent).

        Bypasses quorum logic -- this is the campaign's convergence
        oracle, not a client API.
        """
        out: Dict[int, Optional[Tuple[int, int, bytes]]] = {}
        for node_id in self._placement(key):
            cn = self.nodes[node_id]
            try:
                out[node_id] = decode_record(cn.node.get(key))
            except NotFoundError:
                out[node_id] = None
            except ShardStoreError:
                out[node_id] = None
        return out

    # ------------------------------------------------------------------
    # health

    def quorum_health(self) -> Dict[str, Any]:
        cfg = self.config
        reachable = sum(1 for cn in self.nodes.values() if cn.reachable)
        active = len(self.members)
        return {
            "nodes": active,
            "reachable": reachable,
            "replication": cfg.replication,
            "write_quorum": cfg.write_quorum,
            "read_quorum": cfg.read_quorum,
            "quorum_ok": reachable >= max(cfg.write_quorum, cfg.read_quorum),
            "below_replication": reachable < cfg.replication,
            "degraded": any(
                not cn.reachable and not cn.removed
                for cn in self.nodes.values()
            ),
        }

    def health_snapshot(self) -> Dict[str, Any]:
        nodes: Dict[str, Any] = {}
        for node_id, cn in sorted(self.nodes.items()):
            if cn.removed:
                continue
            nodes[str(node_id)] = {
                "status": cn.status(),
                "reachable": cn.reachable,
                "hints_pending": self.hints_pending(node_id),
                "hints_dropped": self.hint_stats[node_id]["dropped"],
                "hints_revoked": self.hint_stats[node_id]["revoked"],
                "failures": cn.failures,
            }
        return {
            "cluster": self.quorum_health(),
            "nodes": nodes,
            "counters": dict(self.stats),
            "anti_entropy": {
                "enabled": self.antientropy.enabled,
                "rounds": self.stats["anti_entropy_rounds"],
                "keys_repaired": self.stats["anti_entropy_keys_repaired"],
            },
        }

    def close(self) -> Dict[str, str]:
        """Seal every journal; returns identity -> chain head."""
        heads: Dict[str, str] = {}
        if self.journal is not None:
            heads["router"] = self.journal.close()
        for node_id, cn in sorted(self.nodes.items()):
            if cn.journal is not None:
                heads[f"node{node_id}"] = cn.journal.close()
        return heads
