"""Merkle anti-entropy: proactive replica repair beyond read-repair.

PR 8's cluster heals divergence only through read-repair, so a key that
is never read again after a partition, a hint-buffer overflow, or a
quorum-failure hint revocation stays divergent *forever* -- the paper's
section 4.4 recovery obligation demands better.  This module closes the
gap with the classic Dynamo-style protocol:

* every replica maintains an incremental :class:`~repro.shardstore.
  merkle.MerkleMap` over its ``key -> record-digest`` map (updated on
  each conditional apply, rebuilt after a dirty restart), and next to
  it a ``key -> version`` index that the router's conditional apply
  reads instead of reading the record back from the replica;
* a background round picks one pair of reachable replicas on the
  router's op clock, compares tree roots, descends only into diverging
  subtrees, and repairs stale keys through the *existing* versioned
  conditional-apply path (newest version wins, tombstones included);
* per-round budgets bound the buckets descended and keys repaired, so
  sync can never starve foreground traffic;
* an explicit :meth:`AntiEntropyService.sync` against an unreachable
  peer raises a typed :class:`~repro.errors.AntiEntropyError`;
  background rounds just skip the pair and retry later.

Convergence is *checked*, not assumed: :meth:`roots_converged` groups
keys by their preference list and compares, per group, a Merkle root
computed by every live member over exactly that group's key domain.
All-equal group roots prove the live replicas hold byte-identical record
sets (up to digest collision) -- the ``anti-entropy`` campaign suite's
settlement gate, and the property the ``--no-anti-entropy`` negative
control proves is load-bearing.  (Whole-tree roots cannot converge
pairwise under partial replication -- each node legitimately holds a
different key subset -- which is why the gate is per placement group
while the pairwise *sync* still descends whole trees and filters to
shared placements at repair time.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import AntiEntropyError, NotFoundError, ShardStoreError
from repro.shardstore.merkle import MerkleMap, numeric_root
from repro.shardstore.observability.journal import digest_bytes, digest_keys

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (router imports us)
    from .router import ClusterNode, ClusterRouter

__all__ = ["AntiEntropyService", "DEFAULT_MAX_ROUNDS"]

#: Ceiling for :meth:`AntiEntropyService.run_until_converged`; generous --
#: a full pair cycle is ``C(n, 2)`` rounds and convergence needs at most
#: ``replication - 1`` cycles of budgeted progress.
DEFAULT_MAX_ROUNDS = 200


def _record_version(raw: Optional[bytes]) -> int:
    """The version framed in a replica record (-1 when absent)."""
    if raw is None or len(raw) < 9:
        return -1
    return int.from_bytes(raw[:8], "big")


class AntiEntropyService:
    """Per-replica Merkle trees plus the budgeted pairwise sync protocol.

    Owned by :class:`~repro.cluster.router.ClusterRouter`; the router
    calls :meth:`note_apply` / :meth:`note_remove` from every replica
    mutation path so the trees are exact mirrors of replica content, and
    :meth:`maybe_run` from its op clock so rounds are deterministic
    functions of the workload (never wall time).

    The same three points (:meth:`note_apply`, :meth:`note_remove`,
    :meth:`rebuild`) maintain ``versions``: each replica's ``key ->
    version`` index, which answers the conditional apply's "what does
    this replica hold?" without a read.  The index may never claim a
    version the replica does not hold, so a mutation that raised (it may
    or may not have applied) marks its key *uncertain* (version
    ``None``) via :meth:`note_uncertain`, and a failed :meth:`rebuild`
    drops the whole replica's index; :meth:`replica_version` answers
    ``None`` for both, and the caller falls back to reading the replica.
    """

    def __init__(self, router: "ClusterRouter") -> None:
        self.router = router
        cfg = router.config
        self.enabled = cfg.anti_entropy
        self.interval = cfg.anti_entropy_interval
        self.max_buckets = cfg.anti_entropy_buckets
        self.max_repairs = cfg.anti_entropy_repairs
        self.trees: Dict[int, MerkleMap] = {}
        # Per-replica version index (None = uncertain); a node missing
        # here is unindexed.
        self.versions: Dict[int, Dict[bytes, Optional[int]]] = {}
        self._cursor = 0  # round-robin position over reachable pairs
        self._bucket_cursor = 0  # rotation offset into diverging buckets

    # ------------------------------------------------------------------
    # tree maintenance (called from the router's replica mutation paths)

    def register_node(self, node_id: int) -> None:
        self.trees[node_id] = MerkleMap()
        self.versions[node_id] = {}

    def drop_node(self, node_id: int) -> None:
        self.trees.pop(node_id, None)
        self.versions.pop(node_id, None)

    def note_apply(self, node_id: int, key: bytes, record: bytes) -> None:
        tree = self.trees.get(node_id)
        if tree is not None:
            tree.set(key, digest_bytes(record))
        versions = self.versions.get(node_id)
        if versions is not None:
            versions[key] = _record_version(record)

    def note_remove(self, node_id: int, key: bytes) -> None:
        tree = self.trees.get(node_id)
        if tree is not None:
            tree.remove(key)
        versions = self.versions.get(node_id)
        if versions is not None:
            versions.pop(key, None)

    def note_uncertain(self, node_id: int, key: bytes) -> None:
        """A mutation of ``key`` raised: its replica version is unknown."""
        versions = self.versions.get(node_id)
        if versions is not None:
            versions[key] = None

    def replica_version(self, node_id: int, key: bytes) -> Optional[int]:
        """The version of ``key`` the replica holds (-1 when absent), or
        ``None`` when the index cannot vouch for it."""
        versions = self.versions.get(node_id)
        if versions is None:
            return None
        return versions.get(key, -1)

    def rebuild(self, node_id: int) -> None:
        """Rebuild one replica's tree and version index from its store
        (post-restart).

        A dirty restart can lose writes (un-drained ones, and drained
        ones whose index entry was still in the LSM memtable), so the
        in-memory tree may be ahead of the recovered store; re-deriving it from what
        recovery actually produced is the only honest commitment.  A key
        that cannot be read back is left uncertain; if the key listing
        itself fails, the whole replica stays unindexed until the next
        successful rebuild.
        """
        tree = self.trees.get(node_id)
        cn = self.router.nodes.get(node_id)
        if tree is None or cn is None:
            return
        tree.clear()
        self.versions.pop(node_id, None)
        try:
            keys = cn.node.keys()
        except ShardStoreError:
            return
        versions: Dict[bytes, Optional[int]] = {}
        for key in keys:
            try:
                record = cn.node.get(key)
            except NotFoundError:
                continue
            except ShardStoreError:
                versions[key] = None
                continue
            tree.set(key, digest_bytes(record))
            versions[key] = _record_version(record)
        self.versions[node_id] = versions

    def root(self, node_id: int) -> str:
        """The whole-tree root of one replica (journal / gauge surface)."""
        return self.trees[node_id].root()

    def numeric_roots(self) -> Dict[int, int]:
        """Per-node 48-bit root prefixes for the /metrics gauge."""
        return {
            nid: numeric_root(tree.root())
            for nid, tree in sorted(self.trees.items())
            if nid in self.router.nodes and not self.router.nodes[nid].removed
        }

    # ------------------------------------------------------------------
    # pairwise sync

    def _reachable_pairs(self) -> List[Tuple[int, int]]:
        ids = [
            nid
            for nid, cn in sorted(self.router.nodes.items())
            if cn.reachable
        ]
        return [
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]
        ]

    def maybe_run(self) -> None:
        """Op-clock trigger: one budgeted round every ``interval`` ops."""
        if not self.enabled or self.interval <= 0:
            return
        if self.router._op_count % self.interval:
            return
        self.run_round()

    def run_round(self) -> Optional[Dict[str, Any]]:
        """One budgeted background round over the next reachable pair.

        Returns the round summary (also journaled), or ``None`` when
        fewer than two replicas are reachable.  Never raises for an
        unreachable peer -- the pair list is recomputed each round.
        """
        pairs = self._reachable_pairs()
        if not pairs:
            self.router.stats["anti_entropy_skips"] += 1
            return None
        pair = pairs[self._cursor % len(pairs)]
        self._cursor += 1
        return self._sync_pair(
            pair[0],
            pair[1],
            max_buckets=self.max_buckets,
            max_repairs=self.max_repairs,
        )

    def sync(self, node_a: int, node_b: int) -> Dict[str, Any]:
        """Explicitly sync one replica pair to completion (no budgets).

        Raises :class:`AntiEntropyError` when either peer is not
        reachable -- the typed contract for *requested* syncs; background
        rounds skip instead.
        """
        for nid in (node_a, node_b):
            cn = self.router.nodes.get(nid)
            if cn is None:
                raise AntiEntropyError(
                    f"anti-entropy peer {nid} is unknown",
                    peer=nid,
                    reason="unknown",
                )
            if not cn.reachable:
                raise AntiEntropyError(
                    f"anti-entropy peer {nid} is {cn.status()}",
                    peer=nid,
                    reason=cn.status(),
                )
        return self._sync_pair(node_a, node_b, max_buckets=None, max_repairs=None)

    def _sync_pair(
        self,
        node_a: int,
        node_b: int,
        *,
        max_buckets: Optional[int],
        max_repairs: Optional[int],
    ) -> Dict[str, Any]:
        stats = self.router.stats
        tree_a, tree_b = self.trees[node_a], self.trees[node_b]
        buckets, compared = tree_a.diff(tree_b)
        stats["anti_entropy_rounds"] += 1
        summary: Dict[str, Any] = {
            "pair": [node_a, node_b],
            "root_match": not buckets,
            "compared": compared,
            "diverging": len(buckets),
            "descended": 0,
            "repaired": 0,
        }
        if not buckets:
            stats["anti_entropy_root_matches"] += 1
            self.router._record("anti_entropy", **summary)
            return summary
        if max_buckets is not None:
            # Rotate the descent start each round: a pair can legitimately
            # hold permanently-diverging buckets (keys whose placement the
            # pair does not share), so always descending the first N would
            # starve the repairable tail behind them.
            # The offset advances by one (coprime with any list length),
            # so every diverging bucket is eventually descended no matter
            # how the list length interacts with the window size.
            start = self._bucket_cursor % len(buckets)
            self._bucket_cursor += 1
            buckets = (buckets[start:] + buckets[:start])[:max_buckets]
        repaired_keys: List[bytes] = []
        budget_spent = False
        for bucket in buckets:
            if budget_spent:
                break
            summary["descended"] += 1
            stats["anti_entropy_buckets"] += 1
            items_a = tree_a.bucket_items(bucket)
            items_b = tree_b.bucket_items(bucket)
            for key in sorted(set(items_a) | set(items_b)):
                if items_a.get(key) == items_b.get(key):
                    continue
                if max_repairs is not None and len(repaired_keys) >= max_repairs:
                    budget_spent = True
                    break
                placement = self.router._placement(key)
                if node_a not in placement or node_b not in placement:
                    # A stray copy outside the key's preference list is
                    # rebalancing's job, not anti-entropy's.
                    continue
                if self._repair_key(node_a, node_b, key):
                    repaired_keys.append(key)
        summary["repaired"] = len(repaired_keys)
        stats["anti_entropy_keys_repaired"] += len(repaired_keys)
        if repaired_keys:
            summary["repaired_keys"] = digest_keys(sorted(repaired_keys))
        self.router._record("anti_entropy", **summary)
        return summary

    def _read_raw(self, cn: "ClusterNode", key: bytes) -> Optional[bytes]:
        try:
            return cn.node.get(key)
        except NotFoundError:
            return None
        except ShardStoreError:
            self.router._note_failure(cn)
            return None

    def _repair_key(self, node_a: int, node_b: int, key: bytes) -> bool:
        """Copy the newest record of ``key`` onto the staler pair member.

        Goes through :meth:`ClusterRouter._replica_apply`, so the repair
        is exactly a conditional write: per-replica version monotonicity
        and acknowledged-write durability are preserved by construction.
        """
        cn_a = self.router.nodes[node_a]
        cn_b = self.router.nodes[node_b]
        raw_a = self._read_raw(cn_a, key)
        raw_b = self._read_raw(cn_b, key)
        ver_a, ver_b = _record_version(raw_a), _record_version(raw_b)
        if ver_a == ver_b:
            return False  # equal versions carry equal records
        src, dst = (
            (raw_a, cn_b) if ver_a > ver_b else (raw_b, cn_a)
        )
        if src is None:
            return False
        try:
            self.router._replica_apply(dst, 0, key, src)
        except ShardStoreError:
            self.router._note_failure(dst)
            return False
        return True

    def run_until_converged(
        self, max_rounds: int = DEFAULT_MAX_ROUNDS
    ) -> Dict[str, Any]:
        """Budgeted rounds until the placement-group roots converge.

        The convergence check runs once per full pair cycle (it is a
        whole-keyspace sweep; rounds are cheap).  Returns ``{"rounds",
        "converged"}``; callers gate on ``converged`` -- the settlement
        gate never trusts round counts alone.
        """
        rounds = 0
        snapshot = self.converged_snapshot()
        while not snapshot["converged"] and rounds < max_rounds:
            cycle = max(1, len(self._reachable_pairs()))
            for _ in range(min(cycle, max_rounds - rounds)):
                self.run_round()
                rounds += 1
            snapshot = self.converged_snapshot()
        return {"rounds": rounds, "converged": snapshot["converged"]}

    # ------------------------------------------------------------------
    # convergence proof (the settlement gate)

    def converged_snapshot(self) -> Dict[str, Any]:
        """Placement-group Merkle roots across all live replicas.

        Keys are grouped by preference list; each live group member
        computes a Merkle root over its records restricted to the
        group's key domain.  A group converged iff every member root is
        equal -- equal roots prove identical record sets.  Returns
        ``{"converged", "groups", "divergent", "keys"}``.
        """
        nodes = self.router.nodes
        groups: Dict[Tuple[int, ...], List[bytes]] = {}
        all_keys: set = set()
        for nid, tree in self.trees.items():
            cn = nodes.get(nid)
            if cn is None or cn.removed:
                continue
            all_keys.update(tree.keys())
        for key in all_keys:
            placement = tuple(self.router._placement(key))
            groups.setdefault(placement, []).append(key)
        divergent = 0
        for placement, keys in groups.items():
            live = [
                nid
                for nid in placement
                if nid in nodes and nodes[nid].reachable
            ]
            if len(live) < 2:
                continue  # nothing to compare; a lone replica is converged
            roots = set()
            for nid in live:
                tree = self.trees[nid]
                items = [
                    (key, tree.get(key) or "")
                    for key in keys
                    if tree.get(key) is not None
                ]
                roots.add(MerkleMap.from_items(items).root())
            if len(roots) > 1:
                divergent += 1
        return {
            "converged": divergent == 0,
            "groups": len(groups),
            "divergent": divergent,
            "keys": len(all_keys),
        }

    def roots_converged(self) -> bool:
        return bool(self.converged_snapshot()["converged"])

    def journal_roots(self) -> Dict[str, Any]:
        """Journal the convergence verdict plus every live replica root.

        This is the record the mined ``roots-converge-after-settle``
        invariant keys on: after a ``settle`` record, the next
        ``merkle_roots`` record must report ``converged=True``.
        """
        snapshot = self.converged_snapshot()
        roots = {
            str(nid): self.trees[nid].root()
            for nid, cn in sorted(self.router.nodes.items())
            if not cn.removed and nid in self.trees
        }
        self.router._record(
            "merkle_roots",
            converged=snapshot["converged"],
            groups=snapshot["groups"],
            divergent=snapshot["divergent"],
            nkeys=snapshot["keys"],
            roots=roots,
        )
        return {**snapshot, "roots": roots}
