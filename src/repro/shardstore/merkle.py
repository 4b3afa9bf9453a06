"""Deterministic incremental Merkle trees over key -> digest maps.

This is the shared integrity primitive behind two planes (ROADMAP items
1 and 5a):

* **Cluster anti-entropy** (:mod:`repro.cluster.antientropy`): each
  replica maintains a :class:`MerkleMap` over its ``key -> (version,
  value-digest)`` records.  Two replicas compare roots and descend only
  into diverging subtrees, so synchronizing an almost-converged pair
  costs ``O(log)`` comparisons instead of a full key sweep.
* **Store integrity proofs** (:meth:`repro.shardstore.store.ShardStore.
  merkle_scrub`): the store keeps a content-addressed commitment tree
  updated at write time; scrub re-reads every live chunk and proves
  integrity by root equality instead of spot-checking.

The tree is a fixed-fanout, fixed-depth prefix trie over the *hash-ring
key space*: a key's leaf bucket is derived from the same 8-byte SHA-256
point :class:`repro.cluster.ring.HashRing` places it with, so bucket
boundaries are stable across membership changes and both planes bucket
identically.  All digests are 16-hex-char (64-bit) truncated SHA-256,
matching the evidence journal's digest convention; roots therefore drop
into journal records and Prometheus gauges (as 48-bit numeric prefixes)
unchanged.

Determinism contract: the root is a pure function of the ``(key,
digest)`` set -- independent of insertion order, deletion history, or
process identity -- which is what lets the campaign settlement gate
compare roots across replicas and lets CI compare them across runs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "DEFAULT_DEPTH",
    "DEFAULT_FANOUT",
    "EMPTY_DIGEST",
    "MerkleMap",
    "merkle_point",
    "numeric_root",
]

#: Digest length in hex chars (64 bits), matching ``journal.digest_bytes``.
DIGEST_LEN = 16

#: Default shape: 16-way fan-out, two levels -> 256 leaf buckets.  Wide
#: enough that small stores rarely collide buckets, small enough that a
#: full root recomputation is a few hundred hashes.
DEFAULT_FANOUT = 16
DEFAULT_DEPTH = 2

#: Digest of an empty bucket / empty tree (a domain-separated constant,
#: so "no keys" is distinguishable from "one key hashing to nothing").
EMPTY_DIGEST = hashlib.sha256(b"merkle:empty").hexdigest()[:DIGEST_LEN]


def merkle_point(key: bytes) -> int:
    """The 64-bit hash-ring point of ``key`` (same map as ``HashRing``)."""
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def numeric_root(root: str) -> int:
    """48-bit numeric prefix of a root digest, for Prometheus gauges.

    Mirrors the journal chain-head gauge trick: floats in the exposition
    format hold 53 bits exactly, so a 48-bit prefix round-trips and two
    series are equal iff their roots agree on the first 12 hex chars.
    """
    return int(root[:12], 16)


def _leaf_digest(items: List[Tuple[bytes, str]]) -> str:
    """Digest of one leaf bucket: order-independent over its items."""
    if not items:
        return EMPTY_DIGEST
    h = hashlib.sha256(b"merkle:leaf")
    for key, digest in sorted(items):
        h.update(key.hex().encode("ascii"))
        h.update(b"=")
        h.update(digest.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()[:DIGEST_LEN]


def _node_digest(children: List[str]) -> str:
    """Digest of an internal node from its ordered child digests."""
    if all(child == EMPTY_DIGEST for child in children):
        return EMPTY_DIGEST
    h = hashlib.sha256(b"merkle:node")
    for child in children:
        h.update(child.encode("ascii"))
    return h.hexdigest()[:DIGEST_LEN]


class MerkleMap:
    """An incremental fixed-shape Merkle tree over a ``key -> digest`` map.

    ``set``/``remove`` are O(1) (they only mark the key's bucket dirty);
    ``root()`` lazily re-hashes the dirty buckets and only their
    ancestors, ``depth`` internal digests per dirty bucket at most.
    ``diff`` walks two trees top-down and returns only the diverging leaf
    buckets -- the anti-entropy descent.

    The shape (``fanout``, ``depth``) is fixed at construction; trees
    only compare against trees of the same shape.
    """

    def __init__(
        self, *, fanout: int = DEFAULT_FANOUT, depth: int = DEFAULT_DEPTH
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        if depth < 1:
            raise ValueError("depth must be at least 1")
        # Bucket index = top bits of the 64-bit ring point; require a
        # power-of-two fanout so digit extraction is exact bit slicing.
        if fanout & (fanout - 1):
            raise ValueError("fanout must be a power of two")
        self.fanout = fanout
        self.depth = depth
        self._digit_bits = fanout.bit_length() - 1
        if self._digit_bits * depth > 64:
            raise ValueError("fanout**depth exceeds the 64-bit key space")
        self.num_buckets = fanout**depth
        self._entries: Dict[bytes, str] = {}
        self._buckets: List[Dict[bytes, str]] = [
            {} for _ in range(self.num_buckets)
        ]
        self._bucket_digests: List[str] = [EMPTY_DIGEST] * self.num_buckets
        self._dirty: set = set()
        # levels[0] is the root level (1 digest), levels[depth-1] has
        # fanout**(depth-1) digests; leaf digests live in _bucket_digests.
        self._levels: List[List[str]] = [
            [EMPTY_DIGEST] * (fanout**level) for level in range(depth)
        ]

    # ------------------------------------------------------------------
    # map surface

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def get(self, key: bytes) -> Optional[str]:
        return self._entries.get(key)

    def keys(self) -> Iterator[bytes]:
        return iter(self._entries)

    def items(self) -> Iterator[Tuple[bytes, str]]:
        return iter(self._entries.items())

    def bucket_of(self, key: bytes) -> int:
        return merkle_point(key) >> (64 - self._digit_bits * self.depth)

    def set(self, key: bytes, digest: str) -> None:
        """Insert or update ``key``'s leaf digest."""
        bucket = self.bucket_of(key)
        self._entries[key] = digest
        self._buckets[bucket][key] = digest
        self._dirty.add(bucket)

    def remove(self, key: bytes) -> None:
        """Drop ``key`` (a no-op when absent -- removal is idempotent)."""
        if key not in self._entries:
            return
        bucket = self.bucket_of(key)
        del self._entries[key]
        self._buckets[bucket].pop(key, None)
        self._dirty.add(bucket)

    def clear(self) -> None:
        self._entries.clear()
        for bucket in self._buckets:
            bucket.clear()
        self._bucket_digests = [EMPTY_DIGEST] * self.num_buckets
        self._dirty.clear()
        self._levels = [
            [EMPTY_DIGEST] * (self.fanout**level) for level in range(self.depth)
        ]

    @classmethod
    def from_items(
        cls,
        items: Iterable[Tuple[bytes, str]],
        *,
        fanout: int = DEFAULT_FANOUT,
        depth: int = DEFAULT_DEPTH,
    ) -> "MerkleMap":
        tree = cls(fanout=fanout, depth=depth)
        for key, digest in items:
            tree.set(key, digest)
        return tree

    # ------------------------------------------------------------------
    # digests

    def _refresh(self) -> None:
        """Re-hash the dirty buckets, then only their ancestors."""
        if not self._dirty:
            return
        fanout = self.fanout
        for bucket in self._dirty:
            self._bucket_digests[bucket] = _leaf_digest(
                list(self._buckets[bucket].items())
            )
        dirty = self._dirty
        below = self._bucket_digests
        for level in range(self.depth - 1, -1, -1):
            digests = self._levels[level]
            dirty = {index // fanout for index in dirty}
            for node in dirty:
                start = node * fanout
                digests[node] = _node_digest(below[start : start + fanout])
            below = digests
        self._dirty = set()

    def root(self) -> str:
        """The root digest (lazily recomputed after mutations)."""
        self._refresh()
        return self._levels[0][0]

    def bucket_digest(self, bucket: int) -> str:
        self._refresh()
        return self._bucket_digests[bucket]

    def bucket_items(self, bucket: int) -> Dict[bytes, str]:
        """The live ``key -> digest`` entries of one leaf bucket."""
        return dict(self._buckets[bucket])

    # ------------------------------------------------------------------
    # anti-entropy descent

    def diff(self, other: "MerkleMap") -> Tuple[List[int], int]:
        """Diverging leaf buckets vs ``other``, by top-down descent.

        Returns ``(buckets, nodes_compared)``: the sorted leaf-bucket
        indexes whose digests differ, and how many tree nodes were
        compared to find them (the cost the per-round budget bounds).
        Equal roots answer in one comparison -- the property that makes
        background sync affordable on a converged cluster.
        """
        if (self.fanout, self.depth) != (other.fanout, other.depth):
            raise ValueError("cannot diff Merkle trees of different shape")
        self._refresh()
        other._refresh()
        compared = 1
        if self._levels[0][0] == other._levels[0][0]:
            return [], compared
        # Frontier of diverging node indexes, level by level.
        frontier = [0]
        for level in range(1, self.depth):
            mine, theirs = self._levels[level], other._levels[level]
            next_frontier: List[int] = []
            for node in frontier:
                for child in range(
                    node * self.fanout, (node + 1) * self.fanout
                ):
                    compared += 1
                    if mine[child] != theirs[child]:
                        next_frontier.append(child)
            frontier = next_frontier
        buckets: List[int] = []
        for node in frontier:
            for child in range(node * self.fanout, (node + 1) * self.fanout):
                compared += 1
                if self._bucket_digests[child] != other._bucket_digests[child]:
                    buckets.append(child)
        return buckets, compared
