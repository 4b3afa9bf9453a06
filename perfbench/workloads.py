"""The benchmark's workloads: specs, seeded op sequences and the reference model.

Every workload is a closed loop with one client: the next op is issued only
after the previous one returns.  A workload's op sequence (and its preload)
is a pure function of the seed; the system under test receives only that
sequence.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

#: One client op: (kind, key, value).  ``value`` is set for puts only.
Op = Tuple[str, bytes, Optional[bytes]]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the workload is in the benchmark (one line, cited by name).
    why: str
    #: ``cluster`` (ClusterRouter) or ``store`` (one single-disk StoreSystem).
    target: str
    #: Client ops per round.  Fixed: every round replays the same sequence
    #: on a freshly built system, so per-op work counts repeat exactly.
    round_ops: int
    #: (kind, weight) pairs.
    mix: Tuple[Tuple[str, float], ...]
    keys: int
    #: Value sizes of puts, equally likely.
    value_sizes: Tuple[int, ...]
    #: Seconds one group of rounds took on the reference machine (2-core
    #: VM, Python 3.11).  It turns ``--seconds`` into a fixed number of
    #: replays, so a run takes the same number of samples however fast the
    #: program is.
    group_s: float
    #: Keys written during set-up, before measuring.
    preload: int = 0
    #: Half of the key choices Pareto-hot, half uniform (else all uniform).
    skewed: bool = False
    #: Gets and deletes pick uniformly among keys put earlier in the round
    #: (else uniformly among all keys).
    read_written: bool = False
    #: Router and per-node evidence journals on (in memory).
    journals: bool = False
    #: Distinct op sequences a run cycles through, one per round.  More
    #: than one averages out how much background work a single sequence
    #: happens to trigger, without making any one store live longer.
    sequences: int = 1
    #: Benchmark-driven maintenance, in client ops (0 = never).
    flush_every: int = 0
    compact_every: int = 0
    reboot_every: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cluster-ingest",
            why=(
                "quorum write path end to end (router, replicas, drains, "
                "Merkle, LSM read-before-write); bypasses the cold-read path"
            ),
            target="cluster",
            round_ops=1500,
            mix=(("put", 0.80), ("get", 0.10), ("delete", 0.10)),
            keys=1000,
            value_sizes=(64,),
            group_s=0.8,
            # Reads of never-written keys take a fast not-found path; with
            # them the get median would sit on the gap between the two.
            read_written=True,
        ),
        Workload(
            name="cluster-read",
            why=(
                "read path over a working set far larger than the per-disk "
                "cache, with almost no writes; catches write-path gains "
                "that cost reads"
            ),
            target="cluster",
            round_ops=10000,
            mix=(("get", 0.90), ("contains", 0.05), ("put", 0.05)),
            keys=2000,
            value_sizes=(64,),
            group_s=3.2,
            preload=2000,
            skewed=True,
        ),
        Workload(
            name="store-churn",
            why=(
                "single-disk background work (LSM flush and compaction, "
                "reclamation, superblock cadence) and dirty-reboot "
                "recovery; bypasses the cluster layers"
            ),
            target="store",
            round_ops=3000,
            mix=(("put", 0.50), ("get", 0.30), ("delete", 0.20)),
            keys=256,
            value_sizes=(64, 512, 4096),
            group_s=4.0,
            sequences=4,
            flush_every=64,
            compact_every=128,
            reboot_every=500,
        ),
        Workload(
            name="validate",
            why=(
                "the paper's own use: run cluster traffic with journals on, "
                "then check the merged journals; the only workload that "
                "measures the journal and the evidence checker"
            ),
            target="cluster",
            round_ops=1000,
            mix=(("put", 0.40), ("get", 0.50), ("delete", 0.10)),
            keys=200,
            value_sizes=(64,),
            group_s=0.6,
            journals=True,
        ),
    )
}


def key_name(i: int) -> bytes:
    return b"key%06d" % i


Sequence = Tuple[List[Tuple[bytes, bytes]], List[Op]]


def generate(w: Workload, seed: int) -> List[Sequence]:
    """The workload's sequences (preload pairs and client ops) for ``seed``."""
    return [_sequence(w, f"{w.name}:{seed}:{k}") for k in range(w.sequences)]


def _sequence(w: Workload, rng_seed: str) -> Sequence:
    rng = random.Random(rng_seed)
    def value() -> bytes:
        return rng.randbytes(rng.choice(w.value_sizes))

    preload = [(key_name(i), value()) for i in range(w.preload)]
    # Pareto-hot keys are a seeded permutation, so hotness is not tied to
    # key order (and hence not to ring placement).
    hot_order = list(range(w.keys))
    rng.shuffle(hot_order)
    kinds = [kind for kind, _ in w.mix]
    weights = [weight for _, weight in w.mix]
    ops: List[Op] = []
    written: List[bytes] = []
    seen: set = set()
    for kind in rng.choices(kinds, weights, k=w.round_ops):
        if w.read_written and kind != "put" and written:
            key = written[rng.randrange(len(written))]
        elif w.skewed and rng.random() < 0.5:
            rank = min(int(rng.paretovariate(1.16)) - 1, w.keys - 1)
            key = key_name(hot_order[rank])
        else:
            key = key_name(rng.randrange(w.keys))
        if kind == "put" and key not in seen:
            seen.add(key)
            written.append(key)
        ops.append((kind, key, value() if kind == "put" else None))
    return preload, ops


def sequence_sha256(seqs: List[Sequence]) -> str:
    h = hashlib.sha256()
    for k, (preload, ops) in enumerate(seqs):
        h.update(b"sequence %d\n" % k)
        for key, value in preload:
            h.update(b"preload\0" + key + b"\0" + value + b"\n")
        for kind, key, value in ops:
            h.update(kind.encode() + b"\0" + key + b"\0" + (value or b"") + b"\n")
    return h.hexdigest()


#: Model value for "key absent".
ABSENT = None


class Model:
    """Candidate-set reference model of a key-value map.

    Each key maps to the set of values a correct system may return for it
    (``None`` = absent).  Acked writes make a key certain.  A failed write
    widens the key to old-or-new.  A dirty reboot widens every key mutated
    since the last durability barrier to any value it held since that
    barrier.  A read narrows the key to what it observed.
    """

    def __init__(self, preload: List[Tuple[bytes, bytes]]) -> None:
        self.cand: Dict[bytes, FrozenSet[Optional[bytes]]] = {
            key: frozenset((value,)) for key, value in preload
        }
        self._since: Dict[bytes, set] = {}
        self.mismatches = 0
        self.first_mismatch: Optional[str] = None

    def candidates(self, key: bytes) -> FrozenSet[Optional[bytes]]:
        return self.cand.get(key, frozenset((ABSENT,)))

    def _set(self, key: bytes, values: FrozenSet[Optional[bytes]]) -> None:
        since = self._since.get(key)
        if since is None:
            self._since[key] = set(self.candidates(key)) | values
        else:
            since.update(values)
        self.cand[key] = values

    def write(self, key: bytes, value: Optional[bytes], acked: bool) -> None:
        if acked:
            self._set(key, frozenset((value,)))
        else:
            self._set(key, self.candidates(key) | {value})

    def observe(self, key: bytes, value: Optional[bytes], what: str) -> None:
        cand = self.candidates(key)
        if value in cand:
            if len(cand) > 1:
                self.cand[key] = frozenset((value,))
            return
        self.mismatches += 1
        if self.first_mismatch is None:
            self.first_mismatch = (
                f"{what} {key!r}: got {_show(value)}, allowed "
                f"{sorted(_show(v) for v in cand)}"
            )

    def observe_presence(self, key: bytes, present: bool) -> None:
        cand = self.candidates(key)
        allowed = frozenset(v for v in cand if (v is not None) == present)
        if allowed:
            if allowed != cand:
                self.cand[key] = allowed
            return
        self.mismatches += 1
        if self.first_mismatch is None:
            self.first_mismatch = (
                f"contains {key!r}: got {present}, allowed "
                f"{sorted(_show(v) for v in cand)}"
            )

    def barrier(self) -> None:
        """Everything written so far is durable."""
        self._since.clear()

    def crash(self) -> None:
        for key, values in self._since.items():
            self.cand[key] = frozenset(values)
        self._since.clear()

    def uncertain(self) -> List[bytes]:
        return sorted(key for key, cand in self.cand.items() if len(cand) > 1)

    def live_bytes(self) -> int:
        """Live user bytes; only meaningful once every key is certain."""
        total = 0
        for cand in self.cand.values():
            (value,) = cand
            if value is not None:
                total += len(value)
        return total


def _show(value: Optional[bytes]) -> str:
    if value is None:
        return "absent"
    return f"{len(value)}B:{hashlib.sha256(value).hexdigest()[:8]}"
