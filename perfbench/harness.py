"""Runs a workload's rounds against a freshly built system and measures them.

A round builds the system (timed as set-up, with any preload), replays the
workload's op sequence with one closed-loop client (timed, every answer
checked against the reference model), then settles the system and measures
what the settled state costs (write and space amplification) and how long
a crashed node or store takes to recover.  The next round starts again
from a fresh system, so every round does exactly the same work.
"""

from __future__ import annotations

import gc
import statistics
from collections import Counter
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster import ClusterConfig, ClusterRouter
from repro.errors import NotFoundError
from repro.evidence import check_cluster_journals
from repro.shardstore import (
    DiskGeometry,
    Journal,
    StoreConfig,
    StoreSystem,
)

from tracer import Tracer
from workloads import Model, Op, Workload

#: ``instrument(client)`` is called on the client object (router or store)
#: after every build or reboot, before its methods are bound for the loop.
Instrument = Callable[[Any], None]

#: The cluster under test: 5 nodes x 2 disks, N=3/W=2/R=2, durable acks,
#: anti-entropy on at its default interval.
CLUSTER_GEOMETRY = (48, 32768, 512)
#: The single-disk store-churn target.
STORE_GEOMETRY = (32, 32768, 512)
STORE_MAX_CHUNK_PAYLOAD = 1024

WARMUP_OPS = 200


class ClusterTarget:
    def __init__(self, w: Workload, seed: int) -> None:
        self.journals: List[Journal] = []
        factory = None
        if w.journals:
            def factory(identity: str, meta: Dict[str, Any]) -> Journal:
                journal = Journal(meta=dict(meta, seed=seed), node=identity)
                self.journals.append(journal)
                return journal
        self.client = ClusterRouter(
            ClusterConfig(
                num_nodes=5,
                disks_per_node=2,
                replication=3,
                write_quorum=2,
                read_quorum=2,
                durable_writes=True,
                anti_entropy=True,
                geometry=DiskGeometry(*CLUSTER_GEOMETRY),
                seed=seed,
            ),
            journal_factory=factory,
        )
        self.root = self.client

    def systems(self) -> List[StoreSystem]:
        return [
            system
            for _, cn in sorted(self.client.nodes.items())
            for system in cn.node.systems
        ]

    def settle(self) -> None:
        self.client.settle()
        for _, cn in sorted(self.client.nodes.items()):
            cn.node.flush()
            cn.node.drain()

    def recover_all(self) -> List[float]:
        """Crash and dirty-restart each node in turn; seconds per node."""
        out = []
        for node_id in self.client.members:
            self.client.crash_node(node_id)
            t0 = perf_counter()
            self.client.restart_node(node_id)
            out.append(perf_counter() - t0)
        return out


class StoreTarget:
    def __init__(self, w: Workload, seed: int) -> None:
        self.journals: List[Journal] = []
        self.system = StoreSystem(
            StoreConfig(
                geometry=DiskGeometry(*STORE_GEOMETRY),
                max_chunk_payload=STORE_MAX_CHUNK_PAYLOAD,
                seed=seed,
            )
        )
        self.root = self.system

    @property
    def client(self) -> Any:
        return self.system.store

    def systems(self) -> List[StoreSystem]:
        return [self.system]

    def settle(self) -> None:
        """Catch up on background work: write back, compact, reclaim."""
        store = self.system.store
        store.flush()
        store.drain()
        store.compact()
        for extent in store.reclaimable_extents():
            store.reclaim(extent)
        store.flush()
        store.drain()


def build(w: Workload, seed: int) -> Any:
    return ClusterTarget(w, seed) if w.target == "cluster" else StoreTarget(w, seed)


def set_up(w: Workload, seed: int,
           preload: List[Tuple[bytes, bytes]]) -> Tuple[Any, List[int]]:
    """Build the system and write the preload.

    Returns the system and the time of each step: the build, then each
    preload put, in nanoseconds.
    """
    gc.collect()
    t0 = perf_counter_ns()
    target = build(w, seed)
    steps = [perf_counter_ns() - t0]
    put = target.client.put
    for key, value in preload:
        t0 = perf_counter_ns()
        put(key, value)
        steps.append(perf_counter_ns() - t0)
    return target, steps


def store_counters(systems: List[StoreSystem]) -> Counter:
    """Counters owned by the current store objects (rebuilt by a reboot)."""
    c: Counter = Counter()
    for system in systems:
        store = system.store
        c["cache_hits"] += store.cache.hits
        c["cache_misses"] += store.cache.misses
        c["records_written"] += store.scheduler.stats.records_written
        c["ios_issued"] += store.scheduler.stats.ios_issued
        c["lsm_runs"] += store.index.run_count
    return c


def disk_counters(systems: List[StoreSystem]) -> Counter:
    """Counters owned by the disks (they survive reboots)."""
    c: Counter = Counter()
    for system in systems:
        stats = system.disk.stats
        c["disk_bytes_written"] += stats.bytes_written
        c["disk_writes"] += stats.writes
        c["disk_reads"] += stats.reads
    return c


def max_runs(systems: List[StoreSystem]) -> int:
    return max(system.store.index.run_count for system in systems)


def data_bytes(systems: List[StoreSystem]) -> int:
    """Bytes below the write pointers of every data extent."""
    total = 0
    for system in systems:
        for extent in system.config.data_extents:
            total += system.disk.write_pointer(extent)
    return total


class RecoveryClock:
    """``recovery_hook`` that times the store's recovery steps."""

    def __init__(self) -> None:
        self.marks: List[Tuple[str, float]] = []

    def __call__(self, step: str) -> None:
        self.marks.append((step, perf_counter()))

    def steps_ms(self, done: float) -> Dict[str, float]:
        out = {}
        ends = [t for _, t in self.marks[1:]] + [done]
        for (step, start), end in zip(self.marks, ends):
            out[step] = (end - start) * 1e3
        return out


def run_round(
    w: Workload,
    seed: int,
    preload: List[Tuple[bytes, bytes]],
    ops: List[Op],
    *,
    tracer: Optional[Tracer] = None,
    instrument: Optional[Instrument] = None,
    recover: bool = False,
) -> Dict[str, Any]:
    """Build, preload, run ``ops`` once, settle, measure.  One round.

    ``recover`` adds a dirty restart of every cluster node after the round
    (store-churn's dirty reboots are part of its op sequence).
    """
    target, setup_ns = set_up(w, seed, preload)

    model = Model(preload)
    systems = target.systems()
    # Latency of every completed client op by kind, of every failed one
    # ("failed"), and of every flush and compaction the client drives
    # ("maintenance"), in call order.
    lat: Dict[str, List[int]] = {
        "put": [], "get": [], "delete": [], "contains": [], "failed": [],
        "maintenance": [],
    }
    put_bytes: List[int] = []  # value size of each completed put, in order
    errors: Counter = Counter()
    first_failure: List[int] = []  # client op count at the first failure
    user_bytes = 0
    compact_ns: List[int] = []
    recovery_s: List[float] = []
    recovery_steps: List[Dict[str, float]] = []
    retired: Counter = Counter()  # store counters of stores lost to reboots
    excluded_ns = 0  # reboot time, not client work
    compacted_runs = 0  # runs removed by compaction (net of the merged run)
    tenth = max(1, len(ops) // 10)
    trajectory: List[Tuple[int, int, int]] = []

    def bind() -> Tuple[Any, ...]:
        client = target.client
        if instrument is not None:
            instrument(client)
        if tracer is not None:
            tracer.attach(target.root)
        return client.put, client.get, client.delete, client.contains

    def maintain(name: str, fn: Callable[[], Any]) -> bool:
        """Run benchmark-driven maintenance; a failure is counted, not fatal."""
        try:
            fn()
        except Exception as exc:  # reported like a failed client op
            errors[f"{name}:{type(exc).__name__}"] += 1
            if not first_failure:
                first_failure.append(n)
            return False
        return True

    def timed_maintenance(name: str, fn: Callable[[], Any]) -> bool:
        t0 = perf_counter_ns()
        ok = maintain(name, fn)
        lat["maintenance"].append(perf_counter_ns() - t0)
        return ok

    def flush_and_drain() -> None:
        target.client.flush()
        target.client.drain()

    put, get, delete, contains = bind()
    base_store = store_counters(systems)
    base_disk = disk_counters(systems)
    if tracer is not None:
        tracer.active = True
    start = perf_counter_ns()
    for i, (kind, key, value) in enumerate(ops):
        t_op = perf_counter_ns()
        try:
            if kind == "get":
                out = get(key)
            elif kind == "put":
                put(key, value)
                out = True
            elif kind == "delete":
                delete(key)
                out = True
            else:
                out = contains(key)
        except NotFoundError:
            out = None
        except Exception as exc:  # every failure is counted and reported
            out = exc
        lat["failed" if isinstance(out, Exception) else kind].append(
            perf_counter_ns() - t_op)

        if isinstance(out, Exception):
            errors[f"{kind}:{type(out).__name__}"] += 1
            if not first_failure:
                first_failure.append(i + 1)
            if kind in ("put", "delete"):
                model.write(key, value, acked=False)
        elif kind == "get":
            model.observe(key, out, "get")
        elif kind == "put":
            model.write(key, value, acked=True)
            user_bytes += len(value)
            put_bytes.append(len(value))
        elif kind == "delete":
            if out is None:
                model.observe(key, None, "delete")
            else:
                model.write(key, None, acked=True)
        else:
            model.observe_presence(key, out)

        n = i + 1
        if w.flush_every and n % w.flush_every == 0:
            if timed_maintenance("flush", flush_and_drain):
                model.barrier()
        if w.compact_every and n % w.compact_every == 0:
            runs_before = target.client.index.run_count
            timed_maintenance("compact", target.client.compact)
            compact_ns.append(lat["maintenance"][-1])
            compacted_runs += runs_before - target.client.index.run_count
        if w.reboot_every and n % w.reboot_every == 0:
            r0 = perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            retired.update(store_counters(systems))
            clock = RecoveryClock()
            t_rec = perf_counter()
            if maintain("reboot", lambda: target.system.dirty_reboot(
                    recovery_hook=clock)):
                done = perf_counter()
                recovery_s.append(done - t_rec)
                recovery_steps.append(clock.steps_ms(done))
            retired.subtract(store_counters(systems))
            model.crash()
            put, get, delete, contains = bind()
            if tracer is not None:
                tracer.active = True
            excluded_ns += perf_counter_ns() - r0
        if n % tenth == 0:
            trajectory.append((n, perf_counter_ns() - excluded_ns, max_runs(systems)))
    if tracer is not None:
        tracer.active = False

    counters = store_counters(systems)
    counters.update(retired)
    counters.subtract(base_store)
    counters.update(disk_counters(systems) - base_disk)
    # LSM runs only grow by flushes between the compactions and reboots
    # accounted above.
    counters["lsm_flushes"] = counters.pop("lsm_runs", 0) + compacted_runs
    runs_end = max_runs(systems)
    journal_bytes = sum(j.bytes_written for j in target.journals)
    journal_records = sum(j.records_written for j in target.journals)

    # Post-round: settle, check, measure the settled state, recover.
    maintain("settle", target.settle)
    check: Dict[str, Any] = {}
    if target.journals:
        target.client.close()
        c0 = perf_counter()
        report = check_cluster_journals(
            [j.entries for j in target.journals], require_seal=True
        )
        check = {
            "passed": report.passed,
            "records": report.records,
            "checked": report.checked,
            "seconds": perf_counter() - c0,
            "violations": report.violations[:4],
        }
    for key in model.uncertain():
        try:
            model.observe(key, target.client.get(key), "final get")
        except NotFoundError:
            model.observe(key, None, "final get")
        except Exception as exc:  # reported like a failed client op
            errors[f"final-get:{type(exc).__name__}"] += 1
    settled_disk = disk_counters(systems)["disk_bytes_written"]
    settled_data = data_bytes(systems)
    if recover and w.target == "cluster":
        maintain("recover", lambda: recovery_s.extend(target.recover_all()))

    return {
        "setup_ns": setup_ns,
        # Time the client spent inside the system during the measured
        # phase: ops plus the maintenance it drove (reboots excluded).
        "client_ns": sum(sum(v) for v in lat.values()),
        "ops": len(ops),
        "lat": lat,
        "put_bytes": put_bytes,
        # Failed client ops plus failed maintenance calls.
        "failed": sum(errors.values()),
        "errors": dict(errors),
        "first_failure_op": first_failure[0] if first_failure else None,
        "mismatches": model.mismatches,
        "first_mismatch": model.first_mismatch,
        # write_amp = device_bytes / user_bytes (acked value bytes).
        "user_bytes": user_bytes,
        "device_bytes": settled_disk - base_disk["disk_bytes_written"],
        # space_amp = data_bytes / live_bytes, in the settled state.
        "data_bytes": settled_data,
        "live_bytes": model.live_bytes() if not model.uncertain() else 0,
        "recovery_s": recovery_s,
        "recovery_steps": recovery_steps,
        "compact_ns": compact_ns,
        "counters": dict(counters),
        "runs_end": runs_end,
        "journal_bytes": journal_bytes,
        "journal_records": journal_records,
        "check": check,
        "trajectory": [(n, t - start, runs) for n, t, runs in trajectory],
    }


def warm_up(w: Workload, seed: int, ops: List[Op]) -> None:
    """Run the first ops once on a throwaway system, untimed."""
    target = build(w, seed)
    client = target.client
    for kind, key, value in ops[:WARMUP_OPS]:
        try:
            if kind == "put":
                client.put(key, value)
            else:
                getattr(client, kind)(key)
        except NotFoundError:
            pass


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[int], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return float(ordered[int(rank) - 1])

