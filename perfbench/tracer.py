"""Outside-in span tracing for the benchmark's traced run.

The tracer wraps the public methods of each layer's live objects: an
instance attribute shadows the class method, so every call the program
makes through ``self.<layer>.<method>(...)`` lands in the wrapper.
Nothing under ``src/`` changes.  Each call records one span (label, start,
end, parent).  Spans stay in memory for one measured round and are folded
into per-layer self times and call counts when the round ends.

Self time of a span is its duration minus the durations of its direct
children.  The benchmark is single-threaded and calls nest strictly, so
the children's durations are exactly the part of the parent's interval
they cover.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Tuple

#: Public methods wrapped per layer, keyed by the class name of the object.
#: The layer name is the first part of every span label.
LAYER_METHODS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "ClusterRouter": (
        "router",
        ("put", "get", "delete", "contains", "keys", "settle",
         "crash_node", "restart_node"),
    ),
    "AntiEntropyService": (
        "antientropy",
        ("maybe_run", "run_round", "sync", "note_apply", "note_remove",
         "rebuild", "run_until_converged"),
    ),
    "MerkleMap": (
        "merkle",
        ("set", "remove", "get", "root", "diff", "bucket_items", "clear"),
    ),
    "StorageNode": (
        "rpc",
        ("put", "get", "delete", "contains", "keys", "flush", "drain"),
    ),
    "StoreSystem": (
        "recovery",
        ("dirty_reboot", "clean_reboot", "recover_again"),
    ),
    "ShardStore": (
        "store",
        ("put", "get", "delete", "contains", "keys", "flush", "flush_index",
         "flush_superblock", "compact", "reclaim", "reclaimable_extents",
         "pump", "drain", "clean_shutdown"),
    ),
    "LsmIndex": (
        "lsm",
        ("put", "delete", "get", "keys", "data_dep", "flush", "compact",
         "shutdown_flush", "is_run_live", "relocate_run", "data_locators",
         "replace_data_locator"),
    ),
    "ChunkStore": (
        "chunk_store",
        ("put_chunk", "get_chunk", "put_shard", "get_shard", "rotate_open",
         "begin_reclaim", "end_reclaim", "release_extent"),
    ),
    "BufferCache": (
        "buffer_cache",
        ("read", "append", "invalidate_extent", "invalidate_all"),
    ),
    "Superblock": (
        "superblock",
        ("note_append", "note_reset", "note_ownership", "maybe_flush",
         "flush"),
    ),
    "IoScheduler": (
        "scheduler",
        ("append", "reset", "read", "pump_one", "pump", "drain",
         "flush_coalesced", "drop_pending", "settle_extent"),
    ),
    "Reclaimer": ("reclamation", ("reclaim", "reclaimable_extents")),
    "InMemoryDisk": ("disk", ("read", "write", "reset")),
    "Journal": (
        "journal",
        ("begin_op", "end_op", "call", "record_op", "annotate", "close"),
    ),
}


def layer_objects(root: Any) -> Iterator[Any]:
    """Every wrappable layer object reachable from a router or store system."""
    if type(root).__name__ == "ClusterRouter":
        yield root
        if root.journal is not None:
            yield root.journal
        yield root.antientropy
        yield from root.antientropy.trees.values()
        for cn in root.nodes.values():
            yield cn.node
            if cn.node.journal is not None:
                yield cn.node.journal
            for system in cn.node.systems:
                yield from layer_objects(system)
        return
    # A StoreSystem: the durable identity plus its current store's parts.
    yield root
    store = root.store
    yield store
    for part in (store.disk, store.scheduler, store.superblock, store.cache,
                 store.chunk_store, store.index, store.reclaimer,
                 store.journal, vars(store).get("_merkle")):
        if part is not None:
            yield part


class Tracer:
    """Span recorder plus the object-graph walker that attaches it."""

    def __init__(self) -> None:
        #: Spans are recorded only while True (the measured op phase).
        self.active = False
        self._wrapped: Dict[int, Any] = {}
        self.labels: List[str] = []
        self._label_ids: Dict[str, int] = {}
        # One entry per span in parallel lists, in start order.
        self._lab: List[int] = []
        self._start: List[int] = []
        self._end: List[int] = []
        self._parent: List[int] = []
        self._stack: List[int] = []

    def attach(self, root: Any) -> None:
        """Wrap every layer object reachable from ``root`` not yet wrapped.

        Call again after anything rebuilds objects: a dirty reboot builds
        a new store with a new scheduler, cache, index and chunk store.
        """
        for obj in layer_objects(root):
            if id(obj) in self._wrapped:
                continue
            layer, methods = LAYER_METHODS[type(obj).__name__]
            for name in methods:
                fn = getattr(obj, name, None)
                if callable(fn):
                    setattr(obj, name, self._wrap(f"{layer}.{name}", fn))
            # Holding the object keeps its id from being reused.
            self._wrapped[id(obj)] = obj

    def _label_id(self, label: str) -> int:
        lid = self._label_ids.get(label)
        if lid is None:
            lid = len(self.labels)
            self.labels.append(label)
            self._label_ids[label] = lid
        return lid

    def _wrap(self, label: str, fn: Any) -> Any:
        lid = self._label_id(label)
        lab, start, end, parent, stack = (
            self._lab, self._start, self._end, self._parent, self._stack
        )
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(lab)
            lab.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    def take(self) -> "SpanSet":
        """Hand over the spans recorded so far and clear the buffers."""
        spans = SpanSet(
            list(self.labels), list(self._lab), list(self._start),
            list(self._end), list(self._parent),
        )
        # Cleared in place: the wrappers hold references to these lists.
        for buf in (self._lab, self._start, self._end, self._parent,
                    self._stack):
            del buf[:]
        return spans


class SpanSet:
    """The spans of one traced round, with the folds the report needs."""

    def __init__(self, labels: List[str], lab: List[int], start: List[int],
                 end: List[int], parent: List[int]) -> None:
        self.labels = labels
        self.lab = lab
        self.start = start
        self.end = end
        self.parent = parent

    def fold(self) -> Dict[str, Any]:
        """Per-label self time and calls, root time, and per-root counts.

        ``under[(root_label, label)]`` counts spans of ``label`` anywhere
        below a root span of ``root_label`` (for "node gets per put").
        """
        n = len(self.lab)
        child_ns = [0] * n
        root_of = [0] * n
        lab, start, end, parent = self.lab, self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            dur = end[i] - start[i]
            if p < 0:
                root_of[i] = i
            else:
                child_ns[p] += dur
                root_of[i] = root_of[p]
        labels = self.labels
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        under: Counter = Counter()
        roots: Counter = Counter()
        root_ns = 0
        for i in range(n):
            name = labels[lab[i]]
            dur = end[i] - start[i]
            self_ns[name] += dur - child_ns[i]
            calls[name] += 1
            if parent[i] < 0:
                root_ns += dur
                roots[name] += 1
            else:
                under[(labels[lab[root_of[i]]], name)] += 1
        return {
            "self_ns": self_ns,
            "calls": calls,
            "under": under,
            "roots": roots,
            "root_ns": root_ns,
        }

    def export(self, max_roots: int) -> List[Dict[str, Any]]:
        """The first ``max_roots`` root spans with their whole trees."""
        out: List[Dict[str, Any]] = []
        roots_seen = 0
        t0 = self.start[0] if self.start else 0
        for i in range(len(self.lab)):
            if self.parent[i] < 0:
                roots_seen += 1
                if roots_seen > max_roots:
                    break
            out.append({
                "id": i,
                "name": self.labels[self.lab[i]],
                "start_ns": self.start[i] - t0,
                "end_ns": self.end[i] - t0,
                "parent": self.parent[i],
            })
        return out
