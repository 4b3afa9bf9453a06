"""The repository benchmark: one closed-loop client against a named workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cluster-ingest --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace
1`` alternates untraced rounds with rounds where every layer's public
methods are wrapped (see ``tracer.py``), and reports the per-layer metrics
plus the tracing overhead.  Either way every answer is checked against a reference model
(and, on ``validate``, the merged journals must pass the evidence checker).
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 1 if an output check failed, 2 on a usage or set-up error.
A full artifact (inputs, per-round data, trajectory, spans of the first
traced ops) is written to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Root spans written out per traced run (with their whole span trees).
EXPORT_ROOT_SPANS = 50
#: Set-up samples per sequence when set-up is cheap (no preload).
MIN_SETUPS = 16
#: A run stops replaying after this long, to end within its time limit
#: even if the program has become several times slower.
MAX_RUN_S = 120

#: Client op kinds; a failed op is timed under ``failed`` instead.
CLIENT_KINDS = ("put", "get", "delete", "contains")

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "put_p50_us": "us",
    "get_p50_us": "us",
    "write_amp": "ratio",
    "space_amp": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers whose self time is reported, in call-path order.
SELF_TIME_LAYERS = (
    "router", "antientropy", "merkle", "rpc", "store", "lsm", "chunk_store",
    "buffer_cache", "superblock", "scheduler", "reclamation", "disk",
    "journal",
)


def _per_layer_units() -> Dict[str, str]:
    units = {
        "trace.unattributed_frac": "ratio",
        "trace.overhead": "ratio",
        "router.node_gets_per_put": "count",
        "router.replica_applies_per_put": "count",
        "store.drains_per_put": "count",
        "merkle.sets_per_put": "count",
        "lsm.runs_end": "count",
        "lsm.flushes_per_kop": "count",
        "lsm.compact_ms_p50": "ms",
        "buffer_cache.hit_rate": "ratio",
        "disk.reads_per_get": "count",
        "disk.bytes_written_per_put": "bytes",
        "scheduler.pumps_per_op": "count",
        "scheduler.records_per_io": "ratio",
        "superblock.flushes_per_put": "count",
        "store.space_amp_max": "ratio",
        "reclamation.extents_per_kop": "count",
        "recovery.p50_ms": "ms",
        "recovery.seal_ms": "ms",
        "recovery.superblock_ms": "ms",
        "recovery.pointers_ms": "ms",
        "recovery.index_ms": "ms",
        "journal.bytes_per_op": "bytes",
        "journal.records_per_op": "count",
        "evidence.self_us_per_record": "us",
        "evidence.check_records_s": "records/s",
        "client.put_p99_us": "us",
        "client.get_p99_us": "us",
        "client.delete_p50_us": "us",
        "client.put_samples": "count",
        "client.get_samples": "count",
        "client.delete_samples": "count",
        "client.failed_frac": "ratio",
    }
    for layer in SELF_TIME_LAYERS:
        units[f"{layer}.self_us_per_op"] = "us"
    for tenth in range(1, 11):
        units[f"trajectory.ops_s_t{tenth:02d}"] = "ops/s"
        units[f"trajectory.runs_t{tenth:02d}"] = "count"
    return units


PER_LAYER = _per_layer_units()

#: Per-layer metrics where a larger value is the better one.
PER_LAYER_HIGHER = {
    "buffer_cache.hit_rate",
    "scheduler.records_per_io",
    "evidence.check_records_s",
    "client.put_samples",
    "client.get_samples",
    "client.delete_samples",
    *(f"trajectory.ops_s_t{tenth:02d}" for tenth in range(1, 11)),
}


def _fail_setup(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail_setup(f"no program sources under {SRC}")
    if args.seconds <= 0:
        return _fail_setup("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail_setup(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}"
        )
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    write_artifact(result)
    print_report(result)
    return 0 if result["correct"] else 1


def replays(w: Any, seconds: float, trace: bool) -> int:
    """Rounds of each sequence a run makes: fixed by ``--seconds`` alone.

    The count is ``seconds`` over the workload's nominal group time (half
    of it each for untraced and traced groups on a traced run), so a run
    takes as long as ``--seconds`` on the reference machine.  It does not
    depend on how fast the program runs: fastest-replay minima are always
    taken over the same number of samples.
    """
    share = seconds / 2 if trace else seconds
    return max(1 if trace else 2, round(share / w.group_s))


class FastestReplay:
    """Each timed call's fastest time over the rounds that replayed it.

    Rounds of one sequence replay the same calls on identical fresh
    systems, so the i-th call of a kind does the same work in each of
    them.  On a shared CPU a call is slowed by whatever else runs
    meanwhile, in bursts of milliseconds to minutes; its fastest replay is
    the one least disturbed.  Only the running minima are kept (and, with
    ``pool``, every sample, for the tail percentiles), so the benchmark's
    own memory does not grow with the number of rounds.
    """

    def __init__(self, k: int, pool: bool = False) -> None:
        self.best: List[Dict[str, List[int]]] = [{} for _ in range(k)]
        #: Value size of each completed put, per sequence.
        self.put_bytes: List[List[int]] = [[] for _ in range(k)]
        self.pooled: Optional[Dict[str, List[int]]] = {} if pool else None

    def add(self, s: int, r: Dict[str, Any]) -> None:
        """Fold round ``r`` of sequence ``s`` in; its samples are dropped."""
        lat = r.pop("lat")
        self.put_bytes[s] = r.pop("put_bytes")
        r["calls"] = {kind: len(v) for kind, v in lat.items()}
        self.fold(s, lat)

    def fold(self, s: int, lat: Dict[str, List[int]]) -> None:
        """Fold one replay of sequence ``s``'s timed calls in, by kind."""
        best = self.best[s]
        for kind, v in lat.items():
            best[kind] = list(map(min, best[kind], v)) if kind in best else v
            if self.pooled is not None:
                self.pooled.setdefault(kind, []).extend(v)

    def kind(self, kind: str) -> List[int]:
        """Fastest times of the calls of ``kind``, every sequence pooled."""
        return [t for best in self.best for t in best.get(kind, ())]

    def puts_of_size(self, size: int) -> List[int]:
        """Fastest times of the puts of ``size``-byte values."""
        return [t for best, sizes in zip(self.best, self.put_bytes)
                for t, n in zip(best["put"], sizes) if n == size]

    def throughput(self) -> float:
        """Completed client ops of one group ÷ the fastest time of all its
        calls (failed ops and driven maintenance included)."""
        done = sum(len(self.kind(kind)) for kind in CLIENT_KINDS)
        return done / (sum(sum(v) for b in self.best for v in b.values()) / 1e9)


def run(workload: str, seed: int, seconds: float, trace: bool,
        instrument: Any = None) -> Dict[str, Any]:
    """Run ``replays`` groups of ``workload`` (see ``replays``).

    A *group* is one round of each of the workload's sequences.  A traced
    run alternates untraced and traced groups, so that both see the same
    stretches of machine speed.
    """
    from harness import run_round, set_up, warm_up
    from tracer import Tracer
    from workloads import WORKLOADS, generate, sequence_sha256

    w = WORKLOADS[workload]
    seqs = generate(w, seed)
    k = len(seqs)
    n = replays(w, seconds, trace)
    # Set-up samples per sequence.  With a preload a set-up costs a good
    # part of a round, so the rounds' own set-ups are the samples.
    n_setups = n if w.preload or trace else max(n, MIN_SETUPS)
    warm_up(w, seed, seqs[0][1])
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    plain_best = FastestReplay(k, pool=trace)
    traced_best = FastestReplay(k)
    # Set-up steps (the build, then each preload put) by their fastest
    # replay, like the calls of a round.
    setup_best = FastestReplay(k)
    setups: List[List[float]] = [[] for _ in range(k)]

    def add_setup(s: int, steps: List[int]) -> None:
        setup_best.fold(s, {"setup": steps})
        setups[s].append(sum(steps) / 1e9)

    folds: List[Dict[str, Any]] = []
    exported: List[Dict[str, Any]] = []
    started = perf_counter()
    for g in range(n):
        for s, (preload, ops) in enumerate(seqs):
            r = run_round(w, seed, preload, ops, instrument=instrument,
                          recover=trace)
            plain_best.add(s, r)
            plain.append(r)
            add_setup(s, r.pop("setup_ns"))
            # Extra set-ups are spread over the run like the rounds.
            while len(setups[s]) < -(-n_setups * (g + 1) // n):
                add_setup(s, set_up(w, seed, preload)[1])
        for s, (preload, ops) in enumerate(seqs if trace else ()):
            tracer = Tracer()
            r = run_round(w, seed, preload, ops, tracer=tracer,
                          instrument=instrument)
            traced_best.add(s, r)
            del r["setup_ns"]
            traced.append(r)
            spans = tracer.take()
            folds.append(spans.fold())
            if not exported:
                exported.extend(spans.export(EXPORT_ROOT_SPANS))
        if perf_counter() - started > MAX_RUN_S:
            break  # a program this slow is reported with fewer replays
    rounds = plain + traced
    correct = all(r["mismatches"] == 0 for r in rounds) and all(
        r["check"].get("passed", True) for r in rounds
    )
    metrics = (per_layer(w, k, plain, traced, plain_best, traced_best, folds)
               if trace else end_to_end(w, plain, plain_best, setup_best))
    return {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "op_sequence_sha256": sequence_sha256(seqs),
        "value_size_mix": {size: 1 / len(w.value_sizes)
                           for size in w.value_sizes},
        "sequences": k,
        "round_ops": w.round_ops,
        "preload": w.preload,
        "mix": dict(w.mix),
        "keys": w.keys,
        "maintenance": {
            "flush_every": w.flush_every,
            "compact_every": w.compact_every,
            "reboot_every": w.reboot_every,
        },
        "rounds": {"plain": len(plain), "traced": len(traced)},
        # Sample counts behind the end-to-end timings: calls per group by
        # kind, each timed at its fastest of ``plain // sequences`` replays.
        "timed_calls": {kind: sum(r["calls"][kind] for r in plain[:k])
                        for kind in plain[0]["calls"]},
        "run_s": perf_counter() - started,
        "setup_samples_s": setups,
        "correct": correct,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "first_failure_op": next(
            (r["first_failure_op"] for r in rounds if r["first_failure_op"]),
            None),
        "first_mismatch": next(
            (r["first_mismatch"] for r in rounds if r["first_mismatch"]), None
        ),
        "errors": dict(sum((Counter(r["errors"]) for r in rounds), Counter())),
        "check": [r["check"] for r in rounds if r["check"]][:1],
        "counters_repeat": _counters_repeat(k, rounds),
        "trajectory": trajectory(plain),
        "metrics": metrics,
        "spans": exported,
    }


def _counters_repeat(k: int, rounds: List[Dict[str, Any]]) -> bool:
    """Rounds of the same sequence did identical work."""
    keys = ("counters", "runs_end", "journal_bytes", "journal_records")
    return all(
        all(r[key] == rounds[i % k][key] for key in keys)
        for i, r in enumerate(rounds)
    )


def space_amps(rounds: List[Dict[str, Any]]) -> List[float]:
    """Each round's space amplification in its settled state."""
    return [r["data_bytes"] / r["live_bytes"] for r in rounds if r["live_bytes"]]


def _ratio(rounds: List[Dict[str, Any]], num: str, den: str) -> float:
    total = sum(r[den] for r in rounds)
    return sum(r[num] for r in rounds) / total if total else 0.0


def end_to_end(w: Any, rounds: List[Dict[str, Any]], best: FastestReplay,
               setup: FastestReplay) -> Dict[str, float]:
    """End-to-end metrics from the untraced rounds.

    Timings are each call's fastest replay (see ``FastestReplay``).  The put
    median is over the puts of the smallest value size, so that it stays
    inside one latency mode when a workload mixes one-chunk and multi-chunk
    values.  ``setup_s`` is the fastest-replay time of a set-up's steps,
    averaged over the sequences.  ``space_amp`` is the median over the sequences: a store
    that ran out of space cannot compact or reclaim, and one such sequence
    would otherwise swing the ratio of a run by half (the failures are in
    ``failed``, the wedged store's ratio in ``store.space_amp_max``).
    """
    from harness import median, percentile

    k = len(setup.best)
    first = rounds[:k]
    return {
        "throughput_ops_s": best.throughput(),
        "put_p50_us": percentile(
            best.puts_of_size(min(w.value_sizes)), 0.5) / 1e3,
        "get_p50_us": percentile(best.kind("get"), 0.5) / 1e3,
        "write_amp": _ratio(first, "device_bytes", "user_bytes"),
        "space_amp": median(space_amps(first)),
        "setup_s": sum(setup.kind("setup")) / k / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trajectory(rounds: List[Dict[str, Any]]) -> List[Dict[str, float]]:
    """Throughput and max LSM runs per tenth of the first round."""
    out = []
    prev_n, prev_t = 0, 0
    for n, t, runs in rounds[0]["trajectory"][:10]:
        out.append({
            "ops_end": n,
            "ops_s": (n - prev_n) / ((t - prev_t) / 1e9),
            "lsm_runs_max": runs,
        })
        prev_n, prev_t = n, t
    return out


def per_layer(w: Any, k: int, plain: List[Dict[str, Any]],
              traced: List[Dict[str, Any]], plain_best: FastestReplay,
              traced_best: FastestReplay,
              folds: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics.

    Counts and self times come from the traced rounds (whole groups, so
    per-op ratios repeat exactly); latency tails, recovery and check speed
    come from the untraced rounds.
    """
    from harness import median, percentile

    ops = sum(r["ops"] for r in traced)
    client_ns = sum(r["client_ns"] for r in traced)
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    under: Counter = Counter()
    roots: Counter = Counter()
    root_ns = 0
    for fold in folds:
        self_ns.update(fold["self_ns"])
        calls.update(fold["calls"])
        under.update(fold["under"])
        roots.update(fold["roots"])
        root_ns += fold["root_ns"]
    top = "router" if w.target == "cluster" else "store"
    puts = roots[f"{top}.put"]
    gets = roots[f"{top}.get"]

    def per_put(label: str) -> float:
        return under[(f"{top}.put", label)] / puts if puts else 0.0

    first = traced[:k]
    counters: Counter = Counter()
    for r in first:
        counters.update(r["counters"])
    n = sum(r["ops"] for r in first)
    group_puts = sum(r["calls"]["put"] for r in first)
    pooled = plain_best.pooled
    hits, misses = counters["cache_hits"], counters["cache_misses"]
    steps: Dict[str, List[float]] = {}
    for r in plain:
        for sample in r["recovery_steps"]:
            for step, ms in sample.items():
                steps.setdefault(step, []).append(ms)
    check = [r["check"] for r in plain if r["check"]]
    check_records = sum(c["records"] for c in check)
    check_s = sum(c["seconds"] for c in check)
    out: Dict[str, float] = {
        "trace.unattributed_frac": (client_ns - root_ns) / client_ns,
        "trace.overhead": plain_best.throughput() / traced_best.throughput(),
        "router.node_gets_per_put": per_put("rpc.get"),
        "router.replica_applies_per_put": per_put("rpc.put"),
        "store.drains_per_put": per_put("store.drain"),
        "merkle.sets_per_put": per_put("merkle.set"),
        "lsm.runs_end": max(r["runs_end"] for r in first),
        "lsm.flushes_per_kop": counters["lsm_flushes"] * 1e3 / n,
        "lsm.compact_ms_p50": median(
            [ns for r in plain for ns in r["compact_ns"]]) / 1e6,
        "buffer_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "disk.reads_per_get": (
            under[(f"{top}.get", "disk.read")] / gets if gets else 0.0),
        "disk.bytes_written_per_put": (
            counters["disk_bytes_written"] / group_puts if group_puts else 0.0),
        "scheduler.pumps_per_op": calls["scheduler.pump_one"] / ops,
        "scheduler.records_per_io": (
            counters["records_written"] / counters["ios_issued"]
            if counters["ios_issued"] else 0.0),
        "superblock.flushes_per_put": (
            calls["superblock.flush"] / puts if puts else 0.0),
        "reclamation.extents_per_kop": calls["reclamation.reclaim"] * 1e3 / ops,
        "store.space_amp_max": max(space_amps(plain[:k]), default=0.0),
        "recovery.p50_ms": median(
            [s for r in plain for s in r["recovery_s"]]) * 1e3,
        "recovery.seal_ms": median(steps.get("seal", [])),
        "recovery.superblock_ms": median(steps.get("superblock", [])),
        "recovery.pointers_ms": median(steps.get("pointers", [])),
        "recovery.index_ms": median(steps.get("index", [])),
        "journal.bytes_per_op": sum(r["journal_bytes"] for r in first) / n,
        "journal.records_per_op": sum(r["journal_records"] for r in first) / n,
        "evidence.self_us_per_record": (
            check_s * 1e6 / check_records if check_records else 0.0),
        "evidence.check_records_s": (
            check_records / check_s if check_s else 0.0),
        "client.put_p99_us": percentile(pooled["put"], 0.99) / 1e3,
        "client.get_p99_us": percentile(pooled["get"], 0.99) / 1e3,
        "client.delete_p50_us": percentile(pooled["delete"], 0.5) / 1e3,
        "client.put_samples": len(pooled["put"]),
        "client.get_samples": len(pooled["get"]),
        "client.delete_samples": len(pooled["delete"]),
        "client.failed_frac": (
            sum(r["failed"] for r in plain) / sum(r["ops"] for r in plain)),
    }
    by_layer: Counter = Counter()
    for label, ns in self_ns.items():
        by_layer[label.split(".", 1)[0]] += ns
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_us_per_op"] = by_layer[layer] / ops / 1e3
    traj = trajectory(plain)
    for i in range(10):
        point = traj[i] if i < len(traj) else {"ops_s": 0.0, "lsm_runs_max": 0}
        out[f"trajectory.ops_s_t{i + 1:02d}"] = point["ops_s"]
        out[f"trajectory.runs_t{i + 1:02d}"] = point["lsm_runs_max"]
    return out


def write_artifact(result: Dict[str, Any]) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")


def print_report(result: Dict[str, Any]) -> None:
    units = PER_LAYER if result["trace"] else END_TO_END
    print(f"workload {result['workload']}: {result['why']}")
    print(f"seed {result['seed']}  op sequence sha256 "
          f"{result['op_sequence_sha256']}  value sizes "
          f"{result['value_size_mix']}  rounds {result['rounds']}  "
          f"failed {result['failed']} of {result['attempted']}")
    print(f"timed calls per group {result['timed_calls']}, each at its "
          f"fastest of {result['rounds']['plain'] // result['sequences']} "
          f"replays")
    for point in result["trajectory"]:
        print(f"  trajectory ops {point['ops_end']:>6}: "
              f"{point['ops_s']:9.1f} ops/s  max LSM runs {point['lsm_runs_max']}")
    for name, unit in units.items():
        print(f"  {name:34s} {result['metrics'][name]:14.4f} {unit}")
    if not result["correct"]:
        print(f"OUTPUT CHECK FAILED: {result['first_mismatch'] or result['check']}")
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(line))


if __name__ == "__main__":
    sys.exit(main())
