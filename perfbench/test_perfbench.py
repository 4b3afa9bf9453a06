"""The benchmark's own tests: output check, negative control, exact counters.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_METRICS = (
    "router.node_gets_per_put",
    "router.replica_applies_per_put",
    "store.drains_per_put",
    "merkle.sets_per_put",
    "lsm.runs_end",
    "lsm.flushes_per_kop",
    "buffer_cache.hit_rate",
    "disk.reads_per_get",
    "disk.bytes_written_per_put",
    "scheduler.pumps_per_op",
    "scheduler.records_per_io",
    "superblock.flushes_per_put",
    "reclamation.extents_per_kop",
    "journal.bytes_per_op",
    "journal.records_per_op",
)


def corrupt_nth_get(n: int):
    """An instrument whose wrapper corrupts the result of the n-th get."""
    calls = [0]

    def instrument(client):
        real = client.get

        def get(key):
            value = real(key)
            calls[0] += 1
            if calls[0] == n:
                return bytes([value[0] ^ 0xFF]) + value[1:]
            return value

        client.get = get

    return instrument


def test_clean_run_is_correct_with_no_failures():
    result = bench.run("store-churn", 1, 0.1, trace=False)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] == 2 * result["sequences"] * result["round_ops"]
    assert set(result["metrics"]) == set(bench.END_TO_END)
    assert all(v > 0 for v in result["metrics"].values())


def test_one_corrupted_get_fails_the_run(monkeypatch, capsys):
    real_run = bench.run
    monkeypatch.setattr(
        bench, "run",
        lambda *a, **kw: real_run(*a, instrument=corrupt_nth_get(40), **kw),
    )
    code = bench.main(
        ["--workload", "store-churn", "--seed", "2", "--seconds", "0.1"]
    )
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False


def test_one_corrupted_cluster_get_fails_the_run():
    result = bench.run("cluster-ingest", 2, 0.1, trace=False,
                       instrument=corrupt_nth_get(30))
    assert not result["correct"]
    assert "get" in result["first_mismatch"]


def test_counters_repeat_exactly_and_match_the_write_path_diagnosis():
    first = bench.run("cluster-ingest", 5, 0.1, trace=True)
    second = bench.run("cluster-ingest", 5, 0.1, trace=True)
    assert first["correct"] and second["correct"]
    assert first["counters_repeat"] and second["counters_repeat"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    metrics = first["metrics"]
    assert metrics["router.node_gets_per_put"] == 3
    assert metrics["store.drains_per_put"] == 6
    assert metrics["merkle.sets_per_put"] == 6
    assert metrics["trace.unattributed_frac"] < 0.05
    assert set(metrics) == set(bench.PER_LAYER)


def test_store_churn_counters_repeat_across_reboots():
    first = bench.run("store-churn", 3, 0.1, trace=True)
    second = bench.run("store-churn", 3, 0.1, trace=True)
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["recovery.index_ms"] > 0
    assert first["metrics"]["trace.unattributed_frac"] < 0.05


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "validate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children():
    class Layer:
        def __init__(self, child=None):
            self.child = child

        def work(self):
            if self.child is not None:
                self.child.work()
                self.child.work()

    tracer = Tracer()
    inner = Layer()
    outer = Layer(inner)
    for obj, label in ((inner, "disk.work"), (outer, "store.work")):
        obj.work = tracer._wrap(label, obj.work)
    tracer.active = True
    outer.work()
    fold = tracer.take().fold()
    assert fold["calls"] == {"store.work": 1, "disk.work": 2}
    assert fold["under"][("store.work", "disk.work")] == 2
    assert sum(fold["self_ns"].values()) == fold["root_ns"]


def test_fastest_replay_keeps_each_calls_minimum_within_its_sequence():
    # Two sequences; rounds alternate between them.
    best = bench.FastestReplay(2)
    rounds = [
        {"lat": {"put": [5, 9], "maintenance": [3]}, "put_bytes": [64, 512]},
        {"lat": {"put": [7], "maintenance": []}, "put_bytes": [64]},
        {"lat": {"put": [4, 10], "maintenance": [2]}, "put_bytes": [64, 512]},
        {"lat": {"put": [6], "maintenance": []}, "put_bytes": [64]},
    ]
    for i, r in enumerate(rounds):
        best.add(i % 2, r)
    assert best.best == [{"put": [4, 9], "maintenance": [2]},
                         {"put": [6], "maintenance": []}]
    assert best.kind("put") == [4, 9, 6]
    assert best.puts_of_size(64) == [4, 6]
    assert best.throughput() == 3 / (21 / 1e9)
    assert all("lat" not in r and r["calls"]["put"] for r in rounds)


def test_replay_count_depends_on_seconds_only():
    from workloads import WORKLOADS

    w = WORKLOADS["cluster-read"]
    assert bench.replays(w, 24, trace=False) == round(24 / w.group_s)
    assert bench.replays(w, 0.1, trace=False) == 2
    assert bench.replays(w, 0.1, trace=True) == 1


def test_benchmark_json_matches_the_metric_tables():
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
