#!/usr/bin/env python3
"""Smoke test of the benchmark itself: ``python3 discobench/smoke.py``.

Runs every workload at a tenth of its size through the same code path as
``run.py``, untraced and traced, and checks that each run is correct and
reports exactly the metrics BENCHMARK.json declares. It also checks the
cost-model function against a hand-computed case, that the correctness gate
rejects wrong counters, and that the tracer restores what it replaced.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run

SCALE = 0.1
SECONDS = 2.5  # a few rounds, so that every dataset instance is solved


def check_cost_model():
    from disco import CommStats, PartitionMode
    from disco.solver import TraceRecord

    from costmodel import expected_stats, inner_iters_per_step

    # d=10, n=7, three gradient evaluations, Newton steps of 2 and 1 inner iterations.
    samples = expected_stats(PartitionMode.SAMPLES, 10, 7, 3, [2, 1])
    assert samples == CommStats(
        broadcast_rounds=6, reduceall_rounds=6, broadcast_bytes=480, reduceall_bytes=480
    ), samples
    # features: 3*3 + 3 reduce_alls; scalars (2 + 1 + 6) + (2 + 0 + 3) = 14;
    # bytes 8 * (7 * (3 + 3) + 14) = 448; two concatenating reduces of 8*10.
    features = expected_stats(PartitionMode.FEATURES, 10, 7, 3, [2, 1])
    assert features == CommStats(
        reduce_rounds=2, reduceall_rounds=12, reduce_bytes=160, reduceall_bytes=448
    ), features

    @dataclasses.dataclass
    class Result:
        trace: list

    rows = [TraceRecord(k, 1.0, cum, 0, 0, 0.0) for k, cum in enumerate((0, 2, 3))]
    assert inner_iters_per_step(Result(rows)) == [2, 1]


def check_gate_and_tracer():
    from disco import Cluster, solver

    from tracer import TRACED, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS["wide_features_square"]
    ds, config = workload.map_labels(workload.generate(1, SCALE)), workload.config(SCALE)
    cluster = Cluster(workload.m)
    before = [getattr(owner, attr) for owner, attr, _ in TRACED]
    with Tracer().installed():
        result = solver.disco_outer(cluster, ds, config)
    assert [getattr(owner, attr) for owner, attr, _ in TRACED] == before, "tracer left wrappers installed"
    stats = cluster.snapshot_stats()
    assert run.check_solve(workload, ds, config, result, stats) is None
    wrong = dataclasses.replace(stats, reduceall_bytes=stats.reduceall_bytes + 8)
    assert "cost model" in run.check_solve(workload, ds, config, result, wrong)


def check_workloads():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[group]}
        for entry in spec["workloads"]:
            env, result = run.run(entry["name"], 3, SECONDS, trace, scale=SCALE)
            name = f"{entry['name']} trace={int(trace)}"
            assert result["correct"] and result["failed"] == 0, (name, result)
            if not trace:
                assert all(env["raw_medians"]["solves"]), (name, env["raw_medians"])
            reported = {k: v["unit"] for k, v in result["metrics"].items()}
            assert reported == declared, (name, set(reported) ^ set(declared))
            print(f"ok {name}: {result['attempted']} solves")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_cost_model()
    check_gate_and_tracer()
    check_workloads()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
